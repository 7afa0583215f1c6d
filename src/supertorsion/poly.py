"""Dense univariate polynomials over an exact field, plus truncated power
series and their d-th roots, solved one coefficient at a time.

Coefficients are stored ascending by degree with trailing zeros trimmed; the
zero polynomial has an empty coefficient tuple and degree ``NEG_INF``.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import (
    BadInitialValue,
    BadParameters,
    BothZero,
    CharDividesD,
    DivisionByZero,
    FieldMismatch,
    MathCheckError,
    ZeroPolynomial,
)
from .fields import Field, FieldElement

#: degree of the zero polynomial; compares below every integer
NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field != field:
                    raise FieldMismatch("coefficient from a different field")
                cs.append(c)
            else:
                cs.append(field(c))
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # --- constructors ---

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, c: FieldElement):
        return cls(c.field, (c,))

    @classmethod
    def monomial(cls, field, degree: int, coeff=1):
        return cls(field, [0] * degree + [coeff])

    # --- basic structure ---

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    @property
    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> FieldElement:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    # --- arithmetic ---

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field != self.field:
                raise FieldMismatch("polynomials over different fields")
            return other
        if isinstance(other, (int, FieldElement)):
            return Poly(self.field, (other,))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(self.field, [self[i] + o[i] for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(self.field, [self[i] - o[i] for i in range(n)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement) or isinstance(other, int):
            c = self.field(other)
            return Poly(self.field, [a * c for a in self.coeffs])
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return Poly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise BadParameters("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return Poly.zero(self.field), self
        quo = [self.field.zero] * (dq + 1)
        inv_lead = o.leading.inverse()
        for shift in range(dq, -1, -1):
            top = rem[shift + len(o.coeffs) - 1]
            if top.is_zero():
                continue
            c = top * inv_lead
            quo[shift] = c
            for i, b in enumerate(o.coeffs):
                rem[shift + i] = rem[shift + i] - c * b
        return Poly(self.field, quo), Poly(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero()

    # --- evaluation and substitution ---

    def __call__(self, x) -> FieldElement:
        if not isinstance(x, FieldElement):
            x = self.field(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)) by Horner on polynomial values."""
        acc = Poly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.constant(c)
        return acc

    def shift(self, a) -> "Poly":
        """x -> x + a substitution."""
        if not isinstance(a, FieldElement):
            a = self.field(a)
        return self.compose(Poly(self.field, (a, 1)))

    def scale_arg(self, c) -> "Poly":
        """x -> c*x substitution."""
        if not isinstance(c, FieldElement):
            c = self.field(c)
        out, power = [], self.field.one
        for coeff in self.coeffs:
            out.append(coeff * power)
            power = power * c
        return Poly(self.field, out)

    def derivative(self) -> "Poly":
        return Poly(self.field, [self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return self * self.leading.inverse()

    def reverse(self, m: int) -> "Poly":
        """x^m * self(1/x): coefficient reversal padded to length m+1."""
        if self.degree > m:
            raise BadParameters(f"degree {self.degree} exceeds reversal order {m}")
        padded = [self[i] for i in range(m + 1)]
        return Poly(self.field, list(reversed(padded)))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                terms.append(f"{c!r}")
            elif i == 1:
                terms.append(f"{c!r}*x")
            else:
                terms.append(f"{c!r}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm."""
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_xgcd(f: Poly, g: Poly):
    """(h, s, t) with h = s*f + t*g the monic gcd."""
    field = f.field
    r0, r1 = f, g
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        raise BothZero("xgcd(0, 0) is undefined")
    lead_inv = r0.leading.inverse()
    return r0 * lead_inv, s0 * lead_inv, t0 * lead_inv


class InseparableWarning(UserWarning):
    """f' vanished identically over F_p: f is a p-th power in disguise."""


def is_squarefree(f: Poly) -> bool:
    """True iff f has no repeated roots (in an algebraic closure).

    Nonzero constants count as squarefree.  Over F_p a vanishing derivative
    means f lies in F_p[x^p]; that is reported as not squarefree with a
    warning, since it only arises from degenerate parameters here.
    """
    if f.is_zero():
        raise ZeroPolynomial("squarefreeness of the zero polynomial is undefined")
    if f.is_constant():
        return True
    fp = f.derivative()
    if fp.is_zero():
        warnings.warn("derivative vanished identically (inseparable direction)",
                      InseparableWarning, stacklevel=2)
        return False
    return poly_gcd(f, fp).degree == 0


def roots_in_field(f: Poly):
    """All base-field roots of f, without multiplicity.

    Over F_p the distinct linear factors of f multiply to gcd(f, x^p - x),
    with x^p mod f taken by repeated squaring; that product is split by
    gcd((x+a)^((p-1)/2) - 1, .) for a = 0, 1, 2, ... in turn, so the result
    needs no randomness.  The roots come back in ascending order of residue.
    Over Q: rational-root search.
    """
    if f.is_zero():
        raise ZeroPolynomial("every point is a root of the zero polynomial")
    field = f.field
    if field.kind != "Fp":
        return _rational_roots(f)
    if f.is_constant():
        return ()
    x = Poly.x(field)
    linear = poly_gcd(f, _powmod(x, field.p, f) - x)
    return tuple(sorted(_split_linear(linear), key=lambda r: r.value))


def _powmod(base: Poly, e: int, modulus: Poly) -> Poly:
    """base^e mod modulus (deg modulus >= 1) by repeated squaring."""
    result, base = Poly.one(base.field), base % modulus
    while e:
        if e & 1:
            result = result * base % modulus
        e >>= 1
        if e:
            base = base * base % modulus
    return result


def _split_linear(g: Poly):
    """The roots of a monic product of distinct linear factors over F_p."""
    field = g.field
    if g.degree < 1:
        return []
    if g.degree == 1:
        return [-g[0]]
    if g[0].is_zero():
        # split off x: over F_2 the quadratic character below is trivial
        return [field.zero] + _split_linear(Poly(field, g.coeffs[1:]))
    p = field.p
    for a in range(p):
        h = poly_gcd(g, _powmod(Poly(field, (a, 1)), (p - 1) // 2, g) - 1)
        if 0 < h.degree < g.degree:
            return _split_linear(h) + _split_linear(g // h)
    # unreachable: for distinct roots r, s a character sum shows that
    # (r+a)(s+a) is a non-residue for some a, which puts exactly one in h
    raise MathCheckError(f"no shift a < {p} splits {g!r}")


def _rational_roots(f: Poly):
    field = f.field
    roots = []
    # strip x^k to make the constant term nonzero
    k = 0
    while k < len(f.coeffs) and f.coeffs[k].is_zero():
        k += 1
    if k > 0:
        roots.append(field.zero)
        f = Poly(field, f.coeffs[k:])
    if f.is_constant():
        return tuple(roots)
    # clear denominators to primitive integer form
    denlcm = lcm(*(c.value.denominator for c in f.coeffs))
    ints = [int(c.value * denlcm) for c in f.coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                x = field(cand)
                if f(x).is_zero() and x not in roots:
                    roots.append(x)
    return tuple(roots)


def _divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


class TruncatedSeries:
    """Power series known modulo t^precision; exactly ``precision`` coefficients."""

    __slots__ = ("field", "coeffs", "precision")

    def __init__(self, field, coeffs, precision: int):
        if precision < 1:
            raise BadParameters("precision must be >= 1")
        cs = [c if isinstance(c, FieldElement) else field(c) for c in coeffs]
        cs = cs[:precision] + [field.zero] * (precision - len(cs))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def from_poly(cls, f: Poly, precision: int):
        return cls(f.field, f.coeffs, precision)

    def __getitem__(self, i):
        return self.coeffs[i]

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and self.field == other.field
                and self.precision == other.precision and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs, self.precision))

    def __add__(self, other):
        n = min(self.precision, other.precision)
        return TruncatedSeries(self.field,
                               [self.coeffs[i] + other.coeffs[i] for i in range(n)], n)

    def __sub__(self, other):
        n = min(self.precision, other.precision)
        return TruncatedSeries(self.field,
                               [self.coeffs[i] - other.coeffs[i] for i in range(n)], n)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            c = self.field(other)
            return TruncatedSeries(self.field, [a * c for a in self.coeffs], self.precision)
        n = min(self.precision, other.precision)
        out = [self.field.zero] * n
        for i in range(n):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            for j in range(n - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return TruncatedSeries(self.field, out, n)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        result = TruncatedSeries(self.field, [self.field.one], self.precision)
        for _ in range(e):
            result = result * self
        return result

    def inverse(self):
        if self.coeffs[0].is_zero():
            raise DivisionByZero("series with zero constant term is not invertible")
        n = self.precision
        inv0 = self.coeffs[0].inverse()
        out = [inv0] + [self.field.zero] * (n - 1)
        for k in range(1, n):
            acc = self.field.zero
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -acc * inv0
        return TruncatedSeries(self.field, out, n)

    def valuation(self):
        """Index of the first nonzero coefficient (None if all vanish)."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        return None

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r} + O(t^{self.precision}))"


def series_dth_root(f: Poly, d: int, center, y0, precision: int) -> TruncatedSeries:
    """s(t) with s(t)^d = f(center + t) mod t^precision and s(0) = y0.

    Needs char not dividing d and y0 a nonzero d-th root of f(center); the
    coefficients come from ``_series_root_powers``.
    """
    powers, scale = _series_root_powers(f, d, center, y0, precision)
    y = f.field(y0).value
    # s_k = y0 * r_k / C^k; over F_p, C = 1 and the field reduces y0 * r_k
    return TruncatedSeries(f.field, [Fraction(y * r, scale ** k)
                                     for k, r in enumerate(powers[1])], precision)


def _series_root_powers(f: Poly, d: int, center, y0, precision: int):
    """(powers, C): powers[j][k] = C^k * (coefficient k of (s/y0)^j) for
    j = 0..d and the s of ``series_dth_root``, as bare values: integers over
    Q, residues mod p over F_p, where C = 1.

    r = s/y0 has r(0) = 1 and r^d = h := g/g(0) with g = f(center + t).  Let
    R_j be coefficient k of r^j computed with r_k set to 0; the true
    coefficient is R_j + j*r_k, and r^d = h gives r_k = (h_k - R_d)/d.  R_j
    is one convolution of r^(j-1) with r plus R_(j-1), so the powers fill
    together in O(d*precision^2) operations.  Only d is ever inverted, so
    every characteristic not dividing d works, p <= precision included.
    Over Q the series is taken in u = t/C with C = c*d^2, where c clears the
    denominators of h: then every coefficient is an integer (because
    d^(2m) * binomial(1/d, m) is one) and the division by d is exact.
    """
    field = f.field
    center, y0 = field(center), field(y0)
    char = field.characteristic()
    if char != 0 and d % char == 0:
        raise CharDividesD(f"characteristic {char} divides {d}")
    if precision < 1:
        raise BadParameters("precision must be >= 1")

    def red(v):
        return v % char if char else v

    a, y = center.value, y0.value
    g = []
    for c in reversed(f.coeffs):  # Horner: g <- g*(a + t) + c
        g = [red(a * u + v) for u, v in zip(g + [0], [0] + g)]
        g[0] = red(g[0] + c.value)
    g = (g + [0] * precision)[:precision]
    if red(y ** d) != g[0]:
        raise BadInitialValue("y0^d != f(center)")
    if y == 0:
        raise BadInitialValue("y0 must be nonzero: the series is y0 * (f/y0^d)^(1/d)")
    if char:
        scale, inv_d, inv_g0 = 1, pow(d, -1, char), pow(g[0], -1, char)
        h = [v * inv_g0 % char for v in g]
    else:
        h = [v / g[0] for v in g]
        scale = lcm(*(v.denominator for v in h)) * d * d
        h = [int(v * scale ** k) for k, v in enumerate(h)]
    powers = [[1] + [0] * (precision - 1) for _ in range(d)] + [h]
    r = powers[1]
    for k in range(1, precision):
        tail = r[k - 1:0:-1]  # r_(k-1), ..., r_1
        partial = [0, 0]      # R_0 (unused), R_1
        for j in range(2, d + 1):
            partial.append(red(sum(map(mul, powers[j - 1][1:k], tail)) + partial[-1]))
        r[k] = (h[k] - partial[d]) * inv_d % char if char else (h[k] - partial[d]) // d
        for j in range(2, d):
            powers[j][k] = red(partial[j] + j * r[k])
    return powers, scale
