"""Dense univariate polynomials over an exact field, plus truncated power
series and their d-th roots, solved one coefficient at a time.

Coefficients are stored as bare values (Fractions over Q, residues in [0, p)
over F_p), ascending by degree with trailing zeros trimmed; every accessor
hands out ``FieldElement``s.  The zero polynomial has an empty tuple of values
and degree ``NEG_INF``.  Division, Euclid, resultants, powers mod f and root
splitting run in kernels on value lists (``_divmod_values`` and the like);
``divmod`` and the public functions wrap them and build one result object.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd
from operator import add, mul, sub

from .errors import BadParameters, MathCheckError, UnsupportedField
from .fields import GF, Field, FieldElement

#: degree of the zero polynomial; compares below every integer
NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "values")

    def __new__(cls, field: Field, coeffs):
        return cls._from_values(field, [field(c).value for c in coeffs])

    @classmethod
    def _from_values(cls, field, values):
        """From bare values already in canonical form for ``field``."""
        values = _trim(list(values))
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "values", tuple(values))
        return out

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
    def monomial(cls, field, degree: int, coeff=1):
        return cls(field, [0] * degree + [coeff])

    # --- basic structure ---

    @property
    def coeffs(self):
        return tuple(FieldElement(self.field, v) for v in self.values)

    @property
    def degree(self):
        return len(self.values) - 1 if self.values else NEG_INF

    def is_zero(self):
        return not self.values

    def is_constant(self):
        return len(self.values) <= 1

    @property
    def leading(self) -> FieldElement:
        if not self.values:
            raise BadParameters("zero polynomial has no leading coefficient")
        return FieldElement(self.field, self.values[-1])

    def __getitem__(self, i: int) -> FieldElement:
        if 0 <= i < len(self.values):
            return FieldElement(self.field, self.values[i])
        return self.field.zero

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.values == other.values
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.values))

    # --- arithmetic ---

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field != self.field:
                raise BadParameters("polynomials over different fields")
            return other
        if isinstance(other, (int, FieldElement)):
            return Poly(self.field, (other,))
        return NotImplemented

    def _termwise(self, other, op):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        red = self.field.reduce
        return Poly._from_values(self.field, [
            red(op(a, b)) for a, b in zip_longest(self.values, o.values, fillvalue=0)])

    def __add__(self, other):
        return self._termwise(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._termwise(other, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        red = self.field.reduce
        return Poly._from_values(self.field, [red(-a) for a in self.values])

    def __mul__(self, other):
        field = self.field
        if isinstance(other, (FieldElement, int)):
            c, red = field(other).value, field.reduce
            return Poly._from_values(field, [red(a * c) for a in self.values])
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        (a, da), (b, db) = field.split(self.values), field.split(o.values)
        return Poly._from_values(field, field.join(_convolve(a, b, len(a) + len(b) - 1), da * db))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        """self^e on integer numerators: with self = F/den, F^e / den^e
        (``_pow_ints``)."""
        if e < 0:
            raise BadParameters("negative polynomial power")
        field = self.field
        ints, den = field.split(self.values)
        return Poly._from_values(field, field.join(_pow_ints(field, ints, e), den ** e))

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise MathCheckError("polynomial division by zero")
        q, r = _divmod_values(self.field, self.values, o.values)
        return Poly._from_values(self.field, q), Poly._from_values(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # --- evaluation and substitution ---

    def __call__(self, x) -> FieldElement:
        """Horner's rule: reduced mod p over F_p; over Q on integer numerators,
        where self = F/den and x = X/s give sum F_i X^i s^(n-i) / (den s^n)."""
        field, x = self.field, self.field(x).value
        if field.characteristic():
            red, acc = field.reduce, 0
            for c in reversed(self.values):
                acc = red(acc * x + c)
            return FieldElement(field, acc)
        ints, den = field.split(self.values)
        if not ints:
            return field.zero
        X, s = x.numerator, x.denominator
        acc, s_pow = ints[-1], 1
        for c in reversed(ints[:-1]):
            s_pow *= s
            acc = acc * X + c * s_pow
        return FieldElement(field, field.join((acc,), den * s_pow)[0])

    def shift(self, a) -> "Poly":
        """x -> x + a substitution on integer numerators (``_shift_ints``)."""
        field = self.field
        ints, den = field.split(self.values)
        (A,), s = field.split((field(a).value,))
        g, scale = _shift_ints(field, ints, A, s)
        return Poly._from_values(field, field.join(g, den * scale))

    def derivative(self) -> "Poly":
        red, a = self.field.reduce, self.values
        return Poly._from_values(self.field, [red(a[i] * i) for i in range(1, len(a))])

    def monic(self) -> "Poly":
        if self.is_zero():
            raise BadParameters("cannot normalize the zero polynomial")
        return self * self.leading.inverse()

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.values):
            if not c:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def _convolve(a, b, n):
    """Coefficients 0..n-1 (n < len(a) + len(b)) of the product of a and b."""
    rb = b[::-1]
    out = []
    for k in range(n):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1) + 1
        out.append(sum(map(mul, a[lo:hi], rb[len(b) - 1 - k + lo:])))
    return out


def _pow_ints(field, ints, e):
    """F^e for the integer coefficients F of ``field.split`` (residues over
    F_p).  A linear F = c0 + c1*x expands by the binomial theorem; any other
    F by left-to-right squaring with ``_packed_product``, reduced mod p over
    F_p after each product, so that slots do not grow with e."""
    mod = field.characteristic() or None
    if len(ints) == 2:
        (c0, c1), out, binom = ints, [], 1
        for k in range(e + 1):
            out.append(binom * pow(c0, e - k, mod) * pow(c1, k, mod))
            binom = binom * (e - k) // (k + 1)
        return out
    out = ints if e else [1]
    for bit in bin(e)[3:]:
        out = _packed_product(out, out, mod)
        if bit == "1":
            out = _packed_product(out, ints, mod)
    return out


def _packed_product(a, b, mod):
    """The product of the integer lists a and b, reduced mod ``mod`` if given,
    from one product of CPython integers (Kronecker substitution; von zur
    Gathen & Gerhard, *Modern Computer Algebra*, §8.4) in w-byte slots; over
    Q, where coefficients have signs, each slot is read with 256^w / 2 added."""
    if not a or not b:
        return []
    w = (min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))).bit_length() // 8 + 1
    m, half, x = len(a) + len(b) - 1, 0 if mod else 1 << (8 * w - 1), _pack(a, w)
    x *= x if a is b else _pack(b, w)
    raw = (x + half * _pack([1] * m, w) if half else x).to_bytes(w * m, "little")
    if mod:
        return [int.from_bytes(raw[i:i + w], "little") % mod for i in range(0, w * m, w)]
    return [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, w * m, w)]


def _pack(ints, w):
    """sum ints[i] * 256^(w*i), for |ints[i]| < 256^w / 2."""
    if min(ints) < 0:
        return _pack([max(c, 0) for c in ints], w) - _pack([max(-c, 0) for c in ints], w)
    return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in ints), "little")


def _shift_ints(field, ints, A, s):
    """(G, s^n) with G / s^n = F(x + A/s), for the integer coefficients F of
    degree n of ``field.split`` (residues and s = 1 over F_p): Horner's rule
    gives H(x + A) for H_i = F_i * s^(n-i), and G_k = s^k * (H(x + A))_k."""
    if not A:
        return list(ints), 1
    p, g = field.characteristic(), []
    n = max(len(ints) - 1, 0)
    if s != 1:
        ints = [c * s ** (n - i) for i, c in enumerate(ints)]
    for c in reversed(ints):  # g <- g*(x + A) + c, reduced mod p over F_p only
        g = ([(A * u + v) % p for u, v in zip(g + [0], [c] + g)] if p else
             [A * u + v for u, v in zip(g + [0], [c] + g)])
    if s == 1:
        return g, 1
    return [c * s ** k for k, c in enumerate(g)], s ** n


def _trim(values):
    """values without trailing zeros (in place)."""
    while values and not values[-1]:
        values.pop()
    return values


def _divmod_values(field, a, b):
    """(quotient, remainder) value lists of a by a trimmed nonzero b.  a may
    be unreduced (a raw convolution, say): only each leading coefficient, as
    it is divided out, and the final remainder are reduced."""
    red, nb = field.reduce, len(b)
    rem, quo = list(a), [0] * (len(a) - nb + 1)
    inv_lead, low = field.inv(b[-1]), b[:-1]
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = red(rem[k + nb - 1] * inv_lead)
        if c:
            rem[k:k + nb - 1] = [r - c * y for r, y in zip(rem[k:k + nb - 1], low)]
    return quo, _trim([red(r) for r in rem[:nb - 1]])


def _euclid_values(field, rows):
    """Euclid on two rows (r, c, ...) of value lists, the r's trimmed and not
    both zero: (row0, row1) -> (row1, row0 - q*row1), q the quotient of the
    r's, until r1 = 0; then row0 scaled to a monic r.  So ((f,), (g,)) gives
    [gcd], and ((f, [1], []), (g, [], [1])) gives [h, s, t], h = s*f + t*g."""
    red = field.reduce
    while rows[1][0]:
        q, r = _divmod_values(field, rows[0][0], rows[1][0])
        rows = rows[1], (r, *(_trim([red(u - v) for u, v in zip_longest(
            a, _convolve(q, b, len(q) + len(b) - 1), fillvalue=0)])
            for a, b in zip(rows[0][1:], rows[1][1:])))
    inv = field.inv(rows[0][0][-1])
    return [[red(v * inv) for v in w] for w in rows[0]]


def _resultant_values(field, f, g):
    """Res(f, g) of trimmed nonzero value lists at their actual degrees, by
    Euclid's algorithm: with r = f mod g,
    Res(f, g) = (-1)^(deg f * deg g) * lc(g)^(deg f - deg r) * Res(g, r),
    down to Res(f, c) = c^(deg f) for a constant c, or to 0 when a remainder
    vanishes while g is not constant."""
    red, mod, res = field.reduce, field.characteristic() or None, 1
    while len(g) > 1:
        r = _divmod_values(field, f, g)[1]
        if not r:
            return 0
        if (len(f) - 1) * (len(g) - 1) % 2:
            res = -res
        res = red(res * pow(g[-1], len(f) - len(r), mod))
        f, g = g, r
    return red(res * pow(g[-1], len(f) - 1, mod))


def _powmod_linear(field, a, e, g):
    """(x + a)^e mod a monic g of degree >= 1 over F_p by left-to-right squaring;
    a step by x + a is a shift and one multiple of g, O(deg g), no division."""
    red, low, out = field.reduce, g[:-1], [1]
    for bit in bin(e)[2:]:
        out = _divmod_values(field, _convolve(out, out, 2 * len(out) - 1), g)[1]
        if bit == "1":  # out*(x + a), less c*g for out's top coefficient c
            c = out[-1] if len(out) == len(low) else 0
            out = _trim([red(a * u + v - c * w) for u, v, w in zip(out + [0], [0] + out, low)])
    return out


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm."""
    if f.is_zero() and g.is_zero():
        raise BadParameters("gcd(0, 0) is undefined")
    field, g = f.field, f._coerce(g)
    return Poly._from_values(field, _euclid_values(field, ((f.values,), (g.values,)))[0])


def poly_xgcd(f: Poly, g: Poly):
    """(h, s, t) with h = s*f + t*g the monic gcd."""
    if f.is_zero() and g.is_zero():
        raise BadParameters("xgcd(0, 0) is undefined")
    field, g = f.field, f._coerce(g)
    rows = ((f.values, [1], []), (g.values, [], [1]))
    return tuple(Poly._from_values(field, w) for w in _euclid_values(field, rows))


def resultant(f: Poly, g: Poly) -> FieldElement:
    """Res(f, g) of nonzero f and g at their actual degrees, by Euclid's
    algorithm: zero iff f and g share a root in an algebraic closure."""
    if f.is_zero() or g.is_zero():
        raise BadParameters("resultant with the zero polynomial")
    field, g = f.field, f._coerce(g)
    return field(_resultant_values(field, f.values, g.values))


def interpolate(field: Field, points, values) -> Poly:
    """The polynomial of degree < len(points) taking values[i] at points[i],
    for distinct points: Newton's divided differences, then Horner's rule
    for the Newton form, on bare values."""
    red, inv = field.reduce, field.inv
    xs = [field(x).value for x in points]
    c = [field(y).value for y in values]
    if len(set(xs)) != len(xs) or len(c) != len(xs):
        raise BadParameters("interpolation needs distinct points, one value each")
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            c[i] = red((c[i] - c[i - 1]) * inv(red(xs[i] - xs[i - j])))
    out = []
    for x, ci in zip(reversed(xs), reversed(c)):  # out <- out*(t - x) + ci
        out = [red(u - x * v) for u, v in zip([0] + out, out + [0])]
        out[0] = red(out[0] + ci)
    return Poly._from_values(field, out)


#: F_q for the three primes just below 2^30, whose residues fit in one
#: CPython digit.  Over Q, ``_coprime`` tries these first, and
#: ``verify_certificate`` takes the first of good reduction for its curve and
#: the lower bound of its order oracle.
_GOOD_FIELDS = tuple(GF(q) for q in (1073741789, 1073741783, 1073741741))


def _coprime(field, f, g) -> bool:
    """gcd(f, g) = 1, for value lists with f trimmed and nonzero.  Over Q, f
    and g coprime mod a q of ``_GOOD_FIELDS`` that keeps deg f prove it (a
    common factor would survive); only when every q fails does Euclid run on Q."""
    if not field.characteristic():
        (F, _), (G, _) = field.split(f), field.split(g)
        for fq in _GOOD_FIELDS:
            f_q = fq.join(F, 1)
            if f_q[-1] and len(_euclid_values(fq, ((f_q,), (_trim(fq.join(G, 1)),)))[0]) == 1:
                return True
    return len(_euclid_values(field, ((f,), (g,)))[0]) == 1


def is_squarefree(f: Poly) -> bool:
    """True iff f has no repeated roots (in an algebraic closure): gcd(f, f') = 1.

    Nonzero constants count as squarefree.  Over F_p a nonconstant f with
    f' = 0 lies in F_p[x^p], so it is g(x)^p for some g, and False is exact.
    """
    if f.is_zero():
        raise BadParameters("squarefreeness of the zero polynomial is undefined")
    if f.is_constant():
        return True
    fp = f.derivative()
    return not fp.is_zero() and _coprime(f.field, f.values, fp.values)


def roots_in_field(f: Poly):
    """All base-field roots of f, without multiplicity, in ascending order.

    Over F_2 they are read off f(0) and f(1).  Over F_p, p odd, one ladder
    gives h = x^((p-1)/2) mod f, then x^p = x*h^2 gives g = gcd(f, x^p - x),
    the product of the distinct linear factors, and h splits g at a = 0
    (``_split_linear``; no randomness).  Over Q it raises ``UnsupportedField``:
    a rational-root search by divisors is exponential in bit size.
    """
    if f.is_zero():
        raise BadParameters("every point is a root of the zero polynomial")
    field, h = f.field, None
    if field.kind != "Fp":
        raise UnsupportedField("roots_in_field needs a prime field")
    p = field.p
    if p == 2:
        return tuple(field(r) for r in (0, 1) if not f(r))
    g = list(f.monic().values)
    if len(g) > 3:
        h = _powmod_linear(field, 0, (p - 1) // 2, g)
        xp = _divmod_values(field, [0] + _convolve(h, h, 2 * len(h) - 1), g)[1] + [0, 0]
        xp[1] -= 1
        g = _euclid_values(field, ((g,), (_trim([v % p for v in xp]),)))[0]
    return tuple(field(r) for r in sorted(_split_linear(field, g, 0, h)))


def _split_linear(field, g, a, h=None):
    """Residues of the roots of a monic value list g, p odd: closed form to degree 2,
    else g is a product of distinct linear factors no shift below a splits, split by
    gcd(h - 1, g), h = (x+a)^((p-1)/2) mod g (a given h: mod a multiple), a = a, a+1, ..."""
    if len(g) <= 3:
        return list(_quadratic_roots(*([0] * (3 - len(g)) + g[::-1]), field))
    p = field.p
    for a in range(a, p):
        h = (_powmod_linear(field, a, (p - 1) // 2, g) if h is None else h) or [0]
        h = _euclid_values(field, ((g,), (_trim([(h[0] - 1) % p] + h[1:]),)))[0]
        if 1 < len(h) < len(g):
            return (_split_linear(field, h, a + 1)
                    + _split_linear(field, _divmod_values(field, g, h)[0], a + 1))
        h = None
    # unreachable: for distinct roots r, s a character sum shows that
    # (r+a)(s+a) is a non-residue for some a, which puts exactly one in h
    raise MathCheckError(f"no shift a < {p} splits {Poly._from_values(field, g)!r}")


def _quadratic_roots(a: int, b: int, c: int, field):
    """Roots in F_p, as residues, of a*x^2 + b*x + c for residues a, b, c
    (degenerating gracefully)."""
    p = field.p
    if not a:
        return (-c * pow(b, -1, p) % p,) if b else ()
    s = field.nth_root(field(b * b - 4 * a * c), 2)
    if s is None:
        return ()
    inv2a = pow(2 * a, -1, p)
    r1, r2 = (s.value - b) * inv2a % p, (-s.value - b) * inv2a % p
    return (r1,) if r1 == r2 else (r1, r2)


class TruncatedSeries:
    """Power series known modulo t^precision; exactly ``precision`` coefficients,
    stored as bare values like ``Poly.values``."""

    __slots__ = ("field", "values", "precision")

    def __new__(cls, field, coeffs, precision: int):
        return cls._from_values(field, [field(c).value for c in coeffs], precision)

    @classmethod
    def _from_values(cls, field, values, precision: int):
        if precision < 1:
            raise BadParameters("precision must be >= 1")
        values = list(values[:precision])
        values += [field.zero.value] * (precision - len(values))
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "values", tuple(values))
        object.__setattr__(out, "precision", precision)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def from_poly(cls, f: Poly, precision: int):
        return cls._from_values(f.field, f.values, precision)

    @property
    def coeffs(self):
        return tuple(FieldElement(self.field, v) for v in self.values)

    def __getitem__(self, i):
        return FieldElement(self.field, self.values[i])

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and self.field == other.field
                and self.precision == other.precision and self.values == other.values)

    def __hash__(self):
        return hash((self.field, self.values, self.precision))

    def _termwise(self, other, op):
        red = self.field.reduce
        return TruncatedSeries._from_values(
            self.field, [red(op(a, b)) for a, b in zip(self.values, other.values)],
            min(self.precision, other.precision))

    def __add__(self, other):
        return self._termwise(other, add)

    def __sub__(self, other):
        return self._termwise(other, sub)

    def __mul__(self, other):
        red = self.field.reduce
        if isinstance(other, (int, FieldElement)):
            c = self.field(other).value
            return TruncatedSeries._from_values(
                self.field, [red(a * c) for a in self.values], self.precision)
        n = min(self.precision, other.precision)
        return TruncatedSeries._from_values(
            self.field, [red(c) for c in _convolve(self.values, other.values, n)], n)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        result = TruncatedSeries(self.field, [self.field.one], self.precision)
        for _ in range(e):
            result = result * self
        return result

    def inverse(self):
        a = self.values
        if not a[0]:
            raise MathCheckError("series with zero constant term is not invertible")
        red, inv0 = self.field.reduce, self.field.inv(a[0])
        out = [inv0]
        for k in range(1, self.precision):
            out.append(red(-sum(map(mul, a[1:k + 1], out[::-1])) * inv0))
        return TruncatedSeries._from_values(self.field, out, self.precision)

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r} + O(t^{self.precision}))"


def series_dth_root(f: Poly, d: int, center, y0, precision: int) -> TruncatedSeries:
    """s(t) with s(t)^d = f(center + t) mod t^precision and s(0) = y0.

    Needs char not dividing d and y0 a nonzero d-th root of f(center); the
    coefficients come from ``_series_root_powers``.
    """
    field = f.field
    powers, scale = _series_root_powers(f, d, center, y0, precision, 1)
    y, c = field(y0).value, field.inv(field(scale).value)
    # s_k = y0 * r_k / C^k; over F_p, C = 1
    return TruncatedSeries._from_values(
        field, [field.reduce(y * r * c ** k) for k, r in enumerate(powers[1])], precision)


def _series_root_powers(f: Poly, d: int, center, y0, precision: int, top: int):
    """(powers, C): powers[j][k] = C^k * (coefficient k of (s/y0)^j) for
    j = 0..top and the s of ``series_dth_root``, as bare values: integers over
    Q, residues mod p over F_p, where C = 1.

    With g = f(center + t), r = (s/y0)^j = (g/g_0)^(j/d) has r_0 = 1 and
    d*g*r' = j*g'*r (Knuth, TAOCP vol. 2, §4.7), so, in O(n*precision),
    k*d*g_0*r_k = S := sum_(i=1..min(k,n)) g_i*(j*i - d*(k-i))*r_(k-i).
    Over F_p, p divides some k when p < precision, so this runs mod p^E,
    E = 1 + v_p((precision-1)!): r is p-integral, and S / (k*d*g_0) taken
    as (S / p^v) * w^-1, k*d*g_0 = p^v*w, loses v digits, E - 1 in all.
    Over Q the series is taken in u = t/C with C = c*d^2, where c clears the
    denominators of g/g_0: then every coefficient is an integer (because
    d^(2m) * binomial(j/d, m) is one) and the division by k*d is exact.
    """
    field, red = f.field, f.field.reduce
    char = field.characteristic()
    if char != 0 and d % char == 0:
        raise BadParameters(f"characteristic {char} divides {d}")
    if precision < 1:
        raise BadParameters("precision must be >= 1")
    y = field(y0).value
    g = list(f.shift(center).values[:precision]) or [0]
    if red(y ** d) != g[0]:
        raise BadParameters("y0^d != f(center)")
    if y == 0:
        raise BadParameters("y0 must be nonzero: the series is y0 * (f/y0^d)^(1/d)")
    if char:  # p^v = gcd(k, p^E), as v = v_p(k) < E
        scale, mod = 1, char ** (1 + sum((precision - 1) // char ** i
                                         for i in range(1, precision.bit_length())))
        steps = [None] + [(gcd(k, mod), pow(k * d * g[0] // gcd(k, mod), -1, mod))
                          for k in range(1, precision)]
    else:
        h, den = field.split([v / g[0] for v in g])
        scale = den * d * d
        g = [c * scale ** k // den for k, c in enumerate(h)]
    g1, ig1 = g[1:], [i * c for i, c in enumerate(g)][1:]
    powers = [[1] + [0] * (precision - 1)]
    for j in range(1, top + 1):
        r = [1]
        for k in range(1, precision):
            tail = r[::-1]  # r_(k-1), ..., r_0, against g_1, g_2, ...
            S = (j + d) * sum(map(mul, ig1, tail)) - k * d * sum(map(mul, g1, tail))
            r.append(S % mod // steps[k][0] * steps[k][1] % mod if char else S // (k * d))
        powers.append([v % char for v in r] if char else r)
    return powers, scale
