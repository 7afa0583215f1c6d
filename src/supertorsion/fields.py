"""Exact scalar arithmetic over Q and prime fields F_p behind one interface.

Rationals are stored as ``fractions.Fraction`` (always reduced, positive
denominator); prime-field values as residues in [0, p).  All operations are
pure and elements are immutable, so values are safe to share freely.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .errors import BadParameters, MathCheckError, UnsupportedField


#: strong-probable-prime bases of ``is_prime``, and the bound below which
#: they leave no strong pseudoprime (Sorenson and Webster, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..41, exact for
    n < 3,317,044,064,679,887,385,961,981.  Above that bound only a base
    that divides n decides; otherwise BadParameters is raised."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        raise BadParameters(f"primality of {n} is only decided below {_MR_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int):
    """Prime factors of n >= 1 with multiplicity, ascending (trial division)."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


#: "num" or "num/den" between optional whitespace: no decimal point or
#: exponent, whose expansion (Fraction("1e100000000")) could exhaust memory;
#: compiled once, on first use and not at import
_RATIONAL = r"\s*([-+]?\d+)(?:/(\d+))?\s*"
_rational_pattern = functools.cache(lambda: re.compile(_RATIONAL))


def _parse_rational(text: str) -> Fraction:
    match = _rational_pattern().fullmatch(text)
    try:
        if match is None:
            raise ValueError(text)
        return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError) as e:  # also past int's digit limit, or den 0
        raise BadParameters(f"cannot parse scalar {text!r}: expected num or num/den") from e


def _powers(h: int, m: int, p: int):
    """[1, h, ..., h^(m-1)] mod p."""
    out = [1] * m
    for i in range(1, m):
        out[i] = out[i - 1] * h % p
    return out


class Field:
    """Common interface of the two supported base fields.  On bare values:
    ``reduce(v)`` (canonical form), ``inv(v)`` (v != 0), ``split(values)``
    (integers over one denominator, 1 over F_p) and back ``join(ints, den)``."""

    kind = None  # "Q" or "Fp"

    def characteristic(self) -> int:
        raise NotImplementedError

    def __call__(self, value) -> "FieldElement":
        raise NotImplementedError

    @property
    def zero(self) -> "FieldElement":
        return self(0)

    @property
    def one(self) -> "FieldElement":
        return self(1)

    def nth_root(self, x: "FieldElement", k: int):
        """Some r with r^k = x (over F_p the smallest residue), or None if no
        such r exists in this field."""
        raise NotImplementedError

    def roots_of_unity(self, m: int):
        """All m distinct m-th roots of unity, ordered as powers g^0..g^(m-1)
        of the smallest generator of the order-m subgroup."""
        raise NotImplementedError


class Rationals(Field):
    kind = "Q"

    def characteristic(self) -> int:
        return 0

    def __call__(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is not self and value.field.kind != "Q":
                raise BadParameters("cannot coerce a prime-field element into Q")
            return FieldElement(self, value.value)
        if isinstance(value, (int, Fraction, str)):
            return FieldElement(self, self._parse(value))
        if type(value) is tuple and len(value) == 2:  # (num, den); not a record
            return FieldElement(self, Fraction(value[0], value[1]))
        raise BadParameters(f"cannot build a rational from {value!r}")

    def _parse(self, value):  # the bare value of an int, a Fraction or a string
        return _parse_rational(value) if isinstance(value, str) else Fraction(value)

    def reduce(self, v):
        return v

    def inv(self, v):
        return 1 / v

    def split(self, values):
        # pairwise: math.lcm(*args) per product kept raising peak RSS (CPython 3.11)
        den = functools.reduce(math.lcm, (v.denominator for v in values), 1)
        return [v.numerator * (den // v.denominator) for v in values], den

    def join(self, ints, den):
        return [Fraction(c, den) for c in ints]

    def nth_root(self, x, k):
        if k < 1:
            raise BadParameters("root index must be >= 1")
        v = x.value
        if k == 1:
            return x
        if v == 0:
            return self.zero
        if v < 0 and k % 2 == 0:
            return None
        num = _int_kth_root(abs(v.numerator), k)
        den = _int_kth_root(v.denominator, k)
        if num is None or den is None:
            return None
        r = Fraction(num, den)
        if v < 0:
            r = -r
        return FieldElement(self, r)

    def roots_of_unity(self, m):
        if m == 1:
            return (self.one,)
        if m == 2:
            return (self.one, self(-1))
        raise UnsupportedField(f"Q contains no primitive {m}-th roots of unity")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    kind = "Fp"

    def __init__(self, p: int):
        if not is_prime(p):
            raise BadParameters(f"{p} is not prime")
        self.p = p
        self._of_order = {}  # m -> the answer of _element_of_order(m)

    def characteristic(self) -> int:
        return self.p

    def __call__(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field != self:
                raise BadParameters("cannot coerce across fields")
            return value
        if isinstance(value, int):
            return FieldElement(self, value % self.p)
        if isinstance(value, str):
            return FieldElement(self, self._parse(value))
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise MathCheckError(f"denominator divisible by {self.p}")
            return FieldElement(self, self.reduce(value.numerator * self.inv(value.denominator)))
        raise BadParameters(f"cannot build an F_{self.p} element from {value!r}")

    def _parse(self, value):  # the bare residue of an int or a string
        try:
            return int(value) % self.p
        except ValueError as e:
            raise BadParameters(f"cannot parse scalar {value!r}") from e

    def reduce(self, v):
        return v % self.p

    def inv(self, v):
        return pow(v, -1, self.p)

    def split(self, values):
        return values, 1

    def join(self, ints, den):
        p = self.p
        s = 1 if den == 1 else pow(den, -1, p)
        return [c % p for c in ints] if s == 1 else [c * s % p for c in ints]

    def units(self):
        for v in range(1, self.p):
            yield FieldElement(self, v)

    def nth_root(self, x, k):
        """The smallest residue r with r^k = x, or None.

        With g = gcd(k, p-1), x != 0 has a k-th root iff x^((p-1)/g) = 1.
        Inverting k/g modulo (p-1)/g reduces the problem to a g-th root,
        which is taken one prime factor of g at a time (Adleman-Manders-
        Miller).  The k-th roots of x are then r * mu_g, and the smallest
        of them is returned.
        """
        if k < 1:
            raise BadParameters("root index must be >= 1")
        p, target = self.p, x.value
        if target == 0:
            return self.zero
        g = math.gcd(k, p - 1)
        order = (p - 1) // g
        if pow(target, order, p) != 1:
            return None
        r = pow(target, pow(k // g, -1, order), p)
        for q in _prime_factors(g):
            r = self._prime_root(r, q)
        orbit = _powers(self._element_of_order(g), g, p)
        return FieldElement(self, min(r * z % p for z in orbit))

    def _prime_root(self, a: int, q: int) -> int:
        """Some r with r^q = a, for a prime q | p-1 and a q-th power a != 0
        (Adleman-Manders-Miller; Tonelli-Shanks for q = 2)."""
        p = self.p
        s, e = p - 1, 0
        while s % q == 0:
            s //= q
            e += 1
        # r = a^(q^-1 mod s) has r^q = a * t with t in the Sylow q-subgroup;
        # t is a q-th power there, so t = zq^j with zq = z^q
        r = pow(a, pow(q, -1, s), p)
        t = pow(r, q, p) * pow(a, -1, p) % p
        if t == 1:
            return r
        z = self._element_of_order(q ** e)     # generates the Sylow q-subgroup
        zq = pow(z, q, p)                      # order q^(e-1), and e >= 2 here
        # the base-q digits of j, lowest first (Pohlig-Hellman)
        unit = pow(zq, q ** (e - 2), p)        # order q
        digits = {w: d for d, w in enumerate(_powers(unit, q, p))}
        j, scale = 0, 1
        for i in range(e - 1):
            digit = digits.get(pow(t * pow(zq, -j, p) % p, q ** (e - 2 - i), p))
            if digit is None:
                raise UnsupportedField(f"{a} is not a {q}-th power in F_{p}")
            j += digit * scale
            scale *= q
        return r * pow(z, -j, p) % p

    def _element_of_order(self, m: int) -> int:
        """A residue of multiplicative order exactly m, for m | p-1, kept per
        field: the first c^((p-1)/m) whose power to m/q is not 1 for any q | m."""
        if m in self._of_order:
            return self._of_order[m]
        p = self.p
        cofactor, primes = (p - 1) // m, _prime_factors(m)
        for c in range(1, p):
            h = pow(c, cofactor, p)
            if all(pow(h, m // q, p) != 1 for q in primes):
                return self._of_order.setdefault(m, h)
        # unreachable for prime p with m | p-1
        raise UnsupportedField(f"no element of order {m} in F_{p}^*")

    def roots_of_unity(self, m):
        """(1, g, ..., g^(m-1)) for the smallest g of order exactly m.

        The elements of order m are h^k with gcd(k, m) = 1 for any one h of
        order m, so g is the smallest of those powers.
        """
        if m < 1:
            raise BadParameters("m must be >= 1")
        p = self.p
        if (p - 1) % m != 0:
            raise UnsupportedField(f"mu_{m} is not contained in F_{p}")
        powers = _powers(self._element_of_order(m), m, p)
        g = min(powers[k] for k in range(m) if math.gcd(k, m) == 1)
        return tuple(FieldElement(self, v) for v in _powers(g, m, p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


#: the field of rational numbers (a shared instance; all Rationals compare equal)
QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def _int_kth_root(n: int, k: int):
    """Exact integer k-th root of n >= 0, or None."""
    if n in (0, 1):
        return n
    lo, hi = 1, 1
    while hi ** k < n:
        lo, hi = hi, hi * 2
    while lo <= hi:
        mid = (lo + hi) // 2
        m = mid ** k
        if m == n:
            return mid
        if m < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


class FieldElement:
    """Immutable scalar: a Fraction over Q, a residue in [0, p) over F_p."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise BadParameters(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.reduce(self.value + o.value))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.reduce(self.value - o.value))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.reduce(self.value * o.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return FieldElement(self.field, self.field.reduce(-self.value))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        # three-argument pow over F_p: value ** e alone grows with e
        return FieldElement(self.field,
                            pow(self.value, e, self.field.characteristic() or None))

    def inverse(self):
        if not self:
            raise MathCheckError("inverse of zero")
        return FieldElement(self.field, self.field.inv(self.value))

    def __bool__(self):
        return self.value != 0

    def is_zero(self):
        return self.value == 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self == self.field(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return str(self.value)
