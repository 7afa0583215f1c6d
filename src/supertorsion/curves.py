"""The curve y^d = f(x), its points, derived torsion constants, and the
reachability classification of candidate torsion orders.

Throughout: 2 <= d < n, gcd(n, d) = 1, char of the base field does not
divide d, and f is squarefree of exact degree n.  The smooth model then has a
single point O above x = infinity, with pole orders v_O(x) = -d and
v_O(y) = -n; classes [P - O] live in the Jacobian.
"""

from __future__ import annotations

import enum
from math import gcd
from typing import NamedTuple

from .errors import BadParameters, NotOnCurve
from .fields import Field, FieldElement, is_prime
from .poly import Poly, is_squarefree


class TorsionParams(NamedTuple):
    """Derived constants for a given (n, d)."""

    n: int
    d: int
    ell0: int
    m0: int
    slack: int  # n - m0 + ell0; nonnegative iff order-m0 points can exist


def torsion_params(n: int, d: int) -> TorsionParams:
    """ell0 = floor((n+d)/d), m0 = d*ell0: the unique multiple of d strictly
    between n and n+d.  slack may be negative."""
    _validate_nd(n, d)
    ell0 = (n + d) // d
    m0 = d * ell0
    return TorsionParams(n=n, d=d, ell0=ell0, m0=m0, slack=n - m0 + ell0)


def _validate_nd(n: int, d: int):
    if not (2 <= d < n):
        raise BadParameters(f"need 2 <= d < n, got d={d}, n={n}")
    if gcd(n, d) != 1:
        raise BadParameters(f"need gcd(n, d) = 1, got gcd({n}, {d}) = {gcd(n, d)}")


def _check_char(char: int, d: int):
    if char != 0 and d % char == 0:
        raise BadParameters(f"characteristic {char} divides d = {d}")


class ReachabilityStatus(enum.Enum):
    REACHABLE_D_OR_N = "reachable_d_or_n"
    IMPOSSIBLE = "impossible"
    REQUIRES_M0_CONDITIONS = "requires_m0_conditions"
    ABOVE_M0 = "above_m0"


class ReachabilityReport(NamedTuple):
    status: ReachabilityStatus
    n: int
    d: int
    m: int
    params: TorsionParams
    reason: str
    # For m = m0 with slack >= 0: the sufficient conditions on the
    # characteristic under which order m0 is realized over an infinite base
    # field.  Sufficient only; a False entry never proves impossibility.
    m0_conditions: tuple = ()
    m0_condition_met: bool | None = None


def reachability_status(n: int, d: int, m: int, char: int = 0) -> ReachabilityReport:
    """Classify a candidate torsion order m for curves y^d = f(x), deg f = n,
    over a base field of characteristic char (0 or a prime not dividing d)."""
    params = torsion_params(n, d)
    if char != 0 and not is_prime(char):
        raise BadParameters(f"characteristic must be 0 or a prime, got {char}")
    _check_char(char, d)
    if m <= 1:
        raise BadParameters("torsion order m must be > 1")
    if m in (d, n):
        return ReachabilityReport(ReachabilityStatus.REACHABLE_D_OR_N, n, d, m, params,
                                  "orders d and n occur for every base field")
    if 1 < m < d or d < m < n:
        return ReachabilityReport(ReachabilityStatus.IMPOSSIBLE, n, d, m, params,
                                  "no order strictly between 1 and d, or d and n")
    if n < m < params.m0:
        return ReachabilityReport(ReachabilityStatus.IMPOSSIBLE, n, d, m, params,
                                  f"orders above n start at m0 = {params.m0}")
    if m == params.m0:
        if params.slack < 0:
            return ReachabilityReport(
                ReachabilityStatus.IMPOSSIBLE, n, d, m, params,
                f"slack = {params.slack} < 0 rules out order m0")
        conds = _m0_char_conditions(params, char)
        return ReachabilityReport(
            ReachabilityStatus.REQUIRES_M0_CONDITIONS, n, d, m, params,
            "order m0 needs the certificate shape; sufficient char conditions attached",
            m0_conditions=conds, m0_condition_met=any(ok for _, ok in conds))
    return ReachabilityReport(ReachabilityStatus.ABOVE_M0, n, d, m, params,
                              "orders above m0 are not classified here")


def _m0_char_conditions(params: TorsionParams, char: int):
    conds = [("char = 0", char == 0), (f"char > n = {params.n}", char > params.n)]
    if params.slack == 0:
        conds.append((f"char does not divide ell0 = {params.ell0}",
                      char == 0 or params.ell0 % char != 0))
    else:
        conds.append((f"char does not divide slack = {params.slack}",
                      char == 0 or params.slack % char != 0))
    return tuple(conds)


class AffinePoint(NamedTuple):
    x: FieldElement
    y: FieldElement

    def __repr__(self):
        return f"({self.x!r}, {self.y!r})"


class SuperellipticCurve:
    """y^d = f(x) with the standing validity assumptions checked up front."""

    __slots__ = ("field", "d", "n", "f", "params")

    def __new__(cls, field: Field, d: int, f: Poly):
        if f.field != field:
            raise BadParameters("f is not defined over the given field")
        if f.is_zero() or f.is_constant():
            raise BadParameters("f must be nonconstant")
        _validate_nd(f.degree, d)
        _check_char(field.characteristic(), d)
        if not is_squarefree(f):
            raise BadParameters("f has repeated roots")
        return cls._proven(field, d, f)

    @classmethod
    def _proven(cls, field: Field, d: int, f: Poly) -> SuperellipticCurve:
        """y^d = f for an f over ``field`` that ``certificates`` has proven
        squarefree, deg f and char prime to d; ``torsion_params`` checks only (n, d)."""
        out = object.__new__(cls)
        for k, v in zip(cls.__slots__, (field, d, f.degree, f, torsion_params(f.degree, d))):
            object.__setattr__(out, k, v)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("SuperellipticCurve is immutable")

    def __eq__(self, other):
        return (isinstance(other, SuperellipticCurve) and self.field == other.field
                and self.d == other.d and self.f == other.f)

    def __hash__(self):
        return hash((self.field, self.d, self.f))

    def __repr__(self):
        return f"SuperellipticCurve(y^{self.d} = {self.f!r} over {self.field!r})"

    def contains(self, x, y) -> bool:
        x, y = self.field(x), self.field(y)
        return y ** self.d == self.f(x)

    def point(self, x, y) -> AffinePoint:
        x, y = self.field(x), self.field(y)
        if not self.contains(x, y):
            raise NotOnCurve(f"y^{self.d} != f(x) at ({x!r}, {y!r})")
        return AffinePoint(x, y)

    def points_above(self, x):
        """All affine points with the given abscissa; over F_p ascending in y,
        over Q the nonnegative y first."""
        x = self.field(x)
        target = self.f(x)
        if self.field.kind == "Fp":
            # the d-th roots of target are one root times mu_gcd(d, p-1)
            r = self.field.nth_root(target, self.d)
            if r is None:
                return ()
            if r.is_zero():
                return (AffinePoint(x, r),)
            zetas = self.field.roots_of_unity(gcd(self.d, self.field.p - 1))
            return tuple(AffinePoint(x, y)
                         for y in sorted((r * z for z in zetas), key=lambda y: y.value))
        # over Q: y is a rational d-th root when one exists
        r = self.field.nth_root(target, self.d)
        if r is None:
            return ()
        pts = [AffinePoint(x, r)]
        if self.d % 2 == 0 and not r.is_zero():
            pts.append(AffinePoint(x, -r))
        return tuple(pts)
