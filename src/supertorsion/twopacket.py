"""Curves with two packets of order-m0 points, specialized constructions for
d = 2, and the finite exclusion set of bad lambda values.

For d = 2 the degree n is odd, m0 = n + 1 and ell0 = (n+1)/2.  A curve with
packets above x = 0 and x = -1 is the same thing as a double representation

    f = A1 x^(n+1) - u(x)^2 = A2 (x+1)^(n+1) - v(x)^2,   deg u = deg v = ell0.

Writing C for an (n+1)-th root of A1/A2 (C = 1 when A1 = A2), the monic
normalizations of u and v split the cyclotomic product
prod_{eps in mu_{n+1}} ((1 - C*eps)x + 1) into two halves H_I * H_{comp(I)},
which leads to the one-parameter shapes

    vt = (lam*H_I + (1/lam)*H_comp) / 2
    ut = (lam*H_I - (1/lam)*H_comp) / (2 C^ell0)        ("plus" sign; the
                                                         "minus" sign negates ut)

and f = A1 (x^(n+1) - ut^2), because u = B1*ut with B1^2 = A1.

``two_packet`` checks (F_p, n, I, C) once into a ``TwoPacket``, which every
other two-packet entry point takes as its first argument.  ``sweep_families``
builds every family of a field, n and list of C, one packet per pair of
complementary subsets: ut(-lam) = -ut(lam), and swapping I with its
complement at -1/lam keeps ut and negates vt.

Only finitely many lam make x^(n+1) - ut^2 non-squarefree; ``bad_lambda_set``
assembles that exclusion set from the multiple-root analysis, whose quadratics
in lam all have square discriminants and go through one solver, and
``confirmed_bad_lambdas`` recomputes it independently: an exact squarefree
test of each lam that a resultant in lam of the factor x^ell0 - ut leaves as
a candidate, or of every unit when p is too small for that resultant.
Separately, only the lam for which ut has leading coefficient +-1 give the
polynomial degree n (anything else leaves degree n+1, which defines no curve
with a single infinite point); ``TwoPacket.normalizing_lambdas`` lists them.

The Wronskian identities behind the conditions of ``two_packet_admissible``
are checked by the test suite; the package does not compute them.
"""

from __future__ import annotations

from itertools import combinations, islice, repeat, zip_longest
from math import comb
from typing import NamedTuple

from .curves import SuperellipticCurve, torsion_params
from .errors import (
    BadParameters,
    DegreeNotNormalized,
    NotSquarefree,
    UnsupportedField,
)
from . import poly
from .fields import Field, FieldElement, PrimeField
from .poly import Poly, _convolve, _resultant_values, interpolate


# ---------------------------------------------------------------------------
# admissibility of (n, d) for two packets
# ---------------------------------------------------------------------------

class AdmissibilityVerdict(NamedTuple):
    """Necessary conditions for >= 2 packets of order-m0 points, valid over
    characteristic-0 base fields with slack >= 0 and m0 != n+1.  The case
    m0 = n+1 is exempt: it always carries two packets (see
    ``example_m0_equals_nplus1``)."""

    n: int
    d: int
    m0: int
    ell0: int
    slack: int
    allowed: bool
    exempt: bool
    reasons: tuple

    @property
    def verdict(self) -> str:
        if self.exempt:
            return "exempt"
        return "allowed" if self.allowed else "disallowed"


def two_packet_admissible(n: int, d: int) -> AdmissibilityVerdict:
    params = torsion_params(n, d)
    if params.m0 == n + 1:
        return AdmissibilityVerdict(n=n, d=d, m0=params.m0, ell0=params.ell0,
                                    slack=params.slack, allowed=True, exempt=True,
                                    reasons=())
    reasons = []
    if params.slack < 0:
        reasons.append(f"slack = {params.slack} < 0: no order-m0 points at all")
    if d > 5:
        reasons.append("(i) d <= 5 fails")
    if n < 2 * d:
        if d > 4:
            reasons.append("(ii) n < 2d forces d <= 4")
        if params.m0 != 2 * d:
            reasons.append("(ii) n < 2d forces m0 = 2d")
        if n > 7:
            reasons.append("(ii) n < 2d forces n <= 7")
    if n == 7 and d != 3:
        reasons.append("(iii) n = 7 forces d = 3")
    if n in (5, 6):
        reasons.append("(iv) n is not 5 or 6")
    if n == 4 and d != 3:
        reasons.append("(v) n = 4 forces d = 3")
    if n == 9 and d != 4:
        reasons.append("(vi) n = 9 forces d = 4")
    return AdmissibilityVerdict(n=n, d=d, m0=params.m0, ell0=params.ell0,
                                slack=params.slack, allowed=not reasons,
                                exempt=False, reasons=tuple(reasons))


# ---------------------------------------------------------------------------
# the H products and packet shapes (d = 2)
# ---------------------------------------------------------------------------

def build_H(I, C: FieldElement) -> Poly:
    """prod_{eps in I} ((1 - C*eps) x + 1).  A factor with C*eps = 1 is the
    constant 1 and silently drops the degree; callers that need full degree
    must check the degree of the result."""
    field, c, h = C.field, C.value, [C.field.one.value]
    red = field.reduce
    for eps in I:  # h <- h * ((1 - C*eps) x + 1)
        a = red(1 - c * eps.value)
        h = [red(u + a * v) for u, v in zip(h + [0], [0] + h)]
    return Poly._from_values(field, h)


class TwoPacket(NamedTuple):
    """A validated (F_p, n, I, C) with ell0 = (n+1)/2, H_I, H_comp and
    C^ell0: everything about the packet shapes that does not depend on lam."""

    field: PrimeField
    n: int
    ell0: int
    I: tuple
    C: FieldElement
    hi: Poly
    hc: Poly
    cl: FieldElement  # C^ell0

    def _values(self, lam, sign: str = "plus"):
        """The residues of (ut, vt) at a nonzero lam, each ell0 + 1 long."""
        if sign not in ("plus", "minus"):
            raise BadParameters("sign must be 'plus' or 'minus'")
        p, lam = self.field.p, self.field(lam).value
        if not lam:
            raise BadParameters("lambda must be nonzero")
        half = (p + 1) // 2  # 1/2
        a, b = lam * half % p, pow(lam, -1, p) * half % p
        c = pow(self.cl.value, -1, p) * (1 if sign == "plus" else -1)  # +-1/C^ell0
        pairs = tuple(zip_longest(self.hi.values, self.hc.values, fillvalue=0))
        return ([(a * h - b * g) * c % p for h, g in pairs],
                [(a * h + b * g) % p for h, g in pairs])

    def normalizing_lambdas(self):
        """The lam with leading(ut) = +-1, i.e. the only lam for which
        x^(n+1) - ut^2 has degree n: the roots of a lam^2 -+ 2 C^ell0 lam - b,
        a and b the x^ell0 coefficients of H_I, H_comp.  As a*b = 1 - C^(n+1),
        the discriminant is 4, so lam = (+-C^ell0 +- 1)/a, or -+b/(2 C^ell0)
        when a = 0: at most four values."""
        p, ell0, cl = self.field.p, self.ell0, self.cl.value
        # a is 0 when the H_I factor for eps with C*eps = 1 dropped degree
        a, b = self.hi[ell0].value, self.hc[ell0].value
        nums, inv = (cl + 1, cl - 1, 1 - cl, -cl - 1) if a else (-b, b), pow(a or 2 * cl, -1, p)
        return tuple(self.field(lam) for lam in dict.fromkeys(v * inv % p for v in nums) if lam)


def two_packet(field, n: int, I, C) -> TwoPacket:
    """Check (field, n, I, C) and build their packet; field may be given as
    a prime p."""
    if isinstance(field, int):
        field = PrimeField(field)
    elif not isinstance(field, PrimeField):
        raise UnsupportedField("packet constructions live over prime fields")
    if n % 2 != 1 or n < 3:
        raise BadParameters("d = 2 needs odd n >= 3")
    if field.p == 2 or (n + 1) % field.p == 0:
        raise BadParameters(f"need p odd with p not dividing n+1 = {n + 1}")
    ell0 = (n + 1) // 2
    C = field(C)
    if C.is_zero():
        raise BadParameters("C must be nonzero")
    mu = field.roots_of_unity(n + 1)
    I = tuple(I)
    for eps in I:
        if eps not in mu:
            raise BadParameters(f"{eps!r} is not an (n+1)-th root of unity")
    if len(set(I)) != len(I):
        raise BadParameters("I has repeated elements")
    if len(I) != ell0:
        raise BadParameters(f"|I| = {len(I)}, expected ell0 = {ell0}")
    comp = tuple(e for e in mu if e not in I)
    return TwoPacket(field, n, ell0, I, C, build_H(I, C), build_H(comp, C), C ** ell0)


def packet_polynomial(pk: TwoPacket, lam) -> Poly:
    """x^(n+1) - ut^2, the same for either sign of ut: degree n exactly when
    lam normalizes the leading term, degree n+1 otherwise.  Squarefreeness of
    this polynomial is what the bad lambda analysis controls."""
    return Poly._from_values(pk.field, _packet_values(pk, pk._values(lam)[0]))


def _packet_values(pk: TwoPacket, ut):
    """The residues of x^(n+1) - ut^2, n + 2 long, for residues ut."""
    p, n = pk.field.p, pk.n
    f = [-c % p for c in _convolve(ut, ut, n + 2)]
    f[n + 1] = (f[n + 1] + 1) % p
    return f


# ---------------------------------------------------------------------------
# the families themselves
# ---------------------------------------------------------------------------

class PacketFamily(NamedTuple):
    """A verified two-packet hyperelliptic curve y^2 = f with
    f = A1 x^(n+1) - u^2 = A2 (x+1)^(n+1) - v^2."""

    field: Field
    p: int
    n: int
    ell0: int
    m0: int
    I: tuple
    lam: FieldElement
    C: FieldElement
    A1: FieldElement
    A2: FieldElement
    B1: FieldElement
    B2: FieldElement
    u: Poly
    v: Poly
    f: Poly
    sign: str
    twisted: bool  # True when built in the normalized (A1 = 1) twist form

    def curve(self) -> SuperellipticCurve:
        return SuperellipticCurve(self.field, 2, self.f)

    def packet_points(self):
        """All points above x = 0 and x = -1 (two packets of two)."""
        curve = self.curve()
        pts = []
        for a in (self.field.zero, -self.field.one):
            pts.extend(curve.points_above(a))
        return tuple(pts)


def _build(pk: TwoPacket, lam, A1, A2, sign: str) -> PacketFamily:
    """The family u = B1*ut, v = B2*vt of one packet and lam, for the
    smallest square roots B1, B2 of A1, A2 (all four are 1 in the equal case),
    checked on residues.  A1 = (C^ell0)^2 A2, so one square root gives both,
    and when A2 has none (nor has A1), it falls back to the normalized model
    f = x^(n+1) - ut^2 (A1 = 1, A2 = C^-(n+1)), whose roots always exist."""
    field, n, p, one = pk.field, pk.n, pk.field.p, pk.field.one
    lam = field(lam)
    ut, vt = pk._values(lam, sign)
    B1, B2, twisted = one, one, False
    if (A1, A2) != (one, one):
        B2 = field.nth_root(A2, 2)
        if B2 is None:
            cl_inv = pk.cl.inverse()
            A1, A2, B1, B2, twisted = one, cl_inv * cl_inv, one, cl_inv, True
        else:
            B1 = field(min(pk.cl.value * B2.value % p, -pk.cl.value * B2.value % p))
    u, v = [B1.value * c % p for c in ut], [B2.value * c % p for c in vt]
    # f = A1 (x^(n+1) - ut^2) = A1 x^(n+1) - u^2, as B1^2 = A1 in every branch;
    # checked against A2 (x+1)^(n+1) - v^2, both n + 2 long
    f = [A1.value * c % p for c in _packet_values(pk, ut)]
    if f != [(A2.value * comb(n + 1, k) - c) % p
             for k, c in enumerate(_convolve(v, v, n + 2))]:
        raise BadParameters("double representation failed: inconsistent inputs")
    f = Poly._from_values(field, f)
    if f.degree != n:
        raise DegreeNotNormalized(
            f"lambda = {lam!r} leaves deg f = {f.degree}, not n = {n}; "
            f"normalizing lambdas: {pk.normalizing_lambdas()!r}",
            lam=lam, polynomial=f)
    if not poly.is_squarefree(f):
        raise NotSquarefree(f"bad lambda = {lam!r}: f has a repeated root")
    return PacketFamily(field=field, p=p, n=n, ell0=pk.ell0, m0=n + 1, I=pk.I,
                        lam=lam, C=pk.C, A1=A1, A2=A2, B1=B1, B2=B2,
                        u=Poly._from_values(field, u), v=Poly._from_values(field, v), f=f,
                        sign=sign, twisted=twisted)


def _amplitude_ratio(A1: FieldElement, A2: FieldElement) -> FieldElement:
    if A1.is_zero() or A2.is_zero():
        raise BadParameters("A1 and A2 must be nonzero")
    if A1 == A2:
        raise BadParameters("equal A1 = A2 is the C = 1 case; use "
                            "build_two_packet_equal")
    return A1 / A2


def ratio_root(n: int, A1: FieldElement, A2: FieldElement) -> FieldElement:
    """A C for the unequal case A1 != A2: the (n+1)-th root of A1/A2 that
    ``nth_root`` finds."""
    ratio = _amplitude_ratio(A1, A2)
    field = ratio.field
    C = field.nth_root(ratio, n + 1)
    if C is None:
        raise BadParameters(f"A1/A2 = {ratio!r} has no (n+1)-th root in F_{field.p}")
    return C


def build_two_packet_general(pk: TwoPacket, lam, A1, A2, sign: str = "plus"):
    """Unequal case A1 != A2 on a packet whose C is an (n+1)-th root of A1/A2
    (``ratio_root`` finds one): u = B1*ut and v = B2*vt for square roots
    B1, B2 of A1, A2.  When a root is missing, the result is the normalized
    model, flagged ``twisted``."""
    A1, A2 = pk.field(A1), pk.field(A2)
    if pk.C ** (pk.n + 1) != _amplitude_ratio(A1, A2):
        raise BadParameters("C^(n+1) != A1/A2")
    return _build(pk, lam, A1, A2, sign)


def build_two_packet_equal(pk: TwoPacket, lam, sign: str = "plus"):
    """Equal case A1 = A2 = 1 on a packet with C = 1: one of H_I, H_comp
    drops to degree ell0 - 1 through the eps = 1 factor.  lam = +-1 is
    excluded up front (those always give a degenerate polynomial)."""
    one = pk.field.one
    lam = pk.field(lam)
    if lam == one or lam == -one:
        raise BadParameters("lambda = +-1 is excluded in the equal case")
    return _build(pk, lam, one, one, sign)


class PacketExample(NamedTuple):
    """(x+1)^m0 - x^m0 with its two packet abscissas and the double
    representation data."""

    curve: SuperellipticCurve
    abscissas: tuple
    points: tuple  # points realized over the base field
    A2: FieldElement
    v: Poly
    A1: FieldElement
    u: Poly | None  # needs gamma with gamma^d = -1 in the base field
    gamma: FieldElement | None


def example_m0_equals_nplus1(base_field: Field, n: int, d: int) -> PacketExample:
    """The curve y^d = (x+1)^m0 - x^m0 for m0 = n+1: every point above x = 0
    or x = -1 has order m0.  Since d*ell0 = m0, f = A2 (x+1)^m0 - v^d with
    A2 = 1, v = x^ell0, and f = A1 x^m0 - u^d with A1 = -1,
    u = gamma (x+1)^ell0 when some gamma in the base field has gamma^d = -1."""
    params = torsion_params(n, d)
    if params.m0 != n + 1:
        raise BadParameters(f"m0 = {params.m0} != n+1; the example needs d | n+1")
    char = base_field.characteristic()
    if char != 0 and params.m0 % char == 0:
        raise BadParameters(f"characteristic {char} divides m0 = {params.m0}")
    m0, ell0 = params.m0, params.ell0
    xp1 = Poly(base_field, (base_field.one, base_field.one))
    f = xp1 ** m0 - Poly.monomial(base_field, m0)
    curve = SuperellipticCurve(base_field, d, f)
    v = Poly.monomial(base_field, ell0)
    gamma = base_field.nth_root(base_field(-1), d)
    u = gamma * xp1 ** ell0 if gamma is not None else None
    pts = []
    for a in (base_field.zero, -base_field.one):
        pts.extend(curve.points_above(a))
    return PacketExample(curve=curve, abscissas=(base_field.zero, -base_field.one),
                         points=tuple(pts), A2=base_field.one, v=v,
                         A1=base_field(-1), u=u, gamma=gamma)


# ---------------------------------------------------------------------------
# the exclusion set of bad lambda values
# ---------------------------------------------------------------------------

def nonvanishing_bracket(h: Poly, ell0: int) -> Poly:
    """ell0*H - x*H': kills the top coefficient, keeps ell0*H(0) != 0; never
    the zero polynomial for an H with nonzero constant term."""
    red = h.field.reduce
    return Poly._from_values(h.field, [red((ell0 - k) * c) for k, c in enumerate(h.values)])


def bad_lambda_set(pk: TwoPacket) -> frozenset:
    """Every lambda for which x^(n+1) - ut^2 may acquire a multiple root.

    Assembled from the multiple-root analysis of the factorization
    4 C^(n+1) (x^(n+1) - ut^2) = (2 C^ell0 x^ell0 - phi)(2 C^ell0 x^ell0 + phi),
    phi = lam*H_I - (1/lam)*H_comp:

    * a common root of the two factors forces x0 = 0 and lam = +-1;
    * a multiple root x0 of the first factor satisfies
      Q(x0, lam) := H_I(x0) lam^2 - 2 C^ell0 x0^ell0 lam - H_comp(x0) = 0
      together with lam^2 (ell0 H_I - x H_I')(x0) = (ell0 H_comp - x H_comp')(x0),
      which eliminates lam into a fixed polynomial in x0;
    * the second factor is the first with lam negated, so the set is closed
      under negation.

    The result is a deliberate superset of the truly bad values; compare with
    ``confirmed_bad_lambdas``.  ``_q_roots`` solves Q at the roots of
    ``_sieve``, or, when the eliminant vanishes identically and the analysis
    localizes nothing, at every abscissa, for p <= 2^16.
    """
    sieve, p = _sieve(pk), pk.field.p
    if sieve is None and p > 2 ** 16:  # about p/2 candidates
        raise BadParameters(f"the eliminant vanishes identically for I = {pk.I!r}, so "
                            f"about p/2 lambda are candidates: listed for p <= {2 ** 16}, "
                            f"not p = {p}")
    return _q_roots(pk, range(p) if sieve is None else
                    {r.value for s in sieve for r in poly.roots_in_field(s)})


def _q_roots(pk: TwoPacket, xs) -> frozenset:
    """The roots lam in F_p of Q(x0, lam) = a lam^2 - 2u lam - c at the residues
    x0 in xs (a = H_I(x0), u = C^ell0 x0^ell0, c = H_comp(x0)), with 1, closed
    under negation, without 0.  The discriminant is (2w)^2, w = (1 + x0)^ell0, as
    H_I H_comp = (1 + x)^(n+1) - (C x)^(n+1): the roots are (u +- w)/a, or
    -c/(2u) for a = 0 (u != 0 as H_I(0) = 1), evaluated over all of xs at once
    with every denominator inverted by one ``_batch_inverse``."""
    p, ell0, cl, xs = pk.field.p, pk.ell0, pk.cl.value, list(xs)

    def horner(coeffs):
        values = [coeffs[-1]] * len(xs)
        for c in reversed(coeffs[:-1]):
            values = [(v * x + c) % p for v, x in zip(values, xs)]
        return values

    a, c = horner(pk.hi.values), horner(pk.hc.values)
    u = [cl * t % p for t in map(pow, xs, repeat(ell0), repeat(p))]
    w = map(pow, [x + 1 for x in xs], repeat(ell0), repeat(p))
    bad = {1}
    for ai, ui, ci, wi, inv in zip(a, u, c, w, _batch_inverse(
            [ai or 2 * ui for ai, ui in zip(a, u)], p)):
        if ai:
            bad.add((ui + wi) * inv % p)
            bad.add((ui - wi) * inv % p)
        else:
            bad.add(-ci * inv % p)
    return frozenset(pk.field(lam) for lam in bad | {p - lam for lam in bad} if lam % p)


def _batch_inverse(values, p: int) -> list:
    """[pow(v, -1, p) for v in values], for units v mod p, from one ``pow``:
    with prefix products P_k = v_0 ... v_(k-1), 1/v_k = P_k / P_(k+1)
    (Montgomery's simultaneous inversion, Math. Comp. 48, 1987)."""
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % p)
    inv, out = pow(prefix.pop(), -1, p), []
    for v, P in zip(reversed(values), reversed(prefix)):  # inv = 1/P_(k+1)
        out.append(P * inv % p)
        inv = inv * v % p
    return out[::-1]


def bad_lambda_members(pk: TwoPacket, lams) -> frozenset:
    """The lams in ``bad_lambda_set(pk)``, found in polylog(p).  With a
    ``_sieve``, that set is built from its roots, found once.  When the
    eliminant vanishes, apart from +-1 a lam != 0 is in it iff
    R = Q(x, lam) Q(x, -lam) = (lam^2 H_I - H_comp)^2 - 4 C^(2 ell0) lam^2 x^(n+1),
    nonzero at x = 0, has a root in F_p: one ``roots_in_field`` per lam."""
    sieve, field, p = _sieve(pk), pk.field, pk.field.p
    if sieve is not None:
        xs = {r.value for s in sieve for r in poly.roots_in_field(s)}
        return _q_roots(pk, xs).intersection(map(field, lams))
    out = set()
    for lam in map(field, lams):
        m = lam.value ** 2 % p  # lam^2: 1 for lam = +-1, 0 for lam = 0
        if m == 1 or m and poly.roots_in_field((pk.hi * m - pk.hc) ** 2
                                          - Poly.monomial(field, pk.n + 1,
                                                          4 * pk.cl.value ** 2 * m)):
            out.add(lam)
    return frozenset(out)


def _sieve(pk: TwoPacket):
    """(eliminant, ell0*H_I - x*H_I', ell0*H_comp - x*H_comp'), whose roots are the
    abscissas the analysis draws lambdas from (it divides by the brackets, of degree
    <= ell0 - 1), or None when the eliminant vanishes identically and every one is."""
    red, n, hi, hc = pk.field.reduce, pk.n, pk.hi.values, pk.hc.values
    bi, bc = (nonvanishing_bracket(h, pk.ell0) for h in (pk.hi, pk.hc))
    m = len(hi) + len(hc) - 2  # the length of H_I' H_comp and of H_comp' H_I
    wh = [red(u - v) for u, v in zip(_convolve([k * c for k, c in enumerate(hi)][1:], hc, m),
                                     _convolve([k * c for k, c in enumerate(hc)][1:], hi, m))]
    # eliminant: 4 C^(n+1) * bc * bi * x^(n+1) - x^2 * wh^2, with x^2 removed
    four_c, bcbi = 4 * pk.cl.value ** 2, _convolve(bc.values, bi.values, bc.degree + bi.degree + 1)
    eliminant = [red(u - v) for u, v in zip_longest(
        [0] * (n - 1) + [four_c * c for c in bcbi], _convolve(wh, wh, 2 * m - 1), fillvalue=0)]
    return (Poly._from_values(pk.field, eliminant), bi, bc) if any(eliminant) else None


def confirmed_bad_lambdas(pk: TwoPacket) -> frozenset:
    """The lambda for which x^(n+1) - ut^2 actually fails squarefreeness
    (the zero polynomial counts as failing), as the independent check of
    ``bad_lambda_set``: a lambda enters the set only by the exact test of its
    own polynomial, and ``_candidate_lambdas`` picks the lambdas to test from
    a resultant that eliminates x, not lambda, so it also sees repeated roots
    outside F_p.  The sign of ut does not matter: ut and -ut give the same
    polynomial, and ut(-lam) = -ut(lam), so one test decides lam and -lam;
    the candidates are closed under negation."""
    field, p, out = pk.field, pk.field.p, set()
    for lam in {min(lam.value, p - lam.value) for lam in _candidate_lambdas(pk)}:
        f = Poly._from_values(field, _packet_values(pk, pk._values(lam)[0]))
        if f.is_zero() or not poly.is_squarefree(f):
            out.update((lam, p - lam))
    return frozenset(map(field, out))


def _candidate_lambdas(pk: TwoPacket):
    """The units ``confirmed_bad_lambdas`` tests: every lambda that can make
    x^(n+1) - ut^2 = (x^ell0 - ut)(x^ell0 + ut) non-squarefree.

    F(lam, x) = 2 C^ell0 lam (x^ell0 - ut) = 2 C^ell0 lam x^ell0 - lam^2 H_I
    + H_comp has degree 2 in lam and ell0 in x; the second factor is the
    first at -lam.  The factors share a root only at x = 0 with ut(0) = 0,
    that is lam = +-1 (H_I(0) = H_comp(0) = 1).  Let R(lam) be the Sylvester
    resultant of F and F_x at degrees ell0 and ell0 - 1: n rows of entries of
    degree <= 2 in lam, so deg R <= 2n.  Where the leading coefficient
    2 C^ell0 lam - a lam^2 + b (a, b the x^ell0 coefficients of H_I, H_comp)
    vanishes, so does the first column, and R(lam) = 0: these lam and their
    negatives are the normalizing lambdas.  Anywhere else both degrees are
    exact (p does not divide n+1 = 2 ell0), so R(lam) is Euclid's resultant
    and vanishes iff F has a repeated root.  R is interpolated from those
    resultants at the first 2n+1 lam = 1, 2, ... where the leading
    coefficient is nonzero.  The candidates are the roots of R, their
    negatives and +-1: at most 4n+2, in at most 2n+1 pairs +-lam.  When p
    leaves fewer than 2n+1 such lam (p below about 2n+4), or R vanishes
    identically, every unit is one."""
    field, n, ell0, p = pk.field, pk.n, pk.ell0, pk.field.p
    red, count, two_cl = field.reduce, 2 * n + 1, 2 * pk.cl.value
    pairs = list(zip_longest(pk.hi.values, pk.hc.values, fillvalue=0))
    a, b = pairs[ell0]
    lams = list(islice((lam for lam in range(1, p)
                        if red(two_cl * lam - a * lam * lam + b)), count))
    if len(lams) == count:
        values = []
        for lam in lams:
            f = [red(v - lam * lam * u) for u, v in pairs]
            f[ell0] = red(f[ell0] + two_cl * lam)
            values.append(_resultant_values(field, f, [red(k * c) for k, c in enumerate(f)][1:]))
        r = interpolate(field, lams, values)
        if not r.is_zero():
            roots = {x.value for x in poly.roots_in_field(r)} | {1}
            return {field(v) for v in roots | {-v % p for v in roots} if v}
    return field.units()


# ---------------------------------------------------------------------------
# every packet family of a field, n and list of C
# ---------------------------------------------------------------------------

def sweep_families(field: PrimeField, n: int, Cs):
    """(family, candidate_bad) for every C in Cs (anything ``field`` takes),
    every subset I of ell0 (n+1)-th roots of unity in ``combinations`` order
    and every normalizing lam of their packet that builds a curve, ascending;
    candidate_bad says whether lam is in ``bad_lambda_set``.  Every other lam
    leaves deg f = n + 1.  C = 1 is the equal case, without lam = +-1; a
    C != 1 with C^(n+1) = 1 would give A1 = A2 = 1, which neither builder
    takes, so it yields nothing.  mu_(n+1) and every C are checked before the
    first family.

    Two symmetries share the work.  (S1) ut(-lam) = -ut(lam) and
    vt(-lam) = -vt(lam): one build per pair +-lam, u and v negated for the
    other.  (S2) swapping I and its complement comp swaps H_I and H_comp,
    so comp at -1/lam has the same ut and -vt: the same f, and Q_comp(x0,
    -1/lam) = -Q_I(x0, lam)/lam^2 gives the same candidate_bad.  So only
    the first subset of each pair {I, comp} gets a packet, and comp's
    families are derived from it with v negated."""
    mu = field.roots_of_unity(n + 1)
    return _sweep(field, n, mu, [field(C) for C in Cs])


def _sweep(field, n, mu, Cs):
    p, one = field.p, field.one
    for C in Cs:
        A1 = C ** (n + 1)
        if C != one and A1 == one:
            continue
        mirrored = {}  # comp -> its families, from the packet of its complement
        for I in combinations(mu, (n + 1) // 2):
            if I in mirrored:
                yield from mirrored.pop(I)
                continue
            pk = two_packet(field, n, I, C)
            # the normalizing lambdas are closed under negation: one per pair
            lams = {min(lam.value, p - lam.value) for lam in pk.normalizing_lambdas()}
            if C == one:
                lams.discard(1)
            bad = bad_lambda_members(pk, lams)
            comp = tuple(e for e in mu if e not in I)
            own, theirs = [], []
            for lam in lams:
                try:
                    rep = (build_two_packet_equal(pk, lam) if C == one else
                           build_two_packet_general(pk, lam, A1, one))
                except (NotSquarefree, DegreeNotNormalized):
                    continue
                flag = rep.lam in bad
                for fam in (rep, rep._replace(lam=-rep.lam, u=-rep.u, v=-rep.v)):  # (S1)
                    own.append((fam, flag))
                    theirs.append((fam._replace(I=comp, lam=-fam.lam.inverse(), v=-fam.v),
                                   flag))  # (S2)
            yield from sorted(own, key=lambda item: item[0].lam.value)
            mirrored[comp] = sorted(theirs, key=lambda item: item[0].lam.value)
