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

``two_packet`` checks (F_p, n, I, C) once into a ``TwoPacket``, which every
other two-packet entry point takes as its first argument.

Only finitely many lam make x^(n+1) - ut^2 non-squarefree; ``bad_lambda_set``
assembles that exclusion set from the multiple-root analysis, and
``confirmed_bad_lambdas`` recomputes it independently: an exact squarefree
test of each lam that a discriminant in lam^2 leaves as a candidate, or of
every unit when p is too small for that discriminant.  Separately, only the
lam for which ut has leading coefficient +-1 give the polynomial degree n
(anything else leaves degree n+1, which defines no curve with a single
infinite point); ``TwoPacket.normalizing_lambdas`` lists them.
"""

from __future__ import annotations

from itertools import islice, zip_longest
from operator import mul
from typing import NamedTuple

from .curves import AffinePoint, SuperellipticCurve, torsion_params
from .errors import (
    BadParameters,
    CharDividesM0,
    DegreeNotNormalized,
    LinearlyDependent,
    NonvanishingViolation,
    NoRootOfUnityStructure,
    NotSquarefree,
    SameAbscissa,
    UnsupportedField,
    ZeroParameter,
)
from .fields import Field, FieldElement, PrimeField
from .poly import (Poly, _convolve, _quadratic_roots, _resultant_values, interpolate,
                   is_squarefree, poly_gcd, roots_in_field)


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
# Wronskian machinery (any d)
# ---------------------------------------------------------------------------

def fermat_identity_check(f1: Poly, f2: Poly, f3: Poly, d: int):
    """Whether f1^d + f2^d + f3^d is a nonzero constant; returns
    (is_constant, value_or_None)."""
    s = f1 ** d + f2 ** d + f3 ** d
    if s.is_zero() or not s.is_constant():
        return False, None
    return True, s[0]


def wronskian3(g1: Poly, g2: Poly, g3: Poly) -> Poly:
    """3x3 Wronskian determinant with rows (g, g', g'')."""
    rows = [(g, g.derivative(), g.derivative().derivative()) for g in (g1, g2, g3)]
    cols = list(zip(*rows))  # cols[k][i] = k-th derivative of g_{i+1}
    det = Poly.zero(g1.field)
    for sign, (i, j, k) in (
            (1, (0, 1, 2)), (-1, (0, 2, 1)), (-1, (1, 0, 2)),
            (1, (1, 2, 0)), (1, (2, 0, 1)), (-1, (2, 1, 0))):
        term = cols[0][i] * cols[1][j] * cols[2][k]
        det = det + term if sign > 0 else det - term
    return det


def wronskian_pair_form(f1: Poly, f2: Poly, d: int, constant: FieldElement) -> Poly:
    """constant * ((f1^d)'(f2^d)'' - (f2^d)'(f1^d)''): what the Wronskian of
    (f1^d, f2^d, f3^d) collapses to when f1^d + f2^d + f3^d = constant."""
    a, b = f1 ** d, f2 ** d
    a1, b1 = a.derivative(), b.derivative()
    a2, b2 = a1.derivative(), b1.derivative()
    return (a1 * b2 - b1 * a2) * constant


class WronskianAudit(NamedTuple):
    degree: int
    lower: int
    upper: int
    degree_ok: bool
    slope_bound_ok: bool  # ell0 (d - 6) <= -3
    divisibility_ok: bool


def wronskian_degree_audit(f1: Poly, f2: Poly, f3: Poly, d: int,
                           ell0: int) -> WronskianAudit:
    """Degree window 3*ell0*(d-2) <= deg W <= 2*ell0*d - 3 for independent
    d-th powers, plus the derived constraint ell0*(d-6) <= -3."""
    w = wronskian3(f1 ** d, f2 ** d, f3 ** d)
    if w.is_zero():
        raise LinearlyDependent("f1^d, f2^d, f3^d are linearly dependent")
    lower, upper = 3 * ell0 * (d - 2), 2 * ell0 * d - 3
    # every entry of the i-th column of W carries f_i^(d-2); W != 0 makes the
    # product nonzero
    return WronskianAudit(
        degree=w.degree, lower=lower, upper=upper,
        degree_ok=lower <= w.degree <= upper,
        slope_bound_ok=ell0 * (d - 6) <= -3,
        divisibility_ok=d <= 2 or (w % (f1 * f2 * f3) ** (d - 2)).is_zero())


# ---------------------------------------------------------------------------
# the H products and packet shapes (d = 2)
# ---------------------------------------------------------------------------

def build_H(I, C: FieldElement) -> Poly:
    """prod_{eps in I} ((1 - C*eps) x + 1).  A factor with C*eps = 1 is the
    constant 1 and silently drops the degree; callers that need full degree
    must check the degree of the result."""
    field, h = C.field, [C.field.one.value]
    for eps in I:  # h <- h * ((1 - C*eps) x + 1)
        c = (1 - C * eps).value
        h = [field.reduce(u + c * v) for u, v in zip(h + [0], [0] + h)]
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

    def shapes(self, lam, sign: str = "plus"):
        """(ut, vt) for a nonzero lam; ut is negated for the "minus" sign."""
        if sign not in ("plus", "minus"):
            raise BadParameters("sign must be 'plus' or 'minus'")
        lam = self.field(lam)
        if lam.is_zero():
            raise ZeroParameter("lambda must be nonzero")
        half = self.field(2).inverse()
        a, b = lam * half, lam.inverse() * half
        ut = (a * self.hi - b * self.hc) * self.cl.inverse()
        return (-ut if sign == "minus" else ut), a * self.hi + b * self.hc

    def normalizing_lambdas(self):
        """The lam with leading(ut) = +-1, i.e. the only lam for which
        x^(n+1) - ut^2 has degree n.  At most four values."""
        p, ell0, out = self.field.p, self.ell0, []
        # a is 0 when the H_I factor for eps with C*eps = 1 dropped degree
        a, b, two_cl = self.hi[ell0].value, self.hc[ell0].value, (2 * self.cl).value
        for target in (two_cl, p - two_cl):
            # lam*a - (1/lam)*b = target  <=>  a*lam^2 - target*lam - b = 0
            for lam in map(self.field, _quadratic_roots(a, p - target, -b % p, self.field)):
                if lam and lam not in out:
                    out.append(lam)
        return tuple(out)


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
        raise ZeroParameter("C must be nonzero")
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


def packet_polynomial(pk: TwoPacket, lam, sign: str = "plus") -> Poly:
    """x^(n+1) - ut^2: degree n exactly when lam normalizes the leading term,
    degree n+1 otherwise.  Squarefreeness of this polynomial is what the bad
    lambda analysis controls."""
    ut, _ = pk.shapes(lam, sign)
    return Poly.monomial(pk.field, pk.n + 1) - ut * ut


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
    """The family u = B1*ut, v = B2*vt of one packet and lam, for square
    roots B1, B2 of A1, A2 (all four are 1 in the equal case).  When a root
    is missing, it falls back to the normalized model f = x^(n+1) - ut^2
    (A1 = 1, A2 = C^-(n+1)), whose roots always exist."""
    field, n, one = pk.field, pk.n, pk.field.one
    lam = field(lam)
    ut, vt = pk.shapes(lam, sign)
    B1, B2, twisted = one, one, False
    if (A1, A2) != (one, one):
        B1, B2 = field.nth_root(A1, 2), field.nth_root(A2, 2)
        if B1 is None or B2 is None:
            cl_inv = pk.cl.inverse()
            A1, A2, B1, B2, twisted = one, cl_inv * cl_inv, one, cl_inv, True
    u, v = B1 * ut, B2 * vt
    f = A1 * Poly.monomial(field, n + 1) - u * u
    if f != A2 * Poly(field, (one, one)) ** (n + 1) - v * v:
        raise BadParameters("double representation failed: inconsistent inputs")
    if f.degree != n:
        raise DegreeNotNormalized(
            f"lambda = {lam!r} leaves deg f = {f.degree}, not n = {n}; "
            f"normalizing lambdas: {pk.normalizing_lambdas()!r}",
            lam=lam, polynomial=f)
    if not is_squarefree(f):
        raise NotSquarefree(f"bad lambda = {lam!r}: f has a repeated root")
    return PacketFamily(field=field, p=field.p, n=n, ell0=pk.ell0, m0=n + 1, I=pk.I,
                        lam=lam, C=pk.C, A1=A1, A2=A2, B1=B1, B2=B2, u=u, v=v, f=f,
                        sign=sign, twisted=twisted)


def _amplitude_ratio(A1: FieldElement, A2: FieldElement) -> FieldElement:
    if A1.is_zero() or A2.is_zero():
        raise ZeroParameter("A1 and A2 must be nonzero")
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
        raise NoRootOfUnityStructure(f"A1/A2 = {ratio!r} has no (n+1)-th root in F_{field.p}")
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
        raise CharDividesM0(f"characteristic {char} divides m0 = {params.m0}")
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
    field = h.field
    return field(ell0) * h - Poly.x(field) * h.derivative()


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
    ``confirmed_bad_lambdas``.  When the eliminant vanishes identically the
    analysis localizes nothing and every abscissa is scanned.
    """
    sieve, field, ell0 = _sieve(pk), pk.field, pk.ell0
    p, cl, bad = field.p, pk.cl.value, {1, field.p - 1}
    for x0 in range(p) if sieve is None else (r.value for r in roots_in_field(sieve)):
        powers = [pow(x0, i, p) for i in range(ell0 + 1)]  # deg H_I, deg H_comp <= ell0
        bad.update(lam for lam in _quadratic_roots(
            sum(map(mul, pk.hi.values, powers)) % p, -2 * cl * powers[ell0] % p,
            -sum(map(mul, pk.hc.values, powers)) % p, field) if lam)
    return frozenset(field(lam) for lam in bad | {p - lam for lam in bad})


def bad_lambda_members(pk: TwoPacket, lams) -> frozenset:
    """The lams in ``bad_lambda_set(pk)``, found in polylog(p) without
    building that set.  Apart from +-1, a lam != 0 is in it iff
    R = Q(x, lam) Q(x, -lam) = (lam^2 H_I - H_comp)^2 - 4 C^(2 ell0) lam^2 x^(n+1),
    nonzero at x = 0, has a root in F_p that the analysis draws lambdas from."""
    sieve, field, out = _sieve(pk), pk.field, set()
    for lam in map(field, lams):
        w = pk.hi * (lam * lam) - pk.hc
        r = w * w - Poly.monomial(field, pk.n + 1, 4 * (pk.cl * lam) ** 2)
        if lam == 1 or lam == -1 or (lam and roots_in_field(
                r if sieve is None else poly_gcd(r, sieve))):
            out.add(lam)
    return frozenset(out)


def _sieve(pk: TwoPacket):
    """S whose roots are the abscissas the bad lambda analysis draws lambdas
    from, or None when the eliminant vanishes identically and every abscissa
    is."""
    field, n, hi, hc = pk.field, pk.n, pk.hi, pk.hc
    bi, bc = nonvanishing_bracket(hi, pk.ell0), nonvanishing_bracket(hc, pk.ell0)
    if bi.is_zero() or bc.is_zero():
        raise NonvanishingViolation("ell0*H - x*H' vanished identically")
    wh = hi.derivative() * hc - hc.derivative() * hi
    # eliminant: 4 C^(n+1) * bc * bi * x^(n+1) - x^2 * wh^2, with x^2 removed
    eliminant = (4 * pk.C ** (n + 1)) * bc * bi * Poly.monomial(field, n - 1) - wh * wh
    # the elimination divides by the brackets; cover their zeros too
    return None if eliminant.is_zero() else eliminant * bi * bc


def confirmed_bad_lambdas(pk: TwoPacket) -> frozenset:
    """The lambda for which x^(n+1) - ut^2 actually fails squarefreeness
    (the zero polynomial counts as failing), as the independent check of
    ``bad_lambda_set``.

    A lambda enters the set only by the exact test of its own polynomial.
    What keeps a lambda out untested is a discriminant.  With mu = lam^2,
    G(mu, x) = 4 C^(n+1) mu x^(n+1) - (mu H_I - H_comp)^2 equals
    4 C^(n+1) lam^2 (x^(n+1) - ut^2).  Its x^(n+1) coefficient,
    4 C^(n+1) mu - (mu a - b)^2 with a, b the x^ell0 coefficients of H_I and
    H_comp, vanishes at mu = lam^2 exactly for the normalizing lambdas.
    For any other lam, G(lam^2, x) has degree n+1 and, as p does not divide
    n+1, its x-derivative has degree n, so it is squarefree iff
    D(lam^2) = Res_x(G, dG/dx) is nonzero.  The Sylvester matrix of D has
    2n+1 rows of entries of degree <= 2 in mu, so deg D <= 4n+2: D is
    interpolated from its values at the first 4n+3 mu = 1, 2, ... where the
    leading coefficient is nonzero, at which Euclid's resultant of the
    specialized polynomials is D(mu).  The lambdas tested are the square
    roots of the roots of D and the normalizing lambdas, at most
    2(4n+2) + 4.  When p leaves fewer than 4n+3 such mu (p below about
    4n+6), or D vanishes identically, every unit is tested.

    The sign of ut does not matter, since ut and -ut give the same
    polynomial."""
    top = Poly.monomial(pk.field, pk.n + 1)
    out = set()
    for lam in _candidate_lambdas(pk):
        ut, _ = pk.shapes(lam)
        f = top - ut * ut
        if f.is_zero() or not is_squarefree(f):
            out.add(lam)
    return frozenset(out)


def _candidate_lambdas(pk: TwoPacket):
    """The units ``confirmed_bad_lambdas`` tests: the roots in lam of
    D(lam^2) and the normalizing lambdas, or every unit as the fallback."""
    field, n, hi, hc = pk.field, pk.n, pk.hi, pk.hc
    red, count = field.reduce, 4 * n + 3
    four_c = (4 * pk.C ** (n + 1)).value
    a, b = hi[pk.ell0].value, hc[pk.ell0].value
    mus = list(islice((mu for mu in range(1, field.p)
                       if red(four_c * mu - (mu * a - b) ** 2)), count))
    if len(mus) == count:
        values = []
        for mu in mus:
            w = [mu * u - v for u, v in zip_longest(hi.values, hc.values, fillvalue=0)]
            g = [red(-c) for c in _convolve(w, w, n + 2)]
            g[n + 1] = red(g[n + 1] + four_c * mu)
            values.append(_resultant_values(field, g, [red(i * c) for i, c in enumerate(g)][1:]))
        disc = interpolate(field, mus, values)
        if not disc.is_zero():
            out = set(pk.normalizing_lambdas())
            for mu in roots_in_field(disc):
                lam = field.nth_root(mu, 2)
                if lam is not None and not lam.is_zero():
                    out |= {lam, -lam}
            return out
    return field.units()


# ---------------------------------------------------------------------------
# moving two packet abscissas to 0 and -1
# ---------------------------------------------------------------------------

class ShiftMap(NamedTuple):
    """x -> scale*x + offset on the base line, y -> y/y_scale on the cover;
    y_scale is a d-th root of scale^n, None when the base field has none, in
    which case only the x-side is available."""

    scale: FieldElement
    offset: FieldElement
    y_scale: FieldElement | None


def shift_points_to_0_minus1(curve: SuperellipticCurve, P: AffinePoint,
                             Q: AffinePoint):
    """Produce the isomorphic curve with x(P), x(Q) moved to 0, -1: f_new =
    scale^-n * f(scale*x + offset).  Orders of points are preserved since the
    infinite point maps to the infinite point."""
    if P.x == Q.x:
        raise SameAbscissa("P and Q must have distinct abscissas")
    field = curve.field
    offset = P.x
    scale = P.x - Q.x
    substituted = curve.f.compose(Poly(field, (offset, scale)))
    f_new = substituted * (scale ** curve.n).inverse()
    new_curve = SuperellipticCurve(field, curve.d, f_new)
    y_scale = field.nth_root(scale ** curve.n, curve.d)
    smap = ShiftMap(scale=scale, offset=offset, y_scale=y_scale)
    images = None
    if y_scale is not None:
        images = (new_curve.point(field.zero, P.y / y_scale),
                  new_curve.point(-field.one, Q.y / y_scale))
    return new_curve, smap, images


# ---------------------------------------------------------------------------
# the degree-2 Wronskian triple of a built family
# ---------------------------------------------------------------------------

def packet_wronskian_triple(fam: PacketFamily):
    """(f1, f2, f3) with f1^2 + f2^2 + f3^2 = A1: f1 = B2 (1+t)^ell0,
    f2 = reversal of u, f3 = eta * reversal of v with eta^2 = -1."""
    field = fam.field
    eta = field.nth_root(field(-1), 2)
    if eta is None:
        raise UnsupportedField(f"F_{fam.p} has no square root of -1")
    f1 = fam.B2 * Poly(field, (field.one, field.one)) ** fam.ell0
    f2 = fam.u.reverse(fam.ell0)
    f3 = eta * fam.v.reverse(fam.ell0)
    ok, value = fermat_identity_check(f1, f2, f3, 2)
    if not ok or value != fam.A1:
        raise BadParameters("triple does not sum to A1")
    return f1, f2, f3
