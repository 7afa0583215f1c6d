"""The paper's proof devices, as checks for the test suite.

Nothing in the package calls these.  The acceptance suite prints them as
paper checks, and the polynomial and order-engine tests use them as
references:

* the Wronskian machinery behind the two-packet admissibility conditions,
  the degree-2 Wronskian triple of a built packet family, and the packet
  shapes (ut, vt) as polynomials;
* the bad lambda set of a packet whose eliminant vanishes identically,
  one abscissa at a time, and its normalizing lambdas, each by a modular
  square root;
* moving two packet abscissas to 0 and -1 by an affine change of x;
* the Riemann-Roch basis of functions with poles only at O, and its
  dimension as a count of the semigroup <d, n>;
* every principal k(P) - k(O) up to a bound, and a checked Mumford divisor
  (u, v), the references for the order oracles, which take points only;
* the powers of the d-th root of f(a + t) by the coupled recurrence over
  all d powers, the reference for the first-order one of the order engine;
* the reduced cubics that the marked 4-torsion family and the Kubert curve
  share.

The module has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import NamedTuple

from supertorsion import AffinePoint, FieldElement, MumfordDivisor, Poly, SuperellipticCurve
from supertorsion.errors import BadParameters, MathCheckError, UnsupportedField
from supertorsion.orders import _check_max_k, _principal_orders
from supertorsion.poly import _quadratic_roots


# ---------------------------------------------------------------------------
# substitutions
# ---------------------------------------------------------------------------

def compose(f: Poly, inner: Poly) -> Poly:
    """f(inner(x)) by Horner on polynomial values."""
    acc = Poly.zero(f.field)
    for c in reversed(f.coeffs):
        acc = acc * inner + Poly(f.field, (c,))
    return acc


def reverse(f: Poly, m: int) -> Poly:
    """x^m * f(1/x): coefficient reversal padded to length m+1."""
    if f.degree > m:
        raise BadParameters(f"degree {f.degree} exceeds reversal order {m}")
    return Poly(f.field, [f[i] for i in range(m, -1, -1)])


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
        raise MathCheckError("f1^d, f2^d, f3^d are linearly dependent")
    lower, upper = 3 * ell0 * (d - 2), 2 * ell0 * d - 3
    # every entry of the i-th column of W carries f_i^(d-2); W != 0 makes the
    # product nonzero
    return WronskianAudit(
        degree=w.degree, lower=lower, upper=upper,
        degree_ok=lower <= w.degree <= upper,
        slope_bound_ok=ell0 * (d - 6) <= -3,
        divisibility_ok=d <= 2 or (w % (f1 * f2 * f3) ** (d - 2)).is_zero())


def packet_wronskian_triple(fam):
    """(f1, f2, f3) with f1^2 + f2^2 + f3^2 = A1 for a ``PacketFamily``:
    f1 = B2 (1+t)^ell0, f2 = reversal of u, f3 = eta * reversal of v with
    eta^2 = -1."""
    field = fam.field
    eta = field.nth_root(field(-1), 2)
    if eta is None:
        raise UnsupportedField(f"F_{fam.p} has no square root of -1")
    f1 = fam.B2 * Poly(field, (field.one, field.one)) ** fam.ell0
    f2 = reverse(fam.u, fam.ell0)
    f3 = eta * reverse(fam.v, fam.ell0)
    ok, value = fermat_identity_check(f1, f2, f3, 2)
    if not ok or value != fam.A1:
        raise BadParameters("triple does not sum to A1")
    return f1, f2, f3


def packet_shapes(pk, lam, sign: str = "plus"):
    """(ut, vt) of a ``TwoPacket`` at a nonzero lam, as polynomials; ut is
    negated for the "minus" sign."""
    return tuple(Poly._from_values(pk.field, c) for c in pk._values(lam, sign))


def q_coefficients_everywhere(pk):
    """The residues (H_I(x0), 2 C^ell0 x0^ell0, H_comp(x0)) of
    Q(x0, lam) = H_I(x0) lam^2 - 2 C^ell0 x0^ell0 lam - H_comp(x0) at every
    x0 of F_p, from the powers of each x0."""
    p, ell0, two_cl = pk.field.p, pk.ell0, 2 * pk.cl.value
    for x0 in range(p):
        powers = [pow(x0, i, p) for i in range(ell0 + 1)]
        yield (sum(map(mul, pk.hi.values, powers)) % p, two_cl * powers[ell0] % p,
               sum(map(mul, pk.hc.values, powers)) % p)


def reference_degenerate_bad_lambdas(pk):
    """``bad_lambda_set`` of a packet whose eliminant vanishes identically,
    one abscissa at a time: the roots in lam of Q(x0, lam) at every x0, each
    solved by ``_quadratic_roots`` (a modular square root and inverse per
    x0), with 1, closed under negation and without 0.  On any other packet,
    the same union over every abscissa, not only the sieve's."""
    field, p = pk.field, pk.field.p
    bad = {1}.union(*(_quadratic_roots(a, -b % p, -c % p, field)
                      for a, b, c in q_coefficients_everywhere(pk)))
    return frozenset(field(lam) for lam in bad | {p - lam for lam in bad} if lam % p)


def reference_normalizing_lambdas(pk):
    """The lam with a lam^2 -+ 2 C^ell0 lam - b = 0 for the x^ell0
    coefficients a, b of H_I and H_comp, in order: the roots of the "-"
    equation, then of the "+" one, each pair solved by ``_quadratic_roots``
    (a modular square root), without 0 and repeats."""
    field, p, ell0, out = pk.field, pk.field.p, pk.ell0, []
    a, b, two_cl = pk.hi[ell0].value, pk.hc[ell0].value, 2 * pk.cl.value % p
    for target in (two_cl, p - two_cl):
        for lam in _quadratic_roots(a, p - target, -b % p, field):
            if lam and field(lam) not in out:
                out.append(field(lam))
    return tuple(out)


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
        raise BadParameters("P and Q must have distinct abscissas")
    field = curve.field
    offset = P.x
    scale = P.x - Q.x
    substituted = compose(curve.f, Poly(field, (offset, scale)))
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
# Riemann-Roch style basis of functions with poles only at O
# ---------------------------------------------------------------------------

class RiemannRochBasis(NamedTuple):
    """Monomials x^i y^j (0 <= j < d) with pole order d*i + n*j <= k at O.

    gcd(n, d) = 1 makes the pole orders pairwise distinct, so these monomials
    are a basis of the space of functions with divisor >= -k*O.
    """

    n: int
    d: int
    k: int
    monomials: tuple  # of (i, j)

    @property
    def dimension(self) -> int:
        return len(self.monomials)


def rr_basis(n: int, d: int, k: int) -> RiemannRochBasis:
    if gcd(n, d) != 1:
        raise BadParameters("pole orders collide unless gcd(n, d) = 1")
    mons = [(i, j) for j in range(d) for i in range(k // d + 1) if d * i + n * j <= k]
    mons.sort(key=lambda ij: d * ij[0] + n * ij[1])
    return RiemannRochBasis(n=n, d=d, k=k, monomials=tuple(mons))


def gap_semigroup_count(n: int, d: int, k: int) -> int:
    """#{s <= k : s in the numerical semigroup generated by d and n}."""
    reachable = [False] * (k + 1)
    reachable[0] = True
    for s in range(1, k + 1):
        if (s >= d and reachable[s - d]) or (s >= n and reachable[s - n]):
            reachable[s] = True
    return sum(reachable)


def genus(n: int, d: int) -> int:
    """Number of gaps of the semigroup <d, n> = (n-1)(d-1)/2."""
    return (n - 1) * (d - 1) // 2


# ---------------------------------------------------------------------------
# references for the order oracles
# ---------------------------------------------------------------------------

def principality_profile(curve: SuperellipticCurve, point, max_k: int):
    """[k in 1..max_k for which k(P) - k(O) is a principal divisor]."""
    point = curve.point(*point)
    _check_max_k(max_k)
    return list(_principal_orders(curve, point, max_k))


def coupled_root_powers(f: Poly, d: int, center, y0, precision: int):
    """``poly._series_root_powers`` for every j = 0..d by the coupled
    recurrence, O(d*precision^2): with r = s/y0, r^d = h := g/g(0) for
    g = f(center + t).  Let R_j be coefficient k of r^j computed with r_k
    set to 0; the true coefficient is R_j + j*r_k, and r^d = h gives
    r_k = (h_k - R_d)/d.  R_j is one convolution of r^(j-1) with r plus
    R_(j-1).  Only d is inverted.  Over Q the series is in u = t/C with
    C = c*d^2, c clearing the denominators of h, as there."""
    field, red = f.field, f.field.reduce
    char = field.characteristic()
    g = (list(f.shift(center).values) + [0] * precision)[:precision]
    if char:
        scale, inv_d, inv_g0 = 1, pow(d, -1, char), pow(g[0], -1, char)
        h = [v * inv_g0 % char for v in g]
    else:
        h, den = field.split([v / g[0] for v in g])
        scale = den * d * d
        h = [c * scale ** k // den for k, c in enumerate(h)]
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


def validated_divisor(curve: SuperellipticCurve, u: Poly, v: Poly) -> MumfordDivisor:
    """(u, v) on y^2 = f, checked: u monic, deg v < deg u and u | v^2 - f."""
    if u.is_zero() or u.leading != curve.field.one:
        raise BadParameters("u must be monic")
    if not v.is_zero() and v.degree >= u.degree:
        raise BadParameters("need deg v < deg u")
    if not ((v * v - curve.f) % u).is_zero():
        raise BadParameters("v^2 != f mod u")
    return MumfordDivisor(u=u, v=v)


# ---------------------------------------------------------------------------
# the cubic shared by the marked 4-torsion family and the Kubert curve
# ---------------------------------------------------------------------------

def reduced_cubic_from_family(B: FieldElement, B1: FieldElement) -> Poly:
    """Scale y^2 = (ax^2+cx+1)(cx+1), a = 2B, c = B1, by x -> a c x,
    y -> 2 a c y: gives y^2 = 4x^3 + 4(a + c^2)x^2 + 8 a c^2 x + 4 a^2 c^2."""
    field = B.field
    a, c = 2 * B, B1
    return Poly(field, (4 * a * a * c * c, 8 * a * c * c, 4 * (a + c * c), field(4)))


def reduced_cubic_from_kubert(b: FieldElement, c: FieldElement) -> Poly:
    """The Kubert model first becomes y^2 = 4x^3 + (1-4b)x^2 - 2bx + b^2;
    scaling x -> 4c^2 x, y -> 8c^3 y then lands on the same target cubic."""
    e1 = kubert_model_cubic(b)
    # substitute x = X/(4c^2), multiply through by 64 c^6
    c2 = 4 * c * c
    return Poly(b.field, [e1[i] * c2 ** (3 - i) for i in range(4)])


def kubert_model_cubic(b: FieldElement) -> Poly:
    """Complete the square in y: the Kubert curve is y^2 = 4x^3 + (1-4b)x^2
    - 2bx + b^2 after y -> (2y + x - b)/2 rescaling."""
    field = b.field
    return Poly(field, (b * b, -2 * b, 1 - 4 * b, field(4)))
