"""Independent computation of the exact order of [P - O] in the Jacobian.

Three backends, each called as ``backend(curve, point, max_k)`` on a
``SuperellipticCurve``, whose constructor is the only validity gate (for
d = 2 it leaves odd n >= 3, char != 2 and a squarefree f).  Each checks the
point once, by ``curve.point``, then max_k >= 1, then that it applies:

* ``order_of_class`` -- works for any d: find the least k such that some
  function with pole divisor <= k*O vanishes at P to order >= k.  Such a
  function has divisor exactly k(P) - k(O), so k is the class order.  The
  search is one incremental exact elimination of the truncated local
  expansions at P of a basis of these functions, one function per pole
  order, on bare residues or integers (``_principal_orders``, shared with
  ``principality_profile``).
* ``elliptic_order`` -- chord/tangent group law; needs d = 2, deg f = 3.
* ``cantor_order``  -- Mumford representation plus composition/reduction
  (Cantor, Math. Comp. 48, 1987); needs d = 2.

The group-law primitives ``elliptic_add`` and ``cantor_add`` take the curve
too, and trust the points and divisors they are given.  All backends are
pure and deterministic; they are meant to cross-check each other and the
certificate constructions.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .curves import AffinePoint, SuperellipticCurve
from .errors import BadParameters, NotRamified, PrecisionExhausted
from .poly import Poly, _series_root_powers, poly_xgcd


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
# exact left kernel of a small coefficient matrix
# ---------------------------------------------------------------------------

def left_kernel_vector(rows, field):
    """A nonzero vector c with sum_i c_i * rows[i] = 0, or None.

    Elimination tracks the combination in an identity tableau.  Over Q every
    row is first scaled to a primitive integer vector and updates use
    cross-multiplication, so all intermediate entries stay integral.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    m = len(rows)
    aug = []
    for i, r in enumerate(rows):
        tail = [field.zero] * m
        tail[i] = field.one
        aug.append(_primitive(list(r) + tail, field))
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, m):
            if not aug[r][col].is_zero():
                sel = r
                break
        if sel is None:
            continue
        aug[rank], aug[sel] = aug[sel], aug[rank]
        pivot = aug[rank][col]
        for r in range(rank + 1, m):
            if aug[r][col].is_zero():
                continue
            c = aug[r][col]
            aug[r] = _primitive(
                [pivot * aug[r][j] - c * aug[rank][j] for j in range(len(aug[r]))],
                field)
        rank += 1
        if rank == m:
            break
    if rank == m:
        return None
    return tuple(aug[rank][ncols:])


def _primitive(row, field):
    if field.kind != "Q":
        return row
    ints, _ = field.split([c.value for c in row])
    return [field(v) for v in _content_free(ints)]


# ---------------------------------------------------------------------------
# order via vanishing functions (any d)
# ---------------------------------------------------------------------------

def _principal_orders(curve: SuperellipticCurve, point: AffinePoint, max_k: int):
    """Yield, ascending, every k in 1..max_k with k(P) - k(O) principal.

    The functions with divisor >= -k*O are spanned by x^i y^j with pole
    order w = d*i + n*j <= k, and equally by (x - a)^i y^j, a = x(P): for
    each j both give the polynomials in x of degree <= i.  The w are
    distinct, so at most one monomial enters at each k, and the expansion at
    P of (x - a)^i y^j in t = x - a is the one of y^j shifted by i places.
    It is reduced against the echelon rows kept so far until its leading
    column is new.  A function with pole order <= k vanishes at P to order
    <= k, so every kept lead is below k, and k is principal iff the new
    lead is k.  Rows hold bare values over max_k + 2 columns: residues mod
    p, kept with lead 1, or over Q integer rows divided by their content, in
    the variable t/C of ``_series_root_powers``.  Scaling a row, or column
    t^c by C^c, moves no lead.  A ramified point (y = 0) has order d
    (``order_of_ramified``), so its principal k are the multiples of d.
    """
    if point.y.is_zero():
        yield from range(curve.d, max_k + 1, curve.d)
        return
    n, d, ncols = curve.n, curve.d, max_k + 2
    p = curve.field.characteristic()
    powers, _ = _series_root_powers(curve.f, d, point.x, point.y, ncols)
    ys = powers[:d] if p else [_content_free(row) for row in powers[:d]]
    n_inv = pow(n, -1, d)
    kept = {}  # lead column -> echelon row
    for k in range(max_k + 1):
        j = k * n_inv % d  # the only j with n*j = k mod d
        if n * j > k:
            continue
        i = (k - n * j) // d
        row = [0] * i + ys[j][:ncols - i]
        lead = _lead(row, i)
        while lead in kept:
            pivot, c = kept[lead], row[lead]
            if p:
                row = [(u - c * v) % p for u, v in zip(row, pivot)]
            else:
                row = _content_free([pivot[lead] * u - c * v for u, v in zip(row, pivot)])
            lead = _lead(row, lead + 1)
        if lead is None or lead > k:
            raise PrecisionExhausted(
                f"a function of pole order {k} vanished at P to order above {k};"
                " divisor bookkeeping violated")
        if p:
            inv = pow(row[lead], -1, p)
            row = [v * inv % p for v in row]
        kept[lead] = row
        if lead == k > 0:
            yield k


def _lead(row, start):
    """Index of the first nonzero entry at or after start, or None."""
    return next((c for c in range(start, len(row)) if row[c]), None)


def _content_free(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _check_max_k(max_k: int):
    if max_k < 1:
        raise BadParameters("max_k must be >= 1")


def principality_profile(curve: SuperellipticCurve, point, max_k: int):
    """[k in 1..max_k for which k(P) - k(O) is a principal divisor]."""
    point = curve.point(*point)
    _check_max_k(max_k)
    return list(_principal_orders(curve, point, max_k))


def order_of_class(curve: SuperellipticCurve, point, max_k: int | None = None):
    """Least k with k(P) - k(O) principal, i.e. the order of [P - O] (d when
    y(P) = 0); None if it exceeds max_k (default 2*m0).  The engine runs to
    min(max_k, 2*m0) first and doubles that bound up to max_k while it finds
    no order, so a small order costs the same whatever max_k is."""
    point = curve.point(*point)
    if max_k is None:
        max_k = 2 * curve.params.m0
    _check_max_k(max_k)
    bound = min(max_k, 2 * curve.params.m0)
    while True:
        order = next(_principal_orders(curve, point, bound), None)
        if order is not None or bound == max_k:
            return order
        bound = min(2 * bound, max_k)


def order_of_ramified(curve: SuperellipticCurve, point) -> int:
    """Points with y = 0 have class order exactly d: x - x(P) has divisor
    d(P) - d(O) because f is squarefree at x(P)."""
    if not curve.point(*point).y.is_zero():
        raise NotRamified("point has y != 0")
    return curve.d


# ---------------------------------------------------------------------------
# elliptic backend (y^2 = general cubic, one point at infinity)
# ---------------------------------------------------------------------------

def elliptic_add(curve: SuperellipticCurve, P, Q):
    """Chord/tangent addition on y^2 = f(x) (deg 3); None encodes O."""
    if P is None:
        return Q
    if Q is None:
        return P
    f, field = curve.f, curve.field
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2).is_zero():
        return None
    if x1 == x2:
        slope = f.derivative()(x1) / (field(2) * y1)
    else:
        slope = (y2 - y1) / (x2 - x1)
    c3, c2 = f[3], f[2]
    x3 = (slope * slope - c2) / c3 - x1 - x2
    y3 = -(y1 + slope * (x3 - x1))
    return (x3, y3)


def elliptic_order(curve: SuperellipticCurve, point, max_k: int):
    """Least k <= max_k with k*P = O under the chord/tangent law on
    y^2 = f, deg f = 3; else None."""
    point = curve.point(*point)
    _check_max_k(max_k)
    if (curve.d, curve.n) != (2, 3):
        raise BadParameters("elliptic backend needs d = 2 and deg f = 3")
    acc = point
    for k in range(1, max_k + 1):
        if acc is None:
            return k
        acc = elliptic_add(curve, acc, point)
    return None


# ---------------------------------------------------------------------------
# Cantor backend (hyperelliptic y^2 = f, odd degree)
# ---------------------------------------------------------------------------

class MumfordDivisor(NamedTuple):
    """Reduced divisor (u, v): u monic, deg v < deg u <= genus, u | v^2 - f."""

    u: Poly
    v: Poly

    @classmethod
    def validated(cls, curve: SuperellipticCurve, u: Poly, v: Poly):
        if u.is_zero() or u.leading != curve.field.one:
            raise BadParameters("u must be monic")
        if not v.is_zero() and v.degree >= u.degree:
            raise BadParameters("need deg v < deg u")
        if not ((v * v - curve.f) % u).is_zero():
            raise BadParameters("v^2 != f mod u")
        return cls(u=u, v=v)

    @classmethod
    def identity(cls, field):
        return cls(u=Poly.one(field), v=Poly.zero(field))

    @classmethod
    def from_point(cls, curve: SuperellipticCurve, point):
        x0, y0 = curve.point(*point)
        return cls(u=Poly(curve.field, (-x0, curve.field.one)), v=Poly(curve.field, (y0,)))

    def is_identity(self):
        return self.u.degree == 0


def _cantor_compose(f: Poly, D1: MumfordDivisor, D2: MumfordDivisor):
    u1, v1 = D1.u, D1.v
    u2, v2 = D2.u, D2.v
    d1, e1, e2 = poly_xgcd(u1, u2)
    d, c1, c2 = poly_xgcd(d1, v1 + v2)
    s1, s2, s3 = c1 * e1, c1 * e2, c2
    u = (u1 * u2) // (d * d)
    t = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + f)
    v = (t // d) % u
    return u.monic(), v


def _cantor_reduce(f: Poly, g: int, u: Poly, v: Poly):
    while u.degree > g:
        u2 = (f - v * v) // u
        v2 = (-v) % u2
        u, v = u2.monic(), v2
    return u, v % u if not u.is_constant() else Poly.zero(f.field)


def cantor_add(curve: SuperellipticCurve, D1: MumfordDivisor,
               D2: MumfordDivisor) -> MumfordDivisor:
    f = curve.f
    u, v = _cantor_compose(f, D1, D2)
    u, v = _cantor_reduce(f, (curve.n - 1) // 2, u, v)
    return MumfordDivisor(u=u, v=v)


def cantor_order(curve: SuperellipticCurve, divisor, max_k: int):
    """Least k <= max_k with k*[D] = 0 on Jac(y^2 = f); else None.  D is a
    point or a ``MumfordDivisor``.

    f need not be monic: with deg f = 2g + 1 the reduced divisor of a class
    is still unique, and neither composition nor reduction uses lc(f)."""
    # a MumfordDivisor is a tuple too, so it is told apart first
    if isinstance(divisor, MumfordDivisor):
        divisor = MumfordDivisor.validated(curve, *divisor)
    else:
        divisor = MumfordDivisor.from_point(curve, divisor)
    _check_max_k(max_k)
    if curve.d != 2:
        raise BadParameters("Cantor backend needs d = 2")
    acc = divisor
    for k in range(1, max_k + 1):
        if acc.is_identity():
            return k
        acc = cantor_add(curve, acc, divisor)
    return None
