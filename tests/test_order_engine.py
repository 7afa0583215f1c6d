"""Parity of the incremental order engine and the coefficient-recurrence
d-th root with the algorithms they replaced.

The references below are the earlier implementations, kept here only as
oracles: Newton iteration for the series root, the coupled recurrence
over all d powers of it (in ``paper_checks``), and the k-loop that
eliminates the truncated expansions of the whole basis afresh for every k
with ``left_kernel_vector``.  Their expansions are memoized per monomial,
which changes their cost but not their answers.
"""

import random
from functools import lru_cache
from math import gcd

import pytest

from supertorsion import (
    GF,
    QQ,
    Poly,
    SuperellipticCurve,
    TruncatedSeries,
    build_certificate,
    order_of_class,
    series_dth_root,
    torsion_params,
)
from supertorsion.errors import BadParameters, MathCheckError, NotSquarefree
from supertorsion.fields import is_prime
from supertorsion.orders import left_kernel_vector
from supertorsion.poly import _series_root_powers

from paper_checks import coupled_root_powers, principality_profile, rr_basis

SMALL_PRIMES = [p for p in range(2, 60) if is_prime(p)]


def newton_dth_root(f, d, center, y0, precision):
    """s <- s - (s^d - g)/(d s^(d-1)) with g = f(center + t), doubling the
    precision each step."""
    field = f.field
    g = f.shift(center)
    if y0 ** d != g(field.zero) or y0.is_zero():
        raise BadParameters("y0 is not a nonzero d-th root of f(center)")
    s = TruncatedSeries(field, [y0], 1)
    dconst = field(d)
    while s.precision < precision:
        prec = min(2 * s.precision, precision)
        s = TruncatedSeries(field, s.coeffs, prec)
        gser = TruncatedSeries.from_poly(g, prec)
        num = s ** d - gser
        den = (s ** (d - 1)) * dconst
        s = s - num * den.inverse()
    return s


def _expansions(curve, point, max_k, precision):
    field = curve.field
    s = newton_dth_root(curve.f, curve.d, point.x, point.y, precision)
    xser = TruncatedSeries(field, [point.x, field.one], precision)
    xpows = [TruncatedSeries(field, [field.one], precision)]
    for _ in range(max_k // curve.d + 1):
        xpows.append(xpows[-1] * xser)
    ypows = [TruncatedSeries(field, [field.one], precision)]
    for _ in range(curve.d - 1):
        ypows.append(ypows[-1] * s)
    return lru_cache(maxsize=None)(lambda i, j: xpows[i] * ypows[j])


def kloop_profile(curve, point, max_k):
    precision = max_k + 2
    expand = _expansions(curve, point, max_k, precision)
    principal = []
    for k in range(1, max_k + 1):
        basis = rr_basis(curve.n, curve.d, k)
        rows = [list(expand(i, j).coeffs[:k]) for (i, j) in basis.monomials]
        combo = left_kernel_vector(rows, curve.field)
        if combo is None:
            continue
        full = [list(expand(i, j).coeffs) for (i, j) in basis.monomials]
        residual = [sum((c * row[t] for c, row in zip(combo, full)),
                        start=curve.field.zero) for t in range(precision)]
        if any(not residual[t].is_zero() for t in range(k)):
            raise MathCheckError("kernel vector failed to vanish as computed")
        if residual[k].is_zero():
            raise MathCheckError(f"vanishing order exceeded {k}")
        principal.append(k)
    return principal


def kloop_order(curve, point, max_k):
    precision = max_k + 2
    expand = _expansions(curve, point, max_k, precision)
    for k in range(1, max_k + 1):
        basis = rr_basis(curve.n, curve.d, k)
        rows = [list(expand(i, j).coeffs[:k]) for (i, j) in basis.monomials]
        if left_kernel_vector(rows, curve.field) is not None:
            return k
    return None


# ---------------------------------------------------------------------------
# the series root
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [QQ] + [GF(p) for p in SMALL_PRIMES], ids=repr)
def test_series_root_matches_newton(field):
    """Every d = 2..7 the characteristic allows, compared with the prefixes
    of one Newton root: precision 1..30 over Q and for p < 30, so p <
    precision occurs; 1..12 for p > 30, where every precision up to 30 is
    below p anyway."""
    rng = random.Random(f"series:{field!r}")
    top = 30 if field.characteristic() < 30 else 12
    for d in range(2, 8):
        if field.characteristic() and d % field.characteristic() == 0:
            with pytest.raises(BadParameters, match=f"^characteristic {field.characteristic()} divides {d}$"):
                series_dth_root(Poly(field, (1, 1)), d, 0, 1, 3)
            continue
        if field.kind == "Q":
            # rational center, y0 and f, so the integral rescaling has work to do
            center = field(rng.choice((0, 2, (1, 2), (-2, 3))))
            y0 = field(rng.choice((1, -3, (5, 2), (-1, 3))))
            f = Poly(field, [(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                             for _ in range(rng.randint(2, 7))] + [1])
        else:
            center, y0 = field(rng.randrange(60)), field(rng.randrange(1, 60))
            if y0.is_zero():
                y0 = field.one
            f = Poly(field, [rng.randrange(60) for _ in range(rng.randint(2, 7))] + [1])
        f = f + (y0 ** d - f(center))
        reference = newton_dth_root(f, d, center, y0, top).coeffs
        for precision in range(1, top + 1):
            s = series_dth_root(f, d, center, y0, precision)
            assert s.coeffs == reference[:precision], (d, precision)
            # same value types as before: Fractions over Q, residues mod p
            assert [type(c.value) for c in s.coeffs] == \
                   [type(c.value) for c in reference[:precision]]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7), GF(13), GF(1009)], ids=repr)
def test_first_order_powers_match_the_coupled_recurrence(field):
    """Every power j <= d-1 of the first-order recurrence (mod p^E over F_p)
    against the coupled one, to precision up to 45, so p < precision over
    the small fields; d odd over F_2."""
    rng, p = random.Random(f"powers:{field!r}"), field.characteristic()
    for _ in range(40 if p else 12):
        d = rng.choice([d for d in range(2, 9) if not p or d % p])
        precision, n = rng.randint(1, 45), rng.randint(d + 1, 12)
        if p:
            center, y0 = field(rng.randrange(p)), field(rng.randrange(1, p))
            f = Poly(field, [rng.randrange(p) for _ in range(n)] + [1])
        else:
            center = field(rng.choice((0, 1, (1, 2), (-2, 3))))
            y0 = field(rng.choice((1, -3, (5, 2), (-1, 3))))
            f = Poly(field, [(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)] + [1])
        f = f + (y0 ** d - f(center))
        powers, scale = _series_root_powers(f, d, center, y0, precision, d - 1)
        reference, ref_scale = coupled_root_powers(f, d, center, y0, precision)
        assert (powers, scale) == (reference[:d], ref_scale), (d, precision, f)


# ---------------------------------------------------------------------------
# the order engine
# ---------------------------------------------------------------------------

def _shapes():
    """Every (n, d) with gcd(n, d) = 1, 4 <= m0 <= 21 and slack >= 0."""
    out = []
    for d in range(2, 21):
        for n in range(d + 1, 22):
            if gcd(n, d) != 1:
                continue
            params = torsion_params(n, d)
            if 4 <= params.m0 <= 21 and params.slack >= 0:
                out.append((n, d))
    return out


def _certificate(rng, n, d, field, a):
    slack = torsion_params(n, d).slack
    while True:
        q = Poly(field, [rng.randint(-2, 2) for _ in range(slack)] + [rng.choice((1, -1))])
        B = rng.choice((1, -1, 2))
        if q(field(a)).is_zero():  # build_certificate refuses q(a) = 0
            continue
        try:
            return build_certificate(n, d, a, B, q)
        except NotSquarefree:
            continue


@pytest.mark.parametrize("field", [QQ, GF(1009)], ids=repr)
def test_certificate_points_match_kloop(field):
    """The marked point of a certificate for every shape: the profile up to
    m0 and the order agree with the k-loop (both are [m0] and m0).  Over Q
    the abscissa is 0 on two shapes in three and -1/2 on the third (a
    fraction costs the references more); over F_p it is a random residue."""
    rng = random.Random(f"shapes:{field!r}")
    shapes = _shapes()
    assert len(shapes) == 48
    for index, (n, d) in enumerate(shapes):
        if field.kind == "Q":
            a = QQ((-1, 2)) if index % 3 == 2 else QQ(0)
        else:
            a = field(rng.randrange(field.p))
        cert = _certificate(rng, n, d, field, a)
        curve, point, m0 = cert.curve(), cert.point(), cert.params.m0
        reference = kloop_profile(curve, point, m0)
        assert reference == [m0]
        assert principality_profile(curve, point, m0) == reference
        assert order_of_class(curve, point, m0) == reference[0]


@pytest.mark.parametrize("p", [5, 7, 13])
def test_random_points_on_small_p_curves_match_kloop(p):
    """Seeded curves y^d = f(x) of genus 1 and 3 over small F_p, and the
    non-ramified points above random abscissae: profiles and orders to
    k = 12 agree.  Over these fields the classes have small orders (3, 7
    and 10 occur, the order 3 one with its multiples to 12)."""
    field = GF(p)
    rng = random.Random(f"small:{p}")
    checked = 0
    while checked < 4:
        n = rng.randint(3, 4)
        d = rng.choice([e for e in range(2, n) if gcd(e, n) == 1 and e % p])
        f = Poly(field, [rng.randrange(p) for _ in range(n)] + [1])
        try:
            curve = SuperellipticCurve(field, d, f)
        except BadParameters:
            continue
        points = [pt for pt in curve.points_above(rng.randrange(p)) if not pt.y.is_zero()]
        for point in points[:2]:
            assert principality_profile(curve, point, 12) == kloop_profile(curve, point, 12)
            assert order_of_class(curve, point, 12) == kloop_order(curve, point, 12)
            checked += 1
