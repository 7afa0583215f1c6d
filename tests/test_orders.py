import random

import pytest

from supertorsion import orders
from supertorsion import (
    GF,
    QQ,
    MumfordDivisor,
    Poly,
    SuperellipticCurve,
    cantor_add,
    cantor_order,
    elliptic_add,
    elliptic_order,
    gap_semigroup_count,
    genus,
    order_of_class,
    order_of_ramified,
    principality_profile,
    rr_basis,
)
from supertorsion.errors import BadParameters, NotOnCurve, NotRamified
from supertorsion.orders import left_kernel_vector


def test_rr_basis_pole_orders_distinct():
    basis = rr_basis(4, 3, 12)
    orders = [3 * i + 4 * j for (i, j) in basis.monomials]
    assert len(set(orders)) == len(orders)
    assert all(o <= 12 for o in orders)


@pytest.mark.parametrize("n,d", [(3, 2), (5, 2), (4, 3), (8, 5)])
def test_rr_dimension_matches_semigroup_and_riemann_roch(n, d):
    g = genus(n, d)
    for k in range(0, 2 * (n + d)):
        dim = rr_basis(n, d, k).dimension
        assert dim == gap_semigroup_count(n, d, k)
        if k >= 2 * g - 1:
            assert dim == k - g + 1


def test_left_kernel_planted():
    F = GF(13)
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]  # row1 = 2*row0
    combo = left_kernel_vector(rows, F)
    assert combo is not None
    for col in range(3):
        total = sum((combo[i] * rows[i][col] for i in range(2)), start=F.zero)
        assert total.is_zero()
    # independent rows have no kernel
    assert left_kernel_vector([[F(1), F(0)], [F(0), F(1)]], F) is None


def test_left_kernel_rationals_planted():
    rows = [[QQ("1/2"), QQ("1/3")], [QQ("1/4"), QQ("1/6")]]  # row1 = row0/2
    combo = left_kernel_vector(rows, QQ)
    assert combo is not None
    for col in range(2):
        total = sum((combo[i] * rows[i][col] for i in range(2)), start=QQ.zero)
        assert total.is_zero()


def test_order_of_class_examples():
    cubic = SuperellipticCurve(QQ, 3, Poly(QQ, (1, 0, 3, 0, 3)))
    assert order_of_class(cubic, cubic.point(0, 1), 12) == 6
    quartic_point_curve = SuperellipticCurve(QQ, 2, Poly(QQ, (1, 2, 3, 2)))
    assert order_of_class(quartic_point_curve, quartic_point_curve.point(0, 1), 8) == 4


def test_order_of_class_cross_characteristic():
    for p in (7, 13):
        F = GF(p)
        cubic = SuperellipticCurve(F, 3, Poly(F, (1, 0, 3, 0, 3)))
        assert order_of_class(cubic, cubic.point(0, 1), 12) == 6


def test_order_of_class_answers_d_on_ramified():
    curve = SuperellipticCurve(QQ, 2, Poly(QQ, (1, 2, 3, 2)))
    ram = curve.point(-1, 0)
    assert order_of_class(curve, ram, 8) == order_of_ramified(curve, ram) == 2
    assert order_of_class(curve, ram, 1) is None
    assert principality_profile(curve, ram, 7) == [2, 4, 6]
    cubic = SuperellipticCurve(GF(13), 3, Poly(GF(13), (-1, 0, 0, 0, 1)))  # x^4 - 1
    assert order_of_class(cubic, cubic.point(1, 0)) == 3


def test_order_of_ramified():
    curve = SuperellipticCurve(QQ, 2, Poly(QQ, (1, 2, 3, 2)))
    assert order_of_ramified(curve, curve.point(-1, 0)) == 2
    with pytest.raises(NotRamified):
        order_of_ramified(curve, curve.point(0, 1))


def test_principality_profile_is_multiples_of_order():
    curve = SuperellipticCurve(QQ, 2, Poly(QQ, (1, 2, 3, 2)))
    profile = principality_profile(curve, curve.point(0, 1), 12)
    assert profile == [4, 8, 12]
    cubic = SuperellipticCurve(QQ, 3, Poly(QQ, (1, 0, 3, 0, 3)))
    assert principality_profile(cubic, cubic.point(0, 1), 13) == [6, 12]


def test_elliptic_order_examples():
    f = Poly(QQ, (1, 1, 2)) * Poly(QQ, (1, 1))  # (2x^2 + x + 1)(x + 1)
    curve = SuperellipticCurve(QQ, 2, f)
    assert elliptic_order(curve, (QQ(0), QQ(1)), 8) == 4
    doubled = elliptic_add(curve, (QQ(0), QQ(1)), (QQ(0), QQ(1)))
    assert doubled == (QQ(-1), QQ(0))
    # the order-2 point doubles to infinity
    assert elliptic_add(curve, doubled, doubled) is None


def test_elliptic_order_f5_reduction():
    F = GF(5)
    f = Poly(F, (1, 4, 1, 4))  # 4x^3 + 6x^2 + 4x + 1 reduced mod 5
    assert elliptic_order(SuperellipticCurve(F, 2, f), (F(0), F(1)), 8) == 4


def test_curve_rejects_singular_cubic():
    # (2x + 1)^2 (4x + 1): the oracles take no curve that skips this gate
    f = Poly(QQ, (1, 4, 4)) * Poly(QQ, (1, 4))
    with pytest.raises(BadParameters, match="repeated roots"):
        SuperellipticCurve(QQ, 2, f)


def test_elliptic_rejects_point_off_the_curve():
    curve = SuperellipticCurve(QQ, 2, Poly(QQ, (1, 2, 3, 2)))
    with pytest.raises(NotOnCurve, match=r"y\^2 != f\(x\) at \(0, 2\)"):
        elliptic_order(curve, (QQ(0), QQ(2)), 8)


def test_cantor_identity_and_point_lift():
    curve = SuperellipticCurve(QQ, 2, Poly(QQ, (1, 2, 3, 2)))
    assert cantor_order(curve, MumfordDivisor.identity(QQ), 5) == 1
    assert cantor_order(curve, (QQ(0), QQ(1)), 8) == 4
    assert cantor_order(curve, (QQ(-1), QQ(0)), 8) == 2


def test_cantor_matches_elliptic_on_random_points():
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        p = rng.choice([7, 11, 13, 17, 19, 23, 29])
        F = GF(p)
        f = Poly(F, [rng.randrange(p) for _ in range(3)] + [rng.randrange(1, p)])
        from supertorsion import is_squarefree
        if f.degree != 3 or not is_squarefree(f):
            continue
        x0 = F(rng.randrange(p))
        ys = [y for y in F.elements() if y * y == f(x0)]
        if not ys:
            continue
        pt = (x0, ys[0])
        curve = SuperellipticCurve(F, 2, f)
        assert cantor_order(curve, pt, 12) == elliptic_order(curve, pt, 12)
        checked += 1


def test_cantor_on_genus_two_packet_instance():
    # equal-case two-packet curve with n = 5 over F_13: both packets have
    # order 6 = m0 (frozen from the builder + both oracles)
    F = GF(13)
    f = Poly(F, (10, 6, 4, 11, 5, 5))
    curve = SuperellipticCurve(F, 2, f)
    for x0 in (F(0), F(-1)):
        for pt in curve.points_above(x0):
            assert cantor_order(curve, pt, 12) == 6
            assert order_of_class(curve, pt, 12) == 6


def test_cantor_add_group_laws():
    F = GF(13)
    curve = SuperellipticCurve(F, 2, Poly(F, (10, 6, 4, 11, 5, 5)))
    D = MumfordDivisor.from_point(curve, (F(0), F(6)))
    E = MumfordDivisor.from_point(curve, (F(12), F(6)))
    left = cantor_add(curve, cantor_add(curve, D, E), D)
    right = cantor_add(curve, D, cantor_add(curve, E, D))
    assert left == right
    ident = MumfordDivisor.identity(F)
    assert cantor_add(curve, D, ident) == D


def test_cantor_nonmonic_agrees_with_rr():
    curve = SuperellipticCurve(QQ, 2, Poly(QQ, (1, 4, 6, 4)))
    pt = curve.point(0, 1)
    assert cantor_order(curve, pt, 8) == 4
    assert order_of_class(curve, pt, 8) == 4
    assert elliptic_order(curve, pt, 8) == 4


def _monic_model(f, divisor):
    """The curve y^2 = f and D carried to the monic model by
    (x, y) -> (c x, c^g y), c = lc(f): the route by which Cantor's algorithm
    can insist on monic f."""
    field, c, n = f.field, f.leading, f.degree
    cg, r = c ** ((n - 1) // 2), divisor.u.degree
    F = Poly(field, [f[i] * c ** (n - 1 - i) for i in range(n + 1)])
    U = Poly(field, [divisor.u[i] * c ** (r - i) for i in range(r + 1)])
    V = Poly(field, [divisor.v[i] * cg / c ** i for i in range(divisor.v.degree + 1)]) \
        if not divisor.v.is_zero() else Poly.zero(field)
    monic = SuperellipticCurve(field, 2, F)
    return monic, MumfordDivisor.validated(monic, U, V)


def reference_cantor_order(f, divisor, max_k):
    """cantor_order computed on the monic model of y^2 = f."""
    monic, D = _monic_model(f, divisor)
    acc = D
    for k in range(1, max_k + 1):
        if acc.is_identity():
            return k
        acc = cantor_add(monic, acc, D)
    return None


def test_cantor_on_nonmonic_f_matches_the_monic_model_and_rr():
    # seeded non-monic f of genus 1..4: every point above a few abscissas,
    # and sums of two points, against the monic-model route; unramified
    # points against order_of_class as well
    from supertorsion import is_squarefree
    rng = random.Random(1987)
    seen, checked = set(), 0
    while checked < 25:
        p, g = rng.choice([5, 7, 11, 13, 17, 19, 23]), rng.randrange(1, 5)
        F = GF(p)
        f = Poly(F, [rng.randrange(p) for _ in range(2 * g + 1)] + [rng.randrange(2, p)])
        if not is_squarefree(f):
            continue
        curve = SuperellipticCurve(F, 2, f)
        points = [pt for x0 in rng.sample(range(p), 3) for pt in curve.points_above(F(x0))]
        if not points:
            continue
        max_k = 24
        for pt in points:
            D = MumfordDivisor.from_point(curve, pt)
            order = cantor_order(curve, pt, max_k)
            assert order == reference_cantor_order(f, D, max_k), (f, pt)
            if not pt.y.is_zero():
                assert order == order_of_class(curve, pt, max_k), (f, pt)
            seen.add(order)
        E = cantor_add(curve, MumfordDivisor.from_point(curve, points[0]),
                       MumfordDivisor.from_point(curve, points[-1]))
        assert cantor_order(curve, E, max_k) == reference_cantor_order(f, E, max_k)
        checked += 1
    assert None in seen and 2 in seen and len(seen) > 6, seen


def test_every_oracle_rejects_max_k_below_one():
    curve = SuperellipticCurve(QQ, 2, Poly(QQ, (1, 2, 3, 2)))
    for oracle in (order_of_class, cantor_order, elliptic_order, principality_profile):
        for max_k in (0, -3):
            with pytest.raises(BadParameters, match=r"^max_k must be >= 1$"):
                oracle(curve, (QQ(0), QQ(1)), max_k)
    with pytest.raises(BadParameters, match="max_k"):
        cantor_order(curve, MumfordDivisor.identity(QQ), 0)


def test_oracles_check_point_then_max_k_then_applicability():
    F = GF(13)
    genus2 = SuperellipticCurve(F, 2, Poly(F, (10, 6, 4, 11, 5, 5)))
    d3 = SuperellipticCurve(F, 3, Poly(F, (12, 0, 0, 0, 1)))
    for curve, oracle, on, off in ((genus2, elliptic_order, (9, 2), (9, 3)),
                                   (d3, elliptic_order, (4, 2), (4, 3)),
                                   (d3, cantor_order, (4, 2), (4, 3))):
        with pytest.raises(NotOnCurve):
            oracle(curve, off, 0)
        with pytest.raises(BadParameters, match="max_k"):
            oracle(curve, on, 0)
        with pytest.raises(BadParameters, match="backend needs"):
            oracle(curve, on, 1)


def test_point_entries_reject_points_off_the_curve():
    curve = SuperellipticCurve(QQ, 2, Poly(QQ, (1, 2, 3, 2)))
    with pytest.raises(NotOnCurve):
        order_of_ramified(curve, (QQ(1), QQ(0)))  # y = 0 but f(1) = 8
    with pytest.raises(NotOnCurve):
        MumfordDivisor.from_point(curve, (QQ(0), QQ(2)))
    for oracle in (order_of_class, principality_profile, cantor_order):
        with pytest.raises(NotOnCurve):
            oracle(curve, (QQ(0), QQ(2)), 8)


def _record_precisions(monkeypatch, limit=None):
    precisions = []

    def recording(f, d, a, b, precision):
        precisions.append(precision)
        assert limit is None or precision <= limit, precisions
        return series_root_powers(f, d, a, b, precision)

    series_root_powers = orders._series_root_powers
    monkeypatch.setattr(orders, "_series_root_powers", recording)
    return precisions


def test_rr_precision_does_not_grow_with_max_k(monkeypatch):
    # y^2 = x^3 + 1 over F_13, m0 = 4: (0, 1) has order 3
    F = GF(13)
    curve = SuperellipticCurve(F, 2, Poly(F, (1, 0, 0, 1)))
    precisions = _record_precisions(monkeypatch, limit=2 * curve.params.m0 + 2)
    assert order_of_class(curve, (F(0), F(1)), 10 ** 5) == 3
    assert precisions


def test_rr_doubles_its_bound_only_while_no_order_is_found(monkeypatch):
    # y^2 = x^3 + 7 over F_101, m0 = 4: (6, 18) has order 17 > 2*m0
    precisions = _record_precisions(monkeypatch)
    F = GF(101)
    curve = SuperellipticCurve(F, 2, Poly(F, (7, 0, 0, 1)))
    assert order_of_class(curve, (F(6), F(18)), 100) == 17 == elliptic_order(
        curve, (F(6), F(18)), 100)
    assert precisions == [10, 18, 34]
    precisions.clear()
    assert order_of_class(curve, (F(6), F(18)), 12) is None
    assert precisions == [10, 14]
    precisions.clear()
    assert order_of_class(curve, (F(6), F(18))) is None  # default max_k = 2*m0
    assert precisions == [10]
