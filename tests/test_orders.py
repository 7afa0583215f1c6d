import random

import pytest

from supertorsion import orders, poly
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
    family_slack0,
    family_slack1,
    order_of_class,
    torsion_params,
    verify_certificate,
)
from supertorsion.errors import BadParameters, NotOnCurve
from supertorsion.orders import left_kernel_vector

from paper_checks import (
    gap_semigroup_count,
    genus,
    principality_profile,
    rr_basis,
    validated_divisor,
)


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
    assert order_of_class(curve, ram, 8) == 2
    assert order_of_class(curve, ram, 1) is None
    assert principality_profile(curve, ram, 7) == [2, 4, 6]
    cubic = SuperellipticCurve(GF(13), 3, Poly(GF(13), (-1, 0, 0, 0, 1)))  # x^4 - 1
    assert order_of_class(cubic, cubic.point(1, 0), 12) == 3


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
    # P + (-P) for P = (0, 1) is the identity (u, v) = (1, 0)
    D = MumfordDivisor.from_point(curve, (QQ(0), QQ(1)))
    assert D == (Poly(QQ, (0, 1)), Poly(QQ, (1,)))
    assert cantor_add(curve, D, MumfordDivisor.from_point(curve, (QQ(0), QQ(-1)))) == \
        (Poly.one(QQ), Poly.zero(QQ))
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
        ys = [y for y in map(F, range(p)) if y * y == f(x0)]
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
    ident = MumfordDivisor(Poly.one(F), Poly.zero(F))
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
    return monic, validated_divisor(monic, U, V)


def _cantor_add_order(curve, D, max_k):
    """Least k <= max_k with k*D = 0, by repeated ``cantor_add``; else None."""
    acc = D
    for k in range(1, max_k + 1):
        if acc.is_identity():
            return k
        acc = cantor_add(curve, acc, D)
    return None


def reference_cantor_order(f, divisor, max_k):
    """The order of D computed on the monic model of y^2 = f."""
    return _cantor_add_order(*_monic_model(f, divisor), max_k)


def test_cantor_on_nonmonic_f_matches_the_monic_model_and_rr():
    # seeded non-monic f of genus 1..4: every point above a few abscissas,
    # and sums of two points, against the monic-model route; unramified
    # points against order_of_class as well.  A sum is no point, so its
    # multiples, which take _cantor_compose through general divisors, come
    # from a cantor_add loop
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
        assert _cantor_add_order(curve, E, max_k) == reference_cantor_order(f, E, max_k)
        checked += 1
    assert None in seen and 2 in seen and len(seen) > 6, seen


def test_every_oracle_rejects_max_k_below_one():
    curve = SuperellipticCurve(QQ, 2, Poly(QQ, (1, 2, 3, 2)))
    for oracle in (order_of_class, cantor_order, elliptic_order, principality_profile):
        for max_k in (0, -3):
            with pytest.raises(BadParameters, match=r"^max_k must be >= 1$"):
                oracle(curve, (QQ(0), QQ(1)), max_k)


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
        order_of_class(curve, (QQ(1), QQ(0)), 8)  # y = 0 but f(1) = 8
    with pytest.raises(NotOnCurve):
        MumfordDivisor.from_point(curve, (QQ(0), QQ(2)))
    for oracle in (order_of_class, principality_profile, cantor_order):
        with pytest.raises(NotOnCurve):
            oracle(curve, (QQ(0), QQ(2)), 8)


def _record_series(monkeypatch):
    """The (field, precision, top power) of every ``_series_root_powers`` call."""
    calls = []

    def recording(f, d, a, b, precision, top):
        calls.append((f.field, precision, top))
        return series_root_powers(f, d, a, b, precision, top)

    series_root_powers = orders._series_root_powers
    monkeypatch.setattr(orders, "_series_root_powers", recording)
    return calls


def test_rr_precision_does_not_grow_with_max_k(monkeypatch):
    # y^2 = x^3 + 1 over F_13, m0 = 4: (0, 1) has order 3
    F = GF(13)
    curve = SuperellipticCurve(F, 2, Poly(F, (1, 0, 0, 1)))
    calls = _record_series(monkeypatch)
    assert order_of_class(curve, (F(0), F(1)), 10 ** 5) == 3
    assert calls == [(F, curve.params.m0 + 2, 1)]


def test_rr_doubles_its_bound_only_while_no_order_is_found(monkeypatch):
    # y^2 = x^3 + 7 over F_101, m0 = 4: (6, 18) has order 17 > 2*m0
    calls = _record_series(monkeypatch)
    F = GF(101)
    curve = SuperellipticCurve(F, 2, Poly(F, (7, 0, 0, 1)))
    assert order_of_class(curve, (F(6), F(18)), 100) == 17 == elliptic_order(
        curve, (F(6), F(18)), 100)
    assert calls == [(F, 6, 1), (F, 10, 1), (F, 18, 1), (F, 34, 1)]
    calls.clear()
    assert order_of_class(curve, (F(6), F(18)), 12) is None
    assert calls == [(F, 6, 1), (F, 14, 1)]  # 8 would be past 12/2
    calls.clear()
    # max_k just past the doubling to 16: no pass before the last exceeds max_k/2
    assert order_of_class(curve, (F(6), F(18)), 17) == 17
    assert calls == [(F, 6, 1), (F, 10, 1), (F, 19, 1)]
    assert all(2 * (precision - 2) <= 17 for _, precision, _ in calls[:-1])
    calls.clear()
    assert order_of_class(curve, (F(6), F(18)), 8) is None  # max_k = 2*m0
    assert calls == [(F, 6, 1), (F, 10, 1)]


@pytest.mark.parametrize("n,d,field", [(4, 3, QQ), (3, 2, QQ), (13, 4, QQ), (7, 4, GF(29)),
                                       (19, 10, GF(13))])
def test_verify_oracle_solves_the_series_once_at_m0_plus_2(monkeypatch, n, d, field):
    # over Q the one series is solved mod the first prime of good reduction
    m0 = torsion_params(n, d).m0
    calls = _record_series(monkeypatch)
    if torsion_params(n, d).slack == 0:
        cert = family_slack0(n, d, field)
    else:
        cert = family_slack1(n, d, field(2), field(-3))[0]
    report = verify_certificate(cert, run_oracle=True)
    assert report.passed and report.oracle_order == m0
    # the pass to m0 solves y^1 only: m0 < n + d <= 2n
    assert calls == [(poly._GOOD_FIELDS[0] if field == QQ else field, m0 + 2, 1)]
