from math import gcd

import pytest

from supertorsion import (
    GF,
    QQ,
    Poly,
    ReachabilityStatus,
    SuperellipticCurve,
    reachability_status,
    torsion_params,
)
from supertorsion.errors import BadParameters, NotOnCurve


@pytest.mark.parametrize("n,d,ell0,m0,slack", [
    (3, 2, 2, 4, 1),
    (4, 3, 2, 6, 0),
    (7, 5, 2, 10, -1),
    (5, 4, 2, 8, -1),
    (6, 5, 2, 10, -2),
    (8, 5, 2, 10, 0),
])
def test_torsion_params_examples(n, d, ell0, m0, slack):
    p = torsion_params(n, d)
    assert (p.ell0, p.m0, p.slack) == (ell0, m0, slack)


def test_torsion_params_window_property():
    for n in range(3, 40):
        for d in range(2, n):
            if gcd(n, d) != 1:
                continue
            p = torsion_params(n, d)
            assert n < p.m0 < n + d
            assert p.m0 % d == 0
            assert p.ell0 >= 2


def test_torsion_params_rejects_bad_input():
    with pytest.raises(BadParameters):
        torsion_params(4, 2)
    with pytest.raises(BadParameters):
        torsion_params(3, 3)


def test_reachability_examples():
    assert reachability_status(7, 5, 10).status is ReachabilityStatus.IMPOSSIBLE
    assert reachability_status(5, 2, 2).status is ReachabilityStatus.REACHABLE_D_OR_N
    assert reachability_status(5, 2, 4).status is ReachabilityStatus.IMPOSSIBLE


def test_reachability_m0_conditions_attached():
    rep = reachability_status(4, 3, 6, char=0)
    assert rep.status is ReachabilityStatus.REQUIRES_M0_CONDITIONS
    assert rep.m0_condition_met
    rep2 = reachability_status(4, 3, 6, char=2)  # char divides ell0 = 2
    assert rep2.status is ReachabilityStatus.REQUIRES_M0_CONDITIONS
    assert not rep2.m0_condition_met
    rep3 = reachability_status(3, 2, 4, char=5)  # char > n
    assert rep3.m0_condition_met


@pytest.mark.parametrize("char", [4, 6, 9, 1, -3, -2])
def test_reachability_rejects_a_characteristic_that_is_not_prime(char):
    with pytest.raises(BadParameters):
        reachability_status(4, 3, 6, char=char)


@pytest.mark.parametrize("n,d,char", [(4, 3, 3), (5, 2, 2), (7, 4, 2), (7, 5, 5)])
def test_reachability_rejects_a_characteristic_dividing_d(n, d, char):
    with pytest.raises(BadParameters):
        reachability_status(n, d, n, char=char)


def test_reachability_above_m0():
    assert reachability_status(5, 2, 7).status is ReachabilityStatus.ABOVE_M0


def test_reachability_never_impossible_for_d_or_n():
    for n in range(3, 20):
        for d in range(2, n):
            if gcd(n, d) != 1:
                continue
            for m in (d, n):
                if m <= 1:
                    continue
                rep = reachability_status(n, d, m)
                assert rep.status is ReachabilityStatus.REACHABLE_D_OR_N


def test_point_validation():
    curve = SuperellipticCurve(QQ, 2, Poly(QQ, (1, 4, 6, 4)))
    pt = curve.point(0, 1)
    assert (pt.x, pt.y) == (QQ(0), QQ(1))
    with pytest.raises(NotOnCurve):
        curve.point(0, 2)
    cubic = SuperellipticCurve(QQ, 3, Poly(QQ, (1, 0, 3, 0, 3)))
    assert cubic.point(0, 1)


def test_curve_invariants_enforced():
    with pytest.raises(BadParameters):
        SuperellipticCurve(QQ, 2, Poly(QQ, (0, 0, 1, 1)))  # x^2(x+1): not squarefree
    with pytest.raises(BadParameters):
        SuperellipticCurve(QQ, 2, Poly(QQ, (1, 0, 0, 0, 1)))  # gcd(4, 2) != 1
    with pytest.raises(BadParameters):
        SuperellipticCurve(GF(3), 3, Poly(GF(3), (1, 1, 0, 0, 1)))  # char | d


def test_points_above():
    F = GF(13)
    fam_f = Poly(F, (10, 6, 5, 5))
    curve = SuperellipticCurve(F, 2, fam_f)
    pts = curve.points_above(F(0))
    assert {(p.x.value, p.y.value) for p in pts} == {(0, 6), (0, 7)}
