import random
from itertools import combinations

import pytest

from supertorsion import twopacket
from supertorsion import (
    GF,
    QQ,
    Poly,
    SuperellipticCurve,
    bad_lambda_members,
    bad_lambda_set,
    build_H,
    build_two_packet_equal,
    build_two_packet_general,
    cantor_order,
    confirmed_bad_lambdas,
    elliptic_order,
    example_m0_equals_nplus1,
    fermat_identity_check,
    is_squarefree,
    order_of_class,
    packet_polynomial,
    packet_wronskian_triple,
    shift_points_to_0_minus1,
    two_packet,
    two_packet_admissible,
    wronskian3,
    wronskian_degree_audit,
)
from supertorsion.errors import (
    BadParameters,
    CharDividesM0,
    DegreeNotNormalized,
    LinearlyDependent,
    NoRootOfUnityStructure,
    NotSquarefree,
    SameAbscissa,
    UnsupportedField,
    UsageError,
    ZeroParameter,
)
from supertorsion.twopacket import (
    nonvanishing_bracket,
    ratio_root,
    wronskian_pair_form,
)


def test_admissibility_examples():
    v54 = two_packet_admissible(5, 4)
    assert v54.verdict == "disallowed"
    assert any("(iv)" in r for r in v54.reasons)
    assert any("slack" in r for r in v54.reasons)
    v73 = two_packet_admissible(7, 3)
    assert v73.verdict == "allowed" and not v73.reasons
    v92 = two_packet_admissible(9, 2)
    assert v92.verdict == "exempt" and v92.m0 == 10


def test_fermat_identity_check_basics():
    one, zero, x = Poly.one(QQ), Poly.zero(QQ), Poly.x(QQ)
    ok, val = fermat_identity_check(one, zero, zero, 2)
    assert ok and val == QQ(1)
    ok, val = fermat_identity_check(x, zero, zero, 2)
    assert not ok and val is None


def test_wronskian_classics():
    one, x, x2 = Poly.one(QQ), Poly.x(QQ), Poly.monomial(QQ, 2)
    assert wronskian3(one, x, x2) == Poly(QQ, (2,))
    g, h = Poly(QQ, (1, 2, 3)), Poly(QQ, (4, 5))
    assert wronskian3(g, g, h).is_zero()


def test_wronskian_cube_divisibility():
    rng = random.Random(6)
    for _ in range(5):
        f1 = Poly(QQ, [rng.randint(-3, 3) for _ in range(2)] + [rng.randint(1, 3)])
        f2 = Poly(QQ, [rng.randint(-3, 3) for _ in range(2)] + [rng.randint(1, 3)])
        f3 = Poly(QQ, [rng.randint(-3, 3) for _ in range(2)] + [rng.randint(1, 3)])
        w = wronskian3(f1 ** 3, f2 ** 3, f3 ** 3)
        if w.is_zero():
            continue
        assert (w % (f1 * f2 * f3)).is_zero()


def test_wronskian_degree_audit_d3_bounds():
    # window arithmetic for d = 3, ell0 = 2: [6, 9]; divisibility by the
    # product of the f_i always holds, while the upper degree bound needs
    # the constant-sum relation and is checked on built families instead
    f1 = Poly(QQ, (1, 0, 1))
    f2 = Poly(QQ, (0, 1, 1))
    f3 = Poly(QQ, (1, 1, 1))
    audit = wronskian_degree_audit(f1, f2, f3, 3, 2)
    assert audit.lower == 6 and audit.upper == 9
    assert audit.divisibility_ok and audit.slope_bound_ok
    # the collapsed two-column form always obeys the upper bound
    w2 = wronskian_pair_form(f1, f2, 3, QQ(1))
    assert w2.degree <= 2 * 2 * 3 - 3


def test_wronskian_audit_rejects_dependent():
    f = Poly(QQ, (1, 1))
    with pytest.raises(LinearlyDependent):
        wronskian_degree_audit(f, f, f, 2, 2)


def test_wronskian_d6_is_never_admissible():
    audit_would_need = 2 * (6 - 6)  # ell0*(d-6) <= -3 fails for every ell0
    assert audit_would_need > -3
    f1, f2 = Poly(QQ, (1, 0, 1)), Poly(QQ, (0, 1, 1))
    f3 = Poly(QQ, (1, 2))
    audit = wronskian_degree_audit(f1, f2, f3, 6, 2)
    assert not audit.slope_bound_ok


def test_build_H_f13_example():
    F = GF(13)
    mu4 = F.roots_of_unity(4)
    h = build_H((mu4[1], mu4[3]), F(1))  # {5, 8}
    assert [c.value for c in h.coeffs] == [1, 2, 2]
    assert h(F(0)) == F(1)
    assert build_H((), F(1)) == Poly.one(F)


def test_build_H_always_one_at_zero():
    F = GF(29)
    mu4 = F.roots_of_unity(4)
    for c_val in (1, 2, 3):
        for I in combinations(mu4, 2):
            assert build_H(I, F(c_val))(F(0)) == F(1)


def test_cyclotomic_product_splits_into_packet_parts():
    # (vt + C^ell0 ut)(vt - C^ell0 ut) recovers the full product
    # prod_{eps in mu_(n+1)} ((1 - C eps)x + 1) = (x+1)^(n+1) - (Cx)^(n+1)
    F = GF(13)
    mu4 = F.roots_of_unity(4)
    for c_val, I in ((2, (mu4[0], mu4[1])), (1, (mu4[0], mu4[2])),
                     (3, (mu4[1], mu4[3]))):
        C = F(c_val)
        full = build_H(mu4, C)
        binomial = Poly(F, (1, 1)) ** 4 - Poly(F, (0, C)) ** 4
        assert full == binomial
        cl = C ** 2
        for lam in (3, 6, 7, 10):
            ut, vt = two_packet(F, 3, I, C).shapes(F(lam))
            assert (vt + cl * ut) * (vt - cl * ut) == full


def test_equal_case_build_and_orders():
    F = GF(13)
    mu4 = F.roots_of_unity(4)
    pk = two_packet(F, 3, (mu4[0], mu4[1]), F(1))
    assert sorted(l.value for l in pk.normalizing_lambdas()) == [6, 7]
    fam = build_two_packet_equal(pk, F(6))
    assert fam.f.degree == 3
    # double representation holds by construction; recheck explicitly
    assert fam.f == fam.A1 * Poly.monomial(F, 4) - fam.u * fam.u
    assert fam.f == fam.A2 * Poly(F, (1, 1)) ** 4 - fam.v * fam.v
    pts = fam.packet_points()
    assert len(pts) == 4
    for pt in pts:
        assert elliptic_order(fam.curve(), pt, 8) == 4
        assert cantor_order(fam.curve(), pt, 8) == 4


def test_equal_case_rejects_unit_lambdas():
    F = GF(13)
    mu4 = F.roots_of_unity(4)
    pk = two_packet(F, 3, (mu4[0], mu4[1]), 1)
    with pytest.raises(BadParameters):
        build_two_packet_equal(pk, F(1))
    with pytest.raises(BadParameters):
        build_two_packet_equal(pk, F(12))


def test_equal_case_degree_split():
    F = GF(13)
    mu4 = F.roots_of_unity(4)
    fam = build_two_packet_equal(two_packet(F, 3, (mu4[0], mu4[1]), 1), F(6))
    vt, ut = fam.v, fam.u  # B1 = B2 = 1 here
    assert {(vt - ut).degree, (vt + ut).degree} == {2, 1}


@pytest.mark.parametrize("n,p", [(3, 13), (3, 29), (5, 13), (5, 31), (7, 17)])
def test_equal_case_H_degree_split(n, p):
    # at C = 1 the factor (1 - eps) x + 1 is constant exactly for eps = 1,
    # so whichever of I and its complement holds 1 loses one degree
    F = GF(p)
    mu, ell0 = F.roots_of_unity(n + 1), (n + 1) // 2
    for I in combinations(mu, ell0):
        comp = [e for e in mu if e not in I]
        assert {build_H(I, F.one).degree, build_H(comp, F.one).degree} == {ell0, ell0 - 1}


def test_entry_points_take_a_prime_or_its_field():
    # two_packet is the one entry point that takes the field; the others take
    # its packet and give the same answer whichever way the field was named
    F = GF(13)
    mu = F.roots_of_unity(4)
    I = (mu[0], mu[1])
    with pytest.raises(UnsupportedField):
        two_packet(QQ, 3, I, 2)
    calls = (
        lambda pk: pk.normalizing_lambdas(),
        lambda pk: pk.shapes(6),
        lambda pk: packet_polynomial(pk, 6, "minus"),
        lambda pk: bad_lambda_set(pk),
        lambda pk: bad_lambda_members(pk, range(13)),
        lambda pk: confirmed_bad_lambdas(pk),
        lambda pk: build_two_packet_general(pk, 2, 3, 1),
    )
    assert two_packet(13, 3, I, 2) == two_packet(F, 3, I, 2)
    for call in calls:
        assert call(two_packet(13, 3, I, 2)) == call(two_packet(F, 3, I, 2))
    assert build_two_packet_equal(two_packet(13, 3, I, 1), 6) == \
        build_two_packet_equal(two_packet(F, 3, I, 1), 6)


def test_two_packet_validates_its_inputs():
    F = GF(13)
    mu = F.roots_of_unity(4)
    for n, I, C, error in ((4, mu[:2], 1, "odd n"), (3, mu[:2], 0, "C must be nonzero"),
                           (3, (F(2), mu[1]), 1, r"not an \(n\+1\)-th root"),
                           (3, (mu[0], mu[0]), 1, "repeated"), (3, mu[:1], 1, "expected ell0")):
        with pytest.raises(UsageError, match=error):
            two_packet(F, n, I, C)
    with pytest.raises(BadParameters, match="need p odd"):
        two_packet(GF(3), 5, (), 1)
    with pytest.raises(BadParameters, match="sign"):
        two_packet(F, 3, mu[:2], 1).shapes(6, "up")


def test_general_case_build_and_twist():
    F = GF(13)
    mu4 = F.roots_of_unity(4)
    I = (mu4[0], mu4[1])
    fam = build_two_packet_general(two_packet(F, 3, I, F(2)), F(2), F(3), F(1))
    assert not fam.twisted
    assert fam.B1 * fam.B1 == fam.A1 and fam.B2 * fam.B2 == fam.A2
    for pt in fam.packet_points():
        assert elliptic_order(fam.curve(), pt, 8) == 4
    # force the twist branch: A1 and A2 both nonsquares with a fourth-power
    # ratio, so C exists but the square roots B1, B2 do not
    F29 = GF(29)
    mu = F29.roots_of_unity(4)
    s = next(a for a in F29.units() if F29.nth_root(a, 2) is None)
    C29 = F29(2)
    A2, A1 = s, s * C29 ** 4
    assert F29.nth_root(A1, 2) is None and F29.nth_root(A2, 2) is None
    fam2 = None
    for J in combinations(mu, 2):
        pk = two_packet(F29, 3, J, C29)
        for lam in pk.normalizing_lambdas():
            try:
                fam2 = build_two_packet_general(pk, lam, A1, A2)
                break
            except NotSquarefree:
                continue
        if fam2 is not None:
            break
    assert fam2 is not None and fam2.twisted
    assert fam2.A1 == F29.one
    assert fam2.f.degree == 3


def test_general_case_requires_root_of_unity_structure():
    F = GF(5)
    with pytest.raises(NoRootOfUnityStructure):
        ratio_root(3, F(4), F(1))


def test_general_case_checks_its_amplitudes():
    F = GF(13)
    pk = two_packet(F, 3, tuple(F.roots_of_unity(4)[:2]), 2)  # C^4 = 3
    assert ratio_root(3, F(3), F(1)) ** 4 == F(3)
    for A1, A2, error in ((0, 1, ZeroParameter), (1, 0, ZeroParameter), (5, 5, BadParameters)):
        with pytest.raises(error):
            ratio_root(3, F(A1), F(A2))
        with pytest.raises(error):
            build_two_packet_general(pk, 2, F(A1), F(A2))
    with pytest.raises(BadParameters, match=r"C\^\(n\+1\) != A1/A2"):
        build_two_packet_general(pk, 2, F(4), F(1))


def test_degree_breaking_lambda_raises():
    F = GF(13)
    mu4 = F.roots_of_unity(4)
    I = (mu4[0], mu4[1])
    with pytest.raises(DegreeNotNormalized) as err:
        build_two_packet_equal(two_packet(F, 3, I, 1), F(3))
    assert err.value.polynomial.degree == 4


def test_confirmed_bad_lambda_raises_not_squarefree():
    # lambda = 5 over F_13, I = {1, 5}, C = 1: packet polynomial has a
    # repeated root (it is also degree-broken, so build raises one of the two)
    F = GF(13)
    mu4 = F.roots_of_unity(4)
    I = (mu4[0], mu4[1])
    pk = two_packet(F, 3, I, F(1))
    f = packet_polynomial(pk, F(5))
    assert f.is_zero() or not is_squarefree(f)
    with pytest.raises((NotSquarefree, DegreeNotNormalized)):
        build_two_packet_equal(pk, F(5))


def test_bad_lambda_set_contains_units_and_confirmed():
    F = GF(13)
    mu4 = F.roots_of_unity(4)
    for I in combinations(mu4, 2):
        for c_val in (1, 2):
            pk = two_packet(F, 3, I, F(c_val))
            bad = bad_lambda_set(pk)
            assert F(1) in bad and F(12) in bad
            assert confirmed_bad_lambdas(pk) <= bad


def test_bad_lambda_set_closed_under_negation():
    F = GF(29)
    mu4 = F.roots_of_unity(4)
    bad = bad_lambda_set(two_packet(F, 3, (mu4[0], mu4[2]), F(1)))
    assert {-x for x in bad} == set(bad)


# every subset, C in {1, 2, p-1} and every unit: 8,856 memberships, the
# alternate-root subsets (eliminant identically zero) included
@pytest.mark.parametrize("n,primes", [(3, (13, 17, 29, 37, 41)), (5, (13, 37, 61))])
def test_bad_lambda_members_matches_bad_lambda_set(n, primes):
    for p in primes:
        F = GF(p)
        for I in combinations(F.roots_of_unity(n + 1), (n + 1) // 2):
            for C in sorted({1, 2, p - 1}):
                pk = two_packet(F, n, I, F(C))
                assert bad_lambda_members(pk, F.units()) == bad_lambda_set(pk), (p, I, C)
    assert bad_lambda_members(two_packet(13, 3, GF(13).roots_of_unity(4)[:2], 1), [0]) == \
        frozenset()


def test_nonvanishing_bracket():
    F = GF(13)
    mu4 = F.roots_of_unity(4)
    rng = random.Random(515)
    for _ in range(25):
        c = F(rng.randrange(1, 13))
        I = tuple(rng.sample(mu4, 2))
        h = build_H(I, c)
        bracket = nonvanishing_bracket(h, 2)
        assert not bracket.is_zero()
        assert bracket(F(0)) == F(2) * h(F(0))


def test_packet_wronskian_triple_identities():
    F = GF(13)
    mu4 = F.roots_of_unity(4)
    fam = build_two_packet_equal(two_packet(F, 3, (mu4[0], mu4[1]), 1), F(6))
    f1, f2, f3 = packet_wronskian_triple(fam)
    ok, val = fermat_identity_check(f1, f2, f3, 2)
    assert ok and val == fam.A1
    w = wronskian3(f1 ** 2, f2 ** 2, f3 ** 2)
    assert w == wronskian_pair_form(f1, f2, 2, val)
    if not w.is_zero():
        audit = wronskian_degree_audit(f1, f2, f3, 2, fam.ell0)
        assert audit.degree_ok and audit.divisibility_ok and audit.slope_bound_ok


def test_example_m0_nplus1_rationals():
    ex = example_m0_equals_nplus1(QQ, 3, 2)
    assert [c.value for c in ex.curve.f.coeffs] == [1, 4, 6, 4]
    assert {(p.x.value, p.y.value) for p in ex.points} == {(0, 1), (0, -1)}
    for p in ex.points:
        assert elliptic_order(ex.curve, p, 8) == 4
    # the u-side of the double representation needs gamma with gamma^2 = -1
    assert ex.gamma is None and ex.u is None
    assert ex.curve.f == ex.A2 * Poly(QQ, (1, 1)) ** 4 - ex.v ** 2


def test_example_m0_nplus1_f5():
    F = GF(5)
    ex = example_m0_equals_nplus1(F, 3, 2)
    pts = {(p.x.value, p.y.value) for p in ex.points}
    assert (4, 2) in pts and (4, 3) in pts
    for p in ex.points:
        assert elliptic_order(ex.curve, p, 8) == 4
    assert ex.gamma is not None
    assert ex.curve.f == ex.A1 * Poly.monomial(F, 4) - ex.u ** 2


def test_example_m0_nplus1_double_representation():
    # f = A2 (x+1)^m0 - v^d always; f = A1 x^m0 - u^d when gamma^d = -1 has a
    # root: for odd d, and over F_17 also for every d | 16
    cases = [(QQ, 5, 3), (QQ, 9, 5), (QQ, 3, 2)]
    cases += [(GF(17), n, d) for n, d in ((3, 2), (5, 2), (7, 4), (5, 3),
                                          (11, 4), (7, 2), (15, 8), (9, 5))]
    gammas = 0
    for field, n, d in cases:
        ex = example_m0_equals_nplus1(field, n, d)
        f, m0 = ex.curve.f, n + 1
        assert f == ex.A2 * Poly(field, (1, 1)) ** m0 - ex.v ** d
        if ex.gamma is None:
            assert ex.u is None and field is QQ and d % 2 == 0
            continue
        assert ex.gamma ** d == field(-1)
        assert f == ex.A1 * Poly.monomial(field, m0) - ex.u ** d
        gammas += 1
    assert gammas == len(cases) - 1


def test_example_m0_nplus1_char_divides():
    with pytest.raises(CharDividesM0):
        example_m0_equals_nplus1(GF(2), 3, 2)


def test_example_m0_nplus1_needs_m0_eq_nplus1():
    with pytest.raises(BadParameters):
        example_m0_equals_nplus1(QQ, 4, 3)  # m0 = 6 != 5


def test_shift_points_identity():
    F = GF(13)
    fam = build_two_packet_equal(two_packet(F, 3, tuple(F.roots_of_unity(4)[:2]), 1), F(6))
    curve = fam.curve()
    pts = fam.packet_points()
    p0 = next(p for p in pts if p.x.is_zero())
    pm1 = next(p for p in pts if p.x == -F.one)
    new_curve, smap, images = shift_points_to_0_minus1(curve, p0, pm1)
    assert smap.scale == F.one and smap.offset == F.zero
    assert new_curve.f == curve.f


def test_shift_points_moves_and_preserves_order():
    F = GF(13)
    f = Poly(F, (10, 6, 5, 5))
    curve = SuperellipticCurve(F, 2, f)
    pts0 = curve.points_above(F(0))
    pts1 = curve.points_above(F(12))
    P, Q = pts1[0], pts0[0]  # deliberately not at (0, -1) yet
    new_curve, smap, images = shift_points_to_0_minus1(curve, P, Q)
    if images is None:
        pytest.skip("y-scale missing in the base field for this instance")
    imgP, imgQ = images
    assert imgP.x.is_zero() and imgQ.x == -F.one
    assert order_of_class(new_curve, imgP, 8) == order_of_class(curve, P, 8)
    assert order_of_class(new_curve, imgQ, 8) == order_of_class(curve, Q, 8)


def test_shift_points_same_abscissa():
    curve = SuperellipticCurve(QQ, 2, Poly(QQ, (1, 2, 3, 2)))
    p = curve.point(0, 1)
    q = curve.point(0, -1)
    with pytest.raises(SameAbscissa):
        shift_points_to_0_minus1(curve, p, q)


def reference_confirmed_bad_lambdas(pk):
    """The exhaustive loop through packet_polynomial, one lambda at a time."""
    out = set()
    for lam in pk.field.units():
        f = packet_polynomial(pk, lam)
        if f.is_zero() or not is_squarefree(f):
            out.add(lam)
    return frozenset(out)


# n = 5 stops at 43 to keep the suite fast: the reference costs a squarefree
# test per lambda, and the subsets and lambdas grow with p.  The grids cover
# both sides of the discriminant's fallback to every unit: it applies at
# p = 5, 13, 17 (n = 3) and 7, 13, 19 (n = 5), where fewer than 4n+3 evaluation
# points exist, and not from p = 29 (n = 3) and 31 (n = 5) on.
@pytest.mark.parametrize("n,max_p", [(3, 101), (5, 43)])
def test_confirmed_bad_lambdas_matches_packet_polynomial_loop(n, max_p):
    primes = [p for p in range(5, max_p + 1)
              if all(p % q for q in range(2, p)) and (p - 1) % (n + 1) == 0]
    for p in primes:
        F = GF(p)
        for I in combinations(F.roots_of_unity(n + 1), (n + 1) // 2):
            for C in sorted({1, 2, p - 1}):
                pk = two_packet(F, n, I, F(C))
                assert confirmed_bad_lambdas(pk) == reference_confirmed_bad_lambdas(pk), \
                    (p, I, C)


@pytest.mark.parametrize("n", [3, 5])
def test_confirmed_bad_lambdas_matches_loop_at_2017(n):
    F = GF(2017)
    pk = two_packet(F, n, F.roots_of_unity(n + 1)[:(n + 1) // 2], F(2))
    assert confirmed_bad_lambdas(pk) == reference_confirmed_bad_lambdas(pk)


@pytest.mark.parametrize("n", [3, 5])
def test_confirmed_bad_lambdas_tests_few_lambdas(n, monkeypatch):
    # at most two square roots per root of the discriminant (degree <= 4n+2)
    # and the at most four normalizing lambdas, not one test per unit
    calls = []

    def counting(f):
        calls.append(f)
        return is_squarefree(f)

    monkeypatch.setattr(twopacket, "is_squarefree", counting)
    F = GF(10009)
    pk = two_packet(F, n, F.roots_of_unity(n + 1)[:(n + 1) // 2], 1)
    confirmed = confirmed_bad_lambdas(pk)
    assert len(calls) <= 2 * (4 * n + 2) + 4
    assert {F(1), F(-1)} <= confirmed
