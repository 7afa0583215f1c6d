import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from supertorsion import poly, twopacket
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
    is_squarefree,
    order_of_class,
    packet_polynomial,
    roots_in_field,
    sweep_families,
    two_packet,
    two_packet_admissible,
)
from supertorsion.errors import (
    BadParameters,
    DegreeNotNormalized,
    MathCheckError,
    NotSquarefree,
    UnsupportedField,
    UsageError,
)
from supertorsion.poly import interpolate, resultant
from supertorsion.twopacket import nonvanishing_bracket, ratio_root

from paper_checks import (
    _convolve,
    fermat_identity_check,
    packet_shapes,
    packet_wronskian_triple,
    q_coefficients_everywhere,
    reference_degenerate_bad_lambdas,
    reference_normalizing_lambdas,
    shift_points_to_0_minus1,
    wronskian3,
    wronskian_degree_audit,
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
    with pytest.raises(MathCheckError, match=r"f1\^d, f2\^d, f3\^d are linearly dependent"):
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
            ut, vt = packet_shapes(two_packet(F, 3, I, C), F(lam))
            assert (vt + cl * ut) * (vt - cl * ut) == full


def test_equal_case_build_and_orders():
    F = GF(13)
    mu4 = F.roots_of_unity(4)
    pk = two_packet(F, 3, (mu4[0], mu4[1]), F(1))
    assert sorted(pk.normalizing_lambdas()) == [6, 7]
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
        lambda pk: packet_shapes(pk, 6),
        lambda pk: packet_polynomial(pk, 6),
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
        build_two_packet_equal(two_packet(F, 3, mu[:2], 1), 6, sign="up")


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
    s = next(F29(a) for a in range(1, 29) if F29.nth_root(F29(a), 2) is None)
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


def test_general_case_takes_one_square_root(monkeypatch):
    # A1 = (C^ell0)^2 A2, so B1 = +-C^ell0 B2: one square root still gives the
    # smallest roots B1, B2, and the twist exactly when A2 is a non-square
    nth_root, calls, branches = type(GF(13)).nth_root, [], Counter()

    def counting(self, x, k):
        calls.append((x, k))
        return nth_root(self, x, k)

    monkeypatch.setattr(type(GF(13)), "nth_root", counting)
    for p in (13, 29, 41):
        F = GF(p)
        for C, A2, I in ((C, F(A2), I) for C in (2, 3, p - 2) for A2 in (1, 2, 3, 5, 7)
                         for I in combinations(F.roots_of_unity(4), 2)):
            pk = two_packet(F, 3, I, C)
            A1 = pk.cl * pk.cl * A2
            if A1 == A2:
                continue
            for lam in pk.normalizing_lambdas():
                calls.clear()
                try:
                    fam = build_two_packet_general(pk, lam, A1, A2)
                except (NotSquarefree, DegreeNotNormalized):  # f = 0 at some lam
                    fam = None
                assert len(calls) == 1
                if fam is None:
                    continue
                roots = nth_root(F, A1, 2), nth_root(F, A2, 2)
                if fam.twisted:
                    assert roots == (None, None), (p, C, A2, I, lam)
                else:
                    assert (fam.B1, fam.B2) == roots, (p, C, A2, I, lam)
                branches[fam.twisted] += 1
    assert set(branches) == {False, True}


def assert_double_representation(fam):
    """A1 x^(n+1) - u^2 == f == A2 (x+1)^(n+1) - v^2 with deg f = n, the
    squares by the schoolbook product; the builders no longer check it."""
    p, n, ell0 = fam.p, fam.n, fam.ell0
    u, v = ((list(h.values) + [0] * ell0)[:ell0 + 1] for h in (fam.u, fam.v))
    left = [-c % p for c in _convolve(u, u, n + 2)]
    left[n + 1] = (left[n + 1] + fam.A1.value) % p
    right = [(fam.A2.value * comb(n + 1, k) - c) % p
             for k, c in enumerate(_convolve(v, v, n + 2))]
    assert fam.f.degree == n, (p, n, fam.I, fam.lam, fam.C)
    assert left == right == list(fam.f.values) + [0], (p, n, fam.I, fam.lam, fam.C)


# p = 1 mod n + 1 for n = 3, 5 and 7: every swept family at C = 1 and at a
# C with C^(n+1) != 1, and both builders on every normalizing lambda, the
# general one at A2 a square and a non-square (the twisted model)
@pytest.mark.parametrize("n,primes", [(3, (13, 17, 29, 37)), (5, (13, 37, 61, 73)),
                                      (7, (17, 41, 73, 89))])
def test_every_family_has_the_double_representation(n, primes):
    built = Counter()
    for p in primes:
        F = GF(p)
        generic = next(F(c) for c in range(2, p) if F(c) ** (n + 1) != 1)
        for fam, _ in sweep_families(F, n, [1, generic]):
            assert_double_representation(fam)
            built["swept"] += 1
        square = F(4)
        nonsquare = next(F(a) for a in range(2, p) if F.nth_root(F(a), 2) is None)
        for I in combinations(F.roots_of_unity(n + 1), (n + 1) // 2):
            equal, pk = two_packet(F, n, I, 1), two_packet(F, n, I, generic)
            for lam in equal.normalizing_lambdas():
                if lam in (1, p - 1):
                    continue
                try:
                    fam = build_two_packet_equal(equal, lam)
                except (NotSquarefree, DegreeNotNormalized):
                    pass
                else:
                    assert_double_representation(fam)
                    built["equal"] += 1
                # A1 = A2 = 1 needs C^(n+1) = 1: the equal builder refuses this packet
                with pytest.raises(BadParameters, match=r"C\^\(n\+1\) != A1/A2 = 1"):
                    build_two_packet_equal(pk, lam)
            for A2, lam in ((A2, lam) for A2 in (square, nonsquare)
                            for lam in pk.normalizing_lambdas()):
                try:
                    fam = build_two_packet_general(pk, lam, generic ** (n + 1) * A2, A2)
                except (NotSquarefree, DegreeNotNormalized):
                    continue
                assert_double_representation(fam)
                built["twisted" if fam.twisted else "general"] += 1
    assert set(built) == {"swept", "equal", "general", "twisted"}, built


def test_general_case_requires_root_of_unity_structure():
    F = GF(5)
    with pytest.raises(BadParameters, match=r"A1/A2 = 4 has no \(n\+1\)-th root in F_5"):
        ratio_root(3, F(4), F(1))


def test_general_case_checks_its_amplitudes():
    F = GF(13)
    pk = two_packet(F, 3, tuple(F.roots_of_unity(4)[:2]), 2)  # C^4 = 3
    assert ratio_root(3, F(3), F(1)) ** 4 == F(3)
    for A1, A2, message in ((0, 1, "A1 and A2 must be nonzero"), (1, 0, "A1 and A2 must be nonzero"),
                            (5, 5, "equal A1 = A2 is the C = 1 case")):
        with pytest.raises(BadParameters, match=message):
            ratio_root(3, F(A1), F(A2))
        with pytest.raises(BadParameters, match=message):
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
    assert {29 - x for x in bad} == set(bad)


# every subset, C in {1, 2, p-1}, and as lams every unit (8,856 memberships)
# or every third element: the alternate-root subsets (eliminant identically
# zero) included
@pytest.mark.parametrize("n,primes", [(3, (13, 17, 29, 37, 41)), (5, (13, 37, 61))])
def test_bad_lambda_members_matches_bad_lambda_set(n, primes):
    for p in primes:
        F = GF(p)
        for I in combinations(F.roots_of_unity(n + 1), (n + 1) // 2):
            for C in sorted({1, 2, p - 1}):
                pk = two_packet(F, n, I, F(C))
                bad = bad_lambda_set(pk)
                for lams in (range(1, p), list(map(F, range(p)))[::3]):
                    assert bad_lambda_members(pk, lams) == bad & set(lams), (p, I, C)
    assert bad_lambda_members(two_packet(13, 3, GF(13).roots_of_unity(4)[:2], 1), [0]) == \
        frozenset()


def reference_sweep(F, n, C):
    """The direct loop: one packet per subset, each normalizing lambda built
    by the public builder, (I, lambda) ascending; C^(n+1) = 1 means C = 1."""
    out = []
    for I in combinations(F.roots_of_unity(n + 1), (n + 1) // 2):
        pk = two_packet(F, n, I, C)
        for lam in sorted(pk.normalizing_lambdas()):
            if C == 1 and lam in (1, F.p - 1):
                continue
            try:
                if C == 1:
                    out.append(build_two_packet_equal(pk, lam))
                else:
                    out.append(build_two_packet_general(pk, lam, C ** (n + 1), F.one))
            except (NotSquarefree, DegreeNotNormalized):
                pass
    return out


# C = 1, a generic C, and a C != 1 with C^(n+1) = 1, which no builder takes
@pytest.mark.parametrize("p,n", [(13, 3), (29, 3), (13, 5), (37, 5), (17, 7), (41, 7)])
def test_sweep_families_matches_the_direct_loop(p, n):
    F = GF(p)
    root = F.roots_of_unity(n + 1)[1]
    generic = next(F(c) for c in range(2, p) if F(c) ** (n + 1) != 1)
    with pytest.raises(BadParameters):
        build_two_packet_general(two_packet(F, n, F.roots_of_unity(n + 1)[:(n + 1) // 2],
                                            root), 2, F.one, F.one)
    assert list(sweep_families(F, n, [root])) == []
    for C in (F.one, generic):
        swept = list(sweep_families(F, n, [C]))
        direct = reference_sweep(F, n, C)
        assert direct, (p, n, C)
        assert [(fam.I, fam.lam) for fam, _ in swept] == [(fam.I, fam.lam) for fam in direct]
        for fam, bad in swept:
            pk = two_packet(F, n, fam.I, C)
            expected = (build_two_packet_equal(pk, fam.lam) if C == 1 else
                        build_two_packet_general(pk, fam.lam, C ** (n + 1), F.one))
            assert fam._asdict() == expected._asdict(), (p, n, C, fam.I, fam.lam)
            assert bad == (fam.lam in bad_lambda_members(pk, [fam.lam])), (p, n, C, fam.I)


@pytest.mark.parametrize("n", [3, 5])
def test_bad_lambda_roots_taken_once_per_sieve_factor(n, monkeypatch):
    # the eliminant and the two brackets are split once per call, however
    # many lambda are asked, not once per lambda
    calls = []

    def counting(f):
        calls.append(f)
        return roots_in_field(f)

    monkeypatch.setattr(poly, "roots_in_field", counting)
    F = GF(10009)
    pk = two_packet(F, n, F.roots_of_unity(n + 1)[:(n + 1) // 2], 2)
    factors = twopacket._sieve(pk)
    assert factors is not None
    for lams in ([F(5)], range(1, 10009)):
        calls.clear()
        members = bad_lambda_members(pk, lams)
        assert len(calls) <= 3 and all(f in factors for f in calls)
    calls.clear()
    assert members == bad_lambda_set(pk)
    assert len(calls) <= 3 and all(f in factors for f in calls)


@pytest.mark.parametrize("n", [3, 5])
def test_bad_lambda_set_takes_no_square_root_on_a_sieve(n, monkeypatch):
    # Q(x0, lam) has the square discriminant 4 (1 + x0)^(n+1) at every root
    # x0 of the sieve, so its roots need no nth_root; the sieve is split by a
    # brute-force root scan here, so every nth_root call would be the set's own
    cases = [two_packet(F, n, I, C) for F in (GF(13), GF(37), GF(61))
             for I in list(combinations(F.roots_of_unity(n + 1), (n + 1) // 2))[:4]
             for C in (1, 3)]
    cases = [(pk, bad_lambda_set(pk)) for pk in cases if twopacket._sieve(pk) is not None]
    assert len(cases) >= 10
    calls = []
    nth_root = type(GF(13)).nth_root

    def counting(self, x, k):
        calls.append((x, k))
        return nth_root(self, x, k)

    monkeypatch.setattr(type(GF(13)), "nth_root", counting)
    monkeypatch.setattr(poly, "roots_in_field",
                        lambda f: tuple(f.field(x) for x in range(f.field.p) if f(x).is_zero()))
    for pk, expected in cases:
        assert bad_lambda_set(pk) == expected, (pk.field, pk.I, pk.C)
    assert calls == []


# every subset of each grid field, C in {1, 2, p - 1} (p - 1 has
# C^(n+1) = 1 as n + 1 is even) and a primitive (n+1)-th root of unity;
# C = 1 leaves H_I without its top term (a = 0) whenever eps = 1 is in I
def test_normalizing_lambdas_match_the_square_root_solution():
    branches = Counter()
    for p, n in ((p, n) for p in (5, 13, 17, 29, 41, 241) for n in (3, 5, 7)
                 if (p - 1) % (n + 1) == 0):
        F = GF(p)
        mu = F.roots_of_unity(n + 1)
        for I, C in ((I, C) for I in combinations(mu, (n + 1) // 2)
                     for C in dict.fromkeys((F.one, F(2), F(-1), mu[1]))):
            pk = two_packet(F, n, I, C)
            lams = pk.normalizing_lambdas()
            assert lams == reference_normalizing_lambdas(pk), (p, n, I, C)
            branches["a = 0" if pk.hi[pk.ell0].is_zero() else len(lams)] += 1
    assert {"a = 0", 2, 4} <= set(branches), branches


def test_normalizing_lambdas_and_degenerate_bad_lambdas_take_no_square_root(monkeypatch):
    # the normalizing lambdas are in closed form, and the discriminant of
    # Q(x0, lam) is a square at every abscissa; the sieve case is above
    cases = [two_packet(F, n, I, C) for F in (GF(13), GF(37), GF(61)) for n in (3, 5)
             for I in combinations(F.roots_of_unity(n + 1), (n + 1) // 2) for C in (1, 3)]
    expected = [(pk.normalizing_lambdas(), twopacket._sieve(pk) is None and bad_lambda_set(pk))
                for pk in cases]
    assert sum(bool(bad) for _, bad in expected) >= 10
    calls, nth_root, quadratic = [], type(GF(13)).nth_root, poly._quadratic_roots

    def counting(self, x, k):
        calls.append((x, k))
        return nth_root(self, x, k)

    def counting_quadratic(*args):
        calls.append(args)
        return quadratic(*args)

    monkeypatch.setattr(type(GF(13)), "nth_root", counting)
    monkeypatch.setattr(poly, "_quadratic_roots", counting_quadratic)
    assert [(pk.normalizing_lambdas(), twopacket._sieve(pk) is None and bad_lambda_set(pk))
            for pk in cases] == expected
    assert calls == [] and not hasattr(twopacket, "_quadratic_roots")


def test_batch_inverse_matches_pow():
    # the denominators of _q_roots may be unreduced, up to 2p
    rng, p = random.Random(32), 65521
    values = [v for v in (rng.randrange(1, 2 * p) for _ in range(500)) if v % p]
    for vs in ([], [7], values):
        assert twopacket._batch_inverse(vs, p) == [pow(v, -1, p) for v in vs]


# the one solver at every abscissa, on packets that have a sieve, against the
# reference's per-abscissa union, which the degenerate set is checked with
@pytest.mark.parametrize("n", [3, 5, 7])
def test_q_roots_at_every_abscissa_match_the_per_abscissa_scan(n):
    count = 0
    for p in (p for p in range(5, 80) if (p - 1) % (n + 1) == 0
              and all(p % q for q in range(2, p))):
        F = GF(p)
        for I, C in ((I, C) for I in combinations(F.roots_of_unity(n + 1), (n + 1) // 2)
                     for C in sorted({1, 2, p - 1})):
            pk = two_packet(F, n, I, C)
            if twopacket._sieve(pk) is not None:
                assert twopacket._q_roots(pk, range(p)) == reference_degenerate_bad_lambdas(pk)
                count += 1
    assert count >= 10


def test_degenerate_bad_lambda_set_refused_above_the_scan_bound():
    # {0, 2} alternates mu_4: the eliminant vanishes identically, and at
    # p = 65537 > 2^16 listing the set would scan every abscissa
    F = GF(65537)
    mu = F.roots_of_unity(4)
    pk = two_packet(F, 3, (mu[0], mu[2]), 1)
    assert twopacket._sieve(pk) is None
    with pytest.raises(BadParameters, match=r"p <= 65536, not p = 65537"):
        bad_lambda_set(pk)
    # membership and the confirmed set never scan
    lams = pk.normalizing_lambdas()
    assert {F(1), F(-1)} <= bad_lambda_members(pk, lams + (F(1), F(-1)))
    assert {F(1), F(-1)} <= confirmed_bad_lambdas(pk)


# every subset whose eliminant vanishes identically, at every p = 1 mod (n+1)
# below 400 with C in {1, 2, p - 1} and two seeded C, and at p = 65521 for
# n = 3, against the scan one abscissa at a time.  The discriminant
# b^2 + 4ac of Q(x0, lam) is always 4 (1 + x0)^(n+1), a square, because
# H_I H_comp = (1 + x)^(n+1) - (C x)^(n+1): the grid reaches a linear Q
# (H_I(x0) = 0), a zero discriminant and two roots, and never a Q whose
# discriminant is not a square
@pytest.mark.parametrize("n", [3, 5, 7])
def test_degenerate_bad_lambda_set_matches_the_per_abscissa_scan(n):
    rng, branches, cases = random.Random(2029 + n), Counter(), []
    for p in range(5, 400):
        if (p - 1) % (n + 1) or not all(p % q for q in range(2, p)):
            continue
        F = GF(p)
        Cs = {1, 2, p - 1, *rng.sample(range(2, p), 2)}
        for I in combinations(F.roots_of_unity(n + 1), (n + 1) // 2):
            cases += [pk for pk in (two_packet(F, n, I, C) for C in sorted(Cs))
                      if twopacket._sieve(pk) is None]
    assert cases
    for pk in cases:
        assert bad_lambda_set(pk) == reference_degenerate_bad_lambdas(pk), (pk.field, pk.I, pk.C)
        p = pk.field.p
        for x0, (a, b, c) in enumerate(q_coefficients_everywhere(pk)):
            disc = (b * b + 4 * a * c) % p
            assert disc == 4 * pow(1 + x0, n + 1, p) % p
            branches["linear" if not a else "double" if not disc else "two roots"] += 1
    assert set(branches) == {"linear", "double", "two roots"}, branches
    if n == 3:  # the largest prime below the scan's 2^16 guard
        F = GF(65521)
        pk = two_packet(F, 3, F.roots_of_unity(4)[::2], 5)
        assert twopacket._sieve(pk) is None
        assert bad_lambda_set(pk) == reference_degenerate_bad_lambdas(pk)


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
    with pytest.raises(BadParameters, match="characteristic 2 divides m0 = 4"):
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
    with pytest.raises(BadParameters, match="P and Q must have distinct abscissas"):
        shift_points_to_0_minus1(curve, p, q)


def reference_confirmed_bad_lambdas(pk):
    """The exhaustive loop through packet_polynomial, one lambda at a time."""
    out = set()
    for lam in range(1, pk.field.p):
        f = packet_polynomial(pk, lam)
        if f.is_zero() or not is_squarefree(f):
            out.add(lam)
    return frozenset(out)


# n = 5 stops at 43 to keep the suite fast: the reference costs a squarefree
# test per lambda, and the subsets and lambdas grow with p.  n = 7 (ell0 = 4,
# the first n at which a repeated root of x^ell0 - ut need not lie in F_p)
# runs at p = 17 and 41, on a seeded sample of 24 of its 70 subsets.  The
# grids cover both sides of the resultant's fallback to every unit, which
# needs 2n+1 units where the leading coefficient of x^ell0 - ut does not
# vanish: it applies at p = 5 (n = 3) and at p = 7 and 13 (n = 5; at 13 for
# the packets whose leading coefficient has two roots), and not from p = 13
# (n = 3), 19 (n = 5) and 17 (n = 7) on.
@pytest.mark.parametrize("n,max_p", [(3, 101), (5, 43), (7, 41)])
def test_confirmed_bad_lambdas_matches_packet_polynomial_loop(n, max_p):
    primes = [p for p in range(5, max_p + 1)
              if all(p % q for q in range(2, p)) and (p - 1) % (n + 1) == 0]
    rng = random.Random(n)
    for p in primes:
        F = GF(p)
        subsets = list(combinations(F.roots_of_unity(n + 1), (n + 1) // 2))
        for I in rng.sample(subsets, min(len(subsets), 24)):
            for C in sorted({1, 2, p - 1}):
                pk = two_packet(F, n, I, F(C))
                assert confirmed_bad_lambdas(pk) == reference_confirmed_bad_lambdas(pk), \
                    (p, I, C)


@pytest.mark.parametrize("n", [3, 5])
def test_confirmed_bad_lambdas_matches_loop_at_2017(n):
    F = GF(2017)
    pk = two_packet(F, n, F.roots_of_unity(n + 1)[:(n + 1) // 2], F(2))
    assert confirmed_bad_lambdas(pk) == reference_confirmed_bad_lambdas(pk)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_confirmed_bad_lambdas_tests_few_lambdas(n, monkeypatch):
    # the roots of R (degree <= 2n), their negatives and +-1, one test per
    # pair +-lam, not one test per unit; R from 2n+1 resultants
    calls = {"is_squarefree": 0, "_resultant_values": 0, "roots_in_field": 0}

    # twopacket calls the two spanned poly functions through poly
    owners = {"is_squarefree": poly, "_resultant_values": twopacket, "roots_in_field": poly}

    def counting(name):
        real = getattr(owners[name], name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(owners[name], name, counting(name))
    F = GF(10009)
    pk = two_packet(F, n, F.roots_of_unity(n + 1)[:(n + 1) // 2], 1)
    confirmed = confirmed_bad_lambdas(pk)
    assert calls["is_squarefree"] <= 2 * n + 1
    assert calls["_resultant_values"] <= 2 * n + 1
    assert calls["roots_in_field"] == 1
    assert {F(1), F(-1)} <= confirmed


@pytest.mark.parametrize("n", [3, 5, 7])
def test_candidate_resultant_has_degree_at_most_2n(n, monkeypatch):
    # R(lam) = Res_x(F, F_x), F = 2 C^ell0 lam (x^ell0 - ut): the interpolant
    # through the 2n+1 values the code computes must match Res_x at further lam
    F, ell0 = GF(10009), (n + 1) // 2
    rng = random.Random(10009 + n)
    pk = two_packet(F, n, rng.sample(F.roots_of_unity(n + 1), ell0), rng.randrange(1, 10009))
    seen = []

    def capturing(field, points, values):
        seen.append((list(points), list(values)))
        return interpolate(field, points, values)

    monkeypatch.setattr(twopacket, "interpolate", capturing)
    confirmed_bad_lambdas(pk)
    (lams, values), = seen
    assert len(lams) == 2 * n + 1

    def res(lam):  # Res_x(F, F_x) of F built from shapes, or None if deg F < ell0
        ut, _ = packet_shapes(pk, lam)
        f = 2 * pk.cl * F(lam) * (Poly.monomial(F, ell0) - ut)
        return resultant(f, f.derivative()) if f.degree == ell0 else None

    assert [res(lam) for lam in lams] == [F(v) for v in values]
    r, further = interpolate(F, lams, values), []
    for lam in range(max(lams) + 1, 10009):
        if res(lam) is not None:
            further.append(lam)
            if len(further) == 5:
                break
    assert [r(F(lam)) for lam in further] == [res(lam) for lam in further]
    # R vanishes where the leading coefficient does: the normalizing lambdas
    # are candidates without being listed
    assert pk.normalizing_lambdas()
    assert all(r(lam).is_zero() or r(-lam).is_zero() for lam in pk.normalizing_lambdas())
