"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic; there are no tolerances to tune.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import random
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from supertorsion import (
    GF,
    QQ,
    Poly,
    ReachabilityStatus,
    SuperellipticCurve,
    bad_lambda_set,
    build_family,
    build_two_packet_equal,
    build_two_packet_general,
    cantor_order,
    confirmed_bad_lambdas,
    build_H,
    elliptic_add,
    elliptic_order,
    example_m0_equals_nplus1,
    family_slack0,
    family_slack1,
    fermat_identity_check,
    from_kubert,
    gap_semigroup_count,
    genus,
    is_squarefree,
    order_of_class,
    order_of_ramified,
    packet_polynomial,
    packet_wronskian_triple,
    reachability_status,
    rr_basis,
    to_kubert,
    torsion_params,
    two_packet,
    two_packet_admissible,
    wronskian3,
    wronskian_degree_audit,
)
from supertorsion.errors import DegreeNotNormalized, NotSquarefree
from supertorsion.twopacket import nonvanishing_bracket, wronskian_pair_form

FIXTURES = Path(__file__).parent / "fixtures"


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_slack0_family_orders():
    """Slack-0 family: squarefree f and order exactly m0 over Q and F_p."""
    results = []
    for n, d, field, expected in ((4, 3, QQ, 6), (4, 3, GF(7), 6),
                                  (8, 5, GF(11), 10)):
        cert = family_slack0(n, d, field)
        assert is_squarefree(cert.f)
        order = order_of_class(cert.curve(), cert.point(), 2 * expected)
        results.append(order == expected)
    _report("criterion 1: slack-0 family exact orders (6, 6, 10)", all(results),
            f"orders verified over Q, F_7, F_11")


def test_criterion_2_slack1_equals_elliptic_family():
    """25 random (B, B1): factored cubic matches, Q0 has order 4, 2Q0 = Q2."""
    rng = random.Random(20240801)
    checked = 0
    while checked < 25:
        B = QQ(rng.randint(-20, 20))
        B1 = QQ(rng.randint(-20, 20))
        if B.is_zero() or B1.is_zero() or (B1 * B1 - 8 * B).is_zero():
            continue
        cert, point_d = family_slack1(3, 2, B, B1)
        factored = Poly(QQ, (1, B1, 2 * B)) * Poly(QQ, (1, B1))
        assert cert.f == factored
        curve = cert.curve()
        q0 = (QQ(0), QQ(1))
        assert elliptic_order(curve, q0, 8) == 4
        q2 = (-B1.inverse(), QQ(0))
        assert elliptic_add(curve, q0, q0) == q2
        assert elliptic_order(curve, q2, 8) == 2
        assert order_of_ramified(curve, curve.point(*q2)) == 2
        checked += 1
    _report("criterion 2: slack-1 family = marked 4-torsion cubic", True,
            f"{checked} random parameter pairs, all exact")


def test_criterion_3_kubert_correspondence():
    """Round trips, identical reduced cubics, (0,0) maps to an order-4 point."""
    from supertorsion.elliptic4 import (
        reduced_cubic_from_family,
        reduced_cubic_from_kubert,
    )
    rng = random.Random(1889)
    done_b = 0
    while done_b < 25:
        b = QQ(rng.randint(-60, 60)) / QQ(rng.randint(1, 9))
        if b.is_zero() or (1 + 16 * b).is_zero():
            continue
        fam, pmap = from_kubert(b)
        assert to_kubert(fam) == b
        image = pmap(QQ(0), QQ(0))
        assert image == (QQ(0), QQ(1))
        assert elliptic_order(fam.curve(), image, 8) == 4
        done_b += 1
    done_params = 0
    while done_params < 25:
        B = QQ(rng.randint(-15, 15))
        B1 = QQ(rng.randint(-15, 15))
        if B.is_zero() or B1.is_zero() or (B1 * B1 - 8 * B).is_zero():
            continue
        fam = build_family(B, B1)
        b = to_kubert(fam)
        assert reduced_cubic_from_family(B, B1) == reduced_cubic_from_kubert(b, B1)
        back, _ = from_kubert(b)
        # the b-parameter is a complete invariant of the correspondence
        assert to_kubert(back) == b
        assert reduced_cubic_from_family(back.B, back.B1) == \
            reduced_cubic_from_kubert(b, back.B1)
        done_params += 1
    _report("criterion 3: Kubert correspondence is a verified bijection",
            True, f"{done_b}+{done_params} random inputs, chains identical")


def test_criterion_4_admissibility_table():
    """The verdict function reproduces the hand-derived fixture exactly."""
    with open(FIXTURES / "admissibility_table.json", encoding="utf-8") as fh:
        fixture = {(r["n"], r["d"]): r for r in json.load(fh)["rows"]}
    seen = set()
    for n in range(3, 13):
        for d in range(2, n):
            if gcd(n, d) != 1:
                continue
            v = two_packet_admissible(n, d)
            row = fixture[(n, d)]
            seen.add((n, d))
            assert v.verdict == row["verdict"], (n, d, v.verdict)
            assert (v.m0, v.ell0, v.slack) == (row["m0"], row["ell0"], row["slack"])
            tags = {r.split()[0] for r in v.reasons}
            assert tags == set(row["violated"]), (n, d, tags, row["violated"])
    assert seen == set(fixture)
    # the headline facts, restricted to non-exempt rows
    non_exempt = [(n, d) for (n, d) in seen
                  if not two_packet_admissible(n, d).exempt]
    for n, d in non_exempt:
        v = two_packet_admissible(n, d)
        if d == 6:
            assert not v.allowed and any(r.startswith("(i)") for r in v.reasons)
        if n in (5, 6):
            assert not v.allowed
        if n == 7:
            assert v.allowed == (d == 3)
        if n == 4:
            assert v.allowed == (d == 3)
        if n == 9:
            assert v.allowed == (d == 4)
    allowed = sorted((n, d) for (n, d) in non_exempt
                     if two_packet_admissible(n, d).allowed)
    assert allowed == [(4, 3), (7, 3), (9, 4), (10, 3), (12, 5)]
    _report("criterion 4: admissibility table matches the fixture", True,
            f"{len(seen)} rows, non-exempt allowed set {allowed}")


@pytest.fixture(scope="module")
def swept_families():
    F = GF(13)
    return _sweep_two_packet(F, 3, [F(1), F(2), F(6)])


def _sweep_two_packet(field, n, C_values):
    """Shared engine for criteria 5 and 7: sweep every (I, lambda), check
    squarefreeness outside the bad set, and fully verify every curve the
    construction yields (degree-n, squarefree)."""
    mu = field.roots_of_unity(n + 1)
    ell0 = (n + 1) // 2
    m0 = n + 1
    verified_families = []
    outside_checked = 0
    degree_skipped = 0
    for C in C_values:
        for I in combinations(mu, ell0):
            pk = two_packet(field, n, I, C)
            bad = bad_lambda_set(pk)
            for lam in field.units():
                fpoly = packet_polynomial(pk, lam)
                if lam not in bad:
                    outside_checked += 1
                    assert not fpoly.is_zero() and is_squarefree(fpoly), \
                        f"lambda {lam!r} outside the bad set but not squarefree"
                try:
                    if C == field.one:
                        if lam == field.one or lam == -field.one:
                            continue
                        fam = build_two_packet_equal(pk, lam)
                    else:
                        fam = build_two_packet_general(pk, lam, C ** (n + 1), field.one)
                except DegreeNotNormalized:
                    degree_skipped += 1
                    continue
                except NotSquarefree:
                    assert lam in bad, f"bad lambda {lam!r} missed by the set"
                    continue
                pts = fam.packet_points()
                assert len(pts) == 2 * 2
                curve = fam.curve()
                for pt in pts:
                    eo = elliptic_order(curve, pt, 2 * m0) if n == 3 else None
                    co = cantor_order(curve, pt, 2 * m0)
                    assert co == m0
                    if n == 3:
                        assert eo == m0, (eo, m0)
                verified_families.append(fam)
    return verified_families, outside_checked, degree_skipped


def test_criterion_5_two_packet_construction_and_oracles(swept_families):
    """F_13, n = 3: every lambda outside the bad set gives a squarefree
    polynomial; every constructible curve carries four points of exact order
    4 under both group-law oracles.  Plus the rational m0 = n+1 instance."""
    fams, outside, skipped = swept_families
    assert fams, "the sweep produced no verifiable curves"
    # rational instance: (x+1)^4 - x^4
    ex = example_m0_equals_nplus1(QQ, 3, 2)
    assert [c.value for c in ex.curve.f.coeffs] == [1, 4, 6, 4]
    assert {(p.x.value, p.y.value) for p in ex.points} == {(0, 1), (0, -1)}
    for p in ex.points:
        assert elliptic_order(ex.curve, p, 8) == 4
        assert cantor_order(ex.curve, p, 8) == 4
        assert order_of_class(ex.curve, p, 8) == 4
    _report("criterion 5: two-packet sweep + rational instance", True,
            f"{len(fams)} curves fully verified (4 points x 2 oracles each), "
            f"{outside} lambdas checked squarefree outside bad sets, "
            f"{skipped} degree-breaking lambdas skipped, Q instance exact")


def test_criterion_6_bad_lambda_completeness():
    """Every lambda whose polynomial fails squarefreeness lies in the
    assembled bad set, over F_13 and F_29 with n = 3, for every I and C."""
    total, contained = 0, 0
    for p in (13, 29):
        F = GF(p)
        mu = F.roots_of_unity(4)
        c_values = [F(1)] + [F(c) for c in range(2, p)
                             if F(c) ** 4 != F.one]
        for C in c_values:
            for I in combinations(mu, 2):
                pk = two_packet(F, 3, I, C)
                bad, confirmed = bad_lambda_set(pk), confirmed_bad_lambdas(pk)
                total += len(confirmed)
                contained += len(confirmed & bad)
    ratio = contained / total if total else 1.0
    _report("criterion 6: bad-lambda containment ratio", ratio == 1.0,
            f"{contained}/{total} confirmed-bad lambdas contained = "
            f"{100 * ratio:.1f}%")


def test_criterion_7_wronskian_identities(swept_families):
    """Wronskian collapse, divisibility and degree window on every family
    from the criterion-5 sweep; bracket nonvanishing on 200 random draws."""
    fams, _, _ = swept_families
    dependent = 0
    for fam in fams:
        f1, f2, f3 = packet_wronskian_triple(fam)
        ok, value = fermat_identity_check(f1, f2, f3, 2)
        assert ok and value == fam.A1
        w = wronskian3(f1 ** 2, f2 ** 2, f3 ** 2)
        assert w == wronskian_pair_form(f1, f2, 2, value)
        if w.is_zero():
            # dependence only happens in the exempt m0 = n+1 shape
            assert fam.m0 == fam.n + 1
            dependent += 1
            continue
        audit = wronskian_degree_audit(f1, f2, f3, 2, fam.ell0)
        assert audit.degree_ok and audit.divisibility_ok and audit.slope_bound_ok
    rng = random.Random(777)
    draws = 0
    pool = [(13, 3), (29, 3), (37, 3), (41, 3), (53, 3), (13, 5), (37, 5), (61, 5)]
    while draws < 200:
        p, n = rng.choice(pool)
        F2 = GF(p)
        mu = F2.roots_of_unity(n + 1)
        ell0 = (n + 1) // 2
        C = F2(rng.randrange(1, p))
        I = tuple(rng.sample(mu, ell0))
        bracket = nonvanishing_bracket(build_H(I, C), ell0)
        assert not bracket.is_zero()
        draws += 1
    _report("criterion 7: Wronskian identities + bracket nonvanishing", True,
            f"{len(fams)} families audited ({dependent} exempt-dependent), "
            f"{draws} bracket draws nonzero")


def test_criterion_8_oracle_self_consistency():
    """Riemann-Roch backend vs the group-law backends on random genus-1 and
    genus-2 instances; function-space dimensions match the gap count."""
    rng = random.Random(4242)
    primes = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53, 61, 71, 79, 89, 97]

    def random_instance(n):
        while True:
            p = rng.choice(primes)
            F = GF(p)
            coeffs = [F(rng.randrange(p)) for _ in range(n)] + \
                [F(rng.randrange(1, p))]
            f = Poly(F, coeffs)
            if f.degree != n or not is_squarefree(f):
                continue
            xs = list(range(p))
            rng.shuffle(xs)
            for x0 in xs:
                x0 = F(x0)
                target = f(x0)
                if target.is_zero():
                    continue
                y0 = F.nth_root(target, 2)
                if y0 is not None:
                    return F, f, (x0, y0)

    nontrivial = 0
    for _ in range(50):
        F, f, pt = random_instance(3)
        curve = SuperellipticCurve(F, 2, f)
        max_k = 2 * curve.params.m0
        rr = order_of_class(curve, curve.point(*pt), max_k)
        eo = elliptic_order(curve, pt, max_k)
        co = cantor_order(curve, pt, max_k)
        assert rr == eo == co
        if rr is not None:
            nontrivial += 1
    nontrivial2 = 0
    for _ in range(20):
        F, f, pt = random_instance(5)
        curve = SuperellipticCurve(F, 2, f)
        max_k = 2 * curve.params.m0
        rr = order_of_class(curve, curve.point(*pt), max_k)
        co = cantor_order(curve, pt, max_k)
        assert rr == co
        if rr is not None:
            nontrivial2 += 1
    for n, d in ((3, 2), (5, 2), (4, 3), (8, 5)):
        m0 = torsion_params(n, d).m0
        g = genus(n, d)
        for k in range(0, 2 * m0 + 1):
            dim = rr_basis(n, d, k).dimension
            assert dim == gap_semigroup_count(n, d, k)
            if k >= 2 * g - 1:
                assert dim == k - g + 1
    _report("criterion 8: oracle agreement + dimension counts", True,
            f"50 genus-1 ({nontrivial} with small order) and 20 genus-2 "
            f"({nontrivial2} with small order) instances agree")


def test_criterion_9_negative_slack_impossibility():
    """(7,5), (5,4), (6,5): slack -1, -1, -2 and order m0 impossible."""
    expected = {(7, 5): -1, (5, 4): -1, (6, 5): -2}
    for (n, d), slack in expected.items():
        params = torsion_params(n, d)
        assert params.slack == slack, (n, d, params.slack)
        rep = reachability_status(n, d, params.m0)
        assert rep.status is ReachabilityStatus.IMPOSSIBLE
    _report("criterion 9: negative-slack impossibility", True,
            "slacks (-1, -1, -2) and m0 unreachable, as computed")
