import random
from collections import Counter
from math import gcd

import pytest

from supertorsion import (
    GF,
    QQ,
    Poly,
    TorsionCertificate,
    build_certificate,
    certificates,
    family_slack0,
    family_slack1,
    is_squarefree,
    normalize_certificate,
    order_of_class,
    series_dth_root,
    torsion_params,
    verify_certificate,
)
from supertorsion.certificates import assemble_certificate
from supertorsion.errors import BadParameters, NotSquarefree

from paper_checks import compose


def test_build_slack1_example():
    cert = build_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (1, 1)))
    # f = -x^4 + (x^2 + x + 1)^2
    assert cert.v == Poly(QQ, (1, 1, 1))
    assert cert.f == Poly(QQ, (1, 1, 1)) ** 2 - Poly.monomial(QQ, 4)
    assert [c.value for c in cert.f.coeffs] == [1, 2, 3, 2]
    assert cert.point().x == QQ(0) and cert.point().y == QQ(1)


def test_build_slack0_example():
    cert = build_certificate(4, 3, QQ(0), QQ(1), Poly.one(QQ))
    assert cert.f == Poly(QQ, (1, 0, 1)) ** 3 - Poly.monomial(QQ, 6)
    assert [c.value for c in cert.f.coeffs] == [1, 0, 3, 0, 3]


def test_build_rejects_vanishing_q():
    with pytest.raises(BadParameters, match=r"q\(a\) = 0 would make a a repeated root"):
        build_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (0, 1)))  # q = x, q(0) = 0


def test_verify_passes_and_tamper_fails():
    cert = build_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (1, 1)))
    report = verify_certificate(cert, run_oracle=True)
    assert report.passed
    assert report.oracle_order == 4
    bad_f = cert.f + Poly.monomial(QQ, 1)
    tampered = cert._replace(f=bad_f)
    bad_report = verify_certificate(tampered)
    assert not bad_report.passed
    names = {c.name: c.passed for c in bad_report.checks}
    assert not names["identity"]
    # P = (0, 1) is not on y^2 = f + 1, and f*(x + 1) has even degree 4, so
    # it defines no curve with d = 2: both fail entries, neither raises
    off_curve = verify_certificate(cert._replace(f=cert.f + 1), run_oracle=True)
    names = {c.name: c.passed for c in off_curve.checks}
    assert not names["vanishing_at_P"] and not names["oracle_order"]
    assert off_curve.oracle_order is None
    no_curve = verify_certificate(cert._replace(f=cert.f * Poly(QQ, (1, 1))),
                                  run_oracle=True)
    names = {c.name: c.passed for c in no_curve.checks}
    assert not names["squarefree"] and not names["oracle_order"]
    assert no_curve.oracle_order is None


def test_verify_slack0_oracle_order_6():
    cert = family_slack0(4, 3, QQ)
    report = verify_certificate(cert, run_oracle=True)
    assert report.passed and report.oracle_order == 6


def test_normalize_shifted_example():
    cert = build_certificate(3, 2, QQ(1), QQ(1), Poly(QQ, (1, 1)))
    # v = (x-1)^2 + (x+1) = x^2 - x + 2, v(1) = 2
    assert cert.v == Poly(QQ, (2, -1, 1))
    norm = normalize_certificate(cert)
    assert norm.B == QQ("1/2")
    assert norm.v == Poly(QQ, ("1", "1/2", "1/2"))  # (x^2 + x + 2)/2
    assert norm.v(QQ(0)) == QQ(1)
    assert norm.f == cert.f.shift(QQ(1)) * QQ("1/4")
    # round trip: the shifted certificate re-verifies and marks (0, 1)
    assert verify_certificate(norm).passed
    assert norm.point().x == QQ(0)
    assert norm.point().y == QQ(1)


def test_normalize_identity_on_normalized():
    cert = build_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (1, 1)))
    assert normalize_certificate(cert) == cert


def test_family_slack0_rules():
    cert = family_slack0(4, 3, QQ)
    assert [c.value for c in cert.f.coeffs] == [1, 0, 3, 0, 3]
    with pytest.raises(BadParameters, match="characteristic 2 divides ell0 = 2"):
        family_slack0(4, 3, GF(2))
    with pytest.raises(BadParameters, match="slack = 1 != 0"):
        family_slack0(3, 2, QQ)


def test_family_slack0_f11():
    cert = family_slack0(8, 5, GF(11))
    assert cert.f.degree == 8
    assert verify_certificate(cert).passed


def test_family_slack1_examples():
    cert, point_d, _ = family_slack1(3, 2, QQ(1), QQ(1))
    assert [c.value for c in cert.f.coeffs] == [1, 2, 3, 2]
    assert (point_d.x.value, point_d.y.value) == (-1, 0)
    assert cert.f(point_d.x).is_zero()
    with pytest.raises(NotSquarefree):
        family_slack1(3, 2, QQ(2), QQ(4))  # B1^2 - 8B = 0
    with pytest.raises(BadParameters, match="B and B1 must be nonzero"):
        family_slack1(3, 2, QQ(1), QQ(0))
    with pytest.raises(BadParameters, match="slack = 0 != 1"):
        family_slack1(4, 3, QQ(1), QQ(1))


def test_family_slack1_matches_factored_cubic():
    rng = random.Random(11)
    for _ in range(10):
        B, B1 = QQ(rng.randint(1, 9)), QQ(rng.randint(1, 9))
        if (B1 * B1 - 8 * B).is_zero():
            continue
        cert, _, _ = family_slack1(3, 2, B, B1)
        factored = Poly(QQ, (1, B1, 2 * B)) * Poly(QQ, (1, B1))
        assert cert.f == factored


def test_every_constructed_certificate_verifies():
    rng = random.Random(5)
    certs = [family_slack0(4, 3, QQ), family_slack0(8, 5, GF(13))]
    for _ in range(6):
        B, B1 = rng.randint(1, 8), rng.randint(1, 8)
        if B1 * B1 != 8 * B:
            certs.append(family_slack1(3, 2, QQ(B), QQ(B1))[0])
    for _ in range(4):
        q = Poly(QQ, (rng.randint(1, 5), rng.randint(1, 5)))
        try:
            certs.append(build_certificate(3, 2, QQ(rng.randint(-2, 2)),
                                           QQ(rng.randint(1, 5)), q))
        except NotSquarefree:
            continue
    for cert in certs:
        assert verify_certificate(cert).passed
        norm = normalize_certificate(cert)
        assert verify_certificate(norm).passed
        field, va = cert.field, cert.v(cert.a)
        assert norm.f == cert.f.shift(cert.a) * (va ** cert.d).inverse()
        assert norm.v == cert.v.shift(cert.a) * va.inverse()
        assert norm.q == cert.q.shift(cert.a) * va.inverse()
        assert norm.v(field.zero) == field.one and norm.q(field.zero) == field.one


def _shapes(slack):
    """Every (n, d) with the given slack and m0 <= 21."""
    return [(n, d) for n in range(3, 21) for d in range(2, n)
            if gcd(n, d) == 1 and torsion_params(n, d).slack == slack
            and torsion_params(n, d).m0 <= 21]


@pytest.mark.parametrize("field", [QQ, GF(1009)])
def test_family_slack0_is_inner_pullback(field):
    # f = -x^m0 + (x^ell0 + 1)^d is inner(x^ell0) with inner = -X^d + (X+1)^d
    # squarefree of degree d-1 and inner(0) = 1, which is why f is squarefree;
    # scaling x by an ell0-th root B0 of B gives the curve with parameter B
    X = Poly.x(field)
    shapes = _shapes(0)
    assert len(shapes) == 8
    for n, d in shapes:
        ell0 = torsion_params(n, d).ell0
        inner = -(X ** d) + (X + 1) ** d
        assert inner.degree == d - 1 and is_squarefree(inner)
        assert inner(field.zero) == field.one
        reference = family_slack0(n, d, field)
        assert reference.f == compose(inner, X ** ell0)
        b0 = field(2)
        cert = build_certificate(n, d, field.zero, b0 ** ell0, Poly.one(field))
        assert cert.f == compose(reference.f, b0 * X)


def test_family_slack1_point_is_a_root():
    # f(x0) = -B^d x0^m0 + (B x0^ell0)^d = 0 at x0 = -1/B1, since d*ell0 = m0
    rng = random.Random(7)
    F = GF(1009)
    for n, d in _shapes(1):
        for _ in range(3):
            try:
                cert, point_d, _ = family_slack1(n, d, F(rng.randrange(1, 1009)),
                                              F(rng.randrange(1, 1009)))
            except NotSquarefree:
                continue
            assert cert.f(point_d.x).is_zero() and point_d.y.is_zero()


@pytest.mark.parametrize("n,d,field", [
    (4, 3, QQ),      # slack 0
    (3, 2, QQ),      # slack 1
    (5, 3, QQ),      # slack 1
    (7, 4, GF(29)),  # slack 1
])
def test_oracle_order_is_exactly_m0(n, d, field):
    from supertorsion import torsion_params
    params = torsion_params(n, d)
    if params.slack == 0:
        cert = family_slack0(n, d, field)
    else:
        cert, _, _ = family_slack1(n, d, field(1), field(1))
    order = order_of_class(cert.curve(), cert.point(), 2 * params.m0)
    assert order == params.m0


def reference_vanishing_detail(cert):
    """The vanishing_at_P detail by the series route: compare v(a + t) with
    the d-th-root series of y at P = (a, v(a)) to m0 + 2 terms."""
    y0 = cert.v(cert.a)
    if y0.is_zero():
        return "v(a) = 0: not a valid certificate point"
    if y0 ** cert.d != cert.f(cert.a):
        return "v(a)^d != f(a): P is not on y^d = f"
    s = series_dth_root(cert.f, cert.d, cert.a, y0, cert.m0 + 2)
    vpoly = cert.v.shift(cert.a)
    order = next((i for i in range(cert.m0 + 2) if vpoly[i] != s[i]), None)
    return f"ord_P(v - y) = {order}, expected {cert.m0}"


def _vanishing_detail(cert):
    return next(c.detail for c in verify_certificate(cert) if c.name == "vanishing_at_P")


def _tampered(cert, rng):
    """Certificates whose f or v was changed so that ord_P(v - y) takes every
    value 0..m0 + 3, R = v^d - f vanishes, or P leaves the curve."""
    field, a, m0 = cert.field, cert.a, cert.m0
    x_minus_a = Poly(field, (-a, field.one))
    unit = field(rng.randrange(1, 50))
    out = [cert._replace(f=cert.v ** cert.d)]  # R = 0
    for k in range(m0 + 4):  # R = unit (x-a)^k
        out.append(cert._replace(f=cert.v ** cert.d - unit * x_minus_a ** k))
        out.append(cert._replace(f=cert.f + unit * x_minus_a ** k))
    out.append(cert._replace(v=cert.v - cert.v(a)))  # v(a) = 0
    out.append(cert._replace(v=cert.v + unit))
    out.append(cert._replace(f=cert.f + Poly(field, [rng.randrange(-5, 6) for _ in range(3)])))
    return out


def _random_certificates(field, rng):
    char, certs = field.characteristic(), []
    for n, d in ((3, 2), (4, 3), (5, 2), (7, 4), (7, 2), (7, 3), (8, 5), (11, 4)):
        if char and d % char == 0:
            continue
        for _ in range(20):
            slack = torsion_params(n, d).slack
            q = Poly(field, [rng.randrange(-4, 5) for _ in range(slack)] + [rng.randrange(1, 3)])
            a, B = field(rng.randrange(-3, 4)), field(rng.randrange(1, 3))
            if q(a).is_zero():  # build_certificate refuses q(a) = 0
                continue
            try:
                certs.append(build_certificate(n, d, a, B, q))
            except NotSquarefree:
                continue
            break
    assert len(certs) >= 6
    return certs


FIELDS = pytest.mark.parametrize("field", [QQ, GF(3), GF(7), GF(13), GF(1009)],
                                 ids=["Q", "F3", "F7", "F13", "F1009"])


@FIELDS
def test_vanishing_at_P_matches_the_series_route(field):
    rng = random.Random(field.characteristic() + 11)
    certs = _random_certificates(field, rng)
    orders = set()
    for cert in certs:
        for case in [cert] + _tampered(cert, rng):
            detail = _vanishing_detail(case)
            assert detail == reference_vanishing_detail(case), (case, detail)
            orders.add(detail.split(",")[0])
    m0s = {cert.m0 for cert in certs}
    assert "ord_P(v - y) = None" in orders
    assert any(f"ord_P(v - y) = {m0 + 1}" in orders for m0 in m0s)
    assert "v(a) = 0: not a valid certificate point" in orders
    assert "v(a)^d != f(a): P is not on y^d = f" in orders


def reference_identity_and_shape(cert):
    """The identity and shape checks as polynomial equations."""
    x_minus_a = Poly(cert.field, (-cert.a, cert.field.one))
    identity = cert.v ** cert.d - cert.f == cert.B ** cert.d * x_minus_a ** cert.m0
    shape = (cert.v == cert.B * x_minus_a ** cert.ell0 + cert.q
             and cert.v.degree == cert.ell0 and cert.v.leading == cert.B
             and cert.q.degree == cert.params.slack and not cert.q(cert.a).is_zero())
    return identity, shape


@FIELDS
def test_identity_and_shape_match_the_polynomial_route(field):
    rng = random.Random(field.characteristic() + 12)
    seen = set()
    for cert in _random_certificates(field, rng):
        x_minus_a = Poly(field, (-cert.a, field.one))
        unit, qa = field(rng.randrange(1, 50)), cert.q(cert.a)
        cases = [cert, cert._replace(B=cert.B + unit), cert._replace(q=cert.q + unit),
                 cert._replace(v=cert.v + unit * x_minus_a ** cert.ell0),
                 cert._replace(q=cert.q + Poly.monomial(field, cert.ell0, unit)),
                 cert._replace(q=cert.q - qa, v=cert.v - qa)]  # q(a) = 0
        for case in cases + _tampered(cert, rng):
            checks = {c.name: c.passed for c in verify_certificate(case)}
            expected = reference_identity_and_shape(case)
            assert (checks["identity"], checks["shape"]) == expected, case
            seen.add(expected)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


IDENTITY = ("identity", False, "f + B^d (x-a)^m0 == v^d")
NORM = ("norm", False, "v^d - f == B^d (x-a)^m0 (symbolic norm of v - y)")
OFF_CURVE = ("vanishing_at_P", False, "v(a)^d != f(a): P is not on y^d = f")


@pytest.mark.parametrize("field", [QQ, GF(13)], ids=["Q", "F13"])
@pytest.mark.parametrize("label,change,vanishing,oracle", [
    ("f + 1", lambda c: c._replace(f=c.f + 1), OFF_CURVE, None),
    ("f + 1 at a = 3", lambda c: c._replace(a=c.field(3), v=c.v.shift(-3), f=c.f.shift(-3) + 1),
     OFF_CURVE, None),
    # a = 0 and m0 = n + 1: R - x^5 vanishes at a to order m0 - 1
    ("f + x^5", lambda c: c._replace(f=c.f + Poly.monomial(c.field, 5)),
     ("vanishing_at_P", False, "ord_P(v - y) = 5, expected 6"), None),
    ("B = 0", lambda c: c._replace(B=c.field.zero),
     ("vanishing_at_P", True, "ord_P(v - y) = 6, expected 6"), 6),
    # R = 0 = B^d (x-a)^m0, yet identity fails, as it did on the Taylor shift
    ("B = 0, v = q", lambda c: c._replace(B=c.field.zero, v=c.q, f=c.q ** 2),
     ("vanishing_at_P", False, "ord_P(v - y) = None, expected 6"), None),
])
def test_failing_certificates_report_what_the_taylor_shift_reported(field, label, change,
                                                                    vanishing, oracle):
    cert = change(build_certificate(5, 2, field(0), field(2), Poly(field, (1, -3, 1))))
    report = verify_certificate(cert, run_oracle=True)
    entries = {c.name: (c.name, c.passed, c.detail) for c in report}
    assert (entries["identity"], entries["norm"], entries["vanishing_at_P"]) == \
        (IDENTITY, NORM, vanishing)
    assert report.oracle_order == oracle and not report.passed


def test_vanishing_at_P_fails_when_char_divides_d():
    F = GF(3)
    x = Poly.x(F)
    v = x ** 2 + 1
    cert = TorsionCertificate(field=F, n=4, d=3, a=F(0), B=F(1), q=Poly.one(F), v=v,
                              f=v ** 3 - x ** 6 + x, params=torsion_params(4, 3))
    report = verify_certificate(cert, run_oracle=True)
    checks = {c.name: c for c in report}
    assert not report.passed and report.oracle_order is None
    assert checks["vanishing_at_P"] == ("vanishing_at_P", False, "characteristic 3 divides 3")
    assert not checks["squarefree"].passed
    assert not checks["oracle_order"].passed
    assert checks["oracle_order"].detail.startswith("not run")
    with pytest.raises(BadParameters, match="^characteristic 3 divides 3$"):
        reference_vanishing_detail(cert)


def _normal_form_proof(cert):
    return certificates._normal_form_curve(cert, cert.f, cert.v.values, cert.a.value)


def _random_q(rng, field, slack, a, values):
    while True:
        q = Poly(field, [rng.choice(values) for _ in range(slack)] + [rng.choice(values[1:])])
        if not q(a).is_zero():
            return q


def test_the_normal_form_lemma_agrees_with_gcd_f_f_prime():
    # f = v^d - B^d (x-a)^m0 is squarefree iff gcd(f, (x-a)v' - ell0*v) = 1:
    # seeded certificates over F_2..F_13, where repeated roots are common,
    # and over Q; every (n, d) with n <= 13 and slack 0, 1 or 2
    rng = random.Random(26)
    shapes = [(n, d) for d in range(2, 6) for n in range(d + 1, 14)
              if gcd(n, d) == 1 and torsion_params(n, d).slack in (0, 1, 2)]
    seen = Counter()
    for field in (GF(2), GF(3), GF(5), GF(7), GF(11), GF(13), QQ):
        char = field.characteristic()
        values = [0, 1, -1, 2, -3] if char == 0 else list(range(char))
        for n, d in shapes:
            if char and d % char == 0:
                continue
            params = torsion_params(n, d)
            for _ in range(16 if char else 3):
                a, B = field(rng.choice(values)), field(rng.choice(values[1:]))
                cert = assemble_certificate(n, d, a, B, _random_q(rng, field, params.slack, a,
                                                                   values))
                squarefree = is_squarefree(cert.f)
                assert (_normal_form_proof(cert) is not None) == squarefree, cert
                seen[field.kind, params.slack, bool(char) and params.ell0 % char == 0,
                     squarefree] += 1
    # f = (x^2 + 4x + 2)^2 - x^4 = 4(x+1)^2(2x+1), and B1^2 = 8B at (3, 2)
    for cert in (assemble_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (2, 4))),
                 assemble_certificate(3, 2, QQ(0), QQ(2), Poly(QQ, (1, 4)))):
        assert _normal_form_proof(cert) is None and not is_squarefree(cert.f)
        seen["Q", 1, False, False] += 1
    # repeated roots and char | ell0 at slack 0, 1 and 2, with the two facts
    # the lemma predicts: at slack 0, W = -ell0*q is 0 exactly when char | ell0;
    # at slack 1 and char | ell0, W = q'(x-a) vanishes only at a, which f(a) != 0
    # keeps off f
    impossible = {("Fp", 0, False, False), ("Fp", 0, True, True), ("Fp", 1, True, False)}
    assert {key for key in seen if key[0] == "Fp"} == {
        ("Fp", slack, divides, squarefree) for slack in (0, 1, 2)
        for divides in (False, True) for squarefree in (False, True)} - impossible
    assert seen["Q", 0, False, True] and seen["Q", 1, False, True] and seen["Q", 1, False, False]
    assert sum(seen.values()) > 1000


def test_an_f_of_the_wrong_degree_fails_squarefree_without_raising():
    # built by hand over F_13 at (3, 2): f = v^2 - x^4 with v = 2x^2 + 1 meets
    # the identity with v(0) != 0, but deg f = 4 = m0, which no curve y^2 = f
    # of this certificate allows; the lemma is not run, and the report says so
    F = GF(13)
    v = Poly(F, (1, 0, 2))
    f = v * v - Poly.monomial(F, 4)
    cert = TorsionCertificate(field=F, n=3, d=2, a=F(0), B=F(1), q=Poly(F, (1, 1)), v=v,
                              f=f, params=torsion_params(3, 2))
    report = verify_certificate(cert, run_oracle=True)
    checks = {c.name: c.passed for c in report}
    assert f.degree == 4 and checks["identity"] and not checks["squarefree"]
    assert report.oracle_order is None
