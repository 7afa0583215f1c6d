"""``verify_certificate`` over Q takes its curve, and the lower bound of its
order oracle, modulo the first prime of good reduction in
``poly._GOOD_FIELDS``; the exact engine over Q runs only when no prime
qualifies or the prime gives no answer."""

import random
from fractions import Fraction
from math import gcd

import pytest

from supertorsion import (
    GF,
    QQ,
    Poly,
    SuperellipticCurve,
    build_certificate,
    certificates,
    order_of_class,
    orders,
    poly,
    torsion_params,
    verify_certificate,
)
from supertorsion.certificates import CheckResult, VerificationReport
from supertorsion.errors import BadParameters


def _spy_oracle(monkeypatch, answer=None):
    """The field of every curve ``verify_certificate`` hands to
    ``order_of_class``; ``answer(curve, k)`` may replace the engine's answer."""
    fields = []

    def spy(curve, point, max_k):
        fields.append(curve.field)
        order = order_of_class(curve, point, max_k)
        return order if answer is None else answer(curve, order)

    monkeypatch.setattr(certificates, "order_of_class", spy)
    return fields


# (n, d) = (3, 2): m0 = 4, f = 2B(x-a)^2 q + q^2 with q of degree 1
PLANTED = {
    # each case is bad at 5 and good at 7
    "a has denominator 5": (Fraction(1, 5), 1, (1, 1)),
    "B has denominator 5": (0, Fraction(1, 5), (1, 1)),
    "q has denominator 5": (0, 1, (1, Fraction(1, 5))),
    "5 divides y0 = q(a)": (0, 1, (5, 1)),
    "f drops degree mod 5": (0, 1, (1, 5)),
    "f mod 5 has a repeated root": (0, 1, (2, 1)),  # (x+2)(2x^2+x+2), disc -15
}


def _planted(case):
    a, B, q = PLANTED[case]
    return build_certificate(3, 2, QQ(a), QQ(B), Poly(QQ, q))


def test_an_unplanted_certificate_uses_the_first_prime(monkeypatch):
    monkeypatch.setattr(poly, "_GOOD_FIELDS", (GF(5), GF(7), GF(11)))
    fields = _spy_oracle(monkeypatch)
    report = verify_certificate(build_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (1, 1))),
                               run_oracle=True)
    assert report.passed and report.oracle_order == 4
    assert fields == [GF(5)]


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_a_prime_of_bad_reduction_is_skipped(monkeypatch, case):
    cert = _planted(case)
    monkeypatch.setattr(poly, "_GOOD_FIELDS", ())
    exact = verify_certificate(cert, run_oracle=True)
    assert exact.passed and exact.oracle_order == 4
    monkeypatch.setattr(poly, "_GOOD_FIELDS", (GF(5), GF(7), GF(11)))
    fields = _spy_oracle(monkeypatch)
    assert verify_certificate(cert, run_oracle=True) == exact
    assert verify_certificate(cert, run_oracle=True) == exact
    assert fields == [GF(7), GF(7)]  # the next prime, every time
    # with no prime left, the exact engine over Q
    monkeypatch.setattr(poly, "_GOOD_FIELDS", (GF(5),))
    fields.clear()
    assert verify_certificate(cert, run_oracle=True) == exact
    assert fields == [QQ]


def test_a_prime_not_above_m0_is_skipped(monkeypatch):
    monkeypatch.setattr(poly, "_GOOD_FIELDS", (GF(3), GF(5)))
    fields = _spy_oracle(monkeypatch)
    cert = build_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (1, 1)))
    assert verify_certificate(cert, run_oracle=True).oracle_order == 4
    assert fields == [GF(5)]


def test_each_condition_on_the_point_is_checked(monkeypatch):
    # a, y0, f and v q-integral and y0 a q-unit: on a certificate that passes
    # its checks these follow from f mod q, so each is tested on its own (f
    # and v stay the same polynomials, over a denominator divisible by 5).
    # f = 1 + 2x + 3x^2 + 2x^3 is squarefree of degree 3 mod 5 and mod 11,
    # not mod 7.
    monkeypatch.setattr(poly, "_GOOD_FIELDS", (GF(5), GF(11)))
    cert = build_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (1, 1)))
    (F, den), (V, dv) = QQ.split(cert.f.values), QQ.split(cert.v.values)
    good = certificates._good_reduction
    assert good(cert, F, den, V, dv, QQ(1)).field == GF(5)
    for y0 in (QQ(5), QQ(Fraction(1, 5)), QQ(Fraction(5, 3))):
        assert good(cert, F, den, V, dv, y0).field == GF(11)
    assert good(cert, [5 * c for c in F], 5 * den, V, dv, QQ(1)).field == GF(11)
    assert good(cert, F, den, [5 * c for c in V], 5 * dv, QQ(1)).field == GF(11)
    monkeypatch.setattr(poly, "_GOOD_FIELDS", (GF(5), GF(7)))
    assert good(cert, F, den, V, dv, QQ(5)) is None
    # a = 2/5 alone: f and v are unchanged, so only the condition on a skips
    # GF(5), where the lemma would otherwise read a mod 5
    monkeypatch.setattr(poly, "_GOOD_FIELDS", (GF(5),))
    assert good(cert._replace(a=QQ(Fraction(2, 5))), F, den, V, dv, QQ(1)) is None


def test_an_identity_that_holds_only_mod_q_settles_nothing(monkeypatch):
    # f + 5x agrees with a valid f mod 5, but fails the identity over Q
    monkeypatch.setattr(poly, "_GOOD_FIELDS", (GF(5), GF(7)))
    cert = build_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (1, 1)))
    tampered = cert._replace(f=cert.f + Poly(QQ, (0, 5)))
    fields = _spy_oracle(monkeypatch)
    report = verify_certificate(tampered, run_oracle=True)
    assert fields == [QQ]
    assert report == _exact_report(tampered, 2 * cert.m0)
    assert not report.passed and report.oracle_order != cert.m0


def _shapes():
    out = []
    for d in range(2, 7):
        for n in range(d + 1, 16):
            if gcd(n, d) == 1 and torsion_params(n, d).slack >= 0:
                out.append((n, d))
    return out


def _rational(rng, dens=(1, 2, 3, 5)):
    return Fraction(rng.randint(-4, 4), rng.choice(dens))


def _random_certificate(rng):
    n, d = rng.choice(_shapes())
    slack = torsion_params(n, d).slack
    while True:
        a = _rational(rng)
        B = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 7)))
        q = [_rational(rng) for _ in range(slack + 1)]
        if q[-1] == 0:
            continue
        try:
            return build_certificate(n, d, QQ(a), QQ(B), Poly(QQ, q))
        except BadParameters:  # q(a) = 0, or f with a repeated root
            continue


def _tampered(rng, cert):
    """The certificate with f or v changed: P stays on the curve (a term
    c (x-a)^j, 0 < j < n, added to f), leaves it, or v loses its shape."""
    x_minus_a = Poly(QQ, (-cert.a, 1))
    c = QQ(Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 5))))
    kind = rng.randrange(3)
    if kind == 0:
        return cert._replace(f=cert.f + x_minus_a ** rng.randrange(1, cert.n) * c)
    if kind == 1:
        return cert._replace(f=cert.f + c)
    return cert._replace(v=cert.v + x_minus_a ** rng.randrange(1, cert.ell0) * c)


def _oracle_runs(cert):
    """f squarefree of degree n, and P = (a, v(a)) a point with y != 0."""
    squarefree = next(c.passed for c in verify_certificate(cert) if c.name == "squarefree")
    pt = cert.point()
    return squarefree and not pt.y.is_zero() and cert.f(pt.x) == pt.y ** cert.d


def _exact_report(cert, max_k):
    """The report whose oracle is the exact engine on the curve over Q."""
    checks = verify_certificate(cert).checks
    pt = cert.point()
    if not _oracle_runs(cert):
        order, detail = None, "not run: f defines no curve, or P is not a point on it"
    else:
        order = order_of_class(SuperellipticCurve(QQ, cert.d, cert.f), pt, max_k)
        detail = f"independent order oracle returned {order}"
    return VerificationReport(checks + (CheckResult("oracle_order", order == cert.m0, detail),),
                              oracle_order=order)


@pytest.mark.parametrize("seed", range(24))
def test_reports_equal_the_exact_engine_over_q(seed):
    rng = random.Random(seed)
    cert = _random_certificate(rng)
    m0 = cert.m0
    for candidate in (cert, _tampered(rng, cert), _tampered(rng, cert)):
        assert verify_certificate(candidate, run_oracle=True) == \
            _exact_report(candidate, 2 * m0), candidate
    assert verify_certificate(cert, run_oracle=True).oracle_order == m0


@pytest.mark.parametrize("answer", [1, None])
def test_an_answer_other_than_m0_mod_q_falls_back_to_q(monkeypatch, answer):
    # None at max_k = 2*m0 would contradict the identity; it is not trusted
    cert = _random_certificate(random.Random(11))
    fields = _spy_oracle(
        monkeypatch, lambda curve, order: answer if curve.field != QQ else order)
    report = verify_certificate(cert, run_oracle=True)
    assert report.passed and report.oracle_order == cert.m0
    assert fields == [poly._GOOD_FIELDS[0], QQ]


def _certificate_m0_320():
    # d = 2, n = 319: ell0 = 160, m0 = 320, slack 159
    rng = random.Random(320)
    q = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(160)]
    return build_certificate(319, 2, QQ(2), QQ(Fraction(3, 2)), Poly(QQ, q))


def test_m0_320_over_q_solves_no_series_over_q(monkeypatch):
    cert = _certificate_m0_320()
    calls = []

    def recording(f, d, a, b, precision, top):
        calls.append((f.field, top))
        return series_root_powers(f, d, a, b, precision, top)

    series_root_powers = orders._series_root_powers
    monkeypatch.setattr(orders, "_series_root_powers", recording)
    report = verify_certificate(cert, run_oracle=True)
    assert report.passed and report.oracle_order == 320
    assert calls == [(poly._GOOD_FIELDS[0], 1)]  # the pass to m0 solves y^1 only
