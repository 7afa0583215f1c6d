import random

import pytest

from supertorsion import (
    GF,
    QQ,
    Poly,
    check_order_structure,
    elliptic_order,
    family_slack1,
    from_kubert,
    is_squarefree,
    to_kubert,
    verify_certificate,
)
from supertorsion.errors import BadParameters, NotSquarefree

from paper_checks import kubert_model_cubic, reduced_cubic_from_family, reduced_cubic_from_kubert


def test_build_family_expansion():
    cert, q2, _ = family_slack1(3, 2, QQ(1), QQ(1))
    assert [c.value for c in cert.f.coeffs] == [1, 2, 3, 2]
    assert cert.point().x == QQ(0) and cert.point().y == QQ(1)
    assert q2.x == QQ(-1) and q2.y == QQ(0)


def test_build_family_degenerations():
    with pytest.raises(NotSquarefree, match="assembled f has repeated roots"):
        family_slack1(3, 2, QQ(2), QQ(4))  # B1^2 - 8B = 0
    with pytest.raises(BadParameters, match="B and B1 must be nonzero"):
        family_slack1(3, 2, QQ(1), QQ(0))
    with pytest.raises(BadParameters, match="characteristic 2 divides d = 2"):
        family_slack1(3, 2, GF(2)(1), GF(2)(1))


def test_build_family_is_squarefree():
    grids = [(QQ, range(-6, 7), range(-6, 7)),
             (GF(101), range(1, 101, 7), range(1, 101, 3))]
    for field, Bs, B1s in grids:
        for B in map(field, Bs):
            for B1 in map(field, B1s):
                if B.is_zero() or B1.is_zero() or (B1 * B1 - 8 * B).is_zero():
                    continue
                assert is_squarefree(family_slack1(3, 2, B, B1)[0].f)


def test_order_structure_rationals():
    rep = check_order_structure(*family_slack1(3, 2, QQ(1), QQ(1)))
    assert rep.passed
    assert rep.order_q0 == 4 and rep.order_q2 == 2
    assert rep.doubling_ok and rep.tangent_ok


def test_order_structure_takes_the_curve_of_its_certificate_only():
    # the build's curve gives the report cert.curve() gives; another curve is refused
    cert, q2, curve = family_slack1(3, 2, QQ(1), QQ(1))
    assert curve.f == cert.f
    assert check_order_structure(cert, q2, cert.curve()) == check_order_structure(cert, q2, curve)
    other = family_slack1(3, 2, QQ(1), QQ(2))[2]
    with pytest.raises(BadParameters, match="^curve is not y\\^2 = f of the certificate$"):
        check_order_structure(cert, q2, other)


def test_order_structure_mod5():
    F = GF(5)
    rep = check_order_structure(*family_slack1(3, 2, F(1), F(1)))
    assert rep.passed


def test_order_structure_random_parameters():
    rng = random.Random(99)
    for _ in range(20):
        B, B1 = QQ(rng.randint(-9, 9)), QQ(rng.randint(-9, 9))
        if B.is_zero() or B1.is_zero() or (B1 * B1 - 8 * B).is_zero():
            continue
        assert check_order_structure(*family_slack1(3, 2, B, B1)).passed
    for _ in range(20):
        p = rng.choice([5, 7, 11, 13])
        F = GF(p)
        B, B1 = F(rng.randrange(1, p)), F(rng.randrange(1, p))
        if (B1 * B1 - 8 * B).is_zero():
            continue
        assert check_order_structure(*family_slack1(3, 2, B, B1)).passed


def test_rr_engine_and_elliptic_law_agree_on_the_certificate():
    # one certificate, two independent order oracles: the function-space
    # engine of verify_certificate and the chord/tangent law of
    # check_order_structure
    rng = random.Random(4)
    F = GF(101)
    pairs = [(QQ(rng.randint(-12, 12)) / QQ(rng.randint(1, 5)),
              QQ(rng.randint(-12, 12)) / QQ(rng.randint(1, 5))) for _ in range(10)]
    pairs += [(F(rng.randrange(101)), F(rng.randrange(101))) for _ in range(10)]
    checked = 0
    for B, B1 in pairs:
        if B.is_zero() or B1.is_zero() or (B1 * B1 - 8 * B).is_zero():
            continue
        cert, q2, curve = family_slack1(3, 2, B, B1)
        report = verify_certificate(cert, run_oracle=True)
        assert report.passed and report.oracle_order == 4
        assert check_order_structure(cert, q2, curve).passed
        checked += 1
    assert checked >= 15
    for b in [QQ(v) for v in (-2, "-1/2", 3, "5/7", -40)] + [F(v) for v in (1, 7, 50, 100)]:
        cert, q2, curve = family_slack1(3, 2, -2 / b, -1 / b)
        assert from_kubert(b)[0] == cert
        report = verify_certificate(cert, run_oracle=True)
        assert report.passed and report.oracle_order == 4
        assert check_order_structure(cert, q2, curve).passed


def test_linear_factor_root_and_cofactor():
    rng = random.Random(3)
    for _ in range(10):
        B, B1 = QQ(rng.randint(1, 9)), QQ(rng.randint(1, 9))
        if (B1 * B1 - 8 * B).is_zero():
            continue
        cert, _, _ = family_slack1(3, 2, B, B1)
        x0 = -B1.inverse()
        assert cert.f(x0).is_zero()
        # the quadratic factor stays nonzero at the linear factor's root,
        # so -1/B1 is always a simple root
        quadratic = Poly(QQ, (1, B1, 2 * B))
        assert quadratic(x0) == 2 * B / (B1 * B1)
        cofactor = cert.f // Poly(QQ, (QQ(1) / B1, QQ(1)))  # f / (x + 1/B1)
        assert cofactor(x0) == B1 * quadratic(x0)
        assert not cofactor(x0).is_zero()


def test_from_kubert_example():
    cert, pmap = from_kubert(QQ(-2))
    assert cert.B == QQ(1) and cert.q[1] == QQ("1/2")
    assert pmap(QQ(0), QQ(0)) == (QQ(0), QQ(1))
    assert elliptic_order(cert.curve(), pmap(QQ(0), QQ(0)), 8) == 4


class _KubertAlgebra:
    """Arithmetic in K[x][y] / (y^2 + xy - by - x^3 + bx^2), elements stored
    as a0(x) + a1(x)*y."""

    def __init__(self, b):
        field = b.field
        # y^2 reduces to (x^3 - b x^2) + (b - x) y
        self.red0 = Poly(field, (0, 0, -b, field.one))
        self.red1 = Poly(field, (b, -field.one))

    def mul(self, A, B):
        a0, a1 = A
        b0, b1 = B
        c2 = a1 * b1
        return (a0 * b0 + c2 * self.red0, a0 * b1 + a1 * b0 + c2 * self.red1)


def test_kubert_maps_symbolically():
    # the point map sends the Kubert relation onto y^2 = f: (c0 + c1 y)^2 - f
    # reduces to 0 modulo it; and both models reduce to the same cubic
    cases = [QQ(b) for b in (-2, "-1/2", 1, 3, "5/7", -40)]
    for p in (7, 101):
        F = GF(p)
        cases += [F(b) for b in range(1, p, max(1, p // 12))]
    checked = 0
    for b in cases:
        if b.is_zero() or (1 + 16 * b).is_zero():
            continue
        field = b.field
        cert, pmap = from_kubert(b)
        image_y = (pmap.c0, Poly(field, (pmap.c1,)))
        square = _KubertAlgebra(b).mul(image_y, image_y)
        assert square == (cert.f, Poly.zero(field))
        assert pmap(field.zero, field.zero) == (field.zero, field.one)
        assert (reduced_cubic_from_family(cert.B, cert.q[1])
                == reduced_cubic_from_kubert(to_kubert(cert), cert.q[1]))
        checked += 1
    assert checked >= 20


def test_from_kubert_degenerate():
    with pytest.raises(BadParameters, match=r"need b\^4 \(1 \+ 16b\) != 0"):
        from_kubert(QQ("-1/16"))
    with pytest.raises(BadParameters, match=r"need b\^4 \(1 \+ 16b\) != 0"):
        from_kubert(QQ(0))
    with pytest.raises(BadParameters, match="b must be a field element"):
        from_kubert(-2)
    # the check and message of build, though B = -2/b is 0 in F_2
    with pytest.raises(BadParameters, match="^characteristic 2 divides d = 2$"):
        from_kubert(GF(2)(1))


def test_to_kubert_examples():
    cert, _, _ = family_slack1(3, 2, QQ(1), QQ("1/2"))
    assert to_kubert(cert) == QQ(-2)
    cert11, _, _ = family_slack1(3, 2, QQ(1), QQ(1))
    assert to_kubert(cert11) == QQ("-1/2")
    # from_kubert(-1/2) lands on the isomorphic member (B, B1) = (4, 2)
    cert42, _ = from_kubert(QQ("-1/2"))
    assert (cert42.B, cert42.q[1]) == (QQ(4), QQ(2))
    common = reduced_cubic_from_family(QQ(1), QQ(1))
    assert [c.value for c in common.coeffs] == [16, 16, 12, 4]
    assert common == reduced_cubic_from_kubert(QQ("-1/2"), QQ(1))


def test_kubert_round_trip_on_parameter():
    rng = random.Random(17)
    for _ in range(25):
        b = QQ(rng.randint(-40, 40)) / QQ(rng.randint(1, 7))
        if b.is_zero() or (1 + 16 * b).is_zero():
            continue
        cert, _ = from_kubert(b)
        assert to_kubert(cert) == b


def test_reduction_chains_agree_for_random_parameters():
    rng = random.Random(23)
    for _ in range(50):
        B = QQ(rng.randint(-9, 9))
        B1 = QQ(rng.randint(-9, 9))
        if B.is_zero() or B1.is_zero() or (B1 * B1 - 8 * B).is_zero():
            continue
        b = -B / (2 * B1 * B1)
        assert reduced_cubic_from_family(B, B1) == reduced_cubic_from_kubert(b, B1)


def test_kubert_cubic_matches_completed_square():
    # y^2 + xy - by = x^3 - bx^2 becomes y^2 = 4x^3 + (1-4b)x^2 - 2bx + b^2
    # after y -> (2y + x - b)/2; spot-check by sampling points
    b = QQ(3)
    cubic = kubert_model_cubic(b)
    for x in range(-3, 4):
        xq = QQ(x)
        lhs = 4 * (xq ** 3 - b * xq ** 2) + (xq - b) ** 2
        assert cubic(xq) == lhs
