import random

import pytest

from supertorsion import (
    GF,
    QQ,
    Poly,
    build_family,
    check_order_structure,
    elliptic_order,
    from_kubert,
    is_squarefree,
    kubert_curve,
    to_kubert,
)
from supertorsion.elliptic4 import (
    kubert_model_cubic,
    reduced_cubic_from_family,
    reduced_cubic_from_kubert,
)
from supertorsion.errors import CharTwo, Degenerate, DegenerateB, ZeroParameter


def test_build_family_expansion():
    fam = build_family(QQ(1), QQ(1))
    assert [c.value for c in fam.f.coeffs] == [1, 2, 3, 2]
    assert fam.q0.x == QQ(0) and fam.q0.y == QQ(1)
    assert fam.q2.x == QQ(-1) and fam.q2.y == QQ(0)


def test_build_family_degenerations():
    with pytest.raises(Degenerate):
        build_family(QQ(2), QQ(4))  # B1^2 - 8B = 0
    with pytest.raises(ZeroParameter):
        build_family(QQ(1), QQ(0))
    with pytest.raises(CharTwo):
        build_family(GF(2)(1), GF(2)(1))


def test_build_family_is_squarefree():
    grids = [(QQ, range(-6, 7), range(-6, 7)),
             (GF(101), range(1, 101, 7), range(1, 101, 3))]
    for field, Bs, B1s in grids:
        for B in map(field, Bs):
            for B1 in map(field, B1s):
                if B.is_zero() or B1.is_zero() or (B1 * B1 - 8 * B).is_zero():
                    continue
                assert is_squarefree(build_family(B, B1).f)


def test_order_structure_rationals():
    rep = check_order_structure(build_family(QQ(1), QQ(1)))
    assert rep.passed
    assert rep.order_q0 == 4 and rep.order_q2 == 2
    assert rep.doubling_ok and rep.tangent_ok


def test_order_structure_mod5():
    F = GF(5)
    rep = check_order_structure(build_family(F(1), F(1)))
    assert rep.passed


def test_order_structure_random_parameters():
    rng = random.Random(99)
    for _ in range(20):
        B, B1 = QQ(rng.randint(-9, 9)), QQ(rng.randint(-9, 9))
        if B.is_zero() or B1.is_zero() or (B1 * B1 - 8 * B).is_zero():
            continue
        assert check_order_structure(build_family(B, B1)).passed
    for _ in range(20):
        p = rng.choice([5, 7, 11, 13])
        F = GF(p)
        B, B1 = F(rng.randrange(1, p)), F(rng.randrange(1, p))
        if (B1 * B1 - 8 * B).is_zero():
            continue
        assert check_order_structure(build_family(B, B1)).passed


def test_linear_factor_root_and_cofactor():
    rng = random.Random(3)
    for _ in range(10):
        B, B1 = QQ(rng.randint(1, 9)), QQ(rng.randint(1, 9))
        if (B1 * B1 - 8 * B).is_zero():
            continue
        fam = build_family(B, B1)
        x0 = -B1.inverse()
        assert fam.f(x0).is_zero()
        # the quadratic factor stays nonzero at the linear factor's root,
        # so -1/B1 is always a simple root
        quadratic = Poly(QQ, (1, B1, 2 * B))
        assert quadratic(x0) == 2 * B / (B1 * B1)
        cofactor = fam.f // Poly(QQ, (QQ(1) / B1, QQ(1)))  # f / (x + 1/B1)
        assert cofactor(x0) == B1 * quadratic(x0)
        assert not cofactor(x0).is_zero()


def test_from_kubert_example():
    fam, pmap = from_kubert(QQ(-2))
    assert fam.B == QQ(1) and fam.B1 == QQ("1/2")
    assert pmap(QQ(0), QQ(0)) == (QQ(0), QQ(1))
    assert elliptic_order(fam.curve(), pmap(QQ(0), QQ(0)), 8) == 4


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
        fam, pmap = from_kubert(b)
        image_y = (pmap.c0, Poly.constant(pmap.c1))
        square = _KubertAlgebra(b).mul(image_y, image_y)
        assert square == (fam.f, Poly.zero(field))
        assert pmap(field.zero, field.zero) == (field.zero, field.one)
        assert (reduced_cubic_from_family(fam.B, fam.B1)
                == reduced_cubic_from_kubert(to_kubert(fam), fam.B1))
        checked += 1
    assert checked >= 20


def test_from_kubert_degenerate():
    with pytest.raises(DegenerateB):
        kubert_curve(QQ("-1/16"))
    with pytest.raises(DegenerateB):
        from_kubert(QQ(0))


def test_to_kubert_examples():
    fam = build_family(QQ(1), QQ("1/2"))
    assert to_kubert(fam) == QQ(-2)
    fam11 = build_family(QQ(1), QQ(1))
    assert to_kubert(fam11) == QQ("-1/2")
    # from_kubert(-1/2) lands on the isomorphic member (B, B1) = (4, 2)
    fam42, _ = from_kubert(QQ("-1/2"))
    assert (fam42.B, fam42.B1) == (QQ(4), QQ(2))
    common = reduced_cubic_from_family(QQ(1), QQ(1))
    assert [c.value for c in common.coeffs] == [16, 16, 12, 4]
    assert common == reduced_cubic_from_kubert(QQ("-1/2"), QQ(1))


def test_kubert_round_trip_on_parameter():
    rng = random.Random(17)
    for _ in range(25):
        b = QQ(rng.randint(-40, 40)) / QQ(rng.randint(1, 7))
        if b.is_zero() or (1 + 16 * b).is_zero():
            continue
        fam, _ = from_kubert(b)
        assert to_kubert(fam) == b


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
