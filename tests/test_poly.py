import random
import time
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as strat

from supertorsion import GF, QQ, Poly, TruncatedSeries, is_squarefree, poly_gcd, \
    roots_in_field, series_dth_root
from supertorsion.errors import BadParameters, MathCheckError, UnsupportedField
from supertorsion.poly import (NEG_INF, _GOOD_FIELDS, _mul_values, _packed_product, interpolate,
                               resultant)

from paper_checks import _convolve, compose, reverse


def binomial_power(field, inner_exponent, shift, e):
    """Oracle: (x^inner_exponent + shift)^e expanded by the binomial theorem."""
    coeffs = [0] * (inner_exponent * e + 1)
    for k in range(e + 1):
        coeffs[inner_exponent * k] = comb(e, k) * shift ** (e - k)
    return Poly(field, coeffs)


def test_expand_cube_minus_sixth_power():
    f = (Poly(QQ, (1, 0, 1)) ** 3) - Poly.monomial(QQ, 6)
    assert f == binomial_power(QQ, 2, 1, 3) - Poly.monomial(QQ, 6)
    assert [c.value for c in f.coeffs] == [1, 0, 3, 0, 3]


def test_expand_quartic_difference():
    f = Poly(QQ, (1, 1)) ** 4 - Poly.monomial(QQ, 4)
    assert f == binomial_power(QQ, 1, 1, 4) - Poly.monomial(QQ, 4)
    assert [c.value for c in f.coeffs] == [1, 4, 6, 4]


def test_shift_identity():
    f = Poly(QQ, (3, 2, 1))
    assert f.shift(0) == f


def test_shift_matches_pointwise_evaluation():
    f = Poly(QQ, (1, -2, 0, 5))
    g = f.shift(QQ(3))
    for x in range(-4, 5):
        assert g(QQ(x)) == f(QQ(x + 3))
    for p in (2, 7, 101):
        F = GF(p)
        f = Poly(F, (3, 1, 4, 1, 5, 9, 2, 6))
        for a in (0, 1, p - 1, 5):
            g = f.shift(a)
            assert g == compose(f, Poly(F, (a, 1)))
            assert all(g(F(x)) == f(F(x + a)) for x in range(min(p, 12)))


def test_repr_prints_values():
    assert repr(Poly(QQ, (Fraction(1, 2), 0, 3))) == "Poly(1/2 + 3*x^2)"
    assert repr(Poly(GF(7), (-1, 1))) == "Poly(6 + 1*x)"
    assert repr(Poly.zero(QQ)) == "Poly(0)"


def test_divmod_and_reconstruction():
    f = Poly(QQ, (1, 2, 3, 4, 5))
    g = Poly(QQ, (1, 0, 2))
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_division_by_zero_poly():
    with pytest.raises(MathCheckError, match="polynomial division by zero"):
        divmod(Poly(QQ, (1, 1)), Poly.zero(QQ))


def test_degree_of_zero_is_minus_infinity():
    z = Poly.zero(QQ)
    assert z.degree == NEG_INF
    assert z.degree < 0


def test_derivative_examples():
    f = Poly(QQ, (1, 4, 6, 4))
    assert [c.value for c in f.derivative().coeffs] == [4, 12, 12]
    F3 = GF(3)
    assert Poly(F3, (0, 1, 0, 1)).derivative() == Poly.one(F3)
    assert Poly(QQ, (7,)).derivative().is_zero()


def test_gcd_examples():
    x_minus_1 = Poly(QQ, (-1, 1))
    assert poly_gcd(Poly(QQ, (-1, 0, 1)), x_minus_1) == x_minus_1
    f = Poly(QQ, (1, 4, 6, 4))
    assert poly_gcd(f, f.derivative()).degree == 0
    assert poly_gcd(f, Poly.zero(QQ)) == f.monic()
    with pytest.raises(BadParameters, match=r"gcd\(0, 0\) is undefined"):
        poly_gcd(Poly.zero(QQ), Poly.zero(QQ))


def test_squarefree_examples():
    # (2*2 x^2 + 4x + 1)(4x + 1): the B1^2 = 8B degeneration
    f = Poly(QQ, (1, 4, 4)) * Poly(QQ, (1, 4))
    assert not is_squarefree(f)
    assert is_squarefree(Poly(QQ, (1, 0, 3, 0, 3)))
    assert not is_squarefree(Poly(QQ, (-1, 1)) ** 2)
    assert is_squarefree(Poly(QQ, (5,)))
    f, g = Poly(QQ, (Fraction(1, 3), 2, -5)), Poly(QQ, (7, Fraction(-2, 9)))
    assert is_squarefree(f * g)
    assert not is_squarefree(f * g * g) and not is_squarefree(f * g ** 3)
    with pytest.raises(BadParameters, match="squarefreeness of the zero polynomial"):
        is_squarefree(Poly.zero(QQ))


def test_squarefree_inseparable_warning():
    # f' = 0 makes f a p-th power: not squarefree, and no warning (pytest
    # turns every warning into an error)
    F3 = GF(3)
    assert not is_squarefree(Poly(F3, (1, 0, 0, 1)))  # x^3 + 1 = (x+1)^3


def test_roots_examples():
    F5 = GF(5)
    roots = roots_in_field(Poly(F5, (-4, 0, 1)))
    assert {r.value for r in roots} == {2, 3}
    F7 = GF(7)
    f = Poly(F7, (1, 4, 6, 4))  # (2x + 1)(2x^2 + 2x + 1), discriminant -4 a non-square
    assert [r.value for r in roots_in_field(f)] == [3]
    assert roots_in_field(Poly(F5, (2, 0, 1))) == ()


def test_roots_with_zero_root_and_scaling():
    F7 = GF(7)
    f = Poly(F7, (0, 0, -1, 2))  # x^2 (2x - 1)
    assert [r.value for r in roots_in_field(f)] == [0, 4]


def test_roots_in_field_over_q_is_unsupported():
    # a rational-root search by divisors is exponential in bit size
    for f in (Poly(QQ, (1, 4, 6, 4)), Poly(QQ, (0, 0, -1, 2)), Poly(QQ, (1, 0, 1))):
        with pytest.raises(UnsupportedField):
            roots_in_field(f)


def test_reverse():
    f = Poly(QQ, (1, 2, 3))
    assert [c.value for c in reverse(f, 2).coeffs] == [3, 2, 1]
    assert [c.value for c in reverse(f, 3).coeffs] == [0, 3, 2, 1]


def test_series_sqrt_binomial_oracle():
    # sqrt(1 + t) = 1 + t/2 - t^2/8 + ...: compare to the binomial series
    f = Poly(QQ, (1, 1))
    s = series_dth_root(f, 2, QQ(0), QQ(1), 3)
    def half_binomial(k):
        num, den, top = 1, 1, Fraction(1, 2)
        for i in range(k):
            num *= (top - i)
            den *= (i + 1)
        return Fraction(num) / den
    assert [c.value for c in s.coeffs] == [half_binomial(k) for k in range(3)]


def test_series_precision_one_is_constant():
    s = series_dth_root(Poly(QQ, (4, 1)), 2, QQ(0), QQ(2), 1)
    assert [c.value for c in s.coeffs] == [2]


def test_series_cube_root_verified_by_cubing():
    f = Poly(QQ, (1, 0, 3, 0, 3))
    s = series_dth_root(f, 3, QQ(0), QQ(1), 4)
    assert [c.value for c in s.coeffs] == [1, 0, 1, 0]
    cubed = s ** 3
    shifted = TruncatedSeries.from_poly(f, 4)
    assert cubed == shifted


def test_series_bad_initial_value():
    with pytest.raises(BadParameters, match=r"y0\^d != f\(center\)"):
        series_dth_root(Poly(QQ, (1, 1)), 2, QQ(0), QQ(2), 3)
    with pytest.raises(BadParameters, match="y0 must be nonzero"):  # y0 = 0 solves y0^2 = f(0) but is no start
        series_dth_root(Poly(QQ, (0, 1)), 2, QQ(0), QQ(0), 3)


def test_series_inverse_is_exact():
    s = TruncatedSeries(QQ, (1, 3, -2, 5), 4)
    prod = s * s.inverse()
    assert [c.value for c in prod.coeffs] == [1, 0, 0, 0]


small_polys = strat.lists(strat.integers(-9, 9), min_size=0, max_size=6)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_divmod_reconstruction_property(fc, gc):
    f, g = Poly(QQ, fc), Poly(QQ, gc)
    if g.is_zero():
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


@settings(max_examples=40, deadline=None)
@given(small_polys, strat.lists(strat.integers(-5, 5), min_size=2, max_size=4))
def test_square_factor_never_squarefree(fc, gc):
    f, g = Poly(QQ, fc), Poly(QQ, gc)
    if f.is_zero() or g.is_constant() or g.is_zero():
        return
    assert not is_squarefree(f * g * g)


@settings(max_examples=30, deadline=None)
@given(strat.sampled_from([7, 13, 29]),
       strat.lists(strat.integers(0, 28), min_size=1, max_size=5),
       strat.integers(2, 4))
def test_series_root_property(p, coeffs, d):
    F = GF(p)
    f = Poly(F, [1] + coeffs)  # f(0) = 1, so y0 = 1 works
    s = series_dth_root(f, d, F(0), F(1), 6)
    assert s ** d == TruncatedSeries.from_poly(f, 6)


def test_compose_and_scale_arg():
    rng = random.Random(7)
    for _ in range(10):
        f = Poly(QQ, [rng.randint(-5, 5) for _ in range(5)])
        c = QQ(rng.randint(1, 4))
        scaled = compose(f, Poly(QQ, (0, c)))
        for x in range(-3, 4):
            assert scaled(QQ(x)) == f(c * QQ(x))


def sylvester_determinant(f, g):
    """Res(f, g) as the determinant of the Sylvester matrix, by Gaussian
    elimination over the field."""
    field, m, k = f.field, f.degree, g.degree
    size = m + k
    rows = [[field.zero] * i + list(reversed(f.coeffs)) + [field.zero] * (k - 1 - i)
            for i in range(k)]
    rows += [[field.zero] * i + list(reversed(g.coeffs)) + [field.zero] * (m - 1 - i)
             for i in range(m)]
    det = field.one
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return field.zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].inverse()
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(11)
    for field, draw in ((QQ, lambda: rng.randint(-4, 4)),
                        (GF(13), lambda: rng.randrange(13))):
        for _ in range(60):
            f = Poly(field, [draw() for _ in range(rng.randint(1, 6))])
            g = Poly(field, [draw() for _ in range(rng.randint(1, 6))])
            if f.is_zero() or g.is_zero():
                continue
            assert resultant(f, g) == sylvester_determinant(f, g), (f, g)


def test_resultant_examples():
    F = GF(101)
    # Res(prod (x - r_i), g) = prod g(r_i)
    f = Poly(F, (-2, 1)) * Poly(F, (-5, 1)) * Poly(F, (-7, 1))
    g = Poly(F, (3, 0, 1))
    assert resultant(f, g) == g(F(2)) * g(F(5)) * g(F(7))
    assert not resultant(f, f.derivative()).is_zero()
    assert resultant(f * Poly(F, (-5, 1)), g * Poly(F, (-5, 1))).is_zero()
    assert resultant(Poly(QQ, (3,)), Poly(QQ, (1, 0, 1))) == QQ(9)
    assert resultant(Poly(QQ, (3,)), Poly(QQ, (2,))) == QQ(1)
    with pytest.raises(BadParameters, match="resultant with the zero polynomial"):
        resultant(Poly.zero(QQ), g)


def test_interpolate_round_trip():
    rng = random.Random(12)
    for field, draw in ((QQ, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))),
                        (GF(10009), lambda: rng.randrange(10009))):
        for size in range(0, 9):
            f = Poly(field, [draw() for _ in range(size)])
            points = rng.sample(range(-20, 20), size)
            assert interpolate(field, points, [f(x) for x in points]) == f
    F = GF(7)
    assert interpolate(F, [1, 2, 3], [F(5)] * 3) == Poly(F, (5,))
    with pytest.raises(BadParameters):
        interpolate(F, [1, 8], [F(1), F(2)])  # 1 = 8 in F_7


# --- Q on integer numerators: reference kernels on field values ---

def reference_mul(f, g):
    """The product as one reduced field operation per term pair."""
    field, a, b = f.field, [c.value for c in f.coeffs], [c.value for c in g.coeffs]
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = field.reduce(out[i + j] + u * v)
    return Poly(field, out)


def reference_shift(f, a):
    """f(x + a) by Horner's rule on field values."""
    field, a = f.field, f.field(a).value
    g = []
    for c in reversed([c.value for c in f.coeffs]):  # g <- g*(x + a) + c
        g = [field.reduce(a * u + v) for u, v in zip(g + [0], [0] + g)]
        g[0] = field.reduce(g[0] + c)
    return Poly(field, g)


def reference_eval(f, x):
    """f(x) by Horner's rule on field values, one reduced operation a step."""
    field, x, acc = f.field, f.field(x).value, 0
    for c in reversed([c.value for c in f.coeffs]):
        acc = field.reduce(acc * x + c)
    return field(acc)


def assert_canonical(f):
    """Values are Fractions over Q and residues in [0, p) over F_p."""
    p = f.field.characteristic()
    if p:
        assert all(type(v) is int and 0 <= v < p for v in f.values), f
    else:
        assert all(type(v) is Fraction for v in f.values), f


def kernel_cases(field, rng):
    """Operands with mixed denominators (over Q), zero, constants and linear
    ones (one with a zero constant term), and shift points with
    denominators, plus seeded ones."""
    if field is QQ:
        draw = lambda: Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 4, 6, 9, 35)))
        polys = [Poly(QQ, (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), 0, Fraction(7, 9))),
                 Poly(QQ, (Fraction(2, 3), Fraction(1, 5))), Poly(QQ, (3, 0, -1, 2)),
                 Poly(QQ, (Fraction(3, 7),)), Poly(QQ, (5,)), Poly.zero(QQ),
                 Poly(QQ, (Fraction(-2, 3), Fraction(5, 4)))]
        points = [0, 3, -2, Fraction(-1, 2), Fraction(7, 3), Fraction(5, 6), Fraction(-9, 4)]
    else:
        p = field.characteristic()
        draw = lambda: rng.randrange(p)
        polys = [Poly(field, (1, 2, 3, 4, 5)), Poly(field, (3,)), Poly.one(field),
                 Poly.zero(field)]
        points = [0, 1, p - 1, 5, rng.randrange(p)]
    polys += [Poly(field, (0, 3)), Poly(field, (-2, 1)), Poly(field, (5, -4))]
    polys += [Poly(field, [draw() for _ in range(rng.randint(1, 9))]) for _ in range(12)]
    return polys, points


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(1009), GF(1073741789)], ids=repr)
def test_mul_pow_shift_match_reference_kernels(field):
    """Products, shifts and evaluations; and powers to e = 40, so the packed
    product of ``_pow_ints`` meets signed numerators over Q, residues near
    2^30, and the empty and linear F (the binomial branch)."""
    rng = random.Random(f"kernels:{field!r}")
    polys, points = kernel_cases(field, rng)
    for f in polys:
        for g in polys:
            h = f * g
            assert h == reference_mul(f, g), (f, g)
            assert_canonical(h)
        expected = Poly.one(field)
        for e in range(41):
            assert f ** e == expected, (f, e)
            assert_canonical(f ** e)
            expected = reference_mul(expected, f)
        for a in points:
            g = f.shift(a)
            assert g == reference_shift(f, a), (f, a)
            assert_canonical(g)
            value = f(a)
            assert value == reference_eval(f, a), (f, a)
            assert_canonical(Poly._from_values(field, [value.value]))


def product_operands(entries):
    """Lists of 0..64 drawn entries, all-zero lists and one-term lists."""
    return strat.one_of(strat.lists(entries, max_size=64),
                        strat.integers(0, 64).map(lambda n: [0] * n),
                        entries.map(lambda c: [c]))


def schoolbook(a, b, mod=None):
    """The reference product of ``_convolve``, reduced mod ``mod`` if given;
    empty when an operand is."""
    out = _convolve(a, b, len(a) + len(b) - 1 if a and b else 0)
    return [c % mod for c in out] if mod else out


PRODUCT_MODULI = [2, 3, 241, 1073741789]
BIG = 2 ** 200


@pytest.mark.parametrize("mod", PRODUCT_MODULI + [None], ids=lambda m: f"F{m}" if m else "Z")
@settings(max_examples=60, deadline=None)
@given(data=strat.data())
def test_packed_product_matches_the_schoolbook(mod, data):
    """Over F_p on nonnegative entries, reduced or not; over Z with signs."""
    entries = strat.integers(0 if mod else -BIG, BIG) | strat.integers(0 if mod else -9, 9)
    a = data.draw(product_operands(entries))
    b = a if data.draw(strat.booleans()) else data.draw(product_operands(entries))
    assert _packed_product(a, b, mod) == schoolbook(a, b, mod)


@pytest.mark.parametrize("field", [GF(m) for m in PRODUCT_MODULI] + [QQ], ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=strat.data())
def test_poly_and_value_products_match_the_schoolbook(field, data):
    """``Poly.__mul__`` and ``_mul_values`` on untrimmed value lists, whose
    all-zero operands are the series' case; over Q with denominators."""
    p = field.characteristic()
    if p:
        entries = strat.integers(0, p - 1)
    else:
        entries = strat.builds(Fraction, strat.integers(-BIG, BIG) | strat.integers(-9, 9),
                               strat.sampled_from([1, 2, 3, 35, 2 ** 61 - 1]))
    a = data.draw(product_operands(entries))
    b = a if data.draw(strat.booleans()) else data.draw(product_operands(entries))
    expected = schoolbook(a, b, p)
    assert _mul_values(field, a, b) == expected
    f, g = Poly(field, a), Poly(field, b)
    h = f * (f if a is b else g)
    assert h == Poly(field, expected)
    assert_canonical(h)


@pytest.mark.parametrize("mod", [None, 1009])
def test_packed_product_slots_hold_each_operand(mod):
    # the product bound is 0 beside an all-zero operand; 1000 still needs two bytes
    assert _packed_product([0, 0], [1000, 1], mod) == [0, 0, 0]
    assert _packed_product([1000, 1], [0, 0], mod) == [0, 0, 0]


def test_pow_of_a_linear_base_over_f7_is_frobenius():
    F = GF(7)
    assert Poly(F, (1, 1)) ** 7 == Poly(F, (1, 0, 0, 0, 0, 0, 0, 1))
    assert Poly(F, (3, 2)) ** 14 == Poly(F, (3, 0, 0, 0, 0, 0, 0, 2)) ** 2


def euclid_is_squarefree(f):
    """Exact Euclid on Fraction lists: gcd(f, f') is a nonzero constant."""
    def trimmed(values):
        while values and values[-1] == 0:
            values.pop()
        return values
    a = trimmed([Fraction(c.value) for c in f.coeffs])
    b = trimmed([i * a[i] for i in range(1, len(a))])
    while b:
        r = a[:]
        while len(r) >= len(b):
            c, offset = r[-1] / b[-1], len(r) - len(b)
            for i, y in enumerate(b):
                r[offset + i] -= c * y
            trimmed(r)
        a, b = b, r
    return len(a) == 1


def test_squarefree_over_q_matches_exact_euclid():
    rng = random.Random(41)
    draw = lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 6))
    answers = set()
    for _ in range(150):
        f = Poly(QQ, [draw() for _ in range(rng.randint(2, 6))])
        if f.is_constant():
            continue
        if rng.random() < 0.4:  # a square factor
            g = Poly(QQ, [draw() for _ in range(rng.randint(2, 3))])
            if not g.is_constant():
                f = f * g * g
        answers.add(is_squarefree(f))
        assert is_squarefree(f) == euclid_is_squarefree(f), f
    assert answers == {True, False}


def test_squarefree_over_q_falls_back_when_every_prime_fails():
    q = prod(field.characteristic() for field in _GOOD_FIELDS)
    # x^2 - q1 q2 q3 is squarefree over Q but x^2 modulo every good prime
    f = Poly(QQ, (-q, 0, 1))
    for field in _GOOD_FIELDS:
        g = Poly(field, (-q, 0, 1))
        assert poly_gcd(g, g.derivative()).degree == 1
    assert is_squarefree(f) and euclid_is_squarefree(f)
    # a leading numerator divisible by every good prime: no reduction keeps
    # the degree, so only the exact Euclid answers
    cases = [(Poly(QQ, (1, 1, 0, q)), True),
             (Poly(QQ, (-1, 0, 0, 0, Fraction(q, 5))), True),
             (Poly(QQ, (Fraction(1, 3), q)) ** 2 * Poly(QQ, (2, 1)), False)]
    for f, squarefree in cases:
        ints, _ = QQ.split(f.values)
        assert all(Poly(field, ints).degree < f.degree for field in _GOOD_FIELDS)
        assert is_squarefree(f) == euclid_is_squarefree(f) == squarefree, f


def test_squarefree_over_q_large_coefficients_is_fast():
    rng = random.Random(200)
    big = lambda k: Poly(QQ, [rng.getrandbits(200) - 2 ** 199 for _ in range(k)])
    f, g, h = big(11), big(4), big(5)
    start = time.perf_counter()
    answers = is_squarefree(f), is_squarefree(h * g * g)
    assert time.perf_counter() - start < 0.5
    assert answers == (euclid_is_squarefree(f), False)
