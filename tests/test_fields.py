import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as strat

from supertorsion import GF, QQ, Poly, PrimeField
from supertorsion.errors import BadParameters, MathCheckError, UnsupportedField
from supertorsion.fields import is_prime


def xgcd(a, b):
    """Reference extended Euclid, used as the inversion oracle."""
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_r, old_s


def test_rational_add_exact():
    assert QQ("2/3") + QQ("1/6") == QQ("5/6")


def test_rational_canonical_form():
    x = QQ((2, -4))
    assert x.value == Fraction(-1, 2)
    assert x.value.denominator == 2 and x.value.numerator == -1


def test_fp_inverse_matches_euclid_oracle():
    F = GF(13)
    g, s = xgcd(5, 13)
    assert g == 1 and s % 13 == 8
    assert F(5).inverse() == F(8)
    assert F(5) * F(8) == F.one


def test_fp_negation():
    assert -GF(5)(1) == GF(5)(4)


def test_division_by_zero():
    with pytest.raises(MathCheckError, match="inverse of zero"):
        QQ(1) / QQ(0)
    with pytest.raises(MathCheckError, match="inverse of zero"):
        GF(7)(0).inverse()


def test_field_mismatch():
    with pytest.raises(BadParameters, match=r"GF\(5\) vs GF\(7\)"):
        GF(5)(1) + GF(7)(1)
    with pytest.raises(BadParameters, match=r"QQ vs GF\(7\)"):
        QQ(1) + GF(7)(1)
    # polynomials hold bare values, so the field check happens on the way in
    with pytest.raises(BadParameters, match="cannot coerce across fields"):
        Poly(GF(7), [GF(5)(1)])
    with pytest.raises(BadParameters, match="cannot coerce a prime-field element into Q"):
        Poly(QQ, [GF(7)(1)])
    with pytest.raises(BadParameters, match="polynomials over different fields"):
        Poly(GF(5), (1, 1)) + Poly(GF(7), (1, 1))
    with pytest.raises(BadParameters, match="cannot coerce across fields"):
        Poly(GF(5), (1, 1)) * GF(7)(2)


def test_an_element_hashes_as_the_value_it_equals():
    # equal objects must hash equal, so a set of bare values finds an element
    assert GF(7)(3) == 3 and 3 in {GF(7)(3)} and GF(7)(3) in {3}
    assert {GF(7)(3)} == {3} and {GF(7)(3): "x"}[3] == "x"
    assert QQ(Fraction(1, 2)) == Fraction(1, 2) and Fraction(1, 2) in {QQ("1/2")}
    assert {QQ(Fraction(1, 2))} == {Fraction(1, 2)} and QQ(2) in {2}
    # elements of two fields may share a hash; equality still tells them apart
    assert hash(GF(5)(3)) == hash(GF(7)(3)) and len({GF(5)(3), GF(7)(3)}) == 2
    # the one mismatch left: equal to a non-canonical int of its class, not hashed alike
    assert GF(7)(3) == 10 and 10 not in {GF(7)(3)}


def test_power_with_huge_exponent():
    # three-argument pow: value ** e would not finish at e = 10^18
    F = GF(1000003)
    assert F(3) ** 10**18 == F(pow(3, 10**18, 1000003))
    assert F(3) ** -(10**18) == F(pow(3, 10**18, 1000003)).inverse()
    assert QQ(2) ** -3 == QQ("1/8")


def test_non_prime_rejected():
    with pytest.raises(BadParameters):
        PrimeField(12)


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20000) if is_prime(n)] == \
        [n for n in range(20000) if trial_division_is_prime(n)]


@pytest.mark.parametrize("n", [
    3215031751,                  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,         # ... to bases 2 through 23
    318665857834031151167461,    # ... to bases 2 through 37
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large_prime_is_fast():
    start = time.perf_counter()
    assert is_prime(10**17 + 3)
    assert time.perf_counter() - start < 0.5


def test_is_prime_undecided_above_bound():
    # the bound itself is the least strong pseudoprime to bases 2 through 41
    with pytest.raises(BadParameters):
        is_prime(3317044064679887385961981)
    assert not is_prime(3317044064679887385961981 * 2)  # a base divides it


def test_nth_root_fp_by_exhaustive_oracle():
    F = GF(13)
    squares_of_12 = [r for r in range(13) if r * r % 13 == 12]
    assert squares_of_12 == [5, 8]
    assert F.nth_root(F(12), 2) == F(5)  # deterministic: smallest residue


def test_nth_root_rationals():
    assert QQ.nth_root(QQ(8), 3) == QQ(2)
    assert QQ.nth_root(QQ(2), 2) is None
    assert QQ.nth_root(QQ("27/8"), 3) == QQ("3/2")
    assert QQ.nth_root(QQ(-8), 3) == QQ(-2)
    assert QQ.nth_root(QQ(-4), 2) is None


def test_roots_of_unity_f13():
    F = GF(13)
    roots = F.roots_of_unity(4)
    assert [r.value for r in roots] == [1, 5, 12, 8]
    # oracle: 5 really has order 4 by direct powering
    assert pow(5, 2, 13) != 1 and pow(5, 4, 13) == 1


def test_roots_of_unity_rationals():
    assert [r.value for r in QQ.roots_of_unity(2)] == [1, -1]
    assert [r.value for r in QQ.roots_of_unity(1)] == [1]
    with pytest.raises(UnsupportedField):
        QQ.roots_of_unity(3)


def test_roots_of_unity_requires_divisibility():
    with pytest.raises(UnsupportedField):
        GF(5).roots_of_unity(3)


@pytest.mark.parametrize("p,m", [(13, 4), (13, 3), (29, 4), (7, 6), (11, 5)])
def test_roots_of_unity_properties(p, m):
    F = GF(p)
    roots = F.roots_of_unity(m)
    assert len(set(roots)) == m
    for z in roots:
        assert z ** m == F.one
    # no proper power relation collapses the set
    assert len({z ** k for z in roots for k in range(1, m)} | set(roots)) >= m


rationals = strat.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                            max_denominator=10 ** 4)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals)
def test_field_axioms_rationals(a, b, c):
    x, y, z = QQ(a), QQ(b), QQ(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=60, deadline=None)
@given(strat.sampled_from([5, 13, 97]), strat.integers(0, 10 ** 6),
       strat.integers(0, 10 ** 6), strat.integers(0, 10 ** 6))
def test_field_axioms_fp(p, a, b, c):
    F = GF(p)
    x, y, z = F(a), F(b), F(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not y.is_zero():
        assert (x / y) * y == x
        assert y * y.inverse() == F.one


@settings(max_examples=40, deadline=None)
@given(strat.sampled_from([5, 13, 29]), strat.integers(0, 10 ** 4),
       strat.integers(1, 6))
def test_nth_root_always_verifies(p, a, k):
    F = GF(p)
    x = F(a)
    r = F.nth_root(x, k)
    if r is not None:
        assert r ** k == x
