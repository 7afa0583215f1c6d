"""The F_p primitives against brute-force reference scans, and known answers
at a prime near 10^6.

The references are field-wide scans: the smallest element of order m, the
smallest r with r^k = x, evaluation at every residue, and a scan over every
y.  Everything is exact, so each comparison is an equality in the library's
documented order.
"""

import random
from itertools import product

import pytest

from supertorsion import GF, Poly, SuperellipticCurve, is_squarefree, roots_in_field
from supertorsion.cli import EXIT_OK, dispatch
from supertorsion.fields import is_prime

PRIMES = [p for p in range(2, 500) if is_prime(p)]


def reference_orders(p):
    """The multiplicative order of every unit, by repeated multiplication."""
    orders = {}
    for a in range(1, p):
        x, o = a, 1
        while x != 1:
            x, o = x * a % p, o + 1
        orders[a] = o
    return orders


def reference_roots_of_unity(p, m, orders):
    """Powers of the smallest element of order exactly m."""
    g = min(a for a, o in orders.items() if o == m)
    return [pow(g, i, p) for i in range(m)]


def reference_kth_roots(p, k):
    """{x: smallest r with r^k = x} over every residue r."""
    first = {}
    for r in range(p):
        first.setdefault(pow(r, k, p), r)
    return first


def reference_roots(f):
    return tuple(x.value for x in f.field.elements() if f(x).is_zero())


def reference_ys_above(curve, x):
    target = curve.f(x)
    return [y.value for y in curve.field.elements() if y ** curve.d == target]


def linear(F, r):
    return Poly(F, (-r, 1))


def test_roots_of_unity_matches_order_scan():
    for p in PRIMES:
        F, orders = GF(p), reference_orders(p)
        for m in range(1, p):
            if (p - 1) % m == 0:
                got = [z.value for z in F.roots_of_unity(m)]
                assert got == reference_roots_of_unity(p, m, orders), (p, m)


def test_nth_root_matches_smallest_root_scan():
    for p in PRIMES:
        F = GF(p)
        for k in (2, 3, 4, 5, 6):
            first = reference_kth_roots(p, k)
            for x in range(p):
                r = F.nth_root(F(x), k)
                assert (None if r is None else r.value) == first.get(x), (p, k, x)


def test_nth_root_prime_power_exponents():
    # k sharing a high prime power with p - 1 runs the full Pohlig-Hellman
    # digit loop (257 - 1 = 2^8, 163 - 1 = 2 * 3^4)
    for p, ks in ((257, (8, 16, 64, 256, 512)), (163, (9, 27, 81, 162, 243))):
        F = GF(p)
        for k in ks:
            first = reference_kth_roots(p, k)
            for x in range(p):
                r = F.nth_root(F(x), k)
                assert (None if r is None else r.value) == first.get(x), (p, k, x)


def test_roots_in_field_every_small_polynomial_over_f2_f3():
    for p in (2, 3):
        F = GF(p)
        for coeffs in product(range(p), repeat=5):
            f = Poly(F, coeffs)
            if not f.is_zero():
                assert tuple(r.value for r in roots_in_field(f)) == reference_roots(f)


def test_roots_in_field_matches_evaluation_scan():
    rng = random.Random(20260117)
    for p in [q for q in PRIMES if q < 100] + [101, 257, 499]:
        F = GF(p)
        assert roots_in_field(Poly(F, (rng.randrange(1, p),))) == ()
        for _ in range(4):
            f = Poly(F, [rng.randrange(p) for _ in range(rng.randint(1, 4))])
            if f.is_zero():
                continue
            f = f * Poly.monomial(F, rng.randint(0, 3))           # a factor x^k
            r = rng.randrange(p)
            f = f * linear(F, r) ** rng.randint(1, 3)             # a repeated root
            for _ in range(rng.randint(0, 3)):
                f = f * linear(F, rng.randrange(p))
            assert tuple(r.value for r in roots_in_field(f)) == reference_roots(f), (p, f)


def test_points_above_matches_y_scan():
    rng = random.Random(20260118)
    for p in [q for q in PRIMES if 3 <= q < 100]:
        F = GF(p)
        for d in (2, 3, 4, 5, 6):
            if d % p == 0:
                continue
            # y^d = (x - r) g(x) with deg f = d + 1, so x = r gives y = 0
            while True:
                r = rng.randrange(p)
                f = linear(F, r) * Poly(F, [rng.randrange(p) for _ in range(d)] + [1])
                if is_squarefree(f):
                    break
            curve = SuperellipticCurve(F, d, f)
            xs = range(p) if p < 40 else [r] + [rng.randrange(p) for _ in range(15)]
            for x in xs:
                pts = curve.points_above(F(x))
                assert all(pt.x == F(x) for pt in pts)
                assert [pt.y.value for pt in pts] == reference_ys_above(curve, F(x)), \
                    (p, d, x)


# p = 1000033: p - 1 = 2^5 * 3 * 11 * 947, so mu_4 and mu_3 lie in F_p.
# A field-wide scan at this size takes minutes (roots of unity: hours);
# the answers below were cross-checked with an independent implementation.
BIG_P = 1000033


def test_large_prime_known_answers():
    F = GF(BIG_P)
    assert is_prime(BIG_P) and (BIG_P - 1) % 12 == 0
    # 350504 and 649529 are the two square roots of -1
    assert [z.value for z in F.roots_of_unity(4)] == [1, 350504, BIG_P - 1, 649529]
    assert F.nth_root(F(123456 ** 2), 2) == F(123456)      # roots 123456, 876577
    assert F.nth_root(F(654321 ** 3), 3) == F(29294)       # roots 29294, 316418, 654321
    assert F.nth_root(F(5), 2) is None                     # 5 is a non-residue
    f = (linear(F, 500000) * linear(F, 3) ** 2 * Poly.monomial(F, 1)
         * linear(F, 1000) * Poly(F, (-5, 0, 1)))          # x^2 - 5 is irreducible
    assert [r.value for r in roots_in_field(f)] == [0, 3, 1000, 500000]
    curve = SuperellipticCurve(F, 3, Poly(F, (654321 ** 3, 0, 0, 0, 1)))
    assert [pt.y.value for pt in curve.points_above(F(0))] == [29294, 316418, 654321]
    assert [pt.y.value for pt in curve.points_above(F(2))] == [114692, 374267, 511074]
    assert curve.points_above(F(1)) == ()                  # f(1) is not a cube


# the subsets are not alternate roots, so bad_lambda_set needs no field scan
# either; confirmed_bad_lambdas tests a few dozen lambdas at any p
@pytest.mark.parametrize("p,n,subset", [
    (1009, 3, "0,1"),
    (100049, 3, "0,1"),
    (1000000009, 3, "0,1"),
    (1000000009, 5, "0,1,2"),
])
def test_large_prime_bad_lambdas_cli(capsys, p, n, subset):
    code = dispatch(["two-packet", "bad-lambdas", "--p", str(p), "--n", str(n),
                     "--I", subset, "--C", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert '"contained": true' in out
