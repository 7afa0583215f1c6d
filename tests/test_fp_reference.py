"""The F_p primitives against brute-force reference scans, the polynomial
kernels against the Poly-level loops they replaced, and known answers at a
prime near 10^6.

The scan references are field-wide: the smallest element of order m, the
smallest r with r^k = x, evaluation at every residue, and a scan over every
y.  The loop references are long division with one reduction per update,
Euclid's algorithm on ``Poly`` remainders, Euclid's resultant and
right-to-left repeated squaring.  Everything is exact, so each comparison is
an equality in the library's documented order.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from supertorsion import (GF, QQ, Poly, SuperellipticCurve, is_squarefree, poly_gcd, poly_xgcd,
                          roots_in_field)
from supertorsion.cli import EXIT_OK, dispatch
from supertorsion.errors import BadParameters
from supertorsion.fields import is_prime
from supertorsion.poly import resultant

SRC = Path(__file__).resolve().parent.parent / "src"
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
    return tuple(x.value for x in map(f.field, range(f.field.p)) if f(x).is_zero())


def reference_ys_above(curve, x):
    target = curve.f(x)
    return [y.value for y in map(curve.field, range(curve.field.p)) if y ** curve.d == target]


def linear(F, r):
    return Poly(F, (-r, 1))


def reference_divmod(f, g):
    """Long division of Polys, one reduction per coefficient update."""
    field, red, b = f.field, f.field.reduce, g.values
    rem = list(f.values)
    dq = len(rem) - len(b)
    if dq < 0:
        return Poly.zero(field), f
    quo = [field.zero.value] * (dq + 1)
    inv_lead = field.inv(b[-1])
    for shift in range(dq, -1, -1):
        top = rem[shift + len(b) - 1]
        if not top:
            continue
        c = quo[shift] = red(top * inv_lead)
        for i, y in enumerate(b):
            rem[shift + i] = red(rem[shift + i] - c * y)
    return Poly(field, quo), Poly(field, rem)


def reference_gcd(f, g):
    """Monic gcd by Euclid on Poly remainders."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, reference_divmod(a, b)[1]
    return a.monic()


def reference_xgcd(f, g):
    field = f.field
    r0, r1 = f, g
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = reference_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead_inv = r0.leading.inverse()
    return r0 * lead_inv, s0 * lead_inv, t0 * lead_inv


def reference_resultant(f, g):
    """Euclid's resultant: Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r)."""
    res = f.field.one
    while g.degree > 0:
        r = reference_divmod(f, g)[1]
        if r.is_zero():
            return f.field.zero
        if f.degree * g.degree % 2:
            res = -res
        res = res * g.leading ** (f.degree - r.degree)
        f, g = g, r
    return res * g.leading ** f.degree


def reference_powmod(base, e, modulus):
    """base^e mod modulus by right-to-left repeated squaring."""
    result, base = Poly.one(base.field), reference_divmod(base, modulus)[1]
    while e:
        if e & 1:
            result = reference_divmod(result * base, modulus)[1]
        e >>= 1
        if e:
            base = reference_divmod(base * base, modulus)[1]
    return result


def reference_is_squarefree(f):
    fp = f.derivative()
    return not fp.is_zero() and reference_gcd(f, fp).degree == 0


def reference_split_linear(g):
    """Roots of a monic product of distinct linear factors over F_p: split by
    gcd((x+a)^((p-1)/2) - 1, g) for a = 0, 1, ..."""
    field, p = g.field, g.field.p
    if g.degree < 1:
        return []
    if g.degree == 1:
        return [(-g[0]).value]
    if g[0].is_zero():
        return [0] + reference_split_linear(Poly(field, g.coeffs[1:]))
    for a in range(p):
        h = reference_gcd(g, reference_powmod(Poly(field, (a, 1)), (p - 1) // 2, g) - 1)
        if 0 < h.degree < g.degree:
            return reference_split_linear(h) + reference_split_linear(reference_divmod(g, h)[0])
    raise AssertionError(f"no shift splits {g!r}")


def reference_roots_in_field(f):
    """Residues of the roots over F_p, ascending: gcd(f, x^p - x), then split."""
    x = Poly.x(f.field)
    if f.is_constant():
        return ()
    return tuple(sorted(reference_split_linear(
        reference_gcd(f, reference_powmod(x, f.field.p, f) - x))))


KERNEL_FIELDS = [GF(2), GF(3), GF(7), GF(1009), GF(2147483647), QQ]


def random_poly(rng, field, degree):
    """A seeded polynomial of exactly this degree (-1: zero), rarely monic."""
    def draw():
        if field == QQ:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return rng.randrange(field.p)

    if degree < 0:
        return Poly.zero(field)
    coeffs = [draw() for _ in range(degree + 1)]
    while not field(coeffs[-1]):
        coeffs[-1] = draw()
    return Poly(field, coeffs)


def kernel_pairs(rng, field, count=40):
    """(f, g) pairs: zero and constant operands, unrelated pairs, and pairs
    sharing a planted factor."""
    pairs = [(Poly.zero(field), Poly.zero(field)),
             (Poly.zero(field), random_poly(rng, field, 3)),
             (random_poly(rng, field, 2), Poly.zero(field)),
             (random_poly(rng, field, 0), random_poly(rng, field, 4)),
             (random_poly(rng, field, 5), random_poly(rng, field, 0))]
    for _ in range(count):
        common = random_poly(rng, field, rng.randint(0, 3))
        pairs.append((common * random_poly(rng, field, rng.randint(0, 4)),
                      common * random_poly(rng, field, rng.randint(0, 4))))
    return pairs


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_gcd_xgcd_resultant_divmod_match_references(field):
    rng = random.Random(f"kernels:{field!r}")
    for f, g in kernel_pairs(rng, field):
        if not g.is_zero():
            assert divmod(f, g) == reference_divmod(f, g), (f, g)
        if f.is_zero() and g.is_zero():
            with pytest.raises(BadParameters, match=r"^gcd\(0, 0\) is undefined"):
                poly_gcd(f, g)
            with pytest.raises(BadParameters, match=r"^xgcd\(0, 0\) is undefined"):
                poly_xgcd(f, g)
            continue
        assert poly_gcd(f, g) == reference_gcd(f, g), (f, g)
        h, s, t = poly_xgcd(f, g)
        assert (h, s, t) == reference_xgcd(f, g), (f, g)
        # Bezout: s f + t g = h, with h monic and dividing both f and g
        assert s * f + t * g == h and h.leading == field.one, (f, g)
        assert reference_divmod(f, h)[1].is_zero() and reference_divmod(g, h)[1].is_zero()
        if f.is_zero() or g.is_zero():
            with pytest.raises(BadParameters, match="resultant with the zero polynomial"):
                resultant(f, g)
        else:
            assert resultant(f, g) == reference_resultant(f, g), (f, g)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_is_squarefree_and_roots_match_references(field):
    rng = random.Random(f"roots:{field!r}")
    polys = [random_poly(rng, field, 0)]
    for _ in range(30):
        # planted roots in half the draws, a repeated factor in a third
        f = random_poly(rng, field, rng.randint(1, 6))
        for _ in range(rng.choice((0, 0, 1, 2))):
            f = f * random_poly(rng, field, 1)
        if rng.random() < 0.35:
            f = f * random_poly(rng, field, rng.randint(1, 2)) ** 2
        polys.append(f)
    for f in polys:
        assert is_squarefree(f) == (f.is_constant() or reference_is_squarefree(f)), f
        if field != QQ:
            assert tuple(r.value for r in roots_in_field(f)) == reference_roots_in_field(f), f


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


ROOT_PRIMES = (2, 3, 5, 13, 241, 1009, 2 ** 31 - 1)


def irreducible_quadratic(F):
    """x^2 + x + 1 over F_2, else x^2 - c for the smallest non-residue c."""
    p = F.p
    if p == 2:
        return Poly(F, (1, 1, 1))
    return Poly(F, (-next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1), 0, 1))


@pytest.mark.parametrize("p", ROOT_PRIMES)
def test_roots_in_field_matches_reference_split_linear(p):
    # f = unit * prod (x - r)^m * q^k for an irreducible quadratic q: its roots
    # are those of prod (x - r), which reference_split_linear splits
    F, rng = GF(p), random.Random(f"split:{p}")
    q, r = irreducible_quadratic(F), rng.randrange(1, p)
    cases = [({r}, (1,), 0), ({0}, (1,), 0),              # degree 1
             ({r}, (2,), 0), ({0}, (2,), 0),              # a double root
             ({0, r}, (1, 1), 0), (set(), (), 1),         # two roots; none
             ({0, r}, (3, 2), 1), ({r}, (1,), 2)]
    for _ in range(12):
        roots = {rng.randrange(p) for _ in range(rng.randint(0, 5))}
        if rng.random() < 0.4:
            roots.add(0)
        cases.append((roots, [rng.randint(1, 3) for _ in roots], rng.randint(0, 2)))
    for roots, mults, k in cases:
        f = Poly(F, (rng.randrange(1, p),)) * q ** k
        distinct = Poly.one(F)
        for root, m in zip(sorted(roots), mults):
            f, distinct = f * linear(F, root) ** m, distinct * linear(F, root)
        if f.is_constant():
            continue
        expected = tuple(sorted(reference_split_linear(distinct)))
        assert tuple(x.value for x in roots_in_field(f)) == expected, (p, f)


def test_reused_field_answers_like_a_fresh_one():
    # a field keeps its elements of each order; the second pass reads them
    for p in (13, 241, 1009, 2 ** 31 - 1):
        F, rng = GF(p), random.Random(f"reuse:{p}")
        xs = [rng.randrange(p) for _ in range(8)]
        for _ in range(2):
            for m in (m for m in range(1, 50) if (p - 1) % m == 0):
                assert F.roots_of_unity(m) == GF(p).roots_of_unity(m), (p, m)
            for k in (2, 3, 4, 6, 8):
                for x in xs + [pow(x, k, p) for x in xs]:
                    assert F.nth_root(F(x), k) == GF(p).nth_root(GF(p)(x), k), (p, k, x)


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


def test_degenerate_bad_lambdas_refused_above_the_scan_bound():
    # I = {0, 2, 4} alternates mu_6, so the eliminant vanishes identically and
    # the candidate set has about p/2 elements: refused, not scanned
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-m", "supertorsion", "two-packet", "bad-lambdas",
                          "--p", "1000000009", "--n", "5", "--I", "0,2,4", "--C", "1"],
                         env=env, capture_output=True, text=True, timeout=20)
    assert (run.returncode, run.stdout) == (2, "")
    assert "eliminant vanishes identically" in run.stderr
    assert "p <= 65536, not p = 1000000009" in run.stderr


def test_large_prime_sweep_cli():
    # alternate-root subsets such as {0, 2} have an eliminant that vanishes
    # identically; deciding candidate_bad still takes no field scan
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-m", "supertorsion", "two-packet", "sweep",
                          "--p", "1000000009", "--n", "3"],
                         env=env, capture_output=True, text=True, timeout=60)
    lines = run.stdout.splitlines()
    assert run.returncode == EXIT_OK and lines
    assert run.stderr.strip() == f"built {len(lines)} families"
