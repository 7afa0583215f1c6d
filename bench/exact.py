"""Small exact polynomial arithmetic for building benchmark inputs.

The benchmark needs certificates it knows to be valid before the program
sees them, so it assembles f = v^d - B^d (x-a)^m0 and tests squarefreeness
here, independently of ``supertorsion``.  A ring is ``None`` for Q (values
are ``Fraction``) or a prime p (values are ints in [0, p)).  Polynomials are
lists of coefficients ascending by degree with no trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction


def norm(ring, c):
    return Fraction(c) if ring is None else c % ring


def inv(ring, c):
    return 1 / Fraction(c) if ring is None else pow(c, ring - 2, ring)


def trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def add(ring, f, g):
    n = max(len(f), len(g))
    f = f + [0] * (n - len(f))
    g = g + [0] * (n - len(g))
    return trim([norm(ring, a + b) for a, b in zip(f, g)])


def scale(ring, f, c):
    return trim([norm(ring, a * c) for a in f])


def mul(ring, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim([norm(ring, c) for c in out])


def power(ring, f, e):
    out = [norm(ring, 1)]
    for _ in range(e):
        out = mul(ring, out, f)
    return out


def evaluate(ring, f, x):
    acc = 0
    for c in reversed(f):
        acc = norm(ring, acc * x + c)
    return norm(ring, acc)


def derivative(ring, f):
    return trim([norm(ring, i * f[i]) for i in range(1, len(f))])


def rem(ring, f, g):
    f = list(f)
    lead_inv = inv(ring, g[-1])
    while len(f) >= len(g):
        c = norm(ring, f[-1] * lead_inv)
        shift = len(f) - len(g)
        for i, b in enumerate(g):
            f[shift + i] = norm(ring, f[shift + i] - c * b)
        trim(f)
    return f


def gcd_degree(ring, f, g):
    while g:
        f, g = g, rem(ring, f, g)
    return len(f) - 1


def is_squarefree(ring, f):
    df = derivative(ring, f)
    return bool(df) and gcd_degree(ring, f, df) == 0


def certificate_polys(ring, m0, ell0, d, a, B, q):
    """(v, f) with v = B(x-a)^ell0 + q and f = v^d - B^d (x-a)^m0."""
    x_minus_a = [norm(ring, -a), norm(ring, 1)]
    v = add(ring, scale(ring, power(ring, x_minus_a, ell0), B), q)
    bd = norm(ring, B ** d) if ring is None else pow(B, d, ring)
    f = add(ring, power(ring, v, d),
            scale(ring, power(ring, x_minus_a, m0), norm(ring, -bd)))
    return v, f


def primes_between(lo: int, hi: int):
    """Primes p with lo <= p < hi, by trial division."""
    return [p for p in range(max(lo, 2), hi)
            if all(p % k for k in range(2, int(p ** 0.5) + 1))]
