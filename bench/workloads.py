"""Seeded operations for the three benchmark workloads, with their checks.

Every workload is a sequence of rounds.  A round holds the same multiset of
sizes on every seed (all (n, d) shapes, or a fixed grid of primes); the seed
draws everything else: coefficients, points, subsets, constants and the order
of the ops.  Whole rounds keep the latency mix of a run independent of the
seed and of how many rounds fit in the time.

Each op is one command line for ``supertorsion.cli.dispatch`` plus the answer
it must give, known by construction rather than from the program:

* ``verify --oracle`` on a certificate assembled here: passed, order m0;
* ``order --backend cantor`` at a certificate's marked point: m0;
* ``elliptic4 build``: Q0 has order 4 and Q2 order 2;
* ``two-packet bad-lambdas``: contained, with +-1 among the candidates;
* ``two-packet sweep``: the family count on stderr matches stdout.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import exact

WORKLOADS = ("certify-q", "certify-fp", "twopacket")


def _shapes():
    """Every (n, d, m0, ell0, slack) with 2 <= d < n, gcd(n, d) = 1,
    4 <= m0 <= 21 and slack >= 0, ordered by d then n."""
    out = []
    for d in range(2, 21):
        for n in range(d + 1, 22):
            ell0 = (n + d) // d
            m0, slack = d * ell0, n - d * ell0 + ell0
            if gcd(n, d) == 1 and 4 <= m0 <= 21 and slack >= 0:
                out.append((n, d, m0, ell0, slack))
    return tuple(out)


SHAPES = _shapes()

# certify-fp: the first prime at or above 1000, 1250, ..., 2750.  Shape i is
# always paired with FP_PRIMES[i % 8], so some pairs have d | p - 1 (the mu_d
# norm re-expansion runs) and some do not.
FP_PRIMES = tuple(exact.primes_between(t, t + 100)[0] for t in range(1000, 3000, 250))


def _packet_primes(n):
    """Every prime p = 1 mod n+1 from 30 to 250.  A dense grid gives a
    smooth latency distribution, so its quantiles do not jump between the
    costs of a few isolated primes."""
    return tuple(p for p in exact.primes_between(30, 251) if (p - 1) % (n + 1) == 0)


PACKET_PRIMES = {3: _packet_primes(3), 5: _packet_primes(5)}
# sweeps: the minority share of twopacket ops, (n, p) at small p
SWEEPS = ((3, 13), (3, 29), (5, 13))
ELLIPTIC4_PER_ROUND = 8


@dataclass(frozen=True)
class Op:
    kind: str      # verify, cantor, elliptic4, bad-lambdas, sweep
    argv: tuple    # the command line given to cli.dispatch
    size: int      # m0 for certify ops, p for two-packet ops
    field: str     # "Q" or "F<p>"
    expect: int    # m0 for verify/cantor, p for two-packet, 4 for elliptic4


def round_ops(workload: str, seed: int, index: int):
    """The ops of round ``index`` of a run with this seed."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "certify-q":
        # a = 0 makes an op over Q markedly cheaper, so every round has the
        # same count of each a, in a seeded assignment to the shapes
        centers = [k % 5 - 2 for k in range(len(SHAPES))]
        rng.shuffle(centers)
        ops = [op for shape, a in zip(SHAPES, centers)
               for op in _certificate_ops(rng, None, shape, a)]
        ops += [_elliptic4_op(rng) for _ in range(ELLIPTIC4_PER_ROUND)]
    elif workload == "certify-fp":
        ops = [op for i, shape in enumerate(SHAPES)
               for op in _certificate_ops(rng, FP_PRIMES[i % len(FP_PRIMES)], shape)]
    elif workload == "twopacket":
        ops = [_bad_lambdas_op(rng, n, p)
               for n, primes in PACKET_PRIMES.items() for p in primes]
        ops += [_sweep_op(rng, n, p) for n, p in SWEEPS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def _certificate_ops(rng, ring, shape, a=None):
    """``verify --oracle`` on a random valid certificate over Q (ring None,
    marked point at x = a) or F_ring, and for d = 2 over F_p also the Cantor
    order of its point."""
    n, d, m0, ell0, slack = shape
    while True:
        if ring is None:
            a = Fraction(a)
            B = Fraction(rng.choice((1, -1, 2, -2, 3, -3))) / rng.choice((1, 1, 2))
            q = [Fraction(rng.randint(-3, 3)) for _ in range(slack + 1)]
        else:
            a, B = rng.randrange(ring), rng.randrange(1, ring)
            q = [rng.randrange(ring) for _ in range(slack + 1)]
        if q[-1] == 0 or exact.evaluate(ring, q, a) == 0:
            continue
        v, f = exact.certificate_polys(ring, m0, ell0, d, a, B, q)
        if len(f) - 1 == n and exact.is_squarefree(ring, f):
            break
    field = {"kind": "Q"} if ring is None else {"kind": "Fp", "p": ring}
    name = "Q" if ring is None else f"F{ring}"
    cert = {"n": n, "d": d, "m0": m0, "field": field,
            "a": str(a), "B": str(B), "q": [str(c) for c in q],
            "v": [str(c) for c in v], "f": [str(c) for c in f]}
    ops = [Op("verify", ("verify", "--oracle", "--cert", json.dumps(cert, sort_keys=True)),
              m0, name, m0)]
    if d == 2 and ring is not None:
        curve = {"d": 2, "field": field, "f": cert["f"]}
        point = f"{a},{exact.evaluate(ring, v, a)}"
        ops.append(Op("cantor", ("order", "--curve", json.dumps(curve, sort_keys=True),
                                 "--point", point, "--backend", "cantor"), m0, name, m0))
    return ops


def _elliptic4_op(rng):
    while True:
        B = Fraction(rng.choice((1, -1, 2, -2, 3, -3)), rng.choice((1, 2, 3)))
        B1 = Fraction(rng.choice((1, -1, 2, -2, 3, -3)), rng.choice((1, 2)))
        if B1 * B1 != 8 * B:
            break
    # --B=-1/2, not --B -1/2, which argparse would read as an option
    return Op("elliptic4", ("elliptic4", "build", f"--B={B}", f"--B1={B1}", "--field", "Q"),
              4, "Q", 4)


def _bad_lambdas_op(rng, n, p):
    subset = sorted(rng.sample(range(n + 1), (n + 1) // 2))
    return Op("bad-lambdas", ("two-packet", "bad-lambdas", "--p", str(p), "--n", str(n),
                              "--I", ",".join(map(str, subset)),
                              "--C", str(rng.randrange(1, p))), p, f"F{p}", p)


def _sweep_op(rng, n, p):
    cs = ["1", str(rng.randrange(2, p))]
    return Op("sweep", ("two-packet", "sweep", "--p", str(p), "--n", str(n),
                        "--C", ",".join(cs)), p, f"F{p}", p)


def check(op: Op, code: int, out: str, err: str):
    """None when the op gave its known answer, else a short reason."""
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    docs = [json.loads(line) for line in out.splitlines()]
    if op.kind == "sweep":
        expected = f"built {len(docs)} families"
        return None if err.strip() == expected else f"stderr {err.strip()!r} != {expected!r}"
    if len(docs) != 1:
        return f"{len(docs)} result documents"
    doc = docs[0]
    if op.kind == "verify":
        ok = doc.get("passed") is True and doc.get("oracle_order") == op.expect
    elif op.kind == "cantor":
        ok = doc.get("order") == op.expect
    elif op.kind == "elliptic4":
        ok = doc.get("order_Q0") == 4 and doc.get("order_Q2") == 2
    else:
        bad = doc.get("candidate_bad", ())
        ok = doc.get("contained") is True and 1 in bad and op.expect - 1 in bad
    return None if ok else f"wrong answer: {out.strip()[:200]}"
