"""Byte-identical ``construct | verify --oracle`` output over F_p.

``fixtures/fp_verify_stdout_sha256.json`` holds the exit code and stdout
SHA-256 of ``construct`` and of ``verify --oracle`` on its certificate for
every (n, d) with gcd(n, d) = 1, m0 <= 21 and slack >= 0, over F_13 and
F_1009.  The parameters (a, B, q) of each shape are the first of a fixed
sequence that ``construct`` accepts.  A change to F_p arithmetic, to the
order engine or to the verifier must leave every digest as it is.
Regenerate the fixture, only for an intended output change, with

    PYTHONPATH=src python tests/test_fp_verify_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from math import gcd
from pathlib import Path

from supertorsion.cli import dispatch

FIXTURE = Path(__file__).parent / "fixtures" / "fp_verify_stdout_sha256.json"
PRIMES = (13, 1009)
TRIES = 12


def shapes():
    """Every (n, d) with 2 <= d < n, gcd(n, d) = 1, m0 <= 21 and slack >= 0,
    as (n, d, slack)."""
    out = []
    for d in range(2, 21):
        for n in range(d + 1, 22):
            ell0 = (n + d) // d
            slack = n - d * ell0 + ell0
            if gcd(n, d) == 1 and d * ell0 <= 21 and slack >= 0:
                out.append((n, d, slack))
    return out


def candidates(p, slack):
    """(a, B, q) strings to try in turn: q has slack + 1 coefficients."""
    for k in range(TRIES):
        q = ",".join(str((k + 3 * j + 1) % p) for j in range(slack)) + ("," if slack else "")
        yield str(k % p), str((2 * k + 1) % p or 1), q + str((k + 2) % p or 1)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(list(argv))
    return code, out.getvalue()


def runs():
    """{label: [exit code, stdout SHA-256]} for every pinned command."""
    result = {}
    for p in PRIMES:
        for n, d, slack in shapes():
            for a, B, q in candidates(p, slack):
                code, cert = _run(["construct", "--n", str(n), "--d", str(d), f"--a={a}",
                                   f"--B={B}", f"--q={q}", "--field", f"F{p}"])
                if code == 0:
                    break
            else:
                raise AssertionError(f"no candidate constructs ({n}, {d}) over F_{p}")
            label = f"construct F{p} {n} {d} {a} {B} {q}"
            result[label] = [code, hashlib.sha256(cert.encode()).hexdigest()]
            code, text = _run(["verify", "--oracle", "--cert", cert])
            result[label + " | verify --oracle"] = [
                code, hashlib.sha256(text.encode()).hexdigest()]
    return result


def test_fp_verify_stdout_matches_pinned_digests():
    assert len(shapes()) == 48
    assert runs() == json.loads(FIXTURE.read_text())["runs"]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.write_text(json.dumps({
        "description": "exit code and stdout SHA-256 of each command of "
                       "tests/test_fp_verify_digests.py::runs",
        "runs": runs()}, indent=1, sort_keys=True) + "\n")
