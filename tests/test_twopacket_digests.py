"""Byte-identical two-packet command-line output.

``fixtures/twopacket_stdout_sha256.json`` holds the exit code and the
SHA-256 of stdout and of stderr of each command of ``runs()``:

* ``two-packet bad-lambdas`` for n = 3 at p in {13, 29, 37} and n = 5 at
  p in {13, 31, 37}, for every subset and C in {1, 2, p - 1};
* ``two-packet bad-lambdas`` for the degenerate subsets (the eliminant
  vanishes identically, so every abscissa is scanned) at p = 241, the
  benchmark's largest, with C in {1, 2, 240}, and ``--n 3 --I 0,2 --C 5``
  at p = 65521, the largest prime below the scan's 2^16 guard;
* ``two-packet build`` with ``--equal``, with ``--A1 16 --A2 1``, and with
  ``--A1 2^(n+1) --A2 1 --C 2 --sign minus``, for every subset and
  lambda in {2, 3, 5, 6, p - 1} at (n, p) in {(3, 13), (3, 29), (5, 13)};
* ``two-packet sweep --C 1,2,3`` at the same three (n, p).

Failed builds are pinned too, error messages included.  A refactor of the
two-packet code must leave every digest as it is.  Regenerate the fixture,
only for an intended output change, with

    PYTHONPATH=src python tests/test_twopacket_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from itertools import combinations
from pathlib import Path

from supertorsion.cli import dispatch

FIXTURE = Path(__file__).parent / "fixtures" / "twopacket_stdout_sha256.json"

BAD_LAMBDA_GRID = ((3, 13), (3, 29), (3, 37), (5, 13), (5, 31), (5, 37))
DEGENERATE_GRID = ((3, 241, ("0,2", "1,3"), (1, 2, 240)),
                   (5, 241, ("0,2,4", "1,3,5"), (1, 2, 240)),
                   (3, 65521, ("0,2",), (5,)))
BUILD_GRID = ((3, 13), (3, 29), (5, 13))
LAMBDAS = (2, 3, 5, 6, -1)  # -1 stands for p - 1


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    return [code, _digest(out.getvalue()), _digest(err.getvalue())]


def _subsets(n):
    return [",".join(map(str, s)) for s in combinations(range(n + 1), (n + 1) // 2)]


def runs():
    """{label: [exit code, stdout SHA-256, stderr SHA-256]} per command."""
    result = {}

    def record(argv):
        result[" ".join(argv)] = _run(argv)

    for n, p in BAD_LAMBDA_GRID:
        for I in _subsets(n):
            for C in (1, 2, p - 1):
                record(["two-packet", "bad-lambdas", "--p", str(p), "--n", str(n),
                        "--I", I, "--C", str(C)])
    for n, p, subsets, Cs in DEGENERATE_GRID:
        for I in subsets:
            for C in Cs:
                record(["two-packet", "bad-lambdas", "--p", str(p), "--n", str(n),
                        "--I", I, "--C", str(C)])
    for n, p in BUILD_GRID:
        base = ["two-packet", "build", "--p", str(p), "--n", str(n)]
        for I in _subsets(n):
            for lam in LAMBDAS:
                head = base + ["--I", I, "--lambda", str(lam % p)]
                record(head + ["--equal"])
                record(head + ["--A1", "16", "--A2", "1"])
                record(head + ["--A1", str(2 ** (n + 1)), "--A2", "1", "--C", "2",
                               "--sign", "minus"])
    for n, p in BUILD_GRID:
        record(["two-packet", "sweep", "--p", str(p), "--n", str(n), "--C", "1,2,3"])
    return result


def test_twopacket_output_matches_pinned_digests():
    assert runs() == json.loads(FIXTURE.read_text())["runs"]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.write_text(json.dumps({
        "description": "exit code, stdout SHA-256 and stderr SHA-256 of each "
                       "command of tests/test_twopacket_digests.py::runs",
        "runs": runs()}, indent=1, sort_keys=True) + "\n")
