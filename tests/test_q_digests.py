"""Byte-identical command-line output over Q.

``fixtures/q_stdout_sha256.json`` holds the exit code and stdout SHA-256 of
each command of ``runs()``: ``family slack0|slack1`` and ``verify --oracle``
of its certificate for every slack-0/1 shape with m0 <= 21, ``construct`` and
``verify --oracle`` at points and parameters with denominators, and
``elliptic4 build``.  A change to Q arithmetic must leave every digest as it
is.  Regenerate the fixture, only for an intended output change, with

    PYTHONPATH=src python tests/test_q_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from math import gcd
from pathlib import Path

from supertorsion.cli import dispatch

FIXTURE = Path(__file__).parent / "fixtures" / "q_stdout_sha256.json"

# (B, B1) for the slack-1 families, taken in turn
SLACK1_PARAMS = (("1", "1"), ("2", "-1/2"), ("-3/2", "2/3"), ("1/2", "-3"))
# (n, d, a, B, q) for certificates at points with denominators; q has
# slack + 1 coefficients
CONSTRUCTED = (
    (3, 2, "1/2", "3/2", "1,-1/3"),
    (4, 3, "-2/3", "5/4", "7/2"),
    (7, 4, "3/5", "-1/2", "2,1"),
    (8, 3, "-1/3", "2/7", "1,1/5,-2"),
    (11, 4, "5/2", "-4/3", "3/4,1,1/2"),
    (13, 7, "-7/4", "1/3", "-2/5,3"),
    (15, 4, "1/6", "6/5", "1,0,-1/3,2"),
    (16, 5, "-5/3", "-2", "9/7"),
)
ELLIPTIC4 = (("1", "1"), ("2", "-3"), ("-1/2", "5/3"), ("7/3", "1/4"))


def shapes(slack):
    """Every (n, d) with 2 <= d < n, gcd(n, d) = 1, m0 <= 21 and this slack."""
    out = []
    for d in range(2, 21):
        for n in range(d + 1, 22):
            ell0 = (n + d) // d
            if gcd(n, d) == 1 and d * ell0 <= 21 and n - d * ell0 + ell0 == slack:
                out.append((n, d))
    return out


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(list(argv))
    return code, out.getvalue()


def runs():
    """{label: [exit code, stdout SHA-256]} for every pinned command."""
    result = {}

    def record(label, argv):
        code, text = _run(argv)
        result[label] = [code, hashlib.sha256(text.encode()).hexdigest()]
        return text

    def with_verify(label, argv):
        cert = record(label, argv)
        record(label + " | verify --oracle", ["verify", "--oracle", "--cert", cert])

    for n, d in shapes(0):
        with_verify(f"family slack0 {n} {d}",
                    ["family", "slack0", "--n", str(n), "--d", str(d), "--field", "Q"])
    for i, (n, d) in enumerate(shapes(1)):
        B, B1 = SLACK1_PARAMS[i % len(SLACK1_PARAMS)]
        with_verify(f"family slack1 {n} {d} {B} {B1}",
                    ["family", "slack1", "--n", str(n), "--d", str(d), f"--B={B}",
                     f"--B1={B1}", "--field", "Q"])
    for n, d, a, B, q in CONSTRUCTED:
        with_verify(f"construct {n} {d} {a} {B} {q}",
                    ["construct", "--n", str(n), "--d", str(d), f"--a={a}", f"--B={B}",
                     f"--q={q}", "--field", "Q"])
    for B, B1 in ELLIPTIC4:
        record(f"elliptic4 build {B} {B1}",
               ["elliptic4", "build", f"--B={B}", f"--B1={B1}", "--field", "Q"])
    return result


def test_q_stdout_matches_pinned_digests():
    assert len(shapes(0)) + len(shapes(1)) == 22
    assert runs() == json.loads(FIXTURE.read_text())["runs"]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.write_text(json.dumps({
        "description": "exit code and stdout SHA-256 of each command of "
                       "tests/test_q_digests.py::runs",
        "runs": runs()}, indent=1, sort_keys=True) + "\n")
