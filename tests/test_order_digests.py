"""Byte-identical ``order`` command-line output.

``fixtures/order_stdout_sha256.json`` holds the exit code and the SHA-256 of
stdout and of stderr of each command of ``runs()``: every backend (rr, cantor,
elliptic) at an unramified point, a ramified point and a point off the curve,
with ``--max-k`` 0, 1 and the default, on four curves:

* y^2 = x^3 + 1 over F_13;
* the genus-2 curve y^2 = 5x^5 + 5x^4 + 11x^3 + 4x^2 + 6x + 10 over F_13;
* the d = 3 curve y^3 = x^4 - 1 over F_13;
* the cubic y^2 = 2x^3 + 3x^2 + 2x + 1 over Q.

Failed commands are pinned too, error messages included, so the order in
which a command checks its point, its max_k and whether the backend applies
is part of what is pinned.  Regenerate the fixture, only for an intended
output change, with

    PYTHONPATH=src python tests/test_order_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from supertorsion.cli import dispatch

FIXTURE = Path(__file__).parent / "fixtures" / "order_stdout_sha256.json"

F13 = {"kind": "Fp", "p": 13}
# (label, curve JSON, unramified point, ramified point, point off the curve)
CURVES = (
    ("x^3+1/F13", {"d": 2, "field": F13, "f": ["1", "0", "0", "1"]},
     "0,1", "12,0", "0,2"),
    ("genus2/F13", {"d": 2, "field": F13, "f": ["10", "6", "4", "11", "5", "5"]},
     "9,2", "4,0", "9,3"),
    ("d3/F13", {"d": 3, "field": F13, "f": ["12", "0", "0", "0", "1"]},
     "4,2", "1,0", "4,3"),
    ("cubic/Q", {"d": 2, "field": {"kind": "Q"}, "f": ["1", "2", "3", "2"]},
     "0,1", "-1,0", "0,2"),
)
BACKENDS = ("rr", "cantor", "elliptic")
MAX_KS = ("0", "1", None)  # None: the default, 2*m0


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    return [code, _digest(out.getvalue()), _digest(err.getvalue())]


def runs():
    """{label: [exit code, stdout SHA-256, stderr SHA-256]} per command."""
    result = {}
    for label, curve, *points in CURVES:
        for backend in BACKENDS:
            for point in points:
                for max_k in MAX_KS:
                    argv = ["order", "--curve", json.dumps(curve, sort_keys=True),
                            f"--point={point}", "--backend", backend]
                    if max_k is not None:
                        argv += ["--max-k", max_k]
                    result[f"{label} {backend} {point} max_k={max_k}"] = _run(argv)
    return result


def test_order_output_matches_pinned_digests():
    assert runs() == json.loads(FIXTURE.read_text())["runs"]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.write_text(json.dumps({
        "description": "exit code, stdout SHA-256 and stderr SHA-256 of each "
                       "command of tests/test_order_digests.py::runs",
        "runs": runs()}, indent=1, sort_keys=True) + "\n")
