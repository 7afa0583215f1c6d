"""Command-line front end.

Results stream as JSON lines on stdout (sorted keys, fully deterministic);
diagnostics go to stderr.  Exit codes: 0 all checks passed, 1 a mathematical
check failed, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import serialize
from .certificates import (
    build_certificate,
    family_slack0,
    family_slack1,
    normalize_certificate,
    verify_certificate,
)
from .curves import reachability_status
from .elliptic4 import build_family, check_order_structure, from_kubert, to_kubert
from .errors import SupertorsionError, UsageError
from .fields import QQ, Field, PrimeField
from .orders import cantor_order, elliptic_order, order_of_class
from .poly import Poly
from .twopacket import (
    DegreeNotNormalized,
    NotSquarefree,
    bad_lambda_members,
    bad_lambda_set,
    build_two_packet_equal,
    build_two_packet_general,
    confirmed_bad_lambdas,
    ratio_root,
    two_packet,
    two_packet_admissible,
)

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2


class RunManifest:
    """Deterministic record of one CLI run: re-running with the same
    parameters reproduces byte-identical result documents."""

    __slots__ = ("command", "parameters", "results", "checks_passed", "checks_failed")

    def __init__(self, command: str, parameters: dict):
        self.command, self.parameters, self.results = command, parameters, []
        self.checks_passed = self.checks_failed = 0

    def record(self, doc):
        self.results.append(doc)
        for value in _walk_booleans(doc, "passed"):
            if value:
                self.checks_passed += 1
            else:
                self.checks_failed += 1

    def to_json(self) -> dict:
        return {"command": self.command, "parameters": self.parameters,
                "results": self.results, "checks_passed": self.checks_passed,
                "checks_failed": self.checks_failed}


def _walk_booleans(doc, key):
    if isinstance(doc, dict):
        for k, v in doc.items():
            if k == key and isinstance(v, bool):
                yield v
            else:
                yield from _walk_booleans(v, key)
    elif isinstance(doc, list):
        for item in doc:
            yield from _walk_booleans(item, key)


_manifest: RunManifest | None = None


def _emit(doc):
    if _manifest is not None:
        _manifest.record(doc)
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _parse_field(spec: str) -> Field:
    spec = spec.strip()
    if spec in ("Q", "QQ"):
        return QQ
    if spec.startswith("Fp:"):
        return PrimeField(int(spec[3:]))
    if spec.startswith("F"):
        return PrimeField(int(spec[1:]))
    raise UsageError(f"unknown field spec {spec!r}; use Q, F<p> or Fp:<p>")


def _parse_poly(field: Field, text: str) -> Poly:
    return Poly(field, [serialize.elem_from_str(field, c.strip())
                        for c in text.split(",")])


def _load_json_arg(text: str):
    if text == "-":
        return json.loads(sys.stdin.read())
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_construct(args) -> int:
    field = _parse_field(args.field)
    cert = build_certificate(args.n, args.d,
                             serialize.elem_from_str(field, args.a),
                             serialize.elem_from_str(field, args.B),
                             _parse_poly(field, args.q))
    _emit(serialize.certificate_to_json(cert))
    return EXIT_OK


def _cmd_verify(args) -> int:
    cert = serialize.certificate_from_json(_load_json_arg(args.cert))
    report = verify_certificate(cert, run_oracle=args.oracle)
    _emit(serialize.report_to_json(report))
    return EXIT_OK if report.passed else EXIT_MATH_FAIL


def _cmd_normalize(args) -> int:
    cert = serialize.certificate_from_json(_load_json_arg(args.cert))
    norm = normalize_certificate(cert)
    doc = serialize.certificate_to_json(norm.certificate)
    doc["b_tilde"] = serialize.elem_to_str(norm.b_tilde)
    _emit(doc)
    return EXIT_OK


def _cmd_family(args) -> int:
    field = _parse_field(args.field)
    if args.kind == "slack0":
        cert = family_slack0(args.n, args.d, field)
        _emit(serialize.certificate_to_json(cert))
        return EXIT_OK
    B = serialize.elem_from_str(field, args.B)
    B1 = serialize.elem_from_str(field, args.B1)
    cert, point_d = family_slack1(args.n, args.d, B, B1)
    doc = serialize.certificate_to_json(cert)
    doc["order_d_point"] = serialize.point_to_json(point_d)
    _emit(doc)
    return EXIT_OK


def _cmd_elliptic4(args) -> int:
    if args.action == "from-kubert":
        if args.b is None:
            raise UsageError("from-kubert needs --b")
        field = _parse_field(args.field)
        fam, pmap = from_kubert(serialize.elem_from_str(field, args.b))
        image = pmap(field.zero, field.zero)
        _emit({
            "B": serialize.elem_to_str(fam.B), "B1": serialize.elem_to_str(fam.B1),
            "f": serialize.poly_to_json(fam.f),
            "marked_point_image": {"x": serialize.elem_to_str(image[0]),
                                   "y": serialize.elem_to_str(image[1])},
        })
        return EXIT_OK
    if args.B is None or args.B1 is None:
        raise UsageError(f"{args.action} needs --B and --B1")
    field = _parse_field(args.field)
    B = serialize.elem_from_str(field, args.B)
    B1 = serialize.elem_from_str(field, args.B1)
    fam = build_family(B, B1)
    if args.action == "to-kubert":
        b = to_kubert(fam)
        _emit({"b": serialize.elem_to_str(b)})
        return EXIT_OK
    report = check_order_structure(fam)
    doc = {
        "B": serialize.elem_to_str(fam.B), "B1": serialize.elem_to_str(fam.B1),
        "f": serialize.poly_to_json(fam.f),
        "Q0": serialize.point_to_json(fam.q0),
        "Q2": serialize.point_to_json(fam.q2),
        "order_Q0": report.order_q0, "order_Q2": report.order_q2,
        "doubling_ok": report.doubling_ok, "tangent_ok": report.tangent_ok,
        "b": serialize.elem_to_str(to_kubert(fam)),
    }
    _emit(doc)
    return EXIT_OK if report.passed else EXIT_MATH_FAIL


def _cmd_order(args) -> int:
    curve = serialize.curve_from_json(_load_json_arg(args.curve))
    coords = args.point.split(",")
    if len(coords) != 2:
        raise UsageError("point must be x,y")
    point = [serialize.elem_from_str(curve.field, c.strip()) for c in coords]
    max_k = 2 * curve.params.m0 if args.max_k is None else args.max_k
    # the oracle checks the point, then max_k, then that it applies; the dict
    # is built per call, so a rebound module-level name (as in a layer trace) is used
    oracle = {"rr": order_of_class, "cantor": cantor_order,
              "elliptic": elliptic_order}[args.backend]
    order = oracle(curve, point, max_k)
    if order is None:
        _emit({"order": None, "note": f"exceeds max {max_k}"})
        return EXIT_MATH_FAIL
    _emit({"order": order})
    return EXIT_OK


def _parse_subset(field, n, text):
    mu = field.roots_of_unity(n + 1)
    try:
        idx = [int(t) for t in text.split(",")]
    except ValueError as e:
        raise UsageError(f"subset must be comma-separated indices: {text!r}") from e
    if any(not 0 <= i < len(mu) for i in idx):
        raise UsageError(f"subset indices out of range 0..{len(mu) - 1}")
    return tuple(mu[i] for i in idx)


def _cmd_two_packet(args) -> int:
    if args.action == "admissible":
        verdict = two_packet_admissible(args.n, args.d)
        _emit(serialize.admissibility_to_json(verdict))
        return EXIT_OK
    if args.p is None:
        raise UsageError(f"two-packet {args.action} needs --p")
    field = PrimeField(args.p)
    if args.action in ("build", "bad-lambdas") and args.I is None:
        raise UsageError(f"two-packet {args.action} needs --I")
    if args.action == "bad-lambdas":
        I = _parse_subset(field, args.n, args.I)
        pk = two_packet(field, args.n, I,
                        serialize.elem_from_str(field, args.C if args.C is not None else "1"))
        bad, confirmed = bad_lambda_set(pk), confirmed_bad_lambdas(pk)
        _emit({"candidate_bad": sorted(x.value for x in bad),
               "confirmed_bad": sorted(x.value for x in confirmed),
               "contained": confirmed <= bad})
        return EXIT_OK if confirmed <= bad else EXIT_MATH_FAIL
    if args.action == "build":
        I = _parse_subset(field, args.n, args.I)
        if getattr(args, "lambda") is None:
            raise UsageError("two-packet build needs --lambda")
        lam = serialize.elem_from_str(field, getattr(args, "lambda"))
        try:
            if args.equal:
                fam = build_two_packet_equal(two_packet(field, args.n, I, field.one), lam,
                                             sign=args.sign)
            else:
                if args.A1 is None or args.A2 is None:
                    raise UsageError("two-packet build needs --A1/--A2 or --equal")
                C = None if args.C is None else serialize.elem_from_str(field, args.C)
                A1 = serialize.elem_from_str(field, args.A1)
                A2 = serialize.elem_from_str(field, args.A2)
                pk = two_packet(field, args.n, I, ratio_root(args.n, A1, A2) if C is None else C)
                fam = build_two_packet_general(pk, lam, A1, A2, sign=args.sign)
        except (NotSquarefree, DegreeNotNormalized) as e:
            _emit({"error": type(e).__name__, "detail": str(e)})
            return EXIT_MATH_FAIL
        _emit(serialize.packet_family_to_json(fam))
        return EXIT_OK
    # sweep: one packet per subset and requested C.  A lambda that does not
    # normalize it leaves deg f = n + 1 and raises DegreeNotNormalized, so
    # only the normalizing ones (at most four, ascending) are tried.
    from itertools import combinations
    mu = field.roots_of_unity(args.n + 1)
    ell0 = (args.n + 1) // 2
    cs = ([serialize.elem_from_str(field, c) for c in args.C.split(",")]
          if args.C else [field.one])
    built = 0
    for C in cs:
        for I in combinations(mu, ell0):
            pk = two_packet(field, args.n, I, C)
            lams = sorted(pk.normalizing_lambdas(), key=lambda lam: lam.value)
            bad = bad_lambda_members(pk, lams)
            for lam in lams:
                try:
                    if C == field.one:
                        fam = build_two_packet_equal(pk, lam)
                    else:
                        fam = build_two_packet_general(pk, lam, C ** (args.n + 1), field.one)
                except SupertorsionError:
                    continue
                doc = serialize.packet_family_to_json(fam)
                doc["candidate_bad"] = lam in bad
                _emit(doc)
                built += 1
    print(f"built {built} families", file=sys.stderr)
    return EXIT_OK


def _cmd_reachability(args) -> int:
    report = reachability_status(args.n, args.d, args.m, args.char)
    _emit({
        "n": args.n, "d": args.d, "m": args.m, "char": args.char,
        "status": report.status.value, "reason": report.reason,
        "m0": report.params.m0, "ell0": report.params.ell0,
        "slack": report.params.slack,
        "m0_conditions": [{"condition": c, "holds": ok}
                          for c, ok in report.m0_conditions],
        "m0_conditions_note": ("each condition is sufficient over an infinite "
                               "base field; none is claimed necessary")
        if report.m0_conditions else None,
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="supertorsion",
        description="construct and verify small-order torsion points on "
                    "superelliptic curves y^d = f(x)")
    top.add_argument("--manifest", default=None,
                     help="write a JSON run manifest (command, parameters, "
                          "results, check counts) to this file")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="assemble a torsion certificate")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--a", required=True)
    c.add_argument("--B", required=True)
    c.add_argument("--q", required=True, help="comma-separated ascending coefficients")
    c.add_argument("--field", default="Q")
    c.set_defaults(func=_cmd_construct)

    c = sub.add_parser("verify", help="re-check a certificate")
    c.add_argument("--cert", default="-", help="file, inline JSON, or - for stdin")
    c.add_argument("--oracle", action="store_true",
                   help="also run the independent order oracle")
    c.set_defaults(func=_cmd_verify)

    c = sub.add_parser("normalize", help="move the certified point to (0, 1)")
    c.add_argument("--cert", default="-")
    c.set_defaults(func=_cmd_normalize)

    c = sub.add_parser("family", help="emit a closed-form certificate family")
    c.add_argument("kind", choices=("slack0", "slack1"))
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--B")
    c.add_argument("--B1")
    c.add_argument("--field", default="Q")
    c.set_defaults(func=_cmd_family)

    c = sub.add_parser("elliptic4", help="elliptic curves with a 4-torsion point")
    c.add_argument("action", choices=("build", "from-kubert", "to-kubert"))
    c.add_argument("--B")
    c.add_argument("--B1")
    c.add_argument("--b")
    c.add_argument("--field", default="Q")
    c.set_defaults(func=_cmd_elliptic4)

    c = sub.add_parser("order", help="order of [P - O] by an exact oracle")
    c.add_argument("--curve", required=True)
    c.add_argument("--point", required=True, help="x,y")
    c.add_argument("--max-k", type=int, default=None)
    c.add_argument("--backend", choices=("rr", "cantor", "elliptic"), default="rr")
    c.set_defaults(func=_cmd_order)

    c = sub.add_parser("two-packet", help="curves with two packets of order-m0 points")
    c.add_argument("action", choices=("admissible", "build", "bad-lambdas", "sweep"))
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int, default=2)
    c.add_argument("--p", type=int)
    c.add_argument("--I", help="indices into the deterministic mu_(n+1) ordering")
    c.add_argument("--lambda", dest="lambda", default=None)
    c.add_argument("--A1")
    c.add_argument("--A2")
    c.add_argument("--C", default=None)
    c.add_argument("--equal", action="store_true")
    c.add_argument("--sign", choices=("plus", "minus"), default="plus")
    c.set_defaults(func=_cmd_two_packet)

    c = sub.add_parser("reachability", help="classify a candidate torsion order")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--char", type=int, default=0)
    c.set_defaults(func=_cmd_reachability)
    return top


def dispatch(argv) -> int:
    global _manifest
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    _manifest = RunManifest(
        command=args.command,
        parameters={k: v for k, v in sorted(vars(args).items())
                    if k not in ("func", "manifest") and v is not None})
    try:
        with warnings.catch_warnings():
            # a warning's cause reaches stderr as the error it leads to
            warnings.simplefilter("ignore")
            code = args.func(args)
    except (UsageError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        code = EXIT_USAGE
    except SupertorsionError as e:  # MathCheckError, PrecisionExhausted
        print(f"check failed: {e}", file=sys.stderr)
        code = EXIT_MATH_FAIL
    if args.manifest and code != EXIT_USAGE:
        if code == EXIT_MATH_FAIL and _manifest.checks_failed == 0:
            _manifest.checks_failed += 1
        with open(args.manifest, "w", encoding="utf-8") as fh:
            json.dump(_manifest.to_json(), fh, sort_keys=True, indent=1)
            fh.write("\n")
    _manifest = None
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
