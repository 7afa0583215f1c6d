"""JSON (de)serialization for every domain type.

Conventions: rationals as "num/den" strings (plain "num" when integral),
prime-field elements as decimal residue strings, polynomial coefficient
arrays ascending by degree, field specs as {"kind": "Q"} or
{"kind": "Fp", "p": <int>}.  The certificate and packet classes are named in
annotations only, never imported, so `order` and `two-packet` load neither.
"""

from __future__ import annotations

import re

from .curves import AffinePoint, SuperellipticCurve
from .errors import BadParameters, SupertorsionError
from .fields import QQ, Field, FieldElement, PrimeField
from .poly import Poly


def field_to_json(field: Field) -> dict:
    if field.kind == "Q":
        return {"kind": "Q"}
    return {"kind": "Fp", "p": field.p}


def field_from_json(doc) -> Field:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise BadParameters(f"not a field spec: {doc!r}")
    if doc["kind"] == "Q":
        return QQ
    if doc["kind"] == "Fp":
        try:
            return PrimeField(_int_from_json(doc, "p"))
        except (KeyError, SupertorsionError) as e:
            raise BadParameters(f"bad prime field spec: {doc!r}") from e
    raise BadParameters(f"unknown field kind {doc['kind']!r}")


def elem_to_str(x: FieldElement) -> str:
    return str(x.value)


def elem_from_str(field: Field, s) -> FieldElement:
    return FieldElement(field, _value_from_str(field, s))


def _value_from_str(field: Field, s):
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise BadParameters(f"scalar must be a string: {s!r}")
    return field._parse(s)  # each field parses its own strings, to a bare value


def poly_to_json(f: Poly) -> list:
    return [str(v) for v in f.values]


def poly_from_json(field: Field, doc) -> Poly:
    if not isinstance(doc, list):
        raise BadParameters(f"polynomial must be a list: {doc!r}")
    return Poly._from_values(field, [_value_from_str(field, c) for c in doc])


def curve_to_json(curve: SuperellipticCurve) -> dict:
    return {"d": curve.d, "n": curve.n, "field": field_to_json(curve.field),
            "f": poly_to_json(curve.f)}


def curve_from_json(doc) -> SuperellipticCurve:
    _need_keys(doc, ("d", "field", "f"), "curve")
    field = field_from_json(doc["field"])
    f = poly_from_json(field, doc["f"])
    try:
        curve = SuperellipticCurve(field, _int_from_json(doc, "d"), f)
    except SupertorsionError as e:
        raise BadParameters(f"invalid curve: {e}") from e
    if "n" in doc and _int_from_json(doc, "n") != curve.n:
        raise BadParameters(f"declared n = {doc['n']} but deg f = {curve.n}")
    return curve


def point_to_json(point: AffinePoint) -> dict:
    return {"x": elem_to_str(point.x), "y": elem_to_str(point.y)}


def point_from_json(field: Field, doc) -> AffinePoint:
    _need_keys(doc, ("x", "y"), "point")
    return AffinePoint(elem_from_str(field, doc["x"]), elem_from_str(field, doc["y"]))


def certificate_to_json(cert: TorsionCertificate) -> dict:
    return {
        "n": cert.n, "d": cert.d, "m0": cert.m0,
        "field": field_to_json(cert.field),
        "a": elem_to_str(cert.a), "B": elem_to_str(cert.B),
        "q": poly_to_json(cert.q), "v": poly_to_json(cert.v),
        "f": poly_to_json(cert.f),
    }


def certificate_from_json(doc) -> TorsionCertificate:
    """The certificate a JSON document declares.  Its parameters (n, d, a, B,
    q) are checked, and a declared v or f only for its degree; v and f are
    taken as declared, and assembled from (a, B, q) only when absent.
    Whether they agree with (a, B, q), and whether f is squarefree, is for
    ``verify_certificate`` to report."""
    from .certificates import assemble_certificate

    _need_keys(doc, ("n", "d", "field", "a", "B", "q"), "certificate")
    field = field_from_json(doc["field"])
    n, d = _int_from_json(doc, "n"), _int_from_json(doc, "d")
    try:
        a, B = elem_from_str(field, doc["a"]), elem_from_str(field, doc["B"])
        q = poly_from_json(field, doc["q"])
        v, f = (poly_from_json(field, doc[key]) if key in doc else None
                for key in ("v", "f"))
        cert = assemble_certificate(n, d, a, B, q, v, f)
    except SupertorsionError as e:
        raise BadParameters(f"invalid certificate: {e}") from e
    if "m0" in doc and _int_from_json(doc, "m0") != cert.m0:
        raise BadParameters(f"declared m0 = {doc['m0']} but m0 = {cert.m0}")
    return cert


def report_to_json(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "oracle_order": report.oracle_order,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
    }


def packet_family_to_json(fam: PacketFamily) -> dict:
    return {
        "field": field_to_json(fam.field), "p": fam.p, "n": fam.n,
        "ell0": fam.ell0, "m0": fam.m0,
        "I": [elem_to_str(e) for e in fam.I],
        "lambda": elem_to_str(fam.lam), "C": elem_to_str(fam.C),
        "A1": elem_to_str(fam.A1), "A2": elem_to_str(fam.A2),
        "B1": elem_to_str(fam.B1), "B2": elem_to_str(fam.B2),
        "u": poly_to_json(fam.u), "v": poly_to_json(fam.v),
        "f": poly_to_json(fam.f), "sign": fam.sign, "twisted": fam.twisted,
    }


def admissibility_to_json(verdict: AdmissibilityVerdict) -> dict:
    return {
        "n": verdict.n, "d": verdict.d, "m0": verdict.m0, "ell0": verdict.ell0,
        "slack": verdict.slack, "verdict": verdict.verdict,
        "reasons": list(verdict.reasons),
        "char0_only": "necessary conditions proved for characteristic 0",
    }


def _int_from_json(doc, key) -> int:
    """doc[key] read from a JSON integer or a decimal string; a float, a
    boolean or anything else is a schema violation."""
    value = doc[key]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise BadParameters(f"{key} must be an integer: {value!r}")


def _need_keys(doc, keys, what):
    if not isinstance(doc, dict):
        raise BadParameters(f"{what} must be an object: {doc!r}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise BadParameters(f"{what} is missing keys {missing}")
