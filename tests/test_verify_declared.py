"""``verify`` checks a certificate's declared data as given.

Parsing refuses only what no certificate can be: bad parameters (a, B, q),
or a declared v or f of the wrong degree (exit 2).  A declared v or f that
disagrees with (a, B, q), or an f with a repeated root, is a failed entry of
the report (exit 1); ``normalize``, whose output depends only on (a, B, q),
refuses such a certificate (exit 2).
"""

import importlib.util
import json
import time
from pathlib import Path

import pytest

from supertorsion import GF, QQ, Poly, certificates, serialize
from supertorsion.certificates import (
    assemble_certificate,
    build_certificate,
    normalize_certificate,
)
from supertorsion.cli import EXIT_MATH_FAIL, EXIT_OK, EXIT_USAGE, dispatch

BENCH = Path(__file__).resolve().parent.parent / "bench"
FIELDS = (QQ, GF(13))


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cert_doc(field, q=(1, 1), **changes):
    """The JSON of the (3, 2) certificate a = 0, B = 1 with this q, its
    declared polynomials replaced by ``changes`` (None drops the key)."""
    cert = assemble_certificate(3, 2, field(0), field(1), Poly(field, q))
    doc = serialize.certificate_to_json(cert)
    for key, poly in changes.items():
        if poly is None:
            del doc[key]
        else:
            doc[key] = serialize.poly_to_json(poly(cert))
    return json.dumps(doc)


def failed(out):
    doc = json.loads(out)
    return doc, {c["name"] for c in doc["checks"] if not c["passed"]}


# (label, changes, the checks that fail); q = 2 + 4x gives
# f = 4 (x + 1)^2 (2x + 1) over Q and over F_13
TAMPERED = (
    ("f + 1", dict(f=lambda c: c.f + Poly.one(c.field)),
     {"identity", "norm", "vanishing_at_P", "oracle_order"}),
    ("-v", dict(v=lambda c: -c.v), {"shape"}),
    ("repeated root", dict(q=(2, 4)), {"squarefree", "oracle_order"}),
)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("label,changes,expected", TAMPERED, ids=[t[0] for t in TAMPERED])
def test_verify_reports_declared_data_that_fails(capsys, field, label, changes, expected):
    code, out, err = run(capsys, "verify", "--oracle", "--cert", cert_doc(field, **changes))
    doc, names = failed(out)
    assert (code, err) == (EXIT_MATH_FAIL, "")
    assert names == expected and doc["passed"] is False
    if "oracle_order" in expected:
        oracle = next(c for c in doc["checks"] if c["name"] == "oracle_order")
        assert oracle["detail"].startswith("not run") and doc["oracle_order"] is None
    else:
        # -v is the point (a, -v(a)), also of order m0 on the same curve
        assert doc["oracle_order"] == 4


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("label,changes,expected", TAMPERED, ids=[t[0] for t in TAMPERED])
def test_normalize_refuses_what_verify_reports(capsys, field, label, changes, expected):
    code, out, err = run(capsys, "normalize", "--cert", cert_doc(field, **changes))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: invalid certificate: ") and err.endswith(" failed\n")
    assert set(err[len("error: invalid certificate: "):-len(" failed\n")].split(", ")) \
        == expected - {"oracle_order"}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("q", [(1, 1), (2, 4)])
def test_absent_v_and_f_are_assembled_from_a_b_q(capsys, field, q):
    full = run(capsys, "verify", "--oracle", "--cert", cert_doc(field, q))
    for changes in (dict(v=None), dict(f=None), dict(v=None, f=None)):
        assert run(capsys, "verify", "--oracle", "--cert", cert_doc(field, q, **changes)) == full
    # a declared v does not feed the assembled f: the identity fails
    code, out, _ = run(capsys, "verify", "--cert", cert_doc(field, q, v=lambda c: c.v + c.v,
                                                             f=None))
    assert code == EXIT_MATH_FAIL and {"identity", "shape"} <= failed(out)[1]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("key,poly,message", [
    ("v", lambda c: Poly(c.field, range(1, 4001)), "deg v = 3999, expected ell0 = 2"),
    ("v", lambda c: Poly.one(c.field), "deg v = 0, expected ell0 = 2"),
    ("v", lambda c: Poly(c.field, ()), "deg v = -inf, expected ell0 = 2"),
    ("f", lambda c: c.f * c.f, "deg f = 6, expected n = 3"),
    ("f", lambda c: Poly(c.field, range(1, 4001)), "deg f = 3999, expected n = 3"),
])
def test_a_declared_polynomial_of_the_wrong_degree_is_refused_at_parse(
        capsys, monkeypatch, field, key, poly, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("verify_certificate ran on a refused certificate")

    monkeypatch.setattr(certificates, "verify_certificate", unreachable)
    doc = cert_doc(field, **{key: poly})
    for command in ("verify", "normalize"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--cert", doc)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: invalid certificate: {message}\n")
        assert time.perf_counter() - start < 2.0


def test_manifest_is_written_for_a_tampered_verify(tmp_path, capsys):
    path = tmp_path / "m.json"
    doc = cert_doc(QQ, f=lambda c: c.f + Poly.one(c.field))
    assert dispatch(["--manifest", str(path), "verify", "--cert", doc]) == EXIT_MATH_FAIL
    capsys.readouterr()
    manifest = json.loads(path.read_text())
    assert manifest["checks_failed"] == 4 and manifest["results"][0]["passed"] is False


def _load_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return workloads, spans


def _spy_proofs(monkeypatch):
    """(kind, field) for each squarefree proof: "normal form" for each
    ``_normal_form_curve``, "generic" for each ``is_squarefree`` of a curve."""
    from supertorsion import certificates, curves
    proofs = []
    normal_form, generic = certificates._normal_form_curve, curves.is_squarefree

    def spy_normal_form(cert, f, v, a):
        proofs.append(("normal form", f.field))
        return normal_form(cert, f, v, a)

    def spy_generic(f):
        proofs.append(("generic", f.field))
        return generic(f)

    monkeypatch.setattr(certificates, "_normal_form_curve", spy_normal_form)
    monkeypatch.setattr(curves, "is_squarefree", spy_generic)
    return proofs


@pytest.mark.parametrize("workload", ["certify-q", "certify-fp"])
def test_each_verify_op_tests_squarefree_once_and_builds_nothing(capsys, monkeypatch,
                                                                 workload):
    # the benchmark's seed-1 round: every certificate declares v and f, and
    # each op proves f squarefree once, from its normal form, never by gcd(f, f')
    workloads, spans = _load_bench(monkeypatch)
    ops = [op for op in workloads.round_ops(workload, 1, 0) if op.kind == "verify"]
    proofs = _spy_proofs(monkeypatch)
    counts = set()
    with spans.LayerTrace() as trace:
        for op in ops:
            before = len(proofs)
            assert dispatch(list(op.argv)) == EXIT_OK
            counts.add(tuple(kind for kind, _ in proofs[before:]))
    capsys.readouterr()
    assert len(ops) == len(workloads.SHAPES) and counts == {("normal form",)}
    assert trace.calls["certificates.build_certificate"] == 0
    assert trace.calls["certificates.verify_certificate"] == len(ops)


def _failing_q_cert():
    # the (3, 2) certificate at a = 1, B = 2, q = 1 + 3x, declared with
    # f + (x-1)^2: P stays on the curve, the identity fails, f is squarefree
    x_minus_1 = Poly(QQ, (-1, 1))
    cert = build_certificate(3, 2, QQ(1), QQ(2), Poly(QQ, (1, 3)))
    return json.dumps(serialize.certificate_to_json(cert._replace(f=cert.f + x_minus_1 ** 2)))


def _shifted_q_cert():
    # the (3, 2) certificate at a = 1, B = 2, q = 1 + 3x: normalize moves a and v(a)
    return json.dumps(serialize.certificate_to_json(
        build_certificate(3, 2, QQ(1), QQ(2), Poly(QQ, (1, 3)))))


ONE_PROOF = {
    "verify over F_p": (lambda: ["verify", "--oracle", "--cert", cert_doc(GF(13))], EXIT_OK,
                        [("normal form", GF(13))]),
    # over Q the normal form is proven mod the first good prime, where the oracle runs
    "verify --oracle over Q, passing": (
        lambda: ["verify", "--oracle", "--cert", cert_doc(QQ)], EXIT_OK,
        [("normal form", GF(1073741789))]),
    # a failing certificate has no normal form: one generic test, over Q,
    # whose curve the oracle then uses
    "verify --oracle over Q, failing": (
        lambda: ["verify", "--oracle", "--cert", _failing_q_cert()], EXIT_MATH_FAIL,
        [("generic", QQ)]),
    "construct": (lambda: ["construct", "--n", "3", "--d", "2", "--a", "1", "--B", "2",
                           "--q", "1,3"], EXIT_OK, [("normal form", QQ)]),
    # verify proves f; the normalized f, a shift and unit scaling of it, is not proven again
    "normalize over F_p": (lambda: ["normalize", "--cert", cert_doc(GF(13), q=(3, 1))], EXIT_OK,
                           [("normal form", GF(13))]),
    "normalize over Q": (lambda: ["normalize", "--cert", _shifted_q_cert()], EXIT_OK,
                         [("normal form", GF(1073741789))]),
    # the curve that family_slack1 proves is the one the chord/tangent oracle uses
    "elliptic4 build": (lambda: ["elliptic4", "build", "--B", "1", "--B1", "1"], EXIT_OK,
                        [("normal form", QQ)]),
}


@pytest.mark.parametrize("path", sorted(ONE_PROOF))
def test_each_path_proves_f_squarefree_once(capsys, monkeypatch, path):
    argv, code, expected = ONE_PROOF[path]
    argv = argv()
    proofs = _spy_proofs(monkeypatch)
    assert dispatch(argv) == code
    capsys.readouterr()
    assert proofs == expected


@pytest.mark.parametrize("doc", [lambda: cert_doc(GF(13), q=(3, 1)), _shifted_q_cert],
                         ids=["F13", "Q"])
def test_normalize_prints_the_certificate_that_normalize_certificate_builds(capsys, doc):
    doc = doc()
    norm = normalize_certificate(serialize.certificate_from_json(json.loads(doc)))
    expected = {**serialize.certificate_to_json(norm), "b_tilde": serialize.elem_to_str(norm.B)}
    code, out, err = run(capsys, "normalize", "--cert", doc)
    assert (code, err) == (EXIT_OK, "")
    assert out == json.dumps(expected, sort_keys=True) + "\n"
