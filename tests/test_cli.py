import json
import warnings

import pytest

from supertorsion import SuperellipticCurve, cli, orders, twopacket
from supertorsion.cli import EXIT_MATH_FAIL, EXIT_OK, EXIT_USAGE, dispatch
from supertorsion.errors import PrecisionExhausted


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    return code, lines, captured.err


def test_family_slack0(capsys):
    code, docs, _ = run(capsys, "family", "slack0", "--n", "4", "--d", "3",
                        "--field", "Q")
    assert code == EXIT_OK
    assert docs[0]["f"] == ["1", "0", "3", "0", "3"]
    assert docs[0]["m0"] == 6


def test_family_slack1_and_verify_round_trip(capsys):
    code, docs, _ = run(capsys, "family", "slack1", "--n", "3", "--d", "2",
                        "--B", "1", "--B1", "1", "--field", "Q")
    assert code == EXIT_OK
    cert_doc = docs[0]
    assert cert_doc["order_d_point"] == {"x": "-1", "y": "0"}
    code, docs, _ = run(capsys, "verify", "--oracle", "--cert",
                        json.dumps(cert_doc))
    assert code == EXIT_OK
    assert docs[0]["passed"] is True
    assert docs[0]["oracle_order"] == 4


def test_construct_then_normalize(capsys):
    code, docs, _ = run(capsys, "construct", "--n", "3", "--d", "2",
                        "--a", "1", "--B", "1", "--q", "1,1", "--field", "Q")
    assert code == EXIT_OK
    code, docs, _ = run(capsys, "normalize", "--cert", json.dumps(docs[0]))
    assert code == EXIT_OK
    assert docs[0]["a"] == "0"
    assert docs[0]["b_tilde"] == "1/2"


def test_order_backends(capsys):
    curve = json.dumps({"d": 2, "field": {"kind": "Q"},
                        "f": ["1", "2", "3", "2"]})
    for backend in ("rr", "cantor", "elliptic"):
        code, docs, _ = run(capsys, "order", "--curve", curve,
                            "--point", "0,1", "--backend", backend)
        assert code == EXIT_OK
        assert docs[0]["order"] == 4


def test_order_exceeding_max(capsys):
    curve = json.dumps({"d": 2, "field": {"kind": "Q"},
                        "f": ["1", "2", "3", "2"]})
    code, docs, _ = run(capsys, "order", "--curve", curve, "--point", "0,1",
                        "--max-k", "3")
    assert code == EXIT_MATH_FAIL
    assert docs[0]["order"] is None


@pytest.mark.parametrize("max_k", ["0", "-3"])
@pytest.mark.parametrize("backend", ["rr", "cantor", "elliptic"])
def test_order_max_k_below_one_is_usage_error(capsys, backend, max_k):
    # y^2 = x^3 + 1 over F_1009: (0, 1) has order 3, so a silent fallback to
    # the default bound would print {"order": 3}
    curve = json.dumps({"d": 2, "field": {"kind": "Fp", "p": 1009},
                        "f": ["1", "0", "0", "1"]})
    code, docs, err = run(capsys, "order", "--curve", curve, "--point", "0,1",
                          "--backend", backend, "--max-k", max_k)
    assert code == EXIT_USAGE and docs == []
    assert err == "error: max_k must be >= 1\n"


@pytest.mark.parametrize("point,max_k", [("0,1", "8"), ("0,12", "8"), ("2,3", "8"),
                                         ("6,10", "8"), ("2,3", "5")])
def test_order_backends_agree_through_dispatch(capsys, point, max_k):
    # y^2 = x^3 + 1 over F_13: (0, +-1) have order 3, the others here 6
    curve = json.dumps({"d": 2, "field": {"kind": "Fp", "p": 13},
                        "f": ["1", "0", "0", "1"]})
    results = []
    for backend in ("rr", "cantor", "elliptic"):
        code, docs, err = run(capsys, "order", "--curve", curve, "--point", point,
                              "--max-k", max_k, "--backend", backend)
        assert err == ""
        results.append((code, docs))
    assert results[0] == results[1] == results[2]
    assert results[0][0] == (EXIT_OK if max_k == "8" else EXIT_MATH_FAIL)


@pytest.mark.parametrize("backend", ["rr", "cantor", "elliptic"])
def test_order_of_a_ramified_point_is_2_on_every_backend(capsys, backend):
    # y^2 = x^3 + 1 over F_13 has the 2-torsion points (4, 0), (10, 0), (12, 0)
    curve = json.dumps({"d": 2, "field": {"kind": "Fp", "p": 13},
                        "f": ["1", "0", "0", "1"]})
    for x in ("4", "10", "12"):
        code = dispatch(["order", "--curve", curve, "--point", f"{x},0",
                         "--backend", backend])
        assert (code, capsys.readouterr()) == (EXIT_OK, ('{"order": 2}\n', ""))


@pytest.mark.parametrize("backend", ["rr", "cantor", "elliptic"])
def test_order_checks_its_point_once(capsys, monkeypatch, backend):
    calls = []
    point = SuperellipticCurve.point

    def counting(curve, x, y):
        calls.append((x, y))
        return point(curve, x, y)

    monkeypatch.setattr(SuperellipticCurve, "point", counting)
    f13 = json.dumps({"d": 2, "field": {"kind": "Fp", "p": 13}, "f": ["1", "0", "0", "1"]})
    # on y^2 = x^3 + 7 over F_101, (6, 18) has order 17: rr runs three passes
    f101 = json.dumps({"d": 2, "field": {"kind": "Fp", "p": 101}, "f": ["7", "0", "0", "1"]})
    for curve, xy, max_k in ((f13, "0,1", "8"), (f13, "12,0", "8"), (f13, "2,3", "5"),
                             (f13, "0,2", "8"), (f13, "0,1", "0"), (f101, "6,18", "100")):
        calls.clear()
        capsys.readouterr()
        code = dispatch(["order", "--curve", curve, "--point", xy, "--max-k", max_k,
                         "--backend", backend])
        assert len(calls) == 1, (xy, max_k)
    assert (code, capsys.readouterr().out) == (EXIT_OK, '{"order": 17}\n')


def _count_packets(monkeypatch):
    calls = []
    build = twopacket.two_packet

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "two_packet", counting)
    monkeypatch.setattr(twopacket, "two_packet", counting)
    return calls


def test_two_packet_commands_build_one_packet_per_subset_and_c(capsys, monkeypatch):
    calls = _count_packets(monkeypatch)
    for I in ("0,1", "0,2", "1,3"):
        for C in ("1", "2"):
            calls.clear()
            assert dispatch(["two-packet", "bad-lambdas", "--p", "29", "--n", "3",
                             "--I", I, "--C", C]) == EXIT_OK
            assert len(calls) == 1
    for extra in (["--equal"], ["--A1", "16", "--A2", "1"]):
        calls.clear()
        dispatch(["two-packet", "build", "--p", "13", "--n", "3", "--I", "0,1",
                  "--lambda", "6"] + extra)
        assert len(calls) == 1
    calls.clear()
    assert dispatch(["two-packet", "sweep", "--p", "13", "--n", "3", "--C", "1,2,3"]) == EXIT_OK
    # one packet for each of the 6 subsets and 3 values of C
    assert len(calls) == len({(tuple(I), C) for _, _, I, C in calls}) == 18
    capsys.readouterr()


@pytest.mark.parametrize("d,backend,message", [
    (3, "cantor", "Cantor backend needs d = 2"),
    (3, "elliptic", "elliptic backend needs d = 2 and deg f = 3"),
    (2, "elliptic", "elliptic backend needs d = 2 and deg f = 3"),
])
def test_order_backend_out_of_scope_is_usage_error(capsys, d, backend, message):
    # f = x^5 + x^3 + 1 over F_11: (0, 1) has order 10 on y^2 = f (Cantor),
    # which is no answer for y^3 = f, where rr finds no order up to 12
    curve = json.dumps({"d": d, "field": {"kind": "Fp", "p": 11},
                        "f": ["1", "0", "0", "1", "0", "1"]})
    code, docs, err = run(capsys, "order", "--curve", curve, "--point", "0,1",
                          "--backend", backend)
    assert (code, docs, err) == (EXIT_USAGE, [], f"error: {message}\n")
    in_scope = "cantor" if d == 2 else "rr"
    code, docs, _ = run(capsys, "order", "--curve", curve, "--point", "0,1",
                        "--backend", in_scope)
    assert docs[0]["order"] == (10 if d == 2 else None)


@pytest.mark.parametrize("point", ["0", "0,1,2", ""])
def test_order_point_needs_two_coordinates(capsys, point):
    curve = json.dumps({"d": 2, "field": {"kind": "Q"}, "f": ["1", "2", "3", "2"]})
    code, docs, err = run(capsys, "order", "--curve", curve, "--point", point)
    assert (code, docs, err) == (EXIT_USAGE, [], "error: point must be x,y\n")


def test_inseparable_curve_reports_only_the_error_line(capsys):
    # f = x^7 + 1 over F_7 has f' = 0: the squarefree test warns, and the
    # warning leaves dispatch neither as a warning nor on stderr
    curve = json.dumps({"d": 3, "field": {"kind": "Fp", "p": 7},
                        "f": ["1", "0", "0", "0", "0", "0", "0", "1"]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, docs, err = run(capsys, "order", "--curve", curve, "--point", "0,1")
    assert caught == []
    assert (code, docs) == (EXIT_USAGE, [])
    assert err == "error: invalid curve: f has repeated roots\n"


def test_engine_failure_is_a_math_failure(capsys, monkeypatch):
    # PrecisionExhausted is a SupertorsionError outside MathCheckError
    def exhausted(curve, point, max_k):
        raise PrecisionExhausted("vanishing order exceeded k")
        yield

    monkeypatch.setattr(orders, "_principal_orders", exhausted)
    curve = json.dumps({"d": 2, "field": {"kind": "Q"},
                        "f": ["1", "2", "3", "2"]})
    code, docs, err = run(capsys, "order", "--curve", curve, "--point", "0,1")
    assert code == EXIT_MATH_FAIL
    assert docs == []
    assert err == "check failed: vanishing order exceeded k\n"


def test_reachability(capsys):
    code, docs, _ = run(capsys, "reachability", "--n", "5", "--d", "2", "--m", "4")
    assert code == EXIT_OK
    assert docs[0]["status"] == "impossible"


@pytest.mark.parametrize("char", ["4", "-3", "1", "3"])
def test_reachability_characteristic_is_0_or_a_prime_not_dividing_d(capsys, char):
    code, docs, err = run(capsys, "reachability", "--n", "4", "--d", "3", "--m", "6",
                          "--char", char)
    assert code == EXIT_USAGE and docs == [] and err.startswith("error: characteristic")
    code, docs, _ = run(capsys, "reachability", "--n", "4", "--d", "3", "--m", "6",
                        "--char", "5")
    assert code == EXIT_OK and docs[0]["status"] == "requires_m0_conditions"


@pytest.mark.parametrize("change", [
    ('"n": 3', '"n": 3.5'), ('"d": 2', '"d": 2.9'), ('"p": 13', '"p": 13.7'),
    ('"a": "0"', '"a": true')])
def test_verify_rejects_loose_json_scalars(capsys, change):
    cert = ('{"n": 3, "d": 2, "m0": 4, "field": {"kind": "Fp", "p": 13}, '
            '"a": "0", "B": "1", "q": ["1", "1"]}')
    assert run(capsys, "verify", "--cert", cert)[0] == EXIT_OK
    code, docs, err = run(capsys, "verify", "--cert", cert.replace(*change))
    assert code == EXIT_USAGE and docs == [] and err.startswith("error: ")


def test_elliptic4_build_and_kubert(capsys):
    code, docs, _ = run(capsys, "elliptic4", "build", "--B", "1", "--B1", "1")
    assert code == EXIT_OK
    assert docs[0]["order_Q0"] == 4 and docs[0]["order_Q2"] == 2
    assert docs[0]["b"] == "-1/2"
    code, docs, _ = run(capsys, "elliptic4", "from-kubert", "--b", "-2")
    assert code == EXIT_OK
    assert docs[0]["B"] == "1" and docs[0]["B1"] == "1/2"
    assert docs[0]["marked_point_image"] == {"x": "0", "y": "1"}


def test_two_packet_admissible(capsys):
    code, docs, _ = run(capsys, "two-packet", "admissible", "--n", "9", "--d", "2")
    assert code == EXIT_OK
    assert docs[0]["verdict"] == "exempt"


def test_two_packet_build_and_bad_lambdas(capsys):
    code, docs, _ = run(capsys, "two-packet", "build", "--p", "13", "--n", "3",
                        "--I", "0,1", "--lambda", "6", "--equal")
    assert code == EXIT_OK
    assert docs[0]["f"] == ["10", "6", "5", "5"]
    code, docs, _ = run(capsys, "two-packet", "bad-lambdas", "--p", "13",
                        "--n", "3", "--I", "0,1", "--C", "1")
    assert code == EXIT_OK
    assert docs[0]["contained"] is True
    assert 1 in docs[0]["candidate_bad"] and 12 in docs[0]["candidate_bad"]
    assert set(docs[0]["confirmed_bad"]) <= set(docs[0]["candidate_bad"])


def test_two_packet_build_bad_lambda_exit(capsys):
    code, docs, _ = run(capsys, "two-packet", "build", "--p", "13", "--n", "3",
                        "--I", "0,1", "--lambda", "5", "--equal")
    assert code == EXIT_MATH_FAIL
    assert docs[0]["error"] in ("NotSquarefree", "DegreeNotNormalized")


def test_usage_errors(capsys):
    code, _, err = run(capsys, "order", "--curve", "{not json", "--point", "0,1")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "two-packet", "build", "--n", "3")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "nonsense")
    assert code == EXIT_USAGE


def test_manifest_written_and_deterministic(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    blobs = []
    for _ in range(2):
        code = dispatch(["--manifest", str(path), "family", "slack0",
                         "--n", "4", "--d", "3", "--field", "Q"])
        capsys.readouterr()
        assert code == EXIT_OK
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0])
    assert doc["command"] == "family"
    assert doc["parameters"]["n"] == 4
    assert len(doc["results"]) == 1
    assert doc["checks_failed"] == 0


def test_manifest_counts_verify_checks(tmp_path, capsys):
    code, docs, _ = run(capsys, "family", "slack1", "--n", "3", "--d", "2",
                        "--B", "1", "--B1", "1", "--field", "Q")
    path = tmp_path / "m.json"
    code = dispatch(["--manifest", str(path), "verify", "--cert",
                     json.dumps(docs[0])])
    capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    assert doc["checks_passed"] >= 5 and doc["checks_failed"] == 0


def test_determinism_byte_identical(capsys):
    outs = []
    for _ in range(2):
        dispatch(["two-packet", "sweep", "--p", "13", "--n", "3", "--C", "1,2"])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0]  # nonempty: the sweep found families


def test_sweep_families_reverify(capsys):
    dispatch(["two-packet", "sweep", "--p", "13", "--n", "3"])
    out = capsys.readouterr().out
    docs = [json.loads(line) for line in out.splitlines()]
    assert docs
    from supertorsion import GF, Poly, SuperellipticCurve, elliptic_order
    for doc in docs:
        F = GF(doc["p"])
        f = Poly(F, [int(c) for c in doc["f"]])
        curve = SuperellipticCurve(F, 2, f)
        for x0 in (F(0), -F(1)):
            for pt in curve.points_above(x0):
                assert elliptic_order(curve, pt, 8) == 4


def reference_sweep_lines(p, n, cs):
    """The sweep output from trying every lambda in F_p^* for each subset."""
    from itertools import combinations

    from supertorsion import (GF, bad_lambda_set, build_two_packet_equal,
                              build_two_packet_general, serialize, two_packet)
    from supertorsion.errors import SupertorsionError
    field = GF(p)
    lines = []
    for C in map(field, cs):
        for I in combinations(field.roots_of_unity(n + 1), (n + 1) // 2):
            pk = two_packet(field, n, I, C)
            bad = bad_lambda_set(pk)
            for lam in field.units():
                try:
                    if C == field.one:
                        fam = build_two_packet_equal(pk, lam)
                    else:
                        fam = build_two_packet_general(pk, lam, C ** (n + 1), field.one)
                except SupertorsionError:
                    continue
                doc = serialize.packet_family_to_json(fam)
                doc["candidate_bad"] = lam in bad
                lines.append(json.dumps(doc, sort_keys=True))
    return lines


@pytest.mark.parametrize("p,n", [(13, 3), (29, 3), (13, 5)])
def test_sweep_matches_exhaustive_lambda_loop(capsys, p, n):
    code = dispatch(["two-packet", "sweep", "--p", str(p), "--n", str(n),
                     "--C", "1,2,3"])
    captured = capsys.readouterr()
    expected = reference_sweep_lines(p, n, (1, 2, 3))
    assert code == EXIT_OK and expected
    assert captured.out.splitlines() == expected
    assert captured.err.strip() == f"built {len(expected)} families"


def test_field_beyond_primality_bound_is_usage_error(capsys):
    code, docs, err = run(capsys, "family", "slack0", "--n", "4", "--d", "3",
                          "--field", "F3317044064679887385961981")
    assert code == EXIT_USAGE and docs == []
    assert "primality" in err


def test_field_with_large_prime(capsys):
    code, docs, _ = run(capsys, "family", "slack0", "--n", "4", "--d", "3",
                        "--field", "F100000000000000003")
    assert code == EXIT_OK
    assert docs[0]["field"] == {"kind": "Fp", "p": 100000000000000003}
