"""The library's invariants are raised checks, never ``assert``s, which
``python -O`` removes; the library imports nothing outside the standard
library; its error classes are the ones the README documents; every name
the traced benchmark wraps still exists, and entering and leaving its trace
leaves no wrapper behind; the CLI loads only the modules a command runs,
and every package name resolves to its defining module; the order oracles
share one signature; every public function, class or method of the library
is reached from the library itself, or wrapped by the benchmark, or listed
with its reason; and so is every loop over a whole prime field, and every
sum of termwise products, so that polynomial products have one kernel."""

import ast
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from supertorsion import cantor_order, elliptic_order, errors, order_of_class, verify_certificate

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH = Path(__file__).resolve().parent.parent / "bench"
README = Path(__file__).resolve().parent.parent / "README.md"

GUARDS = """
import json
from types import SimpleNamespace

from supertorsion import (QQ, Poly, build_certificate, cli, family_slack1, torsion_params,
                          verify_certificate)
from supertorsion.errors import BadParameters, MathCheckError, NotSquarefree, UsageError
from supertorsion.serialize import certificate_from_json

if __debug__:
    raise SystemExit("not running under -O")
cert = {"n": 3, "d": 2, "field": {"kind": "Q"}, "a": "0", "B": "1", "q": ["1", "1"]}


def failed_checks(doc):
    report = verify_certificate(certificate_from_json(doc))
    raise MathCheckError(f"failed: {[c.name for c in report if not c.passed]}")


cases = [
    (BadParameters, "q(a) = 0", lambda: build_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (0, 1)))),
    (NotSquarefree, "repeated roots", lambda: family_slack1(3, 2, QQ(2), QQ(4))),
    (BadParameters, "need gcd(n, d) = 1", lambda: torsion_params(4, 2)),
    # f = (x^2 + 4x + 2)^2 - x^4 = 4(x + 1)^2 (2x + 1): the modular early exit
    # of the squarefree proof must not turn that into a pass
    (NotSquarefree, "repeated roots",
     lambda: build_certificate(3, 2, QQ(0), QQ(1), Poly(QQ, (2, 4)))),
    # the same f declared: a certificate in every other respect, whose
    # normal-form proof must not pass it either
    (MathCheckError, "failed: ['squarefree']",
     lambda: failed_checks({**cert, "q": ["2", "4"], "f": ["4", "16", "20", "8"]})),
    (BadParameters, "deg v = 3, expected ell0 = 2",
     lambda: certificate_from_json({**cert, "v": ["1", "1", "0", "1"]})),
    (BadParameters, "deg f = 4, expected n = 3",
     lambda: certificate_from_json({**cert, "f": ["1", "1", "0", "1", "1"]})),
    # normalize refuses declared data that verify reports as failed
    (UsageError, "invalid certificate: shape failed",
     lambda: cli._cmd_normalize(SimpleNamespace(cert=json.dumps({**cert, "v": ["-1"] * 3})))),
]
for exc, message, call in cases:
    try:
        call()
    except exc as e:
        if message in str(e):
            continue
    raise SystemExit(f"{exc.__name__} ({message}) not raised")
print("ok")
"""


def _src_trees():
    for path in sorted((SRC / "supertorsion").glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_no_assert_in_src():
    found = []
    for name, tree in _src_trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_src_imports_only_the_standard_library():
    found = []
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{name}:{node.lineno}: {m}" for m in modules
                      if m.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_error_classes_are_the_documented_eight():
    # the README's Errors table lists every class with its base and exit code
    section = README.read_text().split("\n## Errors\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (\d) \|", section, re.M)
    documented = {name: (base, int(code)) for name, base, code in rows}
    defined = {name: value.__base__.__name__ for name, value in vars(errors).items()
               if isinstance(value, type)}
    assert len(documented) == len(rows) == 8
    assert {name: base for name, (base, _) in documented.items()} == defined
    # exit 2 for the usage errors, 1 for every other
    assert {name: code for name, (_, code) in documented.items()} == {
        name: 2 if issubclass(getattr(errors, name), errors.UsageError) else 1
        for name in defined}
    # each class is raised or caught by name somewhere in the package
    used = set()
    for _, src_tree in _src_trees():
        for node in ast.walk(src_tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used.add(getattr(node.exc, "func", node.exc))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used.update(getattr(node.type, "elts", [node.type]))
    assert set(defined) <= {node.id for node in used if isinstance(node, ast.Name)}


def test_input_guards_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-O", "-c", GUARDS], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.strip() == "ok"


TRACE_RESTORES = """
import importlib.util, json, sys, types
import supertorsion.cli
spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
with spans.LayerTrace():
    pass
modules = {name: m for name, m in list(sys.modules.items())
           if name.split(".")[0] == "supertorsion"}
print(json.dumps([sorted(modules), sorted(
    f"{name}.{attr}" for name, m in modules.items() for attr, value in vars(m).items()
    if isinstance(value, types.FunctionType) and hasattr(value, "__wrapped__"))]))
"""


def test_bench_spans_wrap_and_restore_src(capsys):
    # a renamed or removed function or method would make ``bench/run.py
    # --trace 1`` fail with an AttributeError or KeyError on entering
    import supertorsion.cli
    from supertorsion import fields, poly

    spans = _bench_spans()
    originals = (poly.poly_gcd, poly.Poly.__divmod__, fields.FieldElement.__mul__)
    with spans.LayerTrace() as trace, spans.ElemOpCounter() as counter:
        code = supertorsion.cli.dispatch(["two-packet", "sweep", "--p", "13", "--n", "3"])
    capsys.readouterr()
    assert code == 0
    assert trace.calls["cli.dispatch"] == 1 and trace.calls["twopacket.build"] > 0
    assert counter.count > 0
    assert (poly.poly_gcd, poly.Poly.__divmod__, fields.FieldElement.__mul__) == originals
    # entering the trace imports every spanned module not yet loaded; one
    # that bound a spanned function by name at that moment would keep the
    # wrapper after exit and count calls outside the trace
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-S", "-c", TRACE_RESTORES, str(BENCH / "spans.py")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded, wrapped = json.loads(run.stdout)
    assert loaded == sorted(["supertorsion"] + [f"supertorsion.{path.stem}" for path in
                                                (SRC / "supertorsion").glob("*.py")
                                                if path.stem not in ("__init__", "__main__")])
    assert wrapped == []


def _parameters(fn):
    return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]


def test_every_order_oracle_takes_curve_point_and_max_k_without_defaults():
    # one contract: a point, never a divisor, and a bound every caller states;
    # verify's oracle runs to 2*m0, with no bound to set
    empty = inspect.Parameter.empty
    for oracle in (order_of_class, cantor_order, elliptic_order):
        assert _parameters(oracle) == [("curve", empty), ("point", empty), ("max_k", empty)], \
            oracle.__name__
    assert _parameters(verify_certificate) == [("cert", empty), ("run_oracle", False)]


def test_only_certificates_builds_a_curve_without_is_squarefree():
    # SuperellipticCurve._proven skips is_squarefree: the constructor calls it
    # once its checks pass, and otherwise only certificates.py, whose
    # normal-form lemma and good reduction prove f squarefree
    callers = Counter(name for name, tree in _src_trees() for node in ast.walk(tree)
                      if getattr(node, "attr", None) == "_proven")
    assert sorted(callers) == ["certificates.py", "curves.py"] and callers["curves.py"] == 1


#: public top-level names and methods (as Class.method) of src/ that nothing
#: in src/ refers to and the benchmark does not wrap, each with the reason it
#: stays
UNREFERENCED_PUBLIC = {
    "example_m0_equals_nplus1": "the closed-form m0 = n+1 construction the README describes",
    "curve_to_json": "serialize round-trip pair of curve_from_json, which `order` reads",
    "point_from_json": "serialize round-trip pair of point_to_json, which the CLI writes",
    "resultant": "the public face of _resultant_values, which _candidate_lambdas uses",
    "PacketFamily.packet_points": "the README quick start lists the packet points with it",
    "TruncatedSeries.from_poly": "a constructor of TruncatedSeries, a class bench/ keeps",
    "normalize_certificate": "the library's normalization, which proves f; `normalize` "
                             "has verified f and assembles the same certificate unproven",
}


def _names_used(tree):
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _public_definitions(tree):
    """(name, node) for each public top-level function and class of a
    module, and for each public method of its classes as Class.method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        for method in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                yield f"{node.name}.{method.name}", method


def test_every_public_name_in_src_is_reached():
    # a reference is a Name or an Attribute in src/ outside the definition
    # itself and __init__.py; a docstring mention is not one.  A method is
    # reached by any attribute of its name, whatever the object
    spans = _bench_spans()
    wrapped = {entry[1] for entry in spans.FUNCTIONS + spans.METHODS} | \
        {f"{cls}.{attr}" for _, cls, attr, _ in spans.METHODS}
    trees = [tree for name, tree in _src_trees() if name != "__init__.py"]
    used = sum(map(_names_used, trees), Counter())
    unreached = {name for tree in trees for name, node in _public_definitions(tree)
                 if used[node.name] == _names_used(node)[node.name]} - wrapped
    assert sorted(unreached - set(UNREFERENCED_PUBLIC)) == []
    # an entry that something now reaches leaves the list
    assert sorted(set(UNREFERENCED_PUBLIC) - unreached) == []


#: every loop of src/ over a whole prime field, keyed by module and by
#: top-level function or Class.method, with the reason its cost is not a
#: hidden O(p): a for or comprehension over range(...) of p or .p, such a
#: range passed to a call (which may loop over it), or a .units() call
WHOLE_FIELD_LOOPS = {
    "fields.PrimeField._element_of_order": "expected O(1) tries: c^((p-1)/m) has order m "
                                           "for a share phi(m)/m of the units c",
    "poly._split_linear": "expected few shifts a: by a character-sum bound, gcd((x+a)^((p-1)/2)"
                          " - 1, g) splits g for about half of the a",
    "twopacket._candidate_lambdas": "its first 2n+1 units, and every unit only when "
                                    "p < 2n+4 or R vanishes identically",
    "twopacket.bad_lambda_set": "the degenerate bad-lambda listing of about p/2 values, "
                                "refused above the 2^16 guard",
}


def _scopes(tree):
    """(name, node) for each top-level function, each method as
    Class.method, and <module> for the statements outside them; a nested
    function belongs to the definition around it."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield (f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                       else node.name), item
        else:
            yield node.name if isinstance(node, ast.FunctionDef) else "<module>", node


def _loops_over_the_field(node):
    if isinstance(node, ast.Call):
        if getattr(node.func, "attr", None) == "units":
            return True
        iters = node.args + [keyword.value for keyword in node.keywords]
    elif isinstance(node, (ast.For, ast.comprehension)):
        iters = [node.iter]
    else:
        return False
    return any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "range"
               and any(getattr(name, "id", getattr(name, "attr", None)) == "p"
                       for arg in call.args for name in ast.walk(arg))
               for it in iters for call in ast.walk(it))


def test_every_whole_field_loop_is_listed():
    # a loop over F_p that no entry names is a hidden O(p) per call
    sites = {f"{module[:-3]}.{scope}" for module, tree in _src_trees()
             for scope, node in _scopes(tree) if any(map(_loops_over_the_field, ast.walk(node)))}
    assert sorted(sites - set(WHOLE_FIELD_LOOPS)) == []
    # an entry whose loop is gone leaves the list
    assert sorted(set(WHOLE_FIELD_LOOPS) - sites) == []


#: every scope of src/ with a sum of termwise products, sum(map(mul, ...)),
#: keyed like WHOLE_FIELD_LOOPS, with the reason it is not a second product
#: kernel: every polynomial product goes through poly._packed_product
TERMWISE_SUMS = {
    "poly._series_root_powers": "the first-order recurrence: each r_k needs the r_i before it",
    "poly.TruncatedSeries.inverse": "series inversion, one coefficient at a time from the "
                                    "ones before it",
}


def _is_termwise_sum(node):
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
            and any(isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "map"
                    and arg.args and getattr(arg.args[0], "id", None) == "mul"
                    for arg in node.args))


def test_one_polynomial_product_kernel():
    # a sum of termwise products outside the list is a second product kernel
    sites = {f"{module[:-3]}.{scope}" for module, tree in _src_trees()
             for scope, node in _scopes(tree) if any(map(_is_termwise_sum, ast.walk(node)))}
    assert sorted(sites - set(TERMWISE_SUMS)) == []
    # an entry whose sum is gone leaves the list
    assert sorted(set(TERMWISE_SUMS) - sites) == []


def test_cli_import_generates_no_dataclass_code():
    # dataclasses generates each record's methods at import and pulls in
    # inspect; together they were about a quarter of the CLI's cold start.
    # -S keeps site hooks from loading either module first.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, supertorsion.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


FOOTPRINT = """
import contextlib, io, json, sys
import supertorsion.cli as cli
cli.build_parser()
loaded = [sorted(m for m in sys.modules if m.split(".")[0] == "supertorsion")]
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        loaded.append(cli.dispatch(argv))
    loaded.append(sorted(m[13:] for m in sys.modules if m.startswith("supertorsion.")))
print(json.dumps(loaded))
"""

_CERT = json.dumps({"n": 4, "d": 3, "field": {"kind": "Q"}, "a": "0", "B": "1", "q": ["1"]})
_CURVE = json.dumps({"d": 2, "field": {"kind": "Fp", "p": 13}, "f": ["1", "0", "0", "1"]})

#: command line -> the modules it must not load
COMMAND_FOOTPRINT = (
    (["reachability", "--n", "4", "--d", "3", "--m", "6"],
     {"serialize", "certificates", "orders", "twopacket", "elliptic4"}),
    (["two-packet", "bad-lambdas", "--p", "37", "--n", "3", "--I", "0,1"],
     {"certificates", "orders", "elliptic4"}),
    (["order", "--curve", _CURVE, "--point", "0,1"], {"certificates", "twopacket", "elliptic4"}),
    (["verify", "--oracle", "--cert", _CERT], {"twopacket", "elliptic4"}),
)

#: every name the package exported when it imported all its modules eagerly
EXPORTS = {
    "curves": "AffinePoint ReachabilityStatus SuperellipticCurve TorsionParams "
              "reachability_status torsion_params",
    "certificates": "TorsionCertificate VerificationReport build_certificate family_slack0 "
                    "family_slack1 normalize_certificate verify_certificate",
    "elliptic4": "check_order_structure from_kubert to_kubert",
    "fields": "GF QQ FieldElement PrimeField Rationals",
    "orders": "MumfordDivisor cantor_add cantor_order elliptic_add elliptic_order "
              "order_of_class",
    "poly": "NEG_INF Poly TruncatedSeries is_squarefree poly_gcd poly_xgcd roots_in_field "
            "series_dth_root",
    "twopacket": "AdmissibilityVerdict PacketFamily TwoPacket bad_lambda_members bad_lambda_set "
                 "build_H build_two_packet_equal build_two_packet_general confirmed_bad_lambdas "
                 "example_m0_equals_nplus1 packet_polynomial sweep_families two_packet "
                 "two_packet_admissible",
}


def _footprint(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT, json.dumps(argv)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_cli_loads_only_the_modules_a_command_runs():
    # the import and the parser load no mathematics; each command loads what
    # it calls, so --help or reachability does not compile the whole package
    assert _footprint([]) == [["supertorsion", "supertorsion.cli", "supertorsion.errors"]]
    for argv, absent in COMMAND_FOOTPRINT:
        before, code, loaded = _footprint(argv)
        assert before == ["supertorsion", "supertorsion.cli", "supertorsion.errors"]
        assert code == 0 and sorted(absent & set(loaded)) == [], argv[:2]


def test_package_names_resolve_to_their_defining_module():
    import importlib

    import supertorsion

    listed = dir(supertorsion)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"supertorsion.{module}")
        for name in names.split():
            assert getattr(supertorsion, name) is getattr(home, name), name
            assert name in listed, name
        assert getattr(supertorsion, module) is home and module in listed
    try:
        supertorsion.no_such_name
    except AttributeError as e:
        assert "no_such_name" in str(e)
    else:
        raise AssertionError("an unknown name resolved")


PARSER_COUNT = """
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__

def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting
import supertorsion.cli as cli
counts = [len(built)]
for argv in (["reachability", "--n", "4", "--d", "3", "--m", "6"], ["nonsense"],
             ["family", "slack0", "--n", "4", "--d", "3"], ["--help"],
             ["reachability", "--n", "4", "--d", "3", "--m", "6"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.dispatch(argv)
    counts.append(len(built))
fresh = cli.build_parser() is not cli.build_parser()
print(json.dumps([counts + [len(built)], built.count("supertorsion"), fresh]))
"""


def test_cli_builds_its_parser_once_per_process():
    # the benchmark's setup_s times the import plus one build_parser(): the
    # import builds nothing, and dispatch builds the tree on its first call only
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-S", "-c", PARSER_COUNT], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    counts, tops, fresh = json.loads(run.stdout)
    tree = counts[1]  # the top parser and one per subcommand
    assert counts[0] == 0 and tree > 1
    assert counts[1:6] == [tree] * 5
    # build_parser() still builds a new tree on each call
    assert counts[6] == 3 * tree and tops == 3 and fresh
