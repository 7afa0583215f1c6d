"""Smoke test of the benchmark itself: a tiny seeded run of the cheapest op
of each kind, about a second, through the same code as a full run.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import time

import run
import workloads


def _tiny_round(seed):
    """The smallest op of each kind in round 0 of every workload."""
    smallest = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.round_ops(workload, seed, 0):
            key = (workload, op.kind)
            if key not in smallest or op.size < smallest[key].size:
                smallest[key] = op
    return list(smallest.values())


def test_tiny_run_is_correct_and_reports_every_metric(monkeypatch):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    cli = run.import_program()
    ops = _tiny_round(seed=7)
    assert {op.kind for op in ops} == {"verify", "cantor", "elliptic4", "bad-lambdas", "sweep"}
    assert [op.argv for op in _tiny_round(seed=7)] == [op.argv for op in ops]

    # plain, spanned and counted passes over the same ops must print the same
    plain, layers, report, correct = run.run_traced(
        cli, run.Deadline(), [ops], time.monotonic() + 60)
    assert correct, report["traced_failures"]
    assert plain.failures() == [] and len(plain.records) == len(ops)
    assert set(layers) == {m["name"] for m in declared["per_layer"]}
    assert set(report["moves"]) == set(layers)

    metrics, _ = run.end_to_end(plain, setup_s=run.measure_setup())
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert all(units[name] == unit for name, (_, unit) in {**metrics, **layers}.items())


def test_a_timed_out_op_is_a_failed_op(monkeypatch):
    cli = run.import_program()
    monkeypatch.setattr(run, "OP_CAP_S", 0.01)
    op = max(workloads.round_ops("twopacket", 7, 0), key=lambda o: o.size)
    runner = run.Runner(cli, run.Deadline(), time.monotonic() + 60)
    runner.run_op(op)
    assert runner.failures() == ["timed out after 0.01 s"]
