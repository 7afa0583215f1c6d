"""End-to-end benchmark of the supertorsion command line, with a traced run.

    python3 bench/run.py --workload certify-q --seed 1 --seconds 25 --trace 0

One client in one process runs a closed loop: each op is a command line given
to ``supertorsion.cli.dispatch`` in-process with stdout and stderr captured,
and the next op starts when the previous one returns.  Ops come from
``workloads.py``, are generated from the seed before timing starts, and are
checked against answers known by construction.  Each op has a time cap; an op
that hits it is recorded as a failed op.

``--trace 0`` runs whole rounds until ``--seconds`` have passed and at least
MIN_OPS ops are done, and reports the end-to-end metrics.  ``--trace 1``
runs TRACE_ROUNDS rounds, each op three times: plain, with per-layer spans
(``spans.py``), and with a count of field-element operations; it reports the
per-layer metrics.  A fixed round count makes the counts repeat exactly for
a seed.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it is a report with run metadata, the stdout
SHA-256 of every round (equal across runs of one seed), each op's kind, size,
field and latency, each op kind's size axis with a fitted growth exponent,
the share of ops whose field repeats an earlier op's, and, when traced, what
each per-layer metric should move.

The program is imported from ``src/`` next to this directory; the run fails
without a result when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 100          # p90 then has at least 10 samples beyond it
TRACE_ROUNDS = 1
OP_CAP_S = 10.0        # per-op time cap
RUN_LIMIT_S = 140.0    # no op starts after this much time in one run
SETUP_REPEATS = 15

PER_LAYER = (
    "orders.order_of_class.calls", "orders.order_of_class.self_s",
    "orders.left_kernel_vector.calls", "orders.left_kernel_vector.self_s",
    "orders.kernel_cells", "orders.kernel_hit_ratio",
    "poly.series_dth_root.calls", "poly.series_dth_root.self_s",
    "poly.series_mul.calls", "poly.series_mul.self_s",
    "poly.mul.calls", "poly.mul.self_s",
    "poly.divmod.calls", "poly.divmod.self_s",
    "poly.gcd.calls", "poly.gcd.self_s",
    "poly.is_squarefree.calls", "poly.is_squarefree.self_s",
    "poly.roots_in_field.calls", "poly.roots_in_field.self_s",
    "fields.roots_of_unity.calls", "fields.roots_of_unity.self_s",
    "fields.nth_root.calls", "fields.nth_root.self_s",
    "twopacket.bad_lambda_set.calls", "twopacket.bad_lambda_set.self_s",
    "twopacket.confirmed_bad_lambdas.calls", "twopacket.confirmed_bad_lambdas.self_s",
    "twopacket.packet_polynomial.calls", "twopacket.build.calls", "twopacket.build_yield",
    "orders.cantor_order.self_s", "orders.cantor_add.calls", "orders.cantor_add.self_s",
    "elliptic4.check_order_structure.calls", "elliptic4.check_order_structure.self_s",
    "orders.elliptic_add.calls",
    "certificates.verify_certificate.self_s", "certificates.build_certificate.self_s",
    "serialize.self_s", "cli.dispatch.self_s",
)

SETUP_CODE = ("import time\nt = time.perf_counter()\nimport supertorsion.cli\n"
              "supertorsion.cli.build_parser()\nprint(time.perf_counter() - t)")


class OpTimeout(BaseException):
    """Raised inside an op that ran past its cap; a BaseException so the
    program's own ``except`` clauses do not swallow it."""


class Deadline:
    """SIGALRM-based cap on one op, in this thread, with no extra threads."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout

    @contextlib.contextmanager
    def cap(self, seconds):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def import_program():
    if not (SRC / "supertorsion" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'supertorsion'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import supertorsion.cli
    if not Path(supertorsion.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported supertorsion from {supertorsion.__file__}, not {SRC}")
    return supertorsion.cli


def calibrate():
    """Seconds for a fixed pure-Python loop (median of 3), to show machine
    speed drift between runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_setup():
    """Median seconds for a fresh interpreter to import the package and build
    the CLI parser; the first, untimed child fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        child = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                               capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(child.stdout))
    return statistics.median(times)


class Runner:
    """Runs ops through ``cli.dispatch`` and records what each did.
    ``context`` is entered around each op, outside its timing."""

    def __init__(self, cli, deadline, stop_at, context=contextlib.nullcontext()):
        self.cli = cli
        self.deadline = deadline
        self.stop_at = stop_at
        self.context = context
        self.records = []      # (op, seconds, failure reason or None)
        self.digests = []      # stdout SHA-256 per completed round
        self._digest = hashlib.sha256()

    def run_op(self, op):
        out, err = io.StringIO(), io.StringIO()
        code, reason = None, None
        with self.context:
            start = time.perf_counter()
            try:
                with self.deadline.cap(OP_CAP_S), \
                        contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.dispatch(list(op.argv))
            except OpTimeout:
                reason = f"timed out after {OP_CAP_S} s"
            except Exception as e:  # an escaped exception is a failed op, not a crash
                reason = f"raised {type(e).__name__}: {e}"
            elapsed = time.perf_counter() - start
        if reason is None:
            try:
                reason = workloads.check(op, code, out.getvalue(), err.getvalue())
            except ValueError as e:
                reason = f"unparsable output: {e}"
        self.records.append((op, elapsed, reason))
        self._digest.update(out.getvalue().encode())

    def end_round(self):
        self.digests.append(self._digest.hexdigest())
        self._digest = hashlib.sha256()

    def run_round(self, ops):
        """Run one round; False if the run limit cut it short."""
        for op in ops:
            if time.monotonic() > self.stop_at:
                return False
            self.run_op(op)
        self.end_round()
        return True

    def busy_seconds(self):
        return sum(r[1] for r in self.records)

    def failures(self):
        return [r[2] for r in self.records if r[2] is not None]


def end_to_end(runner, setup_s):
    lat = sorted(r[1] for r in runner.records)
    p50, p90 = (statistics.quantiles(lat, n=10, method="inclusive")[i] for i in (4, 8))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (len(lat) / runner.busy_seconds(), "1/s"),
        "latency_p50_ms": (1000 * p50, "ms"),
        "latency_p90_ms": (1000 * p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    extra = {"samples": len(lat), "beyond_p90": sum(1 for x in lat if x > p90)}
    return metrics, extra


def per_layer(trace, elem_ops, overhead):
    metrics = {name: trace.metric(name) for name in PER_LAYER}
    metrics["fields.elem_ops"] = (elem_ops, "count")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def size_report(records):
    """Per op kind: its size axis, the sizes seen and a least-squares growth
    exponent of latency against size on log-log axes."""
    out = {}
    for kind in sorted({r[0].kind for r in records}):
        pts = [(math.log(r[0].size), math.log(r[1])) for r in records if r[0].kind == kind]
        sizes = sorted({r[0].size for r in records if r[0].kind == kind})
        entry = {"axis": "p" if kind in ("bad-lambdas", "sweep") else "m0",
                 "sizes": sizes, "ops": len(pts), "growth_exponent": None}
        if len(sizes) > 1:
            mx = statistics.fmean(x for x, _ in pts)
            my = statistics.fmean(y for _, y in pts)
            sxx = sum((x - mx) ** 2 for x, _ in pts)
            entry["growth_exponent"] = sum((x - mx) * (y - my) for x, y in pts) / sxx
        out[kind] = entry
    return out


def field_repeat_share(records):
    seen, repeats = set(), 0
    for op, _, _ in records:
        repeats += op.field in seen
        seen.add(op.field)
    return repeats / len(records)


def commit():
    """The checkout's commit when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_untraced(cli, deadline, workload, seed, seconds, stop_at):
    """Whole rounds until ``seconds`` have passed and MIN_OPS ops are done."""
    runner = Runner(cli, deadline, stop_at)
    loop_start = time.monotonic()
    index = 0
    while time.monotonic() - loop_start < seconds or len(runner.records) < MIN_OPS:
        if not runner.run_round(workloads.round_ops(workload, seed, index)):
            break
        index += 1
    return runner


def run_traced(cli, deadline, rounds, stop_at):
    """Each op three times in a row: plain, with spans and with element-op
    counting.  Pairing each op's plain and spanned run in time keeps machine
    speed drift out of the overhead ratio.  Returns the plain runner, the
    per-layer metrics, report entries and whether every pass printed the same
    stdout without failures."""
    import spans

    trace, counter = spans.LayerTrace(), spans.ElemOpCounter()
    runners = [Runner(cli, deadline, stop_at, context)
               for context in (contextlib.nullcontext(), trace, counter)]
    for ops in rounds:
        for op in ops:
            if time.monotonic() > stop_at:
                break
            for runner in runners:
                runner.run_op(op)
        for runner in runners:
            runner.end_round()
    plain, traced, counted = runners
    metrics = per_layer(trace, counter.count, traced.busy_seconds() / plain.busy_seconds())
    traced_failures = traced.failures() + counted.failures()
    report = {"moves": {name: spans.moves(name) for name in metrics},
              "traced_failures": traced_failures[:5]}
    # tracing must not change what the program prints
    same = traced.digests == plain.digests == counted.digests
    return plain, metrics, report, same and not traced_failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    stop_at = time.monotonic() + RUN_LIMIT_S
    cli = import_program()
    deadline = Deadline()
    calibration = [calibrate()]
    setup_s = measure_setup()
    # one untimed command first, so lazy one-time work in the process is done
    with contextlib.redirect_stdout(io.StringIO()):
        cli.dispatch(["reachability", "--n", "4", "--d", "3", "--m", "6"])

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": commit(),
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "op_cap_s": OP_CAP_S}
    if args.trace == 0:
        runner = run_untraced(cli, deadline, args.workload, args.seed, args.seconds, stop_at)
        metrics, extra = end_to_end(runner, setup_s)
        correct = True
    else:
        rounds = [workloads.round_ops(args.workload, args.seed, i) for i in range(TRACE_ROUNDS)]
        runner, metrics, extra, correct = run_traced(cli, deadline, rounds, stop_at)
    report.update(extra)
    calibration.append(calibrate())

    failures = runner.failures()
    report.update({
        "calibration_s": calibration, "rounds": len(runner.digests),
        "ops": len(runner.records), "error_rate": len(failures) / len(runner.records),
        "failures": failures[:5], "stdout_sha256": runner.digests,
        "sizes": size_report(runner.records),
        "field_repeat_share": field_repeat_share(runner.records),
        "op_log": [[op.kind, op.size, op.field, round(1000 * s, 3), reason is None]
                   for op, s, reason in runner.records],
    })
    result = {"correct": correct and not failures, "attempted": len(runner.records),
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
