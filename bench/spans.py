"""Per-layer spans and counters for the traced benchmark pass.

``LayerTrace`` replaces public functions and methods of the ``supertorsion``
modules with wrappers that time each call.  A span's self time is its
duration minus the durations of the spans it caused, so nested calls into
another layer are charged to that layer.  Spans are aggregated in memory by
name (calls and self seconds), never written per call.

A module that does ``from .poly import series_dth_root`` holds its own
binding of the function, so every binding in every loaded ``supertorsion``
module is replaced, not only the defining one.  Everything is restored on
exit.

``ElemOpCounter`` counts ``FieldElement`` arithmetic calls in a separate
pass, so that counting does not inflate span times.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name); the module-level functions that are spanned
FUNCTIONS = (
    ("cli", "dispatch", "cli.dispatch"),
    ("certificates", "verify_certificate", "certificates.verify_certificate"),
    ("certificates", "build_certificate", "certificates.build_certificate"),
    ("orders", "order_of_class", "orders.order_of_class"),
    ("orders", "left_kernel_vector", "orders.left_kernel_vector"),
    ("orders", "cantor_order", "orders.cantor_order"),
    ("orders", "cantor_add", "orders.cantor_add"),
    ("orders", "elliptic_add", "orders.elliptic_add"),
    ("elliptic4", "check_order_structure", "elliptic4.check_order_structure"),
    ("poly", "series_dth_root", "poly.series_dth_root"),
    ("poly", "poly_gcd", "poly.gcd"),
    ("poly", "poly_xgcd", "poly.gcd"),
    ("poly", "is_squarefree", "poly.is_squarefree"),
    ("poly", "roots_in_field", "poly.roots_in_field"),
    ("twopacket", "bad_lambda_set", "twopacket.bad_lambda_set"),
    ("twopacket", "confirmed_bad_lambdas", "twopacket.confirmed_bad_lambdas"),
    ("twopacket", "packet_polynomial", "twopacket.packet_polynomial"),
    ("twopacket", "build_two_packet_equal", "twopacket.build"),
    ("twopacket", "build_two_packet_general", "twopacket.build"),
)

# (module, class, attribute, span name); methods are patched on the class
METHODS = (
    ("poly", "Poly", "__mul__", "poly.mul"),
    ("poly", "Poly", "__rmul__", "poly.mul"),
    ("poly", "Poly", "__divmod__", "poly.divmod"),
    ("poly", "TruncatedSeries", "__mul__", "poly.series_mul"),
    ("poly", "TruncatedSeries", "__rmul__", "poly.series_mul"),
    ("fields", "PrimeField", "roots_of_unity", "fields.roots_of_unity"),
    ("fields", "Rationals", "roots_of_unity", "fields.roots_of_unity"),
    ("fields", "PrimeField", "nth_root", "fields.nth_root"),
    ("fields", "Rationals", "nth_root", "fields.nth_root"),
)

ELEM_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")

# Which end-to-end metric each per-layer metric should move, and where.
MOVES = {
    "orders.": "latency_p50_ms and ops_per_s on certify-q (most) and certify-fp;"
               " no change on twopacket",
    "poly.series_": "latency_p50_ms and ops_per_s on certify-q (most) and"
                    " certify-fp; no change on twopacket",
    "poly.": "latency on twopacket (one squarefree test per lambda) and the"
             " Cantor share of certify-fp; small on certify-q",
    "fields.roots_of_unity": "latency_p90_ms and ops_per_s on twopacket and"
                             " certify-fp; zero on certify-q",
    "fields.nth_root": "latency_p90_ms and ops_per_s on twopacket and"
                       " certify-fp; zero on certify-q",
    "fields.elem_ops": "every end-to-end metric on all three workloads,"
                       " Q and F_p differently",
    "twopacket.": "twopacket only; the sweep tail is latency_p90_ms",
    "orders.cantor": "ops_per_s and latency_p90_ms on certify-fp only",
    "elliptic4.": "ops_per_s on certify-q only",
    "orders.elliptic_add": "ops_per_s on certify-q only",
    "certificates.": "ops_per_s on all workloads, largest share on certify-fp",
    "serialize.": "ops_per_s on all workloads, largest share on certify-fp",
    "cli.": "ops_per_s on all workloads, largest share on certify-fp",
    "trace.": "none: the cost of tracing itself",
}


def moves(metric: str) -> str:
    """The MOVES entry with the longest prefix of ``metric``."""
    key = max((k for k in MOVES if metric.startswith(k)), key=len)
    return MOVES[key]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "supertorsion" or name.startswith("supertorsion."))]


class _Patcher:
    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, value):
        """Rebind ``original`` in every supertorsion module that holds it."""
        for module in _package_modules():
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    self.replace(module, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class LayerTrace:
    """Context manager: span every FUNCTIONS and METHODS entry."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.kernel_cells = 0
        self.kernel_hits = 0
        self.builds_ok = 0
        self._stack = [[0.0]]
        self._patcher = _Patcher()

    def _span(self, name, fn, on_return=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children[0]
            if on_return is not None:
                on_return(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, args, result):
        rows = args[0]
        if rows:
            self.kernel_cells += len(rows) * len(rows[0])
        if result is not None:
            self.kernel_hits += 1

    def _built(self, args, result):
        self.builds_ok += 1

    def __enter__(self):
        hooks = {"orders.left_kernel_vector": self._kernel, "twopacket.build": self._built}
        package = sys.modules["supertorsion"]
        for module, attr, name in FUNCTIONS:
            original = getattr(getattr(package, module), attr)
            self._patcher.replace_everywhere(
                original, self._span(name, original, hooks.get(name)))
        serialize = package.serialize
        for attr, fn in list(vars(serialize).items()):
            if callable(fn) and getattr(fn, "__module__", None) == serialize.__name__ \
                    and not attr.startswith("_") and not isinstance(fn, type):
                self._patcher.replace_everywhere(fn, self._span("serialize", fn))
        for module, cls, attr, name in METHODS:
            owner = getattr(getattr(package, module), cls)
            self._patcher.replace(owner, attr, self._span(name, owner.__dict__[attr]))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    def metric(self, name):
        """(value, unit) for a per-layer metric name of this trace."""
        if name == "orders.kernel_cells":
            return self.kernel_cells, "count"
        if name == "orders.kernel_hit_ratio":
            calls = self.calls["orders.left_kernel_vector"]
            return (self.kernel_hits / calls if calls else 0.0), "ratio"
        if name == "twopacket.build_yield":
            calls = self.calls["twopacket.build"]
            return (self.builds_ok / calls if calls else 0.0), "ratio"
        span, _, field = name.rpartition(".")
        if field == "calls":
            return self.calls[span], "count"
        if field == "self_s":
            return self.self_s[span], "s"
        raise KeyError(name)


class ElemOpCounter:
    """Context manager: count calls of FieldElement arithmetic methods."""

    def __init__(self):
        self.count = 0
        self._patcher = _Patcher()

    def __enter__(self):
        element = sys.modules["supertorsion"].fields.FieldElement
        for attr in ELEM_OPS:
            self._patcher.replace(element, attr, self._counted(element.__dict__[attr]))
        return self

    def _counted(self, fn):
        def wrapper(*args):
            self.count += 1
            return fn(*args)
        return wrapper

    def __exit__(self, *exc):
        self._patcher.restore()
        return False
