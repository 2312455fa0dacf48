"""Span tracing for the traced benchmark run, applied from outside the package.

Each wrapper replaces a public function in the module namespace where its
caller looks it up (``decomposition.weight_sums``, ``reports.dumps``,
``cli.save_state``, ...), so no file of the package is edited and no private
name is touched.  A span records name, start, end and parent; spans are
recorded only inside an op, so correctness gates and set-up stay untraced.
Spans live in flat arrays in memory and are written out once, at the end.
"""
from __future__ import annotations

import json
import os
import time
from array import array
from math import comb

# Per-layer metric names, in the order they are reported.
LAYER_METRICS = {
    "pauli.weight_sums_enumeration_s": "s",
    "pauli.strings_enumerated": "count",
    "pauli.weight_sums_moebius_s": "s",
    "pauli.n_tangle_s": "s",
    "purity.reduced_purity_calls": "count",
    "purity.reduced_purity_s": "s",
    "purity.average_balanced_purity_s": "s",
    "decomposition.evaluate_s": "s",
    "decomposition.self_s": "s",
    "search.restart_s": "s",
    "search.iterations_per_restart": "count",
    "search.s_per_iteration": "s",
    "search.cap_hit_ratio": "ratio",
    "states.random_state_s": "s",
    "states.save_state_s": "s",
    "states.load_state_s": "s",
    "states.bytes_written": "B",
    "states.bytes_read": "B",
    "reports.invariants_results_s": "s",
    "reports.dumps_s": "s",
    "reports.report_bytes": "B",
    "cli.state_s": "s",
    "cli.invariants_s": "s",
    "cli.self_s": "s",
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _weight_sums_name(args, kwargs):
    return "pauli.weight_sums_" + _arg(args, kwargs, 2, "strategy", "enumeration")


def _strings_enumerated(args, kwargs, result):
    """Computed count: sum over k <= k_max of C(n, k) * 3^k Pauli strings."""
    if result.strategy != "enumeration":
        return 0
    n = result.n
    return sum(comb(n, k) * 3**k for k in range(1, result.k_max + 1))


def _file_size(index, name):
    return lambda args, kwargs, result: os.path.getsize(_arg(args, kwargs, index, name))


def _report_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _search_stats(args, kwargs, result):
    cap = result.config.max_iters
    return (
        len(result.restart_iterations),
        sum(result.restart_iterations),
        sum(1 for it in result.restart_iterations if it >= cap),
        result.wall_time,
    )


def _cli_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return "cli." + argv[0]


# (module, attribute, span name or name function, count function or None).
# Every entry is the lookup a caller inside the package (or a workload)
# performs at call time.
WRAPPED = (
    ("decomposition", "weight_sums", _weight_sums_name, _strings_enumerated),
    ("reports", "weight_sums", _weight_sums_name, _strings_enumerated),
    ("decomposition", "n_tangle", "pauli.n_tangle", None),
    ("reports", "n_tangle", "pauli.n_tangle", None),
    ("purity", "reduced_purity", "purity.reduced_purity", None),
    ("decomposition", "average_balanced_purity", "purity.average_balanced_purity", None),
    ("reports", "average_balanced_purity", "purity.average_balanced_purity", None),
    ("search", "average_balanced_purity", "purity.average_balanced_purity", None),
    ("decomposition", "evaluate", "decomposition.evaluate", None),
    ("reports", "evaluate", "decomposition.evaluate", None),
    ("decomposition", "fit_coefficients", "decomposition.fit_coefficients", None),
    ("search", "minimize_average_purity", "search.minimize_average_purity", _search_stats),
    ("decomposition", "random_state", "states.random_state", None),
    ("search", "random_state", "states.random_state", None),
    ("cli", "random_state", "states.random_state", None),
    ("cli", "save_state", "states.save_state", _file_size(1, "destination")),
    ("cli", "load_state", "states.load_state", _file_size(0, "source")),
    ("reports", "invariants_results", "reports.invariants_results", None),
    ("reports", "dumps", "reports.dumps", _report_bytes),
    ("cli", "main", _cli_name, None),
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, object] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, item):
        """Run one op as a root span; wrapped calls inside it become children."""
        idx = self._open("op")
        try:
            return fn(item)
        finally:
            self._close(idx)

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer.counts[idx] = count(args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        for module_name, attr, name, count in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def durations_and_self(self) -> tuple[list[float], list[float]]:
        """Per span: duration, and duration minus the time its children cover.

        Children of one span run one after another on one thread, so their
        durations do not overlap and their sum is the time they cover.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        self_time = list(dur)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                self_time[parent] -= dur[idx]
        return dur, self_time

    def summary(self, ops: int) -> tuple[dict[str, float], dict[str, float]]:
        """Every per-layer metric, and each span name's self time, per op."""
        dur, self_time = self.durations_and_self()
        time_by = dict.fromkeys(self.names, 0.0)
        self_by = dict.fromkeys(self.names, 0.0)
        calls_by = dict.fromkeys(self.names, 0)
        count_by: dict[str, int] = {}
        self_by_layer = {"decomposition": 0.0, "cli": 0.0}
        restarts = iterations = capped = 0
        search_wall = 0.0
        for idx, nid in enumerate(self.name):
            name = self.names[nid]
            time_by[name] += dur[idx]
            self_by[name] += self_time[idx]
            calls_by[name] += 1
            layer = name.split(".", 1)[0]
            if layer in self_by_layer:
                self_by_layer[layer] += self_time[idx]
            value = self.counts.get(idx)
            if name == "search.minimize_average_purity":
                r, it, cap, wall = value
                restarts, iterations, capped = restarts + r, iterations + it, capped + cap
                search_wall += wall
            elif value is not None:
                count_by[name] = count_by.get(name, 0) + value

        def per_op(value):
            return value / ops

        def span_s(name):
            return per_op(time_by.get(name, 0.0))

        def counted(name):
            return per_op(count_by.get(name, 0))

        metrics = {
            "pauli.weight_sums_enumeration_s": span_s("pauli.weight_sums_enumeration"),
            "pauli.strings_enumerated": counted("pauli.weight_sums_enumeration"),
            "pauli.weight_sums_moebius_s": span_s("pauli.weight_sums_moebius"),
            "pauli.n_tangle_s": span_s("pauli.n_tangle"),
            "purity.reduced_purity_calls": per_op(calls_by.get("purity.reduced_purity", 0)),
            "purity.reduced_purity_s": span_s("purity.reduced_purity"),
            "purity.average_balanced_purity_s": span_s("purity.average_balanced_purity"),
            "decomposition.evaluate_s": span_s("decomposition.evaluate"),
            "decomposition.self_s": per_op(self_by_layer["decomposition"]),
            "search.restart_s": search_wall / restarts if restarts else 0.0,
            "search.iterations_per_restart": iterations / restarts if restarts else 0.0,
            "search.s_per_iteration": search_wall / iterations if iterations else 0.0,
            "search.cap_hit_ratio": capped / restarts if restarts else 0.0,
            "states.random_state_s": span_s("states.random_state"),
            "states.save_state_s": span_s("states.save_state"),
            "states.load_state_s": span_s("states.load_state"),
            "states.bytes_written": counted("states.save_state"),
            "states.bytes_read": counted("states.load_state"),
            "reports.invariants_results_s": span_s("reports.invariants_results"),
            "reports.dumps_s": span_s("reports.dumps"),
            "reports.report_bytes": counted("reports.dumps"),
            "cli.state_s": span_s("cli.state"),
            "cli.invariants_s": span_s("cli.invariants"),
            "cli.self_s": per_op(self_by_layer["cli"]),
        }
        return metrics, {name: per_op(t) for name, t in self_by.items()}

    def dump(self, path: str) -> None:
        """Write every span as columns; times in ns from the first span."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start_ns": [round((s - t0) * 1e9) for s in self.start],
            "end_ns": [round((e - t0) * 1e9) for e in self.end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
