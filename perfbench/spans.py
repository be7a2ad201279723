"""In-memory span tracer wrapped around curtail's public functions from outside.

``Tracer.install`` replaces each function in TARGETS with a wrapper that
records one span per call: id, parent span id, name, start and end
(``perf_counter_ns``), the benchmark op it belongs to, and an optional work
count.  The wrapper is rebound everywhere the original is reachable by name:
in every ``curtail.*`` module namespace that imported it, and in the
``bench.VMAX_ALGORITHMS`` / ``bench.CMIN_ALGORITHMS`` tables, which hold the
original function objects (without that, ``solve --algorithm gda`` would
call an untraced ``gda``).  ``uninstall`` puts every original back.

Span stacks are per thread, because the ``bench`` command runs trials on a
thread pool: a worker thread's outermost span has parent -1, not the
``run_benchmark`` span that waits for it.  Spans stay in per-thread arrays
until the run ends; ``dump`` writes them to one ``.npz`` file.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
from array import array
from functools import cached_property

import numpy as np

# (layer module, public name).  A bare class name traces its constructor; a
# cached property traces its computing (first) access.
TARGETS = (
    ("cli", "dispatch"),
    ("model", "load_instance"),
    ("model", "instance_from_dict"),
    ("model", "Instance"),
    ("model", "Instance.columns"),
    ("model", "instance_to_dict"),
    ("model", "dump_instance"),
    ("model", "aggregate_demand"),
    ("model", "retained_valuation"),
    ("model", "curtailed_compensation"),
    ("model", "Solution.to_dict"),
    ("scenario", "generate"),
    ("greedy", "scan_order"),
    ("greedy", "gva"),
    ("greedy", "gra"),
    ("greedy", "gda"),
    ("greedy", "gda_forced"),
    ("gsa", "gsa"),
    ("cmin", "cmin_gva"),
    ("cmin", "cmin_gra"),
    ("cmin", "cmin_gda"),
    ("oracle", "brute_force_vmax"),
    ("oracle", "subset_sums"),
    ("bench", "run_benchmark"),
    ("bench", "instance_for_trial"),
    ("bench", "emit_csv"),
    ("bench", "run_dynamic_capacity"),
    ("bench", "write_trace_csv"),
)
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, name in TARGETS)


def _gsa_seeds(instance, config, *args, **kwargs) -> int:
    """Size-m seeds gsa enumerates: C(n, m), m from the public GsaConfig."""
    n = len(instance)
    m = config.max_subset_size(n)
    return math.comb(n, m) if m > 0 else 0


def _oracle_entries(instance, *args, **kwargs) -> int:
    """Subset-table entries the oracle builds: 2^n."""
    return 1 << len(instance)


# Work counts recorded with a span, computed from the call's arguments.
WORK = {"gsa.gsa": _gsa_seeds, "oracle.brute_force_vmax": _oracle_entries}

FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "op", "work")


class _ThreadSpans:
    """One thread's open-span stack and its closed spans, column-wise."""

    def __init__(self):
        self.stack: list[int] = []
        self.columns = {field: array("q") for field in FIELDS}

    def add(self, *values: int) -> None:
        for column, value in zip(self.columns.values(), values):
            column.append(value)


class Tracer:
    def __init__(self):
        self.op = -1  # the benchmark sets this before each op
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._undo: list = []

    def _thread_spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def _wrap(self, fn, name_id: int, work_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._thread_spans()
            work = work_fn(*args, **kwargs) if work_fn else 0
            span_id = next(self._ids)
            stack = spans.stack
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.add(span_id, parent, name_id, start, end, self.op, work)

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        """Wrap every target; curtail.cli must already be imported."""
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "curtail" or name.startswith("curtail.")
        ]
        bench = sys.modules["curtail.bench"]
        tables = (bench.VMAX_ALGORITHMS, bench.CMIN_ALGORITHMS)
        for name_id, (layer, name) in enumerate(TARGETS):
            mod = sys.modules[f"curtail.{layer}"]
            work_fn = WORK.get(SPAN_NAMES[name_id])
            owner_name, _, attr = name.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                member = owner.__dict__[attr]
                if isinstance(member, cached_property):
                    self._rebind(member, "func", self._wrap(member.func, name_id, work_fn))
                else:
                    self._rebind(owner, attr, self._wrap(member, name_id, work_fn))
                continue
            original = getattr(mod, name)
            if isinstance(original, type):
                self._rebind(original, "__init__",
                             self._wrap(original.__init__, name_id, work_fn))
                continue
            traced = self._wrap(original, name_id, work_fn)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._rebind(module, name, traced)
            for table in tables:
                for key, value in list(table.items()):
                    if value is original:
                        table[key] = traced
                        self._undo.append(functools.partial(table.__setitem__, key, value))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def spans(self) -> dict[str, np.ndarray]:
        """All closed spans, ordered by span id."""
        threads = self._threads or [_ThreadSpans()]
        out = {
            field: np.concatenate([np.frombuffer(t.columns[field], dtype=np.int64) for t in threads])
            for field in FIELDS
        }
        sizes = [len(t.columns["id"]) for t in threads]
        out["thread"] = np.repeat(np.arange(len(threads), dtype=np.int64), sizes)
        order = np.argsort(out["id"], kind="stable")
        return {field: column[order] for field, column in out.items()}

    def dump(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.spans())


def self_time_ns(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children run inside their parent on the same thread, one after another,
    so their durations add up to the part of the parent they cover.
    """
    duration = spans["end_ns"] - spans["start_ns"]
    covered = np.zeros(duration.size, dtype=np.int64)
    has_parent = spans["parent"] >= 0
    parent_row = np.searchsorted(spans["id"], spans["parent"][has_parent])
    np.add.at(covered, parent_row, duration[has_parent])
    return duration - covered


def layer_metrics(spans: dict[str, np.ndarray], ops: int) -> dict[str, tuple[float, str]]:
    """Per-op self time and call count of every target, plus the work ratios."""
    self_ns = self_time_ns(spans)
    calls = np.bincount(spans["name"], minlength=len(SPAN_NAMES))
    self_total = np.bincount(spans["name"], weights=self_ns, minlength=len(SPAN_NAMES))
    work = np.bincount(spans["name"], weights=spans["work"], minlength=len(SPAN_NAMES))
    metrics = {}
    for name_id, name in enumerate(SPAN_NAMES):
        metrics[f"{name}.self_ms"] = (float(self_total[name_id]) / 1e6 / ops, "ms")
        metrics[f"{name}.calls"] = (float(calls[name_id]) / ops, "count")
    seeds = work[SPAN_NAMES.index("gsa.gsa")]
    forced = calls[SPAN_NAMES.index("greedy.gda_forced")]
    metrics["gsa.seed_feasible_ratio"] = (float(forced / seeds) if seeds else 0.0, "ratio")
    metrics["oracle.table_entries"] = (
        float(work[SPAN_NAMES.index("oracle.brute_force_vmax")]) / ops, "count"
    )
    return metrics
