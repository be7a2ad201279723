"""Output checks that trust no solver.

Each check recomputes what it needs from the op's input with this file's
own numpy code and raises CheckError on the first violation.  Nothing here
imports ``curtail``: a defect in the package cannot hide itself by also
breaking the check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The package's documented capacity slack: |sum S| <= C * (1 + 1e-9).
CAPACITY_REL_TOL = 1e-9
# Ratios are oriented so that 1.0 is optimal; allow float noise above it.
RATIO_NOISE = 1e-9

REPORT_COLUMNS = [
    "scenario", "n", "algorithm", "mean_objective", "mean_ratio_vs_oracle",
    "ci95_halfwidth", "worst_ratio", "mean_elapsed", "ci95_elapsed",
]
TRACE_COLUMNS = ["t_seconds", "capacity_va", "objective", "retained_count"]


class CheckError(Exception):
    """An op's output violates a property the benchmark checks."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class InstanceArrays:
    """An instance file's columns, in storage order."""

    ids: np.ndarray
    p: np.ndarray
    q: np.ndarray
    valuation: np.ndarray
    compensation: np.ndarray
    capacity: float


def parse_instance(path: Path) -> InstanceArrays:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    rows = doc["customers"]

    def column(key, dtype):
        return np.array([row[key] for row in rows], dtype=dtype)

    return InstanceArrays(
        ids=column("id", np.int64),
        p=column("p", np.float64),
        q=column("q", np.float64),
        valuation=column("valuation", np.float64),
        compensation=column("compensation", np.float64),
        capacity=float(doc["capacity"]),
    )


def load_instance_arrays(path: Path) -> InstanceArrays:
    """Parse an instance file in a child process and load its columns.

    Parsing 20 000 customers in the benchmark process would raise its peak
    resident memory, which the benchmark reports as the program's own.
    """
    path = Path(path)
    columns = path.with_suffix(".columns.npz")
    subprocess.run([sys.executable, __file__, str(path), str(columns)], check=True, timeout=120)
    with np.load(columns) as data:
        fields = {key: data[key] for key in data.files}
    fields["capacity"] = float(fields["capacity"])
    return InstanceArrays(**fields)


def ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum in the given order; np.cumsum adds sequentially."""
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def strip_elapsed(raw: bytes) -> bytes:
    """The solution bytes with the wall-clock field zeroed."""
    return re.sub(rb'"elapsed_us": -?\d+', b'"elapsed_us": 0', raw, count=1)


def digest(raw: bytes) -> str:
    return hashlib.sha256(strip_elapsed(raw)).hexdigest()


def check_solution(instance: InstanceArrays, raw: bytes, objective: str) -> None:
    """A ``solve`` output: ids exist, the set fits, and the sums are canonical.

    ``objective`` is "vmax" (sum of retained valuations) or "cmin" (sum of
    the shed customers' compensations).  Sums walk storage order left to
    right, which is the package's bit-exactness contract.
    """
    try:
        doc = json.loads(raw)
        retained = np.array(doc["retained"], dtype=np.int64)
        reported = float(doc["objective"])
        agg_p = float(doc["aggregate"]["p"])
        agg_q = float(doc["aggregate"]["q"])
        algorithm = doc["algorithm"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"malformed solution JSON: {exc}") from exc
    expected_tag = "gda" if objective == "vmax" else "cmin_gda"
    _require(algorithm == expected_tag, f"algorithm {algorithm!r}, expected {expected_tag!r}")

    n = instance.ids.size
    by_id = np.argsort(instance.ids, kind="stable")
    sorted_ids = instance.ids[by_id]
    slot = np.searchsorted(sorted_ids, retained)
    known = (slot < n) & (sorted_ids[np.minimum(slot, n - 1)] == retained)
    _require(bool(known.all()), f"unknown retained ids: {retained[~known][:5].tolist()}")
    _require(np.unique(retained).size == retained.size, "duplicate retained ids")

    mask = np.zeros(n, dtype=bool)
    mask[by_id[slot]] = True
    p = ordered_sum(instance.p[mask])
    q = ordered_sum(instance.q[mask])
    limit = instance.capacity * (1.0 + CAPACITY_REL_TOL)
    _require(p * p + q * q <= limit * limit,
             f"retained demand |{p} + {q}j| exceeds capacity {instance.capacity}")
    _require((agg_p, agg_q) == (p, q),
             f"aggregate ({agg_p}, {agg_q}) is not the storage-order sum ({p}, {q})")

    if objective == "vmax":
        expected = ordered_sum(instance.valuation[mask])
    else:
        expected = ordered_sum(instance.compensation[~mask])
    _require(reported == expected,
             f"objective {reported!r} is not the storage-order sum {expected!r}")


def check_report(
    raw: bytes,
    *,
    acronym: str,
    n_values: list[int],
    algorithms: list[str],
    epsilon: float,
    max_theta: float,
) -> None:
    """A ``bench`` report: one row per (n, algorithm), ratios within the paper's bounds.

    gda keeps at least cos(theta/2)/2 of the optimum and gsa at least
    (1 - eps) cos(theta/2); no ratio exceeds 1 beyond float noise.
    """
    alignment = math.cos(max_theta / 2.0)
    floors = {"gda": alignment / 2.0, "gsa": (1.0 - epsilon) * alignment}
    try:
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
    except UnicodeDecodeError as exc:
        raise CheckError(f"report is not UTF-8: {exc}") from exc
    _require(bool(rows) and rows[0] == REPORT_COLUMNS, f"report header {rows[:1]}")
    body = rows[1:]
    expected_keys = sorted((n, tag) for n in n_values for tag in algorithms)
    try:
        keys = sorted((int(r[1]), r[2]) for r in body)
    except (IndexError, ValueError) as exc:
        raise CheckError(f"malformed report row: {exc}") from exc
    _require(keys == expected_keys, f"report rows {keys}, expected {expected_keys}")
    for row in body:
        _require(len(row) == len(REPORT_COLUMNS), f"row width {len(row)}: {row}")
        _require(row[0] == acronym, f"scenario {row[0]!r}, expected {acronym!r}")
        try:
            float(row[3])
            mean_ratio = float(row[4])
            worst = float(row[6])
        except ValueError as exc:
            raise CheckError(f"unparsable ratio in {row}: {exc}") from exc
        _require(row[7] == "" and row[8] == "", f"timing columns set without measure_time: {row}")
        where = f"n={row[1]} {row[2]}"
        _require(mean_ratio <= 1.0 + RATIO_NOISE, f"{where}: mean ratio {mean_ratio} > 1")
        _require(worst <= 1.0 + RATIO_NOISE, f"{where}: worst ratio {worst} > 1")
        _require(worst <= mean_ratio + RATIO_NOISE, f"{where}: worst {worst} above mean {mean_ratio}")
        floor = floors.get(row[2])
        if floor is not None:
            _require(worst >= floor, f"{where}: worst ratio {worst} below the bound {floor}")


def expected_events(
    seed: int, full: float, floor: float, horizon: float, event_rate: float,
    fail_prob: float, drop: tuple[float, float],
) -> list[tuple[float, float]]:
    """(time, capacity) of every capacity event the simulation documents.

    Exponential inter-arrivals at ``event_rate``; a failure with probability
    ``fail_prob`` cuts capacity by a uniform fraction of ``drop`` (never below
    ``floor``), otherwise capacity resumes to ``full``.  The draws come from
    the documented stream SeedSequence((seed, 0xD1)) in that order.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD1)))
    lo, hi = drop
    capacity = full
    events = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / event_rate))
        if t > horizon:
            return events
        if rng.random() < fail_prob:
            capacity = max(floor, capacity * (1.0 - rng.uniform(lo, hi)))
        else:
            capacity = full
        events.append((t, capacity))


def check_trace(
    raw: bytes, *, n: int, seed: int, full: float, floor: float, horizon: float,
    event_rate: float, fail_prob: float, drop: tuple[float, float],
) -> int:
    """A ``simulate`` trace: one row at t=0 plus one per event, capacities in
    [floor, full], retained counts within [0, n].  Returns the event count."""
    try:
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
    except UnicodeDecodeError as exc:
        raise CheckError(f"trace is not UTF-8: {exc}") from exc
    _require(bool(rows) and rows[0] == TRACE_COLUMNS, f"trace header {rows[:1]}")
    try:
        points = [(float(t), float(c), float(o), int(k)) for t, c, o, k in rows[1:]]
    except ValueError as exc:
        raise CheckError(f"malformed trace row: {exc}") from exc
    events = expected_events(seed, full, floor, horizon, event_rate, fail_prob, drop)
    _require(len(points) == len(events) + 1,
             f"{len(points)} trace rows, expected {len(events) + 1} (t=0 plus one per event)")
    _require(points[0][:2] == (0.0, full), f"first row {points[0]} is not (0, {full})")
    for (t, capacity, objective, count), want in zip(points[1:], events):
        _require((t, capacity) == want, f"event ({t}, {capacity}), expected {want}")
    for t, capacity, objective, count in points:
        _require(floor <= capacity <= full, f"t={t}: capacity {capacity} outside [{floor}, {full}]")
        _require(0 <= count <= n, f"t={t}: retained_count {count} outside [0, {n}]")
        _require(math.isfinite(objective) and objective >= 0.0, f"t={t}: objective {objective}")
    return len(events)


if __name__ == "__main__":
    # python3 perfbench/checks.py <instance.json> <columns.npz>
    parsed = parse_instance(Path(sys.argv[1]))
    np.savez(sys.argv[2], **{key: getattr(parsed, key) for key in InstanceArrays.__annotations__})
