"""Shared fixtures and independent reference implementations.

The reference solvers here deliberately use different arithmetic and data
structures from the package (itertools enumeration with math.hypot, a
table-based knapsack DP) so they can serve as independent oracles.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations
from typing import Mapping, NamedTuple

import numpy as np
import pytest

from curtail import (
    FormatError,
    GsaConfig,
    Instance,
    InstanceColumns,
    SortKey,
    TracePoint,
    gda_forced,
    generate,
    gsa,
    restrict_to_capacity,
)
from curtail.greedy import scan_order
from curtail.oracle import subset_sums


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion lines after the run, capture or not."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


class CustomerRow(NamedTuple):
    """One customer as Python numbers, read from an instance's columns."""

    id: int
    p: float
    q: float
    valuation: float
    compensation: float

    @property
    def magnitude(self) -> float:
        return math.hypot(self.p, self.q)


def customer_rows(instance: Instance) -> list[CustomerRow]:
    """The customers of ``instance`` in storage order, one record each."""
    cols = instance.columns
    arrays = (cols.id, cols.p, cols.q, cols.valuation, cols.compensation)
    return [CustomerRow(*row) for row in zip(*(array.tolist() for array in arrays))]


def build_instance(rows, capacity) -> Instance:
    """rows: (id, p, q, valuation[, compensation]) tuples; the compensation
    defaults to the valuation."""
    rows = [tuple(row) if len(row) == 5 else (*row, row[3]) for row in rows]
    return Instance(InstanceColumns.build(*([row[k] for row in rows] for k in range(5))), capacity)


def _reference_number(obj: Mapping, key: str, where: str) -> float:
    if key not in obj:
        raise FormatError(f"{where}: missing field '{key}'")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where}.{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise FormatError(f"{where}.{key}: integer too large for a float") from exc


def reference_instance_from_dict(doc) -> Instance:
    """Per-customer loader; the reference for ``instance_from_dict``.

    Checks one customer at a time, each field in the order that words its
    error (id type, demand, id range, valuation, compensation), then builds
    the instance from the checked rows with the public constructor.
    """
    if not isinstance(doc, Mapping):
        raise FormatError("instance document must be a JSON object")
    capacity = _reference_number(doc, "capacity", "instance")
    raw = doc.get("customers")
    if not isinstance(raw, list):
        raise FormatError("instance.customers: expected a list")
    rows = []
    for i, item in enumerate(raw):
        where = f"customers[{i}]"
        if not isinstance(item, Mapping):
            raise FormatError(f"{where}: expected an object")
        if "id" not in item:
            raise FormatError(f"{where}: missing field 'id'")
        cid = item["id"]
        if isinstance(cid, bool) or not isinstance(cid, int):
            raise FormatError(f"{where}.id: expected an integer, got {cid!r}")
        p, q = _reference_number(item, "p", where), _reference_number(item, "q", where)
        if not (math.isfinite(p) and math.isfinite(q)):
            raise FormatError(f"{where}: demand components must be finite")
        if p < 0 or q < 0:
            raise FormatError(f"{where}: demand must lie in the first quadrant, got ({p}, {q})")
        u = _reference_number(item, "valuation", where)
        comp = _reference_number(item, "compensation", where)
        if not 0 <= cid <= 2**63 - 1:
            raise FormatError(
                f"{where}: customer id must be an integer in [0, 2**63 - 1], got {cid}"
            )
        for name, value in (("valuation", u), ("compensation", comp)):
            if not math.isfinite(value) or value < 0:
                raise FormatError(f"{where}: customer {cid}: {name} must be finite and >= 0")
        rows.append((cid, p, q, u, comp))
    return build_instance(rows, capacity)


@pytest.fixture
def magnitude_trap() -> Instance:
    """Two customers, C=100: a tiny cheap one and a capacity-filling rich one.

    Magnitude-ascending greedy takes the tiny one and blocks the optimum.
    """
    return build_instance([(1, 1.0, 0.0, 1.0), (2, 100.0, 0.0, 100.0)], 100.0)


@pytest.fixture
def valuation_trap() -> Instance:
    """Five customers, C=10: one valuation-10 load that fills the capacity,
    four valuation-9 loads of magnitude 2 that jointly beat it."""
    rows = [(1, 10.0, 0.0, 10.0)] + [(k, 2.0, 0.0, 9.0) for k in range(2, 6)]
    return build_instance(rows, 10.0)


def reference_best_vmax(instance: Instance, rel_tol: float = 1e-9):
    """Exhaustive reference optimum via itertools; independent arithmetic.

    Returns (best_value, list of best retained-id tuples).
    """
    customers = customer_rows(instance)
    ids = sorted(c.id for c in customers)
    by_id = {c.id: c for c in customers}
    limit = instance.capacity * (1.0 + rel_tol)
    best = 0.0
    winners = [()]
    for r in range(1, len(ids) + 1):
        for combo in combinations(ids, r):
            p = sum(by_id[i].p for i in combo)
            q = sum(by_id[i].q for i in combo)
            if math.hypot(p, q) > limit:
                continue
            value = sum(by_id[i].valuation for i in combo)
            if value > best + 1e-12 * max(1.0, abs(best)):
                best = value
                winners = [combo]
            elif abs(value - best) <= 1e-12 * max(1.0, abs(best)):
                winners.append(combo)
    return best, winners


def reference_best_feasible_mask(instance: Instance, weights: np.ndarray, rel_tol: float):
    """Full-table search; the reference for each row of ``oracle._best_feasible_masks``.

    Tabulates p, q and weight sums over all 2^n storage masks with
    ``subset_sums``, so every entry is the float the search builds for that
    selection.  Among the feasible masks of largest weight it returns the one
    whose sorted id list is lexicographically smallest, as a boolean mask.
    """
    limit_sq = instance.capacity_limit_sq(rel_tol)
    with np.errstate(over="ignore"):  # a sum or square past the float range is inf
        psum = subset_sums(instance.columns.p)
        qsum = subset_sums(instance.columns.q)
        feasible = psum * psum + qsum * qsum <= limit_sq
        wsum = subset_sums(weights)
    wsum[~feasible] = -np.inf
    candidates = np.flatnonzero(wsum == wsum.max())
    ids, bits = instance.columns.id.tolist(), range(len(instance))
    best = min(map(int, candidates), key=lambda m: sorted(ids[j] for j in bits if m >> j & 1))
    return np.array([best >> j & 1 for j in bits], dtype=bool)


def reference_cmin(instance: Instance, algorithm: str, rel_tol: float = 1e-9):
    """Per-customer shedding; the reference for ``cmin_*``.

    Sorts ``customer_rows`` by the heuristic's key (ties by id), then
    sheds them one at a time, re-summing the retained demands from scratch
    in storage order before each removal.  Returns (retained ids,
    compensation of the shed customers summed in storage order).
    """
    if algorithm == "gda":
        ratio = reference_cmin(instance, "gra", rel_tol)
        value = reference_cmin(instance, "gva", rel_tol)
        return ratio if ratio[1] <= value[1] else value

    keys = {
        "gva": lambda c: c.compensation,
        "gma": lambda c: -c.magnitude,
        "gra": lambda c: math.inf if c.magnitude == 0.0 else c.compensation / c.magnitude,
    }
    customers = customer_rows(instance)
    limit = instance.capacity * (1.0 + rel_tol)
    retained = {c.id for c in customers}
    for c in sorted(customers, key=lambda c: (keys[algorithm](c), c.id)):
        p = q = 0.0
        for kept in customers:
            if kept.id in retained:
                p += kept.p
                q += kept.q
        if p * p + q * q <= limit * limit:
            break
        retained.discard(c.id)
    compensation = 0.0
    for c in customers:
        if c.id not in retained:
            compensation += c.compensation
    return frozenset(retained), compensation


_PLAN_DOC = {
    "scenario": {"acronym": "ACR", "capacity": 25000.0, "seed": 1},
    "n_values": [8],
}


def plan_doc(field, value):
    """``_PLAN_DOC`` with ``field`` (``scenario.<key>`` for a scenario key) set to ``value``."""
    doc = {**_PLAN_DOC, "scenario": dict(_PLAN_DOC["scenario"])}
    if field.startswith("scenario."):
        doc["scenario"][field.removeprefix("scenario.")] = value
    else:
        doc[field] = value
    return doc


# Values that a coercing loader would have turned into something else.
COERCIBLE_PLAN_FIELDS = [
    ("measure_time", "no"),
    ("measure_time", 1),
    ("n_values", [6.7]),
    ("n_values", [True]),
    ("n_values", 8),
    ("scenario.seed", 1.5),
    ("scenario.capacity", "25000"),
    ("scenario.max_theta", True),
    ("gsa_epsilon", True),
    ("trials_per_n", 30.9),
    ("oracle_max_n", 20.5),
    ("algorithms", "gda"),
    ("objective", ["vmax"]),
    ("scenario", ["ACR"]),
]


def knapsack_dp(weights: list[int], values: list[float], capacity: int) -> float:
    """Classic 0-1 knapsack over integer weights; independent DP oracle."""
    dp = [0.0] * (capacity + 1)
    for w, v in zip(weights, values):
        for cap in range(capacity, w - 1, -1):
            cand = dp[cap - w] + v
            if cand > dp[cap]:
                dp[cap] = cand
    return dp[capacity]


def random_instance(
    rng: np.random.Generator,
    n: int,
    max_theta: float = math.radians(36.0),
    magnitude_range=(0.5, 8.0),
    value_range=(0.1, 100.0),
    capacity_fraction=(0.15, 0.75),
    equal_compensation: bool = True,
) -> Instance:
    """Small synthetic instance with a binding capacity."""
    mags = rng.uniform(*magnitude_range, n)
    phases = rng.uniform(0.0, max_theta, n)
    p = mags * np.cos(phases)
    q = mags * np.sin(phases)
    u = rng.uniform(*value_range, n)
    comp = u if equal_compensation else rng.uniform(*value_range, n)
    # per-customer magnitudes via math.hypot, matching the Instance validator
    actual_max = max(math.hypot(float(p[k]), float(q[k])) for k in range(n))
    capacity = max(actual_max, float(rng.uniform(*capacity_fraction)) * float(mags.sum()))
    return Instance(InstanceColumns.build(np.arange(n), p, q, u, comp), capacity)


def reference_gsa_search(instance: Instance, config: GsaConfig, rel_tol: float = 1e-9):
    """Per-seed ``gda_forced`` enumeration; the reference for ``gsa._search_batch``.

    Every feasible size-m seed is passed to the public ``gda_forced`` as id
    sets, so each seed re-sorts its own pool.  Returns (retained ids,
    objective, winning Phase 2 seed as sorted ids or None).
    """
    cols = instance.columns
    n = len(instance)
    m = config.max_subset_size(n)
    limit_sq = instance.capacity_limit_sq(rel_tol)
    p_list, q_list, u_list = cols.p.tolist(), cols.q.tolist(), cols.valuation.tolist()

    def fits(idxs):
        p = q = 0.0
        for i in idxs:
            p += p_list[i]
            q += q_list[i]
        return p * p + q * q <= limit_sq

    by_id = np.lexsort((cols.id,)).tolist()
    best_ids: frozenset[int] = frozenset()
    best_objective = 0.0
    best_seed = None
    for size in range(m):
        for combo in combinations(by_id, size):
            idxs = sorted(combo)
            if not fits(idxs):
                continue
            value = 0.0
            for i in idxs:
                value += u_list[i]
            if value > best_objective:
                best_objective = value
                best_ids = frozenset(int(cols.id[i]) for i in idxs)
    for combo in combinations(by_id, m) if m > 0 else ():
        idxs = sorted(combo)
        if not fits(idxs):
            continue
        forced = frozenset(int(cols.id[i]) for i in idxs)
        floor = min(u_list[i] for i in idxs)
        pool = frozenset(int(cols.id[j]) for j in range(n) if u_list[j] <= floor) - forced
        candidate = gda_forced(instance, forced, pool, rel_tol)
        if candidate.objective > best_objective or (
            candidate.objective == best_objective and best_seed is None
        ):
            best_objective = candidate.objective
            best_ids = candidate.retained_ids
            best_seed = tuple(sorted(forced))
    return best_ids, best_objective, best_seed


def reference_greedy_scan(items, base_p, base_q, limit_sq):
    """Walk ``(index, p, q)`` items in order, keeping every customer that still fits.

    The per-item loop that ``greedy._greedy_scan`` replaced; the kernel must
    return the same list for every input.
    """
    acc_p, acc_q = base_p, base_q
    taken = []
    for i, pv, qv in items:
        np_ = acc_p + pv
        nq = acc_q + qv
        if np_ * np_ + nq * nq <= limit_sq:
            acc_p, acc_q = np_, nq
            taken.append(i)
    return taken


REFERENCE_SCAN_KEYS = {
    "gva": (SortKey.VALUATION_DESC,),
    "gma": (SortKey.MAGNITUDE_ASC,),
    "gra": (SortKey.EFFICIENCY_DESC,),
    "gda": (SortKey.EFFICIENCY_DESC, SortKey.VALUATION_DESC),
}


def reference_greedy(instance: Instance, algorithm: str, forced=(), pool=None, rel_tol=1e-9):
    """The greedy ``algorithm`` by ``scan_order`` and ``reference_greedy_scan``.

    ``forced`` and ``pool`` are storage indices; the pool defaults to every
    customer.  Each order is sorted over the whole instance and filtered to
    the pool, then scanned from the forced aggregate.  A scan whose set does
    not fit when its demands are added left to right in storage order is
    redone against the squared limit tightened by (K + 4) 2^-50, K the forced
    set plus the order (no limit at all below 2^-960).  The first order wins
    ties.  Returns (ascending retained storage indices, objective summed left
    to right in storage order).
    """
    cols = instance.columns
    p, q, u = cols.p.tolist(), cols.q.tolist(), cols.valuation.tolist()
    pool = set(range(len(instance)) if pool is None else pool)
    forced = sorted(forced)
    base_p = base_q = 0.0
    for i in forced:
        base_p += p[i]
        base_q += q[i]
    limit_sq = instance.capacity_limit_sq(rel_tol)

    def fits(retained):
        sum_p = sum_q = 0.0
        for i in retained:
            sum_p += p[i]
            sum_q += q[i]
        return sum_p * sum_p + sum_q * sum_q <= limit_sq

    best, best_objective = None, -math.inf
    for key in REFERENCE_SCAN_KEYS[algorithm]:
        items = [(i, p[i], q[i]) for i in scan_order(instance, key) if i in pool]
        retained = sorted(forced + reference_greedy_scan(items, base_p, base_q, limit_sq))
        if not fits(retained):
            tight = -1.0
            if limit_sq >= 2.0**-960:
                tight = limit_sq * (1.0 - (len(forced) + len(items) + 4) * 2.0**-50)
            retained = sorted(forced + reference_greedy_scan(items, base_p, base_q, tight))
        objective = 0.0
        for i in retained:
            objective += u[i]
        if objective > best_objective:
            best, best_objective = retained, objective
    return best, best_objective


def reference_dynamic_capacity(
    scenario,
    horizon: float = 10_000.0,
    event_rate: float = 0.005,
    fail_prob: float = 0.65,
    drop_range=(0.05, 0.35),
    algorithm: str = "gda",
    seed: int = 0,
    floor_capacity: float = 100_000.0,
    gsa_epsilon: float = 0.25,
) -> list[TracePoint]:
    """Per-event rebuild and re-solve; the reference for ``run_dynamic_capacity``.

    Draws the same event stream, then at every event restricts the base
    instance with ``restrict_to_capacity`` and solves the result afresh:
    ``gsa`` with the public solver, the greedies with ``reference_greedy``.
    Arguments are not validated.
    """
    base = generate(scenario)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD1)))
    lo, hi = drop_range

    def point(t, capacity):
        instance = restrict_to_capacity(base, capacity)
        if algorithm == "gsa":
            sol = gsa(instance, GsaConfig(gsa_epsilon))
            return TracePoint(t, capacity, sol.objective, len(sol.retained_ids))
        retained, objective = reference_greedy(instance, algorithm)
        return TracePoint(t, capacity, objective, len(retained))

    capacity = scenario.capacity
    trace = [point(0.0, capacity)]
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / event_rate))
        if t > horizon:
            break
        if rng.random() < fail_prob:
            capacity = max(floor_capacity, capacity * (1.0 - rng.uniform(lo, hi)))
        else:
            capacity = scenario.capacity
        trace.append(point(t, capacity))
    return trace
