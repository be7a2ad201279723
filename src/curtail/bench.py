"""Repeated-trial benchmarks: ratios against the oracle, CIs, CSV emission.

A trial plan names a scenario template, the customer counts to sweep, how
many trials per count, which algorithms to run and which yardstick (the
exhaustive optimum, the LP relaxation bound, or none).  Every trial's
instance seed is derived from (plan seed, n, trial index), so any trial can
be regenerated in isolation and results never depend on execution order.
``run_benchmark`` returns one ``BenchRow`` per (n, algorithm), and
``emit_csv`` writes those rows.

Ratios are oriented so that 1.0 means optimal for both objectives: achieved
over optimal when maximising valuation, optimal over achieved when
minimising compensation.  They are computed per trial and then averaged;
confidence intervals use the normal approximation 1.96 * s / sqrt(t).

Wall-clock timings are inherently non-reproducible, so plans only include
elapsed columns when ``measure_time`` is set; with it off (the default) the
emitted CSV is byte-identical across runs.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .cmin import _shed_rows, cmin_gda, cmin_gma, cmin_gra, cmin_gva
from .greedy import (
    SCAN_ORDERS,
    SHED_ORDERS,
    _best_of_scans,
    _greedy_rows,
    _kept_orders,
    _sorted_order_rows,
    gda,
    gma,
    gra,
    gva,
)
from .gsa import GsaConfig, _search_batch, gsa
from .model import (
    CAPACITY_REL_TOL,
    FormatError,
    Instance,
    Solution,
    _REQUIRED,
    _check,
    _field,
    capacity_limit_sq,
    storage_sum,
)
from .oracle import OracleBudget, _brute_force_batch, lp_upper_bound
from .scenario import ScenarioSpec, generate, restrict_to_capacity, spec_from_acronym

VMAX_ALGORITHMS: Mapping[str, Callable[[Instance], Solution]] = {
    "gva": gva,
    "gma": gma,
    "gra": gra,
    "gda": gda,
}
CMIN_ALGORITHMS: Mapping[str, Callable[[Instance], Solution]] = {
    "gva": cmin_gva,
    "gma": cmin_gma,
    "gra": cmin_gra,
    "gda": cmin_gda,
}

# Most customers, trials x n, that one chunk of an n's trials holds at once
# (at least one trial); the oracle and each untimed algorithm take a chunk as a batch.
_BATCH_CUSTOMERS = 1 << 16


@dataclass(frozen=True)
class TrialPlan:
    """A benchmark to run; see the module docstring for the semantics."""

    scenario: ScenarioSpec
    n_values: tuple[int, ...]
    trials_per_n: int = 30
    algorithms: tuple[str, ...] = ("gda",)
    objective: str = "vmax"
    oracle: str = "brute_force"
    gsa_epsilon: float = 0.25
    measure_time: bool = False
    budget: OracleBudget = OracleBudget()

    def __post_init__(self):
        for name in ("n_values", "algorithms"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        negative = [n for n in self.n_values if n < 0]
        if negative:
            raise ValueError(f"n_values must be >= 0, got {negative}")
        if not 0.0 < self.gsa_epsilon < 1.0:
            raise ValueError(f"gsa_epsilon must be in (0, 1), got {self.gsa_epsilon}")
        if self.trials_per_n < 30:
            raise ValueError("trials_per_n must be >= 30 for stable confidence intervals")
        if self.objective not in ("vmax", "cmin"):
            raise ValueError(f"objective must be vmax or cmin, got {self.objective!r}")
        if self.oracle not in ("brute_force", "lp_bound", "none"):
            raise ValueError(f"oracle must be brute_force, lp_bound or none, got {self.oracle!r}")
        if self.oracle == "lp_bound" and self.objective != "vmax":
            raise ValueError("the lp_bound yardstick only applies to the vmax objective")
        known = set(VMAX_ALGORITHMS) | {"gsa"}
        if self.objective == "cmin":
            known = set(CMIN_ALGORITHMS)
        unknown = set(self.algorithms) - known
        if unknown:
            raise ValueError(f"unknown algorithms for {self.objective}: {sorted(unknown)}")
        if self.oracle == "brute_force":
            over = [n for n in self.n_values if n > self.budget.max_n]
            if over:
                raise ValueError(
                    f"n values {over} exceed the oracle budget max_n={self.budget.max_n}; "
                    f"raise the budget or drop the oracle"
                )


@dataclass(frozen=True)
class BenchRow:
    scenario: str
    n: int
    algorithm: str
    mean_objective: float
    mean_ratio_vs_oracle: float | None
    ci95_halfwidth: float | None
    worst_ratio: float | None
    mean_elapsed: float | None
    ci95_elapsed: float | None


def trial_seed(plan: TrialPlan, n: int, trial: int) -> int:
    """Instance seed for one trial, independent of any other trial."""
    seq = np.random.SeedSequence((plan.scenario.seed, n, trial))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def instance_for_trial(plan: TrialPlan, n: int, trial: int) -> Instance:
    spec = replace(plan.scenario, n=n, seed=trial_seed(plan, n, trial))
    return generate(spec)


def _outcomes(
    plan: TrialPlan, tag: str, instances: Sequence[Instance]
) -> list[tuple[float, float | None]]:
    """Per trial of one chunk, algorithm ``tag``'s (objective, elapsed).

    With ``measure_time`` each trial is solved on its own by the public
    solver, so that its elapsed time describes one solve.  Otherwise the
    algorithm's batched entry solves the chunk in one call (elapsed None):
    ``gsa`` in one ``_search_batch``, a vmax greedy in one ``_greedy_rows``
    and a cmin greedy in one ``_shed_rows``, each of which sorts an order
    once for the chunk.
    """
    if tag == "gsa":
        config = GsaConfig(plan.gsa_epsilon)
        batch, args, solve = _search_batch, (config,), functools.partial(gsa, config=config)
    elif plan.objective == "cmin":
        batch, args, solve = _shed_rows, (SHED_ORDERS[f"cmin_{tag}"],), CMIN_ALGORITHMS[tag]
    else:
        batch, args, solve = _greedy_rows, (SCAN_ORDERS[tag],), VMAX_ALGORITHMS[tag]
    if plan.measure_time:
        return [(solution.objective, solution.elapsed) for solution in map(solve, instances)]
    _, objectives = batch(instances, *args, CAPACITY_REL_TOL)
    return [(objective, None) for objective in objectives.tolist()]


def _yardsticks(plan: TrialPlan, instances: Sequence[Instance]) -> list[float | None]:
    """The optimum or bound each trial's ratios are taken against, in order."""
    if plan.oracle == "none":
        return [None] * len(instances)
    if plan.oracle == "lp_bound":
        return [lp_upper_bound(instance) for instance in instances]
    return _brute_force_batch(instances, plan.budget, CAPACITY_REL_TOL, plan.objective)[1].tolist()


def _ratio(plan: TrialPlan, achieved: float, optimal: float) -> float:
    # Oriented so 1.0 is optimal for both objectives; over 0.0 it reads 1.0.
    top, bottom = (optimal, achieved) if plan.objective == "cmin" else (achieved, optimal)
    return 1.0 if bottom == 0.0 else top / bottom


def _mean_ci(values: Sequence[float]) -> tuple[float, float]:
    """Mean and 95% CI half-width; ``storage_sum`` keeps both the same on every Python."""
    t = len(values)
    mean = storage_sum(values, range(t)) / t
    if t < 2:
        return mean, 0.0
    var = storage_sum([(v - mean) ** 2 for v in values], range(t)) / (t - 1)
    return mean, 1.96 * math.sqrt(var) / math.sqrt(t)


def run_benchmark(plan: TrialPlan) -> tuple[BenchRow, ...]:
    """Execute the plan's trials in order on the calling thread.

    Each n's trials are generated in chunks of ``_BATCH_CUSTOMERS // n``
    trials (at least one).  Each algorithm takes a chunk in one ``_outcomes``
    call, which solves it as one batch unless the plan is timed, and
    the brute-force yardstick takes it as one batch, which the oracle seeds
    with the greedy pair at once and slices further by its own memory rule.
    """
    tags = sorted(set(plan.algorithms))  # a repeated algorithm runs once, like a repeated n
    rows = []
    for n in sorted(set(plan.n_values)):
        size = max(1, _BATCH_CUSTOMERS // max(n, 1))
        yardsticks, outcomes = [], {tag: [] for tag in tags}
        for first in range(0, plan.trials_per_n, size):
            trials = range(first, min(first + size, plan.trials_per_n))
            instances = [instance_for_trial(plan, n, t) for t in trials]
            yardsticks += _yardsticks(plan, instances)
            for tag in tags:
                outcomes[tag] += _outcomes(plan, tag, instances)
        for tag in tags:
            objectives, elapsed = zip(*outcomes[tag])
            mean_ratio = ci_ratio = worst = mean_el = ci_el = None
            if plan.oracle != "none":
                ratios = [_ratio(plan, *pair) for pair in zip(objectives, yardsticks)]
                (mean_ratio, ci_ratio), worst = _mean_ci(ratios), min(ratios)
            if plan.measure_time:
                mean_el, ci_el = _mean_ci(elapsed)
            rows.append(
                BenchRow(
                    scenario=plan.scenario.acronym,
                    n=n,
                    algorithm=tag,
                    mean_objective=_mean_ci(objectives)[0],
                    mean_ratio_vs_oracle=mean_ratio,
                    ci95_halfwidth=ci_ratio,
                    worst_ratio=worst,
                    mean_elapsed=mean_el,
                    ci95_elapsed=ci_el,
                )
            )
    return tuple(rows)


def _write_csv(path: str, what: str, header: Sequence[str], rows: Iterable) -> None:
    """Write ``header``, then the fields of each dataclass in ``rows``, as RFC 4180 CSV.

    The csv module writes ``None`` as an empty field and a float as its
    ``repr``.  ``dataclasses.astuple`` is not used: it deep-copies every
    field, which costs more than the rest of the write.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([getattr(row, f.name) for f in fields(row)] for row in rows)
    except OSError as exc:
        raise OSError(f"could not write {what} to {path}: {exc}") from exc


def emit_csv(rows: Iterable[BenchRow], path: str) -> None:
    """Write the rows as RFC 4180 CSV, one column per ``BenchRow`` field."""
    _write_csv(path, "benchmark CSV", [f.name for f in fields(BenchRow)], rows)


_PLAN_KEYS = {
    "scenario", "n_values", "trials_per_n", "algorithms", "objective",
    "oracle", "gsa_epsilon", "measure_time", "oracle_max_n",
}
_PLAN_SCENARIO_KEYS = {
    "acronym", "capacity", "seed", "max_theta", "phase_anchor", "industrial_fraction",
}


def _list_field(doc: Mapping, key: str, kind: type, default=_REQUIRED) -> tuple:
    values = _field(doc, key, list, "plan", default)
    return tuple(_check(v, kind, f"plan.{key}[{i}]") for i, v in enumerate(values))


def plan_from_dict(doc: Mapping) -> TrialPlan:
    """Build a TrialPlan from parsed plan JSON.

    Unknown keys are errors, and every field must have its JSON type: no
    value is coerced, so ``6.7`` is not a customer count and ``"no"`` is
    not a flag.
    """
    if not isinstance(doc, Mapping):
        raise FormatError("plan document must be a JSON object")
    unknown = set(doc) - _PLAN_KEYS
    if unknown:
        raise FormatError(f"unknown plan fields: {sorted(unknown)}")
    sc = _field(doc, "scenario", Mapping, "plan")
    unknown = set(sc) - _PLAN_SCENARIO_KEYS
    if unknown:
        raise FormatError(f"unknown scenario fields: {sorted(unknown)}")
    try:
        scenario = spec_from_acronym(
            _field(sc, "acronym", str, "plan.scenario"),
            n=0,
            capacity=_field(sc, "capacity", float, "plan.scenario"),
            seed=_field(sc, "seed", int, "plan.scenario"),
            **{
                key: _field(sc, key, float, "plan.scenario")
                for key in ("max_theta", "phase_anchor", "industrial_fraction")
                if key in sc
            },
        )
        return TrialPlan(
            scenario=scenario,
            n_values=_list_field(doc, "n_values", int),
            trials_per_n=_field(doc, "trials_per_n", int, "plan", 30),
            algorithms=_list_field(doc, "algorithms", str, ["gda"]),
            objective=_field(doc, "objective", str, "plan", "vmax"),
            oracle=_field(doc, "oracle", str, "plan", "brute_force"),
            gsa_epsilon=_field(doc, "gsa_epsilon", float, "plan", 0.25),
            measure_time=_field(doc, "measure_time", bool, "plan", False),
            budget=OracleBudget(max_n=_field(doc, "oracle_max_n", int, "plan", OracleBudget.max_n)),
        )
    except FormatError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed benchmark plan: {exc}") from exc


# --- dynamic generation capacity ---------------------------------------------


@dataclass(frozen=True)
class TracePoint:
    time_s: float
    capacity: float
    objective: float
    retained_count: int


def run_dynamic_capacity(
    scenario: ScenarioSpec,
    horizon: float = 10_000.0,
    event_rate: float = 0.005,
    fail_prob: float = 0.65,
    drop_range: tuple[float, float] = (0.05, 0.35),
    algorithm: str = "gda",
    seed: int = 0,
    floor_capacity: float = 100_000.0,
    gsa_epsilon: float = 0.25,
) -> list[TracePoint]:
    """Re-solve the customers of ``generate(scenario)`` while capacity jumps around.

    The full capacity is ``scenario.capacity``.  Events arrive with
    exponential inter-arrival times at ``event_rate`` per second until
    ``horizon`` seconds; both must be finite and > 0.  Each event is a
    failure with probability ``fail_prob`` (capacity drops by a uniform
    fraction from ``drop_range``, floored at ``floor_capacity``) and a
    resumption to full capacity otherwise.  The floor must lie in
    (0, scenario.capacity].  The trace starts with one point at t=0 at full
    capacity and gains a point per event.  The events are drawn from
    ``seed``, which must be >= 0.

    Customers whose lone demand exceeds the current capacity are excluded
    from that re-solve; they could never be part of a feasible supply set.
    Every point equals solving ``restrict_to_capacity(base, capacity)`` with
    the public solver.  The greedy algorithms sort their scan orders once per
    simulation; an event passes ``mag <= capacity``, the comparison
    ``restrict_to_capacity`` makes, as the pool that masks them, and scans
    each distinct order once.  With capacity a small share of the demand,
    most of an event's scan is rejects, which the scan drops by sifting.
    ``gsa`` solves each restricted instance afresh.  Either way an event at a capacity already
    solved (every resumption, and repeated floor hits) reuses that answer.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= fail_prob <= 1.0:
        raise ValueError("fail_prob must be within [0, 1]")
    lo, hi = drop_range
    if not 0.0 < lo <= hi < 1.0:
        raise ValueError("drop_range must satisfy 0 < lo <= hi < 1")
    if not (0.0 < horizon < math.inf and 0.0 < event_rate < math.inf):
        raise ValueError(
            f"horizon and event_rate must be finite and > 0, "
            f"got horizon {horizon:g} and event_rate {event_rate:g}"
        )
    if not 0.0 < floor_capacity <= scenario.capacity:
        raise ValueError(
            f"floor capacity must satisfy 0 < floor <= full capacity, "
            f"got floor {floor_capacity:g} and full {scenario.capacity:g}"
        )
    if algorithm not in set(VMAX_ALGORITHMS) | {"gsa"}:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    config = GsaConfig(gsa_epsilon)

    base = generate(scenario)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD1)))

    if algorithm == "gsa":

        def solve_at(capacity: float) -> tuple[float, int]:
            sol = gsa(restrict_to_capacity(base, capacity), config)
            return sol.objective, len(sol.retained_ids)

    else:
        orders = _kept_orders(_sorted_order_rows([base], SCAN_ORDERS[algorithm]), 0)

        def solve_at(capacity: float) -> tuple[float, int]:
            limit_sq, pool = capacity_limit_sq(capacity), base.columns.mag <= capacity
            retained, objective = _best_of_scans(base, (), orders, limit_sq, pool)
            return objective, len(retained)

    solve_at = functools.cache(solve_at)

    capacity = scenario.capacity
    objective, retained = solve_at(capacity)
    trace = [TracePoint(0.0, capacity, objective, retained)]
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / event_rate))
        if t > horizon:
            break
        if rng.random() < fail_prob:
            capacity = max(floor_capacity, capacity * (1.0 - rng.uniform(lo, hi)))
        else:
            capacity = scenario.capacity
        objective, retained = solve_at(capacity)
        trace.append(TracePoint(t, capacity, objective, retained))
    return trace


def write_trace_csv(trace: Sequence[TracePoint], path: str) -> None:
    header = ("t_seconds", "capacity_va", "objective", "retained_count")
    _write_csv(path, "trace CSV", header, trace)
