"""Benchmark harness: determinism, ratio orientation, CSV, dynamic capacity."""

import hashlib
import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    COERCIBLE_PLAN_FIELDS,
    build_instance,
    customer_rows,
    plan_doc,
    reference_dynamic_capacity,
)
from curtail import bench
from curtail.bench import VMAX_ALGORITHMS, _mean_ci
from curtail import (
    DemandExceedsCapacityError,
    FormatError,
    OracleBudget,
    TrialPlan,
    brute_force_cmin,
    brute_force_vmax,
    emit_csv,
    generate,
    instance_for_trial,
    instance_to_dict,
    plan_from_dict,
    restrict_to_capacity,
    run_benchmark,
    run_dynamic_capacity,
    spec_from_acronym,
    trial_seed,
    write_trace_csv,
)

# the package's ``gsa`` function shadows the module as an attribute of ``curtail``
gsa_module = importlib.import_module("curtail.gsa")
oracle_module = importlib.import_module("curtail.oracle")


def small_plan(**overrides) -> TrialPlan:
    base = dict(
        scenario=spec_from_acronym("ACR", 0, 25_000.0, seed=123),
        n_values=(8, 12),
        trials_per_n=30,
        algorithms=("gda", "gra"),
        objective="vmax",
        oracle="brute_force",
    )
    base.update(overrides)
    return TrialPlan(**base)


class TestPlanValidation:
    def test_trials_floor(self):
        with pytest.raises(ValueError, match="trials_per_n"):
            small_plan(trials_per_n=5)

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            small_plan(n_values=(25,))

    def test_oracle_max_n_above_the_default_is_the_limit(self):
        # the plan's oracle_max_n alone bounds n: a plan that passes validation
        # at n = 21 also enumerates its n = 21 instances
        plan = plan_from_dict({**plan_doc("oracle_max_n", 21), "n_values": [21]})
        plan.budget.check(21)
        sol = brute_force_vmax(instance_for_trial(plan, 21, 0), plan.budget)
        assert sol.objective > 0.0

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithms"):
            small_plan(algorithms=("gda", "newton"))

    def test_lp_bound_only_for_vmax(self):
        with pytest.raises(ValueError, match="lp_bound"):
            small_plan(objective="cmin", oracle="lp_bound")

    def test_plan_json_round_trip(self):
        doc = {
            "scenario": {"acronym": "ACR", "capacity": 25000.0, "seed": 123},
            "n_values": [8, 12],
            "trials_per_n": 30,
            "algorithms": ["gda", "gra"],
            "objective": "vmax",
            "oracle": "brute_force",
        }
        plan = plan_from_dict(doc)
        assert plan.scenario.acronym == "ACR"
        assert plan.n_values == (8, 12)

    def test_malformed_plan_rejected(self):
        from curtail import FormatError

        with pytest.raises(FormatError):
            plan_from_dict({"n_values": [4]})

    def test_unknown_plan_keys_rejected(self):
        from curtail import FormatError

        doc = {
            "scenario": {"acronym": "ACR", "capacity": 25000.0, "seed": 1},
            "n_values": [8],
            "trails_per_n": 30,  # typo must not be silently dropped
        }
        with pytest.raises(FormatError, match="trails_per_n"):
            plan_from_dict(doc)

    def test_unknown_scenario_keys_rejected(self):
        from curtail import FormatError

        doc = {
            "scenario": {"acronym": "ACR", "capacity": 25000.0, "seed": 1, "max_teta": 0.1},
            "n_values": [8],
        }
        with pytest.raises(FormatError, match="max_teta"):
            plan_from_dict(doc)


class TestPlanFieldTypes:
    def test_valid_plan_loads(self):
        plan = plan_from_dict(plan_doc("measure_time", True))
        assert plan.measure_time is True
        assert plan.n_values == (8,)

    @pytest.mark.parametrize("field, value", COERCIBLE_PLAN_FIELDS)
    def test_wrong_json_type_rejected(self, field, value):
        with pytest.raises(FormatError, match=field.split(".")[-1]):
            plan_from_dict(plan_doc(field, value))

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 1.5, -0.25])
    def test_gsa_epsilon_outside_unit_interval_rejected(self, epsilon):
        with pytest.raises(FormatError, match="gsa_epsilon"):
            plan_from_dict(plan_doc("gsa_epsilon", epsilon))
        with pytest.raises(ValueError, match="gsa_epsilon"):
            small_plan(gsa_epsilon=epsilon)


class TestMeanCi:
    def test_mean_adds_left_to_right(self):
        # a compensated sum (builtin sum from Python 3.12) keeps the 1e-16s
        assert _mean_ci([1.0] + [1e-16] * 10)[0] == 1.0 / 11

    def test_single_value_has_zero_width(self):
        assert _mean_ci([2.5]) == (2.5, 0.0)


class TestSeedDerivation:
    def test_trial_seeds_differ(self):
        plan = small_plan()
        seeds = {trial_seed(plan, n, t) for n in (8, 12) for t in range(30)}
        assert len(seeds) == 60

    def test_seed_isolation(self):
        # a trial's instance is a pure function of (plan seed, n, index)
        plan = small_plan()
        direct = instance_to_dict(instance_for_trial(plan, 12, 17))
        plan2 = small_plan(n_values=(12,))
        again = instance_to_dict(instance_for_trial(plan2, 12, 17))
        assert direct == again


class TestRunBenchmark:
    def test_ratios_at_most_one_and_worst_below_mean(self):
        rows = run_benchmark(small_plan())
        assert rows
        for row in rows:
            assert row.mean_ratio_vs_oracle <= 1.0 + 1e-12
            assert row.worst_ratio <= row.mean_ratio_vs_oracle + 1e-12
            assert 0.0 <= row.worst_ratio
            assert row.ci95_halfwidth >= 0.0
            assert row.mean_elapsed is None  # timings off by default

    def test_cmin_ratios_oriented_to_one(self):
        rows = run_benchmark(small_plan(objective="cmin", algorithms=("gda", "gma")))
        for row in rows:
            assert 0.0 <= row.worst_ratio <= row.mean_ratio_vs_oracle <= 1.0 + 1e-12

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        plan = small_plan()
        paths = []
        for i in range(2):
            path = tmp_path / f"report{i}.csv"
            emit_csv(run_benchmark(plan), str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_duplicate_n_values_and_algorithms_run_once(self, tmp_path, monkeypatch):
        # the 30 trials are one chunk, which gda solves in one batched call
        paths = [tmp_path / "once.csv", tmp_path / "twice.csv"]
        emit_csv(run_benchmark(small_plan(n_values=(8,), algorithms=("gda",))), str(paths[0]))
        built, solved = [], []
        greedy_rows = bench._greedy_rows
        monkeypatch.setattr(
            "curtail.bench.instance_for_trial", lambda *a: built.append(a) or instance_for_trial(*a)
        )
        monkeypatch.setattr(
            bench, "_greedy_rows",
            lambda instances, *a: solved.append(len(instances)) or greedy_rows(instances, *a),
        )
        rows = run_benchmark(small_plan(n_values=(8, 8), algorithms=("gda", "gda")))
        emit_csv(rows, str(paths[1]))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(built) == 30 and solved == [30]

    def test_batched_yardsticks_equal_per_trial_oracles(self, monkeypatch):
        # each n's 30 trials are one chunk; the oracle searches n = 16 as
        # 2^20 >> 16 = 16 trials and then the other 14, and n = 21, above the
        # default budget, one trial at a time
        chunked, searched = [], []
        batched, masks = bench._brute_force_batch, oracle_module._best_feasible_masks

        def counted(instances, *args):
            chunked.append(len(instances))
            return batched(instances, *args)

        def counted_masks(instances, *args):
            searched.append(len(instances))
            return masks(instances, *args)

        def per_trial(instances, budget, rel_tol, objective):
            solver = brute_force_cmin if objective == "cmin" else brute_force_vmax
            return None, [solver(instance, budget, rel_tol).objective for instance in instances]

        for objective in ("vmax", "cmin"):
            plan = small_plan(
                scenario=spec_from_acronym("FCR", 0, 25_000.0, seed=5), n_values=(16, 21),
                algorithms=("gda",), objective=objective, budget=OracleBudget(max_n=21),
            )
            with monkeypatch.context() as m:
                m.setattr(bench, "_brute_force_batch", counted)
                m.setattr(oracle_module, "_best_feasible_masks", counted_masks)
                rows = run_benchmark(plan)
            # the reference sends one trial at a time to the one-instance solvers
            with monkeypatch.context() as m:
                m.setattr(bench, "_BATCH_CUSTOMERS", 1)
                m.setattr(bench, "_brute_force_batch", per_trial)
                assert run_benchmark(plan) == rows
        assert chunked == 2 * [30, 30]
        assert searched == 2 * ([16, 14] + [1] * 30)

    @pytest.mark.parametrize("oracle", ["brute_force", "none"])
    def test_csv_bytes_do_not_depend_on_the_chunk_cap(self, tmp_path, monkeypatch, oracle):
        # at a cap of 1 every trial is its own chunk, so gsa solves batches of one
        plan = small_plan(
            scenario=spec_from_acronym("FCR", 0, 25_000.0, seed=9), n_values=(0, 1, 9, 13),
            algorithms=("gda", "gsa"), oracle=oracle,
        )
        paths = [tmp_path / "default.csv", tmp_path / "one.csv"]
        emit_csv(run_benchmark(plan), str(paths[0]))
        with monkeypatch.context() as m:
            m.setattr(bench, "_BATCH_CUSTOMERS", 1)
            emit_csv(run_benchmark(plan), str(paths[1]))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_bytes_do_not_depend_on_batched_scans(self, tmp_path, monkeypatch):
        # at a chunk cap of 1 every chunk is a batch of one, and with every
        # batched scan split into rows of one only the single paths run; the
        # FLM and FUM trials have two distinct gda orders, FCR one
        def row_by_row(rows_of):
            def split(instances, orders, limit_sq, trial, forced=None, pool=None):
                parts = [rows_of(instances, orders, limit_sq, trial[r : r + 1],
                                 None if forced is None else forced[r : r + 1],
                                 None if pool is None else pool[r : r + 1])
                         for r in range(len(trial))]
                n = orders[0].shape[-1]
                retained = np.concatenate([part[0] for part in parts]).reshape(len(trial), n)
                return retained, np.concatenate([part[1] for part in parts])
            return split

        def instance_by_instance(greedy_rows):
            def split(instances, keys, rel_tol):
                parts = [greedy_rows([instance], keys, rel_tol) for instance in instances]
                n = len(instances[0]) if instances else 0
                retained = np.concatenate([part[0] for part in parts]).reshape(len(instances), n)
                return retained, np.concatenate([part[1] for part in parts])
            return split

        reports = []
        for batched in ("default", "chunks of one", "rows of one"):
            with monkeypatch.context() as m:
                if batched != "default":
                    m.setattr(bench, "_BATCH_CUSTOMERS", 1)
                if batched == "rows of one":
                    for module in (bench, oracle_module, gsa_module):
                        m.setattr(module, "_greedy_rows", instance_by_instance(module._greedy_rows))
                    m.setattr(gsa_module, "_best_of_scans_rows",
                              row_by_row(gsa_module._best_of_scans_rows))
                for acronym, capacity in (("FCR", 25_000.0), ("FLM", 5e6), ("FUM", 5e6)):
                    plan = small_plan(
                        scenario=spec_from_acronym(acronym, 0, capacity, seed=11),
                        n_values=(0, 1, 14, 18), algorithms=("gva", "gma", "gra", "gda", "gsa"),
                    )
                    path = tmp_path / f"{acronym}-{batched}.csv"
                    emit_csv(run_benchmark(plan), str(path))
                    reports.append(path.read_bytes())
        assert reports[:3] == reports[3:6] == reports[6:]

    def test_gsa_batches_of_one_when_timed(self, monkeypatch):
        # a timed trial's elapsed describes one solve, so gsa gets one instance a batch
        search_batch, sizes = gsa_module._search_batch, []

        def counted(instances, *args):
            sizes.append(len(instances))
            return search_batch(instances, *args)

        monkeypatch.setattr(gsa_module, "_search_batch", counted)
        monkeypatch.setattr(bench, "_search_batch", counted)
        timed = run_benchmark(small_plan(algorithms=("gda", "gsa"), measure_time=True))
        assert sizes == [1] * 60
        for row in timed:
            assert row.mean_elapsed > 0.0 and row.ci95_elapsed >= 0.0
        sizes.clear()
        untimed = run_benchmark(small_plan(algorithms=("gda", "gsa")))
        assert sizes == [30, 30]
        for a, b in zip(timed, untimed):
            assert a.mean_objective == b.mean_objective
            assert a.mean_ratio_vs_oracle == b.mean_ratio_vs_oracle
            assert b.mean_elapsed is None and b.ci95_elapsed is None

    @pytest.mark.parametrize("chunk", [1, bench._BATCH_CUSTOMERS])
    @pytest.mark.parametrize("objective, measure_time", [
        ("vmax", False), ("vmax", True), ("cmin", False),
    ])
    def test_each_solver_is_called_once_per_trial(
        self, monkeypatch, objective, measure_time, chunk
    ):
        # timed, and for cmin, each algorithm solves each trial once, whatever
        # the chunks; untimed vmax algorithms make one batched call per chunk,
        # a greedy with a row per trial
        table = bench.CMIN_ALGORITHMS if objective == "cmin" else VMAX_ALGORITHMS
        calls = dict.fromkeys(table, 0)
        greedy_batches, gsa_batches = [], []

        def counted(tag, solve):
            def wrapper(*args, **kwargs):
                calls[tag] += 1
                return solve(*args, **kwargs)
            return wrapper

        def batched(sizes, solve):
            def wrapper(instances, *args):
                sizes.append(len(instances))
                return solve(instances, *args)
            return wrapper

        for tag, solve in list(table.items()):
            monkeypatch.setitem(table, tag, counted(tag, solve))
        algorithms = tuple(table)
        if objective == "vmax":
            calls["gsa"], algorithms = 0, algorithms + ("gsa",)
            monkeypatch.setattr(bench, "gsa", counted("gsa", bench.gsa))
        monkeypatch.setattr(bench, "_greedy_rows", batched(greedy_batches, bench._greedy_rows))
        monkeypatch.setattr(bench, "_search_batch", batched(gsa_batches, bench._search_batch))
        monkeypatch.setattr(bench, "_BATCH_CUSTOMERS", chunk)
        plan = small_plan(algorithms=algorithms, objective=objective, measure_time=measure_time)
        assert len(run_benchmark(plan)) == 2 * len(algorithms)
        batches = 2 * [30] if chunk > 30 * 12 else 2 * 30 * [1]
        if objective == "vmax" and not measure_time:
            assert calls == dict.fromkeys(algorithms, 0)
            assert greedy_batches == [size for size in batches for _ in table]
            assert gsa_batches == batches
        else:
            assert calls == dict.fromkeys(algorithms, 2 * 30)
            assert greedy_batches == gsa_batches == []

    def test_gda_worst_case_floor_per_row(self):
        # worst case at 36 degrees spread is (1/2) cos 18deg, above 0.4755
        plan = small_plan(
            scenario=spec_from_acronym("ACR", 0, 30_000.0, seed=77),
            n_values=(10, 14, 18),
            algorithms=("gda",),
            budget=OracleBudget(max_n=18),
        )
        rows = run_benchmark(plan)
        assert len(rows) == 3
        for row in rows:
            assert row.worst_ratio >= 0.4755 - 1e-9

    def test_gsa_against_gda_mean_ratios(self):
        plan = small_plan(
            scenario=spec_from_acronym("ACR", 0, 25_000.0, seed=321),
            n_values=(14,),
            algorithms=("gda", "gsa"),
            gsa_epsilon=1 / 3,
        )
        rows = run_benchmark(plan)
        by_alg = {row.algorithm: row for row in rows}
        gsa_mean = by_alg["gsa"].mean_ratio_vs_oracle
        gda_mean = by_alg["gda"].mean_ratio_vs_oracle
        assert gsa_mean >= gda_mean - 0.05
        assert gsa_mean >= (2 / 3) * 0.95

    def test_measure_time_populates_elapsed(self):
        rows = run_benchmark(small_plan(measure_time=True, n_values=(8,)))
        for row in rows:
            assert row.mean_elapsed > 0.0
            assert row.ci95_elapsed >= 0.0

    def test_lp_bound_yardstick(self):
        # ACR has theta = 0, where the magnitude-relaxed LP bounds the optimum
        # from above, so ratios still top out at 1; under complex power
        # (theta > 0) it need not, and lp_bound ratios can exceed 1
        rows = run_benchmark(small_plan(oracle="lp_bound", n_values=(10,)))
        for row in rows:
            assert 0.0 <= row.worst_ratio <= row.mean_ratio_vs_oracle <= 1.0 + 1e-12

    def test_no_yardstick_leaves_ratio_columns_empty(self):
        rows = run_benchmark(small_plan(oracle="none", n_values=(8,)))
        for row in rows:
            assert row.mean_ratio_vs_oracle is None
            assert row.ci95_halfwidth is None
            assert row.worst_ratio is None
            assert row.mean_objective > 0.0


class TestCsv:
    def test_header_only_for_empty_report(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv((), str(path))
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == 1  # RFC 4180 line ending
        assert raw.startswith(b"scenario,n,algorithm,")

    def test_row_count_and_reemission(self, tmp_path):
        rows = run_benchmark(small_plan(n_values=(8,)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, str(p1))
        emit_csv(rows, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert len(p1.read_text().strip().splitlines()) == 1 + len(rows)

    def test_write_failure_carries_path(self, tmp_path):
        rows = run_benchmark(small_plan(n_values=(8,)))
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv(rows, str(tmp_path / "no/such/dir/x.csv"))


class TestDynamicCapacity:
    def test_no_failures_means_constant_capacity(self):
        spec = spec_from_acronym("FCR", 30, 2e6, seed=5)
        trace = run_dynamic_capacity(spec, horizon=2000.0, fail_prob=0.0, seed=9)
        assert all(point.capacity == 2e6 for point in trace)

    def test_event_count_within_poisson_bounds(self):
        spec = spec_from_acronym("FCR", 20, 2e6, seed=6)
        trace = run_dynamic_capacity(spec, seed=10)
        events = len(trace) - 1  # first point is the t=0 snapshot
        mean = 0.005 * 10_000
        assert abs(events - mean) <= 4 * math.sqrt(mean)

    def test_capacity_stays_within_floor_and_full(self):
        spec = spec_from_acronym("FCM", 25, 2e6, seed=7)
        trace = run_dynamic_capacity(spec, seed=11)
        for point in trace:
            assert 100_000.0 <= point.capacity <= 2e6

    def test_full_capacity_is_the_scenario_capacity(self):
        # every industrial demand is at most 2e6 VA; the trace runs at 3e6
        spec = spec_from_acronym("FCM", 16, 3e6, seed=2)
        trace = run_dynamic_capacity(spec, seed=7)
        assert trace[0].capacity == 3e6
        assert max(point.capacity for point in trace) == 3e6
        assert min(point.capacity for point in trace) < 3e6

    def test_customers_above_the_scenario_capacity_are_refused(self):
        # generated at the scenario capacity, not at some larger one
        with pytest.raises(DemandExceedsCapacityError):
            run_dynamic_capacity(spec_from_acronym("FCM", 16, 1e6, seed=2), seed=7)

    def test_trace_csv_shape(self, tmp_path):
        spec = spec_from_acronym("ACR", 10, 2e6, seed=8)
        trace = run_dynamic_capacity(spec, horizon=1000.0, seed=12)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t_seconds,capacity_va,objective,retained_count"
        assert len(lines) == 1 + len(trace)

    def test_parameter_validation(self):
        spec = spec_from_acronym("ACR", 5, 2e6, seed=1)
        with pytest.raises(ValueError):
            run_dynamic_capacity(spec, fail_prob=1.5)
        with pytest.raises(ValueError):
            run_dynamic_capacity(spec, drop_range=(0.0, 0.3))
        with pytest.raises(ValueError):
            run_dynamic_capacity(spec, algorithm="nope")

    def test_negative_event_seed_rejected(self):
        spec = spec_from_acronym("ACR", 5, 2e6, seed=1)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            run_dynamic_capacity(spec, seed=-1)

    @pytest.mark.parametrize("floor", [5e6, 0.0, -1.0, float("nan")])
    def test_floor_outside_zero_to_full_rejected(self, floor):
        spec = spec_from_acronym("ACR", 5, 2e6, seed=1)
        with pytest.raises(ValueError, match="floor"):
            run_dynamic_capacity(spec, floor_capacity=floor)

    def test_floor_equal_to_full_capacity_is_flat(self):
        spec = spec_from_acronym("ACR", 5, 2e6, seed=1)
        trace = run_dynamic_capacity(spec, horizon=1000.0, floor_capacity=2e6)
        assert {point.capacity for point in trace} == {2e6}

    @pytest.mark.parametrize("name", ["horizon", "event_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_horizon_and_event_rate_must_be_finite_and_positive(self, name, value):
        # nan passed a plain "<= 0" check, and nan or inf never ended the event loop
        spec = spec_from_acronym("ACR", 5, 2e6, seed=1)
        with pytest.raises(ValueError, match="finite and > 0"):
            run_dynamic_capacity(spec, **{name: value})

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 5.0, -3.0, math.nan])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        spec = spec_from_acronym("ACR", 5, 2e6, seed=1)
        with pytest.raises(ValueError, match="epsilon"):
            run_dynamic_capacity(spec, gsa_epsilon=epsilon)


# Scenario, size and event parameters for the differential test; each set
# lets some events fall below the largest lone demand, so the mask matters.
DIFFERENTIAL_CASES = {
    # residential loads only: a deep floor drops the largest of them
    "FCR": dict(n=300, capacity=4e5, floor_capacity=7e3, fail_prob=0.8,
                drop_range=(0.3, 0.6)),
    "FCM": dict(n=200),
    "AUM": dict(n=200),
    # industrial loads only: every customer is dropped below 5e5 VA
    "ACI": dict(n=12),
}


def _hypot_disagreement(math_below: bool) -> tuple[float, float]:
    """A demand whose ``math.hypot`` and ``np.hypot`` magnitudes differ.

    ``math_below`` picks the direction of the last-bit disagreement.
    """
    rng = np.random.default_rng(0)
    p = rng.uniform(100.0, 8000.0, 4096)
    q = rng.uniform(100.0, 8000.0, 4096)
    vectorised = np.hypot(p, q)
    for k in range(len(p)):
        scalar = math.hypot(p[k], q[k])
        if scalar != vectorised[k] and (scalar < vectorised[k]) == math_below:
            return float(p[k]), float(q[k])
    pytest.skip("math.hypot and np.hypot agree on every sample here")


class TestDynamicCapacityReference:
    @pytest.mark.parametrize("algorithm", ["gva", "gma", "gra", "gda", "gsa"])
    @pytest.mark.parametrize("acronym", sorted(DIFFERENTIAL_CASES))
    def test_matches_per_event_rebuild(self, acronym, algorithm):
        kwargs = dict(DIFFERENTIAL_CASES[acronym])
        n = kwargs.pop("n")
        if algorithm == "gsa":
            n = min(n, 24)  # about n^3 forced scans per event at epsilon 1/4
        full = kwargs.pop("capacity", 2e6)
        masked = 0
        for seed in (0, 1, 2):
            spec = spec_from_acronym(acronym, n, full, seed=seed)
            args = dict(horizon=4000.0, algorithm=algorithm, seed=seed, **kwargs)
            trace = run_dynamic_capacity(spec, **args)
            assert trace == reference_dynamic_capacity(spec, **args)
            largest = max(c.magnitude for c in customer_rows(generate(spec)))
            masked += sum(point.capacity < largest for point in trace)
        assert masked > 0

    @pytest.mark.parametrize("math_below", [True, False], ids=["math_below", "math_above"])
    @pytest.mark.parametrize("algorithm", ["gva", "gma", "gra", "gda"])
    def test_mask_uses_construction_magnitude(self, monkeypatch, math_below, algorithm):
        # The floor lies between the two magnitudes of customer 0, so only
        # math.hypot (what restrict_to_capacity compares) gives the right set.
        p, q = _hypot_disagreement(math_below)
        floor = min(math.hypot(p, q), float(np.hypot(p, q)))
        rows = [(0, p, q, 100.0, 100.0)] + [(k, 1e-9, 1e-9, 1.0, 1.0) for k in (1, 2, 3)]
        monkeypatch.setattr(
            "curtail.bench.generate", lambda spec: build_instance(rows, spec.capacity)
        )
        trace = run_dynamic_capacity(
            spec_from_acronym("FCR", len(rows), 4 * floor, seed=0),
            horizon=10.0,
            event_rate=1.0,
            fail_prob=1.0,
            drop_range=(0.8, 0.9),
            algorithm=algorithm,
            floor_capacity=floor,
        )
        at_floor = trace[1:]
        assert at_floor and all(point.capacity == floor for point in at_floor)
        reduced = restrict_to_capacity(build_instance(rows, 4 * floor), floor)
        assert (0 in reduced.ids) == math_below
        expected = VMAX_ALGORITHMS[algorithm](reduced)
        for point in at_floor:
            assert point.retained_count == len(expected.retained_ids) == 3 + math_below
            assert point.objective == expected.objective


# SHA-256 of ``write_trace_csv`` for ``simulate --dynamic --n 5000 --seed 1968``
# at the event defaults, recorded before the greedy scan became an array
# kernel; a trace whose bytes move means some re-solve changed a float.
TRACE_SHA256 = {
    ("FCM", "gda"): "461f29279df61551d08e076fcf6a8714a2c8e68c57f327a7c6a89fe45da038ff",
    ("FCM", "gra"): "461f29279df61551d08e076fcf6a8714a2c8e68c57f327a7c6a89fe45da038ff",
    ("FCM", "gma"): "a01e1577374fbad883e10378dbec1ed97d7abfb08ef509ab07662004e04c84d4",
    ("FCM", "gva"): "461f29279df61551d08e076fcf6a8714a2c8e68c57f327a7c6a89fe45da038ff",
    ("FUM", "gda"): "8b23acb5b3ee7bbd6776c999f2100f10dbd3bae52e44f2a4f00008c0a17bd03d",
    ("FUM", "gra"): "8b23acb5b3ee7bbd6776c999f2100f10dbd3bae52e44f2a4f00008c0a17bd03d",
    ("FUM", "gma"): "28a896ec184a5a414559f138e297980dba8c3784f76320d59958df77c38a9c55",
    ("FUM", "gva"): "9235273a932646de12334fabcd67299f18102078dcf6b07846a19f540b10b82b",
    ("AUM", "gda"): "9757ba05aba15971b09bee70819aa2de4a9bd80813d2d79b179af7b709691b54",
    ("AUM", "gra"): "9757ba05aba15971b09bee70819aa2de4a9bd80813d2d79b179af7b709691b54",
    ("AUM", "gma"): "abbcadf0628792db970b3a54b09dde8f48cd7e7d11ca323855b5877e18cb9f24",
    ("AUM", "gva"): "a71f900d55d11cac4a018897067993bacf5704907c6c1c9d61436f02424db1ca",
}


class TestTraceBytes:
    @pytest.mark.parametrize("acronym, algorithm", sorted(TRACE_SHA256))
    def test_trace_bytes_are_pinned(self, tmp_path, acronym, algorithm):
        spec = spec_from_acronym(acronym, 5_000, 2e6, seed=1968)
        trace = run_dynamic_capacity(spec, algorithm=algorithm, seed=1968)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == TRACE_SHA256[(acronym, algorithm)]


class TestRuntimeScaling:
    def test_gda_is_roughly_linearithmic(self):
        # loose gate on growth between 1e4 and 1e5 customers; absolute
        # speed is gated in the acceptance suite
        import gc

        from curtail import gda, generate

        sizes = (10_000, 100_000)
        instances = [generate(spec_from_acronym("FCM", n, 2e6, seed=15)) for n in sizes]
        gc.collect()
        # the sizes alternate, so a change of machine speed mid-test skews both alike
        t = {n: math.inf for n in sizes}
        for _ in range(7):
            for n, inst in zip(sizes, instances):
                t[n] = min(t[n], gda(inst).elapsed)
        assert t[100_000] / t[10_000] <= 15.0
