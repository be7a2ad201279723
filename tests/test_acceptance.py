"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Fuzz corpora are seeded, so every run checks the same
instances; tolerances follow the worst-case guarantees, with float noise
allowances scaled relative to the magnitudes being compared (apparent powers
reach 1e6 VA and quadratic valuations 1e12, where absolute 1e-9 would be
below one ulp).
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from curtail import cli
from curtail import (
    ComplexDemand,
    GsaConfig,
    Instance,
    OracleBudget,
    TrialPlan,
    alignment_factor,
    brute_force_cmin,
    brute_force_vmax,
    cmin_gda,
    cmin_gra,
    cmin_gva,
    emit_csv,
    gda,
    generate,
    gma,
    gra,
    gsa,
    gva,
    lp_upper_bound,
    magnitude_sum_ratio_bound,
    max_phase_spread,
    restrict_to_capacity,
    run_benchmark,
    run_dynamic_capacity,
    spec_from_acronym,
)
from conftest import build_instance, customer_rows, knapsack_dp, reference_best_vmax

ACRONYMS = tuple(p + c + l for p in "FA" for c in "CUL" for l in "RIM")
GDA_FLOOR = 0.4755  # (1/2) * sqrt((cos 36deg + 1)/2), rounded down

# one line per criterion, echoed by the terminal-summary hook in conftest
REPORT_LINES: list[str] = []


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        line = f"[criterion {num:02d}] FAIL - {description}"
        REPORT_LINES.append(line)
        print(line)
        raise
    line = f"[criterion {num:02d}] PASS - {description}"
    REPORT_LINES.append(line)
    print(line)


def fuzz_instance(acr_idx: int, index: int, n_lo: int, n_hi: int, salt: int) -> Instance:
    """Seeded scenario draw rebound to a binding capacity."""
    rng = np.random.default_rng(np.random.SeedSequence((acr_idx, index, salt)))
    n = int(rng.integers(n_lo, n_hi + 1))
    seed = int(rng.integers(0, 2**63))
    inst = generate(spec_from_acronym(ACRONYMS[acr_idx], n, 2.01e6, seed=seed))
    mags = [c.magnitude for c in customer_rows(inst)]
    frac = float(rng.uniform(0.15, 0.75))
    return Instance(inst.columns, max(max(mags), frac * sum(mags)))


@dataclass
class SweepStats:
    instances: int = 0
    min_gda_ratio: float = 1.0
    gda_violations: int = 0
    sandwich_upper_violations: int = 0
    sandwich_lower_violations: int = 0
    lp_dominance_violations_theta0: int = 0
    lp_dominance_violations_full: int = 0
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def guarantee_sweep() -> SweepStats:
    """One pass over 1000 instances per scenario acronym, n in [4, 18].

    Collects every quantity criteria 1 and 5 assert on, so the exhaustive
    oracle runs once per instance.
    """
    per_acronym = 1000
    stats = SweepStats()
    start = time.perf_counter()
    for acr_idx, acronym in enumerate(ACRONYMS):
        for i in range(per_acronym):
            inst = fuzz_instance(acr_idx, i, 4, 18, salt=0xACCE)
            opt = brute_force_vmax(inst).objective
            theta = max_phase_spread(inst)
            g_duet = gda(inst).objective
            g_ratio = gra(inst).objective
            g_value = gva(inst).objective
            lp = lp_upper_bound(inst)

            if g_duet < GDA_FLOOR * opt - 1e-9:
                stats.gda_violations += 1
            if opt > 0:
                stats.min_gda_ratio = min(stats.min_gda_ratio, g_duet / opt)

            scale = max(1.0, abs(lp), abs(opt))
            if lp > g_ratio + g_value + 1e-9 * scale:
                stats.sandwich_upper_violations += 1
            if lp < alignment_factor(theta) * opt - 1e-9 * scale:
                stats.sandwich_lower_violations += 1
            if g_ratio > lp + 1e-9 * scale:
                if acronym.startswith("A"):
                    stats.lp_dominance_violations_theta0 += 1
                else:
                    stats.lp_dominance_violations_full += 1
            stats.instances += 1
    stats.elapsed = time.perf_counter() - start
    return stats


class TestCriterion01:
    def test_gda_worst_case_bound(self, guarantee_sweep):
        with criterion(1, "greedy-pair worst case >= 0.4755 * optimum on every "
                          f"fuzzed instance ({guarantee_sweep.instances} instances, "
                          f"{guarantee_sweep.elapsed:.0f}s, min ratio "
                          f"{guarantee_sweep.min_gda_ratio:.3f})"):
            assert guarantee_sweep.instances >= 1000 * len(ACRONYMS)
            assert guarantee_sweep.gda_violations == 0
            # the closed-form constant at the 36-degree cap clears 9/19
            assert 0.5 * alignment_factor(math.radians(36)) >= 9 / 19


class TestCriterion02:
    def test_gsa_worst_case_bound(self):
        worst = 1.0
        checked = 0
        for eps in (0.25, 1 / 3):
            cfg = GsaConfig(eps)
            for i in range(520):
                acr_idx = i % len(ACRONYMS)
                inst = fuzz_instance(acr_idx, i, 4, 14, salt=0xBEEF)
                opt = brute_force_vmax(inst).objective
                theta = max_phase_spread(inst)
                bound = (1 - eps) * alignment_factor(theta)
                got = gsa(inst, cfg).objective
                assert got >= bound * opt - 1e-9
                if opt > 0:
                    worst = min(worst, got / opt)
                checked += 1
        with criterion(2, "enumeration booster >= (1-eps)*cos(theta/2)*optimum "
                          f"for eps in {{1/4, 1/3}} ({checked} instances, worst "
                          f"ratio {worst:.3f})"):
            assert checked >= 1000

    def test_gsa_exact_when_enumeration_covers_the_instance(self):
        exact = 0
        cfg = GsaConfig(1 / 16)  # m = 14 >= n for every n <= 12
        for i in range(120):
            acr_idx = i % len(ACRONYMS)
            inst = fuzz_instance(acr_idx, i, 2, 12, salt=0xE)
            assert cfg.max_subset_size(len(inst)) == len(inst)
            assert gsa(inst, cfg).objective == brute_force_vmax(inst).objective
            exact += 1
        with criterion(2, f"enumeration booster exact at m >= n ({exact} instances, "
                          "float-equal objectives)"):
            assert exact == 120


class TestCriterion03:
    def test_magnitude_ordered_scan_worst_case(self):
        # two customers, C = 100: magnitudes 1 and 100, valuations 1 and 100
        inst = build_instance([(1, 1.0, 0.0, 1.0), (2, 100.0, 0.0, 100.0)], 100.0)
        with criterion(3, "worst-case two-customer and five-customer instances "
                          "reproduce exactly"):
            assert gma(inst).objective == 1.0
            assert gva(inst).objective == 100.0
            assert brute_force_vmax(inst).objective == 100.0

            # five customers, C = 10: one (10 VA, value 10), four (2 VA, value 9)
            rows = [(1, 10.0, 0.0, 10.0)] + [(k, 2.0, 0.0, 9.0) for k in range(2, 6)]
            inst2 = build_instance(rows, 10.0)
            assert gva(inst2).objective == 10.0
            assert gra(inst2).objective == 36.0
            assert brute_force_vmax(inst2).objective == 36.0


class TestCriterion04:
    def test_vector_sum_ratio_bound(self):
        rng = np.random.default_rng(0x7B)
        samples = 100_000
        sizes = rng.integers(1, 11, samples)
        total = int(sizes.sum())
        mags = rng.uniform(0.1, 10.0, total)
        phases = rng.uniform(0.0, math.pi / 2, total)
        starts = np.zeros(samples, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        p = mags * np.cos(phases)
        q = mags * np.sin(phases)
        sum_mag = np.add.reduceat(mags, starts)
        sum_p = np.add.reduceat(p, starts)
        sum_q = np.add.reduceat(q, starts)
        theta = np.maximum.reduceat(phases, starts) - np.minimum.reduceat(phases, starts)
        ratio = sum_mag / np.hypot(sum_p, sum_q)
        bound = np.sqrt(2.0 / (np.cos(theta) + 1.0))
        with criterion(4, f"scalar/vector sum ratio bound holds on {samples} random "
                          "sets and is tight for the right-angle pair"):
            assert np.all(ratio <= bound + 1e-9)
            pair = [ComplexDemand(1.0, 0.0), ComplexDemand(0.0, 1.0)]
            from curtail import magnitude_sum_ratio

            tight = magnitude_sum_ratio(pair)
            assert abs(tight - math.sqrt(2)) <= 1e-12
            assert abs(tight - magnitude_sum_ratio_bound(math.pi / 2)) <= 1e-12


class TestCriterion05:
    def test_lp_sandwich(self, guarantee_sweep):
        with criterion(5, "LP bound <= branch sum and >= alignment-scaled optimum "
                          f"on all {guarantee_sweep.instances} instances; greedy <= LP "
                          "asserted on the zero-spread corpus (not a theorem at "
                          "theta > 0, counterexample pinned in test_oracle)"):
            assert guarantee_sweep.sandwich_upper_violations == 0
            assert guarantee_sweep.sandwich_lower_violations == 0
            assert guarantee_sweep.lp_dominance_violations_theta0 == 0
        # transparency: vector cancellation lets the greedy beat the LP at
        # theta > 0; these are expected and documented, not defects
        print(f"    note: greedy exceeded the LP bound on "
              f"{guarantee_sweep.lp_dominance_violations_full} full-power instances")


class TestCriterion06:
    def test_zero_phase_matches_integer_knapsack_dp(self):
        rng = np.random.default_rng(0x6A)
        with criterion(6, "zero reactive power reduces to 0-1 knapsack: oracle "
                          "matches an independent DP on 200 instances exactly"):
            for _ in range(200):
                n = int(rng.integers(4, 19))
                weights = [int(w) for w in rng.integers(1, 30, n)]
                values = [float(v) for v in rng.integers(1, 100, n)]
                capacity = max(max(weights), int(sum(weights) * 0.5))
                rows = [(k, float(weights[k]), 0.0, values[k]) for k in range(n)]
                inst = build_instance(rows, float(capacity))
                assert brute_force_vmax(inst).objective == knapsack_dp(
                    weights, values, capacity
                )


class TestCriterion07:
    def test_cmin_consistency(self):
        rng = np.random.default_rng(0x7C)
        # equality of the duet with its branches, on every instance
        for i in range(300):
            inst = fuzz_instance(i % len(ACRONYMS), i, 2, 14, salt=0xC341)
            assert cmin_gda(inst).objective == min(
                cmin_gva(inst).objective, cmin_gra(inst).objective
            )
        # with compensation == valuation (integers) and a unique optimum the
        # two oracles mirror each other and the books balance exactly
        checked = 0
        attempts = 0
        while checked < 30 and attempts < 300:
            attempts += 1
            n = int(rng.integers(3, 11))
            values = rng.integers(1, 60, n)
            mags = rng.uniform(0.5, 4.0, n)
            rows = [(k, float(mags[k]), 0.0, float(values[k])) for k in range(n)]
            inst = build_instance(rows, max(float(mags.max()), float(mags.sum()) * 0.5))
            _, winners = reference_best_vmax(inst)
            if len(winners) > 1:
                continue
            vmax = brute_force_vmax(inst)
            cmin = brute_force_cmin(inst)
            assert cmin.retained_ids == vmax.retained_ids
            assert vmax.objective + cmin.objective == float(values.sum())
            checked += 1
        with criterion(7, "compensation duet equals min of branches everywhere; "
                          f"oracle duality exact on {checked} unique-optimum "
                          "instances"):
            assert checked >= 30


class TestCriterion08:
    def test_scalability_gates(self):
        inst_big = generate(spec_from_acronym("FCM", 100_000, 2e6, seed=88))
        t0 = time.perf_counter()
        sol = gda(inst_big)
        big_elapsed = time.perf_counter() - t0

        inst_mid = generate(spec_from_acronym("FCM", 1_400, 2e6, seed=89))
        inst_mid.columns
        runs = sorted(gda(inst_mid).elapsed for _ in range(30))
        median = runs[15]
        with criterion(8, f"greedy pair at n=1e5 in {big_elapsed*1e3:.0f}ms (<1s) "
                          f"and n=1400 median {median*1e6:.0f}us (<10ms)"):
            assert big_elapsed < 1.0
            assert median < 0.010
            assert sol.objective > 0


class TestCriterion09:
    def test_benchmark_csv_determinism(self, tmp_path):
        plan = TrialPlan(
            scenario=spec_from_acronym("ACR", 0, 25_000.0, seed=2024),
            n_values=(8, 12),
            trials_per_n=30,
            algorithms=("gda", "gra"),
            objective="vmax",
            oracle="brute_force",
        )
        blobs = []
        for i in range(2):
            path = tmp_path / f"r{i}.csv"
            emit_csv(run_benchmark(plan), str(path))
            blobs.append(path.read_bytes())
        plan_path, path = tmp_path / "plan.json", tmp_path / "r2.csv"
        plan_path.write_text(json.dumps({
            "scenario": {"acronym": "ACR", "capacity": 25_000.0, "seed": 2024},
            "n_values": [8, 12],
            "algorithms": ["gda", "gra"],
        }))
        assert cli.dispatch(
            ["bench", "--plan", str(plan_path), "-o", str(path), "--threads", "6"]
        ) == 0
        blobs.append(path.read_bytes())
        with criterion(9, "benchmark CSV byte-identical across reruns and across "
                          "1 vs 6 worker threads"):
            assert blobs[0] == blobs[1]
            assert blobs[0] == blobs[2]


class TestCriterion10:
    def test_dynamic_capacity_defaults(self):
        spec = spec_from_acronym("FCM", 16, 2e6, seed=2)
        trace = run_dynamic_capacity(spec, seed=7)
        events = len(trace) - 1
        expected = 0.005 * 10_000
        budget = OracleBudget(max_n=18)
        base = generate(spec_from_acronym("FCM", 16, 2e6, seed=2))
        worst = 1.0
        for point in trace:
            assert 100_000.0 <= point.capacity <= 2_000_000.0
            reduced = restrict_to_capacity(base, point.capacity)
            opt = brute_force_vmax(reduced, budget).objective
            assert point.objective >= GDA_FLOOR * opt - 1e-9
            if opt > 0:
                worst = min(worst, point.objective / opt)
        with criterion(10, f"dynamic capacity: {events} events (Poisson mean 50 "
                           f"+-4 sigma), capacity within [100KVA, 2MVA], per-event "
                           f"ratio >= 0.4755 (worst {worst:.3f})"):
            assert abs(events - expected) <= 4 * math.sqrt(expected)
