"""Exhaustive oracles and the LP relaxation bound."""

import importlib
import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curtail import (
    Instance,
    OracleBudget,
    OracleBudgetError,
    alignment_factor,
    brute_force_cmin,
    brute_force_vmax,
    curtailed_compensation,
    gda,
    gma,
    gra,
    generate,
    gva,
    is_feasible,
    lp_upper_bound,
    max_phase_spread,
    restrict_to_capacity,
    retained_valuation,
    spec_from_acronym,
)
from conftest import (
    build_instance,
    knapsack_dp,
    random_instance,
    reference_best_feasible_mask,
    reference_best_vmax,
)
from curtail.oracle import subset_sums

oracle_module = importlib.import_module("curtail.oracle")


class TestBruteForceVmax:
    def test_magnitude_trap(self, magnitude_trap):
        sol = brute_force_vmax(magnitude_trap)
        assert sol.objective == 100.0
        assert sol.retained_ids == {2}

    def test_valuation_trap(self, valuation_trap):
        sol = brute_force_vmax(valuation_trap)
        assert sol.objective == 36.0
        assert sol.retained_ids == {2, 3, 4, 5}

    def test_empty_instance(self):
        sol = brute_force_vmax(build_instance([], 5.0))
        assert sol.objective == 0.0
        assert sol.retained_ids == frozenset()

    def test_budget_refusal(self, magnitude_trap):
        with pytest.raises(OracleBudgetError):
            brute_force_vmax(magnitude_trap, OracleBudget(max_n=1))

    def test_budget_above_the_default_enumerates(self):
        # n = 21 needs 2^21 subsets: max_n is the only limit on that
        rows = [(k, 1.0, 0.0, float(k + 1)) for k in range(21)]
        sol = brute_force_vmax(build_instance(rows, 10.0), OracleBudget(max_n=21))
        assert sol.retained_ids == frozenset(range(11, 21))
        assert sol.objective == float(sum(range(12, 22)))

    def test_budget_caps_validated(self):
        with pytest.raises(ValueError):
            OracleBudget(max_n=31)

    def test_lexicographic_tie_break(self):
        # two disjoint singletons of equal value: the smaller id set wins
        rows = [(3, 2.0, 0.0, 5.0), (1, 2.0, 0.0, 5.0)]
        sol = brute_force_vmax(build_instance(rows, 2.0))
        assert sol.retained_ids == {1}

    def test_matches_itertools_reference(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            inst = random_instance(rng, int(rng.integers(1, 11)))
            sol = brute_force_vmax(inst)
            best, winners = reference_best_vmax(inst)
            assert sol.objective == pytest.approx(best, rel=1e-12)
            assert tuple(sorted(sol.retained_ids)) in [tuple(sorted(w)) for w in winners]

    def test_dominates_every_heuristic(self):
        rng = np.random.default_rng(43)
        for _ in range(80):
            inst = random_instance(rng, int(rng.integers(1, 19)))
            opt = brute_force_vmax(inst).objective
            for solver in (gva, gma, gra, gda):
                assert solver(inst).objective <= opt + 1e-9 * max(1.0, opt)

    def test_reduces_to_integer_knapsack_when_phases_are_zero(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            weights = [int(w) for w in rng.integers(1, 30, n)]
            values = [float(v) for v in rng.integers(1, 100, n)]
            capacity = max(max(weights), int(sum(weights) * 0.5))
            rows = [(k, float(weights[k]), 0.0, values[k]) for k in range(n)]
            inst = build_instance(rows, float(capacity))
            assert brute_force_vmax(inst).objective == knapsack_dp(weights, values, capacity)


@st.composite
def _oracle_cases(draw):
    """Rows (id, p, q, valuation, compensation) and a capacity that binds."""
    n = draw(st.integers(0, 10))
    amount = st.one_of(st.integers(0, 5).map(float), st.floats(0.0, 10.0))
    ids = draw(st.permutations(range(2 * n)))[:n]  # unordered, non-contiguous ids
    rows = [(ids[k], draw(amount), draw(amount), draw(amount), draw(amount)) for k in range(n)]
    mags = [math.hypot(p, q) for _, p, q, _, _ in rows]
    fraction = draw(st.floats(0.1, 0.9))
    return rows, max([1e-3, fraction * sum(mags), *mags])


class TestAgainstItertoolsReference:
    @given(case=_oracle_cases())
    @settings(max_examples=200, deadline=None)
    def test_vmax_is_a_reference_optimum(self, case):
        rows, capacity = case
        inst = build_instance(rows, capacity)
        sol = brute_force_vmax(inst)
        best, winners = reference_best_vmax(inst)
        # the reference counts values within 1e-12 * max(1, best) as ties
        assert abs(sol.objective - best) <= 1e-12 * max(1.0, best)
        assert tuple(sorted(sol.retained_ids)) in [tuple(sorted(w)) for w in winners]
        assert sol.objective == retained_valuation(inst, sol.retained_ids)

    @given(case=_oracle_cases())
    @settings(max_examples=200, deadline=None)
    def test_cmin_keeps_a_reference_optimum_of_compensation(self, case):
        # the reference maximises retained "valuation"; give it the compensations
        rows, capacity = case
        inst = build_instance(rows, capacity)
        mirror = build_instance([(i, p, q, c, c) for i, p, q, _, c in rows], capacity)
        sol = brute_force_cmin(inst)
        _, winners = reference_best_vmax(mirror)
        assert tuple(sorted(sol.retained_ids)) in [tuple(sorted(w)) for w in winners]
        assert sol.objective == curtailed_compensation(inst, sol.retained_ids)


_HUGE_DEMANDS = st.sampled_from([0.0, 1e153, 3e153, 6e153])
_HUGE_WEIGHTS = st.sampled_from([0.0, 1e307, 8e307, 1.7976931348623157e308])


@st.composite
def _mask_search_cases(draw, max_n=13, n=None):
    """An instance, its weights, a slack and a full-table size for the mask search.

    The value kinds give ties (small integers), zero demands, all-zero
    weights, and sums whose squares or weights overflow.  The capacity is
    either the exact magnitude of a drawn subset's sums or a fraction of the
    total, and the table size falls on both sides of n.  ``n`` fixes the
    customer count, which is otherwise drawn up to ``max_n``.
    """
    if n is None:
        n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["floats", "integers", "zero weights", "near overflow"]))
    if kind == "near overflow":
        demand, weight = _HUGE_DEMANDS, _HUGE_WEIGHTS
    else:
        demand = st.one_of(st.just(0.0), st.integers(0, 5).map(float), st.floats(0.0, 10.0))
        weight = st.integers(0, 3).map(float) if kind == "integers" else st.floats(0.0, 100.0)
        if kind == "integers":
            demand = st.integers(0, 4).map(float)
        if kind == "zero weights":
            weight = st.just(0.0)
    ids = draw(st.permutations(range(2 * n)))[:n]
    p, q, w = ([draw(values) for _ in range(n)] for values in (demand, demand, weight))
    if draw(st.booleans()):
        chosen = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        sum_p = sum_q = 0.0
        for k in range(n):
            if chosen[k]:
                sum_p += p[k]
                sum_q += q[k]
        capacity = math.hypot(sum_p, sum_q)
    else:
        capacity = draw(st.floats(0.1, 0.9)) * sum(map(math.hypot, p, q))
    capacity = min(max([1e-3, capacity, *map(math.hypot, p, q)]), 1.3e154)
    rows = [(ids[k], p[k], q[k], w[k]) for k in range(n)]
    rel_tol = draw(st.sampled_from([0.0, 1e-9]))
    return build_instance(rows, capacity), np.array(w, dtype=np.float64), rel_tol, draw(
        st.integers(0, 14)
    )


def best_feasible_masks(instances, weights: np.ndarray, rel_tol: float) -> np.ndarray:
    """``oracle._best_feasible_masks`` with the greedy seeds ``_brute_force_batch`` hands it."""
    seeds = oracle_module._greedy_seeds(instances, weights, rel_tol)
    return oracle_module._best_feasible_masks(instances, weights, rel_tol, seeds)


class TestMaskSearch:
    @given(case=_mask_search_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_full_table(self, case):
        inst, weights, rel_tol, table_bits = case
        expected = reference_best_feasible_mask(inst, weights, rel_tol)
        with mock.patch.object(oracle_module, "_TABLE_BITS", table_bits):
            got = best_feasible_masks([inst], weights[None, :], rel_tol)[0]
        assert got.dtype == bool
        assert np.array_equal(got, expected)

    def test_bound_margin_keeps_a_tie_made_by_rounding(self):
        # {0, 2, 3} adds up to 1 + 2u by rounding up twice and ties {1}, but
        # its prefix {0} plus the rest adds up to only 1 + u: without the
        # margin, {0} would be dropped once {1} is the incumbent
        u = 2.0**-52
        weights = np.array([1.0, 1.0 + 2 * u, 0.6 * u, 0.6 * u])
        rows = [(k, p, 0.0, w) for k, (p, w) in enumerate(zip((0.5, 0.875, 0.25, 0.25), weights))]
        inst = build_instance(rows, 1.0)
        expected = [True, False, True, True]
        assert reference_best_feasible_mask(inst, weights, 1e-9).tolist() == expected
        with mock.patch.object(oracle_module, "_TABLE_BITS", 0):
            got = best_feasible_masks([inst], weights[None, :], 1e-9)
        assert got[0].tolist() == expected

    def test_fcr_26_stays_under_100_mib(self):
        # full p, q and weight tables over 2^26 masks would take about 1.6 GiB
        base = generate(spec_from_acronym("FCR", 26, 1e12, 0))
        inst = restrict_to_capacity(base, 0.4 * float(base.columns.mag.sum()))
        assert len(inst) == 26
        tracemalloc.start()
        try:
            sol = brute_force_vmax(inst, OracleBudget(max_n=26))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        assert is_feasible(inst, sol.retained_ids)
        assert sol.objective >= gda(inst).objective


@st.composite
def _mask_search_batches(draw):
    """One to five ``_mask_search_cases`` of one size, a slack and a table size."""
    n = draw(st.integers(0, 13))
    cases = draw(st.lists(_mask_search_cases(n=n), min_size=1, max_size=5))
    return cases, draw(st.sampled_from([0.0, 1e-9])), draw(st.integers(0, 14))


class TestBatchedMaskSearch:
    @given(batch=_mask_search_batches())
    @settings(max_examples=200, deadline=None)
    def test_each_instance_gets_its_full_table_answer(self, batch):
        cases, rel_tol, table_bits = batch
        instances = [inst for inst, *_ in cases]
        weights = np.array([w for _, w, *_ in cases]).reshape(len(cases), -1)
        with mock.patch.object(oracle_module, "_TABLE_BITS", table_bits):
            got = best_feasible_masks(instances, weights, rel_tol)
        assert got.dtype == bool and got.shape == weights.shape
        for inst, w, row in zip(instances, weights, got):
            assert np.array_equal(row, reference_best_feasible_mask(inst, w, rel_tol))

    def test_a_greedy_set_that_misfits_in_storage_order_is_no_seed(self):
        # both greedy scans take 0.3, 0.2 and 0.1 and reach exactly C = 0.6, but
        # added in storage order the three make 0.6000000000000001, which does
        # not fit at rel_tol 0: their weight 7.5 is above the optimum {1, 2}, 6.5.
        # The scans redo the order against a tightened limit and keep {1, 2}
        inst = build_instance([(0, 0.1, 0.0, 1.0), (1, 0.2, 0.0, 2.5), (2, 0.3, 0.0, 4.0)], 0.6)
        weights = inst.columns.valuation
        assert not is_feasible(inst, {0, 1, 2}, 0.0)
        assert gda(inst, 0.0).retained_ids == {1, 2}
        seeds = oracle_module._greedy_seeds([inst], weights[None, :], 0.0)
        assert seeds.tolist() == [6.5]
        expected = [False, True, True]
        assert reference_best_feasible_mask(inst, weights, 0.0).tolist() == expected
        with mock.patch.object(oracle_module, "_TABLE_BITS", 0):
            got = oracle_module._best_feasible_masks([inst], weights[None, :], 0.0, seeds)
            assert got[0].tolist() == expected
            # seeded with the misfitting set's weight, the search would prune
            # the optimum away
            got = oracle_module._best_feasible_masks([inst], weights[None, :], 0.0, np.array([7.5]))
            assert got[0].tolist() != expected

    @pytest.mark.parametrize("acronym", ["FCR", "FUM", "FLM", "ACR"])
    def test_batch_of_one_is_the_single_instance_oracle(self, acronym):
        # a batch answers each instance as the one-instance oracle does, cmin too
        instances = []
        for seed in range(6):
            base = generate(spec_from_acronym(acronym, 15, 2e6, seed))
            mag = base.columns.mag
            instances.append(restrict_to_capacity(base, max(0.4 * mag.sum(), mag.max())))
        for objective, solver in (("vmax", brute_force_vmax), ("cmin", brute_force_cmin)):
            kept, values = oracle_module._brute_force_batch(
                instances, OracleBudget(), 1e-9, objective
            )
            for inst, row, value in zip(instances, kept, values):
                sol = solver(inst)
                assert sol.objective == value
                assert sol.retained_ids == set(inst.columns.id[row].tolist())


class TestSuffixBounds:
    """``_suffix_bounds`` against every fitting extension, by brute force."""

    @given(case=_mask_search_cases(max_n=12))
    @settings(max_examples=200, deadline=None)
    def test_bound_covers_every_fitting_extension(self, case):
        # an entry is a fitting selection S of the positions below k; every
        # fitting selection whose positions below k are S must weigh at most
        # S's bound.  Weights, sizes and room are added as the table adds them.
        inst, weights, rel_tol, _ = case
        n = len(inst)
        cols = inst.columns
        limit_sq = inst.capacity_limit_sq(rel_tol)
        p, q, w, ids = (a[None, :] for a in (cols.p, cols.q, weights, cols.id))
        margin = oracle_module._rounding_margin(n)
        masks = np.arange(1 << n)
        with np.errstate(over="ignore"):  # sums past the float range are inf
            s, rate, order = oracle_module._projection(p, q, w, ids)
            tables = oracle_module._suffix_tables(s, w, rate, order)
            bits = 2.0 ** np.arange(n)
            entries = subset_sums(np.stack((cols.p, cols.q, weights, bits, -s[0])))
            entries[4] += math.sqrt(limit_sq) * (1.0 + margin)
            fits = entries[0] * entries[0] + entries[1] * entries[1] <= limit_sq
            for k in range(n + 1):
                prefix = masks & ((1 << k) - 1)
                heaviest = np.full(1 << n, -np.inf)
                np.maximum.at(heaviest, prefix[fits], entries[2, fits])
                chosen = np.flatnonzero(fits & (masks == prefix))
                bounds = oracle_module._suffix_bounds(
                    entries[:, chosen], np.zeros(len(chosen), dtype=np.intp), k, tables, margin
                )
                assert np.all(bounds >= heaviest[chosen]), k

    def test_walk_takes_free_customers_then_the_best_rates(self):
        # from position 1 on: the zero-demand customer 3 rides free (weight 1),
        # customer 2 (rate 2) goes whole into the room of 3 and customer 1
        # (rate 3/2) fills the last 1 VA: 0 + 1 + 6 + 1.5
        rows = [(0, 1.0, 0.0, 9.0), (1, 2.0, 0.0, 3.0), (2, 3.0, 0.0, 6.0), (3, 0.0, 0.0, 1.0)]
        inst = build_instance(rows, 4.0)
        cols = inst.columns
        p, q, w, ids = (a[None, :] for a in (cols.p, cols.q, cols.valuation, cols.id))
        s, rate, order = oracle_module._projection(p, q, w, ids)
        tables = oracle_module._suffix_tables(s, w, rate, order)
        entry = np.array([[0.0], [0.0], [0.0], [0.0], [4.0]])
        bound = oracle_module._suffix_bounds(entry, np.zeros(1, dtype=np.intp), 1, tables, 0.0)
        assert bound.tolist() == [8.5]


def projected_bounds(
    instances: list[Instance], seeds: np.ndarray, trial: np.ndarray, rel_tol: float
) -> np.ndarray:
    """``oracle._projected_bounds`` over instances of one size, stacked as it takes them."""
    columns = (np.array([getattr(inst.columns, name) for inst in instances])
               for name in ("p", "q", "valuation", "id"))
    limit_sq = np.array([inst.capacity_limit_sq(rel_tol) for inst in instances])
    return oracle_module._projected_bounds(*columns, limit_sq, seeds, trial)


class TestProjectedBounds:
    """``_projected_bounds`` against every completion, by brute force."""

    @given(batch=_mask_search_batches(), size=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_bound_covers_every_fitting_completion(self, batch, size):
        # the instances' valuations are the drawn weights; every size-``size``
        # seed S of every instance is bounded in one call, and checked against
        # every T in its pool whose S ∪ T fits
        cases, rel_tol, _ = batch
        instances = [inst for inst, *_ in cases]
        n = len(instances[0])
        combos = np.array(list(combinations(range(n), min(size, n))), dtype=np.int64)
        combos = combos.reshape(len(combos), min(size, n))
        seeds = np.concatenate([combos] * len(instances))
        trial = np.repeat(np.arange(len(instances)), len(combos))
        bounds = projected_bounds(instances, seeds, trial, rel_tol)
        assert bounds.shape == (len(seeds),)
        masks = np.arange(1 << n)
        for t, inst in enumerate(instances):
            cols = inst.columns
            with np.errstate(over="ignore"):
                # storage-order sums of every selection, as the solvers add them
                p, q, worth = subset_sums(np.stack((cols.p, cols.q, cols.valuation)))
                fits = p * p + q * q <= inst.capacity_limit_sq(rel_tol)
            for seed, bound in zip(combos.tolist(), bounds[trial == t].tolist()):
                seed_mask = sum(1 << k for k in seed)
                floor = min((cols.valuation[k] for k in seed), default=math.inf)
                pool_mask = sum(1 << k for k in range(n) if cols.valuation[k] <= floor) & ~seed_mask
                inside = masks & ~(seed_mask | pool_mask) == 0
                valid = fits & (masks & seed_mask == seed_mask) & inside
                assert bound >= worth[valid].max(initial=-math.inf), (t, seed, bound)

    def test_walk_takes_zero_sizes_then_the_best_rates(self):
        # the two zero-demand customers ride free; the walk then takes the
        # rate-3 customer whole and 1 VA of the rate-2 one: 5 + 1 + 6 + 2.
        # Seeded with that rate-3 customer, it is out of the pool, and its
        # 2 VA leave 1 VA for the rate-2 one: 6 + (5 + 1) + 2.
        rows = [(0, 0.0, 0.0, 5.0), (1, 2.0, 0.0, 6.0), (2, 3.0, 0.0, 6.0), (3, 0.0, 0.0, 1.0)]
        inst = build_instance(rows, 3.0)
        for seeds in (np.zeros((1, 0), dtype=np.int64), np.array([[1]])):
            bound = projected_bounds([inst], seeds, np.zeros(1, dtype=np.intp), 0.0)
            assert 14.0 <= bound[0] <= 14.0 * (1 + 1e-12)


class TestBruteForceCmin:
    def test_everything_fits_nothing_curtailed(self):
        rows = [(k, 1.0, 0.0, 1.0, 2.0) for k in range(4)]
        sol = brute_force_cmin(build_instance(rows, 10.0))
        assert sol.objective == 0.0
        assert sol.retained_ids == {0, 1, 2, 3}

    def test_magnitude_trap_with_equal_compensation(self, magnitude_trap):
        sol = brute_force_cmin(magnitude_trap)
        assert sol.objective == 1.0
        assert sol.retained_ids == {2}

    def test_complements_vmax_when_values_coincide(self):
        # u == c and integer values keep the bookkeeping exact
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(2, 11))
            values = rng.integers(1, 50, n)
            mags = rng.uniform(0.5, 4.0, n)
            rows = [(k, float(mags[k]), 0.0, float(values[k])) for k in range(n)]
            inst = build_instance(rows, max(float(mags.max()), float(mags.sum()) * 0.5))
            best, winners = reference_best_vmax(inst)
            if len(winners) > 1:
                continue  # only unique optima pin the retained set
            vmax = brute_force_vmax(inst)
            cmin = brute_force_cmin(inst)
            assert cmin.retained_ids == vmax.retained_ids
            total = sum(float(v) for v in values)
            assert vmax.objective + cmin.objective == total
            checked += 1
        assert checked >= 20

    def test_budget_refusal(self):
        rows = [(k, 1.0, 0.0, 1.0) for k in range(5)]
        with pytest.raises(OracleBudgetError):
            brute_force_cmin(build_instance(rows, 10.0), OracleBudget(max_n=4))


class TestLpUpperBound:
    def test_all_fit_returns_total_valuation(self):
        rows = [(k, 1.0, 0.0, float(k + 1)) for k in range(4)]
        inst = build_instance(rows, 100.0)
        assert lp_upper_bound(inst) == retained_valuation(inst, inst.ids)

    def test_single_customer(self):
        inst = build_instance([(0, 3.0, 4.0, 7.5)], 10.0)
        assert lp_upper_bound(inst) == 7.5

    def test_valuation_trap_fractional_topoff(self, valuation_trap):
        # four magnitude-2 loads fill 8 of 10; 2/10 of the big load tops off
        assert lp_upper_bound(valuation_trap) == pytest.approx(38.0)

    def test_sandwich_against_branches_and_optimum(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            inst = random_instance(rng, int(rng.integers(2, 13)))
            lp = lp_upper_bound(inst)
            opt = brute_force_vmax(inst).objective
            theta = max_phase_spread(inst)
            scale = max(1.0, opt)
            assert lp <= gra(inst).objective + gva(inst).objective + 1e-9 * scale
            assert lp >= alignment_factor(theta) * opt - 1e-9 * scale

    def test_dominates_greedy_when_phases_are_zero(self):
        # at zero phase spread the relaxation dominates any integral solution
        rng = np.random.default_rng(61)
        for _ in range(100):
            inst = random_instance(rng, int(rng.integers(2, 13)), max_theta=0.0)
            scale = max(1.0, lp_upper_bound(inst))
            assert gra(inst).objective <= lp_upper_bound(inst) + 1e-9 * scale

    def test_can_fall_below_greedy_when_phases_spread(self):
        # two unit demands 36 degrees apart fit together inside C = 2 cos 18,
        # but their magnitude sum 2 exceeds it, so the relaxation sees less
        theta = math.radians(36)
        rows = [
            (0, 1.0, 0.0, 1.0),
            (1, math.cos(theta), math.sin(theta), 1.0),
        ]
        capacity = 2 * math.cos(theta / 2)
        inst = build_instance(rows, capacity)
        assert gra(inst).objective == 2.0
        assert lp_upper_bound(inst) < 2.0
