"""Greedy solver family: worked adversarial instances, invariants, guarantees."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curtail import (
    Customer,
    GsaConfig,
    Instance,
    UnknownCustomerError,
    alignment_factor,
    brute_force_cmin,
    brute_force_vmax,
    cmin_gda,
    cmin_gma,
    cmin_gra,
    cmin_gva,
    gda,
    gda_forced,
    gma,
    gra,
    gsa,
    gva,
    is_feasible,
    lp_upper_bound,
    max_phase_spread,
    retained_valuation,
)
from conftest import build_instance, random_instance, reference_best_vmax


class TestGva:
    def test_valuation_trap_retains_only_the_big_payer(self, valuation_trap):
        sol = gva(valuation_trap)
        assert sol.retained_ids == {1}
        assert sol.objective == 10.0

    def test_empty_instance(self):
        sol = gva(Instance([], 10.0))
        assert sol.objective == 0.0
        assert sol.retained_ids == frozenset()

    def test_single_customer_always_retained(self):
        sol = gva(build_instance([(7, 3.0, 4.0, 2.5)], 5.0))
        assert sol.retained_ids == {7}
        assert sol.objective == 2.5


class TestGma:
    def test_magnitude_trap_picks_the_tiny_load(self, magnitude_trap):
        sol = gma(magnitude_trap)
        assert sol.retained_ids == {1}
        assert sol.objective == 1.0

    def test_equal_magnitudes_tie_break_by_id(self):
        rows = [(k, 2.0, 0.0, float(k)) for k in (5, 3, 9, 1)]
        sol = gma(build_instance(rows, 4.0))
        assert sol.retained_ids == {1, 3}

    def test_valuation_trap_finds_the_optimum(self, valuation_trap):
        sol = gma(valuation_trap)
        assert sol.retained_ids == {2, 3, 4, 5}
        assert sol.objective == 36.0


class TestGra:
    def test_valuation_trap_efficiency_order_wins(self, valuation_trap):
        # efficiencies: 1 vs 4.5, so the four small loads go first
        sol = gra(valuation_trap)
        assert sol.retained_ids == {2, 3, 4, 5}
        assert sol.objective == 36.0

    def test_magnitude_trap_tied_efficiency_id_order(self, magnitude_trap):
        # both efficiencies are 1; id order scans customer 1 first
        sol = gra(magnitude_trap)
        assert sol.retained_ids == {1}
        assert sol.objective == 1.0

    def test_uniform_efficiency_all_fit(self):
        rows = [(k, 1.0, 0.0, 1.0) for k in range(5)]
        sol = gra(build_instance(rows, 5.0))
        assert sol.retained_ids == {0, 1, 2, 3, 4}

    def test_zero_magnitude_customers_rank_first(self):
        rows = [(0, 5.0, 0.0, 100.0), (1, 0.0, 0.0, 0.5), (2, 4.0, 0.0, 10.0)]
        sol = gra(build_instance(rows, 5.0))
        # the free customer is always in, then efficiency 20 beats 2.5
        assert 1 in sol.retained_ids
        assert sol.retained_ids == {0, 1}


class TestGda:
    def test_magnitude_trap(self, magnitude_trap):
        assert gda(magnitude_trap).objective == 100.0

    def test_valuation_trap(self, valuation_trap):
        assert gda(valuation_trap).objective == 36.0

    def test_everything_fits(self):
        rows = [(k, 1.0, 0.5, float(k + 1)) for k in range(4)]
        inst = build_instance(rows, 100.0)
        sol = gda(inst)
        assert sol.retained_ids == {0, 1, 2, 3}
        assert sol.objective == retained_valuation(inst, inst.ids)

    def test_equals_best_branch_and_tag(self, valuation_trap):
        sol = gda(valuation_trap)
        assert sol.objective == max(
            gra(valuation_trap).objective, gva(valuation_trap).objective
        )
        assert sol.algorithm == "gda"

    def test_tie_returns_ratio_branch_set(self):
        # both branches reach objective 2 via different sets
        rows = [(0, 2.0, 0.0, 2.0), (1, 1.0, 0.0, 1.0), (2, 1.0, 0.0, 1.0)]
        sol = gda(build_instance(rows, 2.0))
        assert sol.objective == 2.0
        assert sol.retained_ids == gra(build_instance(rows, 2.0)).retained_ids

    def test_random_tie_break_draws_efficiency_order_first(self):
        # gda draws the efficiency order's permutation, then the valuation
        # order's, and keeps the efficiency set on equal objectives
        rng = np.random.default_rng(8)
        for seed in range(40):
            n = int(rng.integers(1, 12))
            rows = [
                (k, float(rng.integers(1, 4)), float(rng.integers(0, 2)), float(rng.integers(1, 4)))
                for k in range(n)
            ]
            inst = build_instance(rows, max(4.0, float(rng.integers(2, 12))))
            draws = np.random.default_rng(seed)
            ratio = gra(inst, tie_break_rng=draws)
            value = gva(inst, tie_break_rng=draws)
            want = ratio if ratio.objective >= value.objective else value
            got = gda(inst, tie_break_rng=np.random.default_rng(seed))
            assert got.retained_ids == want.retained_ids
            assert got.objective == want.objective
            assert got.aggregate_demand == want.aggregate_demand

    def test_objective_at_least_max_single_valuation(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            inst = random_instance(rng, int(rng.integers(1, 12)))
            u_max = max(c.valuation for c in inst.customers)
            assert gda(inst).objective >= u_max - 1e-12


class TestGdaForced:
    def test_empty_forcing_matches_plain_gda(self, valuation_trap):
        plain = gda(valuation_trap)
        forced = gda_forced(valuation_trap, frozenset(), valuation_trap.ids)
        assert forced.retained_ids == plain.retained_ids
        assert forced.objective == plain.objective

    def test_equal_branches_resolve_to_the_efficiency_scan(self):
        # equal valuations: the valuation scan takes {0, 1} by id, the
        # efficiency scan {1, 2}; both are worth 6, and like gda the
        # efficiency branch must win the tie
        rows = [(0, 6.0, 0.0, 3.0), (1, 4.0, 0.0, 3.0), (2, 5.0, 0.0, 3.0)]
        inst = build_instance(rows, 10.0)
        assert gva(inst).retained_ids == {0, 1}
        assert gda(inst).retained_ids == {1, 2}
        assert gda_forced(inst, (), inst.ids).retained_ids == {1, 2}

    def test_forced_set_saturating_capacity(self):
        rows = [(0, 10.0, 0.0, 1.0), (1, 3.0, 0.0, 5.0), (2, 2.0, 0.0, 5.0)]
        inst = build_instance(rows, 10.0)
        sol = gda_forced(inst, {0}, {1, 2})
        assert sol.retained_ids == {0}

    def test_objective_includes_forced_valuations(self):
        rows = [(0, 8.0, 0.0, 3.0), (1, 1.0, 0.0, 10.0), (2, 1.0, 0.0, 1.0)]
        inst = build_instance(rows, 10.0)
        sol = gda_forced(inst, {0}, {2})
        assert sol.retained_ids >= {0}
        assert sol.objective >= 3.0

    def test_overlap_rejected(self, valuation_trap):
        with pytest.raises(ValueError, match="overlap"):
            gda_forced(valuation_trap, {1}, {1, 2})

    def test_infeasible_forced_rejected(self, valuation_trap):
        with pytest.raises(ValueError, match="infeasible"):
            gda_forced(valuation_trap, {1, 2}, {3})

    def test_unknown_ids_rejected(self, valuation_trap):
        with pytest.raises(UnknownCustomerError):
            gda_forced(valuation_trap, {99}, {1})

    def test_fuzzed_forcing_keeps_feasibility_and_superset(self):
        rng = np.random.default_rng(113)
        for _ in range(60):
            inst = random_instance(rng, int(rng.integers(2, 12)))
            ids = sorted(inst.ids)
            # grow a random feasible forced set one customer at a time
            forced = set()
            for cid in rng.permutation(ids)[: rng.integers(0, len(ids))]:
                if is_feasible(inst, forced | {int(cid)}):
                    forced.add(int(cid))
            pool = set(ids) - forced
            sol = gda_forced(inst, forced, pool)
            assert forced <= sol.retained_ids
            assert is_feasible(inst, sol.retained_ids)
            assert sol.objective == retained_valuation(inst, sol.retained_ids)
            assert sol.objective >= retained_valuation(inst, forced)


class TestInvariants:
    def test_all_solvers_return_feasible_solutions(self):
        rng = np.random.default_rng(17)
        for _ in range(80):
            inst = random_instance(rng, int(rng.integers(1, 14)))
            for solver in (gva, gma, gra, gda):
                sol = solver(inst)
                assert is_feasible(inst, sol.retained_ids)
                # objective reproducible from the retained set
                assert sol.objective == retained_valuation(inst, sol.retained_ids)

    def test_guarantee_against_oracle(self):
        # worst case is half the alignment factor of the phase spread
        rng = np.random.default_rng(23)
        for _ in range(60):
            inst = random_instance(rng, int(rng.integers(2, 19)))
            opt = brute_force_vmax(inst).objective
            theta = max_phase_spread(inst)
            bound = 0.5 * alignment_factor(theta)
            assert gda(inst).objective >= bound * opt - 1e-9

    def test_branch_sum_upper_bounds_scaled_optimum(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            inst = random_instance(rng, int(rng.integers(2, 19)))
            opt = brute_force_vmax(inst).objective
            theta = max_phase_spread(inst)
            total = gra(inst).objective + gva(inst).objective
            assert total >= alignment_factor(theta) * opt - 1e-9 * max(1.0, opt)

    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_valuation_scaling_leaves_retained_sets_unchanged(self, lam, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, 8)
        scaled = Instance(
            [
                Customer(c.id, c.demand, c.valuation * lam, c.compensation)
                for c in inst.customers
            ],
            inst.capacity,
        )
        for solver in (gva, gma, gra, gda):
            assert solver(inst).retained_ids == solver(scaled).retained_ids

    def test_gma_prefix_property_parallel_demands(self):
        # parallel demands in ascending-magnitude order: once one load does
        # not fit, no later one does, so the retained set is a prefix of the
        # scan order and grows monotonically with capacity
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            rows = [
                (k, float(rng.uniform(0.5, 4.0)), 0.0, float(rng.uniform(0.1, 10)))
                for k in range(n)
            ]
            total = sum(r[1] for r in rows)
            lo = max(max(r[1] for r in rows), total * 0.3)
            hi = lo * 1.5
            small = gma(build_instance(rows, lo)).retained_ids
            large = gma(build_instance(rows, hi)).retained_ids
            assert small <= large

    def test_gva_gra_prefix_property_uniform_magnitudes(self):
        # with equal parallel magnitudes every scan takes a prefix of its
        # order, so larger capacity only extends the retained set
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            rows = [(k, 2.0, 0.0, float(rng.uniform(0.1, 10))) for k in range(n)]
            lo = 2.0 * float(rng.integers(1, n + 1))
            hi = lo + 2.0 * float(rng.integers(0, n))
            for solver in (gva, gra):
                small = solver(build_instance(rows, lo)).retained_ids
                large = solver(build_instance(rows, hi)).retained_ids
                assert small <= large

    def test_prefix_property_fails_for_gva_with_mixed_magnitudes(self):
        # capacity growth can reroute a valuation-ordered scan; retained sets
        # are not nested in general, so no such invariant is asserted for it
        rows = [(0, 5.0, 0.0, 3.0), (1, 4.0, 0.0, 2.0), (2, 3.0, 0.0, 1.0)]
        small = gva(build_instance(rows, 8.0)).retained_ids
        large = gva(build_instance(rows, 9.0)).retained_ids
        assert small == {0, 2} and large == {0, 1}

    def test_random_tie_break_mode_is_seeded(self, magnitude_trap):
        a = gra(magnitude_trap, tie_break_rng=np.random.default_rng(1))
        b = gra(magnitude_trap, tie_break_rng=np.random.default_rng(1))
        assert a.retained_ids == b.retained_ids

    def test_matches_reference_on_generous_capacity(self):
        # when everything fits, every solver returns the whole set
        rows = [(k, 1.0, 1.0, float(k)) for k in range(6)]
        inst = build_instance(rows, 100.0)
        best, _ = reference_best_vmax(inst)
        for solver in (gva, gma, gra, gda):
            assert solver(inst).objective == pytest.approx(best)


class TestSubnormalDemand:
    """A subnormal demand overflows its per-VA ratio to inf; that must rank it
    like a zero-magnitude demand without a float warning."""

    @pytest.fixture
    def subnormal(self):
        return build_instance([(0, 1e-320, 0.0, 1.0), (1, 3.0, 4.0, 2.0)], 6.0)

    @pytest.mark.parametrize("solver", [
        gva, gma, gra, gda, lambda inst: gsa(inst, GsaConfig(0.25)), brute_force_vmax,
        cmin_gva, cmin_gma, cmin_gra, cmin_gda, brute_force_cmin,
    ], ids=["gva", "gma", "gra", "gda", "gsa", "oracle", "cmin_gva", "cmin_gma", "cmin_gra",
            "cmin_gda", "cmin_oracle"])
    def test_solvers_keep_both_without_warning(self, subnormal, solver):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solver(subnormal)
        assert sol.retained_ids == {0, 1}

    def test_lp_bound_without_warning(self, subnormal):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lp_upper_bound(subnormal) == 3.0
