"""Greedy solver family: worked adversarial instances, invariants, guarantees."""

import dataclasses
import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from curtail import (
    CAPACITY_REL_TOL,
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
    generate,
    gma,
    gra,
    gsa,
    gva,
    is_feasible,
    lp_upper_bound,
    max_phase_spread,
    restrict_to_capacity,
    retained_valuation,
    run_dynamic_capacity,
    spec_from_acronym,
)
from curtail import OracleBudget, bench, greedy
from curtail.model import capacity_limit_sq, storage_sum
from conftest import (
    build_instance,
    random_instance,
    reference_best_vmax,
    reference_greedy,
    reference_greedy_scan,
    reference_gsa_search,
)

# the package's ``gsa`` function shadows the module as an attribute of ``curtail``
gsa_module = importlib.import_module("curtail.gsa")
oracle_module = importlib.import_module("curtail.oracle")


class TestGva:
    def test_valuation_trap_retains_only_the_big_payer(self, valuation_trap):
        sol = gva(valuation_trap)
        assert sol.retained_ids == {1}
        assert sol.objective == 10.0

    def test_empty_instance(self):
        sol = gva(build_instance([], 10.0))
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

    def test_keeps_efficiency_set_on_equal_objectives(self):
        # small integer rows make equal keys and equal objectives common;
        # gda keeps gra's set unless gva's is worth strictly more
        rng = np.random.default_rng(8)
        split_ties = 0
        for _ in range(40):
            n = int(rng.integers(1, 12))
            rows = [
                (k, float(rng.integers(1, 4)), float(rng.integers(0, 2)), float(rng.integers(1, 4)))
                for k in range(n)
            ]
            inst = build_instance(rows, max(4.0, float(rng.integers(2, 12))))
            ratio, value = gra(inst), gva(inst)
            want = ratio if ratio.objective >= value.objective else value
            got = gda(inst)
            assert got.retained_ids == want.retained_ids
            assert got.objective == want.objective
            assert got.aggregate_demand == want.aggregate_demand
            if ratio.objective == value.objective:
                split_ties += ratio.retained_ids != value.retained_ids
        assert split_ties >= 5  # equal objectives reached by different sets

    def test_objective_at_least_max_single_valuation(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            inst = random_instance(rng, int(rng.integers(1, 12)))
            u_max = inst.columns.valuation.max()
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
        cols = inst.columns
        scaled = Instance(dataclasses.replace(cols, valuation=cols.valuation * lam), inst.capacity)
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


# Block sizes for the scan kernel: small ones put a piece boundary, a block
# boundary or a hand-over to the per-item path at almost every position.
SCAN_BLOCKS = (1, 2, 8, 64)


def assert_scan_matches_reference(index, p, q, base_p, base_q, limit_sq):
    """``_greedy_scan`` keeps what ``reference_greedy_scan`` keeps at every block
    size, and ends at the kept demands added in scan order to the base."""
    expected = reference_greedy_scan(
        zip(index.tolist(), p.tolist(), q.tolist()), base_p, base_q, limit_sq
    )
    position = {i: k for k, i in enumerate(index.tolist())}
    acc_p, acc_q = base_p, base_q
    for i in expected:
        acc_p += float(p[position[i]])
        acc_q += float(q[position[i]])
    for block in SCAN_BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(greedy, "_SCAN_BLOCK", block)
            scan = greedy._greedy_scan((index, p, q), base_p, base_q, limit_sq)
        assert scan == (expected, acc_p, acc_q)


# Demand components: integer and tenth-rounded ties, signed and subnormal zeros.
_COMPONENT = st.one_of(
    st.integers(0, 6).map(float),
    st.integers(0, 60).map(lambda k: k / 10),
    st.sampled_from([0.0, -0.0, 1e-320]),
    st.floats(0.0, 10.0),
)


# Demands of zero magnitude, or so small that their squares underflow.
_ZERO_DEMAND = st.tuples(st.sampled_from([0.0, -0.0, 1e-320]), st.sampled_from([0.0, -0.0, 1e-320]))


@st.composite
def scan_inputs(draw):
    """(index, p, q, base_p, base_q, limit_sq) for one scan.

    The base is zero or a forced set's aggregate; the limit is the squared
    aggregate of some prefix (so a fit is an equality), one ulp either side
    of it, or a fraction of the total demand.  Or the limit lies one ulp above
    the first item's aggregate with the base, and the other items follow mixed
    with up to 200 copies of a demand of at least 1 VA and up to 200 of a zero
    one: after the first reject a sift keeps only items of (near) zero
    magnitude, at most half of those it tests or more than half.
    """
    demands = draw(st.lists(st.tuples(_COMPONENT, _COMPONENT), max_size=80))
    sifted = draw(st.booleans())
    if sifted:
        large, zero = draw(st.tuples(st.floats(1.0, 10.0), _COMPONENT)), draw(_ZERO_DEMAND)
        rest = demands[1:] + [large] * draw(st.integers(0, 200)) + [zero] * draw(st.integers(0, 200))
        mix = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(rest))
        demands = demands[:1] + [rest[k] for k in mix.tolist()]
    n = len(demands)
    index = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    p = np.array([d[0] for d in demands], dtype=np.float64)
    q = np.array([d[1] for d in demands], dtype=np.float64)
    base_p = base_q = 0.0
    for a, b in draw(st.lists(st.tuples(_COMPONENT, _COMPONENT), max_size=3)):
        base_p += a
        base_q += b
    acc_p, acc_q = base_p, base_q
    prefixes = [(acc_p, acc_q)]
    for a, b in demands:
        acc_p += a
        acc_q += b
        prefixes.append((acc_p, acc_q))
    if sifted:
        pp, pq = prefixes[min(n, 1)]
        limit_sq = math.nextafter(pp * pp + pq * pq, math.inf)
    elif draw(st.booleans()):
        pp, pq = prefixes[draw(st.integers(0, n))]
        limit_sq = math.nextafter(pp * pp + pq * pq, draw(st.sampled_from([0.0, math.inf])))
        if draw(st.booleans()):
            limit_sq = pp * pp + pq * pq
    else:
        limit = draw(st.floats(0.0, 1.2)) * math.hypot(acc_p, acc_q)
        limit_sq = limit * limit
    return index, p, q, base_p, base_q, limit_sq


def log_sifts(mp: pytest.MonkeyPatch) -> list[tuple[int, int]]:
    """Record (items tested, items kept) of every ``greedy._sift`` call from now on."""
    log = []
    sift = greedy._sift

    def logged(p, *args):
        keep = sift(p, *args)
        log.append((len(p), int(np.count_nonzero(keep))))
        return keep

    mp.setattr(greedy, "_sift", logged)
    return log


class TestScanKernel:
    @settings(max_examples=300, deadline=None)
    @given(scan_inputs())
    def test_matches_reference_loop(self, case):
        assert_scan_matches_reference(*case)

    def test_accumulates_left_to_right_from_the_base(self):
        # (0.1 + 0.2) + 0.3 lands one ulp above 0.6 and 0.1 + (0.2 + 0.3) on it,
        # so only the loop's order of additions rejects the second item
        index = np.arange(2, dtype=np.int64)
        p, q = np.array([0.2, 0.3]), np.zeros(2)
        for block in SCAN_BLOCKS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(greedy, "_SCAN_BLOCK", block)
                assert greedy._greedy_scan((index, p, q), 0.1, 0.0, 0.36)[0] == [0]
        assert_scan_matches_reference(index, p, q, 0.1, 0.0, 0.36)

    @pytest.mark.parametrize("demands", [[], [(3.0, 4.0)], [(5.0, 0.1)], [(-0.0, 1e-320)]])
    def test_empty_and_single_item(self, demands):
        index = np.arange(len(demands), dtype=np.int64)
        p = np.array([d[0] for d in demands], dtype=np.float64)
        q = np.array([d[1] for d in demands], dtype=np.float64)
        assert_scan_matches_reference(index, p, q, 0.0, 0.0, 25.0)
        assert_scan_matches_reference(index, p, q, 1.0, 0.0, 25.0)

    def test_alternating_accepts_and_rejects(self):
        # every tiny demand fits and every capacity-sized one overflows on top
        # of it, so the scan switches between accept and reject at each item
        n = 5_000
        p = np.where(np.arange(n) % 2 == 0, 1e-3, 1e6)
        q = np.zeros(n)
        index = np.arange(n, dtype=np.int64)[::-1].copy()
        taken, _, _ = greedy._greedy_scan((index, p, q), 0.0, 0.0, 1e12)
        assert taken == index[::2].tolist()
        assert_scan_matches_reference(index, p, q, 0.0, 0.0, 1e12)

    def test_sift_keeps_items_that_fit_with_equality(self):
        # after (3, 4) the aggregate sits on the limit, so the first (1, 0) ends the
        # piece; the sift must keep the later zero demands, which fit with
        # equality, and must not bring back the zero the piece already took
        demands = [(0.0, 0.0), (3.0, 4.0), (0.0, 0.0), (1.0, 0.0)] + [(1.0, 0.0), (1.0, 0.0), (0.0, 0.0)] * 70
        index = np.arange(len(demands), dtype=np.int64)
        p = np.array([d[0] for d in demands])
        q = np.array([d[1] for d in demands])
        expected = [0, 1, 2] + index[6::3].tolist()
        for block in SCAN_BLOCKS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(greedy, "_SCAN_BLOCK", block)
                log = log_sifts(mp)
                assert greedy._greedy_scan((index, p, q), 0.0, 0.0, 25.0) == (expected, 3.0, 4.0)
            assert log and 2 * log[0][1] <= log[0][0]  # the first sift compacts
        assert_scan_matches_reference(index, p, q, 0.0, 0.0, 25.0)

    def test_sifting_stops_when_a_sift_keeps_most_items(self):
        # tiny demands alternate with demands that each overflow by half a tiny
        # one at their turn but fit every earlier aggregate: a sift after every
        # reject would keep all but one item each time, quadratic work
        n = 30_000
        tiny = 2.0**-20
        half = np.arange(n) // 2
        p = np.where(np.arange(n) % 2 == 0, tiny, 1.0 - (half + 0.5) * tiny)
        q = np.zeros(n)
        index = np.arange(n, dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            log = log_sifts(mp)
            taken, _, _ = greedy._greedy_scan((index, p, q), 0.0, 0.0, 1.0)
        assert taken == index[::2].tolist()
        assert log, "no sift ran"
        assert sum(tested for tested, _ in log) <= 2 * greedy._SIFT_BLOCKS * greedy._SCAN_BLOCK
        assert_scan_matches_reference(index, p, q, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("compacts", [True, False], ids=["compact", "stop"])
    @pytest.mark.parametrize("block", SCAN_BLOCKS)
    def test_scan_inputs_reach_both_sift_outcomes(self, block, compacts):
        # some sift of a scan_inputs case keeps at most half the items it tests
        # (the stream is compacted), and some keeps more (sifting stops)
        def reaches(case):
            index, p, q, base_p, base_q, limit_sq = case
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(greedy, "_SCAN_BLOCK", block)
                log = log_sifts(mp)
                greedy._greedy_scan((index, p, q), base_p, base_q, limit_sq)
            return any((2 * kept <= tested) == compacts for tested, kept in log)

        quick = settings(max_examples=2_000, database=None, derandomize=True, phases=[Phase.generate])
        find(scan_inputs(), reaches, settings=quick)

    def test_gda_forced_matches_reference_greedy(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            inst = random_instance(rng, int(rng.integers(1, 40)))
            n = len(inst)
            order = rng.permutation(n).tolist()
            forced = sorted(order[: int(rng.integers(0, 4))])
            limit_sq = inst.capacity_limit_sq()
            p = sum(inst.columns.p[forced].tolist())
            q = sum(inst.columns.q[forced].tolist())
            if p * p + q * q > limit_sq:
                continue
            pool = order[len(forced):][: int(rng.integers(0, n + 1))]
            expected, objective = reference_greedy(inst, "gda", forced, pool)
            ids = inst.columns.id.tolist()
            for block in SCAN_BLOCKS:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(greedy, "_SCAN_BLOCK", block)
                    sol = gda_forced(inst, [ids[i] for i in forced], [ids[i] for i in pool])
                assert sol.retained_ids == {ids[i] for i in expected}
                assert sol.objective == objective

    @pytest.mark.parametrize("algorithm", ["gva", "gma", "gra", "gda"])
    def test_solvers_match_reference_greedy(self, algorithm):
        rng = np.random.default_rng(7)
        solver = {"gva": gva, "gma": gma, "gra": gra, "gda": gda}[algorithm]
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(1, 300)))
            expected, objective = reference_greedy(inst, algorithm)
            sol = solver(inst)
            assert sol.retained_ids == set(inst.columns.id[expected].tolist())
            assert sol.objective == objective


def distinct_scan_orders(inst, keys):
    """Each distinct ``scan_order`` of ``keys``, first occurrences in ``keys`` order,
    found by sorting every key."""
    orders = []
    for key in keys:
        order = greedy.scan_order(inst, key)
        if not any(np.array_equal(order, seen) for seen in orders):
            orders.append(order)
    return orders


class TestDistinctOrders:
    """``_sorted_order_rows`` keeps an instance's order unless an earlier kept one
    equals it.  Under correlated valuations (u = |d|^2) efficiency and valuation
    sort alike, so ``gda`` scans once, and so do compensation and compensation per
    VA, so ``cmin_gda`` sheds once."""

    @pytest.mark.parametrize("acronym, streams", [
        ("FCR", 1), ("FCM", 1), ("FCI", 1), ("ACR", 1), ("FUM", 2), ("FLM", 2),
    ])
    def test_gda_streams_per_scenario(self, acronym, streams):
        for n, seed in ((12, 0), (2_000, 5)):
            batch = [generate(spec_from_acronym(acronym, n, 2e6, seed + k)) for k in range(3)]
            for keys in (greedy.SCAN_ORDERS["gda"], greedy.SHED_ORDERS["cmin_gda"]):
                _, kept = greedy._sorted_order_rows(batch, keys)
                assert kept.sum(axis=0).tolist() == [streams] * 3

    @staticmethod
    def sort_and_compare(inst, keys):
        """Every key's ``scan_order`` and whether it differs from every earlier one."""
        orders = [greedy.scan_order(inst, key) for key in keys]
        kept = [not any(np.array_equal(order, seen) for seen in orders[:k])
                for k, order in enumerate(orders)]
        return orders, kept

    def assert_rows_match_sorting(self, instances, keys):
        orders, kept = greedy._sorted_order_rows(instances, keys)
        assert orders.shape == (len(keys), len(instances), len(instances[0]))
        for t, inst in enumerate(instances):
            expected, expected_kept = self.sort_and_compare(inst, keys)
            assert [order.tolist() for order in orders[:, t]] == [o.tolist() for o in expected]
            assert kept[:, t].tolist() == expected_kept
            got = greedy._kept_orders((orders, kept), t)
            assert [o.tolist() for o in got] == [o.tolist() for o in distinct_scan_orders(inst, keys)]

    def assert_neighbour_rule_matches_sorting(self, instances):
        for inst in instances:
            cols = inst.columns
            for a in greedy.SortKey:
                order = greedy.scan_order(inst, a)
                for b in greedy.SortKey:
                    primary = greedy._PRIMARY_KEYS[b](cols)
                    expected = np.array_equal(order, greedy.scan_order(inst, b))
                    got = greedy._in_key_order(order[None], primary[None], cols.id[None])
                    assert got.tolist() == [expected], (a, b)
        for keys in (*greedy.SCAN_ORDERS.values(), *greedy.SHED_ORDERS.values()):
            self.assert_rows_match_sorting(instances, keys)

    @pytest.mark.parametrize("acronym", [p + c + l for p in "FA" for c in "CUL" for l in "RIM"])
    def test_neighbour_rule_agrees_with_sort_and_compare(self, acronym):
        for n, seed in ((12, 0), (2_000, 5)):
            batch = [generate(spec_from_acronym(acronym, n, 2e6, seed + k)) for k in range(2)]
            self.assert_neighbour_rule_matches_sorting(batch)

    def test_a_batch_mixing_one_and_two_distinct_orders(self):
        # FCR's gda orders are one permutation and FLM's two, so FLM rows keep two
        for n, seed in ((12, 0), (2_000, 5)):
            batch = [generate(spec_from_acronym(acronym, n, 2e6, seed + k))
                     for k, acronym in enumerate(("FCR", "FLM", "FCR", "FLM"))]
            self.assert_neighbour_rule_matches_sorting(batch)
            _, kept = greedy._sorted_order_rows(batch, greedy.SCAN_ORDERS["gda"])
            assert kept.sum(axis=0).tolist() == [1, 2, 1, 2]

    def test_neighbour_rule_on_ties_and_zero_magnitudes(self):
        # equal keys fall back to ids; zero demands have per-VA keys of inf
        rows = [
            (5, 0.0, 0.0, 3.0, 1.0), (2, 0.0, 0.0, 1.0, 1.0), (9, 1.0, 0.0, 2.0, 2.0),
            (1, 1.0, 0.0, 2.0, 2.0), (4, 2.0, 0.0, 4.0, 4.0), (7, 0.0, 0.0, 0.0, 0.0),
        ]
        self.assert_neighbour_rule_matches_sorting(
            [build_instance(rows[rotation:] + rows[:rotation], 3.0) for rotation in range(len(rows))]
        )
        identical = [(k, 1.0, 1.0, 2.0, 2.0) for k in (3, 0, 2, 1)]
        self.assert_neighbour_rule_matches_sorting([build_instance(identical, 3.0)])
        orders = greedy._sorted_order_rows([build_instance(identical, 3.0)], greedy.SCAN_ORDERS["gda"])
        assert [order.tolist() for order in greedy._kept_orders(orders, 0)] == [[1, 3, 2, 0]]
        zeros = [(k, 0.0, 0.0, float(k % 2), 1.0) for k in (4, 1, 3, 0, 2)]
        self.assert_neighbour_rule_matches_sorting(
            [build_instance(zeros, 1.0), build_instance(zeros[::-1], 1.0)]
        )

    @staticmethod
    def counting_lexsorts(monkeypatch):
        """The primary keys of every ``np.lexsort`` from now on."""
        calls, lexsort = [], np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda a, **k: calls.append(a[-1]) or lexsort(a, **k))
        return calls

    @pytest.mark.parametrize("acronym, sorts", [("FCR", 1), ("FCM", 1), ("FUM", 2)])
    def test_one_sort_per_distinct_order(self, acronym, sorts, monkeypatch):
        calls = self.counting_lexsorts(monkeypatch)
        inst = generate(spec_from_acronym(acronym, 2_000, 2e6, 5))
        for keys in (greedy.SCAN_ORDERS["gda"], greedy.SHED_ORDERS["cmin_gda"]):
            calls.clear()
            _, kept = greedy._sorted_order_rows([inst], keys)
            assert kept.sum() == sorts
            assert len(calls) == sorts
            for primary, key in zip(calls, keys):
                assert np.array_equal(primary, greedy._PRIMARY_KEYS[key](inst.columns)[None])

    @pytest.mark.parametrize("acronyms, sorts", [
        (("FCR", "FCR", "FCR"), 1), (("FCR", "FLM", "FCR"), 2),
    ])
    def test_one_lexsort_per_key_some_instance_keeps(self, acronyms, sorts, monkeypatch):
        # the parent sorted every key; an FLM row is the only one keeping gda's second
        for n, seed in ((12, 0), (2_000, 5)):
            batch = [generate(spec_from_acronym(acronym, n, 2e6, seed + k))
                     for k, acronym in enumerate(acronyms)]
            with monkeypatch.context() as m:
                calls = self.counting_lexsorts(m)
                greedy._sorted_order_rows(batch, greedy.SCAN_ORDERS["gda"])
            assert len(calls) == sorts
            self.assert_rows_match_sorting(batch, greedy.SCAN_ORDERS["gda"])

    def test_orders_one_tie_swap_apart_are_both_scanned(self):
        # ids 1 and 2 tie at 2 per VA, so efficiency takes 1 first by id and
        # valuation takes 2 first; only the valuation scan reaches 34
        inst = build_instance([(0, 3.0, 4.0, 30.0), (1, 1.0, 0.0, 2.0), (2, 2.0, 0.0, 4.0)], 7.0)
        orders = greedy._sorted_order_rows([inst], greedy.SCAN_ORDERS["gda"])
        assert [order.tolist() for order in greedy._kept_orders(orders, 0)] == [[0, 1, 2], [0, 2, 1]]
        sol = gda(inst)
        assert sol.retained_ids == {0, 2} and sol.objective == 34.0
        assert gra(inst).retained_ids == {0, 1}

    @pytest.mark.parametrize("acronym", ["FCM", "FCR", "FUM"])
    def test_solvers_match_references_on_generated_instances(self, acronym):
        rng = np.random.default_rng(41)
        for seed in range(4):
            base = generate(spec_from_acronym(acronym, 40, 1e12, seed))
            inst = restrict_to_capacity(base, 0.3 * float(base.columns.mag.sum()))
            expected, objective = reference_greedy(inst, "gda")
            sol = gda(inst)
            assert sol.retained_ids == set(inst.columns.id[expected].tolist())
            assert sol.objective == objective
            forced, pool = [0, 1], rng.permutation(np.arange(2, len(inst)))[:30].tolist()
            expected, objective = reference_greedy(inst, "gda", forced, pool)
            ids = inst.columns.id.tolist()
            sol = gda_forced(inst, [ids[i] for i in forced], [ids[i] for i in pool])
            assert sol.retained_ids == {ids[i] for i in expected}
            assert sol.objective == objective
            ids, objective, _ = reference_gsa_search(inst, GsaConfig(0.25))
            sol = gsa(inst, GsaConfig(0.25))
            assert sol.retained_ids == ids and sol.objective == objective


class TestObjectiveIsAPythonFloat:
    """Single solves run as batches of one, whose objectives come in numpy arrays;
    an ``np.float64`` objective would change ``repr(Solution)``."""

    @pytest.mark.parametrize("n", [0, 1, 12])
    def test_every_public_solver(self, n):
        base = generate(spec_from_acronym("FLM", n, 2e6, 3))
        mag = base.columns.mag
        inst = restrict_to_capacity(base, max(0.4 * float(mag.sum()), float(mag.max(initial=1.0))))
        ids = inst.columns.id.tolist()
        solutions = [solve(inst) for solve in (
            gva, gma, gra, gda, cmin_gva, cmin_gma, cmin_gra, cmin_gda,
            brute_force_vmax, brute_force_cmin,
        )]
        solutions += [gda_forced(inst, ids[:1], ids[1:]), gda_forced(inst, [], ids)]
        solutions += [gsa(inst, GsaConfig(epsilon)) for epsilon in (1 / 2, 1 / 4)]  # m = 0, 2
        for sol in solutions:
            assert type(sol.objective) is float, sol


# Valuations with ties and zeros; 1e308 makes a set's objective overflow to inf.
_VALUATIONS = (0.0, 1.0, 2.5, 4.0, 1e308)


@st.composite
def scan_row_batches(draw):
    """(instances, keys, rel_tol, trial, forced, pool): one ``_best_of_scans_rows`` call.

    b instances of one size n (0 to 10, or 127, the longest batch that steps)
    with shuffled ids, demands of a few tied sizes (zeros and signed zeros
    among them) at phase spread 0 (q = 0), pi/2 (each demand all p or all
    q) or anything between, scaled by 1 or by 1e153 (so that squares
    overflow), and valuations correlated with |d|^2, drawn from few tied
    values or from few values and 1e308.  The capacity is a share of the
    total demand or a prefix's aggregate, at least every lone demand.  The
    rows force nobody, or each one or two customers with a pool of the
    customers they dominate by valuation (as ``gsa``'s seeds) or a random
    one; unforced rows have no pool or a random one.
    """
    n = draw(st.one_of(st.integers(0, 10), st.just(127)))
    b = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phase = draw(st.sampled_from(["zero", "right", "any"]))
    scale = draw(st.sampled_from([1.0, 1e153]))
    valuation = draw(st.sampled_from(["correlated", "tied", "huge"]))
    instances = []
    for _ in range(b):
        size = rng.choice([0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 2.0], n) * scale
        share = rng.choice([0.0, 0.5, 1.0], n) if phase == "any" else rng.integers(0, 2, n)
        p = size * share if phase != "zero" else size
        q = size * (1.0 - share) if phase != "zero" else np.zeros(n)
        u = {"correlated": p * p + q * q, "tied": rng.choice(_VALUATIONS[:4], n),
             "huge": rng.choice(_VALUATIONS, n)}[valuation]
        mag = np.hypot(p, q)
        if rng.random() < 0.5:
            capacity = float(rng.choice([0.05, 0.3, 0.6, 1.2])) * float(mag.sum())
        else:
            k = int(rng.integers(0, n + 1))
            capacity = math.hypot(*(float(np.add.reduce(a[:k])) for a in (p, q)))
        capacity = min(max(capacity, float(mag.max(initial=0.0)), 1e-3), 1.3e154)
        ids = rng.permutation(3 * n)[:n]
        instances.append(build_instance(list(zip(ids.tolist(), p, q, u)), capacity))
    keys = draw(st.sampled_from(list(greedy.SCAN_ORDERS.values())))
    rel_tol = draw(st.sampled_from([0.0, 1e-9]))
    rows = draw(st.integers(1, 6))
    trial = rng.integers(0, b, rows)
    forced = pool = None
    width = draw(st.integers(0, min(n, 2)))
    if width:
        forced = np.array([np.sort(rng.choice(n, width, replace=False)) for _ in range(rows)])
        u = np.array([inst.columns.valuation for inst in instances])[trial]
        if draw(st.booleans()):
            pool = u <= np.take_along_axis(u, forced, axis=1).min(axis=1, keepdims=True)
        else:
            pool = rng.random((rows, n)) < 0.7
        pool[np.arange(rows)[:, None], forced] = False
    elif draw(st.booleans()):
        pool = rng.random((rows, n)) < 0.7
    return instances, keys, rel_tol, trial, forced, pool


class TestBestOfScansRows:
    """``_best_of_scans_rows`` gives each row ``_best_of_scans``'s retained set and
    objective bit for bit, whether it steps over a batch or goes row by row."""

    @given(batch=scan_row_batches())
    @settings(max_examples=300, deadline=None)
    def test_each_row_is_its_best_of_scans(self, batch):
        instances, keys, rel_tol, trial, forced, pool = batch
        limit_sq = np.array([inst.capacity_limit_sq(rel_tol) for inst in instances])
        orders, kept = greedy._sorted_order_rows(instances, keys)
        for t, inst in enumerate(instances):
            got = [order[t].tolist() for order, keep in zip(orders, kept) if keep[t]]
            assert got == [order.tolist() for order in distinct_scan_orders(inst, keys)]
        expected = []
        for r, t in enumerate(trial.tolist()):
            try:
                expected.append(greedy._best_of_scans(
                    instances[t], () if forced is None else forced[r],
                    distinct_scan_orders(instances[t], keys), float(limit_sq[t]),
                    None if pool is None else pool[r],
                ))
            except ValueError:  # a forced set that misfits on its own fails the batch
                with pytest.raises(ValueError, match="forced set"):
                    greedy._best_of_scans_rows(instances, (orders, kept), limit_sq, trial,
                                               forced, pool)
                return
        retained, objectives = greedy._best_of_scans_rows(
            instances, (orders, kept), limit_sq, trial, forced, pool
        )
        assert retained.shape == (len(trial), len(instances[0])) and retained.dtype == bool
        for row, objective, (at, value) in zip(retained, objectives.tolist(), expected):
            assert np.flatnonzero(row).tolist() == at.tolist()
            assert objective == value

    @pytest.mark.parametrize("capacity, rel_tol", [(0.6, 0.0), (0.5999999993999999, 1e-9)])
    def test_a_batch_rescans_a_set_that_misfits_in_storage_order(
        self, capacity, rel_tol, monkeypatch
    ):
        # the valuation scan takes 0.3, 0.2 and 0.1 and reaches the limit; in
        # storage order the three miss it, so that scan is redone against the
        # tightened limit, alone, and keeps {1, 2}
        p = (0.1, 0.2, 0.3)
        inst = build_instance([(k, p[k], 0.0, u) for k, u in enumerate((1.0, 2.5, 4.0))], capacity)
        other = build_instance([(k, p[k], 0.0, u) for k, u in enumerate((4.0, 2.5, 1.0))], capacity)
        instances = [inst, other, inst]
        limit_sq = np.full(3, inst.capacity_limit_sq(rel_tol))
        scans, steps = [], greedy._scan_steps
        monkeypatch.setattr(greedy, "_scan_steps",
                            lambda items, *a: scans.append(items.shape[2]) or steps(items, *a))
        orders = greedy._sorted_order_rows(instances, greedy.SCAN_ORDERS["gva"])
        retained, objectives = greedy._best_of_scans_rows(
            instances, orders, limit_sq, np.arange(3)
        )
        assert scans == [3, 2]
        assert retained.tolist() == [[False, True, True], [True, True, False], [False, True, True]]
        assert objectives.tolist() == [6.5, 6.5, 6.5]
        for t, row in enumerate(retained):
            assert is_feasible(instances[t], np.flatnonzero(row).tolist(), rel_tol)


@st.composite
def boundary_cases(draw):
    """(rows, capacity, rel_tol): a capacity whose squared limit lies a few ulps
    from the aggregate of some set added in storage order or in another order,
    where the two sums can fall on either side of it.  Demands are tenths,
    whose sums round in the last bit.  Often the set's valuations lead in that
    other order, so the valuation scan takes the set first, in that order."""
    n = draw(st.integers(1, 9))
    p = draw(st.lists(st.integers(1, 40).map(lambda k: k / 10), min_size=n, max_size=n))
    q = draw(st.lists(st.integers(0, 20).map(lambda k: k / 10), min_size=n, max_size=n))
    u = draw(st.lists(st.integers(0, 9).map(float), min_size=n, max_size=n))
    members = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    order = draw(st.permutations(members))
    if draw(st.booleans()):  # ranked
        for rank, i in enumerate(order):
            u[i] = 100.0 - rank
    rel_tol = draw(st.sampled_from([0.0, 1e-9]))
    squares = []
    for added in (order, sorted(members)):
        sum_p = sum_q = 0.0
        for i in added:
            sum_p += p[i]
            sum_q += q[i]
        squares.append(sum_p * sum_p + sum_q * sum_q)
    # step up from just below to the least capacity whose limit reaches the
    # smaller sum, then maybe past it, so the limit falls between the two sums
    # when it can
    low = min(squares)
    capacity = math.sqrt(low) / (1.0 + rel_tol) * (1.0 - 2.0**-48)
    while capacity_limit_sq(capacity, rel_tol) < low:
        capacity = math.nextafter(capacity, math.inf)
    for _ in range(draw(st.integers(0, 2))):
        capacity = math.nextafter(capacity, math.inf)
    rows = [(k, p[k], q[k], u[k], float(k + 1)) for k in range(n)
            if math.hypot(p[k], q[k]) <= capacity]
    return rows, capacity, rel_tol


class TestEverySelectionFits:
    """Every selection a solver returns passes ``is_feasible`` at its ``rel_tol``,
    also where adding its demands in another order than storage order crosses
    the capacity."""

    def test_crafted_case_misfits_in_scan_order(self):
        # the valuation scan takes 0.3, 0.2 and 0.1 and reaches C = 0.6 exactly;
        # in storage order the three make 0.6000000000000001
        inst = build_instance([(0, 0.1, 0.0, 1.0), (1, 0.2, 0.0, 2.5), (2, 0.3, 0.0, 4.0)], 0.6)
        assert not is_feasible(inst, {0, 1, 2}, 0.0)
        for solve in (gva, gda):
            sol = solve(inst, 0.0)
            assert sol.retained_ids == {1, 2} and sol.objective == 6.5
        # at the default rel_tol the limit (C (1 + 1e-9))^2 lies between the sums
        inst = build_instance([(0, 0.1, 0.0, 1.0), (1, 0.2, 0.0, 2.5), (2, 0.3, 0.0, 4.0)],
                              0.5999999993999999)
        assert not is_feasible(inst, {0, 1, 2})
        assert gda(inst).retained_ids == {1, 2}

    @given(case=boundary_cases())
    @settings(max_examples=300, deadline=None)
    def test_every_solver(self, case):
        rows, capacity, rel_tol = case
        inst = build_instance(rows, capacity)
        ids = inst.columns.id.tolist()
        solutions = [solve(inst, rel_tol) for solve in (
            gva, gma, gra, gda, cmin_gva, cmin_gma, cmin_gra, cmin_gda,
        )]
        solutions += [brute_force_vmax(inst, rel_tol=rel_tol), brute_force_cmin(inst, rel_tol=rel_tol)]
        solutions += [gsa(inst, GsaConfig(eps), rel_tol) for eps in (1 / 3, 1 / 4)]
        for k in range(len(ids)):
            if is_feasible(inst, ids[k:k + 1], rel_tol):
                solutions.append(gda_forced(inst, ids[k:k + 1], ids[:k] + ids[k + 1:], rel_tol))
        for sol in solutions:
            assert is_feasible(inst, sol.retained_ids, rel_tol), sol
        for algorithm in ("gva", "gma", "gra", "gda"):
            expected, objective = reference_greedy(inst, algorithm, rel_tol=rel_tol)
            sol = {"gva": gva, "gma": gma, "gra": gra, "gda": gda}[algorithm](inst, rel_tol)
            assert sol.retained_ids == {ids[i] for i in expected}
            assert sol.objective == objective

    @given(case=boundary_cases())
    @settings(max_examples=100, deadline=None)
    def test_batched_selections(self, case):
        # every mask that a batch returns: bench's greedies over a chunk, the
        # oracle's seeds (every position pruned, so they are needed) and gsa's
        # rounds, each over a batch of two so that the scans step together
        rows, capacity, rel_tol = case
        inst = build_instance(rows, capacity)
        seen = []

        def recording(rows_of):
            def recorded(instances, orders, limit_sq, trial, *args):
                retained, objectives = rows_of(instances, orders, limit_sq, trial, *args)
                seen.extend((instances[t], limit_sq[t], row) for t, row in zip(trial, retained))
                return retained, objectives
            return recorded

        plan = bench.TrialPlan(spec_from_acronym("FCR", 0, capacity, seed=0), (len(rows),))
        with pytest.MonkeyPatch.context() as mp:
            # whole-instance scans reach it through ``greedy._greedy_rows``
            for module in (greedy, gsa_module):
                mp.setattr(module, "_best_of_scans_rows", recording(module._best_of_scans_rows))
            mp.setattr(oracle_module, "_TABLE_BITS", 0)
            for tag in ("gva", "gma", "gra", "gda"):
                bench._outcomes(plan, tag, [inst, inst])
            oracle_module._brute_force_batch([inst, inst], OracleBudget(), rel_tol, "vmax")
            for epsilon in (1 / 3, 1 / 4):
                gsa_module._search_batch([inst, inst], GsaConfig(epsilon), rel_tol)
        assert len(seen) >= 2 * 5
        cols = inst.columns
        for instance, limit_sq, row in seen:
            assert instance is inst
            p, q = storage_sum(cols.p, row), storage_sum(cols.q, row)
            assert p * p + q * q <= limit_sq

    @given(case=boundary_cases())
    @settings(max_examples=100, deadline=None)
    def test_simulation_points(self, case):
        # capacity drops from 4 C to the floor C at the first event and stays
        rows, capacity, _ = case
        base = build_instance(rows, 4.0 * capacity)
        seen = []

        def recorded(instance, forced, orders, limit_sq, pool):
            retained, objective = scans(instance, forced, orders, limit_sq, pool)
            seen.append((retained, limit_sq))
            return retained, objective

        scans = bench._best_of_scans
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench, "generate", lambda spec: base)
            mp.setattr(bench, "_best_of_scans", recorded)
            trace = run_dynamic_capacity(
                spec_from_acronym("FCR", len(rows), 4.0 * capacity, seed=0), horizon=10.0,
                event_rate=1.0, fail_prob=1.0, drop_range=(0.8, 0.9), floor_capacity=capacity,
            )
        capacities = {capacity_limit_sq(point.capacity): point.capacity for point in trace}
        assert seen and {limit for _, limit in seen} <= set(capacities)
        for retained, limit_sq in seen:
            reduced = restrict_to_capacity(base, capacities[limit_sq])
            assert is_feasible(reduced, base.columns.id[retained].tolist(), CAPACITY_REL_TOL)
