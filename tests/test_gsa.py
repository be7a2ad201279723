"""Enumeration-boosted solver: size arithmetic, phases, guarantee, exactness."""

import importlib
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from curtail import (
    CAPACITY_REL_TOL,
    GsaConfig,
    Instance,
    SortKey,
    alignment_factor,
    brute_force_vmax,
    gda,
    gda_forced,
    gsa,
    gsa_subset_count,
    is_feasible,
    max_phase_spread,
    restrict_to_capacity,
    retained_valuation,
    spec_from_acronym,
    generate,
)
from curtail.bench import instance_for_trial, plan_from_dict
from curtail.greedy import scan_order
from curtail.gsa import _search_batch

# the package's ``gsa`` function shadows the module as an attribute of ``curtail``
gsa_module = importlib.import_module("curtail.gsa")
from conftest import build_instance, random_instance, reference_gsa_search


def search_ids(inst: Instance, config: GsaConfig, rel_tol: float = 1e-9):
    """``_search_batch`` over ``inst`` alone, its storage mask mapped to ids and its
    objective to a Python float, as the reference returns them."""
    (retained,), (objective,) = _search_batch([inst], config, rel_tol)
    return frozenset(inst.columns.id[retained].tolist()), objective.item()


def tied_instance(rng: np.random.Generator, n: int) -> Instance:
    """Random instance with integer demands and valuations, so keys tie often."""
    p = rng.integers(0, 5, n).astype(float)
    q = rng.integers(0, 3, n).astype(float)
    u = rng.integers(0, 4, n).astype(float)
    ids = rng.permutation(3 * n)[:n].tolist()  # unordered, non-contiguous ids
    rows = [(ids[k], p[k], q[k], u[k]) for k in range(n)]
    capacity = max(5.0, float(rng.uniform(0.2, 0.7)) * float(np.hypot(p, q).sum()))
    return build_instance(rows, capacity)


class TestConfig:
    def test_subset_size_arithmetic(self):
        # quarter precision examines pairs, third precision singletons
        assert GsaConfig(0.25).max_subset_size(10) == 2
        assert GsaConfig(1 / 3).max_subset_size(10) == 1
        assert GsaConfig(0.5).max_subset_size(10) == 0
        assert GsaConfig(0.9).max_subset_size(10) == 0

    def test_subset_size_clamped_to_n(self):
        assert GsaConfig(0.01).max_subset_size(5) == 5
        assert GsaConfig(0.25).max_subset_size(1) == 1

    def test_reciprocal_past_the_float_range_enumerates_everything(self):
        # 1/epsilon overflows to inf below about 5.6e-309
        assert GsaConfig(5e-324).max_subset_size(7) == 7
        assert GsaConfig(5e-324).max_subset_size(0) == 0
        assert gsa_subset_count(7, 5e-324) == 128

    def test_epsilon_validation(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                GsaConfig(bad)


class TestSubsetCount:
    def test_counts(self):
        assert gsa_subset_count(10, 1 / 3) == 11
        assert gsa_subset_count(10, 0.25) == 56
        assert gsa_subset_count(1, 0.9) <= 2
        assert gsa_subset_count(1, 0.01) == 2

    def test_large_counts_do_not_overflow(self):
        # m = 18 here; the exact sum has 26 digits and must come back intact
        assert gsa_subset_count(200, 0.05) == sum(
            math.comb(200, s) for s in range(19)
        )

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            gsa_subset_count(-1, 0.25)


class TestGsa:
    def test_degenerate_size_falls_back_to_greedy_pair(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            inst = random_instance(rng, int(rng.integers(1, 10)))
            boosted = gsa(inst, GsaConfig(0.6))
            plain = gda(inst)
            assert boosted.objective == plain.objective
            assert boosted.retained_ids == plain.retained_ids
            assert boosted.algorithm == "gsa"

    def test_magnitude_trap_with_singleton_enumeration(self, magnitude_trap):
        # the capacity-filling customer appears as a forced singleton
        assert gsa(magnitude_trap, GsaConfig(1 / 3)).objective == 100.0

    def test_exhaustive_when_subsets_cover_everything(self):
        rng = np.random.default_rng(89)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            inst = random_instance(rng, n)
            sol = gsa(inst, GsaConfig(0.01))  # m >= n: full enumeration
            opt = brute_force_vmax(inst)
            assert sol.objective == opt.objective

    def test_empty_instance(self):
        sol = gsa(build_instance([], 5.0), GsaConfig(0.25))
        assert sol.objective == 0.0

    def test_solutions_feasible_and_reproducible(self):
        rng = np.random.default_rng(97)
        for eps in (0.25, 1 / 3):
            for _ in range(30):
                inst = random_instance(rng, int(rng.integers(1, 11)))
                sol = gsa(inst, GsaConfig(eps))
                assert is_feasible(inst, sol.retained_ids)
                assert sol.objective == retained_valuation(inst, sol.retained_ids)

    def test_guarantee_against_oracle(self):
        rng = np.random.default_rng(101)
        for eps in (0.25, 1 / 3):
            for _ in range(40):
                inst = random_instance(rng, int(rng.integers(2, 11)))
                opt = brute_force_vmax(inst).objective
                theta = max_phase_spread(inst)
                bound = (1 - eps) * alignment_factor(theta)
                assert gsa(inst, GsaConfig(eps)).objective >= bound * opt - 1e-9

    def test_phase2_winner_contains_its_seed(self):
        # _search_batch returns no seed, so this checks the reference, whose ids
        # TestAgainstPerSeedReference requires _search_batch to match exactly
        rng = np.random.default_rng(103)
        seeded = 0
        for _ in range(60):
            inst = random_instance(rng, int(rng.integers(3, 11)))
            ids, _, seed = reference_gsa_search(inst, GsaConfig(0.25))
            if seed is None:
                continue
            assert set(seed) <= set(ids)
            seeded += 1
        assert seeded >= 10

    def test_determinism(self):
        rng = np.random.default_rng(107)
        inst = random_instance(rng, 10)
        a = gsa(inst, GsaConfig(0.25))
        b = gsa(inst, GsaConfig(0.25))
        assert a.retained_ids == b.retained_ids
        assert a.objective == b.objective

    def test_pool_includes_valuation_ties_with_the_seed(self):
        # two equal-valuation customers that only fit together: the seed's
        # companion has valuation == the seed minimum and must stay eligible,
        # otherwise half the value is lost
        rows = [(0, 1.0, 0.0, 5.0), (1, 1.0, 0.0, 5.0)]
        inst = build_instance(rows, 2.0)
        sol = gsa(inst, GsaConfig(1 / 3))  # m = 1: singleton seeds
        assert sol.retained_ids == {0, 1}
        assert sol.objective == 10.0

    @pytest.mark.parametrize("capacity, rows, expected", [
        # {0} fills the capacity alone; the only feasible pair {1, 2} is worth 2
        (10.0, [(0, 10.0, 10.0), (1, 1.0, 1.0), (2, 1.0, 1.0)], (frozenset({0}), 10.0, None)),
        # {0} and the pair {1, 2} both reach 2; the Phase 2 seed wins the tie
        (2.0, [(0, 2.0, 2.0), (1, 1.0, 1.0), (2, 1.0, 1.0)], (frozenset({1, 2}), 2.0, (1, 2))),
    ], ids=["phase 1 wins", "phase 2 wins a tie"])
    def test_subsets_below_m_against_seeds_of_size_m(self, capacity, rows, expected):
        # epsilon = 1/4: m = 2, so singletons are Phase 1 subsets and pairs are seeds
        inst = build_instance([(k, p, 0.0, u) for k, p, u in rows], capacity)
        assert reference_gsa_search(inst, GsaConfig(0.25)) == expected
        assert search_ids(inst, GsaConfig(0.25)) == expected[:2]

    def test_equal_objective_seeds_resolve_to_smallest_ids(self):
        # four identical customers, C fits exactly two: every size-2 seed
        # ties at objective 2, so the id-lexicographic smallest must win
        # regardless of customer storage order
        rows = [(3, 1.0, 0.0, 1.0), (0, 1.0, 0.0, 1.0), (2, 1.0, 0.0, 1.0), (1, 1.0, 0.0, 1.0)]
        inst = build_instance(rows, 2.0)
        ids, objective = search_ids(inst, GsaConfig(0.25))
        assert objective == 2.0
        assert set(ids) == {0, 1}


class TestAgainstPerSeedReference:
    """``_search_batch`` sorts once per instance; the reference re-sorts every seed's
    pool through ``gda_forced``.  Both must agree exactly."""

    @pytest.mark.parametrize("epsilon", [1 / 3, 1 / 4, 1 / 5])
    def test_identical_ids_objective_and_seed(self, epsilon):
        rng = np.random.default_rng(211)
        seeded = 0
        for n in range(1, 13):
            for make in (random_instance, tied_instance):
                inst = make(rng, n)
                expected = reference_gsa_search(inst, GsaConfig(epsilon))
                got = search_ids(inst, GsaConfig(epsilon))
                assert got[0] == expected[0]
                assert got[1] == expected[1]  # float-exact, not approximate
                seeded += expected[2] is not None  # cases that a Phase 2 seed won
        assert seeded >= 12

    def test_filtered_global_order_is_the_pool_order(self):
        rng = np.random.default_rng(223)
        for _ in range(60):
            n = int(rng.integers(1, 16))
            inst = tied_instance(rng, n) if rng.random() < 0.5 else random_instance(rng, n)
            pool = np.flatnonzero(rng.random(n) < 0.6)
            members = pool.tolist()
            sub = Instance(inst.columns.take(pool), inst.capacity)
            for key in SortKey:
                filtered = [j for j in scan_order(inst, key) if j in members]
                assert filtered == [members[k] for k in scan_order(sub, key)]


class TestSeedBlocks:
    """Seeds are scanned in blocks of at most ``_SEED_BLOCK_CELLS`` seeds x customers."""

    @pytest.mark.parametrize("epsilon", [1 / 3, 1 / 4, 1 / 5])
    def test_every_block_size_matches_the_reference(self, epsilon):
        # one seed per block at 1 and 2 cells, so every seed is its own block
        rng = np.random.default_rng(227)
        for n in range(1, 11):
            for make in (random_instance, tied_instance):
                inst = make(rng, n)
                expected = reference_gsa_search(inst, GsaConfig(epsilon))
                for cells in (1, 2, gsa_module._SEED_BLOCK_CELLS):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(gsa_module, "_SEED_BLOCK_CELLS", cells)
                        got = search_ids(inst, GsaConfig(epsilon))
                    assert got == expected[:2]

    @pytest.mark.parametrize("cells", [1, 100, 1 << 10, 1 << 19])
    def test_blocks_stay_within_their_cells(self, cells, monkeypatch):
        # a block holds at least one seed; several instances only while all
        # their seeds of the size fit in the cells, so an instance that shares
        # a block has every seed of the size in it
        rng = np.random.default_rng(239)
        instances = [batch_member(rng, 8, k % 5) for k in range(6)]
        shapes, sorted_columns = [], gsa_module._sorted_columns

        def recorded(seeds):
            shapes.append(seeds.shape)
            return sorted_columns(seeds)

        monkeypatch.setattr(gsa_module, "_sorted_columns", recorded)
        monkeypatch.setattr(gsa_module, "_SEED_BLOCK_CELLS", cells)
        _search_batch(instances, GsaConfig(1 / 5), 1e-9)
        for parts, combos, size in shapes:
            assert parts * combos * 8 <= max(cells, 8)
            assert parts == 1 or combos == math.comb(8, size)
        seeds = sum(parts * combos for parts, combos, _ in shapes)
        assert seeds == 6 * sum(math.comb(8, size) for size in (1, 2, 3))
        assert max(parts for parts, _, _ in shapes) == min(6, max(1, cells // 64))

    def test_a_tie_across_blocks_goes_to_the_smaller_rank(self, monkeypatch):
        # m = 1 and two seeds a block: seeds {1} and {2} complete to {1, 3} and
        # {2, 3}, both worth 2, in different blocks; the seed of rank 1 wins
        rows = [(0, 1.0, 0.0, 0.5), (1, 2.0, 0.0, 1.0), (2, 2.0, 0.0, 1.0), (3, 1.0, 0.0, 1.0)]
        inst = build_instance(rows, 3.0)
        expected = reference_gsa_search(inst, GsaConfig(1 / 3))
        assert expected == (frozenset({1, 3}), 2.0, (1,))
        monkeypatch.setattr(gsa_module, "_SEED_BLOCK_CELLS", 2 * len(inst))
        assert search_ids(inst, GsaConfig(1 / 3)) == expected[:2]

    def test_memory_stays_bounded_at_large_n(self):
        # 2 000 singleton seeds over 2 000 customers: scanned as one block, the
        # seed masks and sums would take over 100 MiB
        base = generate(spec_from_acronym("FCM", 2_000, 1e12, 0))
        inst = restrict_to_capacity(base, 0.4 * float(base.columns.mag.sum()))
        assert GsaConfig(0.34).max_subset_size(len(inst)) == 1
        tracemalloc.start()
        try:
            gsa(inst, GsaConfig(0.34))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


def sparse_ids(rng: np.random.Generator, n: int) -> list[int]:
    """n distinct ids in no order, with gaps."""
    return rng.permutation(3 * n + 2)[:n].tolist()


def batch_member(rng: np.random.Generator, n: int, kind: int) -> Instance:
    """One instance of size n for a mixed batch; each kind draws its own capacity."""
    ids = sparse_ids(rng, n)
    if kind == 0:
        return tied_instance(rng, n)
    if kind == 1:  # random demands, reordered ids
        rows = [(ids[k], float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.0, 2.0)),
                 float(rng.uniform(0.1, 9.0))) for k in range(n)]
        return build_instance(rows, float(rng.uniform(4.5, 12.0)))
    if kind == 2:  # all tied: every seed of a size completes to the same objective
        return build_instance([(i, 1.0, 0.0, 1.0) for i in ids], float(rng.integers(1, n + 2)))
    if kind == 3:  # zero demands: everyone fits, whatever the capacity
        rows = [(i, 0.0, 0.0, float(rng.integers(0, 4))) for i in ids]
        return build_instance(rows, float(rng.uniform(0.5, 2.0)))
    # demands and valuations whose sums and squares pass the float range
    rows = [(i, float(rng.choice([0.0, 1e153, 3e153])), float(rng.choice([0.0, 2e153])),
             float(rng.choice([0.0, 1e307, 8e307, 1.7976931348623157e308]))) for i in ids]
    return build_instance(rows, float(rng.uniform(1.0e154, 1.3e154)))


def mixed_batches():
    """(label, instances, rel_tol): batches of 1 to 6 instances of one size,
    each mixing the ``batch_member`` kinds."""
    rng = np.random.default_rng(233)
    for n in (0, 1, 2, 5, 8):
        for size in range(1, 7):
            rel_tol = 0.0 if size % 3 == 0 else 1e-9
            instances = [batch_member(rng, n, (size + k) % 5) for k in range(size)]
            yield f"n={n} batch={size}", instances, rel_tol


class TestSearchBatch:
    """Each instance of a batch gets the answer it gets alone, and the reference's."""

    @pytest.mark.parametrize("cells", [1, 2, 100, gsa_module._SEED_BLOCK_CELLS])
    @pytest.mark.parametrize("epsilon", [0.6, 1 / 4, 1 / 5, 1e-310])
    def test_each_instance_matches_gsa_and_the_reference(self, epsilon, cells, monkeypatch):
        # epsilon 0.6 gives m = 0 and 1e-310 gives m = n; at 1 and 2 cells a
        # block holds one seed of one instance, so block edges fall inside an
        # instance's seeds and between instances; at 100 cells a block holds
        # all seeds of a size of several n = 5 instances, or of one n = 8
        # instance at size 1, or part of one instance's
        config = GsaConfig(epsilon)
        monkeypatch.setattr(gsa_module, "_SEED_BLOCK_CELLS", cells)
        for label, instances, rel_tol in mixed_batches():
            retained, objectives = _search_batch(instances, config, rel_tol)
            assert retained.shape == (len(instances), len(instances[0])), label
            assert objectives.shape == (len(instances),), label
            assert retained.dtype == bool and objectives.dtype == np.float64, label
            for inst, mask, objective in zip(instances, retained, objectives.tolist()):
                ids = frozenset(inst.columns.id[mask].tolist())
                alone = gsa(inst, config, rel_tol)
                assert (ids, objective) == (alone.retained_ids, alone.objective), label
                if config.max_subset_size(len(inst)) == 0:
                    plain = gda(inst, rel_tol)
                    assert (ids, objective) == (plain.retained_ids, plain.objective), label
                else:
                    expected = reference_gsa_search(inst, config, rel_tol)
                    assert (ids, objective) == expected[:2], label

    def test_empty_batch(self):
        retained, objectives = _search_batch([], GsaConfig(0.25), 1e-9)
        assert retained.shape == (0, 0) and objectives.shape == (0,)


def all_tied_instance(n: int) -> Instance:
    """n identical customers, ten of which fit: every seed completes to 10.0."""
    return build_instance([(k, 1.0, 0.0, 1.0) for k in range(n)], 10.0)


def bound_cases():
    """(label, instance, rel_tol) cases that stress the Phase 2 seed bound."""
    rng = np.random.default_rng(229)
    cases = [(f"integer ties n={n}", tied_instance(rng, n), 1e-9) for n in (6, 9, 12)]
    cases.append(("all-zero demands", build_instance(
        [(k, 0.0, 0.0, float(rng.integers(0, 4))) for k in range(9)], 1.0), 1e-9))
    rows = []
    for k in range(11):
        p, q = (0.0, 0.0) if k % 3 == 0 else (float(rng.integers(1, 5)), float(rng.integers(0, 3)))
        rows.append((k, p, q, float(rng.integers(0, 6))))
    cases.append(("some-zero demands", build_instance(rows, 7.0), 1e-9))
    rows = [(k, float(rng.uniform(0.5, 4.0)), 0.0, float(rng.uniform(1, 9))) for k in range(11)]
    cases.append(("theta 0", build_instance(rows, 9.0), 1e-9))
    rows = [
        (k, *((float(rng.integers(1, 4)), 0.0) if k % 2 else (0.0, float(rng.integers(1, 4)))),
         float(rng.integers(1, 5)))
        for k in range(11)
    ]
    cases.append(("theta pi/2", build_instance(rows, 6.0), 1e-9))
    for rel_tol in (0.0, 1e-9):
        inst = random_instance(rng, 11, magnitude_range=(1.0, 2.0))
        chosen = [0, 2, 3, 7]  # four demands of 1-2 VA outweigh any single one
        sum_p = sum_q = 0.0
        for k in chosen:
            sum_p += float(inst.columns.p[k])
            sum_q += float(inst.columns.q[k])
        cases.append((f"capacity on a subset rel_tol={rel_tol}",
                      Instance(inst.columns, math.hypot(sum_p, sum_q)), rel_tol))
    rows = [
        (k, float(rng.choice([0.0, 1e153, 3e153])), float(rng.choice([0.0, 2e153])),
         float(rng.choice([0.0, 1e307, 8e307, 1.7976931348623157e308])))
        for k in range(10)
    ]
    cases.append(("near the float range", build_instance(rows, 1.3e154), 1e-9))
    cases.append(("all tied n=14", all_tied_instance(14), 1e-9))
    return cases


class TestSeedBound:
    """Phase 2 completes only the seeds whose projected bound can reach the
    incumbent, by descending bound."""

    @pytest.mark.parametrize("epsilon", [1 / 3, 1 / 4, 1 / 5])
    @pytest.mark.parametrize("case", bound_cases(), ids=lambda case: case[0])
    def test_every_cut_over_matches_the_reference(self, case, epsilon):
        label, inst, rel_tol = case
        expected = reference_gsa_search(inst, GsaConfig(epsilon), rel_tol)
        assert search_ids(inst, GsaConfig(epsilon), rel_tol) == expected[:2], label

    def test_a_tie_completed_later_wins_by_rank(self):
        # seed {1} has the higher bound (3 against 2), so it is completed
        # first; seed {0} then ties its objective with another set, and wins
        inst = build_instance([(0, 2.0, 0.0, 2.0), (1, 1.0, 0.0, 2.0)], 2.0)
        expected = reference_gsa_search(inst, GsaConfig(1 / 3))
        assert expected == (frozenset({0}), 2.0, (0,))
        assert search_ids(inst, GsaConfig(1 / 3)) == expected[:2]

    def test_all_tied_matches_the_reference_at_n_40(self):
        inst = all_tied_instance(40)
        expected = reference_gsa_search(inst, GsaConfig(1 / 5))
        assert search_ids(inst, GsaConfig(1 / 5)) == expected[:2]
        assert expected[1] == 10.0 and expected[2] == (0, 1, 2)


def count_completions(monkeypatch) -> dict:
    """Count the seeds that ``_search_batch`` completes: the rows it hands to
    ``_best_of_scans_rows``, whether the kernel steps over them together or passes
    them to ``_best_of_scans`` one by one."""
    counts = {"seeds": 0}
    best_of_scans_rows = gsa_module._best_of_scans_rows

    def counting_best_of_scans_rows(instances, orders, limit_sq, trial, *args):
        counts["seeds"] += len(trial)
        return best_of_scans_rows(instances, orders, limit_sq, trial, *args)

    monkeypatch.setattr(gsa_module, "_best_of_scans_rows", counting_best_of_scans_rows)
    return counts


def feasible_seed_count(inst: Instance, m: int) -> int:
    """Size-m subsets that pass the fit test, summed left to right in storage order."""
    p, q = inst.columns.p.tolist(), inst.columns.q.tolist()
    limit_sq = inst.capacity_limit_sq(CAPACITY_REL_TOL)
    count = 0
    for seed in combinations(range(len(inst)), m):
        sum_p = sum_q = 0.0
        for k in seed:
            sum_p += p[k]
            sum_q += q[k]
        count += sum_p * sum_p + sum_q * sum_q <= limit_sq
    return count


class TestSeedWork:
    """Work counts, not times: how many Phase 2 seeds are completed."""

    def test_sweep_instances_complete_few_seeds(self, monkeypatch):
        # the perfbench sweep plan's n = 18 trials: FCR, 25 kVA, eps = 1/4
        plan = plan_from_dict({
            "scenario": {"acronym": "FCR", "capacity": 25_000.0, "seed": 123},
            "n_values": [18], "trials_per_n": 30, "algorithms": ["gsa"],
            "oracle": "none", "gsa_epsilon": 0.25,
        })
        instances = [instance_for_trial(plan, 18, trial) for trial in range(30)]
        feasible = sum(feasible_seed_count(inst, 2) for inst in instances)
        counts = count_completions(monkeypatch)
        for inst in instances:
            gsa(inst, GsaConfig(0.25))
        assert feasible > 3_000
        assert counts["seeds"] < 0.1 * feasible

    def test_a_batch_completes_no_more_seeds_than_its_instances_alone(self, monkeypatch):
        # the perfbench sweep plan's n = 18 trials as one batch, as ``bench`` runs them
        plan = plan_from_dict({
            "scenario": {"acronym": "FCR", "capacity": 25_000.0, "seed": 123},
            "n_values": [18], "trials_per_n": 30, "algorithms": ["gsa"],
            "oracle": "none", "gsa_epsilon": 0.25,
        })
        instances = [instance_for_trial(plan, 18, trial) for trial in range(30)]
        counts = count_completions(monkeypatch)
        retained, objectives = _search_batch(instances, GsaConfig(0.25), CAPACITY_REL_TOL)
        completed = counts["seeds"]
        alone = [gsa(inst, GsaConfig(0.25)) for inst in instances]
        assert 0 < completed <= counts["seeds"] - completed
        for inst, mask, objective, solution in zip(instances, retained, objectives, alone):
            assert frozenset(inst.columns.id[mask].tolist()) == solution.retained_ids
            assert objective == solution.objective

    def test_rounds_complete_less_than_twice_a_one_at_a_time_visit(self, monkeypatch):
        # the sweep's n = 18 trials (m = 2): a visit one seed at a time, by
        # descending bound from Phase 1's best singleton, completes c seeds
        # before a bound falls below its incumbent; the rounds complete those
        # c and fewer than c more
        plan = plan_from_dict({
            "scenario": {"acronym": "FCR", "capacity": 25_000.0, "seed": 123},
            "n_values": [18], "trials_per_n": 30, "algorithms": ["gsa"],
            "oracle": "none", "gsa_epsilon": 0.25,
        })
        oracle_module = importlib.import_module("curtail.oracle")
        counts = count_completions(monkeypatch)
        for trial in range(30):
            inst = instance_for_trial(plan, 18, trial)
            cols, limit_sq = inst.columns, inst.capacity_limit_sq(CAPACITY_REL_TOL)
            seeds = [seed for seed in combinations(range(18), 2)
                     if is_feasible(inst, cols.id[list(seed)].tolist())]
            bounds = oracle_module._projected_bounds(
                *(a[None, :] for a in (cols.p, cols.q, cols.valuation, cols.id)),
                np.array([limit_sq]), np.array(seeds), np.zeros(len(seeds), dtype=np.intp),
            )
            incumbent, one_at_a_time = float(cols.valuation.max()), 0
            for k in np.argsort(-bounds, kind="stable").tolist():
                if bounds[k] < incumbent:
                    break
                one_at_a_time += 1
                ids = cols.id[list(seeds[k])].tolist()
                pool = [i for i, u in zip(cols.id.tolist(), cols.valuation.tolist())
                        if u <= cols.valuation[list(seeds[k])].min() and i not in ids]
                incumbent = max(incumbent, gda_forced(inst, ids, pool).objective)
            counts["seeds"] = 0
            gsa(inst, GsaConfig(0.25))
            assert 0 < one_at_a_time <= counts["seeds"] <= 2 * one_at_a_time - 1

    def test_all_tied_seeds_are_all_completed(self, monkeypatch):
        # every seed ties the best objective, and a tied seed is never pruned
        inst = all_tied_instance(40)
        counts = count_completions(monkeypatch)
        assert gsa(inst, GsaConfig(1 / 5)).objective == 10.0
        assert counts["seeds"] == math.comb(40, 3)
