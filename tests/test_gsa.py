"""Enumeration-boosted solver: size arithmetic, phases, guarantee, exactness."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

from curtail import (
    ComplexDemand,
    Customer,
    GsaConfig,
    Instance,
    SortKey,
    alignment_factor,
    brute_force_vmax,
    gda,
    gsa,
    gsa_subset_count,
    is_feasible,
    max_phase_spread,
    restrict_to_capacity,
    retained_valuation,
    spec_from_acronym,
    generate,
)
from curtail.greedy import scan_order
from curtail.gsa import _search

# the package's ``gsa`` function shadows the module as an attribute of ``curtail``
gsa_module = importlib.import_module("curtail.gsa")
from conftest import build_instance, random_instance, reference_gsa_search


def search_ids(inst: Instance, config: GsaConfig):
    """``_search`` with its storage indices mapped to ids, as the reference returns them."""
    retained, objective = _search(inst, config, 1e-9)
    return frozenset(inst.columns.id[retained].tolist()), objective


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
        sol = gsa(Instance([], 5.0), GsaConfig(0.25))
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
        # _search returns no seed, so this checks the reference, whose ids
        # TestAgainstPerSeedReference requires _search to match exactly
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
        inst = Instance(
            [Customer(i, ComplexDemand(p, q), u, u) for i, p, q, u in rows], 2.0
        )
        sol = gsa(inst, GsaConfig(1 / 3))  # m = 1: singleton seeds
        assert sol.retained_ids == {0, 1}
        assert sol.objective == 10.0

    def test_equal_objective_seeds_resolve_to_smallest_ids(self):
        # four identical customers, C fits exactly two: every size-2 seed
        # ties at objective 2, so the id-lexicographic smallest must win
        # regardless of customer storage order
        rows = [(3, 1.0, 0.0, 1.0), (0, 1.0, 0.0, 1.0), (2, 1.0, 0.0, 1.0), (1, 1.0, 0.0, 1.0)]
        inst = Instance(
            [Customer(i, ComplexDemand(p, q), u, u) for i, p, q, u in rows], 2.0
        )
        ids, objective = search_ids(inst, GsaConfig(0.25))
        assert objective == 2.0
        assert set(ids) == {0, 1}


class TestAgainstPerSeedReference:
    """``_search`` sorts once per instance; the reference re-sorts every seed's
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
            sub = Instance._from_columns(inst.columns.take(pool), inst.capacity)
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
