"""Reverse-greedy compensation minimisers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from curtail import (
    brute_force_cmin,
    cmin_gda,
    cmin_gma,
    cmin_gra,
    cmin_gva,
    curtailed_compensation,
    generate,
    is_feasible,
    retained_valuation,
    spec_from_acronym,
)
from curtail import cmin
from curtail.greedy import SHED_ORDERS, scan_order
from conftest import build_instance, customer_rows, random_instance, reference_cmin

SOLVERS = {"gva": cmin_gva, "gma": cmin_gma, "gra": cmin_gra, "gda": cmin_gda}
SHED_KEYS = tuple(dict.fromkeys(key for keys in SHED_ORDERS.values() for key in keys))


class TestCminGva:
    def test_jointly_feasible_removes_nobody(self):
        rows = [(k, 1.0, 0.0, 1.0, 2.0) for k in range(4)]
        sol = cmin_gva(build_instance(rows, 10.0))
        assert sol.objective == 0.0
        assert sol.retained_ids == {0, 1, 2, 3}

    def test_magnitude_trap_sheds_the_cheap_customer(self, magnitude_trap):
        sol = cmin_gva(magnitude_trap)
        assert sol.retained_ids == {2}
        assert sol.objective == 1.0

    def test_sheds_cheapest_compensation_first(self):
        rows = [(1, 1.0, 0.0, 1.0, 5.0), (2, 1.0, 0.0, 1.0, 3.0)]
        sol = cmin_gva(build_instance(rows, 1.0))
        assert sol.retained_ids == {1}
        assert sol.objective == 3.0


class TestCminGma:
    def test_jointly_feasible(self):
        rows = [(k, 1.0, 0.0, 1.0) for k in range(3)]
        assert cmin_gma(build_instance(rows, 5.0)).objective == 0.0

    def test_magnitude_trap_sheds_the_big_load(self, magnitude_trap):
        sol = cmin_gma(magnitude_trap)
        assert sol.retained_ids == {1}
        assert sol.objective == 100.0

    def test_equal_magnitudes_shed_in_id_order(self):
        rows = [(k, 2.0, 0.0, 1.0, float(10 - k)) for k in (3, 1, 2)]
        sol = cmin_gma(build_instance(rows, 4.0))
        # one removal suffices; descending magnitude ties resolve to id 1
        assert sol.retained_ids == {2, 3}


class TestCminGra:
    def test_jointly_feasible(self):
        rows = [(k, 1.0, 0.0, 1.0) for k in range(3)]
        assert cmin_gra(build_instance(rows, 5.0)).objective == 0.0

    def test_sheds_lowest_compensation_density_first(self):
        rows = [(1, 10.0, 0.0, 1.0, 1.0), (2, 2.0, 0.0, 1.9, 1.9)]
        sol = cmin_gra(build_instance(rows, 10.0))
        assert sol.retained_ids == {2}
        assert sol.objective == 1.0

    def test_single_customer_never_shed(self):
        sol = cmin_gra(build_instance([(0, 5.0, 0.0, 1.0)], 5.0))
        assert sol.objective == 0.0

    def test_zero_magnitude_customers_never_shed(self):
        rows = [(0, 0.0, 0.0, 1.0, 0.001), (1, 5.0, 0.0, 1.0, 10.0), (2, 5.0, 0.0, 1.0, 9.0)]
        sol = cmin_gra(build_instance(rows, 5.0))
        assert 0 in sol.retained_ids


class TestCminGda:
    def test_jointly_feasible(self):
        rows = [(k, 1.0, 0.0, 1.0) for k in range(3)]
        assert cmin_gda(build_instance(rows, 5.0)).objective == 0.0

    def test_takes_the_cheaper_branch(self):
        # the compensation-ascending branch sheds id 2 (pays 1.9); the
        # density branch sheds id 1 (pays 2.0): branches disagree
        rows = [(1, 10.0, 0.0, 2.0, 2.0), (2, 2.0, 0.0, 1.9, 1.9)]
        inst = build_instance(rows, 10.0)
        a, b = cmin_gva(inst).objective, cmin_gra(inst).objective
        assert a != b
        assert cmin_gda(inst).objective == min(a, b)

    def test_magnitude_trap(self, magnitude_trap):
        assert cmin_gda(magnitude_trap).objective == 1.0

    @pytest.mark.parametrize("acronym, sheds", [("FCM", 1), ("FUM", 2)])
    def test_sheds_each_distinct_order_once(self, acronym, sheds, monkeypatch):
        # compensation and compensation per VA sort alike when u = |d|^2
        calls = []
        shed = cmin._shed
        monkeypatch.setattr(cmin, "_shed", lambda *args: calls.append(1) or shed(*args))
        inst = generate(spec_from_acronym(acronym, 200, 5e6, seed=3))
        cmin_gda(inst)
        assert len(calls) == sheds

    def test_equals_min_of_branches_everywhere(self):
        rng = np.random.default_rng(67)
        for _ in range(80):
            inst = random_instance(rng, int(rng.integers(1, 13)), equal_compensation=False)
            assert cmin_gda(inst).objective == min(
                cmin_gva(inst).objective, cmin_gra(inst).objective
            )


class TestRemovalInvariants:
    @staticmethod
    def _removal_order(inst, solver):
        # re-derive each heuristic's shedding order from first principles
        if solver is cmin_gva:
            key = lambda c: (c.compensation, c.id)
        elif solver is cmin_gma:
            key = lambda c: (-c.magnitude, c.id)
        else:
            key = lambda c: (
                float("inf") if c.magnitude == 0 else c.compensation / c.magnitude,
                c.id,
            )
        return [c.id for c in sorted(customer_rows(inst), key=key)]

    def test_feasible_and_minimal_prefix(self):
        # the shed set is exactly the shortest prefix of the removal order
        # whose complement fits; re-adding the last shed customer breaks it
        rng = np.random.default_rng(71)
        for _ in range(80):
            inst = random_instance(rng, int(rng.integers(1, 13)), equal_compensation=False)
            for solver in (cmin_gva, cmin_gma, cmin_gra):
                sol = solver(inst)
                assert is_feasible(inst, sol.retained_ids)
                assert sol.objective == curtailed_compensation(inst, sol.retained_ids)
                shed = inst.ids - sol.retained_ids
                order = self._removal_order(inst, solver)
                assert set(order[: len(shed)]) == shed
                if shed:
                    last = order[len(shed) - 1]
                    assert not is_feasible(inst, sol.retained_ids | {last})

    def test_duality_bookkeeping_with_equal_values(self):
        # with c == u: total value = retained valuation + shed compensation
        rng = np.random.default_rng(73)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            values = rng.integers(1, 60, n)
            mags = rng.uniform(0.5, 4.0, n)
            rows = [(k, float(mags[k]), 0.0, float(values[k])) for k in range(n)]
            inst = build_instance(rows, max(float(mags.max()), float(mags.sum()) * 0.5))
            total = sum(float(v) for v in values)
            for solver in (cmin_gva, cmin_gma, cmin_gra, cmin_gda):
                sol = solver(inst)
                assert retained_valuation(inst, sol.retained_ids) + sol.objective == total

    def test_oracle_gap_is_recorded_not_bounded(self):
        # no worst-case guarantee exists for these adaptations; just check
        # the heuristic never beats the exhaustive optimum
        rng = np.random.default_rng(79)
        gaps = []
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(2, 12)), equal_compensation=False)
            opt = brute_force_cmin(inst).objective
            heur = cmin_gda(inst).objective
            assert heur >= opt - 1e-9 * max(1.0, opt)
            if heur > 0:
                gaps.append(opt / heur)
        assert all(0.0 <= g <= 1.0 + 1e-12 for g in gaps)


# demands and compensations that tie often and whose sums round (tenths),
# with signed zeros and subnormals
_amounts = st.one_of(
    st.integers(0, 6).map(float),
    st.integers(0, 40).map(lambda k: k / 10),
    st.sampled_from([-0.0, 1e-320]),
    st.floats(0.0, 10.0),
)


# Every phase but explain, which only annotates a shrunk failure by re-running
# it hundreds of times; over these cases it took several times as long as the
# shrink itself, so a failing case is reported without it.
_NO_EXPLAIN = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink]


@st.composite
def _cmin_cases(draw):
    # up to 40 customers, so that the bisection over the count shed takes several
    # steps; n is drawn first because st.lists alone averages about five rows.
    # Each row is one tuple, its subset flag included, so that shrinking drops
    # whole rows and a failing case is reported quickly.
    n = draw(st.integers(0, 40))
    row = st.tuples(_amounts, _amounts, _amounts, st.booleans())
    drawn = draw(st.lists(row, min_size=n, max_size=n))
    rows = [(k, pv, qv, 1.0, comp) for k, (pv, qv, comp, _) in enumerate(drawn)]
    # a capacity on the boundary of some subset, where the running
    # subtraction or any other sum can disagree with the canonical one; half
    # the time the subset is what a shedding order keeps after its first k
    subset = [inside for *_, inside in drawn]
    if draw(st.booleans()):
        key = draw(st.sampled_from(SHED_KEYS))
        roomy = build_instance(rows, 1.0 + sum(math.hypot(r[1], r[2]) for r in rows))
        order = scan_order(roomy, key).tolist()
        rest = set(order[draw(st.integers(0, n)) :])
        subset = [k in rest for k in range(n)]
    p = q = 0.0
    for (_, pv, qv, _, _), inside in zip(rows, subset):
        if inside:
            p += pv
            q += qv
    capacity = max([1e-3, math.hypot(p, q)] + [math.hypot(pv, qv) for _, pv, qv, _, _ in rows])
    return build_instance(rows, capacity), draw(st.sampled_from([1e-9, 0.0]))


class TestShedFitIsMonotone:
    """The bisection in ``cmin._shed`` rests on this: along a shedding order,
    the rest's canonical fit is False for some first counts, then True."""

    @given(case=_cmin_cases())
    @settings(max_examples=300, deadline=None, phases=_NO_EXPLAIN)
    def test_fit_is_a_run_of_false_then_a_run_of_true(self, case):
        inst, rel_tol = case
        ids = inst.columns.id
        for key in SHED_KEYS:
            order = scan_order(inst, key)
            fits = [is_feasible(inst, ids[order[k:]].tolist(), rel_tol) for k in range(len(order) + 1)]
            assert fits == sorted(fits), key  # False sorts before True
            assert fits[-1]  # shedding everyone always fits


class TestShedEdges:
    @pytest.mark.parametrize("solver", SOLVERS.values())
    def test_empty_instance(self, solver):
        sol = solver(build_instance([], 1.0))
        assert sol.retained_ids == frozenset()
        assert sol.objective == 0.0

    @pytest.mark.parametrize("solver", SOLVERS.values())
    def test_nobody_shed(self, solver):
        rows = [(k, 0.1, 0.2, 1.0, float(k)) for k in range(50)]
        sol = solver(build_instance(rows, 50.0))
        assert sol.retained_ids == frozenset(range(50))
        assert sol.objective == 0.0

    @pytest.mark.parametrize("solver", SOLVERS.values())
    def test_everyone_shed(self, solver):
        # 0.1**2 + 0.1**2 rounds above hypot(0.1, 0.1)**2: with no slack neither
        # customer fits even alone, though each passes the instance's magnitude check
        rows = [(0, 0.1, 0.1, 1.0, 2.0), (1, 0.1, 0.1, 1.0, 3.0)]
        sol = solver(build_instance(rows, math.hypot(0.1, 0.1)), 0.0)
        assert sol.retained_ids == frozenset()
        assert sol.objective == 2.0 + 3.0

    @pytest.mark.parametrize("algorithm", SOLVERS)
    def test_huge_demands_raise_no_runtime_warning(self, algorithm):
        # the forty demands sum to 4e154 VA: squaring that as a numpy scalar
        # would warn of overflow, squaring it as a Python float gives inf
        rows = [(k, 1e153, 1e152 * (k % 3), 1.0, float(k % 7)) for k in range(40)]
        inst = build_instance(rows, 1.3e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = SOLVERS[algorithm](inst)
        retained, objective = reference_cmin(inst, algorithm)
        assert sol.retained_ids == retained
        assert sol.objective == objective
        assert 0 < len(retained) < 40


def _rest_on_the_boundary(pq, shed_first=None):
    """Rows of integer tenths whose left-to-right sum lies on the capacity.

    The capacity is the exact magnitude of the rows' sum in storage order,
    with no slack.  ``shed_first``, when given, is an extra row at storage
    index 0 that every shedding order sheds first, and only it must go.
    Eight or more rows make a pairwise sum such as ``np.sum`` round away
    from the left-to-right one, so a ``_shed`` that sums another way sheds
    one customer more on these cases.
    """
    rows = [(k + 1, pv, qv, 1.0, 1.0 + k / 10) for k, (pv, qv) in enumerate(pq)]
    p = q = 0.0
    for _, pv, qv, _, _ in rows:
        p += pv
        q += qv
    if shed_first is not None:
        rows.insert(0, (0, *shed_first, 1.0, 0.1))
    return build_instance(rows, math.hypot(p, q)), 0.0


class TestAgainstPerCustomerReference:
    @pytest.mark.parametrize("algorithm", ["gva", "gma", "gra", "gda"])
    @given(case=_cmin_cases())
    @example(case=_rest_on_the_boundary(
        [(1.3, 1.8), (3.9, 3.1), (1.7, 1.4), (2.1, 2.5), (1.2, 3.1), (0.4, 3.7), (1.7, 1.7),
         (2.5, 0.1)]
    ))
    @example(case=_rest_on_the_boundary(
        [(3.9, 3.9), (1.0, 2.2), (1.8, 2.3), (3.9, 2.5), (3.4, 1.6), (2.3, 1.0), (0.2, 2.0),
         (2.2, 1.6), (1.5, 3.4)],
        shed_first=(20.0, 0.0),  # the largest demand at the least compensation per VA
    ))
    @settings(max_examples=300, deadline=None, phases=_NO_EXPLAIN)
    def test_same_retained_set_and_objective(self, algorithm, case):
        inst, rel_tol = case
        solver = {"gva": cmin_gva, "gma": cmin_gma, "gra": cmin_gra, "gda": cmin_gda}[algorithm]
        sol = solver(inst, rel_tol)
        retained, objective = reference_cmin(inst, algorithm, rel_tol)
        assert sol.retained_ids == retained
        assert sol.objective == objective  # float-exact, not approximate

    def test_running_subtraction_drift_does_not_shed_more(self):
        # shedding ids 2 then 1 leaves a running reactive sum of
        # 3.3 + 1.1 - 1.1 = 3.3000000000000003, which does not fit
        # hypot(11, 3.3) exactly; the canonical sum for {0} does
        rows = [(0, 11.0, 3.3, 1.0, 0.53), (1, 0.33, 1.1, 1.0, 0.3), (2, 0.33, 0.0, 1.0, 0.25)]
        inst = build_instance(rows, math.hypot(11.0, 3.3))
        sol = cmin_gva(inst, 0.0)
        assert sol.retained_ids == {0}
        assert sol.objective == 0.3 + 0.25  # shed ids 1 and 2, in storage order
