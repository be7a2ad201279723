"""Core model: demand arithmetic, feasibility, phase geometry, value models."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curtail import (
    ComplexDemand,
    DemandExceedsCapacityError,
    FormatError,
    InstanceError,
    LinearValue,
    QuadraticValue,
    Solution,
    UncorrelatedValue,
    UnknownCustomerError,
    aggregate_demand,
    alignment_factor,
    evaluate_valuation,
    instance_from_dict,
    instance_to_dict,
    is_feasible,
    magnitude,
    magnitude_sum_ratio,
    magnitude_sum_ratio_bound,
    max_phase_spread,
    retained_valuation,
)
from conftest import build_instance


class TestComplexDemand:
    def test_zero_magnitude(self):
        assert magnitude(ComplexDemand(0.0, 0.0)) == 0.0

    def test_pythagorean_triple(self):
        assert magnitude(ComplexDemand(3.0, 4.0)) == 5.0

    def test_large_demand_magnitude(self):
        # frozen via exact integer sqrt: sqrt(564899^2 + 42741^2)
        expected = 566513.6126184436
        got = magnitude(ComplexDemand(564899.0, 42741.0))
        assert abs(got - expected) / expected < 1e-6

    def test_rejects_negative_components(self):
        with pytest.raises(InstanceError):
            ComplexDemand(-1.0, 0.0)
        with pytest.raises(InstanceError):
            ComplexDemand(0.0, -0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(InstanceError):
            ComplexDemand(math.inf, 0.0)
        with pytest.raises(InstanceError):
            ComplexDemand(0.0, math.nan)

    def test_phase_range_and_zero_convention(self):
        assert ComplexDemand(0.0, 0.0).phase() == 0.0
        assert ComplexDemand(1.0, 0.0).phase() == 0.0
        assert ComplexDemand(0.0, 1.0).phase() == pytest.approx(math.pi / 2)


class TestInstance:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(InstanceError, match="duplicate"):
            build_instance([(1, 1, 0, 1), (1, 2, 0, 2)], 10)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(InstanceError):
            build_instance([(1, 1, 0, 1)], 0.0)

    def test_rejects_oversized_demands_listing_ids(self):
        with pytest.raises(DemandExceedsCapacityError) as exc:
            build_instance([(1, 5, 0, 1), (2, 20, 0, 1), (3, 30, 0, 1)], 10)
        assert exc.value.offending_ids == (2, 3)

    def test_demand_equal_to_capacity_is_allowed(self):
        inst = build_instance([(1, 10, 0, 1)], 10)
        assert len(inst) == 1

    def test_ids_must_fit_int64_columns(self):
        inst = build_instance([(2**63 - 1, 1, 0, 1)], 10)
        assert inst.columns.id_list == [2**63 - 1]
        for bad in (2**63, -1, math.inf, math.nan):
            with pytest.raises(InstanceError, match="customer id"):
                build_instance([(bad, 1, 0, 1)], 10)


class TestFeasibility:
    def test_empty_set_always_feasible(self, magnitude_trap):
        assert is_feasible(magnitude_trap, frozenset())

    def test_capacity_filling_singleton(self, magnitude_trap):
        assert is_feasible(magnitude_trap, {2})

    def test_joint_set_overflows(self, magnitude_trap):
        # 1 + F > F for any F > 0
        assert not is_feasible(magnitude_trap, {1, 2})

    def test_unknown_id_raises(self, magnitude_trap):
        with pytest.raises(UnknownCustomerError):
            is_feasible(magnitude_trap, {1, 99})

    @pytest.mark.parametrize("rel_tol", [-2.0, -1e-12, math.nan, math.inf])
    def test_meaningless_rel_tol_rejected(self, magnitude_trap, rel_tol):
        with pytest.raises(ValueError, match="rel_tol"):
            is_feasible(magnitude_trap, {2}, rel_tol=rel_tol)

    def test_zero_rel_tol_is_the_exact_capacity(self, magnitude_trap):
        assert magnitude_trap.capacity_limit_sq(0.0) == 100.0 * 100.0

    def test_monotone_under_removal(self):
        # first-quadrant demands: dropping customers shrinks both components
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            mags = rng.uniform(0.5, 4.0, n)
            phases = rng.uniform(0, math.pi / 2, n)
            rows = [
                (k, mags[k] * math.cos(phases[k]), mags[k] * math.sin(phases[k]), 1.0)
                for k in range(n)
            ]
            actual = [math.hypot(r[1], r[2]) for r in rows]
            inst = build_instance(rows, max(max(actual), float(mags.sum()) * 0.6))
            ids = [c.id for c in inst.customers]
            feasible = [set(ids[: k + 1]) for k in range(n) if is_feasible(inst, ids[: k + 1])]
            for sel in feasible:
                for drop in list(sel):
                    assert is_feasible(inst, sel - {drop})


class TestPhaseSpread:
    def test_all_active_power_is_zero_spread(self):
        inst = build_instance([(1, 1, 0, 1), (2, 5, 0, 1)], 10)
        assert max_phase_spread(inst) == 0.0

    def test_axis_aligned_pair(self):
        inst = build_instance([(1, 1, 0, 1), (2, 0, 1, 1)], 10)
        assert max_phase_spread(inst) == pytest.approx(math.pi / 2)

    def test_three_angles(self):
        rows = [
            (k, math.cos(math.radians(a)), math.sin(math.radians(a)), 1.0)
            for k, a in enumerate((10, 25, 40))
        ]
        inst = build_instance(rows, 10)
        assert max_phase_spread(inst) == pytest.approx(math.radians(30), abs=1e-9)

    def test_zero_magnitude_excluded(self):
        inst = build_instance([(1, 0, 0, 1), (2, 1, 0, 1), (3, 1, 1, 1)], 10)
        assert max_phase_spread(inst) == pytest.approx(math.pi / 4)

    def test_all_zero_demands_error(self):
        inst = build_instance([(1, 0, 0, 1)], 10)
        with pytest.raises(Exception, match="undefined"):
            max_phase_spread(inst)

    @given(
        st.floats(min_value=0.0, max_value=0.4),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_rotation_invariance(self, delta, fractions):
        # rotate all demands by the same angle within the first quadrant
        band = math.pi / 2 - 0.45
        phases = [f * band for f in fractions]
        def inst_at(offset):
            rows = [
                (k, math.cos(phi + offset), math.sin(phi + offset), 1.0)
                for k, phi in enumerate(phases)
            ]
            return build_instance(rows, 100.0)
        base = max_phase_spread(inst_at(0.0))
        rotated = max_phase_spread(inst_at(delta))
        assert rotated == pytest.approx(base, abs=1e-9)


class TestMagnitudeSumRatio:
    def test_single_vector(self):
        assert magnitude_sum_ratio([ComplexDemand(3, 4)]) == pytest.approx(1.0)

    def test_parallel_vectors(self):
        assert magnitude_sum_ratio([ComplexDemand(1, 0), ComplexDemand(1, 0)]) == pytest.approx(1.0)

    def test_right_angle_pair_attains_bound(self):
        ratio = magnitude_sum_ratio([ComplexDemand(1, 0), ComplexDemand(0, 1)])
        bound = magnitude_sum_ratio_bound(math.pi / 2)
        assert abs(ratio - math.sqrt(2)) < 1e-12
        assert abs(ratio - bound) < 1e-12

    def test_zero_aggregate_errors(self):
        with pytest.raises(ValueError):
            magnitude_sum_ratio([ComplexDemand(0, 0)])

    def test_bound_holds_on_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            k = int(rng.integers(1, 9))
            mags = rng.uniform(0.1, 10.0, k)
            phases = rng.uniform(0.0, math.pi / 2, k)
            demands = [
                ComplexDemand(m * math.cos(a), m * math.sin(a))
                for m, a in zip(mags, phases)
            ]
            theta = phases.max() - phases.min()
            assert magnitude_sum_ratio(demands) <= magnitude_sum_ratio_bound(theta) + 1e-9

    def test_alignment_factor_is_cosine_half_angle(self):
        for theta in (0.0, math.radians(36), math.pi / 2):
            assert alignment_factor(theta) == pytest.approx(math.cos(theta / 2), abs=1e-15)
        # the two bound formulations are reciprocal
        for theta in (0.0, 0.3, math.pi / 2):
            assert magnitude_sum_ratio_bound(theta) * alignment_factor(theta) == pytest.approx(1.0)


class TestValuationModels:
    def test_quadratic_zero_demand_zero_value(self):
        got = evaluate_valuation(QuadraticValue(1.0), ComplexDemand(0, 0))
        assert got == (0.0, 0.0)

    def test_quadratic_square_of_magnitude(self):
        got = evaluate_valuation(QuadraticValue(1.0), ComplexDemand(3, 4))
        assert got == (25.0, 25.0)

    def test_linear(self):
        got = evaluate_valuation(LinearValue(2.0, 1.0), ComplexDemand(3, 4))
        assert got == (11.0, 11.0)

    def test_uncorrelated_draws_in_open_intervals(self):
        rng = np.random.default_rng(3)
        model = UncorrelatedValue(10.0, 5.0)
        for _ in range(500):
            v, c = evaluate_valuation(model, ComplexDemand(1, 0), rng)
            assert 0.0 < v <= 10.0
            assert 0.0 < c < 5.0

    def test_uncorrelated_requires_rng(self):
        with pytest.raises(ValueError):
            evaluate_valuation(UncorrelatedValue(1.0, 1.0), ComplexDemand(1, 0))

    def test_model_validation(self):
        with pytest.raises(InstanceError):
            QuadraticValue(0.0)
        with pytest.raises(InstanceError):
            LinearValue(0.0, 1.0)
        with pytest.raises(InstanceError):
            UncorrelatedValue(0.0, 1.0)

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_quadratic_strictly_increasing_and_midpoint_convex(self, x, y):
        model = QuadraticValue(2.0, 1.0, 0.5)
        lo, hi = sorted((x, y))
        if hi - lo > 1e-6:
            assert model.value_of(lo) < model.value_of(hi)
            mid = model.value_of((lo + hi) / 2)
            assert mid < (model.value_of(lo) + model.value_of(hi)) / 2


class TestSerde:
    def test_round_trip(self, valuation_trap):
        doc = instance_to_dict(valuation_trap)
        again = instance_from_dict(json.loads(json.dumps(doc)))
        assert instance_to_dict(again) == doc

    def test_missing_field_reports_path(self):
        doc = {"capacity": 10, "customers": [{"id": 0, "p": 1, "q": 0, "valuation": 1}]}
        with pytest.raises(FormatError, match=r"customers\[0\]"):
            instance_from_dict(doc)

    def test_non_numeric_field_rejected(self):
        doc = {
            "capacity": 10,
            "customers": [
                {"id": 0, "p": "big", "q": 0, "valuation": 1, "compensation": 1}
            ],
        }
        with pytest.raises(FormatError, match="expected a number"):
            instance_from_dict(doc)

    def test_id_beyond_int64_is_format_error(self):
        doc = {
            "capacity": 10.0,
            "customers": [
                {"id": 2**63, "p": 1.0, "q": 0.0, "valuation": 1, "compensation": 1}
            ],
        }
        with pytest.raises(FormatError, match=r"customers\[0\].*customer id"):
            instance_from_dict(doc)

    def test_oversized_demand_keeps_its_error_type(self):
        doc = {
            "capacity": 1.0,
            "customers": [
                {"id": 0, "p": 5.0, "q": 0.0, "valuation": 1, "compensation": 1}
            ],
        }
        with pytest.raises(DemandExceedsCapacityError):
            instance_from_dict(doc)

    def test_load_wraps_duplicate_ids_with_path(self, tmp_path):
        from curtail import load_instance

        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "capacity": 10.0,
            "customers": [
                {"id": 1, "p": 1.0, "q": 0.0, "valuation": 1, "compensation": 1},
                {"id": 1, "p": 2.0, "q": 0.0, "valuation": 1, "compensation": 1},
            ],
        }))
        with pytest.raises(FormatError, match="dup.json"):
            load_instance(str(path))

    def test_solution_serialization_shape(self, magnitude_trap):
        sol = Solution(
            retained_ids=frozenset({2}),
            objective=retained_valuation(magnitude_trap, {2}),
            aggregate_demand=aggregate_demand(magnitude_trap, {2}),
            algorithm="gva",
            elapsed=0.5,
        )
        doc = sol.to_dict()
        assert doc == {
            "algorithm": "gva",
            "retained": [2],
            "objective": 100.0,
            "aggregate": {"p": 100.0, "q": 0.0},
            "elapsed_us": 500000,
        }
