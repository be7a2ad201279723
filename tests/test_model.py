"""Core model: demand arithmetic, feasibility, phase geometry, value models."""

import dataclasses
import importlib
import json
import math
import warnings
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curtail import (
    ComplexDemand,
    Customer,
    DemandExceedsCapacityError,
    FormatError,
    GsaConfig,
    Instance,
    InstanceError,
    LinearValue,
    QuadraticValue,
    Solution,
    UnknownCustomerError,
    aggregate_demand,
    alignment_factor,
    brute_force_vmax,
    cmin_gda,
    dump_instance,
    gda,
    generate,
    gsa,
    instance_from_dict,
    instance_to_dict,
    is_feasible,
    load_instance,
    magnitude,
    magnitude_sum_ratio,
    magnitude_sum_ratio_bound,
    max_phase_spread,
    restrict_to_capacity,
    retained_valuation,
    spec_from_acronym,
    storage_sum,
    with_capacity,
)
from curtail.model import MAX_CUSTOMER_ID, InstanceColumns
from conftest import build_instance, reference_instance_from_dict

model_module = importlib.import_module("curtail.model")


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
        assert inst.columns.id.tolist() == [2**63 - 1]
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

    @pytest.mark.parametrize("capacity, rel_tol", [(1e200, 1e-9), (1e200, 0.0), (1000.0, 1e300)])
    def test_limit_squaring_to_inf_rejected(self, capacity, rel_tol):
        # an inf squared limit would let every selection fit: two customers of
        # 7e199 VA each used to be retained together under a 1e200 VA capacity
        rows = [(0, 7e199, 7e199, 1.0, 1.0), (1, 7e199, 7e199, 1.0, 1.0)]
        inst = build_instance(rows if capacity == 1e200 else [(0, 1.0, 0.0, 1.0)], capacity)
        with pytest.raises(ValueError, match="squares to inf"):
            inst.capacity_limit_sq(rel_tol)
        gsa_quarter = lambda i, rel_tol: gsa(i, GsaConfig(0.25), rel_tol)
        for solve in (gda, cmin_gda, brute_force_vmax, gsa_quarter):
            with pytest.raises(ValueError, match="squares to inf"):
                solve(inst, rel_tol=rel_tol)
        with pytest.raises(ValueError, match="squares to inf"):
            is_feasible(inst, inst.ids, rel_tol)

    def test_largest_capacities_still_solve(self):
        # 1.3e154 squared is still finite; the active sum of all twelve demands,
        # 1.44e154, squares past the float range, which is infeasible, not a warning
        rows = [(k, 1.2e153, 3e152, float(k + 1)) for k in range(12)]
        inst = build_instance(rows, 1.3e154)
        assert math.isfinite(inst.capacity_limit_sq())
        assert not is_feasible(inst, inst.ids)
        greedy, optimum = gda(inst), brute_force_vmax(inst)
        assert is_feasible(inst, greedy.retained_ids)
        assert greedy.objective <= optimum.objective
        assert is_feasible(inst, optimum.retained_ids)

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
        with pytest.raises(ValueError, match="undefined"):
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
        assert QuadraticValue(1.0).value_of(ComplexDemand(0, 0).magnitude()) == 0.0

    def test_quadratic_square_of_magnitude(self):
        assert QuadraticValue(1.0).value_of(ComplexDemand(3, 4).magnitude()) == 25.0

    def test_linear(self):
        assert LinearValue(2.0, 1.0).value_of(ComplexDemand(3, 4).magnitude()) == 11.0

    def test_model_validation(self):
        with pytest.raises(InstanceError):
            QuadraticValue(0.0)
        with pytest.raises(InstanceError):
            LinearValue(0.0, 1.0)

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


COLUMN_NAMES = ("id", "p", "q", "valuation", "compensation", "mag")


def loop_sum(values, indices) -> float:
    """The reference for ``storage_sum``: a plain ``+=`` loop from 0.0."""
    total = 0.0
    for i in indices:
        total += values[i]
    return total


# Summands: ordinary magnitudes, signed zeros, subnormals and values near overflow.
_SUMMAND = st.one_of(
    st.floats(0.0, 1e6),
    st.sampled_from([0.0, -0.0, 1e-320, 5e-324, 1e308, 1.7976931348623157e308]),
)


class TestStorageSum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SUMMAND, max_size=40), st.data())
    def test_equals_the_loop_for_every_index_form(self, values, data):
        mask = data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
        indices = [i for i, keep in enumerate(mask) if keep]
        expected = loop_sum(values, indices)
        array = np.array(values, dtype=np.float64)
        for vals, idx in (
            (array, np.array(indices, dtype=np.int64)),
            (values, indices),
            (array, np.array(mask, dtype=bool)),
        ):
            got = storage_sum(vals, idx)
            assert type(got) is float
            assert got == expected
            assert math.copysign(1.0, got) == math.copysign(1.0, expected)

    def test_empty_selection_is_positive_zero(self):
        for idx in ([], np.empty(0, dtype=np.int64), np.zeros(3, dtype=bool)):
            got = storage_sum(np.array([1.0, 2.0, 3.0]), idx)
            assert type(got) is float and got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_negative_zeros_sum_to_positive_zero(self):
        got = storage_sum(np.full(4, -0.0), np.arange(4))
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_subnormals_add_exactly(self):
        assert storage_sum([1e-320] * 3, [0, 1, 2]) == loop_sum([1e-320] * 3, [0, 1, 2])

    def test_overflow_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert storage_sum(np.array([1.7e308, 1.7e308]), [0, 1]) == math.inf

    # At most _LOOP_SUM_MAX selected values are added by a Python loop, more
    # by the numpy accumulation; the tests above run on the loop side.

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SUMMAND, max_size=40), st.data())
    def test_accumulation_side_equals_the_loop(self, values, data):
        mask = data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
        indices = [i for i, keep in enumerate(mask) if keep]
        expected = loop_sum(values, indices)
        with mock.patch.object(model_module, "_LOOP_SUM_MAX", -1):
            for idx in (indices, np.array(mask, dtype=bool)):
                got = storage_sum(np.array(values, dtype=np.float64), idx)
                assert type(got) is float
                assert got == expected
                assert math.copysign(1.0, got) == math.copysign(1.0, expected)

    @pytest.mark.parametrize("cut_over", [-1, 10**9], ids=["accumulation", "loop"])
    def test_edge_values_on_both_sides(self, cut_over):
        with mock.patch.object(model_module, "_LOOP_SUM_MAX", cut_over), warnings.catch_warnings():
            warnings.simplefilter("error")
            for got in (storage_sum(np.full(4, -0.0), np.arange(4)), storage_sum([1.0], [])):
                assert type(got) is float and got == 0.0 and math.copysign(1.0, got) == 1.0
            assert storage_sum([1e-320] * 3, [0, 1, 2]) == loop_sum([1e-320] * 3, [0, 1, 2])
            assert storage_sum(np.array([1.7e308, 1.7e308]), [0, 1]) == math.inf

    def test_selection_sizes_around_the_cut_over(self):
        rng = np.random.default_rng(7)
        cut = model_module._LOOP_SUM_MAX
        for size in (cut - 1, cut, cut + 1, 4 * cut):
            values = rng.uniform(0.0, 1e6, size + 9)
            indices = np.sort(rng.choice(len(values), size, replace=False))
            assert storage_sum(values, indices) == loop_sum(values.tolist(), indices.tolist())


class TestColumnStorage:
    def test_columns_match_the_customers(self, valuation_trap):
        cols = valuation_trap.columns
        for k, c in enumerate(valuation_trap.customers):
            assert cols.id[k] == c.id
            assert cols.p[k] == c.demand.active_p
            assert cols.q[k] == c.demand.reactive_q
            assert cols.valuation[k] == c.valuation
            assert cols.compensation[k] == c.compensation

    def test_columns_are_the_six_arrays(self, valuation_trap):
        assert tuple(f.name for f in dataclasses.fields(InstanceColumns)) == COLUMN_NAMES

    def test_column_arrays_are_read_only(self, valuation_trap):
        built = {
            "Instance": Instance(valuation_trap.customers, 10.0),
            "instance_from_dict": instance_from_dict(instance_to_dict(valuation_trap)),
            "generate": generate(spec_from_acronym("FUM", 20, 2e6, seed=5)),
            "restrict_to_capacity": restrict_to_capacity(valuation_trap, 5.0),
            "with_capacity": with_capacity(valuation_trap, 11.0),
        }
        for path, inst in built.items():
            for name in COLUMN_NAMES:
                column = getattr(inst.columns, name)
                assert column.dtype == (np.int64 if name == "id" else np.float64), (path, name)
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 1.0

    def test_attribute_assignment_raises(self, valuation_trap):
        with pytest.raises(AttributeError):
            valuation_trap.capacity = 5.0
        with pytest.raises(AttributeError):
            valuation_trap.customers = ()
        with pytest.raises(AttributeError):
            del valuation_trap.capacity
        assert valuation_trap.capacity == 10.0

    def test_equality_means_same_customers_and_capacity(self, valuation_trap):
        same = Instance(list(valuation_trap.customers), 10)
        assert same == valuation_trap
        assert hash(same) == hash(valuation_trap)
        assert with_capacity(valuation_trap, 11.0) != valuation_trap
        reordered = Instance(reversed(valuation_trap.customers), 10.0)
        assert reordered != valuation_trap
        first = valuation_trap.customers[0]
        changed = (
            Customer(first.id, first.demand, first.valuation, first.compensation + 1.0),
            *valuation_trap.customers[1:],
        )
        assert Instance(changed, 10.0) != valuation_trap

    def test_customers_built_on_first_read(self, valuation_trap):
        doc = instance_to_dict(valuation_trap)
        inst = instance_from_dict(doc)
        assert "customers" not in inst.__dict__
        assert inst.customers == valuation_trap.customers
        assert inst.customers is inst.customers

    def test_library_paths_never_build_customers(self):
        rng = np.random.default_rng(3)
        doc = {
            "capacity": 30.0,
            "customers": [
                {"id": k, "p": float(p), "q": float(q), "valuation": float(u),
                 "compensation": float(u)}
                for k, (p, q, u) in enumerate(rng.uniform(0.5, 8.0, (12, 3)))
            ],
        }
        inst = instance_from_dict(doc)
        gda(inst)
        gsa(inst, GsaConfig(0.34))
        cmin_gda(inst)
        brute_force_vmax(inst)
        max_phase_spread(inst)
        instance_to_dict(inst)
        restrict_to_capacity(with_capacity(inst, 40.0), 6.0)
        assert "customers" not in inst.__dict__

    def test_columns_stay_a_class_level_cached_property(self):
        # tracing wraps the computing access of Instance.__dict__["columns"]
        assert isinstance(Instance.__dict__["columns"], cached_property)


NUMBER_FIELDS = ("p", "q", "valuation", "compensation")
TINY = st.one_of(st.just(-0.0), st.floats(0.0, 1e-300))
DEMANDS = st.one_of(st.integers(0, 700), st.floats(0.0, 700.0), TINY)
VALUES = st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e6), TINY, st.integers(2**53, 2**70))


def _mutate(draw, doc: dict) -> None:
    """Break ``doc`` in one of the ways an instance file can be wrong."""
    kind = draw(st.sampled_from((
        "drop_key", "bad_value", "negative", "bad_id", "duplicate_id", "oversized",
        "non_object", "empty", "bad_capacity", "huge_literal", "bad_customers",
    )))
    customers = doc["customers"]
    if kind == "empty":
        doc["customers"] = []
    elif kind == "bad_customers":
        doc["customers"] = draw(st.sampled_from(({"id": 0}, None, "[]")))
    elif kind == "bad_capacity":
        bad = draw(st.sampled_from((0, -1.0, math.nan, math.inf, "10", True, None, 10**400, "drop")))
        if bad == "drop":
            doc.pop("capacity", None)
        else:
            doc["capacity"] = bad
    elif not isinstance(customers, list) or not customers:
        return
    else:
        k = draw(st.integers(0, len(customers) - 1))
        item = customers[k]
        if kind == "non_object":
            customers[k] = draw(st.sampled_from(([], "x", 3, None, [1, 2])))
        elif not isinstance(item, dict):
            return
        elif kind == "drop_key":
            item.pop(draw(st.sampled_from(("id",) + NUMBER_FIELDS)), None)
        elif kind == "bad_value":
            field = draw(st.sampled_from(("id",) + NUMBER_FIELDS))
            item[field] = draw(st.sampled_from(
                (True, False, "1", None, math.nan, math.inf, -math.inf)
            ))
        elif kind == "negative":
            field = draw(st.sampled_from(NUMBER_FIELDS))
            item[field] = -draw(st.one_of(st.integers(1, 10), st.floats(1e-300, 1e3)))
        elif kind == "bad_id":
            item["id"] = draw(st.sampled_from((1.0, 2.5, -1, -(2**70), 2**63, 2**64, 10**400)))
        elif kind == "duplicate_id":
            other = customers[draw(st.integers(0, len(customers) - 1))]
            if isinstance(other, dict) and "id" in other:
                item["id"] = other["id"]
        elif kind == "oversized":
            item[draw(st.sampled_from(("p", "q")))] = 1e9
        else:
            item[draw(st.sampled_from(("id",) + NUMBER_FIELDS))] = 10**400


@st.composite
def instance_documents(draw):
    ids = draw(st.lists(st.integers(0, MAX_CUSTOMER_ID), max_size=6, unique=True))
    capacity = draw(st.one_of(st.integers(1000, 10**4), st.floats(1000.0, 1e4)))
    customers = [
        {
            "id": cid, "p": draw(DEMANDS), "q": draw(DEMANDS),
            "valuation": draw(VALUES), "compensation": draw(VALUES),
        }
        for cid in ids
    ]
    doc = {"capacity": capacity, "customers": customers}
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, doc)
    return doc


def _load(loader, doc):
    try:
        return loader(doc), None
    except Exception as exc:  # compared below: class and message must agree
        return None, exc


class TestLoaderMatchesPerCustomerReference:
    @settings(max_examples=600, deadline=None)
    @given(instance_documents())
    def test_same_error_or_same_instance(self, doc):
        got, got_exc = _load(instance_from_dict, doc)
        want, want_exc = _load(reference_instance_from_dict, doc)
        if want_exc is not None or got_exc is not None:
            assert type(got_exc) is type(want_exc)
            assert str(got_exc) == str(want_exc)
            return
        assert got.capacity == want.capacity
        for name in COLUMN_NAMES:
            a, b = getattr(got.columns, name), getattr(want.columns, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.customers == want.customers

    @pytest.mark.parametrize("field", ("p", "valuation", "compensation"))
    def test_integer_too_large_for_a_float_is_format_error(self, field):
        doc = {
            "capacity": 10.0,
            "customers": [{"id": 0, "p": 1.0, "q": 0.0, "valuation": 1, "compensation": 1}],
        }
        doc["customers"][0][field] = 10**400
        with pytest.raises(FormatError, match=rf"customers\[0\]\.{field}: integer too large"):
            instance_from_dict(doc)

    def test_first_failing_customer_is_named(self):
        good = {"id": 0, "p": 1.0, "q": 0.0, "valuation": 1, "compensation": 1}
        doc = {
            "capacity": 10.0,
            "customers": [good, {**good, "id": 1, "q": -1.0}, {**good, "id": 2, "p": "x"}],
        }
        with pytest.raises(FormatError, match=r"customers\[1\]: demand must lie"):
            instance_from_dict(doc)

    def test_non_dict_mappings_accepted(self, valuation_trap):
        from types import MappingProxyType

        doc = instance_to_dict(valuation_trap)
        doc["customers"] = [MappingProxyType(item) for item in doc["customers"]]
        assert instance_from_dict(doc) == valuation_trap


def _assert_column_is_demand_magnitude(inst: Instance) -> None:
    magnitudes = [c.demand.magnitude() for c in inst.customers]
    assert inst.columns.mag.tolist() == magnitudes


class TestOneMagnitude:
    """The magnitude column holds ``ComplexDemand.magnitude()`` exactly, the
    value that the oversize check and ``restrict_to_capacity`` compare."""

    @pytest.mark.parametrize("acronym", [p + c + t for p in "FA" for c in "CUL" for t in "RIM"])
    def test_generated_column_is_the_demand_magnitude(self, acronym):
        _assert_column_is_demand_magnitude(generate(spec_from_acronym(acronym, 2000, 2e6, seed=3)))

    def test_loaded_column_is_the_demand_magnitude(self, tmp_path):
        path = str(tmp_path / "instance.json")
        dump_instance(generate(spec_from_acronym("FUM", 2000, 2e6, seed=4)), path)
        _assert_column_is_demand_magnitude(load_instance(path))
