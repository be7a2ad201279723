"""Scenario taxonomy: acronyms, draws, determinism, range and fraction checks."""

import json
import math

import pytest

from curtail import (
    FormatError,
    LoadType,
    NARROW_LOAD_RANGES,
    PowerKind,
    QuadraticValue,
    ScenarioSpec,
    ValueCorrelation,
    WIDE_LOAD_RANGES,
    generate,
    instance_to_dict,
    max_phase_spread,
    parse_acronym,
    restrict_to_capacity,
    spec_from_acronym,
    with_capacity,
)
from curtail.model import InstanceError
from curtail.scenario import LINEAR_DEFAULTS, LoadRanges


class TestAcronyms:
    def test_rendering_is_deterministic(self):
        spec = ScenarioSpec(
            power=PowerKind.ACTIVE_ONLY,
            correlation=ValueCorrelation.UNCORRELATED,
            load=LoadType.MIXED,
            n=5,
            capacity=1e6,
            seed=1,
        )
        assert spec.acronym == "AUM"

    def test_parse_round_trip(self):
        for acronym in ("FCR", "AUM", "FLM", "ACR", "FUI", "ALI"):
            power, corr, load = parse_acronym(acronym)
            assert power.value + corr.value + load.value == acronym

    def test_unknown_acronyms_rejected(self):
        for bad in ("XYZ", "FC", "FCRX", "QCR", "FZR", "FCQ"):
            with pytest.raises(FormatError):
                parse_acronym(bad)

    def test_lowercase_accepted(self):
        assert parse_acronym("fcr") == (
            PowerKind.FULL,
            ValueCorrelation.CORRELATED,
            LoadType.RESIDENTIAL,
        )


class TestSpecValidation:
    def test_phase_band_must_stay_in_first_quadrant(self):
        with pytest.raises(ValueError):
            spec_from_acronym("FCR", 5, 1e5, 1, phase_anchor=1.2, max_theta=0.8)

    def test_theta_bounds(self):
        with pytest.raises(ValueError):
            spec_from_acronym("FCR", 5, 1e5, 1, max_theta=2.0)

    def test_industrial_fraction_bounds(self):
        with pytest.raises(ValueError):
            spec_from_acronym("FCM", 5, 1e6, 1, industrial_fraction=0.0)


class TestGenerate:
    def test_deterministic_bit_for_bit(self):
        spec = spec_from_acronym("FUM", 200, 2e6, seed=42)
        a = json.dumps(instance_to_dict(generate(spec)), sort_keys=True)
        b = json.dumps(instance_to_dict(generate(spec)), sort_keys=True)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate(spec_from_acronym("FCR", 50, 1e5, seed=1))
        b = generate(spec_from_acronym("FCR", 50, 1e5, seed=2))
        assert instance_to_dict(a) != instance_to_dict(b)

    def test_active_only_has_zero_phase_spread(self):
        inst = generate(spec_from_acronym("ACR", 50, 1e5, seed=3))
        assert all(c.demand.reactive_q == 0.0 for c in inst.customers)
        assert max_phase_spread(inst) == 0.0

    def test_full_power_respects_theta_and_power_factor(self):
        spec = spec_from_acronym("FCR", 400, 1e5, seed=4)
        inst = generate(spec)
        assert max_phase_spread(inst) <= math.radians(36) + 1e-9
        for c in inst.customers:
            pf = c.demand.active_p / c.demand.magnitude()
            assert pf >= 0.8

    def test_residential_magnitudes_in_range(self):
        inst = generate(spec_from_acronym("FCR", 300, 1e5, seed=5))
        lo, hi = WIDE_LOAD_RANGES.residential
        for c in inst.customers:
            assert lo <= c.demand.magnitude() <= hi * (1 + 1e-12)

    def test_industrial_magnitudes_in_range(self):
        inst = generate(spec_from_acronym("FCI", 300, 2e6, seed=6))
        lo, hi = WIDE_LOAD_RANGES.industrial
        for c in inst.customers:
            assert lo <= c.demand.magnitude() <= hi * (1 + 1e-12)

    def test_narrow_ranges_preset(self):
        spec = spec_from_acronym("FCI", 100, 1e6, seed=7, load_ranges=NARROW_LOAD_RANGES)
        inst = generate(spec)
        for c in inst.customers:
            assert 300_000.0 <= c.demand.magnitude() <= 1_000_000.0

    def test_mixed_fraction_within_binomial_bounds(self):
        n, frac = 4000, 0.2
        inst = generate(spec_from_acronym("FCM", n, 2e6, seed=8, industrial_fraction=frac))
        lo_i, _ = WIDE_LOAD_RANGES.industrial
        industrial = sum(1 for c in inst.customers if c.demand.magnitude() >= lo_i)
        sigma = math.sqrt(n * frac * (1 - frac))
        assert abs(industrial - n * frac) <= 3 * sigma

    def test_correlated_values_recompute_exactly(self):
        spec = spec_from_acronym("FCR", 200, 1e5, seed=9, quadratic=QuadraticValue(1.0))
        inst = generate(spec)
        for c in inst.customers:
            v = QuadraticValue(1.0).value_of(c.demand.magnitude())
            assert c.valuation == v
            assert c.compensation == v

    def test_linear_values_recompute_exactly(self):
        inst = generate(spec_from_acronym("FLM", 300, 5e6, seed=11))
        industrial = LINEAR_DEFAULTS[LoadType.INDUSTRIAL]
        residential = LINEAR_DEFAULTS[LoadType.RESIDENTIAL]
        lo_i = WIDE_LOAD_RANGES.industrial[0]
        for c in inst.customers:
            mag = c.demand.magnitude()
            model = industrial if mag >= lo_i else residential
            assert c.valuation == c.compensation == model.value_of(mag)

    def test_linear_values_positive_and_equal(self):
        inst = generate(spec_from_acronym("ALR", 100, 1e5, seed=10))
        for c in inst.customers:
            assert c.valuation == c.compensation > 0

    def test_uncorrelated_values_in_open_intervals(self):
        inst = generate(spec_from_acronym("FUR", 500, 1e5, seed=11))
        _, hi = WIDE_LOAD_RANGES.residential
        for c in inst.customers:
            assert 0.0 < c.valuation <= hi
            assert 0.0 < c.compensation < hi

    def test_invalid_customers_keep_their_error(self):
        # negative magnitude ranges give demands outside the first quadrant
        spec = spec_from_acronym(
            "ACR", 5, 1e5, seed=1, load_ranges=LoadRanges(residential=(-5.0, -1.0))
        )
        with pytest.raises(InstanceError, match="first quadrant"):
            generate(spec)

    def test_capacity_too_small_for_industrial_rejects(self):
        from curtail import DemandExceedsCapacityError

        with pytest.raises(DemandExceedsCapacityError):
            generate(spec_from_acronym("FCI", 50, 400_000.0, seed=12))


class TestRebinding:
    def test_with_capacity_keeps_customers(self):
        inst = generate(spec_from_acronym("FCR", 20, 1e5, seed=13))
        rebound = with_capacity(inst, 5e4)
        assert rebound.capacity == 5e4
        assert rebound.customers == inst.customers

    def test_restrict_drops_only_oversized(self):
        inst = generate(spec_from_acronym("FCM", 50, 2e6, seed=14))
        cut = 400_000.0
        reduced = restrict_to_capacity(inst, cut)
        kept = {c.id for c in reduced.customers}
        for c in inst.customers:
            assert (c.id in kept) == (c.demand.magnitude() <= cut)
