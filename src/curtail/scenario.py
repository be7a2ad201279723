"""Seeded random instance generation over a scenario taxonomy.

A scenario is a three-letter acronym: power kind (F full complex power,
A active-only), valuation correlation (C correlated quadratic, U
uncorrelated draws, L linear), and load type (R residential, I industrial,
M mixed).  "AUM" is active-only power, uncorrelated values, mixed loads.

Demand magnitudes are drawn uniformly from a per-load-type range and phases
uniformly from a band of configurable width anchored in the first quadrant;
the ranges and distributions are the least-informative choices consistent
with the taxonomy.  Identical (seed, spec) pairs reproduce instances
bit-for-bit, including through JSON round trips.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    FormatError,
    Instance,
    InstanceColumns,
    LinearValue,
    QuadraticValue,
    check_customer_columns,
    hypot_magnitudes,
)

MAX_THETA_DEFAULT = math.radians(36.0)  # keeps every power factor >= cos 36 deg = 0.81


class PowerKind(enum.Enum):
    FULL = "F"
    ACTIVE_ONLY = "A"


class ValueCorrelation(enum.Enum):
    CORRELATED = "C"
    UNCORRELATED = "U"
    LINEAR = "L"


class LoadType(enum.Enum):
    RESIDENTIAL = "R"
    INDUSTRIAL = "I"
    MIXED = "M"


@dataclass(frozen=True)
class LoadRanges:
    """Demand magnitude ranges in VA per customer class."""

    residential: tuple[float, float] = (500.0, 8_000.0)
    industrial: tuple[float, float] = (500_000.0, 2_000_000.0)


# Default wide ranges; a narrower preset (small microgrid studies cap
# residential at 5 KVA and industrial at 1 MVA) is available for comparison.
WIDE_LOAD_RANGES = LoadRanges()
NARROW_LOAD_RANGES = LoadRanges(residential=(500.0, 5_000.0), industrial=(300_000.0, 1_000_000.0))

LINEAR_DEFAULTS = {
    LoadType.RESIDENTIAL: LinearValue(slope=1.0, intercept=1.0),
    LoadType.INDUSTRIAL: LinearValue(slope=1.5, intercept=10.0),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to generate one instance deterministically."""

    power: PowerKind
    correlation: ValueCorrelation
    load: LoadType
    n: int
    capacity: float
    seed: int
    max_theta: float = MAX_THETA_DEFAULT
    phase_anchor: float = 0.0
    industrial_fraction: float = 0.2
    load_ranges: LoadRanges = WIDE_LOAD_RANGES
    quadratic: QuadraticValue = QuadraticValue(a=1.0, b=0.0, c=0.0)
    linear_residential: LinearValue = LINEAR_DEFAULTS[LoadType.RESIDENTIAL]
    linear_industrial: LinearValue = LINEAR_DEFAULTS[LoadType.INDUSTRIAL]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if not self.capacity > 0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")
        if not 0.0 <= self.max_theta <= math.pi / 2:
            raise ValueError("max_theta must be within [0, pi/2]")
        if not 0.0 <= self.phase_anchor <= math.pi / 2:
            raise ValueError("phase_anchor must be within [0, pi/2]")
        if self.phase_anchor + self.max_theta > math.pi / 2 + 1e-12:
            raise ValueError("phase band must stay inside the first quadrant")
        if not 0.0 < self.industrial_fraction <= 1.0:
            raise ValueError("industrial_fraction must be in (0, 1]")

    @property
    def acronym(self) -> str:
        return self.power.value + self.correlation.value + self.load.value


def parse_acronym(acronym: str) -> tuple[PowerKind, ValueCorrelation, LoadType]:
    """Parse a three-letter scenario acronym such as "FCR" or "AUM"."""
    if len(acronym) != 3:
        raise FormatError(f"scenario acronym must be 3 letters, got {acronym!r}")
    text = acronym.upper()
    try:
        return PowerKind(text[0]), ValueCorrelation(text[1]), LoadType(text[2])
    except ValueError as exc:
        raise FormatError(
            f"unknown scenario acronym {acronym!r}: letters are power F/A, "
            f"correlation C/U/L, load R/I/M"
        ) from exc


def spec_from_acronym(acronym: str, n: int, capacity: float, seed: int, **kwargs) -> ScenarioSpec:
    power, correlation, load = parse_acronym(acronym)
    return ScenarioSpec(
        power=power, correlation=correlation, load=load,
        n=n, capacity=capacity, seed=seed, **kwargs,
    )


def generate(spec: ScenarioSpec) -> Instance:
    """Draw one instance from the scenario.

    Draw order is fixed (load classes, magnitudes, phases, then value draws
    for uncorrelated scenarios), so a given (seed, spec) always produces the
    same instance.  Construction fails if a drawn demand magnitude exceeds
    the capacity, mirroring the instance invariant.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n

    if spec.load is LoadType.RESIDENTIAL:
        industrial = np.zeros(n, dtype=bool)
    elif spec.load is LoadType.INDUSTRIAL:
        industrial = np.ones(n, dtype=bool)
    else:
        industrial = rng.random(n) < spec.industrial_fraction

    res_lo, res_hi = spec.load_ranges.residential
    ind_lo, ind_hi = spec.load_ranges.industrial
    lo = np.where(industrial, ind_lo, res_lo)
    hi = np.where(industrial, ind_hi, res_hi)
    mags = rng.uniform(lo, hi)

    if spec.power is PowerKind.ACTIVE_ONLY:
        phases = np.zeros(n)
    else:
        phases = spec.phase_anchor + rng.random(n) * spec.max_theta
    p = mags * np.cos(phases)
    q = mags * np.sin(phases)
    if spec.power is PowerKind.ACTIVE_ONLY:
        q = np.zeros(n)
    demand_mags = hypot_magnitudes(p, q)

    if spec.correlation is ValueCorrelation.UNCORRELATED:
        val_cap = np.where(industrial, ind_hi, res_hi)
        comp_cap = val_cap
        valuations = val_cap * (1.0 - rng.random(n))
        compensations = comp_cap * rng.random(n)
        zero = np.flatnonzero(compensations == 0.0)
        while zero.size:
            compensations[zero] = comp_cap[zero] * rng.random(zero.size)
            zero = zero[compensations[zero] == 0.0]
    elif spec.correlation is ValueCorrelation.CORRELATED:
        valuations = compensations = spec.quadratic.value_of(demand_mags)
    else:
        valuations = compensations = np.where(
            industrial,
            spec.linear_industrial.value_of(demand_mags),
            spec.linear_residential.value_of(demand_mags),
        )

    columns = InstanceColumns(
        np.arange(n, dtype=np.int64), p, q, valuations, compensations, demand_mags
    )
    check_customer_columns(columns)
    return Instance._from_columns(columns, spec.capacity)


def with_capacity(instance: Instance, capacity: float) -> Instance:
    """Same customers, different capacity. Fails if a customer no longer fits."""
    return Instance._from_columns(instance.columns, capacity)


def restrict_to_capacity(instance: Instance, capacity: float) -> Instance:
    """Drop customers whose lone demand exceeds ``capacity`` and rebind.

    First-quadrant aggregates are at least as large as any member, so the
    dropped customers could never appear in a feasible supply set; they must
    simply be curtailed when capacity dips below their demand.
    """
    cols = instance.columns
    return Instance._from_columns(cols.take(np.flatnonzero(cols.mag <= capacity)), capacity)
