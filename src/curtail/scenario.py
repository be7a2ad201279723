"""Seeded random instance generation over a scenario taxonomy.

A scenario is a three-letter acronym: power kind (F full complex power,
A active-only), valuation correlation (C quadratic and L linear in the
demand magnitude, by the fixed formulas that ``generate`` gives; U
uncorrelated draws), and load type (R residential, I industrial, M mixed).
"AUM" is active-only power, uncorrelated values, mixed loads.

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

from .model import FormatError, Instance, InstanceColumns, hypot_magnitudes

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


# Demand magnitude range, in VA, of each customer class.
_RESIDENTIAL_RANGE = (500.0, 8_000.0)
_INDUSTRIAL_RANGE = (500_000.0, 2_000_000.0)


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

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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

    Correlated and linear scenarios set valuation = compensation from the
    demand magnitude m: m * m for C, and for L 1.5 * m + 10 for industrial
    customers and m + 1 for residential ones.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n

    if spec.load is LoadType.RESIDENTIAL:
        industrial = np.zeros(n, dtype=bool)
    elif spec.load is LoadType.INDUSTRIAL:
        industrial = np.ones(n, dtype=bool)
    else:
        industrial = rng.random(n) < spec.industrial_fraction

    res_lo, res_hi = _RESIDENTIAL_RANGE
    ind_lo, ind_hi = _INDUSTRIAL_RANGE
    lo = np.where(industrial, ind_lo, res_lo)
    hi = np.where(industrial, ind_hi, res_hi)
    mags = rng.uniform(lo, hi)

    if spec.power is PowerKind.ACTIVE_ONLY:
        phases = np.zeros(n)
    else:
        phases = spec.phase_anchor + rng.random(n) * spec.max_theta
    p = mags * np.cos(phases)
    q = mags * np.sin(phases)
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
        valuations = compensations = demand_mags * demand_mags
    else:
        valuations = compensations = np.where(
            industrial, 1.5 * demand_mags + 10.0, demand_mags + 1.0
        )

    columns = InstanceColumns(
        np.arange(n, dtype=np.int64), p, q, valuations, compensations, demand_mags
    )
    return Instance(columns, spec.capacity)


def restrict_to_capacity(instance: Instance, capacity: float) -> Instance:
    """Drop customers whose lone demand exceeds ``capacity`` and rebind.

    First-quadrant aggregates are at least as large as any member, so the
    dropped customers could never appear in a feasible supply set; they must
    simply be curtailed when capacity dips below their demand.
    """
    cols = instance.columns
    return Instance(cols.take(np.flatnonzero(cols.mag <= capacity)), capacity)
