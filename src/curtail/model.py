"""Domain model for capacity-constrained supply of complex power demands.

Customers carry a complex apparent-power demand (active + reactive part), a
valuation (what supplying them is worth) and a compensation (what curtailing
them costs).  An instance bundles a customer set with an apparent-power
capacity; a selection of customers is feasible when the magnitude of the
vector sum of their demands stays within that capacity.

All types are immutable after construction and all operations are pure,
so everything in this module is safe to share across threads.

Float discipline: objectives and aggregate demands are always accumulated
in customer storage order with plain left-to-right addition (see
``retained_valuation`` and friends).  Every solver and the exhaustive oracle
use these same helpers, so equal selections produce bit-identical objective
values no matter which code path built them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

# Relative slack applied to the capacity when testing feasibility.  The
# constraint is exact in theory; floating-point vector sums need a hair of
# room so that solver and oracle rankings agree near the boundary.
CAPACITY_REL_TOL = 1e-9

# Customer ids are stored in int64 columns.
MAX_CUSTOMER_ID = 2**63 - 1


class CurtailError(Exception):
    """Base class for errors raised by this package."""


class InstanceError(CurtailError, ValueError):
    """An instance (or one of its parts) violates a construction invariant."""


class DemandExceedsCapacityError(InstanceError):
    """Some customers individually exceed the capacity and can never be supplied."""

    def __init__(self, offending_ids: Sequence[int], capacity: float):
        self.offending_ids = tuple(sorted(offending_ids))
        self.capacity = capacity
        ids = ", ".join(str(i) for i in self.offending_ids)
        super().__init__(
            f"demand magnitude exceeds capacity {capacity:g} for customer ids: {ids}"
        )


class UnknownCustomerError(CurtailError, KeyError):
    """A selection referenced a customer id not present in the instance."""


class FormatError(CurtailError, ValueError):
    """A JSON document does not match the expected schema."""


@dataclass(frozen=True)
class ComplexDemand:
    """Apparent power demand, split into active and reactive volt-amperes.

    Both parts must be non-negative (first-quadrant convention: any instance
    can be rotated into the first quadrant without changing feasibility).
    """

    active_p: float
    reactive_q: float

    def __post_init__(self):
        if not (math.isfinite(self.active_p) and math.isfinite(self.reactive_q)):
            raise InstanceError("demand components must be finite")
        if self.active_p < 0 or self.reactive_q < 0:
            raise InstanceError(
                f"demand must lie in the first quadrant, got "
                f"({self.active_p}, {self.reactive_q})"
            )

    def magnitude(self) -> float:
        """Apparent power magnitude sqrt(P^2 + Q^2) in volt-amperes."""
        return math.hypot(self.active_p, self.reactive_q)

    def phase(self) -> float:
        """Phase angle in radians, in [0, pi/2]. Zero-magnitude demands carry phase 0."""
        if self.active_p == 0.0 and self.reactive_q == 0.0:
            return 0.0
        return math.atan2(self.reactive_q, self.active_p)

    def __add__(self, other: "ComplexDemand") -> "ComplexDemand":
        return ComplexDemand(self.active_p + other.active_p, self.reactive_q + other.reactive_q)


def magnitude(demand: ComplexDemand) -> float:
    """Apparent power magnitude of a demand."""
    return demand.magnitude()


@dataclass(frozen=True)
class Customer:
    """A customer: unique id, complex demand, valuation and compensation."""

    id: int
    demand: ComplexDemand
    valuation: float
    compensation: float

    def __post_init__(self):
        if not 0 <= self.id <= MAX_CUSTOMER_ID or self.id != int(self.id):
            raise InstanceError(
                f"customer id must be an integer in [0, 2**63 - 1], got {self.id}"
            )
        for name in ("valuation", "compensation"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise InstanceError(f"customer {self.id}: {name} must be finite and >= 0")


@dataclass(frozen=True)
class Instance:
    """A customer set plus an apparent-power capacity; the unit of solving.

    Construction rejects customers whose individual demand magnitude exceeds
    the capacity (they can never be part of a feasible supply set), listing
    the offending ids so callers can audit rather than silently drop.
    """

    customers: tuple[Customer, ...]
    capacity: float

    def __init__(self, customers: Iterable[Customer], capacity: float):
        object.__setattr__(self, "customers", tuple(customers))
        object.__setattr__(self, "capacity", float(capacity))
        if not math.isfinite(self.capacity) or self.capacity <= 0:
            raise InstanceError(f"capacity must be finite and > 0, got {capacity}")
        seen: set[int] = set()
        dupes: set[int] = set()
        oversized: list[int] = []
        for c in self.customers:
            if c.id in seen:
                dupes.add(c.id)
            seen.add(c.id)
            if c.demand.magnitude() > self.capacity:
                oversized.append(c.id)
        if dupes:
            raise InstanceError(f"duplicate customer ids: {sorted(dupes)}")
        if oversized:
            raise DemandExceedsCapacityError(oversized, self.capacity)

    def __len__(self) -> int:
        return len(self.customers)

    @cached_property
    def ids(self) -> frozenset[int]:
        return frozenset(c.id for c in self.customers)

    @cached_property
    def columns(self) -> "InstanceColumns":
        """Column-oriented view of the customers, built once per instance."""
        n = len(self.customers)
        id_arr = np.fromiter((c.id for c in self.customers), dtype=np.int64, count=n)
        p = np.fromiter((c.demand.active_p for c in self.customers), dtype=np.float64, count=n)
        q = np.fromiter((c.demand.reactive_q for c in self.customers), dtype=np.float64, count=n)
        u = np.fromiter((c.valuation for c in self.customers), dtype=np.float64, count=n)
        comp = np.fromiter((c.compensation for c in self.customers), dtype=np.float64, count=n)
        mag = np.hypot(p, q)
        return InstanceColumns(
            id=id_arr, p=p, q=q, valuation=u, compensation=comp, mag=mag,
            id_list=id_arr.tolist(),
            p_list=p.tolist(), q_list=q.tolist(),
            valuation_list=u.tolist(), compensation_list=comp.tolist(),
            mag_list=mag.tolist(),
        )

    @cached_property
    def index_of(self) -> dict[int, int]:
        """Customer id -> storage position."""
        return {c.id: i for i, c in enumerate(self.customers)}

    def capacity_limit_sq(self, rel_tol: float = CAPACITY_REL_TOL) -> float:
        """Squared feasibility threshold of this instance; see ``capacity_limit_sq``."""
        return capacity_limit_sq(self.capacity, rel_tol)


def capacity_limit_sq(capacity: float, rel_tol: float = CAPACITY_REL_TOL) -> float:
    """Squared feasibility threshold: (C * (1 + rel_tol))^2.

    ``rel_tol`` must be finite and >= 0: a negative slack would be squared
    away, and nan or inf would make every selection infeasible or feasible.
    """
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    limit = capacity * (1.0 + rel_tol)
    return limit * limit


@dataclass(frozen=True)
class InstanceColumns:
    """Parallel arrays over an instance's customers, in storage order."""

    id: np.ndarray
    p: np.ndarray
    q: np.ndarray
    valuation: np.ndarray
    compensation: np.ndarray
    mag: np.ndarray
    id_list: list[int]
    p_list: list[float]
    q_list: list[float]
    valuation_list: list[float]
    compensation_list: list[float]
    mag_list: list[float]


@dataclass(frozen=True)
class Solution:
    """A solver's answer: which customers stay supplied, and at what objective.

    For valuation-maximising solvers the objective is the total valuation of
    the retained customers; for compensation-minimising solvers it is the
    total compensation paid to the curtailed ones.
    """

    retained_ids: frozenset[int]
    objective: float
    aggregate_demand: ComplexDemand
    algorithm: str
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "retained": sorted(self.retained_ids),
            "objective": self.objective,
            "aggregate": {
                "p": self.aggregate_demand.active_p,
                "q": self.aggregate_demand.reactive_q,
            },
            "elapsed_us": int(round(self.elapsed * 1e6)),
        }


# --- canonical accumulation -------------------------------------------------
#
# Selections are sets of customer ids; sums over them always walk the
# instance's storage order so every component computes identical floats.


def _check_ids(instance: Instance, ids: Iterable[int]) -> frozenset[int]:
    ids = frozenset(ids)
    unknown = ids - instance.ids
    if unknown:
        raise UnknownCustomerError(f"unknown customer ids: {sorted(unknown)}")
    return ids


def aggregate_demand(instance: Instance, ids: Iterable[int]) -> ComplexDemand:
    """Component-wise sum of the selected customers' demands."""
    ids = _check_ids(instance, ids)
    cols = instance.columns
    p = 0.0
    q = 0.0
    for cid, pv, qv in zip(cols.id_list, cols.p_list, cols.q_list):
        if cid in ids:
            p += pv
            q += qv
    return ComplexDemand(p, q)


def retained_valuation(instance: Instance, ids: Iterable[int]) -> float:
    """Total valuation of the selected customers."""
    ids = _check_ids(instance, ids)
    cols = instance.columns
    total = 0.0
    for cid, u in zip(cols.id_list, cols.valuation_list):
        if cid in ids:
            total += u
    return total


def curtailed_compensation(instance: Instance, retained: Iterable[int]) -> float:
    """Total compensation owed to customers outside the retained set."""
    retained = _check_ids(instance, retained)
    cols = instance.columns
    total = 0.0
    for cid, comp in zip(cols.id_list, cols.compensation_list):
        if cid not in retained:
            total += comp
    return total


def is_feasible(
    instance: Instance, ids: Iterable[int], rel_tol: float = CAPACITY_REL_TOL
) -> bool:
    """Whether the aggregate demand of ``ids`` fits the capacity.

    True iff |sum of selected demands| <= capacity * (1 + rel_tol).
    Raises UnknownCustomerError for ids not in the instance.
    """
    agg = aggregate_demand(instance, ids)
    p, q = agg.active_p, agg.reactive_q
    return p * p + q * q <= instance.capacity_limit_sq(rel_tol)


def max_phase_spread(instance: Instance) -> float:
    """Largest phase-angle difference between any pair of nonzero demands.

    Zero-magnitude demands carry no direction and are excluded.  Raises
    ValueError when every demand is zero (the spread is undefined then).
    """
    lo = math.inf
    hi = -math.inf
    for c in instance.customers:
        d = c.demand
        if d.active_p == 0.0 and d.reactive_q == 0.0:
            continue
        phi = d.phase()
        lo = min(lo, phi)
        hi = max(hi, phi)
    if hi < lo:
        raise CurtailError("phase spread is undefined: all demands have zero magnitude")
    return hi - lo


def magnitude_sum_ratio(demands: Sequence[ComplexDemand]) -> float:
    """Ratio of the scalar magnitude sum to the magnitude of the vector sum.

    Measures how much a set of demands cancels when added as vectors: 1 for
    parallel demands, growing as directions spread.  For first-quadrant
    demands with pairwise phase spread theta <= pi/2 the ratio never exceeds
    ``magnitude_sum_ratio_bound(theta)``.

    Raises ValueError when the vector sum is zero.
    """
    if not demands:
        raise ValueError("need at least one demand")
    p = 0.0
    q = 0.0
    scalar = 0.0
    for d in demands:
        p += d.active_p
        q += d.reactive_q
        scalar += d.magnitude()
    vector = math.hypot(p, q)
    if vector == 0.0:
        raise ValueError("vector sum is zero; ratio undefined")
    return scalar / vector


def magnitude_sum_ratio_bound(theta: float) -> float:
    """Worst-case magnitude_sum_ratio for phase spread theta: sqrt(2/(cos theta + 1))."""
    return math.sqrt(2.0 / (math.cos(theta) + 1.0))


def alignment_factor(theta: float) -> float:
    """sqrt((cos theta + 1)/2), i.e. cos(theta/2): how well demands co-add.

    This is the factor that scales every worst-case guarantee in the solver
    modules; it is 1 at theta=0 and sqrt(1/2) at theta=pi/2.
    """
    return math.sqrt((math.cos(theta) + 1.0) / 2.0)


# --- valuation / compensation models ----------------------------------------


@dataclass(frozen=True)
class QuadraticValue:
    """Strictly convex increasing value of demand magnitude: a*m^2 + b*m + c."""

    a: float
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        if not self.a > 0:
            raise InstanceError(f"quadratic coefficient a must be > 0, got {self.a}")
        if self.b < 0 or self.c < 0:
            raise InstanceError("quadratic coefficients b and c must be >= 0")

    def value_of(self, mag: float) -> float:
        return self.a * mag * mag + self.b * mag + self.c


@dataclass(frozen=True)
class LinearValue:
    """Affine value of demand magnitude: slope*m + intercept."""

    slope: float
    intercept: float

    def __post_init__(self):
        if not self.slope > 0 or not self.intercept > 0:
            raise InstanceError("linear model needs slope > 0 and intercept > 0")

    def value_of(self, mag: float) -> float:
        return self.slope * mag + self.intercept


@dataclass(frozen=True)
class UncorrelatedValue:
    """Valuation and compensation drawn independently of the demand.

    Valuation is uniform on (0, valuation_cap]; compensation is uniform on
    (0, compensation_cap), exact zeros rejected.
    """

    valuation_cap: float
    compensation_cap: float

    def __post_init__(self):
        if not self.valuation_cap > 0 or not self.compensation_cap > 0:
            raise InstanceError("uncorrelated caps must be > 0")


ValuationModel = QuadraticValue | LinearValue | UncorrelatedValue


def evaluate_valuation(
    model: ValuationModel,
    demand: ComplexDemand,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Valuation and compensation for one customer under the given model.

    Quadratic and Linear models are deterministic functions of the demand
    magnitude (valuation equals compensation).  The Uncorrelated model draws
    both from ``rng`` independently of the demand.
    """
    if isinstance(model, (QuadraticValue, LinearValue)):
        v = model.value_of(demand.magnitude())
        return v, v
    if rng is None:
        raise ValueError("the uncorrelated model needs a random generator")
    valuation = model.valuation_cap * (1.0 - rng.random())
    compensation = model.compensation_cap * rng.random()
    while compensation == 0.0:
        compensation = model.compensation_cap * rng.random()
    return valuation, compensation


# --- JSON interchange ---------------------------------------------------------
#
# Instance files: {"capacity": number,
#                  "customers": [{"id": int, "p": number, "q": number,
#                                 "valuation": number, "compensation": number}]}


def instance_to_dict(instance: Instance) -> dict:
    return {
        "capacity": instance.capacity,
        "customers": [
            {
                "id": c.id,
                "p": c.demand.active_p,
                "q": c.demand.reactive_q,
                "valuation": c.valuation,
                "compensation": c.compensation,
            }
            for c in instance.customers
        ],
    }


def _require_number(obj: Mapping, key: str, where: str) -> float:
    if key not in obj:
        raise FormatError(f"{where}: missing field '{key}'")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where}.{key}: expected a number, got {value!r}")
    return float(value)


def instance_from_dict(doc: Mapping) -> Instance:
    """Build an Instance from parsed JSON, validating the schema field by field."""
    if not isinstance(doc, Mapping):
        raise FormatError("instance document must be a JSON object")
    capacity = _require_number(doc, "capacity", "instance")
    raw = doc.get("customers")
    if not isinstance(raw, list):
        raise FormatError("instance.customers: expected a list")
    customers = []
    for i, item in enumerate(raw):
        where = f"customers[{i}]"
        if not isinstance(item, Mapping):
            raise FormatError(f"{where}: expected an object")
        if "id" not in item:
            raise FormatError(f"{where}: missing field 'id'")
        cid = item["id"]
        if isinstance(cid, bool) or not isinstance(cid, int):
            raise FormatError(f"{where}.id: expected an integer, got {cid!r}")
        try:
            customers.append(
                Customer(
                    id=cid,
                    demand=ComplexDemand(
                        _require_number(item, "p", where),
                        _require_number(item, "q", where),
                    ),
                    valuation=_require_number(item, "valuation", where),
                    compensation=_require_number(item, "compensation", where),
                )
            )
        except DemandExceedsCapacityError:
            raise
        except InstanceError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    return Instance(customers, capacity)


def load_instance(path: str) -> Instance:
    """Read an instance JSON file. FormatError carries line/field context.

    Customers whose lone demand exceeds the capacity keep their dedicated
    error type so callers can report them distinctly from schema problems.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return instance_from_dict(doc)
    except DemandExceedsCapacityError:
        raise
    except (FormatError, InstanceError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def dump_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")
