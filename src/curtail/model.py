"""Domain model for capacity-constrained supply of complex power demands.

Customers carry a complex apparent-power demand (active + reactive part), a
valuation (what supplying them is worth) and a compensation (what curtailing
them costs).  An instance bundles a customer set with an apparent-power
capacity; a selection of customers is feasible when the magnitude of the
vector sum of their demands stays within that capacity.

An instance stores its customers as one ``InstanceColumns``: read-only
numpy arrays of id, active and reactive demand, valuation, compensation and
demand magnitude, in storage order.  ``Instance(columns, capacity)`` is the
one way to build an instance: the loader and the scenario generator build
the columns directly, and a restriction to a capacity takes rows of them.
The carrier checks that its columns have one length and that every row
holds an integer id in [0, 2**63 - 1] and finite, non-negative demand
parts, valuation and compensation; it takes ``mag`` as given, so a
carrier built by hand must hold the magnitudes of its ``p`` and ``q``, as
``InstanceColumns.build`` computes them.  Each demand's magnitude is
computed once, as ``ComplexDemand.magnitude`` does, when the columns are
built, and every capacity check and magnitude-keyed order reads that one
column.

All types are immutable after construction and all operations are pure,
so everything in this module is safe to share across threads.

Float discipline: every objective and aggregate demand is a ``storage_sum``,
left-to-right addition from 0.0 over ascending storage indices, by a plain
loop for a few values and otherwise by the one running sum of the package,
``_running_sums``.  The solvers and the oracle keep selections as storage
indices or masks and build their answers with ``solution_from_indices``;
``retained_valuation`` and friends map id sets onto the same sum.  So equal
selections produce bit-identical objectives and aggregates no matter which
code path built them, on every supported Python version.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
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


def _check_customer(cid, valuation: float, compensation: float) -> None:
    """Check a customer's id, then its valuation, then its compensation.

    Raises ``InstanceError`` at the first that fails: the id must be an
    integer in [0, 2**63 - 1] (an integral float or a bool passes), and the
    numbers finite and >= 0.  Callers check the demand first, by building
    its ``ComplexDemand``.
    """
    if not 0 <= cid <= MAX_CUSTOMER_ID or cid != int(cid):
        raise InstanceError(f"customer id must be an integer in [0, 2**63 - 1], got {cid}")
    for name, value in (("valuation", valuation), ("compensation", compensation)):
        if not math.isfinite(value) or value < 0:
            raise InstanceError(f"customer {cid}: {name} must be finite and >= 0")


class Instance:
    """A customer set plus an apparent-power capacity; the unit of solving.

    ``Instance(columns, capacity)`` is the one constructor, and ``columns``
    must be an ``InstanceColumns`` (anything else raises ``TypeError``): id,
    active and reactive demand, valuation, compensation and the demand
    magnitudes (the ``ComplexDemand.magnitude`` values, computed once when
    the columns are built), read-only and in storage order.  The carrier is
    stored as it is, without a copy, as ``columns``.  Instances are
    immutable: attribute assignment raises ``AttributeError``.  Two
    instances are equal when they hold the same customers in the same order
    and the same capacity.

    Construction rejects customers whose individual demand magnitude exceeds
    the capacity (they can never be part of a feasible supply set), listing
    the offending ids so callers can audit rather than silently drop.
    """

    capacity: float

    def __init__(self, columns: "InstanceColumns", capacity: float):
        """Store the customers' columns, then run the instance checks in order.

        The checks: capacity finite and > 0, no duplicate ids, no lone demand
        magnitude above the capacity.
        """
        if not isinstance(columns, InstanceColumns):
            raise TypeError(f"Instance takes an InstanceColumns, got {type(columns).__name__}")
        self.__dict__.update(_columns=columns, capacity=float(capacity))
        if not math.isfinite(self.capacity) or self.capacity <= 0:
            raise InstanceError(f"capacity must be finite and > 0, got {capacity}")
        ids = columns.id
        if ids.size > 1:
            ordered = np.sort(ids)
            repeated = ordered[1:][ordered[1:] == ordered[:-1]]
            if repeated.size:
                raise InstanceError(f"duplicate customer ids: {np.unique(repeated).tolist()}")
        oversized = np.flatnonzero(columns.mag > self.capacity)
        if oversized.size:
            raise DemandExceedsCapacityError(ids[oversized].tolist(), self.capacity)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Instance is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: Instance is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.capacity == other.capacity and all(
            map(np.array_equal, self._columns.arrays(), other._columns.arrays())
        )

    def __hash__(self) -> int:
        return hash((self.capacity, self._columns.id.tobytes()))

    def __repr__(self) -> str:
        return f"Instance(n={len(self)}, capacity={self.capacity!r})"

    def __len__(self) -> int:
        return len(self._columns.id)

    @cached_property
    def ids(self) -> frozenset[int]:
        return frozenset(self._columns.id.tolist())

    @cached_property
    def columns(self) -> "InstanceColumns":
        """The customers' columns, as stored at construction.

        A cached property rather than a plain attribute, so that a tracer can
        wrap its first read (``perfbench/spans.py`` does).
        """
        return self._columns

    def capacity_limit_sq(self, rel_tol: float = CAPACITY_REL_TOL) -> float:
        """Squared feasibility threshold of this instance; see ``capacity_limit_sq``."""
        return capacity_limit_sq(self.capacity, rel_tol)


def hypot_magnitudes(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Demand magnitudes by ``math.hypot``, as ``ComplexDemand.magnitude`` gives them.

    ``Instance`` keeps them as ``InstanceColumns.mag``.  numpy's vectorised
    hypot differs in the last bit on some pairs, so it is not used.
    """
    return np.fromiter(map(math.hypot, p.tolist(), q.tolist()), dtype=np.float64, count=len(p))


def capacity_limit_sq(capacity: float, rel_tol: float = CAPACITY_REL_TOL) -> float:
    """Squared feasibility threshold: (C * (1 + rel_tol))^2.

    ``rel_tol`` must be finite and >= 0: a negative slack would be squared
    away, and nan or inf would make every selection infeasible or feasible.
    The square must be finite too (C * (1 + rel_tol) below about 1.34e154):
    an inf threshold would pass every selection.
    """
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    limit = capacity * (1.0 + rel_tol)
    limit_sq = limit * limit
    if not math.isfinite(limit_sq):
        raise ValueError(f"capacity {capacity:g} with rel_tol {rel_tol:g} squares to {limit_sq}")
    return limit_sq


@dataclass(frozen=True)
class InstanceColumns:
    """Parallel read-only arrays over an instance's customers, in storage order.

    ``id`` is int64 and the other five columns are float64; construction
    converts an array of another dtype (copying only then) and makes every
    array read-only, so callers hand over arrays they own.  ``mag`` holds the
    ``hypot_magnitudes`` of ``p`` and ``q``, which ``build`` computes; it is
    taken as given, not checked against them.

    Construction raises ``InstanceError`` when the six columns differ in
    length.  It then checks every row, as the loader does: a finite
    first-quadrant demand (``ComplexDemand``), then ``_check_customer``; the
    first failing row raises its error.  Columns that pass as arrays are not
    walked row by row.  Ids are kept exactly: an id column that numpy does
    not read as int64 is walked on the values given, so 1.5, 2**63 and nan
    are refused rather than truncated, a string raises ``TypeError``, and
    integral floats and bools are stored as the integers they equal.
    """

    id: np.ndarray
    p: np.ndarray
    q: np.ndarray
    valuation: np.ndarray
    compensation: np.ndarray
    mag: np.ndarray

    def __post_init__(self):
        given = self.id
        for field in fields(self):
            dtype = None if field.name == "id" else np.float64
            object.__setattr__(self, field.name, np.asarray(getattr(self, field.name), dtype=dtype))
        lengths = {field.name: len(getattr(self, field.name)) for field in fields(self)}
        if len(set(lengths.values())) > 1:
            raise InstanceError(f"columns differ in length: {lengths}")
        numbers = (self.p, self.q, self.valuation, self.compensation)
        if not (self.id.dtype == np.int64 and (self.id >= 0).all()
                and all(np.isfinite(c).all() and (c >= 0).all() for c in numbers)):
            given = np.asarray(given, dtype=object).tolist()  # numpy reads [1, 2**63] as floats
            for cid, p, q, u, comp in zip(given, *(c.tolist() for c in numbers)):
                ComplexDemand(p, q)
                _check_customer(cid, u, comp)
            object.__setattr__(self, "id", np.fromiter(map(int, given), np.int64, len(given)))
        for array in self.arrays():
            array.flags.writeable = False

    @classmethod
    def build(cls, ids, p, q, valuation, compensation) -> "InstanceColumns":
        """The columns of these customers, with ``mag`` computed from ``p`` and ``q``."""
        p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
        return cls(ids, p, q, valuation, compensation, hypot_magnitudes(p, q))

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The six arrays, in field order."""
        return tuple(getattr(self, field.name) for field in fields(self))

    def take(self, rows: np.ndarray) -> "InstanceColumns":
        """The rows at storage indices ``rows``, in that order, of every column.

        The kept rows are checked again, as every construction checks them.
        """
        return InstanceColumns(*(array[rows] for array in self.arrays()))


def _rows(cols: InstanceColumns) -> zip:
    """(id, p, q, valuation, compensation) of each customer as Python numbers."""
    return zip(*(array.tolist() for array in cols.arrays()[:5]))  # all columns but mag


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


# --- canonical accumulation (see "Float discipline" above) ------------------


def _running_sums(values: np.ndarray, start: float = 0.0) -> np.ndarray:
    """``start``, then ``start`` plus each prefix of ``values`` along the last axis.

    The additions run strictly left to right, as a ``+=`` loop's do (builtin
    ``sum`` compensates from Python 3.12 on, ``np.sum`` adds pairwise).  A sum
    past the float range is inf; callers silence numpy's overflow warning."""
    sums = np.empty(values.shape[:-1] + (values.shape[-1] + 1,))
    sums[..., 0], sums[..., 1:] = start, values
    return np.add.accumulate(sums, axis=-1, out=sums)


# Selections of at most this many values are added by a plain ``+=`` loop,
# which is faster than the accumulation's numpy calls at that size.
_LOOP_SUM_MAX = 64


def storage_sum(values: np.ndarray | Sequence[float], indices: np.ndarray | Sequence[int]) -> float:
    """``values[indices]`` added left to right from 0.0, as a Python float.

    ``indices`` holds ascending storage indices (an int array or list) or is
    a boolean mask over ``values``.  Starting from 0.0 makes an empty or all
    ``-0.0`` selection sum to ``0.0``.  Up to ``_LOOP_SUM_MAX`` selected
    values go through a ``+=`` loop, more through ``_running_sums``; both add
    in the same order, so they return the same float.
    """
    indices = np.asarray(indices)
    if indices.dtype != np.bool_:
        indices = indices.astype(np.intp, copy=False)
    selected = np.asarray(values, dtype=np.float64)[indices]
    if selected.size <= _LOOP_SUM_MAX:
        total = 0.0
        for value in selected.tolist():
            total += value
        return total
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range is inf
        return float(_running_sums(selected)[-1])


def _stacked(instances: Sequence[Instance], *names: str) -> list[np.ndarray]:
    """Each named column of every instance, all of one size n, as a b x n array."""
    shape = (len(instances), len(instances[0]) if instances else 0)
    return [np.array([getattr(instance.columns, name) for instance in instances]).reshape(shape)
            for name in names]


def solution_from_indices(
    instance: Instance,
    retained: Sequence[int],
    objective: float,
    algorithm: str,
    elapsed: float,
) -> Solution:
    """The ``Solution`` that retains the customers at ascending storage indices.

    The ids and the aggregate demand are derived from ``retained`` (an array or
    list); the objective must already be a ``storage_sum`` over the same instance.
    """
    cols = instance.columns
    retained = np.asarray(retained, dtype=np.intp)
    return Solution(
        retained_ids=frozenset(cols.id[retained].tolist()),
        objective=objective,
        aggregate_demand=ComplexDemand(
            storage_sum(cols.p, retained), storage_sum(cols.q, retained)
        ),
        algorithm=algorithm,
        elapsed=elapsed,
    )


def _storage_mask(instance: Instance, ids: Iterable[int]) -> np.ndarray:
    """Boolean mask over storage order of the customers in ``ids``.

    Raises UnknownCustomerError for ids not in the instance.
    """
    ids = frozenset(ids)
    if not ids <= instance.ids:
        raise UnknownCustomerError(f"unknown customer ids: {sorted(ids - instance.ids)}")
    return np.isin(instance.columns.id, np.fromiter(ids, dtype=np.int64, count=len(ids)))


def aggregate_demand(instance: Instance, ids: Iterable[int]) -> ComplexDemand:
    """Component-wise sum of the selected customers' demands."""
    mask = _storage_mask(instance, ids)
    cols = instance.columns
    return ComplexDemand(storage_sum(cols.p, mask), storage_sum(cols.q, mask))


def retained_valuation(instance: Instance, ids: Iterable[int]) -> float:
    """Total valuation of the selected customers."""
    return storage_sum(instance.columns.valuation, _storage_mask(instance, ids))


def curtailed_compensation(instance: Instance, retained: Iterable[int]) -> float:
    """Total compensation owed to customers outside the retained set."""
    return storage_sum(instance.columns.compensation, ~_storage_mask(instance, retained))


def is_feasible(
    instance: Instance, ids: Iterable[int], rel_tol: float = CAPACITY_REL_TOL
) -> bool:
    """Whether the aggregate demand of ``ids`` fits the capacity.

    True iff |sum of selected demands| <= capacity * (1 + rel_tol).
    Raises UnknownCustomerError for ids not in the instance.
    """
    limit_sq = instance.capacity_limit_sq(rel_tol)
    mask = _storage_mask(instance, ids)
    p, q = storage_sum(instance.columns.p, mask), storage_sum(instance.columns.q, mask)
    return p * p + q * q <= limit_sq


def max_phase_spread(instance: Instance) -> float:
    """Largest phase-angle difference between any pair of nonzero demands.

    Zero-magnitude demands carry no direction and are excluded.  Raises
    ValueError when every demand is zero (the spread is undefined then).
    """
    cols = instance.columns
    phases = [
        math.atan2(q, p) for p, q in zip(cols.p.tolist(), cols.q.tolist()) if p != 0.0 or q != 0.0
    ]
    if not phases:
        raise InstanceError("phase spread is undefined: all demands have zero magnitude")
    return max(phases) - min(phases)


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
    order = range(len(demands))
    p = storage_sum([d.active_p for d in demands], order)
    q = storage_sum([d.reactive_q for d in demands], order)
    scalar = storage_sum([d.magnitude() for d in demands], order)
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


# --- JSON interchange ---------------------------------------------------------
#
# Instance files: {"capacity": number,
#                  "customers": [{"id": int, "p": number, "q": number,
#                                 "valuation": number, "compensation": number}]}


def instance_to_dict(instance: Instance) -> dict:
    """The instance document as JSON-ready Python values; ``instance_json``
    writes the same document as text."""
    return {
        "capacity": instance.capacity,
        "customers": [
            {"id": cid, "p": p, "q": q, "valuation": u, "compensation": comp}
            for cid, p, q, u, comp in _rows(instance.columns)
        ],
    }


_NUMBER_FIELDS = ("p", "q", "valuation", "compensation")


_REQUIRED = object()
_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
          list: "a list", Mapping: "an object"}


def _check(value, kind: type, where: str):
    """``value`` if it has the JSON type ``kind``, as a float for ``float``, which
    admits integers a float can hold; a bool passes only as ``bool``."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise FormatError(f"{where}: expected {_KINDS[kind]}, got {value!r}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError as exc:
        raise FormatError(f"{where}: integer too large for a float") from exc


def _field(doc: Mapping, key: str, kind: type, where: str, default=_REQUIRED):
    """``doc[key]`` checked by ``_check``, or ``default`` when absent."""
    if key not in doc:
        if default is _REQUIRED:
            raise FormatError(f"{where}: missing field '{key}'")
        return default
    return _check(doc[key], kind, f"{where}.{key}")


def _only(values: list, allowed: type | tuple[type, ...]) -> bool:
    """Whether every value is an instance of ``allowed`` and none is a bool."""
    return all(issubclass(t, allowed) and t is not bool for t in set(map(type, values)))


def _customer_columns(raw: list[dict]) -> InstanceColumns | None:
    """The columns of the customers in ``raw``.

    Returns None when any customer fails a check; ``_raise_customer_error``
    then says which one and why.
    """
    try:
        ids = [item["id"] for item in raw]
        numbers = [[item[key] for item in raw] for key in _NUMBER_FIELDS]
    except KeyError:
        return None
    if not (_only(ids, int) and all(_only(column, (int, float)) for column in numbers)):
        return None
    try:
        return InstanceColumns.build(ids, *numbers)
    except (OverflowError, InstanceError):
        return None


def _raise_customer_error(raw: list) -> None:
    """Raise the FormatError of the first customer in ``raw`` that fails a check.

    The checks run one customer at a time, in the order that words each
    error: object and id type, then the demand's types and the
    ``ComplexDemand`` invariants, then the types of the valuation and the
    compensation, then ``_check_customer``.
    """
    for i, item in enumerate(raw):
        where = f"customers[{i}]"
        if not isinstance(item, Mapping):
            raise FormatError(f"{where}: expected an object")
        cid = _field(item, "id", int, where)
        try:
            ComplexDemand(_field(item, "p", float, where), _field(item, "q", float, where))
            valuation = _field(item, "valuation", float, where)
            _check_customer(cid, valuation, _field(item, "compensation", float, where))
        except InstanceError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    raise AssertionError("the column-wise customer checks rejected valid customers")


def instance_from_dict(doc: Mapping) -> Instance:
    """Build an Instance from parsed JSON, validating the schema field by field.

    The customers are checked and converted a column at a time; when a check
    fails, the error names the first customer that fails it.
    """
    if not isinstance(doc, Mapping):
        raise FormatError("instance document must be a JSON object")
    capacity = _field(doc, "capacity", float, "instance")
    raw = doc.get("customers")
    if not isinstance(raw, list):
        raise FormatError("instance.customers: expected a list")
    if not set(map(type, raw)) <= {dict}:
        raw = [dict(item) if isinstance(item, Mapping) else item for item in raw]
        if not all(isinstance(item, dict) for item in raw):
            _raise_customer_error(raw)
    columns = _customer_columns(raw)
    if columns is None:
        _raise_customer_error(raw)
    return Instance(columns, capacity)


def read_json(path: str):
    """Parse the JSON file at ``path``; malformed or too deeply nested text is a
    FormatError, worded ``path:line:col: msg`` where the parser gives a place."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply to parse") from exc


def load_instance(path: str) -> Instance:
    """Read an instance JSON file. FormatError carries line/field context.

    Customers whose lone demand exceeds the capacity keep their dedicated
    error type so callers can report them distinctly from schema problems.
    """
    doc = read_json(path)
    try:
        return instance_from_dict(doc)
    except DemandExceedsCapacityError:
        raise
    except (FormatError, InstanceError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


# One customer of ``instance_json``, its keys in sorted order.
_CUSTOMER_JSON = (
    '    {\n      "compensation": %r,\n      "id": %r,\n      "p": %r,\n'
    '      "q": %r,\n      "valuation": %r\n    }'
)


def instance_json(instance: Instance) -> str:
    """``json.dumps(instance_to_dict(instance), indent=2, sort_keys=True)``,
    written without the json encoder.

    The text is the same: json writes an int by ``int.__repr__`` and a
    finite float by ``float.__repr__``, as ``%r`` does, and every value here
    is finite, because ``Instance`` and ``InstanceColumns`` check the
    capacity and the customer numbers when they are built, so the encoder's
    NaN and Infinity spellings never arise.  The keys stand in sorted order
    with json's two-space indent, and no customers are written ``[]``.  With
    an indent, json skips its C encoder for a pure-Python one that takes
    about 2.6 times as long as this at n = 2e4.
    """
    customers = ",\n".join(
        [_CUSTOMER_JSON % (comp, cid, p, q, u) for cid, p, q, u, comp in _rows(instance.columns)]
    )
    listed = "[\n%s\n  ]" % customers if customers else "[]"
    return '{\n  "capacity": %r,\n  "customers": %s\n}' % (instance.capacity, listed)


def dump_instance(instance: Instance, path: str) -> None:
    """Write ``instance_json(instance)`` and a newline to ``path`` in one write:
    the bytes of ``json.dump(instance_to_dict(instance), fh, indent=2,
    sort_keys=True)`` and a newline (see ``instance_json`` for why)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_json(instance) + "\n")
