"""Single-pass greedy solvers for valuation-maximising curtailment.

Four O(n log n) heuristics over one shared scan: sort the customers by some
key, then walk the order adding every customer whose demand still fits the
remaining apparent-power capacity.

* ``gva``  - valuation descending ("supply the biggest payers first")
* ``gma``  - demand magnitude ascending ("supply the smallest loads first")
* ``gra``  - efficiency (valuation per VA) descending
* ``gda``  - better of ``gra`` and ``gva``; guarantees at least
  ``alignment_factor(theta) / 2`` of the optimum when the pairwise phase
  spread theta is at most pi/2.

Ties are broken by ascending customer id so runs are reproducible; pass a
seeded generator as ``tie_break_rng`` to randomise tie order instead.

``scan_order`` orders customers for every heuristic in the package, the
``curtail.cmin`` shedding ones too (``SHED_ORDERS``).  A solve over part of
an instance (``gda_forced``, ``gsa`` seeds, simulation events) masks orders
sorted once over all of it.
"""

from __future__ import annotations

import enum
import time
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import (
    CAPACITY_REL_TOL,
    Instance,
    Solution,
    _storage_indices,
    indices_fit,
    solution_from_indices,
    storage_sum,
)


class SortKey(enum.Enum):
    """Scan orders: three to fill, then three to shed.  Zero-magnitude demands
    lead EFFICIENCY_DESC (taking them can only help) and trail
    COMPENSATION_PER_VA_ASC (shedding them frees no capacity)."""

    VALUATION_DESC = "valuation_desc"
    MAGNITUDE_ASC = "magnitude_asc"
    EFFICIENCY_DESC = "efficiency_desc"
    COMPENSATION_ASC = "compensation_asc"
    MAGNITUDE_DESC = "magnitude_desc"
    COMPENSATION_PER_VA_ASC = "compensation_per_va_asc"


# The scan orders behind each greedy algorithm, in the order it tries them;
# with two, the larger retained valuation wins and the first order wins ties.
SCAN_ORDERS: dict[str, tuple[SortKey, ...]] = {
    "gva": (SortKey.VALUATION_DESC,),
    "gma": (SortKey.MAGNITUDE_ASC,),
    "gra": (SortKey.EFFICIENCY_DESC,),
    "gda": (SortKey.EFFICIENCY_DESC, SortKey.VALUATION_DESC),
}

# The shedding orders behind each reverse greedy (``curtail.cmin``); with
# two, the smaller compensation wins and the first order wins ties.
SHED_ORDERS: dict[str, tuple[SortKey, ...]] = {
    "cmin_gva": (SortKey.COMPENSATION_ASC,),
    "cmin_gma": (SortKey.MAGNITUDE_DESC,),
    "cmin_gra": (SortKey.COMPENSATION_PER_VA_ASC,),
    "cmin_gda": (SortKey.COMPENSATION_PER_VA_ASC, SortKey.COMPENSATION_ASC),
}


def _per_va(values: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """``values / mag``, inf where mag is 0; overflow (subnormal mag) gives inf silently."""
    with np.errstate(all="ignore"):
        return np.where(mag == 0.0, np.inf, values / mag)


# Ascending primary sort key of each order, over an instance's columns.
_PRIMARY_KEYS = {
    SortKey.VALUATION_DESC: lambda c: -c.valuation,
    SortKey.MAGNITUDE_ASC: lambda c: c.mag,
    SortKey.EFFICIENCY_DESC: lambda c: -_per_va(c.valuation, c.mag),
    SortKey.COMPENSATION_ASC: lambda c: c.compensation,
    SortKey.MAGNITUDE_DESC: lambda c: -c.mag,
    SortKey.COMPENSATION_PER_VA_ASC: lambda c: _per_va(c.compensation, c.mag),
}


def scan_order(
    instance: Instance,
    key: SortKey,
    tie_break_rng: np.random.Generator | None = None,
) -> list[int]:
    """Storage indices in ``key`` order; ties by id, or randomised via rng."""
    cols = instance.columns
    secondary = cols.id if tie_break_rng is None else tie_break_rng.permutation(len(instance))
    return np.lexsort((secondary, _PRIMARY_KEYS[key](cols))).tolist()


def _sorted_orders(
    instance: Instance, keys: Sequence[SortKey], tie_break_rng: np.random.Generator | None = None
) -> list[tuple[list[int], np.ndarray, np.ndarray, np.ndarray]]:
    """Each key's ``scan_order`` as a list and as storage index, p and q arrays, so
    that a scan reads memory sequentially instead of chasing storage order."""
    cols = instance.columns
    listed = [scan_order(instance, key, tie_break_rng) for key in keys]
    arrays = [np.asarray(order, dtype=np.int64) for order in listed]
    return [(lst, arr, cols.p[arr], cols.q[arr]) for lst, arr in zip(listed, arrays)]


def _item_streams(
    orders: Sequence[tuple[list[int], np.ndarray, np.ndarray, np.ndarray]],
    keep: np.ndarray | None = None,
) -> list[Iterator[tuple[int, float, float]]]:
    """``(storage index, p, q)`` items of each ``_sorted_orders`` order, kept to the
    storage indices that the boolean array ``keep`` marks when it is given.  Ids
    are unique, so a kept order is the order of sorting just those customers."""
    streams = []
    for listed, order, p, q in orders:
        if keep is not None:
            kept = keep[order]
            listed, p, q = order[kept].tolist(), p[kept], q[kept]
        streams.append(zip(listed, p.tolist(), q.tolist()))
    return streams


def _greedy_scan(
    items: Iterable[tuple[int, float, float]],
    base_p: float,
    base_q: float,
    limit_sq: float,
) -> list[int]:
    """Walk ``(index, p, q)`` items in order, keeping every customer that still fits."""
    acc_p, acc_q = base_p, base_q
    taken: list[int] = []
    for i, pv, qv in items:
        np_ = acc_p + pv
        nq = acc_q + qv
        if np_ * np_ + nq * nq <= limit_sq:
            acc_p, acc_q = np_, nq
            taken.append(i)
    return taken


def _best_of_scans(
    instance: Instance,
    forced: Sequence[int],
    item_streams: Iterable[Iterable[tuple[int, float, float]]],
    limit_sq: float,
) -> tuple[list[int], float]:
    """Retain ``forced`` and fill up with the best of one or more greedy scans.

    ``forced`` holds storage indices (it may be empty); each item stream is
    the pool in one scan order (see ``_item_streams``).  Each stream is scanned
    from the forced set's aggregate demand; the scan whose retained set has
    the largest total valuation wins, the earliest stream on ties.  Returns
    the winning retained indices in ascending order and their total
    valuation, a ``storage_sum``.
    """
    cols = instance.columns
    forced = sorted(forced)
    base_p = storage_sum(cols.p_list, forced)
    base_q = storage_sum(cols.q_list, forced)
    best: list[int] = forced
    best_objective = -np.inf
    for items in item_streams:
        retained = sorted(forced + _greedy_scan(items, base_p, base_q, limit_sq))
        objective = storage_sum(cols.valuation_list, retained)
        if objective > best_objective:
            best, best_objective = retained, objective
    return best, best_objective


def _greedy_solve(
    instance: Instance,
    tag: str,
    rel_tol: float,
    tie_break_rng: np.random.Generator | None,
) -> Solution:
    """Best of the scans in ``SCAN_ORDERS[tag]`` over the whole instance."""
    start = time.perf_counter()
    limit_sq = instance.capacity_limit_sq(rel_tol)
    streams = _item_streams(_sorted_orders(instance, SCAN_ORDERS[tag], tie_break_rng))
    retained, objective = _best_of_scans(instance, (), streams, limit_sq)
    return solution_from_indices(instance, retained, objective, tag, time.perf_counter() - start)


def gva(
    instance: Instance,
    rel_tol: float = CAPACITY_REL_TOL,
    tie_break_rng: np.random.Generator | None = None,
) -> Solution:
    """Greedy by descending valuation."""
    return _greedy_solve(instance, "gva", rel_tol, tie_break_rng)


def gma(
    instance: Instance,
    rel_tol: float = CAPACITY_REL_TOL,
    tie_break_rng: np.random.Generator | None = None,
) -> Solution:
    """Greedy by ascending demand magnitude."""
    return _greedy_solve(instance, "gma", rel_tol, tie_break_rng)


def gra(
    instance: Instance,
    rel_tol: float = CAPACITY_REL_TOL,
    tie_break_rng: np.random.Generator | None = None,
) -> Solution:
    """Greedy by descending efficiency (valuation per VA of demand)."""
    return _greedy_solve(instance, "gra", rel_tol, tie_break_rng)


def gda(
    instance: Instance,
    rel_tol: float = CAPACITY_REL_TOL,
    tie_break_rng: np.random.Generator | None = None,
) -> Solution:
    """Better of the efficiency-greedy and valuation-greedy solutions.

    The valuation branch always retains the single highest-valuation customer
    (singletons are feasible by instance construction), so the objective is
    never below the largest single valuation.  On equal objectives the
    efficiency branch's set is returned.
    """
    return _greedy_solve(instance, "gda", rel_tol, tie_break_rng)


def gda_forced(
    instance: Instance,
    forced: Iterable[int],
    pool: Iterable[int],
    rel_tol: float = CAPACITY_REL_TOL,
    tie_break_rng: np.random.Generator | None = None,
) -> Solution:
    """``gda`` restricted to ``pool``, with ``forced`` customers pre-retained.

    Both greedy branches scan only the pool, starting from the aggregate
    demand of the forced set; the forced customers appear in every returned
    solution and their valuations count toward the objective.  ``forced`` and
    ``pool`` must be disjoint, and the forced set must fit the capacity on
    its own.

    Both orders are sorted over the whole instance and masked to the pool, so
    a ``tie_break_rng`` permutes ties over all customers, not only the pool's.
    """
    start = time.perf_counter()
    forced, pool = frozenset(forced), frozenset(pool)
    forced_idx = _storage_indices(instance, forced)
    in_pool = np.zeros(len(instance), dtype=bool)
    in_pool[_storage_indices(instance, pool)] = True
    if forced & pool:
        raise ValueError(f"forced and pool overlap: {sorted(forced & pool)}")
    limit_sq = instance.capacity_limit_sq(rel_tol)
    if not indices_fit(instance, forced_idx, limit_sq):
        raise ValueError("forced set is infeasible on its own")
    streams = _item_streams(_sorted_orders(instance, SCAN_ORDERS["gda"], tie_break_rng), in_pool)
    retained, objective = _best_of_scans(instance, forced_idx, streams, limit_sq)
    return solution_from_indices(instance, retained, objective, "gda", time.perf_counter() - start)
