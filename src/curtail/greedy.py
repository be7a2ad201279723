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
    """Greedy scan orders. Zero-magnitude demands rank first under EFFICIENCY_DESC
    (they consume no capacity, so taking them can only help)."""

    VALUATION_DESC = "valuation_desc"
    MAGNITUDE_ASC = "magnitude_asc"
    EFFICIENCY_DESC = "efficiency_desc"


# The scan orders behind each greedy algorithm, in the order it tries them;
# with two, the larger retained valuation wins and the first order wins ties.
SCAN_ORDERS: dict[str, tuple[SortKey, ...]] = {
    "gva": (SortKey.VALUATION_DESC,),
    "gma": (SortKey.MAGNITUDE_ASC,),
    "gra": (SortKey.EFFICIENCY_DESC,),
    "gda": (SortKey.EFFICIENCY_DESC, SortKey.VALUATION_DESC),
}


def _primary_key(instance: Instance, key: SortKey, subset: np.ndarray | None) -> np.ndarray:
    cols = instance.columns
    if subset is None:
        u, mag = cols.valuation, cols.mag
    else:
        u, mag = cols.valuation[subset], cols.mag[subset]
    if key is SortKey.VALUATION_DESC:
        return -u
    if key is SortKey.MAGNITUDE_ASC:
        return mag
    with np.errstate(divide="ignore", invalid="ignore"):
        eff = np.where(mag == 0.0, np.inf, u / mag)
    return -eff  # -inf first: zero-magnitude customers lead the order


def scan_order(
    instance: Instance,
    key: SortKey,
    subset: np.ndarray | None = None,
    tie_break_rng: np.random.Generator | None = None,
) -> list[int]:
    """Storage indices in greedy order; ties by id, or randomised via rng."""
    cols = instance.columns
    primary = _primary_key(instance, key, subset)
    ids = cols.id if subset is None else cols.id[subset]
    if tie_break_rng is not None:
        secondary = tie_break_rng.permutation(len(ids))
    else:
        secondary = ids
    order = np.lexsort((secondary, primary))
    if subset is not None:
        order = subset[order]
    return order.tolist()


def _scan_items(instance: Instance, order: Sequence[int]) -> Iterator[tuple[int, float, float]]:
    """``(storage index, p, q)`` in scan order.

    The demands are gathered into scan order by one numpy take, so a long
    scan then reads memory sequentially instead of chasing storage order.
    """
    cols = instance.columns
    order_arr = np.asarray(order, dtype=np.int64)
    return zip(order, cols.p[order_arr].tolist(), cols.q[order_arr].tolist())


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
    the pool in one scan order (see ``_scan_items``).  Each stream is scanned
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
    streams = [
        _scan_items(instance, scan_order(instance, key, tie_break_rng=tie_break_rng))
        for key in SCAN_ORDERS[tag]
    ]
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
    """
    start = time.perf_counter()
    forced, pool = frozenset(forced), frozenset(pool)
    forced_idx = _storage_indices(instance, forced)
    pool_idx = np.asarray(_storage_indices(instance, pool), dtype=np.int64)
    if forced & pool:
        raise ValueError(f"forced and pool overlap: {sorted(forced & pool)}")
    limit_sq = instance.capacity_limit_sq(rel_tol)
    if not indices_fit(instance, forced_idx, limit_sq):
        raise ValueError("forced set is infeasible on its own")
    streams = [
        _scan_items(
            instance, scan_order(instance, key, subset=pool_idx, tie_break_rng=tie_break_rng)
        )
        for key in SCAN_ORDERS["gda"]
    ]
    retained, objective = _best_of_scans(instance, forced_idx, streams, limit_sq)
    return solution_from_indices(instance, retained, objective, "gda", time.perf_counter() - start)
