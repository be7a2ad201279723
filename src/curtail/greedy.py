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

Ties are broken by ascending customer id, so runs are reproducible.

``scan_order`` orders customers for every heuristic in the package, the
``curtail.cmin`` shedding ones too (``SHED_ORDERS``), and ``_sorted_orders``
keeps each distinct order of an algorithm once: under correlated valuations
(u = |d|^2) ``gda``'s two orders are one permutation, and so are
``cmin_gda``'s.  A solve over part of an instance (``gda_forced``, ``gsa``
seeds, simulation events) hands ``_best_of_scans`` orders sorted once over
all of it and a boolean pool that masks them.

A scan runs in ``_greedy_scan``, an array kernel that keeps exactly what the
per-item loop ``_scan_items`` keeps, and drops the items that can no longer
fit after a reject.  Many short solves over instances of one size (``bench``'s
untimed greedies, the oracle's seeds, ``gsa``'s seed completions) run in
``_best_of_scans_rows``: each order is sorted once over the batch
(``_sorted_order_rows``), and all the scans step over their positions
together.
"""

from __future__ import annotations

import enum
import time
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .model import (
    CAPACITY_REL_TOL,
    Instance,
    Solution,
    _running_sums,
    _stacked,
    _storage_mask,
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


def scan_order(instance: Instance, key: SortKey) -> np.ndarray:
    """Storage indices in ``key`` order, an int64 array; ties by ascending id."""
    cols = instance.columns
    return np.lexsort((cols.id, _PRIMARY_KEYS[key](cols)))


def _sorted_orders(instance: Instance, keys: Sequence[SortKey]) -> list[np.ndarray]:
    """Each distinct ``scan_order`` of ``keys``, first occurrences in ``keys`` order.

    An order equal to an earlier one is dropped: it would scan or shed to the
    same set, and the best of the scans keeps the first on ties.  Under
    correlated valuations (u = |d|^2) efficiency and valuation sort alike, and
    so do compensation and compensation per VA: ``gda`` scans once and
    ``cmin_gda`` sheds once.  A key is sorted only when no earlier order is
    already in its order (``_in_key_order``).
    """
    cols = instance.columns
    orders: list[np.ndarray] = []
    for key in keys:
        if orders:
            primary = _PRIMARY_KEYS[key](cols)
            if any(_in_key_order(order, primary, cols.id) for order in orders):
                continue
        orders.append(scan_order(instance, key))
    return orders


def _sorted_order_rows(
    instances: Sequence[Instance], keys: Sequence[SortKey]
) -> tuple[np.ndarray, np.ndarray]:
    """``_sorted_orders`` of a batch of instances of one size n, one sort per key.

    Returns the ``scan_order`` of every key and instance as an s x b x n
    array, one ``np.lexsort`` over the stacked columns per key, and an s x b
    boolean array: whether that order is kept, because no earlier key's order
    of the instance equals it.
    """
    cols = SimpleNamespace(**dict(zip(
        ("id", "valuation", "mag", "compensation"),
        _stacked(instances, "id", "valuation", "mag", "compensation"),
    )))
    orders = np.array([np.lexsort((cols.id, _PRIMARY_KEYS[key](cols)), axis=-1) for key in keys])
    kept = np.ones(orders.shape[:2], dtype=bool)
    for k in range(1, len(keys)):
        for j in range(k):
            kept[k] &= ~(orders[k] == orders[j]).all(axis=-1)
    return orders, kept


def _in_key_order(order: np.ndarray, primary: np.ndarray, ids: np.ndarray) -> bool:
    """Whether ``order`` is the ``(primary, id)`` order, by one pass over its neighbours.

    Ids are unique and the keys hold no NaN (``_per_va`` maps 0/0 to inf), so
    exactly one permutation has every consecutive pair non-decreasing in
    (key, id), and it is the one ``scan_order`` sorts to.
    """
    key, tie = primary[order], ids[order]
    return bool(np.all((key[:-1] < key[1:]) | ((key[:-1] == key[1:]) & (tie[:-1] < tie[1:]))))


def _scan_items(
    items: Iterable[tuple[int, float, float]], acc_p: float, acc_q: float, limit_sq: float
) -> tuple[list[int], float, float]:
    """Walk ``(index, p, q)`` items in order from the aggregate ``(acc_p, acc_q)``, keeping
    every customer that still fits; returns the kept indices and the final aggregate."""
    taken: list[int] = []
    for i, pv, qv in items:
        np_ = acc_p + pv
        nq = acc_q + qv
        if np_ * np_ + nq * nq <= limit_sq:
            acc_p, acc_q = np_, nq
            taken.append(i)
    return taken, acc_p, acc_q


# First block of a vectorised piece of ``_greedy_scan``; blocks double from it.
_SCAN_BLOCK = 64

# A sift tests at most this many first blocks of items at once: over a longer
# rest, allocating its temporaries costs more than the doubling walk it saves.
_SIFT_BLOCKS = 256


def _sift(p: np.ndarray, q: np.ndarray, acc_p: float, acc_q: float, limit_sq: float) -> np.ndarray:
    """Mask of the items ``(p, q)`` that fit on top of the aggregate ``(acc_p, acc_q)``."""
    new_p, new_q = p + acc_p, q + acc_q
    return new_p * new_p + new_q * new_q <= limit_sq


def _greedy_scan(
    stream: tuple[np.ndarray, np.ndarray, np.ndarray], acc_p: float, acc_q: float, limit_sq: float
) -> tuple[list[int], float, float]:
    """``_scan_items`` over ``(index, p, q)`` arrays, with the same result.

    The scan is a sequence of pieces, all accepts or all rejects, tested in blocks
    that double from ``_SCAN_BLOCK``.  Accepts add left to right from the aggregate
    by ``_running_sums``, so the prefixes are the loop's aggregates bit for
    bit; rejects end at the first item that fits the unchanged aggregate.  After
    a piece shorter than two first blocks, too short to pay for its numpy calls,
    the loop takes a block that doubles while the pieces stay short; it takes
    all of a stream shorter than two first blocks.

    When an accept piece ends at a reject, a sift tests every later item against
    the aggregate and drops those that miss it.  Demands are non-negative and
    rounding is monotone, so the aggregate only grows, component by component,
    and so does each rounded step of an item's fit test: an item that misses
    the aggregate now misses it at its turn.  Sifting goes on while a sift keeps
    at most half of the items it tests; the first that keeps more is not
    applied and ends sifting for the scan.  Each sift thus tests at most half
    as many items as the one before, so all of them together test fewer than
    2n, and the scan stays O(n).  A rest longer than ``_SIFT_BLOCKS`` first
    blocks is walked, not sifted.
    """
    index, p, q = stream
    n = len(index)
    if n < 2 * _SCAN_BLOCK:
        return _scan_items(zip(index.tolist(), p.tolist(), q.tolist()), acc_p, acc_q, limit_sq)
    taken: list[int] = []
    k = piece = 0
    size = loop_size = _SCAN_BLOCK
    filling = sifting = True
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n:
            stop = min(k + size, n)
            if filling:
                new_p = _running_sums(p[k:stop], acc_p)[1:]
                new_q = _running_sums(q[k:stop], acc_q)[1:]
            else:
                new_p, new_q = p[k:stop] + acc_p, q[k:stop] + acc_q
            fits = new_p * new_p + new_q * new_q <= limit_sq
            # the items before ``hit`` are the rest of the piece
            hit = int(fits.argmin() if filling else fits.argmax())
            hit = hit if fits[hit] != filling else stop - k
            if filling and hit:
                taken += index[k : k + hit].tolist()
                acc_p, acc_q = float(new_p[hit - 1]), float(new_q[hit - 1])
            k += hit
            if k == stop:
                size *= 2
                continue
            if filling and sifting and n - k <= _SIFT_BLOCKS * _SCAN_BLOCK:
                keep = _sift(p[k:], q[k:], acc_p, acc_q, limit_sq)
                left = int(np.count_nonzero(keep))
                if 2 * left <= n - k:
                    # every item left fits now, so the next piece accepts
                    index, p, q = index[k:][keep], p[k:][keep], q[k:][keep]
                    n, k, piece, size = left, 0, 0, _SCAN_BLOCK
                    continue
                sifting = False
            filling, size = not filling, _SCAN_BLOCK
            if 0 < k - piece < 2 * _SCAN_BLOCK:
                stop = min(k + loop_size, n)
                items = zip(index[k:stop].tolist(), p[k:stop].tolist(), q[k:stop].tolist())
                kept, acc_p, acc_q = _scan_items(items, acc_p, acc_q, limit_sq)
                taken += kept
                k, loop_size = stop, 2 * loop_size
            elif k > piece:
                loop_size = _SCAN_BLOCK
            piece = k
    return taken, acc_p, acc_q


def _best_of_scans(
    instance: Instance,
    forced: Sequence[int] | np.ndarray,
    orders: Iterable[np.ndarray],
    limit_sq: float,
    pool: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Retain ``forced`` and fill up with the best of one or more greedy scans.

    ``forced`` holds storage indices (it may be empty); each order, a
    ``scan_order`` over the whole instance, is kept to the storage indices
    that the boolean ``pool`` marks (every customer without one).  Ids are
    unique, so a kept order is the order of sorting just the pool.  Each order
    is scanned, its p and q read in order so that the scan walks memory
    sequentially, from the forced set's aggregate demand; the scan whose
    retained set has the largest total valuation wins, the earliest order on
    ties.  Returns the winning retained indices in ascending order and their
    total valuation, a ``storage_sum``.  Raises ValueError when the forced set
    does not fit on its own.

    Storage order.  Every retained set fits with its demands added by
    ``storage_sum``, as ``is_feasible``, ``solution_from_indices`` and the
    oracle add them.  A scan adds the forced demands in storage order and
    then its takes in scan order, and near the capacity the two sums can
    fall on either side of it.  Both add the same k non-negative terms one
    at a time from 0.0, k at most K, the forced set plus the kept order.
    Each sum is within a relative γ = (k − 1)u / (1 − (k − 1)u) of the exact
    one (u = 2^-53), so per component the storage sum is at most the scan's
    over 1 − 2(k − 1)u.  The fit test's two squares and their sum each round
    by a factor of at most 1 ± u, and so does the tightened limit limit_sq
    (1 − δ), δ = (K + 4) 2^-50 (1 − δ itself is exact).  So if a scan's
    aggregate passes that tightened limit, its storage sums pass limit_sq
    whenever (1 − δ)(1 + u)^3 <= (1 − u)^2 (1 − 2(k − 1)u)^2, which holds
    for δ >= (4k + 2)u; δ is 8 (K + 4) u.

    Only a scan whose aggregate misses the tightened limit has its set's
    storage sums taken, so away from the capacity no sum is added.  If they
    miss limit_sq, the order is scanned again against the tightened limit,
    and that set fits: it is the forced set, which fits, or its aggregate
    passed that limit.  A square that rounds to a subnormal errs by at most
    2^-1075, which the slack δ − (4k + 2)u >= 30u covers for limit_sq >=
    2^-960.  Below that every set's sums are taken, and a set that misses
    is cut back to the forced customers.
    """
    cols = instance.columns
    forced = np.sort(np.asarray(forced, dtype=np.int64))
    base_p = base_q = 0.0
    if forced.size:  # most scans force nobody; that skips two numpy calls each
        base_p, base_q = storage_sum(cols.p, forced), storage_sum(cols.q, forced)
    if base_p * base_p + base_q * base_q > limit_sq:
        raise ValueError("forced set is infeasible on its own")
    best = forced
    best_objective = -np.inf
    for order in orders:
        if pool is not None:
            order = order[pool[order]]
        stream = (order, cols.p[order], cols.q[order])
        # tightened by the reordering error (see above); tiny limits have no margin
        safe_sq = -1.0
        if limit_sq >= 2.0**-960:
            safe_sq = limit_sq * (1.0 - (forced.size + len(order) + 4) * 2.0**-50)
        for limit in (limit_sq, safe_sq):  # the second scan always fits
            taken, acc_p, acc_q = _greedy_scan(stream, base_p, base_q, limit)
            retained = np.sort(np.concatenate((forced, np.array(taken, dtype=np.int64))))
            if acc_p * acc_p + acc_q * acc_q <= safe_sq:
                break
            p, q = storage_sum(cols.p, retained), storage_sum(cols.q, retained)
            if p * p + q * q <= limit_sq:
                break
        objective = storage_sum(cols.valuation, retained)
        if objective > best_objective:
            best, best_objective = retained, objective
    return best, best_objective


def _best_of_scans_rows(
    instances: Sequence[Instance],
    orders: tuple[np.ndarray, np.ndarray],
    limit_sq: np.ndarray,
    trial: np.ndarray,
    forced: np.ndarray | None = None,
    pool: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``_best_of_scans`` of many rows at once: each row's retained storage mask and objective.

    The instances all have the same size n; ``orders`` are their
    ``_sorted_order_rows`` and ``limit_sq`` their squared limits.  Row r
    fills up instance ``trial[r]`` from the storage indices ``forced[r]``
    (nobody without ``forced``), scanning the customers that ``pool[r]``
    marks (everyone without ``pool``) in each kept order.  Returns an r x n
    boolean array and the r objectives; each row is ``_best_of_scans`` on its
    instance, bit for bit.

    With at least two rows and n below two ``_SCAN_BLOCK``, the scans of all
    rows and orders step over the scan positions together (``_scan_steps``),
    each step the same IEEE operations as ``_scan_items``.  A row's forced
    aggregate, its storage-order test, its retained demands and its
    objective are added column by column in storage order from 0.0, adding
    0.0 for a customer it does not hold, which leaves a sum of non-negative
    terms unchanged; so they are the floats ``storage_sum`` adds.  A scan
    whose set misfits in storage order is redone against its tightened
    limit, as ``_best_of_scans`` argues.  Any other input goes row by row to
    ``_best_of_scans``.
    """
    orders, kept = orders
    n, rows = orders.shape[-1], len(trial)
    forced = np.empty((rows, 0), dtype=np.int64) if forced is None else forced
    retained = np.zeros((rows, n), dtype=bool)
    if rows < 2 or n >= 2 * _SCAN_BLOCK:
        objectives = np.empty(rows)
        for r, t in enumerate(trial.tolist()):
            scans = [order[t] for order, keep in zip(orders, kept) if keep[t]]
            at, objectives[r] = _best_of_scans(instances[t], forced[r], scans, float(limit_sq[t]),
                                               None if pool is None else pool[r])
            retained[r, at] = True
        return retained, objectives
    pq, u = np.stack(_stacked(instances, "p", "q")), *_stacked(instances, "valuation")
    retained[np.arange(rows)[:, None], forced] = True
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range, sums are inf
        base = _row_sums(retained, pq[:, trial])
        if np.any(_squared(base) > limit_sq[trial]):
            raise ValueError("forced set is infeasible on its own")
        # one scan per kept order of each row's instance, the orders in turn
        slot, row = np.nonzero(kept[:, trial])
        t = trial[row]
        stream = orders[slot, t]
        # an item outside the pool reads as an infinite demand, which never fits
        active = np.ones(stream.shape, dtype=bool) if pool is None else pool[row[:, None], stream]
        items = np.where(active, pq.reshape(2, -1)[:, (t * n)[:, None] + stream], np.inf)
        items = items.transpose(2, 0, 1).copy()  # items[j]: the j-th p and q of every scan
        # tightened by the reordering error (see ``_best_of_scans``); tiny limits have no margin
        limit = limit_sq[t]
        size = forced.shape[1] + np.count_nonzero(active, axis=1)
        safe_sq = np.where(limit >= 2.0**-960, limit * (1.0 - (size + 4) * 2.0**-50), -1.0)
        taken, acc = _scan_steps(items, base[:, row], limit)
        # a stream holds every storage index once, so the scan's mask fills ``held``
        held = np.empty(stream.shape, dtype=bool)
        np.put_along_axis(held, stream, taken.T, axis=1)
        held |= retained[row]
        check = np.flatnonzero(~(_squared(acc) <= safe_sq))
        if check.size:
            sums = _row_sums(held[check], pq[:, t[check]])
            redo = check[~(_squared(sums) <= limit[check])]
            if redo.size:  # the second scan always fits
                again, _ = _scan_steps(items[:, :, redo], base[:, row[redo]], safe_sq[redo])
                redone = np.empty((len(redo), n), dtype=bool)
                np.put_along_axis(redone, stream[redo], again.T, axis=1)
                held[redo] = redone | retained[row[redo]]
        objective = _row_sums(held, u[t])
    # per row, the first order of largest objective
    table = np.full((len(orders), rows), -np.inf)
    table[slot, row] = objective
    index = np.zeros(table.shape, dtype=np.intp)
    index[slot, row] = np.arange(len(row))
    best = index[table.argmax(axis=0), np.arange(rows)]
    return held[best], objective[best]


def _row_sums(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Along the last axis, ``values`` where ``mask`` holds, added left to right from 0.0."""
    return _running_sums(np.where(mask, values, 0.0))[..., -1]


def _squared(pq: np.ndarray) -> np.ndarray:
    """p^2 + q^2 of the (p, q) pairs down the first axis, as a Python float expression adds."""
    return pq[0] * pq[0] + pq[1] * pq[1]


def _scan_steps(
    items: np.ndarray, acc: np.ndarray, limit_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_scan_items`` over many scans at once, a step per scan position.

    ``items[j]`` holds the j-th item's p and q of every scan, a 2 x S array;
    the scans start from the aggregates ``acc`` (2 x S) against ``limit_sq``.
    Returns which items are taken, n x S, and the final aggregates.
    """
    taken = np.empty((len(items), acc.shape[1]), dtype=bool)
    acc, new, square = acc.copy(), np.empty_like(acc), np.empty_like(acc)
    for j in range(len(items)):
        np.add(acc, items[j], out=new)
        np.multiply(new, new, out=square)
        fits = np.less_equal(np.add(square[0], square[1], out=square[0]), limit_sq, out=taken[j])
        np.copyto(acc, new, where=fits)
    return taken, acc


def _greedy_solve(instance: Instance, tag: str, rel_tol: float) -> Solution:
    """Best of the scans in ``SCAN_ORDERS[tag]`` over the whole instance."""
    start = time.perf_counter()
    limit_sq = instance.capacity_limit_sq(rel_tol)
    orders = _sorted_orders(instance, SCAN_ORDERS[tag])
    retained, objective = _best_of_scans(instance, (), orders, limit_sq)
    return solution_from_indices(instance, retained, objective, tag, time.perf_counter() - start)


def gva(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Greedy by descending valuation."""
    return _greedy_solve(instance, "gva", rel_tol)


def gma(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Greedy by ascending demand magnitude."""
    return _greedy_solve(instance, "gma", rel_tol)


def gra(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Greedy by descending efficiency (valuation per VA of demand)."""
    return _greedy_solve(instance, "gra", rel_tol)


def gda(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Better of the efficiency-greedy and valuation-greedy solutions.

    The valuation branch always retains the single highest-valuation customer
    (singletons are feasible by instance construction), so the objective is
    never below the largest single valuation.  On equal objectives the
    efficiency branch's set is returned.
    """
    return _greedy_solve(instance, "gda", rel_tol)


def gda_forced(
    instance: Instance,
    forced: Iterable[int],
    pool: Iterable[int],
    rel_tol: float = CAPACITY_REL_TOL,
) -> Solution:
    """``gda`` restricted to ``pool``, with ``forced`` customers pre-retained.

    Both greedy branches scan only the pool, starting from the aggregate
    demand of the forced set; the forced customers appear in every returned
    solution and their valuations count toward the objective.  ``forced`` and
    ``pool`` must be disjoint, and the forced set must fit the capacity on
    its own.

    No solver in the package calls it (``gsa`` completes its seeds over
    storage indices), but it stays public: it is the id-level form of a
    forced-pool completion, the tests' reference for ``gsa``'s seeds, and a
    name that perfbench traces.
    """
    start = time.perf_counter()
    forced, pool = frozenset(forced), frozenset(pool)
    in_forced, in_pool = _storage_mask(instance, forced), _storage_mask(instance, pool)
    if forced & pool:
        raise ValueError(f"forced and pool overlap: {sorted(forced & pool)}")
    limit_sq = instance.capacity_limit_sq(rel_tol)
    orders = _sorted_orders(instance, SCAN_ORDERS["gda"])
    forced_at = np.flatnonzero(in_forced)
    retained, objective = _best_of_scans(instance, forced_at, orders, limit_sq, in_pool)
    return solution_from_indices(instance, retained, objective, "gda", time.perf_counter() - start)
