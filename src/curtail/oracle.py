"""Ground-truth optima by exhaustive enumeration, plus the LP relaxation bound.

The enumeration is a branch and bound by prefix doubling over storage
positions, run over a batch of instances of one size at once: subset-sum
tables over the first few customers (``_TABLE_BITS``), then each later
customer extends only the selections that fit and whose bound still reaches
the best weight known for their instance.  That weight starts at the greedy pair's
set, which passes the enumeration's own fit test.  The bound is the
selection's weight plus a fractional knapsack over the later positions,
with demands projected on the unit vector at their mid-phase.  Work and
memory follow the surviving selections, not 2^n: FCR at n = 26 and 40% of
the aggregate demand bounds about 10^3 selections in about a millisecond,
while all-zero weights under a capacity that fits everyone keep every
selection.  ``_best_feasible_masks`` argues why the pruning keeps the answer
exact, ties included, and states the memory rule for a batch.  The
single-instance solvers are batches of one, and ``bench.run_benchmark``
hands over each n's trials at once; ``_brute_force_batch`` finds all their
greedy seeds in one ``greedy._greedy_rows`` call and slices them into
batches by that rule.  The budget is one limit on n,
``OracleBudget.max_n`` (at most ``MAX_ORACLE_N`` = 30); its default keeps
accidental 2^30-subset runs from happening.

``lp_upper_bound`` solves the magnitude-relaxed fractional problem exactly by
the efficiency-greedy rule: it upper-bounds the alignment-scaled optimum from
above and the sum of the two greedy branch objectives bounds it in turn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .greedy import (
    SCAN_ORDERS,
    SortKey,
    _greedy_rows,
    _per_va,
    _row_sums,
    scan_order,
)
from .model import (
    CAPACITY_REL_TOL,
    CurtailError,
    Instance,
    Solution,
    _running_sums,
    _stacked,
    solution_from_indices,
    storage_sum,
)

MAX_ORACLE_N = 30  # 2^30 subsets; hard ceiling, not a suggestion

# Most selections, instances x 2^n, that one ``_best_feasible_masks`` batch of
# ``_brute_force_batch`` spans: those of one instance at the default
# ``OracleBudget.max_n`` of 20.
_BATCH_SELECTIONS = 1 << 20

# A batch of ``_best_feasible_masks`` tabulates at most 2^_TABLE_BITS
# selections in full before it starts pruning: its first
# _TABLE_BITS - ceil(log2(batch size)) storage positions.  10 and 11 ran
# fastest on the 90 FCR trials of a 14-to-18 sweep; 12 was about 10% slower
# there, and about 2% faster on single instances.
_TABLE_BITS = 11


class OracleBudgetError(CurtailError):
    """The instance is too large for exhaustive enumeration under this budget."""


@dataclass(frozen=True)
class OracleBudget:
    """The largest customer count that exhaustive enumeration accepts.

    ``OracleBudget.max_n`` is the package default, for the CLI and plans too.
    """

    max_n: int = 20

    def __post_init__(self):
        if self.max_n > MAX_ORACLE_N:
            raise ValueError(f"max_n must be <= {MAX_ORACLE_N}, got {self.max_n}")
        if self.max_n < 0:
            raise ValueError(f"max_n must be >= 0, got {self.max_n}")

    def check(self, n: int) -> None:
        if n > self.max_n:
            raise OracleBudgetError(
                f"instance has {n} customers; enumeration budget allows max_n={self.max_n}"
            )


def subset_sums(values: np.ndarray) -> np.ndarray:
    """out[..., mask] = sum of values[..., j] over set bits j, in ascending-bit order.

    The addition order matches a plain left-to-right walk of the customers in
    storage order, so these sums are bit-identical to the canonical
    accumulation helpers in the model module.  A 2-D ``values`` gets one
    table per row.
    """
    n = values.shape[-1]
    out = np.zeros(values.shape[:-1] + (1 << n,))
    for j in range(n):
        size = 1 << j
        np.add(out[..., :size], values[..., j, None], out=out[..., size : size << 1])
    return out


def _best_feasible_masks(
    instances: Sequence[Instance],
    weights: np.ndarray,
    rel_tol: float,
    seeds: np.ndarray,
) -> np.ndarray:
    """Per instance, the storage mask of its feasible selection of largest weight.

    The instances all have the same size n, and row t of ``weights`` (b x n)
    weighs instance t, and ``seeds`` holds their ``_greedy_seeds`` (-inf
    seeds nothing).  Ties go to the lexicographically smallest sorted id list.  Returns a b x n
    boolean array.

    The search is prefix doubling over the selections that fit and can still
    win, for every instance at once.  An entry is a column of rows p, q,
    weight, storage mask (a sum of distinct powers of two, exact below
    2^``MAX_ORACLE_N``) and room, and ``trial`` holds each entry's
    instance.  ``subset_sums`` tabulates the first few storage positions in
    full (``_TABLE_BITS``); each later position j extends every kept entry by
    customer j (``entry + v_j``, the same floats a full table holds).  An
    entry and its extension each survive only if they fit (``p^2 + q^2 <=
    limit_sq``) and their bound (``_suffix_bounds``) reaches their
    instance's incumbent, a weight that some feasible selection of that
    instance has.  The incumbent starts at the larger of its seed and the
    table's best fitting weight, and rises (``np.maximum.at``) with every
    fitting extension.  When the table holds every position there is nothing
    to prune, and neither the seed nor the bound is used.  This
    drops no selection that the full enumeration would have tied at the
    maximum:

    1. Fit is downward-closed, in floats too.  Demands have p, q >= 0, and
       sums are built by adding in ascending storage order, so by monotone
       rounding a superset's sums are >= those of each subset, and so is its
       squared magnitude.  Every extension of a set that does not fit fails
       to fit as well.
    2. The incumbent never exceeds the maximum.  A seed is the weight of the
       greedy pair's set added in storage order from 0.0, and that set's
       demand, added the same way, passes this fit test (the greedy pair
       returns no other, batched or not).  So it is the very float that the enumeration
       holds for a feasible entry.  Every later raise is the weight of a
       fitting entry.
    3. The bound never drops a possible winner.  An entry S whose positions
       end before k is bounded by its weight plus the fractional knapsack
       over positions >= k (``_suffix_tables``).  Each size is the demand
       projected on the unit vector at the mid-phase (``_projection``), and
       the budget, S's room, is sqrt(limit_sq) (1 + margin) minus S's sizes.
       By Cauchy–Schwarz every extension T that fits has Σ_S s + Σ_T s <=
       |Σ_{S ∪ T} d| <= sqrt(limit_sq), so T's weight is at most that
       knapsack, which is never more than the later positions' total weight,
       the plain bound it replaces.  The relative margin 16 (n + 4) 2^-53
       widens the capacity and then the bound.  It covers the roundings of
       the fit test, the projection, the sizes, the room, the prefix sums,
       the break fraction and the weight sums, which ``_projected_bounds``
       counts for the same walk.  So the bound is >= the float weight of
       every fitting extension.  An entry goes only when its bound is
       strictly below the incumbent, so tied optima survive.

    The survivors of the last position therefore hold every feasible
    maximum of each instance, and the tie-break sees the same candidates as
    a full table.

    Memory.  The entries of a batch are at most every selection of every
    instance, 48 bytes each with the index, and the table stage holds at
    most 2^``_TABLE_BITS`` in all.  ``_brute_force_batch`` slices its
    instances into batches of max(1, ``_BATCH_SELECTIONS`` >> n), so a batch
    of several instances spans at most 2^20 selections, those of one
    instance at the default budget.  Pruning keeps far fewer on every
    generated scenario, while all-zero weights under a capacity that fits
    everyone keep them all.
    """
    b, n = weights.shape
    p, q, ids = _stacked(instances, "p", "q", "id")
    limit_sq = np.array([instance.capacity_limit_sq(rel_tol) for instance in instances])
    # rows p, q, weight, storage mask and room: what is left of the widened
    # capacity after the projected sizes, filled in only when pruning needs it
    values = np.zeros((b, 5, n))
    values[:, 0], values[:, 1], values[:, 2], values[:, 3] = p, q, weights, 2.0 ** np.arange(n)
    base = _table_positions(b, n)
    # a sum or square that overflows to inf is simply infeasible, and a bound
    # that overflows keeps its entry
    with np.errstate(over="ignore"):
        if base < n:
            s, rate, order = _projection(p, q, weights, ids)
            values[:, 4] = -s
        table = subset_sums(values[:, :, :base])
        fit = _fits(table[:, 0], table[:, 1], limit_sq[:, None])
        # the empty selection always fits
        incumbent = np.where(fit, table[:, 2], -np.inf).max(axis=1)
        trial = np.nonzero(fit)[0]
        entries = table.transpose(1, 0, 2)[:, fit]
        if base < n:
            incumbent = np.maximum(incumbent, seeds)
            margin = _rounding_margin(n)
            entries[4] += (np.sqrt(limit_sq) * (1.0 + margin))[trial]
            tables = _suffix_tables(s, weights, rate, order)
            steps = values.transpose(2, 1, 0).copy()  # steps[j]: customer j of each instance
            keep = _suffix_bounds(entries, trial, base, tables, margin) >= incumbent[trial]
            entries, trial = entries.compress(keep, axis=1), trial[keep]
            for j in range(base, n):
                grown = entries + np.take(steps[j], trial, axis=1)
                fit = _fits(grown[0], grown[1], limit_sq[trial])
                grown, grown_trial = grown.compress(fit, axis=1), trial[fit]
                np.maximum.at(incumbent, grown_trial, grown[2])
                entries = np.concatenate((entries, grown), axis=1)
                trial = np.concatenate((trial, grown_trial))
                keep = _suffix_bounds(entries, trial, j + 1, tables, margin) >= incumbent[trial]
                entries, trial = entries.compress(keep, axis=1), trial[keep]
    # every kept entry fits, and every feasible maximum is kept: the incumbent is it
    winners = entries[2] == incumbent[trial]
    trial, masks = trial[winners], entries[3, winners].astype(np.int64)
    best = np.zeros(b, dtype=np.int64)
    best[trial] = masks
    for t in np.flatnonzero(np.bincount(trial, minlength=b) > 1).tolist():
        best[t] = _lexicographic_first(ids[t], masks[trial == t])
    return (best[:, None] >> np.arange(n)) & 1 == 1


def _table_positions(b: int, n: int) -> int:
    """The storage positions that a batch of b instances of size n tabulates in full."""
    return min(n, max(0, _TABLE_BITS - (b - 1).bit_length()))


def _greedy_seeds(
    instances: Sequence[Instance], weights: np.ndarray, rel_tol: float
) -> np.ndarray:
    """Per instance, the weight of one of its feasible selections at ``rel_tol``.

    The selection is the greedy pair's (``SCAN_ORDERS["gda"]``), found for
    every instance at once by ``_greedy_rows``, and its weight is added in
    storage order from 0.0, as the enumeration adds it.  The greedy pair
    returns only sets whose demand, added the same way, passes the
    enumeration's fit test.
    """
    retained, _ = _greedy_rows(instances, SCAN_ORDERS["gda"], rel_tol)
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        return _row_sums(retained, weights)


def _suffix_tables(
    s: np.ndarray, weights: np.ndarray, rate: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The fractional-knapsack walks over every suffix of storage positions.

    For each suffix start k from 0 to n and each instance t (a row of the
    b x n inputs), the walk runs along ``order`` over the customers at
    storage positions >= k; the others add nothing.  ``walks[k]`` has rows
    taken weight, taken size and rate: at t (n + 1) + i, the weight and
    size of the walk's first i customers and the rate of its next one (0
    past the last).  A customer of infinite rate takes no size, as in
    ``_projected_bounds``.  ``keys[k]`` holds t + i x at t n + i - 1 for
    each size prefix x after the first; complex numbers order by real part,
    then imaginary part, so the keys are sorted.
    """
    b, n = s.shape
    walk_rate = np.take_along_axis(rate, order, axis=1)
    walk_s = np.where(walk_rate == np.inf, 0.0, np.take_along_axis(s, order, axis=1))
    walk_w = np.take_along_axis(weights, order, axis=1)
    member = order >= np.arange(n + 1)[:, None, None]
    taken_s = _running_sums(np.where(member, walk_s, 0.0))
    taken_w = _running_sums(np.where(member, walk_w, 0.0))
    keys = np.empty((n + 1, b, n), dtype=complex)
    keys.real, keys.imag = np.arange(b)[:, None], taken_s[:, :, 1:]
    walk_rate = np.concatenate((walk_rate, np.zeros((b, 1))), axis=1)
    walks = np.stack((taken_w, taken_s, np.broadcast_to(walk_rate, taken_s.shape)), axis=1)
    return keys.reshape(n + 1, b * n), walks.reshape(n + 1, 3, b * (n + 1))


def _suffix_bounds(
    entries: np.ndarray,
    trial: np.ndarray,
    k: int,
    tables: tuple[np.ndarray, np.ndarray],
    margin: float,
) -> np.ndarray:
    """Per entry, its weight plus the fractional knapsack over positions >= ``k``.

    ``entries`` has rows p, q, weight, mask and room, and ``trial`` holds each
    entry's instance; ``tables`` are that batch's ``_suffix_tables``.  The
    walk takes whole customers while their sizes fit the room (or 0, if it
    is negative) and then the fitting fraction of the next one, whose rate
    is 0 past the last customer.  The sum is widened by the relative
    ``margin``.
    """
    keys, walks = tables
    budget = np.maximum(entries[4], 0.0)
    # prefixes of sizes never shrink, so the break customer follows the last
    # prefix within the budget: t + i budget sorts after t n keys plus those
    # prefixes, and adding t gives its place in instance t's walk
    query = np.empty(len(trial), dtype=complex)
    query.real, query.imag = trial, budget
    at = np.searchsorted(keys[k], query, side="right") + trial
    taken_w, taken_s, rate = np.take(walks[k], at, axis=1)
    bound = entries[2] + taken_w
    bound += (budget - taken_s) * rate
    bound *= 1.0 + margin
    return bound


def _fits(p: np.ndarray, q: np.ndarray, limit_sq: np.ndarray | float) -> np.ndarray:
    """Where ``p^2 + q^2 <= limit_sq``, squares added as a Python float expression adds them."""
    square = p * p
    square += q * q
    return square <= limit_sq


def _lexicographic_first(ids: np.ndarray, masks: np.ndarray) -> int:
    """The storage mask among ``masks`` whose sorted id list is smallest.

    Each mask is rewritten over rank bits (bit r for the customer with the
    r-th smallest id).  An empty remainder is a prefix of every other list
    and wins; otherwise only the masks whose lowest remaining bit is the
    smallest stay, that bit is cleared, and the walk repeats.  The masks are
    distinct, so one is left at the end.
    """
    if masks.size == 1:
        return int(masks[0])
    order = np.argsort(ids)
    ranked = np.zeros_like(masks)
    for r, j in enumerate(order.tolist()):
        ranked |= (masks >> j & 1) << r
    while masks.size > 1:
        done = ranked == 0
        if done.any():
            return int(masks[done][0])
        low = ranked & -ranked
        keep = low == low.min()
        masks, ranked = masks[keep], ranked[keep] ^ low[keep]
    return int(masks[0])


def _brute_force_batch(
    instances: Sequence[Instance], budget: OracleBudget, rel_tol: float, objective: str
) -> tuple[np.ndarray, list[float]]:
    """Per instance (all of one size), its optimal retained mask and objective.

    ``objective`` is "vmax" (the objective is the retained valuation) or
    "cmin" (the objective is the compensation of everyone else); either way
    the retained set is the feasible one of largest retained weight.  The
    objective is a ``storage_sum``, as in the solution of each instance.
    The instances are searched in batches of max(1, ``_BATCH_SELECTIONS`` >> n).
    When the first, largest batch leaves positions to prune, the greedy seeds
    of all the instances are computed at once (``_greedy_seeds``) and each
    batch takes its own; otherwise no batch prunes, and none is computed.
    """
    for instance in instances:
        budget.check(len(instance))
    (weights,) = _stacked(instances, "compensation" if objective == "cmin" else "valuation")
    b, n = weights.shape
    size = max(1, _BATCH_SELECTIONS >> n)
    seeds = np.full(b, -np.inf)
    if _table_positions(min(size, b), n) < n:
        seeds = _greedy_seeds(instances, weights, rel_tol)
    kept = np.concatenate([
        _best_feasible_masks(
            instances[lo : lo + size], weights[lo : lo + size], rel_tol, seeds[lo : lo + size]
        )
        for lo in range(0, b, size)
    ])
    counted = ~kept if objective == "cmin" else kept
    return kept, [storage_sum(w, c) for w, c in zip(weights, counted)]


def _brute_force(
    instance: Instance, budget: OracleBudget, rel_tol: float, objective: str
) -> Solution:
    """``_brute_force_batch`` over one instance, as a ``Solution``."""
    start = time.perf_counter()
    kept, (value,) = _brute_force_batch([instance], budget, rel_tol, objective)
    algorithm = "cmin_oracle" if objective == "cmin" else "oracle"
    return solution_from_indices(
        instance, np.flatnonzero(kept[0]), value, algorithm, time.perf_counter() - start
    )


def brute_force_vmax(
    instance: Instance,
    budget: OracleBudget = OracleBudget(),
    rel_tol: float = CAPACITY_REL_TOL,
) -> Solution:
    """Exact valuation-maximising selection via exhaustive enumeration."""
    return _brute_force(instance, budget, rel_tol, "vmax")


def brute_force_cmin(
    instance: Instance,
    budget: OracleBudget = OracleBudget(),
    rel_tol: float = CAPACITY_REL_TOL,
) -> Solution:
    """Exact compensation-minimising curtailment via exhaustive enumeration.

    Minimising the compensation paid to curtailed customers is the same as
    maximising the compensation kept in the retained set; the empty retained
    set is always feasible, so an optimum always exists.
    """
    return _brute_force(instance, budget, rel_tol, "cmin")


def lp_upper_bound(instance: Instance) -> float:
    """Optimum of the magnitude-relaxed fractional problem.

    Walk customers by descending efficiency, accumulating demand magnitudes;
    the first customer that would overflow the capacity is included
    fractionally and the walk stops.  If everything fits the bound is simply
    the total valuation.  The walk's running sums are prefix sums added left
    to right from 0.0, so they are the same floats as a per-customer loop's.
    """
    cols = instance.columns
    order = scan_order(instance, SortKey.EFFICIENCY_DESC)
    mag, valuation = cols.mag[order], cols.valuation[order]
    with np.errstate(over="ignore"):  # a sum past the float range is inf, as in a loop
        taken_mag, value = _running_sums(mag), _running_sums(valuation)
    # prefixes never shrink, so the break customer is the first whose prefix overflows
    k = int(np.searchsorted(taken_mag[1:], instance.capacity, side="right"))
    if k == len(order):
        return float(value[k])
    # break customer: its magnitude is > 0, since zero-magnitude demands always fit
    room = instance.capacity - float(taken_mag[k])
    return float(value[k]) + room * float(valuation[k]) / float(mag[k])


def _rounding_margin(n: int) -> float:
    """16 (n + 4) 2^-53: the relative widening that covers a projected bound's roundings."""
    return (n + 4) * 2.0**-49


def _projection(
    p: np.ndarray, q: np.ndarray, weights: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected sizes, rates and walk order of the customers along the last axis.

    Each demand is projected on w = (cos φ, sin φ), with φ the mid-phase of
    the nonzero demands: s_k = max(p_k cos φ + q_k sin φ, 0).  The rate is
    weight / s (inf where s is 0 or the quotient overflows), and the order
    is by rate descending, ties by ascending id.  ``_projected_bounds`` and
    ``_suffix_tables`` walk it.
    """
    # phases lie in [0, π/2]; with no nonzero demand every s is 0 whatever φ is
    nonzero = (p != 0.0) | (q != 0.0)
    phases = np.arctan2(q, p)
    low = np.where(nonzero, phases, np.pi / 2).min(axis=-1, initial=np.pi / 2)
    high = np.where(nonzero, phases, 0.0).max(axis=-1, initial=0.0)
    phi = ((low + high) / 2.0)[..., None]
    s = np.maximum(p * np.cos(phi) + q * np.sin(phi), 0.0)
    rate = _per_va(weights, s)
    return s, rate, np.lexsort((ids, -rate), axis=-1)


def _projected_bounds(
    p: np.ndarray,
    q: np.ndarray,
    u: np.ndarray,
    ids: np.ndarray,
    limit_sq: np.ndarray,
    seeds: np.ndarray,
    trial: np.ndarray,
) -> np.ndarray:
    """Per row S of ``seeds``, a bound on the float valuation of S plus any completion.

    Row t of the b x n columns ``p``, ``q``, ``u`` (valuations) and ``ids`` is
    an instance, with squared capacity ``limit_sq[t]``.  ``seeds`` holds rows
    of distinct storage indices, possibly with no columns, and ``trial`` the
    instance of each row.  A row's pool is every customer of its instance
    outside S whose valuation is at most S's smallest (everyone, for no
    columns).  The bound of a row is at least the storage-order float sum of
    the valuations over S ∪ T, for every T in the pool such that S ∪ T passes
    the float fit test ``P^2 + Q^2 <= limit_sq``.

    Each demand is projected on w = (cos φ, sin φ), with φ the mid-phase of
    the instance's nonzero demands: s_k = max(p_k cos φ + q_k sin φ, 0).  w
    lies in the first quadrant, so s_k >= 0 and, by Cauchy–Schwarz, every set
    that fits has Σ s_k <= sqrt(limit_sq).  So T is worth at most the
    fractional knapsack over the pool with sizes s and budget
    sqrt(limit_sq) − Σ_S s.  The walk in projected-efficiency order (rate u/s
    descending, s = 0 first, ties by id) solves it: whole customers while the
    budget lasts, then the fitting fraction of the next one.  A customer
    whose rate is infinite (s is 0, or u/s overflows) takes no budget, which
    can only loosen the bound.  The bound is u(S) plus that value.  φ sets
    only the tightness, never the validity: at the mid-phase,
    s_k >= |d_k| cos(θ/2) for phase spread θ.

    Rounding.  The fit test, the rounding of w, of the sizes and of the rates,
    Σ_S s, the budget, the prefix sums, the break fraction and the float sum
    of the objective itself each move the result by a relative 2^-53 per
    rounding, and there are at most about 4n + 20 of them: the fit test's
    sums, the sizes of S and its pool, their valuations and the objective
    each add at most n nonnegative terms, in whatever order numpy adds
    them.  The budget is a difference, but its errors are multiples of
    sqrt(limit_sq), so widening its capacity first covers them.  The
    relative margin 16 (n + 4) 2^-53 covers all of them more than three
    times over; it widens the capacity and then the bound.  A bound past
    the float range is inf.
    """
    b, n = p.shape
    s, rate, order = _projection(p, q, u, ids)
    # each instance's walk down its rows: rates (0 past the last customer),
    # sizes and valuations
    walk_rate = np.take_along_axis(rate, order, axis=1)
    # customers of infinite rate ride free, in any order: that only loosens the bound
    walk_s = np.where(walk_rate == np.inf, 0.0, np.take_along_axis(s, order, axis=1)).T
    walk_rate = np.concatenate((walk_rate, np.zeros((b, 1))), axis=1).T
    walk_u = np.take_along_axis(u, order, axis=1).T
    position = np.empty_like(order)
    np.put_along_axis(position, order, np.arange(n), axis=1)
    rows = np.arange(len(seeds))
    margin = _rounding_margin(n)  # see Rounding above
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        # S's smallest valuation, sizes and valuations, column by column: along
        # a short row numpy pays per row
        floor = np.full(len(seeds), np.inf)
        seed_s, bound = np.zeros(len(seeds)), np.zeros(len(seeds))
        for col in seeds.T:
            np.minimum(floor, u[trial, col], out=floor)
            seed_s += s[trial, col]
            bound += u[trial, col]
        budget = np.maximum(np.sqrt(limit_sq[trial]) * (1.0 + margin) - seed_s, 0.0)
        # one buffer, a row per walk position and a column per seed, holds the
        # seeds' walks in turn: their valuations, then the prefixes of their
        # pool's sizes (after a leading row of 0), then their pool's valuations
        taken = np.zeros((n + 1, len(seeds)))
        # ``trial`` is in range; the default mode would buffer ``out``
        walk = np.take(walk_u, trial, axis=1, out=taken[1:], mode="clip")
        pool = walk <= floor
        for col in seeds.T:
            pool[position[trial, col], rows] = False
        # sizes and valuations are finite, so a product with the mask keeps or
        # zeroes each exactly, and costs less than ``np.where``
        np.take(walk_s, trial, axis=1, out=walk, mode="clip")
        walk *= pool
        for i in range(n):  # left to right; numpy's accumulate down the rows is slower
            taken[i + 1] += taken[i]
        # a prefix of sizes never shrinks, so the whole customers are those before
        # the first prefix past the budget, which ends at the break customer
        k = np.count_nonzero(walk <= budget, axis=0)
        # past the last customer the rate is 0: a walk that takes everyone adds nothing
        part = (budget - taken[k, rows]) * walk_rate[k, trial]
        pool &= np.arange(n)[:, None] < k
        np.take(walk_u, trial, axis=1, out=walk, mode="clip")
        walk *= pool
        bound += walk.sum(axis=0)
        bound += part
        return bound * (1.0 + margin)
