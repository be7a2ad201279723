"""Ground-truth optima by exhaustive enumeration, plus the LP relaxation bound.

The enumeration is a branch and bound by prefix doubling over storage
positions: subset-sum tables over the first ``_TABLE_BITS`` customers, then
each later customer extends only the selections that fit and can still reach
the best weight found so far.  Work and memory follow the number of such
selections, not 2^n: FCR at n = 26 and 40% of the aggregate demand keeps
about 10^6 of its 2^26 selections (some 70 MiB at the peak), while
all-zero weights under a capacity that fits everyone keep every selection.
``_best_feasible_mask`` argues why the pruning keeps the answer exact, ties
included.  The budget is one limit on n, ``OracleBudget.max_n`` (at most
``MAX_ORACLE_N`` = 30); its default keeps accidental 2^30-subset runs from
happening.

``lp_upper_bound`` solves the magnitude-relaxed fractional problem exactly by
the efficiency-greedy rule: it upper-bounds the alignment-scaled optimum from
above and the sum of the two greedy branch objectives bounds it in turn.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .greedy import SortKey, _per_va, scan_order
from .model import (
    CAPACITY_REL_TOL,
    CurtailError,
    Instance,
    Solution,
    _running_sums,
    solution_from_indices,
    storage_sum,
)

MAX_ORACLE_N = 30  # 2^30 subsets; hard ceiling, not a suggestion

# Storage positions that ``_best_feasible_mask`` tabulates in full before it
# starts pruning.  11 to 14 ran about equally fast on FCR at n = 14 to 26.
_TABLE_BITS = 12

# Relative inflation of the pruning bound; see ``_best_feasible_mask``.
_BOUND_MARGIN = 1e-12


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


def _best_feasible_mask(instance: Instance, weights: np.ndarray, rel_tol: float) -> np.ndarray:
    """Storage mask of the feasible selection maximising the weight sum.

    Ties are broken toward the lexicographically smallest sorted id list.

    The search is prefix doubling over the selections that fit and can still
    win.  ``subset_sums`` tabulates the first ``_TABLE_BITS`` storage
    positions in full; each later position j extends every kept entry by
    customer j (``entry + v_j`` for p, q and weight, the same floats a full
    table holds).  The entry and its extension each survive only if they fit
    (``p^2 + q^2 <= limit_sq``) and their bound, the weight plus all weight
    after position j, reaches the incumbent: the largest weight among
    fitting entries, which is a real feasible objective.  A fourth row,
    ``2^j``, carries each entry's storage mask in the same table.  This drops
    no selection that the full enumeration would have tied at the maximum:

    1. Fit is downward-closed, in floats too.  Demands have p, q >= 0, and
       sums are built by adding in ascending storage order, so by monotone
       rounding a superset's sums are >= those of each subset, and so is its
       squared magnitude.  Every extension of a set that does not fit fails
       to fit as well.
    2. The bound never drops a possible winner.  ``weight + rest[j + 1]`` is
       inflated by the relative ``_BOUND_MARGIN``, which covers the <= 2n
       roundings of the two sums for n <= ``MAX_ORACLE_N``, so it is >= the
       float weight of every extension.  An entry goes only when that bound
       is strictly below the incumbent, so tied optima survive.

    The survivors of the last position therefore hold every feasible
    maximum, and the tie-break sees the same candidates as a full table.
    """
    n = len(instance)
    cols = instance.columns
    limit_sq = instance.capacity_limit_sq(rel_tol)
    # sums of distinct powers of two below 2^MAX_ORACLE_N are exact masks
    values = np.stack((cols.p, cols.q, weights, 2.0 ** np.arange(n)))
    base = min(n, _TABLE_BITS)
    # a sum or square that overflows to inf is simply infeasible, and a bound
    # that overflows keeps its entry
    with np.errstate(over="ignore"):
        rest = _running_sums(weights[::-1])[::-1]  # rest[j]: weight of positions j..n-1
        entries = subset_sums(values[:, :base])
        keep = _fits(entries, limit_sq)
        incumbent = entries[2].compress(keep).max()  # the empty selection always fits
        keep &= _reaches(entries[2], rest[base], incumbent)
        entries = entries.compress(keep, axis=1)
        for j in range(base, n):
            tail = rest[j + 1]
            grown = entries + values[:, j, None]
            fit = _fits(grown, limit_sq)
            incumbent = grown[2].compress(fit).max(initial=incumbent)
            new = fit & _reaches(grown[2], tail, incumbent)
            old = _reaches(entries[2], tail, incumbent)
            entries = np.concatenate(
                (entries.compress(old, axis=1), grown.compress(new, axis=1)), axis=1
            )
    wsum = entries[2]
    best = _lexicographic_first(cols.id, entries[3, wsum == wsum.max()].astype(np.int64))
    return (best >> np.arange(n)) & 1 == 1


def _fits(entries: np.ndarray, limit_sq: float) -> np.ndarray:
    """Which columns of ``entries`` (rows p, q, ...) have ``p^2 + q^2 <= limit_sq``."""
    p, q = entries[0], entries[1]
    square = p * p
    square += q * q
    return square <= limit_sq


def _reaches(wsum: np.ndarray, tail: float, incumbent: float) -> np.ndarray:
    """Which weights can still reach ``incumbent`` with ``tail`` more weight.

    The bound ``wsum + tail`` is inflated by ``_BOUND_MARGIN``, so that an
    entry is dropped only when every extension falls strictly short.
    """
    bound = wsum + tail
    bound *= 1.0 + _BOUND_MARGIN
    return bound >= incumbent


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


def _brute_force(
    instance: Instance, budget: OracleBudget, rel_tol: float, objective: str
) -> Solution:
    """The feasible selection with the largest retained valuation or compensation.

    ``objective`` is "vmax" (the objective is that retained valuation) or
    "cmin" (the objective is the compensation of everyone else).
    """
    budget.check(len(instance))
    start = time.perf_counter()
    cols = instance.columns
    if objective == "cmin":
        weights, algorithm = cols.compensation, "cmin_oracle"
    else:
        weights, algorithm = cols.valuation, "oracle"
    kept = _best_feasible_mask(instance, weights, rel_tol)
    counted = ~kept if objective == "cmin" else kept
    return solution_from_indices(
        instance, np.flatnonzero(kept), storage_sum(weights, counted), algorithm,
        time.perf_counter() - start,
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


def _projected_bounds(instance: Instance, seeds: np.ndarray, limit_sq: float) -> np.ndarray:
    """Per row S of ``seeds``, a bound on the float valuation of S plus any completion.

    ``seeds`` holds rows of distinct storage indices, possibly with no columns.
    A row's pool is every customer outside S whose valuation is at most S's
    smallest (everyone, for no columns).  The bound of a row is at least the
    storage-order float sum of the valuations over S ∪ T, for every T in the
    pool such that S ∪ T passes the float fit test ``P^2 + Q^2 <= limit_sq``.

    Each demand is projected on w = (cos φ, sin φ), with φ the mid-phase of
    the nonzero demands: s_k = max(p_k cos φ + q_k sin φ, 0).  w lies in the
    first quadrant, so s_k >= 0 and, by Cauchy–Schwarz, every set that fits
    has Σ s_k <= sqrt(limit_sq).  So T is worth at most the fractional
    knapsack over the pool with sizes s and budget sqrt(limit_sq) − Σ_S s.
    The walk in projected-efficiency order (rate u/s descending, s = 0 first,
    ties by id) solves it: whole customers while the budget lasts, then the
    fitting fraction of the next one.  A customer whose rate is infinite (s
    is 0, or u/s overflows) takes no budget, which can only loosen the bound.
    The bound is u(S) plus that value.  φ sets only the tightness, never the
    validity: at the mid-phase, s_k >= |d_k| cos(θ/2) for phase spread θ.

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
    cols = instance.columns
    n = len(instance)
    p, q, u = cols.p, cols.q, cols.valuation
    phases = np.arctan2(q, p)[(p != 0.0) | (q != 0.0)]
    phi = float(phases.min() + phases.max()) / 2.0 if phases.size else 0.0
    s = np.maximum(p * math.cos(phi) + q * math.sin(phi), 0.0)
    rate = _per_va(u, s)  # inf where s is 0 or u/s overflows
    order = np.lexsort((cols.id, -rate))
    walk_rate, walk_u = rate[order], u[order]
    # customers of infinite rate ride free, in any order: that only loosens the bound
    walk_s = np.where(walk_rate == np.inf, 0.0, s[order])
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    rows = np.arange(len(seeds))
    margin = (n + 4) * 2.0**-49  # see Rounding above
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        seed_u = u[seeds]
        pool = walk_u <= seed_u.min(axis=1, initial=np.inf)[:, None]
        pool[rows[:, None], position[seeds]] = False
        budget = np.maximum(math.sqrt(limit_sq) * (1.0 + margin) - s[seeds].sum(axis=1), 0.0)
        # a prefix of sizes never shrinks, so the whole customers are those before
        # the first prefix past the budget, which ends at the break customer
        taken = _running_sums(np.where(pool, walk_s, 0.0))
        k = np.count_nonzero(taken[:, 1:] <= budget[:, None], axis=1)
        pool &= np.arange(n) < k[:, None]
        # past the last customer the rate is 0: a walk that takes everyone adds nothing
        part = (budget - taken[rows, k]) * np.append(walk_rate, 0.0)[k]
        return (seed_u.sum(axis=1) + pool @ walk_u + part) * (1.0 + margin)
