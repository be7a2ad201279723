"""Subset-enumeration booster over the greedy pair, tunable by epsilon.

For a precision parameter epsilon in (0, 1) the solver derives a subset size
m = min(ceil(1/epsilon) - 2, n) and runs two phases:

* Phase 1 keeps the best total valuation among all feasible subsets smaller
  than m (including the empty one).
* Phase 2 walks every feasible subset S of size exactly m, forces it into
  the solution, and lets the greedy pair fill up from the customers whose
  valuation does not exceed the smallest valuation in S.

The best candidate across both phases is returned.  The objective is at
least ``(1 - epsilon) * alignment_factor(theta)`` times the optimum, at the
cost of enumerating O(n^m) subsets; small epsilon buys accuracy with runtime.

The search runs over a batch of instances of one size n (``_search_batch``);
``gsa`` is its batch of one, and ``bench.run_benchmark`` hands it an n's
trials at once.  One loop walks the sizes 1 ... m, a block of id-rank
combinations at a time, mapped through each instance's id order to storage
indices.  A block holds at most ``_SEED_BLOCK_CELLS`` cells, and several
instances only while all their seeds of the size fit in it.  Every subset
of every instance in the block is tested for fit at once, its demands
added column by column in storage order from 0.0.  Below m each instance
keeps its best valuation.  At m every feasible seed is
bounded at once by ``oracle._projected_bounds``: u(S) plus the fractional
knapsack over S's pool, with each demand projected on the unit vector at
its instance's mid-phase and the budget the capacity left after S's
projected sizes.  By Cauchy–Schwarz no completion that fits is worth more,
and a relative margin of 16 (n + 4) 2^-53 covers the float rounding (the
helper's docstring counts the roundings).

The seeds are completed in rounds (``_complete_seeds``).  Each instance
visits its seeds by descending bound, and in round i completes its next
2^i seeds among those whose bound reaches its incumbent, the best objective
so far.  All the round's seeds, of every instance, are completed by one
``greedy._best_of_scans_rows`` call: the greedy pair's own scans, forced
with the seed and masked to its pool, over orders sorted once per batch by
``greedy._sorted_order_rows``.  After the round each instance keeps its best
candidate, and a seed whose bound is strictly below the incumbent is
dropped, so a seed that could tie the winner is always completed.  An
instance's rounds do not depend on the others, so a batch completes
exactly the seeds its instances complete alone, at most 2c - 1 where a
one-at-a-time visit would complete c.  Bounding a seed costs O(n) vector
work, so the search stays O(n log n + n^(m+1)) per instance at worst
(every seed ties, as when all customers are identical), with memory
bounded by the block and the round.  On the 30 n = 18 trials of
perfbench's ``sweep_small`` plan (FCR, 25 kVA, seed 123, epsilon = 1/4),
119 of the 4 590 feasible seeds (2.6%) are completed, against 118 one at a
time.

With epsilon >= 1/2 the derived m is 0 and the enumeration degenerates; the
batch then falls back to the unforced greedy pair (``greedy._greedy_rows``),
whose 1/2 guarantee already dominates 1 - epsilon.

Determinism: subsets are enumerated lexicographically by customer id, and
each Phase 2 seed is ranked by its place in that enumeration.  A Phase 2
candidate replaces the incumbent on a tie if the incumbent came from
Phase 1 or from a seed of larger rank, so equal-objective winners resolve
to the lexicographically smallest Phase 2 seed regardless of the order in
which seeds are completed.

The package re-exports the function ``gsa`` over this submodule, so
``curtail.gsa`` names the function, also after ``import curtail.gsa``;
``importlib.import_module("curtail.gsa")`` returns this module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterator, Sequence

import numpy as np

from .greedy import SCAN_ORDERS, _best_of_scans_rows, _greedy_rows, _sorted_order_rows
from .model import (
    CAPACITY_REL_TOL,
    Instance,
    Solution,
    _stacked,
    solution_from_indices,
)
from .oracle import _projected_bounds


@dataclass(frozen=True)
class GsaConfig:
    """Precision knob for the enumeration booster."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")

    def max_subset_size(self, n: int) -> int:
        """m = min(ceil(1/epsilon) - 2, n), clamped to >= 0.

        The ceiling is guarded against float noise so that e.g. an epsilon
        of 1/3 (whose reciprocal lands just above 3.0) still yields m = 1.
        The reciprocal is capped at n + 2 before the ceiling, since below
        about 5.6e-309 it overflows to inf, which has no ceiling.
        """
        m = math.ceil(min(1.0 / self.epsilon - 1e-9, n + 2)) - 2
        return max(0, m)


def gsa_subset_count(n: int, epsilon: float) -> int:
    """Number of subsets the solver enumerates: sum of C(n, s) for s <= m.

    Every one of them is tested for fit and every feasible size-m seed is
    bounded; only the seeds whose bound can reach the incumbent are completed
    by the greedy pair, so the count bounds the work from above.  Python
    integers do not overflow, so the count is exact at any size; the CLI
    uses it to warn before runs that would take hours.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    m = GsaConfig(epsilon).max_subset_size(n)
    return sum(math.comb(n, s) for s in range(m + 1))


# Most (instance, seed) pairs x customers cells in one block of seeds, tested
# and bounded together; a block's masks and sums take about 11 bytes a cell.
# A block holds several instances only while all their seeds of one size fit
# in it, and else part of one instance's.
_SEED_BLOCK_CELLS = 1 << 19


def _rank_blocks(n: int, size: int, rows: int) -> Iterator[np.ndarray]:
    """The size-``size`` combinations of the id ranks 0 ... n - 1 in lexicographic
    order, as blocks of at most ``rows`` rows."""
    combos = combinations(range(n), size)
    while (block := np.fromiter(chain.from_iterable(islice(combos, rows)), np.int64)).size:
        yield block.reshape(-1, size)


def _sorted_columns(seeds: np.ndarray) -> list[np.ndarray]:
    """The columns of ``seeds`` (its last axis) after sorting each row ascending.

    Adjacent columns are compare-exchanged whole, a bubble sort over columns:
    along a short last axis numpy's ``sort`` pays per row."""
    cols = [seeds[..., j] for j in range(seeds.shape[-1])]
    for stop in range(len(cols) - 1, 0, -1):
        for j in range(stop):
            low, high = cols[j], cols[j + 1]
            cols[j], cols[j + 1] = np.minimum(low, high), np.maximum(low, high)
    return cols


def _column_sum(values: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """``values`` at each column of indices, added column by column from 0.0."""
    total = np.zeros(cols[0].shape)
    for col in cols:
        total += values[col]
    return total


@np.errstate(over="ignore", invalid="ignore")  # past the float range, sums and squares are inf
def _search_batch(
    instances: Sequence[Instance], config: GsaConfig, rel_tol: float
) -> list[tuple[np.ndarray, float]]:
    """Per instance, its best retained set, as ascending storage indices, and its objective.

    The instances all have the same size.  Phase 1 and Phase 2 share one
    walk over the subset sizes and its fit test, and every step runs for
    the whole batch at once, Phase 2's completions a round at a time.  A
    Phase 2 candidate carries its seed's enumeration position (``rank``), so
    each instance's winner is the one a walk over all its seeds in
    id-lexicographic order would keep, whatever order the survivors are
    completed in.
    """
    n = len(instances[0]) if instances else 0
    m = config.max_subset_size(n)
    if m == 0:  # no enumeration: the greedy pair alone, as ``gda`` runs it
        retained, objectives = _greedy_rows(instances, SCAN_ORDERS["gda"], rel_tol)
        return [(np.flatnonzero(row), objective)
                for row, objective in zip(retained, objectives.tolist())]
    b = len(instances)
    limit_sq = np.array([instance.capacity_limit_sq(rel_tol) for instance in instances])
    orders = _sorted_order_rows(instances, SCAN_ORDERS["gda"])
    p, q, u, ids = _stacked(instances, "p", "q", "valuation", "id")
    # storage positions in ascending id order, so the rank combinations are id-lexicographic
    by_id = np.argsort(ids, axis=1)
    # each instance's incumbent: retained storage mask, objective and rank;
    # Phase 1's rank after every seed's, so a tied seed replaces them
    best = np.zeros((b, n), dtype=bool)
    best_objective = np.zeros(b)
    rank = np.full(b, np.iinfo(np.int64).max)
    # a block is some rank combinations for a slice of the instances
    pairs = max(1, _SEED_BLOCK_CELLS // n)
    for size in range(1, m + 1):
        step = min(b, max(1, _SEED_BLOCK_CELLS // (math.comb(n, size) * n)))
        first = 0  # rank of the block's first seed
        for combos in _rank_blocks(n, size, pairs // step):
            for lo in range(0, b, step):
                part = slice(lo, lo + step)
                # per instance of the part, a row of ascending storage indices per
                # combination, and the same indices into the flattened columns
                cols = _sorted_columns(by_id[part][:, combos])
                offset = (np.arange(lo, lo + len(cols[0])) * n)[:, None]
                flat = [col + offset for col in cols]
                sum_p, sum_q = (_column_sum(a.ravel(), flat) for a in (p, q))
                fit = sum_p * sum_p + sum_q * sum_q <= limit_sq[part, None]
                if size < m:
                    # Phase 1: plain best valuation; the first strict improvement wins
                    value = np.where(fit, _column_sum(u.ravel(), flat), -np.inf)
                    at = np.arange(len(value)), value.argmax(axis=1)
                    top, top_value = np.stack([col[at] for col in cols], axis=1), value[at]
                    t = np.flatnonzero(top_value > best_objective[part])
                    best[lo + t] = False
                    best[(lo + t)[:, None], top[t]] = True
                    best_objective[lo + t] = top_value[t]
                    continue
                # Phase 2: bound every feasible seed, then complete the seeds
                # whose bound reaches their instance's incumbent
                t, row = np.nonzero(fit)
                seeds = np.stack([col[t, row] for col in cols], axis=1)
                t += lo
                bounds = _projected_bounds(p, q, u, ids, limit_sq, seeds, t)
                _complete_seeds(instances, orders, limit_sq, u, seeds, t, bounds, first + row,
                                (best, best_objective, rank))
            first += len(combos)
    return [(np.flatnonzero(mask), objective)
            for mask, objective in zip(best, best_objective.tolist())]


def _complete_seeds(
    instances: Sequence[Instance],
    orders: tuple[np.ndarray, np.ndarray],
    limit_sq: np.ndarray,
    u: np.ndarray,
    seeds: np.ndarray,
    trial: np.ndarray,
    bounds: np.ndarray,
    ranks: np.ndarray,
    incumbents: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Phase 2 on a block's seeds: complete them in rounds, updating ``incumbents``.

    ``seeds`` are rows of storage indices, each of instance ``trial``, with
    their ``bounds`` and enumeration ``ranks``; ``incumbents`` holds each
    instance's retained storage mask, objective and rank, which change in place.
    A seed is forced and filled up with the greedy pair over the customers it
    dominates by valuation.  The seed's pool masks the instance-wide
    ``orders``: ids are unique, so the (key, id) order restricted to the pool
    is its own scan order.

    Each instance visits its seeds by descending bound.  Round i completes
    the next 2^i seeds of every instance whose bound reaches its incumbent,
    all in one ``_best_of_scans_rows`` call.  After the round each incumbent
    takes its instance's best candidate if that one wins: a larger
    objective, or an equal one and a smaller rank (Phase 1's incumbents rank
    after every seed).  A bound never falls below its seed's objective, and
    an incumbent only rises, so the seeds still alive are a prefix of what an
    instance has left, and the rounds end when one finds no seed alive.  An
    instance's rounds do not depend on the others, so a batch completes the
    seeds that each of its instances completes alone.  Where a one-at-a-time
    visit stops after c completions, the rounds stop after at most 2c - 1.
    The winner is the same: every seed the visit completes is completed, and
    a seed completed beyond it has a bound, so an objective, strictly below
    the incumbent.
    """
    best, best_objective, best_rank = incumbents
    alive = np.flatnonzero(~(bounds < best_objective[trial]))
    visit = alive[np.lexsort((-bounds[alive], trial[alive]))]
    seeds, trial, bounds, ranks = seeds[visit], trial[visit], bounds[visit], ranks[visit]
    place = np.arange(len(trial)) - np.searchsorted(trial, trial)
    done, width = 0, 1
    while True:
        now = np.flatnonzero((done <= place) & (place < done + width)
                             & ~(bounds < best_objective[trial]))
        if not now.size:
            return
        t, seed = trial[now], seeds[now]
        pool = u[t] <= np.take_along_axis(u[t], seed, axis=1).min(axis=1, keepdims=True)
        pool[np.arange(len(now))[:, None], seed] = False
        retained, objectives = _best_of_scans_rows(instances, orders, limit_sq, t, seed, pool)
        # each instance's best candidate: the largest objective, then the smallest rank
        pick = np.lexsort((ranks[now], -objectives, t))
        pick = pick[np.r_[True, t[pick][1:] != t[pick][:-1]]]
        k, objective, rank = t[pick], objectives[pick], ranks[now][pick]
        wins = (objective > best_objective[k]) | (
            (objective == best_objective[k]) & (rank < best_rank[k])
        )
        best[k[wins]] = retained[pick[wins]]
        best_objective[k[wins]], best_rank[k[wins]] = objective[wins], rank[wins]
        done += width
        width *= 2


def gsa(
    instance: Instance,
    config: GsaConfig,
    rel_tol: float = CAPACITY_REL_TOL,
) -> Solution:
    """Enumeration-boosted valuation maximiser; see the module docstring."""
    start = time.perf_counter()
    ((retained, objective),) = _search_batch([instance], config, rel_tol)
    return solution_from_indices(instance, retained, objective, "gsa", time.perf_counter() - start)
