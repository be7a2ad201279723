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

Only the visit of the seeds runs per instance (``_complete_seeds``): by
descending bound, stopping at the first bound strictly below the incumbent,
the best objective so far, so a seed that could tie the winner is always
completed.  Each one is completed by the greedy pair's own scans
(``greedy._best_of_scans``, with the seed's pool as its mask), over orders
sorted once per instance by ``greedy._sorted_orders``.  Bounding a seed
costs O(n) vector work, so the search stays O(n log n + n^(m+1)) per
instance at worst (every seed ties, as when all customers are identical),
with memory bounded by the block.  On the 30 n = 18 trials of perfbench's
``sweep_small`` plan (FCR, 25 kVA, seed 123, epsilon = 1/4), 118 of the
4 590 feasible seeds (2.6%) are completed.

With epsilon >= 1/2 the derived m is 0 and the enumeration degenerates; the
solver then falls back to a single unforced greedy-pair run, whose 1/2
guarantee already dominates 1 - epsilon.

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

from .greedy import SCAN_ORDERS, _best_of_scans, _sorted_orders
from .model import (
    CAPACITY_REL_TOL,
    Instance,
    Solution,
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
    walk over the subset sizes and its fit test, and every step but the
    completion of Phase 2's seeds runs for the whole batch at once.  A
    Phase 2 candidate carries its seed's enumeration position (``rank``), so
    each instance's winner is the one a walk over all its seeds in
    id-lexicographic order would keep, whatever order the survivors are
    completed in.
    """
    limits = [instance.capacity_limit_sq(rel_tol) for instance in instances]
    orders = [_sorted_orders(instance, SCAN_ORDERS["gda"]) for instance in instances]
    n = len(instances[0]) if instances else 0
    m = config.max_subset_size(n)
    if m == 0:  # no enumeration: the greedy pair alone, as ``gda`` runs it
        return [_best_of_scans(instance, (), order, limit)
                for instance, order, limit in zip(instances, orders, limits)]
    b = len(instances)
    p, q, u, ids = (np.array([getattr(instance.columns, name) for instance in instances])
                    for name in ("p", "q", "valuation", "id"))
    limit_sq = np.array(limits)
    # storage positions in ascending id order, so the rank combinations are id-lexicographic
    by_id = np.argsort(ids, axis=1)
    best = [np.empty(0, dtype=np.int64)] * b
    best_objective = np.zeros(b)
    rank: list[int | None] = [None] * b
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
                    for t in np.flatnonzero(top_value > best_objective[part]).tolist():
                        best[lo + t], best_objective[lo + t] = top[t], top_value[t]
                    continue
                # Phase 2: bound every feasible seed, then visit each instance's
                # seeds whose bound reaches its incumbent, by descending bound
                t, row = np.nonzero(fit)
                seeds = np.stack([col[t, row] for col in cols], axis=1)
                t += lo
                bounds = _projected_bounds(p, q, u, ids, limit_sq, seeds, t)
                alive = np.flatnonzero(~(bounds < best_objective[t]))
                visit = alive[np.lexsort((-bounds[alive], t[alive]))]
                runs = np.split(visit, np.flatnonzero(np.diff(t[visit])) + 1) if visit.size else []
                for at in runs:  # one instance's seeds each
                    k = int(t[at[0]])
                    incumbent = (best[k], float(best_objective[k]), rank[k])
                    best[k], best_objective[k], rank[k] = _complete_seeds(
                        instances[k], orders[k], limits[k], seeds[at], bounds[at].tolist(),
                        (first + row[at]).tolist(), incumbent,
                    )
            first += len(combos)
    return list(zip(best, best_objective.tolist()))


def _complete_seeds(
    instance: Instance,
    orders: list[np.ndarray],
    limit_sq: float,
    seeds: np.ndarray,
    bounds: list[float],
    ranks: list[int],
    incumbent: tuple[np.ndarray, float, int | None],
) -> tuple[np.ndarray, float, int | None]:
    """Phase 2 on one instance: complete ``seeds`` in order until a bound falls
    strictly below the incumbent, and return the incumbent (retained, objective,
    rank) after them.

    ``seeds`` are rows of storage indices, by descending ``bounds``.  A seed is
    forced and filled up with the greedy pair over the customers it dominates
    by valuation.  The seed's pool masks the instance-wide ``orders``: ids are
    unique, so the (key, id) order restricted to the pool is its own scan
    order.  Phase 2 wins ties against Phase 1, and the smaller rank among seeds.
    """
    best, best_objective, best_rank = incumbent
    valuation = instance.columns.valuation
    for seed, bound, rank in zip(seeds, bounds, ranks):
        if bound < best_objective:
            break
        pool = valuation <= valuation[seed].min()
        pool[seed] = False
        retained, objective = _best_of_scans(instance, seed, orders, limit_sq, pool)
        if objective > best_objective or (
            objective == best_objective and (best_rank is None or rank < best_rank)
        ):
            best, best_objective, best_rank = retained, objective, rank
    return best, best_objective, best_rank


def gsa(
    instance: Instance,
    config: GsaConfig,
    rel_tol: float = CAPACITY_REL_TOL,
) -> Solution:
    """Enumeration-boosted valuation maximiser; see the module docstring."""
    start = time.perf_counter()
    ((retained, objective),) = _search_batch([instance], config, rel_tol)
    return solution_from_indices(instance, retained, objective, "gsa", time.perf_counter() - start)
