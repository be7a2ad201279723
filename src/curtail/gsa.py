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

Every subset is enumerated and tested for fit, a block of rows at a time
(one row-wise canonical sum per block), and every feasible Phase 2 seed is
bounded, but only a few are completed.  The bound of a seed S is
``oracle._projected_bounds``: u(S) plus the fractional knapsack over S's
pool, with each demand projected on the unit vector at the demands'
mid-phase and the budget the capacity left after S's projected sizes.  By
Cauchy–Schwarz no completion that fits is worth more, and a relative margin
of 16 (n + 4) 2^-53 covers the float rounding of the fit test, the sums and
the walk (the helper's docstring counts the roundings).  A block's
feasible seeds are visited by descending bound and the visit stops at the
first bound strictly below the incumbent, the best objective so far, so a
seed that could tie the winner is always completed.  The first
``_SOLO_SEEDS`` survivors are completed one at a time by the greedy pair's
own scans (``greedy._best_of_scans``); any further ones go to one batch
call that walks each order once for all of them, one vector step per
customer.  The greedy orders are sorted once per instance, and one equal
to the other (as under correlated valuations) is scanned once.  Bounding a
seed costs O(n) vector work, so the search stays O(n log n + n^(m+1)) at
worst (every seed ties, as when all customers are identical), with memory
bounded by the block.  On FCR instances at n = 18 and epsilon = 1/4 about
3% of the feasible seeds are completed.

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
from dataclasses import dataclass, replace
from itertools import chain, combinations, islice
from typing import Iterator

import numpy as np

from .greedy import SCAN_ORDERS, _best_of_scans, _item_streams, _sorted_orders, gda
from .model import (
    CAPACITY_REL_TOL,
    Instance,
    InstanceColumns,
    Solution,
    _running_sums,
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
        """
        m = math.ceil(1.0 / self.epsilon - 1e-9) - 2
        return max(0, min(m, n))


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


# Most seeds x customers cells in one block of seeds, tested and bounded
# together; a block's masks and sums take about 30 bytes a cell.
_SEED_BLOCK_CELLS = 1 << 19

# Surviving seeds of a block that ``_best_of_scans`` completes one at a time;
# any further survivors go to one ``_fill_seeds`` call.  One call costs about
# as much as four solo completions at n = 18 but grows slowly with its rows,
# so it pays only when many seeds survive, as when every seed ties.
_SOLO_SEEDS = 8


def _seed_blocks(by_id: list[int], size: int) -> Iterator[np.ndarray]:
    """The size-``size`` seeds in id-lexicographic order, as blocks of rows of
    ascending storage indices, at most ``_SEED_BLOCK_CELLS`` seeds x customers each."""
    combos = combinations(by_id, size)
    rows = max(1, _SEED_BLOCK_CELLS // len(by_id))
    while (block := np.fromiter(chain.from_iterable(islice(combos, rows)), np.int64)).size:
        yield np.sort(block.reshape(-1, size), axis=1)


def _fill_seeds(cols: InstanceColumns, seeds: np.ndarray, orders: list, limit_sq: float) -> tuple:
    """Each seed's greedy-pair completion: (retained masks, objectives).

    Every seed must fit on its own.  Each order walks its customers once for
    all seeds, with the per-item loop's float operations on every row; the
    efficiency order wins a seed's ties.
    """
    base_p, base_q = _running_sums(cols.p[seeds])[:, -1], _running_sums(cols.q[seeds])[:, -1]
    forced = np.zeros((len(seeds), len(cols.id)), dtype=bool)
    forced[np.arange(len(seeds))[:, None], seeds] = True
    floor = cols.valuation[seeds].min(axis=1)
    best, best_objective = forced, np.full(len(seeds), -np.inf)
    for order, p, q in orders:
        # pool[j]: the seeds whose pool holds the customer j-th in this order
        pool = (cols.valuation[order][:, None] <= floor) & ~forced.T[order]
        taken = np.zeros_like(pool)
        acc_p, acc_q = base_p, base_q
        for j in np.flatnonzero(pool.any(axis=1)).tolist():
            cand_p, cand_q = acc_p + p[j], acc_q + q[j]
            np.logical_and(pool[j], cand_p * cand_p + cand_q * cand_q <= limit_sq, out=taken[j])
            acc_p, acc_q = np.where(taken[j], cand_p, acc_p), np.where(taken[j], cand_q, acc_q)
        retained = forced.copy()
        retained[:, order] |= taken.T
        # +0.0 for an untaken customer leaves a sum from 0.0 unchanged
        objective = _running_sums(np.where(retained, cols.valuation, 0.0))[:, -1]
        better = objective > best_objective
        best = np.where(better[:, None], retained, best)
        best_objective = np.where(better, objective, best_objective)
    return best, best_objective


@np.errstate(over="ignore", invalid="ignore")  # past the float range, sums and squares are inf
def _search(instance: Instance, config: GsaConfig, rel_tol: float) -> tuple[np.ndarray, float]:
    """Best retained set, as ascending storage indices, and its objective.

    A Phase 2 candidate carries its seed's enumeration position (``rank``),
    so the winner is the one a walk over all seeds in id-lexicographic order
    would keep, whatever order the survivors are completed in.
    """
    cols = instance.columns
    m = config.max_subset_size(len(instance))
    limit_sq = instance.capacity_limit_sq(rel_tol)
    # positions in ascending id order, so combinations() is id-lexicographic
    by_id = np.lexsort((cols.id,)).tolist()
    best, best_objective, rank = np.empty(0, dtype=np.int64), 0.0, None

    # Phase 1: plain best valuation over feasible subsets smaller than m;
    # the first strict improvement wins.
    for size in range(1, m):
        for seeds in _seed_blocks(by_id, size):
            p, q, u = (_running_sums(a[seeds])[:, -1] for a in (cols.p, cols.q, cols.valuation))
            value = np.where(p * p + q * q <= limit_sq, u, -np.inf)
            k = int(value.argmax())
            if value[k] > best_objective:
                best, best_objective = seeds[k], float(value[k])

    # Phase 2: force each feasible size-m subset, fill up with the greedy pair
    # over the customers it dominates by valuation.  Each seed's pool masks the
    # instance-wide orders: ids are unique, so the (key, id) order restricted to
    # the pool is its own scan order.  A block's feasible seeds are visited by
    # descending bound until a bound falls strictly below the incumbent; the
    # first ``_SOLO_SEEDS`` are completed one at a time, the rest in one batch.
    # Phase 2 wins ties against Phase 1, and the smaller rank among Phase 2 seeds.
    orders = _sorted_orders(instance, SCAN_ORDERS["gda"])
    first = 0  # rank of the block's first seed
    for seeds in _seed_blocks(by_id, m) if m > 0 else ():
        p, q = (_running_sums(a[seeds])[:, -1] for a in (cols.p, cols.q))
        feasible = np.flatnonzero(p * p + q * q <= limit_sq)
        bounds = _projected_bounds(instance, seeds[feasible], limit_sq)
        visit = np.argsort(-bounds, kind="stable")
        rows, bounds = feasible[visit], bounds[visit]
        for i, (row, bound) in enumerate(zip(rows.tolist(), bounds.tolist())):
            if bound < best_objective:
                break
            if i < _SOLO_SEEDS:
                seed = seeds[row]
                pool = cols.valuation <= cols.valuation[seed].min()
                pool[seed] = False
                streams = _item_streams(orders, pool)
                retained, objective = _best_of_scans(instance, seed, streams, limit_sq)
            else:
                rest = np.sort(rows[i:][bounds[i:] >= best_objective])
                masks, objectives = _fill_seeds(cols, seeds[rest], orders, limit_sq)
                j = int(objectives.argmax())  # the first maximum: the smallest rank
                row, retained, objective = int(rest[j]), np.flatnonzero(masks[j]), float(objectives[j])
            if objective > best_objective or (
                objective == best_objective and (rank is None or first + row < rank)
            ):
                best, best_objective, rank = retained, objective, first + row
            if i == _SOLO_SEEDS:
                break
        first += len(seeds)

    return best, best_objective


def gsa(
    instance: Instance,
    config: GsaConfig,
    rel_tol: float = CAPACITY_REL_TOL,
) -> Solution:
    """Enumeration-boosted valuation maximiser; see the module docstring."""
    start = time.perf_counter()
    if config.max_subset_size(len(instance)) == 0:
        base = gda(instance, rel_tol)
        return replace(base, algorithm="gsa", elapsed=time.perf_counter() - start)
    retained, objective = _search(instance, config, rel_tol)
    return solution_from_indices(instance, retained, objective, "gsa", time.perf_counter() - start)
