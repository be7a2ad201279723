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
cost of examining O(n^m) subsets; small epsilon buys accuracy with runtime.
The two greedy orders are sorted once per instance; each feasible seed then
costs one O(n) filter of both orders to its pool and one scan of each, all
in storage indices, so a seed's work is O(n) and the whole search
O(n log n + n^(m+1)).

With epsilon >= 1/2 the derived m is 0 and the enumeration degenerates; the
solver then falls back to a single unforced greedy-pair run, whose 1/2
guarantee already dominates 1 - epsilon.

Determinism: subsets are enumerated lexicographically by customer id;
a Phase 2 candidate replaces the incumbent on ties only if the incumbent
came from Phase 1, so equal-objective winners resolve to the
lexicographically smallest Phase 2 seed regardless of evaluation order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .greedy import SCAN_ORDERS, _best_of_scans, _item_streams, _sorted_orders, gda
from .model import (
    CAPACITY_REL_TOL,
    Instance,
    Solution,
    indices_fit,
    solution_from_indices,
    storage_sum,
)


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
    """Number of subsets the solver will examine: sum of C(n, s) for s <= m.

    Python integers do not overflow, so the count is exact at any size; the
    CLI uses it to warn before runs that would take hours.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    m = GsaConfig(epsilon).max_subset_size(n)
    return sum(math.comb(n, s) for s in range(m + 1))


def _search(
    instance: Instance,
    config: GsaConfig,
    rel_tol: float,
) -> tuple[list[int], float, list[int] | None]:
    """Best retained set, its objective, and the winning Phase 2 seed (if any).

    The retained set and the seed are ascending storage indices.
    """
    cols = instance.columns
    m = config.max_subset_size(len(instance))
    limit_sq = instance.capacity_limit_sq(rel_tol)
    u_list = cols.valuation_list

    # positions in ascending id order, so combinations() is id-lexicographic
    by_id = np.lexsort((cols.id,)).tolist()

    best: list[int] = []
    best_objective = 0.0
    best_seed: list[int] | None = None

    # Phase 1: plain best valuation over feasible subsets smaller than m.
    for size in range(m):
        for combo in combinations(by_id, size):
            idxs = sorted(combo)
            if not indices_fit(instance, idxs, limit_sq):
                continue
            value = storage_sum(u_list, idxs)
            if value > best_objective:
                best, best_objective = idxs, value

    # Phase 2: force each feasible size-m subset, fill up with the greedy
    # pair over the customers it dominates by valuation.  Each seed's pool
    # is a filter of the two instance-wide orders: ids are unique, so the
    # (key, id) order restricted to the pool is the pool's own scan order.
    orders = [list(items) for items in _item_streams(_sorted_orders(instance, SCAN_ORDERS["gda"]))]
    for combo in combinations(by_id, m) if m > 0 else ():
        idxs = sorted(combo)
        if not indices_fit(instance, idxs, limit_sq):
            continue
        floor = min(u_list[i] for i in idxs)
        retained, objective = _best_of_scans(
            instance,
            idxs,
            [[t for t in items if u_list[t[0]] <= floor and t[0] not in combo] for items in orders],
            limit_sq,
        )
        if objective > best_objective or (objective == best_objective and best_seed is None):
            best, best_objective, best_seed = retained, objective, idxs

    return best, best_objective, best_seed


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
    retained, objective, _seed = _search(instance, config, rel_tol)
    return solution_from_indices(instance, retained, objective, "gsa", time.perf_counter() - start)
