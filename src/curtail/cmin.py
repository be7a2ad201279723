"""Reverse-greedy solvers for compensation-minimising curtailment.

Start from the full customer set and shed customers in an order chosen by
each heuristic, stopping at the first state whose aggregate demand fits the
capacity.  The objective is the total compensation paid to the shed
customers.  Since demands sit in the first quadrant, every removal shrinks
both components of the aggregate, so feasibility is monotone in the number
shed, the empty set always fits, and that first state is found by bisection.

Removal orders mirror the valuation-maximising greedy family.  Their keys
are ``curtail.greedy.SHED_ORDERS``, sorted by ``greedy._sorted_orders``, the
builder the greedies use, which keeps each distinct order once:

* ``cmin_gva`` - compensation ascending (shed the cheapest-to-pay first)
* ``cmin_gma`` - demand magnitude descending (shed the largest loads first)
* ``cmin_gra`` - compensation per VA ascending; zero-magnitude customers are
  never shed (removing them frees no capacity)
* ``cmin_gda`` - the cheaper of the ``cmin_gva`` and ``cmin_gra`` answers;
  it sheds once when their orders coincide, as whenever compensation is
  |d|^2 (every correlated scenario)

No worst-case guarantee is claimed for these adaptations; benchmarks track
their gap to the exhaustive optimum instead.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

from .greedy import SHED_ORDERS, _sorted_orders
from .model import CAPACITY_REL_TOL, Instance, Solution, solution_from_indices, storage_sum


def _shed(instance: Instance, order: np.ndarray, limit_sq: float) -> tuple[np.ndarray, float]:
    """Shed in ``order`` until the rest fit: (retained indices, shed compensation).

    The count shed is the first ``k`` whose rest, everyone but ``order[:k]``,
    fits by the canonical sum: 0 when everyone fits, which one probe tells,
    and otherwise found by one bisection.  That fit is monotone in ``k``: the
    rests are nested, the demands non-negative and rounding monotone, so
    dropping a term never raises a left-to-right sum.
    """
    cols = instance.columns
    n = len(order)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    def fits(k: int) -> bool:
        p, q = storage_sum(cols.p, rank >= k), storage_sum(cols.q, rank >= k)
        return p * p + q * q <= limit_sq  # Python floats: an overflow is inf, not a warning

    removed = 0 if fits(0) else bisect.bisect_left(range(n + 1), True, 1, key=fits)
    return np.flatnonzero(rank >= removed), storage_sum(cols.compensation, rank < removed)


def _shed_solve(instance: Instance, tag: str, rel_tol: float) -> Solution:
    """Cheapest shedding over the distinct orders of ``SHED_ORDERS[tag]``; the first wins ties."""
    start = time.perf_counter()
    limit_sq = instance.capacity_limit_sq(rel_tol)
    orders = _sorted_orders(instance, SHED_ORDERS[tag])
    sheddings = [_shed(instance, order, limit_sq) for order in orders]
    retained, objective = min(sheddings, key=lambda shed: shed[1])  # min keeps the first of ties
    return solution_from_indices(instance, retained, objective, tag, time.perf_counter() - start)


def cmin_gva(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Shed customers in ascending order of compensation."""
    return _shed_solve(instance, "cmin_gva", rel_tol)


def cmin_gma(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Shed customers in descending order of demand magnitude."""
    return _shed_solve(instance, "cmin_gma", rel_tol)


def cmin_gra(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Shed customers in ascending order of compensation per VA of demand."""
    return _shed_solve(instance, "cmin_gra", rel_tol)


def cmin_gda(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Cheaper of the compensation-greedy and efficiency-greedy sheddings.

    On equal objectives the efficiency variant's retained set is returned.
    """
    return _shed_solve(instance, "cmin_gda", rel_tol)
