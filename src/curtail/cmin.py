"""Reverse-greedy solvers for compensation-minimising curtailment.

Start from the full customer set and shed customers in an order chosen by
each heuristic, stopping at the first state whose aggregate demand fits the
capacity.  The objective is the total compensation paid to the shed
customers.  Since demands sit in the first quadrant, every removal shrinks
both components of the aggregate, so feasibility is monotone in the number
shed, the empty set always fits, and that first state is found by bisection.

Removal orders mirror the valuation-maximising greedy family.  Their keys
are ``curtail.greedy.SHED_ORDERS``.  ``_shed_rows`` sheds a batch of
instances of one size in them, sorted once for the batch by the greedies'
builder, ``greedy._sorted_order_rows``, which keeps each distinct order of
an instance once; each solver is its batch of one:

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
from typing import Sequence

import numpy as np

from .greedy import SHED_ORDERS, SortKey, _kept_orders, _sorted_order_rows
from .model import CAPACITY_REL_TOL, Instance, Solution, _batch_of_one, storage_sum


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


def _shed_rows(
    instances: Sequence[Instance], keys: Sequence[SortKey], rel_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per instance of one size n, the cheapest shedding over its kept orders of ``keys``,
    the first on ties: a b x n boolean array of retained storage masks and the b shed
    compensations."""
    orders = _sorted_order_rows(instances, keys)
    retained = np.zeros((len(instances), orders[0].shape[-1]), dtype=bool)
    objectives = np.empty(len(instances))
    for t, instance in enumerate(instances):
        limit_sq = instance.capacity_limit_sq(rel_tol)
        sheddings = [_shed(instance, order, limit_sq) for order in _kept_orders(orders, t)]
        at, objectives[t] = min(sheddings, key=lambda shed: shed[1])  # min keeps the first of ties
        retained[t, at] = True
    return retained, objectives


def cmin_gva(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Shed customers in ascending order of compensation."""
    return _batch_of_one(_shed_rows, instance, "cmin_gva", SHED_ORDERS["cmin_gva"], rel_tol)


def cmin_gma(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Shed customers in descending order of demand magnitude."""
    return _batch_of_one(_shed_rows, instance, "cmin_gma", SHED_ORDERS["cmin_gma"], rel_tol)


def cmin_gra(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Shed customers in ascending order of compensation per VA of demand."""
    return _batch_of_one(_shed_rows, instance, "cmin_gra", SHED_ORDERS["cmin_gra"], rel_tol)


def cmin_gda(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Cheaper of the compensation-greedy and efficiency-greedy sheddings.

    On equal objectives the efficiency variant's retained set is returned.
    """
    return _batch_of_one(_shed_rows, instance, "cmin_gda", SHED_ORDERS["cmin_gda"], rel_tol)
