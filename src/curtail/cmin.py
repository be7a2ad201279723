"""Reverse-greedy solvers for compensation-minimising curtailment.

Start from the full customer set and shed customers one by one, in an order
chosen by each heuristic, stopping at the first state whose aggregate demand
fits the capacity.  The objective is the total compensation paid to the shed
customers.  Since demands sit in the first quadrant, every removal shrinks
both components of the aggregate, so the first feasible state is well
defined and the loop always terminates (the empty set is feasible).

Removal orders mirror the valuation-maximising greedy family:

* ``cmin_gva`` - compensation ascending (shed the cheapest-to-pay first)
* ``cmin_gma`` - demand magnitude descending (shed the largest loads first)
* ``cmin_gra`` - compensation per VA ascending; zero-magnitude customers are
  never shed (removing them frees no capacity)
* ``cmin_gda`` - the cheaper of the ``cmin_gva`` and ``cmin_gra`` answers

No worst-case guarantee is claimed for these adaptations; benchmarks track
their gap to the exhaustive optimum instead.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .model import (
    CAPACITY_REL_TOL,
    Instance,
    Solution,
    indices_fit,
    solution_from_indices,
    storage_sum,
)


def _removal_solve(instance: Instance, order: list[int], tag: str, rel_tol: float) -> Solution:
    """Shed customers in ``order`` (storage indices) until the rest fit."""
    start = time.perf_counter()
    cols = instance.columns
    p_list, q_list = cols.p_list, cols.q_list
    limit_sq = instance.capacity_limit_sq(rel_tol)
    n = len(order)

    def kept(removed: int) -> list[int]:
        keep = np.ones(n, dtype=bool)
        keep[order[:removed]] = False
        return np.flatnonzero(keep).tolist()

    p = storage_sum(p_list, range(n))
    q = storage_sum(q_list, range(n))
    removed = 0
    while p * p + q * q > limit_sq and removed < n:
        i = order[removed]
        p -= p_list[i]
        q -= q_list[i]
        removed += 1

    # The running subtraction can drift either way near the boundary.
    # Canonical feasibility is monotone in the number shed (the retained sets
    # are nested and the demands non-negative), so walk to the first count
    # whose canonical sum fits.
    retained = kept(removed)
    while removed < n and not indices_fit(instance, retained, limit_sq):
        removed += 1
        retained = kept(removed)
    while removed > 0 and indices_fit(instance, fewer := kept(removed - 1), limit_sq):
        removed -= 1
        retained = fewer

    objective = storage_sum(cols.compensation_list, sorted(order[:removed]))
    return solution_from_indices(instance, retained, objective, tag, time.perf_counter() - start)


def _order(instance: Instance, primary: np.ndarray) -> list[int]:
    return np.lexsort((instance.columns.id, primary)).tolist()


def cmin_gva(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Shed customers in ascending order of compensation."""
    return _removal_solve(
        instance, _order(instance, instance.columns.compensation), "cmin_gva", rel_tol
    )


def cmin_gma(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Shed customers in descending order of demand magnitude."""
    return _removal_solve(instance, _order(instance, -instance.columns.mag), "cmin_gma", rel_tol)


def cmin_gra(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Shed customers in ascending order of compensation per VA of demand."""
    cols = instance.columns
    with np.errstate(all="ignore"):
        eff = np.where(cols.mag == 0.0, np.inf, cols.compensation / cols.mag)
    return _removal_solve(instance, _order(instance, eff), "cmin_gra", rel_tol)


def cmin_gda(instance: Instance, rel_tol: float = CAPACITY_REL_TOL) -> Solution:
    """Cheaper of the compensation-greedy and efficiency-greedy sheddings.

    On equal objectives the efficiency variant's retained set is returned.
    """
    start = time.perf_counter()
    ratio = cmin_gra(instance, rel_tol)
    value = cmin_gva(instance, rel_tol)
    best = ratio if ratio.objective <= value.objective else value
    return replace(best, algorithm="cmin_gda", elapsed=time.perf_counter() - start)
