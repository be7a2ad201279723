"""Ground-truth optima by exhaustive enumeration, plus the LP relaxation bound.

The enumeration evaluates all 2^n selections with O(2^n) total arithmetic:
subset sums are built by prefix doubling over numpy arrays (each bit extends
the table for all masks below it), so n = 20 stays routine on a laptop.
The budget is one limit on n, ``OracleBudget.max_n`` (at most ``MAX_ORACLE_N``
= 30); its default keeps accidental 2^30-subset runs from happening.

``lp_upper_bound`` solves the magnitude-relaxed fractional problem exactly by
the efficiency-greedy rule: it upper-bounds the alignment-scaled optimum from
above and the sum of the two greedy branch objectives bounds it in turn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .greedy import SortKey, scan_order
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
            raise ValueError("budget limits must be non-negative")

    def check(self, n: int) -> None:
        if n > self.max_n:
            raise OracleBudgetError(
                f"instance has {n} customers; enumeration budget allows max_n={self.max_n}"
            )


def subset_sums(values: np.ndarray) -> np.ndarray:
    """out[mask] = sum of values[j] over set bits j, added in ascending-bit order.

    The addition order matches a plain left-to-right walk of the customers in
    storage order, so these sums are bit-identical to the canonical
    accumulation helpers in the model module.
    """
    n = len(values)
    out = np.zeros(1 << n, dtype=np.float64)
    for j in range(n):
        size = 1 << j
        np.add(out[:size], values[j], out=out[size : size << 1])
    return out


def _best_feasible_mask(instance: Instance, weights: np.ndarray, rel_tol: float) -> np.ndarray:
    """Storage mask of the feasible selection maximising the weight sum.

    Ties are broken toward the lexicographically smallest sorted id list.
    """
    limit_sq = instance.capacity_limit_sq(rel_tol)
    # |sum|^2 = p^2 + q^2 built in place in the psum table: same floats as
    # the expression form, without three 2^n temporaries; a square that
    # overflows to inf is simply infeasible
    psum = subset_sums(instance.columns.p)
    qsum = subset_sums(instance.columns.q)
    with np.errstate(over="ignore"):
        np.multiply(psum, psum, out=psum)
        np.multiply(qsum, qsum, out=qsum)
        np.add(psum, qsum, out=psum)
    feasible = psum <= limit_sq
    wsum = subset_sums(weights)
    wsum[~feasible] = -np.inf
    best_value = wsum.max()  # the empty mask is always feasible, so > -inf
    candidates = np.flatnonzero(wsum == best_value)
    ids, bits = instance.columns.id.tolist(), range(len(instance))
    best = min(map(int, candidates), key=lambda m: sorted(ids[j] for j in bits if m >> j & 1))
    return np.array([best >> j & 1 for j in bits], dtype=bool)


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
