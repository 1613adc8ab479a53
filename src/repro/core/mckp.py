"""Exact solver for the knob-planner linear program (paper Eq. 2-4).

The LP

    maximize    sum_{k,c} alpha_{k,c} * r_c * qual(k, c)
    subject to  sum_{k,c} alpha_{k,c} * r_c * cost(k) <= budget
                sum_k alpha_{k,c} = 1,  alpha_{k,c} >= 0        for all c

is the LP relaxation of a multiple-choice knapsack: each content category
c is a "class" with mass r_c that must be distributed over the knob
configurations.  The paper solves it with SciPy [75]; SciPy is not
installed here, so we use the classical exact method for this LP
(Sinha & Zoltners): per class, drop dominated and LP-dominated
configurations (upper convex hull of the (cost, quality) frontier), start
every class at its cheapest configuration, then greedily apply upgrade
steps in order of decreasing incremental quality-per-cost until the
budget is exhausted — the final step may be fractional.  This greedy is
*optimal* for the LP relaxation; tests verify KKT conditions and compare
against brute force on small instances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.offline import pareto_front


def lp_frontier(cost: np.ndarray, qual: np.ndarray) -> list[int]:
    """Indices of the LP-undominated items, sorted by increasing cost.

    Keeps only items on the upper-left convex hull of (cost, quality):
    strictly increasing quality with strictly decreasing incremental
    quality-per-cost ratios.  Any LP-optimal solution uses only such
    items.
    """
    # convex-hull filter over the Pareto front: incremental ratios must
    # strictly decrease
    hull: list[int] = []
    for i in pareto_front(cost, qual):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            r_ab = (qual[b] - qual[a]) / (cost[b] - cost[a])
            r_bi = (qual[i] - qual[b]) / (cost[i] - cost[b])
            if r_bi >= r_ab - 1e-15:
                hull.pop()
            else:
                break
        # pareto_front leaves no exact cost ties; a near tie keeps the
        # better item
        if len(hull) == 1 and cost[i] <= cost[hull[0]] + 1e-15:
            hull.pop()
        hull.append(i)
    return hull


@dataclass(frozen=True)
class PlanSolution:
    """Optimal knob plan: alpha[k, c] = fraction of category-c content to
    process with configuration k."""

    alpha: np.ndarray  # (K, C)
    cost: float  # expected cost  sum alpha * r * w
    quality: float  # expected quality  sum alpha * r * q
    feasible: bool  # budget >= cost of all-cheapest plan
    lam: float  # dual price of the budget constraint


def solve_knob_plan(
    qual: np.ndarray,
    cost: np.ndarray,
    ratios: np.ndarray,
    budget: float,
) -> PlanSolution:
    """Solve the planner LP.

    Parameters
    ----------
    qual:
        (K, C) expected quality of configuration k on category c (the
        KMeans cluster centers, transposed).
    cost:
        (K,) cost of configuration k (core-seconds per video-second).
    ratios:
        (C,) forecasted frequency of each category (need not sum to 1;
        they are used as weights exactly as in Eq. 2-3).
    budget:
        Budget in the same units as ``cost`` (weighted by ratios).
    """
    qual = np.asarray(qual, dtype=float)
    cost = np.asarray(cost, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    n_k, n_c = qual.shape
    if cost.shape != (n_k,):
        raise ValueError("cost must have one entry per configuration")
    if ratios.shape != (n_c,):
        raise ValueError("ratios must have one entry per category")

    alpha = np.zeros((n_k, n_c))
    steps = []  # (ratio, order, c, k_from, k_to, step_cost, step_gain)
    base_cost = 0.0
    base_qual = 0.0
    for c in range(n_c):
        hull = lp_frontier(cost, qual[:, c])
        k0 = hull[0]
        alpha[k0, c] = 1.0
        base_cost += ratios[c] * cost[k0]
        base_qual += ratios[c] * qual[k0, c]
        if ratios[c] <= 0:
            continue  # empty category: leave at cheapest, no upgrades
        for a, b in zip(hull[:-1], hull[1:]):
            dq = qual[b, c] - qual[a, c]
            dw = cost[b] - cost[a]
            steps.append(
                (dq / dw, len(steps), c, a, b, ratios[c] * dw, ratios[c] * dq)
            )

    remaining = budget - base_cost
    feasible = remaining >= -1e-12
    if not feasible or not steps:
        return PlanSolution(
            alpha=alpha,
            cost=base_cost,
            quality=base_qual,
            feasible=feasible,
            lam=0.0,
        )

    # Sort by decreasing ratio; the tie-break on insertion order keeps
    # intra-class steps in hull order (their ratios strictly decrease, so
    # this only matters for cross-class ties).
    steps.sort(key=lambda s: (-s[0], s[1]))
    total_cost = base_cost
    total_qual = base_qual
    lam = 0.0
    for ratio, _, c, k_from, k_to, step_cost, step_gain in steps:
        if remaining <= 1e-15:
            break
        frac = min(1.0, remaining / step_cost) if step_cost > 0 else 1.0
        alpha[k_from, c] -= frac
        alpha[k_to, c] += frac
        spent = frac * step_cost
        remaining -= spent
        total_cost += spent
        total_qual += frac * step_gain
        lam = ratio
    # numerical cleanup
    np.clip(alpha, 0.0, 1.0, out=alpha)
    alpha /= alpha.sum(axis=0, keepdims=True)
    return PlanSolution(
        alpha=alpha,
        cost=total_cost,
        quality=total_qual,
        feasible=True,
        lam=lam,
    )
