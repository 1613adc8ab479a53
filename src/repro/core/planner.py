"""Online knob planner (paper Section 4.1).

Every planned interval (default: 2 days) the planner

1. forecasts the content-category frequencies r_c over the next interval
   with the offline-trained model, fed with the recent category
   histograms the knob switcher has been recording anyway, and
2. solves the LP of Eq. 2-4 to produce the knob plan P = {alpha_c}:
   per category, a histogram over knob configurations that maximizes
   expected quality under the compute budget (on-premise core-seconds
   plus the cloud-credit budget converted to core-seconds, footnote 4).

Both steps are cheap (a forward pass through a small MLP and an exact
greedy LP solve) — ``benchmarks/bench_overheads.py`` verifies the
paper's "< 1 s" planner overhead claim.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fit import Fitted
from repro.core.forecast import featurize_window
from repro.core.mckp import PlanSolution, solve_knob_plan
from repro.sim.cluster import Cluster


@dataclass(frozen=True)
class KnobPlan:
    alpha: np.ndarray  # (K, C) — the plan P
    ratios: np.ndarray  # (C,) forecasted category frequencies
    budget_per_vs: float  # core-seconds per video-second
    lp: PlanSolution


def forecast_ratios(fitted: Fitted, recent_hists: np.ndarray) -> np.ndarray:
    """Forecast r_c for the next planned interval."""
    x = featurize_window(fitted.spec, recent_hists)[None, :]
    r = fitted.forecaster.predict_proba(x)[0]
    r = np.clip(r, 0.0, None)
    s = r.sum()
    return r / s if s > 0 else np.full(len(r), 1.0 / len(r))


ONPREM_UTILIZATION = 0.8


def compute_budget_per_vs(
    cluster: Cluster,
    *,
    interval_s: float,
    cloud_budget_usd: float,
) -> float:
    """Total compute budget in core-seconds per second of video.

    On-premise capacity contributes ``ONPREM_UTILIZATION * n_cores``;
    the cloud-credit budget for the interval is converted to core-seconds
    at the cloud price (paper footnote 4) and spread over the interval.

    ``ONPREM_UTILIZATION`` < 1 reserves drain slack: a plan that binds at
    the full core count keeps the buffer permanently pinned at its limit
    (expensive placements get refused and the plan is never realized),
    whereas a slightly leaner plan lets the buffer drain overnight —
    the behaviour the paper shows in Figure 3 — and tracks its expected
    quality much more closely over multi-day runs.
    """
    cloud_core_s = cloud_budget_usd / cluster.cloud_usd_per_core_s
    return cluster.n_cores * ONPREM_UTILIZATION + cloud_core_s / interval_s


def make_plan(
    fitted: Fitted,
    recent_hists: np.ndarray,
    cluster: Cluster,
    *,
    interval_s: float,
    cloud_budget_usd: float,
    mean_mult: float | None = None,
) -> KnobPlan:
    """Forecast + LP solve."""
    ratios = forecast_ratios(fitted, recent_hists)
    if mean_mult is None:
        mean_mult = fitted.mean_mult
    budget = compute_budget_per_vs(
        cluster,
        interval_s=interval_s,
        cloud_budget_usd=cloud_budget_usd,
    )
    # cost(k) in core-seconds per video-second, scaled by the expected
    # work multiplier (concurrent-stream count for MOSEI).
    cost = fitted.work * mean_mult
    lp = solve_knob_plan(fitted.categories.qual_hat(), cost, ratios, budget)
    return KnobPlan(
        alpha=lp.alpha, ratios=ratios, budget_per_vs=budget, lp=lp
    )
