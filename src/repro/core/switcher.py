"""Online knob switcher (paper Section 4.2).

Every few seconds (every segment in our reproduction) the switcher:

1. classifies the current content into a category using only the quality
   the running configuration just reported (Eq. 5 — 1-D nearest-center);
2. looks the category up in the knob plan to get the target histogram
   alpha_c;
3. picks the configuration with the largest deficit between planned and
   actually-used frequency (Eq. 6), then the cheapest task placement
   that does not overflow the buffer; if no placement of that
   configuration fits, it falls back to the next less qualitative
   configuration recursively.

The switcher is pure decision logic — feasibility of a placement
(buffer headroom, remaining cloud credits) is delegated to a caller
predicate so the same code runs inside the ingestion simulator and in
the Structured-Streaming job, and so its sub-millisecond overhead can be
benchmarked in isolation (Section 5.5).
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.categories import Categories


class KnobSwitcher:
    """Stateful reactive knob switcher for one stream."""

    def __init__(
        self,
        categories: Categories,
        runtimes: Sequence[Sequence[float]],
    ) -> None:
        """``runtimes[k][p]`` is placement p's runtime for configuration
        k at the grid's smallest multiplier, placements in scan order
        (ascending cloud cost).  Configurations are indexed in order of
        increasing work, so the stream starts on the cheapest one, k-."""
        self.categories = categories
        # fallback order: highest mean expected quality first
        self.quality_rank = list(np.argsort(-categories.centers.mean(axis=0)))
        self.placement_idx = [range(len(rt)) for rt in runtimes]
        # when nothing is feasible: the least qualitative configuration's
        # fastest placement (the first one on a runtime tie)
        k_last = self.quality_rank[-1]
        self.forced = (
            k_last,
            min(self.placement_idx[k_last], key=runtimes[k_last].__getitem__),
        )
        n_k = categories.n_configs
        n_c = categories.n
        self.alpha = np.full((n_k, n_c), 1.0 / n_k)  # plan (uniform until set)
        self.counts = np.zeros((n_k, n_c))  # alpha-hat numerators
        self.k_cur = 0

    # -- plan management -----------------------------------------------------
    def set_plan(self, alpha: np.ndarray) -> None:
        """Install a fresh knob plan and reset usage statistics."""
        if alpha.shape != self.alpha.shape:
            raise ValueError("plan shape mismatch")
        self.alpha = alpha
        self.counts[:] = 0.0

    # -- the three steps of Section 4.2 --------------------------------------
    def classify(self, reported_quality: float) -> int:
        """Step 1: category of the current content from the reported
        quality of the *currently running* configuration (Eq. 5)."""
        return int(
            self.categories.classify_1d(self.k_cur, reported_quality)[0]
        )

    def pick_config(self, category: int) -> int:
        """Steps 2-3a: configuration with the largest planned-minus-actual
        frequency deficit for this category (Eq. 6)."""
        total = self.counts[:, category].sum()
        alpha_hat = (
            self.counts[:, category] / total
            if total > 0
            else np.zeros(len(self.counts))
        )
        return int(np.argmax(self.alpha[:, category] - alpha_hat))

    def fallback_order(self, k_desired: int) -> list[int]:
        """k_desired, then successively less qualitative configurations."""
        pos = self.quality_rank.index(k_desired)
        order = self.quality_rank[pos:]
        # Safety net: if even the least qualitative configuration in rank
        # order fails the caller's feasibility check, there is nothing
        # cheaper to try — callers force the last entry.
        return order

    def choose(
        self,
        category: int,
        feasible: Callable[[int, int], bool],
    ) -> tuple[int, int]:
        """Step 3: pick (configuration, placement index).

        ``feasible(k, p)`` must return whether using placement p of
        configuration k keeps the buffer from overflowing (and any
        cloud-credit constraint the caller enforces).  Placements are
        scanned cheapest first; configurations fall back from the
        desired one to less qualitative ones.  If nothing is feasible,
        the least qualitative configuration's fastest placement is
        returned (the caller's provisioning contract guarantees this
        never overflows in practice; the ingestion simulator records an
        overflow flag otherwise).
        """
        k_desired = self.pick_config(category)
        for k in self.fallback_order(k_desired):
            for p in self.placement_idx[k]:  # ascending cloud cost
                if feasible(k, p):
                    self._record(k, category)
                    return k, p
        self._record(self.forced[0], category)
        return self.forced

    def _record(self, k: int, category: int) -> None:
        self.counts[k, category] += 1.0
        self.k_cur = k
