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
    """Stateful reactive knob switcher for one stream.

    The per-segment steps run on plain Python floats: the running
    configuration's center column (Eq. 5), each category's plan column
    and usage counts (Eq. 6).  Each step does numpy's operations in
    numpy's order and keeps the first of tied candidates, as ``argmin``
    and ``argmax`` do, so the decisions are those of the array form
    (``Categories.classify_1d``; ``argmax(alpha[:, c] - counts[:, c] /
    total)``).
    """

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
        rank = np.argsort(-categories.centers.mean(axis=0)).tolist()
        self.quality_rank = rank
        # each configuration's fallback order: its rank suffix
        self._fallback = [None] * len(rank)
        for pos, k in enumerate(rank):
            self._fallback[k] = rank[pos:]
        self.placement_idx = [range(len(rt)) for rt in runtimes]
        # when nothing is feasible: the least qualitative configuration's
        # fastest placement (the first one on a runtime tie)
        k_last = rank[-1]
        self.forced = (
            k_last,
            min(self.placement_idx[k_last], key=runtimes[k_last].__getitem__),
        )
        self._centers = categories.centers.T.tolist()  # [k][c]
        n_k = categories.n_configs
        self.set_plan(np.full((n_k, categories.n), 1.0 / n_k))  # uniform
        self.k_cur = 0

    # -- plan management -----------------------------------------------------
    def set_plan(self, alpha: np.ndarray) -> None:
        """Install a fresh knob plan ``alpha[k, c]`` and reset usage
        statistics.  LP plans may carry round-off negatives; a non-finite
        entry is an error (a first-maximum scan would skip a NaN)."""
        shape = (self.categories.n_configs, self.categories.n)
        if alpha.shape != shape:
            raise ValueError("plan shape mismatch")
        if not np.isfinite(alpha).all():
            raise ValueError("plan has non-finite entries")
        self._alpha = alpha.T.tolist()  # [c][k]
        # alpha-hat numerators and their sum, per category
        self._counts = [[0.0] * shape[0] for _ in range(shape[1])]
        self._total = [0.0] * shape[1]

    @property
    def counts(self) -> np.ndarray:
        """(K, C) usage counts under the current plan."""
        return np.array(self._counts).T

    # -- the three steps of Section 4.2 --------------------------------------
    def classify(self, reported_quality: float) -> int:
        """Step 1: category of the current content from the reported
        quality of the *currently running* configuration (Eq. 5)."""
        col = self._centers[self.k_cur]
        best, best_d = 0, abs(col[0] - reported_quality)
        for c in range(1, len(col)):
            d = abs(col[c] - reported_quality)
            if d < best_d:
                best, best_d = c, d
        return best

    def pick_config(self, category: int) -> int:
        """Steps 2-3a: configuration with the largest planned-minus-actual
        frequency deficit for this category (Eq. 6)."""
        deficit = self._alpha[category]  # nothing used yet: the plan
        total = self._total[category]
        if total > 0:
            deficit = [
                a - n / total for a, n in zip(deficit, self._counts[category])
            ]
        return deficit.index(max(deficit))  # the first maximum

    def fallback_order(self, k_desired: int) -> list[int]:
        """k_desired, then successively less qualitative configurations.

        If even the least qualitative configuration fails the caller's
        feasibility check, there is nothing cheaper to try: ``choose``
        forces its fastest placement."""
        return self._fallback[k_desired]

    def choose(
        self,
        category: int,
        feasible: Callable[[int, int], bool],
    ) -> tuple[int, int]:
        """Step 3: pick (configuration, placement index).

        ``feasible(k, p)`` must return whether the caller admits
        placement p of configuration k: in the ingestion simulator, no
        buffer overflow at that placement's own finish and enough cloud
        credit.  Placements are scanned cheapest first; configurations
        fall back from the desired one to less qualitative ones.  If
        nothing is feasible, the least qualitative configuration's
        fastest placement is returned.  Neither that forced pick nor an
        admitted one is guaranteed to keep the buffer within Eq. 1:
        segments captured later can still overflow it, even inside the
        provisioning contract; the simulator records the overflow
        (ROADMAP item 1).
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
        self._counts[category][k] += 1.0
        self._total[category] += 1.0
        self.k_cur = k
