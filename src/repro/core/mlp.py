"""Feed-forward neural network in numpy (the paper's forecasting model).

Appendix K specifies the architecture exactly:

    input --> 16 units (ReLU) --> 8 units (ReLU) --> |C| (softmax)

trained for 40 epochs keeping the weights with best validation loss on a
20% validation split.  PyTorch is not available in this environment, so
this module implements the network, a cross-entropy loss against target
*distributions* (the labels are content-category frequency histograms),
and the Adam optimizer — all in numpy, deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BATCH_SIZE = 32
LEARNING_RATE = 1e-3  # Adam step size
VAL_SPLIT = 0.2  # Appendix K's validation share


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class MLP:
    """input -> hidden ReLU layers -> softmax output."""

    in_dim: int
    hidden: tuple[int, ...] = (16, 8)
    out_dim: int = 3
    seed: int = 0
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.weights:
            rng = np.random.default_rng(self.seed)
            sizes = [self.in_dim, *self.hidden, self.out_dim]
            for a, b in zip(sizes[:-1], sizes[1:]):
                # He initialization for the ReLU layers.
                self.weights.append(
                    rng.normal(0.0, np.sqrt(2.0 / a), (a, b))
                )
                self.biases.append(np.zeros(b))

    # -- forward / backward -------------------------------------------------
    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        acts = [x]
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = _relu(z) if i < len(self.weights) - 1 else z
            acts.append(h)
        return softmax(acts[-1]), acts

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax output distribution for each input row."""
        return self._forward(np.asarray(x, dtype=float))[0]

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Cross-entropy against target distributions y (rows sum to 1)."""
        p = self.predict_proba(x)
        return float(-(y * np.log(p + 1e-12)).sum(axis=1).mean())

    def _gradients(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        p, acts = self._forward(x)
        n = len(x)
        # d loss / d logits for softmax + cross-entropy:
        delta = (p - y) / n
        gw, gb = [], []
        for i in reversed(range(len(self.weights))):
            gw.append(acts[i].T @ delta)
            gb.append(delta.sum(axis=0))
            if i > 0:
                delta = (delta @ self.weights[i].T) * (acts[i] > 0)
        return gw[::-1], gb[::-1]

    # -- training -----------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 40,
        seed: int = 0,
    ) -> dict:
        """Adam training; keeps the best-validation-loss weights.

        Returns a history dict with per-epoch train/val losses.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        rng = np.random.default_rng(seed)
        idx = rng.permutation(len(x))
        n_val = max(1, int(len(x) * VAL_SPLIT)) if len(x) > 1 else 0
        val_idx, train_idx = idx[:n_val], idx[n_val:]
        if len(train_idx) == 0:
            train_idx = idx
        xt, yt = x[train_idx], y[train_idx]
        xv, yv = x[val_idx], y[val_idx]

        m = [np.zeros_like(w) for w in self.weights + self.biases]
        v = [np.zeros_like(w) for w in self.weights + self.biases]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        t = 0
        best_val = np.inf
        best = None
        history = {"train": [], "val": []}
        for _ in range(epochs):
            order = rng.permutation(len(xt))
            for start in range(0, len(xt), BATCH_SIZE):
                batch = order[start : start + BATCH_SIZE]
                gw, gb = self._gradients(xt[batch], yt[batch])
                grads = gw + gb
                params = self.weights + self.biases
                t += 1
                for i, (p, g) in enumerate(zip(params, grads)):
                    m[i] = beta1 * m[i] + (1 - beta1) * g
                    v[i] = beta2 * v[i] + (1 - beta2) * g * g
                    mh = m[i] / (1 - beta1**t)
                    vh = v[i] / (1 - beta2**t)
                    p -= LEARNING_RATE * mh / (np.sqrt(vh) + eps)
            history["train"].append(self.loss(xt, yt))
            val_loss = self.loss(xv, yv) if len(xv) else history["train"][-1]
            history["val"].append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best = (
                    [w.copy() for w in self.weights],
                    [b.copy() for b in self.biases],
                )
        if best is not None:
            self.weights, self.biases = best
        return history
