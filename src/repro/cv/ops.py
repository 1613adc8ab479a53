"""Simulated CV operators: the user-defined Transform UDFs.

The substrate for YOLO / KCF / TransMOT etc.: given a segment's latent
content state and a knob configuration, emit *detections* — one row per
detected object with a confidence — exactly the relational payload the
V-ETL Load step warehouses.  The number of objects present follows the
segment's crowding level; the configuration's accuracy on the segment
determines the recall (how many of them are detected/tracked) and the
reported confidences.  Everything is a pure function of
(seed, segment_id, config), so results are identical no matter how Spark
partitions the segments.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.workloads.base import Config, Workload

DETECTION_SCHEMA = (
    "segment_id long, t_start double, object_id int, klass string, "
    "confidence double, is_ev boolean"
)

_CLASSES = ("car", "person", "bus")
_EV_FRACTION = 0.12  # EVs among cars (green plates, intro example)


def objects_present(wl: Workload, difficulty: np.ndarray, mult) -> np.ndarray:
    """Number of objects in frame per segment (drives quality mass)."""
    return np.maximum(
        1, np.round(10.0 * wl.mass(difficulty, mult))
    ).astype(int)


def detect_segments(
    wl: Workload,
    cfg: Config,
    pdf: pd.DataFrame,
    *,
    seed: int,
) -> pd.DataFrame:
    """Run the simulated detector+tracker over a batch of segment rows.

    ``pdf`` must have columns segment_id, t_start, the workload's
    difficulty dims, and mult.  Returns one row per detected object.
    """
    dims = list(wl.dims)
    diff = pdf[dims].to_numpy(dtype=float)
    gids = pdf["segment_id"].to_numpy()
    mult = pdf["mult"].to_numpy(dtype=float)
    acc = wl.observed_quality([cfg], diff, gids, seed=seed, mult=mult)[0]
    acc = acc / np.maximum(wl.mass(diff, mult), 1e-9)  # back to [0, 1]
    n_present = objects_present(wl, diff, mult)

    out = {
        "segment_id": [],
        "t_start": [],
        "object_id": [],
        "klass": [],
        "confidence": [],
        "is_ev": [],
    }
    key = wl.noise_key(cfg, seed)
    for row in range(len(pdf)):
        gid = int(gids[row])
        rng = np.random.default_rng((seed, gid, key & 0x7FFFFFFF))
        n_det = int(rng.binomial(n_present[row], min(1.0, max(0.0, acc[row]))))
        if n_det == 0:
            continue
        klass = rng.choice(len(_CLASSES), n_det, p=(0.6, 0.3, 0.1))
        conf = np.clip(acc[row] + rng.normal(0.0, 0.05, n_det), 0.01, 1.0)
        is_ev = (klass == 0) & (rng.random(n_det) < _EV_FRACTION)
        out["segment_id"].extend([gid] * n_det)
        out["t_start"].extend([float(pdf["t_start"].iloc[row])] * n_det)
        out["object_id"].extend(range(n_det))
        out["klass"].extend(_CLASSES[k] for k in klass)
        out["confidence"].extend(conf.tolist())
        out["is_ev"].extend(bool(b) for b in is_ev)
    return pd.DataFrame(out, columns=list(out))


def reported_quality(
    wl: Workload, cfg: Config, pdf: pd.DataFrame, *, seed: int
) -> float:
    """The quality metric the user code returns per micro-batch (mean
    reported segment quality) — the signal the knob switcher consumes."""
    dims = list(wl.dims)
    q = wl.observed_quality(
        [cfg],
        pdf[dims].to_numpy(dtype=float),
        pdf["segment_id"].to_numpy(),
        seed=seed,
        mult=pdf["mult"].to_numpy(dtype=float),
    )[0]
    return float(q.mean())
