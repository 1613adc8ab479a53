"""Simulated CV operators: the user-defined Transform UDFs.

The substrate for YOLO / KCF / TransMOT etc.: given a segment's latent
content state and a knob configuration, emit *detections* — one row per
detected object with a confidence — exactly the relational payload the
V-ETL Load step warehouses.  The number of objects present follows the
segment's crowding level; the configuration's accuracy on the segment
determines the recall (how many of them are detected/tracked) and the
reported confidences.

Every random quantity is a counter-based hash draw (splitmix64, as
:func:`repro.video.content.hash_normal`), keyed by (seed, configuration)
and counted by (segment, object slot), so a batch of segments is drawn
at once, with no per-row generator or loop, and the result is a pure
function of (seed, segment_id, config): identical no matter how Spark
partitions or orders the segments.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.video.content import hash_normal, hash_uniform
from repro.workloads.base import Config, Workload

DETECTION_SCHEMA = (
    "segment_id long, t_start double, object_id int, klass string, "
    "confidence double, is_ev boolean"
)

_CLASSES = np.array(["car", "person", "bus"], dtype=object)
_CLASS_CDF = (0.6, 0.9)  # car 0.6, person 0.3, bus 0.1
_EV_FRACTION = 0.12  # EVs among cars (green plates, intro example)
_CONF_SIGMA = 0.05  # confidence noise around the segment's accuracy
# An object slot's counter is segment_id << 20 | slot: up to 2**20 slots
# per segment (MOSEI reaches 640) and segment ids below 2**40, so every
# counter is below 2**60.  Each random quantity XORs its index into bits
# 60-61 of the key; two keys then differ by a nonzero multiple of 2**60,
# and so do the splitmix64 states they start equal counters from, which
# counters below 2**60 cannot make up: no two quantities start from the
# same state.
_SLOT_BITS = 20
_MAX_SEGMENT_ID = 1 << 40
_DETECT, _CLASS, _CONF, _EV = (q << 60 for q in range(4))


def objects_present(wl: Workload, difficulty: np.ndarray, mult) -> np.ndarray:
    """Number of objects in frame per segment (drives quality mass)."""
    return np.maximum(
        1, np.round(10.0 * wl.mass(difficulty, mult))
    ).astype(int)


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of ``counts[i]`` items: each item's run i, and its index
    0..counts[i]-1 within the run."""
    run = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return run, np.arange(len(run)) - first[run]


def detect_segments(
    wl: Workload,
    cfg: Config,
    pdf: pd.DataFrame,
    *,
    seed: int,
) -> pd.DataFrame:
    """Run the simulated detector+tracker over a batch of segment rows.

    ``pdf`` must have columns segment_id, t_start, the workload's
    difficulty dims, and mult.  Returns one row per detected object, in
    row order, with ``object_id`` 0..n-1 within each segment.

    Each of a segment's ``objects_present`` slots is detected with the
    configuration's reported accuracy on the segment; a detected object
    draws its class (car 0.6, person 0.3, bus 0.1), its confidence (the
    accuracy plus N(0, 0.05) noise, clipped to [0.01, 1]) and, if a car,
    whether it is an EV (0.12).
    """
    diff = pdf[list(wl.dims)].to_numpy(dtype=float)
    gids = pdf["segment_id"].to_numpy(dtype=np.int64)
    mult = pdf["mult"].to_numpy(dtype=float)
    acc = wl.report_accuracies(wl.accuracies([cfg], diff), [cfg], gids,
                               seed=seed)[0]
    n_present = objects_present(wl, diff, mult)
    if len(gids) and (gids.min() < 0 or gids.max() >= _MAX_SEGMENT_ID
                      or n_present.max() >= 1 << _SLOT_BITS):
        raise ValueError("segment ids or object counts out of the "
                         "detector's counter range")
    seg, slot = _runs(n_present)
    ctr = (gids[seg] << _SLOT_BITS) | slot
    key = wl.noise_key(cfg, seed)
    hit = hash_uniform(key ^ _DETECT, ctr) < acc[seg]
    seg, ctr = seg[hit], ctr[hit]
    klass = np.searchsorted(_CLASS_CDF, hash_uniform(key ^ _CLASS, ctr),
                            side="right")
    conf = acc[seg] + _CONF_SIGMA * hash_normal(key ^ _CONF, ctr)
    np.clip(conf, 0.01, 1.0, out=conf)
    is_ev = (klass == 0) & (hash_uniform(key ^ _EV, ctr) < _EV_FRACTION)
    _, object_id = _runs(np.bincount(seg, minlength=len(gids)))
    return pd.DataFrame({
        "segment_id": gids[seg],
        "t_start": pdf["t_start"].to_numpy(dtype=float)[seg],
        "object_id": object_id.astype(np.int32),
        "klass": _CLASSES[klass],
        "confidence": conf,
        "is_ev": is_ev,
    })


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
