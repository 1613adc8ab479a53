"""MOSEI multi-modal sentiment workload (paper Section 5.2 / Appendix J).

Synthetic social-media-analysis workload: a varying number of concurrent
talking-head streams (mimicking Twitch's active-streamer curve) each run
through transcription (CMUSphinx) -> feature extraction (GloVe / MTCNN /
DeepFace / acoustic features) -> sentiment classifier.

Knobs (verbatim from the paper):
  * frequency of sentiment analysis: skip {0..6} sentences
  * frame rate during sentiment analysis: analyze {1/6..1} of a sentence
  * model size: {small, medium, large} classifiers
  * number of streams to analyze (we expose it as the fraction of the
    currently incoming streams that are ingested)

Two spike variants stress the two resource types (Section 5.2):
  * MOSEI-HIGH: short peaks of 62 concurrent streams — the uplink cannot
    carry that many streams, so cloud bursting is ineffective;
  * MOSEI-LONG: one sustained multi-hour peak — the buffer fills early,
    so buffering alone is ineffective.

Quality is the certainty-weighted sum over ingested streams, so segment
qualities are weighted by the concurrent-stream count (the work
multiplier).
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.video.content import ContentParams, ContentTrace, stream_count_trace
from repro.workloads.base import (
    Config,
    KnobSpec,
    TaskGraph,
    TaskNode,
    Workload,
)

_SENT_PER_S = 1.0 / 5.0  # a spoken sentence every ~5 seconds
_TRANSCRIBE_S = 0.040  # per video-second per stream, always runs
_FEATURE_S = 0.030  # per video-second at frame_frac=1
# Sentence-level sentiment cost; the large model at full frame fraction
# puts one stream at ~1.7 core-s per video-second, so the 62-stream
# MOSEI-HIGH peaks exceed even the 60-vCPU machine (the paper's static
# baseline tops out at 51-65% quality on MOSEI).
_MODEL_SENT_S = {"small": 1.2, "medium": 3.0, "large": 12.0}
_BASE_ACC = {"small": 0.62, "medium": 0.74, "large": 0.84}
_MODEL_CAP = {"small": 0.50, "medium": 0.72, "large": 0.92}
_FRAME_BYTES = 150_000.0  # face crop + audio chunk shipped per frame


class MoseiWorkload(Workload):
    name = "mosei"
    seg_len = 7.0  # the paper switches knobs every 7 s for MOSEI
    dims = ("volatility", "audio_noise")
    knobs = (
        KnobSpec("skip_sentences", (0, 1, 2, 3, 4, 5, 6)),
        KnobSpec("frame_frac", (1 / 6, 1 / 3, 1 / 2, 2 / 3, 5 / 6, 1.0)),
        KnobSpec("model_size", ("small", "medium", "large")),
        KnobSpec("stream_frac", (0.25, 0.5, 0.75, 1.0)),
    )
    tau = 0.10
    bitrate_bytes_per_s = 400_000.0  # per incoming stream
    test_days = 2.0
    train_days = 10.0

    def __init__(self, spike: str = "high") -> None:
        if spike not in ("high", "long"):
            raise ValueError("spike must be 'high' or 'long'")
        self.spike = spike
        self.name = f"mosei-{spike}"

    def mass(
        self, difficulty: np.ndarray, mult: np.ndarray | float = 1.0
    ) -> np.ndarray:
        """Quality mass = concurrent-stream count (the paper's MOSEI
        quality is a sum over ingested streams)."""
        d0 = np.atleast_2d(difficulty)[:, 0]
        return np.broadcast_to(
            np.asarray(mult, dtype=float), d0.shape
        ).astype(float)

    def base_quality(self, cfg: Config) -> float:
        skip, frame_frac, model, stream_frac = cfg
        frac_effect = 0.35 + 0.65 * frame_frac**0.8
        return stream_frac * _BASE_ACC[model] * frac_effect

    def capability(self, cfg: Config) -> np.ndarray:
        skip, frame_frac, model, stream_frac = cfg
        cap_vol = max(0.05, 1.0 - 0.22 * skip)
        cap_noise = _MODEL_CAP[model]
        return np.array([cap_vol, cap_noise])

    def content_params(self) -> ContentParams:
        return ContentParams(
            dims=self.dims,
            base=(0.15, 0.10),
            diurnal_amp=(0.35, 0.20),
            diurnal_peaks=((20.0, 4.0, 1.0), (14.0, 3.0, 0.5)),
            burst_rate_per_hour=12.0,
            burst_scale=(0.9, 0.7),
            burst_mag=(0.15, 0.40),
            burst_dur_s=(20.0, 90.0),
            drift_rho=0.985,
            drift_sigma=0.015,
            drift_scale=(0.8, 0.6),
            noise_sigma=0.02,
            seg_len=self.seg_len,
        )

    def segments(self, *, seed: int, gid0: int, n: int) -> ContentTrace:
        mult = stream_count_trace(
            seed=seed, gid0=gid0, n_segments=n, seg_len=self.seg_len,
            spike=self.spike,
        )
        return replace(
            super().segments(seed=seed, gid0=gid0, n=n), work_multiplier=mult
        )

    def task_graph(self, cfg: Config) -> TaskGraph:
        # Per *incoming* stream: the concurrent-stream count enters via
        # the work multiplier; stream_frac (the "number of streams to
        # analyze" knob) scales the processed share of each node.
        skip, frame_frac, model, stream_frac = cfg
        analyze_rate = _SENT_PER_S / (skip + 1)
        transcribe_s = _TRANSCRIBE_S * self.seg_len * stream_frac
        feature_s = _FEATURE_S * frame_frac * self.seg_len * stream_frac
        n_sent = max(1, round(analyze_rate * self.seg_len))
        per_sent = _MODEL_SENT_S[model] * frame_frac
        classify_s = analyze_rate * per_sent * self.seg_len * stream_frac
        rtt = 0.12
        frames = max(1, round(7.5 * frame_frac * self.seg_len))  # shipped
        nodes = (
            TaskNode(
                "transcribe",
                transcribe_s,
                transcribe_s,
                0.0,
                0.0,
                pin_onprem=True,  # needs the raw audio stream
                width=frames,
            ),
            TaskNode(
                "features",
                feature_s,
                rtt + feature_s / frames / 2.0,
                frames * _FRAME_BYTES * stream_frac,
                frames * 6_000.0 * stream_frac,
                width=frames,
            ),
            TaskNode(
                "classify",
                classify_s,
                rtt + per_sent / 8.0,
                frames * 8_000.0 * stream_frac,
                2_000.0,
                # the sentiment transformer is intra-op parallel (~8-way),
                # so even a single stream's sentence can use several cores
                width=n_sent * 8,
            ),
        )
        edges = ((0, 1), (1, 2))
        return TaskGraph(nodes, edges)
