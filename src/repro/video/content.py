"""Synthetic video-stream content process.

The paper ingests real camera streams whose *content difficulty* (object
occlusions, small objects, motion, lighting) varies on three time scales:

* a diurnal pattern (rush hours / shopping hours vs. night),
* short stochastic bursts ("a large group of pedestrians randomly walking
  past a camera", Section 5.6) lasting tens of seconds — the paper reports
  content-category changes every 24-43 s on average,
* slow day-to-day drift ("traffic in the city worsens", Appendix E.2),
  which is what makes 8-day-ahead forecasts worse than 2-day-ahead ones
  (Table 5).

We reproduce exactly this structure as a latent per-segment *difficulty
vector* d(s) in [0, 1]^D.  Every downstream component (simulated CV
operators, quality model, content categories, forecaster) consumes only
d(s), so the reproduction exercises the same code paths as a real
deployment would.  Generation is vectorized numpy and deterministic in the
seed, so Spark workers can regenerate a trace from (params, seed) instead
of shipping data.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

SECONDS_PER_DAY = 86_400.0


def segment_range(
    seg_len: float, n_days: float, start_day: float = 0.0
) -> tuple[int, int]:
    """The segments ``[gid0, gid0 + n)`` that cover ``n_days`` from
    ``start_day``: segment k of the stream starts at k * seg_len, so the
    window start snaps to the nearest segment (86400 need not be a
    multiple of seg_len) and the window holds at least one segment."""
    gid0 = int(round(start_day * SECONDS_PER_DAY / seg_len))
    n = max(1, int(round(n_days * SECONDS_PER_DAY / seg_len)))
    return gid0, n


@dataclass(frozen=True)
class ContentParams:
    """Parameters of the latent difficulty process for one workload.

    Attributes
    ----------
    dims:
        Names of the difficulty dimensions (e.g. crowding / small-object
        fraction / motion).
    base:
        Per-dimension base difficulty in [0, 1].
    diurnal_amp:
        Per-dimension amplitude of the shared diurnal profile.
    diurnal_peaks:
        Gaussian bumps of the diurnal profile as (hour, width_hours,
        height) triples; the profile is normalized to peak at 1.
    burst_rate_per_hour:
        Poisson arrival rate of content bursts.
    burst_scale:
        Per-dimension multiplier applied to the burst signal.
    burst_mag:
        (lo, hi) uniform range of a burst's magnitude.
    burst_dur_s:
        (lo, hi) uniform range of a burst's duration in seconds.
    drift_rho / drift_sigma:
        AR(1) day-level drift: level[d] = rho*level[d-1] + sigma*eps.
    drift_scale:
        Per-dimension multiplier applied to the day-level drift.
    noise_sigma:
        Std of smoothed white noise added per segment.
    seg_len:
        Segment length in seconds (granularity of knob switching).
    """

    dims: tuple[str, ...]
    base: tuple[float, ...]
    diurnal_amp: tuple[float, ...]
    diurnal_peaks: tuple[tuple[float, float, float], ...]
    burst_rate_per_hour: float = 40.0
    burst_scale: tuple[float, ...] = ()
    burst_mag: tuple[float, float] = (0.15, 0.45)
    burst_dur_s: tuple[float, float] = (15.0, 70.0)
    drift_rho: float = 0.75
    drift_sigma: float = 0.05
    drift_scale: tuple[float, ...] = ()
    noise_sigma: float = 0.02
    seg_len: float = 2.0

    def __post_init__(self) -> None:
        d = len(self.dims)
        for name in ("base", "diurnal_amp"):
            if len(getattr(self, name)) != d:
                raise ValueError(f"{name} must have {d} entries")
        if not self.burst_scale:
            object.__setattr__(self, "burst_scale", (1.0,) * d)
        if not self.drift_scale:
            object.__setattr__(self, "drift_scale", (1.0,) * d)


def _counters(key: int, ids: np.ndarray) -> np.ndarray:
    """The splitmix64 states of counters ``ids`` under ``key``: a new
    uint64 column, ids plus the key times the golden gamma (mod 2**64)."""
    h = np.array(ids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h += np.uint64((key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    return h


def _mix(z: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64's finalizer on the uint64 column ``z``, in place;
    ``tmp`` is a scratch column of the same shape."""
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=tmp)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= np.right_shift(z, np.uint64(27), out=tmp)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= np.right_shift(z, np.uint64(31), out=tmp)


def hash_uniform(key: int, ids: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) draws as a pure function of (key, counter): the top
    53 bits of the mixed counter state, as in :func:`hash_normal`."""
    out = np.empty(np.shape(ids))
    h = _counters(key, ids)
    _mix(h, out.view(np.uint64))
    h >>= np.uint64(11)
    np.multiply(h, 2.0**-53, out=out)
    return out


def hash_normal(key: int, ids: np.ndarray) -> np.ndarray:
    """Standard-normal noise as a pure function of (key, segment id).

    Counter-based (splitmix64 + Box-Muller) so the noise for a segment is
    identical no matter how the trace is sliced or partitioned across
    Spark workers — a stateful RNG stream would make observed qualities
    depend on batch boundaries.

    The mixing and the transform run in place on three columns: the two
    hash states and one scratch column that becomes the result.
    """
    out = np.empty(np.shape(ids))
    tmp = out.view(np.uint64)
    h1 = _counters(key, ids)
    with np.errstate(over="ignore"):
        h2 = h1 + np.uint64(0x632BE59BD9B4E019)
    _mix(h1, tmp)
    _mix(h2, tmp)
    # u = (h >> 11) * 2**-53: the top 53 bits as a float in [0, 1)
    h1 >>= np.uint64(11)
    h2 >>= np.uint64(11)
    u1, u2 = out, h1.view(np.float64)
    np.multiply(h1, 2.0**-53, out=u1)
    np.clip(u1, 1e-12, 1.0, out=u1)
    np.multiply(h2, 2.0**-53, out=u2)
    # sqrt(-2 log u1) * cos(2 pi u2)
    np.log(u1, out=u1)
    np.multiply(-2.0, u1, out=u1)
    np.sqrt(u1, out=u1)
    np.multiply(2.0 * np.pi, u2, out=u2)
    np.cos(u2, out=u2)
    np.multiply(u1, u2, out=u1)
    return out


@dataclass(frozen=True)
class ContentTrace:
    """A realized difficulty trace: one row per video segment.

    ``gid0`` is the absolute index of the first segment (segments since
    day 0 of the stream); a segment's noise and start time derive from
    its index, so they do not depend on how the stream is sliced.
    """

    params: ContentParams
    gid0: int
    difficulty: np.ndarray  # (n_segments, D) float64 in [0, 1]
    work_multiplier: np.ndarray = field(default=None)  # (n_segments,), >= 0

    def __post_init__(self) -> None:
        if self.work_multiplier is None:
            object.__setattr__(
                self, "work_multiplier", np.ones(len(self.difficulty))
            )

    def global_ids(self) -> np.ndarray:
        return self.gid0 + np.arange(self.n_segments)

    @property
    def n_segments(self) -> int:
        return len(self.difficulty)

    @property
    def seg_len(self) -> float:
        return self.params.seg_len

    @property
    def duration_days(self) -> float:
        return self.n_segments * self.seg_len / SECONDS_PER_DAY

    def times_s(self) -> np.ndarray:
        """Arrival time (seconds since stream origin) of each segment."""
        return self.global_ids() * self.seg_len

    def slice(self, start: int, stop: int) -> "ContentTrace":
        """Sub-trace covering segments [start, stop)."""
        return replace(
            self,
            gid0=self.gid0 + start,
            difficulty=self.difficulty[start:stop],
            work_multiplier=self.work_multiplier[start:stop],
        )


def _raw_diurnal(hours: np.ndarray, peaks) -> np.ndarray:
    prof = np.zeros_like(hours, dtype=float)
    for hour, width, height in peaks:
        # circular distance on the 24h clock
        delta = np.abs(hours - hour)
        delta = np.minimum(delta, 24.0 - delta)
        prof += height * np.exp(-0.5 * (delta / width) ** 2)
    return prof


def diurnal_profile(hours: np.ndarray, peaks) -> np.ndarray:
    """Sum-of-Gaussians daily profile on a 24h circle, peak-normalized.

    Normalization uses the profile's maximum over a dense full-day grid
    (not the queried hours), so windows covering part of a day see the
    same values as the full trace.
    """
    prof = _raw_diurnal(np.asarray(hours, dtype=float), peaks)
    peak = _raw_diurnal(np.linspace(0.0, 24.0, 2881), peaks).max()
    return prof / peak if peak > 0 else prof


def generate(
    params: ContentParams, *, seed: int, gid0: int, n: int
) -> ContentTrace:
    """Generate the difficulty trace of segments ``[gid0, gid0 + n)``.

    Every component is a function of the segment id (drift is simulated
    from absolute day 0, bursts are seeded per absolute day, noise is
    hashed per id), so any two ranges of the same seed agree on the
    segments they share.
    """
    d = len(params.dims)
    t0 = gid0 * params.seg_len
    t = (gid0 + np.arange(n)) * params.seg_len
    hours = (t / 3600.0) % 24.0
    day_idx = np.floor(t / SECONDS_PER_DAY).astype(int)

    prof = diurnal_profile(hours, params.diurnal_peaks)

    # Day-level AR(1) drift, simulated from absolute day 0 so that any
    # window of the same seed sees the same per-day levels.
    last_day = int(day_idx.max())
    rng_drift = np.random.default_rng((seed, 0xD21F7))
    levels = np.empty(last_day + 1)
    stat_sigma = params.drift_sigma / np.sqrt(1.0 - params.drift_rho**2)
    levels[0] = rng_drift.normal(0.0, stat_sigma)
    for i in range(1, last_day + 1):
        levels[i] = params.drift_rho * levels[i - 1] + rng_drift.normal(
            0.0, params.drift_sigma
        )
    drift = levels[day_idx]

    # Bursts: Poisson arrivals seeded *per absolute day*, so any window
    # of the same seed regenerates identical bursts — Spark partitions
    # covering different day ranges must agree with the full trace.
    burst_sig = np.zeros(n)
    t_end = t0 + n * params.seg_len
    # start one day early: a burst seeded on the previous day may spill
    # past midnight into this window
    day_lo = int(np.floor(t0 / SECONDS_PER_DAY)) - 1
    day_hi = int(np.ceil(t_end / SECONDS_PER_DAY + 1e-9))
    for day in range(day_lo, day_hi):
        # +1_000_000 keeps the seed tuple non-negative for day -1
        rng_burst = np.random.default_rng((seed, 0xB0057, day + 1_000_000))
        n_bursts = rng_burst.poisson(params.burst_rate_per_hour * 24.0)
        if not n_bursts:
            continue
        starts = day * SECONDS_PER_DAY + rng_burst.uniform(
            0.0, SECONDS_PER_DAY, n_bursts
        )
        durs = rng_burst.uniform(*params.burst_dur_s, n_bursts)
        mags = rng_burst.uniform(*params.burst_mag, n_bursts)
        lo = np.clip(np.ceil((starts - t0) / params.seg_len), 0, n).astype(int)
        hi = np.clip(
            np.ceil((starts + durs - t0) / params.seg_len), 0, n
        ).astype(int)
        for a, b, m in zip(lo, hi, mags):
            if b > a:
                burst_sig[a:b] += m

    # Per-segment noise from the counter-based hash, smoothed over a
    # 5-segment window that extends past the window edges (the hash is
    # id-based, so the smoothed value is window-invariant too).
    ids_ext = gid0 - 2 + np.arange(n + 4)
    kernel = np.ones(5) / 5.0
    noise = np.column_stack(
        [
            np.convolve(
                params.noise_sigma * hash_normal((seed << 8) | j, ids_ext),
                kernel,
                mode="valid",
            )
            for j in range(d)
        ]
    )

    diff = np.empty((n, d))
    for j in range(d):
        diff[:, j] = (
            params.base[j]
            + params.diurnal_amp[j] * prof
            + params.burst_scale[j] * burst_sig
            + params.drift_scale[j] * drift
            + noise[:, j]
        )
    np.clip(diff, 0.0, 1.0, out=diff)
    return ContentTrace(params=params, gid0=gid0, difficulty=diff)


# MOSEI concurrent-stream model: diurnal range, the 'high' pattern's
# short spikes and the 'long' pattern's sustained peak
STREAMS_BASE_LOW = 6.0
STREAMS_BASE_HIGH = 26.0
SPIKE_HEIGHT = 62.0
SPIKE_MINUTES = 6.0
SPIKES_PER_DAY = 4.0
LONG_PEAK_HOURS = 9.0
LONG_PEAK_HEIGHT = 46.0


def stream_count_trace(
    *,
    seed: int,
    gid0: int,
    n_segments: int,
    seg_len: float,
    spike: str | None = None,
) -> np.ndarray:
    """Number of concurrently incoming streams over segments ``[gid0,
    gid0 + n_segments)`` (MOSEI workloads).

    Mimics the Twitch active-streamer diurnal curve, plus the paper's two
    synthetic spike patterns: ``spike='high'`` adds short peaks of 62
    concurrent streams (hard for cloud bursting: bandwidth-bound) and
    ``spike='long'`` adds one sustained multi-hour peak per two days (hard
    for buffering: the buffer fills early, Section 5.2).
    """
    ids = gid0 + np.arange(n_segments)
    t = ids * seg_len
    t_end = (gid0 + n_segments) * seg_len
    hours = (t / 3600.0) % 24.0
    prof = diurnal_profile(hours, ((20.0, 4.5, 1.0), (14.0, 3.0, 0.55)))
    n_streams = STREAMS_BASE_LOW + (
        STREAMS_BASE_HIGH - STREAMS_BASE_LOW
    ) * prof

    if spike == "high":
        # per-absolute-day seeding so windows of the same seed agree;
        # start one day early (day 0 at the latest): a spike seeded late
        # on the previous day may spill past midnight into this window
        day_lo = max(0, int(t[0] // SECONDS_PER_DAY) - 1)
        day_hi = int(np.ceil(t_end / SECONDS_PER_DAY + 1e-9))
        for day in range(day_lo, day_hi):
            rng = np.random.default_rng((seed, 0x57E0A, day))
            count = rng.poisson(SPIKES_PER_DAY)
            starts = day * SECONDS_PER_DAY + rng.uniform(
                0.0, SECONDS_PER_DAY, count
            )
            for s in starts:
                a = int(max(0, np.ceil((s - t[0]) / seg_len)))
                b = int(
                    min(
                        n_segments,
                        np.ceil((s + SPIKE_MINUTES * 60.0 - t[0]) / seg_len),
                    )
                )
                if b > a:
                    n_streams[a:b] = SPIKE_HEIGHT
    elif spike == "long":
        # One long sustained peak per 2-day period, starting mid-morning.
        for day0 in np.arange(0.0, t_end / SECONDS_PER_DAY, 2.0):
            s = (day0 + 10.0 / 24.0) * SECONDS_PER_DAY
            a = int(max(0, (s - t[0]) // seg_len))
            b = int(
                min(
                    n_segments,
                    (s + LONG_PEAK_HOURS * 3600.0 - t[0]) // seg_len,
                )
            )
            if b > a:
                n_streams[a:b] = np.maximum(
                    n_streams[a:b], LONG_PEAK_HEIGHT
                )
    elif spike is not None:
        raise ValueError(f"unknown spike pattern: {spike!r}")
    n_streams += 0.6 * hash_normal((seed << 8) | 0x5C, ids)
    return np.clip(np.round(n_streams), 1.0, None)
