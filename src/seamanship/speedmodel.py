"""Empirical speed-change behaviour around domain violations.

Mines historical tracks for encounters (close-approach pairs that actually
violate a domain), measures how the violating vessel was changing speed at
that moment, and fits a per-vessel-type kernel density over those rates. The
fitted density weights collision risk over candidate target speed changes.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .geometry import (
    DomainParams,
    VesselTrack,
    VesselType,
    _Frame,
    _cell_samples,
    _equal_time_cells,
    _in_domain,
    domain_axes,
    require_finite,
)
from .ingest import _json_count, _json_number, _json_numbers, _number_pair, _read, json_text
from . import risk
from .risk import DEFAULT_GRID_N, RiskParams, _pair_states, collision_risk_grid, rate_weighted_mean

log = logging.getLogger(__name__)

DEFAULT_DCPA_THRESHOLD = 1852.0
DEFAULT_WINDOW = 60.0
DEFAULT_MIN_SAMPLES = 30
DEFAULT_DEGENERATE_SUPPORT = (-0.05, 0.05)

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SpeedParams:
    """Encounter detection and density-weighted risk settings: the positive
    closest-approach distance (m) that screens track pairs, the positive
    window (s) over which a violator's speed change is measured, the fewest
    samples (at least 1) a vessel type needs for a fitted density, and the
    number of rates (at least 2) the density-weighted collision risk samples."""

    dcpa_threshold: float = DEFAULT_DCPA_THRESHOLD
    window: float = DEFAULT_WINDOW
    min_samples: int = DEFAULT_MIN_SAMPLES
    grid_n: int = DEFAULT_GRID_N

    def __post_init__(self) -> None:
        require_finite(self)
        if self.window <= 0.0:
            raise ValueError(f"window must be positive, got {self.window!r}")
        if self.dcpa_threshold <= 0.0:
            raise ValueError(f"dcpa_threshold must be positive, got {self.dcpa_threshold!r}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be at least 1, got {self.min_samples!r}")
        if self.grid_n < 2:
            raise ValueError(f"grid_n must be at least 2, got {self.grid_n!r}")


@dataclass(frozen=True)
class EncounterEvent:
    """One domain violation: vessel ``target_id`` entered the domain of
    ``own_id`` at time ``tdv``, changing speed at ``speed_change`` m/s^2."""

    own_id: str
    target_id: str
    tdv: float
    speed_change: float
    vessel_type: VesselType


def speed_change_at(track: VesselTrack, t: float, window: float = DEFAULT_WINDOW) -> float | None:
    """Finite-difference speed-change rate over the window ending at t.

    Returns (v(t) - v(t - window)) / window in m/s^2, or None when the
    window straddles the start of the track.
    """
    if window <= 0.0:
        raise ValueError(f"window must be positive, got {window}")
    if t - window < track.t_start or not track.covers(t):
        return None
    v_now = track.state_at(t).speed
    v_then = track.state_at(t - window).speed
    return (v_now - v_then) / window


def _forward_dcpa(d_north, d_east, rv_north, rv_east):
    """Forward-looking closest-approach distance of each displacement and
    relative velocity: both vessels extrapolated at constant velocity, a
    closest approach in the past counting as the current distance."""
    rv2 = rv_north * rv_north + rv_east * rv_east
    with np.errstate(divide="ignore", invalid="ignore"):
        tcpa = -(d_north * rv_north + d_east * rv_east) / np.where(rv2 > 0.0, rv2, 1.0)
    tcpa = np.maximum(np.where(rv2 > 0.0, tcpa, 0.0), 0.0)
    return np.hypot(d_north + rv_north * tcpa, d_east + rv_east * tcpa)


def _violations(ordered: Sequence[VesselTrack], dcpa_threshold: float, dp: DomainParams):
    """The first violation of each ordered pair of ``ordered`` that passes
    the DCPA screen, as (own index, target index, TDV), and how many ordered
    pairs overlap in time and pass the screen.

    One sweep in time order pairs the samples of tracks j < k at equal times
    (:func:`~seamanship.geometry._equal_time_cells`), in blocks of
    ``risk.KERNEL_CHUNK_ELEMS // 2`` cells read at call time. Forward DCPA is
    the same from either side, so one screen serves both orders; a pair
    passes when any of its cells does. A cell is tested against each domain
    only where the other vessel lies within its reach, a quarter block of
    tests at a time. Each ordered pair keeps its first hit in time.
    """
    n = len(ordered)
    if n < 2:
        return [], 0, 0
    # an unordered pair is disjoint when one track starts after the other ends
    starts = np.sort([tr.t_start for tr in ordered])
    apart = n - np.searchsorted(starts, [tr.t_end for tr in ordered], side="right")
    buffer = np.concatenate([tr.times for tr in ordered])
    order, first = _equal_time_cells(buffer)
    # every sample in time order: its time, track, position, speed, and the
    # cosine and sine of its heading; each field is laid end to end in one
    # reused buffer and gathered from it
    times = buffer[order]
    track = np.repeat(np.arange(n, dtype=np.int32), [tr.times.size for tr in ordered])[order]
    north, east, speed, cos = (np.empty(times.size) for _ in range(4))
    for column, name in zip((north, east, speed, cos), ("north", "east", "speed", "heading")):
        np.concatenate([getattr(tr, name) for tr in ordered], out=buffer)
        np.take(buffer, order, out=column, mode="clip")  # "raise" would buffer the output
    del order, buffer
    sin = np.sin(cos)
    np.cos(cos, out=cos)
    length = np.array([tr.length for tr in ordered])
    # no point of a track's domain lies further from the vessel than
    # |offset_fraction| a + max(a, b) at its top speed; 1e-6 more is far
    # above the rounding of a distance or a scale factor
    a, b = domain_axes(np.array([tr.speed.max() for tr in ordered]), length, dp)
    reach = (abs(dp.offset_fraction) * a + np.maximum(a, b)) * (1.0 + 1e-6)
    n_cells, block = int(first[-1]), max(1, risk.KERNEL_CHUNK_ELEMS // 2)
    passed, first_hit, near = set(), {}, []
    for start in range(0, n_cells, block):
        p, q = _cell_samples(first, start, min(start + block, n_cells))
        j, k = track[p], track[q]
        d_north, d_east = north[q] - north[p], east[q] - east[p]
        dcpa = _forward_dcpa(d_north, d_east, speed[q] * cos[q] - speed[p] * cos[p],
                             speed[q] * sin[q] - speed[p] * sin[p])
        # a pair passes unless every one of its cells reaches the threshold: NaN passes
        close = ~(dcpa >= dcpa_threshold)
        keys = np.sort(j[close] * np.int64(n) + k[close])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        passed.update(keys.tolist(), (keys % n * n + keys // n).tolist())
        # k in j's domain, cell by cell in time order, then j in k's
        distance = np.hypot(d_north, d_east)
        for within, own, target in ((distance < reach[j], p, q), (distance < reach[k], q, p)):
            near.append((own[within], target[within]))
        # one block's cells alive at a time
        del p, q, j, k, d_north, d_east, dcpa, close, distance, within
        if sum(own.size for own, _ in near) < block // 4 and start + block < n_cells:
            continue
        own, target = (np.concatenate(side) for side in zip(*near))
        near = []
        # the frame _Frame.of(heading) builds, from the stored cosines and sines
        hits = np.flatnonzero(_in_domain(
            speed[own], length[track[own]], _Frame(cos[own], sin[own], -sin[own], cos[own]),
            north[target] - north[own], east[target] - east[own], dp,
        ))
        # the two orders' pairs differ, and each pair's cells come in time order
        keys = track[own[hits]] * np.int64(n) + track[target[hits]]
        pairs, at = np.unique(keys, return_index=True)
        for pair, cell in zip(pairs.tolist(), own[hits[at]].tolist()):
            first_hit.setdefault(pair, float(times[cell]))
    found = [(*divmod(pair, n), tdv) for pair, tdv in first_hit.items() if pair in passed]
    return found, n * (n - 1) - 2 * int(apart.sum()), len(passed)


def detect_encounters(
    tracks: Mapping[str, VesselTrack],
    dcpa_threshold: float = DEFAULT_DCPA_THRESHOLD,
    domain_params: DomainParams | None = None,
    window: float = DEFAULT_WINDOW,
) -> list[EncounterEvent]:
    """Find domain violations among all ordered track pairs.

    A pair (j, k) yields one event when their minimum forward DCPA over the
    grid times they share falls below ``dcpa_threshold`` and k actually
    violates j's domain at one of those times (the TDV, see
    :func:`~seamanship.geometry.find_tdv`). The event records the violating
    vessel's speed-change rate at TDV and its type; pairs whose rate window
    sticks out of the track are dropped. Events come in order of own id,
    then target id.

    One sweep over every sample in time order finds all pairs, a fixed
    number of sample pairs at a time (see :func:`_violations`).
    """
    ids = sorted(tracks)
    ordered = [tracks[i] for i in ids]
    found, overlapping, screened = _violations(
        ordered, dcpa_threshold, domain_params or DomainParams()
    )
    events: list[EncounterEvent] = []
    dropped = 0
    for own_index, target_index, tdv in sorted(found):
        target = ordered[target_index]
        rate = speed_change_at(target, tdv, window)
        if rate is None:
            dropped += 1
            continue
        events.append(EncounterEvent(ids[own_index], ids[target_index], tdv, rate,
                                     target.vessel_type))
    log.info(
        "encounters: %d ordered pairs overlap in time, %d pass the DCPA screen, "
        "%d events, %d dropped for a rate window outside the track",
        overlapping,
        screened,
        len(events),
        dropped,
    )
    return events


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Silverman's rule of thumb: 0.9 min(std, IQR/1.34) n^(-1/5)."""
    n = samples.size
    if n < 2:
        return 0.0
    std = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0.0 else std
    return 0.9 * spread * n ** (-0.2)


@dataclass
class SpeedChangeModel:
    """Gaussian KDE over observed speed-change rates for one vessel type.

    The density is truncated to ``support`` (sample range padded by three
    bandwidths) and is zero outside it. A model built from too few samples
    is ``degenerate``: uniform over a configured default support.
    """

    vessel_type: VesselType
    samples: np.ndarray
    bandwidth: float
    support: tuple[float, float]
    degenerate: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        lo, hi = self.support
        if not np.isfinite(self.samples).all():
            raise ValueError("samples must be finite")
        if not (math.isfinite(self.bandwidth) and math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(
                f"bandwidth and support must be finite, got {self.bandwidth} and {self.support}"
            )
        if hi < lo:
            raise ValueError(f"support upside down: {self.support}")
        if not self.degenerate and self.bandwidth <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")

    def density(self, rate):
        """Probability density at the given rate(s); zero outside support."""
        x = np.asarray(rate, dtype=float)
        lo, hi = self.support
        inside = (x >= lo) & (x <= hi)
        if self.degenerate:
            width = hi - lo
            val = np.where(inside, 1.0 / width if width > 0.0 else np.inf, 0.0)
        else:
            z = (x[..., None] - self.samples) / self.bandwidth
            kernels = np.exp(-0.5 * z * z) / (self.bandwidth * math.sqrt(2.0 * math.pi))
            val = np.where(inside, kernels.mean(axis=-1), 0.0)
        return float(val) if val.ndim == 0 else val

    def to_dict(self) -> dict:
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "vessel_type": self.vessel_type.value,
            "samples": self.samples.tolist(),
            "bandwidth": self.bandwidth,
            "support": list(self.support),
            "degenerate": self.degenerate,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SpeedChangeModel":
        """The model of a :meth:`to_dict` document, read as an archive header is."""
        if _read(doc, "schema_version", _json_count) != MODEL_SCHEMA_VERSION:
            raise ValueError(f"unsupported model schema {doc['schema_version']}")
        degenerate = doc.get("degenerate", False)
        if not isinstance(degenerate, bool):
            raise ValueError(f"degenerate must be true or false, got {degenerate!r}")
        return cls(
            vessel_type=_read(doc, "vessel_type", VesselType),
            samples=_read(doc, "samples", _json_numbers),
            bandwidth=_read(doc, "bandwidth", _json_number),
            support=_read(doc, "support", _number_pair("lo, hi")),
            degenerate=degenerate,
            metadata=dict(doc.get("metadata", {})),
        )

    def save(self, path) -> None:
        Path(path).write_text(json_text(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, source, data: bytes | None = None) -> "SpeedChangeModel":
        """The model in the file at path ``source``; ``data`` is the file's
        bytes when they are already read."""
        data = Path(source).read_bytes() if data is None else data
        return cls.from_dict(json.loads(data.decode("utf-8")))


def fit_model(
    events: Sequence[EncounterEvent],
    vessel_type: VesselType,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    degenerate_support: tuple[float, float] = DEFAULT_DEGENERATE_SUPPORT,
) -> SpeedChangeModel:
    """Fit the speed-change density for one vessel type.

    Uses Silverman's bandwidth and pads the support by three bandwidths on
    each side. Below ``min_samples`` events the model degrades to a uniform
    density over ``degenerate_support`` and is flagged as such.
    """
    if min_samples < 1:
        raise ValueError(f"min_samples must be at least 1, got {min_samples!r}")
    rates = np.array(
        [e.speed_change for e in events if e.vessel_type is vessel_type], dtype=float
    )
    meta = {"sample_count": int(rates.size), "min_samples": int(min_samples)}
    if rates.size < min_samples:
        lo, hi = degenerate_support
        if hi <= lo:
            raise ValueError(f"degenerate support upside down: {degenerate_support}")
        log.info(
            "speed model for %s degenerate: %d of %d required samples",
            vessel_type.value,
            rates.size,
            min_samples,
        )
        return SpeedChangeModel(
            vessel_type=vessel_type,
            samples=rates,
            bandwidth=(hi - lo) / 2.0,
            support=(lo, hi),
            degenerate=True,
            metadata=meta,
        )
    h = silverman_bandwidth(rates)
    if h <= 0.0:
        # all samples identical; keep a sliver of bandwidth so the density
        # stays finite and peaks at the repeated value
        h = max(1e-6, 1e-3 * (1.0 + abs(float(rates[0]))))
    lo = float(rates.min()) - 3.0 * h
    hi = float(rates.max()) + 3.0 * h
    return SpeedChangeModel(
        vessel_type=vessel_type,
        samples=rates,
        bandwidth=h,
        support=(lo, hi),
        degenerate=False,
        metadata=meta,
    )


def probabilistic_cr(
    track_j: VesselTrack,
    track_k: VesselTrack,
    t: float,
    model: SpeedChangeModel,
    grid_n: int = DEFAULT_GRID_N,
    params: RiskParams | None = None,
    domain_params: DomainParams | None = None,
) -> float:
    """Collision risk averaged over target speed-change rates.

    Slices the overall collision risk at ``grid_n`` rates spanning the
    model support and weights each slice by the model density (trapezoid
    rule, see :func:`~seamanship.risk.rate_weighted_mean`); the rate
    applies to the target only. A zero-mass density falls back to the
    deterministic risk at rate 0; a single-point support collapses to the
    risk at that rate.
    """
    own, tgt, rp, dp = _pair_states(track_j, track_k, t, params, domain_params)
    return rate_weighted_mean(
        lambda rates: collision_risk_grid(own, tgt, rates, rp, dp)[0, 0], model, grid_n
    )
