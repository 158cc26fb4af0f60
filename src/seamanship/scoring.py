"""Scoring a vessel's passage from its scenario-risk history.

Raw risk is first normalized against the best-achievable risk at each
instant: sailing at the least risk any available maneuver could have
attained maps to the domain-boundary level (0.5), and anything above that
is penalized steeply. The final grade combines the worst normalized risk
(peak term) with its time integral (cumulative term).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import require_finite
from .risk import risk_index, RiskParams

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScoreParams:
    """Knobs of the normalization and grading steps.

    The logistic (``kappa``, ``f50``) is not set here: normalization reads
    it from the :class:`RiskParams` that produced the series being scored.
    ``beta`` weighs the cumulative term against the peak term.
    ``sr_star_eps`` is the level below which the best-achievable risk
    counts as zero (no normalization); ``sr_max_eps`` is the peak level
    below which the whole passage counts as risk-free. Risks are clamped to
    [eps, 1 - eps] before logistic inversion.
    """

    beta: float = 0.5
    sr_star_eps: float = 1e-3
    risk_clamp_eps: float = 1e-6
    sr_max_eps: float = 1e-9
    consistency_tol: float = 1e-9

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 < self.sr_star_eps < 0.5:
            raise ValueError("sr_star_eps must lie in (0, 0.5)")
        if not 0.0 < self.risk_clamp_eps < 0.5:
            raise ValueError("risk_clamp_eps must lie in (0, 0.5)")
        for name in ("sr_max_eps", "consistency_tol"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")

    def clamp(self, r: float) -> float:
        return min(max(r, self.risk_clamp_eps), 1.0 - self.risk_clamp_eps)


def invert_risk(r: float, kappa: float = RiskParams.kappa, f50: float = RiskParams.f50) -> float:
    """Scale factor whose risk index equals ``r``: the logistic inverse
    (1/kappa) ln(1/r - 1) + f50. Rejects r outside the open interval (0, 1)."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"risk {r} not invertible; clamp into (0, 1) first")
    return (1.0 / kappa) * math.log(1.0 / r - 1.0) + f50


def normalize_risk(
    sr: float,
    sr_star: float,
    params: ScoreParams | None = None,
    risk_params: RiskParams | None = None,
) -> float:
    """Express a risk relative to the best achievable at the same instant.

    With ``sr_star`` effectively zero the raw risk passes through. Otherwise
    both risks are mapped to scale-factor space and the taken risk is
    re-anchored so sr == sr_star lands on the boundary level 0.5:

        f_norm = 1 + (f(sr) - f(sr_star)) / (1 - f(sr_star))

    The mapping is only order-preserving while f(sr_star) < 1, i.e. while
    the best-achievable risk is at least the boundary level; below that the
    denominator flips sign, so the raw risk is returned unchanged (logged).
    A taken risk below the best achievable beyond ``consistency_tol`` is a
    data inconsistency and is rejected. The logistic and its inverse use
    the ``kappa`` and ``f50`` of ``risk_params``.
    """
    return _normalize(sr, sr_star, params or ScoreParams(), risk_params or RiskParams())[0]


def _normalize(sr: float, sr_star: float, p: ScoreParams, rp: RiskParams) -> tuple[float, str]:
    """:func:`normalize_risk`'s value and the branch that gave it:
    "passthrough", "no_headroom" or "normalized"."""
    if not 0.0 <= sr <= 1.0 or not 0.0 <= sr_star <= 1.0:
        raise ValueError(f"risks must lie in [0, 1], got sr={sr} sr_star={sr_star}")
    if sr < sr_star - p.consistency_tol:
        raise ValueError(
            f"best-achievable risk {sr_star} exceeds taken risk {sr}: "
            "inconsistent input series"
        )
    sr = max(sr, sr_star)
    if sr_star <= p.sr_star_eps:
        return sr, "passthrough"
    f_star = invert_risk(p.clamp(sr_star), rp.kappa, rp.f50)
    denom = 1.0 - f_star
    if denom < 1e-9:
        # best-achievable risk below the boundary level: re-anchoring would
        # invert the ordering, so leave the raw risk alone
        log.debug(
            "normalization skipped: f(sr_star)=%.6f leaves no headroom", f_star
        )
        return sr, "no_headroom"
    f_sr = invert_risk(p.clamp(sr), rp.kappa, rp.f50)
    f_norm = 1.0 + (f_sr - f_star) / denom
    return p.clamp(risk_index(f_norm, rp)), "normalized"


def normalize_series(
    sr: np.ndarray,
    sr_star: np.ndarray,
    params: ScoreParams | None = None,
    risk_params: RiskParams | None = None,
) -> tuple[np.ndarray, dict]:
    """Normalize an aligned pair of risk series.

    Returns the normalized series and counters describing how often each
    code path engaged (pass-through, re-anchored, no-headroom fallback).
    """
    p = params or ScoreParams()
    rp = risk_params or RiskParams()
    sr = np.asarray(sr, dtype=float)
    sr_star = np.asarray(sr_star, dtype=float)
    if sr.shape != sr_star.shape:
        raise ValueError("series must align")
    out = np.empty_like(sr)
    flags = {"passthrough": 0, "normalized": 0, "no_headroom": 0, "clamped_star": 0}
    for i in range(sr.size):
        star = float(sr_star[i])
        raw = float(sr[i])
        if star > raw + p.consistency_tol:
            # planner bound can sit above the recorded risk when the
            # recorded action lies off the search grid; scoring trusts the
            # recorded series
            star = raw
            flags["clamped_star"] += 1
        out[i], branch = _normalize(raw, star, p, rp)
        flags[branch] += 1
    return out, flags


def gss(
    sr_norm: np.ndarray,
    times: np.ndarray,
    params: ScoreParams | None = None,
) -> tuple[float, float, float]:
    """Grade a normalized risk series; returns (j_m, j_c, gss).

    j_m = 1 - max(series). j_c discounts the trapezoid time integral of the
    series by the peak and the window duration. The final score is
    j_m * (1 + beta (2 j_c - 1)(1 - j_m)), which stays in [0, 1]. A peak
    below ``sr_max_eps`` short-circuits to a perfect score.
    """
    p = params or ScoreParams()
    sr_norm = np.asarray(sr_norm, dtype=float)
    times = np.asarray(times, dtype=float)
    if sr_norm.shape != times.shape or sr_norm.size == 0:
        raise ValueError("need one risk value per time stamp")
    if np.any((sr_norm < 0.0) | (sr_norm > 1.0)):
        raise ValueError("normalized risks must lie in [0, 1]")
    if times.size > 1 and np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    sr_max = float(np.max(sr_norm))
    if sr_max <= p.sr_max_eps:
        return 1.0, 1.0, 1.0
    j_m = 1.0 - sr_max
    duration = float(times[-1] - times[0])
    if duration <= 0.0:
        # single-sample window: cumulative term carries no information
        j_c = 1.0 - float(sr_norm[0]) / sr_max
    else:
        integral = float(np.trapezoid(sr_norm, times))
        j_c = 1.0 - integral / (sr_max * duration)
    j_c = min(max(j_c, 0.0), 1.0)
    score = j_m * (1.0 + p.beta * (2.0 * j_c - 1.0) * (1.0 - j_m))
    score = min(max(score, 0.0), 1.0)
    return j_m, j_c, score


@dataclass
class GssReport:
    """Scores and series for one vessel over one window."""

    vessel_id: str
    t_start: float
    t_end: float
    times: np.ndarray
    sr_series: np.ndarray
    sr_star_series: np.ndarray
    sr_norm_series: np.ndarray
    sr_max: float
    j_m: float
    j_c: float
    gss: float
    risk_integral: float = 0.0
    parameters: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "vessel_id": self.vessel_id,
            "window": [self.t_start, self.t_end],
            "times": self.times.tolist(),
            "sr_series": self.sr_series.tolist(),
            "sr_star_series": self.sr_star_series.tolist(),
            "sr_norm_series": self.sr_norm_series.tolist(),
            "sr_max": self.sr_max,
            "j_m": self.j_m,
            "j_c": self.j_c,
            "gss": self.gss,
            "risk_integral": self.risk_integral,
            "parameters": self.parameters,
            "flags": self.flags,
        }


def score_series(
    vessel_id: str,
    times: np.ndarray,
    sr_series: np.ndarray,
    sr_star: np.ndarray | None = None,
    params: ScoreParams | None = None,
    risk_params: RiskParams | None = None,
) -> GssReport:
    """Normalize a risk series against its best-achievable series and grade it.

    With ``sr_star`` omitted (or all zero) the raw series is graded as-is,
    which serves as the un-normalized baseline. ``risk_params`` must be the
    parameters that produced the series; its logistic drives normalization.
    """
    p = params or ScoreParams()
    rp = risk_params or RiskParams()
    times = np.asarray(times, dtype=float)
    sr_series = np.asarray(sr_series, dtype=float)
    if sr_star is None:
        sr_star = np.zeros_like(sr_series)
    sr_star = np.asarray(sr_star, dtype=float)
    sr_norm, flags = normalize_series(sr_series, sr_star, p, rp)
    j_m, j_c, score = gss(sr_norm, times, p)
    integral = float(np.trapezoid(sr_norm, times)) if times.size > 1 else float(sr_norm[0])
    return GssReport(
        vessel_id=vessel_id,
        t_start=float(times[0]),
        t_end=float(times[-1]),
        times=times,
        sr_series=sr_series,
        sr_star_series=sr_star,
        sr_norm_series=sr_norm,
        sr_max=float(np.max(sr_norm)),
        j_m=j_m,
        j_c=j_c,
        gss=score,
        risk_integral=integral,
        parameters={
            "beta": p.beta,
            "kappa": rp.kappa,
            "f50": rp.f50,
            "sr_star_eps": p.sr_star_eps,
            "risk_clamp_eps": p.risk_clamp_eps,
            "sr_max_eps": p.sr_max_eps,
        },
        flags=flags,
    )
