"""Collision and grounding risk indices and their composition into a single
scenario risk per vessel and time step.

The building block is a logistic index of the domain scale factor: risk 0.5
at boundary contact, saturating toward 1 deep inside the domain and toward 0
far outside. Collision risk couples a horizon-max mutual domain index with an
instantaneous arena proximity index; grounding risk does the same against
points sampled on shallow-water polygon boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.special import expit

from .geometry import (
    ArenaSpec,
    DomainParams,
    DomainSpec,
    LocalPoint,
    VesselState,
    VesselTrack,
    _domain_frame,
    _scale_factor_xy,
    domain_axes,
    make_domain,
    predict_positions,
)

MUTUAL_MODES = ("max", "prob_or")
# rates sampled by the density-weighted collision risk
DEFAULT_GRID_N = 64


@dataclass(frozen=True)
class RiskParams:
    """Shared knobs for all risk computations.

    Attributes:
        kappa: logistic steepness of the risk index.
        f50: scale factor at which the risk index reads 0.5.
        horizon_T: look-ahead horizon for the mutual index, seconds.
        horizon_step: sampling step inside the horizon, seconds.
        arena_radius: radius of the circular watch region, meters
            (default half a nautical mile, i.e. a 1 NM diameter).
        mutual_mode: "max" combines the two directed domain indices by
            maximum; "prob_or" uses a + b - a*b.
        grounding_horizon_max: apply the horizon-max to the grounding
            domain index instead of evaluating it instantaneously.
        channel_adjust: shrink the domain beam inside narrow channels.
        channel_gamma: fraction of the measured channel width the adjusted
            domain beam may occupy.
        channel_corridor: forward corridor length used to measure channel
            width; None means the domain semi-major axis.
    """

    kappa: float = 10.0
    f50: float = 1.0
    horizon_T: float = 600.0
    horizon_step: float = 30.0
    arena_radius: float = 926.0
    mutual_mode: str = "max"
    grounding_horizon_max: bool = False
    channel_adjust: bool = True
    channel_gamma: float = 0.8
    channel_corridor: float | None = None

    def __post_init__(self) -> None:
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.horizon_T < 0.0 or self.horizon_step <= 0.0:
            raise ValueError("horizon_T must be >= 0 and horizon_step > 0")
        if self.arena_radius <= 0.0:
            raise ValueError("arena_radius must be positive")
        if self.mutual_mode not in MUTUAL_MODES:
            raise ValueError(f"mutual_mode must be one of {MUTUAL_MODES}")
        if not 0.0 < self.channel_gamma <= 1.0:
            raise ValueError("channel_gamma must lie in (0, 1]")

    def horizon_offsets(self) -> np.ndarray:
        """Offsets {0, step, ..., T} sampled inside the look-ahead horizon."""
        n = int(math.floor(self.horizon_T / self.horizon_step + 1e-9))
        offsets = self.horizon_step * np.arange(n + 1)
        if offsets[-1] < self.horizon_T - 1e-9:
            offsets = np.append(offsets, self.horizon_T)
        return offsets


def risk_index(f, params: RiskParams | None = None):
    """Logistic risk index of a scale factor: 1 / (1 + exp(kappa (f - f50))).

    Strictly decreasing in f, 0.5 at f = f50, overflow-safe for extreme
    arguments. Accepts scalars or arrays.
    """
    params = params or RiskParams()
    f = np.asarray(f, dtype=float)
    out = expit(params.kappa * (params.f50 - f))
    return float(out) if out.ndim == 0 else out


def _directed_index_max(
    own: VesselState,
    tgt: VesselState,
    offsets: np.ndarray,
    own_rate: float,
    tgt_rate: float,
    rp: RiskParams,
    dp: DomainParams,
) -> np.ndarray:
    """Domain index of the target inside the owner's predicted domain at
    each horizon offset. Returns the per-offset index array."""
    on, oe, ov = predict_positions(own, offsets, own_rate)
    tn, te, _ = predict_positions(tgt, offsets, tgt_rate)
    semi_major, semi_minor = domain_axes(ov, own.length, dp)
    x, y = _domain_frame(own.heading, tn - on, te - oe)
    f = _scale_factor_xy(
        semi_major, semi_minor, dp.offset_fraction * semi_major, 0.0, x, y
    )
    return risk_index(f, rp)


def mutual_collision_risk(
    track_j: VesselTrack,
    track_k: VesselTrack,
    t: float,
    rate: float = 0.0,
    params: RiskParams | None = None,
    domain_params: DomainParams | None = None,
) -> float:
    """Horizon-max mutual domain index between two vessels at time t.

    Both vessels are advanced on constant course from their states at t;
    vessel j holds speed while vessel k applies ``rate`` (m/s^2). At each
    horizon offset the two directed domain indices (k in j's domain, j in
    k's domain) are combined per ``params.mutual_mode``, and the maximum
    over the horizon is returned.
    """
    rp = params or RiskParams()
    dp = domain_params or DomainParams()
    sj = track_j.state_at(t)
    sk = track_k.state_at(t)
    return _mutual_from_states(sj, sk, rate, rp, dp)


def _mutual_from_states(
    sj: VesselState, sk: VesselState, rate: float, rp: RiskParams, dp: DomainParams
) -> float:
    offsets = rp.horizon_offsets()
    r_jk = _directed_index_max(sj, sk, offsets, 0.0, rate, rp, dp)
    r_kj = _directed_index_max(sk, sj, offsets, rate, 0.0, rp, dp)
    if rp.mutual_mode == "prob_or":
        combined = r_jk + r_kj - r_jk * r_kj
    else:
        combined = np.maximum(r_jk, r_kj)
    return float(np.max(combined))


def arena_index(own: VesselState, target_position: LocalPoint, params: RiskParams) -> float:
    """Instantaneous arena proximity index: distance over arena radius fed
    through the logistic."""
    dist = math.hypot(own.north - target_position.north, own.east - target_position.east)
    return risk_index(dist / params.arena_radius, params)


def overall_collision_risk(
    track_j: VesselTrack,
    track_k: VesselTrack,
    t: float,
    rate: float = 0.0,
    params: RiskParams | None = None,
    domain_params: DomainParams | None = None,
) -> float:
    """Collision risk at time t: horizon-max mutual index weighted by the
    instantaneous arena index at t."""
    rp = params or RiskParams()
    dp = domain_params or DomainParams()
    sj = track_j.state_at(t)
    sk = track_k.state_at(t)
    return _overall_from_states(sj, sk, rate, rp, dp)


def _overall_from_states(
    sj: VesselState, sk: VesselState, rate: float, rp: RiskParams, dp: DomainParams
) -> float:
    mutual = _mutual_from_states(sj, sk, rate, rp, dp)
    return mutual * arena_index(sj, sk.position, rp)


@dataclass
class ObstacleSet:
    """Shallow-water obstacle polygons with pre-densified boundary points.

    ``polygons`` holds closed rings as (N, 2) north/east arrays (first
    vertex repeated last). ``boundary_points`` is the concatenation of all
    ring boundaries discretized at ``spacing`` meters;
    ``point_polygon_index`` maps each point back to its ring.
    """

    polygons: list[np.ndarray] = field(default_factory=list)
    spacing: float = 50.0
    boundary_points: np.ndarray = field(init=False)
    point_polygon_index: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.polygons = [np.asarray(p, dtype=float) for p in self.polygons]
        for i, poly in enumerate(self.polygons):
            if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 4:
                raise ValueError(f"polygon {i} is not a closed ring of 2d points")
            if not np.allclose(poly[0], poly[-1]):
                raise ValueError(f"polygon {i} is not closed")
        pts, idx = densify_boundaries(self.polygons, self.spacing)
        self.boundary_points = pts
        self.point_polygon_index = idx

    @property
    def is_empty(self) -> bool:
        return len(self.polygons) == 0

    def points_in_arena(self, arena: ArenaSpec) -> np.ndarray:
        """Boundary points strictly inside the arena circle, (M, 2)."""
        if self.boundary_points.size == 0:
            return np.empty((0, 2))
        d = self.boundary_points - np.array([arena.center.north, arena.center.east])
        inside = np.hypot(d[:, 0], d[:, 1]) < arena.radius
        return self.boundary_points[inside]


def densify_boundaries(
    polygons: Sequence[np.ndarray], spacing: float
) -> tuple[np.ndarray, np.ndarray]:
    """Discretize closed rings at intervals no longer than ``spacing``.

    Each edge of length L contributes ceil(L / spacing) points starting at
    the edge's first vertex; the shared end vertex belongs to the next
    edge, so rings produce no duplicates. Returns (points, ring_index).
    """
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    points: list[np.ndarray] = []
    index: list[int] = []
    for ring_no, ring in enumerate(polygons):
        for a, b in zip(ring[:-1], ring[1:]):
            edge = b - a
            edge_len = float(np.hypot(edge[0], edge[1]))
            if edge_len == 0.0:
                continue
            n = max(1, int(math.ceil(edge_len / spacing - 1e-12)))
            fracs = np.arange(n) / n
            points.append(a + fracs[:, None] * edge)
            index.extend([ring_no] * n)
    if not points:
        return np.empty((0, 2)), np.empty(0, dtype=int)
    return np.vstack(points), np.asarray(index, dtype=int)


def adjust_domain_for_channel(
    domain: DomainSpec,
    state: VesselState,
    obstacle_points: np.ndarray,
    params: RiskParams | None = None,
) -> DomainSpec:
    """Shrink the domain beam when a channel is too narrow for it.

    Channel width is the nearest perpendicular obstacle distance to port
    plus the nearest to starboard, measured over points inside a forward
    corridor of length ``channel_corridor`` (default: the domain
    semi-major axis). Sides without obstacles are capped at the arena
    radius, so open water never triggers an adjustment. When twice the
    semi-minor axis exceeds the width W, the beam is reduced to
    ``channel_gamma * W / 2`` and the lateral center offset is scaled by
    the same ratio.
    """
    rp = params or RiskParams()
    pts = np.asarray(obstacle_points, dtype=float)
    corridor = rp.channel_corridor if rp.channel_corridor is not None else domain.semi_major
    port = starboard = rp.arena_radius
    if pts.size:
        x, y = _domain_frame(
            state.heading, pts[:, 0] - state.north, pts[:, 1] - state.east
        )
        ahead = (x >= 0.0) & (x <= corridor)
        stb_side = ahead & (y > 0.0)
        port_side = ahead & (y < 0.0)
        if np.any(stb_side):
            starboard = min(starboard, float(np.min(y[stb_side])))
        if np.any(port_side):
            port = min(port, float(np.min(-y[port_side])))
    width = port + starboard
    if 2.0 * domain.semi_minor <= width:
        return domain
    new_minor = max(rp.channel_gamma * width / 2.0, 1e-3)
    if new_minor >= domain.semi_minor:
        return domain
    shrink = new_minor / domain.semi_minor
    return replace(
        domain,
        semi_minor=new_minor,
        center_offset_stb=domain.center_offset_stb * shrink,
    )


def grounding_risk(
    state: VesselState,
    obstacle_points: np.ndarray,
    params: RiskParams | None = None,
    domain_params: DomainParams | None = None,
) -> tuple[np.ndarray, float]:
    """Grounding risk against sampled obstacle points near one vessel.

    Each point acts as a zero-speed virtual vessel: its risk is the domain
    index times the instantaneous arena index. Points are expected to be
    pre-filtered to the vessel's arena. Returns (per-point risks, max).

    With ``params.grounding_horizon_max`` the domain index takes the
    maximum over the prediction horizon (vessel moves, points stand still)
    instead of the instantaneous value.
    """
    rp = params or RiskParams()
    dp = domain_params or DomainParams()
    pts = np.asarray(obstacle_points, dtype=float)
    if pts.size == 0:
        return np.empty(0), 0.0
    domain = make_domain(state, dp)
    if rp.channel_adjust:
        domain = adjust_domain_for_channel(domain, state, pts, rp)
    if rp.grounding_horizon_max:
        offsets = rp.horizon_offsets()
        on, oe, ov = predict_positions(state, offsets, 0.0)
        semi_major = domain_axes(ov, state.length, dp)[0][:, None]
        x, y = _domain_frame(
            state.heading,
            pts[None, :, 0] - on[:, None],
            pts[None, :, 1] - oe[:, None],
        )
        # semi-minor is speed-independent, so the channel-adjusted value holds
        # across the whole horizon
        f = _scale_factor_xy(
            semi_major, domain.semi_minor, dp.offset_fraction * semi_major, 0.0, x, y
        )
        r_d = np.max(risk_index(f, rp), axis=0)
    else:
        x, y = _domain_frame(
            state.heading, pts[:, 0] - state.north, pts[:, 1] - state.east
        )
        f = _scale_factor_xy(
            domain.semi_major,
            domain.semi_minor,
            domain.center_offset_fwd,
            domain.center_offset_stb,
            x,
            y,
        )
        r_d = risk_index(f, rp)
    dist = np.hypot(pts[:, 0] - state.north, pts[:, 1] - state.east)
    r_a = risk_index(dist / rp.arena_radius, rp)
    per_point = r_d * r_a
    return per_point, float(np.max(per_point))


def compose_scenario_risk(collision_risks: Iterable[float], grounding_max: float) -> float:
    """Union of independent per-hazard risks.

    Folds collision risks and the grounding maximum with
    sr <- r + sr * (1 - r), which equals one minus the product of the
    complements. Inputs outside [0, 1] are rejected.
    """
    sr = 0.0
    for i, cr in enumerate(collision_risks):
        if not 0.0 <= cr <= 1.0:
            raise ValueError(f"collision risk #{i} = {cr} outside [0, 1]")
        sr = cr + sr * (1.0 - cr)
    if not 0.0 <= grounding_max <= 1.0:
        raise ValueError(f"grounding risk {grounding_max} outside [0, 1]")
    return grounding_max + sr * (1.0 - grounding_max)


@dataclass
class StepRisk:
    """Risk breakdown for one vessel at one time step."""

    time: float
    collision: dict[str, float]
    collision_wavg: dict[str, float]
    grounding_max: float
    scenario: float
    targets_held: bool = False


def scenario_risk_for_state(
    own_state: VesselState,
    t: float,
    target_tracks: Sequence[VesselTrack],
    obstacles: ObstacleSet | None,
    params: RiskParams | None = None,
    domain_params: DomainParams | None = None,
    hold_targets: bool = False,
    models: Mapping | None = None,
    wavg_grid_n: int = DEFAULT_GRID_N,
) -> StepRisk:
    """Scenario risk of a (possibly hypothetical) ownship state at time t.

    Targets contribute deterministic collision risk from their recorded
    states at t; with ``hold_targets`` a target whose track has ended is
    held at its last state instead of being skipped. When ``models`` maps a
    VesselType to a speed-change model, a probabilistic risk is computed per
    target and used in the composition instead of the deterministic one.
    """
    rp = params or RiskParams()
    dp = domain_params or DomainParams()
    collision: dict[str, float] = {}
    collision_wavg: dict[str, float] = {}
    held_any = False
    for track in target_tracks:
        if hold_targets:
            tgt_state, held = track.state_at_clamped(t)
            held_any = held_any or held
        else:
            if not track.covers(t):
                continue
            tgt_state = track.state_at(t)
        cr = _overall_from_states(own_state, tgt_state, 0.0, rp, dp)
        collision[track.track_id] = cr
        model = models.get(track.vessel_type) if models else None
        if model is not None:
            collision_wavg[track.track_id] = rate_weighted_mean(
                lambda rate: _overall_from_states(own_state, tgt_state, rate, rp, dp),
                model,
                wavg_grid_n,
            )
    gr_max = 0.0
    if obstacles is not None and not obstacles.is_empty:
        arena = ArenaSpec(rp.arena_radius, own_state.position)
        pts = obstacles.points_in_arena(arena)
        if pts.size:
            _, gr_max = grounding_risk(own_state, pts, rp, dp)
    effective = [
        collision_wavg.get(tid, collision[tid]) for tid in sorted(collision)
    ]
    sr = compose_scenario_risk(effective, gr_max)
    return StepRisk(
        time=t,
        collision=collision,
        collision_wavg=collision_wavg,
        grounding_max=gr_max,
        scenario=sr,
        targets_held=held_any,
    )


def rate_weighted_mean(value_at: Callable[[float], float], model, grid_n: int) -> float:
    """Density-weighted mean of ``value_at(rate)`` over speed-change rates.

    Samples ``grid_n`` rates spanning ``model.support`` and weights each
    value by ``model.density`` times the composite trapezoid coefficient.
    A single-point support collapses to the value at that rate; a density
    with zero mass over the grid falls back to the value at rate 0.
    """
    lo, hi = model.support
    if hi - lo <= 1e-15:
        return value_at(0.5 * (lo + hi))
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    rates = np.linspace(lo, hi, grid_n)
    trapezoid = np.ones(grid_n)
    trapezoid[0] = trapezoid[-1] = 0.5
    weights = np.asarray(model.density(rates), dtype=float) * trapezoid
    total = float(weights.sum())
    if total <= 0.0:
        return value_at(0.0)
    values = np.array([value_at(float(r)) for r in rates])
    return float(np.dot(weights, values) / total)


@dataclass
class RiskSeries:
    """Aligned per-step risk series for one vessel over a time window."""

    vessel_id: str
    times: np.ndarray
    collision: dict[str, np.ndarray]
    collision_wavg: dict[str, np.ndarray]
    grounding: np.ndarray
    scenario: np.ndarray

    def target_ids(self) -> list[str]:
        return sorted(self.collision)


def compute_risk_series(
    tracks: Mapping[str, VesselTrack],
    ownship_id: str,
    t_start: float,
    t_end: float,
    obstacles: ObstacleSet | None = None,
    params: RiskParams | None = None,
    domain_params: DomainParams | None = None,
    models: Mapping | None = None,
    wavg_grid_n: int = DEFAULT_GRID_N,
) -> RiskSeries:
    """Per-step risk breakdown for one vessel over [t_start, t_end].

    Steps are the ownship grid times inside the window. Targets absent at a
    step contribute zero. Collision columns cover every target that appears
    at least once in the window.
    """
    if ownship_id not in tracks:
        raise KeyError(f"ownship {ownship_id!r} not among tracks")
    own = tracks[ownship_id]
    if t_end < t_start:
        raise ValueError(f"empty window [{t_start}, {t_end}]")
    mask = (own.times >= t_start - 1e-9) & (own.times <= t_end + 1e-9)
    times = own.times[mask]
    if times.size == 0:
        raise ValueError(
            f"window [{t_start}, {t_end}] contains no grid steps of {ownship_id!r}"
        )
    targets = [tr for tid, tr in sorted(tracks.items()) if tid != ownship_id]
    steps = [
        scenario_risk_for_state(
            own.state_at(float(t)),
            float(t),
            targets,
            obstacles,
            params,
            domain_params,
            models=models,
            wavg_grid_n=wavg_grid_n,
        )
        for t in times
    ]
    seen = sorted({tid for s in steps for tid in s.collision})
    collision = {
        tid: np.array([s.collision.get(tid, 0.0) for s in steps]) for tid in seen
    }
    seen_wavg = sorted({tid for s in steps for tid in s.collision_wavg})
    collision_wavg = {
        tid: np.array(
            [s.collision_wavg.get(tid, s.collision.get(tid, 0.0)) for s in steps]
        )
        for tid in seen_wavg
    }
    return RiskSeries(
        vessel_id=ownship_id,
        times=times.astype(float),
        collision=collision,
        collision_wavg=collision_wavg,
        grounding=np.array([s.grounding_max for s in steps]),
        scenario=np.array([s.scenario for s in steps]),
    )
