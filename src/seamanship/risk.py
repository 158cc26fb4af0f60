"""Collision and grounding risk indices and their composition into a single
scenario risk per vessel and time step.

The building block is a logistic index of the domain scale factor: risk 0.5
at boundary contact, saturating toward 1 deep inside the domain and toward 0
far outside. Collision risk couples a horizon-max mutual domain index with an
instantaneous arena proximity index; grounding risk does the same against
points sampled on shallow-water polygon boundaries.

One broadcast kernel, :func:`collision_risk_grid`, evaluates collision risk
for many own states against many targets at many target speed-change rates
in one array pass; the single-pair functions call it with one of each. A
second kernel scores grounding for many own states against the chart
points near them in one pass, channel-width adjustment included;
:func:`grounding_risk` calls it with one state, and
:func:`adjust_domain_for_channel` shares its channel-width step. Chart
boundaries are densified in one array pass over all polygon edges.
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
    StateArrays,
    VesselState,
    VesselTrack,
    _domain_frame,
    _scale_factor_xy,
    domain_axes,
    predict_positions,
    require_finite,
)

MUTUAL_MODES = ("max", "prob_or")
# rates sampled by the density-weighted collision risk
DEFAULT_GRID_N = 64
# elements of the (own, targets, rates, offsets) grid scored per kernel
# pass: about a dozen temporaries of this size are alive at once, so a tied
# planner level (up to 64 x 39 candidates) stays within a couple of
# megabytes instead of tens
KERNEL_CHUNK_ELEMS = 8192
# meters added to the shared arena prefilter radius so that rounding never
# drops a point the exact per-state test would keep
ARENA_SLACK = 1.0


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
        require_finite(self)
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


def _domain_index(
    heading, semi_major, semi_minor, d_north, d_east, rp: RiskParams, dp: DomainParams
):
    """Domain index of points displaced (d_north, d_east) from a vessel with
    the given heading and domain axes, the center ``offset_fraction`` of the
    semi-major axis ahead. All arguments broadcast."""
    x, y = _domain_frame(heading, d_north, d_east)
    f = _scale_factor_xy(
        semi_major, semi_minor, dp.offset_fraction * semi_major, 0.0, x, y
    )
    return risk_index(f, rp)


def _mutual_index(
    own: StateArrays, tgt: StateArrays, rates: np.ndarray, rp: RiskParams, dp: DomainParams
) -> np.ndarray:
    """Horizon-max mutual domain index, shape (own, targets, rates).

    Own vessels hold speed and course; each target changes speed at each
    rate. Both directed indices are evaluated on the (own, targets, rates,
    horizon offsets) grid and combined per ``rp.mutual_mode``.
    """
    offsets = rp.horizon_offsets()
    o = own.expand(0, 4)
    g = tgt.expand(1, 4)
    on, oe, ov = predict_positions(o, offsets, 0.0)
    tn, te, tv = predict_positions(g, offsets, rates[:, None])
    r_own = _domain_index(o.heading, *domain_axes(ov, o.length, dp), tn - on, te - oe, rp, dp)
    r_tgt = _domain_index(g.heading, *domain_axes(tv, g.length, dp), on - tn, oe - te, rp, dp)
    if rp.mutual_mode == "prob_or":
        combined = r_own + r_tgt - r_own * r_tgt
    else:
        combined = np.maximum(r_own, r_tgt)
    return combined.max(axis=-1)


def collision_risk_grid(
    own: StateArrays, tgt: StateArrays, rates, rp: RiskParams, dp: DomainParams
) -> np.ndarray:
    """Collision risk of every own state against every target state at
    every target speed-change rate, shape (own, targets, rates).

    The horizon-max mutual index is weighted by the instantaneous arena
    index, a logistic of distance over arena radius. Own states are taken
    in chunks of about ``KERNEL_CHUNK_ELEMS`` grid elements, which bounds
    the size of the temporaries.
    """
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    n_own = own.north.size
    out = np.empty((n_own, tgt.north.size, rates.size))
    per_own = tgt.north.size * rates.size * rp.horizon_offsets().size
    chunk = max(1, KERNEL_CHUNK_ELEMS // max(per_own, 1))
    for lo in range(0, n_own, chunk):
        part = own.select(slice(lo, lo + chunk))
        dist = np.hypot(part.north[:, None] - tgt.north, part.east[:, None] - tgt.east)
        arena = risk_index(dist / rp.arena_radius, rp)
        out[lo:lo + chunk] = _mutual_index(part, tgt, rates, rp, dp) * arena[:, :, None]
    return out


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
    own = StateArrays.of([track_j.state_at(t)])
    tgt = StateArrays.of([track_k.state_at(t)])
    return float(_mutual_index(own, tgt, np.array([float(rate)]), rp, dp)[0, 0, 0])


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
    own = StateArrays.of([track_j.state_at(t)])
    tgt = StateArrays.of([track_k.state_at(t)])
    return float(collision_risk_grid(own, tgt, rate, rp, dp)[0, 0, 0])


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
        """Boundary points strictly inside the arena circle, (M, 2), in
        their original order."""
        pts = self.boundary_points
        d = pts - np.array([arena.center.north, arena.center.east])
        return pts[np.hypot(d[:, 0], d[:, 1]) < arena.radius]


def densify_boundaries(
    polygons: Sequence[np.ndarray], spacing: float
) -> tuple[np.ndarray, np.ndarray]:
    """Discretize closed rings at intervals no longer than ``spacing``.

    Each edge of length L contributes ceil(L / spacing) points starting at
    the edge's first vertex; the shared end vertex belongs to the next
    edge, so rings produce no duplicates. All edges are handled in one
    array pass. Returns (points, ring_index).
    """
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    if not polygons:
        return np.empty((0, 2)), np.empty(0, dtype=int)
    start = np.concatenate([ring[:-1] for ring in polygons])
    edge = np.concatenate([ring[1:] for ring in polygons]) - start
    ring_of_edge = np.repeat(np.arange(len(polygons)), [len(ring) - 1 for ring in polygons])
    edge_len = np.hypot(edge[:, 0], edge[:, 1])
    if not np.isfinite(edge_len).all():
        raise ValueError("polygon coordinates must be finite")
    n = np.where(
        edge_len == 0.0, 0, np.maximum(1, np.ceil(edge_len / spacing - 1e-12))
    ).astype(int)
    # k-th point of its edge: position in the output minus the edge's first slot
    first = np.cumsum(n) - n
    k = np.arange(n.sum()) - np.repeat(first, n)
    fracs = k / np.repeat(n, n)
    points = np.repeat(start, n, axis=0) + fracs[:, None] * np.repeat(edge, n, axis=0)
    return points, np.repeat(ring_of_edge, n)


def _channel_minor(semi_minor, semi_major, x, y, inside, rp: RiskParams):
    """Channel-adjusted semi-minor axis of each own state, shape (own, 1).

    ``x``, ``y`` (own, points) are the points in each state's domain frame
    and ``inside`` marks the points each state sees. Channel width is the
    nearest perpendicular distance to port plus the nearest to starboard
    over the seen points in the forward corridor, each side capped at the
    arena radius. When twice the semi-minor axis exceeds the width, the
    beam shrinks to ``channel_gamma * width / 2`` (at least 1 mm).
    """
    corridor = semi_major if rp.channel_corridor is None else rp.channel_corridor
    ahead = inside & (x >= 0.0) & (x <= corridor)
    cap = rp.arena_radius
    starboard = np.min(np.where(ahead & (y > 0.0), y, cap), axis=1, keepdims=True, initial=cap)
    port = np.min(np.where(ahead & (y < 0.0), -y, cap), axis=1, keepdims=True, initial=cap)
    width = port + starboard
    new_minor = np.maximum(rp.channel_gamma * width / 2.0, 1e-3)
    return np.where((2.0 * semi_minor > width) & (new_minor < semi_minor), new_minor, semi_minor)


def _grounding_grid(
    own: StateArrays, pts: np.ndarray, reach: float, rp: RiskParams, dp: DomainParams
) -> np.ndarray:
    """Grounding risk of every own state against every point, shape
    (own, points); points at or beyond ``reach`` of a state score 0 and
    take no part in its channel width.

    Each point acts as a zero-speed virtual vessel: its risk is the domain
    index times the instantaneous arena index. The domain index is
    instantaneous, or with ``rp.grounding_horizon_max`` its maximum over
    the horizon offsets (vessel moves, points stand still).
    """
    o = own.expand(0, 2)
    d_north = pts[:, 0] - o.north
    d_east = pts[:, 1] - o.east
    dist = np.hypot(d_north, d_east)
    inside = dist < reach
    semi_major, semi_minor = domain_axes(o.speed, o.length, dp)
    x, y = _domain_frame(o.heading, d_north, d_east)
    if rp.channel_adjust:
        semi_minor = _channel_minor(semi_minor, semi_major, x, y, inside, rp)
    if rp.grounding_horizon_max:
        o3 = own.expand(0, 3)
        on, oe, ov = predict_positions(o3, rp.horizon_offsets()[:, None], 0.0)
        # semi-minor is speed-independent, so the channel-adjusted value
        # holds across the whole horizon
        r_d = _domain_index(
            o3.heading, domain_axes(ov, o3.length, dp)[0], semi_minor[:, :, None],
            pts[:, 0] - on, pts[:, 1] - oe, rp, dp,
        ).max(axis=1)
    else:
        f = _scale_factor_xy(
            semi_major, semi_minor, dp.offset_fraction * semi_major, 0.0, x, y
        )
        r_d = risk_index(f, rp)
    r_a = risk_index(dist / rp.arena_radius, rp)
    return np.where(inside, r_d * r_a, 0.0)


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
    pts = np.asarray(obstacle_points, dtype=float).reshape(-1, 2)
    x, y = _domain_frame(
        state.heading, pts[None, :, 0] - state.north, pts[None, :, 1] - state.east
    )
    new_minor = float(_channel_minor(
        domain.semi_minor, domain.semi_major, x, y, True, rp
    )[0, 0])
    if new_minor == domain.semi_minor:
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
    pre-filtered to the vessel's arena; every given point is scored and
    counts toward the channel width. Returns (per-point risks, max).

    With ``params.grounding_horizon_max`` the domain index takes the
    maximum over the prediction horizon (vessel moves, points stand still)
    instead of the instantaneous value.
    """
    rp = params or RiskParams()
    dp = domain_params or DomainParams()
    pts = np.asarray(obstacle_points, dtype=float)
    if pts.size == 0:
        return np.empty(0), 0.0
    per_point = _grounding_grid(StateArrays.of([state]), pts, np.inf, rp, dp)[0]
    return per_point, float(np.max(per_point))


def _outside_unit(value):
    """First entry of ``value`` outside [0, 1] (NaN included), else None."""
    value = np.asarray(value)
    bad = ~((value >= 0.0) & (value <= 1.0))
    return value[bad].flat[0] if bad.any() else None


def compose_scenario_risk(collision_risks: Iterable[float], grounding_max: float) -> float:
    """Union of independent per-hazard risks.

    Folds collision risks and the grounding maximum with
    sr <- r + sr * (1 - r), which equals one minus the product of the
    complements. Inputs outside [0, 1] are rejected. Each risk may also be
    an array over own states, folded element by element.
    """
    sr = 0.0
    for i, cr in enumerate(collision_risks):
        bad = _outside_unit(cr)
        if bad is not None:
            raise ValueError(f"collision risk #{i} = {bad} outside [0, 1]")
        sr = cr + sr * (1.0 - cr)
    bad = _outside_unit(grounding_max)
    if bad is not None:
        raise ValueError(f"grounding risk {bad} outside [0, 1]")
    return grounding_max + sr * (1.0 - grounding_max)


@dataclass
class StepRisk:
    """Risk breakdown at one time step: floats for one vessel state, or
    arrays with one entry per own state from :func:`scenario_risks`."""

    time: float
    collision: dict[str, float]
    collision_wavg: dict[str, float]
    grounding_max: float
    scenario: float
    targets_held: bool = False


def _target_states(
    target_tracks: Sequence[VesselTrack], t: float, hold_targets: bool
) -> tuple[dict[str, VesselState], bool]:
    """Target states at t keyed by sorted track id, and whether any target
    was held at the nearest end of its track."""
    states: dict[str, VesselState] = {}
    held_any = False
    for track in target_tracks:
        if hold_targets:
            state, held = track.state_at_clamped(t)
            held_any = held_any or held
        elif track.covers(t):
            state = track.state_at(t)
        else:
            continue
        states[track.track_id] = state
    return {tid: states[tid] for tid in sorted(states)}, held_any


def _grounding_max(
    own: StateArrays,
    obstacles: ObstacleSet | None,
    rp: RiskParams,
    dp: DomainParams,
) -> np.ndarray:
    """Maximum grounding risk of each own state against the charted points
    strictly inside its arena, 0 when there are none; shape (own,).

    The chart is scanned once for points near any of the states (within
    the arena radius plus the states' spread around their centroid). Own
    states are then scored against that subset in chunks of about
    ``KERNEL_CHUNK_ELEMS`` grid elements (states x horizon offsets x
    points), which bounds the size of the temporaries.
    """
    n_own = own.north.size
    out = np.zeros(n_own)
    if obstacles is None or obstacles.is_empty:
        return out
    center_n, center_e = float(np.mean(own.north)), float(np.mean(own.east))
    spread = float(np.max(np.hypot(own.north - center_n, own.east - center_e)))
    near = obstacles.points_in_arena(
        ArenaSpec(rp.arena_radius + spread + ARENA_SLACK, LocalPoint(center_n, center_e))
    )
    if near.size == 0:
        return out
    per_own = near.shape[0] * (rp.horizon_offsets().size if rp.grounding_horizon_max else 1)
    chunk = max(1, KERNEL_CHUNK_ELEMS // per_own)
    for lo in range(0, n_own, chunk):
        part = own.select(slice(lo, lo + chunk))
        out[lo:lo + chunk] = _grounding_grid(part, near, rp.arena_radius, rp, dp).max(axis=1)
    return out


def scenario_risks(
    own: StateArrays,
    t: float,
    target_tracks: Sequence[VesselTrack],
    obstacles: ObstacleSet | None,
    params: RiskParams | None = None,
    domain_params: DomainParams | None = None,
    hold_targets: bool = False,
    models: Mapping | None = None,
    wavg_grid_n: int = DEFAULT_GRID_N,
) -> StepRisk:
    """Scenario risk of several hypothetical ownship states at time t.

    Arguments are those of :func:`scenario_risk_for_state`; every field of
    the returned breakdown holds one entry per own state. Targets are
    interpolated once, and all collision risks come from one
    :func:`collision_risk_grid` call.
    """
    rp = params or RiskParams()
    dp = domain_params or DomainParams()
    targets, held_any = _target_states(target_tracks, t, hold_targets)
    tgt = StateArrays.of(list(targets.values()))
    cr = collision_risk_grid(own, tgt, 0.0, rp, dp)[:, :, 0]
    collision = {tid: cr[:, k] for k, tid in enumerate(targets)}
    collision_wavg: dict[str, np.ndarray] = {}
    for k, (tid, state) in enumerate(targets.items()):
        model = models.get(state.vessel_type) if models else None
        if model is None:
            continue
        one = tgt.select(slice(k, k + 1))
        collision_wavg[tid] = np.array([
            rate_weighted_mean(
                lambda rates, c=c: collision_risk_grid(
                    own.select(slice(c, c + 1)), one, rates, rp, dp
                )[0, 0],
                model,
                wavg_grid_n,
            )
            for c in range(own.north.size)
        ])
    grounding = _grounding_max(own, obstacles, rp, dp)
    effective = [collision_wavg.get(tid, collision[tid]) for tid in targets]
    return StepRisk(
        time=t,
        collision=collision,
        collision_wavg=collision_wavg,
        grounding_max=grounding,
        scenario=compose_scenario_risk(effective, grounding),
        targets_held=held_any,
    )


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
    Collision risks fold in sorted target-id order.
    """
    step = scenario_risks(
        StateArrays.of([own_state]), t, target_tracks, obstacles, params,
        domain_params, hold_targets, models, wavg_grid_n,
    )
    return StepRisk(
        time=t,
        collision={tid: float(v[0]) for tid, v in step.collision.items()},
        collision_wavg={tid: float(v[0]) for tid, v in step.collision_wavg.items()},
        grounding_max=float(step.grounding_max[0]),
        scenario=float(step.scenario[0]),
        targets_held=step.targets_held,
    )


def rate_weighted_mean(
    value_at: Callable[[np.ndarray], np.ndarray], model, grid_n: int
) -> float:
    """Density-weighted mean of ``value_at(rates)`` over speed-change rates.

    ``value_at`` maps an array of rates to the array of values at those
    rates and is called once. It is evaluated at ``grid_n`` rates spanning
    ``model.support``, and each value is weighted by ``model.density``
    times the composite trapezoid coefficient. A single-point support
    collapses to the value at that rate; a density with zero mass over the
    grid falls back to the value at rate 0.
    """
    lo, hi = model.support
    if hi - lo <= 1e-15:
        return float(value_at(np.array([0.5 * (lo + hi)]))[0])
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    rates = np.linspace(lo, hi, grid_n)
    trapezoid = np.ones(grid_n)
    trapezoid[0] = trapezoid[-1] = 0.5
    weights = np.asarray(model.density(rates), dtype=float) * trapezoid
    total = float(weights.sum())
    if total <= 0.0:
        return float(value_at(np.zeros(1))[0])
    values = np.asarray(value_at(rates), dtype=float)
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
