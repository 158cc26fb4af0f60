"""Search for the least-risk maneuver sequence available to a vessel.

The action space is a grid of speed commands and normalized rudder
settings applied over a fixed number of equal time levels. Candidate
states advance along circular arcs whose curvature scales with rudder and
inversely with hull length; each candidate is scored by the full scenario
risk against recorded target tracks and charted obstacles. One level-wise
search serves two pruning policies: branch and bound keeps only the
minimum-risk nodes (with ties) of each level, while the exhaustive
enumerator keeps every node and provides the ground truth on small grids.
Both return their paths by one rule: every last-level path within
``tie_eps`` of the least path risk, stable-sorted by path risk and capped
at ``beam_width``.

All children of a level share one time, so a level is advanced and scored
as arrays: the targets are interpolated once, every child moves in one
vectorized arc step, and one risk-kernel pass scores every child against
every target. The chart is scanned once per level for points near any
child, and one grounding-kernel pass scores every child against the points
inside its own arena. Search nodes are kept as parallel arrays with parent
indices; the returned paths are read back through those indices, and each
node on them becomes one :class:`SearchNode` record, shared by every
returned path through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .geometry import (
    TWO_PI,
    DomainParams,
    StateArrays,
    VesselState,
    VesselTrack,
    require_finite,
)
from .risk import ObstacleSet, RiskParams, scenario_risks

ALPHA_EPS = 1e-6


@dataclass(frozen=True)
class KinodynamicParams:
    """Maneuvering envelope used by the search.

    ``turn_radius_lengths`` sets the tightest (full rudder) turn radius in
    hull lengths; curvature at rudder alpha is alpha / (coeff * length).
    Speed commands are confined to [v_min, v_max] m/s.
    """

    turn_radius_lengths: float = 3.0
    v_min: float = 0.0
    v_max: float = 15.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.turn_radius_lengths <= 0.0:
            raise ValueError("turn_radius_lengths must be positive")
        if self.v_min < 0.0 or self.v_max < self.v_min:
            raise ValueError(f"need 0 <= v_min <= v_max, got [{self.v_min}, {self.v_max}]")

    def max_curvature(self, length: float) -> float:
        """Full-rudder curvature for a hull of the given length, 1/m."""
        return 1.0 / (self.turn_radius_lengths * length)


@dataclass(frozen=True)
class Hyperparameters:
    """Search grid shape: ``n_t`` levels over horizon ``horizon_T`` seconds,
    ``n_v`` speed samples spanning [v_min, v_max], ``n_alpha`` rudder
    samples spanning [-1, 1]."""

    n_t: int = 2
    n_alpha: int = 13
    n_v: int = 3
    horizon_T: float = 600.0
    tie_eps: float = 1e-9
    beam_width: int = 64

    def __post_init__(self) -> None:
        require_finite(self)
        if self.n_t < 1 or self.n_alpha < 1 or self.n_v < 1:
            raise ValueError("grid sizes must be at least 1")
        if self.horizon_T <= 0.0:
            raise ValueError("horizon_T must be positive")
        if self.tie_eps < 0.0 or self.beam_width < 1:
            raise ValueError("tie_eps must be >= 0 and beam_width >= 1")

    def alpha_grid(self) -> np.ndarray:
        if self.n_alpha == 1:
            return np.array([0.0])
        return np.linspace(-1.0, 1.0, self.n_alpha)

    def v_grid(self, kin: KinodynamicParams) -> np.ndarray:
        if self.n_v == 1 or kin.v_max == kin.v_min:
            return np.array([kin.v_min])
        return np.linspace(kin.v_min, kin.v_max, self.n_v)


def _arc_step(
    north, east, speed, heading, length, alpha, v_cmd, dt: float, kin: KinodynamicParams
):
    """Constant-rudder arc step of states given as broadcastable arrays.

    Returns (north, east, heading) after ``dt``; see :func:`step_kinodynamics`.
    """
    run = speed * dt
    cos_h = np.cos(heading)
    sin_h = np.sin(heading)
    straight = np.abs(alpha) < ALPHA_EPS
    curvature = np.where(straight, 1.0, alpha * kin.max_curvature(length))
    dpsi = run * curvature
    fwd = np.where(straight, run, np.sin(dpsi) / curvature)
    stb = np.where(straight, 0.0, (1.0 - np.cos(dpsi)) / curvature)
    turned = np.mod(heading + dpsi, TWO_PI)
    # the modulo may round a tiny negative angle up to 2*pi itself
    new_heading = np.where(straight, heading, np.where(turned < TWO_PI, turned, 0.0))
    # body-to-world: forward along heading, starboard 90 degrees clockwise
    north = north + fwd * cos_h - stb * sin_h
    east = east + fwd * sin_h + stb * cos_h
    return north, east, new_heading


def step_kinodynamics(
    state: VesselState,
    alpha: float,
    v_cmd: float,
    dt: float,
    kin: KinodynamicParams | None = None,
) -> VesselState:
    """Advance a state ``dt`` seconds along a constant-rudder arc.

    The vessel runs the arc at its current speed; ``v_cmd`` takes effect at
    the end of the step (it is the speed of the returned state). Rudder
    ``alpha`` in [-1, 1] sets curvature alpha * max_curvature; positive
    turns to starboard. |alpha| below a small threshold degenerates to a
    straight leg. Arc length always equals current speed times dt.
    """
    kin = kin or KinodynamicParams()
    if not -1.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [-1, 1]")
    if not kin.v_min <= v_cmd <= kin.v_max:
        raise ValueError(f"v_cmd {v_cmd} outside [{kin.v_min}, {kin.v_max}]")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    north, east, heading = _arc_step(
        state.north, state.east, state.speed, state.heading, state.length,
        alpha, v_cmd, dt, kin,
    )
    return VesselState(
        time=state.time + dt,
        north=float(north),
        east=float(east),
        speed=float(v_cmd),
        heading=float(heading),
        length=state.length,
        vessel_type=state.vessel_type,
    )


@dataclass(frozen=True)
class SearchNode:
    """One state on a returned path: its scenario risk and the (alpha,
    v_cmd) command that reached it (None for the root)."""

    state: VesselState
    scenario_risk: float
    alpha: float | None = None
    v_cmd: float | None = None


@dataclass
class PathResult:
    """Outcome of a maneuver search at one instant.

    ``states`` is the best root-to-leaf path; ``paths`` lists every
    returned minimum-risk path (best first). A path's risk is the maximum
    scenario risk over its non-root nodes; ``path_risk`` and ``sr_star``
    are both the least of these, the best path's risk.
    """

    states: list[SearchNode]
    path_risk: float
    sr_star: float
    paths: list[list[SearchNode]] = field(default_factory=list)
    targets_held: bool = False
    nodes_expanded: int = 0

    def decisions(self) -> list[tuple[float, float]]:
        """(alpha, v_cmd) sequence of the best path."""
        return [(n.alpha, n.v_cmd) for n in self.states[1:]]

    def to_dict(self) -> dict:
        def node_doc(n: SearchNode) -> dict:
            s = n.state
            return {"time": s.time, "north": s.north, "east": s.east, "speed": s.speed,
                    "heading": s.heading, "scenario_risk": n.scenario_risk,
                    "alpha": n.alpha, "v_cmd": n.v_cmd}

        return {
            "sr_star": self.sr_star,
            "path_risk": self.path_risk,
            "targets_held": self.targets_held,
            "nodes_expanded": self.nodes_expanded,
            "best_path": [node_doc(n) for n in self.states],
            "tied_paths": len(self.paths),
        }


@dataclass
class _Level:
    """Kept nodes of one search level as parallel arrays.

    ``speed`` is each node's speed command (the root's own speed at level
    0); ``path_risk`` is the maximum scenario risk from level 1 down to the
    node; ``parent`` indexes the kept nodes of the previous level.
    """

    time: float
    north: np.ndarray
    east: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    alpha: np.ndarray
    risk: np.ndarray
    path_risk: np.ndarray
    parent: np.ndarray

    def select(self, index: np.ndarray) -> "_Level":
        return _Level(
            self.time, self.north[index], self.east[index], self.speed[index],
            self.heading[index], self.alpha[index], self.risk[index],
            self.path_risk[index], self.parent[index],
        )


def _survivors(
    risk: np.ndarray,
    alpha: np.ndarray,
    v_cmd: np.ndarray,
    tie_eps: float,
    beam_width: int,
    root_speed: float,
) -> np.ndarray:
    """Indices of the minimum-risk children within tie_eps, capped at beam_width.

    Among ties, straighter and closer-to-current-speed candidates rank
    first so a risk-free scene keeps its hold-course path through the cap;
    the child index breaks the remaining ties.
    """
    tied = np.flatnonzero(risk <= risk.min() + tie_eps)
    order = np.lexsort(
        (tied, np.abs(v_cmd[tied] - root_speed), np.abs(alpha[tied]), risk[tied])
    )
    return tied[order[:beam_width]]


def _level_search(
    tracks: Mapping[str, VesselTrack],
    ownship_id: str,
    t: float,
    hyper: Hyperparameters,
    kin: KinodynamicParams | None,
    params: RiskParams | None,
    domain_params: DomainParams | None,
    obstacles: ObstacleSet | None,
    prune: Callable[[np.ndarray, np.ndarray, np.ndarray, float], np.ndarray],
) -> tuple[list[_Level], VesselState, bool, int]:
    """Expand the ownship state at ``t`` level by level over the action grid.

    Each of the ``n_t`` levels lasts ``horizon_T / n_t`` seconds; children
    are enumerated parent, then speed command, then rudder. After a level
    is scored, ``prune(risk, alpha, v_cmd, root_speed)`` returns the
    indices of the children the next level expands. Returns (kept nodes
    per level, root first; root state; whether any target was held; nodes
    expanded).
    """
    kin = kin or KinodynamicParams()
    rp = params or RiskParams()
    dp = domain_params or DomainParams()
    if ownship_id not in tracks:
        raise KeyError(f"ownship {ownship_id!r} not among tracks")
    own = tracks[ownship_id]
    if not own.covers(t):
        raise ValueError(
            f"ownship {ownship_id!r} not defined at t={t} "
            f"(track spans [{own.t_start}, {own.t_end}])"
        )
    targets = [tr for tid, tr in sorted(tracks.items()) if tid != ownship_id]
    root_state = own.state_at(t)
    root = StateArrays.of([root_state])
    step = scenario_risks(root, t, targets, obstacles, rp, dp, hold_targets=True)
    held_any = step.targets_held
    levels = [_Level(
        root_state.time, root.north, root.east, root.speed, root.heading,
        np.full(1, np.nan), step.scenario, np.full(1, -np.inf), np.full(1, -1),
    )]
    dt = hyper.horizon_T / hyper.n_t
    alpha_grid = hyper.alpha_grid()
    act_v = np.repeat(hyper.v_grid(kin), alpha_grid.size)
    act_alpha = np.tile(alpha_grid, act_v.size // alpha_grid.size)
    expanded = 0
    for _ in range(hyper.n_t):
        prev = levels[-1]
        n_parents = prev.north.size
        parent = np.repeat(np.arange(n_parents), act_v.size)
        alpha = np.tile(act_alpha, n_parents)
        v_cmd = np.tile(act_v, n_parents)
        north, east, heading = _arc_step(
            prev.north[parent], prev.east[parent], prev.speed[parent],
            prev.heading[parent], root_state.length, alpha, v_cmd, dt, kin,
        )
        # accumulated level by level, as each child's time is its parent's plus dt
        time = prev.time + dt
        children = StateArrays(north, east, v_cmd, heading, np.full(north.size, float(root_state.length)))
        step = scenario_risks(children, time, targets, obstacles, rp, dp, hold_targets=True)
        held_any = held_any or step.targets_held
        expanded += north.size
        level = _Level(
            time, north, east, v_cmd, heading, alpha, step.scenario,
            np.maximum(prev.path_risk[parent], step.scenario), parent,
        )
        levels.append(level.select(prune(step.scenario, alpha, v_cmd, root_state.speed)))
    return levels, root_state, held_any, expanded


def _paths(
    levels: list[_Level], root_state: VesselState, leaves: np.ndarray
) -> list[list[SearchNode]]:
    """Root-to-leaf node lists of the given last-level nodes, read back
    through the parent indices. Each distinct node is built once and shared
    by every path through it."""
    index, columns = leaves.tolist(), []
    for lv in levels[:0:-1]:
        distinct = list(dict.fromkeys(index))
        arrays = (lv.north, lv.east, lv.speed, lv.heading, lv.risk, lv.alpha)
        built = {
            i: SearchNode(VesselState(lv.time, north, east, speed, heading, root_state.length,
                                      root_state.vessel_type), risk, alpha, speed)
            for i, north, east, speed, heading, risk, alpha
            in zip(distinct, *(a[distinct].tolist() for a in arrays))
        }
        columns.append([built[i] for i in index])
        index = lv.parent[index].tolist()
    columns.append([SearchNode(root_state, float(levels[0].risk[0]))] * len(leaves))
    return [list(path) for path in zip(*reversed(columns))]


def _result(
    hyper: Hyperparameters, levels: list[_Level], root_state: VesselState,
    held_any: bool, expanded: int,
) -> PathResult:
    """The search result of :func:`_level_search`'s output: the last-level
    paths within ``tie_eps`` of the least path risk, stable-sorted by path
    risk (so in prune order among equals) and capped at ``beam_width``."""
    risks = levels[-1].path_risk
    best = float(risks.min())
    keep = np.flatnonzero(risks <= best + hyper.tie_eps)
    keep = keep[np.argsort(risks[keep], kind="stable")][: hyper.beam_width]
    paths = _paths(levels, root_state, keep)
    return PathResult(states=paths[0], path_risk=best, sr_star=best, paths=paths,
                      targets_held=held_any, nodes_expanded=expanded)


def branch_and_bound(
    tracks: Mapping[str, VesselTrack],
    ownship_id: str,
    t: float,
    hyper: Hyperparameters | None = None,
    kin: KinodynamicParams | None = None,
    params: RiskParams | None = None,
    domain_params: DomainParams | None = None,
    obstacles: ObstacleSet | None = None,
) -> PathResult:
    """Greedy level-wise search for the least-risk maneuver sequence.

    Expands the ownship state at ``t`` over the speed/rudder grid for
    ``n_t`` levels of ``horizon_T / n_t`` seconds each, keeping only nodes
    within ``tie_eps`` of each level's minimum scenario risk (at most
    ``beam_width`` of them). Targets follow their recorded tracks, held at
    their last state once the data runs out (flagged on the result).

    Because pruning is greedy, the result is an upper bound on the true
    minimum path risk; it is exact for a single level.
    """
    hyper = hyper or Hyperparameters()
    return _result(hyper, *_level_search(
        tracks, ownship_id, t, hyper, kin, params, domain_params, obstacles,
        prune=lambda risk, alpha, v_cmd, root_speed: _survivors(
            risk, alpha, v_cmd, hyper.tie_eps, hyper.beam_width, root_speed
        ),
    ))


def exhaustive_search(
    tracks: Mapping[str, VesselTrack],
    ownship_id: str,
    t: float,
    hyper: Hyperparameters | None = None,
    kin: KinodynamicParams | None = None,
    params: RiskParams | None = None,
    domain_params: DomainParams | None = None,
    obstacles: ObstacleSet | None = None,
    max_sequences: int = 1_000_000,
) -> PathResult:
    """Enumerate every action sequence and return the true minimum.

    Ground-truth oracle for :func:`branch_and_bound` on small grids: the
    same level-wise search with no pruning. The sequence count
    (n_alpha * n_v) ** n_t must not exceed ``max_sequences``.
    """
    hyper = hyper or Hyperparameters()
    n_seq = (hyper.n_alpha * hyper.n_v) ** hyper.n_t
    if n_seq > max_sequences:
        raise ValueError(
            f"{n_seq} action sequences exceed the exhaustive budget {max_sequences}"
        )
    return _result(hyper, *_level_search(
        tracks, ownship_id, t, hyper, kin, params, domain_params, obstacles,
        prune=lambda risk, *_: np.arange(risk.size),
    ))


def sr_star_series(
    tracks: Mapping[str, VesselTrack],
    ownship_id: str,
    times: Sequence[float],
    hyper: Hyperparameters | None = None,
    kin: KinodynamicParams | None = None,
    params: RiskParams | None = None,
    domain_params: DomainParams | None = None,
    obstacles: ObstacleSet | None = None,
) -> np.ndarray:
    """Best-achievable path risk at each query time.

    Runs :func:`branch_and_bound` once per distinct time (cached within
    the call) and returns the sr_star values aligned with ``times``.
    """
    cache: dict[float, float] = {}
    out = np.empty(len(times))
    for i, t in enumerate(times):
        key = float(t)
        if key not in cache:
            cache[key] = branch_and_bound(
                tracks, ownship_id, key, hyper, kin, params, domain_params, obstacles
            ).sr_star
        out[i] = cache[key]
    return out
