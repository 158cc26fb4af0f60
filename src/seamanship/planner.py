"""Search for the least-risk maneuver sequence available to a vessel.

The action space is a grid of speed commands and normalized rudder
settings applied over a fixed number of equal time levels. Candidate
states advance along circular arcs whose curvature scales with rudder and
inversely with hull length; each candidate is scored by the full scenario
risk against recorded target tracks and charted obstacles. One level-wise
search serves two pruning policies: branch and bound keeps only the
minimum-risk nodes (with ties) of each level, while the exhaustive
enumerator keeps every node and provides the ground truth on small grids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .geometry import DomainParams, LocalPoint, VesselState, VesselTrack, normalize_heading
from .risk import ObstacleSet, RiskParams, scenario_risk_for_state

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
    run = state.speed * dt
    cos_h = math.cos(state.heading)
    sin_h = math.sin(state.heading)
    if abs(alpha) < ALPHA_EPS:
        fwd, stb = run, 0.0
        new_heading = state.heading
    else:
        curvature = alpha * kin.max_curvature(state.length)
        dpsi = run * curvature
        fwd = math.sin(dpsi) / curvature
        stb = (1.0 - math.cos(dpsi)) / curvature
        new_heading = normalize_heading(state.heading + dpsi)
    # body-to-world: forward along heading, starboard 90 degrees clockwise
    north = state.north + fwd * cos_h - stb * sin_h
    east = state.east + fwd * sin_h + stb * cos_h
    return VesselState(
        time=state.time + dt,
        north=north,
        east=east,
        speed=float(v_cmd),
        heading=new_heading,
        length=state.length,
        vessel_type=state.vessel_type,
    )


@dataclass
class SearchNode:
    """One candidate state in the search tree."""

    state: VesselState
    scenario_risk: float
    depth: int
    parent: "SearchNode | None" = None
    alpha: float | None = None
    v_cmd: float | None = None

    @property
    def time(self) -> float:
        return self.state.time

    @property
    def position(self) -> LocalPoint:
        return self.state.position

    @property
    def heading(self) -> float:
        return self.state.heading

    @property
    def speed(self) -> float:
        return self.state.speed

    def lineage(self) -> list["SearchNode"]:
        """Nodes from the root to this node, inclusive."""
        chain: list[SearchNode] = []
        node: SearchNode | None = self
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain[::-1]


@dataclass
class PathResult:
    """Outcome of a maneuver search at one instant.

    ``states`` is the best root-to-leaf path; ``paths`` lists every
    returned minimum-risk path (best first). ``path_risk`` is the maximum
    scenario risk over the best path's non-root nodes, and ``sr_star`` is
    the minimum of that maximum over the returned paths.
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
            return {
                "time": n.time,
                "north": n.state.north,
                "east": n.state.east,
                "speed": n.speed,
                "heading": n.heading,
                "scenario_risk": n.scenario_risk,
                "alpha": n.alpha,
                "v_cmd": n.v_cmd,
            }

        return {
            "sr_star": self.sr_star,
            "path_risk": self.path_risk,
            "targets_held": self.targets_held,
            "nodes_expanded": self.nodes_expanded,
            "best_path": [node_doc(n) for n in self.states],
            "tied_paths": len(self.paths),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _path_risk(path: Sequence[SearchNode]) -> float:
    """Maximum scenario risk over the path, root excluded; 0 for a bare root."""
    risks = [n.scenario_risk for n in path[1:]]
    return max(risks) if risks else 0.0


def _evaluate(
    state: VesselState,
    t: float,
    targets: Sequence[VesselTrack],
    obstacles: ObstacleSet | None,
    rp: RiskParams,
    dp: DomainParams,
) -> tuple[float, bool]:
    step = scenario_risk_for_state(
        state, t, targets, obstacles, rp, dp, hold_targets=True
    )
    return step.scenario, step.targets_held


def _expand_level(
    queue: Sequence[SearchNode],
    level: int,
    dt: float,
    v_grid: np.ndarray,
    alpha_grid: np.ndarray,
    kin: KinodynamicParams,
    targets: Sequence[VesselTrack],
    obstacles: ObstacleSet | None,
    rp: RiskParams,
    dp: DomainParams,
) -> tuple[list[SearchNode], bool]:
    children: list[SearchNode] = []
    held_any = False
    for node in queue:
        for v_cmd in v_grid:
            for alpha in alpha_grid:
                child_state = step_kinodynamics(node.state, float(alpha), float(v_cmd), dt, kin)
                risk, held = _evaluate(child_state, child_state.time, targets, obstacles, rp, dp)
                held_any = held_any or held
                children.append(
                    SearchNode(
                        state=child_state,
                        scenario_risk=risk,
                        depth=level,
                        parent=node,
                        alpha=float(alpha),
                        v_cmd=float(v_cmd),
                    )
                )
    return children, held_any


def _survivors(
    children: Sequence[SearchNode],
    tie_eps: float,
    beam_width: int,
    root_speed: float,
) -> list[SearchNode]:
    """Minimum-risk children within tie_eps, capped at beam_width.

    Among ties, straighter and closer-to-current-speed candidates rank
    first so a risk-free scene keeps its hold-course path through the cap.
    """
    best = min(c.scenario_risk for c in children)
    tied = [
        (c.scenario_risk, abs(c.alpha), abs(c.v_cmd - root_speed), i, c)
        for i, c in enumerate(children)
        if c.scenario_risk <= best + tie_eps
    ]
    tied.sort(key=lambda row: row[:4])
    return [row[4] for row in tied[:beam_width]]


def _level_search(
    tracks: Mapping[str, VesselTrack],
    ownship_id: str,
    t: float,
    hyper: Hyperparameters,
    kin: KinodynamicParams | None,
    params: RiskParams | None,
    domain_params: DomainParams | None,
    obstacles: ObstacleSet | None,
    prune: Callable[[list[SearchNode], SearchNode], list[SearchNode]],
) -> tuple[list[SearchNode], bool, int]:
    """Expand the ownship state at ``t`` level by level over the action grid.

    Each of the ``n_t`` levels lasts ``horizon_T / n_t`` seconds. After a
    level is scored, ``prune(children, root)`` picks the nodes the next
    level expands. Returns (last-level nodes, whether any target was held,
    nodes expanded).
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
    root_risk, held_any = _evaluate(root_state, t, targets, obstacles, rp, dp)
    root = SearchNode(state=root_state, scenario_risk=root_risk, depth=0)
    dt = hyper.horizon_T / hyper.n_t
    v_grid = hyper.v_grid(kin)
    alpha_grid = hyper.alpha_grid()
    queue: list[SearchNode] = [root]
    expanded = 0
    for level in range(1, hyper.n_t + 1):
        children, held = _expand_level(
            queue, level, dt, v_grid, alpha_grid, kin, targets, obstacles, rp, dp
        )
        expanded += len(children)
        held_any = held_any or held
        queue = prune(children, root)
    return queue, held_any, expanded


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
    leaves, held_any, expanded = _level_search(
        tracks, ownship_id, t, hyper, kin, params, domain_params, obstacles,
        prune=lambda children, root: _survivors(
            children, hyper.tie_eps, hyper.beam_width, root.speed
        ),
    )
    paths = [node.lineage() for node in leaves]
    risks = [_path_risk(p) for p in paths]
    order = sorted(range(len(paths)), key=lambda i: (risks[i], i))
    paths = [paths[i] for i in order]
    risks = [risks[i] for i in order]
    return PathResult(
        states=paths[0],
        path_risk=risks[0],
        sr_star=risks[0],
        paths=paths,
        targets_held=held_any,
        nodes_expanded=expanded,
    )


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
    leaves, held_any, expanded = _level_search(
        tracks, ownship_id, t, hyper, kin, params, domain_params, obstacles,
        prune=lambda children, root: children,
    )
    paths = [leaf.lineage() for leaf in leaves]
    risks = np.array([_path_risk(p) for p in paths])
    best = float(risks.min())
    keep = [i for i in range(len(paths)) if risks[i] <= best + hyper.tie_eps]
    keep.sort(key=lambda i: (risks[i], i))
    keep = keep[: hyper.beam_width]
    return PathResult(
        states=paths[keep[0]],
        path_risk=float(risks[keep[0]]),
        sr_star=best,
        paths=[paths[i] for i in keep],
        targets_held=held_any,
        nodes_expanded=expanded,
    )


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
