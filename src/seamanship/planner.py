"""Search for the least-risk maneuver sequence available to a vessel.

The action space is a grid of speed commands and normalized rudder
settings applied over a fixed number of equal time levels. Candidate
states advance by :func:`sail` along arcs whose curvature scales with
rudder and inversely with hull length (straight legs at zero rudder);
each candidate is scored by the full scenario risk against recorded
target tracks and charted obstacles. One level-wise search serves two
pruning policies: branch and bound keeps only the minimum-risk nodes
(with ties) of each level, while the exhaustive enumerator keeps every
node and provides the ground truth on small grids.
Both return their paths by one rule: every last-level path within
``tie_eps`` of the least path risk, stable-sorted by path risk and capped
at ``beam_width``.

One search may start from several roots, the ownship at several times:
every node carries its root's index, and each root is pruned on its own,
so a root's result does not depend on the others. Every level's times are
known up front, so a search places the targets once, in one table of a row
per level and root. A level is advanced and scored as arrays: every child
moves in one :func:`sail` call, and one call scores every child against
its root's row of the level, as :func:`scenario_risks` would, with the
chart prefiltered once per root. :func:`branch_and_bound` and
:func:`exhaustive_search` search from one root; :func:`sr_star_series`
searches all the distinct times of a window, in blocks of roots of bounded
size (``ROOT_BLOCK_NODES``), and a window of one time with
:func:`branch_and_bound`. Search
nodes are kept as parallel arrays with parent indices; the returned paths
are read back through those indices, and each node on them becomes one
:class:`SearchNode` record, shared by every returned path through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .geometry import (
    DomainParams,
    StateArrays,
    VesselState,
    VesselTrack,
    require_finite,
    sail,
    travel_distance,
)
from .risk import ObstacleSet, RiskParams, _own_and_targets, _table_risks, _target_table

ALPHA_EPS = 1e-6
# widest level (roots x beam_width x actions) a block of sr_star_series
# roots may reach: a block holds one collision column per target per child,
# plus the level arrays (121 open_sea steps: 12.6 MiB in one block, 2.3 in blocks)
ROOT_BLOCK_NODES = 4096
# actions (n_alpha x n_v) a search may expand: each level holds up to
# beam_width times this many children; the largest grid in use is 13 x 13
MAX_ACTIONS = 1024
# children (beam_width x n_alpha x n_v) a search level may hold: the default
# beam on the largest action grid; in open water every child ties, so a
# wider beam keeps them all and each level multiplies them by the actions
MAX_LEVEL_CHILDREN = 64 * MAX_ACTIONS


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

    def curvature(self, alpha, length: float):
        """Curvature at rudder ``alpha`` (a float or an array), 1/m: 0, a
        straight leg, where |alpha| < ``ALPHA_EPS``."""
        return np.where(np.abs(alpha) < ALPHA_EPS, 0.0, alpha * self.max_curvature(length))


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
        if self.n_alpha * self.n_v > MAX_ACTIONS:
            raise ValueError(f"n_alpha x n_v = {self.n_alpha} x {self.n_v} actions, more than "
                             f"the {MAX_ACTIONS:,} a search may expand")
        if self.horizon_T <= 0.0:
            raise ValueError("horizon_T must be positive")
        if self.tie_eps < 0.0 or self.beam_width < 1:
            raise ValueError("tie_eps must be >= 0 and beam_width >= 1")
        if self.beam_width * self.n_alpha * self.n_v > MAX_LEVEL_CHILDREN:
            raise ValueError(
                f"beam_width x n_alpha x n_v = {self.beam_width} x {self.n_alpha} x {self.n_v} "
                f"children, more than the {MAX_LEVEL_CHILDREN:,} a search level may hold"
            )

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
    """Advance a state ``dt`` seconds along a constant-rudder arc: a scalar
    wrapper of :func:`sail`, which moves every search node.

    The vessel runs the arc at its current speed; ``v_cmd`` takes effect at
    the end of the step (it is the speed of the returned state). Rudder
    ``alpha`` in [-1, 1] sets curvature alpha * max_curvature; positive
    turns to starboard. |alpha| below ``ALPHA_EPS`` degenerates to a
    straight leg. Arc length always equals current speed times dt.
    """
    kin = kin or KinodynamicParams()
    if not -1.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [-1, 1]")
    if not kin.v_min <= v_cmd <= kin.v_max:
        raise ValueError(f"v_cmd {v_cmd} outside [{kin.v_min}, {kin.v_max}]")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    run, curvature = travel_distance(state.speed, dt), kin.curvature(alpha, state.length)
    north, east, heading = sail(state.north, state.east, state.heading, run, curvature)
    return replace(state, time=state.time + dt, north=float(north), east=float(east),
                   speed=float(v_cmd), heading=float(heading))


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

    ``time`` holds one time per root of the searched block and ``root``
    each node's root index; nodes are grouped by root, in root order.
    ``speed`` is each node's speed command (the root's own speed at level
    0); ``risk`` is its scenario risk (NaN at the roots unless the search
    scores them); ``path_risk`` is the maximum scenario risk from level
    1 down to the node; ``parent`` indexes the kept nodes of the previous
    level.
    """

    time: np.ndarray
    root: np.ndarray
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
            self.time, self.root[index], self.north[index], self.east[index],
            self.speed[index], self.heading[index], self.alpha[index], self.risk[index],
            self.path_risk[index], self.parent[index],
        )

    def root_starts(self) -> np.ndarray:
        """Index of each root's first node."""
        return np.flatnonzero(np.diff(self.root, prepend=-1))


def _survivors(
    level: _Level, root_speed: np.ndarray, tie_eps: float, beam_width: int
) -> np.ndarray:
    """Indices of each root's minimum-risk children within tie_eps, at
    most beam_width per root, grouped by root.

    Among ties, straighter and closer-to-current-speed candidates rank
    first so a risk-free scene keeps its hold-course path through the cap;
    the child index breaks the remaining ties.
    """
    risk, root = level.risk, level.root
    least = np.minimum.reduceat(risk, level.root_starts())
    tied = np.flatnonzero(risk <= least[root] + tie_eps)
    owner = root[tied]
    order = np.lexsort((
        tied, np.abs(level.speed[tied] - root_speed[owner]), np.abs(level.alpha[tied]),
        risk[tied], owner,
    ))
    kept, owner = tied[order], owner[order]
    # rank within the root: position less that of the root's first survivor
    rank = np.arange(kept.size) - np.searchsorted(owner, owner)
    return kept[rank < beam_width]


@dataclass(frozen=True)
class _Scene:
    """What a search from the ownship reads: its track and targets
    (``risk._own_and_targets``), the chart and the parameter blocks."""

    own: VesselTrack
    targets: list[VesselTrack]
    obstacles: ObstacleSet | None
    hyper: Hyperparameters
    kin: KinodynamicParams
    rp: RiskParams
    dp: DomainParams


def _scene(
    tracks: Mapping[str, VesselTrack],
    ownship_id: str,
    times: Sequence[float],
    hyper: Hyperparameters | None,
    kin: KinodynamicParams | None,
    params: RiskParams | None,
    domain_params: DomainParams | None,
    obstacles: ObstacleSet | None,
) -> _Scene:
    """The search scene of an ownship whose track covers every one of
    ``times``; a parameter block not given takes its defaults."""
    own, targets = _own_and_targets(tracks, ownship_id)
    for t in times:
        if not own.covers(t):
            raise ValueError(
                f"ownship {ownship_id!r} not defined at t={t} "
                f"(track spans [{own.t_start}, {own.t_end}])"
            )
    return _Scene(
        own, targets, obstacles, hyper or Hyperparameters(), kin or KinodynamicParams(),
        params or RiskParams(), domain_params or DomainParams(),
    )


def _level_search(
    scene: _Scene, times: np.ndarray, beam: bool, score_roots: bool = False
) -> tuple[list[_Level], bool, int]:
    """Expand the ownship states at each of ``times`` (a block of roots)
    level by level over the action grid.

    Each of the ``n_t`` levels lasts ``horizon_T / n_t`` seconds, so every
    level's times are known before any node is expanded: each root's time
    plus dt, accumulated level by level. The targets are placed once per
    search, in one :func:`risk._target_table` of a row per level and root
    (with ``score_roots`` the roots' own rows too, which the roots are then
    scored against). Children are enumerated parent, then speed command,
    then rudder, so they stay grouped by root, and all children of a level
    are scored in one call, each against its root's row of that level.
    With ``beam`` the next level expands only each root's
    :func:`_survivors`, else every child.
    Returns (kept nodes per level, the roots first; whether any target was
    held at a scored node; nodes expanded).
    """
    hyper, own = scene.hyper, scene.own
    roots = StateArrays.of([own.state_at(t) for t in times.tolist()])
    n_roots = times.size
    dt = hyper.horizon_T / hyper.n_t
    # accumulated level by level, as each child's time is its parent's plus dt
    level_times = [times]
    for _ in range(hyper.n_t):
        level_times.append(level_times[-1] + dt)
    first = 0 if score_roots else 1
    targets, held_any = _target_table(scene.targets, np.concatenate(level_times[first:]),
                                      hold_targets=True)

    def scenario(states: StateArrays, depth: int, root: np.ndarray) -> np.ndarray:
        """Scenario risks of ``states``, each at ``depth`` below its root."""
        start = (depth - first) * n_roots
        return _table_risks(states, root, targets.rows(slice(start, start + n_roots)),
                            scene.obstacles, scene.rp, scene.dp)[-1]

    levels = [_Level(
        times, np.arange(n_roots), roots.north, roots.east, roots.speed, roots.heading,
        np.full(n_roots, np.nan),
        scenario(roots, 0, np.arange(n_roots)) if score_roots else np.full(n_roots, np.nan),
        np.full(n_roots, -np.inf), np.full(n_roots, -1),
    )]
    alpha_grid = hyper.alpha_grid()
    act_v = np.repeat(hyper.v_grid(scene.kin), alpha_grid.size)
    act_alpha = np.tile(alpha_grid, act_v.size // alpha_grid.size)
    act_curvature = scene.kin.curvature(act_alpha, own.length)
    expanded = 0
    for depth in range(1, hyper.n_t + 1):
        prev = levels[-1]
        n_parents = prev.north.size
        parent = np.repeat(np.arange(n_parents), act_v.size)
        alpha = np.tile(act_alpha, n_parents)
        v_cmd = np.tile(act_v, n_parents)
        north, east, heading = sail(
            prev.north[parent], prev.east[parent], prev.heading[parent],
            travel_distance(prev.speed, dt)[parent], np.tile(act_curvature, n_parents),
        )
        root = prev.root[parent]
        children = StateArrays(north, east, v_cmd, heading, np.full(north.size, float(own.length)))
        risk = scenario(children, depth, root)
        expanded += north.size
        level = _Level(
            level_times[depth], root, north, east, v_cmd, heading, alpha, risk,
            np.maximum(prev.path_risk[parent], risk), parent,
        )
        if beam:
            level = level.select(
                _survivors(level, levels[0].speed, hyper.tie_eps, hyper.beam_width)
            )
        levels.append(level)
    return levels, held_any, expanded


def _paths(
    levels: list[_Level], root: SearchNode, leaves: np.ndarray
) -> list[list[SearchNode]]:
    """Root-to-leaf node lists of the given last-level nodes of a one-root
    search, read back through the parent indices. Each distinct node is
    built once and shared by every path through it."""
    own = root.state
    index, columns = leaves.tolist(), []
    for lv in levels[:0:-1]:
        distinct = list(dict.fromkeys(index))
        arrays = (lv.north, lv.east, lv.speed, lv.heading, lv.risk, lv.alpha)
        built = {
            i: SearchNode(VesselState(lv.time.item(), north, east, speed, heading, own.length,
                                      own.vessel_type), risk, alpha, speed)
            for i, north, east, speed, heading, risk, alpha
            in zip(distinct, *(a[distinct].tolist() for a in arrays))
        }
        columns.append([built[i] for i in index])
        index = lv.parent[index].tolist()
    columns.append([root] * len(leaves))
    return [list(path) for path in zip(*reversed(columns))]


def _result(
    scene: _Scene, t: float, levels: list[_Level], held_any: bool, expanded: int
) -> PathResult:
    """The search result of a one-root :func:`_level_search` from ``t``
    that scored its root: the last-level paths within ``tie_eps`` of the
    least path risk, stable-sorted by path risk (so in prune order among
    equals) and capped at ``beam_width``."""
    risks = levels[-1].path_risk
    best = float(risks.min())
    keep = np.flatnonzero(risks <= best + scene.hyper.tie_eps)
    keep = keep[np.argsort(risks[keep], kind="stable")][: scene.hyper.beam_width]
    root = SearchNode(scene.own.state_at(t), float(levels[0].risk[0]))
    paths = _paths(levels, root, keep)
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
    ``beam_width`` of them). The targets are every other track of
    ``tracks``, the ownship's other gap segments (``<mmsi>#k``) included,
    and each takes part at every node whatever its span: it follows its
    recorded track inside the span, held at its first state before the
    track starts and at its last after it ends (flagged on the result).

    Because pruning is greedy, the result is an upper bound on the true
    minimum path risk; it is exact for a single level.
    """
    scene = _scene(tracks, ownship_id, [t], hyper, kin, params, domain_params, obstacles)
    return _result(scene, t, *_level_search(
        scene, np.array([t], dtype=float), beam=True, score_roots=True
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
    scene = _scene(tracks, ownship_id, [t], hyper, kin, params, domain_params, obstacles)
    return _result(scene, t, *_level_search(
        scene, np.array([t], dtype=float), beam=False, score_roots=True
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
    """Best-achievable path risk at each query time: the ``sr_star`` of
    :func:`branch_and_bound` at that time, aligned with ``times``.

    The distinct times are the roots of one level search, taken in blocks
    whose widest possible level (roots x ``beam_width`` x actions) stays
    within ``ROOT_BLOCK_NODES``, each block one search with one target
    table; each root is pruned on its own, so the blocks do not change any
    value. The roots themselves are not scored. A root's value is the least
    path risk of its last-level nodes. A window of one distinct time runs
    :func:`branch_and_bound` itself, the search whose results the planner
    counters of ``perfbench/tracer.py`` read.
    """
    distinct = list(dict.fromkeys(map(float, times)))
    if len(distinct) == 1:
        return np.full(len(times), branch_and_bound(
            tracks, ownship_id, distinct[0], hyper, kin, params, domain_params, obstacles
        ).sr_star)
    scene = _scene(tracks, ownship_id, distinct, hyper, kin, params, domain_params, obstacles)
    hyper = scene.hyper
    widest = hyper.beam_width * hyper.n_alpha * hyper.v_grid(scene.kin).size
    per_block = max(1, ROOT_BLOCK_NODES // widest)
    least: list[float] = []
    for lo in range(0, len(distinct), per_block):
        levels, _, _ = _level_search(scene, np.array(distinct[lo:lo + per_block]), beam=True)
        last = levels[-1]
        least += np.minimum.reduceat(last.path_risk, last.root_starts()).tolist()
    by_time = dict(zip(distinct, least))
    return np.array([by_time[float(t)] for t in times], dtype=float)
