"""Collision and grounding risk indices and their composition into a single
scenario risk per vessel and time step.

The building block is a logistic index of the domain scale factor: risk 0.5
at boundary contact, saturating toward 1 deep inside the domain and toward 0
far outside. Collision risk couples a horizon-max mutual domain index with an
instantaneous arena proximity index; grounding risk does the same against
points sampled on shallow-water polygon boundaries.

One broadcast kernel, :func:`collision_risk_grid`, evaluates collision risk
for many own states against a table of target states, one row per distinct
time, at many target speed-change rates in one array pass; the single-pair
functions call it with one of each. A
second kernel scores grounding for many own states, each against only the
chart points strictly inside its arena, channel-width adjustment
included; its horizon maximum is a shift of the points aft along the
heading, not a prediction per offset. A chart keeps its polygon edges
with their bounding boxes, and an arena scan discretizes only the edges
whose box comes near the arena, in one array pass.

:func:`scenario_risks` has a time axis: its own states share one time or
each carry their own (a recorded passage, or a planner level of several
roots). Targets are interpolated once per distinct time, and each own state
is scored against its time's row, so :func:`compute_risk_series` is one
call for a whole window. A planner search builds one such table for all
its levels and scores each level against its rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .geometry import (
    TWO_PI,
    ArenaSpec,
    DomainParams,
    LocalPoint,
    StateArrays,
    VesselTrack,
    _Frame,
    _Quadratic,
    _wrap_heading,
    domain_axes,
    predict_positions,
    require_finite,
)

MUTUAL_MODES = ("max", "prob_or")
# rates sampled by the density-weighted collision risk
DEFAULT_GRID_N = 64
# elements of the (own, targets, rates, offsets) grid scored per kernel
# pass: at most 11 temporaries of this size are alive at once (21 when
# the pass gathers from a block of table rows; tracemalloc peaks of a
# 2,496 x 19 level), so a tied planner level (up to 64 x 39 candidates)
# stays within about a megabyte instead of tens
KERNEL_CHUNK_ELEMS = 8192
# meters added to the shared arena prefilter radius so that rounding never
# drops a point the exact per-state test would keep
ARENA_SLACK = 1.0
# boundary points a chart may be densified into: 16 bytes each, and a few
# times that while they are built
MAX_BOUNDARY_POINTS = 10_000_000
# grid points a resampled track may hold: 40 bytes each (time, north, east,
# speed and heading), and a few times that while they are interpolated
MAX_TRACK_POINTS = 10_000_000
# steps a look-ahead horizon may be sampled in: a kernel pass holds at least
# one own state's whole horizon per target and rate (the defaults take 20)
MAX_HORIZON_STEPS = 10_000

# glibc gives the top of the heap back to the system whenever more than
# 128 KiB lies free there, so each kernel chunk's temporaries would be
# page-faulted in afresh: about 3,700 faults and a third of the time of a
# 400 x 19 collision grid. Freeing one 4 MiB block, above the 128 KiB mmap
# threshold, raises that threshold to 4 MiB and the trim threshold to
# 8 MiB for the rest of the process (glibc's dynamic mmap threshold).
# Other allocators ignore this.
np.empty(1 << 19)


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
            domain index instead of evaluating it instantaneously. The
            vessel holds course and speed, so at offset t each point is
            scored speed * t further aft in the same (channel-adjusted)
            domain.
        channel_adjust: shrink the domain beam inside narrow channels.
        channel_gamma: fraction of the measured channel width the adjusted
            domain beam may occupy.
        channel_corridor: positive forward corridor length used to measure
            channel width; None means the domain semi-major axis.
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
        if not self.horizon_T / self.horizon_step <= MAX_HORIZON_STEPS:
            raise ValueError(f"horizon_step {self.horizon_step!r} divides horizon_T "
                             f"{self.horizon_T!r} into more than {MAX_HORIZON_STEPS:,} steps")
        if self.arena_radius <= 0.0:
            raise ValueError("arena_radius must be positive")
        if self.mutual_mode not in MUTUAL_MODES:
            raise ValueError(f"mutual_mode must be one of {MUTUAL_MODES}")
        if not 0.0 < self.channel_gamma <= 1.0:
            raise ValueError("channel_gamma must lie in (0, 1]")
        if self.channel_corridor is not None and self.channel_corridor <= 0.0:
            raise ValueError(f"channel_corridor must be positive, got {self.channel_corridor}")

    def horizon_offsets(self) -> np.ndarray:
        """Offsets {0, step, ..., T} sampled inside the look-ahead horizon."""
        n = int(math.floor(self.horizon_T / self.horizon_step + 1e-9))
        offsets = self.horizon_step * np.arange(n + 1)
        if offsets[-1] < self.horizon_T - 1e-9:
            offsets = np.append(offsets, self.horizon_T)
        return offsets


def risk_index(f, params: RiskParams | None = None):
    """Logistic risk index of a scale factor: 1 / (1 + exp(kappa (f - f50))).

    Strictly decreasing in f, 0.5 at f = f50, 1 at f = -inf and 0 at
    f = +inf; an exponential that overflows reads as infinity, so extreme
    arguments give 0 without a warning. Accepts scalars or arrays.
    """
    params = params or RiskParams()
    f = np.asarray(f, dtype=float)
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(params.kappa * (f - params.f50)))
    return float(out) if out.ndim == 0 else out


class _Horizon(NamedTuple):
    """Vessels advanced over the horizon offsets, with the terms of their
    domains that do not depend on the other vessel. The other vessel is
    given by the displacement of the target from the own vessel, which
    ``frame`` rotates into this side's domain frame, reversed on the
    target side, whose domain sees the displacement reversed."""

    north: np.ndarray
    east: np.ndarray
    frame: _Frame
    quad: _Quadratic

    @classmethod
    def of(cls, states: StateArrays, north, east, speed, dp: DomainParams, target: bool):
        """The vessels ``states`` at positions (``north``, ``east``), their
        domains sized at ``speed``; all broadcast together."""
        semi_major, semi_minor = domain_axes(speed, states.length, dp)
        frame = _Frame.of(states.heading, reverse=target)
        quad = _Quadratic.of(semi_major, semi_minor, dp.offset_fraction * semi_major, 0.0)
        return cls(north, east, frame, quad)

    def scale_factor(self, d_north, d_east) -> np.ndarray:
        return self.quad.solve(*self.frame(d_north, d_east))

    def take(self, index) -> "_Horizon":
        """The vessels at ``index`` (a slice or an index array) along the
        first axis."""
        frame, quad = (type(p)(*(a if a is None else a[index] for a in p)) for p in self[2:])
        return _Horizon(self.north[index], self.east[index], frame, quad)


def _own_horizon(own: StateArrays, offsets: np.ndarray, dp: DomainParams) -> _Horizon:
    """Own vessels, holding speed and course: their positions as (own, 1,
    1, offsets), and their frames and domains, the same at every offset,
    as (own, 1, 1, 1), sized at the speed held at offset 0."""
    o = own.expand(0, 4)
    north, east, speed = predict_positions(o, offsets)
    return _Horizon.of(o, north, east, speed[..., :1], dp, target=False)


def _target_horizon(
    tgt: StateArrays, offsets: np.ndarray, rates: np.ndarray, dp: DomainParams
) -> _Horizon:
    """A (times, targets) table of targets changing speed at each rate, as
    (times, targets, rates, offsets)."""
    g = StateArrays(*(a[..., None, None] for a in tgt))
    return _Horizon.of(g, *predict_positions(g, offsets, rates[:, None]), dp, target=True)


def _mutual_index(own: _Horizon, tgt: _Horizon, rp: RiskParams) -> np.ndarray:
    """Horizon-max mutual domain index, shape (own, targets, rates).

    Both directed scale factors are evaluated on the (own, targets, rates,
    horizon offsets) grid. With ``mutual_mode`` "max" the smaller of the
    two is taken and minimized over the offsets before the risk index is
    applied once per (own, target, rate): the index never rises with f, so
    the largest index is the index of the smallest f. "prob_or" combines
    the two directed indices at each offset and takes their maximum.
    """
    d_north = tgt.north - own.north
    d_east = tgt.east - own.east
    f_own = own.scale_factor(d_north, d_east)
    f_tgt = tgt.scale_factor(d_north, d_east)
    if rp.mutual_mode == "prob_or":
        r_own, r_tgt = risk_index(f_own, rp), risk_index(f_tgt, rp)
        return (r_own + r_tgt - r_own * r_tgt).max(axis=-1)
    return risk_index(np.minimum(f_own, f_tgt, out=f_own).min(axis=-1), rp)


def collision_risk_grid(
    own: StateArrays, tgt: StateArrays, rates, rp: RiskParams, dp: DomainParams, rows=None
) -> np.ndarray:
    """Collision risk of every own state against every target state at
    every target speed-change rate, shape (own, targets, rates).

    Target fields form a (times, targets) table, one row per distinct
    time, and ``rows`` holds each own state's row (row 0 when omitted); a
    (targets,) field is a one-row table. The horizon-max mutual index
    (:func:`_mutual_index`) is weighted by the instantaneous arena index,
    a logistic of distance over arena radius. Each side is built once per
    call: the own horizon (:func:`_own_horizon`) for every own state, and
    each row's target horizon, in blocks of rows. Own states go in chunks,
    each of about ``KERNEL_CHUNK_ELEMS`` grid elements; a chunk of
    consecutive own states reads its rows of the own horizon as a slice. A
    chunk uses a one-row block, or one it reads row by row in order, as it
    is (a recorded passage, where each step has its own row), and gathers
    rows otherwise.
    """
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    offsets = rp.horizon_offsets()
    tgt = StateArrays(*map(np.atleast_2d, tgt))
    n_own, (n_rows, n_tgt) = own.north.size, tgt.north.shape
    rows = np.zeros(n_own, dtype=int) if rows is None else rows
    out = np.empty((n_own, n_tgt, rates.size))
    own_horizon = _own_horizon(own, offsets, dp)
    chunk = max(1, KERNEL_CHUNK_ELEMS // max(n_tgt * rates.size * offsets.size, 1))
    for first in range(0, n_rows, chunk):
        block = tgt.select(slice(first, first + chunk))
        horizon = _target_horizon(block, offsets, rates, dp)
        readers = np.flatnonzero((rows >= first) & (rows < first + chunk))
        for lo in range(0, readers.size, chunk):
            index = readers[lo:lo + chunk]
            if index[-1] - index[0] == index.size - 1:  # sorted, so consecutive
                index = slice(index[0], index[-1] + 1)
            near, targets, local = block, horizon, rows[index] - first
            if n_rows > 1 and not np.array_equal(local, np.arange(len(block.north))):
                near, targets = block.select(local), horizon.take(local)
            dist = np.hypot(own.north[index, None] - near.north,
                            own.east[index, None] - near.east)
            arena = risk_index(dist / rp.arena_radius, rp)[:, :, None]
            out[index] = _mutual_index(own_horizon.take(index), targets, rp) * arena
    return out


def _pair_states(track_j: VesselTrack, track_k: VesselTrack, t: float, params, domain_params):
    """Vessels j and k at time t, each as one-vessel :class:`StateArrays`,
    and the risk and domain parameter blocks, defaults where not given."""
    own, tgt = (StateArrays.of([track.state_at(t)]) for track in (track_j, track_k))
    return own, tgt, params or RiskParams(), domain_params or DomainParams()


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
    own, tgt, rp, dp = _pair_states(track_j, track_k, t, params, domain_params)
    offsets = rp.horizon_offsets()
    own = _own_horizon(own, offsets, dp)
    tgt = _target_horizon(tgt, offsets, np.array([float(rate)]), dp)
    return float(_mutual_index(own, tgt, rp)[0, 0, 0])


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
    own, tgt, rp, dp = _pair_states(track_j, track_k, t, params, domain_params)
    return float(collision_risk_grid(own, tgt, rate, rp, dp)[0, 0, 0])


class _Edges(NamedTuple):
    """Polygon edges, laid end to end ring by ring: each edge's first
    vertex and its vector to the next, (E, 2); the number of boundary
    points it gets, (E,); and the bounding box of its two vertices, whose
    low and high corners are (2, E), north then east."""

    start: np.ndarray
    vector: np.ndarray
    n: np.ndarray
    low: np.ndarray
    high: np.ndarray

    @classmethod
    def of(cls, polygons: Sequence[np.ndarray], spacing: float) -> "_Edges":
        """The edges of the closed rings ``polygons``, discretized at
        intervals no longer than ``spacing``: an edge of length L gets
        ceil(L / spacing) points, none when L is 0. A ring whose end
        vertices differ (``np.allclose``'s test), a spacing that is not
        positive and finite, a coordinate that is not finite, or a point
        count above ``MAX_BOUNDARY_POINTS`` raises ValueError; no point is
        made here."""
        sizes = np.array([len(ring) for ring in polygons], dtype=np.intp)
        vertices = np.concatenate([np.empty((0, 2)), *polygons])
        ends = np.cumsum(sizes)
        closed = np.isclose(vertices[ends - sizes], vertices[ends - 1]).all(axis=1)
        if not closed.all():
            raise ValueError(f"polygon {int(np.argmin(closed))} is not closed")
        if not 0.0 < spacing < math.inf:
            raise ValueError(f"spacing must be positive and finite, got {spacing}")
        # an edge starts at every vertex but its ring's last
        first = np.delete(np.arange(vertices.shape[0]), ends - 1)
        start, stop = vertices[first], vertices[first + 1]
        vector = stop - start
        edge_len = np.hypot(vector[:, 0], vector[:, 1])
        if not np.isfinite(edge_len).all():
            raise ValueError("polygon coordinates must be finite")
        n = np.where(edge_len == 0.0, 0, np.maximum(1, np.ceil(edge_len / spacing - 1e-12)))
        total = n.sum()
        if not total <= MAX_BOUNDARY_POINTS:  # an edge's count may even be inf
            raise ValueError(f"spacing {spacing} gives {total:g} boundary points, "
                             f"more than the {MAX_BOUNDARY_POINTS:,} a chart may have")
        low, high = np.minimum(start, stop).T.copy(), np.maximum(start, stop).T.copy()
        return cls(start, vector, n.astype(int), low, high)

    def densify(self, index=slice(None)) -> np.ndarray:
        """The boundary points of the edges at ``index`` (a slice or an
        array of edge indices in ascending order), (N, 2), edge by edge:
        the k-th of an edge's n points is its start plus k / n of its
        vector, so it lies in the edge's box, and the shared end vertex
        belongs to the next edge."""
        start, vector, n = self.start[index], self.vector[index], self.n[index]
        # k-th point of its edge: position in the output minus the edge's first slot
        first = np.cumsum(n) - n
        k = np.arange(n.sum()) - np.repeat(first, n)
        fracs = k / np.repeat(n, n)
        return np.repeat(start, n, axis=0) + fracs[:, None] * np.repeat(vector, n, axis=0)


@dataclass
class ObstacleSet:
    """Shallow-water obstacle polygons, kept as their edges.

    ``polygons`` holds closed rings as (N, 2) north/east arrays (first
    vertex repeated last). ``boundary_points`` is the concatenation of all
    ring boundaries discretized at ``spacing`` meters
    (:func:`densify_boundaries`), built when first read. An arena scan
    (:meth:`points_in_arena`) makes only the points of the edges whose
    bounding box comes near the arena. Rings, coordinates, spacing and the
    point budget are checked when the set is made.
    """

    polygons: list[np.ndarray] = field(default_factory=list)
    spacing: float = 50.0

    def __post_init__(self) -> None:
        self.polygons = [np.asarray(p, dtype=float) for p in self.polygons]
        for i, poly in enumerate(self.polygons):
            if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 4:
                raise ValueError(f"polygon {i} is not a closed ring of 2d points")
        self._edges = _Edges.of(self.polygons, self.spacing)

    @property
    def is_empty(self) -> bool:
        return len(self.polygons) == 0

    @functools.cached_property
    def boundary_points(self) -> np.ndarray:
        return self._edges.densify()

    def points_in_arena(self, arena: ArenaSpec) -> np.ndarray:
        """Boundary points strictly inside the arena circle, (M, 2), in
        their original order.

        Only the edges whose box lies within the radius of the center in
        both coordinates, widened by a margin far above rounding error,
        are densified, and their points take the exact distance test,
        which is the one every point would take. A point it keeps lies in
        its edge's box and has |offset| <= distance < radius in each
        coordinate, so none is lost.
        """
        north, east, radius = arena.center.north, arena.center.east, arena.radius
        reach = radius + 1e-9 * (abs(north) + abs(east) + radius)
        low, high = self._edges.low, self._edges.high
        near = np.flatnonzero(
            (low[0] <= north + reach) & (high[0] >= north - reach)
            & (low[1] <= east + reach) & (high[1] >= east - reach)
        )
        points = self._edges.densify(near)
        d = points - np.array([north, east])
        return points[np.hypot(d[:, 0], d[:, 1]) < radius]


def densify_boundaries(polygons: Sequence[np.ndarray], spacing: float) -> np.ndarray:
    """Discretize closed rings at intervals no longer than ``spacing``.

    Each edge of length L contributes ceil(L / spacing) points starting at
    the edge's first vertex; the shared end vertex belongs to the next
    edge, so rings produce no duplicates. All edges are handled in one
    array pass. Returns the (N, 2) points. A ring that is not closed, a
    spacing that is not positive and finite, or one so small that the
    point count exceeds ``MAX_BOUNDARY_POINTS``, raises ValueError before
    any point is made.
    """
    return _Edges.of(polygons, spacing).densify()


def _outside_unit(value):
    """First entry of ``value`` outside [0, 1] (NaN included), else None."""
    value = np.asarray(value)
    bad = ~((value >= 0.0) & (value <= 1.0))
    return value[bad].flat[0] if bad.any() else None


def compose_scenario_risk(collision_risks: Iterable[float], grounding_max: float) -> float:
    """Union of independent per-hazard risks.

    Folds collision risks and the grounding maximum with
    sr <- r + sr * (1 - r), which equals one minus the product of the
    complements. Inputs outside [0, 1] are rejected, the first of them
    named, before anything is folded; all are checked in one pass. Each
    risk may also be an array over own states, folded element by element.
    """
    risks = [*collision_risks, grounding_max]
    flat = np.concatenate([np.ravel(r) for r in risks])
    if _outside_unit(flat) is not None:
        i = next(i for i, r in enumerate(risks) if _outside_unit(r) is not None)
        if i < len(risks) - 1:
            raise ValueError(f"collision risk #{i} = {_outside_unit(risks[i])} outside [0, 1]")
        raise ValueError(f"grounding risk {_outside_unit(grounding_max)} outside [0, 1]")
    sr = 0.0
    for cr in risks[:-1]:
        sr = cr + sr * (1.0 - cr)
    return grounding_max + sr * (1.0 - grounding_max)


@dataclass
class RiskSeries:
    """Risk breakdown of own states from :func:`scenario_risks`: one entry
    per own state in each array, ``times`` as given, and whether any
    target was held at an end of its track."""

    times: float | np.ndarray
    collision: dict[str, np.ndarray]
    collision_wavg: dict[str, np.ndarray]
    grounding: np.ndarray
    scenario: np.ndarray
    targets_held: bool = False

    def target_ids(self) -> list[str]:
        return sorted(self.collision)


# north, east, speed, heading and hull length of a target absent at a
# query time; the caller zeroes its risk
_ABSENT = (0.0, 0.0, 0.0, 0.0, 1.0)


def _own_and_targets(
    tracks: Mapping[str, VesselTrack], ownship_id: str
) -> tuple[VesselTrack, list[VesselTrack]]:
    """The ownship's track and its targets: every other track of
    ``tracks``, whatever its span, its own other gap segments (``<mmsi>#k``)
    included; :func:`_target_table` orders them. An ownship not among the
    tracks raises KeyError."""
    if ownship_id not in tracks:
        raise KeyError(f"ownship {ownship_id!r} not among tracks")
    return tracks[ownship_id], [track for tid, track in tracks.items() if tid != ownship_id]


class _Targets(NamedTuple):
    """Targets placed at a block of times by :func:`_target_table`: their
    tracks, one per id in id order; their states as a (times, targets)
    table, each field a contiguous row per time, as the kernel reads best
    (``_ABSENT``'s values where absent); and the (times, targets) presence
    mask."""

    tracks: list[VesselTrack]
    states: StateArrays
    present: np.ndarray

    def rows(self, index: slice) -> "_Targets":
        """The table at the times ``index`` selects."""
        return _Targets(self.tracks, self.states.select(index), self.present[index])


def _target_table(
    target_tracks: Sequence[VesselTrack], times: np.ndarray, hold_targets: bool
) -> tuple[_Targets, bool]:
    """The targets present at any of ``times``, placed at each, and whether
    any was held at an end of its track.

    A target's state inside its span is :meth:`VesselTrack.state_at`'s, bit
    for bit: the sample on a grid time or at the track's end, else the
    interpolation between the samples around it. Each track's times are
    searched once for all of ``times``; the samples found and the next
    ones are gathered from every track at once, and every cell is
    interpolated in one array pass.
    """
    by_id = {track.track_id: track for track in target_tracks}
    tracks = [by_id[tid] for tid in sorted(by_id)]
    spans = np.array([(track.times[0], track.times[-1]) for track in tracks]).reshape(-1, 2)
    # a target is held wherever clamping into its span moves the time
    clamped = np.clip(times[:, None], spans[:, 0], spans[:, 1])
    covered = clamped == times[:, None]
    present = covered | hold_targets
    keep = present.any(axis=0)
    tracks = [track for track, kept in zip(tracks, keep.tolist()) if kept]
    present, clamped = present[:, keep], clamped[:, keep]
    # each cell's sample at or before its time, into the samples of each
    # track from the first one a cell finds to the one after the last
    found = np.empty(clamped.shape, dtype=np.intp)
    for k, track in enumerate(tracks):
        found[:, k] = track.times.searchsorted(clamped[:, k], "right")
    found -= 1
    sizes = np.array([track.times.size for track in tracks], dtype=np.intp)
    lo = found.min(axis=0, initial=np.iinfo(np.intp).max)
    hi = np.minimum(found.max(axis=0, initial=0) + 2, sizes)
    # each field's samples of every track, none when there are no tracks
    t, north, east, speed, heading = parts = tuple([np.empty(0)] for _ in range(5))
    for track, a, b in zip(tracks, lo.tolist(), hi.tolist()):
        cut = slice(a, b)
        t.append(track.times[cut])
        north.append(track.north[cut])
        east.append(track.east[cut])
        speed.append(track.speed[cut])
        heading.append(track.heading[cut])
    t, north, east, speed, heading = map(np.concatenate, parts)
    # each cell's samples as indices into the windows laid end to end
    last = found == sizes - 1
    at = found + (np.cumsum(hi - lo) - hi)
    after = np.where(last, at, at + 1)
    exact = last | (t[at] == clamped)
    frac = (clamped - t[at]) / np.where(exact, 1.0, t[after] - t[at])
    table = np.empty((5, *clamped.shape))
    for f, values in enumerate((north, east, speed)):
        start = values[at]
        table[f] = np.where(exact, start, start + frac * (values[after] - start))
    # interp_heading's turn along the shorter arc, wrapped as normalize_heading wraps
    start = heading[at]
    turn = (heading[after] - start + math.pi) % TWO_PI - math.pi
    table[3] = np.where(exact, start, _wrap_heading(start + frac * turn))
    table[4] = [track.length for track in tracks]
    table[:, ~present] = np.reshape(_ABSENT, (5, 1))
    return _Targets(tracks, StateArrays(*table), present), hold_targets and not covered.all()


def _grounding_max(
    own: StateArrays, obstacles: ObstacleSet, rp: RiskParams, dp: DomainParams
) -> np.ndarray:
    """Maximum grounding risk of each own state against the charted points
    strictly inside its arena, 0 when there are none; shape (own,).

    Each point acts as a zero-speed virtual vessel: its risk is the domain
    index times the instantaneous arena index. The domain index is
    instantaneous, or with ``rp.grounding_horizon_max`` its maximum over
    the horizon offsets (vessel moves, points stand still): at offset t a
    point at (x, y) in the domain frame sits at (x - speed * t, y).

    With ``rp.channel_adjust`` the beam shrinks in a narrow channel. Its
    width is the nearest perpendicular distance to port plus the nearest to
    starboard over the points in the forward corridor (``channel_corridor``,
    default the semi-major axis), each side capped at the arena radius, so
    open water never shrinks it. When twice the semi-minor axis exceeds the
    width, the beam shrinks to ``channel_gamma * width / 2`` (at least 1 mm).

    The chart is scanned once for points near any of the states (within
    the arena radius plus the states' spread around their centroid). Own
    states then go in blocks, and one distance pass per block keeps the
    (state, point) pairs strictly inside each state's arena. Only those
    are scored: a point at or beyond the radius would score exactly 0 and
    take no part in the channel width. Each state's channel sides and
    maximum reduce its run of pairs, and min and max are exact in any
    order. A block is sized for about ``KERNEL_CHUNK_ELEMS`` elements of
    (horizon offsets, pairs), at the pairs per state kept so far (the first
    as if every point were kept), and its distance pass, three floats and
    a flag per (state, point), holds at most four times that many cells,
    so the temporaries stay within a megabyte or two.
    """
    n_own = own.north.size
    out = np.zeros(n_own)
    center_n, center_e = float(np.mean(own.north)), float(np.mean(own.east))
    spread = float(np.max(np.hypot(own.north - center_n, own.east - center_e)))
    near = obstacles.points_in_arena(
        ArenaSpec(rp.arena_radius + spread + ARENA_SLACK, LocalPoint(center_n, center_e))
    )
    if near.size == 0:
        return out
    offsets = rp.horizon_offsets()[:, None] if rp.grounding_horizon_max else None
    budget = max(1, KERNEL_CHUNK_ELEMS // (1 if offsets is None else offsets.size))
    near_north, near_east = np.ascontiguousarray(near.T)
    radius = rp.arena_radius
    lo, rows, kept = 0, max(1, budget // near_north.size), 0
    while lo < n_own:
        block = slice(lo, lo + rows)
        o = own.select(block)
        d_north = near_north - o.north[:, None]
        d_east = near_east - o.east[:, None]
        dist = np.hypot(d_north, d_east)
        inside = dist < radius
        d_north, d_east, dist = d_north[inside], d_east[inside], dist[inside]
        counts = np.count_nonzero(inside, axis=1)
        lo, kept = lo + rows, kept + dist.size
        rows = max(1, min(budget * lo // max(kept, 1), 4 * KERNEL_CHUNK_ELEMS // near_north.size))
        if dist.size == 0:
            continue
        # each state's pairs form a run; runs start where their state has any
        some = counts > 0
        runs = (np.cumsum(counts) - counts)[some]
        semi_major, semi_minor = domain_axes(o.speed, o.length, dp)
        x, y = _Frame(*(np.repeat(c, counts) for c in _Frame.of(o.heading)))(d_north, d_east)
        if rp.channel_adjust:
            corridor = (np.repeat(semi_major, counts) if rp.channel_corridor is None
                        else rp.channel_corridor)
            ahead = (x >= 0.0) & (x <= corridor)
            starboard, port = np.full(counts.size, radius), np.full(counts.size, radius)
            starboard[some] = np.minimum.reduceat(np.where(ahead & (y > 0.0), y, radius), runs)
            port[some] = np.minimum.reduceat(np.where(ahead & (y < 0.0), -y, radius), runs)
            # capped at the radius, as a side with no point reads
            width = np.minimum(port, radius) + np.minimum(starboard, radius)
            new_minor = np.maximum(rp.channel_gamma * width / 2.0, 1e-3)
            shrink = (2.0 * semi_minor > width) & (new_minor < semi_minor)
            semi_minor = np.where(shrink, new_minor, semi_minor)
        quad = _Quadratic.of(semi_major, semi_minor, dp.offset_fraction * semi_major, 0.0)
        quad = _Quadratic(*(a if a is None else np.repeat(a, counts) for a in quad))
        if offsets is None:
            f = quad.solve(x, y)
        else:
            # offsets lead, (offsets, pairs); the smallest f gives the
            # largest index
            f = quad.solve(x - offsets * np.repeat(o.speed, counts), y).min(axis=0)
        risk = risk_index(f, rp) * risk_index(dist / radius, rp)
        out[block][some] = np.maximum.reduceat(risk, runs)
    return out


def scenario_risks(
    own: StateArrays,
    t,
    target_tracks: Sequence[VesselTrack],
    obstacles: ObstacleSet | None,
    params: RiskParams | None = None,
    domain_params: DomainParams | None = None,
    hold_targets: bool = False,
    models: Mapping | None = None,
    wavg_grid_n: int = DEFAULT_GRID_N,
) -> RiskSeries:
    """Scenario risk of ownship states at ``t``: one time shared by every
    own state, or an array of one time per own state.

    The targets are ``target_tracks``, one per track id (the last given of
    tracks sharing one); :func:`compute_risk_series` and the planner pass
    every track but the ownship's (:func:`_own_and_targets`). A target
    takes part at the times inside its track's span, at its interpolated
    state, and scores exactly 0 at the others; with ``hold_targets`` it
    takes part at every time, held at its first state before its track
    starts and at its last after it ends (``targets_held``). It has a
    column when it takes part at any of the times. Its deterministic
    collision risk is used in the composition; when ``models`` maps its
    VesselType to a speed-change model, its probabilistic risk (one rate
    quadrature over all own states) is used instead. Collision risks fold
    in sorted target-id order. Targets are interpolated and the chart is
    prefiltered once per distinct time; one :func:`collision_risk_grid`
    call scores all pairs.
    """
    rp = params or RiskParams()
    dp = domain_params or DomainParams()
    times = np.asarray(t, dtype=float)
    if times.ndim and times.shape != own.north.shape or not np.isfinite(times).all():
        raise ValueError(f"need one time or {own.north.size} times, each finite, got {t!r}")
    distinct, rows = np.unique(np.broadcast_to(times, own.north.shape), return_inverse=True)
    targets, held_any = _target_table(target_tracks, distinct, hold_targets)
    collision, collision_wavg, grounding, scenario = _table_risks(
        own, rows, targets, obstacles, rp, dp, models, wavg_grid_n
    )
    return RiskSeries(
        times=t,
        collision=collision,
        collision_wavg=collision_wavg,
        grounding=grounding,
        scenario=scenario,
        targets_held=held_any,
    )


def _table_risks(
    own: StateArrays,
    rows: np.ndarray,
    targets: _Targets,
    obstacles: ObstacleSet | None,
    rp: RiskParams,
    dp: DomainParams,
    models: Mapping | None = None,
    wavg_grid_n: int = DEFAULT_GRID_N,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """The risks :func:`scenario_risks` reports, of own states each against
    its row of a target table: ``rows`` holds each own state's row, and
    every row has at least one own state. Returns the collision columns and
    the weighted ones by target id, the grounding maxima and the scenario
    risks, one entry per own state in each. A planner search builds its
    table once and scores each level here."""
    tracks, tgt, present = targets
    cr = collision_risk_grid(own, tgt, 0.0, rp, dp, rows)[..., 0]
    # each own state's presence row, not held while the kernel runs
    present = present[rows]
    cr = np.where(present, cr, 0.0)
    collision = {track.track_id: cr[:, k] for k, track in enumerate(tracks)}
    collision_wavg: dict[str, np.ndarray] = {}
    for k, track in enumerate(tracks if models else ()):
        model = models.get(track.vessel_type)
        if model is None:
            continue
        one = tgt.select(np.s_[:, k:k + 1])
        wavg = rate_weighted_mean(
            lambda r: collision_risk_grid(own, one, r, rp, dp, rows)[:, 0], model, wavg_grid_n
        )
        collision_wavg[track.track_id] = np.where(present[:, k], wavg, 0.0)
    grounding = np.zeros(own.north.size)
    if obstacles is not None and not obstacles.is_empty:
        for group in (rows == r for r in range(tgt.north.shape[0])):
            grounding[group] = _grounding_max(own.select(group), obstacles, rp, dp)
    effective = [collision_wavg.get(tid, column) for tid, column in collision.items()]
    return collision, collision_wavg, grounding, compose_scenario_risk(effective, grounding)


def rate_weighted_mean(
    value_at: Callable[[np.ndarray], np.ndarray], model, grid_n: int
) -> float | np.ndarray:
    """Density-weighted mean of ``value_at(rates)`` over speed-change rates.

    ``value_at`` maps an array of rates to the values at those rates along
    its last axis and is called once; any leading axes get one mean per
    index, and values without leading axes give a float. It is evaluated
    at ``grid_n`` rates spanning ``model.support``, and each value is
    weighted by ``model.density`` times the composite trapezoid
    coefficient. A single-point support collapses to the value at that
    rate; a density with zero mass over the grid falls back to the value
    at rate 0.
    """
    lo, hi = model.support
    if hi - lo <= 1e-15:
        rates, weights = np.array([0.5 * (lo + hi)]), np.ones(1)
    else:
        if grid_n < 2:
            raise ValueError(f"grid_n must be at least 2, got {grid_n}")
        rates = np.linspace(lo, hi, grid_n)
        trapezoid = np.ones(grid_n)
        trapezoid[0] = trapezoid[-1] = 0.5
        weights = np.asarray(model.density(rates), dtype=float) * trapezoid
        if weights.sum() <= 0.0:
            rates, weights = np.zeros(1), np.ones(1)
    values = np.asarray(value_at(rates), dtype=float)
    # one dot product per row keeps the one-row summation order
    sums = [np.dot(weights, row) for row in values.reshape(-1, rates.size)]
    mean = np.reshape(sums, values.shape[:-1]) / weights.sum()
    return float(mean) if mean.ndim == 0 else mean


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

    Steps are the ownship grid times inside the window, scored in one
    :func:`scenario_risks` call against :func:`_own_and_targets`' targets,
    each zero at steps outside its track's span. Collision columns cover
    every target that appears at least once in the window.
    """
    own, targets = _own_and_targets(tracks, ownship_id)
    if t_end < t_start:
        raise ValueError(f"empty window [{t_start}, {t_end}]")
    mask = (own.times >= t_start - 1e-9) & (own.times <= t_end + 1e-9)
    times = own.times[mask]
    if times.size == 0:
        raise ValueError(
            f"window [{t_start}, {t_end}] contains no grid steps of {ownship_id!r}"
        )
    states = StateArrays(
        own.north[mask], own.east[mask], own.speed[mask], own.heading[mask],
        np.full(times.size, float(own.length)),
    )
    return scenario_risks(
        states, times, targets, obstacles, params, domain_params,
        models=models, wavg_grid_n=wavg_grid_n,
    )
