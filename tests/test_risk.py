import math
import tracemalloc
from dataclasses import replace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamanship.geometry import (
    ArenaSpec,
    DomainParams,
    DomainSpec,
    LocalPoint,
    StateArrays,
    VesselState,
    VesselTrack,
    VesselType,
    _Frame,
    _Quadratic,
    domain_axes,
    make_domain,
    predict_positions,
    predict_state,
    sail,
    scale_factor,
)
from seamanship import risk
from seamanship.ingest import Scenario
from seamanship.risk import (
    MUTUAL_MODES,
    ObstacleSet,
    RiskParams,
    collision_risk_grid,
    compose_scenario_risk,
    compute_risk_series,
    densify_boundaries,
    mutual_collision_risk,
    overall_collision_risk,
    rate_weighted_mean,
    risk_index,
    scenario_risks,
)
from seamanship.speedmodel import SpeedChangeModel
from .test_geometry import (
    EDGE_RATES,
    extreme_coordinates,
    old_solve,
    old_travel_distance,
    reference_state_at,
    reference_state_at_clamped,
    same_bits,
    straight_track,
)


class TestRiskIndex:
    def test_midpoint(self):
        assert risk_index(1.0) == 0.5

    def test_deep_violation(self):
        assert risk_index(0.0) == pytest.approx(0.9999546021312976, abs=1e-12)

    def test_clear_water(self):
        assert risk_index(1.5) == pytest.approx(0.0066928509242848554, abs=1e-12)

    @given(
        f=st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-math.inf, math.inf])),
        kappa=st.floats(0.1, 50.0),
        f50=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_libm_logistic(self, f, kappa, f50):
        # an exponential past the float range is infinite, so the index is 0
        try:
            expected = 1.0 / (1.0 + math.exp(kappa * (f - f50)))
        except OverflowError:
            expected = 0.0
        rp = RiskParams(kappa=kappa, f50=f50)
        for got in (risk_index(f, rp), risk_index(np.full(3, f), rp)[1]):
            assert abs(got - expected) <= 1e-15 * expected

    @given(kappa=st.floats(0.1, 50.0), f50=st.floats(-1e3, 1e3))
    def test_half_at_f50_and_nan_stays_nan(self, kappa, f50):
        rp = RiskParams(kappa=kappa, f50=f50)
        assert risk_index(f50, rp) == 0.5
        assert math.isnan(risk_index(math.nan, rp))

    def test_overflow_safe(self):
        with np.errstate(over="raise"):
            assert risk_index(1e9) == 0.0
            assert risk_index(-1e9) == 1.0

    @given(
        f=st.lists(
            st.one_of(
                st.floats(allow_nan=False),
                st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
                # exp overflows above f = 71.98 at the default kappa and f50
                st.floats(72.0, 1e308),
            ),
            min_size=1,
            max_size=64,
        ),
        kappa=st.floats(0.1, 50.0),
        f50=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_index_of_minimum_is_maximum_of_indices(self, f, kappa, f50):
        # the collision kernel takes the index of the smallest scale factor
        # for the largest index; that needs the index never to rise with f
        # in floating point, which each value and its neighbours check
        rp = RiskParams(kappa=kappa, f50=f50)
        f = np.array(f)
        with np.errstate(over="ignore"):  # the neighbour above the largest float is inf
            below, above = np.nextafter(f, -math.inf), np.nextafter(f, math.inf)
        for g in (below, f, above):
            got = risk_index(np.minimum(f, g), rp)
            expected = np.maximum(risk_index(f, rp), risk_index(g, rp))
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_strictly_decreasing(self):
        # band and minimum gap chosen so consecutive logistic values stay
        # resolvable in float64
        f = np.sort(np.random.default_rng(3).uniform(-2.0, 4.0, 1000))
        f = f[np.concatenate([[True], np.diff(f) > 1e-3])]
        r = risk_index(f)
        assert np.all(np.diff(r) < 0.0)


def closed_square(cn, ce, half):
    return np.array(
        [
            [cn - half, ce - half],
            [cn - half, ce + half],
            [cn + half, ce + half],
            [cn + half, ce - half],
            [cn - half, ce - half],
        ]
    )


class TestMutualAndOverall:
    def test_diverging_vessels_negligible(self):
        a = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 61)
        b = straight_track("b", 0.0, -3000.0, 0.0, 5.0, math.pi, 61)
        assert mutual_collision_risk(a, b, 0.0) < 0.01

    def test_inside_domain_high(self):
        # b sits well within a's 400 x 160 domain at t=0 (f ~ 0.52)
        a = straight_track("a", 0.0, 0.0, 0.0, 0.0, 0.0, 11)
        b = straight_track("b", 0.0, 0.0, 80.0, 0.0, 0.0, 11)
        r = mutual_collision_risk(a, b, 0.0)
        assert r > 0.99

    def test_symmetric_in_arguments_when_rate_zero(self):
        a = straight_track("a", 0.0, 0.0, 0.0, 4.0, 0.3, 61)
        b = straight_track("b", 0.0, 900.0, 300.0, 6.0, math.pi, 61, length=150.0)
        assert mutual_collision_risk(a, b, 0.0) == pytest.approx(
            mutual_collision_risk(b, a, 0.0), abs=1e-12
        )

    def test_prob_or_at_least_max(self):
        a = straight_track("a", 0.0, 0.0, 0.0, 4.0, 0.0, 61)
        b = straight_track("b", 0.0, 1500.0, 100.0, 4.0, math.pi, 61)
        r_max = mutual_collision_risk(a, b, 0.0, params=RiskParams(mutual_mode="max"))
        r_or = mutual_collision_risk(a, b, 0.0, params=RiskParams(mutual_mode="prob_or"))
        assert r_or >= r_max - 1e-12

    def test_overall_zero_mutual_is_zero(self):
        a = straight_track("a", 0.0, 0.0, 0.0, 0.0, 0.0, 11)
        b = straight_track("b", 0.0, 0.0, 50000.0, 0.0, 0.0, 11)
        assert overall_collision_risk(a, b, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_overall_outside_arena_negligible(self):
        # target converging but still 4 km out: arena index kills the product
        a = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 61)
        b = straight_track("b", 0.0, 4000.0, 0.0, 5.0, math.pi, 61)
        assert overall_collision_risk(a, b, 0.0) < 1e-9

    def test_overall_bounded_by_mutual(self):
        a = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 61)
        b = straight_track("b", 0.0, 800.0, 0.0, 5.0, math.pi, 61)
        cr = overall_collision_risk(a, b, 0.0)
        r = mutual_collision_risk(a, b, 0.0)
        assert 0.0 <= cr <= r

    def test_pair_states_read_as_state_at(self):
        """Both vessels come from one reader call with ``state_at``'s bits,
        on and between samples and at a track's end; a time outside either
        span raises naming that track."""
        a = straight_track("a", 0.0, 0.0, 0.0, 4.0, 0.3, 61)
        b = straight_track("b", 100.0, 900.0, 300.0, 6.0, 6.2, 61, length=150.0)
        for t in (100.0, 123.4, 600.0):
            own, tgt, _, _ = risk._pair_states(a, b, t, None, None)
            for got, track in ((own, a), (tgt, b)):
                assert same_bits(got, StateArrays.of([track.state_at(t)]))
        for t, outside in ((50.0, "b"), (650.0, "a")):
            with pytest.raises(ValueError, match=f"track '{outside}': time {t} outside"):
                risk._pair_states(a, b, t, None, None)


def points_in_arena(polygons, arena, spacing):
    return ObstacleSet(polygons, spacing=spacing).points_in_arena(arena)


def reference_points_in_arena(points, arena):
    """The exact distance test over every point, the reference for the
    edge-box cut."""
    d = points - np.array([arena.center.north, arena.center.east])
    return points[np.hypot(d[:, 0], d[:, 1]) < arena.radius]


# Verbatim copies of the chart and grounding code that the edge index and
# the per-state grounding pairs replaced: the densified chart, its scan of
# a north band of sorted points, the dense (states, points) grounding grid
# and the maximum over it. The replacements must give the same bits.


def old_densify_boundaries(polygons, spacing):
    """``risk.densify_boundaries`` before the chart kept its edges."""
    if not 0.0 < spacing < math.inf:
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    if not polygons:
        return np.empty((0, 2))
    start = np.concatenate([ring[:-1] for ring in polygons])
    edge = np.concatenate([ring[1:] for ring in polygons]) - start
    edge_len = np.hypot(edge[:, 0], edge[:, 1])
    if not np.isfinite(edge_len).all():
        raise ValueError("polygon coordinates must be finite")
    n = np.where(edge_len == 0.0, 0, np.maximum(1, np.ceil(edge_len / spacing - 1e-12)))
    total = n.sum()
    if not total <= risk.MAX_BOUNDARY_POINTS:  # an edge's count may even be inf
        raise ValueError(f"spacing {spacing} gives {total:g} boundary points, "
                         f"more than the {risk.MAX_BOUNDARY_POINTS:,} a chart may have")
    n = n.astype(int)
    # k-th point of its edge: position in the output minus the edge's first slot
    first = np.cumsum(n) - n
    k = np.arange(n.sum()) - np.repeat(first, n)
    fracs = k / np.repeat(n, n)
    return np.repeat(start, n, axis=0) + fracs[:, None] * np.repeat(edge, n, axis=0)


def old_points_in_arena(boundary_points, arena):
    """``ObstacleSet.points_in_arena`` as a scan of a north band, with the
    north order that the set used to cache built here."""
    order = np.argsort(boundary_points[:, 0])
    sorted_north = boundary_points[order, 0]
    north, east, radius = arena.center.north, arena.center.east, arena.radius
    reach = radius + 1e-9 * (abs(north) + radius)
    lo = np.searchsorted(sorted_north, north - reach, side="left")
    hi = np.searchsorted(sorted_north, north + reach, side="right")
    band = order[lo:hi]
    d = boundary_points[band] - np.array([north, east])
    inside = np.sort(band[np.hypot(d[:, 0], d[:, 1]) < radius])
    return boundary_points[inside]


def old_grounding_grid(own, pts, rp, dp):
    """``risk._grounding_grid``: grounding risk of every own state against
    every point, (own, points), 0 at or beyond a state's arena radius."""
    o = own.expand(0, 2)
    d_north = pts[:, 0] - o.north
    d_east = pts[:, 1] - o.east
    dist = np.hypot(d_north, d_east)
    inside = dist < rp.arena_radius
    semi_major, semi_minor = domain_axes(o.speed, o.length, dp)
    x, y = _Frame.of(o.heading)(d_north, d_east)
    if rp.channel_adjust:
        corridor = semi_major if rp.channel_corridor is None else rp.channel_corridor
        ahead = inside & (x >= 0.0) & (x <= corridor)
        cap = rp.arena_radius
        starboard = np.min(np.where(ahead & (y > 0.0), y, cap), axis=1, keepdims=True, initial=cap)
        port = np.min(np.where(ahead & (y < 0.0), -y, cap), axis=1, keepdims=True, initial=cap)
        width = port + starboard
        new_minor = np.maximum(rp.channel_gamma * width / 2.0, 1e-3)
        shrink = (2.0 * semi_minor > width) & (new_minor < semi_minor)
        semi_minor = np.where(shrink, new_minor, semi_minor)
    quad = _Quadratic.of(semi_major, semi_minor, dp.offset_fraction * semi_major, 0.0)
    if rp.grounding_horizon_max:
        # offsets lead, (offsets, own, points); the smallest f gives the
        # largest index
        shift = rp.horizon_offsets()[:, None, None] * o.speed
        f = quad.solve(x - shift, y).min(axis=0)
    else:
        f = quad.solve(x, y)
    r_d = risk_index(f, rp)
    r_a = risk_index(dist / rp.arena_radius, rp)
    return np.where(inside, r_d * r_a, 0.0)


def old_grounding_max(own, boundary_points, rp, dp):
    """``risk._grounding_max`` over the dense grid, against a chart's
    densified points."""
    n_own = own.north.size
    out = np.zeros(n_own)
    center_n, center_e = float(np.mean(own.north)), float(np.mean(own.east))
    spread = float(np.max(np.hypot(own.north - center_n, own.east - center_e)))
    near = old_points_in_arena(
        boundary_points,
        ArenaSpec(rp.arena_radius + spread + risk.ARENA_SLACK, LocalPoint(center_n, center_e)),
    )
    if near.size == 0:
        return out
    per_own = near.shape[0] * (rp.horizon_offsets().size if rp.grounding_horizon_max else 1)
    chunk = max(1, risk.KERNEL_CHUNK_ELEMS // per_own)
    for lo in range(0, n_own, chunk):
        part = own.select(slice(lo, lo + chunk))
        out[lo:lo + chunk] = old_grounding_grid(part, near, rp, dp).max(axis=1)
    return out


@st.composite
def arena_scans(draw):
    """An arena and a ring of points around it: on the circle (on the
    axes and at drawn bearings), inside and outside it, and on rows of one
    north coordinate each, at, inside and beyond the radius."""
    cn, ce = draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4))
    radius = draw(st.floats(1.0, 5e3))
    on_circle = [(cn + radius, ce), (cn - radius, ce), (cn, ce + radius), (cn, ce - radius)]
    on_circle += [
        (cn + radius * math.cos(a), ce + radius * math.sin(a))
        for a in draw(st.lists(st.floats(0.0, 2.0 * math.pi), max_size=8))
    ]
    rows = [cn - radius, cn, cn + radius]
    rows += [cn + k * radius for k in draw(st.lists(st.floats(-2.0, 2.0), max_size=3))]
    scattered = draw(st.lists(st.tuples(st.sampled_from(rows), st.floats(-2.0, 2.0)), max_size=40))
    points = draw(st.permutations(on_circle + [(n, ce + k * radius) for n, k in scattered]))
    return ArenaSpec(radius, LocalPoint(cn, ce)), np.array(points + [points[0]])


class TestArenaBandCut:
    @given(arena_scans())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_scan(self, scan):
        arena, ring = scan
        # spacing above every edge: each ring vertex is one boundary point
        obstacles = ObstacleSet([ring], spacing=1e9)
        expected = reference_points_in_arena(obstacles.boundary_points, arena)
        for _ in range(2):  # a scan leaves the set as it found it
            got = obstacles.points_in_arena(arena)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_empty_chart(self):
        arena = ArenaSpec(926.0, LocalPoint(0.0, 0.0))
        assert ObstacleSet([]).points_in_arena(arena).shape == (0, 2)

    @pytest.mark.parametrize("radius", [math.nan, 0.0, -1.0, -math.inf])
    def test_radius_not_positive_refused(self, radius):
        # a NaN radius used to pass, and its arena then held no point, so
        # grounding read 0
        with pytest.raises(ValueError, match="arena radius must be positive"):
            ArenaSpec(radius, LocalPoint(0.0, 0.0))


class TestObstacleSampling:
    def test_empty_polygons(self):
        arena = ArenaSpec(926.0, LocalPoint(0.0, 0.0))
        assert points_in_arena([], arena, 50.0).shape == (0, 2)

    def test_square_point_count(self):
        # 100 m sides at 25 m spacing: 4 points per side
        arena = ArenaSpec(5000.0, LocalPoint(0.0, 0.0))
        pts = points_in_arena([closed_square(0.0, 0.0, 50.0)], arena, 25.0)
        assert pts.shape == (16, 2)

    def test_arena_filter(self):
        arena = ArenaSpec(200.0, LocalPoint(0.0, 0.0))
        pts = points_in_arena([closed_square(0.0, 300.0, 150.0)], arena, 10.0)
        assert pts.shape[0] > 0
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) < 200.0)

    def test_spacing_upper_bound(self):
        ring = closed_square(0.0, 0.0, 130.0)
        arena = ArenaSpec(10000.0, LocalPoint(0.0, 0.0))
        pts = points_in_arena([ring], arena, 40.0)
        # consecutive points along one side are at most `spacing` apart
        side = pts[np.isclose(pts[:, 1], -130.0)]
        gaps = np.diff(np.sort(side[:, 0]))
        assert np.all(gaps <= 40.0 + 1e-9)



@st.composite
def edge_scenes(draw):
    """A chart around an origin up to 1e7 m out, and own states near it.

    The chart holds a lane wall with 12 km sides, up to three small rings
    whose vertices often repeat (zero-length edges), and sometimes a ring
    1,000 km off. Vertices and own positions are whole meters, so that a
    vertex, which is its edge's first boundary point, sits exactly at the
    arena radius of the state 3k north and 4k east of it (radius 5k); one
    state sits there at radius 500 m and one on a vertex. Also returns
    arenas centered on corners of edge boxes and 3k, 4k off a vertex, and
    the arena radius for the states (500 m or the default)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origin = np.array([draw(st.sampled_from([0.0, 123457.0, 1e7, -1e7])) for _ in range(2)])
    wall = float(rng.integers(100, 300))
    rings = [origin + np.array(
        [[-6000.0, wall], [6000.0, wall], [6000.0, wall + 200.0], [-6000.0, wall + 200.0],
         [-6000.0, wall]]
    )]
    for _ in range(draw(st.integers(0, 3))):
        center = rng.integers(-1500, 1500, 2)
        vertices = [center + rng.integers(-300, 300, 2) for _ in range(rng.integers(3, 7))]
        vertices = [v for v in vertices for _ in range(rng.integers(1, 3))]
        rings.append(origin + np.array(vertices + [vertices[0]], dtype=float))
    if draw(st.booleans()):
        rings.append(closed_square(origin[0] + 1e6, origin[1] - 1e6, 500.0))
    spacing = draw(st.one_of(st.sampled_from([3.0, 50.0, 700.0]), st.floats(2.0, 900.0)))
    vertex = rings[-1][0] if len(rings) > 1 else rings[0][1]
    arenas = []
    for _ in range(4):
        ring = rings[rng.integers(len(rings))]
        i = rng.integers(len(ring) - 1)
        pick = rng.integers(0, 2, 2)
        corner = [(min, max)[pick[c]](ring[i, c], ring[i + 1, c]) for c in (0, 1)]
        radius = float(rng.choice([1e-3, 1.0, 500.0, 926.0, 5000.0, 2e4]))
        arenas.append(ArenaSpec(radius, LocalPoint(*corner)))
    for k in (1.0, 60.0, 100.0):
        arenas.append(ArenaSpec(5.0 * k, LocalPoint(vertex[0] + 3.0 * k, vertex[1] + 4.0 * k)))
    positions = [origin + rng.integers(-1200, 1200, 2) for _ in range(draw(st.integers(0, 10)))]
    positions += [vertex, vertex + [300.0, 400.0]]
    n = len(positions)
    own = StateArrays(
        np.array([q[0] for q in positions]), np.array([q[1] for q in positions]),
        rng.uniform(0.0, 8.0, n), rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(50.0, 250.0, n),
    )
    return rings, spacing, arenas, own, draw(st.sampled_from([500.0, 926.0]))


class TestChartEdgeIndex:
    @given(edge_scenes())
    @settings(max_examples=150, deadline=None)
    def test_matches_band_scan_of_densified_chart(self, scene):
        rings, spacing, arenas, _, _ = scene
        obstacles = ObstacleSet(rings, spacing=spacing)
        points = old_densify_boundaries(rings, spacing)
        for arena in arenas:
            assert same_bits(obstacles.points_in_arena(arena), old_points_in_arena(points, arena))
        assert same_bits(obstacles.boundary_points, points)

    def test_chart_built_only_when_read(self):
        obstacles = ObstacleSet([closed_square(0.0, 0.0, 5000.0)], spacing=1.0)
        obstacles.points_in_arena(ArenaSpec(926.0, LocalPoint(0.0, 5000.0)))
        assert "boundary_points" not in vars(obstacles)
        assert obstacles.boundary_points.shape == (40_000, 2)
        assert obstacles.boundary_points is obstacles.boundary_points


@st.composite
def long_edge_scans(draw):
    """Rings with long edges, axis-aligned and slanted, up to 1e7 m out,
    at a spacing that gives each edge from one point to a few thousand,
    and arenas from 1 mm to 20 km across centered on an edge's points, on
    its line before and after its ends, and off to one side."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origin = np.array([draw(st.sampled_from([0.0, 123457.0, 1e7, -1e7])) for _ in range(2)])
    rings = []
    for _ in range(draw(st.integers(1, 3))):
        half = rng.uniform(10.0, 6000.0, 2)
        ring = closed_square(0.0, 0.0, 1.0) * half
        if draw(st.booleans()):  # slanted edges
            turn = rng.uniform(0.0, 2.0 * math.pi)
            ring = ring @ np.array([[math.cos(turn), math.sin(turn)],
                                    [-math.sin(turn), math.cos(turn)]])
            ring[-1] = ring[0]
        rings.append(origin + rng.uniform(-3000.0, 3000.0, 2) + ring)
    spacing = draw(st.one_of(st.sampled_from([3.0, 50.0, 1e4]), st.floats(2.0, 900.0)))
    arenas = []
    for _ in range(6):
        ring = rings[rng.integers(len(rings))]
        i = rng.integers(len(ring) - 1)
        along = draw(st.one_of(st.sampled_from([0.0, 1.0, -0.01, 1.01]), st.floats(-0.2, 1.2)))
        point = ring[i] + along * (ring[i + 1] - ring[i]) + rng.normal(0.0, 50.0, 2)
        radius = float(rng.choice([1e-3, 1.0, 60.0, 926.0, 5000.0, 2e4]))
        arenas.append(ArenaSpec(radius, LocalPoint(*point)))
    return rings, spacing, arenas


class TestArenaStretch:
    @given(long_edge_scans())
    @settings(max_examples=150, deadline=None)
    def test_matches_densify_all_then_filter(self, scan):
        """A scan makes only the stretch of each near edge whose points lie
        within its radius along the edge's main axis, one point more each
        side, and keeps the same points, with the same bits and in the same
        order, as the exact distance test over the whole densified chart."""
        rings, spacing, arenas = scan
        obstacles = ObstacleSet(rings, spacing=spacing)
        points = obstacles.boundary_points
        densify = risk._Edges.densify
        for arena in arenas:
            made = []

            def counted(*args, **kwargs):
                made.append(len(densify(*args, **kwargs)))
                return densify(*args, **kwargs)

            with mock.patch.object(risk._Edges, "densify", side_effect=counted, autospec=True):
                got = obstacles.points_in_arena(arena)
            assert same_bits(got, reference_points_in_arena(points, arena))
            # at most the points of the whole chart within the radius of
            # the center along their edge's main axis, and three more per
            # edge: two for the widening, one for rounding
            edges = obstacles._edges
            main = np.repeat(np.argmax(np.abs(edges.vector), axis=1), edges.n)
            d = np.abs(points - np.array([arena.center.north, arena.center.east]))
            in_band = np.count_nonzero(d[np.arange(len(d)), main] <= 1.001 * arena.radius + 1e-6)
            assert sum(made) <= in_band + 3 * np.count_nonzero(edges.n)


class TestGroundingPairs:
    @given(
        scene=edge_scenes(),
        channel_adjust=st.booleans(),
        corridor=st.sampled_from([None, 150.0]),
        horizon_max=st.booleans(),
        chunk_elems=st.sampled_from([1, 25, risk.KERNEL_CHUNK_ELEMS]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_grid(self, scene, channel_adjust, corridor, horizon_max, chunk_elems):
        rings, spacing, _, own, radius = scene
        rp = RiskParams(
            horizon_T=300.0, horizon_step=45.0, arena_radius=radius,
            channel_adjust=channel_adjust, channel_corridor=corridor,
            grounding_horizon_max=horizon_max,
        )
        dp = DomainParams()
        obstacles = ObstacleSet(rings, spacing=spacing)
        points = old_densify_boundaries(rings, spacing)
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk_elems):
            got = risk._grounding_max(own, obstacles, rp, dp)
            want = old_grounding_max(own, points, rp, dp)
        assert same_bits(got, want)

    def test_memory_of_a_level_beside_a_dense_chart(self):
        """2,496 own states, a tied default planner level, with all 1,600
        points of a 2 m chart inside every arena: about 4 million kept
        pairs, scored a block at a time."""
        rng = np.random.default_rng(5)
        obstacles = ObstacleSet([closed_square(0.0, 0.0, 400.0)], spacing=2.0)
        n = 2496
        own = StateArrays(
            rng.uniform(-300.0, 300.0, n), rng.uniform(-300.0, 300.0, n),
            rng.uniform(0.0, 8.0, n), rng.uniform(0.0, 2.0 * math.pi, n), np.full(n, 100.0),
        )
        tracemalloc.start()
        try:
            got = risk._grounding_max(own, obstacles, RiskParams(), DomainParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (n,) and (got > 0.0).all()
        assert peak < 2_500_000

def grounding_of(state, points, rp=None, dp=None):
    """One state's per-point grounding risks from the dense grid, and their
    maximum (0 without points)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    per_point = old_grounding_grid(
        StateArrays.of([state]), pts, rp or RiskParams(), dp or DomainParams()
    )[0]
    return per_point, float(per_point.max(initial=0.0))


class TestGrounding:
    def test_no_points_zero(self):
        s = VesselState(0.0, 0.0, 0.0, 3.0, 0.0, 100.0)
        per, mx = grounding_of(s, np.empty((0, 2)))
        assert per.size == 0 and mx == 0.0
        assert risk._grounding_max(StateArrays.of([s]), ObstacleSet([]), RiskParams(),
                                   DomainParams()).tolist() == [0.0]

    def test_point_at_vessel_position(self):
        s = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
        _, mx = grounding_of(s, np.array([[0.0, 0.0]]))
        assert mx == pytest.approx(risk_index(0.0) ** 2, abs=1e-9)

    def test_point_beyond_arena_scores_zero(self):
        # 950 m dead ahead lies outside the 926 m arena; 900 m lies inside
        s = VesselState(0.0, 0.0, 0.0, 5.0, 0.0, 100.0)
        per, _ = grounding_of(s, np.array([[950.0, 0.0], [900.0, 0.0]]))
        assert per[0] == 0.0 and per[1] > 0.1

    def test_adding_points_never_decreases_max(self):
        s = VesselState(0.0, 0.0, 0.0, 2.0, 0.5, 100.0)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-800.0, 800.0, size=(20, 2))
        rp = RiskParams(channel_adjust=False)
        prev = 0.0
        for m in range(1, 21):
            _, mx = grounding_of(s, pts[:m], rp)
            assert mx >= prev - 1e-12
            prev = mx

    def test_horizon_max_at_least_instantaneous(self):
        s = VesselState(0.0, 0.0, 0.0, 5.0, 0.0, 100.0)
        pts = np.array([[700.0, 30.0], [500.0, -100.0]])
        _, inst = grounding_of(s, pts, RiskParams(channel_adjust=False))
        _, hor = grounding_of(
            s, pts, RiskParams(channel_adjust=False, grounding_horizon_max=True)
        )
        assert hor >= inst - 1e-12


class TestChannelAdjustment:
    @staticmethod
    def assert_unchanged(state, walls):
        adjusted, _ = grounding_of(state, walls, RiskParams())
        fixed, _ = grounding_of(state, walls, RiskParams(channel_adjust=False))
        assert adjusted.tobytes() == fixed.tobytes()

    def test_open_water_unchanged(self):
        s = VesselState(0.0, 0.0, 0.0, 3.0, 0.0, 100.0)
        self.assert_unchanged(s, np.empty((0, 2)))
        # a lone point on the track line is on neither side
        self.assert_unchanged(s, np.array([[300.0, 0.0]]))

    def test_narrow_channel_shrinks_beam(self):
        # walls 100 m off each beam: width 200 < 2 * 160 -> minor = 0.8 * 100
        s = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
        rp, dp = RiskParams(), DomainParams()
        walls = np.array([[50.0, 100.0], [50.0, -100.0]])
        domain, expected = reference_grounding(s, walls, rp, dp)
        assert domain.semi_minor == pytest.approx(80.0)
        assert domain.semi_major == make_domain(s, dp).semi_major
        _, got = grounding_of(s, walls, rp, dp)
        assert abs(got - expected) <= 1e-12
        assert got < grounding_of(s, walls, RiskParams(channel_adjust=False), dp)[1]

    def test_wide_channel_unchanged(self):
        s = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
        self.assert_unchanged(s, np.array([[50.0, 400.0], [50.0, -400.0]]))

    def test_one_sided_wall_capped_by_arena(self):
        # single near wall: far side capped at arena radius, width stays large
        s = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
        self.assert_unchanged(s, np.array([[50.0, 60.0]]))

    def test_points_behind_ignored(self):
        s = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
        self.assert_unchanged(s, np.array([[-50.0, 100.0], [-50.0, -100.0]]))

    @pytest.mark.parametrize("corridor", [0.0, -5.0, -5])
    def test_corridor_must_be_positive(self, corridor):
        # no point lies in an empty corridor, so a non-positive length would
        # silently switch the adjustment off
        with pytest.raises(ValueError, match="channel_corridor must be positive"):
            RiskParams(channel_corridor=corridor)


class TestCompose:
    def test_empty_inputs(self):
        assert compose_scenario_risk([], 0.0) == 0.0

    def test_single_risk_passthrough(self):
        assert compose_scenario_risk([0.3], 0.0) == pytest.approx(0.3, abs=1e-15)

    def test_two_halves(self):
        assert compose_scenario_risk([0.5, 0.5], 0.0) == pytest.approx(0.75, abs=1e-15)

    def test_grounding_enters_union(self):
        assert compose_scenario_risk([0.5], 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_matches_complement_product(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = rng.integers(0, 6)
            crs = rng.uniform(0.0, 1.0, n)
            gr = float(rng.uniform(0.0, 1.0))
            expected = 1.0 - (1.0 - gr) * np.prod(1.0 - crs)
            assert compose_scenario_risk(crs.tolist(), gr) == pytest.approx(
                expected, abs=1e-12
            )

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariant_and_bounded(self, crs):
        a = compose_scenario_risk(crs, 0.0)
        b = compose_scenario_risk(list(reversed(crs)), 0.0)
        assert a == pytest.approx(b, abs=1e-12)
        assert 0.0 <= a <= 1.0 + 1e-15
        if crs:
            assert a >= max(crs) - 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            compose_scenario_risk([1.2], 0.0)
        with pytest.raises(ValueError):
            compose_scenario_risk([0.5], -0.1)


class TestRiskSeries:
    def test_head_on_series_shape_and_bounds(self):
        a = straight_track("own", 0.0, 0.0, 0.0, 5.0, 0.0, 61)
        b = straight_track("tgt", 0.0, 6000.0, 0.0, 5.0, math.pi, 61)
        series = compute_risk_series({"own": a, "tgt": b}, "own", 0.0, 600.0)
        assert series.times.size == 61
        assert set(series.collision) == {"tgt"}
        assert np.all(series.scenario >= series.collision["tgt"] - 1e-12)
        assert np.all((series.scenario >= 0.0) & (series.scenario <= 1.0))
        # risk rises as the vessels converge toward the meeting point
        assert series.scenario[30] > series.scenario[0]

    def test_absent_target_contributes_zero(self):
        # the target's track spans [400, 500]; the vessels are 800 m apart
        # when it starts, so every present step reads well above rounding
        a = straight_track("own", 0.0, 0.0, 0.0, 5.0, 0.0, 61)
        b = straight_track("tgt", 400.0, 2800.0, 150.0, 5.0, math.pi, 11)
        series = compute_risk_series({"own": a, "tgt": b}, "own", 0.0, 600.0)
        span = (series.times >= 400.0) & (series.times <= 500.0)
        assert span.sum() == 11
        assert np.all(series.collision["tgt"][~span] == 0.0)
        assert np.all(series.collision["tgt"][span] > 0.1)

    def test_unknown_ownship_rejected(self):
        a = straight_track("own", 0.0, 0.0, 0.0, 5.0, 0.0, 11)
        with pytest.raises(KeyError):
            compute_risk_series({"own": a}, "ghost", 0.0, 100.0)

    def test_grounding_feeds_scenario(self):
        own = straight_track("own", 0.0, 0.0, 0.0, 3.0, 0.0, 11)
        obstacles = ObstacleSet([closed_square(300.0, 0.0, 100.0)], spacing=25.0)
        series = compute_risk_series({"own": own}, "own", 0.0, 100.0, obstacles)
        assert np.all(series.grounding > 0.0)
        assert np.all(series.scenario >= series.grounding - 1e-12)

    def test_scenario_risk_for_state_holds_targets(self):
        own = straight_track("own", 0.0, 0.0, 0.0, 3.0, 0.0, 11)
        tgt = straight_track("tgt", 0.0, 500.0, 0.0, 3.0, math.pi, 5)
        step = reference_scenario_risk_for_state(
            own.state_at(100.0), 100.0, [tgt], None, hold_targets=True
        )
        assert step.targets_held is True
        skipped = reference_scenario_risk_for_state(
            own.state_at(100.0), 100.0, [tgt], None, hold_targets=False
        )
        assert skipped.collision == {}
        for hold in (True, False):
            got = scenario_risks(
                StateArrays.of([own.state_at(100.0)]), 100.0, [tgt], None, hold_targets=hold
            )
            assert got.targets_held is hold
            assert set(got.collision) == ({"tgt"} if hold else set())

    def test_one_time_per_own_state_required(self):
        own = straight_track("own", 0.0, 0.0, 0.0, 3.0, 0.0, 11)
        states = StateArrays.of([own.state_at(0.0), own.state_at(10.0)])
        for t in ([0.0], [0.0, 10.0, 20.0], [[0.0, 10.0]]):
            with pytest.raises(ValueError, match="need one time or 2 times"):
                scenario_risks(states, np.array(t), [], None)

    @pytest.mark.parametrize("t", [math.nan, [0.0, math.nan], [math.inf, 10.0]])
    @pytest.mark.parametrize("hold", [False, True])
    def test_non_finite_time_refused(self, t, hold):
        # a NaN time would otherwise read every target as absent, or held
        own = straight_track("own", 0.0, 0.0, 0.0, 3.0, 0.0, 11)
        tgt = straight_track("tgt", 0.0, 500.0, 0.0, 3.0, math.pi, 11)
        states = StateArrays.of([own.state_at(0.0), own.state_at(10.0)])
        with pytest.raises(ValueError, match="each finite"):
            scenario_risks(states, np.array(t), [tgt], None, hold_targets=hold)

    def test_calls_scenario_risks_once(self):
        a = straight_track("own", 0.0, 0.0, 0.0, 5.0, 0.0, 61)
        b = straight_track("tgt", 0.0, 6000.0, 0.0, 5.0, math.pi, 61)
        with mock.patch.object(risk, "scenario_risks", wraps=risk.scenario_risks) as spy:
            series = compute_risk_series({"own": a, "tgt": b}, "own", 0.0, 600.0)
        assert spy.call_count == 1
        assert series.scenario.size == 61


def reference_target_states(target_tracks, t, hold_targets):
    """Each target's state at ``t`` through the reference state_at and
    clamp, keyed by track id, and whether any target was held."""
    states, held_any = {}, False
    for track in target_tracks:
        if hold_targets:
            state, held = reference_state_at_clamped(track, t)
            held_any = held_any or held
        elif track.covers(t):
            state = reference_state_at(track, t)
        else:
            continue
        states[track.track_id] = state
    return states, held_any


def reference_scenario_risk_for_state(
    own_state, t, target_tracks, obstacles, params=None, domain_params=None,
    hold_targets=False, models=None, wavg_grid_n=risk.DEFAULT_GRID_N,
):
    """Scenario risk of one ownship state at time t, each target scored on
    its own: the per-step layer that the time axis of scenario_risks
    replaced, kept as its reference. Returns a RiskSeries of floats."""
    rp = params or RiskParams()
    dp = domain_params or DomainParams()
    own = StateArrays.of([own_state])
    states, held_any = reference_target_states(target_tracks, t, hold_targets)
    collision, collision_wavg = {}, {}
    for tid in sorted(states):
        tgt = StateArrays.of([states[tid]])
        collision[tid] = float(collision_risk_grid(own, tgt, 0.0, rp, dp)[0, 0, 0])
        model = models.get(states[tid].vessel_type) if models else None
        if model is not None:
            collision_wavg[tid] = rate_weighted_mean(
                lambda rates: collision_risk_grid(own, tgt, rates, rp, dp)[0, 0],
                model,
                wavg_grid_n,
            )
    grounding = 0.0 if obstacles is None else float(risk._grounding_max(own, obstacles, rp, dp)[0])
    effective = [collision_wavg.get(tid, collision[tid]) for tid in sorted(states)]
    return risk.RiskSeries(
        times=t,
        collision=collision,
        collision_wavg=collision_wavg,
        grounding=grounding,
        scenario=float(compose_scenario_risk(effective, grounding)),
        targets_held=held_any,
    )


def reference_target_table(target_tracks, times, hold_targets):
    """The target table as built before the row lookup: one VesselState per
    (time, target) through the reference state_at and clamp, unpacked again
    into a (times, 5, ids) table."""
    found = [reference_target_states(target_tracks, t, hold_targets) for t in times.tolist()]
    per_time = [states for states, _ in found]
    held_any = any(held for _, held in found)
    ids = sorted(set().union(*per_time))
    absent = VesselState(time=0.0, north=0.0, east=0.0, speed=0.0, heading=0.0, length=1.0)
    table = np.array([StateArrays.of([s.get(tid, absent) for tid in ids]) for s in per_time])
    present = np.array([[tid in s for tid in ids] for s in per_time], dtype=bool)
    return ids, table, present.reshape(times.size, -1), held_any


@st.composite
def table_scenes(draw):
    """Targets in shuffled order whose spans start or end inside the query
    times, on the 10 s grid or off it, with headings that wrap through
    north; one query time or several; and no targets at all."""
    tracks = []
    for k in range(draw(st.integers(0, 5))):
        n = draw(st.sampled_from([1, 2, 4, 12]))
        times = draw(st.sampled_from([-50.0, 0.0, 3.7, 20.0, 55.0])) + 10.0 * np.arange(n)
        values = st.lists(st.floats(-2000.0, 2000.0), min_size=n, max_size=n)
        speeds = st.lists(st.floats(0.0, 9.0), min_size=n, max_size=n)
        headings = st.lists(
            st.one_of(st.floats(0.0, 2.0 * math.pi - 1e-9), st.sampled_from([0.0, 0.1, 6.2])),
            min_size=n, max_size=n,
        )
        tracks.append(VesselTrack(
            f"t{k}", times, draw(values), draw(values), draw(speeds), draw(headings),
            draw(st.floats(20.0, 300.0)),
        ))
    order = draw(st.permutations(tracks))
    query = draw(st.lists(
        st.one_of(st.sampled_from([-60.0, -50.0, 0.0, 3.7, 8.0, 20.0, 61.2, 165.0, 200.0]),
                  st.floats(-80.0, 220.0)),
        min_size=1, max_size=5,
    ))
    return order, np.unique(query), draw(st.booleans())


class TestTargetTable:
    @given(table_scenes())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_object_table(self, scene):
        tracks, times, hold = scene
        (kept, states, present), held = risk._target_table(tracks, times, hold)
        table = np.stack(states, axis=1)
        ids = [track.track_id for track in kept]
        ref_ids, ref_table, ref_present, ref_held = reference_target_table(tracks, times, hold)
        assert ids == ref_ids
        assert all(any(track is given for given in tracks) for track in kept)
        assert table.shape == ref_table.shape and table.tobytes() == ref_table.tobytes()
        assert present.shape == ref_present.shape and np.array_equal(present, ref_present)
        assert held is ref_held
        by_id = {track.track_id: track for track in tracks}
        for t in times.tolist():
            for tid in ids:
                if by_id[tid].covers(t):
                    assert by_id[tid].state_at(t) == reference_state_at(by_id[tid], t)


def reference_risk_series(
    tracks, ownship_id, t_start, t_end, obstacles=None, params=None, domain_params=None,
    models=None, wavg_grid_n=risk.DEFAULT_GRID_N,
):
    """compute_risk_series as the loop over grid steps that it was, one
    reference_scenario_risk_for_state call per step, with the per-step
    results merged into columns."""
    own = tracks[ownship_id]
    mask = (own.times >= t_start - 1e-9) & (own.times <= t_end + 1e-9)
    targets = [tr for tid, tr in sorted(tracks.items()) if tid != ownship_id]
    steps = [
        reference_scenario_risk_for_state(
            own.state_at(float(t)), float(t), targets, obstacles, params, domain_params,
            models=models, wavg_grid_n=wavg_grid_n,
        )
        for t in own.times[mask]
    ]
    seen = sorted({tid for s in steps for tid in s.collision})
    seen_wavg = sorted({tid for s in steps for tid in s.collision_wavg})
    return risk.RiskSeries(
        times=own.times[mask],
        collision={
            tid: np.array([s.collision.get(tid, 0.0) for s in steps]) for tid in seen
        },
        collision_wavg={
            tid: np.array(
                [s.collision_wavg.get(tid, s.collision.get(tid, 0.0)) for s in steps]
            )
            for tid in seen_wavg
        },
        grounding=np.array([s.grounding for s in steps]),
        scenario=np.array([s.scenario for s in steps]),
    )


def series_arrays(series):
    """Every array of a RiskSeries keyed by a readable name."""
    out = {"times": series.times, "grounding": series.grounding, "scenario": series.scenario}
    out.update({f"cr_{tid}": v for tid, v in series.collision.items()})
    out.update({f"cr_wavg_{tid}": v for tid, v in series.collision_wavg.items()})
    return out


# the models a scene may use: a kernel density, a degenerate (uniform)
# model, a single-point support, and a density with no mass on its grid
SCENE_MODELS = {
    "kde": SpeedChangeModel(
        VesselType.CARGO, [-0.02, 0.0, 0.01], bandwidth=0.01, support=(-0.05, 0.04)
    ),
    "degenerate": SpeedChangeModel(
        VesselType.CARGO, [], bandwidth=0.0, support=(-0.05, 0.05), degenerate=True
    ),
    "single_point": SpeedChangeModel(
        VesselType.CARGO, [0.01], bandwidth=0.0, support=(0.01, 0.01), degenerate=True
    ),
    "zero_mass": SpeedChangeModel(
        VesselType.CARGO, [5.0], bandwidth=1e-3, support=(-0.05, 0.05)
    ),
}


@st.composite
def series_scenes(draw):
    """An ownship on a 10 s grid with targets that start or end inside the
    window, some off the ownship's grid, one of them split into two tracks
    with a gap; an optional shoal; models for some vessel types; and one of
    the risk settings."""
    coord = st.floats(-1500.0, 1500.0)
    heading = st.floats(0.0, 2.0 * math.pi - 1e-9)
    tracks = {
        "own": straight_track("own", 0.0, 0.0, 0.0, draw(st.floats(1.0, 8.0)), draw(heading), 31)
    }
    types = [VesselType.CARGO, VesselType.TANKER, VesselType.OTHER]
    for k in range(draw(st.integers(0, 3))):
        track = straight_track(
            f"t{k}", draw(st.sampled_from([-50.0, 0.0, 5.0, 120.0, 250.0])), draw(coord),
            draw(coord), draw(st.floats(0.0, 8.0)), draw(heading),
            draw(st.sampled_from([1, 3, 12, 40])), length=draw(st.floats(50.0, 250.0)),
        )
        tracks[track.track_id] = replace(track, vessel_type=draw(st.sampled_from(types)))
    if draw(st.booleans()):
        whole = straight_track("split", 0.0, draw(coord), draw(coord), 4.0, draw(heading), 31)
        cut = draw(st.integers(3, 27))
        for name, part in (("split_a", slice(0, cut - 2)), ("split_b", slice(cut, None))):
            tracks[name] = replace(
                whole, track_id=name, times=whole.times[part], north=whole.north[part],
                east=whole.east[part], speed=whole.speed[part], heading=whole.heading[part],
                vessel_type=draw(st.sampled_from(types)),
            )
    obstacles = None
    if draw(st.booleans()):
        shoal = closed_square(
            draw(st.floats(-800.0, 800.0)), draw(st.floats(-800.0, 800.0)),
            draw(st.floats(50.0, 300.0)),
        )
        obstacles = ObstacleSet([shoal], spacing=25.0)
    models = {
        vtype: SCENE_MODELS[draw(st.sampled_from(sorted(SCENE_MODELS)))]
        for vtype in types[:2]
        if draw(st.booleans())
    }
    rp = RiskParams(
        horizon_T=120.0,
        horizon_step=60.0,
        mutual_mode=draw(st.sampled_from(MUTUAL_MODES)),
        grounding_horizon_max=draw(st.booleans()),
        channel_adjust=draw(st.booleans()),
    )
    t_start = draw(st.sampled_from([0.0, 40.0, 100.0]))
    t_end = t_start + draw(st.sampled_from([0.0, 50.0, 300.0]))
    return tracks, obstacles, models or None, rp, (t_start, t_end)


class TestRiskSeriesTimeAxis:
    def test_chart_prefiltered_once_per_distinct_time(self):
        # one scan for a whole window would grow with the window's spread
        own = straight_track("own", 0.0, 0.0, 0.0, 3.0, 0.0, 11)
        obstacles = ObstacleSet([closed_square(300.0, 0.0, 100.0)], spacing=25.0)
        times = [0.0, 10.0, 10.0, 50.0]
        states = StateArrays.of([own.state_at(t) for t in times])
        original = ObstacleSet.points_in_arena
        for t, scans in ((np.array(times), 3), (10.0, 1)):
            with mock.patch.object(
                ObstacleSet, "points_in_arena", autospec=True, side_effect=original
            ) as spy:
                scenario_risks(states, t, [], obstacles)
            assert spy.call_count == scans

    @given(
        series_scenes(),
        st.sampled_from([-60.0, 0.0, 35.0, 100.0, 290.0]),
        st.integers(1, 6),
        st.booleans(),
        st.sampled_from([25, risk.KERNEL_CHUNK_ELEMS]),
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_times_match_one_time_bitwise(self, scene, t, n_own, hold_targets, chunk_elems):
        """Own states whose times are all equal score, bit for bit, as at
        that one time: both read a one-row target table."""
        tracks, obstacles, models, rp, _ = scene
        targets = [tr for tid, tr in sorted(tracks.items()) if tid != "own"]
        owns = StateArrays.of(random_states(np.random.default_rng(n_own), n_own))
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk_elems):
            one, each = (
                scenario_risks(owns, times, targets, obstacles, rp, hold_targets=hold_targets,
                               models=models, wavg_grid_n=9)
                for times in (t, np.full(n_own, t))
            )
        one_arrays, each_arrays = series_arrays(one), series_arrays(each)
        del one_arrays["times"], each_arrays["times"]
        assert one_arrays.keys() == each_arrays.keys()
        for name, value in one_arrays.items():
            assert value.tobytes() == each_arrays[name].tobytes(), name
        assert one.targets_held is each.targets_held

    def test_memory_of_many_states_at_two_times(self):
        """2,000 own states at two times against 50 targets read the two
        rows of one target table; a copy of its row per own state (5 floats
        per target) took the peak to 5.6 MiB."""
        rng = np.random.default_rng(7)
        targets = [
            straight_track(f"t{k:02d}", 0.0, *rng.uniform(-3000.0, 3000.0, 2),
                           rng.uniform(2.0, 8.0), rng.uniform(0.0, 2.0 * math.pi), 31)
            for k in range(50)
        ]
        owns = StateArrays.of(random_states(rng, 2000))
        times = np.repeat([100.0, 200.0], 1000)
        tracemalloc.start()
        try:
            got = scenario_risks(owns, times, targets, None, hold_targets=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.scenario.shape == (2000,) and len(got.collision) == 50
        assert peak < 3_000_000

    # small element budgets split the one call into several kernel passes
    @given(series_scenes(), st.sampled_from([1, 25, risk.KERNEL_CHUNK_ELEMS]))
    @settings(max_examples=60, deadline=None)
    def test_one_call_matches_per_step_loop(self, scene, chunk_elems):
        tracks, obstacles, models, rp, (t_start, t_end) = scene
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk_elems):
            got = compute_risk_series(
                tracks, "own", t_start, t_end, obstacles, rp, models=models, wavg_grid_n=9
            )
            expected = reference_risk_series(
                tracks, "own", t_start, t_end, obstacles, rp, models=models, wavg_grid_n=9
            )
        got_arrays, expected_arrays = series_arrays(got), series_arrays(expected)
        assert got_arrays.keys() == expected_arrays.keys()
        for name, value in got_arrays.items():
            assert value.shape == expected_arrays[name].shape, name
            assert np.all(np.abs(value - expected_arrays[name]) <= 1e-12), name

    @given(
        series_scenes(),
        st.lists(st.sampled_from([-60.0, 0.0, 35.0, 100.0, 290.0]), min_size=1, max_size=6),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_per_state_times_match_reference(self, scene, times, hold_targets):
        """Own states at repeated, unsorted and off-grid times, each scored
        against the targets at its own time."""
        tracks, obstacles, models, rp, _ = scene
        targets = [tr for tid, tr in sorted(tracks.items()) if tid != "own"]
        rng = np.random.default_rng(len(times))
        owns = random_states(rng, len(times))
        got = scenario_risks(
            StateArrays.of(owns), np.array(times), targets, obstacles, rp,
            hold_targets=hold_targets, models=models, wavg_grid_n=9,
        )
        columns, wavg_columns, held = set(), set(), False
        for c, (state, t) in enumerate(zip(owns, times)):
            ref = reference_scenario_risk_for_state(
                state, t, targets, obstacles, rp,
                hold_targets=hold_targets, models=models, wavg_grid_n=9,
            )
            columns |= set(ref.collision)
            wavg_columns |= set(ref.collision_wavg)
            held = held or ref.targets_held
            for tid in got.collision:
                assert abs(got.collision[tid][c] - ref.collision.get(tid, 0.0)) <= 1e-12
            for tid in got.collision_wavg:
                expected = ref.collision_wavg.get(tid, 0.0)
                assert abs(got.collision_wavg[tid][c] - expected) <= 1e-12
            assert abs(got.grounding[c] - ref.grounding) <= 1e-12
            assert abs(got.scenario[c] - ref.scenario) <= 1e-12
        assert set(got.collision) == columns and set(got.collision_wavg) == wavg_columns
        assert got.targets_held is held


@st.composite
def repeated_states(draw):
    """Own states with repeats, shuffled, at several times: a few states,
    each repeated exactly, at another time, and at its position with
    another speed, heading or length; and states that differ only in the
    sign of a zero north, east, speed or heading."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = [-60.0, 0.0, 35.0, 100.0, 290.0]
    states = []
    for _ in range(draw(st.integers(1, 3))):
        s = random_states(rng, 1)[0]
        state = [s.north, s.east, s.speed, s.heading, s.length]
        t = float(rng.choice(times))
        states.append((state, t))
        states.append((state, t))
        states.append((state, float(rng.choice(times))))
        changed = draw(st.sampled_from([2, 3, 4]))
        other = list(state)
        other[changed] = [rng.uniform(0.0, 8.0), rng.uniform(0.0, 2.0 * math.pi),
                          rng.uniform(50.0, 250.0)][changed - 2]
        states.append((other, t))
    zero = draw(st.sampled_from([0, 1, 2, 3]))
    signed = [rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0), 4.0, 1.0, 100.0]
    t = float(rng.choice(times))
    for sign in (0.0, -0.0, 0.0):
        state = list(signed)
        state[zero] = sign
        states.append((state, t))
    order = draw(st.permutations(range(len(states))))
    own = StateArrays(*np.array([states[i][0] for i in order]).T.copy())
    return own, np.array([states[i][1] for i in order])


def state_key(own, times, i):
    """The bits of own state i and its time."""
    return np.array([*(a[i] for a in own), times[i]]).tobytes()


class TestRepeatedStates:
    @given(series_scenes(), repeated_states(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_each_state_scores_as_alone(self, scene, states, hold_targets):
        """Each distinct (state, time) reaches the kernel once, and every
        state's four outputs have the bits of that state scored alone."""
        tracks, obstacles, models, rp, _ = scene
        obstacles = obstacles or ObstacleSet([closed_square(300.0, -200.0, 150.0)], spacing=25.0)
        models = models or {VesselType.CARGO: SCENE_MODELS["kde"]}
        targets = [tr for tid, tr in sorted(tracks.items()) if tid != "own"]
        own, times = states
        kernel = risk.collision_risk_grid
        sizes = []

        def counted(own, *args, **kwargs):
            sizes.append(own.north.size)
            return kernel(own, *args, **kwargs)

        with mock.patch.object(risk, "collision_risk_grid", side_effect=counted):
            got = scenario_risks(own, times, targets, obstacles, rp, hold_targets=hold_targets,
                                 models=models, wavg_grid_n=9)
        distinct = {state_key(own, times, i) for i in range(times.size)}
        assert sizes and all(size == len(distinct) for size in sizes)
        for i in range(times.size):
            alone = scenario_risks(own.select(slice(i, i + 1)), times[i], targets, obstacles,
                                   rp, hold_targets=hold_targets, models=models, wavg_grid_n=9)
            for columns, alone_columns in ((got.collision, alone.collision),
                                           (got.collision_wavg, alone.collision_wavg)):
                assert set(alone_columns) <= set(columns)
                for tid, column in columns.items():
                    assert same_bits(column[i:i + 1], alone_columns.get(tid, [0.0])), tid
            for name in ("grounding", "scenario"):
                assert same_bits(getattr(got, name)[i:i + 1], getattr(alone, name)), name

    def test_distinct_states_compare_bits(self):
        """A signed zero in any field, or another row, makes another state;
        a repeat, wherever it stands, reads its first occurrence."""
        fields = np.zeros((7, 6))
        for k in range(5):
            fields[k + 1, k] = -0.0
        fields[6, 5] = 1.0
        fields = np.concatenate([fields, fields[::-1]])
        own = StateArrays(*fields[:, :5].T.copy())
        first, inverse = risk._distinct_states(own, fields[:, 5].astype(int))
        assert first.tolist() == list(range(7))
        assert inverse.tolist() == list(range(7)) + list(range(6, -1, -1))


def reference_collision_risk(own, tgt, rate, rp, dp):
    """Pair collision risk written as one scalar loop over horizon offsets,
    the reference for the broadcast kernel."""
    mutual = 0.0
    for dt in rp.horizon_offsets():
        po = predict_state(own, float(dt))
        pt = predict_state(tgt, float(dt), rate)
        r_own = risk_index(scale_factor(make_domain(po, dp), pt.position, po.position), rp)
        r_tgt = risk_index(scale_factor(make_domain(pt, dp), po.position, pt.position), rp)
        if rp.mutual_mode == "prob_or":
            mutual = max(mutual, r_own + r_tgt - r_own * r_tgt)
        else:
            mutual = max(mutual, r_own, r_tgt)
    dist = math.hypot(own.north - tgt.north, own.east - tgt.east)
    return mutual * risk_index(dist / rp.arena_radius, rp)


def reference_scale_factor_xy(a, b, off_f, off_s, x, y):
    """The scale-factor quadratic written as one expression per term."""
    a2 = np.asarray(a, dtype=float) ** 2
    b2 = np.asarray(b, dtype=float) ** 2
    coef_a = off_f * off_f * b2 + off_s * off_s * a2 - a2 * b2
    coef_b = -2.0 * (x * off_f * b2 + y * off_s * a2)
    coef_c = x * x * b2 + y * y * a2
    disc = coef_b * coef_b - 4.0 * coef_a * coef_c
    root = np.sqrt(np.maximum(disc, 0.0))
    den = root - coef_b
    safe = np.where(den == 0.0, 1.0, den)
    return np.where(den == 0.0, 0.0, 2.0 * coef_c / safe)


def reference_collision_risk_grid(own, tgt, rates, rp, dp):
    """The collision kernel with both directed risk indices on the whole
    (own, targets, rates, offsets) grid, combined per ``mutual_mode`` and
    maximized over the offsets, in one pass: each element is computed on
    its own, so chunking cannot change it. Both sides are built here from
    the states."""
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    offsets = rp.horizon_offsets()
    o = own.expand(0, 4)
    g = StateArrays(*(a[..., None, None] for a in tgt))
    on, oe, ov = predict_positions(o, offsets, 0.0)
    tn, te, tv = predict_positions(g, offsets, rates[:, None])

    def index(heading, speed, length, d_north, d_east):
        semi_major, semi_minor = domain_axes(speed, length, dp)
        c, s = np.cos(heading), np.sin(heading)
        x, y = c * d_north + s * d_east, -s * d_north + c * d_east
        f = reference_scale_factor_xy(
            semi_major, semi_minor, dp.offset_fraction * semi_major, 0.0, x, y
        )
        return risk_index(f, rp)

    r_own = index(o.heading, ov, o.length, tn - on, te - oe)
    r_tgt = index(g.heading, tv, g.length, on - tn, oe - te)
    if rp.mutual_mode == "prob_or":
        combined = r_own + r_tgt - r_own * r_tgt
    else:
        combined = np.maximum(r_own, r_tgt)
    dist = np.hypot(own.north[:, None] - tgt.north, own.east[:, None] - tgt.east)
    return combined.max(axis=-1) * risk_index(dist / rp.arena_radius, rp)[:, :, None]


def random_states(rng, n):
    return [
        VesselState(
            0.0, rng.uniform(-1500.0, 1500.0), rng.uniform(-1500.0, 1500.0),
            rng.uniform(0.0, 8.0), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(50.0, 250.0),
        )
        for _ in range(n)
    ]


def random_state_arrays(rng, shape):
    states = StateArrays.of(random_states(rng, math.prod(shape)))
    return StateArrays(*(a.reshape(shape) for a in states))


@st.composite
def kernel_cases(draw):
    """Own states, a table of 1 to one row per own state of target states
    and each own state's row (a one-row table maybe as (targets,) fields
    with no rows), so that a kernel pass broadcasts one row, lines rows up
    or gathers them, with one rate or 64 (the lowest of which stops an 8 m/s
    target after 160 s, inside the longest horizon), and maybe an own state
    co-located with a target of its row, both at rest, so that the
    displacement is 0 at every offset."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_own, n_tgt = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    n_rows = draw(st.integers(1, n_own))
    own = random_state_arrays(rng, (n_own,))
    tgt = random_state_arrays(rng, (n_rows, n_tgt))
    rows = rng.integers(0, n_rows, n_own)
    order = draw(st.sampled_from(["random", "grouped", "cycling"]))
    if order == "grouped":  # as a planner level's children, by root
        rows.sort()
    elif order == "cycling":  # one row per own state, in order, when there are as many
        rows = np.arange(n_own) % n_rows
    if n_tgt and draw(st.booleans()):
        c = draw(st.integers(0, n_own - 1))
        at = (rows[c], 0)
        tgt.north[at], tgt.east[at] = own.north[c], own.east[c]
        own.speed[c] = tgt.speed[at] = 0.0
    if n_rows == 1 and draw(st.booleans()):
        tgt, rows = StateArrays(*(a[0] for a in tgt)), None
    if draw(st.booleans()):
        rates = np.linspace(-0.05, 0.05, 64)
    else:
        rates = rng.uniform(-0.05, 0.05, 1)
    horizon_T, horizon_step = draw(st.sampled_from([(600.0, 30.0), (300.0, 45.0), (0.0, 30.0)]))
    rp = RiskParams(
        horizon_T=horizon_T, horizon_step=horizon_step,
        mutual_mode=draw(st.sampled_from(MUTUAL_MODES)),
    )
    return own, tgt, rows, rates, rp


class TestCollisionKernel:
    @given(
        seed=st.integers(0, 2**32 - 1),
        off_s=st.sampled_from([0.0, -0.0, 20.0, -35.5]),
        shapes=st.sampled_from([((), (), ()), ((), (7,), ()), ((3, 1), (5,), (3, 5))]),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_factor_matches_reference_bitwise(self, seed, off_s, shapes):
        # domain terms, x and y of different shapes broadcast together
        rng = np.random.default_rng(seed)
        domain_shape, x_shape, y_shape = shapes
        a = rng.uniform(100.0, 800.0, domain_shape)
        b = rng.uniform(50.0, 300.0, domain_shape)
        off_f = a * rng.uniform(-0.5, 0.5, domain_shape)
        x, y = rng.uniform(-1e3, 1e3, x_shape), rng.uniform(-1e3, 1e3, y_shape)
        if np.ndim(x) and np.ndim(y):
            x[0], y.flat[0] = 0.0, 0.0  # the vessel position
        got = _Quadratic.of(a, b, off_f, off_s).solve(x, y)
        expected = reference_scale_factor_xy(a, b, off_f, off_s, x, y)
        assert got.shape == expected.shape
        assert np.array_equal(np.asarray(got).view(np.int64), expected.view(np.int64))

    # an element budget of 25 gives one own state and one table row per
    # pass, and 130 two of each on most cases
    @given(kernel_cases(), st.sampled_from([25, 130, risk.KERNEL_CHUNK_ELEMS]))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_bitwise(self, case, chunk_elems):
        own, tgt, rows, rates, rp = case
        dp = DomainParams()
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk_elems):
            got = collision_risk_grid(own, tgt, rates, rp, dp, rows)
        # the reference reads each own state's row of targets
        paired = tgt if rows is None else tgt.select(rows)
        expected = reference_collision_risk_grid(own, paired, rates, rp, dp)
        assert got.shape == expected.shape == (own.north.size, tgt.north.shape[-1], rates.size)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(MUTUAL_MODES),
        shape=st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(1, 3)),
    )
    @settings(max_examples=30, deadline=None)
    def test_grid_matches_scalar_reference(self, seed, mode, shape):
        rng = np.random.default_rng(seed)
        n_own, n_tgt, n_rates = shape
        rp = RiskParams(horizon_T=300.0, horizon_step=45.0, mutual_mode=mode)
        dp = DomainParams()
        owns, tgts = random_states(rng, n_own), random_states(rng, n_tgt)
        rates = rng.uniform(-0.05, 0.05, n_rates)
        grid = collision_risk_grid(
            StateArrays.of(owns), StateArrays.of(tgts), rates, rp, dp
        )
        assert grid.shape == (n_own, n_tgt, n_rates)
        for c, own in enumerate(owns):
            for k, tgt in enumerate(tgts):
                for r, rate in enumerate(rates):
                    expected = reference_collision_risk(own, tgt, float(rate), rp, dp)
                    assert abs(grid[c, k, r] - expected) <= 1e-12


class OldQuadratic(_Quadratic):
    """_Quadratic with the solve it had before the kernel built each side
    once per call."""

    solve = old_solve


def old_predict_positions(state, dts, rate=0.0):
    """predict_positions on the old travel_distance."""
    dts = np.asarray(dts, dtype=float)
    north, east, _ = sail(state.north, state.east, state.heading,
                          old_travel_distance(state.speed, dts, rate))
    return north, east, np.maximum(0.0, state.speed + rate * dts)


class OldHorizon(NamedTuple):
    """risk._Horizon before the kernel built each side once per call."""

    north: np.ndarray
    east: np.ndarray
    frame: _Frame
    quad: _Quadratic

    @classmethod
    def of(cls, states: StateArrays, offsets, rates, dp: DomainParams, target: bool):
        """``states`` shaped to broadcast against ``offsets`` and ``rates``."""
        north, east, speed = old_predict_positions(states, offsets, rates)
        semi_major, semi_minor = domain_axes(speed, states.length, dp)
        frame = _Frame.of(states.heading, reverse=target)
        quad = OldQuadratic.of(semi_major, semi_minor, dp.offset_fraction * semi_major, 0.0)
        return cls(north, east, frame, quad)

    def scale_factor(self, d_north, d_east) -> np.ndarray:
        return self.quad.solve(*self.frame(d_north, d_east))

    def take(self, index) -> "OldHorizon":
        """The vessels at ``index`` along the first axis."""
        frame, quad = (type(p)(*(a if a is None else a[index] for a in p)) for p in self[2:])
        return OldHorizon(self.north[index], self.east[index], frame, quad)


def old_own_horizon(own: StateArrays, offsets: np.ndarray, dp: DomainParams) -> OldHorizon:
    """Own vessels, holding speed and course, as (own, 1, 1, offsets)."""
    return OldHorizon.of(own.expand(0, 4), offsets, 0.0, dp, target=False)


def old_target_horizon(tgt, offsets, rates, dp) -> OldHorizon:
    """A (times, targets) table of targets changing speed at each rate, as
    (times, targets, rates, offsets)."""
    g = StateArrays(*(a[..., None, None] for a in tgt))
    return OldHorizon.of(g, offsets, rates[:, None], dp, target=True)


def old_collision_risk_grid(own, tgt, rates, rp, dp, rows=None) -> np.ndarray:
    """collision_risk_grid as it was, rebuilding the own side for every
    chunk of own states, picked by index arrays."""
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    offsets = rp.horizon_offsets()
    tgt = StateArrays(*map(np.atleast_2d, tgt))
    n_own, (n_rows, n_tgt) = own.north.size, tgt.north.shape
    rows = np.zeros(n_own, dtype=int) if rows is None else rows
    out = np.empty((n_own, n_tgt, rates.size))
    chunk = max(1, risk.KERNEL_CHUNK_ELEMS // max(n_tgt * rates.size * offsets.size, 1))
    for first in range(0, n_rows, chunk):
        block = tgt.select(slice(first, first + chunk))
        horizon = old_target_horizon(block, offsets, rates, dp)
        readers = np.flatnonzero((rows >= first) & (rows < first + chunk))
        for lo in range(0, readers.size, chunk):
            index = readers[lo:lo + chunk]
            part, near, targets, local = own.select(index), block, horizon, rows[index] - first
            if n_rows > 1 and not np.array_equal(local, np.arange(len(block.north))):
                near, targets = block.select(local), horizon.take(local)
            dist = np.hypot(part.north[:, None] - near.north, part.east[:, None] - near.east)
            arena = risk_index(dist / rp.arena_radius, rp)[:, :, None]
            own_side = old_own_horizon(part, offsets, dp)
            out[index] = risk._mutual_index(own_side, targets, rp) * arena
    return out


def old_outside_unit(value):
    """First entry of ``value`` outside [0, 1] (NaN included), else None."""
    value = np.asarray(value)
    bad = ~((value >= 0.0) & (value <= 1.0))
    return value[bad].flat[0] if bad.any() else None


def old_compose_scenario_risk(collision_risks, grounding_max):
    """compose_scenario_risk as it was, one range check per column."""
    sr = 0.0
    for i, cr in enumerate(collision_risks):
        bad = old_outside_unit(cr)
        if bad is not None:
            raise ValueError(f"collision risk #{i} = {bad} outside [0, 1]")
        sr = cr + sr * (1.0 - cr)
    bad = old_outside_unit(grounding_max)
    if bad is not None:
        raise ValueError(f"grounding risk {bad} outside [0, 1]")
    return grounding_max + sr * (1.0 - grounding_max)


@st.composite
def edge_kernel_cases(draw):
    """kernel_cases' tables and row orders at realistic coordinates or at
    coordinates up to 1e150 m, with signed-zero, NaN, negative and mixed
    rates, and maybe a target of the own state's row at its position, both
    at rest (den = 0 at every offset)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_own, n_tgt = draw(st.integers(1, 8)), draw(st.integers(0, 3))
    n_rows = draw(st.integers(1, n_own))
    own = random_state_arrays(rng, (n_own,))
    tgt = random_state_arrays(rng, (n_rows, n_tgt))
    if draw(st.booleans()):
        for states in (own, tgt):
            states.north[...] = extreme_coordinates(rng, states.north.shape)
            states.east[...] = extreme_coordinates(rng, states.east.shape)
    rows = rng.integers(0, n_rows, n_own)
    order = draw(st.sampled_from(["random", "grouped", "cycling"]))
    if order == "grouped":
        rows.sort()
    elif order == "cycling":
        rows = np.arange(n_own) % n_rows
    if n_tgt and draw(st.booleans()):
        c = draw(st.integers(0, n_own - 1))
        at = (rows[c], 0)
        tgt.north[at], tgt.east[at] = own.north[c], own.east[c]
        own.speed[c] = tgt.speed[at] = 0.0
    if n_rows == 1 and draw(st.booleans()):
        tgt, rows = StateArrays(*(a[0] for a in tgt)), None
    rates = draw(st.one_of(
        st.sampled_from(EDGE_RATES).map(lambda r: np.array([r])),
        st.lists(st.sampled_from(EDGE_RATES), min_size=2, max_size=6).map(np.array),
        st.just(np.linspace(-0.05, 0.05, 64)),
    ))
    horizon_T, horizon_step = draw(st.sampled_from([(600.0, 30.0), (300.0, 45.0), (0.0, 30.0)]))
    rp = RiskParams(horizon_T=horizon_T, horizon_step=horizon_step,
                    mutual_mode=draw(st.sampled_from(MUTUAL_MODES)))
    return own, tgt, rows, rates, rp


class TestOneSidePerCall:
    """The collision kernel, with each side built once per call and runs of
    own states read as slices, and the one-pass range check of the
    composition give, bit for bit, what they gave before."""

    # an element budget of 25 gives one own state and one table row per
    # pass; one of two or three of each lets a pass read own states that are
    # not consecutive
    @given(edge_kernel_cases(), st.sampled_from([25, 2, 3, risk.KERNEL_CHUNK_ELEMS]))
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_old(self, case, chunk_elems):
        own, tgt, rows, rates, rp = case
        dp = DomainParams()
        if chunk_elems in (2, 3):  # own states and table rows per pass
            per_state = max(tgt.north.shape[-1], 1) * rates.size * rp.horizon_offsets().size
            chunk_elems *= per_state
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk_elems), \
                np.errstate(over="ignore", invalid="ignore"):
            got = collision_risk_grid(own, tgt, rates, rp, dp, rows)
            want = old_collision_risk_grid(own, tgt, rates, rp, dp, rows)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(
        st.integers(0, 5),
        st.sampled_from([(), (1,), (7,)]),
        st.lists(st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1.0 - 2**-53]),
            st.sampled_from([-1e-300, 1.0000000000000002, math.nan, 2, -1, math.inf]),
        ), min_size=48, max_size=48),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_compose_matches_old(self, n_columns, shape, values, scalar_grounding):
        # columns and the grounding broadcast together; values are drawn
        # in order, so an out-of-range one may fall in any column
        pool = iter(values)
        size = math.prod(shape)

        def column():
            picked = [next(pool) for _ in range(size)]
            return picked[0] if shape == () else np.array(picked).reshape(shape)

        columns = [column() for _ in range(n_columns)]
        grounding = next(pool) if scalar_grounding else column()
        outcomes = []
        for compose in (compose_scenario_risk, old_compose_scenario_risk):
            try:
                outcomes.append(np.asarray(compose(columns, grounding), dtype=float))
            except ValueError as error:
                outcomes.append(str(error))
        got, want = outcomes
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str) and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def reference_densify(polygons, spacing):
    """The per-edge loop that the array pass replaced, kept as its reference."""
    points = []
    for ring in polygons:
        for a, b in zip(ring[:-1], ring[1:]):
            edge = b - a
            edge_len = float(np.hypot(edge[0], edge[1]))
            if edge_len == 0.0:
                continue
            n = max(1, int(math.ceil(edge_len / spacing - 1e-12)))
            fracs = np.arange(n) / n
            points.append(a + fracs[:, None] * edge)
    return np.vstack(points) if points else np.empty((0, 2))


@st.composite
def rings(draw):
    """A closed ring whose vertices often repeat (zero-length edges) and
    whose coordinates mix round and arbitrary values."""
    coord = st.one_of(st.sampled_from([0.0, 10.0, 100.0]), st.floats(-2000.0, 2000.0))
    vertices = []
    for _ in range(draw(st.integers(3, 7))):
        vertex = [draw(coord), draw(coord)]
        vertices += [vertex] * draw(st.integers(1, 2))
    return np.array(vertices + [vertices[0]])


def test_horizon_step_budget():
    """A horizon may be sampled in up to ``MAX_HORIZON_STEPS`` steps; a finer
    step is refused, naming it, before any offset is made."""
    horizon = float(risk.MAX_HORIZON_STEPS)
    assert RiskParams(horizon_T=horizon, horizon_step=1.0).horizon_offsets().size == horizon + 1
    for step in (0.999, 1e-9, 5e-324):
        with pytest.raises(ValueError, match=r"horizon_step .* into more than 10,000 steps"):
            RiskParams(horizon_T=horizon, horizon_step=step)


class TestDensify:
    @given(
        st.lists(rings(), max_size=4),
        st.one_of(st.sampled_from([0.5, 7.0, 5000.0]), st.floats(0.1, 3000.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_edge_loop(self, polygons, spacing):
        points = densify_boundaries(polygons, spacing)
        ref_points = reference_densify(polygons, spacing)
        assert points.shape == ref_points.shape
        assert points.tobytes() == ref_points.tobytes()

    def test_empty_polygon_list(self):
        assert densify_boundaries([], 50.0).shape == (0, 2)

    def test_point_budget(self, monkeypatch):
        # a 200 m square: 16 points at 50 m spacing, 8 at 100 m
        ring = closed_square(0.0, 0.0, 100.0)
        monkeypatch.setattr(risk, "MAX_BOUNDARY_POINTS", 8)
        assert densify_boundaries([ring], 100.0).shape == (8, 2)
        with pytest.raises(ValueError, match="spacing 50.0 gives 16 boundary points, more than the 8"):
            densify_boundaries([ring], 50.0)

    def test_spacing_over_budget_allocates_nothing(self):
        # 8e10 points at 1e-8 m spacing, 1.3 TB as float64 pairs
        ring = closed_square(0.0, 0.0, 100.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="gives 8e\\+10 boundary points, more than the"):
                densify_boundaries([ring], 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_non_finite_vertex_rejected(self):
        ring = closed_square(0.0, 0.0, 50.0)
        ring[1, 0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            densify_boundaries([ring], 10.0)

    def test_archive_round_trip_keeps_points(self, tmp_path):
        rng = np.random.default_rng(4)
        polygons = [
            closed_square(*rng.uniform(-3000.0, 3000.0, 2), rng.uniform(10.0, 500.0))
            for _ in range(5)
        ]
        scenario = Scenario(
            origin=(55.0, 10.0), epoch=0.0, dt=10.0,
            tracks={"own": straight_track("own", 0.0, 0.0, 0.0, 3.0, 0.0, 5)},
            obstacles=ObstacleSet(polygons, spacing=float(rng.uniform(5.0, 60.0))),
        )
        scenario.save(tmp_path / "scenario.json")
        loaded = Scenario.load(tmp_path / "scenario.json").obstacles
        assert loaded.boundary_points.tobytes() == scenario.obstacles.boundary_points.tobytes()


def reference_open_ring(polygons):
    """The per-ring ``np.allclose`` loop that the one-pass closure check
    replaced, kept as its reference: the index of the first open ring, or
    None."""
    for i, ring in enumerate(polygons):
        if not np.allclose(ring[0], ring[-1]):
            return i
    return None


@st.composite
def end_gap_rings(draw):
    """A ring whose last vertex sits off its first by a multiple of
    ``np.allclose``'s tolerance in each coordinate: 0 closes it exactly,
    below 1 within tolerance, above 1 beyond it; or a last vertex drawn
    freely."""
    coord = st.one_of(st.sampled_from([0.0, -0.0, 1e-9, 100.0]), st.floats(-2000.0, 2000.0))
    vertices = np.array([[draw(coord), draw(coord)] for _ in range(draw(st.integers(3, 6)))])
    if draw(st.booleans()):
        last = np.array([draw(coord), draw(coord)])
    else:
        # 1.000005 passes only when the tolerance is taken relative to the
        # last vertex, as allclose(first, last) does
        multiple = st.sampled_from(
            [0.0, 0.5, 0.999, 1.0, 1.000005, 1.001, 2.0, -0.999, -1.000005, -1.001, 1e6]
        )
        scale = np.array([draw(multiple), draw(multiple)])
        last = vertices[0] + scale * (1e-8 + 1e-5 * np.abs(vertices[0]))
    return np.vstack([vertices, last])


class TestRingClosure:
    @given(st.lists(end_gap_rings(), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_ring_allclose(self, polygons):
        expected = reference_open_ring(polygons)
        if expected is None:
            ObstacleSet(polygons, spacing=500.0)
        else:
            with pytest.raises(ValueError, match=f"^polygon {expected} is not closed$"):
                ObstacleSet(polygons, spacing=500.0)

    def test_non_finite_end_vertex_is_open(self):
        ring = closed_square(0.0, 0.0, 50.0)
        ring[-1, 1] = math.nan
        with pytest.raises(ValueError, match="^polygon 1 is not closed$"):
            ObstacleSet([closed_square(0.0, 0.0, 10.0), ring])


def reference_grounding(state, points, rp, dp):
    """Per-state scalar grounding: the points strictly inside the arena, the
    channel-adjusted domain and the largest per-point risk, one point at a
    time. Returns (adjusted domain, max risk)."""
    pts = [p for p in points if math.hypot(p[0] - state.north, p[1] - state.east)
           < rp.arena_radius]
    domain = make_domain(state, dp)
    if not pts:
        return domain, 0.0
    if rp.channel_adjust:
        corridor = rp.channel_corridor if rp.channel_corridor is not None else domain.semi_major
        port = starboard = rp.arena_radius
        c, s = math.cos(state.heading), math.sin(state.heading)
        for pn, pe in pts:
            dn, de = pn - state.north, pe - state.east
            x, y = c * dn + s * de, -s * dn + c * de
            if 0.0 <= x <= corridor:
                if y > 0.0:
                    starboard = min(starboard, y)
                elif y < 0.0:
                    port = min(port, -y)
        width = port + starboard
        new_minor = max(rp.channel_gamma * width / 2.0, 1e-3)
        if 2.0 * domain.semi_minor > width and new_minor < domain.semi_minor:
            domain = replace(
                domain,
                semi_minor=new_minor,
                center_offset_stb=domain.center_offset_stb * new_minor / domain.semi_minor,
            )
    offsets = rp.horizon_offsets() if rp.grounding_horizon_max else [0.0]
    # own speed holds, so the domain holds its shape over the horizon
    positions = [predict_state(state, float(dt)).position for dt in offsets]
    best = 0.0
    for pn, pe in pts:
        target = LocalPoint(pn, pe)
        r_d = max(risk_index(scale_factor(domain, target, pos), rp) for pos in positions)
        dist = math.hypot(pn - state.north, pe - state.east)
        best = max(best, r_d * risk_index(dist / rp.arena_radius, rp))
    return domain, best


def reference_domain_index(heading, semi_major, semi_minor, d_north, d_east, rp, dp):
    """Domain index of points displaced (d_north, d_east) from a vessel with
    the given heading and domain axes, the center ``offset_fraction`` of the
    semi-major axis ahead. All arguments broadcast."""
    c, s = np.cos(heading), np.sin(heading)
    x, y = c * d_north + s * d_east, -s * d_north + c * d_east
    f = reference_scale_factor_xy(
        semi_major, semi_minor, dp.offset_fraction * semi_major, 0.0, x, y
    )
    return risk_index(f, rp)


def reference_grounding_grid(own, pts, rp, dp):
    """The grounding kernel with the horizon maximum taken offset by offset:
    the own vessels predicted at each offset, every point rotated into
    each predicted domain and indexed there, and the largest index kept."""
    o = own.expand(0, 2)
    d_north = pts[:, 0] - o.north
    d_east = pts[:, 1] - o.east
    dist = np.hypot(d_north, d_east)
    inside = dist < rp.arena_radius
    semi_major, semi_minor = domain_axes(o.speed, o.length, dp)
    c, s = np.cos(o.heading), np.sin(o.heading)
    x, y = c * d_north + s * d_east, -s * d_north + c * d_east
    if rp.channel_adjust:
        corridor = semi_major if rp.channel_corridor is None else rp.channel_corridor
        ahead = inside & (x >= 0.0) & (x <= corridor)
        cap = rp.arena_radius
        starboard = np.min(np.where(ahead & (y > 0.0), y, cap), axis=1, keepdims=True, initial=cap)
        port = np.min(np.where(ahead & (y < 0.0), -y, cap), axis=1, keepdims=True, initial=cap)
        width = port + starboard
        new_minor = np.maximum(rp.channel_gamma * width / 2.0, 1e-3)
        shrink = (2.0 * semi_minor > width) & (new_minor < semi_minor)
        semi_minor = np.where(shrink, new_minor, semi_minor)
    if rp.grounding_horizon_max:
        o3 = own.expand(0, 3)
        on, oe, ov = predict_positions(o3, rp.horizon_offsets()[:, None], 0.0)
        # semi-minor is speed-independent, so the channel-adjusted value
        # holds across the whole horizon
        r_d = reference_domain_index(
            o3.heading, domain_axes(ov, o3.length, dp)[0], semi_minor[:, :, None],
            pts[:, 0] - on, pts[:, 1] - oe, rp, dp,
        ).max(axis=1)
    else:
        f = reference_scale_factor_xy(
            semi_major, semi_minor, dp.offset_fraction * semi_major, 0.0, x, y
        )
        r_d = risk_index(f, rp)
    r_a = risk_index(dist / rp.arena_radius, rp)
    return np.where(inside, r_d * r_a, 0.0)


def lane_scene(rng):
    """A 200 m lane between two banks plus a shoal off its southern end, and
    own states: four in the lane, three anywhere, and a last one that sees
    no chart point inside its arena."""
    walls = [
        np.array([[-600.0, e0], [-600.0, e1], [600.0, e1], [600.0, e0], [-600.0, e0]])
        for e0, e1 in ((-300.0, -100.0), (100.0, 300.0))
    ]
    obstacles = ObstacleSet(
        walls + [closed_square(-900.0, 0.0, 60.0)], spacing=float(rng.uniform(40.0, 100.0))
    )
    in_lane = [
        VesselState(0.0, rng.uniform(-700.0, 700.0), rng.uniform(-90.0, 90.0),
                    rng.uniform(0.0, 8.0), rng.uniform(0.0, 2.0 * math.pi),
                    rng.uniform(50.0, 250.0))
        for _ in range(4)
    ]
    far = VesselState(0.0, 9000.0, 9000.0, 3.0, 1.0, 100.0)
    return in_lane + random_states(rng, 3) + [far], obstacles


class TestGroundingKernel:
    @given(
        seed=st.integers(0, 2**32 - 1),
        channel_adjust=st.booleans(),
        corridor=st.sampled_from([None, 150.0]),
        horizon=st.sampled_from([(600.0, 30.0), (300.0, 45.0), (0.0, 30.0)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_matches_offset_by_offset_reference(self, seed, channel_adjust, corridor, horizon):
        # the default branch bitwise; the horizon maximum, a shift along the
        # heading in place of a prediction per offset, to rounding
        rng = np.random.default_rng(seed)
        owns, obstacles = lane_scene(rng)
        own, pts, dp = StateArrays.of(owns), obstacles.boundary_points, DomainParams()
        for horizon_max in (False, True):
            rp = RiskParams(
                horizon_T=horizon[0], horizon_step=horizon[1], channel_adjust=channel_adjust,
                channel_corridor=corridor, grounding_horizon_max=horizon_max,
            )
            got = old_grounding_grid(own, pts, rp, dp)
            expected = reference_grounding_grid(own, pts, rp, dp)
            assert got.shape == expected.shape == (len(owns), pts.shape[0])
            if horizon_max:
                assert np.abs(got - expected).max() <= 1e-12
            else:
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @given(
        seed=st.integers(0, 2**32 - 1),
        channel_adjust=st.booleans(),
        corridor=st.sampled_from([None, 150.0]),
        horizon_max=st.booleans(),
        chunk_elems=st.sampled_from([1, 25, risk.KERNEL_CHUNK_ELEMS]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_state_reference(
        self, seed, channel_adjust, corridor, horizon_max, chunk_elems
    ):
        rng = np.random.default_rng(seed)
        rp = RiskParams(
            horizon_T=300.0, horizon_step=45.0, channel_adjust=channel_adjust,
            channel_corridor=corridor, grounding_horizon_max=horizon_max,
        )
        dp = DomainParams()
        owns, obstacles = lane_scene(rng)
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk_elems):
            got = scenario_risks(StateArrays.of(owns), 0.0, [], obstacles, rp, dp).grounding
        assert got[-1] == 0.0
        points = obstacles.boundary_points
        for c, state in enumerate(owns):
            _, expected = reference_grounding(state, points, rp, dp)
            assert abs(got[c] - expected) <= 1e-12
