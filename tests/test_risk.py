import math
from dataclasses import replace
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
    make_domain,
    predict_state,
    scale_factor,
)
from seamanship import risk
from seamanship.ingest import Scenario
from seamanship.risk import (
    MUTUAL_MODES,
    ObstacleSet,
    RiskParams,
    adjust_domain_for_channel,
    collision_risk_grid,
    compose_scenario_risk,
    compute_risk_series,
    densify_boundaries,
    grounding_risk,
    mutual_collision_risk,
    overall_collision_risk,
    risk_index,
    scenario_risk_for_state,
    scenario_risks,
)
from .test_geometry import straight_track


class TestRiskIndex:
    def test_midpoint(self):
        assert risk_index(1.0) == 0.5

    def test_deep_violation(self):
        assert risk_index(0.0) == pytest.approx(0.9999546021312976, abs=1e-12)

    def test_clear_water(self):
        assert risk_index(1.5) == pytest.approx(0.0066928509242848554, abs=1e-12)

    def test_overflow_safe(self):
        with np.errstate(over="raise"):
            assert risk_index(1e9) == 0.0
            assert risk_index(-1e9) == 1.0

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


def points_in_arena(polygons, arena, spacing):
    return ObstacleSet(polygons, spacing=spacing).points_in_arena(arena)


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


class TestGrounding:
    def test_no_points_zero(self):
        s = VesselState(0.0, 0.0, 0.0, 3.0, 0.0, 100.0)
        per, mx = grounding_risk(s, np.empty((0, 2)))
        assert per.size == 0 and mx == 0.0

    def test_point_at_vessel_position(self):
        s = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
        _, mx = grounding_risk(s, np.array([[0.0, 0.0]]))
        assert mx == pytest.approx(risk_index(0.0) ** 2, abs=1e-9)

    def test_adding_points_never_decreases_max(self):
        s = VesselState(0.0, 0.0, 0.0, 2.0, 0.5, 100.0)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-800.0, 800.0, size=(20, 2))
        rp = RiskParams(channel_adjust=False)
        prev = 0.0
        for m in range(1, 21):
            _, mx = grounding_risk(s, pts[:m], rp)
            assert mx >= prev - 1e-12
            prev = mx

    def test_horizon_max_at_least_instantaneous(self):
        s = VesselState(0.0, 0.0, 0.0, 5.0, 0.0, 100.0)
        pts = np.array([[700.0, 30.0], [500.0, -100.0]])
        _, inst = grounding_risk(s, pts, RiskParams(channel_adjust=False))
        _, hor = grounding_risk(
            s, pts, RiskParams(channel_adjust=False, grounding_horizon_max=True)
        )
        assert hor >= inst - 1e-12


class TestChannelAdjustment:
    def test_open_water_unchanged(self):
        s = VesselState(0.0, 0.0, 0.0, 3.0, 0.0, 100.0)
        d = make_domain(s)
        assert adjust_domain_for_channel(d, s, np.empty((0, 2))) == d

    def test_narrow_channel_shrinks_beam(self):
        # walls 100 m off each beam: width 200 < 2 * 160 -> minor = 0.8 * 100
        s = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
        d = make_domain(s)
        walls = np.array([[50.0, 100.0], [50.0, -100.0]])
        adj = adjust_domain_for_channel(d, s, walls)
        assert adj.semi_minor == pytest.approx(80.0)
        assert adj.semi_major == d.semi_major

    def test_wide_channel_unchanged(self):
        s = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
        d = make_domain(s)
        walls = np.array([[50.0, 400.0], [50.0, -400.0]])
        assert adjust_domain_for_channel(d, s, walls) == d

    def test_one_sided_wall_capped_by_arena(self):
        # single near wall: far side capped at arena radius, width stays large
        s = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
        d = make_domain(s)
        walls = np.array([[50.0, 60.0]])
        adj = adjust_domain_for_channel(d, s, walls)
        assert adj == d

    def test_points_behind_ignored(self):
        s = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
        d = make_domain(s)
        walls = np.array([[-50.0, 100.0], [-50.0, -100.0]])
        assert adjust_domain_for_channel(d, s, walls) == d


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
        a = straight_track("own", 0.0, 0.0, 0.0, 5.0, 0.0, 61)
        b = straight_track("tgt", 400.0, 6000.0, 0.0, 5.0, math.pi, 11)
        series = compute_risk_series({"own": a, "tgt": b}, "own", 0.0, 600.0)
        assert series.collision["tgt"][0] == 0.0
        assert np.any(series.collision["tgt"] > 0.0) or True

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
        step = scenario_risk_for_state(
            own.state_at(100.0), 100.0, [tgt], None, hold_targets=True
        )
        assert step.targets_held is True
        skipped = scenario_risk_for_state(
            own.state_at(100.0), 100.0, [tgt], None, hold_targets=False
        )
        assert skipped.collision == {}


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


def random_states(rng, n):
    return [
        VesselState(
            0.0, rng.uniform(-1500.0, 1500.0), rng.uniform(-1500.0, 1500.0),
            rng.uniform(0.0, 8.0), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(50.0, 250.0),
        )
        for _ in range(n)
    ]


class TestCollisionKernel:
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


def reference_densify(polygons, spacing):
    """The per-edge loop that the array pass replaced, kept as its reference."""
    points, index = [], []
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


class TestDensify:
    @given(
        st.lists(rings(), max_size=4),
        st.one_of(st.sampled_from([0.5, 7.0, 5000.0]), st.floats(0.1, 3000.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_edge_loop(self, polygons, spacing):
        points, index = densify_boundaries(polygons, spacing)
        ref_points, ref_index = reference_densify(polygons, spacing)
        assert points.shape == ref_points.shape
        assert points.tobytes() == ref_points.tobytes()
        assert index.dtype.kind == "i"
        assert np.array_equal(index, ref_index)

    def test_empty_polygon_list(self):
        points, index = densify_boundaries([], 50.0)
        assert points.shape == (0, 2) and index.shape == (0,)
        assert index.dtype.kind == "i"

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
        assert np.array_equal(loaded.point_polygon_index, scenario.obstacles.point_polygon_index)


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


class TestGroundingKernel:
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
        # a 200 m lane between two banks plus a shoal off its southern end
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
        # the last state sees no chart point inside its arena
        far = VesselState(0.0, 9000.0, 9000.0, 3.0, 1.0, 100.0)
        owns = in_lane + random_states(rng, 3) + [far]
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk_elems):
            got = scenario_risks(StateArrays.of(owns), 0.0, [], obstacles, rp, dp).grounding_max
        assert got[-1] == 0.0
        points = obstacles.boundary_points
        for c, state in enumerate(owns):
            domain, expected = reference_grounding(state, points, rp, dp)
            assert abs(got[c] - expected) <= 1e-12
            arena_pts = obstacles.points_in_arena(ArenaSpec(rp.arena_radius, state.position))
            if arena_pts.size:
                assert abs(grounding_risk(state, arena_pts, rp, dp)[1] - expected) <= 1e-12
                adjusted = adjust_domain_for_channel(make_domain(state, dp), state, arena_pts, rp)
                if channel_adjust:
                    assert abs(adjusted.semi_minor - domain.semi_minor) <= 1e-12
