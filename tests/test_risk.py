import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamanship.geometry import (
    ArenaSpec,
    DomainParams,
    DomainSpec,
    LocalPoint,
    VesselState,
    make_domain,
)
from seamanship.risk import (
    ObstacleSet,
    RiskParams,
    adjust_domain_for_channel,
    compose_scenario_risk,
    compute_risk_series,
    grounding_risk,
    mutual_collision_risk,
    overall_collision_risk,
    risk_index,
    scenario_risk_for_state,
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
