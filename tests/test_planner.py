import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamanship.geometry import VesselState
from seamanship.planner import (
    Hyperparameters,
    KinodynamicParams,
    _level_search,
    branch_and_bound,
    exhaustive_search,
    sr_star_series,
    step_kinodynamics,
)
from seamanship import risk
from seamanship.risk import MUTUAL_MODES, ObstacleSet, RiskParams, scenario_risk_for_state
from .test_geometry import straight_track
from .test_risk import closed_square

# short horizon keeps toy searches cheap without changing the semantics
TOY_RISK = RiskParams(horizon_T=120.0, horizon_step=60.0)
KIN = KinodynamicParams(v_min=0.0, v_max=12.0)


class TestStepKinodynamics:
    def setup_method(self):
        self.state = VesselState(0.0, 0.0, 0.0, 5.0, 0.0, 100.0)

    def test_zero_rudder_straight(self):
        out = step_kinodynamics(self.state, 0.0, 5.0, 60.0, KIN)
        assert out.north == pytest.approx(300.0)
        assert out.east == pytest.approx(0.0, abs=1e-12)
        assert out.heading == 0.0

    def test_small_alpha_matches_straight(self):
        straight = step_kinodynamics(self.state, 0.0, 5.0, 60.0, KIN)
        tiny = step_kinodynamics(self.state, 1e-8, 5.0, 60.0, KIN)
        assert math.hypot(tiny.north - straight.north, tiny.east - straight.east) < 1e-6
        # just above the cutoff the true arc deviates only at sub-mm scale
        near = step_kinodynamics(self.state, 2e-6, 5.0, 60.0, KIN)
        assert math.hypot(near.north - straight.north, near.east - straight.east) < 1e-3

    def test_full_circle_returns_to_start(self):
        # full rudder: radius 300 m; pick dt so 100 steps close the circle
        n_steps = 100
        dt = 2.0 * math.pi * 300.0 / (5.0 * n_steps)
        s = self.state
        for _ in range(n_steps):
            s = step_kinodynamics(s, 1.0, 5.0, dt, KIN)
        assert math.hypot(s.north - self.state.north, s.east - self.state.east) < 1e-6 * 300.0
        gap = abs(s.heading - self.state.heading) % (2.0 * math.pi)
        assert min(gap, 2.0 * math.pi - gap) < 1e-9

    def test_arc_length_equals_run(self):
        # polyline length of many sub-steps converges to speed * dt
        dt, n_sub = 60.0, 4096
        s = self.state
        total = 0.0
        for _ in range(n_sub):
            nxt = step_kinodynamics(s, 0.25, 5.0, dt / n_sub, KIN)
            total += math.hypot(nxt.north - s.north, nxt.east - s.east)
            s = nxt
        # chord-sum underestimates the arc by O(dpsi^2 / n^2)
        assert total == pytest.approx(5.0 * dt, abs=1e-6)
        one = step_kinodynamics(self.state, 0.25, 5.0, dt, KIN)
        assert one.north == pytest.approx(s.north, abs=1e-6)
        assert one.east == pytest.approx(s.east, abs=1e-6)

    def test_starboard_rudder_turns_clockwise(self):
        out = step_kinodynamics(self.state, 1.0, 5.0, 30.0, KIN)
        assert out.heading > 0.0
        assert out.east > 0.0

    def test_speed_command_takes_effect_after_step(self):
        out = step_kinodynamics(self.state, 0.0, 2.0, 60.0, KIN)
        # leg still run at 5 m/s, arrival speed is the command
        assert out.north == pytest.approx(300.0)
        assert out.speed == 2.0

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            step_kinodynamics(self.state, 1.5, 5.0, 60.0, KIN)
        with pytest.raises(ValueError):
            step_kinodynamics(self.state, 0.0, 99.0, 60.0, KIN)


class TestGrids:
    def test_alpha_grid_spans_and_nests(self):
        h3 = Hyperparameters(n_alpha=3)
        h5 = Hyperparameters(n_alpha=5)
        g3, g5 = h3.alpha_grid(), h5.alpha_grid()
        assert g3[0] == -1.0 and g3[-1] == 1.0 and 0.0 in g3
        assert set(g3).issubset(set(g5))

    def test_single_alpha_is_straight(self):
        assert Hyperparameters(n_alpha=1).alpha_grid().tolist() == [0.0]

    def test_v_grid_collapsed_when_bounds_equal(self):
        kin = KinodynamicParams(v_min=5.0, v_max=5.0)
        assert Hyperparameters(n_v=4).v_grid(kin).tolist() == [5.0]

    @pytest.mark.parametrize(
        "field, value",
        [("n_t", 1.5), ("n_alpha", 3.0), ("n_v", True), ("beam_width", "8")],
    )
    def test_grid_sizes_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Hyperparameters(**{field: value})

    def test_numpy_integer_grid_sizes_accepted(self):
        assert Hyperparameters(n_t=np.int64(2)).n_t == 2


def open_water_scene():
    own = straight_track("own", 0.0, 0.0, 0.0, 5.0, 0.0, 121)
    far = straight_track("far", 0.0, 0.0, 60000.0, 5.0, 0.0, 121)
    return {"own": own, "far": far}


def crossing_scene(offset_east=0.0, speed=5.0):
    own = straight_track("own", 0.0, 0.0, 0.0, 5.0, 0.0, 121)
    tgt = straight_track(
        "tgt", 0.0, 1500.0, 900.0 + offset_east, speed, 3.0 * math.pi / 2.0, 121
    )
    return {"own": own, "tgt": tgt}


class TestBranchAndBound:
    def test_risk_free_scene_zero_and_straight_path_kept(self):
        hyper = Hyperparameters(n_t=2, n_alpha=5, n_v=2, horizon_T=240.0)
        res = branch_and_bound(open_water_scene(), "own", 0.0, hyper, KIN, TOY_RISK)
        assert res.sr_star == 0.0
        decisions = res.decisions()
        assert all(a == 0.0 for a, _ in decisions)

    def test_equals_exhaustive_single_level(self):
        hyper = Hyperparameters(n_t=1, n_alpha=7, n_v=3, horizon_T=240.0)
        scene = crossing_scene()
        bb = branch_and_bound(scene, "own", 0.0, hyper, KIN, TOY_RISK)
        ex = exhaustive_search(scene, "own", 0.0, hyper, KIN, TOY_RISK)
        assert bb.sr_star == ex.sr_star

    def test_never_beats_exhaustive(self):
        hyper = Hyperparameters(n_t=2, n_alpha=3, n_v=2, horizon_T=240.0)
        for off in (-200.0, 0.0, 300.0):
            scene = crossing_scene(off)
            bb = branch_and_bound(scene, "own", 0.0, hyper, KIN, TOY_RISK)
            ex = exhaustive_search(scene, "own", 0.0, hyper, KIN, TOY_RISK)
            assert bb.sr_star >= ex.sr_star - 1e-12

    def test_replay_reconstructs_states(self):
        hyper = Hyperparameters(n_t=3, n_alpha=3, n_v=2, horizon_T=360.0)
        scene = crossing_scene()
        res = branch_and_bound(scene, "own", 0.0, hyper, KIN, TOY_RISK)
        dt = hyper.horizon_T / hyper.n_t
        s = res.states[0].state
        for node in res.states[1:]:
            s = step_kinodynamics(s, node.alpha, node.v_cmd, dt, KIN)
            assert s.north == pytest.approx(node.state.north, abs=1e-9)
            assert s.east == pytest.approx(node.state.east, abs=1e-9)
            assert s.heading == pytest.approx(node.state.heading, abs=1e-12)

    def test_all_leaf_risks_within_tie_eps(self):
        hyper = Hyperparameters(n_t=2, n_alpha=5, n_v=2, horizon_T=240.0)
        res = branch_and_bound(crossing_scene(), "own", 0.0, hyper, KIN, TOY_RISK)
        risks = [p[-1].scenario_risk for p in res.paths]
        assert max(risks) - min(risks) <= hyper.tie_eps + 1e-15

    def test_beam_width_caps_ties(self):
        hyper = Hyperparameters(n_t=2, n_alpha=9, n_v=3, horizon_T=240.0, beam_width=4)
        res = branch_and_bound(open_water_scene(), "own", 0.0, hyper, KIN, TOY_RISK)
        assert len(res.paths) <= 4

    def test_held_targets_flagged(self):
        own = straight_track("own", 0.0, 0.0, 0.0, 5.0, 0.0, 121)
        short = straight_track("tgt", 0.0, 2000.0, 0.0, 5.0, math.pi, 5)
        res = branch_and_bound(
            {"own": own, "tgt": short}, "own", 0.0,
            Hyperparameters(n_t=1, n_alpha=3, n_v=2, horizon_T=240.0), KIN, TOY_RISK,
        )
        assert res.targets_held is True

    def test_missing_ownship_rejected(self):
        with pytest.raises(KeyError):
            branch_and_bound(open_water_scene(), "ghost", 0.0)

    def test_obstacles_raise_risk(self):
        scene = {"own": straight_track("own", 0.0, 0.0, 0.0, 5.0, 0.0, 121)}
        rocks = ObstacleSet([closed_square(900.0, 0.0, 250.0)], spacing=50.0)
        hyper = Hyperparameters(n_t=1, n_alpha=5, n_v=2, horizon_T=240.0)
        clear = branch_and_bound(scene, "own", 0.0, hyper, KIN, TOY_RISK)
        blocked = branch_and_bound(
            scene, "own", 0.0, hyper, KIN, TOY_RISK, obstacles=rocks
        )
        assert blocked.sr_star > clear.sr_star


class TestExhaustive:
    def test_budget_enforced(self):
        hyper = Hyperparameters(n_t=3, n_alpha=13, n_v=13, horizon_T=240.0)
        with pytest.raises(ValueError):
            exhaustive_search(
                open_water_scene(), "own", 0.0, hyper, KIN, TOY_RISK, max_sequences=1000
            )

    def test_finds_lower_risk_than_holding_course(self):
        scene = crossing_scene()
        hyper = Hyperparameters(n_t=2, n_alpha=3, n_v=2, horizon_T=240.0)
        ex = exhaustive_search(scene, "own", 0.0, hyper, KIN, TOY_RISK)
        assert 0.0 <= ex.sr_star <= 1.0
        assert ex.nodes_expanded == 6 + 36


class TestSrStarSeries:
    def test_open_water_zeros(self):
        hyper = Hyperparameters(n_t=1, n_alpha=3, n_v=2, horizon_T=240.0)
        out = sr_star_series(
            open_water_scene(), "own", [0.0, 100.0, 200.0], hyper, KIN, TOY_RISK
        )
        assert np.array_equal(out, np.zeros(3))

    def test_caching_consistent(self):
        hyper = Hyperparameters(n_t=1, n_alpha=3, n_v=2, horizon_T=240.0)
        scene = crossing_scene()
        out = sr_star_series(scene, "own", [0.0, 0.0, 100.0], hyper, KIN, TOY_RISK)
        assert out[0] == out[1]


@st.composite
def small_scenes(draw):
    """Ownship plus one to three straight targets, some of which have ended
    or not yet started at the query time (so the search holds them), an
    optional square shoal near the ownship, and one of the risk settings."""
    coord = st.floats(-1500.0, 1500.0)
    heading = st.floats(0.0, 2.0 * math.pi - 1e-9)
    tracks = {
        "own": straight_track(
            "own", 0.0, 0.0, 0.0, draw(st.floats(1.0, 8.0)), draw(heading), 61
        )
    }
    for k in range(draw(st.integers(1, 3))):
        tracks[f"t{k}"] = straight_track(
            f"t{k}", draw(st.sampled_from([0.0, 0.0, 300.0])), draw(coord), draw(coord),
            draw(st.floats(0.0, 8.0)), draw(heading), draw(st.sampled_from([61, 3])),
            length=draw(st.floats(50.0, 250.0)),
        )
    obstacles = None
    if draw(st.booleans()):
        shoal = closed_square(
            draw(st.floats(-800.0, 800.0)), draw(st.floats(-800.0, 800.0)),
            draw(st.floats(50.0, 300.0)),
        )
        obstacles = ObstacleSet([shoal], spacing=25.0)
    rp = RiskParams(
        horizon_T=120.0,
        horizon_step=60.0,
        mutual_mode=draw(st.sampled_from(MUTUAL_MODES)),
        grounding_horizon_max=draw(st.booleans()),
        channel_adjust=draw(st.booleans()),
    )
    return tracks, obstacles, rp


class TestBatchedLevels:
    # small element budgets split a level into several kernel passes
    @given(small_scenes(), st.sampled_from([1, 25, risk.KERNEL_CHUNK_ELEMS]))
    @settings(max_examples=30, deadline=None)
    def test_child_risks_match_scalar_scenario_risk(self, scene, chunk_elems):
        tracks, obstacles, rp = scene
        hyper = Hyperparameters(n_t=2, n_alpha=3, n_v=2, horizon_T=120.0)
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk_elems):
            levels, root, _, expanded = _level_search(
                tracks, "own", 50.0, hyper, KIN, rp, None, obstacles,
                prune=lambda scores, *_: np.arange(scores.size),
            )
        assert expanded == 6 + 36
        targets = [tr for tid, tr in sorted(tracks.items()) if tid != "own"]
        for level in levels:
            for i in range(level.north.size):
                state = VesselState(
                    level.time, level.north[i], level.east[i], level.speed[i],
                    level.heading[i], root.length,
                )
                step = scenario_risk_for_state(
                    state, level.time, targets, obstacles, rp, hold_targets=True
                )
                assert abs(step.scenario - level.risk[i]) <= 1e-12

    @given(small_scenes(), st.sampled_from([(2, 3, 2), (2, 5, 2), (3, 3, 1)]))
    @settings(max_examples=25, deadline=None)
    def test_branch_and_bound_never_beats_exhaustive(self, scene, grid):
        tracks, obstacles, rp = scene
        n_t, n_alpha, n_v = grid
        hyper = Hyperparameters(n_t=n_t, n_alpha=n_alpha, n_v=n_v, horizon_T=120.0)
        bb = branch_and_bound(tracks, "own", 50.0, hyper, KIN, rp, None, obstacles)
        ex = exhaustive_search(tracks, "own", 50.0, hyper, KIN, rp, None, obstacles)
        assert bb.sr_star >= ex.sr_star - 1e-12
