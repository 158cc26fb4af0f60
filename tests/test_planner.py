import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamanship.geometry import StateArrays, VesselState
from seamanship.planner import (
    Hyperparameters,
    KinodynamicParams,
    _level_search,
    _scene,
    branch_and_bound,
    exhaustive_search,
    sr_star_series,
    step_kinodynamics,
)
from seamanship import planner, risk
from seamanship.risk import MUTUAL_MODES, ObstacleSet, RiskParams, scenario_risks
from .test_geometry import straight_track
from .test_risk import closed_square, reference_scenario_risk_for_state

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

    def test_action_grid_bounded(self):
        """Up to ``MAX_ACTIONS`` actions are accepted; a larger grid is
        refused, naming both sizes, before any grid is built."""
        largest = Hyperparameters(n_alpha=planner.MAX_ACTIONS, n_v=1)
        assert largest.alpha_grid().size == planner.MAX_ACTIONS
        for n_alpha, n_v in ((planner.MAX_ACTIONS + 1, 1), (33, 32), (100_000_000, 3)):
            with pytest.raises(
                ValueError, match=f"n_alpha x n_v = {n_alpha} x {n_v} actions, more than the 1,024"
            ):
                Hyperparameters(n_alpha=n_alpha, n_v=n_v)

    def test_level_count_bounded(self):
        """Up to ``MAX_LEVELS`` levels are accepted; more are refused,
        naming the budget, before any level is built."""
        assert Hyperparameters(n_t=planner.MAX_LEVELS).n_t == 10_000
        for n_t in (planner.MAX_LEVELS + 1, 10**9):
            with pytest.raises(ValueError, match=f"n_t = {n_t} levels, more than the 10,000"):
                Hyperparameters(n_t=n_t)

    def test_exhaustive_budget_names_the_grid(self):
        """The sequence budget is checked without computing the full count:
        13 x 3 actions over 10,000 levels is a 15,911-digit number."""
        hyper = Hyperparameters(n_t=planner.MAX_LEVELS)
        with pytest.raises(ValueError, match=r"\(13 x 3\) \*\* 10000 action sequences exceed"):
            planner.exhaustive_search({}, "own", 0.0, hyper)

    def test_level_children_bounded(self):
        """Up to ``MAX_LEVEL_CHILDREN`` children per level (beam_width x
        actions) are accepted, the default grid and the largest in use among
        them; a wider beam is refused, naming all three fields."""
        assert planner.MAX_LEVEL_CHILDREN == 64 * planner.MAX_ACTIONS
        for hyper in (Hyperparameters(), Hyperparameters(n_alpha=13, n_v=13),
                      Hyperparameters(beam_width=planner.MAX_LEVEL_CHILDREN, n_alpha=1, n_v=1)):
            assert hyper.beam_width * hyper.n_alpha * hyper.n_v <= planner.MAX_LEVEL_CHILDREN
        for beam, n_alpha, n_v in ((100_000_000, 13, 3), (65, 1024, 1), (1681, 13, 3),
                                   (planner.MAX_LEVEL_CHILDREN + 1, 1, 1)):
            with pytest.raises(ValueError, match=(
                f"beam_width x n_alpha x n_v = {beam} x {n_alpha} x {n_v} children, "
                "more than the 65,536 a search level may hold"
            )):
                Hyperparameters(n_t=4, beam_width=beam, n_alpha=n_alpha, n_v=n_v)


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

    def test_memory_bounded_by_root_blocks(self):
        # open water ties every child, so each root keeps a full beam of 64
        # nodes on the 39-action grid; searched as one block, 40 roots
        # held about 10 MB, 10x a one-root search
        scene = open_water_scene()
        tracemalloc.start()
        try:
            out = sr_star_series(scene, "own", scene["own"].times[:40], Hyperparameters(),
                                 KIN, TOY_RISK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, np.zeros(40))
        assert peak < 2_000_000

    def test_memory_bounded_by_levels_in_root_blocks(self):
        # a beam of 1 on one action keeps the widest level at one node per
        # root, so the target table (roots x n_t rows, a cell per target)
        # sizes the block: 64 levels take 64 roots a block, and two blocks'
        # window peaks as one block's; searched as one block, 128 roots
        # held 1.9x the memory of 64
        scene = {"own": straight_track("own", 0.0, 0.0, 0.0, 5.0, 0.0, 241)}
        for k in range(10):
            scene[f"t{k}"] = straight_track(f"t{k}", 0.0, 50000.0 + 1000.0 * k, 0.0, 5.0, 0.0,
                                            241)
        hyper = Hyperparameters(n_t=64, n_alpha=1, n_v=1, horizon_T=600.0, beam_width=1)
        per_block = planner.ROOT_BLOCK_NODES // hyper.n_t
        peaks = []
        for n_roots in (per_block, 2 * per_block):
            tracemalloc.start()
            try:
                out = sr_star_series(scene, "own", scene["own"].times[:n_roots], hyper, KIN,
                                     TOY_RISK)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert np.array_equal(out, np.zeros(n_roots))
        assert peaks[1] < 1.25 * peaks[0]

    def test_uncovered_time_rejected(self):
        with pytest.raises(ValueError, match="not defined at t=2000.0"):
            sr_star_series(open_water_scene(), "own", [0.0, 2000.0])


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
    # small element budgets split a level into several kernel passes; the
    # roots span the ownship's track, its first and last samples included
    @given(
        small_scenes(), st.sampled_from([1, 25, risk.KERNEL_CHUNK_ELEMS]),
        st.sampled_from([[50.0], [50.0, 0.0, 600.0, 123.4]]),
    )
    @settings(max_examples=30, deadline=None)
    def test_child_risks_match_scalar_scenario_risk(self, scene, chunk_elems, roots):
        tracks, obstacles, rp = scene
        hyper = Hyperparameters(n_t=2, n_alpha=3, n_v=2, horizon_T=120.0)
        search = _scene(tracks, "own", roots, hyper, KIN, rp, None, obstacles)
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk_elems):
            levels, _, expanded = _level_search(search, np.array(roots), beam=False)
        assert expanded == len(roots) * (6 + 36)
        for level in levels[1:]:
            for i in range(level.north.size):
                time = level.time[level.root[i]]
                state = VesselState(
                    time, level.north[i], level.east[i], level.speed[i],
                    level.heading[i], search.own.length,
                )
                step = reference_scenario_risk_for_state(
                    state, time, search.targets, obstacles, rp, hold_targets=True
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
        dt = hyper.horizon_T / hyper.n_t
        for res in (bb, ex):
            best = max(n.scenario_risk for n in res.states[1:])
            assert res.path_risk == res.sr_star == best
            assert 1 <= len(res.paths) <= hyper.beam_width
            assert res.paths[0] == res.states
            plans = {tuple((n.alpha, n.v_cmd) for n in path[1:]) for path in res.paths}
            assert len(plans) == len(res.paths)
            for path in res.paths:
                risk = max(n.scenario_risk for n in path[1:])
                assert res.sr_star <= risk <= res.sr_star + hyper.tie_eps
                s = path[0].state
                for node in path[1:]:
                    s = step_kinodynamics(s, node.alpha, node.v_cmd, dt, KIN)
                    assert s.time == pytest.approx(node.state.time, abs=1e-9)
                    assert s.north == pytest.approx(node.state.north, abs=1e-9)
                    assert s.east == pytest.approx(node.state.east, abs=1e-9)
                    assert s.speed == node.state.speed == node.v_cmd
                    turn = (s.heading - node.state.heading + math.pi) % (2.0 * math.pi)
                    assert abs(turn - math.pi) <= 1e-9

    # one-root blocks up to the whole window in one block; beams of 1 and
    # 2 nodes bind the per-root cap
    @given(
        small_scenes(),
        st.lists(st.sampled_from([0.0, 600.0, 50.0, 123.4, 333.3]), min_size=1, max_size=6),
        st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2)]),
        st.sampled_from([1, 30, planner.ROOT_BLOCK_NODES]),
        st.sampled_from([25, risk.KERNEL_CHUNK_ELEMS]),
    )
    @settings(max_examples=30, deadline=None)
    def test_series_equals_branch_and_bound(self, scene, times, grid, block, chunk_elems):
        tracks, obstacles, rp = scene
        n_t, beam_width = grid
        hyper = Hyperparameters(n_t=n_t, n_alpha=3, n_v=2, horizon_T=120.0,
                                beam_width=beam_width)
        with mock.patch.object(planner, "ROOT_BLOCK_NODES", block), \
                mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk_elems):
            series = sr_star_series(tracks, "own", times, hyper, KIN, rp, None, obstacles)
            singles = [branch_and_bound(tracks, "own", t, hyper, KIN, rp, None, obstacles).sr_star
                       for t in times]
        assert series.tolist() == singles


class TestSearchTimeline:
    """A search places the targets once, in one table for every level, and
    scores each level exactly as one scenario_risks call per level would."""

    def test_one_table_per_search_and_per_root_block(self):
        tracks = crossing_scene()
        hyper = Hyperparameters(n_t=3, n_alpha=3, n_v=2, horizon_T=120.0, beam_width=2)
        # each table holds one row per root and level, and the roots' own
        # rows where the roots are scored
        with mock.patch.object(planner, "_target_table", wraps=risk._target_table) as spy:
            branch_and_bound(tracks, "own", 50.0, hyper, KIN, TOY_RISK)
            exhaustive_search(tracks, "own", 50.0, hyper, KIN, TOY_RISK)
            assert [call.args[1].size for call in spy.call_args_list] == [1 + 3, 1 + 3]
            # two roots per block (a widest level of 2 x 3 x 2 = 12 nodes):
            # five distinct times take three blocks
            spy.reset_mock()
            with mock.patch.object(planner, "ROOT_BLOCK_NODES", 24):
                sr_star_series(tracks, "own", [0.0, 10.0, 20.0, 10.0, 30.0, 40.0], hyper, KIN,
                               TOY_RISK)
            assert [call.args[1].size for call in spy.call_args_list] == [2 * 3, 2 * 3, 1 * 3]

    @given(
        small_scenes(),
        st.sampled_from([[50.0], [50.0, 0.0, 600.0, 123.4]]),
        st.booleans(),
        st.booleans(),
        st.sampled_from([25, risk.KERNEL_CHUNK_ELEMS]),
    )
    @settings(max_examples=30, deadline=None)
    def test_levels_match_scenario_risks_bitwise(self, scene, roots, beam, score_roots,
                                                 chunk_elems):
        tracks, obstacles, rp = scene
        hyper = Hyperparameters(n_t=2, n_alpha=3, n_v=2, horizon_T=120.0, beam_width=3)
        search = _scene(tracks, "own", roots, hyper, KIN, rp, None, obstacles)
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk_elems):
            levels, held, _ = _level_search(search, np.array(roots), beam, score_roots)
            scored = levels if score_roots else levels[1:]
            helds = []
            for level in scored:
                states = StateArrays(level.north, level.east, level.speed, level.heading,
                                     np.full(level.north.size, float(search.own.length)))
                step = scenario_risks(states, level.time[level.root], search.targets,
                                      obstacles, rp, search.dp, hold_targets=True)
                assert np.array_equal(level.risk.view(np.int64), step.scenario.view(np.int64))
                helds.append(step.targets_held)
        if not score_roots:
            assert np.isnan(levels[0].risk).all()
        assert held is any(helds)
