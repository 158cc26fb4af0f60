"""Metamorphic properties: relations between two runs on scenes that differ
in a way the risk model must not notice.

- Rigid motion: rotating and translating every track and the chart together.
- Relabelling: renaming the targets.
- Time shift: adding one constant to every time.
- Mirror: reflecting every track and the chart across the north axis.

Each compares per-target collision, grounding and scenario risk over the
ownship's whole span (``compute_risk_series``) and the floor of an
``exhaustive_search``, which keeps every node, so ties cannot reorder what
a beam would cut. Rigid motion, time shifts and the mirror move values by
rounding only, to 1e-9; relabelling moves them by no more than the fold
order of the collision risks, to 1e-12.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seamanship.geometry import VesselTrack
from seamanship.planner import Hyperparameters, KinodynamicParams, exhaustive_search
from seamanship.risk import MUTUAL_MODES, ObstacleSet, RiskParams, compute_risk_series

from .test_risk import closed_square

SPAN = 600.0
STEP = 10.0
# levels of 62.5 s put the children between track samples
HYPER = Hyperparameters(n_t=2, n_alpha=3, n_v=2, horizon_T=125.0)
KIN = KinodynamicParams(v_min=0.0, v_max=12.0)


def turning_track(track_id, rng, t0, n, north0, east0, length):
    """A track of ``n`` samples STEP apart from ``t0``, starting at
    (north0, east0), at a random speed and a heading turning at a random
    steady rate, so that it may wrap through north."""
    times = t0 + STEP * np.arange(n)
    speed = np.full(n, rng.uniform(0.5, 8.0))
    heading = rng.uniform(0.0, 2.0 * math.pi) + rng.uniform(-0.01, 0.01) * (times - t0)
    legs = speed * STEP
    north = north0 + np.concatenate([[0.0], np.cumsum(legs * np.cos(heading))[:-1]])
    east = east0 + np.concatenate([[0.0], np.cumsum(legs * np.sin(heading))[:-1]])
    return VesselTrack(track_id, times, north, east, speed, heading, length)


@st.composite
def scenes(draw):
    """An ownship over [0, SPAN], one to three targets near its path (some
    starting late or ending early, so the recorded risk drops them where
    the planner holds them), an optional square shoal near its path, and
    one of the risk settings. Continuous values come from a seeded
    generator, so no coordinate is drawn onto a boundary of the kernels
    (the arena edge, the heading line of a channel-width point), where
    rounding alone may flip a comparison."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    own = turning_track("own", rng, 0.0, int(SPAN / STEP) + 1, 0.0, 0.0, 120.0)
    tracks = {"own": own}

    def near_path():
        k = rng.integers(own.times.size)
        return own.north[k] + rng.uniform(-500.0, 500.0), own.east[k] + rng.uniform(-500.0, 500.0)

    for k in range(draw(st.integers(1, 3))):
        t0 = draw(st.sampled_from([0.0, 0.0, 300.0]))
        n = draw(st.sampled_from([61, 20, 3]))
        n = min(n, int((SPAN - t0) / STEP) + 1)
        tracks[f"t{k}"] = turning_track(
            f"t{k}", rng, t0, n, *near_path(), rng.uniform(30.0, 250.0)
        )
    rings = [closed_square(*near_path(), rng.uniform(50.0, 300.0))] if draw(st.booleans()) else []
    rp = RiskParams(
        horizon_T=120.0,
        horizon_step=60.0,
        mutual_mode=draw(st.sampled_from(MUTUAL_MODES)),
        grounding_horizon_max=draw(st.booleans()),
        channel_adjust=draw(st.booleans()),
    )
    root = STEP * draw(st.integers(0, int(SPAN / STEP)))
    return tracks, rings, rp, root


def outcome(tracks, rings, rp, t_start, root):
    """The ownship's risk series over [t_start, t_start + SPAN] and the
    exhaustive floor at ``root``."""
    obstacles = ObstacleSet(rings, spacing=25.0)
    series = compute_risk_series(tracks, "own", t_start, t_start + SPAN, obstacles, rp)
    floor = exhaustive_search(tracks, "own", root, HYPER, KIN, rp, None, obstacles).sr_star
    return series, floor


def assert_same(got, want, names, tol):
    """``got`` equals ``want`` to ``tol``, reading ``want``'s target
    ``tid`` as ``names[tid]`` in ``got``."""
    (series, floor), (ref, ref_floor) = got, want
    assert sorted(series.collision) == sorted(names[tid] for tid in ref.collision)
    for tid, values in ref.collision.items():
        np.testing.assert_allclose(series.collision[names[tid]], values, rtol=0.0, atol=tol)
    np.testing.assert_allclose(series.grounding, ref.grounding, rtol=0.0, atol=tol)
    np.testing.assert_allclose(series.scenario, ref.scenario, rtol=0.0, atol=tol)
    assert abs(floor - ref_floor) <= tol


def same_names(tracks):
    return {tid: tid for tid in tracks}


@given(scenes(), st.floats(-math.pi, math.pi), st.floats(-5000.0, 5000.0),
       st.floats(-5000.0, 5000.0))
@settings(max_examples=40, deadline=None)
def test_rigid_motion_of_tracks_and_chart(scene, theta, d_north, d_east):
    tracks, rings, rp, root = scene
    c, s = math.cos(theta), math.sin(theta)

    def place(north, east):
        return c * north - s * east + d_north, s * north + c * east + d_east

    moved = {}
    for tid, tr in tracks.items():
        north, east = place(tr.north, tr.east)
        moved[tid] = dataclasses.replace(tr, north=north, east=east, heading=tr.heading + theta)
    moved_rings = [np.column_stack(place(ring[:, 0], ring[:, 1])) for ring in rings]
    assert_same(
        outcome(moved, moved_rings, rp, 0.0, root), outcome(tracks, rings, rp, 0.0, root),
        same_names(tracks), 1e-9,
    )


@given(scenes(), st.permutations(["a", "t1x", "zz", "m#1", "0"]))
@settings(max_examples=40, deadline=None)
def test_relabelled_targets(scene, new_names):
    tracks, rings, rp, root = scene
    names = {"own": "own", **dict(zip([tid for tid in tracks if tid != "own"], new_names))}
    renamed = {names[tid]: dataclasses.replace(tr, track_id=names[tid]) for tid, tr in tracks.items()}
    assert_same(
        outcome(renamed, rings, rp, 0.0, root), outcome(tracks, rings, rp, 0.0, root),
        names, 1e-12,
    )


@given(scenes(), st.one_of(st.sampled_from([86400.0, -3600.5, 0.25]),
                           st.floats(-10000.0, 10000.0)))
@settings(max_examples=40, deadline=None)
def test_one_constant_added_to_every_time(scene, shift):
    tracks, rings, rp, root = scene
    shifted = {tid: dataclasses.replace(tr, times=tr.times + shift) for tid, tr in tracks.items()}
    assert_same(
        outcome(shifted, rings, rp, shift, root + shift), outcome(tracks, rings, rp, 0.0, root),
        same_names(tracks), 1e-9,
    )


@given(scenes())
@settings(max_examples=40, deadline=None)
def test_mirror_image_of_tracks_and_chart(scene):
    # east -> -east and heading -> -heading reflect the scene across the
    # north axis: port and starboard swap, so a channel's two sides do
    # too. This holds while no domain has a lateral offset.
    tracks, rings, rp, root = scene
    mirrored = {
        tid: dataclasses.replace(tr, east=-tr.east, heading=-tr.heading)
        for tid, tr in tracks.items()
    }
    mirrored_rings = [ring * [1.0, -1.0] for ring in rings]
    assert_same(
        outcome(mirrored, mirrored_rings, rp, 0.0, root), outcome(tracks, rings, rp, 0.0, root),
        same_names(tracks), 1e-9,
    )
