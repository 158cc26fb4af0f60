import dataclasses
import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamanship.geometry import (
    EARTH_RADIUS_M,
    TWO_PI,
    DomainParams,
    DomainSpec,
    LocalPoint,
    VesselState,
    VesselTrack,
    VesselType,
    _Frame,
    _Quadratic,
    _wrap_heading,
    ddv,
    find_tdv,
    interp_heading,
    make_domain,
    StateArrays,
    normalize_heading,
    predict_positions,
    predict_state,
    project,
    project_arrays,
    require_finite,
    sail,
    scale_factor,
    travel_distance,
    unproject,
)
from seamanship.ingest import IngestParams
from seamanship.planner import ALPHA_EPS, Hyperparameters, KinodynamicParams
from seamanship.risk import RiskParams
from seamanship.scoring import ScoreParams
from seamanship.speedmodel import SpeedParams

PARAMETER_BLOCKS = (
    DomainParams, RiskParams, KinodynamicParams, Hyperparameters, ScoreParams, IngestParams,
    SpeedParams,
)
# every float field of every parameter block, plus the optional corridor length
FLOAT_FIELDS = [
    (block, f.name)
    for block in PARAMETER_BLOCKS
    for f in dataclasses.fields(block)
    if isinstance(f.default, float)
] + [(RiskParams, "channel_corridor")]
# every other field: flags, names and grid sizes
OTHER_FIELDS = [
    (block, f.name)
    for block in PARAMETER_BLOCKS
    for f in dataclasses.fields(block)
    if (block, f.name) not in FLOAT_FIELDS
]
# (id, value, problem) for every float field
BAD_REALS = [
    ("nan", math.nan, "must be finite"),
    ("inf", math.inf, "must be finite"),
    ("str", "x", "must be a real number"),
    ("numeric_str", "1.5", "must be a real number"),
    ("bool", True, "must be a real number"),
    ("int_too_large", 10**400, "must be finite"),
]
# a flag given as a string or a count, or a name given as a number, would be
# used as it stands: "false" and 1 are truthy
BAD_FLAGS = [("str_false", "false"), ("int_0", 0), ("int_1", 1)]
BAD_TYPED = [
    (block, field, vid, value, f"must be a {kind}")
    for block, field, kind, values in [
        (RiskParams, "channel_adjust", "bool", BAD_FLAGS),
        (RiskParams, "grounding_horizon_max", "bool", BAD_FLAGS),
        (RiskParams, "mutual_mode", "str", [("int_5", 5)]),
        (IngestParams, "depth_key", "str", [("int_5", 5)]),
    ]
    for vid, value in values
]
PARAMETER_CASES = [
    pytest.param(block, field, value, problem, id=f"{vid}-{block.__name__}-{field}")
    for vid, value, problem in BAD_REALS
    for block, field in FLOAT_FIELDS
] + [
    pytest.param(block, field, value, problem, id=f"{vid}-{block.__name__}-{field}")
    for block, field, vid, value, problem in BAD_TYPED
]

ORIGIN = (55.0, 10.0)


def contains(domain: DomainSpec, target: LocalPoint, own: LocalPoint, f: float) -> bool:
    """Membership test for the domain scaled by f about the vessel position.

    Independent of the quadratic solver: checks the ellipse inequality
    directly in the domain frame.
    """
    if f <= 0.0:
        return False
    c, s = math.cos(domain.heading), math.sin(domain.heading)
    dn, de = target.north - own.north, target.east - own.east
    x = c * dn + s * de
    y = -s * dn + c * de
    dx = (x - f * domain.center_offset_fwd) / (f * domain.semi_major)
    dy = (y - f * domain.center_offset_stb) / (f * domain.semi_minor)
    return dx * dx + dy * dy <= 1.0


def bisect_scale_factor(domain, target, own, tol=1e-9):
    """Oracle: bracket and bisect the containment boundary in f."""
    hi = 1.0
    while not contains(domain, target, own, hi):
        hi *= 2.0
        if hi > 1e9:
            raise AssertionError("bracket blew up")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if contains(domain, target, own, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def reference_project(lat, lon, origin):
    """The scalar ``math`` form that the array projection replaced."""
    lat0, lon0 = origin
    north = math.radians(lat - lat0) * EARTH_RADIUS_M
    east = math.radians(lon - lon0) * EARTH_RADIUS_M * math.cos(math.radians(lat0))
    return north, east


class TestProjection:
    def test_north_arc(self):
        p = project(55.001, 10.0, ORIGIN)
        assert p.north == pytest.approx(111.1949, abs=1e-3)
        assert p.east == pytest.approx(0.0, abs=1e-9)

    def test_east_arc_shrinks_with_latitude(self):
        p = project(55.0, 10.001, ORIGIN)
        assert p.east == pytest.approx(63.7788, abs=1e-3)
        assert p.north == pytest.approx(0.0, abs=1e-9)

    def test_origin_maps_to_zero(self):
        p = project(55.0, 10.0, ORIGIN)
        assert p.north == 0.0 and p.east == 0.0

    @given(
        coords=st.lists(
            st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)), min_size=1, max_size=40
        ),
        origin=st.tuples(st.floats(-89.0, 89.0), st.floats(-180.0, 180.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_array_form_is_bit_identical(self, coords, origin):
        lat = np.array([c[0] for c in coords])
        lon = np.array([c[1] for c in coords])
        batch = project_arrays(lat, lon, origin)
        points = [project(la, lo, origin) for la, lo in coords]
        reference = [reference_project(la, lo, origin) for la, lo in coords]
        for north, east in (batch, np.array([(p.north, p.east) for p in points]).T):
            assert north.tobytes() == np.array([r[0] for r in reference]).tobytes()
            assert east.tobytes() == np.array([r[1] for r in reference]).tobytes()
        assert all(type(p.north) is float and type(p.east) is float for p in points)

    def test_array_form_on_a_track(self):
        # a long lane track with 7-decimal reports, as AIS files carry
        rng = np.random.default_rng(11)
        lat = np.round(55.0 + np.cumsum(rng.normal(0.0, 2e-4, 2000)), 7).tolist()
        lon = np.round(10.0 + np.cumsum(rng.normal(0.0, 3e-4, 2000)), 7).tolist()
        origin = (sum(lat) / len(lat), sum(lon) / len(lon))
        north, east = project_arrays(lat, lon, origin)
        reference = np.array([reference_project(la, lo, origin) for la, lo in zip(lat, lon)])
        assert north.tobytes() == reference[:, 0].copy().tobytes()
        assert east.tobytes() == reference[:, 1].copy().tobytes()

    def test_non_finite_array_rejected(self):
        with pytest.raises(ValueError, match="non-finite point"):
            project_arrays(np.array([55.0, math.nan]), np.array([10.0, 10.0]), ORIGIN)

    def test_non_finite_scalar_rejected(self):
        with pytest.raises(ValueError, match="non-finite point"):
            project(math.nan, 10.0, ORIGIN)

    def test_roundtrip_near_origin(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            lat = 55.0 + rng.uniform(-0.4, 0.4)
            lon = 10.0 + rng.uniform(-0.7, 0.7)
            lat2, lon2 = unproject(project(lat, lon, ORIGIN), ORIGIN)
            assert abs(lat2 - lat) < 1e-9
            assert abs(lon2 - lon) < 1e-9


class TestMakeDomain:
    def test_defaults_at_rest(self):
        st_ = VesselState(0.0, 0.0, 0.0, 0.0, 0.0, length=100.0)
        d = make_domain(st_)
        assert d.semi_major == pytest.approx(400.0)
        assert d.semi_minor == pytest.approx(160.0)
        assert d.center_offset_fwd == pytest.approx(100.0)
        assert d.center_offset_stb == 0.0

    def test_major_axis_grows_with_speed(self):
        ten_knots = 10.0 * 1852.0 / 3600.0
        st_ = VesselState(0.0, 0.0, 0.0, ten_knots, 0.0, length=100.0)
        d = make_domain(st_)
        assert d.semi_major == pytest.approx(900.0)
        assert d.semi_minor == pytest.approx(160.0)

    def test_zero_minor_factor_rejected(self):
        with pytest.raises(ValueError):
            DomainParams(minor_factor=0.0)


class TestScaleFactor:
    def test_centered_circle_is_radial_distance_ratio(self):
        d = DomainSpec(100.0, 100.0, 0.0, 0.0, 0.0)
        own = LocalPoint(0.0, 0.0)
        f = scale_factor(d, LocalPoint(30.0, 40.0), own)
        assert f == pytest.approx(0.5, abs=1e-12)

    def test_centered_ellipse_minor_axis(self):
        d = DomainSpec(200.0, 100.0, 0.0, 0.0, 0.0)
        f = scale_factor(d, LocalPoint(0.0, 50.0), LocalPoint(0.0, 0.0))
        assert f == pytest.approx(0.5, abs=1e-12)

    def test_offset_ellipse_closed_form(self):
        # a=200 b=100 forward offset 50, target 150 m dead ahead -> f = 0.6
        d = DomainSpec(200.0, 100.0, 50.0, 0.0, 0.0)
        f = scale_factor(d, LocalPoint(150.0, 0.0), LocalPoint(0.0, 0.0))
        assert f == pytest.approx(0.6, abs=1e-12)
        assert f == pytest.approx(bisect_scale_factor(d, LocalPoint(150.0, 0.0), LocalPoint(0.0, 0.0)), abs=1e-6)

    def test_target_at_vessel_position(self):
        d = DomainSpec(200.0, 100.0, 50.0, 0.0, 1.0)
        assert scale_factor(d, LocalPoint(5.0, 5.0), LocalPoint(5.0, 5.0)) == 0.0

    def test_nan_geometry_stays_nan(self):
        # NaN must not read as f = 0, which is risk of about 1
        f = _Quadratic.of(200.0, 100.0, 50.0, 0.0).solve(np.array([math.nan, 0.0]), 0.0)
        assert math.isnan(f[0]) and f[1] == 0.0
        assert math.isnan(_Quadratic.of(math.nan, 100.0, 50.0, 0.0).solve(30.0, 40.0))

    def test_vessel_outside_own_domain_rejected(self):
        d = DomainSpec(200.0, 100.0, 199.0, 99.0, 0.0)
        with pytest.raises(ValueError):
            scale_factor(d, LocalPoint(10.0, 0.0), LocalPoint(0.0, 0.0))

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(42)
        own = LocalPoint(0.0, 0.0)
        for _ in range(300):
            a = rng.uniform(50.0, 500.0)
            b = rng.uniform(20.0, a)
            # offsets sampled to keep the vessel strictly inside the ellipse
            u, w = rng.uniform(-0.7, 0.7, size=2)
            d = DomainSpec(a, b, u * a, w * b, rng.uniform(0.0, 2.0 * math.pi))
            target = LocalPoint(rng.uniform(-3 * a, 3 * a), rng.uniform(-3 * a, 3 * a))
            if target.distance_to(own) < 1e-6:
                continue
            f = scale_factor(d, target, own)
            assert f == pytest.approx(bisect_scale_factor(d, target, own), abs=1e-6)

    @given(
        lam=st.floats(min_value=0.01, max_value=100.0),
        x=st.floats(min_value=-500.0, max_value=500.0),
        y=st.floats(min_value=-500.0, max_value=500.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_homogeneous_in_target_distance(self, lam, x, y):
        # scaling the target displacement by lam scales f by lam
        d = DomainSpec(300.0, 120.0, 60.0, 10.0, 0.7)
        own = LocalPoint(0.0, 0.0)
        f1 = scale_factor(d, LocalPoint(x, y), own)
        f2 = scale_factor(d, LocalPoint(lam * x, lam * y), own)
        assert f2 == pytest.approx(lam * f1, rel=1e-9, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_reversed_frame_rotates_reversed_displacement_bitwise(self, seed):
        # the first four displacements pair each signed zero with each
        rng = np.random.default_rng(seed)
        heading = rng.uniform(0.0, 2.0 * math.pi, (5, 1))
        dn, de = rng.uniform(-2e3, 2e3, (2, 5, 8))
        dn[:, :4] = [0.0, 0.0, -0.0, -0.0]
        de[:, :4] = [0.0, -0.0, 0.0, -0.0]
        c, s = np.cos(heading), np.sin(heading)

        def forward(d_north, d_east):
            return c * d_north + s * d_east, -s * d_north + c * d_east

        for got, expected in (
            (_Frame.of(heading)(dn, de), forward(dn, de)),
            (_Frame.of(heading, reverse=True)(dn, de), forward(-dn, -de)),
        ):
            for g, e in zip(got, expected):
                assert g.shape == e.shape == (5, 8)
                assert np.array_equal(g.view(np.int64), e.view(np.int64))


class TestDdv:
    def test_values(self):
        assert ddv(0.25) == 0.75
        assert ddv(1.0) == 0.0
        assert ddv(3.0) == 0.0

    def test_monotone_along_ray(self):
        d = DomainSpec(200.0, 100.0, 50.0, 0.0, 0.3)
        own = LocalPoint(0.0, 0.0)
        radii = np.linspace(1.0, 600.0, 80)
        vals = [ddv(scale_factor(d, LocalPoint(r * 0.6, r * 0.8), own)) for r in radii]
        assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


def straight_track(track_id, t0, n0, e0, speed, heading, n_steps, dt=10.0, length=100.0):
    times = t0 + dt * np.arange(n_steps)
    dist = speed * (times - t0)
    return VesselTrack(
        track_id=track_id,
        times=times,
        north=n0 + dist * math.cos(heading),
        east=e0 + dist * math.sin(heading),
        speed=np.full(n_steps, float(speed)),
        heading=np.full(n_steps, float(heading)),
        length=length,
    )


def reference_state_at(track, t):
    """VesselTrack.state_at as written before the row lookup: the sample on
    a grid time or at the end, else linear interpolation with the heading
    along the shorter arc."""
    if not track.covers(t):
        raise ValueError(f"time {t} outside the track span")
    idx = int(np.searchsorted(track.times, t, side="right")) - 1
    idx = min(max(idx, 0), track.times.size - 1)
    if idx == track.times.size - 1 or track.times[idx] == t:
        return reference_state_at_index(track, idx, t)
    span = track.times[idx + 1] - track.times[idx]
    frac = (t - track.times[idx]) / span
    return VesselState(
        time=t,
        north=float(track.north[idx] + frac * (track.north[idx + 1] - track.north[idx])),
        east=float(track.east[idx] + frac * (track.east[idx + 1] - track.east[idx])),
        speed=float(track.speed[idx] + frac * (track.speed[idx + 1] - track.speed[idx])),
        heading=interp_heading(float(track.heading[idx]), float(track.heading[idx + 1]), frac),
        length=track.length,
        vessel_type=track.vessel_type,
    )


def reference_state_at_index(track, idx, t):
    return VesselState(
        time=t, north=float(track.north[idx]), east=float(track.east[idx]),
        speed=float(track.speed[idx]), heading=float(track.heading[idx]),
        length=track.length, vessel_type=track.vessel_type,
    )


def reference_state_at_clamped(track, t):
    """(state, held): the state at ``t`` clamped into the track span, held
    when the query fell outside it and an end sample stood in."""
    if t < track.t_start:
        return reference_state_at_index(track, 0, track.t_start), True
    if t > track.t_end:
        return reference_state_at_index(track, track.times.size - 1, track.t_end), True
    return reference_state_at(track, t), False


class TestFindTdv:
    def test_head_on_violation_before_meeting(self):
        # closing at 10 m/s from 6 km apart: meet at t = 600 s
        a = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 61)
        b = straight_track("b", 0.0, 6000.0, 0.0, 5.0, math.pi, 61)
        tdv = find_tdv(a, b)
        assert tdv is not None and tdv < 600.0
        st_a = a.state_at(tdv)
        st_b = b.state_at(tdv)
        f = scale_factor(make_domain(st_a), st_b.position, st_a.position)
        assert f < 1.0

    def test_parallel_far_apart_no_violation(self):
        a = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 61)
        b = straight_track("b", 0.0, 0.0, 5000.0, 5.0, 0.0, 61)
        assert find_tdv(a, b) is None

    def test_disjoint_spans_no_violation(self):
        a = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 10)
        b = straight_track("b", 1000.0, 0.0, 100.0, 5.0, 0.0, 10)
        assert find_tdv(a, b) is None


class TestPredictState:
    def test_zero_dt_identity(self):
        s = VesselState(0.0, 1.0, 2.0, 5.0, 0.5, 100.0)
        assert predict_state(s, 0.0) == s

    def test_uniform_motion(self):
        s = VesselState(0.0, 0.0, 0.0, 5.0, 0.0, 100.0)
        out = predict_state(s, 60.0)
        assert out.north == pytest.approx(300.0)
        assert out.east == pytest.approx(0.0, abs=1e-9)

    def test_deceleration_clamps_at_stop(self):
        # 5 m/s decaying at 0.1 m/s^2 stops after 50 s having run 125 m
        s = VesselState(0.0, 0.0, 0.0, 5.0, 0.0, 100.0)
        out = predict_state(s, 100.0, speed_change_rate=-0.1)
        assert out.speed == 0.0
        assert out.north == pytest.approx(125.0, abs=1e-9)

    def test_composition_without_clamp(self):
        s = VesselState(0.0, 3.0, -2.0, 4.0, 1.1, 80.0)
        one = predict_state(s, 90.0, 0.02)
        two = predict_state(predict_state(s, 40.0, 0.02), 50.0, 0.02)
        assert one.north == pytest.approx(two.north, abs=1e-9)
        assert one.east == pytest.approx(two.east, abs=1e-9)
        assert one.speed == pytest.approx(two.speed, abs=1e-12)

    def test_travel_distance_matches_quadrature(self):
        for rate in (-0.08, 0.0, 0.05):
            taus = np.linspace(0.0, 120.0, 100001)
            speeds = np.maximum(0.0, 5.0 + rate * taus)
            expected = np.trapezoid(speeds, taus)
            assert float(travel_distance(5.0, 120.0, rate)) == pytest.approx(expected, abs=1e-4)


class TestTrackInterpolation:
    @pytest.mark.parametrize("tiny", [-1e-17, -5e-324, -0.0])
    def test_tiny_negative_heading_wraps_to_zero(self, tiny):
        # np.mod alone rounds the first two up to 2*pi itself
        tr = VesselTrack("x", [0.0, 10.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [tiny, 1.0], 50.0)
        assert tr.heading[0] == 0.0 and tr.heading[1] == 1.0
        assert not np.signbit(tr.heading).any()

    def test_heading_through_north(self):
        tr = VesselTrack(
            "x",
            times=[0.0, 10.0],
            north=[0.0, 10.0],
            east=[0.0, 0.0],
            speed=[1.0, 1.0],
            heading=[math.radians(350.0), math.radians(10.0)],
            length=50.0,
        )
        mid = tr.state_at(5.0)
        assert mid.heading == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_raises(self):
        tr = straight_track("x", 0.0, 0.0, 0.0, 2.0, 0.0, 5)
        with pytest.raises(ValueError):
            tr.state_at(1000.0)

    def test_clamped_flags_hold(self):
        tr = straight_track("x", 0.0, 0.0, 0.0, 2.0, 0.0, 5)
        state, held = reference_state_at_clamped(tr, 1000.0)
        assert held is True
        assert state == tr.state_at(tr.t_end)

    def test_vessel_type_parse(self):
        assert VesselType.parse("tanker") is VesselType.TANKER
        assert VesselType.parse("Dredging") is VesselType.OTHER


class TestHeadingInterp:
    @staticmethod
    def circular_gap(a, b):
        d = abs(a - b) % (2 * math.pi)
        return min(d, 2 * math.pi - d)

    @given(
        h0=st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9),
        h1=st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9),
    )
    @settings(max_examples=200, deadline=None)
    def test_endpoints(self, h0, h1):
        assert self.circular_gap(interp_heading(h0, h1, 0.0), h0) < 1e-9
        assert self.circular_gap(interp_heading(h0, h1, 1.0), h1) < 1e-9
        mid = interp_heading(h0, h1, 0.5)
        assert 0.0 <= mid < 2 * math.pi


def old_normalize_heading(angle):
    """normalize_heading's wrap, before the one wrap helper."""
    wrapped = float(angle) % TWO_PI
    return wrapped if wrapped < TWO_PI else 0.0


def old_track_wrap(heading):
    """The wrap of the track checks, before the one wrap helper."""
    if heading.size and heading.min() >= 0.0 and heading.max() < TWO_PI:
        return heading + 0.0
    heading = np.mod(heading, TWO_PI)
    heading[heading == TWO_PI] = 0.0
    return heading


def old_arc_step_heading(heading, speed, length, alpha, dt, kin):
    """The planner's arc-step heading, before the one wrap helper."""
    straight = np.abs(alpha) < ALPHA_EPS
    curvature = np.where(straight, 1.0, alpha * kin.max_curvature(length))
    turned = np.mod(heading + speed * dt * curvature, TWO_PI)
    return np.where(straight, heading, np.where(turned < TWO_PI, turned, 0.0))


def old_arc_step(
    north, east, speed, heading, length, alpha, v_cmd, dt: float, kin: KinodynamicParams
):
    """The planner's constant-rudder arc step, before the one motion model."""
    run = speed * dt
    cos_h = np.cos(heading)
    sin_h = np.sin(heading)
    straight = np.abs(alpha) < ALPHA_EPS
    curvature = np.where(straight, 1.0, alpha * kin.max_curvature(length))
    dpsi = run * curvature
    fwd = np.where(straight, run, np.sin(dpsi) / curvature)
    stb = np.where(straight, 0.0, (1.0 - np.cos(dpsi)) / curvature)
    new_heading = np.where(straight, heading, _wrap_heading(heading + dpsi))
    # body-to-world: forward along heading, starboard 90 degrees clockwise
    north = north + fwd * cos_h - stb * sin_h
    east = east + fwd * sin_h + stb * cos_h
    return north, east, new_heading


def old_predict_positions(state, dts, rate=0.0):
    """The risk horizon's constant-course prediction, before the one motion
    model."""
    dts = np.asarray(dts, dtype=float)
    dist = travel_distance(state.speed, dts, rate)
    north = state.north + dist * np.cos(state.heading)
    east = state.east + dist * np.sin(state.heading)
    speed = np.maximum(0.0, state.speed + rate * dts)
    return north, east, speed


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# finite angles at the edges of the wrap: signed zeros and subnormals, tiny
# negatives that the modulo rounds up to 2*pi, 2*pi and its neighbors, and
# large magnitudes
WRAP_EDGES = [
    -0.0, 0.0, 5e-324, -5e-324, -1e-17, 1e-17, -1e-300,
    math.nextafter(TWO_PI, 0.0), TWO_PI, math.nextafter(TWO_PI, math.inf),
    -TWO_PI, math.nextafter(-TWO_PI, 0.0), 3.0 * TWO_PI, -3.0 * TWO_PI,
    1e17, -1e17, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
]
ANGLES = st.one_of(st.sampled_from(WRAP_EDGES), st.floats(allow_nan=False, allow_infinity=False))
IN_RANGE = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, math.nextafter(TWO_PI, 0.0)]),
                     st.floats(0.0, TWO_PI, exclude_max=True))


class TestHeadingWrap:
    """The one heading wrap gives, bit for bit, what each of the three
    wraps it replaced gave."""

    @given(ANGLES)
    @settings(max_examples=300, deadline=None)
    def test_scalar_matches_normalize_heading(self, angle):
        assert same_bits(normalize_heading(angle), old_normalize_heading(angle))
        assert same_bits(_wrap_heading(angle), old_normalize_heading(angle))

    @given(st.one_of(st.lists(ANGLES, max_size=6), st.lists(IN_RANGE, max_size=6)))
    @settings(max_examples=300, deadline=None)
    def test_array_matches_track_check(self, angles):
        heading = np.array(angles, dtype=float)
        assert same_bits(_wrap_heading(heading), old_track_wrap(heading.copy()))
        if angles:
            track = VesselTrack("x", np.arange(heading.size), np.zeros(heading.size),
                                np.zeros(heading.size), np.ones(heading.size), heading, 10.0)
            assert same_bits(track.heading, old_track_wrap(heading.copy()))

    @given(
        st.lists(st.one_of(ANGLES, IN_RANGE, st.just(math.nan)), min_size=1, max_size=6),
        st.sampled_from([-1.0, -0.5, -1e-7, 0.0, 1e-7, 0.5, 1.0]),
        st.sampled_from([0.0, 1e-12, 3.0, 12.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_arc_step_matches_its_old_wrap(self, angles, alpha, speed):
        heading = np.array(angles, dtype=float)
        kin = KinodynamicParams()
        run = travel_distance(speed, 60.0)
        _, _, got = sail(0.0, 0.0, heading, run, np.full(heading.shape, kin.curvature(alpha, 50.0)))
        assert same_bits(got, old_arc_step_heading(heading, speed, 50.0, alpha, 60.0, kin))
        # NaN, which only the arc step can meet, reads 0 as the old wrap read it
        assert same_bits(_wrap_heading(heading), np.where(
            np.mod(heading, TWO_PI) < TWO_PI, np.mod(heading, TWO_PI), 0.0
        ))


    @pytest.mark.parametrize("kind", [float, np.float64])
    @pytest.mark.parametrize("angle", [0.0, -0.0, math.nextafter(TWO_PI, 0.0), -1e-17, 7.0])
    def test_float_matches_normalize_heading(self, kind, angle):
        # in range, a float takes the shortcut and stays a float
        wrapped = _wrap_heading(kind(angle))
        assert isinstance(wrapped, float) == (0.0 <= angle < TWO_PI)
        assert same_bits(wrapped, old_normalize_heading(angle))
        assert same_bits(normalize_heading(kind(angle)), old_normalize_heading(angle))
        assert not np.signbit(wrapped)

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_float_nan_reads_zero_but_is_refused(self, kind):
        assert same_bits(_wrap_heading(kind(math.nan)), 0.0)
        with pytest.raises(ValueError, match="non-finite heading"):
            normalize_heading(kind(math.nan))


# the default rudder grid, and rudders just below, at and above the cutoff
RUDDERS = np.concatenate([
    Hyperparameters().alpha_grid(),
    [s * a for a in (1e-8, ALPHA_EPS, 2e-6) for s in (-1.0, 1.0)],
])
COORDS = st.floats(-1e5, 1e5)
HEADINGS = st.one_of(IN_RANGE, st.floats(-20.0, 20.0))
SPEEDS = st.one_of(st.sampled_from([0.0, 1e-12]), st.floats(0.0, 20.0))
LENGTHS = st.floats(10.0, 400.0)


class TestSail:
    """The one motion model is, bit for bit, the planner's arc step and the
    risk horizon's straight prediction that it replaced."""

    @given(COORDS, COORDS, HEADINGS, SPEEDS, LENGTHS, st.floats(1.0, 600.0))
    @settings(max_examples=300, deadline=None)
    def test_arcs_match_the_old_arc_step(self, north, east, heading, speed, length, dt):
        kin = KinodynamicParams()
        got = sail(north, east, heading, travel_distance(speed, dt), kin.curvature(RUDDERS, length))
        want = old_arc_step(north, east, speed, heading, length, RUDDERS, 0.0, dt, kin)
        for g, w in zip(got, want):
            assert np.array_equal(np.broadcast_to(g, RUDDERS.shape).view(np.int64),
                                  np.asarray(w).view(np.int64))

    @given(
        st.lists(st.tuples(COORDS, COORDS, HEADINGS, SPEEDS), min_size=1, max_size=5),
        st.lists(st.floats(0.0, 600.0), min_size=1, max_size=5),
        st.one_of(st.just(0.0), st.floats(-0.2, 0.2)),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_legs_match_the_old_prediction(self, vessels, offsets, rate, rate_per_offset):
        north, east, heading, speed = (np.array(a)[:, None] for a in zip(*vessels))
        states = StateArrays(north, east, speed, heading, np.full(north.shape, 100.0))
        rates = np.full(len(offsets), rate) if rate_per_offset else rate
        got = predict_positions(states, offsets, rates)
        want = old_predict_positions(states, offsets, rates)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g.view(np.int64), w.view(np.int64))

    @given(COORDS, COORDS, IN_RANGE, st.floats(0.0, 1e4), LENGTHS)
    @settings(max_examples=300, deadline=None)
    def test_headings_stay_wrapped(self, north, east, heading, run, length):
        _, _, got = sail(north, east, heading, run, KinodynamicParams().curvature(RUDDERS, length))
        assert ((got >= 0.0) & (got < TWO_PI)).all()

    @given(COORDS, COORDS, HEADINGS, st.floats(0.0, 5e3), st.floats(0.0, 5e3), LENGTHS,
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_two_runs_make_one(self, north, east, heading, s1, s2, length, scalar):
        # the rudder grid only: near the cutoff, (1 - cos ks)/k loses up to
        # about 1e-16/k (8e-9 m on a 50 m hull) to cancellation
        kappa = KinodynamicParams().curvature(Hyperparameters().alpha_grid(), length)
        kappa = 0.0 if scalar else kappa
        mid = sail(north, east, heading, s1, kappa)
        two = sail(*mid, s2, kappa)
        one = sail(north, east, heading, s1 + s2, kappa)
        assert np.abs(np.subtract(two[0], one[0])).max() < 1e-9
        assert np.abs(np.subtract(two[1], one[1])).max() < 1e-9


def old_travel_distance(speed, dt, rate=0.0):
    """travel_distance before it skipped the stopping time where no rate is
    negative."""
    dt = np.asarray(dt, dtype=float)
    if np.any(dt < 0.0):
        raise ValueError("dt must be non-negative")
    rate = np.asarray(rate, dtype=float)
    # a decelerating vessel moves until it stops (after any dt at a subnormal rate), others all dt
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = np.where(rate < 0.0, np.minimum(dt, speed / -rate), dt)
    return speed * tau + 0.5 * rate * tau * tau


def old_solve(self, x, y) -> np.ndarray:
    """_Quadratic.solve before it dropped the clamp of the discriminant and
    skipped the vessel-position fix where no den is 0."""
    shape = np.broadcast(x, y, self.coef_a).shape
    coef_c = np.multiply(x, x, out=np.empty(shape))
    coef_c *= self.b2
    # B's array holds y^2 a^2 until C is summed
    coef_b = np.multiply(y, y, out=np.empty(shape))
    coef_b *= self.a2
    coef_c += coef_b
    np.multiply(x, self.off_f, out=coef_b)
    coef_b *= self.b2
    if self.off_s is not None:
        coef_b += y * self.off_s * self.a2
    coef_b *= -2.0
    den = np.multiply(coef_b, coef_b, out=np.empty(shape))
    den -= np.multiply(4.0 * self.coef_a, coef_c, out=np.empty(shape))
    np.maximum(den, 0.0, out=den)
    np.sqrt(den, out=den)
    den -= coef_b
    # den is 0 only at the vessel position; NaN geometry stays NaN
    zero = den == 0.0
    np.copyto(den, 1.0, where=zero)
    coef_c *= 2.0
    coef_c /= den
    np.copyto(coef_c, 0.0, where=zero)
    return coef_c


def extreme_coordinates(rng, shape):
    """Coordinates of every magnitude from a millimetre to 1e150 m, either
    sign, with exact zeros and signed zeros among them."""
    values = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-3.0, 150.0, shape)
    values.flat[::7] = 0.0
    values.flat[3::11] = -0.0
    return values


# rates of every kind the kernel meets: 0, signed zero, NaN, a stop inside
# the horizon, and a mix of signs
EDGE_RATES = [0.0, -0.0, math.nan, -0.05, 0.03, -1e-300]


class TestKernelPiecesBitwise:
    """travel_distance and _Quadratic.solve give, bit for bit, what they
    gave before the collision kernel built each side once per call."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(), (1,), (4, 1)]),
        st.one_of(st.sampled_from(EDGE_RATES), st.lists(st.sampled_from(EDGE_RATES),
                                                        min_size=5, max_size=5)),
    )
    @settings(max_examples=300, deadline=None)
    def test_travel_distance_matches_old(self, seed, shape, rate):
        # a scalar rate, or one rate per lead time
        rng = np.random.default_rng(seed)
        speed = rng.uniform(0.0, 20.0, shape)
        dt = np.concatenate([[0.0], rng.uniform(0.0, 600.0, 4)])
        got, want = travel_distance(speed, dt, rate), old_travel_distance(speed, dt, rate)
        assert same_bits(got, want)

    @given(
        seed=st.integers(0, 2**32 - 1),
        off_s=st.sampled_from([0.0, -0.0, 20.0, -35.5]),
        shapes=st.sampled_from([((), (40,), (40,)), ((3, 1), (3, 40), (1, 40)),
                                ((2, 1, 1), (1, 5, 8), (2, 5, 8))]),
        at_vessel=st.booleans(),
        nan=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_solve_matches_old(self, seed, off_s, shapes, at_vessel, nan):
        # domains of hulls from 10 cm to 1 km; a target at the vessel
        # position has den = 0, and a NaN coordinate stays NaN
        rng = np.random.default_rng(seed)
        domain_shape, x_shape, y_shape = shapes
        length = 10.0 ** rng.uniform(-1.0, 3.0, domain_shape)
        a = length * rng.uniform(4.0, 12.0, domain_shape)
        b = length * 1.6
        off_f = a * rng.uniform(-0.9, 0.9, domain_shape)
        quad = _Quadratic.of(a, b, off_f, off_s * length / 100.0)
        x, y = extreme_coordinates(rng, x_shape), extreme_coordinates(rng, y_shape)
        if at_vessel:
            x.flat[:5] = y.flat[:5] = 0.0
        if nan:
            x.flat[-1] = math.nan
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = quad.solve(x, y), old_solve(quad, x, y)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestNonFiniteRejected:
    GOOD_STATE = dict(time=0.0, north=0.0, east=0.0, speed=5.0, heading=1.0, length=100.0)

    @pytest.mark.parametrize("field", list(GOOD_STATE))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_vessel_state(self, field, value):
        with pytest.raises(ValueError, match=f"non-finite {field}"):
            VesselState(**{**self.GOOD_STATE, field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_normalize_heading(self, value):
        with pytest.raises(ValueError, match="non-finite heading"):
            normalize_heading(value)

    @pytest.mark.parametrize("field", ["times", "north", "east", "speed", "heading"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_vessel_track_arrays(self, field, value):
        good = straight_track("x", 0.0, 0.0, 0.0, 2.0, 0.0, 5)
        arrays = {name: getattr(good, name).copy() for name in
                  ("times", "north", "east", "speed", "heading")}
        arrays[field][-1] = value
        with pytest.raises(ValueError, match=f"non-finite {field}"):
            VesselTrack("x", length=100.0, **arrays)

    @pytest.mark.parametrize("block, field, value, problem", PARAMETER_CASES)
    def test_parameter_blocks(self, block, field, value, problem):
        with pytest.raises(ValueError, match=f"{field} {problem}"):
            block(**{field: value})

    @pytest.mark.parametrize("block, field", OTHER_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_float_fields_reject_non_finite_floats(self, block, field, value):
        # NaN is truthy, so a NaN flag would switch its feature on
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            block(**{field: value})

    @pytest.mark.parametrize("annotation", [float, Optional[float], "float | None"])
    def test_real_fields_found_without_string_annotations(self, annotation):
        @dataclasses.dataclass
        class Block:
            x: annotation = 1.0
            name: str = "a"

        require_finite(Block())
        require_finite(Block(x=2))
        if annotation is not float:
            require_finite(Block(x=None))
        for bad in ("x", True):
            with pytest.raises(ValueError, match="x must be a real number"):
                require_finite(Block(x=bad))
        with pytest.raises(ValueError, match="name must be finite"):
            require_finite(Block(name=math.nan))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_vessel_track_length(self, value):
        with pytest.raises(ValueError, match="non-finite length"):
            straight_track("x", 0.0, 0.0, 0.0, 2.0, 0.0, 5, length=value)
