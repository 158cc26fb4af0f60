import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamanship.geometry import (
    DomainParams,
    DomainSpec,
    LocalPoint,
    VesselState,
    VesselTrack,
    VesselType,
    ddv,
    find_tdv,
    interp_heading,
    make_domain,
    normalize_heading,
    predict_state,
    project,
    scale_factor,
    travel_distance,
    unproject,
)
from seamanship.ingest import IngestParams
from seamanship.planner import Hyperparameters, KinodynamicParams
from seamanship.risk import RiskParams
from seamanship.scoring import ScoreParams

PARAMETER_BLOCKS = (
    DomainParams, RiskParams, KinodynamicParams, Hyperparameters, ScoreParams, IngestParams
)
# every float field of every parameter block, plus the optional corridor length
FLOAT_FIELDS = [
    (block, f.name)
    for block in PARAMETER_BLOCKS
    for f in dataclasses.fields(block)
    if isinstance(f.default, float)
] + [(RiskParams, "channel_corridor")]

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
        state, held = tr.state_at_clamped(1000.0)
        assert held is True
        assert state.time == tr.t_end

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

    @pytest.mark.parametrize("block, field", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_parameter_blocks(self, block, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            block(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_vessel_track_length(self, value):
        with pytest.raises(ValueError, match="non-finite length"):
            straight_track("x", 0.0, 0.0, 0.0, 2.0, 0.0, 5, length=value)
