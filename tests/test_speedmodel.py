import logging
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from seamanship.geometry import (
    DomainParams,
    VesselTrack,
    VesselType,
    _Quadratic,
    domain_axes,
    make_domain,
    scale_factor,
)
from seamanship import risk, speedmodel
from seamanship.risk import MUTUAL_MODES, RiskParams, overall_collision_risk, rate_weighted_mean
from seamanship.speedmodel import (
    DEFAULT_DCPA_THRESHOLD,
    DEFAULT_WINDOW,
    EncounterEvent,
    SpeedChangeModel,
    SpeedParams,
    detect_encounters,
    find_tdv,
    fit_model,
    probabilistic_cr,
    silverman_bandwidth,
    speed_change_at,
)
from .test_geometry import reference_state_at, straight_track


def decelerating_track(track_id, t0, n0, e0, v0, rate, heading, n_steps, dt=10.0):
    times = t0 + dt * np.arange(n_steps)
    rel = times - t0
    speeds = np.maximum(0.0, v0 + rate * rel)
    # piecewise-constant-rate displacement, consistent with the speeds array
    dist = np.concatenate([[0.0], np.cumsum(0.5 * (speeds[:-1] + speeds[1:]) * dt)])
    return VesselTrack(
        track_id=track_id,
        times=times,
        north=n0 + dist * math.cos(heading),
        east=e0 + dist * math.sin(heading),
        speed=speeds,
        heading=np.full(n_steps, float(heading)),
        length=100.0,
    )


class TestSpeedChangeAt:
    def test_constant_speed_zero(self):
        tr = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 20)
        assert speed_change_at(tr, 100.0) == pytest.approx(0.0, abs=1e-12)

    def test_linear_deceleration(self):
        tr = decelerating_track("a", 0.0, 0.0, 0.0, 6.0, -1.0 / 60.0, 0.0, 20)
        assert speed_change_at(tr, 120.0) == pytest.approx(-1.0 / 60.0, abs=1e-9)

    def test_window_before_start_dropped(self):
        tr = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 20)
        assert speed_change_at(tr, 30.0) is None

    def test_window_from_first_sample_kept(self):
        tr = decelerating_track("a", 0.0, 0.0, 0.0, 6.0, -1.0 / 60.0, 0.0, 20)
        assert speed_change_at(tr, 60.0) == pytest.approx(-1.0 / 60.0, abs=1e-9)

    def test_time_past_end_dropped(self):
        tr = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 20)
        assert speed_change_at(tr, 200.0) is None

    @pytest.mark.parametrize("window", [0.0, -5.0])
    def test_window_not_positive_raises(self, window):
        tr = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 20)
        with pytest.raises(ValueError, match="window must be positive"):
            speed_change_at(tr, 100.0, window)


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


class TestDetectEncounters:
    def test_far_parallel_none(self):
        a = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 61)
        b = straight_track("b", 0.0, 0.0, 8000.0, 5.0, 0.0, 61)
        assert detect_encounters({"a": a, "b": b}) == []

    def test_head_on_two_events(self):
        a = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 121)
        b = straight_track("b", 0.0, 6000.0, 0.0, 5.0, math.pi, 121)
        events = detect_encounters({"a": a, "b": b})
        assert {(e.own_id, e.target_id) for e in events} == {("a", "b"), ("b", "a")}
        for e in events:
            assert e.speed_change == pytest.approx(0.0, abs=1e-12)

    def test_dcpa_filter_is_conjunction(self):
        # reciprocal tracks offset 50 m: the domain (beam 160 m) is violated
        # but DCPA ~ 50 m stays above a 1 m threshold, so no event
        a = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 121)
        b = straight_track("b", 0.0, 6000.0, 50.0, 5.0, math.pi, 121)
        assert detect_encounters({"a": a, "b": b}) != []
        assert detect_encounters({"a": a, "b": b}, dcpa_threshold=1.0) == []

    def test_event_window_at_track_start_dropped(self):
        # b enters a's domain immediately: rate window has no history
        a = straight_track("a", 0.0, 0.0, 0.0, 0.0, 0.0, 31)
        b = straight_track("b", 0.0, 100.0, 0.0, 0.0, 0.0, 31)
        events = detect_encounters({"a": a, "b": b})
        assert events == []


def reference_min_forward_dcpa(track_a, track_b):
    """Minimum forward-looking closest-approach distance over the common
    grid, one pair at a time: the per-pair screen the block replaced."""
    times = np.intersect1d(track_a.times, track_b.times)
    if times.size == 0:
        return None
    ia = np.searchsorted(track_a.times, times)
    ib = np.searchsorted(track_b.times, times)
    dn = track_b.north[ib] - track_a.north[ia]
    de = track_b.east[ib] - track_a.east[ia]
    van = track_a.speed[ia] * np.cos(track_a.heading[ia])
    vae = track_a.speed[ia] * np.sin(track_a.heading[ia])
    vbn = track_b.speed[ib] * np.cos(track_b.heading[ib])
    vbe = track_b.speed[ib] * np.sin(track_b.heading[ib])
    rvn = vbn - van
    rve = vbe - vae
    rv2 = rvn * rvn + rve * rve
    with np.errstate(divide="ignore", invalid="ignore"):
        tcpa = np.where(rv2 > 0.0, -(dn * rvn + de * rve) / np.where(rv2 > 0.0, rv2, 1.0), 0.0)
    tcpa = np.maximum(tcpa, 0.0)
    dcpa = np.hypot(dn + rvn * tcpa, de + rve * tcpa)
    return float(np.min(dcpa))


def reference_find_tdv(track_j, track_k, params=None):
    """First common grid time at which k violates j's domain, one pair at
    a time."""
    params = params or DomainParams()
    times = np.intersect1d(track_j.times, track_k.times)
    if times.size == 0:
        return None
    ij = np.searchsorted(track_j.times, times)
    ik = np.searchsorted(track_k.times, times)
    semi_major, semi_minor = domain_axes(track_j.speed[ij], track_j.length, params)
    c, s = np.cos(track_j.heading[ij]), np.sin(track_j.heading[ij])
    d_north = track_k.north[ik] - track_j.north[ij]
    d_east = track_k.east[ik] - track_j.east[ij]
    x, y = c * d_north + s * d_east, -s * d_north + c * d_east
    quad = _Quadratic.of(semi_major, semi_minor, params.offset_fraction * semi_major, 0.0)
    f = quad.solve(x, y)
    hits = np.nonzero(f < 1.0)[0]
    if hits.size == 0:
        return None
    return float(times[hits[0]])


def old_speed_change_at(track, t, window=DEFAULT_WINDOW):
    """``speed_change_at`` as written before the array reader: two scalar
    state reads per event."""
    if window <= 0.0:
        raise ValueError(f"window must be positive, got {window}")
    if t - window < track.t_start or not track.covers(t):
        return None
    v_now = reference_state_at(track, t).speed
    v_then = reference_state_at(track, t - window).speed
    return (v_now - v_then) / window


def reference_tally(
    tracks, dcpa_threshold=DEFAULT_DCPA_THRESHOLD, domain_params=None, window=DEFAULT_WINDOW
):
    """Encounter detection one ordered pair at a time: the events, and the
    four numbers of the ``encounters:`` log line (ordered pairs whose spans
    overlap, pairs that pass the DCPA screen, events, and events dropped
    for a rate window outside the track)."""
    dp = domain_params or DomainParams()
    events = []
    overlapping = screened = dropped = 0
    ids = sorted(tracks)
    for own_id in ids:
        for target_id in ids:
            if own_id == target_id:
                continue
            own, target = tracks[own_id], tracks[target_id]
            if own.t_start <= target.t_end and target.t_start <= own.t_end:
                overlapping += 1
            dcpa = reference_min_forward_dcpa(own, target)
            if dcpa is None or dcpa >= dcpa_threshold:
                continue
            screened += 1
            tdv = reference_find_tdv(own, target, dp)
            if tdv is None:
                continue
            rate = old_speed_change_at(target, tdv, window)
            if rate is None:
                dropped += 1
                continue
            events.append(
                EncounterEvent(
                    own_id=own_id,
                    target_id=target_id,
                    tdv=tdv,
                    speed_change=rate,
                    vessel_type=target.vessel_type,
                )
            )
    return events, (overlapping, screened, len(events), dropped)


def reference_detect_encounters(
    tracks, dcpa_threshold=DEFAULT_DCPA_THRESHOLD, domain_params=None, window=DEFAULT_WINDOW
):
    """Encounter detection one ordered pair at a time."""
    return reference_tally(tracks, dcpa_threshold, domain_params, window)[0]


def lane_track(track_id, times, n0, e0, v0, rate, heading, length, vessel_type):
    """A vessel on a straight course through ``times``, its speed changing
    at ``rate`` (never below 0.5 m/s), its position the trapezoid integral
    of that speed."""
    speed = np.maximum(0.5, v0 + rate * (times - times[0]))
    dist = np.concatenate([[0.0], np.cumsum(0.5 * (speed[:-1] + speed[1:]) * np.diff(times))])
    return VesselTrack(
        track_id, times, n0 + dist * math.cos(heading), e0 + dist * math.sin(heading),
        speed, np.full(times.size, heading), length, vessel_type,
    )


def lane_scene():
    """A two-way lane of 46 tracks along north: 40 vessels departing every
    40 s from either end at speeds of 3 to 6.5 m/s, some speeding up or
    slowing down, on four lateral offsets, so they meet head-on and
    overtake; every ninth on a 5 s grid, every ninth another on a 20 s
    grid and every ninth another 5 s out of phase; one vessel split in
    two at a gap (``g#0``, ``g#1``); and four single-sample vessels lying
    in the lane."""
    types = list(VesselType)
    tracks = {}
    for i in range(40):
        north_bound = i % 2 == 0
        dt, phase = {4: (5.0, 0.0), 6: (20.0, 0.0), 7: (10.0, 5.0)}.get(i % 9, (10.0, 0.0))
        times = 40.0 * i + phase + dt * np.arange(int(1500.0 / dt))
        tracks[f"v{i:02d}"] = lane_track(
            f"v{i:02d}", times, 0.0 if north_bound else 8000.0, 60.0 * (i % 4) - 60.0,
            3.0 + 0.5 * (i % 8), (-0.002, 0.0, 0.001)[i % 3], 0.0 if north_bound else math.pi,
            60.0 + 15.0 * (i % 7), types[i % len(types)],
        )
    split = lane_track("g", 300.0 + 10.0 * np.arange(160), 8000.0, 30.0, 4.5, 0.0, math.pi,
                       120.0, VesselType.TANKER)
    for part, keep in (("g#0", slice(None, 70)), ("g#1", slice(100, None))):
        tracks[part] = VesselTrack(
            part, split.times[keep], split.north[keep], split.east[keep],
            split.speed[keep], split.heading[keep], split.length, split.vessel_type,
        )
    for i, (t, n0) in enumerate([(600.0, 2000.0), (900.0, 4000.0), (1200.0, 2500.0),
                                 (1500.0, 6000.0)]):
        tracks[f"s{i}"] = VesselTrack(f"s{i}", [t], [n0], [40.0 * i], [0.0], [0.0], 40.0,
                                      VesselType.PILOT)
    return tracks


def _random_track(track_id, rng, times, vessel_type):
    """A track at ``times`` at a speed of 0 to 8 m/s that may drift, on a
    course from one of 16 points that may turn. Most tracks head for the
    origin, due there at t = 300 s; the rest start 1 to 3 km out. Starts
    sit on a coarse lattice, so positions coincide now and then."""
    n = times.size
    v0 = float(rng.choice([0.0, 2.5, 5.0, 5.0, rng.uniform(0.0, 8.0)]))
    speed = np.full(n, v0)
    if rng.random() < 0.5:
        speed = np.maximum(0.0, speed + np.cumsum(rng.normal(0.0, 0.1, n)))
    heading = math.pi / 8.0 * rng.integers(0, 16)
    if rng.random() < 0.7:
        reach = -v0 * (300.0 - times[0])
        n0 = reach * math.cos(heading) - 50.0 * rng.integers(-3, 4) * math.sin(heading)
        e0 = reach * math.sin(heading) + 50.0 * rng.integers(-3, 4) * math.cos(heading)
    else:
        radius = 250.0 * rng.integers(4, 13)
        bearing = math.pi / 8.0 * rng.integers(0, 16)
        n0, e0 = radius * math.cos(bearing), radius * math.sin(bearing)
    heading = heading + (np.cumsum(rng.normal(0.0, 0.02, n)) if rng.random() < 0.5 else 0.0)
    steps = np.diff(times, prepend=times[0])
    north = n0 + np.cumsum(speed * steps * np.cos(heading))
    east = e0 + np.cumsum(speed * steps * np.sin(heading))
    return VesselTrack(
        track_id, times, north, east, speed, np.broadcast_to(heading, (n,)),
        length=float(rng.choice([50.0, 100.0, rng.uniform(10.0, 150.0)])),
        vessel_type=vessel_type,
    )


@st.composite
def track_dicts(draw):
    """Random track dicts: tracks on grids of other phase or dt, one-sample
    tracks, tracks with a gap in their samples, tracks split in two with
    disjoint spans, and copies of a track (coincident positions, zero
    relative velocity) or of its velocities beside it (zero relative
    velocity only)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tracks = {}
    for i in range(draw(st.integers(2, 6))):
        dt = draw(st.sampled_from([10.0, 10.0, 10.0, 5.0, 20.0, 7.5]))
        phase = draw(st.sampled_from([0.0, 0.0, 0.0, 2.5, 5.0]))
        n = draw(st.sampled_from([1, 3, 30, 60, 60, 60]))
        t0 = phase + 10.0 * draw(st.integers(0, 12))
        times = t0 + dt * np.arange(n)
        shape = draw(st.sampled_from(["plain", "gap", "split", "copy", "beside"]))
        if shape == "gap" and n > 4:
            cut = rng.integers(1, n - 2)
            times = np.delete(times, np.arange(cut, min(n - 1, cut + rng.integers(1, 8))))
        vtype = draw(st.sampled_from(list(VesselType)))
        track = _random_track(f"v{i}", rng, times, vtype)
        if shape == "split" and n > 2:
            cut = int(rng.integers(1, n - 1))
            for part, keep in (("a", slice(None, cut)), ("b", slice(cut + 1, None))):
                tracks[f"v{i}{part}"] = VesselTrack(
                    f"v{i}{part}", track.times[keep], track.north[keep], track.east[keep],
                    track.speed[keep], track.heading[keep], track.length, vtype,
                )
            continue
        tracks[track.track_id] = track
        if shape in ("copy", "beside"):
            shift = 0.0 if shape == "copy" else 50.0 * rng.integers(1, 10)
            tracks[f"v{i}c"] = VesselTrack(
                f"v{i}c", track.times, track.north + shift, track.east, track.speed,
                track.heading, float(rng.choice([track.length, 60.0])), vtype,
            )
    return tracks


@st.composite
def detection_settings(draw, tracks):
    """A DCPA threshold (the default, 0, or exactly one pair's minimum),
    domain coefficients and a rate window."""
    minima = sorted(
        {
            dcpa
            for a in tracks.values()
            for b in tracks.values()
            if a is not b and (dcpa := reference_min_forward_dcpa(a, b)) is not None
        }
    )
    threshold = draw(st.sampled_from([DEFAULT_DCPA_THRESHOLD, 0.0, *minima]))
    dp = draw(
        st.sampled_from(
            [DomainParams(), DomainParams(3.0, 0.25, 1.2, -0.4), DomainParams(2.0, 0.0, 0.8, 0.9)]
        )
    )
    return threshold, dp, draw(st.sampled_from([DEFAULT_WINDOW, 10.0, 25.0]))


class TestBlockMatchesPairLoop:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_detect_encounters_equals_pair_loop(self, data):
        tracks = data.draw(track_dicts())
        threshold, dp, window = data.draw(detection_settings(tracks))
        found = detect_encounters(tracks, threshold, dp, window)
        assert found == reference_detect_encounters(tracks, threshold, dp, window)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_find_tdv_equals_pair_reference(self, data):
        tracks = data.draw(track_dicts())
        _, dp, _ = data.draw(detection_settings(tracks))
        for a in tracks.values():
            for b in tracks.values():
                assert find_tdv(a, b, dp) == reference_find_tdv(a, b, dp)

    def test_threshold_is_strict(self):
        # a pair whose minimum DCPA equals the threshold is screened out,
        # one just above it passes
        a = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 121)
        b = straight_track("b", 0.0, 6000.0, 50.0, 5.0, math.pi, 121)
        dcpa = reference_min_forward_dcpa(a, b)
        tracks = {"a": a, "b": b}
        assert detect_encounters(tracks, dcpa) == []
        assert len(detect_encounters(tracks, math.nextafter(dcpa, math.inf))) == 2



class TestManyTracks:
    @pytest.mark.parametrize(
        "threshold, dp, window",
        [(DEFAULT_DCPA_THRESHOLD, DomainParams(), DEFAULT_WINDOW),
         (150.0, DomainParams(2.0, 0.0, 0.8, 0.9), 25.0)],
    )
    def test_lane_scene_equals_pair_loop(self, threshold, dp, window):
        tracks = lane_scene()
        found = detect_encounters(tracks, threshold, dp, window)
        assert found == reference_detect_encounters(tracks, threshold, dp, window)

    def test_no_track_or_one_track_no_event(self):
        assert detect_encounters({}) == []
        assert detect_encounters({"v00": lane_scene()["v00"]}) == []

    def test_log_counts_equal_pair_loop(self, caplog):
        tracks = lane_scene()
        with caplog.at_level(logging.INFO, logger="seamanship.speedmodel"):
            detect_encounters(tracks)
        (record,) = [r for r in caplog.records if r.getMessage().startswith("encounters:")]
        _, counts = reference_tally(tracks)
        assert record.args == counts
        overlapping, screened, events, dropped = counts
        # the scene exercises every count: pairs screened out, and drops
        assert overlapping > screened > events > dropped > 0

    def test_memory_bounded_by_own_blocks(self):
        # every sample in time order and one block of sample pairs at a
        # time: gathering every pair's shared samples first peaked at about
        # 24 MB on this scene, against 1.4 MB here
        tracks = lane_scene()
        tracemalloc.start()
        try:
            found = detect_encounters(tracks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) > 0
        assert peak < 2_000_000

def tally(tracks, *args):
    """``detect_encounters``' events and the four numbers of its
    ``encounters:`` log line, as ``reference_tally`` returns them."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("seamanship.speedmodel")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        events = detect_encounters(tracks, *args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    (record,) = [r for r in records if r.getMessage().startswith("encounters:")]
    return events, record.args


def old_event_loop(tracks, dcpa_threshold, dp, window):
    """``detect_encounters``' events and dropped count as written before
    the batched speed read: one ``speed_change_at`` per event."""
    ids = sorted(tracks)
    ordered = [tracks[i] for i in ids]
    found, _, _ = speedmodel._violations(ordered, dcpa_threshold, dp)
    events: list[EncounterEvent] = []
    dropped = 0
    for own_index, target_index, tdv in sorted(found):
        target = ordered[target_index]
        rate = old_speed_change_at(target, tdv, window)
        if rate is None:
            dropped += 1
            continue
        events.append(EncounterEvent(ids[own_index], ids[target_index], tdv, rate,
                                     target.vessel_type))
    return events, dropped


def rate_bits(rates):
    return np.array(rates, dtype=float).view(np.int64).tolist()


@st.composite
def rate_queries(draw):
    """Tracks, a window and a query per event: a track and a time at which
    the window fits the track, starts on its first sample, or sticks out
    before its start or past its end. A track may be queried at several
    times, and there may be no events."""
    tracks = list(draw(track_dicts()).values())
    window = draw(st.sampled_from([DEFAULT_WINDOW, 10.0, 25.0, 3.7]))
    queried = draw(st.lists(st.sampled_from(tracks), max_size=8))
    times = [
        draw(st.one_of(
            st.just(track.t_start + window), st.sampled_from(track.times.tolist()),
            st.just(track.t_end), st.floats(track.t_start - 2.0 * window, track.t_end + window),
        ))
        for track in queried
    ]
    return queried, times, window


class TestBatchedSpeedChanges:
    @given(rate_queries())
    @settings(max_examples=200, deadline=None)
    def test_matches_old_per_event_reads(self, query):
        tracks, times, window = query
        rates = speedmodel._speed_changes(tracks, times, window)
        ref = [old_speed_change_at(track, t, window) for track, t in zip(tracks, times)]
        assert rates.shape == (len(ref),)
        assert np.isnan(rates).tolist() == [r is None for r in ref]
        assert rate_bits(rates[~np.isnan(rates)]) == rate_bits([r for r in ref if r is not None])
        for track, t, r in zip(tracks, times, ref):
            one = speed_change_at(track, t, window)
            assert one is None if r is None else rate_bits([one]) == rate_bits([r])

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_events_and_drops_match_old_loop(self, data):
        tracks = data.draw(track_dicts())
        threshold, dp, _ = data.draw(detection_settings(tracks))
        window = data.draw(st.sampled_from([DEFAULT_WINDOW, 25.0, 400.0]))
        events, counts = tally(tracks, threshold, dp, window)
        ref_events, ref_dropped = old_event_loop(tracks, threshold, dp, window)
        assert events == ref_events
        assert rate_bits([e.speed_change for e in events]) == rate_bits(
            [e.speed_change for e in ref_events])
        assert counts[2:] == (len(ref_events), ref_dropped)

    def test_lane_scene_drops_match_old_loop(self):
        tracks = lane_scene()
        events, counts = tally(tracks)
        ref_events, ref_dropped = old_event_loop(
            tracks, DEFAULT_DCPA_THRESHOLD, DomainParams(), DEFAULT_WINDOW)
        assert events == ref_events and counts[3] == ref_dropped > 0

    def test_no_events(self):
        assert speedmodel._speed_changes([], [], DEFAULT_WINDOW).shape == (0,)


@st.composite
def crowd_dicts(draw):
    """Three to eight vessels reporting on one 10 s grid, each over a
    stretch of it, so that most times pair three or more of them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = 10.0 * np.arange(draw(st.sampled_from([1, 3, 30, 60])))
    tracks = {}
    for i in range(draw(st.integers(3, 8))):
        start = draw(st.integers(0, grid.size - 1))
        stop = draw(st.integers(start + 1, grid.size))
        vtype = draw(st.sampled_from(list(VesselType)))
        tracks[f"c{i}"] = _random_track(f"c{i}", rng, grid[start:stop], vtype)
    return tracks


def crowd_scene():
    """Six vessels bound for the origin from six bearings, due there at
    t = 300 s, two of them slowing down, and one vessel 20 km out: all
    seven report every 10 s."""
    times = 10.0 * np.arange(61)
    tracks = {}
    for i in range(6):
        heading = math.pi / 3.0 * i + 0.2
        speed = 3.0 + 0.5 * i
        tracks[f"x{i}"] = lane_track(
            f"x{i}", times, -300.0 * speed * math.cos(heading) + 40.0 * i,
            -300.0 * speed * math.sin(heading), speed, -0.004 * (i % 3 == 1), heading,
            80.0 + 20.0 * i, list(VesselType)[i % len(VesselType)],
        )
    tracks["far"] = lane_track("far", times, 20000.0, 0.0, 4.0, 0.0, 0.0, 100.0,
                               VesselType.CARGO)
    return tracks


def resting(track_id, times, north, east, length=100.0, speed=None):
    """A vessel at (``north``, ``east``) through ``times``, with ``speed``
    per sample (default 0): heading north at rest, south where it moves."""
    times = np.asarray(times, dtype=float)
    speed = np.zeros(times.size) if speed is None else np.asarray(speed, dtype=float)
    heading = np.where(speed > 0.0, math.pi, 0.0)
    return VesselTrack(track_id, times, np.full(times.size, north), np.full(times.size, east),
                       speed, heading, length)


# KERNEL_CHUNK_ELEMS values: blocks of KERNEL_CHUNK_ELEMS // 2 sample pairs,
# at least one: 1 and 3 give one, 7 gives three, which splits the pairs of
# a time of three or more vessels, and the default gives 4,096
SWEEP_CHUNKS = [1, 3, 7, risk.KERNEL_CHUNK_ELEMS]


class TestSweep:
    @pytest.mark.parametrize("chunk", SWEEP_CHUNKS[:3])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_pair_loop_in_small_blocks(self, chunk, data):
        tracks = data.draw(track_dicts())
        threshold, dp, window = data.draw(detection_settings(tracks))
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk):
            assert tally(tracks, threshold, dp, window) == reference_tally(
                tracks, threshold, dp, window
            )

    @pytest.mark.parametrize("chunk", SWEEP_CHUNKS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_crowds_equal_pair_loop(self, chunk, data):
        tracks = data.draw(crowd_dicts())
        threshold, dp, window = data.draw(detection_settings(tracks))
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk):
            assert tally(tracks, threshold, dp, window) == reference_tally(
                tracks, threshold, dp, window
            )

    @pytest.mark.parametrize("chunk", SWEEP_CHUNKS)
    def test_crowd_scene_equals_pair_loop(self, chunk):
        tracks = crowd_scene()
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk):
            events, counts = tally(tracks)
        assert (events, counts) == reference_tally(tracks)
        # six vessels meet at once, the far one screened out
        assert len({e.own_id for e in events} | {e.target_id for e in events}) >= 3
        assert counts[0] == 42 and counts[1] == 30

    @pytest.mark.parametrize("chunk", [1, 25, risk.KERNEL_CHUNK_ELEMS])
    def test_lane_scene_counts_equal_pair_loop_in_blocks(self, chunk):
        tracks = lane_scene()
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk):
            assert tally(tracks) == reference_tally(tracks)

    @pytest.mark.parametrize("chunk", SWEEP_CHUNKS)
    def test_first_violation_before_only_close_cell(self, chunk):
        # b lies 200 m dead ahead of a, inside a's domain, from a's first
        # sample at t = 100 on; at rest both, their forward DCPA is 200 m,
        # above a 150 m threshold, except at t = 250, where b reports
        # heading for a at 1 m/s (DCPA 0): the pair passes and yields its
        # first violation, at t = 100
        a = resting("a", np.arange(100.0, 310.0, 10.0), 0.0, 0.0)
        b = resting("b", np.arange(0.0, 310.0, 10.0), 200.0, 0.0,
                    speed=np.where(np.arange(0.0, 310.0, 10.0) == 250.0, 1.0, 0.0))
        tracks = {"a": a, "b": b}
        with mock.patch.object(risk, "KERNEL_CHUNK_ELEMS", chunk):
            events = detect_encounters(tracks, 150.0)
        assert [(e.own_id, e.target_id, e.tdv) for e in events] == [("a", "b", 100.0)]
        assert events == reference_detect_encounters(tracks, 150.0)
        # without the close cell the pair is screened out
        still = {"a": a, "b": resting("b", b.times, 200.0, 0.0)}
        assert detect_encounters(still, 150.0) == reference_detect_encounters(still, 150.0) == []

    @pytest.mark.parametrize(
        "dp, north, east",
        [
            # a = 400 m and b = 160 m at rest; the center 100 m ahead
            (DomainParams(), 500.0, 0.0),
            (DomainParams(), -300.0, 0.0),
            (DomainParams(offset_fraction=0.0), 400.0, 0.0),
            (DomainParams(offset_fraction=0.0), 0.0, 160.0),
            # the center 160 m astern: 240 m ahead, 560 m astern
            (DomainParams(offset_fraction=-0.4), 240.0, 0.0),
            (DomainParams(offset_fraction=-0.4), -560.0, 0.0),
            # b = 300 m > a = 100 m: the domain reaches furthest abeam
            (DomainParams(1.0, 0.5, 3.0, 0.0), 100.0, 0.0),
            (DomainParams(1.0, 0.5, 3.0, 0.0), 0.0, 300.0),
            (DomainParams(1.0, 0.5, 3.0, 0.0), 0.0, -300.0),
            (DomainParams(1.0, 0.5, 3.0, -0.5), -150.0, 0.0),
        ],
    )
    @pytest.mark.parametrize("side, hit", [(1.0 - 1e-5, True), (1.0 + 1e-5, False)])
    def test_reach_boundary(self, dp, north, east, side, hit):
        # a target at rest on the domain boundary of a vessel at rest,
        # just inside or just beyond it
        tracks = {"own": resting("own", np.arange(100.0, 200.0, 10.0), 0.0, 0.0),
                  "target": resting("target", np.arange(0.0, 200.0, 10.0),
                                    side * north, side * east)}
        events = detect_encounters(tracks, domain_params=dp)
        assert [(e.own_id, e.target_id, e.tdv) for e in events] == (
            [("own", "target", 100.0)] if hit else []
        )
        assert events == reference_detect_encounters(tracks, domain_params=dp)

    def test_memory_bounded_by_sweep_blocks(self):
        # 300 vessels 2 km apart report at the same three times, so each
        # time pairs 44,850 cells, eleven blocks; taking a time's cells at
        # once peaked at about 5 MB, against 0.5 MB here
        tracks = {f"m{i:03d}": resting(f"m{i:03d}", [0.0, 10.0, 20.0], 2000.0 * i, 0.0)
                  for i in range(300)}
        tracemalloc.start()
        try:
            events, counts = tally(tracks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert events == [] and counts == (300 * 299, 0, 0, 0)
        assert peak < 1_500_000


def make_events(rates, vtype=VesselType.CARGO):
    return [
        EncounterEvent("own", f"t{i}", 100.0, float(r), vtype)
        for i, r in enumerate(rates)
    ]


class TestFitModel:
    def test_silverman_reference_value(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1.0, 400)
        h = silverman_bandwidth(x)
        std = np.std(x, ddof=1)
        iqr = np.subtract(*np.percentile(x, [75, 25]))
        assert h == pytest.approx(0.9 * min(std, iqr / 1.34) * 400 ** -0.2, rel=1e-12)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(1)
        model = fit_model(make_events(rng.normal(0.0, 0.02, 200)), VesselType.CARGO)
        lo, hi = model.support
        total, _ = quad(lambda x: model.density(x), lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_density_zero_outside_support(self):
        rng = np.random.default_rng(2)
        model = fit_model(make_events(rng.normal(0.0, 0.02, 100)), VesselType.CARGO)
        lo, hi = model.support
        assert model.density(lo - 1e-6) == 0.0
        assert model.density(hi + 1e-6) == 0.0
        assert model.density(0.0) > 0.0

    def test_three_sample_hand_sum(self):
        samples = np.array([-0.01, 0.0, 0.02])
        model = fit_model(make_events(samples), VesselType.CARGO, min_samples=3)
        h = model.bandwidth
        x = 0.005
        expected = np.mean(
            np.exp(-0.5 * ((x - samples) / h) ** 2) / (h * math.sqrt(2 * math.pi))
        )
        assert model.density(x) == pytest.approx(expected, abs=1e-12)

    def test_repeated_sample_peaks_at_value(self):
        model = fit_model(make_events([0.03] * 40), VesselType.CARGO)
        assert not model.degenerate
        grid = np.linspace(*model.support, 501)
        dens = model.density(grid)
        assert grid[int(np.argmax(dens))] == pytest.approx(0.03, abs=1e-3)

    def test_too_few_samples_degenerate_uniform(self):
        model = fit_model(make_events([0.01] * 5), VesselType.CARGO)
        assert model.degenerate
        lo, hi = model.support
        assert model.density(0.5 * (lo + hi)) == pytest.approx(1.0 / (hi - lo))
        total, _ = quad(lambda x: model.density(x), lo - 0.1, hi + 0.1, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_type_filter(self):
        events = make_events([0.01] * 50, VesselType.TANKER) + make_events(
            [0.02] * 50, VesselType.CARGO
        )
        model = fit_model(events, VesselType.TANKER)
        assert model.metadata["sample_count"] == 50

    def test_roundtrip_json(self, tmp_path):
        rng = np.random.default_rng(3)
        model = fit_model(make_events(rng.normal(0.0, 0.02, 60)), VesselType.CARGO)
        path = tmp_path / "model.json"
        model.save(path)
        back = SpeedChangeModel.load(path)
        assert np.array_equal(back.samples, model.samples)
        assert back.bandwidth == model.bandwidth
        assert back.support == model.support
        x = np.linspace(*model.support, 50)
        assert np.array_equal(back.density(x), model.density(x))


class TestModelFile:
    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("vessel_type", "Carg0", "not a valid VesselType"),
            ("vessel_type", "cargo", "not a valid VesselType"),
            ("vessel_type", 5, "not a valid VesselType"),
            ("degenerate", "false", "degenerate must be true or false"),
            ("degenerate", 1, "degenerate must be true or false"),
        ],
    )
    def test_loose_fields_refused(self, field, value, problem):
        doc = fit_model(make_events([0.01, 0.02, 0.03]), VesselType.CARGO, min_samples=3).to_dict()
        doc[field] = value
        with pytest.raises(ValueError, match=problem):
            SpeedChangeModel.from_dict(doc)

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("samples", [0.01, math.nan, 0.03], "samples must be finite"),
            ("samples", [math.inf, 0.02, 0.03], "samples must be finite"),
            ("bandwidth", math.inf, "bandwidth and support must be finite"),
            ("bandwidth", math.nan, "bandwidth and support must be finite"),
            ("support", [-math.inf, 0.05], "bandwidth and support must be finite"),
            ("support", [0.0, math.nan], "bandwidth and support must be finite"),
        ],
    )
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_non_finite_fields_refused(self, field, value, problem, degenerate):
        # an infinite bandwidth or support end would grade at density 0
        doc = fit_model(make_events([0.01, 0.02, 0.03]), VesselType.CARGO, min_samples=3).to_dict()
        doc[field], doc["degenerate"] = value, degenerate
        with pytest.raises(ValueError, match=problem):
            SpeedChangeModel.from_dict(doc)


class TestProbabilisticCr:
    def setup_method(self):
        self.a = straight_track("a", 0.0, 0.0, 0.0, 5.0, 0.0, 121)
        self.b = straight_track("b", 0.0, 2500.0, 0.0, 5.0, math.pi, 121)

    def test_dirac_equals_deterministic(self):
        model = SpeedChangeModel(
            VesselType.CARGO, np.array([0.0]), bandwidth=1.0, support=(0.0, 0.0)
        )
        wavg = probabilistic_cr(self.a, self.b, 100.0, model)
        det = overall_collision_risk(self.a, self.b, 100.0, rate=0.0)
        assert wavg == pytest.approx(det, abs=1e-12)

    def test_within_sliced_bounds(self):
        rng = np.random.default_rng(4)
        model = fit_model(make_events(rng.normal(-0.01, 0.02, 80)), VesselType.CARGO)
        wavg = probabilistic_cr(self.a, self.b, 100.0, model, grid_n=32)
        slices = [
            overall_collision_risk(self.a, self.b, 100.0, rate=float(r))
            for r in np.linspace(*model.support, 32)
        ]
        assert min(slices) - 1e-12 <= wavg <= max(slices) + 1e-12

    def test_constant_risk_unchanged_by_weighting(self):
        # far-apart vessels: risk is ~0 for every rate, so the average is too
        far = straight_track("far", 0.0, 0.0, 50000.0, 5.0, 0.0, 121)
        rng = np.random.default_rng(5)
        model = fit_model(make_events(rng.normal(0.0, 0.02, 80)), VesselType.CARGO)
        assert probabilistic_cr(self.a, far, 100.0, model) == pytest.approx(0.0, abs=1e-9)

    def test_two_point_hand_average(self):
        # uniform density on a two-point grid: the plain mean of the values
        model = SpeedChangeModel(
            VesselType.CARGO, np.empty(0), 0.02, (-0.02, 0.02), degenerate=True
        )
        values = {-0.02: 0.2, 0.02: 0.6}

        def value_at(rates):
            return np.array([values[float(r)] for r in rates])

        assert rate_weighted_mean(value_at, model, 2) == pytest.approx(
            0.4, abs=1e-15
        )

    def test_weighted_average_zero_mass_falls_back_to_rate_zero(self):
        # kernels centered far outside the support underflow to zero density
        model = SpeedChangeModel(VesselType.CARGO, np.array([10.0]), 1e-3, (0.0, 1.0))
        assert float(np.sum(model.density(np.linspace(0.0, 1.0, 8)))) == 0.0
        assert rate_weighted_mean(lambda r: 0.3 + r, model, 8) == 0.3

    def test_grid_n_below_two_rejected(self):
        model = SpeedChangeModel(
            VesselType.CARGO, np.empty(0), 0.02, (-0.02, 0.02), degenerate=True
        )
        with pytest.raises(ValueError):
            probabilistic_cr(self.a, self.b, 100.0, model, grid_n=1)


class TestRateAxis:
    @given(
        seed=st.integers(0, 2**32 - 1),
        grid_n=st.integers(2, 40),
        mode=st.sampled_from(MUTUAL_MODES),
    )
    @settings(max_examples=30, deadline=None)
    def test_rate_array_integrand_matches_per_rate_loop(self, seed, grid_n, mode):
        rng = np.random.default_rng(seed)
        rp = RiskParams(horizon_T=300.0, horizon_step=30.0, mutual_mode=mode)
        own = straight_track("own", 0.0, 0.0, 0.0, rng.uniform(1.0, 8.0),
                             rng.uniform(0.0, 2.0 * math.pi), 31)
        tgt = straight_track("tgt", 0.0, rng.uniform(-1500.0, 1500.0),
                             rng.uniform(-1500.0, 1500.0), rng.uniform(0.0, 8.0),
                             rng.uniform(0.0, 2.0 * math.pi), 31)
        model = fit_model(
            make_events(rng.normal(rng.uniform(-0.03, 0.03), 0.02, 40)), VesselType.CARGO
        )
        looped = rate_weighted_mean(
            lambda rates: np.array(
                [overall_collision_risk(own, tgt, 100.0, float(r), rp) for r in rates]
            ),
            model,
            grid_n,
        )
        assert abs(probabilistic_cr(own, tgt, 100.0, model, grid_n, rp) - looped) <= 1e-12

    @given(
        seed=st.integers(0, 2**32 - 1),
        grid_n=st.integers(2, 40),
        support=st.sampled_from([(-0.05, 0.04), (0.01, 0.01), "zero_mass"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_leading_axes_give_one_mean_per_row(self, seed, grid_n, support):
        rng = np.random.default_rng(seed)
        if support == "zero_mass":
            model = SpeedChangeModel(VesselType.CARGO, np.array([10.0]), 1e-3, (0.0, 1.0))
        else:
            model = SpeedChangeModel(VesselType.CARGO, np.array([-0.01, 0.02]), 0.01, support)
        base, slope = rng.uniform(0.0, 1.0, (2, 3, 2))
        means = rate_weighted_mean(
            lambda rates: base[..., None] + slope[..., None] * rates, model, grid_n
        )
        assert means.shape == (3, 2)
        for i, j in np.ndindex(3, 2):
            row = rate_weighted_mean(lambda r: base[i, j] + slope[i, j] * r, model, grid_n)
            assert type(row) is float and means[i, j] == row


class TestSpeedParams:
    def test_defaults_are_the_library_defaults(self):
        assert SpeedParams() == SpeedParams(1852.0, 60.0, 30, 64)

    @pytest.mark.parametrize("field", ["min_samples", "grid_n"])
    @pytest.mark.parametrize("value", [2.5, 8.0, True, "8"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SpeedParams(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        assert SpeedParams(grid_n=np.int64(9)).grid_n == 9

    @pytest.mark.parametrize("window", [0.0, -60.0])
    def test_window_must_be_positive(self, window):
        with pytest.raises(ValueError, match="window must be positive"):
            SpeedParams(window=window)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("dcpa_threshold", 0.0, "dcpa_threshold must be positive"),
            ("dcpa_threshold", -5.0, "dcpa_threshold must be positive"),
            ("min_samples", 0, "min_samples must be at least 1"),
            ("grid_n", 1, "grid_n must be at least 2"),
        ],
    )
    def test_out_of_range_settings_refused(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SpeedParams(**{field: value})

    def test_fit_model_needs_a_sample(self):
        with pytest.raises(ValueError, match="min_samples must be at least 1"):
            fit_model([], VesselType.CARGO, min_samples=0)
