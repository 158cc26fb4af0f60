import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from seamanship.geometry import VesselTrack, VesselType
from seamanship.risk import MUTUAL_MODES, RiskParams, overall_collision_risk, rate_weighted_mean
from seamanship.speedmodel import (
    EncounterEvent,
    SpeedChangeModel,
    SpeedParams,
    detect_encounters,
    fit_model,
    probabilistic_cr,
    silverman_bandwidth,
    speed_change_at,
)
from .test_geometry import straight_track


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
