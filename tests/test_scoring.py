import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamanship.risk import risk_index
from seamanship.scoring import (
    GssReport,
    ScoreParams,
    gss,
    invert_risk,
    normalize_risk,
    normalize_series,
    score_series,
)


class TestInvertRisk:
    def test_half_maps_to_midpoint(self):
        assert invert_risk(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_known_value(self):
        # r = 1/(1+e^5) inverts to f = 1.5
        r = 1.0 / (1.0 + math.exp(5.0))
        assert invert_risk(r) == pytest.approx(1.5, abs=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            invert_risk(0.0)
        with pytest.raises(ValueError):
            invert_risk(1.0)

    def test_roundtrip_identity(self):
        rs = np.linspace(1e-6, 1.0 - 1e-6, 2001)
        for r in rs:
            assert risk_index(invert_risk(float(r))) == pytest.approx(float(r), abs=1e-12)


class TestNormalizeRisk:
    def test_zero_best_achievable_passthrough(self):
        assert normalize_risk(0.42, 0.0) == 0.42

    def test_riding_the_best_achievable_hits_boundary_level(self):
        assert normalize_risk(0.6, 0.6) == pytest.approx(0.5, abs=1e-12)

    def test_excess_over_best_achievable_penalized(self):
        # worked chain: f(0.9) ~ 0.7803, f(0.6) ~ 0.9595 -> f_norm ~ -3.419
        out = normalize_risk(0.9, 0.6)
        p = ScoreParams()
        f_sr = invert_risk(0.9)
        f_star = invert_risk(0.6)
        f_norm = 1.0 + (f_sr - f_star) / (1.0 - f_star)
        assert f_norm == pytest.approx(-3.419, abs=1e-3)
        assert out == pytest.approx(min(risk_index(f_norm), 1.0 - p.risk_clamp_eps), abs=1e-12)
        assert out == 1.0 - p.risk_clamp_eps

    def test_no_headroom_region_passthrough(self):
        # best achievable below the boundary level: raw risk returned
        assert normalize_risk(0.3, 0.1) == 0.3

    def test_inconsistent_input_rejected(self):
        with pytest.raises(ValueError):
            normalize_risk(0.2, 0.6)

    def test_small_inconsistency_clamped_up(self):
        out = normalize_risk(0.6 - 1e-12, 0.6)
        assert out == pytest.approx(0.5, abs=1e-9)

    def test_monotone_in_sr_for_fixed_star(self):
        for star in (0.0, 0.3, 0.6, 0.9):
            srs = np.linspace(star, 1.0, 200)
            vals = [normalize_risk(float(s), star) for s in srs]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_series_flags(self):
        sr = np.array([0.2, 0.6, 0.9, 0.3])
        star = np.array([0.0, 0.6, 0.6, 0.4])
        out, flags = normalize_series(sr, star)
        assert flags["passthrough"] == 1
        assert flags["normalized"] == 2
        assert flags["clamped_star"] == 1
        assert out[0] == 0.2


class TestGss:
    def test_risk_free_perfect_score(self):
        times = np.arange(5.0)
        assert gss(np.zeros(5), times) == (1.0, 1.0, 1.0)

    def test_certain_collision_zero_score(self):
        times = np.arange(5.0)
        series = np.zeros(5)
        series[2] = 1.0
        j_m, j_c, score = gss(series, times)
        assert j_m == 0.0
        assert score == 0.0

    def test_constant_half_reference_value(self):
        times = np.linspace(0.0, 600.0, 61)
        j_m, j_c, score = gss(np.full(61, 0.5), times)
        assert j_m == pytest.approx(0.5, abs=1e-15)
        assert j_c == pytest.approx(0.0, abs=1e-12)
        assert score == pytest.approx(0.375, abs=1e-12)

    def test_brief_peak_beats_sustained_peak(self):
        times = np.linspace(0.0, 600.0, 61)
        brief = np.full(61, 0.05)
        brief[30] = 0.6
        sustained = np.full(61, 0.6)
        assert gss(brief, times)[2] > gss(sustained, times)[2]

    def test_bounds_on_random_series(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            times = np.cumsum(rng.uniform(1.0, 30.0, n))
            series = rng.uniform(0.0, 1.0, n)
            j_m, j_c, score = gss(series, times)
            assert 0.0 <= j_m <= 1.0
            assert 0.0 <= j_c <= 1.0
            assert 0.0 <= score <= 1.0

    @given(beta=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_score_within_unit_interval_any_beta(self, beta):
        times = np.linspace(0.0, 100.0, 11)
        rng = np.random.default_rng(int(beta * 1e6) % 2**32)
        series = rng.uniform(0.0, 1.0, 11)
        _, _, score = gss(series, times, ScoreParams(beta=beta))
        assert 0.0 <= score <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gss(np.zeros(3), np.zeros(4))

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError):
            gss(np.zeros(3), np.array([0.0, 2.0, 1.0]))

    @pytest.mark.parametrize("field", ["sr_max_eps", "consistency_tol"])
    def test_negative_tolerance_refused(self, field):
        # a negative consistency_tol would call every step that rides its
        # floor inconsistent, and a negative sr_max_eps no peak risk-free
        with pytest.raises(ValueError, match=f"{field} must not be negative, got -0.5"):
            ScoreParams(**{field: -0.5})
        assert getattr(ScoreParams(**{field: 0.0}), field) == 0.0


class TestScoreSeries:
    def test_report_fields_consistent(self):
        times = np.linspace(0.0, 600.0, 61)
        sr = np.full(61, 0.5)
        report = score_series("own", times, sr)
        assert isinstance(report, GssReport)
        assert report.sr_max == 0.5
        assert report.gss == pytest.approx(0.375, abs=1e-12)
        assert report.flags["passthrough"] == 61
        doc = report.to_dict()
        assert doc["vessel_id"] == "own"
        assert len(doc["sr_norm_series"]) == 61

    def test_normalization_lifts_score_when_risk_unavoidable(self):
        # sailing exactly at a high unavoidable risk grades better than raw
        times = np.linspace(0.0, 300.0, 31)
        sr = np.full(31, 0.9)
        star = np.full(31, 0.9)
        baseline = score_series("own", times, sr)
        proposed = score_series("own", times, sr, star)
        assert proposed.gss > baseline.gss
        assert proposed.sr_max == pytest.approx(0.5, abs=1e-12)
