"""End-to-end tests of the command-line pipeline."""

import csv
import json
import math
import shutil
from datetime import datetime, timedelta

import pytest

from seamanship.cli import main
from seamanship.geometry import VesselState, VesselType
from seamanship.planner import KinodynamicParams, step_kinodynamics
from seamanship.risk import RiskParams
from seamanship.scoring import ScoreParams, score_series

LAT_PER_METER = math.degrees(1.0 / 6_371_000.0)
MPS_10_KNOTS = 10.0 * 1852.0 / 3600.0

COLUMNS = [
    "# Timestamp",
    "MMSI",
    "Latitude",
    "Longitude",
    "SOG",
    "COG",
    "Heading",
    "Ship type",
    "Length",
]

FAST_SEARCH = [
    "--set", "search.n_t=1",
    "--set", "search.n_alpha=3",
    "--set", "search.n_v=1",
    "--set", "search.horizon_T=120",
    "--set", "risk.horizon_T=120",
    "--set", "risk.horizon_step=60",
]


def stamp(seconds):
    base = datetime(2023, 9, 7, 6, 0, 0)
    return (base + timedelta(seconds=seconds)).strftime("%d/%m/%Y %H:%M:%S")


def vessel_rows(mmsi, lat0, heading_deg, n=7, step=60.0):
    """Constant-speed run at 10 knots, due north or south."""
    sign = 1.0 if heading_deg == 0.0 else -1.0
    rows = []
    for k in range(n):
        lat = lat0 + sign * MPS_10_KNOTS * step * k * LAT_PER_METER
        rows.append(
            [
                stamp(int(step * k)),
                mmsi,
                f"{lat:.8f}",
                "11.00000000",
                "10.0",
                f"{heading_deg}",
                f"{heading_deg}",
                "Cargo",
                "150",
            ]
        )
    return rows


def write_ais(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows(rows)
    return path


@pytest.fixture
def head_on_ais(tmp_path):
    rows = vessel_rows("111000001", 55.00, 0.0) + vessel_rows("111000002", 55.03, 180.0)
    return write_ais(tmp_path / "headon.csv", rows)


@pytest.fixture
def solo_ais(tmp_path):
    return write_ais(tmp_path / "solo.csv", vessel_rows("111000009", 55.00, 0.0))


@pytest.fixture
def chart_file(tmp_path):
    ring = [
        [11.006, 55.014],
        [11.008, 55.014],
        [11.008, 55.016],
        [11.006, 55.016],
        [11.006, 55.014],
    ]
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {"depth": 4.0},
            }
        ],
    }
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


def ingest(ais, outdir, chart=None):
    argv = ["ingest", "--ais", ais, "--output", outdir]
    if chart is not None:
        argv += ["--chart", chart]
    assert run(*argv) == 0
    return outdir / "scenario.json"


class TestIngestCommand:
    def test_writes_archive_summary_manifest(self, head_on_ais, chart_file, tmp_path):
        out = tmp_path / "run"
        ingest(head_on_ais, out, chart_file)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["vessels"] == 2
        assert summary["obstacle_polygons"] == 1
        assert summary["duration"] == 360.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert sorted(manifest["inputs"]) == ["ais", "chart"]
        assert len(manifest["inputs"]["ais"]["sha256"]) == 64
        assert "scenario.json" in manifest["outputs"]

    def test_missing_chart_exits_2_with_path(self, head_on_ais, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = run(
            "ingest", "--ais", head_on_ais, "--chart", missing,
            "--output", tmp_path / "run",
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2
        assert err["detail"]["path"] == str(missing)

    def test_empty_ais_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(COLUMNS) + "\n", encoding="utf-8")
        assert run("ingest", "--ais", empty, "--output", tmp_path / "run") == 2
        assert json.loads(capsys.readouterr().err)["code"] == 2

    def test_rerun_is_byte_identical(self, head_on_ais, chart_file, tmp_path):
        a = ingest(head_on_ais, tmp_path / "r1", chart_file)
        b = ingest(head_on_ais, tmp_path / "r2", chart_file)
        assert a.read_bytes() == b.read_bytes()
        m1 = (tmp_path / "r1" / "manifest.json").read_bytes()
        m2 = (tmp_path / "r2" / "manifest.json").read_bytes()
        assert m1 == m2


class TestFitSpeedModelCommand:
    def fit(self, scenario, outdir, *extra):
        assert run(
            "fit-speed-model", "--scenario", scenario, "--output", outdir,
            "--set", "speed.min_samples=1", *extra,
        ) == 0
        return outdir

    def test_writes_model_per_type_and_report(self, head_on_ais, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        out = self.fit(scenario, tmp_path / "fit")
        names = {p.name for p in out.glob("model_*.json")}
        assert names == {f"model_{t.value.lower()}.json" for t in VesselType}
        report = json.loads((out / "fit_report.json").read_text())
        assert report["events"] == 2
        assert report["types"]["Cargo"] == {"samples": 2, "degenerate": False}
        assert report["types"]["Tanker"]["degenerate"] is True
        cargo = json.loads((out / "model_cargo.json").read_text())
        assert cargo["metadata"]["window"] == 60.0

    def test_two_archives_sum_their_events(self, head_on_ais, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        copy = tmp_path / "copy.json"
        shutil.copy(scenario, copy)
        out = tmp_path / "fit2"
        assert run(
            "fit-speed-model", "--scenario", scenario, "--scenario", copy,
            "--output", out, "--set", "speed.min_samples=1",
        ) == 0
        assert json.loads((out / "fit_report.json").read_text())["events"] == 4

    def test_high_min_samples_marks_degenerate(self, head_on_ais, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        out = tmp_path / "fit3"
        assert run(
            "fit-speed-model", "--scenario", scenario, "--output", out,
        ) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["types"]["Cargo"]["degenerate"] is True

    def test_rerun_is_byte_identical(self, head_on_ais, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        a = self.fit(scenario, tmp_path / "f1")
        b = self.fit(scenario, tmp_path / "f2")
        assert (a / "model_cargo.json").read_bytes() == (b / "model_cargo.json").read_bytes()

    @pytest.mark.parametrize(
        "setting",
        ["speed.min_samples=abc", 'speed.dcpa_threshold="x"', "speed=5", "speed.window=0"],
    )
    def test_bad_speed_block_exits_2(self, head_on_ais, tmp_path, capsys, setting):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        code = run(
            "fit-speed-model", "--scenario", scenario, "--output", tmp_path / "fit",
            "--set", setting,
        )
        assert code == 2
        assert "speed" in json.loads(capsys.readouterr().err)["message"]

    def test_corrupt_archive_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "tracks": "oops"}', encoding="utf-8")
        assert run("fit-speed-model", "--scenario", bad, "--output", tmp_path / "o") == 2
        assert json.loads(capsys.readouterr().err)["code"] == 2


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, rows


class TestScoreCommand:
    def score(self, scenario, outdir, *extra):
        assert run(
            "score", "--scenario", scenario, "--ownship", "111000001",
            "--output", outdir, *FAST_SEARCH, *extra,
        ) == 0
        return outdir

    def test_emits_all_outputs(self, head_on_ais, chart_file, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing", chart_file)
        out = self.score(scenario, tmp_path / "score")
        for name in ("gss.json", "baseline_gss.json", "risk_series.csv",
                     "sr_star.csv", "manifest.json"):
            assert (out / name).is_file()
        comments, header, rows = read_csv(out / "risk_series.csv")
        assert any(c.startswith("# parameters") for c in comments)
        assert any(c.startswith("# inputs") for c in comments)
        assert header == ["time", "cr_111000002", "gr", "sr"]
        assert len(rows) == 37
        gss = json.loads((out / "gss.json").read_text())
        assert 0.0 <= gss["gss"] <= 1.0
        assert gss["provenance"]["parameters"]["ownship"] == "111000001"
        baseline = json.loads((out / "baseline_gss.json").read_text())
        assert all(v == 0.0 for v in baseline["sr_star_series"])

    def test_head_on_risk_is_material(self, head_on_ais, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        out = self.score(scenario, tmp_path / "score")
        _, header, rows = read_csv(out / "risk_series.csv")
        sr = [row[header.index("sr")] for row in rows]
        assert max(sr) > 0.5

    def test_model_adds_wavg_columns(self, head_on_ais, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        fit = tmp_path / "fit"
        assert run(
            "fit-speed-model", "--scenario", scenario, "--output", fit,
            "--set", "speed.min_samples=1",
        ) == 0
        out = self.score(
            scenario, tmp_path / "score", "--model", fit / "model_cargo.json"
        )
        _, header, _ = read_csv(out / "risk_series.csv")
        assert "cr_wavg_111000002" in header
        manifest = json.loads((out / "manifest.json").read_text())
        assert "model_cargo" in manifest["inputs"]

    def test_window_flags_clip_series(self, head_on_ais, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        out = self.score(
            scenario, tmp_path / "score", "--t-start", "60", "--t-end", "120"
        )
        _, header, rows = read_csv(out / "risk_series.csv")
        times = [row[header.index("time")] for row in rows]
        assert times == [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0]

    def test_unknown_ownship_exits_2(self, head_on_ais, tmp_path, capsys):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        code = run(
            "score", "--scenario", scenario, "--ownship", "999",
            "--output", tmp_path / "score",
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["detail"]["available"] == ["111000001", "111000002"]

    def test_internal_error_exits_3(self, head_on_ais, tmp_path, capsys, monkeypatch):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        import seamanship.cli as cli_mod

        def boom(*a, **k):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_mod, "compute_risk_series", boom)
        code = run(
            "score", "--scenario", scenario, "--ownship", "111000001",
            "--output", tmp_path / "score", *FAST_SEARCH,
        )
        assert code == 3
        assert json.loads(capsys.readouterr().err)["code"] == 3

    def test_risk_kappa_drives_normalization(self, head_on_ais, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        # a straight-ahead-only search leaves a floor high enough to normalize
        out = self.score(
            scenario, tmp_path / "score", "--set", "risk.kappa=12", "--set", "search.n_alpha=1"
        )
        doc = json.loads((out / "gss.json").read_text())
        assert doc["parameters"]["kappa"] == 12
        assert doc["flags"]["normalized"] > 0
        rp = RiskParams(kappa=12, horizon_T=120, horizon_step=60)
        report = score_series(
            "111000001", doc["times"], doc["sr_series"], doc["sr_star_series"],
            ScoreParams(), rp,
        )
        assert doc["sr_norm_series"] == report.sr_norm_series.tolist()

    def test_rerun_is_byte_identical(self, head_on_ais, chart_file, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing", chart_file)
        a = self.score(scenario, tmp_path / "s1")
        b = self.score(scenario, tmp_path / "s2")
        for name in ("gss.json", "baseline_gss.json", "risk_series.csv",
                     "sr_star.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestSafestPathCommand:
    def test_zero_risk_scene_goes_straight(self, solo_ais, tmp_path):
        scenario = ingest(solo_ais, tmp_path / "ing")
        out = tmp_path / "path"
        assert run(
            "safest-path", "--scenario", scenario, "--ownship", "111000009",
            "--time", "0", "--output", out, *FAST_SEARCH,
        ) == 0
        doc = json.loads((out / "path.json").read_text())
        assert doc["sr_star"] == 0.0
        headings = [n["heading"] for n in doc["best_path"]]
        assert headings == [headings[0]] * len(headings)

    def test_replay_reproduces_states(self, head_on_ais, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        out = tmp_path / "path"
        assert run(
            "safest-path", "--scenario", scenario, "--ownship", "111000001",
            "--time", "0", "--output", out,
            "--set", "search.n_t=2", "--set", "search.n_alpha=5",
            "--set", "search.n_v=2", "--set", "search.horizon_T=120",
            "--set", "risk.horizon_T=120", "--set", "risk.horizon_step=60",
        ) == 0
        doc = json.loads((out / "path.json").read_text())
        nodes = doc["best_path"]
        assert len(nodes) == 3
        dt = 120.0 / 2
        state = VesselState(
            time=nodes[0]["time"],
            north=nodes[0]["north"],
            east=nodes[0]["east"],
            speed=nodes[0]["speed"],
            heading=nodes[0]["heading"],
            length=150.0,
            vessel_type=VesselType.CARGO,
        )
        for node in nodes[1:]:
            state = step_kinodynamics(state, node["alpha"], node["v_cmd"], dt,
                                      KinodynamicParams())
            assert state.north == pytest.approx(node["north"], abs=1e-9)
            assert state.east == pytest.approx(node["east"], abs=1e-9)
            assert state.speed == node["v_cmd"]

    def test_sweep_emits_grid(self, solo_ais, tmp_path):
        scenario = ingest(solo_ais, tmp_path / "ing")
        out = tmp_path / "path"
        assert run(
            "safest-path", "--scenario", scenario, "--ownship", "111000009",
            "--time", "0", "--output", out, "--sweep-nt", "1,2",
            *FAST_SEARCH,
        ) == 0
        _, header, rows = read_csv(out / "sr_star_grid.csv")
        assert header == ["n_t", "n_alpha", "n_v", "sr_star"]
        assert [row[0] for row in rows] == [1.0, 2.0]
        # the row of the configured n_t (1 in FAST_SEARCH) is the main search
        assert rows[0][3] == json.loads((out / "path.json").read_text())["sr_star"]

    @pytest.mark.parametrize("sweep", ["0", "-1"])
    def test_sweep_below_one_exits_2(self, solo_ais, tmp_path, capsys, sweep):
        scenario = ingest(solo_ais, tmp_path / "ing")
        code = run(
            "safest-path", "--scenario", scenario, "--ownship", "111000009",
            "--time", "0", "--output", tmp_path / "path", "--sweep-nt", sweep,
            *FAST_SEARCH,
        )
        assert code == 2
        assert "at least 1" in json.loads(capsys.readouterr().err)["message"]

    def test_missing_time_exits_2(self, solo_ais, tmp_path, capsys):
        scenario = ingest(solo_ais, tmp_path / "ing")
        code = run(
            "safest-path", "--scenario", scenario, "--ownship", "111000009",
            "--output", tmp_path / "p",
        )
        assert code == 2
        assert "time" in json.loads(capsys.readouterr().err)["message"]


class TestConfigHandling:
    def test_config_file_supplies_paths_and_params(self, head_on_ais, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        config = {
            "paths": {"scenario": str(scenario), "output": str(tmp_path / "run")},
            "ownship": "111000001",
            "window": [0, 60],
            "search": {"n_t": 1, "n_alpha": 3, "n_v": 1, "horizon_T": 120},
            "risk": {"horizon_T": 120, "horizon_step": 60},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run("score", "--config", cfg) == 0
        _, header, rows = read_csv(tmp_path / "run" / "risk_series.csv")
        assert len(rows) == 7

    def test_set_overrides_config(self, head_on_ais, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        config = {
            "paths": {"scenario": str(scenario), "output": str(tmp_path / "run")},
            "ownship": "111000001",
            "window": [0, 60],
            "search": {"n_t": 1, "n_alpha": 3, "n_v": 1, "horizon_T": 120},
            "risk": {"horizon_T": 120, "horizon_step": 60},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run("score", "--config", cfg, "--set", "window=[0,30]") == 0
        _, _, rows = read_csv(tmp_path / "run" / "risk_series.csv")
        assert len(rows) == 4

    def test_unknown_section_key_exits_2(self, head_on_ais, tmp_path, capsys):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        code = run(
            "score", "--scenario", scenario, "--ownship", "111000001",
            "--output", tmp_path / "run", "--set", "risk.nonsense=1",
        )
        assert code == 2
        assert "nonsense" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize(
        "key", ["score.kappa", "score.f50", "risk.risk_clamp_eps", "risk.obstacle_spacing"]
    )
    def test_removed_key_exits_2(self, head_on_ais, tmp_path, capsys, key):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        code = run(
            "score", "--scenario", scenario, "--ownship", "111000001",
            "--output", tmp_path / "run", *FAST_SEARCH, "--set", f"{key}=0.1",
        )
        assert code == 2
        assert key.split(".")[1] in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("domain.minor_factor=NaN", "minor_factor must be finite"),
            ("risk.kappa=Infinity", "kappa must be finite"),
            ("search.n_t=1.5", "n_t must be an integer"),
        ],
    )
    def test_bad_parameter_value_exits_2(self, head_on_ais, tmp_path, capsys, setting, message):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        code = run(
            "safest-path", "--scenario", scenario, "--ownship", "111000001",
            "--time", "0", "--output", tmp_path / "path", *FAST_SEARCH, "--set", setting,
        )
        assert code == 2
        assert message in json.loads(capsys.readouterr().err)["message"]

    def test_bad_config_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert run("ingest", "--config", cfg, "--output", tmp_path / "o") == 2
        assert "JSON" in json.loads(capsys.readouterr().err)["message"]

    def test_manifest_echoes_parameters(self, head_on_ais, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        out = tmp_path / "run"
        assert run(
            "score", "--scenario", scenario, "--ownship", "111000001",
            "--output", out, *FAST_SEARCH, "--set", "risk.kappa=12",
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["risk"]["kappa"] == 12
        assert manifest["parameters"]["search"]["n_t"] == 1
