"""End-to-end tests of the command-line pipeline."""

import base64
import csv
import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from seamanship.cli import main
from seamanship.geometry import VesselState, VesselTrack, VesselType
from seamanship.ingest import TRACK_ARRAYS, Scenario, sidecar_path
from seamanship.planner import KinodynamicParams, step_kinodynamics
from seamanship.risk import ObstacleSet, RiskParams
from seamanship.scoring import ScoreParams, score_series

from .test_ingest import inline_arrays, lay_out

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


def run_python(*argv):
    """``python *argv`` in a subprocess that imports this checkout's
    package."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    return subprocess.run(
        [sys.executable, *map(str, argv)], env=env, capture_output=True, text=True, timeout=120,
    )


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
        assert manifest["outputs"] == ["scenario.f64", "scenario.json", "summary.json"]

    def test_duration_of_vessels_millennia_apart(self, tmp_path):
        # the union grid of these tracks would hold 2.2e10 times (165 GiB)
        late = (datetime(9023, 9, 7, 6) - datetime(2023, 9, 7, 6)).total_seconds()
        later = vessel_rows("111000002", 55.03, 180.0, n=2)
        for k, row in enumerate(later):
            row[0] = stamp(late + 60.0 * k)
        ais = write_ais(tmp_path / "apart.csv", vessel_rows("111000001", 55.0, 0.0, n=2) + later)
        out = tmp_path / "run"
        ingest(ais, out)
        assert json.loads((out / "summary.json").read_text())["duration"] == late + 60.0

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

    @pytest.mark.parametrize(
        "where, value, named",
        [
            ([], [1, 2], "root is not a JSON object"),
            (["features"], [3], "feature 0: not a JSON object"),
            (["features", 0, "properties"], [1], "feature 0: properties is not a JSON object"),
            (["features", 0, "geometry", "coordinates"], [5],
             "feature 0: Polygon coordinates are not rings"),
            (["features", 0, "geometry", "coordinates"], [[[12]]],
             "feature 0: Polygon coordinates are not rings"),
            (["features", 0, "geometry", "coordinates"], [[[10**400, 55.0]] * 4],
             "feature 0: Polygon coordinates are not rings"),
            (["features", 0, "geometry", "coordinates"], [[[math.nan, 55.0]] * 4],
             "non-finite point in projected coordinates"),
            (["features", 0, "properties", "depth"], [1], "feature 0: depth [1] is not a number"),
            (["features", 0, "properties", "depth"], "deep",
             "feature 0: depth 'deep' is not a number"),
            # a bool would read as a depth of 1 or 0 m, an obstacle either way
            (["features", 0, "properties", "depth"], True, "feature 0: depth True is not a number"),
            (["features", 0, "properties", "depth"], False,
             "feature 0: depth False is not a number"),
        ],
    )
    def test_malformed_chart_exits_2_naming_chart(
        self, head_on_ais, chart_file, tmp_path, capsys, where, value, named
    ):
        # the chart file's document with the item at ``where`` replaced by ``value``
        keys = ["root", *where]
        holder = doc = {"root": json.loads(chart_file.read_text(encoding="utf-8"))}
        for key in keys[:-1]:
            holder = holder[key]
        holder[keys[-1]] = value
        chart_file.write_text(json.dumps(doc["root"]), encoding="utf-8")
        capsys.readouterr()
        code = run("ingest", "--ais", head_on_ais, "--chart", chart_file, "--output", tmp_path / "o")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith(f"{chart_file}: {named}"), err
        assert err["detail"]["path"] == str(chart_file)

    def test_spacing_too_small_for_the_chart_exits_2_naming_chart(
        self, head_on_ais, chart_file, tmp_path, capsys
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                "ingest", "--ais", head_on_ais, "--chart", chart_file,
                "--output", tmp_path / "o", "--set", "ingest.obstacle_spacing=1e-300",
            )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["detail"]["path"] == str(chart_file)
        assert err["message"].startswith(f"{chart_file}: spacing 1e-300 gives"), err

    def test_spacing_over_the_point_budget_exits_2_naming_chart(
        self, head_on_ais, chart_file, tmp_path, capsys
    ):
        # 7e10 boundary points on the one-square chart, over 1 TB as float64
        # pairs; refused before any is made
        tracemalloc.start()
        try:
            code = run(
                "ingest", "--ais", head_on_ais, "--chart", chart_file,
                "--output", tmp_path / "o", "--set", "ingest.obstacle_spacing=1e-8",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["detail"]["path"] == str(chart_file)
        assert err["message"].startswith(f"{chart_file}: spacing 1e-08 gives"), err
        assert "more than the 10,000,000 a chart may have" in err["message"]
        assert peak < 10_000_000

    @pytest.mark.parametrize("dt", ["5e-324", "1e-9", "1e-300"])
    def test_dt_over_the_grid_point_budget_exits_2_naming_vessel(
        self, head_on_ais, tmp_path, capsys, dt
    ):
        # 6 minutes of reports: at least 3.6e11 grid points a track, which
        # no memory holds; refused before any grid time is made
        tracemalloc.start()
        try:
            code = run(
                "ingest", "--ais", head_on_ais, "--output", tmp_path / "o",
                "--set", f"ingest.dt={dt}",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["detail"]["path"] == str(head_on_ais)
        assert err["message"].startswith(f"vessel '111000001': dt={float(dt)!r} puts "), err
        assert "more than the 10,000,000 a track may hold" in err["message"]
        assert peak < 10_000_000

    def test_empty_ais_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(COLUMNS) + "\n", encoding="utf-8")
        assert run("ingest", "--ais", empty, "--output", tmp_path / "run") == 2
        assert json.loads(capsys.readouterr().err)["code"] == 2

    def test_field_over_csv_limit_exits_2_naming_ais(self, tmp_path, capsys):
        ais = tmp_path / "long_field.csv"
        row = [stamp(0), "219000001", "55.0", "11.0", "10", "0", "0", "Cargo", "9" * 200_000]
        ais.write_text(",".join(COLUMNS) + "\n" + ",".join(row) + "\n", encoding="utf-8")
        assert run("ingest", "--ais", ais, "--output", tmp_path / "run") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2
        assert err["detail"]["path"] == str(ais)
        assert err["message"].startswith(f"{ais}: line 2: field larger than field limit"), err

    def test_rerun_is_byte_identical(self, head_on_ais, chart_file, tmp_path):
        a = ingest(head_on_ais, tmp_path / "r1", chart_file)
        b = ingest(head_on_ais, tmp_path / "r2", chart_file)
        assert a.read_bytes() == b.read_bytes()
        assert sidecar_path(a).read_bytes() == sidecar_path(b).read_bytes()
        m1 = (tmp_path / "r1" / "manifest.json").read_bytes()
        m2 = (tmp_path / "r2" / "manifest.json").read_bytes()
        assert m1 == m2


def _own(doc):
    return doc["tracks"]["111000001"]


def _other(doc):
    """The second track, whose values lie after the first's in each array
    field of the sidecar."""
    return doc["tracks"]["111000002"]


def rewrite_archive(archive, damage):
    """Apply ``damage`` to the archive whose header is at ``archive``.

    ``damage(doc)`` edits the header document, into which the sidecar's
    values are put first (:func:`inline_arrays`). Those values are then laid
    out into the sidecar again and its byte count and sha256 recorded in the
    header (:func:`lay_out`), unless ``damage`` returns sidecar bytes of its
    own, which are written as they are. A header left with no ``sidecar``
    entry, as an older schema wrote, is written without a sidecar.
    """
    sidecar = sidecar_path(archive)
    doc = inline_arrays(json.loads(archive.read_text(encoding="utf-8")), sidecar.read_bytes())
    data = damage(doc)
    if not isinstance(data, bytes):
        data = lay_out(doc) if "sidecar" in doc else None
    archive.write_text(json.dumps(doc), encoding="utf-8")
    if data is None:
        sidecar.unlink()
    else:
        sidecar.write_bytes(data)


def overwrite_sidecar_value(archive, index, change):
    """Replace float64 value ``index`` of the sidecar of the archive whose
    header is at ``archive`` by ``change`` of it, and record the new bytes'
    sha256 in the header, so that only that value is at fault."""
    sidecar = sidecar_path(archive)
    values = np.frombuffer(sidecar.read_bytes(), "<f8").copy()
    values[index] = change(values[index])
    data = values.tobytes()
    sidecar.write_bytes(data)
    header = json.loads(archive.read_text(encoding="utf-8"))
    header["sidecar"]["sha256"] = hashlib.sha256(data).hexdigest()
    archive.write_text(json.dumps(header), encoding="utf-8")


def _sidecar_damage(change, record=lambda entry: None):
    """Damage that writes ``change`` of the sidecar's bytes and applies
    ``record`` to the header's record of them."""

    def damage(doc):
        data = lay_out(doc)
        record(doc["sidecar"])
        return change(data)

    return damage


def _flip_first_byte(data):
    return bytes([data[0] ^ 1]) + data[1:]


def _encode_arrays(doc, encode):
    """Every array of the archive encoded by ``encode`` in the header, with
    no sidecar: each track's times in place of its grid range for schemas 1
    and 2, and the rings as ``polygons``."""
    del doc["sidecar"]
    for track in doc["tracks"].values():
        if doc["schema_version"] < 3:
            i0, n = track.pop("grid")
            track["times"] = encode(doc["dt"] * np.arange(i0, i0 + n))
        for name in ("north", "east", "speed", "heading"):
            track[name] = encode(track[name])
    obstacles = doc["obstacles"]
    obstacles["polygons"] = [encode(ring) for ring in obstacles["polygons"]]
    del obstacles["rings"]


def _as_schema_1(doc):
    """The archive as schema 1 wrote it: arrays as lists of numbers."""
    doc["schema_version"] = 1
    _encode_arrays(doc, np.ndarray.tolist)


def _as_schema_2(doc):
    """The archive as schema 2 wrote it: every array, times included, as
    base64 text of its little-endian float64 bytes."""
    doc["schema_version"] = 2
    _encode_arrays(doc, lambda a: base64.b64encode(a.astype("<f8").tobytes()).decode("ascii"))


def _as_schema_3(doc):
    """The archive as schema 3 wrote it: each track's grid range, and every
    other array as hex text of its little-endian float64 bytes."""
    doc["schema_version"] = 3
    _encode_arrays(doc, lambda a: a.astype("<f8").tobytes().hex())


def _regrid(change):
    """Damage that replaces the grid range [i0, n] by ``change(i0, n)``."""

    def damage(doc):
        _own(doc)["grid"] = change(*_own(doc)["grid"])

    return damage


def _revalue(track, name, change):
    """Damage that replaces array ``name`` of ``track(doc)`` by ``change``
    of its values."""

    def damage(doc):
        track(doc)[name] = change(track(doc)[name])

    return damage


def _recount_ring(change):
    """Damage that replaces the first ring's point count n by ``change(n)``."""

    def damage(doc):
        rings = doc["obstacles"]["rings"]
        rings[0] = change(rings[0])

    return damage


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
        shutil.copy(sidecar_path(scenario), sidecar_path(copy))
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

    def test_hull_too_short_for_its_domain_exits_2_naming_archive(self, tmp_path, capsys):
        # a 1e-100 m hull's domain terms underflow, so the domain check
        # refuses it once another vessel lies at its position
        times, zeros = 10.0 * np.arange(3), np.zeros(3)
        tracks = {
            tid: VesselTrack(tid, times, zeros, zeros, zeros, zeros, length)
            for tid, length in (("a", 1e-100), ("b", 100.0))
        }
        archive = tmp_path / "tiny.json"
        Scenario((55.0, 11.0), 0.0, 10.0, tracks, ObstacleSet([])).save(archive)
        assert run("fit-speed-model", "--scenario", archive, "--output", tmp_path / "o") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["detail"]["path"] == str(archive)
        assert err["message"] == (
            f"scenario archive {archive}: "
            "domain center offsets place the vessel on or outside its own domain"
        )
        assert run(
            "score", "--scenario", archive, "--ownship", "b", "--output", tmp_path / "s",
            *FAST_SEARCH,
        ) == 2

    def test_corrupt_archive_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "tracks": "oops"}', encoding="utf-8")
        assert run("fit-speed-model", "--scenario", bad, "--output", tmp_path / "o") == 2
        assert json.loads(capsys.readouterr().err)["code"] == 2

    @pytest.mark.parametrize(
        "damage, named",
        [
            pytest.param(
                _sidecar_damage(lambda data: data[:-8]),
                ["scenario.f64: holds ", "bytes, the header records "],
                id="sidecar_truncated",
            ),
            pytest.param(
                _sidecar_damage(lambda data: data[:-1]),
                ["scenario.f64: holds ", "bytes, the header records "],
                id="sidecar_partial_value",
            ),
            pytest.param(
                _sidecar_damage(lambda data: data + b"\0"),
                ["scenario.f64: holds ", "bytes, the header records "],
                id="sidecar_extra_byte",
            ),
            pytest.param(
                _sidecar_damage(_flip_first_byte),
                ["scenario.f64: sha256 ", "is not the", "that the header records"],
                id="sidecar_digest_mismatch",
            ),
            pytest.param(
                _regrid(lambda i0, n: [i0, n + 1]),
                ["scenario.f64: the header's track grid ranges and ring point counts call for"],
                id="header_track_count_disagrees",
            ),
            pytest.param(
                _recount_ring(lambda n: n + 1),
                ["scenario.f64: the header's track grid ranges and ring point counts call for"],
                id="header_ring_count_disagrees",
            ),
            pytest.param(
                _revalue(_other, "east", lambda values: values[:-1]),
                ["scenario.f64: the header's track grid ranges and ring point counts call for"],
                id="short_east",
            ),
            pytest.param(
                _regrid(lambda i0, n: [i0, 10**12]),
                ["scenario.f64: the header's track grid ranges and ring point counts call for"],
                id="grid_huge_count",
            ),
            pytest.param(
                _regrid(lambda i0, n: [2**63 - 1, n]),
                ["track '111000001' grid: ", "too large for int64"],
                id="grid_past_int64",
            ),
            pytest.param(
                _recount_ring(lambda n: True),
                ["obstacle ring 0 point count: True is not a count"],
                id="ring_count_true",
            ),
            pytest.param(
                _recount_ring(float),
                ["obstacle ring 0 point count: 5.0 is not a count"],
                id="ring_count_float",
            ),
            pytest.param(
                _recount_ring(lambda n: -n),
                ["obstacle ring 0 point count: -5 is not a count"],
                id="ring_count_negative",
            ),
            pytest.param(
                _sidecar_damage(lambda data: data, lambda entry: entry.clear()),
                ["sidecar bytes: missing"],
                id="sidecar_bytes_missing",
            ),
            pytest.param(
                _sidecar_damage(lambda data: data, lambda entry: entry.update(bytes=True)),
                ["sidecar bytes: True is not a count"],
                id="sidecar_bytes_true",
            ),
            pytest.param(
                _sidecar_damage(lambda data: data, lambda entry: entry.update(bytes="8")),
                ["sidecar bytes: '8' is not a count"],
                id="sidecar_bytes_text",
            ),
            pytest.param(
                lambda doc: _own(doc).pop("grid"),
                ["track '111000001' grid: ", "missing"],
                id="grid_missing",
            ),
            pytest.param(
                _regrid(lambda i0, n: [float(i0), n]),
                ["track '111000001' grid: ", "two integers"],
                id="grid_float",
            ),
            pytest.param(
                _regrid(lambda i0, n: [i0, True]),
                ["track '111000001' grid: ", "two integers"],
                id="grid_true",
            ),
            pytest.param(
                _regrid(lambda i0, n: f"{i0},{n}"),
                ["track '111000001' grid: ", "two integers"],
                id="grid_text",
            ),
            pytest.param(
                _regrid(lambda i0, n: [i0, 0]),
                ["track '111000001' grid: ", "count 0 is not positive"],
                id="grid_zero_count",
            ),
            pytest.param(
                _regrid(lambda i0, n: [i0, -n]),
                ["track '111000001' grid: ", "is not positive"],
                id="grid_negative_count",
            ),
            pytest.param(
                _regrid(lambda i0, n: [10**30, n]),
                ["track '111000001' grid: ", "too large"],
                id="grid_overflow",
            ),
            pytest.param(
                lambda doc: _own(doc).pop("vessel_type"),
                ["track '111000001' vessel_type: ", "missing"],
                id="missing_key",
            ),
            pytest.param(
                lambda doc: _own(doc).update(length="abc"),
                ["track '111000001' length: ", "could not convert string to float: 'abc'"],
                id="bad_scalar",
            ),
            pytest.param(
                lambda doc: _own(doc).update(vessel_type="Carg0"),
                ["track '111000001' vessel_type: ", "'Carg0' is not a valid VesselType"],
                id="unknown_vessel_type",
            ),
            pytest.param(
                lambda doc: _own(doc).update(vessel_type=5),
                ["track '111000001' vessel_type: ", "5 is not a valid VesselType"],
                id="numeric_vessel_type",
            ),
            pytest.param(
                lambda doc: doc.update(dt=-10.0), ["dt -10.0 is not a positive"], id="negative_dt"
            ),
            pytest.param(lambda doc: doc.update(dt=True), ["dt: True is not a number"], id="dt_true"),
            pytest.param(lambda doc: doc.update(dt="10"), ["dt: '10' is not a number"], id="dt_text"),
            pytest.param(
                lambda doc: doc.update(epoch=True), ["epoch: True is not a number"], id="epoch_true"
            ),
            pytest.param(
                lambda doc: doc.update(origin=["55", doc["origin"][1]]),
                ["origin: '55' is not a number"],
                id="origin_text_latitude",
            ),
            pytest.param(
                lambda doc: doc.update(origin=[doc["origin"][0], True]),
                ["origin: True is not a number"],
                id="origin_true_longitude",
            ),
            pytest.param(
                lambda doc: doc.update(origin=doc["origin"][:1]),
                ["origin: ", "is not [lat, lon], two numbers"],
                id="origin_one_number",
            ),
            pytest.param(
                lambda doc: doc["obstacles"].update(spacing="50"),
                ["obstacle spacing: '50' is not a number"],
                id="spacing_text",
            ),
            pytest.param(
                _revalue(_own, "north", lambda values: np.where(np.arange(values.size) == 1, np.nan, values)),
                ["track '111000001': ", "non-finite north"],
                id="stored_nan",
            ),
            pytest.param(
                lambda doc: _own(doc).update(length=True),
                ["track '111000001' length: ", "True is not a number"],
                id="length_true",
            ),
            pytest.param(
                lambda doc: _own(doc).update(length="120"),
                ["track '111000001' length: ", "'120' is not a number"],
                id="length_numeric_text",
            ),
            pytest.param(
                lambda doc: doc["obstacles"].update(spacing=math.inf),
                ["spacing must be positive and finite, got inf"],
                id="spacing_infinity",
            ),
            pytest.param(
                lambda doc: doc["obstacles"].update(spacing=math.nan),
                ["spacing must be positive and finite, got nan"],
                id="spacing_nan",
            ),
            pytest.param(
                _revalue(_other, "speed", lambda values: -values),
                ["track '111000002': negative speed"],
                id="negative_speed",
            ),
            pytest.param(
                _revalue(_other, "north", lambda values: np.append(values[:-1], np.inf)),
                ["track '111000002': non-finite north"],
                id="later_track_infinite_north",
            ),
            pytest.param(
                _regrid(lambda i0, n: [2**60, n]),
                ["track '111000001': times not strictly increasing"],
                id="repeated_times",
            ),
            pytest.param(_as_schema_1, ["seamanship ingest"], id="schema_1"),
            pytest.param(_as_schema_2, ["seamanship ingest"], id="schema_2"),
            pytest.param(_as_schema_3, ["schema 3 (expected 4)", "seamanship ingest"], id="schema_3"),
            pytest.param(
                lambda doc: doc.update(schema_version=4.0),
                ["schema 4.0 (expected 4)", "seamanship ingest"],
                id="schema_float",
            ),
            pytest.param(
                lambda doc: doc.update(schema_version="4"),
                ["schema '4' (expected 4)", "seamanship ingest"],
                id="schema_text",
            ),
            pytest.param(
                lambda doc: doc.pop("schema_version"),
                ["schema None (expected 4)", "seamanship ingest"],
                id="schema_missing",
            ),
        ],
    )
    def test_undecodable_archive_exits_2(
        self, head_on_ais, chart_file, tmp_path, capsys, damage, named
    ):
        archive = ingest(head_on_ais, tmp_path / "ing", chart_file)
        rewrite_archive(archive, damage)
        code = run(
            "score", "--scenario", archive, "--ownship", "111000001",
            "--output", tmp_path / "o", *FAST_SEARCH,
        )
        assert code == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith(f"bad scenario archive {archive}: "), message
        assert all(part in message for part in named), message

    def test_huge_grid_count_allocates_nothing(self, head_on_ais, tmp_path, capsys):
        """A grid count of 10**12 points, 8 TB of times, is refused against
        the sidecar's size before any track's times are built."""
        archive = ingest(head_on_ais, tmp_path / "ing")
        rewrite_archive(archive, _regrid(lambda i0, n: [i0, 10**12]))
        tracemalloc.start()
        try:
            code = run("fit-speed-model", "--scenario", archive, "--output", tmp_path / "o")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith(
            f"bad scenario archive {archive}: {sidecar_path(archive)}: the header's track grid "
            "ranges and ring point counts call for "
        ), message
        assert peak < 10_000_000

    @pytest.mark.parametrize("fault", ["missing", "other_archive"])
    def test_missing_or_foreign_sidecar_exits_2_naming_it(
        self, head_on_ais, solo_ais, tmp_path, capsys, fault
    ):
        archive = ingest(head_on_ais, tmp_path / "ing")
        sidecar = sidecar_path(archive)
        if fault == "missing":
            sidecar.unlink()
            named = f"{sidecar}: No such file or directory"
        else:
            shutil.copy(sidecar_path(ingest(solo_ais, tmp_path / "solo")), sidecar)
            named = f"{sidecar}: holds {sidecar.stat().st_size} bytes, the header records "
        code = run("fit-speed-model", "--scenario", archive, "--output", tmp_path / "o")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith(f"bad scenario archive {archive}: {named}"), err
        assert err["detail"]["path"] == str(archive)

    @pytest.mark.parametrize("track", [0, 1], ids=["first_track", "last_track"])
    @pytest.mark.parametrize("field", TRACK_ARRAYS)
    def test_sidecar_value_is_read_into_its_track_and_field(
        self, head_on_ais, tmp_path, capsys, field, track
    ):
        """A NaN over the last value of one track's run of one array field,
        at the offset the documented layout gives it (every track's
        ``north`` in header order, then ``east``, ``speed``, ``heading``),
        is refused naming that track and field."""
        archive = ingest(head_on_ais, tmp_path / "ing")
        header = json.loads(archive.read_text(encoding="utf-8"))
        ids = list(header["tracks"])
        counts = [header["tracks"][tid]["grid"][1] for tid in ids]
        index = TRACK_ARRAYS.index(field) * sum(counts) + sum(counts[: track + 1]) - 1
        overwrite_sidecar_value(archive, index, lambda value: math.nan)
        code = run("fit-speed-model", "--scenario", archive, "--output", tmp_path / "o")
        assert code == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == f"bad scenario archive {archive}: track {ids[track]!r}: non-finite {field}"

    @pytest.mark.parametrize("coordinate", [0, 1])
    @pytest.mark.parametrize("ring", [0, 1], ids=["first_ring", "last_ring"])
    def test_sidecar_point_is_read_into_its_ring(
        self, head_on_ais, tmp_path, capsys, ring, coordinate
    ):
        """One coordinate of a ring's closing point moved, at the offset the
        documented layout gives it (each ring's points as (x, y) pairs after
        the track arrays, ring by ring, as many as the header counts), opens
        that ring and no other."""
        squares = [
            [[11.006, 55.014], [11.008, 55.014], [11.008, 55.016], [11.006, 55.016], [11.006, 55.014]],
            [[11.010, 55.014], [11.012, 55.014], [11.011, 55.016], [11.010, 55.014]],
        ]
        chart = tmp_path / "two_rings.json"
        chart.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [square]},
             "properties": {"depth": 4.0}}
            for square in squares
        ]}), encoding="utf-8")
        archive = ingest(head_on_ais, tmp_path / "ing", chart)
        header = json.loads(archive.read_text(encoding="utf-8"))
        points = header["obstacles"]["rings"]
        assert points == [5, 4]
        n = sum(entry["grid"][1] for entry in header["tracks"].values())
        index = 4 * n + 2 * (sum(points[: ring + 1]) - 1) + coordinate
        overwrite_sidecar_value(archive, index, lambda value: value + 1.0)
        code = run("fit-speed-model", "--scenario", archive, "--output", tmp_path / "o")
        assert code == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == f"bad scenario archive {archive}: polygon {ring} is not closed"

    @pytest.mark.parametrize(
        "damage, named",
        [
            pytest.param(_as_schema_3, ["seamanship ingest"], id="schema_3"),
            pytest.param(
                _sidecar_damage(_flip_first_byte),
                ["scenario.f64: sha256 ", "that the header records"],
                id="sidecar_digest_mismatch",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["safest-path", "--ownship", "111000001", "--time", "0", *FAST_SEARCH],
            ["fit-speed-model"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_loading_command_refuses_a_bad_archive(
        self, head_on_ais, tmp_path, capsys, damage, named, command
    ):
        archive = ingest(head_on_ais, tmp_path / "ing")
        rewrite_archive(archive, damage)
        code = run(command[0], "--scenario", archive, "--output", tmp_path / "o", *command[1:])
        assert code == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert "bad scenario archive" in message
        assert all(part in message for part in named), message


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

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("vessel_type", "Carg0", "'Carg0' is not a valid VesselType"),
            ("vessel_type", "cargo", "'cargo' is not a valid VesselType"),
            ("degenerate", "false", "degenerate must be true or false, got 'false'"),
            ("degenerate", 0, "degenerate must be true or false, got 0"),
            ("bandwidth", math.inf, "bandwidth and support must be finite"),
            ("support", [-math.inf, 0.05], "bandwidth and support must be finite"),
            ("samples", [math.nan], "samples must be finite"),
            ("bandwidth", 10**400, "int too large to convert to float"),
            # each field read as an archive header's fields are
            ("support", [], "support: [] is not [lo, hi], two numbers"),
            ("support", [1.0], "support: [1.0] is not [lo, hi], two numbers"),
            ("support", [0, 1, 2], "support: [0, 1, 2] is not [lo, hi], two numbers"),
            ("support", ["0", "1"], "support: '0' is not a number"),
            ("support", [False, True], "support: False is not a number"),
            ("bandwidth", True, "bandwidth: True is not a number"),
            ("bandwidth", "0.01", "bandwidth: '0.01' is not a number"),
            ("samples", [[0.01, 0.02]], "samples: [0.01, 0.02] is not a number"),
            ("samples", ["0.01"], "samples: '0.01' is not a number"),
            ("samples", [True], "samples: True is not a number"),
            ("schema_version", True, "schema_version: True is not a count"),
        ],
    )
    def test_bad_model_file_exits_2(self, head_on_ais, tmp_path, capsys, field, value, named):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        fit = tmp_path / "fit"
        assert run(
            "fit-speed-model", "--scenario", scenario, "--output", fit,
            "--set", "speed.min_samples=1",
        ) == 0
        model = fit / "model_cargo.json"
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc[field] = value
        model.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = run(
            "score", "--scenario", scenario, "--ownship", "111000001",
            "--output", tmp_path / "score", "--model", model, *FAST_SEARCH,
        )
        assert code == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith(f"bad speed model {model}: ") and named in message, message

    def test_scoring_refusal_exits_2(self, head_on_ais, tmp_path, capsys, monkeypatch):
        """A series that grading refuses exits 2, as one that the risk
        series or the floor refuses does, not 3."""

        def refuse(*args, **kwargs):
            raise ValueError("best-achievable risk exceeds taken risk")

        monkeypatch.setattr("seamanship.cli.score_series", refuse)
        scenario = ingest(head_on_ais, tmp_path / "ing")
        capsys.readouterr()
        code = run(
            "score", "--scenario", scenario, "--ownship", "111000001",
            "--output", tmp_path / "score", *FAST_SEARCH,
        )
        assert code == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == "best-achievable risk exceeds taken risk"

    def test_window_flags_clip_series(self, head_on_ais, tmp_path):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        out = self.score(
            scenario, tmp_path / "score", "--t-start", "60", "--t-end", "120"
        )
        _, header, rows = read_csv(out / "risk_series.csv")
        times = [row[header.index("time")] for row in rows]
        assert times == [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0]

    @pytest.mark.parametrize("command", ["score", "safest-path"])
    def test_unknown_ownship_exits_2(self, head_on_ais, tmp_path, capsys, command):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        argv = [command, "--scenario", scenario, "--ownship", "999", "--output", tmp_path / "o"]
        if command == "safest-path":
            argv += ["--time", "0"]
        assert run(*argv) == 2
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
            ('risk.f50="x"', "f50 must be a real number"),
            pytest.param(
                "risk.kappa=" + "9" * 400, "kappa must be finite", id="risk.kappa=400-digits"
            ),
            pytest.param(
                "risk.kappa=" + "9" * 5000,
                "kappa must be a real number",
                id="risk.kappa=5000-digits",
            ),
            ("risk.channel_corridor=-5", "channel_corridor must be positive"),
            ("risk.channel_adjust=NaN", "channel_adjust must be finite"),
            ("risk.grounding_horizon_max=Infinity", "grounding_horizon_max must be finite"),
            ('risk.channel_adjust="false"', "channel_adjust must be a bool"),
            ("risk.channel_adjust=0", "channel_adjust must be a bool"),
            ("risk.channel_adjust=1", "channel_adjust must be a bool"),
            ('risk.grounding_horizon_max="false"', "grounding_horizon_max must be a bool"),
            ("risk.grounding_horizon_max=0", "grounding_horizon_max must be a bool"),
            ("risk.grounding_horizon_max=1", "grounding_horizon_max must be a bool"),
            # FAST_SEARCH's 120 s horizon in 1e-9 s steps: 1.2e11 offsets
            ("risk.horizon_step=1e-9", "horizon_step 1e-09 divides horizon_T 120 into more"),
            ("risk.horizon_step=1e-300", "horizon_step 1e-300 divides horizon_T 120 into more"),
            # FAST_SEARCH's one speed command
            ("search.n_alpha=1025", "n_alpha x n_v = 1025 x 1 actions, more than the 1,024"),
            ("search.n_alpha=100000000", "n_alpha x n_v = 100000000 x 1 actions, more than"),
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

    def test_unbounded_beam_exits_2(self, head_on_ais, tmp_path, capsys):
        # the default grid (n_t 2, 13 x 3 actions): in open water every
        # child ties, so each level of a wider beam keeps them all
        scenario = ingest(head_on_ais, tmp_path / "ing")
        code = run(
            "safest-path", "--scenario", scenario, "--ownship", "111000001", "--time", "0",
            "--output", tmp_path / "path", "--set", "search.beam_width=100000000",
        )
        assert code == 2
        assert ("beam_width x n_alpha x n_v = 100000000 x 13 x 3 children, more than the 65,536"
                in json.loads(capsys.readouterr().err)["message"])

    @pytest.mark.parametrize(
        "command, omitted, setting, message",
        [
            ("safest-path", "--time", ["--set", 'time="abc"'], "time must be a finite number"),
            ("safest-path", "--time", ["--set", "time=[1]"], "time must be a finite number"),
            ("safest-path", "--time", ["--set", "time=true"], "time must be a finite number"),
            ("safest-path", "--time", ["--set", "time=1e400"], "time must be a finite number"),
            ("score", None, ["--set", 'paths="x"'], "'paths' must be an object"),
            ("score", None, ["--set", 'window=["a",100]'], "window.t_start must be a finite"),
            ("score", None, ["--set", "window=[0,true]"], "window.t_end must be a finite"),
            ("score", None, ["--set", "window=[0,1e400]"], "window.t_end must be a finite"),
            ("score", None, ["--t-start=-inf", "--t-end", "inf"], "--t-start must be a finite"),
            ("score", None, ["--t-end", "inf"], "--t-end must be a finite"),
            ("ingest", "--ais", ["--set", 'paths.ais=["a.csv"]'], "paths.ais must be a file name"),
            ("score", "--output", ["--set", "paths.output=5"], "paths.output must be a non-empty"),
            ("score", "--scenario", ["--set", "paths.scenarios=5"], "paths.scenarios must be a list"),
            ("score", None, ["--set", 'paths.models="m.json"'], "paths.models must be a list"),
            ("score", "--ownship", ["--set", "ownship=111000001"], "ownship must be a non-empty"),
            ("ingest", None, ["--set", "schema.timestamp_formats=[5]"], "timestamp_formats must be"),
            ("ingest", None, ["--set", 'schema.timestamp_formats="%Y"'], "timestamp_formats must"),
            ("score", None, ["--set", "score.consistency_tol=-0.5"],
             "consistency_tol must not be negative, got -0.5"),
            ("score", None, ["--set", "score.sr_max_eps=-1e-9"],
             "sr_max_eps must not be negative, got -1e-09"),
        ],
    )
    def test_malformed_run_setting_exits_2(
        self, head_on_ais, tmp_path, capsys, command, omitted, setting, message
    ):
        flags = {"--output": tmp_path / "o"}
        if command == "ingest":
            flags["--ais"] = head_on_ais
        else:
            flags["--scenario"] = ingest(head_on_ais, tmp_path / "ing")
            flags["--ownship"] = "111000001"
        if command == "safest-path":
            flags["--time"] = "0"
        flags.pop(omitted, None)
        argv = [command, *(x for pair in flags.items() for x in pair), *setting]
        if command != "ingest":
            argv += FAST_SEARCH
        capsys.readouterr()
        assert run(*argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and message in err["message"], err

    def test_non_finite_depth_key_exits_2(self, head_on_ais, chart_file, tmp_path, capsys):
        # a NaN key matches no depth attribute, so every polygon would be an obstacle
        code = run(
            "ingest", "--ais", head_on_ais, "--chart", chart_file,
            "--output", tmp_path / "o", "--set", "ingest.depth_key=NaN",
        )
        assert code == 2
        assert "depth_key must be finite" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("v_max", ["1e308", "1e200"])
    @pytest.mark.parametrize("command", ["score", "safest-path"])
    def test_overflowing_domain_exits_2(self, head_on_ais, tmp_path, command, v_max):
        """A speed command so large that the domain axes overflow gives NaN
        risks, which are refused instead of scored. This runs in a
        subprocess because the overflow warns, and the suite turns
        RuntimeWarning into an error."""
        scenario = ingest(head_on_ais, tmp_path / "ing")
        argv = [
            command, "--scenario", str(scenario), "--ownship", "111000001",
            "--output", str(tmp_path / "o"), *FAST_SEARCH, "--set", "search.n_v=2",
            "--set", f"kinodynamics.v_max={v_max}",
        ]
        if command == "safest-path":
            argv += ["--time", "60"]
        proc = run_python("-m", "seamanship.cli", *argv)
        assert proc.returncode == 2, proc.stderr[-2000:]
        message = json.loads(proc.stderr.strip().splitlines()[-1])["message"]
        assert "collision risk #0 = nan" in message

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("ingest.depth_key=5", "depth_key must be a str"),
            ("schema.sog=5", "sog must be a str"),
        ],
    )
    def test_non_string_name_exits_2(
        self, head_on_ais, chart_file, tmp_path, capsys, setting, message
    ):
        # the number 5 names no attribute or column: every polygon would be
        # an obstacle, and every SOG would read as blank
        code = run(
            "ingest", "--ais", head_on_ais, "--chart", chart_file,
            "--output", tmp_path / "o", "--set", setting,
        )
        assert code == 2
        assert message in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("text, flag", [("false", False), ("true", True)])
    def test_json_boolean_flag_accepted(self, head_on_ais, tmp_path, text, flag):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        out = tmp_path / "path"
        assert run(
            "safest-path", "--scenario", scenario, "--ownship", "111000001",
            "--time", "0", "--output", out, *FAST_SEARCH,
            "--set", f"risk.channel_adjust={text}",
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["risk"]["channel_adjust"] is flag

    def test_bad_config_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert run("ingest", "--config", cfg, "--output", tmp_path / "o") == 2
        assert "JSON" in json.loads(capsys.readouterr().err)["message"]

    def test_config_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"risk": {"kappa": ' + "9" * 5000 + "}}", encoding="utf-8")
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


def _same_type_models(fit, tmp_path):
    cargo = fit / "model_cargo.json"
    return [cargo, shutil.copy(cargo, tmp_path / "other_cargo.json")]


def _same_stem_models(fit, tmp_path):
    models = []
    for sub, name in (("a", "model_cargo.json"), ("b", "model_tanker.json")):
        (tmp_path / sub).mkdir()
        models.append(shutil.copy(fit / name, tmp_path / sub / "m.json"))
    return models


def test_pipeline_runs_without_scipy(head_on_ais, chart_file, tmp_path):
    """Every command runs on numpy alone: in a process where importing
    scipy fails, ingest, fit-speed-model, score and safest-path each exit 0."""
    scenario, fit = tmp_path / "ing" / "scenario.json", tmp_path / "fit"
    commands = [
        ["ingest", "--ais", head_on_ais, "--chart", chart_file, "--output", tmp_path / "ing"],
        ["fit-speed-model", "--scenario", scenario, "--output", fit,
         "--set", "speed.min_samples=1"],
        ["score", "--scenario", scenario, "--ownship", "111000001", "--output",
         tmp_path / "score", "--model", fit / "model_cargo.json", *FAST_SEARCH],
        ["safest-path", "--scenario", scenario, "--ownship", "111000001", "--time", "60",
         "--output", tmp_path / "path", *FAST_SEARCH],
    ]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from seamanship.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    argv = json.dumps([[str(a) for a in command] for command in commands])
    proc = run_python("-c", script, argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0, 0], proc.stderr[-2000:]
    assert (tmp_path / "score" / "risk_series.csv").is_file()
    assert (tmp_path / "path" / "path.json").is_file()


class TestInputsNotDroppedSilently:
    """An input that would take no effect, or a speed setting a later stage
    cannot use, exits 2 with one JSON line naming the files or setting."""

    @pytest.mark.parametrize(
        "case",
        [_same_type_models, _same_stem_models,
         "speed.min_samples=0", "speed.grid_n=1", "speed.dcpa_threshold=-5"],
        ids=lambda case: getattr(case, "__name__", case),
    )
    def test_exits_2_naming_the_input(self, head_on_ais, tmp_path, capsys, case):
        scenario = ingest(head_on_ais, tmp_path / "ing")
        if isinstance(case, str):
            argv = ["fit-speed-model", "--scenario", scenario, "--set", case]
            named = [case.split("=")[0].split(".")[1]]
        else:
            fit = tmp_path / "fit"
            assert run(
                "fit-speed-model", "--scenario", scenario, "--output", fit,
                "--set", "speed.min_samples=1",
            ) == 0
            models = [str(m) for m in case(fit, tmp_path)]
            argv = ["score", "--scenario", scenario, "--ownship", "111000001", *FAST_SEARCH]
            argv += [arg for m in models for arg in ("--model", m)]
            named = models
        capsys.readouterr()
        assert run(*argv, "--output", tmp_path / "out") == 2
        (line,) = capsys.readouterr().err.splitlines()
        message = json.loads(line)["message"]
        assert all(name in message for name in named), message


def test_every_json_output_is_json_text(head_on_ais, chart_file, tmp_path):
    """Every JSON file that one run of each subcommand writes (archive
    header, speed models, summaries, grades, paths and manifests) is
    ``json_text`` of its own document: one text form for them all."""
    from seamanship.ingest import json_text

    assert json_text({"b": 1, "a": [0.5]}) == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'
    scenario, fit = tmp_path / "ing" / "scenario.json", tmp_path / "fit"
    commands = [
        ["ingest", "--ais", head_on_ais, "--chart", chart_file, "--output", tmp_path / "ing"],
        ["fit-speed-model", "--scenario", scenario, "--output", fit,
         "--set", "speed.min_samples=1"],
        ["score", "--scenario", scenario, "--ownship", "111000001", "--output",
         tmp_path / "score", "--model", fit / "model_cargo.json", *FAST_SEARCH],
        ["safest-path", "--scenario", scenario, "--ownship", "111000001", "--time", "60",
         "--output", tmp_path / "path", *FAST_SEARCH],
    ]
    for command in commands:
        assert run(*command) == 0
    written = sorted(tmp_path.glob("*/*.json"))
    assert {path.parent.name for path in written} == {"ing", "fit", "score", "path"}
    assert len(written) == 3 + len(VesselType) + 2 + 3 + 2
    for path in written:
        data = path.read_bytes()
        assert data == json_text(json.loads(data)).encode("utf-8"), path


def _digest_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_tool_names_the_graded_branches_no_step_takes(head_on_ais, tmp_path):
    """``tools/output_digests.py`` refuses a listing in which no score step
    is normalized or none falls back for want of headroom: such a listing
    would not move when the floor-aware grade does."""
    tool = _digest_tool()
    scenario = ingest(head_on_ais, tmp_path / "ing")
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(
            "score", "--scenario", scenario, "--ownship", "111000001", "--output", out,
            *FAST_SEARCH,
        ) == 0
        outputs += sorted(out.iterdir())

    def grade(name, **flags):
        gss = tmp_path / name / "gss.json"
        doc = json.loads(gss.read_text(encoding="utf-8"))
        doc["flags"].update(flags)
        gss.write_text(json.dumps(doc), encoding="utf-8")

    grade("a", normalized=0, no_headroom=0)
    grade("b", normalized=0, no_headroom=0)
    assert tool.ungraded(outputs) == ["normalized", "no_headroom"]
    grade("a", normalized=2)
    assert tool.ungraded(outputs) == ["no_headroom"]
    grade("b", no_headroom=1)
    assert tool.ungraded(outputs) == []
    # the baseline grade, which has no floor, does not count
    grade("b", no_headroom=0)
    baseline = tmp_path / "b" / "baseline_gss.json"
    doc = json.loads(baseline.read_text(encoding="utf-8"))
    doc["flags"]["no_headroom"] = 3
    baseline.write_text(json.dumps(doc), encoding="utf-8")
    assert tool.ungraded(outputs) == ["no_headroom"]


def test_digest_tool_flags_outputs_the_manifest_does_not_list(head_on_ais, tmp_path):
    """``tools/output_digests.py`` refuses an output directory holding a file
    that its manifest does not list, which the benchmark's rerun check would
    not digest; an ingest run's directory holds none."""
    tool = _digest_tool()
    out = tmp_path / "ing"
    ingest(head_on_ais, out)
    assert tool.unlisted(sorted(out.iterdir())) == []
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["outputs"].remove("scenario.f64")
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    (out / "stray.json").write_text("{}", encoding="utf-8")
    assert tool.unlisted(sorted(out.iterdir())) == [out / "scenario.f64", out / "stray.json"]
