"""Tests for AIS parsing, resampling, chart loading, and scenario archives."""

import csv
import json
import logging
import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from seamanship.geometry import KNOTS_TO_MPS, VesselType, project
from seamanship.ingest import (
    AisSchema,
    IngestParams,
    RawTrack,
    Scenario,
    build_scenario,
    load_chart,
    parse_ais,
    resample,
)

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


def write_ais(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows(rows)
    return path


def dma_time(seconds):
    base = datetime(2023, 9, 7, 6, 0, 0)
    return (base + timedelta(seconds=seconds)).strftime("%d/%m/%Y %H:%M:%S")


def simple_rows(mmsi="219000001", n=4, lat0=55.0, lon0=11.0, sog=10.0):
    rows = []
    for k in range(n):
        rows.append(
            [
                dma_time(20 * k),
                mmsi,
                f"{lat0 + 0.001 * k:.6f}",
                f"{lon0:.6f}",
                f"{sog}",
                "0.0",
                "0.0",
                "Cargo",
                "150",
            ]
        )
    return rows


class TestParseAis:
    def test_groups_rows_by_vessel(self, tmp_path):
        rows = simple_rows("219000001") + simple_rows("219000002", lat0=55.01)
        tracks, skipped = parse_ais(write_ais(tmp_path / "a.csv", rows))
        assert sorted(tracks) == ["219000001", "219000002"]
        assert skipped == 0
        track = tracks["219000001"]
        assert len(track.times) == 4
        assert track.vessel_type is VesselType.CARGO
        assert track.length == 150.0
        assert track.speed[0] == pytest.approx(10.0 * KNOTS_TO_MPS)

    def test_bad_rows_are_skipped_and_counted(self, tmp_path):
        rows = simple_rows(n=3)
        rows.append(["not a time", "219000001", "55.0", "11.0", "1", "0", "0", "", ""])
        rows.append([dma_time(90), "219000001", "999.0", "11.0", "1", "0", "0", "", ""])
        rows.append([dma_time(91), "", "55.0", "11.0", "1", "0", "0", "", ""])
        tracks, skipped = parse_ais(write_ais(tmp_path / "a.csv", rows))
        assert skipped == 3
        assert len(tracks["219000001"].times) == 3

    def test_duplicate_timestamp_keeps_first(self, tmp_path):
        rows = simple_rows(n=2)
        dup = list(rows[0])
        dup[2] = "60.0"
        rows.append(dup)
        tracks, _ = parse_ais(write_ais(tmp_path / "a.csv", rows))
        assert len(tracks["219000001"].times) == 2
        assert tracks["219000001"].lat[0] == 55.0

    def test_heading_511_falls_back_to_cog(self, tmp_path):
        rows = simple_rows(n=1)
        rows[0][5] = "45.0"
        rows[0][6] = "511"
        tracks, _ = parse_ais(write_ais(tmp_path / "a.csv", rows))
        assert tracks["219000001"].heading[0] == pytest.approx(math.radians(45.0))

    def test_missing_length_defaults_by_type(self, tmp_path):
        rows = simple_rows(n=1)
        rows[0][7] = "Tanker"
        rows[0][8] = ""
        tracks, _ = parse_ais(write_ais(tmp_path / "a.csv", rows))
        assert tracks["219000001"].length == 180.0
        assert tracks["219000001"].vessel_type is VesselType.TANKER

    @pytest.mark.parametrize(
        "column,value", [(4, "nan"), (4, "inf"), (5, "nan"), (6, "nan"), (6, "-inf")]
    )
    def test_non_finite_motion_field_is_skipped_and_counted(self, tmp_path, column, value):
        rows = simple_rows(n=3)
        rows[1][column] = value
        tracks, skipped = parse_ais(write_ais(tmp_path / "a.csv", rows))
        assert skipped == 1
        track = tracks["219000001"]
        assert len(track.times) == 2
        assert np.all(np.isfinite(track.speed)) and np.all(np.isfinite(track.heading))

    def test_infinite_length_defaults_by_type(self, tmp_path):
        rows = simple_rows(n=1)
        rows[0][8] = "inf"
        tracks, _ = parse_ais(write_ais(tmp_path / "a.csv", rows))
        assert tracks["219000001"].length == 150.0

    def test_unsorted_rows_are_ordered_by_time(self, tmp_path):
        rows = simple_rows(n=3)
        rows.reverse()
        tracks, _ = parse_ais(write_ais(tmp_path / "a.csv", rows))
        assert tracks["219000001"].lat == sorted(tracks["219000001"].lat)

    def test_iso_timestamps_accepted(self, tmp_path):
        rows = simple_rows(n=2)
        rows[0][0] = "2023-09-07T06:00:00+00:00"
        rows[1][0] = "2023-09-07T06:00:20+00:00"
        tracks, skipped = parse_ais(write_ais(tmp_path / "a.csv", rows))
        assert skipped == 0
        assert tracks["219000001"].times[1] - tracks["219000001"].times[0] == 20.0

    def test_missing_required_column_raises(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("MMSI,Latitude\n219,55.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing required columns"):
            parse_ais(path)

    def test_custom_schema(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(
            "ts,id,lat,lon\n2023-09-07T06:00:00,42,55.0,11.0\n"
            "2023-09-07T06:00:10,42,55.001,11.0\n",
            encoding="utf-8",
        )
        schema = AisSchema(timestamp="ts", mmsi="id", latitude="lat", longitude="lon")
        tracks, skipped = parse_ais(path, schema)
        assert skipped == 0
        assert list(tracks) == ["42"]


class TestResample:
    ORIGIN = (55.0, 11.0)

    def raw(self, times, lat, lon, speed=None, heading=None):
        n = len(times)
        return RawTrack(
            mmsi="42",
            times=list(times),
            lat=list(lat),
            lon=list(lon),
            speed=list(speed or [5.0] * n),
            heading=list(heading or [0.0] * n),
            vessel_type=VesselType.CARGO,
            length=150.0,
        )

    def test_linear_interpolation_onto_grid(self):
        raw = self.raw([0.0, 40.0], [55.0, 55.004], [11.0, 11.0])
        (seg,) = resample(raw, dt=10.0, origin=self.ORIGIN, epoch=0.0)
        assert np.array_equal(seg.times, [0.0, 10.0, 20.0, 30.0, 40.0])
        end = project(55.004, 11.0, self.ORIGIN).north
        assert np.allclose(seg.north, np.linspace(0.0, end, 5))
        assert np.allclose(seg.east, 0.0)

    def test_gap_splits_track_with_suffixes(self):
        raw = self.raw(
            [0.0, 30.0, 1000.0, 1030.0],
            [55.0, 55.001, 55.01, 55.011],
            [11.0] * 4,
        )
        segments = resample(raw, dt=10.0, origin=self.ORIGIN, epoch=0.0, max_gap=300.0)
        assert [seg.track_id for seg in segments] == ["42#0", "42#1"]
        assert segments[0].times[-1] == 30.0
        assert segments[1].times[0] == 1000.0

    def test_single_segment_keeps_plain_id(self):
        raw = self.raw([0.0, 40.0], [55.0, 55.004], [11.0, 11.0])
        (seg,) = resample(raw, dt=10.0, origin=self.ORIGIN, epoch=0.0)
        assert seg.track_id == "42"

    def test_segment_shorter_than_grid_is_dropped(self):
        raw = self.raw([0.0, 30.0, 1000.0, 1004.0], [55.0] * 4, [11.0] * 4)
        segments = resample(raw, dt=10.0, origin=self.ORIGIN, epoch=0.0)
        assert [seg.track_id for seg in segments] == ["42"]

    def test_heading_interpolates_across_north(self):
        raw = self.raw(
            [0.0, 20.0],
            [55.0, 55.002],
            [11.0, 11.0],
            heading=[math.radians(350.0), math.radians(10.0)],
        )
        (seg,) = resample(raw, dt=10.0, origin=self.ORIGIN, epoch=0.0)
        assert seg.heading[1] == pytest.approx(0.0, abs=1e-12)

    def test_grid_is_anchored_to_epoch_multiples(self):
        raw = self.raw([95.0, 160.0], [55.0, 55.004], [11.0, 11.0])
        (seg,) = resample(raw, dt=10.0, origin=self.ORIGIN, epoch=0.0)
        assert seg.times[0] == 100.0
        assert seg.times[-1] == 160.0

    def test_fewer_than_two_reports_gives_nothing(self):
        raw = self.raw([0.0], [55.0], [11.0])
        assert resample(raw, dt=10.0, origin=self.ORIGIN, epoch=0.0) == []


def square_feature(lat0, lon0, size_deg, depth=None, close=True):
    ring = [
        [lon0, lat0],
        [lon0 + size_deg, lat0],
        [lon0 + size_deg, lat0 + size_deg],
        [lon0, lat0 + size_deg],
    ]
    if close:
        ring.append(list(ring[0]))
    props = {} if depth is None else {"depth": depth}
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [ring]},
        "properties": props,
    }


class TestLoadChart:
    ORIGIN = (55.0, 11.0)

    def write(self, tmp_path, features):
        path = tmp_path / "chart.json"
        path.write_text(
            json.dumps({"type": "FeatureCollection", "features": features}),
            encoding="utf-8",
        )
        return path

    def test_depth_filter(self, tmp_path):
        features = [
            square_feature(55.0, 11.0, 0.002, depth=None),
            square_feature(55.1, 11.0, 0.002, depth=5.0),
            square_feature(55.2, 11.0, 0.002, depth=20.0),
        ]
        obstacles = load_chart(self.write(tmp_path, features), self.ORIGIN)
        assert len(obstacles.polygons) == 2

    def test_threshold_is_configurable(self, tmp_path):
        features = [square_feature(55.0, 11.0, 0.002, depth=20.0)]
        params = IngestParams(draught_threshold=25.0)
        obstacles = load_chart(self.write(tmp_path, features), self.ORIGIN, params)
        assert len(obstacles.polygons) == 1

    def test_unclosed_ring_closed_with_warning(self, tmp_path, caplog):
        features = [square_feature(55.0, 11.0, 0.002, close=False)]
        with caplog.at_level(logging.WARNING, logger="seamanship.ingest"):
            obstacles = load_chart(self.write(tmp_path, features), self.ORIGIN)
        assert "unclosed" in caplog.text
        (poly,) = obstacles.polygons
        assert np.array_equal(poly[0], poly[-1])

    def test_multipolygon_and_bare_geometry(self, tmp_path):
        shape = {
            "type": "MultiPolygon",
            "coordinates": [
                square_feature(55.0, 11.0, 0.002)["geometry"]["coordinates"],
                square_feature(55.1, 11.0, 0.002)["geometry"]["coordinates"],
            ],
        }
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(shape), encoding="utf-8")
        obstacles = load_chart(path, self.ORIGIN)
        assert len(obstacles.polygons) == 2

    def test_degenerate_ring_is_dropped(self, tmp_path):
        ring = [[11.0, 55.0], [11.0, 55.0], [11.0, 55.0]]
        features = [
            {
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {},
            }
        ]
        obstacles = load_chart(self.write(tmp_path, features), self.ORIGIN)
        assert obstacles.is_empty


class TestScenario:
    def build(self, tmp_path):
        rows = simple_rows("219000001") + simple_rows("219000002", lat0=55.01)
        ais = write_ais(tmp_path / "a.csv", rows)
        chart = tmp_path / "chart.json"
        chart.write_text(
            json.dumps(
                {
                    "type": "FeatureCollection",
                    "features": [square_feature(55.001, 11.002, 0.001, depth=3.0)],
                }
            ),
            encoding="utf-8",
        )
        return build_scenario(ais, chart)

    def test_origin_is_report_centroid(self, tmp_path):
        scenario = self.build(tmp_path)
        lat_mean = (55.0 + 55.001 + 55.002 + 55.003 + 55.01 + 55.011 + 55.012 + 55.013) / 8
        assert scenario.origin[0] == pytest.approx(lat_mean)
        assert scenario.origin[1] == pytest.approx(11.0)

    def test_tracks_share_grid_and_epoch(self, tmp_path):
        scenario = self.build(tmp_path)
        assert sorted(scenario.tracks) == ["219000001", "219000002"]
        for track in scenario.tracks.values():
            assert np.array_equal(track.times, [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        assert np.array_equal(scenario.time_grid, scenario.tracks["219000001"].times)

    def test_metadata_records_digests(self, tmp_path):
        scenario = self.build(tmp_path)
        assert len(scenario.metadata["sources"]["ais"]["sha256"]) == 64
        assert len(scenario.metadata["sources"]["chart"]["sha256"]) == 64
        assert scenario.metadata["ingest"]["skipped_rows"] == 0

    def test_roundtrip_is_exact(self, tmp_path):
        scenario = self.build(tmp_path)
        path = tmp_path / "scenario.json"
        scenario.save(path)
        loaded = Scenario.load(path)
        assert loaded.to_json() == scenario.to_json()
        for tid, track in scenario.tracks.items():
            other = loaded.tracks[tid]
            assert np.array_equal(track.north, other.north)
            assert np.array_equal(track.heading, other.heading)
            assert track.vessel_type is other.vessel_type
        assert len(loaded.obstacles.polygons) == 1

    def test_save_is_deterministic(self, tmp_path):
        scenario = self.build(tmp_path)
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        scenario.save(p1)
        self.build(tmp_path).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema_version_checked(self, tmp_path):
        scenario = self.build(tmp_path)
        doc = scenario.to_dict()
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema"):
            Scenario.from_dict(doc)

    def test_no_usable_rows_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(COLUMNS) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no usable"):
            build_scenario(path)
