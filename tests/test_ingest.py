"""Tests for AIS parsing, resampling, chart loading, and scenario archives."""

import copy
import csv
import hashlib
import itertools
import json
import logging
import math
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seamanship import ingest
from seamanship.geometry import KNOTS_TO_MPS, TWO_PI, VesselTrack, VesselType, project
from seamanship.ingest import (
    DEFAULT_LENGTHS,
    DMA_TIMESTAMP_FORMAT,
    HEADING_UNAVAILABLE,
    SCENARIO_SCHEMA_VERSION,
    TRACK_ARRAYS,
    AisSchema,
    IngestParams,
    RawTrack,
    Scenario,
    _dma_seconds,
    _parse_timestamp,
    _ring_coords,
    build_scenario,
    load_chart,
    parse_ais,
    resample,
    sidecar_path,
)
from seamanship.risk import ObstacleSet

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
        lat = tracks["219000001"].lat.tolist()
        assert lat == sorted(lat)

    def test_iso_timestamps_accepted(self, tmp_path):
        rows = simple_rows(n=2)
        rows[0][0] = "2023-09-07T06:00:00+00:00"
        rows[1][0] = "2023-09-07T06:00:20+00:00"
        tracks, skipped = parse_ais(write_ais(tmp_path / "a.csv", rows))
        assert skipped == 0
        assert tracks["219000001"].times[1] - tracks["219000001"].times[0] == 20.0

    def test_truncated_row_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "a.csv"
        write_ais(path, simple_rows(n=3))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(dma_time(80) + ",219200000\n")
        tracks, skipped = parse_ais(path)
        assert skipped == 1
        assert list(tracks) == ["219000001"]

    def test_missing_optional_fields_read_as_blank(self, tmp_path):
        # a row cut after its position reads like one with blank motion fields
        rows = simple_rows(n=2)
        rows[1] = rows[1][:4]
        tracks, skipped = parse_ais(write_ais(tmp_path / "a.csv", rows))
        assert skipped == 0
        track = tracks["219000001"]
        assert track.speed[1] == 0.0 and track.heading[1] == 0.0

    def test_extra_fields_are_ignored(self, tmp_path):
        rows = simple_rows(n=2)
        rows[1] += ["surplus", "55.0"]
        tracks, skipped = parse_ais(write_ais(tmp_path / "a.csv", rows))
        assert skipped == 0
        assert tracks["219000001"].lat.tolist() == [55.0, 55.001]

    def test_blank_lines_are_skipped_uncounted(self, tmp_path):
        path = tmp_path / "a.csv"
        lines = [",".join(row) for row in simple_rows(n=2)]
        path.write_text(
            ",".join(COLUMNS) + "\n\n" + lines[0] + "\n\n\n" + lines[1] + "\n\n",
            encoding="utf-8",
        )
        tracks, skipped = parse_ais(path)
        assert skipped == 0
        assert len(tracks["219000001"].times) == 2

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

    def test_numeric_text_depth_read_as_number(self, tmp_path):
        # "12" m is deeper than the 10 m threshold, "4.5" m is not
        features = [
            square_feature(55.0, 11.0, 0.002, depth="12"),
            square_feature(55.1, 11.0, 0.002, depth="4.5"),
        ]
        assert len(load_chart(self.write(tmp_path, features), self.ORIGIN).polygons) == 1

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
        assert loaded.to_archive() == scenario.to_archive()
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
        assert sidecar_path(p1).read_bytes() == sidecar_path(p2).read_bytes()

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "s.json"
        self.build(tmp_path).save(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match="schema"):
            Scenario.load(path)

    def test_no_usable_rows_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(COLUMNS) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no usable"):
            build_scenario(path)


# --- the code the array passes replaced, kept as references ----------------


def reference_parse_timestamp(text: str, schema: AisSchema) -> float:
    """ISO-8601, then each schema format through ``strptime``."""
    raw = text.strip()
    try:
        dt = datetime.fromisoformat(raw)
    except ValueError:
        dt = None
    if dt is None:
        for fmt in schema.timestamp_formats:
            try:
                dt = datetime.strptime(raw, fmt)
                break
            except ValueError:
                continue
    if dt is None:
        raise ValueError(f"unparseable timestamp {text!r}")
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


@dataclass
class ListTrack:
    """A raw track as the row loop builds it, one list per field."""

    mmsi: str
    times: list[float] = field(default_factory=list)
    lat: list[float] = field(default_factory=list)
    lon: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    heading: list[float] = field(default_factory=list)
    vessel_type: VesselType = VesselType.OTHER
    length: float | None = None


def reference_parse_ais(path, schema=None):
    """The ``csv.DictReader`` parser. A row too short to hold a required
    field reads None there; catching the TypeError and AttributeError that
    follow counts it as a skipped row, which is what ``parse_ais`` does.
    Each vessel's rows are gathered in lists and handed to ``RawTrack`` at
    the end."""
    schema = schema or AisSchema()
    tracks, seen, skipped = {}, set(), 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty AIS file")
        required = (schema.timestamp, schema.mmsi, schema.latitude, schema.longitude)
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing}")
        for row in reader:
            try:
                t = reference_parse_timestamp(row[schema.timestamp], schema)
                mmsi = row[schema.mmsi].strip()
                lat = float(row[schema.latitude])
                lon = float(row[schema.longitude])
                if not mmsi or not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                    raise ValueError("bad position")
                sog = float(row.get(schema.sog) or 0.0)
                cog = float(row.get(schema.cog) or 0.0)
                heading = row.get(schema.heading)
                hdg = float(heading) if heading not in (None, "") else HEADING_UNAVAILABLE
                if not (math.isfinite(sog) and math.isfinite(cog) and math.isfinite(hdg)):
                    raise ValueError("non-finite motion field")
            except (ValueError, KeyError, TypeError, AttributeError):
                skipped += 1
                continue
            if (mmsi, t) in seen:
                continue
            seen.add((mmsi, t))
            if hdg == HEADING_UNAVAILABLE:
                hdg = cog
            track = tracks.get(mmsi)
            if track is None:
                track = ListTrack(mmsi=mmsi)
                tracks[mmsi] = track
                track.vessel_type = VesselType.parse((row.get(schema.ship_type) or "").strip())
            if track.length is None:
                length_text = (row.get(schema.length) or "").strip()
                if length_text:
                    try:
                        value = float(length_text)
                        if math.isfinite(value) and value > 0.0:
                            track.length = value
                    except ValueError:
                        pass
            track.times.append(t)
            track.lat.append(lat)
            track.lon.append(lon)
            track.speed.append(max(0.0, sog * KNOTS_TO_MPS))
            track.heading.append(math.radians(hdg % 360.0))
    for track in tracks.values():
        if track.length is None:
            track.length = DEFAULT_LENGTHS[track.vessel_type]
        order = np.argsort(track.times, kind="stable")
        for name in ("times", "lat", "lon", "speed", "heading"):
            setattr(track, name, [getattr(track, name)[i] for i in order])
    raw = {mmsi: RawTrack(**vars(track)) for mmsi, track in sorted(tracks.items())}
    return raw, skipped


def reference_ring_coords(ring, origin):
    """The per-coordinate projection loop."""
    pts = []
    for coord in ring:
        p = project(float(coord[1]), float(coord[0]), origin)
        if pts and p.north == pts[-1][0] and p.east == pts[-1][1]:
            continue
        pts.append([p.north, p.east])
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(pts) < 3:
        return None
    pts.append(pts[0])
    return np.asarray(pts, dtype=float)


def inline_arrays(doc, data):
    """Archive header ``doc`` with the values of its sidecar bytes ``data``
    put in it, as :func:`lay_out` takes them: each track's arrays under
    their names, and the obstacle rings as ``polygons``."""
    values = np.frombuffer(data, "<f8").astype(float)
    tracks = list(doc["tracks"].values())
    bounds = [0, *itertools.accumulate(td["grid"][1] for td in tracks)]
    n = bounds[-1]
    for name, column in zip(TRACK_ARRAYS, values[: 4 * n].reshape(4, n)):
        for td, a, b in zip(tracks, bounds, bounds[1:]):
            td[name] = column[a:b].copy()
    points = values[4 * n:].reshape(-1, 2)
    ends = [0, *itertools.accumulate(doc["obstacles"]["rings"])]
    doc["obstacles"]["polygons"] = [points[a:b].copy() for a, b in zip(ends, ends[1:])]
    return doc


def lay_out(doc) -> bytes:
    """The sidecar bytes of an archive header written with its values in
    it: each track's arrays and the obstacle ``polygons`` are taken out of
    ``doc`` and laid end to end in sidecar order, and their byte count and
    sha256 recorded in its ``sidecar`` entry. The ring point counts and grid
    ranges are left as ``doc`` has them."""
    tracks = list(doc["tracks"].values())
    parts = [np.asarray(td.pop(name), dtype=float) for name in TRACK_ARRAYS for td in tracks]
    parts += [np.asarray(ring, dtype=float).ravel() for ring in doc["obstacles"].pop("polygons")]
    data = np.concatenate([np.empty(0), *parts]).astype("<f8").tobytes()
    doc["sidecar"] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return data


def reference_entry(holder, name, where, check):
    """Entry ``name`` of archive header object or list ``holder`` passed
    through ``check``; errors are prefixed with ``where``."""
    try:
        value = holder[name]
    except (KeyError, IndexError):
        raise ValueError(f"{where}: missing") from None
    try:
        return check(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def reference_number(value):
    """A JSON number as a float: ``float`` raises on text that is no
    number and on anything but a number or text; a bool or numeric text
    that ``float`` reads is refused after it."""
    number = float(value)
    if type(value) not in (int, float):
        raise ValueError(f"{value!r} is not a number")
    return number


def reference_count(value):
    if type(value) is not int or value < 0:
        raise ValueError(f"{value!r} is not a count")
    return value


def reference_origin(value):
    if type(value) is not list or len(value) != 2:
        raise ValueError(f"{value!r} is not [lat, lon], two numbers")
    return reference_number(value[0]), reference_number(value[1])


def reference_grid(grid):
    if type(grid) is not list or len(grid) != 2 or {type(k) for k in grid} != {int}:
        raise ValueError(f"{grid!r} is not [i0, n], two integers")
    i0, n = grid
    if n <= 0:
        raise ValueError(f"point count {n} is not positive")
    if i0 < -(2**63) or i0 + n > 2**63:
        raise ValueError(f"index range [{i0}, {i0 + n}) is too large for int64")
    return i0, n


def reference_from_archive(doc, data):
    """The per-track loader: the header read by its own checks, each
    track's arrays read from its own offsets in the sidecar's values and
    checked by its own ``VesselTrack``, and each ring read alone. Like the
    archive loader, it reads the sidecar before it builds any track's
    times, and it leaves the schema to ``Scenario.load``."""
    dt = reference_entry(doc, "dt", "dt", reference_number)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt {dt!r} is not a positive finite number")
    origin = reference_entry(doc, "origin", "origin", reference_origin)
    epoch = reference_entry(doc, "epoch", "epoch", reference_number)
    obstacles = doc["obstacles"]
    spacing = reference_entry(obstacles, "spacing", "obstacle spacing", reference_number)
    sizes = [
        reference_entry(obstacles["rings"], i, f"obstacle ring {i} point count", reference_count)
        for i in range(len(obstacles["rings"]))
    ]
    fields = {}
    for tid, td in doc["tracks"].items():
        fields[tid] = dict(
            grid=reference_entry(td, "grid", f"track {tid!r} grid", reference_grid),
            length=reference_entry(td, "length", f"track {tid!r} length", reference_number),
            vessel_type=reference_entry(td, "vessel_type", f"track {tid!r} vessel_type", VesselType),
        )
    n = sum(f["grid"][1] for f in fields.values())
    size = reference_entry(doc["sidecar"], "bytes", "sidecar bytes", reference_count)
    if size != 8 * (4 * n + 2 * sum(sizes)):
        raise ValueError(
            "sidecar: the header's track grid ranges and ring point counts call for "
            f"{8 * (4 * n + 2 * sum(sizes))} bytes, but it records {size}"
        )
    if len(data) != size:
        raise ValueError(f"sidecar: holds {len(data)} bytes, the header records {size}")
    digest, recorded = hashlib.sha256(data).hexdigest(), doc["sidecar"].get("sha256")
    if digest != recorded:
        raise ValueError(
            f"sidecar: sha256 {digest} is not the {recorded!r} that the header records"
        )
    values = np.frombuffer(data, "<f8").astype(float)
    tracks, offset = {}, 0
    for tid, f in fields.items():
        i0, size = f.pop("grid")
        arrays = {
            name: values[k * n + offset: k * n + offset + size].copy()
            for k, name in enumerate(TRACK_ARRAYS)
        }
        times = dt * np.arange(i0, i0 + size, dtype=np.int64)
        tracks[tid] = VesselTrack(track_id=tid, times=times, **arrays, **f)
        offset += size
    rings, offset = [], 4 * n
    for size in sizes:
        rings.append(values[offset: offset + 2 * size].reshape(size, 2).copy())
        offset += 2 * size
    return Scenario(
        origin=origin,
        epoch=epoch,
        dt=dt,
        tracks=tracks,
        obstacles=ObstacleSet(rings, spacing=spacing),
        metadata=dict(doc.get("metadata", {})),
    )


def outcome(parse, text, schema):
    try:
        return parse(text, schema)
    except ValueError:
        return "error"


class TestTimestampFastPath:
    SCHEMA = AisSchema()

    @given(
        day=st.integers(0, 32),
        month=st.integers(0, 13),
        year=st.integers(0, 9999),
        hour=st.integers(0, 25),
        minute=st.integers(0, 61),
        second=st.integers(0, 62),
        pad=st.sampled_from(["", " ", "  ", "\t"]),
    )
    @example(day=29, month=2, year=2024, hour=0, minute=0, second=0, pad="")
    @example(day=29, month=2, year=2023, hour=0, minute=0, second=0, pad="")
    @example(day=31, month=4, year=2023, hour=23, minute=59, second=59, pad=" ")
    @example(day=1, month=1, year=1, hour=0, minute=0, second=60, pad="")
    @example(day=0, month=1, year=2023, hour=24, minute=0, second=61, pad="")
    @settings(max_examples=400, deadline=None)
    def test_matches_strptime(self, day, month, year, hour, minute, second, pad):
        text = f"{pad}{day:02d}/{month:02d}/{year:04d} {hour:02d}:{minute:02d}:{second:02d}{pad}"
        try:
            expected = (
                datetime.strptime(text.strip(), DMA_TIMESTAMP_FORMAT)
                .replace(tzinfo=timezone.utc)
                .timestamp()
            )
        except ValueError:
            expected = "error"
        assert outcome(_parse_timestamp, text, self.SCHEMA) == expected

    @given(st.text(alphabet="0123456789/: -+T٠١", min_size=15, max_size=22))
    @example("07/09/2023 00:00:20")
    @example("7/09/2023 00:00:20")
    @example("07/09/2023  00:00:20")
    @example("+7/09/2023 00:00:20")
    @example("2023-09-07 00:00:20")
    @example("٠٧/09/2023 00:00:20")
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_on_any_text(self, text):
        assert outcome(_parse_timestamp, text, self.SCHEMA) == outcome(
            reference_parse_timestamp, text, self.SCHEMA
        )

    def test_only_when_dma_layout_comes_first(self):
        schema = AisSchema(timestamp_formats=("%m/%d/%Y %H:%M:%S", DMA_TIMESTAMP_FORMAT))
        july = datetime(2023, 7, 9, 0, 0, 20, tzinfo=timezone.utc).timestamp()
        assert _parse_timestamp("07/09/2023 00:00:20", schema) == july
        # a DMA text no datetime has falls through to the later formats
        december = datetime(2023, 12, 31, 0, 0, 0, tzinfo=timezone.utc).timestamp()
        schema = AisSchema(timestamp_formats=(DMA_TIMESTAMP_FORMAT, "%m/%d/%Y %H:%M:%S"))
        assert _parse_timestamp("12/31/2023 00:00:00", schema) == december

    def test_format_list_is_stored_as_tuple(self):
        # a JSON config gives a list; the frozen schema keeps a hashable tuple
        schema = AisSchema(timestamp_formats=[DMA_TIMESTAMP_FORMAT])
        assert schema.timestamp_formats == (DMA_TIMESTAMP_FORMAT,)
        assert hash(schema) == hash(AisSchema())


class TestDmaSeconds:
    """The array pass over DMA-layout text gives exactly what
    ``_parse_timestamp`` gives for every text it accepts, and refuses only
    text that function refuses or that is not in the fixed layout."""

    SCHEMA = AisSchema()
    LAYOUT = re.compile(r"\d\d/\d\d/\d{4} \d\d:\d\d:\d\d", re.ASCII)

    def check(self, texts):
        seconds = _dma_seconds(texts)
        assert seconds.shape == (len(texts),)
        for text, value in zip(texts, seconds.tolist()):
            if math.isnan(value):
                assert (
                    outcome(_parse_timestamp, text, self.SCHEMA) == "error"
                    or not self.LAYOUT.fullmatch(text.strip())
                ), text
            else:
                assert value == _parse_timestamp(text, self.SCHEMA), text

    @given(
        day=st.integers(0, 32),
        month=st.integers(0, 13),
        year=st.integers(0, 9999),
        hour=st.integers(0, 25),
        minute=st.integers(0, 61),
        second=st.integers(0, 62),
        pad=st.sampled_from(["", " ", "  ", "\t"]),
    )
    @example(day=29, month=2, year=2024, hour=0, minute=0, second=0, pad="")
    @example(day=29, month=2, year=2023, hour=0, minute=0, second=0, pad="")
    @example(day=31, month=4, year=2023, hour=23, minute=59, second=59, pad=" ")
    @example(day=1, month=1, year=1, hour=0, minute=0, second=60, pad="")
    @example(day=0, month=1, year=2023, hour=24, minute=0, second=61, pad="")
    @settings(max_examples=400, deadline=None)
    def test_matches_scalar_path(self, day, month, year, hour, minute, second, pad):
        text = f"{pad}{day:02d}/{month:02d}/{year:04d} {hour:02d}:{minute:02d}:{second:02d}{pad}"
        # among an accepted and a refused text, as rows of one block
        self.check(["07/09/2023 00:00:20", text, "junk"])

    @given(st.lists(st.text(alphabet="0123456789/: -+T٠١\t", min_size=15, max_size=22)))
    @example(["07/09/2023 00:00:20", "7/09/2023 00:00:20", "07/09/2023  00:00:20"])
    @example(["+7/09/2023 00:00:20", "2023-09-07 00:00:20", "٠٧/09/2023 00:00:20"])
    @example(["07/09/2023\t00:00:20", "29/02/1900 00:00:00", "29/02/2000 00:00:00"])
    @example(["01/01/0000 00:00:00", "31/12/9999 23:59:59", "01/01/0001 00:00:00"])
    @example([])
    @settings(max_examples=400, deadline=None)
    def test_matches_scalar_path_on_any_text(self, texts):
        self.check(texts)


AIS_TIMES = [dma_time(s) for s in (0, 20, 40, 60, 600)] + [
    "2023-09-07T06:00:30+00:00",
    "2023-09-07T06:00:20",
    "31/02/2023 25:61:00",
    "07/09/2023 06:00:60",
    " 07/09/2023 06:01:00 ",
    "29/02/1900 06:00:20",
    "29/02/2000 06:00:20",
    "01/01/0000 06:00:00",
    "31/12/9999 23:59:59",
    # the 20 s and 40 s reports again: a tab that strptime reads as its
    # space, and Arabic-Indic digits
    "07/09/2023\t06:00:20",
    "٠٧/٠٩/٢٠٢٣ ٠٦:٠٠:٤٠",
]
# number spellings float reads (underscores, Arabic-Indic digits, padding,
# a sign, an exponent, Infinity) and one it refuses
FLOAT_SPELLINGS = ["5_5", "٥٥", " 55.5 ", "+55", "5.5e1", "Infinity", "0x10"]
AIS_FIELDS = {
    "# Timestamp": st.sampled_from(AIS_TIMES + ["", "junk"]),
    "MMSI": st.sampled_from(["219000001", "219000002", " 219000003 ", "", "   "]),
    "Latitude": st.sampled_from(
        ["55.0", "55.0012345", "-0", "91.5", "", "nan", "fifty"] + FLOAT_SPELLINGS
    ),
    "Longitude": st.sampled_from(["11.0", "10.9999", "180", "-181", "inf", ""] + FLOAT_SPELLINGS),
    "SOG": st.sampled_from(["10.0", "0", "-3", "", "nan", "1e400", "x"] + FLOAT_SPELLINGS),
    "COG": st.sampled_from(["45.0", "359.9", "-10", "", "inf", "720"] + FLOAT_SPELLINGS),
    "Heading": st.sampled_from(["0", "511", "511.0", "90", "", "-inf", "721"] + FLOAT_SPELLINGS),
    "Ship type": st.sampled_from(["Cargo", " tanker ", "Pilot", "", "Unknown"]),
    "Length": st.sampled_from(["150", "", "inf", "-5", "0", "abc", " 80 ", "1_50", "٨٠"]),
}


@st.composite
def dirty_ais_csv(draw):
    """CSV text with shuffled, missing, repeated and extra columns, blank
    lines, truncated and overlong rows and malformed fields."""
    header = draw(st.permutations(list(AIS_FIELDS)))
    header = [c for c in header if c in COLUMNS[:4] or draw(st.integers(0, 5))]
    header += draw(st.lists(st.sampled_from(["Extra", "SOG", "Heading"]), max_size=2))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "short", "long"]))
        if kind == "blank":
            lines.append("")
            continue
        fields = [draw(AIS_FIELDS[c]) if c in AIS_FIELDS else "extra" for c in header]
        if kind == "short":
            fields = fields[: draw(st.integers(1, len(fields)))]
        elif kind == "long":
            fields += draw(st.lists(st.sampled_from(["1", "", "x"]), min_size=1, max_size=3))
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


# every row skipped: a bad timestamp, a blank mmsi, a refused latitude
ALL_SKIPPED = "\n".join([
    "# Timestamp,MMSI,Latitude,Longitude",
    "junk,1,55,11",
    f"{dma_time(0)},,55,11",
    f"{dma_time(0)},1,0x10,11",
]) + "\n"


def assert_matches_reference(path):
    """Same vessels in the same order, same scalars, and every array
    float64 with the reference's bits (-0.0 is not 0.0)."""
    tracks, skipped = parse_ais(path)
    ref_tracks, ref_skipped = reference_parse_ais(path)
    assert skipped == ref_skipped
    assert list(tracks) == list(ref_tracks)
    for got, ref in zip(tracks.values(), ref_tracks.values()):
        assert (got.mmsi, got.vessel_type) == (ref.mmsi, ref.vessel_type)
        assert type(got.length) is type(ref.length) and repr(got.length) == repr(ref.length)
        for name in ("times", "lat", "lon", "speed", "heading"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype == np.float64 and a.shape == b.shape, name
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


class TestParseAisEquivalence:
    @given(text=dirty_ais_csv())
    @example(text=ALL_SKIPPED)
    @settings(max_examples=300, deadline=None)
    def test_matches_dictreader_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("ais") / "a.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_matches_reference(path)

    @pytest.mark.parametrize("block_rows", [1, 3])
    @given(text=dirty_ais_csv())
    @example(text=ALL_SKIPPED)
    @settings(max_examples=300, deadline=None)
    def test_matches_dictreader_parser_in_small_blocks(self, tmp_path_factory, block_rows, text):
        # duplicates, a vessel's first row and its first valid length fall
        # in different blocks
        path = tmp_path_factory.mktemp("ais") / "a.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            assert_matches_reference(path)

    @pytest.mark.parametrize("text", ["", "\n1,2\n"])
    def test_empty_or_blank_header_matches(self, tmp_path, text):
        path = tmp_path / "a.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as new:
            parse_ais(path)
        with pytest.raises(ValueError) as ref:
            reference_parse_ais(path)
        assert str(new.value) == str(ref.value)


@st.composite
def lonlat_rings(draw):
    """GeoJSON rings whose points often repeat, with or without closure."""
    coord = st.tuples(st.sampled_from([10.0, 10.001, 10.5]), st.sampled_from([55.0, 55.002]))
    rings = []
    for _ in range(draw(st.integers(0, 4))):
        points = []
        for _ in range(draw(st.integers(0, 8))):
            point = list(
                draw(st.one_of(coord, st.tuples(st.floats(9.0, 11.0), st.floats(54.0, 56.0))))
            )
            points += [point] * draw(st.integers(1, 3))
        if points and draw(st.booleans()):
            points.append(list(points[0]))
        rings.append(points)
    return rings


class TestRingCoords:
    @given(rings=lonlat_rings())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_coordinate_loop(self, rings):
        origin = (55.001, 10.2)
        got = _ring_coords(rings, origin)
        ref = [r for r in (reference_ring_coords(ring, origin) for ring in rings) if r is not None]
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_non_finite_coordinate_rejected(self):
        ring = [[10.0, 55.0], [10.1, 55.0], [math.nan, 55.1], [10.0, 55.0]]
        with pytest.raises(ValueError, match="non-finite point"):
            _ring_coords([ring], (55.0, 10.0))



# float64 values a text or byte codec can lose: the sign of zero, the least
# subnormal and the largest finite value
EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308]
FINITE = st.one_of(
    st.sampled_from(EDGE_FLOATS + [-1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
NON_NEGATIVE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(0.0, 1e300))
# headings in [0, 2*pi), plus tiny negatives that the track's wrap must
# turn into 0 rather than round up to 2*pi
HEADINGS = st.one_of(
    st.sampled_from(
        [-0.0, 5e-324, math.nextafter(TWO_PI, 0.0), TWO_PI - 2e-15, -1e-17, -5e-324]
    ),
    st.floats(0.0, TWO_PI, exclude_max=True),
)


# grid spacings, and grid indices small enough (|i| <= 2**50) that dt times
# consecutive indices are strictly increasing floats
ARCHIVE_DTS = st.sampled_from([10.0, 1.0, 0.1, 3.7, 5e-3, 997.0])
GRID_INDICES = st.integers(-(2**50), 2**50)


@st.composite
def track_arrays(draw, dt):
    """Track fields on the grid of spacing ``dt``: the archive stores a
    track's times as a grid index range, not as values."""
    i0, n = draw(GRID_INDICES), draw(st.integers(1, 6))
    return dict(
        times=dt * np.arange(i0, i0 + n),
        north=draw(st.lists(FINITE, min_size=n, max_size=n)),
        east=draw(st.lists(FINITE, min_size=n, max_size=n)),
        speed=draw(st.lists(NON_NEGATIVE, min_size=n, max_size=n)),
        heading=draw(st.lists(HEADINGS, min_size=n, max_size=n)),
        length=draw(st.sampled_from([5e-324, 150.0, 1.7976931348623157e308])),
        vessel_type=draw(st.sampled_from(list(VesselType))),
    )


@st.composite
def archived_rings(draw):
    """Exactly closed rings. North coordinates reach the largest finite
    value and east ones stay small, so that edge lengths stay finite."""
    n = draw(st.integers(3, 6))
    small = st.one_of(st.sampled_from(EDGE_FLOATS[:2]), st.floats(-1e4, 1e4))
    north = draw(st.lists(NON_NEGATIVE, min_size=n, max_size=n))
    east = draw(st.lists(small, min_size=n, max_size=n))
    ring = np.column_stack([north, east])
    return np.vstack([ring, ring[:1]])


@st.composite
def archive_tracks(draw):
    """A grid spacing and up to three tracks on its grid."""
    dt = draw(ARCHIVE_DTS)
    return dt, draw(st.lists(track_arrays(dt), max_size=3))


class TestArchiveCodec:
    @given(tracks=archive_tracks(), rings=st.lists(archived_rings(), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_save_load_is_lossless(self, tmp_path_factory, tracks, rings):
        dt, tracks = tracks
        tracks = {f"t{k}": VesselTrack(f"t{k}", **arrays) for k, arrays in enumerate(tracks)}
        # one point per edge at most, whatever the edge length
        obstacles = ObstacleSet(rings, spacing=1.7976931348623157e308)
        scenario = Scenario(
            origin=(55.0, -0.0), epoch=5e-324, dt=dt, tracks=tracks, obstacles=obstacles
        )
        path = tmp_path_factory.mktemp("archive") / "scenario.json"
        scenario.save(path)
        loaded = Scenario.load(path)
        pairs = [
            (getattr(tr, name), getattr(loaded.tracks[tid], name))
            for tid, tr in tracks.items()
            for name in ("times", "north", "east", "speed", "heading")
        ] + list(zip(obstacles.polygons, loaded.obstacles.polygons, strict=True))
        for saved, got in pairs:
            assert got.dtype == np.float64 and got.dtype.isnative
            assert got.flags.c_contiguous and got.flags.writeable
            assert got.shape == saved.shape
            assert np.array_equal(got.view(np.int64), saved.view(np.int64))
        for tid, tr in tracks.items():
            assert np.all((tr.heading >= 0.0) & (tr.heading < TWO_PI))
            assert loaded.tracks[tid].length == tr.length
            assert loaded.tracks[tid].vessel_type is tr.vessel_type
        again = path.with_name("again.json")
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()
        assert sidecar_path(again).read_bytes() == sidecar_path(path).read_bytes()

    @given(tracks=archive_tracks(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_off_grid_track_is_refused(self, tmp_path_factory, tracks, data):
        dt, tracks = tracks
        arrays = data.draw(track_arrays(dt))
        # one time moved off the grid by the least step the data allows: one
        # ulp either way, or 0.0 signed as -0.0; the times stay increasing
        times = arrays["times"].copy()
        k = data.draw(st.integers(0, times.size - 1))
        moves = [-math.inf, math.inf] + ([-0.0] if times[k] == 0.0 else [])
        move = data.draw(st.sampled_from(moves))
        times[k] = move if move == 0.0 else math.nextafter(times[k], move)
        tracks = {f"t{j}": VesselTrack(f"t{j}", **a) for j, a in enumerate(tracks)}
        tracks["off"] = VesselTrack("off", **{**arrays, "times": times})
        scenario = Scenario(
            origin=(55.0, 10.0), epoch=0.0, dt=dt, tracks=tracks, obstacles=ObstacleSet([])
        )
        with pytest.raises(ValueError, match=r"track 'off': times are not on the scenario grid"):
            scenario.to_archive()
        path = tmp_path_factory.mktemp("archive") / "scenario.json"
        with pytest.raises(ValueError, match="track 'off'"):
            scenario.save(path)
        assert not path.exists() and not sidecar_path(path).exists()

    @pytest.mark.parametrize("tiny", [-1e-17, -5e-324])
    def test_tiny_negative_heading_is_byte_stable(self, tmp_path, tiny):
        track = VesselTrack("t", [0.0, 10.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0], [tiny, 1.0], 9.0)
        scenario = Scenario(
            origin=(55.0, 10.0), epoch=0.0, dt=10.0, tracks={"t": track}, obstacles=ObstacleSet([])
        )
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        scenario.save(first)
        loaded = Scenario.load(first)
        loaded.save(again)
        assert again.read_bytes() == first.read_bytes()
        assert sidecar_path(again).read_bytes() == sidecar_path(first).read_bytes()
        assert loaded.tracks["t"].heading.tolist() == [0.0, 1.0]


# headings as a hand-written archive may hold them: in range, tiny
# negatives, 2*pi itself, and any finite value
ANY_HEADINGS = st.one_of(
    HEADINGS, st.sampled_from([TWO_PI, -TWO_PI, 1e300, -1e300]), FINITE
)


@st.composite
def archive_docs(draw, min_tracks=0):
    """Archive headers written by hand, not by ``to_archive``, with their
    values in them as :func:`lay_out` takes them: up to four tracks
    (perhaps none) of one to five samples from any grid index, negative
    ones included, with any finite heading and an int or float length, and
    up to three rings (perhaps none)."""
    dt = draw(ARCHIVE_DTS)
    tracks = {}
    for k in range(draw(st.integers(min_tracks, 4))):
        n = draw(st.integers(1, 5))
        values = {
            "north": FINITE, "east": FINITE, "speed": NON_NEGATIVE, "heading": ANY_HEADINGS
        }
        tracks[f"t{k}"] = {
            "grid": [draw(GRID_INDICES), n],
            **{
                name: np.array(draw(st.lists(kind, min_size=n, max_size=n)), dtype=float)
                for name, kind in values.items()
            },
            "length": draw(st.sampled_from([5e-324, 150, 180.5, 1.7976931348623157e308])),
            "vessel_type": draw(st.sampled_from(list(VesselType))).value,
        }
    rings = draw(st.lists(archived_rings(), max_size=3))
    return {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "origin": [55.0, 10.0],
        "epoch": 0.0,
        "dt": dt,
        "tracks": tracks,
        # one point per edge at most, whatever the edge length
        "obstacles": {
            "spacing": 1.7976931348623157e308,
            "rings": [len(r) for r in rings],
            "polygons": rings,
        },
        "metadata": {"k": 1},
    }


def load_outcome(doc):
    """``Scenario.from_archive`` and ``reference_from_archive`` of a deep
    copy of ``doc`` each, its values laid out by :func:`lay_out`, as the
    scenario or the message of the ValueError raised."""
    results = []
    for load in (Scenario.from_archive, reference_from_archive):
        header = copy.deepcopy(doc)
        data = lay_out(header)
        try:
            results.append(load(header, data))
        except ValueError as exc:
            results.append(str(exc))
    return results


def assert_same_scenario(got, ref):
    assert list(got.tracks) == list(ref.tracks)
    pairs = [
        (getattr(got.tracks[tid], name), getattr(tr, name))
        for tid, tr in ref.tracks.items()
        for name in ("times", *TRACK_ARRAYS)
    ] + list(zip(got.obstacles.polygons, ref.obstacles.polygons, strict=True))
    pairs.append((got.obstacles.boundary_points, ref.obstacles.boundary_points))
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    for tid, tr in ref.tracks.items():
        assert got.tracks[tid].length == tr.length
        assert type(got.tracks[tid].length) is type(tr.length)
        assert got.tracks[tid].vessel_type is tr.vessel_type
    assert (got.origin, got.epoch, got.dt, got.metadata) == (
        ref.origin, ref.epoch, ref.dt, ref.metadata
    )
    assert got.obstacles.spacing == ref.obstacles.spacing


def _set_sample(value):
    def change(values, k):
        values[k] = value
        return values

    return change


def _array_damage(name, change):
    """A fault in the values of array ``name``, at a drawn sample."""

    def damage(td, draw):
        values = td[name].copy()
        td[name] = change(values, draw(st.integers(0, values.size - 1)))

    return damage


def _field_damage(name, value):
    def damage(td, draw):
        td[name] = value

    return damage


def _missing(name):
    def damage(td, draw):
        del td[name]

    return damage


def _regrid(change):
    def damage(td, draw):
        td["grid"] = change(*td["grid"])

    return damage


ARRAY_DAMAGES = {
    "nan": _set_sample(math.nan),
    "inf": _set_sample(math.inf),
    "-inf": _set_sample(-math.inf),
    "negative": _set_sample(-1.0),
    "short": lambda values, k: values[:-1],
}
# each a single fault in one track
ONE_FAULT = [
    *(
        pytest.param(_array_damage(name, change), id=f"{name}-{kind}")
        for name in TRACK_ARRAYS
        for kind, change in ARRAY_DAMAGES.items()
    ),
    *(
        pytest.param(_field_damage(name, value), id=f"{name}={value!r:.12}")
        for name, value in [
            ("length", math.inf), ("length", -math.inf), ("length", math.nan),
            ("length", 0.0), ("length", -1.0), ("length", 10**400), ("length", "abc"),
            ("length", [1.0]), ("length", True), ("length", "120"),
            ("vessel_type", "Carg0"), ("vessel_type", 5),
            ("grid", "0,1"),
        ]
    ),
    *(
        pytest.param(_missing(name), id=f"no-{name}")
        for name in ("grid", "length", "vessel_type")
    ),
    pytest.param(_regrid(lambda i0, n: [i0, 0]), id="grid-zero"),
    pytest.param(_regrid(lambda i0, n: [i0, n + 1]), id="grid-count"),
    pytest.param(_regrid(lambda i0, n: [2**60, n]), id="grid-repeated-times"),
    pytest.param(_regrid(lambda i0, n: [10**30, n]), id="grid-overflow"),
    pytest.param(_regrid(lambda i0, n: [2**63 - n, n + 1]), id="grid-past-int64"),
    pytest.param(_regrid(lambda i0, n: [i0, 10**12]), id="grid-huge-count"),
]


class TestFieldByFieldLoader:
    """``Scenario.from_archive`` slices each array field of all tracks from
    the sidecar's values and checks all tracks in one pass;
    ``reference_from_archive``, a per-track loader, is the reference."""

    @given(doc=archive_docs())
    @settings(max_examples=200, deadline=None)
    @example(doc={
        "schema_version": SCENARIO_SCHEMA_VERSION, "origin": [55.0, 10.0], "epoch": 0.0,
        "dt": 10.0, "tracks": {}, "obstacles": {"spacing": 50.0, "rings": [], "polygons": []},
    })
    def test_matches_per_track_loader(self, doc):
        got, ref = load_outcome(doc)
        assert_same_scenario(got, ref)
        headings = [tr.heading for tr in got.tracks.values()]
        assert all(np.all((h >= 0.0) & (h < TWO_PI)) for h in headings)

    @pytest.mark.parametrize("damage", ONE_FAULT)
    @given(doc=archive_docs(min_tracks=1), data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_one_fault_gives_the_per_track_message(self, damage, doc, data):
        damage(doc["tracks"][data.draw(st.sampled_from(sorted(doc["tracks"])))], data.draw)
        got, ref = load_outcome(doc)
        if isinstance(ref, str):
            assert got == ref
        else:
            assert_same_scenario(got, ref)

    @given(doc=archive_docs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_ring_fault_gives_the_per_ring_message(self, doc, data):
        """A last ring that is open, has too few points, or whose point
        count is no count."""
        obstacles, k = doc["obstacles"], len(doc["obstacles"]["rings"])
        fault = data.draw(st.sampled_from(["open", "short", "count"]))
        ring = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        if fault == "short":
            ring = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        count = data.draw(st.sampled_from([True, -1, 4.0, "4"])) if fault == "count" else len(ring)
        obstacles["polygons"].append(ring)
        obstacles["rings"].append(count)
        got, ref = load_outcome(doc)
        assert isinstance(ref, str) and got == ref
        assert ref.startswith({
            "open": f"polygon {k} is not closed",
            "short": f"polygon {k} is not a closed ring",
            "count": f"obstacle ring {k} point count: {count!r} is not a count",
        }[fault])

    def test_tracks_share_no_values(self):
        def ring(north):
            return np.array([[north, 0.0], [north, 1.0], [north + 1.0, 1.0], [north, 0.0]])

        tracks = {
            f"t{k}": VesselTrack(
                f"t{k}", 10.0 * np.arange(k, 2 * k + 2), *np.ones((4, k + 2)), length=9.0
            )
            for k in range(3)
        }
        archive = Scenario(
            (55.0, 10.0), 0.0, 10.0, tracks, ObstacleSet([ring(0.0), ring(5.0), ring(9.0)])
        ).to_archive()
        loaded, again = Scenario.from_archive(*archive), Scenario.from_archive(*archive)
        for name in ("times", *TRACK_ARRAYS):
            getattr(loaded.tracks["t1"], name)[:] = 12345.0
        loaded.obstacles.polygons[1][:] = 12345.0
        for tid in ("t0", "t2"):
            for name in ("times", *TRACK_ARRAYS):
                assert np.array_equal(
                    getattr(loaded.tracks[tid], name), getattr(again.tracks[tid], name)
                )
        for k in (0, 2):
            assert np.array_equal(loaded.obstacles.polygons[k], again.obstacles.polygons[k])
