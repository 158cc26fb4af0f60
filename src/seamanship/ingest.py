"""Building scenarios from raw AIS position reports and chart polygons.

A scenario bundles resampled vessel tracks, shallow-water obstacle
polygons, and the local projection frame into one JSON document that
reproduces byte-for-byte across runs on the same inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .geometry import (
    KNOTS_TO_MPS,
    VesselTrack,
    VesselType,
    project,
    require_finite,
)
from .risk import ObstacleSet

log = logging.getLogger(__name__)

SCENARIO_SCHEMA_VERSION = 1
HEADING_UNAVAILABLE = 511.0

# hull length substituted when the report leaves the field blank, meters
DEFAULT_LENGTHS = {
    VesselType.TANKER: 180.0,
    VesselType.CARGO: 150.0,
    VesselType.PASSENGER: 120.0,
    VesselType.FISHING: 25.0,
    VesselType.PILOT: 20.0,
    VesselType.OTHER: 50.0,
}


@dataclass(frozen=True)
class AisSchema:
    """Column names and timestamp formats of an AIS CSV export.

    Defaults follow the Danish Maritime Authority layout. ``timestamp_formats``
    are tried in order after ISO-8601.
    """

    timestamp: str = "# Timestamp"
    mmsi: str = "MMSI"
    latitude: str = "Latitude"
    longitude: str = "Longitude"
    sog: str = "SOG"
    cog: str = "COG"
    heading: str = "Heading"
    ship_type: str = "Ship type"
    length: str = "Length"
    timestamp_formats: tuple[str, ...] = ("%d/%m/%Y %H:%M:%S",)


@dataclass(frozen=True)
class IngestParams:
    """Resampling and chart interpretation knobs."""

    dt: float = 10.0
    max_gap: float = 300.0
    draught_threshold: float = 10.0
    obstacle_spacing: float = 50.0
    depth_key: str = "depth"

    def __post_init__(self) -> None:
        require_finite(self)
        if self.dt <= 0.0 or self.max_gap <= 0.0:
            raise ValueError("dt and max_gap must be positive")
        if self.obstacle_spacing <= 0.0:
            raise ValueError("obstacle_spacing must be positive")


@dataclass
class RawTrack:
    """One vessel's cleaned position reports, still in geodetic coordinates."""

    mmsi: str
    times: list[float] = field(default_factory=list)
    lat: list[float] = field(default_factory=list)
    lon: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    heading: list[float] = field(default_factory=list)
    vessel_type: VesselType = VesselType.OTHER
    length: float | None = None


def _parse_timestamp(text: str, schema: AisSchema) -> float:
    """Epoch seconds from an ISO-8601 or schema-configured timestamp."""
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


def parse_ais(path, schema: AisSchema | None = None) -> tuple[dict[str, RawTrack], int]:
    """Read an AIS CSV into per-vessel raw tracks.

    Rows with unparseable essentials (timestamp, position, mmsi) or a
    non-finite SOG, COG or heading are skipped and counted. A heading of
    511 (unavailable) falls back to the course over ground; a blank or
    non-finite hull length falls back to a per-type default. Duplicate
    (mmsi, timestamp) rows keep the first occurrence.
    Returns (tracks keyed by mmsi, skipped row count).
    """
    schema = schema or AisSchema()
    tracks: dict[str, RawTrack] = {}
    seen: set[tuple[str, float]] = set()
    skipped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty AIS file")
        missing = [
            c
            for c in (schema.timestamp, schema.mmsi, schema.latitude, schema.longitude)
            if c not in reader.fieldnames
        ]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing}")
        for row in reader:
            try:
                t = _parse_timestamp(row[schema.timestamp], schema)
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
            except (ValueError, KeyError):
                skipped += 1
                continue
            if (mmsi, t) in seen:
                continue
            seen.add((mmsi, t))
            if hdg == HEADING_UNAVAILABLE:
                hdg = cog
            track = tracks.get(mmsi)
            if track is None:
                track = RawTrack(mmsi=mmsi)
                tracks[mmsi] = track
                type_text = (row.get(schema.ship_type) or "").strip()
                track.vessel_type = VesselType.parse(type_text)
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
    return dict(sorted(tracks.items())), skipped


def resample(
    raw: RawTrack,
    dt: float,
    origin: tuple[float, float],
    epoch: float,
    max_gap: float = 300.0,
) -> list[VesselTrack]:
    """Resample one raw track onto the scenario grid.

    Positions are projected about ``origin``; grid times are integer
    multiples of ``dt`` seconds since ``epoch``. Position and speed
    interpolate linearly, heading along the shorter arc. Report gaps longer
    than ``max_gap`` split the track; segments with fewer than two grid
    points are dropped. Segment ids get a ``#k`` suffix only when a split
    occurred.
    """
    if len(raw.times) < 2:
        return []
    times = np.asarray(raw.times, dtype=float) - epoch
    pts = [project(la, lo, origin) for la, lo in zip(raw.lat, raw.lon)]
    north = np.array([p.north for p in pts])
    east = np.array([p.east for p in pts])
    speed = np.asarray(raw.speed, dtype=float)
    heading = np.unwrap(np.asarray(raw.heading, dtype=float))
    breaks = np.nonzero(np.diff(times) > max_gap)[0]
    bounds = [0, *(int(b) + 1 for b in breaks), times.size]
    segments: list[VesselTrack] = []
    for seg_no, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        seg_t = times[a:b]
        if seg_t.size < 2:
            continue
        i0 = int(math.ceil(seg_t[0] / dt - 1e-9))
        i1 = int(math.floor(seg_t[-1] / dt + 1e-9))
        if i1 <= i0:
            continue
        grid = dt * np.arange(i0, i1 + 1)
        segments.append(
            VesselTrack(
                track_id=raw.mmsi,
                times=grid,
                north=np.interp(grid, seg_t, north[a:b]),
                east=np.interp(grid, seg_t, east[a:b]),
                speed=np.maximum(0.0, np.interp(grid, seg_t, speed[a:b])),
                heading=np.interp(grid, seg_t, heading[a:b]),
                vessel_type=raw.vessel_type,
                length=float(raw.length),
            )
        )
    if len(segments) > 1:
        for k, seg in enumerate(segments):
            seg.track_id = f"{raw.mmsi}#{k}"
    return segments


def _ring_coords(ring: Sequence[Sequence[float]], origin) -> np.ndarray | None:
    """Project one GeoJSON ring (lon, lat pairs) to local north/east."""
    pts = []
    for coord in ring:
        lon, lat = float(coord[0]), float(coord[1])
        p = project(lat, lon, origin)
        if pts and p.north == pts[-1][0] and p.east == pts[-1][1]:
            continue
        pts.append([p.north, p.east])
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(pts) < 3:
        return None
    pts.append(pts[0])
    return np.asarray(pts, dtype=float)


def load_chart(
    path,
    origin: tuple[float, float],
    params: IngestParams | None = None,
) -> ObstacleSet:
    """Read chart polygons and keep those a deep-draught vessel must avoid.

    Accepts a GeoJSON FeatureCollection, Feature, or bare geometry holding
    Polygon/MultiPolygon shapes. A feature is an obstacle when its depth
    attribute is missing (land) or shallower than ``draught_threshold``.
    Unclosed rings are closed with a warning; all rings of an obstacle
    polygon, holes included, contribute boundary.
    """
    p = params or IngestParams()
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("type") == "FeatureCollection":
        features = doc.get("features", [])
    elif doc.get("type") == "Feature":
        features = [doc]
    else:
        features = [{"type": "Feature", "geometry": doc, "properties": {}}]
    rings: list[np.ndarray] = []
    unclosed = 0
    for feature in features:
        geom = feature.get("geometry") or {}
        props = feature.get("properties") or {}
        depth = props.get(p.depth_key)
        if depth is not None and float(depth) >= p.draught_threshold:
            continue
        gtype = geom.get("type")
        if gtype == "Polygon":
            polys = [geom.get("coordinates", [])]
        elif gtype == "MultiPolygon":
            polys = geom.get("coordinates", [])
        else:
            continue
        for poly in polys:
            for ring in poly:
                if len(ring) >= 3 and list(ring[0]) != list(ring[-1]):
                    unclosed += 1
                projected = _ring_coords(ring, origin)
                if projected is not None:
                    rings.append(projected)
    if unclosed:
        log.warning("%s: closed %d unclosed ring(s)", path, unclosed)
    return ObstacleSet(rings, spacing=p.obstacle_spacing)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Scenario:
    """Projected tracks plus obstacles on one shared time grid."""

    origin: tuple[float, float]
    epoch: float
    dt: float
    tracks: dict[str, VesselTrack]
    obstacles: ObstacleSet
    metadata: dict = field(default_factory=dict)

    @property
    def time_grid(self) -> np.ndarray:
        """Union grid over all tracks, multiples of dt."""
        if not self.tracks:
            return np.empty(0)
        lo = min(tr.t_start for tr in self.tracks.values())
        hi = max(tr.t_end for tr in self.tracks.values())
        i0 = int(round(lo / self.dt))
        i1 = int(round(hi / self.dt))
        return self.dt * np.arange(i0, i1 + 1)

    def to_dict(self) -> dict:
        tracks_doc = {}
        for tid in sorted(self.tracks):
            tr = self.tracks[tid]
            tracks_doc[tid] = {
                "times": tr.times.tolist(),
                "north": tr.north.tolist(),
                "east": tr.east.tolist(),
                "speed": tr.speed.tolist(),
                "heading": tr.heading.tolist(),
                "length": tr.length,
                "vessel_type": tr.vessel_type.value,
            }
        return {
            "schema_version": SCENARIO_SCHEMA_VERSION,
            "origin": [self.origin[0], self.origin[1]],
            "epoch": self.epoch,
            "dt": self.dt,
            "tracks": tracks_doc,
            "obstacles": {
                "spacing": self.obstacles.spacing,
                "polygons": [poly.tolist() for poly in self.obstacles.polygons],
            },
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Scenario":
        if doc.get("schema_version") != SCENARIO_SCHEMA_VERSION:
            raise ValueError(f"unsupported scenario schema {doc.get('schema_version')}")
        tracks = {
            tid: VesselTrack(
                track_id=tid,
                times=np.asarray(td["times"], dtype=float),
                north=np.asarray(td["north"], dtype=float),
                east=np.asarray(td["east"], dtype=float),
                speed=np.asarray(td["speed"], dtype=float),
                heading=np.asarray(td["heading"], dtype=float),
                length=float(td["length"]),
                vessel_type=VesselType.parse(td["vessel_type"]),
            )
            for tid, td in doc["tracks"].items()
        }
        obstacles = ObstacleSet(
            [np.asarray(p, dtype=float) for p in doc["obstacles"]["polygons"]],
            spacing=float(doc["obstacles"]["spacing"]),
        )
        return cls(
            origin=(float(doc["origin"][0]), float(doc["origin"][1])),
            epoch=float(doc["epoch"]),
            dt=float(doc["dt"]),
            tracks=tracks,
            obstacles=obstacles,
            metadata=dict(doc.get("metadata", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def build_scenario(
    ais_path,
    chart_path=None,
    params: IngestParams | None = None,
    schema: AisSchema | None = None,
) -> Scenario:
    """Assemble a scenario from an AIS CSV and an optional chart file.

    The projection origin is the centroid of all accepted reports; the
    epoch is the earliest report time. Input digests and ingest parameters
    land in the metadata so downstream outputs can prove their provenance.
    """
    p = params or IngestParams()
    raw_tracks, skipped = parse_ais(ais_path, schema)
    if not raw_tracks:
        raise ValueError(f"{ais_path}: no usable AIS rows")
    all_lat = np.concatenate([np.asarray(tr.lat) for tr in raw_tracks.values()])
    all_lon = np.concatenate([np.asarray(tr.lon) for tr in raw_tracks.values()])
    origin = (float(np.mean(all_lat)), float(np.mean(all_lon)))
    epoch = min(min(tr.times) for tr in raw_tracks.values())
    tracks: dict[str, VesselTrack] = {}
    for mmsi in sorted(raw_tracks):
        for segment in resample(raw_tracks[mmsi], p.dt, origin, epoch, p.max_gap):
            tracks[segment.track_id] = segment
    if not tracks:
        raise ValueError(f"{ais_path}: no track has two grid points at dt={p.dt}")
    if chart_path is not None:
        obstacles = load_chart(chart_path, origin, p)
    else:
        obstacles = ObstacleSet([], spacing=p.obstacle_spacing)
    metadata = {
        "sources": {
            "ais": {"path": str(ais_path), "sha256": sha256_file(ais_path)},
        },
        "ingest": {
            "dt": p.dt,
            "max_gap": p.max_gap,
            "draught_threshold": p.draught_threshold,
            "obstacle_spacing": p.obstacle_spacing,
            "skipped_rows": skipped,
        },
    }
    if chart_path is not None:
        metadata["sources"]["chart"] = {
            "path": str(chart_path),
            "sha256": sha256_file(chart_path),
        }
    return Scenario(
        origin=origin,
        epoch=epoch,
        dt=p.dt,
        tracks=tracks,
        obstacles=obstacles,
        metadata=metadata,
    )
