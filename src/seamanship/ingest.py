"""Building scenarios from raw AIS position reports and chart polygons.

A scenario bundles resampled vessel tracks, shallow-water obstacle
polygons, and the local projection frame into an archive of two files
that reproduce byte-for-byte across runs on the same inputs (schema 4),
and that travel together: a small JSON header (``scenario.json``) and a
sidecar beside it (``scenario.f64``) of raw little-endian float64 values.
The header holds the scalars and metadata, each track's grid index range
``[i0, n]``, hull length and vessel type, each obstacle ring's point
count, and the sidecar's byte count and sha256, so its digest pins both
files. Every track lies on the scenario grid, so load rebuilds its times
bit for bit as ``dt * np.arange(i0, i0 + n)``. The sidecar holds every
track's north laid end to end, then east, speed and heading, then every
ring's points, and load reads it with one ``np.frombuffer`` call. The
README gives its load, save and size figures against schema 3, which held
each array as hex text inside one JSON document.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import logging
import math
import operator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .geometry import (
    KNOTS_TO_MPS,
    VesselTrack,
    VesselType,
    _check_tracks,
    project_arrays,
    require_finite,
)
from .risk import ObstacleSet

log = logging.getLogger(__name__)

SCENARIO_SCHEMA_VERSION = 4
# the track arrays an archive stores, in sidecar order
TRACK_ARRAYS = ("north", "east", "speed", "heading")
HEADING_UNAVAILABLE = 511.0
DMA_TIMESTAMP_FORMAT = "%d/%m/%Y %H:%M:%S"
# DMA_TIMESTAMP_FORMAT text with two-digit fields, a four-digit year and one
# space: the positions of its ASCII digits and of its separators
_DMA_LAYOUT = "dd/mm/yyyy HH:MM:SS"
_DMA_DIGITS = [i for i, c in enumerate(_DMA_LAYOUT) if c.isalpha()]
_DMA_SEPARATORS = [i for i, c in enumerate(_DMA_LAYOUT) if not c.isalpha()]
_DMA_SEPARATOR_CODES = np.array([ord(_DMA_LAYOUT[i]) for i in _DMA_SEPARATORS], np.uint32)
# days in each month of a common year, by month number
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
# AIS rows read and converted together; a block's text is all of the file
# parse_ais holds at once
_BLOCK_ROWS = 512

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
    (a list or tuple of strings, stored as a tuple) are tried in order after
    ISO-8601.
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
    timestamp_formats: tuple[str, ...] = (DMA_TIMESTAMP_FORMAT,)

    def __post_init__(self) -> None:
        require_finite(self)
        formats = self.timestamp_formats
        if not isinstance(formats, (list, tuple)) or not all(
            isinstance(fmt, str) for fmt in formats
        ):
            raise ValueError(f"timestamp_formats must be a list of strings, got {formats!r}")
        object.__setattr__(self, "timestamp_formats", tuple(formats))


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
    """One vessel's cleaned position reports, still in geodetic coordinates:
    float64 arrays of epoch seconds, degrees, m/s and radians, in time
    order."""

    mmsi: str
    times: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    vessel_type: VesselType = VesselType.OTHER
    length: float | None = None

    def __post_init__(self) -> None:
        for name in ("times", "lat", "lon", "speed", "heading"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))


def _parse_timestamp(text: str, schema: AisSchema) -> float:
    """Epoch seconds from an ISO-8601 or schema-configured timestamp: the
    stripped text goes through ISO-8601 and then the formats in order."""
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


def _dma_seconds(texts: Sequence[str]) -> np.ndarray:
    """Epoch seconds of each text that, stripped, is exactly in the DMA
    layout ``dd/mm/yyyy HH:MM:SS`` (ASCII digits, one space) and names a
    valid datetime, in one array pass; NaN for every other text.

    ISO-8601 never reads such text and ``strptime`` with
    ``DMA_TIMESTAMP_FORMAT`` reads the same datetime, so a value here is the
    one :func:`_parse_timestamp` gives while that format comes first.
    """
    texts = list(map(str.strip, texts))
    out = np.full(len(texts), np.nan)
    fixed = [len(text) == len(_DMA_LAYOUT) for text in texts]
    rows = np.flatnonzero(fixed)
    chars = np.array(list(itertools.compress(texts, fixed)), dtype=f"U{len(_DMA_LAYOUT)}")
    chars = chars.view(np.uint32).reshape(rows.size, len(_DMA_LAYOUT))
    digits = chars[:, _DMA_DIGITS] - ord("0")  # unsigned: a code below '0' wraps past 9
    layout = (digits <= 9).all(axis=1) & (
        chars[:, _DMA_SEPARATORS] == _DMA_SEPARATOR_CODES
    ).all(axis=1)
    rows, d = rows[layout], digits[layout].astype(np.int64)
    day, month = 10 * d[:, 0] + d[:, 1], 10 * d[:, 2] + d[:, 3]
    year = 1000 * d[:, 4] + 100 * d[:, 5] + 10 * d[:, 6] + d[:, 7]
    hour, minute, second = (10 * d[:, k] + d[:, k + 1] for k in (8, 10, 12))
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.minimum(month, 12)] + (leap & (month == 2))
    valid = (
        (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
        & (hour <= 23) & (minute <= 59) & (second <= 59)
    )
    # days since 1970-01-01 in the proleptic Gregorian calendar, as datetime counts
    months = (year[valid] - 1970) * 12 + month[valid] - 1
    days = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    days += day[valid] - 1
    out[rows[valid]] = (
        days * 86400 + hour[valid] * 3600 + minute[valid] * 60 + second[valid]
    )
    return out


def _timestamps(texts: Sequence[str], schema: AisSchema) -> np.ndarray:
    """Epoch seconds of each timestamp text, NaN where it reads as none.
    While the DMA layout is the schema's first format, text in that layout
    is converted in one array pass; the rest goes through
    :func:`_parse_timestamp` one text at a time."""
    if schema.timestamp_formats[:1] == (DMA_TIMESTAMP_FORMAT,):
        out = _dma_seconds(texts)
    else:
        out = np.full(len(texts), np.nan)
    for i in np.flatnonzero(np.isnan(out)).tolist():
        try:
            out[i] = _parse_timestamp(texts[i], schema)
        except ValueError:
            pass
    return out


def _floats(texts: Sequence[str], blank: float = math.nan) -> np.ndarray:
    """``float`` of each text, ``blank`` for an empty one and NaN for one
    ``float`` refuses. The whole column is converted at once; only a column
    holding a blank or refused text is converted again one text at a time."""
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        pass
    values = []
    for text in texts:
        try:
            values.append(float(text))
        except ValueError:
            values.append(math.nan if text else blank)
    return np.array(values, dtype=float)


def _read_rows(reader, path, count: int) -> list[list[str]]:
    """The next ``count`` rows of ``reader`` (fewer at the end of the file);
    a row the csv module refuses raises ValueError naming the file and line."""
    try:
        return list(itertools.islice(reader, count))
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def parse_ais(path, schema: AisSchema | None = None) -> tuple[dict[str, RawTrack], int]:
    """Read an AIS CSV into per-vessel raw tracks.

    Rows read like ``csv.DictReader`` rows: blank lines are skipped, fields
    past the header are ignored and missing ones read as blank. Rows with
    unparseable essentials (timestamp, position, mmsi) or a non-finite SOG,
    COG or heading are skipped and counted. A heading of 511 (unavailable)
    falls back to the course over ground; a blank or non-finite hull length
    falls back to a per-type default. Duplicate (mmsi, timestamp) rows keep
    the first occurrence.

    The file is read by one ``csv.reader`` in blocks of ``_BLOCK_ROWS`` rows,
    and each block's columns are converted at once: DMA-layout timestamps
    in one integer array pass (:func:`_dma_seconds`), numbers by ``float``
    over each column. Only the texts those refuse are converted again one
    at a time, by :func:`_parse_timestamp` or ``float``. Between blocks only
    numeric columns of the accepted rows are kept, plus each vessel's first
    ship-type text; duplicates are dropped and rows grouped by vessel in
    time order by one stable sort over them all.
    Returns (tracks keyed by mmsi, skipped row count).
    """
    schema = schema or AisSchema()
    names = (
        schema.timestamp, schema.mmsi, schema.latitude, schema.longitude,
        schema.sog, schema.cog, schema.heading, schema.ship_type, schema.length,
    )
    codes: dict[str, int] = {}  # mmsi -> vessel code, in order of first accepted row
    type_texts: list[str] = []  # ship-type text of each vessel's first accepted row
    # per block, of its accepted rows: code, t, lat, lon, speed, heading, length
    blocks: list[tuple[np.ndarray, ...]] = []
    skipped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = _read_rows(reader, path, 1)
        if not first:
            raise ValueError(f"{path}: empty AIS file")
        header = first[0]
        missing = [c for c in names[:4] if c not in header]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing}")
        # a repeated name reads its last column; an absent one reads blank
        width = len(header)
        column = {name: i for i, name in enumerate(header)}
        present = [name for name in names if name in column]
        pick = operator.itemgetter(*(column[name] for name in present))
        while block := _read_rows(reader, path, _BLOCK_ROWS):
            if min(map(len, block)) < width:
                # blank lines are dropped, short rows padded with blank fields
                block = [row + [""] * (width - len(row)) for row in block if row]
                if not block:
                    continue
            n = len(block)
            picked = dict(zip(present, zip(*map(pick, block))))
            stamp, mmsi, lat, lon, sog, cog, heading, type_text, length = (
                picked.get(name, ("",) * n) for name in names
            )
            t = _timestamps(stamp, schema)
            mmsi = list(map(str.strip, mmsi))
            lat, lon = _floats(lat), _floats(lon)
            sog, cog = _floats(sog, 0.0), _floats(cog, 0.0)
            hdg = _floats(heading, HEADING_UNAVAILABLE)
            ok = (
                ~np.isnan(t)
                & np.fromiter(map(bool, mmsi), bool, n)
                & (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0)
                & np.isfinite(sog) & np.isfinite(cog) & np.isfinite(hdg)
            )
            rows = np.flatnonzero(ok)
            skipped += n - rows.size
            known = len(codes)
            code = np.fromiter(
                (codes.setdefault(m, len(codes)) for m in itertools.compress(mmsi, ok.tolist())),
                np.int64,
                rows.size,
            )
            # a vessel's first accepted row is the first row given its code
            new = np.flatnonzero(code >= known)
            new = new[np.unique(code[new], return_index=True)[1]]
            type_texts += [type_text[i].strip() for i in rows[new].tolist()]
            speed = sog[rows] * KNOTS_TO_MPS
            hdg = np.where(hdg[rows] == HEADING_UNAVAILABLE, cog[rows], hdg[rows])
            length = _floats(length)[rows]
            blocks.append((
                code,
                t[rows],
                lat[rows],
                lon[rows],
                np.where(speed > 0.0, speed, 0.0),
                np.mod(hdg, 360.0) * (math.pi / 180.0),  # math.radians, to the bit
                np.where((length > 0.0) & (length < math.inf), length, math.nan),
            ))
    if not codes:
        return {}, skipped
    code, t, lat, lon, speed, heading, length = (np.concatenate(c) for c in zip(*blocks))
    del blocks  # freed before the sorted copies are made, which sets the peak memory
    # by vessel, then time; the sort is stable, so of rows repeating an
    # (mmsi, time) the first in the file leads and alone is kept
    order = np.lexsort((t, code))
    vessel, t_o = code[order], t[order]
    kept = np.ones(order.size, bool)
    kept[1:] = (vessel[1:] != vessel[:-1]) | (t_o[1:] != t_o[:-1])
    order, vessel = order[kept], vessel[kept]
    # a vessel's hull length is the first valid one among its kept rows
    sized = np.sort(order[~np.isnan(length[order])])
    sized_vessels, first = np.unique(code[sized], return_index=True)
    lengths = dict(zip(sized_vessels.tolist(), length[sized[first]].tolist()))
    columns = [a[order] for a in (t, lat, lon, speed, heading)]
    bounds = [0, *(np.flatnonzero(np.diff(vessel)) + 1).tolist(), order.size]
    tracks = {}
    # every vessel keeps its first accepted row, so vessel k is the k-th run
    for k, (mmsi, a, b) in enumerate(zip(codes, bounds[:-1], bounds[1:])):
        vessel_type = VesselType.parse(type_texts[k])
        tracks[mmsi] = RawTrack(
            mmsi,
            *(col[a:b] for col in columns),
            vessel_type=vessel_type,
            length=lengths.get(k, DEFAULT_LENGTHS[vessel_type]),
        )
    return dict(sorted(tracks.items())), skipped


def _grid_times(dt: float, i0: int, n: int) -> np.ndarray:
    """The ``n`` scenario grid times from index ``i0`` on: ``dt`` times each
    index, which is how both :func:`resample` and an archive reload make
    them. An index outside int64 raises OverflowError."""
    return dt * np.arange(i0, i0 + n, dtype=np.int64)


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
    if raw.times.size < 2:
        return []
    times = raw.times - epoch
    north, east = project_arrays(raw.lat, raw.lon, origin)
    heading = np.unwrap(raw.heading)
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
        grid = _grid_times(dt, i0, i1 + 1 - i0)
        segments.append(
            VesselTrack(
                track_id=raw.mmsi,
                times=grid,
                north=np.interp(grid, seg_t, north[a:b]),
                east=np.interp(grid, seg_t, east[a:b]),
                speed=np.maximum(0.0, np.interp(grid, seg_t, raw.speed[a:b])),
                heading=np.interp(grid, seg_t, heading[a:b]),
                vessel_type=raw.vessel_type,
                length=float(raw.length),
            )
        )
    if len(segments) > 1:
        for k, seg in enumerate(segments):
            seg.track_id = f"{raw.mmsi}#{k}"
    return segments


def _ring_coords(rings: Sequence[Sequence[Sequence[float]]], origin) -> list[np.ndarray]:
    """Project rings of (lon, lat) number pairs to closed local north/east
    rings, all points in one call. Repeated consecutive points and a repeat
    of the first point at the end are dropped; a ring left with fewer than
    three points is dropped."""
    lonlat = [c for ring in rings for c in ring]
    north, east = project_arrays([c[1] for c in lonlat], [c[0] for c in lonlat], origin)
    points = zip(north.tolist(), east.tolist())
    out = []
    for ring in rings:
        pts: list[tuple[float, float]] = []
        for point in itertools.islice(points, len(ring)):
            if not pts or point != pts[-1]:
                pts.append(point)
        if len(pts) >= 2 and pts[0] == pts[-1]:
            pts.pop()
        if len(pts) >= 3:
            out.append(np.array(pts + pts[:1], dtype=float))
    return out


class ChartError(ValueError):
    """A chart file that :func:`load_chart` cannot read, named in ``path``."""

    def __init__(self, path, message: str):
        super().__init__(f"{path}: {message}")
        self.path = str(path)


def _obstacle_rings(feature, p: IngestParams) -> list[list[tuple[float, float]]]:
    """The rings of one GeoJSON feature as (lon, lat) pairs when it is an
    obstacle (no depth attribute, or shallower than ``draught_threshold``),
    else none. A feature of the wrong shape raises ValueError."""
    if not isinstance(feature, dict):
        raise ValueError("not a JSON object")
    geom = feature.get("geometry") or {}
    props = feature.get("properties") or {}
    for name, value in (("geometry", geom), ("properties", props)):
        if not isinstance(value, dict):
            raise ValueError(f"{name} is not a JSON object")
    depth = props.get(p.depth_key)
    if depth is not None:
        try:
            if isinstance(depth, bool):  # which float() reads as 0 or 1 m
                raise TypeError
            depth = float(depth)
        except (TypeError, ValueError):
            raise ValueError(f"{p.depth_key} {depth!r} is not a number") from None
        if depth >= p.draught_threshold:
            return []
    gtype = geom.get("type")
    if gtype not in ("Polygon", "MultiPolygon"):
        return []
    coords = geom.get("coordinates", [])
    polys = [coords] if gtype == "Polygon" else coords
    try:
        return [[(float(c[0]), float(c[1])) for c in ring] for poly in polys for ring in poly]
    # OverflowError: an integer coordinate too large for a float
    except (TypeError, ValueError, IndexError, KeyError, OverflowError):
        raise ValueError(f"{gtype} coordinates are not rings of [lon, lat] positions") from None


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
    polygon, holes included, contribute boundary. A file that is not such
    GeoJSON raises :class:`ChartError`, naming the feature at fault, and so
    does a chart whose boundary ``obstacle_spacing`` cannot discretize.
    """
    p = params or IngestParams()
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ChartError(path, f"not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ChartError(path, "root is not a JSON object")
    if doc.get("type") == "FeatureCollection":
        features = doc.get("features", [])
        if not isinstance(features, list):
            raise ChartError(path, "features is not a list")
    elif doc.get("type") == "Feature":
        features = [doc]
    else:
        features = [{"type": "Feature", "geometry": doc, "properties": {}}]
    rings = []
    for i, feature in enumerate(features):
        try:
            rings += _obstacle_rings(feature, p)
        except ValueError as exc:
            raise ChartError(path, f"feature {i}: {exc}") from None
    unclosed = sum(len(ring) >= 3 and ring[0] != ring[-1] for ring in rings)
    if unclosed:
        log.warning("%s: closed %d unclosed ring(s)", path, unclosed)
    try:
        return ObstacleSet(_ring_coords(rings, origin), spacing=p.obstacle_spacing)
    except ValueError as exc:
        raise ChartError(path, str(exc)) from None


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _grid_range(track: VesselTrack, dt: float) -> list[int]:
    """``[i0, n]`` such that the track's times are bitwise
    ``_grid_times(dt, i0, n)``; a track off that grid raises ValueError
    naming it, as its times would not survive the archive."""
    n = track.times.size
    try:
        i0 = round(float(track.times[0]) / dt)
        rebuilt = _grid_times(dt, i0, n)
    except (ValueError, OverflowError, ZeroDivisionError):
        rebuilt = None
    if rebuilt is None or not np.array_equal(rebuilt.view(np.int64), track.times.view(np.int64)):
        raise ValueError(
            f"track {track.track_id!r}: times are not on the scenario grid of dt={dt!r} "
            "(dt times consecutive integers), which is all an archive can store"
        )
    return [i0, n]


def _archived_grid(grid) -> tuple[int, int]:
    """An archived grid range ``[i0, n]``: a first index and a positive
    count whose indices all fit in int64. It builds no times, so a header
    can name a count that no sidecar backs without allocating it."""
    if not (
        isinstance(grid, list) and len(grid) == 2 and all(type(k) is int for k in grid)
    ):
        raise ValueError(f"{grid!r} is not [i0, n], two integers")
    i0, n = grid
    if n < 1:
        raise ValueError(f"point count {n} is not positive")
    if not -(2**63) <= i0 <= i0 + n <= 2**63:
        raise ValueError(f"index range [{i0}, {i0 + n}) is too large for int64")
    return i0, n


def _json_number(value) -> float:
    """``float`` of a JSON number: an int or a float, not a bool, which
    ``float`` takes as 0 or 1, nor text, which it would read as a number."""
    number = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return number


def _json_count(value) -> int:
    """A JSON integer that is not negative: an int, not a bool or a float."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{value!r} is not a count")
    return value


def _number_pair(names: str):
    """The reader of ``[names]``, two JSON numbers: an archive origin or model support."""
    def read(value) -> tuple[float, float]:
        if not (isinstance(value, list) and len(value) == 2):
            raise ValueError(f"{value!r} is not [{names}], two numbers")
        return _json_number(value[0]), _json_number(value[1])
    return read


def _json_numbers(value) -> np.ndarray:
    """A flat JSON list of numbers as a float array, its entries' types
    checked in one pass: ``np.asarray`` reads a bool or a text as a number."""
    if not isinstance(value, list):
        raise ValueError(f"{value!r} is not a list of numbers")
    if not set(map(type, value)) <= {int, float}:
        bad = next(v for v in value if type(v) not in (int, float))
        raise ValueError(f"{bad!r} is not a number")
    return np.array(value, dtype=float)


def json_text(doc) -> str:
    """The text of every JSON document the pipeline writes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read(holder, name, convert, where: str | None = None):
    """Entry ``name`` of an archive header object or list passed through
    ``convert``; errors are prefixed with ``where`` (by default ``name``)."""
    where = where or name
    try:
        value = holder[name]
    except (KeyError, IndexError):
        raise ValueError(f"{where}: missing") from None
    try:
        return convert(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _sidecar_values(entry: Mapping, data: bytes, count: int, where: str) -> np.ndarray:
    """The ``count`` float64 values of sidecar bytes ``data``, native-endian
    and writeable. The header's sidecar ``entry`` must record ``count``
    values' bytes, and ``data`` must hold that many bytes and have the
    sha256 it records; a mismatch raises ValueError prefixed with ``where``."""
    size = _read(entry, "bytes", _json_count, "sidecar bytes")
    if size != 8 * count:
        raise ValueError(f"{where}: the header's track grid ranges and ring point counts "
                         f"call for {8 * count} bytes, but it records {size}")
    if len(data) != size:
        raise ValueError(f"{where}: holds {len(data)} bytes, the header records {size}")
    digest = hashlib.sha256(data).hexdigest()
    if digest != entry.get("sha256"):
        raise ValueError(f"{where}: sha256 {digest} is not the {entry.get('sha256')!r} "
                         "that the header records")
    return np.frombuffer(data, "<f8").astype(float)


def sidecar_path(path) -> Path:
    """The file of the arrays of the archive whose header is at ``path``:
    the same name with the suffix ``.f64``, which a header cannot have."""
    path = Path(path)
    if path.suffix == ".f64":
        raise ValueError(f"{path}: an archive header cannot have the sidecar suffix")
    return path.with_suffix(".f64")


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

    def to_archive(self) -> tuple[dict, bytes]:
        """The archive's header document and sidecar bytes, laid out as the
        module docstring describes. A track whose times are not bitwise the
        grid ``dt * np.arange(i0, i0 + n)`` raises ValueError naming it."""
        tracks = {
            tid: (tr, _grid_range(tr, self.dt)) for tid, tr in sorted(self.tracks.items())
        }
        rings = self.obstacles.polygons
        data = np.concatenate([
            np.empty(0),
            *(getattr(tr, name) for name in TRACK_ARRAYS for tr, _ in tracks.values()),
            *(ring.ravel() for ring in rings),
        ]).astype("<f8", copy=False).tobytes()
        header = {
            "schema_version": SCENARIO_SCHEMA_VERSION,
            "origin": [self.origin[0], self.origin[1]],
            "epoch": self.epoch,
            "dt": self.dt,
            "tracks": {
                tid: {"grid": grid, "length": tr.length, "vessel_type": tr.vessel_type.value}
                for tid, (tr, grid) in tracks.items()
            },
            "obstacles": {"spacing": self.obstacles.spacing, "rings": list(map(len, rings))},
            "sidecar": {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()},
            "metadata": self.metadata,
        }
        return header, data

    @classmethod
    def from_archive(cls, doc: Mapping, data: bytes, where: str = "sidecar") -> "Scenario":
        """The scenario of an archive's header document ``doc`` and sidecar
        bytes ``data`` (called ``where`` in messages). Each track's header
        entries are checked track by track, the sidecar against the header
        (:func:`_sidecar_values`), and :class:`VesselTrack`'s checks run once
        over all tracks laid end to end; each track and ring holds slices of
        the sidecar's values. A damaged archive raises ValueError naming the
        header entry, track, ring or sidecar at fault. The header's schema
        is :meth:`load`'s to check. No track's times are built before the
        sidecar's size has bounded the header's counts."""
        dt = _read(doc, "dt", _json_number)
        if not 0.0 < dt < math.inf:  # every track's times are built from it
            raise ValueError(f"dt {dt!r} is not a positive finite number")
        origin = _read(doc, "origin", _number_pair("lat, lon"))
        epoch = _read(doc, "epoch", _json_number)
        spacing = _read(doc["obstacles"], "spacing", _json_number, "obstacle spacing")
        rings = doc["obstacles"]["rings"]
        ring_sizes = [
            _read(rings, i, _json_count, f"obstacle ring {i} point count")
            for i in range(len(rings))
        ]
        ids, grids, lengths, types = [], [], [], []
        for tid, td in doc["tracks"].items():
            at = f"track {tid!r}"
            grids.append(_read(td, "grid", _archived_grid, f"{at} grid"))
            lengths.append(_read(td, "length", _json_number, f"{at} length"))
            types.append(_read(td, "vessel_type", VesselType, f"{at} vessel_type"))
            ids.append(tid)
        bounds = [0, *itertools.accumulate(count for _, count in grids)]
        ends = [0, *itertools.accumulate(ring_sizes)]
        n = bounds[-1]
        values = _sidecar_values(_read(doc, "sidecar", dict), data, 4 * n + 2 * ends[-1], where)
        north, east, speed, heading = values[: 4 * n].reshape(4, n)
        points = values[4 * n:].reshape(-1, 2)
        times = np.concatenate([np.empty(0), *(_grid_times(dt, i0, k) for i0, k in grids)])
        heading = _check_tracks(ids, bounds, times, north, east, speed, heading, lengths)
        tracks = {}
        for tid, a, b, length, vessel_type in zip(ids, bounds, bounds[1:], lengths, types):
            tracks[tid] = VesselTrack._checked(
                track_id=tid,
                times=times[a:b],
                north=north[a:b],
                east=east[a:b],
                speed=speed[a:b],
                heading=heading[a:b],
                length=length,
                vessel_type=vessel_type,
            )
        return cls(
            origin=origin,
            epoch=epoch,
            dt=dt,
            tracks=tracks,
            obstacles=ObstacleSet([points[a:b] for a, b in zip(ends, ends[1:])], spacing=spacing),
            metadata=dict(doc.get("metadata", {})),
        )

    def save(self, path) -> None:
        """Write the archive: :meth:`to_archive`'s header, as
        :func:`json_text`, to ``path`` and its sidecar to :func:`sidecar_path`
        of ``path``. Both are built before either file is opened, so a
        track :meth:`to_archive` refuses writes nothing."""
        header, data = self.to_archive()
        text = json_text(header)
        sidecar_path(path).write_bytes(data)
        Path(path).write_text(text, encoding="utf-8")

    @classmethod
    def load(cls, source, header: bytes | None = None) -> "Scenario":
        """The archive whose header is the file at path ``source`` and
        whose sidecar lies beside it (:func:`sidecar_path`); ``header`` is
        the header file's bytes when they are already read. Each file is
        read once, and the bytes checked are the bytes parsed. A sidecar
        that cannot be read raises ValueError naming it."""
        path = Path(source)
        doc = json.loads((path.read_bytes() if header is None else header).decode("utf-8"))
        version = doc.get("schema_version")
        # before the sidecar, which older ones lack; 4.0 and "4" are no schema
        if type(version) is not int or version != SCENARIO_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported scenario schema {version!r} (expected {SCENARIO_SCHEMA_VERSION}); "
                "re-run `seamanship ingest` on the archive's AIS and chart sources"
            )
        sidecar = sidecar_path(path)
        try:
            data = sidecar.read_bytes()
        except OSError as exc:
            raise ValueError(f"{sidecar}: {exc.strerror}") from None
        return cls.from_archive(doc, data, str(sidecar))


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
    all_lat = np.concatenate([tr.lat for tr in raw_tracks.values()])
    all_lon = np.concatenate([tr.lon for tr in raw_tracks.values()])
    origin = (float(np.mean(all_lat)), float(np.mean(all_lon)))
    epoch = min(float(tr.times.min()) for tr in raw_tracks.values())
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
