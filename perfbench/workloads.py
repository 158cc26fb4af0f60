"""Seeded inputs and operation lists of the three benchmark workloads.

Each workload writes an AIS CSV, a GeoJSON chart where it has one, and a
JSON config, and lists the CLI operations of one measurement cycle. The
seed only jitters positions, courses, speeds and report phases. Vessel
count, encounter geometry, chart size and the operation list are fixed, so
runs with different seeds do the same amount of work and can be compared.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("open_sea", "channel_chart", "traffic_day")

COLUMNS = ["# Timestamp", "MMSI", "Latitude", "Longitude", "SOG", "COG",
           "Heading", "Ship type", "Length"]
# scenes start at midnight on 7 September 2023 and stay within the month
EPOCH_DAY, EPOCH_MONTH_YEAR = 7, "09/2023"
LAT0, LON0 = 56.0, 11.5
LAT_PER_M = math.degrees(1.0 / 6_371_000.0)
LON_PER_M = LAT_PER_M / math.cos(math.radians(LAT0))
KNOT = 1852.0 / 3600.0
MODEL_TYPES = ("cargo", "fishing", "other", "passenger", "pilot", "tanker")
# traffic_day scores and paths run this grid so the planner does almost nothing
ONE_CANDIDATE = ("--set", "search.n_alpha=1", "--set", "search.n_v=1",
                 "--set", "search.n_t=1")


@dataclass(frozen=True)
class Vessel:
    """Straight-course vessel whose speed ramps linearly from ``v0`` to
    ``v1`` between ``ramp[0]`` and ``ramp[1]`` seconds; it sits at ``anchor``
    (north, east) at ``t_anchor``."""

    mmsi: str
    course_deg: float
    v0: float
    anchor: tuple[float, float]
    t_anchor: float
    t_first: int
    t_last: int
    interval: int = 10
    v1: float | None = None
    ramp: tuple[float, float] = (0.0, 0.0)
    ship_type: str = "Cargo"
    length: str = "150"
    heading_511: bool = False
    gap: tuple[int, int] | None = None

    def distance(self, t: float) -> float:
        """Distance run since t = 0, metres."""
        v1 = self.v0 if self.v1 is None else self.v1
        a, b = self.ramp
        if b <= a:
            return self.v0 * t
        t1 = min(max(t, 0.0), a)
        t2 = min(max(t, a), b) - a
        t3 = max(t - b, 0.0)
        acc = (v1 - self.v0) / (b - a)
        return self.v0 * t1 + self.v0 * t2 + 0.5 * acc * t2 * t2 + v1 * t3

    def speed(self, t: float) -> float:
        v1 = self.v0 if self.v1 is None else self.v1
        a, b = self.ramp
        if b <= a or t <= a:
            return self.v0
        if t >= b:
            return v1
        return self.v0 + (v1 - self.v0) * (t - a) / (b - a)

    def position(self, t: float) -> tuple[float, float]:
        run = self.distance(t) - self.distance(self.t_anchor)
        c = math.radians(self.course_deg)
        return self.anchor[0] + run * math.cos(c), self.anchor[1] + run * math.sin(c)

    def report_times(self) -> list[int]:
        times = list(range(self.t_first, self.t_last + 1, self.interval))
        if self.gap is not None:
            times = [t for t in times if not self.gap[0] <= t < self.gap[1]]
        return times

    def row(self, t: int, heading_511: bool) -> list[str]:
        north, east = self.position(t)
        days, rest = divmod(t, 86400)
        stamp = (f"{EPOCH_DAY + days:02d}/{EPOCH_MONTH_YEAR} "
                 f"{rest // 3600:02d}:{rest // 60 % 60:02d}:{rest % 60:02d}")
        course = self.course_deg % 360.0
        heading = "511" if heading_511 else f"{round(course) % 360}"
        return [stamp, self.mmsi, f"{LAT0 + north * LAT_PER_M:.7f}",
                f"{LON0 + east * LON_PER_M:.7f}", f"{self.speed(t) / KNOT:.2f}",
                f"{course:.1f}", heading, self.ship_type, self.length]


def _heading_vec(course_deg: float) -> tuple[float, float]:
    c = math.radians(course_deg)
    return math.cos(c), math.sin(c)


def _offset(point, course_deg, ahead, starboard):
    """Point moved ``ahead`` metres along the course and ``starboard`` to
    its right."""
    fn, fe = _heading_vec(course_deg)
    return point[0] + ahead * fn - starboard * fe, point[1] + ahead * fe + starboard * fn


def _ring(center, radius, n_vertices, phase):
    """Closed star-shaped ring as GeoJSON (lon, lat) pairs."""
    coords = []
    for k in range(n_vertices):
        ang = phase + 2.0 * math.pi * k / n_vertices
        r = radius * (0.75 + 0.45 * (k * 5 % n_vertices) / n_vertices)
        north = center[0] + r * math.cos(ang)
        east = center[1] + r * math.sin(ang)
        coords.append([round(LON0 + east * LON_PER_M, 7), round(LAT0 + north * LAT_PER_M, 7)])
    coords.append(list(coords[0]))
    return coords


def _rect(north_lo, north_hi, east_lo, east_hi):
    corners = [(north_lo, east_lo), (north_lo, east_hi), (north_hi, east_hi),
               (north_hi, east_lo), (north_lo, east_lo)]
    return [[round(LON0 + e * LON_PER_M, 7), round(LAT0 + n * LAT_PER_M, 7)]
            for n, e in corners]


def _feature(ring, depth):
    return {"type": "Feature", "properties": {"depth": depth},
            "geometry": {"type": "Polygon", "coordinates": [ring]}}


def _island_field(rng, half_extent, cell, clear_east, n_deep_every):
    """Shoals and islands on a grid, none within ``clear_east`` metres of the
    north-south lane through the origin. Sizes follow the grid, so the
    boundary length is the same for every seed; the seed moves the islands
    and turns their outlines."""
    features = []
    steps = int(half_extent // cell)
    count = 0
    for i in range(-steps, steps):
        for j in range(-steps, steps):
            radius = (0.15 + 0.15 * ((7 * i + 3 * j) % 10) / 9.0) * cell
            if abs((j + 0.5) * cell) - 1.25 * radius - 0.05 * cell < clear_east:
                continue
            center = ((i + 0.5) * cell + rng.uniform(-0.05, 0.05) * cell,
                      (j + 0.5) * cell + rng.uniform(-0.05, 0.05) * cell)
            count += 1
            depth = 20.0 if count % n_deep_every == 0 else round(rng.uniform(0.0, 8.0), 1)
            ring = _ring(center, radius, 12 + count % 5, rng.uniform(0, math.pi))
            features.append(_feature(ring, depth))
    return features


@dataclass
class Op:
    """One CLI invocation of a cycle."""

    kind: str  # ingest | fit | score | path
    key: str
    argv: list[str]
    out: str
    steps: int = 0
    rows: int = 0
    attempt: int = 0  # number of this op's latest execution in the run


@dataclass
class Plan:
    """Generated inputs of one workload and the operations that use them.

    Set-up runs ``prepare`` and then ``warmup``; the measurement repeats
    ``cycle``; the reference check runs ``reference`` in order and compares
    the numbers of its score and path results with the recorded ones.
    ``expected`` holds what ``ingest`` must report for these inputs.
    """

    inputs: dict[str, Path]
    expected: dict
    prepare: list[Op]
    warmup: Op
    cycle: list[Op]
    reference: list[Op]


def _write_csv(path: Path, rows) -> int:
    """Write the header and ``rows`` as they are produced, so the benchmark
    process does not hold the whole file; returns the data row count."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow(row)
            n += 1
    return n


def _reports(vessels) -> list[tuple[int, str, int, int]]:
    """(time, mmsi, vessel index, report index) of every report, in time
    then MMSI order."""
    return sorted((t, v.mmsi, k, n) for k, v in enumerate(vessels)
                  for n, t in enumerate(v.report_times()))


def _plain_rows(vessels):
    for t, _, k, _ in _reports(vessels):
        yield vessels[k].row(t, vessels[k].heading_511)


# --- open_sea -----------------------------------------------------------

OPEN_SEA_T_ENC = 700.0
OPEN_SEA_CLUSTERS = ((0.0, 0.0), (0.0, 3000.0), (3000.0, 0.0), (3000.0, 3000.0))


def _open_sea_vessels(rng: random.Random) -> tuple[list[Vessel], list[str]]:
    vessels: list[Vessel] = []
    owns: list[str] = []
    t_enc = OPEN_SEA_T_ENC
    for k, center in enumerate(OPEN_SEA_CLUSTERS):
        course = 20.0 + 90.0 * k + rng.uniform(-0.5, 0.5)
        v_own = 12.0 * KNOT * rng.uniform(0.995, 1.005)
        base = f"2190{k}"
        own = Vessel(f"{base}0001", course, v_own,
                     (center[0] + rng.uniform(-5, 5), center[1] + rng.uniform(-5, 5)),
                     t_enc, 0 if k == 0 else rng.randrange(0, 10), 1200)
        owns.append(own.mmsi)
        head_on = Vessel(f"{base}0002", course + 180.0 + rng.uniform(-0.5, 0.5),
                         11.0 * KNOT * rng.uniform(0.995, 1.005),
                         _offset(center, course, 0.0, 150.0 + rng.uniform(-5, 5)),
                         t_enc + rng.uniform(-2, 2), rng.randrange(0, 10), 1200,
                         ship_type="Tanker", length="180")
        # tracks of the crossing targets in clusters 1 and 3 stop mid-scene,
        # so the planner holds them at their last state
        crossing = Vessel(f"{base}0003", course - 90.0 + rng.uniform(-0.5, 0.5),
                          10.0 * KNOT * rng.uniform(0.995, 1.005),
                          center, t_enc + 40.0 + rng.uniform(-2, 2),
                          rng.randrange(0, 10), 560 if k % 2 else 1200,
                          ship_type="Passenger", length="120")
        overtaken = Vessel(f"{base}0004", course + rng.uniform(-0.5, 0.5),
                           7.0 * KNOT * rng.uniform(0.995, 1.005),
                           _offset(center, course, v_own * 150.0, 80.0 + rng.uniform(-5, 5)),
                           t_enc + 150.0, rng.randrange(0, 10), 1200,
                           ship_type="Fishing", length="", heading_511=True)
        vessels += [own, head_on, crossing, overtaken]
    # background traffic on lanes between the clusters
    lanes = (((1500.0, -6000.0), 90.0), ((1500.0 + 600.0, 9000.0), 270.0),
             ((-6000.0, 1500.0), 0.0), ((9000.0, 1500.0 - 600.0), 180.0))
    for i in range(4):
        start, course = lanes[i % 4]
        fn, fe = _heading_vec(course)
        along = 1000.0 + rng.uniform(-10.0, 10.0)
        anchor = (start[0] + along * fn, start[1] + along * fe)
        vessels.append(Vessel(f"2195{i:05d}", course + rng.uniform(-0.5, 0.5),
                              (10.0 + i) * KNOT * rng.uniform(0.995, 1.005), anchor, 0.0,
                              rng.randrange(0, 10), 1200,
                              ship_type=("Cargo", "Tanker", "Other")[i % 3],
                              length=str((90, 140, 200, 120)[i])))
    return vessels, owns


def _op(kind: str, key: str, argv: list[str], out: Path, **extra) -> Op:
    return Op(kind, key, argv + ["--output", str(out)], str(out), **extra)


def _spread(queries: list[Op]) -> list[Op]:
    """Queries reordered so the path queries sit evenly among the scores."""
    scores = [op for op in queries if op.kind == "score"]
    paths = [op for op in queries if op.kind == "path"]
    every = len(scores) // len(paths)
    out = []
    for i, path in enumerate(paths):
        out += scores[i * every:(i + 1) * every] + [path]
    return out + scores[len(paths) * every:]


def _cycle(queries: list[Op], ingest: Op, fit: Op) -> list[Op]:
    """One cycle: the queries, spread, with an ingest and fit pair before
    each half. Two pairs half a cycle apart give these short operations
    twice the samples, and slow and fast spells of the machine fall on
    every kind of operation alike."""
    spread = _spread(queries)
    half = len(spread) // 2
    return [ingest, fit] + spread[:half] + [ingest, fit] + spread[half:]


def open_sea(seed: int, root: Path) -> Plan:
    rng = random.Random(f"open_sea:{seed}")
    vessels, owns = _open_sea_vessels(rng)
    inputs = {"ais": root / "inputs" / "ais.csv", "config": root / "inputs" / "config.json"}
    n_rows = _write_csv(inputs["ais"], _plain_rows(vessels))
    inputs["config"].write_text(json.dumps({"ingest": {"dt": 10.0}}, indent=2) + "\n")
    # query times where the level-wise search keeps one survivor per level
    # for every seed, so each operation does the same work
    scores = [(owns[k], t, t) for k, start in ((0, 560), (1, 500), (3, 500))
              for t in (start, start + 10)]
    paths = [(owns[1], 500), (owns[3], 500)]
    return _scene_plan(root, inputs, n_rows, scores, paths,
                       {"vessels": len(vessels), "skipped_rows": 0})


# --- channel_chart ------------------------------------------------------

CHANNEL_QUERY = 450


def channel_chart(seed: int, root: Path) -> Plan:
    rng = random.Random(f"channel_chart:{seed}")
    v = 5.0
    vessels = [
        Vessel("219100001", 0.0, v * rng.uniform(0.995, 1.005),
               (-2000.0, -40.0 + rng.uniform(-5, 5)), 0.0, 0, 1200, length="100"),
        Vessel("219100002", 180.0, v * rng.uniform(0.995, 1.005),
               (5000.0, 40.0 + rng.uniform(-5, 5)), 0.0, rng.randrange(0, 10), 1200,
               length="100"),
        Vessel("219100003", 0.0, 7.0 * rng.uniform(0.995, 1.005),
               (-3200.0, 10.0 + rng.uniform(-5, 5)), 0.0, rng.randrange(0, 10), 1200,
               ship_type="Passenger", length="80"),
        Vessel("219100004", 180.0, v * rng.uniform(0.995, 1.005),
               (8000.0, 45.0 + rng.uniform(-5, 5)), 0.0, 300 + rng.randrange(0, 10), 1200,
               ship_type="Tanker", length="120"),
    ]
    features = [_feature(_rect(-4000.0, 8000.0, -330.0, -130.0), 3.0),
                _feature(_rect(-4000.0, 8000.0, 130.0, 330.0), 3.0)]
    features += _island_field(rng, 22000.0, 2000.0, 1800.0, n_deep_every=10)
    inputs = {"ais": root / "inputs" / "ais.csv", "chart": root / "inputs" / "chart.json",
              "config": root / "inputs" / "config.json"}
    n_rows = _write_csv(inputs["ais"], _plain_rows(vessels))
    inputs["chart"].write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    inputs["config"].write_text(json.dumps({"ingest": {"dt": 10.0}}, indent=2) + "\n")
    owns = ("219100001", "219100002")
    scores = [(own, t, t) for own in owns for t in (CHANNEL_QUERY - 10, CHANNEL_QUERY + 10)]
    paths = [(own, CHANNEL_QUERY) for own in owns]
    return _scene_plan(root, inputs, n_rows, scores, paths,
                       {"vessels": len(vessels), "skipped_rows": 0})


def _scene_plan(root: Path, inputs, n_rows, scores, paths, expected) -> Plan:
    """Plan of open_sea and channel_chart: set-up ingests the scene once;
    a cycle runs the score windows ``(ownship, t_start, t_end)`` and
    safest-path sweeps ``(ownship, time)`` against the set-up archive, and
    twice re-ingests and fits the scene's own files."""
    config = str(inputs["config"])
    scene = root / "scene" / "scenario.json"
    ingest_argv = ["ingest", "--config", config, "--ais", str(inputs["ais"])]
    if "chart" in inputs:
        ingest_argv += ["--chart", str(inputs["chart"])]
    prepare = [_op("ingest", "scene-ingest", ingest_argv, scene.parent, rows=n_rows)]
    ingest = _op("ingest", "ingest", ingest_argv, root / "out" / "ingest", rows=n_rows)
    fit = _op("fit", "fit", ["fit-speed-model", "--config", config, "--scenario", str(scene)],
              root / "out" / "fit")
    queries = [_op("score", f"score-{own}-{lo}",
                   ["score", "--config", config, "--scenario", str(scene), "--ownship", own,
                    "--t-start", str(lo), "--t-end", str(hi)],
                   root / "out" / f"score-{own}-{lo}", steps=(hi - lo) // 10 + 1)
               for own, lo, hi in scores]
    path_argv = {own: ["safest-path", "--config", config, "--scenario", str(scene),
                       "--ownship", own, "--time", str(t)] for own, t in paths}
    queries += [_op("path", f"path-{own}", argv + ["--sweep-nt", "1,2,3"],
                    root / "out" / f"path-{own}") for own, argv in path_argv.items()]
    cycle = _cycle(queries, ingest, fit)
    # path.json does not depend on the sweep, so the reference skips it
    own = paths[0][0]
    reference = prepare + [queries[0], _op("path", f"path-{own}", path_argv[own],
                                           root / "out" / f"path-{own}")]
    return Plan(inputs, expected, prepare, queries[0], cycle, reference)


# --- traffic_day --------------------------------------------------------

TRAFFIC_VESSELS = 80
TRAFFIC_SPACING = 1080  # seconds between departures over the day
TRAFFIC_HALF_LANE = 18000.0
TRAFFIC_TYPES = ("Cargo", "Cargo", "Tanker", "Passenger", "Cargo", "Fishing",
                 "Cargo", "Tanker", "Pilot", "Cargo")


def _traffic_vessels(rng: random.Random) -> list[Vessel]:
    # lanes: (course, start point); the two north-south lanes pass 120 m
    # apart so head-on meetings violate the domain and yield encounters
    lanes = ((0.0, (-TRAFFIC_HALF_LANE, -60.0)), (180.0, (TRAFFIC_HALF_LANE, 60.0)),
             (90.0, (400.0, -TRAFFIC_HALF_LANE)), (270.0, (-400.0, TRAFFIC_HALF_LANE)))
    vessels = []
    for i in range(TRAFFIC_VESSELS):
        course, start = lanes[i % 4]
        depart = 0 if i == 0 else i * TRAFFIC_SPACING + rng.randrange(-5, 6)
        v0 = 12.0 * KNOT * rng.uniform(0.995, 1.005)
        v1 = 8.0 * KNOT * rng.uniform(0.99, 1.01)
        transit = int(2.0 * TRAFFIC_HALF_LANE / (0.5 * (v0 + v1)))
        ramp = (depart + 0.3 * transit, depart + 0.45 * transit)
        gap = None
        if i % 20 == 7:
            gap = (depart + transit // 3, depart + transit // 3 + 600)
        vessels.append(Vessel(
            f"2192{i:05d}", course + rng.uniform(-0.5, 0.5), v0,
            (start[0] + rng.uniform(-5, 5), start[1] + rng.uniform(-5, 5)), float(depart),
            depart, depart + int(transit * 0.95), interval=15, v1=v1, ramp=ramp,
            ship_type=TRAFFIC_TYPES[i % len(TRAFFIC_TYPES)],
            length="" if i % 7 == 3 else str(100 + 10 * (i % 9)),
            heading_511=(i % 5 == 0), gap=gap))
    return vessels


def _traffic_rows(vessels, tally: dict):
    """Clean rows plus the dirt the parser handles: malformed rows,
    duplicated (mmsi, timestamp) rows and stray heading-511 reports. Counts
    the malformed rows in ``tally["malformed"]``."""
    breakers = (
        lambda r: [r[0], r[1], "91.5000000"] + r[3:],
        lambda r: [r[0], r[1], "", ""] + r[4:],
        lambda r: ["31/02/2023 25:61:00"] + r[1:],
        lambda r: [r[0], "   "] + r[2:],
        lambda r: [r[0], r[1], "fifty-six"] + r[3:],
    )
    tally["malformed"] = 0
    for n, (t, _, k, m) in enumerate(_reports(vessels)):
        row = vessels[k].row(t, vessels[k].heading_511 or m % 31 == 5)
        if n % 97 == 41:
            yield breakers[tally["malformed"] % len(breakers)](row)
            tally["malformed"] += 1
            continue
        yield row
        if n % 53 == 17:
            yield list(row)


def _traffic_chart(rng) -> list[dict]:
    """Shoals in the four quadrants between the lanes, clear of traffic."""
    features = []
    for qn in (-1, 1):
        for qe in (-1, 1):
            for k in range(10):
                center = (qn * rng.uniform(3000.0, 15000.0), qe * rng.uniform(3000.0, 15000.0))
                ring = _ring(center, 200.0 + 40.0 * k, 10 + k % 4, rng.uniform(0, math.pi))
                features.append(_feature(ring, round(rng.uniform(0.0, 12.0), 1)))
    return features


def traffic_day(seed: int, root: Path) -> Plan:
    rng = random.Random(f"traffic_day:{seed}")
    vessels = _traffic_vessels(rng)
    inputs = {"ais": root / "inputs" / "ais.csv", "chart": root / "inputs" / "chart.json",
              "config": root / "inputs" / "config.json"}
    tally: dict = {}
    n_rows = _write_csv(inputs["ais"], _traffic_rows(vessels, tally))
    inputs["chart"].write_text(json.dumps({"type": "FeatureCollection",
                                           "features": _traffic_chart(rng)}))
    inputs["config"].write_text(json.dumps(
        {"ingest": {"dt": 10.0, "max_gap": 300.0}, "speed": {"min_samples": 10}},
        indent=2) + "\n")
    config = str(inputs["config"])
    scene = root / "scene" / "scenario.json"
    models = root / "models"
    model_args = [a for t in MODEL_TYPES for a in ("--model", str(models / f"model_{t}.json"))]
    ingest = _op("ingest", "ingest", ["ingest", "--config", config, "--ais", str(inputs["ais"]),
                                      "--chart", str(inputs["chart"])],
                 scene.parent, rows=n_rows)
    fit = _op("fit", "fit", ["fit-speed-model", "--config", config, "--scenario", str(scene)],
              models)
    # ownships of each lane, graded over one minute around mid-transit when
    # they meet opposing traffic
    picks = [vessels[i] for i in (21, 34, 42, 55)]
    mids = {v.mmsi: 10 * ((v.t_first + (v.t_last - v.t_first) // 2) // 10) for v in picks}
    queries = [_op("score", f"score-{own}",
                   ["score", "--config", config, "--scenario", str(scene), "--ownship", own,
                    "--t-start", str(mid), "--t-end", str(mid + 50)]
                   + model_args + list(ONE_CANDIDATE),
                   root / "out" / f"score-{own}", steps=6)
               for own, mid in mids.items()]
    queries += [_op("path", f"path-{v.mmsi}",
                    ["safest-path", "--config", config, "--scenario", str(scene),
                     "--ownship", v.mmsi, "--time", str(mids[v.mmsi])] + list(ONE_CANDIDATE),
                    root / "out" / f"path-{v.mmsi}")
                for v in picks]
    splits = sum(1 for v in vessels if v.gap is not None)
    expected = {"vessels": len(vessels) + splits, "skipped_rows": tally["malformed"]}
    return Plan(inputs, expected, [], ingest, _cycle(queries, ingest, fit),
                [ingest, fit, queries[0], queries[4]])


GENERATORS = {"open_sea": open_sea, "channel_chart": channel_chart, "traffic_day": traffic_day}


def generate(workload: str, seed: int, root: Path) -> Plan:
    """Write the workload's inputs for ``seed`` under ``root`` and return
    its plan. The same seed writes the same bytes."""
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, root)
