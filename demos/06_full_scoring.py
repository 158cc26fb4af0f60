"""End to end: AIS export in, good-seamanship score out.

Two cargo ships meet head-on inside a dredged lane flanked by shoals,
with barely sixty meters between their tracks. The raw CSV is parsed and
resampled onto a shared grid, the chart becomes obstacle polygons,
per-step risks are computed, and a planner establishes the floor: the
risk even a perfectly handled ship could not have avoided. Grading
against that floor credits the navigator for the part of the squeeze
that was nobody's fault. Everything here is also reachable through the
command line; the equivalent invocations are printed at the end.
"""

import csv
import json
import math
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from seamanship import (
    Hyperparameters,
    IngestParams,
    KinodynamicParams,
    RiskParams,
    build_scenario,
    compute_risk_series,
    score_series,
    sr_star_series,
)

COLUMNS = ["# Timestamp", "MMSI", "Latitude", "Longitude", "SOG", "COG",
           "Heading", "Ship type", "Length"]
T0 = datetime(2023, 9, 7, 6, 0, 0)
LAT_PER_M = math.degrees(1.0 / 6371000.0)
LON_PER_M = LAT_PER_M / math.cos(math.radians(55.01))


def lane(mmsi, lat0_m, lon_m, course_deg, n=8, step=60.0):
    """9.72 kn (5 m/s) along a meridian, reported once a minute."""
    sign = 1.0 if course_deg == 0 else -1.0
    rows = []
    for k in range(n):
        t = (T0 + timedelta(seconds=k * step)).strftime("%d/%m/%Y %H:%M:%S")
        lat = 55.0 + (lat0_m + sign * 5.0 * k * step) * LAT_PER_M
        rows.append([t, str(mmsi), f"{lat:.7f}", f"{lon_m * LON_PER_M:.7f}",
                     "9.72", f"{course_deg:.1f}", f"{course_deg:.1f}",
                     "Cargo", "100"])
    return rows


def shoal(lon_lo_m, lon_hi_m, lat_lo_m, lat_hi_m, depth):
    ring = [[lon_lo_m * LON_PER_M, 55.0 + lat_lo_m * LAT_PER_M],
            [lon_hi_m * LON_PER_M, 55.0 + lat_lo_m * LAT_PER_M],
            [lon_hi_m * LON_PER_M, 55.0 + lat_hi_m * LAT_PER_M],
            [lon_lo_m * LON_PER_M, 55.0 + lat_hi_m * LAT_PER_M],
            [lon_lo_m * LON_PER_M, 55.0 + lat_lo_m * LAT_PER_M]]
    return {"type": "Feature", "properties": {"depth": depth},
            "geometry": {"type": "Polygon", "coordinates": [ring]}}


tmp = tempfile.TemporaryDirectory(prefix="seamanship_demo_")
work = Path(tmp.name)
ais = work / "strait.csv"
with ais.open("w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(COLUMNS)
    writer.writerows(lane(219000111, 0.0, 0.0, 0.0))       # northbound, ownship
    writer.writerows(lane(219000222, 1500.0, 60.0, 180.0))  # southbound, 60 m east

chart = work / "chart.json"
chart.write_text(json.dumps({
    "type": "FeatureCollection",
    "features": [shoal(-330.0, -130.0, -500.0, 2500.0, 3.0),
                 shoal(130.0, 330.0, -500.0, 2500.0, 3.0)],
}))

scenario = build_scenario(ais, chart, IngestParams(dt=10.0))
grid = scenario.time_grid
print(f"tracks: {sorted(scenario.tracks)}")
print(f"grid: {grid[0]:.0f}..{grid[-1]:.0f} s, dt {scenario.dt:.0f} s, "
      f"obstacle polygons: {len(scenario.obstacles.polygons)}\n")

own = "219000111"
risk_params = RiskParams(horizon_T=120.0, horizon_step=60.0)
series = compute_risk_series(scenario.tracks, own, 60.0, 240.0,
                             obstacles=scenario.obstacles, params=risk_params)

# Best-achievable floor at every step of the window, then both grades:
# against the floor, and against zero for the un-normalized baseline.
hyper = Hyperparameters(n_t=2, n_alpha=5, n_v=3, horizon_T=120.0)
kin = KinodynamicParams(v_min=0.0, v_max=10.0)
star = sr_star_series(scenario.tracks, own, series.times, hyper, kin,
                      risk_params, obstacles=scenario.obstacles)

proposed = score_series(own, series.times, series.scenario, star, risk_params=risk_params)
baseline = score_series(own, series.times, series.scenario, None, risk_params=risk_params)

print(f"{'t':>5} {'cr':>7} {'gr':>7} {'sr':>7} {'floor':>7} {'graded':>7}")
for i in range(0, len(series.times), 2):
    print(f"{series.times[i]:>5.0f} {series.collision['219000222'][i]:>7.4f} "
          f"{series.grounding[i]:>7.4f} {series.scenario[i]:>7.4f} "
          f"{star[i]:>7.4f} {proposed.sr_norm_series[i]:>7.4f}")

print("\nMid-squeeze even the best maneuver carries ~0.99 risk, so the")
print("graded series hugs the midpoint there instead of condemning the")
print("ship; once the lanes clear, the raw series grades as-is.")
print(f"flags: {proposed.flags}\n")

for name, rep in (("floor-aware", proposed), ("baseline", baseline)):
    print(f"{name:>12}: sr_max {rep.sr_max:.4f}  maneuver term {rep.j_m:.6f}  "
          f"course term {rep.j_c:.4f}  score {rep.gss:.6f}")
print("\nThe floor-aware score is several times the baseline: most of the")
print("recorded risk was the lane's doing, not the navigator's.")

print("\nThe same pipeline from the shell:")
print(f"  seamanship ingest --ais {ais.name} --chart {chart.name} --output out/")
print(f"  seamanship score --scenario out/scenario.json --ownship {own} "
      "--t-start 60 --t-end 240 --output out/")
print(f"  seamanship safest-path --scenario out/scenario.json --ownship {own} "
      "--time 60 --output out/")
print("(parameters above map to overrides such as --set risk.horizon_T=120 "
      "--set search.n_alpha=5)")
tmp.cleanup()
