"""Output checks of benchmark operations.

Every operation must exit 0 and leave well-formed files whose risks lie in
[0, 1]. A rerun of an operation within one run must write byte-identical
files. The numbers of the result files of the reference seed must match
the values recorded in ``reference.json`` to the same tolerance the
repository uses for "same numbers" (1e-12).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

TOLERANCE = 1e-12
# result files whose numbers are compared against the recorded reference
REFERENCE_FILES = {
    "score": ("risk_series.csv", "sr_star.csv", "gss.json"),
    "path": ("path.json",),
}


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header and numeric rows of a CLI CSV; provenance comment lines skipped."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def json_numbers(doc, skip=("provenance",)) -> list[float]:
    """Numeric leaves of a JSON document in sorted-key order."""
    out: list[float] = []

    def walk(node):
        if isinstance(node, dict):
            for key in sorted(node):
                if key not in skip:
                    walk(node[key])
        elif isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, (bool, int, float)):
            out.append(float(node))

    walk(doc)
    return out


def file_numbers(path: Path) -> dict:
    """Comparable numeric content of one result file."""
    if path.suffix == ".csv":
        header, rows = read_csv(path)
        return {"header": header, "values": [v for row in rows for v in row]}
    return {"values": json_numbers(json.loads(path.read_text(encoding="utf-8")))}


def result_numbers(kind: str, outdir: Path) -> dict:
    return {name: file_numbers(outdir / name) for name in REFERENCE_FILES.get(kind, ())}


def compare_numbers(actual: dict, expected: dict, tol: float = TOLERANCE) -> list[str]:
    """Differences between two ``result_numbers`` records, as messages."""
    problems = []
    for name in sorted(set(actual) | set(expected)):
        if name not in actual or name not in expected:
            problems.append(f"{name}: present in only one of result and reference")
            continue
        a, e = actual[name], expected[name]
        if a.get("header") != e.get("header"):
            problems.append(f"{name}: header {a.get('header')} != {e.get('header')}")
        av, ev = a["values"], e["values"]
        if len(av) != len(ev):
            problems.append(f"{name}: {len(av)} values, reference has {len(ev)}")
            continue
        for i, (x, y) in enumerate(zip(av, ev)):
            if not abs(x - y) <= tol * max(1.0, abs(y)):
                problems.append(f"{name}: value #{i} = {x!r}, reference {y!r}")
                break
    return problems


def _risks_in_unit(values, label) -> list[str]:
    bad = [v for v in values if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    return [f"{label}: {len(bad)} value(s) outside [0, 1], e.g. {bad[0]!r}"] if bad else []


def check_score(outdir: Path, steps: int) -> list[str]:
    problems = []
    header, rows = read_csv(outdir / "risk_series.csv")
    if header[0] != "time" or header[-2:] != ["gr", "sr"]:
        problems.append(f"risk_series.csv: unexpected header {header[:3]}...")
    problems += _risks_in_unit([v for row in rows for v in row[1:]], "risk_series.csv")
    _, star = read_csv(outdir / "sr_star.csv")
    if len(star) != steps or len(rows) != steps:
        problems.append(f"expected {steps} steps, got {len(rows)} risk and {len(star)} floor rows")
    problems += _risks_in_unit([row[1] for row in star], "sr_star.csv")
    for name in ("gss.json", "baseline_gss.json"):
        doc = json.loads((outdir / name).read_text(encoding="utf-8"))
        values = doc["sr_series"] + doc["sr_star_series"] + doc["sr_norm_series"]
        values += [doc["sr_max"], doc["j_m"], doc["j_c"], doc["gss"]]
        problems += _risks_in_unit(values, name)
    return problems


def check_path(outdir: Path, sweep: int) -> list[str]:
    doc = json.loads((outdir / "path.json").read_text(encoding="utf-8"))
    values = [doc["sr_star"], doc["path_risk"]] + [n["scenario_risk"] for n in doc["best_path"]]
    problems = _risks_in_unit(values, "path.json")
    if sweep:
        _, grid = read_csv(outdir / "sr_star_grid.csv")
        if len(grid) != sweep:
            problems.append(f"sr_star_grid.csv: {len(grid)} rows, expected {sweep}")
        problems += _risks_in_unit([row[3] for row in grid], "sr_star_grid.csv")
    return problems


def check_ingest(outdir: Path, expected: dict) -> list[str]:
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    return [f"summary.json: {key} = {summary[key]}, expected {value}"
            for key, value in expected.items() if summary[key] != value]


def check_fit(outdir: Path) -> list[str]:
    report = json.loads((outdir / "fit_report.json").read_text(encoding="utf-8"))
    problems = []
    for vtype, row in report["types"].items():
        model = json.loads((outdir / f"model_{vtype.lower()}.json").read_text(encoding="utf-8"))
        lo, hi = model["support"]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            problems.append(f"model_{vtype.lower()}.json: bad support {model['support']}")
        if row["samples"] != len(model["samples"]):
            problems.append(f"fit_report.json: {vtype} sample count disagrees with its model")
    return problems


def check_manifest(outdir: Path) -> list[str]:
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    return [f"manifest lists missing output {name}" for name in manifest["outputs"]
            if not (outdir / name).is_file()]


def digest_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest_dir(outdir: Path) -> dict[str, str]:
    """sha256 of every file the operation's manifest lists, manifest included."""
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    names = sorted(manifest["outputs"]) + ["manifest.json"]
    return {name: digest_file(outdir / name) for name in names}
