"""Command-line front end for the scenario pipeline.

Four subcommands cover the workflow: ``ingest`` builds a scenario archive
from AIS and chart files, ``fit-speed-model`` learns speed-change densities
from archives, ``score`` grades an ownship over a window, and
``safest-path`` runs the planner once at a chosen time.

All outputs land in a run directory with a manifest; every file embeds the
parameter echo and input digests so identical inputs reproduce identical
bytes. Exit status: 0 success, 2 input or config error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import sys
from pathlib import Path

from .geometry import DomainParams, VesselType, is_finite
from .ingest import (
    AisSchema, ChartError, IngestParams, Scenario, build_scenario, json_text, sidecar_path,
)
from .planner import (
    Hyperparameters,
    KinodynamicParams,
    branch_and_bound,
    sr_star_series,
)
from .risk import RiskParams, compute_risk_series
from .scoring import ScoreParams, score_series
from .speedmodel import SpeedChangeModel, SpeedParams, detect_encounters, fit_model

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

PARAM_BLOCKS = {
    "domain": DomainParams,
    "risk": RiskParams,
    "kinodynamics": KinodynamicParams,
    "search": Hyperparameters,
    "score": ScoreParams,
    "ingest": IngestParams,
    "schema": AisSchema,
    "speed": SpeedParams,
}


class CliError(Exception):
    """Input or configuration problem mapped to exit status 2."""

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = detail


def _coerce_value(raw: str):
    # ValueError also covers an integer past the interpreter's digit limit
    try:
        return json.loads(raw)
    except ValueError:
        return raw


def load_config(args) -> dict:
    """Read the declarative config file and apply --set overrides."""
    config: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise CliError(f"config file not found: {path}", path=str(path))
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CliError(f"config is not valid JSON: {exc}", path=str(path))
        if not isinstance(config, dict):
            raise CliError("config root must be a JSON object", path=str(path))
    for item in getattr(args, "set", None) or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise CliError(f"--set expects key=value, got {item!r}")
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise CliError(f"--set {key}: {part!r} is not a section")
        node[parts[-1]] = _coerce_value(raw)
    return config


def _section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise CliError(f"config section {name!r} must be an object")
    return section


def build_block(name: str, config: dict):
    """Instantiate one parameter dataclass from its config section."""
    cls = PARAM_BLOCKS[name]
    section = _section(config, name)
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - known)
    if unknown:
        raise CliError(f"unknown keys in config section {name!r}: {unknown}")
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise CliError(f"config section {name!r}: {exc}")


def _setting(config: dict, args, key: str, kind: type, section: str | None = None):
    """The flag ``--key`` if given, else the config entry ``key`` (inside
    ``section`` when one is named), else None. A ``float`` setting must be
    a finite real number (not a bool), a ``str`` one a non-empty string."""
    value = getattr(args, key, None)
    name = "--" + key.replace("_", "-")
    if value is None:
        value = (_section(config, section) if section else config).get(key)
        name = f"{section}.{key}" if section else key
    if value is None:
        return None
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and is_finite(value)
    else:
        ok = isinstance(value, str) and value != ""
    if not ok:
        wanted = "a finite number" if kind is float else "a non-empty string"
        raise CliError(f"{name} must be {wanted}, got {value!r}")
    return kind(value)


# ``paths`` entries that hold a list of file names rather than one
LIST_PATHS = ("scenarios", "models")
# (flag, paths entries, key) of the scenario archives
SCENARIO_FILES = ("scenario", ("scenarios", "scenario"), "scenario")


def _input_files(
    config: dict, args, flag: str, keys: tuple[str, ...], name: str | None,
    required: bool = False,
) -> dict[str, Path]:
    """Existing files named by ``--flag``, else by the ``paths`` entries
    ``keys`` in order. Each is keyed ``name`` (``name_<i>`` when there are
    several), or by its file stem when ``name`` is None; two files of one
    stem are refused."""
    given = getattr(args, flag, None)
    if given is not None:
        listed = [given] if isinstance(given, str) else list(given)
    else:
        listed = []
        paths = _section(config, "paths")
        for key in keys:
            value = paths.get(key)
            if value is None:
                continue
            items = value if key in LIST_PATHS else [value]
            if not isinstance(items, list) or not all(isinstance(v, str) and v for v in items):
                wanted = "a list of file names" if key in LIST_PATHS else "a file name"
                raise CliError(f"paths.{key} must be {wanted}, got {value!r}")
            listed += items
    if required and not listed:
        where = " or ".join(f"paths.{key}" for key in keys)
        raise CliError(f"no {flag} file given (flag --{flag} or {where})")
    files: dict[str, Path] = {}
    for i, value in enumerate(listed):
        path = Path(value)
        if not path.is_file():
            raise CliError(f"{flag} file not found: {path}", path=str(path))
        if name is None:
            key = path.stem
        else:
            key = f"{name}_{i}" if len(listed) > 1 else name
        if key in files:
            raise CliError(
                f"{flag} files {files[key]} and {path} share the name {key!r}",
                paths=[str(files[key]), str(path)],
            )
        files[key] = path
    return files


def _output_dir(config: dict, args) -> Path:
    value = _setting(config, args, "output", str, "paths")
    if value is None:
        raise CliError("no output directory given (flag --output or paths.output)")
    out = Path(value)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(path: Path, kind: str, load) -> tuple:
    """``load(path, data)`` of input file ``path``'s bytes ``data`` and its provenance
    entry, the path and sha256 of those bytes; a damaged ``kind`` of document is refused."""
    data = path.read_bytes()
    entry = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    try:
        return load(path, data), entry
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise CliError(f"bad {kind} {path}: {exc}", path=str(path))


def _provenance(inputs: dict[str, dict], blocks: dict) -> dict:
    """Input digests, given as each input name's provenance entry, and
    the parameter echo that every output embeds."""
    return {
        "inputs": dict(sorted(inputs.items())),
        "parameters": {
            name: dataclasses.asdict(block) if dataclasses.is_dataclass(block) else block
            for name, block in blocks.items()
        },
    }


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json_text(doc), encoding="utf-8")


def write_manifest(outdir: Path, command: str, provenance: dict, outputs: list[str]) -> None:
    write_json(
        outdir / "manifest.json",
        {"command": command, **provenance, "outputs": sorted(outputs)},
    )


def _write_csv(path: Path, header, rows, provenance: dict) -> None:
    lines = [
        "# inputs " + json.dumps(provenance["inputs"], sort_keys=True),
        "# parameters " + json.dumps(provenance["parameters"], sort_keys=True),
        ",".join(header),
        *(",".join(repr(float(v)) for v in row) for row in rows),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_ingest(args) -> int:
    config = load_config(args)
    outdir = _output_dir(config, args)
    inputs = {
        **_input_files(config, args, "ais", ("ais",), "ais", required=True),
        **_input_files(config, args, "chart", ("chart",), "chart"),
    }
    ais, chart = inputs["ais"], inputs.get("chart")
    params = build_block("ingest", config)
    schema = build_block("schema", config)
    try:
        scenario = build_scenario(ais, chart, params, schema)
    except ValueError as exc:
        raise CliError(str(exc), path=exc.path if isinstance(exc, ChartError) else str(ais))
    archive = outdir / "scenario.json"
    scenario.save(archive)
    # the grid's span (every track lies on it), without building the grid
    spans = [(tr.t_start, tr.t_end) for tr in scenario.tracks.values()]
    summary = {
        "vessels": len(scenario.tracks),
        "track_ids": sorted(scenario.tracks),
        "duration": max(e for _, e in spans) - min(s for s, _ in spans) if spans else 0.0,
        "obstacle_polygons": len(scenario.obstacles.polygons),
        "skipped_rows": scenario.metadata["ingest"]["skipped_rows"],
    }
    write_json(outdir / "summary.json", summary)
    # build_scenario digests each source it read, under the same names
    provenance = _provenance(scenario.metadata["sources"], {"ingest": params, "schema": schema})
    outputs = [archive.name, sidecar_path(archive).name, "summary.json"]
    write_manifest(outdir, "ingest", provenance, outputs)
    return EXIT_OK


def cmd_fit_speed_model(args) -> int:
    config = load_config(args)
    outdir = _output_dir(config, args)
    scenario_paths = _input_files(config, args, *SCENARIO_FILES, required=True)
    dp = build_block("domain", config)
    speed = build_block("speed", config)
    events, entries = [], {}
    for name, path in scenario_paths.items():
        scenario, entries[name] = _load(path, "scenario archive", Scenario.load)
        try:
            events += detect_encounters(
                scenario.tracks,
                dcpa_threshold=speed.dcpa_threshold,
                domain_params=dp,
                window=speed.window,
            )
        except ValueError as exc:
            raise CliError(f"scenario archive {path}: {exc}", path=str(path))
    if not events:
        log.warning("no encounters detected; all models will be degenerate")
    outputs = []
    report = {"events": len(events), "types": {}}
    for vtype in VesselType:
        model = fit_model(events, vtype, min_samples=speed.min_samples)
        model.metadata.update({"dcpa_threshold": speed.dcpa_threshold, "window": speed.window})
        name = f"model_{vtype.value.lower()}.json"
        model.save(outdir / name)
        outputs.append(name)
        report["types"][vtype.value] = {
            "samples": int(model.metadata["sample_count"]),
            "degenerate": model.degenerate,
        }
    write_json(outdir / "fit_report.json", report)
    outputs.append("fit_report.json")
    provenance = _provenance(entries, {"domain": dp, "speed": speed})
    write_manifest(outdir, "fit-speed-model", provenance, outputs)
    return EXIT_OK


# the parameter blocks that score and safest-path both search with
SCENE_BLOCKS = ("domain", "risk", "kinodynamics", "search")


def _scene(args, command: str):
    """The set-up score and safest-path share: (config, run directory,
    the provenance entry of the scenario input by name, the one archive,
    the ownship, found in that archive, and the SCENE_BLOCKS parameter
    blocks by name)."""
    config = load_config(args)
    outdir = _output_dir(config, args)
    inputs = _input_files(config, args, *SCENARIO_FILES, required=True)
    if len(inputs) > 1:
        raise CliError(f"{command} expects exactly one scenario archive")
    ((key, path),) = inputs.items()
    scenario, entry = _load(path, "scenario archive", Scenario.load)
    ownship = _setting(config, args, "ownship", str)
    if ownship is None:
        raise CliError("no ownship id given (flag --ownship or config 'ownship')")
    if ownship not in scenario.tracks:
        raise CliError(
            f"ownship {ownship!r} not in scenario",
            available=sorted(scenario.tracks),
        )
    blocks = {name: build_block(name, config) for name in SCENE_BLOCKS}
    return config, outdir, {key: entry}, scenario, ownship, blocks


def _window(config: dict, args, track) -> tuple[float, float]:
    """``--t-start``/``--t-end``, each overriding its half of the config
    ``window`` [t_start, t_end], and the ownship's span where neither is set."""
    window = config.get("window")
    if window is not None and (not isinstance(window, (list, tuple)) or len(window) != 2):
        raise CliError("config 'window' must be [t_start, t_end]")
    halves = {"window": dict(zip(("t_start", "t_end"), window or ()))}
    t_start = _setting(halves, args, "t_start", float, "window")
    t_end = _setting(halves, args, "t_end", float, "window")
    t_start = float(track.t_start) if t_start is None else t_start
    t_end = float(track.t_end) if t_end is None else t_end
    if t_end < t_start:
        raise CliError(f"window is empty: [{t_start}, {t_end}]")
    return t_start, t_end


def cmd_score(args) -> int:
    config, outdir, inputs, scenario, ownship, blocks = _scene(args, "score")
    dp, rp, kin, hyper = (blocks[name] for name in SCENE_BLOCKS)
    model_paths = _input_files(config, args, "model", ("models",), None)
    models, model_of_type, model_entries = {}, {}, {}
    for name, path in model_paths.items():
        model, model_entries[name] = _load(path, "speed model", SpeedChangeModel.load)
        vtype = model.vessel_type
        if vtype in models:
            raise CliError(
                f"speed models {model_of_type[vtype]} and {path} are both for {vtype.value}",
                paths=[str(model_of_type[vtype]), str(path)],
            )
        models[vtype], model_of_type[vtype] = model, path
    sp = build_block("score", config)
    speed = build_block("speed", config)
    t_start, t_end = _window(config, args, scenario.tracks[ownship])
    try:
        series = compute_risk_series(
            scenario.tracks,
            ownship,
            t_start,
            t_end,
            obstacles=scenario.obstacles,
            params=rp,
            domain_params=dp,
            models=models or None,
            wavg_grid_n=speed.grid_n,
        )
        sr_star = sr_star_series(
            scenario.tracks, ownship, series.times, hyper, kin, rp, dp, scenario.obstacles
        )
        proposed = score_series(ownship, series.times, series.scenario, sr_star, sp, rp)
        baseline = score_series(ownship, series.times, series.scenario, None, sp, rp)
    except ValueError as exc:
        raise CliError(str(exc))
    provenance = _provenance(
        {**inputs, **model_entries},
        {**blocks, "score": sp, "speed": speed, "window": [t_start, t_end], "ownship": ownship},
    )

    # (name, values) of each column; collision_wavg is empty without models
    columns = [
        ("time", series.times),
        *((f"cr_{tid}", series.collision[tid]) for tid in series.target_ids()),
        *((f"cr_wavg_{tid}", series.collision_wavg[tid]) for tid in sorted(series.collision_wavg)),
        ("gr", series.grounding),
        ("sr", series.scenario),
    ]
    header, values = zip(*columns)
    _write_csv(outdir / "risk_series.csv", header, zip(*values), provenance)
    _write_csv(outdir / "sr_star.csv", ["time", "sr_star"], zip(series.times, sr_star), provenance)
    write_json(outdir / "gss.json", {**proposed.to_dict(), "provenance": provenance})
    write_json(
        outdir / "baseline_gss.json", {**baseline.to_dict(), "provenance": provenance}
    )
    outputs = ["risk_series.csv", "sr_star.csv", "gss.json", "baseline_gss.json"]
    write_manifest(outdir, "score", provenance, outputs)
    return EXIT_OK


def _parse_sweep(raw: str | None) -> list[int] | None:
    if raw is None:
        return None
    try:
        values = [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise CliError(f"sweep values must be comma-separated integers: {raw!r}")
    if not values:
        raise CliError(f"empty sweep list: {raw!r}")
    return values


def cmd_safest_path(args) -> int:
    config, outdir, inputs, scenario, ownship, blocks = _scene(args, "safest-path")
    dp, rp, kin, hyper = (blocks[name] for name in SCENE_BLOCKS)
    t = _setting(config, args, "time", float)
    if t is None:
        raise CliError("no start time given (flag --time or config 'time')")
    sweep_nt = _parse_sweep(getattr(args, "sweep_nt", None))
    try:
        # every swept grid is checked before any search runs
        sweep = [dataclasses.replace(hyper, n_t=n_t) for n_t in sweep_nt or ()]
        result = branch_and_bound(
            scenario.tracks, ownship, t, hyper, kin, rp, dp, scenario.obstacles
        )
    except ValueError as exc:
        raise CliError(str(exc))

    provenance = _provenance(inputs, {**blocks, "ownship": ownship, "time": t})
    write_json(outdir / "path.json", {**result.to_dict(), "provenance": provenance})
    outputs = ["path.json"]

    if sweep:
        rows = []
        for swept in sweep:
            if swept.n_t == hyper.n_t:
                sr = result.sr_star
            else:
                sr = branch_and_bound(
                    scenario.tracks, ownship, t, swept, kin, rp, dp, scenario.obstacles
                ).sr_star
            rows.append((swept.n_t, swept.n_alpha, swept.n_v, sr))
        header = ["n_t", "n_alpha", "n_v", "sr_star"]
        _write_csv(outdir / "sr_star_grid.csv", header, rows, provenance)
        outputs.append("sr_star_grid.csv")
    write_manifest(outdir, "safest-path", provenance, outputs)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was (the ``append`` actions copy their list into each result)."""
    parser = argparse.ArgumentParser(
        prog="seamanship",
        description="Risk scoring and safest-path search for recorded vessel traffic.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="declarative JSON config file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config entry, e.g. --set risk.kappa=12",
        )
        p.add_argument("--output", help="run directory for all outputs")

    p = sub.add_parser("ingest", help="build a scenario archive from AIS and chart")
    common(p)
    p.add_argument("--ais", help="AIS CSV file")
    p.add_argument("--chart", help="chart polygon file (GeoJSON)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit-speed-model", help="fit speed-change densities")
    common(p)
    p.add_argument("--scenario", action="append", help="scenario archive (repeatable)")
    p.set_defaults(func=cmd_fit_speed_model)

    p = sub.add_parser("score", help="grade an ownship over a time window")
    common(p)
    p.add_argument("--scenario", action="append", help="scenario archive")
    p.add_argument("--ownship", help="track id to grade")
    p.add_argument("--model", action="append", help="speed model JSON (repeatable)")
    p.add_argument("--t-start", type=float, dest="t_start", help="window start, s")
    p.add_argument("--t-end", type=float, dest="t_end", help="window end, s")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("safest-path", help="search the lowest-risk feasible path")
    common(p)
    p.add_argument("--scenario", action="append", help="scenario archive")
    p.add_argument("--ownship", help="track id to plan for")
    p.add_argument("--time", type=float, help="search start time, s")
    p.add_argument(
        "--sweep-nt",
        dest="sweep_nt",
        help="comma-separated level counts for an sr_star sweep",
    )
    p.set_defaults(func=cmd_safest_path)
    return parser


def _emit_error(code: int, message: str, detail: dict | None = None) -> None:
    doc = {"code": code, "message": message}
    if detail:
        doc["detail"] = detail
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except CliError as exc:
        _emit_error(EXIT_INPUT, str(exc), exc.detail)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - exit-status contract
        log.exception("internal error")
        _emit_error(EXIT_INTERNAL, f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
