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
import json
import logging
import math
import sys
from pathlib import Path

from .geometry import DomainParams, VesselType
from .ingest import AisSchema, IngestParams, Scenario, build_scenario, sha256_file
from .planner import (
    Hyperparameters,
    KinodynamicParams,
    branch_and_bound,
    sr_star_series,
)
from .risk import DEFAULT_GRID_N, RiskParams, compute_risk_series
from .scoring import ScoreParams, score_series
from .speedmodel import (
    DEFAULT_DCPA_THRESHOLD,
    DEFAULT_MIN_SAMPLES,
    DEFAULT_WINDOW,
    SpeedChangeModel,
    detect_encounters,
    fit_model,
)

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
}

# encounter detection and probabilistic-risk knobs without a dataclass home
SPEED_DEFAULTS = {
    "dcpa_threshold": DEFAULT_DCPA_THRESHOLD,
    "window": DEFAULT_WINDOW,
    "min_samples": DEFAULT_MIN_SAMPLES,
    "grid_n": DEFAULT_GRID_N,
}


class CliError(Exception):
    """Input or configuration problem mapped to exit status 2."""

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = detail


def _coerce_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
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
        except json.JSONDecodeError as exc:
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


def build_block(name: str, config: dict):
    """Instantiate one parameter dataclass from its config section."""
    cls = PARAM_BLOCKS[name]
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise CliError(f"config section {name!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - known)
    if unknown:
        raise CliError(f"unknown keys in config section {name!r}: {unknown}")
    values = dict(section)
    if name == "schema" and "timestamp_formats" in values:
        values["timestamp_formats"] = tuple(values["timestamp_formats"])
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise CliError(f"config section {name!r}: {exc}")


def speed_options(config: dict) -> dict:
    """The ``speed`` section over its defaults: integer ``min_samples`` and
    ``grid_n``, finite ``dcpa_threshold`` and positive finite ``window``."""
    section = config.get("speed", {})
    if not isinstance(section, dict):
        raise CliError("config section 'speed' must be an object")
    unknown = sorted(set(section) - set(SPEED_DEFAULTS))
    if unknown:
        raise CliError(f"unknown keys in config section 'speed': {unknown}")
    opts = {**SPEED_DEFAULTS, **section}
    for key, value in opts.items():
        # bool is an int subclass, but true/false is no count or distance
        is_int = isinstance(value, int) and not isinstance(value, bool)
        if key in ("min_samples", "grid_n"):
            if not is_int:
                raise CliError(f"config speed.{key} must be an integer, got {value!r}")
        elif not (is_int or (isinstance(value, float) and math.isfinite(value))):
            raise CliError(f"config speed.{key} must be a finite number, got {value!r}")
    if opts["window"] <= 0:
        raise CliError(f"config speed.window must be positive, got {opts['window']!r}")
    return opts


def _resolve_path(config: dict, args, key: str, required: bool = False):
    value = getattr(args, key, None)
    if value is None:
        value = config.get("paths", {}).get(key)
    if value is None:
        if required:
            raise CliError(f"no {key!r} path given (flag --{key} or paths.{key})")
        return None
    path = Path(value)
    if not path.is_file():
        raise CliError(f"{key} file not found: {path}", path=str(path))
    return path


def _resolve_output(config: dict, args) -> Path:
    value = getattr(args, "output", None) or config.get("paths", {}).get("output")
    if value is None:
        raise CliError("no output directory given (flag --output or paths.output)")
    out = Path(value)
    out.mkdir(parents=True, exist_ok=True)
    return out


# malformed documents surface as assorted lookup/shape errors
_BAD_DOC_ERRORS = (ValueError, KeyError, TypeError, AttributeError)


def _load_archive(path: Path) -> Scenario:
    try:
        return Scenario.load(path)
    except _BAD_DOC_ERRORS as exc:
        raise CliError(f"bad scenario archive {path}: {exc}", path=str(path))


def _load_model_file(path: Path) -> SpeedChangeModel:
    try:
        return SpeedChangeModel.load(path)
    except _BAD_DOC_ERRORS as exc:
        raise CliError(f"bad speed model {path}: {exc}", path=str(path))


def _digests(inputs: dict[str, Path]) -> dict:
    return {
        name: {"path": str(path), "sha256": sha256_file(path)}
        for name, path in sorted(inputs.items())
    }


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_manifest(
    outdir: Path, command: str, inputs: dict, parameters: dict, outputs: list[str]
) -> None:
    write_json(
        outdir / "manifest.json",
        {
            "command": command,
            "inputs": inputs,
            "outputs": sorted(outputs),
            "parameters": parameters,
        },
    )


def parameter_echo(blocks: dict) -> dict:
    echo = {}
    for name, block in blocks.items():
        echo[name] = (
            dataclasses.asdict(block) if dataclasses.is_dataclass(block) else block
        )
    return echo


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_text(header: list[str], rows, provenance: dict) -> str:
    lines = [
        "# inputs " + json.dumps(provenance["inputs"], sort_keys=True),
        "# parameters " + json.dumps(provenance["parameters"], sort_keys=True),
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def cmd_ingest(args) -> int:
    config = load_config(args)
    outdir = _resolve_output(config, args)
    ais = _resolve_path(config, args, "ais", required=True)
    chart = _resolve_path(config, args, "chart")
    params = build_block("ingest", config)
    schema = build_block("schema", config)
    try:
        scenario = build_scenario(ais, chart, params, schema)
    except ValueError as exc:
        raise CliError(str(exc), path=str(ais))
    scenario.save(outdir / "scenario.json")
    grid = scenario.time_grid
    summary = {
        "vessels": len(scenario.tracks),
        "track_ids": sorted(scenario.tracks),
        "duration": float(grid[-1] - grid[0]) if grid.size else 0.0,
        "obstacle_polygons": len(scenario.obstacles.polygons),
        "skipped_rows": scenario.metadata["ingest"]["skipped_rows"],
    }
    write_json(outdir / "summary.json", summary)
    inputs = {"ais": ais, **({"chart": chart} if chart else {})}
    write_manifest(
        outdir,
        "ingest",
        _digests(inputs),
        parameter_echo({"ingest": params, "schema": schema}),
        ["scenario.json", "summary.json"],
    )
    return EXIT_OK


def _load_scenarios(config: dict, args) -> dict[str, Path]:
    listed = list(getattr(args, "scenario", None) or [])
    if not listed:
        listed = config.get("paths", {}).get("scenarios", [])
        single = config.get("paths", {}).get("scenario")
        if single:
            listed.append(single)
    if not listed:
        raise CliError("no scenario archive given (flag --scenario or paths.scenario)")
    paths = {}
    for i, value in enumerate(listed):
        path = Path(value)
        if not path.is_file():
            raise CliError(f"scenario file not found: {path}", path=str(path))
        paths[f"scenario_{i}" if len(listed) > 1 else "scenario"] = path
    return paths


def cmd_fit_speed_model(args) -> int:
    config = load_config(args)
    outdir = _resolve_output(config, args)
    scenario_paths = _load_scenarios(config, args)
    dp = build_block("domain", config)
    opts = speed_options(config)
    events = []
    for path in scenario_paths.values():
        scenario = _load_archive(path)
        events.extend(
            detect_encounters(
                scenario.tracks,
                dcpa_threshold=opts["dcpa_threshold"],
                domain_params=dp,
                window=opts["window"],
            )
        )
    if not events:
        log.warning("no encounters detected; all models will be degenerate")
    outputs = []
    report = {"events": len(events), "types": {}}
    for vtype in VesselType:
        model = fit_model(events, vtype, min_samples=int(opts["min_samples"]))
        model.metadata.update(
            {"dcpa_threshold": opts["dcpa_threshold"], "window": opts["window"]}
        )
        name = f"model_{vtype.value.lower()}.json"
        model.save(outdir / name)
        outputs.append(name)
        report["types"][vtype.value] = {
            "samples": int(model.metadata["sample_count"]),
            "degenerate": model.degenerate,
        }
    write_json(outdir / "fit_report.json", report)
    outputs.append("fit_report.json")
    write_manifest(
        outdir,
        "fit-speed-model",
        _digests(scenario_paths),
        parameter_echo({"domain": dp, "speed": opts}),
        outputs,
    )
    return EXIT_OK


def _load_models(config: dict, args) -> dict[str, Path]:
    listed = list(getattr(args, "model", None) or [])
    if not listed:
        listed = config.get("paths", {}).get("models", [])
    paths = {}
    for value in listed:
        path = Path(value)
        if not path.is_file():
            raise CliError(f"model file not found: {path}", path=str(path))
        paths[path.stem] = path
    return paths


def _window(config: dict, args, track) -> tuple[float, float]:
    t_start = getattr(args, "t_start", None)
    t_end = getattr(args, "t_end", None)
    window = config.get("window")
    if window is not None and (t_start is None or t_end is None):
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise CliError("config 'window' must be [t_start, t_end]")
        t_start = window[0] if t_start is None else t_start
        t_end = window[1] if t_end is None else t_end
    if t_start is None:
        t_start = track.t_start
    if t_end is None:
        t_end = track.t_end
    if t_end < t_start:
        raise CliError(f"window is empty: [{t_start}, {t_end}]")
    return float(t_start), float(t_end)


def cmd_score(args) -> int:
    config = load_config(args)
    outdir = _resolve_output(config, args)
    scenario_paths = _load_scenarios(config, args)
    if len(scenario_paths) > 1:
        raise CliError("score expects exactly one scenario archive")
    (scenario_path,) = scenario_paths.values()
    scenario = _load_archive(scenario_path)
    ownship = getattr(args, "ownship", None) or config.get("ownship")
    if ownship is None:
        raise CliError("no ownship id given (flag --ownship or config 'ownship')")
    if ownship not in scenario.tracks:
        raise CliError(
            f"ownship {ownship!r} not in scenario",
            available=sorted(scenario.tracks),
        )
    model_paths = _load_models(config, args)
    models = {}
    for path in model_paths.values():
        model = _load_model_file(path)
        models[model.vessel_type] = model
    dp = build_block("domain", config)
    rp = build_block("risk", config)
    kin = build_block("kinodynamics", config)
    hyper = build_block("search", config)
    sp = build_block("score", config)
    opts = speed_options(config)
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
            wavg_grid_n=int(opts["grid_n"]),
        )
    except ValueError as exc:
        raise CliError(str(exc))
    sr_star = sr_star_series(
        scenario.tracks,
        ownship,
        series.times,
        hyper,
        kin,
        rp,
        dp,
        scenario.obstacles,
    )
    proposed = score_series(ownship, series.times, series.scenario, sr_star, sp, rp)
    baseline = score_series(ownship, series.times, series.scenario, None, sp, rp)

    inputs = _digests({**scenario_paths, **model_paths})
    parameters = parameter_echo(
        {
            "domain": dp,
            "risk": rp,
            "kinodynamics": kin,
            "search": hyper,
            "score": sp,
            "speed": opts,
            "window": [t_start, t_end],
            "ownship": ownship,
        }
    )
    provenance = {"inputs": inputs, "parameters": parameters}

    header = ["time"]
    target_ids = series.target_ids()
    header += [f"cr_{tid}" for tid in target_ids]
    if models:
        header += [f"cr_wavg_{tid}" for tid in sorted(series.collision_wavg)]
    header += ["gr", "sr"]
    rows = []
    for i, t in enumerate(series.times):
        row = [t]
        row += [series.collision[tid][i] for tid in target_ids]
        if models:
            row += [series.collision_wavg[tid][i] for tid in sorted(series.collision_wavg)]
        row += [series.grounding[i], series.scenario[i]]
        rows.append(row)
    (outdir / "risk_series.csv").write_text(
        _csv_text(header, rows, provenance), encoding="utf-8"
    )
    (outdir / "sr_star.csv").write_text(
        _csv_text(
            ["time", "sr_star"],
            [(t, s) for t, s in zip(series.times, sr_star)],
            provenance,
        ),
        encoding="utf-8",
    )
    write_json(outdir / "gss.json", {**proposed.to_dict(), "provenance": provenance})
    write_json(
        outdir / "baseline_gss.json", {**baseline.to_dict(), "provenance": provenance}
    )
    write_manifest(
        outdir,
        "score",
        inputs,
        parameters,
        ["risk_series.csv", "sr_star.csv", "gss.json", "baseline_gss.json"],
    )
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
    if min(values) < 1:
        raise CliError(f"sweep level counts must be at least 1: {raw!r}")
    return values


def cmd_safest_path(args) -> int:
    config = load_config(args)
    outdir = _resolve_output(config, args)
    scenario_paths = _load_scenarios(config, args)
    if len(scenario_paths) > 1:
        raise CliError("safest-path expects exactly one scenario archive")
    (scenario_path,) = scenario_paths.values()
    scenario = _load_archive(scenario_path)
    ownship = getattr(args, "ownship", None) or config.get("ownship")
    if ownship is None:
        raise CliError("no ownship id given (flag --ownship or config 'ownship')")
    t = getattr(args, "time", None)
    if t is None:
        t = config.get("time")
    if t is None:
        raise CliError("no start time given (flag --time or config 'time')")
    t = float(t)
    dp = build_block("domain", config)
    rp = build_block("risk", config)
    kin = build_block("kinodynamics", config)
    hyper = build_block("search", config)
    try:
        result = branch_and_bound(
            scenario.tracks, ownship, t, hyper, kin, rp, dp, scenario.obstacles
        )
    except KeyError as exc:
        raise CliError(str(exc.args[0]), available=sorted(scenario.tracks))
    except ValueError as exc:
        raise CliError(str(exc))

    inputs = _digests(scenario_paths)
    parameters = parameter_echo(
        {
            "domain": dp,
            "risk": rp,
            "kinodynamics": kin,
            "search": hyper,
            "ownship": ownship,
            "time": t,
        }
    )
    provenance = {"inputs": inputs, "parameters": parameters}
    write_json(outdir / "path.json", {**result.to_dict(), "provenance": provenance})
    outputs = ["path.json"]

    sweep_nt = _parse_sweep(getattr(args, "sweep_nt", None))
    if sweep_nt:
        rows = []
        for n_t in sweep_nt:
            swept = dataclasses.replace(hyper, n_t=n_t)
            if n_t == hyper.n_t:
                sr = result.sr_star
            else:
                sr = branch_and_bound(
                    scenario.tracks, ownship, t, swept, kin, rp, dp, scenario.obstacles
                ).sr_star
            rows.append((n_t, swept.n_alpha, swept.n_v, sr))
        (outdir / "sr_star_grid.csv").write_text(
            _csv_text(["n_t", "n_alpha", "n_v", "sr_star"], rows, provenance),
            encoding="utf-8",
        )
        outputs.append("sr_star_grid.csv")
    write_manifest(outdir, "safest-path", inputs, parameters, outputs)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
