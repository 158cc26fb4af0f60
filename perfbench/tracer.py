"""Spans and work counters recorded around the package's public functions.

The traced run wraps each listed function by patching module and class
attributes from outside the package, so the program itself carries no
tracing code. Every call becomes a span (name, start, end, parent, op id)
held in flat arrays; the arrays are written out when the run ends. Hooks
read work counts from a call's arguments and return value.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "seamanship"
# (module, qualified name) of every wrapped function, in report order
TRACED = (
    ("cli", "main"),
    ("ingest", "parse_ais"),
    ("ingest", "resample"),
    ("ingest", "load_chart"),
    ("ingest", "Scenario.save"),
    ("ingest", "Scenario.load"),
    ("speedmodel", "detect_encounters"),
    ("speedmodel", "fit_model"),
    ("risk", "compute_risk_series"),
    ("risk", "scenario_risk_for_state"),
    ("risk", "grounding_risk"),
    ("risk", "ObstacleSet.points_in_arena"),
    ("planner", "sr_star_series"),
    ("planner", "branch_and_bound"),
    ("planner", "step_kinodynamics"),
    ("scoring", "score_series"),
    ("geometry", "VesselTrack.state_at"),
    ("geometry", "VesselTrack.state_at_clamped"),
)
SPAN_NAMES = tuple(f"{module}.{qualname}" for module, qualname in TRACED)

# work counters and derived ratios reported beside the span metrics:
# name -> (unit, better)
COUNTERS = {
    "planner.nodes": ("count", "lower"),
    "planner.tied_paths": ("count", "lower"),
    "planner.nodes_per_query": ("count", "lower"),
    "planner.series_dedup_ratio": ("ratio", "lower"),
    "risk.pair_evals": ("count", "lower"),
    "risk.wavg_pair_evals": ("count", "lower"),
    "risk.domain_elems": ("count", "lower"),
    "risk.ns_per_elem": ("ns", "lower"),
    "risk.arena_scanned_points": ("count", "lower"),
    "risk.arena_points": ("count", "lower"),
    "risk.arena_hit_ratio": ("ratio", "higher"),
    "ingest.rows": ("count", "higher"),
    "ingest.rows_skipped": ("count", "lower"),
    "ingest.tracks": ("count", "higher"),
    "ingest.archive_bytes": ("bytes", "lower"),
    "speedmodel.pairs": ("count", "lower"),
    "speedmodel.events": ("count", "higher"),
    "geometry.state_at_per_eval": ("count", "lower"),
}


class Tracer:
    """In-memory span store plus additive work counters.

    Spans live in parallel arrays indexed by span number; ``parent`` is the
    index of the enclosing span or -1. Calls are single-threaded, so the
    open spans form a stack.
    """

    def __init__(self, names=SPAN_NAMES):
        self.names = tuple(names)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.file_rows: dict[str, int] = {}
        # span name -> error of a work-count hook that stopped reading
        self.broken_hooks: dict[str, str] = {}

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def add_span(self, name: str, start: float, end: float, parent: int, op: int = -1) -> int:
        """Append a finished span; used to build trees by hand."""
        idx = len(self.start)
        self.span_name.append(self.name_id[name])
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return idx

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        return span_totals(self.names, self.span_name, self.start, self.end, self.parent)

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write('{"name": "%s", "start": %r, "end": %r, "parent": %d, "op": %d}\n' % (
                    self.names[self.span_name[i]], self.start[i], self.end[i],
                    self.parent[i], self.op[i]))


def self_seconds(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are merged as intervals clipped to the parent, so overlapping
    children are not subtracted twice.
    """
    n = len(start)
    children: dict[int, list[int]] = defaultdict(list)
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p] -= covered
    return out


def span_totals(names, span_name, start, end, parent) -> dict[str, dict[str, float]]:
    selfs = self_seconds(start, end, parent)
    out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in names}
    for i in range(len(start)):
        row = out[names[span_name[i]]]
        row["calls"] += 1
        row["total_s"] += end[i] - start[i]
        row["self_s"] += selfs[i]
    return out


class _Args:
    """Fetch named arguments of one wrapped function cheaply."""

    def __init__(self, fn):
        try:
            params = list(inspect.signature(fn).parameters.values())
        except (TypeError, ValueError):
            params = []
        self.pos = {p.name: i for i, p in enumerate(params)}
        self.default = {p.name: p.default for p in params
                        if p.default is not inspect.Parameter.empty}

    def get(self, args, kwargs, name):
        if name in kwargs:
            return kwargs[name]
        i = self.pos.get(name)
        if i is not None and i < len(args):
            return args[i]
        return self.default.get(name)


def _n_offsets(cache, params):
    n = cache.get(params)
    if n is None:
        n = cache[params] = len(params.horizon_offsets())
    return n


def _hooks(tracer: Tracer, risk_module):
    """Work-count hooks keyed by span name: hook(arg_reader, args, kwargs, result)."""
    offsets_cache: dict = {}
    c = tracer.counts

    def params_of(a, args, kwargs):
        return a.get(args, kwargs, "params") or risk_module.RiskParams()

    def bnb(a, args, kwargs, result):
        c["planner.nodes"] += result.nodes_expanded
        c["planner.tied_paths"] += len(result.paths)

    def series(a, args, kwargs, result):
        times = a.get(args, kwargs, "times")
        c["planner.series_requested"] += len(times)
        c["planner.series_distinct"] += len({float(t) for t in times})

    def scenario_step(a, args, kwargs, result):
        n_off = _n_offsets(offsets_cache, params_of(a, args, kwargs))
        grid_n = a.get(args, kwargs, "wavg_grid_n") or 0
        c["risk.pair_evals"] += len(result.collision)
        c["risk.wavg_pair_evals"] += len(result.collision_wavg)
        # two directed domain indices per pair and offset, once per rate
        c["risk.domain_elems"] += 2 * n_off * (len(result.collision)
                                               + grid_n * len(result.collision_wavg))

    def grounding(a, args, kwargs, result):
        params = params_of(a, args, kwargs)
        pts = a.get(args, kwargs, "obstacle_points")
        per_point = _n_offsets(offsets_cache, params) if params.grounding_horizon_max else 1
        c["risk.domain_elems"] += len(pts) * per_point

    def arena(a, args, kwargs, result):
        c["risk.arena_scanned_points"] += len(args[0].boundary_points)
        c["risk.arena_points"] += len(result)

    def parse(a, args, kwargs, result):
        path = str(a.get(args, kwargs, "path"))
        rows = tracer.file_rows.get(path)
        if rows is None:
            with open(path, encoding="utf-8") as fh:
                rows = tracer.file_rows[path] = sum(1 for _ in fh) - 1
        c["ingest.rows"] += rows
        c["ingest.rows_skipped"] += result[1]

    def resample(a, args, kwargs, result):
        c["ingest.tracks"] += len(result)

    def save(a, args, kwargs, result):
        c["ingest.archive_bytes"] += os.path.getsize(a.get(args, kwargs, "path"))

    def encounters(a, args, kwargs, result):
        n = len(a.get(args, kwargs, "tracks"))
        c["speedmodel.pairs"] += n * (n - 1)
        c["speedmodel.events"] += len(result)

    return {
        "planner.branch_and_bound": bnb,
        "planner.sr_star_series": series,
        "risk.scenario_risk_for_state": scenario_step,
        "risk.grounding_risk": grounding,
        "risk.ObstacleSet.points_in_arena": arena,
        "ingest.parse_ais": parse,
        "ingest.resample": resample,
        "ingest.Scenario.save": save,
        "speedmodel.detect_encounters": encounters,
    }


def _wrapper(tracer: Tracer, name: str, fn, hook):
    name_id = tracer.name_id[name]
    args_of = _Args(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None and name not in tracer.broken_hooks:
            try:
                hook(args_of, args, kwargs, result)
            except (AttributeError, TypeError, KeyError, IndexError, OSError) as exc:
                # a changed signature or result must not fail the traced call
                tracer.broken_hooks[name] = f"{type(exc).__name__}: {exc}"
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Patch every traced function while the block runs, then restore.

    Plain functions are replaced wherever a package module holds them, so
    names the callers imported (``cli.sr_star_series``) are traced too.
    Methods are replaced on their class. A listed name that no longer
    exists is skipped and reports zero calls.
    """
    hooks = _hooks(tracer, importlib.import_module(f"{PACKAGE}.risk"))
    restore: list[tuple[object, str, object]] = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    try:
        for (module_name, qualname), name in zip(TRACED, SPAN_NAMES):
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = owner.__dict__.get(attr) if owner is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(_wrapper(tracer, name, raw.__func__, hooks.get(name)))
                else:
                    patched = _wrapper(tracer, name, raw, hooks.get(name))
                restore.append((owner, attr, raw))
                setattr(owner, attr, patched)
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            patched = _wrapper(tracer, name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, original))
                        setattr(mod, key, patched)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def layer_units() -> dict[str, tuple[str, str]]:
    """(unit, better) of every per-layer metric, in report order."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.total_s"] = ("s", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    out.update(COUNTERS)
    out["trace.overhead_s"] = ("s", "lower")
    out["trace.overhead_share"] = ("ratio", "lower")
    return out


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Per-layer metrics per traced cycle: span calls, total and self
    seconds of every traced function, then work counts and ratios."""
    per = 1.0 / max(cycles, 1)
    out: dict[str, float] = {}
    totals = tracer.totals()
    for name in tracer.names:
        row = totals[name]
        out[f"{name}.calls"] = row["calls"] * per
        out[f"{name}.total_s"] = row["total_s"] * per
        out[f"{name}.self_s"] = row["self_s"] * per
    c = tracer.counts
    out.update({key: c[key] * per for key in COUNTERS})  # ratios are replaced below

    def ratio(num, den):
        return num / den if den else 0.0

    out["planner.nodes_per_query"] = ratio(c["planner.nodes"],
                                           totals["planner.branch_and_bound"]["calls"])
    out["planner.series_dedup_ratio"] = ratio(c["planner.series_distinct"],
                                              c["planner.series_requested"])
    out["risk.ns_per_elem"] = ratio(
        1e9 * totals["risk.scenario_risk_for_state"]["total_s"], c["risk.domain_elems"])
    out["risk.arena_hit_ratio"] = ratio(c["risk.arena_points"], c["risk.arena_scanned_points"])
    out["geometry.state_at_per_eval"] = ratio(
        totals["geometry.VesselTrack.state_at"]["calls"],
        totals["risk.scenario_risk_for_state"]["calls"])
    return out
