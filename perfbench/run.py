"""Benchmark of the seamanship command line, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload channel_chart --seed 1 --seconds 35 --trace 0

The run imports the package from ``src/``, writes the workload's seeded
inputs under ``.perfbench_work/``, and drives ``seamanship.cli.main``
in-process from one client in a closed loop: each operation starts when
the previous one has finished. Every operation's outputs are checked. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. End-to-end
timings are speed-adjusted by a probe timed between operations (see
``SpeedProbe``); the wall-clock values are printed beside them. Details,
with sample counts and provenance, go to ``.perfbench_out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# one BLAS thread: the benchmark is a single client on a small machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = 0
SETUPS = 3
MIN_CYCLES = 2
# the speed probe: a Python loop and in-cache numpy kernels; about 15 ms on
# the 2-vCPU Intel Xeon machine the bounds were set on
PROBE_NOMINAL_S = 0.015
PROBE_LOOP = 100_000
PROBE_SORTS = 10
PROBE_N = 16_384

END_TO_END_UNITS = {
    "setup_s": "s",
    "graded_steps_per_s": "steps/s",
    "score_p50_s": "s",
    "score_tail_s": "s",
    "path_p50_s": "s",
    "path_tail_s": "s",
    "ingest_rows_per_s": "rows/s",
    "fit_s": "s",
    "peak_rss_mb": "MB",
}


class Fatal(Exception):
    """The run cannot measure anything; exit without a result."""


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, never below the median; the median below 21
    samples."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 21:
        k = n - 11
        return xs[k], 100.0 * k / (n - 1)
    return statistics.median(xs), 50.0


def provenance(seed: int, src: Path) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    loc = 0
    for path in sorted((src / "seamanship").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            loc += sum(1 for _ in fh)
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_loc": loc,
        "blas_threads": 1,
    }


class SpeedProbe:
    """A fixed computation timed before every set-up and measured operation.

    The host's speed drifts: on a shared 2-vCPU virtual machine a fixed
    loop ran up to 1.8 times slower from one minute to the next, and every
    wall time of a run moved with it. Each end-to-end timing is therefore
    multiplied by ``PROBE_NOMINAL_S`` over the mean of the probes taken
    just before and just after it: seconds at the speed at which one probe
    takes ``PROBE_NOMINAL_S``. A change to the program does not change the
    probe, so these times move with the program as the wall times do. Like
    the program, the probe mixes interpreted Python and numpy; it touches
    only its own small arrays and allocates nothing.
    """

    def __init__(self):
        import numpy

        t0 = time.perf_counter()
        rng = numpy.random.default_rng(0)
        self.a = rng.random(PROBE_N)
        self.b = rng.random(PROBE_N)
        self.out = numpy.empty(PROBE_N)
        self.hypot = numpy.hypot
        self.times: list[float] = []
        self.run()
        self.times.clear()  # the first probe warms up
        self.startup_s = time.perf_counter() - t0

    def run(self) -> int:
        """Time one probe; returns its index."""
        t0 = time.perf_counter()
        total = 0.0
        for i in range(PROBE_LOOP):
            total += math.sqrt(i)
        for _ in range(PROBE_SORTS):
            self.hypot(self.a, self.b, out=self.out)
            self.out.sort()
        self.times.append(time.perf_counter() - t0)
        return len(self.times) - 1

    def scale(self, before: int) -> float:
        """Speed adjustment of a time taken between probe ``before`` and the
        next."""
        return PROBE_NOMINAL_S / (0.5 * (self.times[before] + self.times[before + 1]))


@dataclass
class Sample:
    """One measured operation."""

    kind: str
    seconds: float  # wall time of the operation
    busy_s: float  # wall time of the operation and its output check
    probe: int  # index of the speed probe taken just before it
    steps: int
    rows: int


class Runner:
    """Executes and checks operations, keeping timings and failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        # attempt number -> problems of that operation
        self.failures: dict[int, list[str]] = {}
        self.samples: list[Sample] = []
        self.digests: dict[str, dict] = {}
        self.tracer = None  # set while a traced cycle runs

    def fail(self, attempt: int, message: str) -> None:
        self.failures.setdefault(attempt, []).append(message)

    def problems(self) -> list[str]:
        return [msg for attempt in sorted(self.failures) for msg in self.failures[attempt]]

    def execute(self, op, plan, probe: int | None = None) -> None:
        """Run one operation and check it. With the index of the ``probe``
        taken just before it, its time counts toward the end-to-end
        metrics."""
        self.attempted += 1
        op.attempt = self.attempted
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        t0 = time.perf_counter()
        try:
            code = self.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - t0
        for problem in [f"exit status {code}"] if code != 0 else self.check(op, plan):
            self.fail(self.attempted, f"{op.key}: {problem}")
        if probe is not None:
            self.samples.append(Sample(op.kind, seconds, time.perf_counter() - t0, probe,
                                       op.steps, op.rows))

    def check(self, op, plan) -> list[str]:
        out = Path(op.out)
        c = checks
        try:
            problems = c.check_manifest(out)
            if op.kind == "score":
                problems += c.check_score(out, op.steps)
            elif op.kind == "path":
                problems += c.check_path(out, 3 if "--sweep-nt" in op.argv else 0)
            elif op.kind == "ingest":
                problems += c.check_ingest(out, plan.expected)
            else:
                problems += c.check_fit(out)
            digest = c.digest_dir(out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        first = self.digests.setdefault(op.out, digest)
        if digest != first:
            changed = sorted(k for k in set(digest) | set(first) if digest.get(k) != first.get(k))
            problems.append(f"rerun changed bytes of {changed}")
        return problems

    def run_cycle(self, plan, probe: SpeedProbe | None = None) -> float:
        """Run every operation of the cycle; with a ``probe``, probe the
        speed before each and record it. Returns the cycle's wall time."""
        t0 = time.perf_counter()
        for op in plan.cycle:
            self.execute(op, plan, probe.run() if probe else None)
        return time.perf_counter() - t0


def setup(runner, probe, workload, seed, work, import_s) -> tuple[object, list[tuple]]:
    """Generate inputs, run the prerequisite operations and one warm-up,
    ``SETUPS`` times, probing the speed before each set-up and after the
    last; returns the last plan and (wall seconds, index of the probe
    before) of every set-up."""
    times, digests, plan = [], [], None
    for i in range(SETUPS):
        before = probe.run()
        t0 = time.perf_counter()
        root = work / f"setup{i}"
        plan = workloads.generate(workload, seed, root)
        for op in plan.prepare:
            runner.execute(op, plan)
        runner.execute(plan.warmup, plan)
        now = time.perf_counter()
        # the first set-up also counts the start of the process, less the probes
        first = now - _T0 - probe.startup_s - probe.times[before]
        times.append((first if i == 0 else import_s + (now - t0), before))
        digests.append({name: checks.digest_file(path)
                        for name, path in sorted(plan.inputs.items())})
        if i + 1 < SETUPS:
            shutil.rmtree(root, ignore_errors=True)
    probe.run()
    if any(d != digests[0] for d in digests):
        runner.fail(plan.warmup.attempt, "generator wrote different bytes for the same seed")
    return plan, times


def reference_check(runner, workload, work, record: bool) -> None:
    """Run the reference seed's reference operations and compare the numbers
    of their score and path results with the recorded ones (or record them)."""
    plan = workloads.generate(workload, REFERENCE_SEED, work / "reference")
    ops = plan.reference
    for op in ops:
        runner.execute(op, plan)
    found = {op.key: checks.result_numbers(op.kind, Path(op.out))
             for op in ops if op.kind in checks.REFERENCE_FILES}
    doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8")) if REFERENCE_PATH.is_file() else {}
    if record:
        doc[workload] = found
        REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
        return
    expected = doc.get(workload, {})
    for op in ops:
        if op.key not in found:
            continue
        if op.key not in expected:
            runner.fail(op.attempt, f"reference {op.key}: no recorded values")
            continue
        for problem in checks.compare_numbers(found[op.key], expected[op.key]):
            runner.fail(op.attempt, f"reference {op.key}: {problem}")


def measure(runner, probe, plan, seconds: float) -> dict:
    """Closed loop of whole cycles until the time is spent, then one more
    probe after the last operation."""
    start = time.perf_counter()
    cycles = 0
    while True:
        last = runner.run_cycle(plan, probe)
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= MIN_CYCLES and elapsed + 0.5 * last >= seconds:
            break
    probe.run()
    return {"cycles": cycles, "measured_s": time.perf_counter() - start}


def measure_traced(runner, plan, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced cycles; per-layer metrics are per
    traced cycle and the overhead is traced minus untraced time."""
    spans = tracer.Tracer()
    start = time.perf_counter()
    plain = traced = 0.0
    pairs = 0
    while True:
        u = runner.run_cycle(plan)
        runner.tracer = spans
        with tracer.instrument(spans):
            t = runner.run_cycle(plan)
        runner.tracer = None
        plain += u
        traced += t
        pairs += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * (u + t) >= seconds:
            break
    metrics = tracer.layer_metrics(spans, pairs)
    metrics["trace.overhead_s"] = (traced - plain) / pairs
    metrics["trace.overhead_share"] = (traced - plain) / plain
    return metrics, {"cycles": pairs, "spans": spans,
                     "measured_s": time.perf_counter() - start}


def end_to_end(samples: list[Sample], setups: list[tuple], scale) -> tuple[dict, dict]:
    """End-to-end metrics of the measured operations and the set-ups, every
    time multiplied by ``scale(index of the probe taken before it)``."""
    t: dict[str, list[float]] = {"ingest": [], "fit": [], "score": [], "path": []}
    for s in samples:
        t[s.kind].append(s.seconds * scale(s.probe))
    busy_s = sum(s.busy_s * scale(s.probe) for s in samples)
    steps = sum(s.steps for s in samples)
    rows = sum(s.rows for s in samples if s.kind == "ingest")
    score_tail, score_pct = tail(t["score"])
    path_tail, path_pct = tail(t["path"])
    values = {
        "setup_s": statistics.median(wall * scale(probe) for wall, probe in setups),
        "graded_steps_per_s": steps / busy_s,
        "score_p50_s": statistics.median(t["score"]),
        "score_tail_s": score_tail,
        "path_p50_s": statistics.median(t["path"]),
        "path_tail_s": path_tail,
        "ingest_rows_per_s": rows / sum(t["ingest"]),
        "fit_s": statistics.mean(t["fit"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "setup_s": len(setups),
        "graded_steps_per_s": len(t["score"]),
        "score_p50_s": len(t["score"]),
        "score_tail_s": len(t["score"]),
        "path_p50_s": len(t["path"]),
        "path_tail_s": len(t["path"]),
        "ingest_rows_per_s": len(t["ingest"]),
        "fit_s": len(t["fit"]),
        "peak_rss_mb": 1,
    }
    detail = {"samples": counts, "score_tail_percentile": score_pct,
              "path_tail_percentile": path_pct, "graded_steps": steps, "ingest_rows": rows}
    return values, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="write the reference seed's result numbers to reference.json")
    return p.parse_args(argv)


def load_program(root: Path):
    src = root / "src"
    if not (src / "seamanship" / "__init__.py").is_file():
        raise Fatal(f"no seamanship package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import seamanship
    import seamanship.cli

    if Path(seamanship.__file__).resolve().parent != (src / "seamanship").resolve():
        raise Fatal(f"imported seamanship from {seamanship.__file__}, not {src}")
    return src, seamanship.cli


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        src, cli = load_program(root)
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = root / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(cli)
    try:
        if args.record_reference:
            reference_check(runner, args.workload, work, record=True)
            print(json.dumps({"recorded": args.workload, "failures": runner.problems()}))
            return 1 if runner.failures else 0
        probe = SpeedProbe()
        plan, setups = setup(runner, probe, args.workload, args.seed, work, import_s)
        if args.trace:
            metrics, info = measure_traced(runner, plan, args.seconds)
            spans = info.pop("spans")
            spans.write(outdir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            units = {k: v[0] for k, v in tracer.layer_units().items()}
            detail = {"broken_hooks": spans.broken_hooks}
        else:
            info = measure(runner, probe, plan, args.seconds)
            metrics, detail = end_to_end(runner.samples, setups, probe.scale)
            detail["wall_metrics"], _ = end_to_end(runner.samples, setups, lambda _: 1.0)
            units = END_TO_END_UNITS
        reference_check(runner, args.workload, work, record=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    prov = provenance(args.seed, src)
    failed = len(runner.failures)
    report = {
        "workload": args.workload, "trace": args.trace, "provenance": prov,
        "cycles": info["cycles"], "measured_s": info["measured_s"],
        # wall seconds of the set-ups and operations (these with and without
        # their output checks), each with the index of the probe before it
        "setups": setups,
        "operations": [(s.kind, s.seconds, s.busy_s, s.probe) for s in runner.samples],
        "probe_s": probe.times, "probe_nominal_s": PROBE_NOMINAL_S,
        "error_rate": failed / runner.attempted, "failures": runner.problems(),
        "metrics": metrics, **detail,
    }
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in prov.items() if k != "seed"))
    samples = detail.get("samples", {})
    wall = detail.get("wall_metrics", {})
    if wall:
        print(f"# speed-adjusted to a {1000 * PROBE_NOMINAL_S:.0f} ms probe; median probe "
              f"{1000 * statistics.median(probe.times):.2f} ms over {len(probe.times)}")
    for name, value in metrics.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        if name in wall and wall[name] != value:
            note += f"  wall clock {wall[name]:.6g}"
        print(f"{name:40s} {value:.6g} {units[name]}{note}")
    for key in ("score_tail_percentile", "path_tail_percentile"):
        if key in detail:
            print(f"{key:40s} {detail[key]:.1f}")
    for name, error in detail.get("broken_hooks", {}).items():
        print(f"work counts of {name} stopped: {error}")
    print(f"{'error_rate':40s} {failed / runner.attempted:.6g}  "
          f"({failed} of {runner.attempted} operations failed)")
    for problem in runner.problems()[:20]:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
