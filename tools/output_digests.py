"""Print the sha256 of every output file the benchmark workloads produce.

Usage: python tools/output_digests.py [--results] SRC ROOT

SRC is the ``src`` directory of the checkout to run (``seamanship`` is
imported from there); ROOT is an empty or new directory for the inputs and
outputs. The three workloads' seed-0 inputs are written with
``perfbench/workloads.py`` of this checkout, and every distinct operation
of each workload (set-up ingest, ingest, fit-speed-model, each score
window and each safest-path sweep) runs once through
``seamanship.cli.main``, in plan order. Each scene workload then scores
one long window of its first score's ownship (``LONG_WINDOWS``), whose
many step times the planner searches together, in several root blocks,
and one score window with a risk setting off its default
(``BRANCH_WINDOWS``), so that the listing covers every branch of the risk
kernels, not only the default ones. open_sea also scores the windows of
``GRADED_WINDOWS``, whose floor is high enough for the score to normalize.
One line is printed per output file, ``<sha256>  <workload>/<path>``,
sorted by path; the generated inputs are not listed.

Paths are handed to the CLI relative to ROOT, so the manifests, and with
them the listing, do not depend on where ROOT is. Two listings are
compared with ``diff``: run on a parent and a change to check that the
change keeps every output byte, or run twice under different
``PYTHONHASHSEED`` values to check that outputs do not depend on the
process. Exits 1 if an operation fails, if an output directory holds
a file that its ``manifest.json`` does not list (the benchmark's rerun
check digests only the files a manifest lists, so an unlisted output
would escape it), or if no ``gss.json`` counts a step of each branch in
``GRADED_BRANCHES``: a listing whose every step passes the raw risk
through would not move when the floor-aware grade does.

With ``--results`` each output is digested without the digests of its
inputs: the ``# inputs`` line of a CSV output, ``provenance.inputs`` of a
JSON output and ``inputs`` of a ``manifest.json`` are removed (a JSON
output is digested as the CLI writes it, with ``seamanship.ingest.json_text``
of SRC, which ``--results`` therefore needs). A change that moves the bytes
of an input, such as the scenario archive, and no result then lists only
that input's own file as changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import workloads  # noqa: E402


# flags of the long score per scene workload: open_sea's first ten steps,
# open water where every root keeps a full beam of tied nodes, and
# channel_chart's whole ownship span. A beam of 16 nodes lets six roots
# share a block (planner.ROOT_BLOCK_NODES) on the 39-action grid.
NARROW_BEAM = ["--set", "search.beam_width=16"]
LONG_WINDOWS = {"open_sea": ["--t-start", "0", "--t-end", "90", *NARROW_BEAM],
                "channel_chart": NARROW_BEAM}
# (output name, flags) of the score window per scene workload with a risk
# setting off its default; a flag given here replaces the first score
# window's own. open_sea reruns that window with the "prob_or" mutual
# index. channel_chart scores ownship 219100003's first minute with the
# horizon-max grounding index, which there exceeds the instantaneous index
# at three of six steps, so the later horizon offsets decide outputs; its
# arena is widened to 1,500 m to bring the shoal ahead into the arena.
BRANCH_WINDOWS = {
    "open_sea": ("score-prob-or", ["--set", "risk.mutual_mode=prob_or"]),
    "channel_chart": ("score-grounding-max", [
        "--ownship", "219100003", "--t-start", "10", "--t-end", "60",
        "--set", "risk.grounding_horizon_max=true", "--set", "risk.arena_radius=1500",
        *NARROW_BEAM,
    ]),
}
# (output name, flags) of open_sea score windows, on the default grid, that
# reach the normalization's graded branches (seed 0): 219000001's floor
# exceeds sr_star_eps from t = 520 to 780 s, where 5 steps read "normalized"
# and 15 "no_headroom"; 219010001 reads "no_headroom" at 17 steps of
# t = 300-460 s, and "clamped_star" at all 17.
GRADED_WINDOWS = {"open_sea": [
    ("score-normalized", ["--ownship", "219000001", "--t-start", "520", "--t-end", "780"]),
    ("score-no-headroom", ["--ownship", "219010001", "--t-start", "300", "--t-end", "460"]),
]}
# the normalization branches that some step of the listing must take
GRADED_BRANCHES = ("normalized", "no_headroom")


def operations(name: str, plan) -> list[list[str]]:
    """Command lines of the set-up operations, then of each cycle
    operation the first time its key appears, so every distinct operation
    runs once, then of the workload's long score window, its branch window
    and its graded windows, where it has them."""
    ops, seen = [op.argv for op in plan.prepare], set()
    for op in plan.cycle:
        if op.key not in seen:
            seen.add(op.key)
            ops.append(op.argv)

    def first_score(drop: tuple[str, ...], flags: list[str], output: str) -> list[str]:
        # the subcommand, then each flag with its value; a flag in ``flags``
        # replaces the score's own
        score = next(op.argv for op in plan.cycle if op.kind == "score")
        pairs = zip(score[1::2], score[2::2])
        drop = (*drop, *flags[::2], "--output")
        kept = [a for pair in pairs if pair[0] not in drop for a in pair]
        return [score[0], *kept, *flags, "--output", str(Path(name) / "out" / output)]

    if name in LONG_WINDOWS:
        ops.append(first_score(("--t-start", "--t-end"), LONG_WINDOWS[name], "score-long"))
    if name in BRANCH_WINDOWS:
        output, flags = BRANCH_WINDOWS[name]
        ops.append(first_score((), flags, output))
    ops += [first_score((), flags, output) for output, flags in GRADED_WINDOWS.get(name, ())]
    return ops


def result_bytes(path: Path) -> bytes:
    """The bytes of an output file without the digests of its inputs."""
    from seamanship.ingest import json_text

    data = path.read_bytes()
    if path.suffix == ".csv":
        lines = data.splitlines(keepends=True)
        return b"".join(line for line in lines if not line.startswith(b"# inputs "))
    if path.suffix != ".json":
        return data
    doc = json.loads(data)
    if path.name == "manifest.json":
        del doc["inputs"]
    if isinstance(doc.get("provenance"), dict):
        del doc["provenance"]["inputs"]
    return json_text(doc).encode("utf-8")


def unlisted(outputs: list[Path]) -> list[Path]:
    """The output files that the ``manifest.json`` beside them does not
    list, or that have no manifest beside them."""
    listed: dict[Path, set[str]] = {}
    for path in outputs:
        manifest = path.parent / "manifest.json"
        if path.parent not in listed:
            doc = json.loads(manifest.read_text(encoding="utf-8")) if manifest.is_file() else {}
            listed[path.parent] = {"manifest.json", *doc.get("outputs", [])}
    return [path for path in outputs if path.name not in listed[path.parent]]


def ungraded(outputs: list[Path]) -> list[str]:
    """The ``GRADED_BRANCHES`` that no step of a ``gss.json`` among the
    outputs takes."""
    flags = [json.loads(p.read_text(encoding="utf-8"))["flags"]
             for p in outputs if p.name == "gss.json"]
    return [branch for branch in GRADED_BRANCHES if not any(f[branch] for f in flags)]


def main(argv: list[str]) -> int:
    results = argv[:1] == ["--results"]
    if results:
        argv = argv[1:]
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src, root = Path(argv[0]).resolve(), Path(argv[1])
    sys.path.insert(0, str(src))
    import seamanship.cli

    if Path(seamanship.cli.__file__).resolve().parent != src / "seamanship":
        print(f"imported seamanship from {seamanship.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    if results and not hasattr(seamanship.ingest, "json_text"):
        print(f"--results needs seamanship.ingest.json_text, which {src} lacks", file=sys.stderr)
        return 2
    root.mkdir(parents=True, exist_ok=True)
    os.chdir(root)
    outputs: list[Path] = []
    for name in workloads.WORKLOADS:
        plan = workloads.generate(name, 0, Path(name))
        for argv in operations(name, plan):
            code = seamanship.cli.main(argv)
            if code != 0:
                print(f"{name} {' '.join(argv)}: exit {code}", file=sys.stderr)
                return 1
        inputs = Path(name) / "inputs"
        outputs += [p for p in Path(name).rglob("*") if p.is_file() and inputs not in p.parents]
    stray = unlisted(outputs)
    for path in stray:
        print(f"{path.as_posix()}: not listed in the manifest beside it", file=sys.stderr)
    missing = ungraded(outputs)
    for branch in missing:
        print(f"no score window takes the {branch!r} normalization branch", file=sys.stderr)
    if stray or missing:
        return 1
    read = result_bytes if results else Path.read_bytes
    for path in sorted(outputs, key=lambda p: p.as_posix()):
        print(f"{hashlib.sha256(read(path)).hexdigest()}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
