"""Print the sha256 of every output file the benchmark workloads produce.

Usage: python tools/output_digests.py SRC ROOT

SRC is the ``src`` directory of the checkout to run (``seamanship`` is
imported from there); ROOT is an empty or new directory for the inputs and
outputs. The three workloads' seed-0 inputs are written with
``perfbench/workloads.py`` of this checkout, and every distinct operation
of each workload (set-up ingest, ingest, fit-speed-model, each score
window and each safest-path sweep) runs once through
``seamanship.cli.main``, in plan order. One line is printed per output
file, ``<sha256>  <workload>/<path>``, sorted by path; the generated inputs
are not listed.

Paths are handed to the CLI relative to ROOT, so the manifests, and with
them the listing, do not depend on where ROOT is. Two listings are
compared with ``diff``: run on a parent and a change to check that the
change keeps every output byte, or run twice under different
``PYTHONHASHSEED`` values to check that outputs do not depend on the
process. Exits 1 if an operation fails.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import workloads  # noqa: E402


def operations(plan) -> list:
    """Set-up operations, then each cycle operation the first time its key
    appears, so every distinct operation runs once."""
    ops, seen = list(plan.prepare), set()
    for op in plan.cycle:
        if op.key not in seen:
            seen.add(op.key)
            ops.append(op)
    return ops


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src, root = Path(argv[0]).resolve(), Path(argv[1])
    sys.path.insert(0, str(src))
    import seamanship.cli

    if Path(seamanship.cli.__file__).resolve().parent != src / "seamanship":
        print(f"imported seamanship from {seamanship.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    root.mkdir(parents=True, exist_ok=True)
    os.chdir(root)
    outputs: list[Path] = []
    for name in workloads.WORKLOADS:
        plan = workloads.generate(name, 0, Path(name))
        for op in operations(plan):
            code = seamanship.cli.main(op.argv)
            if code != 0:
                print(f"{name} {op.key}: exit {code}", file=sys.stderr)
                return 1
        inputs = Path(name) / "inputs"
        outputs += [p for p in Path(name).rglob("*") if p.is_file() and inputs not in p.parents]
    for path in sorted(outputs, key=lambda p: p.as_posix()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
