"""Seconds of `import pumkit` in fresh interpreters, per source tree.

    python3 scripts/import_timing.py [--src DIR ...] [--runs 21]

Times `import pumkit` in `--runs` fresh `python -I` interpreters per
tree, the way perfbench's `import_seconds` does (the same timer code),
alternating between the `--src` trees (by default this checkout's `src`)
so that each gets the same spells of a shared host.  Prints each tree's
median and quartiles in milliseconds and, for every other tree, the runs
in which it beat the first, then the ten largest self times of one
`python -I -X importtime` run per tree.  Compare two commits by passing
both trees: `--src ../other/src src`.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from sweep_timing import print_samples

ROOT = Path(__file__).resolve().parent.parent

# perfbench/run.py's `_IMPORT_TIMER`: the tree comes in as argv[1]
TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import pumkit\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds(src: str) -> float:
    done = subprocess.run([sys.executable, "-I", "-c", TIMER, src],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def self_times(src: str) -> list[tuple[int, str]]:
    """(self microseconds, module) of every import that one `-X
    importtime` run reports under `import pumkit`, largest first; the
    interpreter's own start-up imports are left out."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import pumkit"
    done = subprocess.run([sys.executable, "-I", "-X", "importtime", "-c", code, src],
                          capture_output=True, text=True, check=True, timeout=120)
    subtree: list[tuple[int, str]] = []  # imports since the last top-level one
    for line in done.stderr.splitlines():
        fields = line.partition(":")[2].split("|")
        if not line.startswith("import time:") or not fields[0].strip().isdigit():
            continue
        subtree.append((int(fields[0]), fields[2].strip()))
        if not fields[2].startswith("  "):  # a top-level import ends its subtree
            if fields[2].strip() == "pumkit":
                return sorted(subtree, reverse=True)
            subtree = []
    return []


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", nargs="+", default=[str(ROOT / "src")],
                    help="source trees holding a `pumkit` package")
    ap.add_argument("--runs", type=int, default=21, help="interpreters per tree")
    args = ap.parse_args(argv)
    trees = [str(Path(src).resolve()) for src in args.src]
    for src in trees:
        import_seconds(src)  # writes the tree's bytecode caches, untimed
    samples: dict[str, list[float]] = {src: [] for src in trees}
    for _ in range(args.runs):
        for src in trees:
            samples[src].append(import_seconds(src))
    print(f"import pumkit, {args.runs} fresh interpreters per tree, milliseconds")
    print_samples(samples, "runs")
    for src in trees:
        print(f"\nlargest self times, one -X importtime run, {src}")
        for us, name in self_times(src)[:10]:
            print(f"  {us / 1e3:6.2f} ms  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
