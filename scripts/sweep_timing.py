"""Seconds of the scheduler's sweeps, per source tree.

    python3 scripts/sweep_timing.py [--src DIR ...] [--rounds 41]

Collects every graph and row map that `codegen._Scheduler.run` sweeps
while compiling the 16 library ops at widths 4 and 8 (effort 2, n-ary
ops with `pumkit bench`'s operand count) and then add32 and mul16, the
set-up of perfbench's execute workloads, under the first `--src` tree
(by default this checkout's `src`).  Then, in one process, it times each
tree's `_Scheduler(graph, rowmap).run()` over all of them, once per
round and alternating between the trees, so that each gets the same
spells of a shared host; the first round is untimed and checks that
every tree emits the same command lists.  Prints each tree's median and
quartiles in milliseconds and, for every other tree, the rounds in
which it beat the first.  Compare two commits by passing both trees:
`--src ../other/src src`.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GRID_WIDTHS = (4, 8)
SETUP = (("add", 32), ("mul", 16))


def load(src: str, module: str = "pumkit.codegen"):
    """`module` of tree `src`, imported afresh under the package name
    `pumkit`; the modules of a tree loaded before stay usable through
    the references they hold."""
    for name in [m for m in sys.modules if m == "pumkit" or m.startswith("pumkit.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(src)


def collect() -> list[tuple[int, tuple, tuple, tuple]]:
    """(input count, nodes, outputs, row map) of every sweep that the
    grid pass and the set-up compiles make, in the order they make them,
    under the tree loaded last."""
    codegen = sys.modules["pumkit.codegen"]
    swept = []
    real_run = codegen._Scheduler.run

    def recorded_run(self):
        g = self.graph
        swept.append((g.input_count, g.packed_nodes, g.packed_outputs, tuple(self.rowmap)))
        return real_run(self)

    codegen._Scheduler.run = recorded_run
    try:
        compile_all()
    finally:
        codegen._Scheduler.run = real_run
    return swept


def compile_all() -> None:
    """Compile the widths-4/8 grid and the set-up ops under the tree
    loaded last."""
    cli = importlib.import_module("pumkit.cli")
    oplib = importlib.import_module("pumkit.oplib")
    for width in GRID_WIDTHS:
        for kind in oplib.OP_KINDS:
            oplib.compile_op(kind, width, effort=2,
                             n_inputs=cli.BENCH_N_INPUTS if kind in oplib.N_ARY else 2)
    for kind, width in SETUP:
        oplib.compile_op(kind, width)


def sweep_all(codegen, cases) -> float:
    """Seconds to sweep every (graph, row map) of `cases` with `codegen`."""
    scheduler = codegen._Scheduler
    t = time.perf_counter()
    for graph, rowmap in cases:
        scheduler(graph, rowmap).run()
    return time.perf_counter() - t


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", nargs="+", default=[str(ROOT / "src")],
                    help="source trees holding a `pumkit` package")
    ap.add_argument("--rounds", type=int, default=41, help="timed sweeps of every case per tree")
    args = ap.parse_args(argv)
    trees = [str(Path(src).resolve()) for src in args.src]
    modules = {src: load(src) for src in reversed(trees)}  # the first tree last
    swept = collect()
    cases = {src: [(m.MajGraph(n, nodes, outputs), m.RowMap(*rowmap))
                   for n, nodes, outputs, rowmap in swept]
             for src, m in modules.items()}
    first = trees[0]
    expected = [modules[first]._Scheduler(*case).run() for case in cases[first]]
    for src in trees[1:]:
        got = [modules[src]._Scheduler(*case).run() for case in cases[src]]
        if got != expected:
            raise SystemExit(f"{src} emits other commands than {first}")
    samples: dict[str, list[float]] = {src: [] for src in trees}
    for _ in range(args.rounds):
        for src in trees:
            samples[src].append(sweep_all(modules[src], cases[src]))
    commands = sum(map(len, expected))
    print(f"{len(swept)} sweeps ({commands} commands), {args.rounds} rounds per tree, "
          "milliseconds per round")
    print_samples(samples)
    return 0


def print_samples(samples: dict[str, list[float]], rounds: str = "rounds") -> None:
    """Each tree's median and quartiles of its per-round seconds, in
    milliseconds, and for every tree after the first the rounds (named
    `rounds`) in which it beat the first."""
    trees = list(samples)
    for src in trees:
        data = samples[src]  # a single round is its own median and quartiles
        q1, median, q3 = statistics.quantiles(data, n=4) if len(data) > 1 else data * 3
        print(f"{src}: median {median * 1e3:.1f}  quartiles {q1 * 1e3:.1f} .. {q3 * 1e3:.1f}")
    first = samples[trees[0]]
    for src in trees[1:]:
        wins = sum(a < b for a, b in zip(samples[src], first))
        print(f"{src} faster than {trees[0]} in {wins} of {len(first)} {rounds}")


if __name__ == "__main__":
    sys.exit(main())
