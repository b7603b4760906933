"""Seconds of the adder-cell pass, per source tree.

    python3 scripts/cell_timing.py [--src DIR ...] [--rounds 41]

Records every cleaned builder that `synthesis._Builder.adder_cells`
receives while compiling the 16 library ops at widths 4 and 8 (effort 2,
n-ary ops with `pumkit bench`'s operand count) and then add32 and mul16,
the set-up of perfbench's execute workloads, under the first `--src`
tree (by default this checkout's `src`).  Then, in one process, it times
each tree's `adder_cells` over fresh copies of all of them, once per
round and alternating between the trees, so that each gets the same
spells of a shared host; the first round is untimed and checks that
every tree leaves the same `nodes`, `outputs`, `repl` and rule counts.
Prints each tree's median and quartiles in milliseconds and, for every
other tree, the rounds in which it beat the first.  Compare two commits
by passing both trees: `--src ../other/src src`.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

from cut_timing import fresh
from sweep_timing import compile_all, load, print_samples

ROOT = Path(__file__).resolve().parent.parent


def collect() -> list[tuple[int, tuple, tuple, tuple]]:
    """(input count, nodes, outputs, repl items) of every builder that the
    grid pass and the set-up compiles hand to `adder_cells`, in the order
    they hand them, under the tree loaded last."""
    cls = sys.modules["pumkit.synthesis"]._Builder
    received = []
    real_cells = cls.adder_cells

    def recorded_cells(self, counts):
        received.append((self.input_count, tuple(self.nodes), tuple(self.outputs),
                         tuple(self.repl.items())))
        return real_cells(self, counts)

    cls.adder_cells = recorded_cells
    try:
        compile_all()
    finally:
        cls.adder_cells = real_cells
    return received


def cells_all(builders) -> float:
    """Seconds to run `adder_cells` on every builder of `builders`."""
    t = time.perf_counter()
    for b in builders:
        b.adder_cells(Counter())
    return time.perf_counter() - t


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", nargs="+", default=[str(ROOT / "src")],
                    help="source trees holding a `pumkit` package")
    ap.add_argument("--rounds", type=int, default=41,
                    help="timed passes over every builder per tree")
    args = ap.parse_args(argv)
    trees = [str(Path(src).resolve()) for src in args.src]
    modules = {src: load(src, "pumkit.synthesis") for src in reversed(trees)}
    received = collect()  # under the first tree, loaded last
    first = trees[0]
    results = {}
    for src in trees:
        rules: Counter = Counter()
        builders = fresh(modules[src], received)
        for b in builders:
            b.adder_cells(rules)
        results[src] = ([(b.nodes, b.outputs, b.repl) for b in builders], rules)
        if results[src] != results[first]:
            raise SystemExit(f"{src} builds other cells than {first}")
    samples: dict[str, list[float]] = {src: [] for src in trees}
    for _ in range(args.rounds):
        for src in trees:
            builders = fresh(modules[src], received)
            samples[src].append(cells_all(builders))
    nodes = sum(len(state[1]) for state in received)
    cells = results[first][1]["adder_cell"]
    print(f"{len(received)} builders ({nodes} nodes, {cells} cells), "
          f"{args.rounds} rounds per tree, milliseconds per round")
    print_samples(samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
