"""Seconds of the compile-time checks, per source tree.

    python3 scripts/check_timing.py [--src DIR ...] [--rounds 41]

Compiles the 16 library ops at widths 4 and 8 (effort 2, n-ary ops with
`pumkit bench`'s operand count) and then add32 and mul16, the set-up of
perfbench's execute workloads, under the first `--src` tree (by default
this checkout's `src`), and keeps each compile's graph, row map and
program.  Then, in one process, it times each tree's checks of all of
them as `compile_op` runs them: `verify_program`, the lane check
(`oplib._verify_compiled`, under the row map's geometry) and
`spill_rows_used`.  Each round builds every program afresh, so `lower`
runs in every round instead of being read from the lowering cache, and
the rounds alternate between the trees, so that each gets the same
spells of a shared host; the first round is untimed and checks that
every tree gives the same verdicts, `verified_cases` and spill rows.
Prints each tree's median and quartiles in milliseconds and, for every
other tree, the rounds in which it beat the first.  Compare two commits
by passing both trees: `--src ../other/src src`.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from sweep_timing import compile_all, load, print_samples

ROOT = Path(__file__).resolve().parent.parent


def collect() -> list[tuple]:
    """(kind, width, n_inputs, operand widths, output width, input count,
    nodes, outputs, row map, program fields, commands) of every compile
    the grid pass and the set-up make, in the order they make them, under
    the tree loaded last."""
    oplib = sys.modules["pumkit.oplib"]
    compiled = []
    real_compile = oplib.compile_op

    def recorded_compile(*args, **kwargs):
        c = real_compile(*args, **kwargs)
        g, p = c.graph, c.program
        compiled.append((c.kind, c.width, c.n_inputs, c.operand_widths, c.out_width,
                         g.input_count, g.packed_nodes, g.packed_outputs, tuple(c.rowmap),
                         (p.name, p.width, p.data_rows), tuple(map(tuple, p.commands))))
        return c

    oplib.compile_op = recorded_compile
    try:
        compile_all()
    finally:
        oplib.compile_op = real_compile
    return compiled


def cases(modules, compiled) -> list[tuple]:
    """Per compile, the checks' arguments under one tree: (kind, width,
    n_inputs, operand widths, output width, graph, row map, program
    fields, commands)."""
    codegen = modules["pumkit.codegen"]
    return [(kind, width, n_inputs, widths, out_width,
             codegen.MajGraph(input_count, nodes, outputs), codegen.RowMap(*rowmap),
             header, tuple(codegen.Command(op, rows) for op, rows in commands))
            for (kind, width, n_inputs, widths, out_width, input_count, nodes, outputs,
                 rowmap, header, commands) in compiled]


def check_all(modules, tree_cases) -> tuple[float, list[tuple]]:
    """Seconds of `compile_op`'s checks over every case, on programs
    built afresh, and each case's (verdict, verified cases, spill rows)."""
    codegen, oplib = modules["pumkit.codegen"], modules["pumkit.oplib"]
    programs = [codegen.MicroProgram(*header, commands)
                for *_, header, commands in tree_cases]
    verify, lane_check, spill_rows = (codegen.verify_program, oplib._verify_compiled,
                                      codegen.spill_rows_used)
    results = []
    t = time.perf_counter()
    for (kind, width, n_inputs, widths, out_width, graph, rowmap, _, _), program in zip(
            tree_cases, programs):
        results.append((verify(graph, rowmap, program),
                        lane_check(kind, width, widths, out_width, program,
                                   rowmap.geometry, n_inputs),
                        spill_rows(program, rowmap)))
    return time.perf_counter() - t, results


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", nargs="+", default=[str(ROOT / "src")],
                    help="source trees holding a `pumkit` package")
    ap.add_argument("--rounds", type=int, default=41,
                    help="timed checks of every compile per tree")
    args = ap.parse_args(argv)
    trees = [str(Path(src).resolve()) for src in args.src]
    modules = {}
    for src in reversed(trees):  # the first tree last
        load(src, "pumkit.oplib")
        modules[src] = {name: sys.modules[name] for name in ("pumkit.codegen", "pumkit.oplib")}
    compiled = collect()
    tree_cases = {src: cases(modules[src], compiled) for src in trees}
    first = trees[0]
    _, expected = check_all(modules[first], tree_cases[first])
    for src in trees[1:]:
        if check_all(modules[src], tree_cases[src])[1] != expected:
            raise SystemExit(f"{src} checks give other results than {first}")
    samples: dict[str, list[float]] = {src: [] for src in trees}
    for _ in range(args.rounds):
        for src in trees:
            samples[src].append(check_all(modules[src], tree_cases[src])[0])
    commands = sum(len(c[-1]) for c in compiled)
    lanes = sum(cases for _, cases, _ in expected)
    print(f"{len(compiled)} programs ({commands} commands, {lanes} lanes), "
          f"{args.rounds} rounds per tree, milliseconds per round")
    print_samples(samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
