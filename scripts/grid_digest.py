"""Byte-identity digest of the compiled op grid.

    python3 scripts/grid_digest.py [--widths 4 8 16 32] [--effort {0,1,2}]

Compiles the 16 library ops at each width (by default `pumkit bench`'s,
`cli.BENCH_WIDTHS`) at the given effort (default 2) on the default
subarray, n-ary ops with
`pumkit bench`'s operand count, `cli.BENCH_N_INPUTS`, and prints, per
width, the first 16 hex digits of one sha256 fed, in `OP_KINDS` order,
each cell's `format_microprogram` text, `repr` of its `SynthesisReport`
and its `verified_cases`; then the total row activations of the grid.
Two commits that print the same lines emit the same programs and
reports, so a change meant to leave compiler output alone can be checked
by running this on both.  Each width's compile seconds go to stderr, so
the stdout of two commits still diffs line for line.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pumkit.cli import BENCH_N_INPUTS, BENCH_WIDTHS  # noqa: E402
from pumkit.codegen import activation_count, format_microprogram  # noqa: E402
from pumkit.oplib import N_ARY, OP_KINDS, compile_op  # noqa: E402


EFFORT = 2  # the compile effort; `--effort` sets it


def width_digest(width: int) -> tuple[str, int]:
    """(digest of the width's cells at `EFFORT`, their total activations)."""
    h = hashlib.sha256()
    total = 0
    for kind in OP_KINDS:
        c = compile_op(kind, width, effort=EFFORT,
                       n_inputs=BENCH_N_INPUTS if kind in N_ARY else 2)
        h.update(format_microprogram(c.program).encode())
        h.update(repr(c.report).encode())
        h.update(str(c.verified_cases).encode())
        total += activation_count(c.program).total
    return h.hexdigest()[:16], total


def main(argv: list[str] | None = None) -> int:
    global EFFORT
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--widths", type=int, nargs="+", default=list(BENCH_WIDTHS))
    ap.add_argument("--effort", type=int, choices=(0, 1, 2), default=2)
    args = ap.parse_args(argv)
    EFFORT = args.effort
    grid_total = 0
    try:
        for width in args.widths:
            start = time.perf_counter()
            digest, total = width_digest(width)
            print(f"width {width}: {time.perf_counter() - start:.3f} s compile",
                  file=sys.stderr, flush=True)
            grid_total += total
            print(f"width {width}: {digest}  ({total} activations)", flush=True)
        print(f"grid total: {grid_total} activations", flush=True)
    except BrokenPipeError:
        # The reader has gone (`| head -1`): stop without a traceback, and
        # point stdout at devnull so the exit-time flush cannot fail again.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # stdout is no file descriptor
            pass
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
