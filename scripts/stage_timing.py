"""Host time of one full-row `execute_op`, split into its three stages.

    python3 scripts/stage_timing.py [--lanes 65536] [--calls 9] [--seed 1]

Compiles add32 and mul16 (effort 2, default subarray), then calls
`oplib.execute_op` `--calls` times on `--lanes` seeded random lanes and
prints, per op, the median over calls of the microseconds spent transposing
operands in (`to_vertical`), running the program
(`SubarrayState.run_program`) and transposing results out
(`to_horizontal`), of the rest of the call (packing the operands into
`HorizontalBlock`s, making the subarray, checking arguments) and of the
whole call.  The stages are timed by wrapping those functions where
`execute_op` reaches them; every call's results are checked against
`oplib.oracle_lanes`.  `--lanes 64` is the batch of perfbench's
`execute-narrow` workload, where running the program dominates;
`--lanes 4096` is `execute-wide`'s.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pumkit import oplib  # noqa: E402
from pumkit.subarray import SubarrayState  # noqa: E402

OPS = (("add", 32), ("mul", 16))
STAGES = ("transpose in", "run_program", "transpose out")


def timed(fn, stage: str, spent: dict):
    """`fn`, adding the seconds of each call to spent[stage]."""
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - t
    return wrapper


def stage_seconds(kind: str, width: int, lanes: int, calls: int,
                  rng: random.Random) -> dict[str, float]:
    """Median seconds per stage, and of the whole call, over `calls` calls."""
    compiled = oplib.compile_op(kind, width)
    inputs = [[rng.getrandbits(w) for _ in range(lanes)]
              for w in compiled.operand_widths]
    want = oplib.oracle_lanes(kind, width, inputs)
    spent = dict.fromkeys(STAGES, 0.0)
    saved = oplib.to_vertical, SubarrayState.run_program, oplib.to_horizontal
    oplib.to_vertical, SubarrayState.run_program, oplib.to_horizontal = (
        timed(fn, stage, spent) for fn, stage in zip(saved, STAGES))
    samples = {stage: [] for stage in STAGES + ("rest", "execute_op")}
    try:
        for _ in range(calls):
            for stage in STAGES:
                spent[stage] = 0.0
            t = time.perf_counter()
            got = oplib.execute_op(compiled, inputs)
            call = time.perf_counter() - t
            if got != want:
                raise SystemExit(f"{kind}{width}: results disagree with the oracle")
            for stage in STAGES:
                samples[stage].append(spent[stage])
            samples["rest"].append(call - sum(spent.values()))
            samples["execute_op"].append(call)
    finally:
        oplib.to_vertical, SubarrayState.run_program, oplib.to_horizontal = saved
    return {stage: statistics.median(s) for stage, s in samples.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--lanes", type=int, default=65536)
    ap.add_argument("--calls", type=int, default=9)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    print(f"median of {args.calls} calls at {args.lanes} lanes, microseconds")
    for kind, width in OPS:
        medians = stage_seconds(kind, width, args.lanes, args.calls, rng)
        print(f"{kind}{width}: " + "  ".join(f"{stage} {s * 1e6:.0f}"
                                             for stage, s in medians.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
