"""Reference semantics the benchmark checks pumkit's outputs against.

Everything here is written independently of pumkit: the integer meaning
of each operation kind, the operand shapes, the corner-case lanes, and
the classifier regions records are drawn from.  A disagreement between
pumkit and this module is counted as a failed operation.
"""

from __future__ import annotations

import itertools
import random

# The op x width grid of `pumkit bench`; n-ary ops take GRID_N_ARY operands.
GRID_KINDS = (
    "and_n", "or_n", "xor_n",
    "eq", "neq", "gt", "lt", "max", "min",
    "add", "sub", "mul", "div",
    "if_then_else",
    "bitcount", "relu",
)
GRID_WIDTHS = (4, 8, 16, 32)
GRID_N_ARY = 4
N_ARY = frozenset(("and_n", "or_n", "xor_n"))


def n_inputs(kind: str) -> int:
    return GRID_N_ARY if kind in N_ARY else 2


def operand_widths(kind: str, width: int) -> tuple[int, ...]:
    if kind in N_ARY:
        return (width,) * GRID_N_ARY
    if kind == "if_then_else":
        return (1, width, width)
    if kind in ("bitcount", "relu"):
        return (width,)
    return (width, width)


def expected(kind: str, width: int, ops: tuple[int, ...]) -> int:
    """Unsigned modular result of one lane."""
    mask = (1 << width) - 1
    if kind == "and_n":
        out = mask
        for v in ops:
            out &= v
        return out
    if kind == "or_n":
        out = 0
        for v in ops:
            out |= v
        return out
    if kind == "xor_n":
        out = 0
        for v in ops:
            out ^= v
        return out
    if kind == "if_then_else":
        return ops[1] if ops[0] else ops[2]
    if kind == "bitcount":
        return bin(ops[0]).count("1")
    if kind == "relu":
        return 0 if ops[0] >> (width - 1) else ops[0]
    a, b = ops
    table = {
        "eq": lambda: int(a == b),
        "neq": lambda: int(a != b),
        "gt": lambda: int(a > b),
        "lt": lambda: int(a < b),
        "max": lambda: a if a >= b else b,
        "min": lambda: b if a >= b else a,
        "add": lambda: a + b,
        "sub": lambda: (a - b) % (1 << width),
        "mul": lambda: a * b,
        "div": lambda: a // b if b else mask,
    }
    return table[kind]()


def lane_cases(kind: str, width: int, rng: random.Random, n_random: int) -> list[tuple[int, ...]]:
    """Corner vectors, equal-operand lanes, then `n_random` seeded lanes.

    Corners per operand are 0, 1, all-ones and MSB-only, crossed over every
    operand, so divisor = 0 and a = b are covered too.
    """
    widths = operand_widths(kind, width)
    per_operand = [sorted({0, 1, (1 << w) - 1, 1 << (w - 1)}) for w in widths]
    cases = list(itertools.product(*per_operand))
    for _ in range(4):
        v = rng.getrandbits(width)
        cases.append(tuple(rng.getrandbits(1) if w == 1 else v for w in widths))
    return cases + random_cases(kind, width, rng, n_random)


def random_cases(kind: str, width: int, rng: random.Random, n: int) -> list[tuple[int, ...]]:
    widths = operand_widths(kind, width)
    return [tuple(rng.getrandbits(w) for w in widths) for _ in range(n)]


def operand_lists(cases: list[tuple[int, ...]]) -> list[list[int]]:
    """Lane tuples -> one list per operand, as `execute_op` takes them."""
    return [list(col) for col in zip(*cases)]


# --- classifier records ----------------------------------------------------

# Default-threshold regions of the six bottleneck classes, each kept at
# least 0.02 clear of the cut-offs (mpki 10, locality 0.1, intensity 0.25,
# LFMR 0.7, LFMR trend 0.05).
CLASSES = (
    "dram-bandwidth-bound",
    "dram-latency-bound",
    "l1l2-cache-capacity",
    "l3-cache-contention",
    "l1-cache-capacity",
    "compute-bound",
)
LFMR_CORES = (1, 4, 16)


def draw_record(cls: str, rng: random.Random) -> tuple[float, float, float, tuple[float, ...]]:
    """(llc_mpki, temporal_locality, arithmetic_intensity, lfmr@1/4/16)."""
    u = rng.uniform
    low_loc, high_loc = u(0.0, 0.08), u(0.12, 1.0)
    low_mpki = u(0.0, 8.0)
    ai = u(0.0, 5.0)
    if cls == "dram-bandwidth-bound":
        return u(12.0, 100.0), low_loc, ai, tuple(u(0.0, 1.0) for _ in LFMR_CORES)
    if cls == "dram-latency-bound":
        return low_mpki, low_loc, ai, tuple(u(0.72, 1.0) for _ in LFMR_CORES)
    if cls == "l1l2-cache-capacity":
        first = u(0.3, 0.68)
        return low_mpki, low_loc, ai, (first, first - u(0.04, 0.1), first - u(0.1, 0.25))
    flat = u(0.0, 0.6)
    if cls == "l3-cache-contention":
        return low_mpki, high_loc, ai, (flat, flat + u(0.03, 0.1), flat + u(0.1, 0.3))
    steady = (flat, flat - u(0.0, 0.03), flat - u(0.0, 0.03))
    if cls == "l1-cache-capacity":
        return low_mpki, high_loc, u(0.0, 0.23), steady
    return low_mpki, high_loc, u(0.27, 5.0), steady  # compute-bound


def metrics_csv(n_records: int, rng: random.Random) -> tuple[str, list[str]]:
    """A metrics CSV with classes in equal shares, and each row's class."""
    lines = ["function,llc_mpki,temporal_locality,arithmetic_intensity,"
             + ",".join(f"lfmr@{c}" for c in LFMR_CORES)]
    labels = [CLASSES[i % len(CLASSES)] for i in range(n_records)]
    rng.shuffle(labels)
    for i, cls in enumerate(labels):
        mpki, loc, ai, lfmr = draw_record(cls, rng)
        cells = [f"fn{i}", f"{mpki:.6f}", f"{loc:.6f}", f"{ai:.6f}"]
        cells.extend(f"{max(v, 0.0):.6f}" for v in lfmr)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n", labels
