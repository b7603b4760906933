"""The operation library: builders, oracles, and the end-to-end path.

Sixteen operation kinds are supported; each has a gate-netlist builder
(the compiled circuit's source of truth) and a host-side integer oracle
(the reference the compiled program is verified against).

Integer semantics are unsigned and modular.  Per-kind output widths:

* ``add``            w+1 bits, carry-out in the top bit
* ``sub``            w bits, modulo 2^w
* ``mul``            2w bits, full product
* ``div``            w-bit quotient; division by zero yields all ones
* ``eq/neq/gt/lt``   1 bit
* ``max/min/if_then_else/relu``   w bits
* ``bitcount``       bit_length(w) bits
* ``and_n/or_n/xor_n``            w bits over n >= 2 operands

Widths run 1..`MAX_WIDTH`, and so must results, which are staged out
through `transpose`: ``add`` at the top width and ``mul`` above half of
it are refused with a `CapacityError` before anything is compiled.

``relu`` alone reads the top input bit as a two's-complement sign and
clamps negatives to zero.

Every multi-bit sum is one ripple adder of AND/OR/XOR full adders:
``add``, each row of ``mul``, each input bit of ``bitcount``, and each
subtraction, which computes A - B as ~(~A + B), in ``sub`` and in every
step of ``div``.  ``div`` is restoring division that keeps only the
remainder bits that can be nonzero.  Compiling at effort 1 or 2 rebuilds
each full adder as the three-node majority cell (`synthesis.optimize`);
effort 0 keeps the naive lowering of these gates.

`compile_op` is the one compile entry point, and it keeps no cache: a
caller that wants a compile twice holds on to its `CompiledOp`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .codegen import (
    DEFAULT_SUBARRAY,
    MicroProgram,
    RowMap,
    SubarrayConfig,
    allocate_rows,
    schedule,
    spill_rows_used,
    verify_program,
)
from .errors import ArityError, CapacityError, PumError
from .logic import EDGE_ONE, EDGE_ZERO, Gate, MajGraph, Netlist
from .subarray import ExecutionReport, new_subarray
from .synthesis import SynthesisReport, lower_to_maj, optimize
from .transpose import MAX_WIDTH, HorizontalBlock, _unpack, to_horizontal, to_vertical

OP_KINDS = (
    "and_n", "or_n", "xor_n",
    "eq", "neq", "gt", "lt", "max", "min",
    "add", "sub", "mul", "div",
    "if_then_else",
    "bitcount", "relu",
)

N_ARY = frozenset(("and_n", "or_n", "xor_n"))

# Operands an n-ary kind may take: twice the default subarray's rows.
MAX_N_INPUTS = 2 * DEFAULT_SUBARRAY.total_rows


def op_signature(kind: str, width: int, n_inputs: int = 2) -> tuple[tuple[int, ...], int]:
    """(operand widths, output width) for one operation instance."""
    _check_kind_width(kind, width, n_inputs)
    w = width
    if kind in N_ARY:
        return (w,) * n_inputs, w
    if kind in ("eq", "neq", "gt", "lt"):
        return (w, w), 1
    if kind in ("max", "min"):
        return (w, w), w
    if kind == "add":
        return (w, w), w + 1
    if kind == "sub":
        return (w, w), w
    if kind == "mul":
        return (w, w), 2 * w
    if kind == "div":
        return (w, w), w
    if kind == "if_then_else":
        return (1, w, w), w
    if kind == "bitcount":
        return (w,), w.bit_length()
    return (w,), w  # relu


def _check_kind_width(kind: str, width: int, n_inputs: int):
    if kind not in OP_KINDS:
        raise ValueError(f"unknown operation {kind!r}")
    for name, value in (("width", width), ("n_inputs", n_inputs)):
        if type(value) is not int:  # a bool is not one
            raise ArityError(f"{name} must be an int, got {value!r}")
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width {width} outside 1..{MAX_WIDTH}")
    if kind in N_ARY:
        if not 2 <= n_inputs <= MAX_N_INPUTS:
            raise ValueError(f"{kind} takes 2..{MAX_N_INPUTS} operands, got {n_inputs}")
    elif n_inputs != 2:  # the default; fixed-arity kinds take no operand count
        raise ValueError(f"{kind} takes a fixed number of operands, not {n_inputs}")


# --- host oracle -------------------------------------------------------------


def oracle(kind: str, width: int, operands: tuple[int, ...] | list[int]) -> int:
    """Reference integer semantics for one lane (totalized, pure)."""
    return oracle_lanes(kind, width, [[v] for v in operands])[0]


def oracle_lanes(kind: str, width: int, columns: list[list[int]]) -> list[int]:
    """`oracle` over operand columns: one result per lane, where lane i
    takes operand k from ``columns[k][i]``.  Totalized: each column is
    masked once to its operand's width (``if_then_else``'s condition to
    one bit, every other operand to `width` bits), then `_oracle_in_range`
    computes the results."""
    masks = [(1 << width) - 1] * len(columns)
    if kind == "if_then_else":
        masks[0] = 1
    return _oracle_in_range(kind, width, [[v & m for v in col]
                                          for m, col in zip(masks, columns)])


def _oracle_in_range(kind: str, width: int, columns: list[list[int]]) -> list[int]:
    """`oracle_lanes` on columns already in range: operand k of every lane
    is below 2^(its width), which is why nothing here masks an operand.
    Each kind's semantics are written here alone; the lane check, whose
    lanes are drawn in range, calls this directly."""
    mask = (1 << width) - 1
    if kind in N_ARY:
        acc = columns[0]
        for col in columns[1:]:
            if kind == "and_n":
                acc = [x & v for x, v in zip(acc, col)]
            elif kind == "or_n":
                acc = [x | v for x, v in zip(acc, col)]
            else:
                acc = [x ^ v for x, v in zip(acc, col)]
        return list(acc)
    if kind == "if_then_else":
        cond, a, b = columns
        return [x if c else y for c, x, y in zip(cond, a, b)]
    if kind == "bitcount":
        return [v.bit_count() for v in columns[0]]
    if kind == "relu":
        sign = 1 << (width - 1)
        return [v if v < sign else 0 for v in columns[0]]
    a, b = columns[0], columns[1]
    if kind == "eq":
        return [1 if x == y else 0 for x, y in zip(a, b)]
    if kind == "neq":
        return [1 if x != y else 0 for x, y in zip(a, b)]
    if kind == "gt":
        return [1 if x > y else 0 for x, y in zip(a, b)]
    if kind == "lt":
        return [1 if x < y else 0 for x, y in zip(a, b)]
    if kind == "max":
        return [x if x > y else y for x, y in zip(a, b)]
    if kind == "min":
        return [y if x > y else x for x, y in zip(a, b)]
    if kind == "add":
        return [x + y for x, y in zip(a, b)]
    if kind == "sub":
        return [(x - y) & mask for x, y in zip(a, b)]
    if kind == "mul":
        return [x * y for x, y in zip(a, b)]
    if kind == "div":
        return [x // y if y else mask for x, y in zip(a, b)]
    raise ValueError(f"unknown operation {kind!r}")


# --- netlist builders ---------------------------------------------------------


class _NB:
    """Gate accumulator with constant-identity folding; refs are packed
    netlist edges, so gate j is ``j << 1``."""

    def __init__(self):
        self.gates: list[Gate] = []
        self._not_cache: dict[int, int] = {}

    def _emit(self, kind: str, *ops: int) -> int:
        self.gates.append(Gate(kind, ops))
        return len(self.gates) - 1 << 1

    def NOT(self, a: int) -> int:
        if a == EDGE_ZERO or a == EDGE_ONE:
            return a ^ 1
        hit = self._not_cache.get(a)
        if hit is None:
            hit = self._emit("NOT", a)
            self._not_cache[a] = hit
        return hit

    def AND(self, a: int, b: int) -> int:
        if a == EDGE_ZERO or b == EDGE_ZERO:
            return EDGE_ZERO
        if a == EDGE_ONE:
            return b
        if b == EDGE_ONE:
            return a
        return self._emit("AND", a, b)

    def OR(self, a: int, b: int) -> int:
        if a == EDGE_ONE or b == EDGE_ONE:
            return EDGE_ONE
        if a == EDGE_ZERO:
            return b
        if b == EDGE_ZERO:
            return a
        return self._emit("OR", a, b)

    def XOR(self, a: int, b: int) -> int:
        if a == EDGE_ZERO:
            return b
        if b == EDGE_ZERO:
            return a
        if a == EDGE_ONE:
            return self.NOT(b)
        if b == EDGE_ONE:
            return self.NOT(a)
        return self._emit("XOR", a, b)

    def mux(self, sel: int, a: int, b: int) -> int:
        """sel ? a : b"""
        return self.OR(self.AND(sel, a), self.AND(self.NOT(sel), b))

    def reduce(self, kind: str, refs: list[int]) -> int:
        refs = list(refs)
        op = {"AND": self.AND, "OR": self.OR, "XOR": self.XOR}[kind]
        while len(refs) > 1:
            nxt = [op(refs[i], refs[i + 1]) for i in range(0, len(refs) - 1, 2)]
            if len(refs) % 2:
                nxt.append(refs[-1])
            refs = nxt
        return refs[0]

    def ripple_add(self, A: list[int], B: list[int],
                   carry: int = EDGE_ZERO) -> tuple[list[int], int]:
        """A + B + carry; returns (sum bits, carry-out)."""
        out = []
        for a, b in zip(A, B):
            x = self.XOR(a, b)
            out.append(self.XOR(x, carry))
            carry = self.OR(self.AND(a, b), self.AND(x, carry))
        return out, carry

    def sub(self, A: list[int], B: list[int]) -> tuple[list[int], int]:
        """A - B as ~(~A + B) on `ripple_add`; returns (difference bits,
        NOT carry-out), the latter 1 exactly when A >= B."""
        sums, carry = self.ripple_add([self.NOT(a) for a in A], B)
        return [self.NOT(s) for s in sums], self.NOT(carry)

    def greater(self, A: list[int], B: list[int]) -> int:
        """1 exactly when A > B, rippled up from the low bit."""
        g = EDGE_ZERO
        for a, b in zip(A, B):
            g = self.OR(self.AND(a, self.NOT(b)),
                        self.AND(self.NOT(self.XOR(a, b)), g))
        return g


def _operand_bits(widths: tuple[int, ...]) -> list[list[int]]:
    """Input edges of each operand's bits, input i being (-2 - i) << 1."""
    starts = itertools.accumulate(widths, initial=0)
    return [[(-2 - i) << 1 for i in range(s, s + w)] for s, w in zip(starts, widths)]


def build_netlist(kind: str, width: int, n_inputs: int = 2) -> Netlist:
    """Gate-level reference circuit for one operation instance."""
    widths, out_width = op_signature(kind, width, n_inputs)
    ops = _operand_bits(widths)
    nb = _NB()
    w = width

    if kind in N_ARY:
        gate = {"and_n": "AND", "or_n": "OR", "xor_n": "XOR"}[kind]
        outs = [nb.reduce(gate, [ops[i][j] for i in range(len(ops))])
                for j in range(w)]
    elif kind in ("eq", "neq"):
        diff = nb.reduce("OR", [nb.XOR(a, b) for a, b in zip(ops[0], ops[1])])
        outs = [nb.NOT(diff) if kind == "eq" else diff]
    elif kind in ("gt", "lt"):
        A, B = (ops[0], ops[1]) if kind == "gt" else (ops[1], ops[0])
        outs = [nb.greater(A, B)]
    elif kind in ("max", "min"):
        g = nb.greater(ops[0], ops[1])
        if kind == "max":
            outs = [nb.mux(g, a, b) for a, b in zip(ops[0], ops[1])]
        else:
            outs = [nb.mux(g, b, a) for a, b in zip(ops[0], ops[1])]
    elif kind == "add":
        sums, carry = nb.ripple_add(ops[0], ops[1])
        outs = sums + [carry]
    elif kind == "sub":
        outs, _ = nb.sub(ops[0], ops[1])
    elif kind == "mul":
        acc = [EDGE_ZERO] * (2 * w)
        for i, b in enumerate(ops[1]):
            acc[i:i + w], acc[i + w] = nb.ripple_add(acc[i:i + w],
                                                      [nb.AND(a, b) for a in ops[0]])
        outs = acc
    elif kind == "div":
        # Restoring division.  After s steps the remainder is the top s
        # dividend bits mod D (the prefix itself when D = 0), so it is
        # below 2^s: its bits s and up are zero, and setting them to
        # EDGE_ZERO lets constant folding shrink the next subtraction.
        R = [EDGE_ZERO] * w
        Q = [EDGE_ZERO] * w
        divisor = ops[1] + [EDGE_ZERO]
        for i in reversed(range(w)):
            shifted = [ops[0][i]] + R  # remainder << 1 | dividend bit, w+1 bits
            diff, q = nb.sub(shifted, divisor)
            Q[i] = q
            s = w - i  # steps done
            R = [nb.mux(q, diff[k], shifted[k]) for k in range(s)] + [EDGE_ZERO] * (w - s)
        outs = Q
    elif kind == "if_then_else":
        cond = ops[0][0]
        outs = [nb.mux(cond, a, b) for a, b in zip(ops[1], ops[2])]
    elif kind == "bitcount":
        cnt: list[int] = []
        for bit in ops[0]:
            cnt, carry = nb.ripple_add(cnt, [EDGE_ZERO] * len(cnt), bit)
            if len(cnt) < out_width:
                cnt.append(carry)
        outs = cnt  # out_width <= w bits, so the counter reached out_width
    else:  # relu: a non-negative result always has a zero top bit
        keep = nb.NOT(ops[0][w - 1])
        outs = [nb.AND(bit, keep) for bit in ops[0][: w - 1]] + [EDGE_ZERO]

    return Netlist(sum(widths), nb.gates, outs)


# --- compiled artifacts ---------------------------------------------------------


@dataclass(frozen=True)
class CompiledOp:
    kind: str
    width: int
    n_inputs: int
    operand_widths: tuple[int, ...]
    out_width: int
    netlist: Netlist
    graph: MajGraph
    rowmap: RowMap
    program: MicroProgram
    report: SynthesisReport
    verified_cases: int
    spill_rows: int  # scratch data rows the program spills into


def _corner_lanes(kind, widths, rng) -> list[tuple[int, ...]]:
    """0, 1, all-ones and MSB-only per operand, crossed over the first four
    operands (later n-ary operands repeat the fourth), then lanes with
    every operand equal and, for div, a zero divisor."""
    per_operand = [sorted({0, 1, (1 << w) - 1, 1 << (w - 1)}) for w in widths[:4]]
    cases = [c + c[-1:] * (len(widths) - len(c)) for c in itertools.product(*per_operand)]
    for _ in range(4):
        v = rng.getrandbits(max(widths))
        cases.append(tuple(v & ((1 << w) - 1) for w in widths))
        if kind == "div":
            cases.append((v & ((1 << widths[0]) - 1), 0))
    return cases


# _BYTE_SHIFTS[s] maps each byte b to b >> s, for s = 0..7; each table
# is the one before it read through the table for s = 1.
_BYTE_SHIFTS = [bytes(range(256)), bytes(b >> 1 for b in range(256))]
for _ in range(6):
    _BYTE_SHIFTS.append(_BYTE_SHIFTS[-1].translate(_BYTE_SHIFTS[1]))


def _random_column(rng: random.Random, width: int, n: int) -> list[int]:
    """``[rng.getrandbits(width) for _ in range(n)]``, drawn in one call
    when `width` <= 32.  A k-bit draw, k <= 32, is the top k bits of one
    32-bit word of the generator, and a 32n-bit draw is n such words,
    least significant first, so both give the same lanes and leave `rng`
    in the same state.  Up to 8 bits, the lanes are the draw's top byte
    of every word, cut through a byte table; wider, the top bits move
    down in every word at once, and the words are read whole."""
    if width > 32:
        return [rng.getrandbits(width) for _ in range(n)]
    draw = rng.getrandbits(32 * n)
    if width <= 8:
        return list(draw.to_bytes(4 * n, "little")[3::4].translate(_BYTE_SHIFTS[8 - width]))
    if width < 32:
        draw = (draw >> (32 - width)) & int.from_bytes(
            ((1 << width) - 1).to_bytes(4, "little") * n, "little")
    return _unpack(draw.to_bytes(4 * n, "little"), 4)


def _verify_compiled(kind, width, widths, out_width, program, cfg, n_inputs) -> int:
    """The lane check: run `program` on `cfg`'s rows over every operand
    combination when the operands total at most 12 bits, else over the
    corner lanes plus 4096 seeded random lanes (256 above width 8), and
    compare each result with the oracle.  Every lane is drawn in range,
    so the oracle is `_oracle_in_range`.  Returns the lanes checked;
    a lane that disagrees is a `PumError` naming its operands."""
    in_bits = sum(widths)
    if in_bits <= 12:
        n_cases = 1 << in_bits
        shifts = [sum(widths[:k]) for k in range(len(widths))]
        lanes = [[(t >> s) & ((1 << wk) - 1) for t in range(n_cases)]
                 for s, wk in zip(shifts, widths)]
    else:
        rng = random.Random(f"{kind}:{width}:{n_inputs}")
        n_random = 4096 if width <= 8 else 256
        lanes = [_random_column(rng, wk, n_random) for wk in widths]
        corners = _corner_lanes(kind, widths, rng)
        lanes = [list(col) + lane for col, lane in zip(zip(*corners), lanes)]
        n_cases = len(corners) + n_random
    got, _ = _stage_lanes(program, widths, out_width, lanes, cfg)
    want = _oracle_in_range(kind, width, lanes)
    if got != want:
        for case, out, expected in zip(zip(*lanes), got, want):
            if out != expected:
                raise PumError(
                    f"compiled {kind} width {width} disagrees with oracle on "
                    f"{case}: got {out}, want {expected}"
                )
    return n_cases


def _check_result_width(kind: str, width: int, out_width: int):
    """`CapacityError` when the result is wider than `transpose` stages."""
    if out_width > MAX_WIDTH:
        raise CapacityError(
            f"{kind} width {width} has a {out_width}-bit result; results are "
            f"staged at up to {MAX_WIDTH} bits")


def compile_op(kind: str, width: int, cfg: SubarrayConfig = DEFAULT_SUBARRAY,
               effort: int = 2, n_inputs: int = 2) -> CompiledOp:
    """Run the full pipeline for one operation and verify the result:
    symbolically (`verify_program`), then on simulated lanes."""
    widths, out_width = op_signature(kind, width, n_inputs)
    _check_result_width(kind, width, out_width)
    netlist = build_netlist(kind, width, n_inputs)
    try:
        graph, report = optimize(lower_to_maj(netlist), effort, cfg)
        rowmap = allocate_rows(graph, cfg)
        program = schedule(graph, rowmap, name=kind, width=width)
    except CapacityError as e:
        raise CapacityError(f"{kind} width {width} does not fit in "
                            f"{cfg.data_row_count} data rows: {e}") from e
    if not verify_program(graph, rowmap, program):
        raise PumError(f"compiled {kind} width {width} fails the symbolic "
                       "check: an output row does not hold its graph expression")
    # under verify_program's geometry, so one lowering serves both checks
    cases = _verify_compiled(kind, width, widths, out_width, program,
                             rowmap.geometry, n_inputs)
    return CompiledOp(kind, width, n_inputs, widths, out_width, netlist,
                      graph, rowmap, program, report, cases,
                      spill_rows_used(program, rowmap))


def _run_lanes(program: MicroProgram, widths, out_width, inputs,
               cfg) -> tuple[list[int], ExecutionReport]:
    """Stage operand lanes in, run `program`, stage the results out, on a
    subarray of `cfg`'s rows and as many columns as there are lanes.
    More lanes than `cfg.columns` are a `CapacityError`."""
    lanes = len(inputs[0]) if inputs else 0
    if lanes > cfg.columns:
        raise CapacityError(
            f"{lanes} lanes exceed the {cfg.columns}-column subarray"
        )
    return _stage_lanes(program, widths, out_width, inputs, cfg)


def _stage_lanes(program, widths, out_width, inputs, cfg):
    """`_run_lanes` without the column bound: compile-time checks run
    their cases on `cfg`'s rows whatever its width."""
    lanes = len(inputs[0]) if inputs else 0
    state = new_subarray(cfg._replace(columns=max(1, lanes)))
    base = 0
    for k, w in enumerate(widths):
        to_vertical(HorizontalBlock(tuple(inputs[k]), w), state, base)
        base += w
    report = state.run_program(program)
    return list(to_horizontal(state, base, out_width, lanes).values), report


def execute_op(compiled: CompiledOp, inputs: list[list[int]],
               cfg: SubarrayConfig = DEFAULT_SUBARRAY) -> list[int]:
    """Transpose operands in, run the program on a subarray sized to the
    lanes (see `_run_lanes`), transpose results out."""
    if len(inputs) != len(compiled.operand_widths):
        raise ArityError(
            f"{compiled.kind} takes {len(compiled.operand_widths)} operand "
            f"lists, got {len(inputs)}"
        )
    lanes = len(inputs[0])
    for lst in inputs[1:]:
        if len(lst) != lanes:
            raise ArityError("operand lists must have equal lane counts")
    if lanes == 0:
        return []
    return _run_lanes(compiled.program, compiled.operand_widths,
                      compiled.out_width, inputs, cfg)[0]
