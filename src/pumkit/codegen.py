"""Row-activation code generation.

Maps majority-graph operands onto designated DRAM rows and emits the
ordered command program (AAP row copies and TRA triple-row activations)
that computes the graph, one SIMD lane per column.

Row vocabulary:

* ``D<i>``            data rows (operands, results, spill scratch)
* ``T0..T3``          compute rows
* ``DCC0``/``DCC1``   dual-contact rows; ``~DCC0``/``~DCC1`` read the
                      complemented wordline (AAP source position only)
* ``C0``/``C1``       constant rows (all zeros / all ones), never written

A TRA may name any three distinct rows of the six-row compute group
(T0-T3 plus the two dual-contact rows) and destructively overwrites all
three with the per-column majority.  Compute rows are recycled by
liveness: a value's row is reusable once every consumer has read it, and
pressure beyond the six rows spills the least-recently-used row to a
reserved data-row scratch region.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ArityError, CapacityError, ConfigError, MicroProgramError
from .logic import REF_ONE, REF_ZERO, MajGraph, ref_name

COMPUTE_ROWS = ("T0", "T1", "T2", "T3")
DCC_ROWS = ("DCC0", "DCC1")
CONST_ROWS = ("C0", "C1")
SPECIAL_ROWS = COMPUTE_ROWS + DCC_ROWS + CONST_ROWS

_ROW_RE = re.compile(r"^(?:D(\d+)|T[0-3]|DCC[01]|C[01]|~DCC[01])$")


def is_row_token(token: str) -> bool:
    return _ROW_RE.match(token) is not None


def alias_base(token: str) -> str | None:
    """DCC complement alias -> underlying row, else None."""
    return token[1:] if token.startswith("~") else None


def data_row_index(token: str) -> int | None:
    m = _ROW_RE.match(token)
    if m and m.group(1) is not None:
        return int(m.group(1))
    return None


def in_compute_group(token: str) -> bool:
    return token in COMPUTE_ROWS or token in DCC_ROWS


@dataclass(frozen=True)
class SubarrayConfig:
    """Geometry of one subarray: data region plus the designated rows.

    The eight designated rows (T0-T3, DCC0/DCC1, C0/C1) sit at the top of
    the array; data rows occupy indices 0..data_row_count-1.
    """

    total_rows: int = 512
    columns: int = 65536
    data_row_count: int | None = None

    def __post_init__(self):
        if self.data_row_count is None:
            object.__setattr__(self, "data_row_count", self.total_rows - 8)
        if self.columns < 1:
            raise ConfigError("columns must be >= 1")
        if self.data_row_count < 1:
            raise ConfigError("need at least one data row")
        if self.data_row_count + 8 > self.total_rows:
            raise ConfigError(
                f"row groups overlap: {self.data_row_count} data rows plus 8 "
                f"designated rows exceed {self.total_rows} total rows"
            )

    def row_index(self, token: str) -> int:
        """Physical index of a plain row token (aliases not accepted)."""
        i = data_row_index(token)
        if i is not None:
            if i >= self.data_row_count:
                raise MicroProgramError(
                    f"row {token} out of range (config has {self.data_row_count} data rows)"
                )
            return i
        if token in SPECIAL_ROWS:
            return self.total_rows - 8 + SPECIAL_ROWS.index(token)
        raise MicroProgramError(f"unknown row {token!r}")


class ActivationCount(NamedTuple):
    aap: int
    tra: int
    total: int


@dataclass(frozen=True)
class Command:
    op: str  # "AAP" | "TRA"
    rows: tuple[str, ...]

    def __post_init__(self):
        for t in self.rows:
            if not is_row_token(t):
                raise MicroProgramError(f"unknown row token {t!r}")
        if self.op == "AAP":
            if len(self.rows) != 2:
                raise MicroProgramError("AAP takes exactly 2 rows")
            src, dst = self.rows
            if alias_base(dst):
                raise MicroProgramError("complement alias is source-only")
            if dst in CONST_ROWS:
                raise MicroProgramError(f"AAP may not write constant row {dst}")
            if (alias_base(src) or src) == dst:
                raise MicroProgramError("AAP source and destination must differ")
        elif self.op == "TRA":
            if len(self.rows) != 3:
                raise MicroProgramError("TRA takes exactly 3 rows")
            if len(set(self.rows)) != 3:
                raise MicroProgramError("TRA rows must be distinct")
            for t in self.rows:
                if not in_compute_group(t):
                    raise MicroProgramError(
                        f"TRA operand {t} outside the compute/dual-contact group"
                    )
        else:
            raise MicroProgramError(f"unknown command {self.op!r}")

    def render(self) -> str:
        return f"{self.op} {' '.join(self.rows)}"


@dataclass(frozen=True)
class MicroProgram:
    """Ordered AAP/TRA command list plus header metadata."""

    name: str
    width: int
    data_rows: int
    commands: tuple[Command, ...]
    lines: tuple[int, ...] | None = None  # source line numbers when parsed

    def line_of(self, i: int) -> int:
        # serialized layout: two header lines, then one command per line
        return self.lines[i] if self.lines is not None else i + 3


def activation_count(program: MicroProgram) -> ActivationCount:
    """AAP activates two rows, TRA three."""
    aap = sum(1 for c in program.commands if c.op == "AAP")
    tra = len(program.commands) - aap
    return ActivationCount(aap, tra, 2 * aap + 3 * tra)


# --- .up text format ------------------------------------------------------


def format_microprogram(program: MicroProgram) -> str:
    lines = [
        "UP/1",
        f"op={program.name} width={program.width} data_rows={program.data_rows}",
    ]
    lines.extend(c.render() for c in program.commands)
    lines.append("END")
    return "\n".join(lines) + "\n"


def parse_microprogram(text: str) -> MicroProgram:
    header = None
    commands: list[Command] = []
    cmd_lines: list[int] = []
    magic_seen = False
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise MicroProgramError(f"line {lineno}: content after END")
        if not magic_seen:
            if line != "UP/1":
                raise MicroProgramError(f"line {lineno}: expected UP/1 magic")
            magic_seen = True
            continue
        if header is None:
            fields = {}
            for tok in line.split():
                if "=" not in tok:
                    raise MicroProgramError(f"line {lineno}: bad header field {tok!r}")
                k, v = tok.split("=", 1)
                fields[k] = v
            if set(fields) != {"op", "width", "data_rows"}:
                raise MicroProgramError(f"line {lineno}: header needs op/width/data_rows")
            try:
                header = (fields["op"], int(fields["width"]), int(fields["data_rows"]))
            except ValueError as e:
                raise MicroProgramError(f"line {lineno}: {e}") from e
            if header[1] < 1 or header[2] < 0:
                raise MicroProgramError(
                    f"line {lineno}: header needs width >= 1 and data_rows >= 0"
                )
            continue
        if line == "END":
            ended = True
            continue
        toks = line.split()
        try:
            commands.append(Command(toks[0], tuple(toks[1:])))
        except MicroProgramError as e:
            raise MicroProgramError(f"line {lineno}: {e}") from e
        cmd_lines.append(lineno)
    if not magic_seen or header is None:
        raise MicroProgramError("missing UP/1 magic or header")
    if not ended:
        raise MicroProgramError("missing END")
    return MicroProgram(
        name=header[0],
        width=header[1],
        data_rows=header[2],
        commands=tuple(commands),
        lines=tuple(cmd_lines),
    )


# --- operand-to-row mapping ----------------------------------------------


@dataclass(frozen=True)
class RowMap:
    """Data-row assignment: inputs first, then outputs, then spill scratch."""

    input_rows: tuple[str, ...]
    output_rows: tuple[str, ...]
    spill_start: int
    spill_end: int  # exclusive

    @property
    def data_rows_used(self) -> int:
        return len(self.input_rows) + len(self.output_rows)


def allocate_rows(graph: MajGraph, cfg: SubarrayConfig) -> RowMap:
    need = graph.input_count + graph.output_count
    if need > cfg.data_row_count:
        raise CapacityError(
            f"graph needs {need} data rows, config provides {cfg.data_row_count} "
            f"(short by {need - cfg.data_row_count})"
        )
    inputs = tuple(f"D{i}" for i in range(graph.input_count))
    outputs = tuple(f"D{graph.input_count + j}" for j in range(graph.output_count))
    return RowMap(inputs, outputs, need, cfg.data_row_count)


def _live_nodes(graph: MajGraph) -> list[bool]:
    live = [False] * graph.node_count
    stack = [e >> 1 for e in graph.packed_outputs if e >= 0]
    while stack:
        k = stack.pop()
        if live[k]:
            continue
        live[k] = True
        stack.extend(e >> 1 for e in graph.packed_nodes[k] if e >= 0 and not live[e >> 1])
    return live


_ROW_NAMES = COMPUTE_ROWS + DCC_ROWS  # scheduler row index -> token
_DCC = (4, 5)  # scheduler row indices of DCC0/DCC1


def _non_dcc_first(r: int) -> tuple[bool, int]:
    return (r in _DCC, r)


def _dcc_first(r: int) -> tuple[bool, int]:
    return (r not in _DCC, r)


class _Scheduler:
    """Linear-sweep scheduler with copy tracking and LRU spilling.

    Values are packed edges (``ref << 1 | neg``, see `logic`).  Rows are
    indices into ``_ROW_NAMES`` (T0-T3, DCC0, DCC1); a row becomes a token
    only in an emitted command.  ``dead`` holds every row that is free or
    holds an input or constant (always rematerializable) or a node with no
    uses left, so allocation takes a row from it instead of scanning the
    pool.  Ties between rows break in pool order, non-DCC rows first
    unless a DCC row is preferred.  Pressure beyond the six rows spills
    to the row map's scratch region; `schedule` emits the sweep as a
    program and `estimate_cost_static` (the optimizer's objective) counts
    the activations of the same sweep.
    """

    def __init__(self, graph: MajGraph, rowmap: RowMap):
        self.graph = graph
        self.commands: list[tuple[str, tuple[str, ...]]] = []
        self.row_val: list[int | None] = [None] * len(_ROW_NAMES)
        self.lru = [0] * len(_ROW_NAMES)
        self.dead = set(range(len(_ROW_NAMES)))
        self.copies: dict[int, set[int]] = {}
        self.spilled: dict[int, int] = {}  # value -> spill data-row index
        self.rowmap = rowmap
        self.spill_free = list(range(rowmap.spill_start, rowmap.spill_end))
        self.spill_rows_used = 0
        self.clock = 0
        self.live = _live_nodes(graph)
        self.uses = [0] * graph.node_count
        self.wants_complement = [False] * graph.node_count
        for k, edges in enumerate(graph.packed_nodes):
            if self.live[k]:
                for e in edges:
                    self._count_use(e)
        for e in graph.packed_outputs:
            self._count_use(e)

    def _count_use(self, e: int):
        if e >= 0:
            self.uses[e >> 1] += 1
            if e & 1:
                self.wants_complement[e >> 1] = True

    # -- bookkeeping -------------------------------------------------------

    def _touch(self, row: int):
        self.clock += 1
        self.lru[row] = self.clock

    def _emit(self, op: str, *rows: str):
        self.commands.append((op, rows))

    def _set(self, row: int, val: int | None):
        old = self.row_val[row]
        if old is not None:
            peers = self.copies[old]
            peers.discard(row)
            if not peers:
                del self.copies[old]
        self.row_val[row] = val
        if val is None:
            self.dead.add(row)
        else:
            peers = self.copies.get(val)
            if peers is None:
                self.copies[val] = {row}
            else:
                peers.add(row)
            if val < 0 or self.uses[val >> 1] == 0:
                self.dead.add(row)
            else:
                self.dead.discard(row)
        self.clock += 1
        self.lru[row] = self.clock

    def _implicit_source(self, val: int) -> str | None:
        """Permanent backing row for inputs and constants."""
        r = val >> 1
        if r == REF_ZERO:
            return "C1" if val & 1 else "C0"
        if r == REF_ONE:
            return "C0" if val & 1 else "C1"
        if r < 0 and not val & 1:
            return self.rowmap.input_rows[-3 - r]
        return None

    def _survives(self, ref: int, doomed: set[int], row: int) -> bool:
        """Can node `ref` (either polarity) still be sourced once `row` and
        the `doomed` rows die?"""
        for val in (ref << 1, ref << 1 | 1):
            if val in self.spilled:
                return True
            for r in self.copies.get(val, ()):
                if r != row and r not in doomed:
                    return True
        return False

    # -- row allocation ------------------------------------------------------

    def _alloc(self, excluded: set[int], prefer_dcc: bool = False,
               dcc_only: bool = False) -> int:
        rank = _dcc_first if prefer_dcc else _non_dcc_first
        if dcc_only:
            cands = [r for r in _DCC if r not in excluded]
            free = [r for r in cands if r in self.dead]
        else:
            cands = None
            free = [r for r in self.dead if r not in excluded]
        # free or dead rows first
        if free:
            r = min(free, key=rank)
            self._set(r, None)
            return r
        if cands is None:
            cands = [r for r in range(len(_ROW_NAMES)) if r not in excluded]
        # redundant copies evict silently; rows in `excluded` may be about
        # to be destroyed by the pending TRA, so they don't count as backup
        redundant = [r for r in cands
                     if self._survives(self.row_val[r] >> 1, excluded, r)]
        if redundant:
            r = min(redundant, key=lambda x: (self.lru[x], rank(x)))
            self._set(r, None)
            return r
        if not cands:
            raise CapacityError("compute-row pressure with no evictable row")
        victim = min(cands, key=lambda x: (self.lru[x], rank(x)))
        self._evict(victim, excluded)
        return victim

    def _evict(self, row: int, excluded: set[int]):
        val = self.row_val[row]
        # cheap migration if an idle row exists outside the exclusion set
        idle = [r for r in self.dead if r != row and r not in excluded]
        if idle:
            r = min(idle)
            self._emit("AAP", _ROW_NAMES[row], _ROW_NAMES[r])
            self._set(r, val)
            self._set(row, None)
            return
        if not self.spill_free:
            raise CapacityError(
                "spill region exhausted: graph live-value pressure exceeds the "
                "reserved data-row scratch space"
            )
        idx = heapq.heappop(self.spill_free)
        self.spill_rows_used = max(self.spill_rows_used, idx - self.rowmap.spill_start + 1)
        self._emit("AAP", _ROW_NAMES[row], f"D{idx}")
        self.spilled[val] = idx
        self._set(row, None)

    # -- value access --------------------------------------------------------

    def _use(self, ref: int):
        if ref < 0:
            return
        self.uses[ref] -= 1
        if self.uses[ref] == 0:
            # rows holding the value die; release any spill rows it held
            for val in (ref << 1, ref << 1 | 1):
                self.dead.update(self.copies.get(val, ()))
                idx = self.spilled.pop(val, None)
                if idx is not None:
                    heapq.heappush(self.spill_free, idx)

    def _any_source(self, val: int) -> tuple[str | None, int]:
        """A row token (or alias) an AAP can read `val` from, else None,
        and the compute-group row behind it (-1 for data and constant rows)."""
        rows = self.copies.get(val)
        if rows:
            r = min(rows, key=_non_dcc_first)
            return _ROW_NAMES[r], r
        if val in self.spilled:
            return f"D{self.spilled[val]}", -1
        imp = self._implicit_source(val)
        if imp is not None:
            return imp, -1
        # complement read straight off a dual-contact cell
        flipped = self.copies.get(val ^ 1, ())
        for r in _DCC:
            if r in flipped:
                return "~" + _ROW_NAMES[r], r
        return None, -1

    def _free_pinned_dcc(self, claimed: list[int], keep: set[int]) -> int:
        """Both DCC rows are pinned by the pending TRA; move one aside."""
        victim = next(r for r in claimed if r in _DCC)
        val = self.row_val[victim]
        row = self._alloc(set(claimed) | keep | {victim})
        self._emit("AAP", _ROW_NAMES[victim], _ROW_NAMES[row])
        self._set(row, val)
        self._set(victim, None)
        claimed[claimed.index(victim)] = row
        return victim

    def _materialize(self, val: int, claimed: list[int]) -> int:
        """Place `val` into a fresh compute-group row and return it."""
        ref = val >> 1
        taken = set(claimed)
        prefer_dcc = ref >= 0 and self.wants_complement[ref]
        src, base = self._any_source(val)
        if src is not None:
            row = self._alloc(taken | {base}, prefer_dcc=prefer_dcc)
            self._emit("AAP", src, _ROW_NAMES[row])
            self._set(row, val)
            return row
        # only the flipped polarity exists somewhere: route through a DCC row
        src, base = self._any_source(val ^ 1)
        if src is None:
            raise MicroProgramError(f"value for {ref_name(ref)} lost during scheduling")
        if all(d in taken for d in _DCC):
            dcc = self._free_pinned_dcc(claimed, {base})
            taken = set(claimed)
        else:
            dcc = self._alloc(taken | {base}, dcc_only=True)
        self._emit("AAP", src, _ROW_NAMES[dcc])
        self._set(dcc, val ^ 1)
        row = self._alloc(taken | {dcc}, prefer_dcc=False)
        self._emit("AAP", "~" + _ROW_NAMES[dcc], _ROW_NAMES[row])
        self._set(row, val)
        return row

    def _spare(self, row: int, val: int, taken: set[int]) -> int:
        """Copy `val` out of `row` first if the TRA destroying `row` and
        `taken` would take its last copy while it still has uses."""
        ref = val >> 1
        if ref < 0 or self.uses[ref] == 0 or self._survives(ref, taken, row):
            return row
        spare = self._alloc(taken | {row})
        self._emit("AAP", _ROW_NAMES[row], _ROW_NAMES[spare])
        self._set(spare, val)
        return spare

    def _acquire_operand(self, e: int, claimed: list[int]) -> int:
        """Bring one TRA operand into a compute-group row it may destroy."""
        ref = e >> 1
        if ref == REF_ZERO or ref == REF_ONE:
            bit = (ref == REF_ONE) ^ (e & 1)
            row = self._alloc(set(claimed))
            self._emit("AAP", "C1" if bit else "C0", _ROW_NAMES[row])
            self._set(row, (REF_ONE if bit else REF_ZERO) << 1)
            return row
        taken = set(claimed)
        avail = [r for r in self.copies.get(e, ()) if r not in taken]
        if avail:
            row = min(avail, key=_non_dcc_first)
            self._use(ref)
            row = self._spare(row, e, taken)
            self._touch(row)
            return row
        row = self._materialize(e, claimed)
        self._use(ref)
        return self._spare(row, e, set(claimed))

    # -- main sweep ----------------------------------------------------------

    def run(self) -> list[tuple[str, tuple[str, ...]]]:
        for k, edges in enumerate(self.graph.packed_nodes):
            if not self.live[k]:
                continue
            claimed: list[int] = []
            for e in edges:
                claimed.append(self._acquire_operand(e, claimed))
            self._emit("TRA", *(_ROW_NAMES[r] for r in claimed))
            for r in claimed:
                self._set(r, k << 1)
        for e, target in zip(self.graph.packed_outputs, self.rowmap.output_rows):
            self._emit_output(e, target)
        return self.commands

    def _emit_output(self, e: int, target: str):
        ref = e >> 1
        if ref == REF_ZERO or ref == REF_ONE:
            bit = (ref == REF_ONE) ^ (e & 1)
            self._emit("AAP", "C1" if bit else "C0", target)
            return
        src, _ = self._any_source(e)
        if src is not None:
            self._emit("AAP", src, target)
            self._use(ref)
            return
        src, base = self._any_source(e ^ 1)
        if src is None:
            raise MicroProgramError(f"output value for {ref_name(ref)} lost during scheduling")
        dcc = self._alloc({base}, dcc_only=True)
        self._emit("AAP", src, _ROW_NAMES[dcc])
        self._set(dcc, e ^ 1)
        self._emit("AAP", "~" + _ROW_NAMES[dcc], target)
        self._use(ref)


def schedule(graph: MajGraph, rowmap: RowMap, cfg: SubarrayConfig,
             *, name: str = "custom", width: int = 0) -> MicroProgram:
    """Emit the command program realizing `graph` under `rowmap`."""
    if len(rowmap.input_rows) != graph.input_count or \
       len(rowmap.output_rows) != graph.output_count:
        raise ArityError("row map does not cover the graph's inputs/outputs")
    sched = _Scheduler(graph, rowmap)
    commands = tuple(Command(op, rows) for op, rows in sched.run())
    return MicroProgram(name=name, width=width,
                        data_rows=rowmap.data_rows_used, commands=commands)


def estimate_cost_static(graph: MajGraph, cfg: SubarrayConfig | None = None) -> int:
    """Activations of the program `schedule` emits for `graph` under `cfg`.

    The optimizer's objective: the same `_Scheduler` sweep, spills
    included, counted without building `Command`s.  Raises
    `CapacityError` when `cfg` cannot hold the graph.
    """
    commands = _Scheduler(graph, allocate_rows(graph, cfg or SubarrayConfig())).run()
    aap = sum(1 for op, _ in commands if op == "AAP")
    return 2 * aap + 3 * (len(commands) - aap)


# --- dataflow audit -------------------------------------------------------


def verify_program(graph: MajGraph, rowmap: RowMap, program: MicroProgram) -> bool:
    """Symbolic replay: output rows must hold the graph's expressions.

    Rows carry hash-consed (expression, polarity) values; a TRA builds a
    majority expression over the three operand values.  Catches any read
    of a recycled row, independent of test vectors.
    """
    intern: dict[tuple, int] = {}

    def mk(key: tuple) -> int:
        if key not in intern:
            intern[key] = len(intern)
        return intern[key]

    def maj_of(v1, v2, v3) -> tuple[int, bool]:
        return (mk(("maj", tuple(sorted((v1, v2, v3))))), False)

    rows: dict[str, tuple[int, bool]] = {}
    for r in COMPUTE_ROWS + DCC_ROWS:
        rows[r] = (mk(("garbage", r)), False)
    rows["C0"] = (mk(("const",)), False)
    rows["C1"] = (mk(("const",)), True)
    for i, token in enumerate(rowmap.input_rows):
        rows[token] = (mk(("in", i)), False)
    for token in rowmap.output_rows:
        rows[token] = (mk(("garbage", token)), False)

    def read(token: str) -> tuple[int, bool]:
        base = alias_base(token)
        if base is not None:
            e, p = rows[base]
            return (e, not p)
        if token not in rows:
            rows[token] = (mk(("garbage", token)), False)
        return rows[token]

    for cmd in program.commands:
        if cmd.op == "AAP":
            rows[cmd.rows[1]] = read(cmd.rows[0])
        else:
            m = maj_of(*(read(t) for t in cmd.rows))
            for t in cmd.rows:
                rows[t] = m

    const = mk(("const",))
    leaf = [(const, False), (const, True)] + \
        [(mk(("in", i)), False) for i in range(graph.input_count)]
    expected: list[tuple[int, bool]] = []  # per node

    def edge_val(e: int) -> tuple[int, bool]:
        x, p = expected[e >> 1] if e >= 0 else leaf[-1 - (e >> 1)]
        return (x, p ^ bool(e & 1))

    for a, b, c in graph.packed_nodes:
        expected.append(maj_of(edge_val(a), edge_val(b), edge_val(c)))

    for j, e in enumerate(graph.packed_outputs):
        if rows[rowmap.output_rows[j]] != edge_val(e):
            return False
    return True
