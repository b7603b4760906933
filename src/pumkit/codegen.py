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
from .logic import CONST_ONE, CONST_ZERO, Edge, MajGraph, input_index, node_index

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
    live = [False] * len(graph.nodes)
    stack = [node_index(ref) for ref, _ in graph.outputs if node_index(ref) is not None]
    while stack:
        k = stack.pop()
        if live[k]:
            continue
        live[k] = True
        for ref, _ in graph.nodes[k]:
            j = node_index(ref)
            if j is not None and not live[j]:
                stack.append(j)
    return live


class _Scheduler:
    """Linear-sweep scheduler with copy tracking and LRU spilling.

    Values are (ref, complemented) pairs over graph refs.  In estimate
    mode the compute-row pool grows on demand and spilling never happens,
    which makes the command count a lower bound for any real config.
    """

    def __init__(self, graph: MajGraph, rowmap: RowMap, cfg: SubarrayConfig | None,
                 estimate: bool = False):
        self.graph = graph
        self.rowmap = rowmap
        self.estimate = estimate
        self.commands: list[tuple[str, tuple[str, ...]]] = []
        self.pool = list(COMPUTE_ROWS + DCC_ROWS)
        self.row_val: dict[str, tuple[str, bool] | None] = {r: None for r in self.pool}
        self.copies: dict[tuple[str, bool], set[str]] = {}
        self.spilled: dict[tuple[str, bool], str] = {}
        self.spill_free: list[int] = []
        if rowmap is not None:
            self.spill_free = list(range(rowmap.spill_start, rowmap.spill_end))
        heapq.heapify(self.spill_free)
        self.spill_rows_used = 0
        self.lru: dict[str, int] = {r: 0 for r in self.pool}
        self.clock = 0
        self.virtual = 0
        self.live = _live_nodes(graph)
        self.uses: dict[str, int] = {}
        self.wants_complement: set[str] = set()
        for k, edges in enumerate(graph.nodes):
            if not self.live[k]:
                continue
            for ref, neg in edges:
                if ref not in (CONST_ZERO, CONST_ONE):
                    self.uses[ref] = self.uses.get(ref, 0) + 1
                    if neg:
                        self.wants_complement.add(ref)
        for ref, neg in graph.outputs:
            if ref not in (CONST_ZERO, CONST_ONE):
                self.uses[ref] = self.uses.get(ref, 0) + 1
                if neg:
                    self.wants_complement.add(ref)

    # -- bookkeeping -------------------------------------------------------

    def _touch(self, row: str):
        self.clock += 1
        self.lru[row] = self.clock

    def _emit(self, op: str, *rows: str):
        self.commands.append((op, rows))

    def _set(self, row: str, val: tuple[str, bool] | None):
        old = self.row_val.get(row)
        if old is not None:
            peers = self.copies.get(old)
            if peers:
                peers.discard(row)
                if not peers:
                    del self.copies[old]
        self.row_val[row] = val
        if val is not None:
            self.copies.setdefault(val, set()).add(row)
        self._touch(row)

    def _implicit_source(self, val: tuple[str, bool]) -> str | None:
        """Permanent backing row for inputs and constants."""
        ref, neg = val
        if ref == CONST_ZERO:
            return "C1" if neg else "C0"
        if ref == CONST_ONE:
            return "C0" if neg else "C1"
        i = input_index(ref)
        if i is not None and not neg:
            return self.rowmap.input_rows[i] if self.rowmap else f"D{i}"
        return None

    def _survives(self, ref: str, doomed: set[str]) -> bool:
        """Can ref (either polarity) still be sourced if `doomed` rows die?"""
        for neg in (False, True):
            val = (ref, neg)
            if self._implicit_source(val) is not None:
                return True
            if val in self.spilled:
                return True
            for r in self.copies.get(val, ()):
                if r not in doomed:
                    return True
        return False

    def _dead_value(self, val: tuple[str, bool] | None) -> bool:
        if val is None:
            return True
        ref = val[0]
        if ref in (CONST_ZERO, CONST_ONE) or input_index(ref) is not None:
            return True  # always rematerializable
        return self.uses.get(ref, 0) == 0

    # -- row allocation ------------------------------------------------------

    def _candidate_order(self, prefer_dcc: bool) -> list[str]:
        if prefer_dcc:
            return [r for r in self.pool if r in DCC_ROWS] + \
                   [r for r in self.pool if r not in DCC_ROWS]
        return [r for r in self.pool if r not in DCC_ROWS] + \
               [r for r in self.pool if r in DCC_ROWS]

    def _alloc(self, excluded: set[str], prefer_dcc: bool = False,
               dcc_only: bool = False) -> str:
        order = self._candidate_order(prefer_dcc)
        if dcc_only:
            order = [r for r in order if r in DCC_ROWS]
        cands = [r for r in order if r not in excluded]
        # free or dead rows first
        for r in cands:
            if self._dead_value(self.row_val.get(r)):
                self._set(r, None)
                return r
        # redundant copies evict silently; rows in `excluded` may be about
        # to be destroyed by the pending TRA, so they don't count as backup
        redundant = [r for r in cands
                     if self._survives(self.row_val[r][0], {r} | excluded)]
        if redundant:
            r = min(redundant, key=lambda x: (self.lru[x], order.index(x)))
            self._set(r, None)
            return r
        if self.estimate and not dcc_only:
            r = f"V{self.virtual}"
            self.virtual += 1
            self.pool.append(r)
            self.row_val[r] = None
            self.lru[r] = 0
            return r
        if not cands:
            raise CapacityError("compute-row pressure with no evictable row")
        victim = min(cands, key=lambda x: (self.lru[x], order.index(x)))
        self._evict(victim, excluded)
        return victim

    def _evict(self, row: str, excluded: set[str]):
        val = self.row_val[row]
        # cheap migration if an idle row exists outside the exclusion set
        for r in self.pool:
            if r == row or r in excluded:
                continue
            if self._dead_value(self.row_val.get(r)):
                self._emit("AAP", row, r)
                self._set(r, val)
                self._set(row, None)
                return
        if self.estimate:
            r = f"V{self.virtual}"
            self.virtual += 1
            self.pool.append(r)
            self.lru[r] = 0
            self._emit("AAP", row, r)
            self.row_val[r] = None
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
        token = f"D{idx}"
        self._emit("AAP", row, token)
        self.spilled[val] = token
        self._set(row, None)

    # -- value access --------------------------------------------------------

    def _use(self, ref: str):
        if ref in (CONST_ZERO, CONST_ONE):
            return
        self.uses[ref] -= 1
        if self.uses[ref] == 0:
            # release any spill rows held by a now-dead node value
            if node_index(ref) is not None:
                for neg in (False, True):
                    token = self.spilled.pop((ref, neg), None)
                    if token is not None:
                        heapq.heappush(self.spill_free, int(token[1:]))

    def _any_source(self, val: tuple[str, bool], claimed: set[str]) -> str | None:
        """A row (or alias) that an AAP can read `val` from, else None."""
        rows = [r for r in self.copies.get(val, ())]
        if rows:
            ordered = [r for r in self.pool if r in rows]
            non_dcc = [r for r in ordered if r not in DCC_ROWS]
            return (non_dcc or ordered)[0]
        if val in self.spilled:
            return self.spilled[val]
        imp = self._implicit_source(val)
        if imp is not None:
            return imp
        # complement read straight off a dual-contact cell
        flipped = (val[0], not val[1])
        for r in self.copies.get(flipped, ()):
            if r in DCC_ROWS:
                return "~" + r
        return None

    def _free_pinned_dcc(self, claimed: list[str], keep: set[str]) -> str:
        """Both DCC rows are pinned by the pending TRA; move one aside."""
        victim = next(r for r in claimed if r in DCC_ROWS)
        val = self.row_val[victim]
        row = self._alloc(set(claimed) | keep | {victim})
        self._emit("AAP", victim, row)
        self._set(row, val)
        self._set(victim, None)
        claimed[claimed.index(victim)] = row
        return victim

    def _materialize(self, val: tuple[str, bool], claimed: list[str]) -> str:
        """Place `val` into a fresh compute-group row and return it."""
        ref, neg = val
        taken = set(claimed)
        prefer_dcc = node_index(ref) is not None and ref in self.wants_complement
        src = self._any_source(val, taken)
        if src is not None:
            row = self._alloc(taken | {src if not src.startswith("~") else src[1:]},
                              prefer_dcc=prefer_dcc)
            self._emit("AAP", src, row)
            self._set(row, val)
            return row
        # only the flipped polarity exists somewhere: route through a DCC row
        flipped = (ref, not neg)
        src = self._any_source(flipped, taken)
        if src is None:
            raise MicroProgramError(f"value for {ref} lost during scheduling")
        src_base = src[1:] if src.startswith("~") else src
        if all(d in taken for d in DCC_ROWS):
            dcc = self._free_pinned_dcc(claimed, {src_base})
            taken = set(claimed)
        else:
            dcc = self._alloc(taken | {src_base}, dcc_only=True)
        self._emit("AAP", src, dcc)
        self._set(dcc, flipped)
        row = self._alloc(taken | {dcc}, prefer_dcc=False)
        self._emit("AAP", "~" + dcc, row)
        self._set(row, val)
        return row

    def _acquire_operand(self, edge: Edge, claimed: list[str]) -> str:
        """Bring one TRA operand into a compute-group row it may destroy."""
        ref, neg = edge
        if ref == CONST_ZERO or ref == CONST_ONE:
            bit = (ref == CONST_ONE) ^ neg
            row = self._alloc(set(claimed))
            self._emit("AAP", "C1" if bit else "C0", row)
            self._set(row, (CONST_ONE if bit else CONST_ZERO, False))
            return row
        val = (ref, neg)
        taken = set(claimed)
        avail = [r for r in self.pool if r in self.copies.get(val, ()) and r not in taken]
        if avail:
            non_dcc = [r for r in avail if r not in DCC_ROWS]
            row = (non_dcc or avail)[0]
            self._use(ref)
            doomed = taken | {row}
            if self.uses.get(ref, 0) > 0 and not self._survives(ref, doomed):
                keep = row
                row = self._alloc(doomed)
                self._emit("AAP", keep, row)
                self._set(row, val)
            self._touch(row)
            return row
        row = self._materialize(val, claimed)
        self._use(ref)
        doomed = set(claimed) | {row}
        if self.uses.get(ref, 0) > 0 and not self._survives(ref, doomed):
            keep = row
            row = self._alloc(doomed)
            self._emit("AAP", keep, row)
            self._set(row, val)
        return row

    # -- main sweep ----------------------------------------------------------

    def run(self) -> list[tuple[str, tuple[str, ...]]]:
        for k, edges in enumerate(self.graph.nodes):
            if not self.live[k]:
                continue
            claimed: list[str] = []
            for edge in edges:
                claimed.append(self._acquire_operand(edge, claimed))
            self._emit("TRA", *claimed)
            result = (f"n{k}", False)
            for r in claimed:
                self._set(r, None)
            for r in claimed:
                self._set(r, result)
        for j, (ref, neg) in enumerate(self.graph.outputs):
            self._emit_output(ref, neg, self.rowmap.output_rows[j] if self.rowmap
                              else f"D{self.graph.input_count + j}")
        return self.commands

    def _emit_output(self, ref: str, neg: bool, target: str):
        if ref == CONST_ZERO or ref == CONST_ONE:
            bit = (ref == CONST_ONE) ^ neg
            self._emit("AAP", "C1" if bit else "C0", target)
            return
        val = (ref, neg)
        src = self._any_source(val, set())
        if src is not None:
            self._emit("AAP", src, target)
            self._use(ref)
            return
        flipped = (ref, not neg)
        src = self._any_source(flipped, set())
        if src is None:
            raise MicroProgramError(f"output value for {ref} lost during scheduling")
        dcc = self._alloc({src if not src.startswith("~") else src[1:]}, dcc_only=True)
        self._emit("AAP", src, dcc)
        self._set(dcc, flipped)
        self._emit("AAP", "~" + dcc, target)
        self._use(ref)


def schedule(graph: MajGraph, rowmap: RowMap, cfg: SubarrayConfig,
             *, name: str = "custom", width: int = 0) -> MicroProgram:
    """Emit the command program realizing `graph` under `rowmap`."""
    if len(rowmap.input_rows) != graph.input_count or \
       len(rowmap.output_rows) != graph.output_count:
        raise ArityError("row map does not cover the graph's inputs/outputs")
    sched = _Scheduler(graph, rowmap, cfg)
    commands = tuple(Command(op, rows) for op, rows in sched.run())
    return MicroProgram(name=name, width=width,
                        data_rows=rowmap.data_rows_used, commands=commands)


def estimate_cost_static(graph: MajGraph) -> int:
    """Activation estimate from a spill-free dry run of the scheduler.

    Lower bound for the scheduled program on any config; the difference
    is exactly the spill traffic the real row budget forces.
    """
    sched = _Scheduler(graph, None, None, estimate=True)
    commands = sched.run()
    aap = sum(1 for op, _ in commands if op == "AAP")
    tra = len(commands) - aap
    return 2 * aap + 3 * tra


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

    expected: dict[str, tuple[int, bool]] = {
        CONST_ZERO: (mk(("const",)), False),
        CONST_ONE: (mk(("const",)), True),
    }
    for i in range(graph.input_count):
        expected[f"in{i}"] = (mk(("in", i)), False)

    def edge_val(ref: str, neg: bool) -> tuple[int, bool]:
        e, p = expected[ref]
        return (e, p ^ neg)

    for k, edges in enumerate(graph.nodes):
        vals = [edge_val(ref, neg) for ref, neg in edges]
        expected[f"n{k}"] = maj_of(*vals)

    for j, (ref, neg) in enumerate(graph.outputs):
        if rows[rowmap.output_rows[j]] != edge_val(ref, neg):
            return False
    return True
