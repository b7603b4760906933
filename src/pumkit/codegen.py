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
reserved data-row scratch region.  The scheduler holds sets of these six
rows as bit masks, and every AAP into them goes through one method,
`_Scheduler._copy`, which picks the row, emits the copy and records the
value the row then holds.  The optimizer's objective (`estimate_cost_static`)
and `schedule` both take the sweep from `_sweep`, which keeps the last
two, so `schedule` emits the shipped graph's program from the sweep that
scored it, its ``(op, rows)`` tuples becoming `Command`s as they are.
`lower` is the one reading of the command set: the value ops that the
simulator executes and `verify_program` replays symbolically.  The
command rules (`_check_command`) are checked on every line
`parse_microprogram` reads, and by `lower` once per distinct token and
distinct command.
"""

from __future__ import annotations

import functools
import heapq
from typing import NamedTuple

from .errors import (ArityError, CapacityError, ConfigError, ExecutionError,
                     MicroProgramError, Validated)
from .logic import (
    _MAX_DIGITS,
    REF_ZERO,
    MajGraph,
    _is_canonical_number,
)

COMPUTE_ROWS = ("T0", "T1", "T2", "T3")
DCC_ROWS = ("DCC0", "DCC1")
CONST_ROWS = ("C0", "C1")
SPECIAL_ROWS = COMPUTE_ROWS + DCC_ROWS + CONST_ROWS
_ROW_NAMES = COMPUTE_ROWS + DCC_ROWS  # the compute group; scheduler row index -> token

_ALIAS_BASES = {"~" + r: r for r in DCC_ROWS}  # the DCC complement aliases
_FIXED_TOKENS = frozenset((*SPECIAL_ROWS, *_ALIAS_BASES))


def _is_data_token(token: str) -> bool:
    """Canonical ``D<n>``."""
    return token[:1] == "D" and _is_canonical_number(token[1:])


def alias_base(token: str) -> str | None:
    """Complement alias (only ``~DCC0``, ``~DCC1``) -> its row, else None."""
    return _ALIAS_BASES.get(token)


def data_row_index(token: str) -> int | None:
    return int(token[1:]) if _is_data_token(token) else None


# Most rows a subarray may have: a large DRAM bank's row count, far above
# any real subarray; the scheduler and the simulator keep per-row tables.
MAX_TOTAL_ROWS = 65536


class _SubarrayFields(NamedTuple):
    total_rows: int = 512
    columns: int = 65536
    data_row_count: int | None = None


class SubarrayConfig(Validated, _SubarrayFields):
    """Geometry of one subarray: data region plus the designated rows.

    The eight designated rows (T0-T3, DCC0/DCC1, C0/C1) sit at the top of
    the array; data rows occupy indices 0..data_row_count-1.  A
    `data_row_count` of None asks for every row below the designated ones.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _SubarrayFields.__new__(cls, *args, **kwargs)
        total, columns, data = self
        if data is None and type(total) is int:
            data = total - 8
            self = tuple.__new__(cls, (total, columns, data))
        for name, value in zip(cls._fields, self):
            if type(value) is not int:  # a bool is not one
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if total > MAX_TOTAL_ROWS:
            raise ConfigError(
                f"total_rows (subarray.rows) exceeds the {MAX_TOTAL_ROWS}-row limit")
        if columns < 1:
            raise ConfigError("columns must be >= 1")
        if data < 1:
            raise ConfigError("need at least one data row")
        if data + 8 > total:
            raise ConfigError(
                f"row groups overlap: {data} data rows plus 8 "
                f"designated rows exceed {total} total rows"
            )
        return self

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


# The default subarray: every `cfg` parameter's default.
DEFAULT_SUBARRAY = SubarrayConfig()


class ActivationCount(NamedTuple):
    aap: int
    tra: int
    total: int


def row_activations(aap: int, tra: int) -> int:
    """Rows activated by `aap` AAPs and `tra` TRAs: two per AAP, three per TRA."""
    return 2 * aap + 3 * tra


class Command(NamedTuple):
    """One AAP or TRA over row tokens, unchecked: `_check_command` holds
    the rules, and `parse_microprogram` and `lower` apply them."""

    op: str  # "AAP" | "TRA"
    rows: tuple[str, ...]

    def render(self) -> str:
        return f"{self.op} {' '.join(self.rows)}"


def _check_command(op: str, rows: tuple[str, ...]):
    """`MicroProgramError` unless `op` over `rows` is a well-formed AAP or
    TRA: known tokens (`_check_token`, in order), then its shape
    (`_check_shape`)."""
    for t in rows:
        _check_token(t)
    _check_shape(op, rows)


def _check_token(t: str):
    """`MicroProgramError` unless `t` is a row token: a designated row, a
    ``~DCC`` alias or a canonical ``D<n>``."""
    if t not in _FIXED_TOKENS and not _is_data_token(t):
        if len(t) > _MAX_DIGITS + 1:
            raise MicroProgramError(
                f"row token {t[:_MAX_DIGITS]!r}... has {len(t)} characters; "
                f"a data row index has at most {_MAX_DIGITS} digits")
        raise MicroProgramError(f"unknown row token {t!r}")


def _check_shape(op: str, rows: tuple[str, ...]):
    """`MicroProgramError` unless `op` over the known tokens `rows` has a
    command's shape: the arity, a writable AAP destination other than its
    source, and three distinct compute-group rows for a TRA."""
    if op == "AAP":
        if len(rows) != 2:
            raise MicroProgramError("AAP takes exactly 2 rows")
        src, dst = rows
        if dst in _ALIAS_BASES:
            raise MicroProgramError("complement alias is source-only")
        if dst in CONST_ROWS:
            raise MicroProgramError(f"AAP may not write constant row {dst}")
        if _ALIAS_BASES.get(src, src) == dst:
            raise MicroProgramError("AAP source and destination must differ")
    elif op == "TRA":
        if len(rows) != 3:
            raise MicroProgramError("TRA takes exactly 3 rows")
        if len(set(rows)) != 3:
            raise MicroProgramError("TRA rows must be distinct")
        for t in rows:
            if t not in _ROW_NAMES:
                raise MicroProgramError(
                    f"TRA operand {t} outside the compute/dual-contact group"
                )
    else:
        raise MicroProgramError(f"unknown command {op!r}")


class _ProgramFields(NamedTuple):
    name: str
    width: int
    data_rows: int
    commands: tuple[Command, ...]
    lines: tuple[int, ...] | None = None  # source line numbers when parsed


class MicroProgram(Validated, _ProgramFields):
    """Ordered AAP/TRA command list plus header metadata.

    `lower` keeps its value ops per (total_rows, data_row_count) in
    `_lowered`, an instance attribute outside the fields, so equality,
    hashing, the repr and pickles leave it out and `_replace` drops it.
    """

    _lowered: dict | None = None  # until `lower` first runs the program

    def __new__(cls, *args, **kwargs):
        self = _ProgramFields.__new__(cls, *args, **kwargs)
        name, width, data_rows = self.name, self.width, self.data_rows
        if type(name) is not str or "#" in name or any(c.isspace() for c in name):
            raise MicroProgramError(  # the .up header could not hold it
                f"name={name!r:.40} is not a str without whitespace or '#'")
        if type(width) is not int:  # a bool is not one
            raise MicroProgramError(f"width={width!r:.40} is not an int")
        if width < 1:
            raise MicroProgramError(f"width={width} is below 1")
        if type(data_rows) is not int or data_rows < 0:
            raise MicroProgramError(f"data_rows={data_rows!r:.40} is not an int >= 0")
        try:  # stored as tuples, so that equal programs are equal and hashable
            commands = tuple(self.commands)
            lines = None if self.lines is None else tuple(self.lines)
        except TypeError:
            raise MicroProgramError("commands and lines must be sequences") from None
        if lines is not None and len(lines) != len(commands):
            raise MicroProgramError(
                f"{len(lines)} line numbers for {len(commands)} commands")
        return tuple.__new__(cls, (name, width, data_rows, commands, lines))

    def line_of(self, i: int) -> int:
        # serialized layout: two header lines, then one command per line
        return self.lines[i] if self.lines is not None else i + 3


def activation_count(program: MicroProgram) -> ActivationCount:
    aap = sum(1 for c in program.commands if c.op == "AAP")
    tra = len(program.commands) - aap
    return ActivationCount(aap, tra, row_activations(aap, tra))


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
                if k in fields:
                    raise MicroProgramError(f"line {lineno}: header repeats {k!r}")
                fields[k] = v
            if set(fields) != {"op", "width", "data_rows"}:
                raise MicroProgramError(f"line {lineno}: header needs op/width/data_rows")
            for k in ("width", "data_rows"):
                if not _is_canonical_number(fields[k]):
                    raise MicroProgramError(
                        f"line {lineno}: header {k}={fields[k][:_MAX_DIGITS + 1]!r} "
                        "is not a number in canonical ASCII digits")
            try:
                header = MicroProgram(fields["op"], int(fields["width"]),
                                      int(fields["data_rows"]), ())
            except MicroProgramError as e:
                raise MicroProgramError(f"line {lineno}: header {e}") from e
            continue
        if line == "END":
            ended = True
            continue
        toks = line.split()
        command = Command(toks[0], tuple(toks[1:]))
        try:
            _check_command(*command)
        except MicroProgramError as e:
            raise MicroProgramError(f"line {lineno}: {e}") from e
        commands.append(command)
        cmd_lines.append(lineno)
    if not magic_seen or header is None:
        raise MicroProgramError("missing UP/1 magic or header")
    if not ended:
        raise MicroProgramError("missing END")
    return header._replace(commands=tuple(commands), lines=tuple(cmd_lines))


# --- operand-to-row mapping ----------------------------------------------


class RowMap(NamedTuple):
    """Data-row assignment: inputs first, then outputs, then spill scratch."""

    input_rows: tuple[str, ...]
    output_rows: tuple[str, ...]
    spill_start: int
    spill_end: int  # exclusive

    @property
    def data_rows_used(self) -> int:
        return len(self.input_rows) + len(self.output_rows)

    @property
    def geometry(self) -> SubarrayConfig:
        """The smallest subarray that holds the map: its `spill_end` data
        rows and the eight designated rows above them, one column wide."""
        return SubarrayConfig(self.spill_end + 8, columns=1, data_row_count=self.spill_end)


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


_ALL = (1 << len(_ROW_NAMES)) - 1  # row sets are bit masks, bit r = row r
_DCC_MASK = 0b110000  # DCC0/DCC1 are rows 4 and 5
_FIRST = tuple((m & -m).bit_length() - 1 for m in range(_ALL + 1))  # lowest row, T0 first
_FIRST_DCC = tuple(_FIRST[m & _DCC_MASK or m] for m in range(_ALL + 1))  # DCC rows first
_ROWS_OF = tuple(tuple(r for r in range(len(_ROW_NAMES)) if m >> r & 1)
                 for m in range(_ALL + 1))


class _Scheduler:
    """Linear-sweep scheduler with copy tracking and LRU spilling.

    Values are packed edges (``ref << 1 | neg``, see `logic`).  Rows are
    indices into ``_ROW_NAMES`` (T0-T3, DCC0, DCC1); a row becomes a token
    only in an emitted command.  Every set of rows is a 6-bit mask:
    ``copies[val]`` (the rows holding a value), ``taken`` (the rows the
    pending TRA claims, carried along as its operands are acquired), and
    ``dead``, the rows that are free or hold an input or constant (always
    rematerializable) or a node with no uses left.  Per-value state
    (``copies``, ``spilled``) is a list indexed by the packed value, and
    per-node state (``uses``, ``wants_complement``) a list indexed by
    the node, counted in one reverse pass.  Every AAP into the compute
    group goes through `_copy`, which picks the row, emits the copy and
    records the value; a TRA writes its three rows in `run` with one
    masked update.  Pressure beyond the six rows spills to the row map's
    scratch region.  Callers go through `_sweep`, so
    `estimate_cost_static` (the optimizer's objective) and `schedule`
    share one sweep per graph.
    """

    def __init__(self, graph: MajGraph, rowmap: RowMap):
        self.graph = graph
        self.commands: list[tuple[str, tuple[str, ...]]] = []
        self._emit = self.commands.append  # takes one (op, rows) command
        self.row_val: list[int | None] = [None] * len(_ROW_NAMES)
        self.lru = [0] * len(_ROW_NAMES)
        self.dead = _ALL
        # indexed by packed value: node values sit at 0..2n-1, and input
        # and constant values are negative, which Python's negative
        # indexing puts in the last 2 * input_count + 2 entries
        size = 2 * graph.node_count + 2 * graph.input_count + 2
        self.copies = [0] * size  # value -> mask of rows holding it
        self.spilled: list[int | None] = [None] * size  # value -> spill data-row index
        self.rowmap = rowmap
        self.spill_free = list(range(rowmap.spill_start, rowmap.spill_end))
        self.clock = 0
        # every consumer of a node comes after it, so counting from the
        # outputs back, a node's count is final when the pass reaches it,
        # and a node is live (reaches an output) exactly when it is nonzero
        uses = self.uses = [0] * graph.node_count
        wants_complement = self.wants_complement = [False] * graph.node_count
        for e in graph.packed_outputs:
            if e >= 0:
                uses[e >> 1] += 1
                if e & 1:
                    wants_complement[e >> 1] = True
        nodes = graph.packed_nodes
        for k in range(graph.node_count - 1, -1, -1):
            if uses[k]:
                for e in nodes[k]:
                    if e >= 0:
                        uses[e >> 1] += 1
                        if e & 1:
                            wants_complement[e >> 1] = True

    # -- bookkeeping -------------------------------------------------------

    def _set(self, row: int, val: int | None):
        bit = 1 << row
        copies = self.copies
        old = self.row_val[row]
        if old is not None:
            copies[old] &= ~bit
        self.row_val[row] = val
        if val is not None:
            copies[val] |= bit
        if val is None or val < 0 or self.uses[val >> 1] == 0:
            self.dead |= bit
        else:
            self.dead &= ~bit
        self.clock += 1
        self.lru[row] = self.clock

    def _copy(self, src: str, val: int, excluded: int, pick: tuple[int, ...] = _FIRST,
              cands: int = _ALL) -> int:
        """Copy `val` from row token `src` into a row of `cands` outside
        `excluded` and return that row.  A free or dead row is taken by
        `pick` (`_FIRST`, or `_FIRST_DCC` to prefer a DCC row); else the
        least recently used row whose value survives elsewhere; else one
        that `_evict` first empties."""
        cands &= ~excluded
        free = cands & self.dead
        if free:
            row = pick[free]
        else:
            # every candidate now holds a live node set at its own clock
            # tick, so LRU order has no ties.  The least recently used
            # redundant copy is overwritten silently; rows in `excluded` may
            # be about to be destroyed by the pending TRA, so they don't
            # count as backup
            rows = sorted(_ROWS_OF[cands], key=self.lru.__getitem__)
            copies, spilled, row_val = self.copies, self.spilled, self.row_val
            for row in rows:
                node = row_val[row] & ~1
                if ((copies[node] | copies[node | 1]) & ~(excluded | 1 << row)
                        or spilled[node] is not None or spilled[node | 1] is not None):
                    break
            else:
                if not rows:  # unreachable: callers exclude at most three of
                    # the six rows, and a DCC-only copy never excludes both
                    raise CapacityError("compute-row pressure with no evictable row")
                row = rows[0]
                self._evict(row, excluded)
        self._emit(("AAP", (src, _ROW_NAMES[row])))
        self._set(row, val)
        return row

    def _evict(self, row: int, excluded: int):
        """Keep `row`'s live value elsewhere, in an idle row outside
        `excluded` or else a spill row, before `_copy` overwrites it."""
        val = self.row_val[row]
        if self.dead & ~excluded & ~(1 << row):  # an idle row: migrate
            self._copy(_ROW_NAMES[row], val, excluded | 1 << row)
            return
        if not self.spill_free:
            raise CapacityError(
                "spill region exhausted: graph live-value pressure exceeds the "
                "reserved data-row scratch space"
            )
        idx = heapq.heappop(self.spill_free)
        self._emit(("AAP", (_ROW_NAMES[row], f"D{idx}")))
        self.spilled[val] = idx

    # -- value access --------------------------------------------------------

    def _use(self, ref: int):
        if ref < 0:
            return
        self.uses[ref] -= 1
        if self.uses[ref] == 0:
            # rows holding the value die; release any spill rows it held
            for val in (ref << 1, ref << 1 | 1):
                self.dead |= self.copies[val]
                idx = self.spilled[val]
                if idx is not None:
                    self.spilled[val] = None
                    heapq.heappush(self.spill_free, idx)

    def _any_source(self, val: int) -> tuple[str | None, int]:
        """A row token (or alias) an AAP can read value `val` from, else
        None, and the mask of the compute-group row behind it (0 for data
        and constant rows)."""
        ref = val >> 1
        if ref == REF_ZERO:
            return CONST_ROWS[val & 1], 0
        rows = self.copies[val]
        if rows:
            r = _FIRST[rows]
            return _ROW_NAMES[r], 1 << r
        idx = self.spilled[val]
        if idx is not None:
            return f"D{idx}", 0
        if ref < REF_ZERO and not val & 1:  # an input, read off its data row
            return self.rowmap.input_rows[-2 - ref], 0
        # complement read straight off a dual-contact cell, DCC0 first
        flipped = self.copies[val ^ 1] & _DCC_MASK
        if flipped:
            r = _FIRST[flipped]
            return "~" + _ROW_NAMES[r], 1 << r
        return None, 0

    def _flip_into_dcc(self, val: int, claimed: list[int],
                       taken: int) -> tuple[str, int, int]:
        """Copy `val ^ 1`, the only polarity held anywhere, into a DCC row
        outside `taken`, the rows of the pending TRA's operands `claimed`.
        Returns the ``~DCC`` token that reads `val`, that row's mask and
        the TRA's `taken` mask, which moves if it pins both DCC rows: one
        of those operands is then moved aside, and `claimed` updated."""
        src, base = self._any_source(val ^ 1)
        if src is None:
            raise MicroProgramError(f"value for n{val >> 1} lost during scheduling")
        if taken & _DCC_MASK == _DCC_MASK:
            dcc = next(r for r in claimed if 1 << r & _DCC_MASK)
            row = self._copy(_ROW_NAMES[dcc], self.row_val[dcc], taken | base)
            claimed[claimed.index(dcc)] = row
            taken = taken & ~(1 << dcc) | 1 << row
            self._set(dcc, None)  # free, for the copy below
        dcc = self._copy(src, val ^ 1, taken | base, cands=_DCC_MASK)
        return "~" + _ROW_NAMES[dcc], 1 << dcc, taken

    # -- main sweep ----------------------------------------------------------

    def run(self) -> list[tuple[str, tuple[str, ...]]]:
        """The sweep: one TRA per live node (one with uses when the sweep
        reaches it, since its consumers all come later), in node order,
        then the output writes.  An operand with a copy outside the
        pending TRA's rows is read in place; any other, and every
        constant, is copied into a row the TRA may destroy.  Either way
        its use is counted, and a copy is spared first if the TRA would
        take the last copy of a node still in use.  The TRA writes its
        node into its three rows in one masked update (`_set` per row,
        fused)."""
        copies, lru, uses, row_val = self.copies, self.lru, self.uses, self.row_val
        spilled, wants_complement = self.spilled, self.wants_complement
        for k, edges in enumerate(self.graph.packed_nodes):
            if not uses[k]:
                continue
            claimed: list[int] = []
            taken = 0  # the rows in `claimed`
            for e in edges:
                ref = e >> 1
                avail = 0 if ref == REF_ZERO else copies[e] & ~taken
                if avail:  # read a copy in place
                    row = _FIRST[avail]
                else:
                    src, base = self._any_source(e)
                    if src is not None:
                        row = self._copy(src, e, taken | base,
                                         _FIRST_DCC if ref >= 0 and wants_complement[ref]
                                         else _FIRST)
                    else:  # only the flipped polarity is held: read it through a DCC row
                        src, base, taken = self._flip_into_dcc(e, claimed, taken)
                        row = self._copy(src, e, taken | base)
                if ref >= 0:
                    if uses[ref] == 1:
                        self._use(ref)
                    else:
                        uses[ref] -= 1
                        doomed = taken | 1 << row
                        if not (copies[e] & ~doomed or copies[e ^ 1] & ~doomed
                                or spilled[e] is not None or spilled[e ^ 1] is not None):
                            row = self._copy(_ROW_NAMES[row], e, doomed)
                self.clock += 1
                lru[row] = self.clock
                claimed.append(row)
                taken |= 1 << row
            self._emit(("TRA", tuple([_ROW_NAMES[r] for r in claimed])))
            # each claimed row holds its operand; a live node has uses left
            for r in claimed:
                copies[row_val[r]] &= ~taken
                row_val[r] = k << 1
                self.clock += 1
                lru[r] = self.clock
            copies[k << 1] = taken
            self.dead &= ~taken
        for e, target in zip(self.graph.packed_outputs, self.rowmap.output_rows):
            src, _ = self._any_source(e)
            if src is None:
                src, _, _ = self._flip_into_dcc(e, [], 0)
            self._emit(("AAP", (src, target)))
            self._use(e >> 1)
        return self.commands


def _check_rowmap(graph: MajGraph, rowmap: RowMap):
    """`ArityError` unless `rowmap` has a row per input and output of
    `graph`, and no row twice: a repeated input row would read one row for
    two inputs, and an output row on an input row would overwrite it."""
    rows = (len(rowmap.input_rows), len(rowmap.output_rows))
    if rows != (graph.input_count, graph.output_count):
        raise ArityError(f"row map has {rows[0]} input and {rows[1]} output rows for a graph "
                         f"with {graph.input_count} inputs and {graph.output_count} outputs")
    seen: set[str] = set()
    for row in rowmap.input_rows + rowmap.output_rows:
        if row in seen:
            raise ArityError(f"row map names row {row} more than once")
        seen.add(row)


# Keyed by graph identity and row map value.  `optimize` scores the graph
# it returns last or second to last (its rounds stop unscored at a round
# that applies no rule, scored at one not kept), so two entries hand that
# sweep to `schedule`.
@functools.lru_cache(maxsize=2)
def _sweep(graph: MajGraph, rowmap: RowMap) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The scheduler's (op, rows) commands for `graph` under `rowmap`."""
    return tuple(_Scheduler(graph, rowmap).run())


def schedule(graph: MajGraph, rowmap: RowMap,
             *, name: str = "custom", width: int = 1) -> MicroProgram:
    """Emit the command program realizing `graph` under `rowmap`, from
    the sweep `estimate_cost_static` made if it is still in `_sweep`."""
    _check_rowmap(graph, rowmap)
    commands = tuple(map(Command._make, _sweep(graph, rowmap)))
    return MicroProgram(name=name, width=width,
                        data_rows=rowmap.data_rows_used, commands=commands)


def estimate_cost_static(graph: MajGraph, cfg: SubarrayConfig = DEFAULT_SUBARRAY) -> int:
    """Activations of the program `schedule` emits for `graph` under `cfg`.

    The optimizer's objective: the same `_sweep`, spills included,
    counted without building `Command`s.  Raises `CapacityError` when
    `cfg` cannot hold the graph.
    """
    commands = _sweep(graph, allocate_rows(graph, cfg))
    aap = sum(1 for op, _ in commands if op == "AAP")
    return row_activations(aap, len(commands) - aap)


def spill_rows_used(program: MicroProgram, rowmap: RowMap) -> int:
    """Scratch rows `program` needs: the spill region is taken lowest row
    first, so this is its highest written row, counted from the region's
    start (0 when nothing spills)."""
    top = rowmap.spill_start
    for dst in {rows[-1] for _, rows in program.commands}:  # a TRA names no data row
        i = data_row_index(dst)
        if i is not None and top <= i < rowmap.spill_end:
            top = i + 1
    return top - rowmap.spill_start


# --- lowering: the one reading of the command set -------------------------


def lower(program: MicroProgram, cfg: SubarrayConfig) -> tuple[list, list, int, int, int]:
    """(ops, writes, slots, AAP count, TRA count) of `program` under
    `cfg`'s row geometry: the program as value ops over slots.

    Slot i < total_rows is row i's content before the run; slots from
    total_rows on, `slots` of them, are computed.  Each row reads one
    slot, at first its own.  A plain AAP is a rename: its destination
    reads its source's slot, and nothing runs.  A ``~DCC`` read is the op
    ``(x, -1, 0, d)``, slot d = the complement of slot x, and a TRA is
    ``(x, y, z, d)``, slot d = the majority of slots x, y, z, which all
    three of its rows then read.  `writes` is the (row, slot) pair of
    every row that ends reading a slot not its own.  A computed slot no
    row reads is free, and the next op reuses it, so computed slots are
    at most the rows the program writes.  `run_program` executes these
    ops and `verify_program` replays them symbolically.

    Cached on the program per (total_rows, data_row_count); columns do not
    enter, since a complement takes the running state's mask.  The
    command rules are `_check_command`'s, in its order, applied in two
    halves (`_decode`): each distinct token is checked and resolved
    once, and each distinct command's shape checked once.  A command
    that breaks a rule raises `MicroProgramError`, and only one that
    keeps them can raise `ExecutionError`, for a row out of range; either
    names the command's line.
    """
    geometry = (cfg.total_rows, cfg.data_row_count)
    cache = program._lowered
    if cache is None:
        cache = {}
        object.__setattr__(program, "_lowered", cache)
    hit = cache.get(geometry)
    if hit is not None:
        return hit
    base = cfg.total_rows
    index: dict[str, int] = {}  # token -> physical row, resolved once
    decoded: dict[Command, tuple[int, ...]] = {}  # command -> op rows
    slot = list(range(base))  # the slot each row reads
    readers = [0] * base  # rows reading each computed slot, by slot
    free: list[int] = []  # computed slots no row reads
    ops = []
    tra = 0
    for n, cmd in enumerate(program.commands):
        rows = decoded.get(cmd)
        if rows is None:
            rows = decoded[cmd] = _decode(cmd, n, program, index, cfg)
        if len(rows) == 2:  # plain AAP: the destination reads the source's slot
            src, dst = rows
            s, old = slot[src], slot[dst]
            slot[dst] = s
            if s >= base:
                readers[s] += 1
            if old >= base:
                readers[old] -= 1
                if not readers[old]:
                    free.append(old)
            continue
        a, b, c = rows
        if c < 0:  # AAP from ~DCC: the destination reads a complemented slot
            op = (slot[a], -1, 0)
            written = (b,)
        else:
            op = (slot[a], slot[b], slot[c])
            written = rows
            tra += 1
        for r in written:
            s = slot[r]
            if s >= base:
                readers[s] -= 1
                if not readers[s]:
                    free.append(s)
        if free:
            d = free.pop()
        else:
            d = len(readers)
            readers.append(0)
        readers[d] = len(written)
        for r in written:
            slot[r] = d
        ops.append(op + (d,))
    writes = [(r, slot[r]) for r in sorted(set(index.values())) if slot[r] != r]
    hit = cache[geometry] = (ops, writes, len(readers) - base,
                             len(program.commands) - tra, tra)
    return hit


def _decode(cmd: Command, n: int, program: MicroProgram, index: dict[str, int | None],
            cfg: SubarrayConfig) -> tuple[int, ...]:
    """`cmd`'s physical rows: (src, dst) for a plain AAP, (DCC row, dst,
    -1) for a ``~DCC`` read, the three rows of a TRA.  `index` maps every
    token met so far to its row, None for a data row out of range, so a
    token is checked (`_check_token`) and resolved only when new to it;
    the command's shape is checked next (`_check_shape`).  A command that
    breaks the rules is `MicroProgramError` with `parse_microprogram`'s
    message for line n; only then is a row out of range `ExecutionError`
    naming line n."""
    op, toks = cmd
    try:
        for t in toks:
            if t not in index:
                _check_token(t)
                index[t] = _row_or_none(cfg, t)
        _check_shape(op, toks)
    except MicroProgramError as e:
        raise MicroProgramError(f"line {program.line_of(n)}: {e}") from e
    if op == "TRA":  # three compute-group rows, always in range
        a, b, c = toks
        return index[a], index[b], index[c]
    src, dst = toks
    rows = (index[src], index[dst], -1) if src[0] == "~" else (index[src], index[dst])
    if None in rows:
        bad = dst if index[dst] is None else src  # the destination named first
        try:
            cfg.row_index(bad)
        except MicroProgramError as e:
            raise ExecutionError(f"line {program.line_of(n)}: {cmd.render()}: {e}") from e
    return rows


def _row_or_none(cfg: SubarrayConfig, token: str) -> int | None:
    """The row a checked token reads under `cfg` (a ``~DCC`` alias its
    DCC row's), or None for a data row beyond `cfg`'s."""
    try:
        return cfg.row_index(alias_base(token) or token)
    except MicroProgramError:
        return None


# --- dataflow audit -------------------------------------------------------


def verify_program(graph: MajGraph, rowmap: RowMap, program: MicroProgram) -> bool:
    """Symbolic replay of `lower`'s ops: output rows must hold the graph's
    expressions.

    The geometry is the row map's (`RowMap.geometry`): its `spill_end`
    data rows (all of the subarray's, as `allocate_rows` sets it) and the
    eight designated rows above them; `compile_op`'s lane check runs
    under it too, so one lowering serves both.  A value is
    ``id << 1 | complemented``.  Each row starts as its own unknown, and
    C1 as the complement of C0; a ``~DCC`` op complements its slot, and a
    TRA op interns the majority of its three slots with at most one
    operand complemented, since M(~a,~b,~c) = ~M(a,b,c).  Each output
    row is read through `writes`.  Catches any
    read of a recycled row, independent of test vectors.  Raises
    `ArityError` when `rowmap` does not fit `graph`, and what `lower`
    raises for a command that breaks the rules or names a row outside
    the geometry.
    """
    _check_rowmap(graph, rowmap)
    cfg = rowmap.geometry
    ops, writes, slots, _, _ = lower(program, cfg)
    base = cfg.total_rows
    intern: dict[tuple[int, ...], int] = {}

    def maj(a: int, b: int, c: int) -> int:
        flip = (a & 1) + (b & 1) + (c & 1) >= 2
        if flip:
            a, b, c = a ^ 1, b ^ 1, c ^ 1
        if a > b:  # sort the operands: the key of M(a, b, c) in every order
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        key = a, b, c
        i = intern.get(key)
        if i is None:
            i = intern[key] = base + len(intern)
        return i << 1 | flip

    v = [r << 1 for r in range(base)] + [0] * slots
    const = v[cfg.row_index("C0")]
    v[cfg.row_index("C1")] = const | 1
    for x, y, z, d in ops:
        v[d] = v[x] ^ 1 if y < 0 else maj(v[x], v[y], v[z])

    # the value each ref should have, indexed by ref: node k at k, and the
    # inputs and the constant, negative refs, in the tail by negative indexing
    expected = [0] * graph.node_count + [cfg.row_index(t) << 1
                                         for t in reversed(rowmap.input_rows)] + [const]
    for k, (a, b, c) in enumerate(graph.packed_nodes):
        expected[k] = maj(expected[a >> 1] ^ (a & 1), expected[b >> 1] ^ (b & 1),
                          expected[c >> 1] ^ (c & 1))

    final = dict(writes)
    return all(v[final.get(r, r)] == expected[e >> 1] ^ (e & 1) for r, e in
               zip(map(cfg.row_index, rowmap.output_rows), graph.packed_outputs))
