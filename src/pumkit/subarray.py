"""Bit-accurate functional model of one DRAM subarray.

Each row is a Python int: bit ``c`` is the cell in column ``c``, so
row-wide copies and majority votes are single bigint operations.  The
model is functional, not charge-accurate: timing, refresh, and analog
failure modes live elsewhere (or nowhere).

Row semantics follow the command set the code generator targets:

* ``AAP src dst``    copies a row; a ``~DCC`` source reads the
  complemented wordline of a dual-contact row.
* ``TRA r1 r2 r3``   per-column majority over three compute-group rows,
  destructively overwriting all three.

`run_program` lowers a program once per row geometry (total rows, data
rows) to value ops over slots, cached on the program (`_lower`).  Since
a row is one int, a plain AAP copy is a rename: its destination reads
its source's value and nothing runs.  Only a TRA (one majority) and a
``~DCC`` read (one complement) become ops, and a run executes them in
one loop on the rows plus the computed slots, then writes back every
row the program changed.  The only geometry-dependent check, rows in
range, runs while lowering, so a failing program changes nothing.
`exec_aap`/`exec_tra` are the checked single-step form of the same
commands.  Constant rows C0/C1 are write-protected and re-checked after
every program run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, ExecutionError, MicroProgramError, RowSafetyError
from .codegen import (
    CONST_ROWS,
    Command,
    MicroProgram,
    SubarrayConfig,
    alias_base,
    in_compute_group,
    row_activations,
)


@dataclass
class ExecutionReport:
    aap_count: int = 0
    tra_count: int = 0

    @property
    def total_activations(self) -> int:
        return row_activations(self.aap_count, self.tra_count)


class SubarrayState:
    """Mutable subarray: a row-major bit matrix plus a command log.

    Host access and single steps resolve each row token on every call;
    `run_program` and the data-row methods work on row indices directly.
    """

    __slots__ = ("cfg", "_rows", "_mask", "report")

    def __init__(self, cfg: SubarrayConfig):
        self.cfg = cfg
        self._mask = (1 << cfg.columns) - 1
        self._rows = [0] * cfg.total_rows
        self._rows[cfg.row_index("C1")] = self._mask
        self.report = ExecutionReport()

    def _resolve(self, token: str) -> tuple[int, int]:
        """(physical row index, XOR applied on read); ~DCC reads complemented."""
        base = alias_base(token)
        return self.cfg.row_index(base or token), 0 if base is None else self._mask

    # -- host access ---------------------------------------------------------

    def load_row(self, token: str) -> int:
        """Packed row contents; a ~DCC token reads the complement."""
        i, flip = self._resolve(token)
        return self._rows[i] ^ flip

    def store_row(self, token: str, word: int):
        if alias_base(token) is not None:
            raise RowSafetyError("complement alias is not writable")
        if token in CONST_ROWS:
            raise RowSafetyError(f"constant row {token} is write-protected")
        self._rows[self._resolve(token)[0]] = word & self._mask

    def load_data_rows(self, base: int, count: int) -> list[int]:
        """Packed contents of data rows base..base+count-1."""
        self._check_data_rows(base, count)
        return self._rows[base:base + count]

    def store_data_rows(self, base: int, words: Sequence[int]):
        """Write `words` into data rows base, base+1, ..."""
        self._check_data_rows(base, len(words))
        mask = self._mask
        self._rows[base:base + len(words)] = [w & mask for w in words]

    def _check_data_rows(self, base: int, count: int):
        # data row i is physical row i
        if base < 0 or base + count > self.cfg.data_row_count:
            raise RowSafetyError(
                f"data rows {base}..{base + count - 1} outside "
                f"0..{self.cfg.data_row_count - 1}"
            )

    def read_row(self, token: str) -> tuple[int, ...]:
        word = self.load_row(token)
        return tuple((word >> c) & 1 for c in range(self.cfg.columns))

    def write_row(self, token: str, bits: Sequence[int]):
        if len(bits) != self.cfg.columns:
            raise RowSafetyError(
                f"row write needs {self.cfg.columns} bits, got {len(bits)}"
            )
        word = 0
        for c, b in enumerate(bits):
            if b:
                word |= 1 << c
        self.store_row(token, word)

    def dump_rows(self) -> str:
        """Row-major dump, one line of 0/1 characters per row."""
        lines = []
        for idx in range(self.cfg.total_rows):
            word = self._rows[idx]
            lines.append("".join("1" if (word >> c) & 1 else "0"
                                 for c in range(self.cfg.columns)))
        return "\n".join(lines) + "\n"

    # -- command execution ----------------------------------------------------

    def exec_aap(self, src: str, dst: str):
        if dst in CONST_ROWS:
            raise RowSafetyError(f"AAP may not write constant row {dst}")
        d, complemented = self._resolve(dst)
        if complemented:
            raise MicroProgramError("complement alias is source-only")
        s, flip = self._resolve(src)
        if s == d:
            raise MicroProgramError("AAP source and destination must differ")
        rows = self._rows
        rows[d] = rows[s] ^ flip
        self.report.aap_count += 1

    def exec_tra(self, r1: str, r2: str, r3: str):
        for t in (r1, r2, r3):
            if not in_compute_group(t):
                raise MicroProgramError(
                    f"TRA operand {t} outside the compute/dual-contact group"
                )
        i, j, k = (self._resolve(t)[0] for t in (r1, r2, r3))
        if i == j or i == k or j == k:
            raise MicroProgramError("TRA rows must be distinct")
        rows = self._rows
        a, b, c = rows[i], rows[j], rows[k]
        rows[i] = rows[j] = rows[k] = (a & b) | (a & c) | (b & c)
        self.report.tra_count += 1

    def run_program(self, program: MicroProgram) -> ExecutionReport:
        """Run `program` as its lowered value ops (see `_lower`).

        The ops run on ``v``, the rows followed by `_lower`'s computed
        slots: one majority per TRA, one complement per ``~DCC`` read;
        then every row the program changed takes its final slot.  A
        program naming a row outside this geometry raises
        `ExecutionError` with its line before any row changes.  Each
        command is counted once, into `self.report`; the returned report
        is this run's share of it.
        """
        ops, writes, slots, aap, tra = _lower(program, self.cfg)
        rows, mask = self._rows, self._mask
        v = rows + [0] * slots
        for x, y, z, d in ops:
            if y < 0:
                v[d] = v[x] ^ mask
            else:
                a, b = v[x], v[y]
                v[d] = (a & b) | (v[z] & (a | b))
        for r, s in writes:
            rows[r] = v[s]
        self.report.aap_count += aap
        self.report.tra_count += tra
        self._check_constants()
        return ExecutionReport(aap, tra)

    def _check_constants(self):
        if self.load_row("C0") != 0:
            raise RowSafetyError("constant row C0 corrupted")
        if self.load_row("C1") != self._mask:
            raise RowSafetyError("constant row C1 corrupted")


def _lower(program: MicroProgram, cfg: SubarrayConfig) -> tuple[list, list, int, int, int]:
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
    at most the rows the program writes.

    Cached on the program per (total_rows, data_row_count); columns do not
    enter, since a complement takes the running state's mask.  Each
    distinct command is decoded, and each distinct token resolved, once.
    The static rules (arity, compute group, distinct rows, writable
    destination) hold by construction of `Command`; the one left to check
    is that every row is in range, reported as `ExecutionError` naming
    the command's line.
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
    decoded: dict[tuple[str, ...], tuple[int, ...]] = {}  # rows -> op rows
    slot = list(range(base))  # the slot each row reads
    readers = [0] * base  # rows reading each computed slot, by slot
    free: list[int] = []  # computed slots no row reads
    ops = []
    tra = 0
    for n, cmd in enumerate(program.commands):
        rows = decoded.get(cmd.rows)
        if rows is None:
            rows = decoded[cmd.rows] = _decode(cmd, n, program, index, cfg)
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


def _decode(cmd: Command, n: int, program: MicroProgram, index: dict[str, int],
            cfg: SubarrayConfig) -> tuple[int, ...]:
    """`cmd`'s physical rows: (src, dst) for a plain AAP, (DCC row, dst,
    -1) for a ``~DCC`` read, the three rows of a TRA.  Tokens resolve
    into `index`; a row out of range is `ExecutionError` naming line n."""
    try:
        for t in reversed(cmd.rows):  # AAP: destination first
            if t not in index:
                index[t] = cfg.row_index(alias_base(t) or t)
    except MicroProgramError as e:
        raise ExecutionError(f"line {program.line_of(n)}: {cmd.render()}: {e}") from e
    rows = tuple(index[t] for t in cmd.rows)
    return (*rows, -1) if cmd.rows[0][0] == "~" else rows


def new_subarray(cfg: SubarrayConfig) -> SubarrayState:
    """Fresh zero-initialized subarray with constants set."""
    if not isinstance(cfg, SubarrayConfig):
        raise ConfigError("expected a SubarrayConfig")
    return SubarrayState(cfg)
