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

`run_program` executes `codegen.lower`'s reading of a program: value
ops over slots, lowered once per row geometry (total rows, data rows)
and cached on the program, the same ops `verify_program` replays
symbolically.  Since a row is one int, a plain AAP copy is a rename:
its destination reads its source's value and nothing runs.  Only a TRA
(one majority) and a ``~DCC`` read (one complement) become ops, and a
run executes them in one loop on the rows plus the computed slots, then
writes back every row the program changed.  Lowering checks each
distinct command's rules and that its rows are in range, so a failing
program changes nothing.  `exec_aap`/`exec_tra` are the single-step
form of the same commands, checked by the same rules.  Constant rows
C0/C1 are write-protected and re-checked after every program run.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConfigError, RowSafetyError
from .codegen import (
    CONST_ROWS,
    MicroProgram,
    SubarrayConfig,
    _check_command,
    alias_base,
    lower,
    row_activations,
)


class ExecutionReport:
    """AAP and TRA counts of the commands run; mutable, so unhashable."""

    __slots__ = ("aap_count", "tra_count")

    def __init__(self, aap_count: int = 0, tra_count: int = 0):
        self.aap_count = aap_count
        self.tra_count = tra_count

    def __repr__(self) -> str:
        return f"ExecutionReport(aap_count={self.aap_count!r}, tra_count={self.tra_count!r})"

    def __eq__(self, other):
        if type(other) is not ExecutionReport:
            return NotImplemented
        return (self.aap_count, self.tra_count) == (other.aap_count, other.tra_count)

    __hash__ = None

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
        _check_command("AAP", (src, dst))
        s, flip = self._resolve(src)
        rows = self._rows
        rows[self._resolve(dst)[0]] = rows[s] ^ flip
        self.report.aap_count += 1

    def exec_tra(self, r1: str, r2: str, r3: str):
        _check_command("TRA", (r1, r2, r3))
        i, j, k = (self._resolve(t)[0] for t in (r1, r2, r3))
        rows = self._rows
        a, b, c = rows[i], rows[j], rows[k]
        rows[i] = rows[j] = rows[k] = (a & b) | (a & c) | (b & c)
        self.report.tra_count += 1

    def run_program(self, program: MicroProgram) -> ExecutionReport:
        """Run `program` as its lowered value ops (see `codegen.lower`).

        The ops run on ``v``, the rows followed by `lower`'s computed
        slots: one majority per TRA, one complement per ``~DCC`` read;
        then every row the program changed takes its final slot.  A
        command breaking the command rules raises `MicroProgramError`,
        and a row outside this geometry `ExecutionError`, each with its
        line and before any row changes.  Each
        command is counted once, into `self.report`; the returned report
        is this run's share of it.
        """
        ops, writes, slots, aap, tra = lower(program, self.cfg)
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


def new_subarray(cfg: SubarrayConfig) -> SubarrayState:
    """Fresh zero-initialized subarray with constants set."""
    if not isinstance(cfg, SubarrayConfig):
        raise ConfigError("expected a SubarrayConfig")
    return SubarrayState(cfg)
