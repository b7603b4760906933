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

Constant rows C0/C1 are write-protected and re-checked after every
program run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, ExecutionError, MicroProgramError, PumError, RowSafetyError
from .codegen import (
    CONST_ROWS,
    MicroProgram,
    SubarrayConfig,
    alias_base,
    in_compute_group,
)


@dataclass
class ExecutionReport:
    aap_count: int = 0
    tra_count: int = 0

    @property
    def total_activations(self) -> int:
        return 2 * self.aap_count + 3 * self.tra_count


class SubarrayState:
    """Mutable subarray: a row-major bit matrix plus a command log.

    Row tokens are resolved to (physical index, read mask) once per state
    and cached in `_index`, so commands run as list operations on the row
    ints.
    """

    __slots__ = ("cfg", "_rows", "_mask", "_index", "report")

    def __init__(self, cfg: SubarrayConfig):
        self.cfg = cfg
        self._mask = (1 << cfg.columns) - 1
        self._rows = [0] * cfg.total_rows
        self._rows[cfg.row_index("C1")] = self._mask
        self._index: dict[str, tuple[int, int]] = {}
        self.report = ExecutionReport()

    def _resolve(self, token: str) -> tuple[int, int]:
        """(physical row index, XOR applied on read); ~DCC reads complemented."""
        hit = self._index.get(token)
        if hit is None:
            base = alias_base(token)
            hit = (self.cfg.row_index(base or token), 0 if base is None else self._mask)
            self._index[token] = hit
        return hit

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
        index = self._index
        d, complemented = index.get(dst) or self._resolve(dst)
        if complemented:
            raise MicroProgramError("complement alias is source-only")
        s, flip = index.get(src) or self._resolve(src)
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
        index = self._index
        i = (index.get(r1) or self._resolve(r1))[0]
        j = (index.get(r2) or self._resolve(r2))[0]
        k = (index.get(r3) or self._resolve(r3))[0]
        if i == j or i == k or j == k:
            raise MicroProgramError("TRA rows must be distinct")
        rows = self._rows
        a, b, c = rows[i], rows[j], rows[k]
        rows[i] = rows[j] = rows[k] = (a & b) | (a & c) | (b & c)
        self.report.tra_count += 1

    def run_program(self, program: MicroProgram) -> ExecutionReport:
        """Execute commands in order; abort on the first failing line.

        Each command is counted once, into `self.report`; the returned
        report is this run's share of it.
        """
        aap0, tra0 = self.report.aap_count, self.report.tra_count
        aap, tra = self.exec_aap, self.exec_tra
        for i, cmd in enumerate(program.commands):
            try:
                if cmd.op == "AAP":
                    aap(*cmd.rows)
                else:
                    tra(*cmd.rows)
            except PumError as e:
                raise ExecutionError(
                    f"line {program.line_of(i)}: {cmd.render()}: {e}"
                ) from e
        self._check_constants()
        return ExecutionReport(self.report.aap_count - aap0,
                               self.report.tra_count - tra0)

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
