"""Layout conversion between horizontal words and vertical bit-columns.

Vertical layout stores an n-bit value one bit per row down a single
column: bit i (LSB = bit 0) of value j sits at row base_row+i, column j.
That makes a bit shift a row renaming and lets one row-activation
sequence operate on every column in parallel.

Both directions go through bit strings instead of per-bit loops: each
value is formatted once as w binary digits into one string, and bit row
i is the strided slice that picks the same character out of every value,
parsed with `int(..., 2)`.  Going back, each row is formatted
once and written into a byte buffer with a strided slice assignment, and
each lane is parsed from its own w-byte slice.

Data rows are addressed by index (`SubarrayState.load_data_rows` /
`store_data_rows`), one call per block, once `_check_region` has placed
the block inside the data region.  Conversions touch only the addressed
rows and columns; untouched cells are preserved exactly.  A block's
values must be ints (bools count) that fit its width; anything else is
a `CapacityError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError
from .subarray import SubarrayState


@dataclass(frozen=True)
class HorizontalBlock:
    """Conventional layout: a list of n-bit unsigned words."""

    values: tuple[int, ...]
    bit_width: int

    def __post_init__(self):
        width = self.bit_width
        if not 1 <= width <= 64:
            raise CapacityError(f"bit width {width} outside 1..64")
        values = tuple(self.values)
        try:
            for v in values:
                if v >> width:  # negative, or wider than `width` bits
                    raise _misfit(values, width)
        except TypeError:  # a value that is not an int
            raise _misfit(values, width) from None
        object.__setattr__(self, "values", values)


def _misfit(values, width: int) -> CapacityError:
    """The error naming the first value that is not an int of `width` bits."""
    for i, v in enumerate(values):
        if not isinstance(v, int):
            return CapacityError(f"value {i} is {v!r:.40}, not an int")
        if v >> width:  # str() refuses ints of over 4300 digits
            shown = v if v.bit_length() <= 64 else f"a {v.bit_length()}-bit int"
            return CapacityError(f"value {i} ({shown}) does not fit in {width} bits")


@dataclass(frozen=True)
class VerticalBlock:
    """A transposed operand: n consecutive data rows, one value per column."""

    base_row: int
    bit_width: int
    column_count: int


def _check_region(state: SubarrayState, base_row: int, width: int, count: int):
    cfg = state.cfg
    if base_row < 0 or base_row + width > cfg.data_row_count:
        raise CapacityError(
            f"rows {base_row}..{base_row + width - 1} overflow the data region "
            f"(0..{cfg.data_row_count - 1})"
        )
    if count > cfg.columns:
        raise CapacityError(
            f"{count} values exceed the {cfg.columns}-column subarray"
        )


def bit_rows(values, width: int) -> list[str]:
    """Vertical bit rows of `width`-bit values as 0/1 strings, value 0
    first: character j of row i is bit i of values[j]."""
    spec = "{:0%db}" % width  # one str.format call renders every value
    big = (spec * len(values)).format(*values)
    return [big[width - 1 - i::width] for i in range(width)]


def lane_values(rows: list[str], width: int) -> list[int]:
    """Inverse of `bit_rows`: the value whose bit i is character j of
    rows[i], for each column j."""
    buf = bytearray(width * len(rows[0]))
    for i, row in enumerate(rows):
        buf[width - 1 - i::width] = row.encode("ascii")
    return [int(buf[k:k + width], 2) for k in range(0, len(buf), width)]


def to_vertical(block: HorizontalBlock, state: SubarrayState, base_row: int) -> VerticalBlock:
    """Write `block` into the subarray in vertical layout, LSB at base_row."""
    count = len(block.values)
    _check_region(state, base_row, block.bit_width, count)
    if count:
        keep_mask = ~((1 << count) - 1)
        old = state.load_data_rows(base_row, block.bit_width)
        state.store_data_rows(base_row, [
            (word & keep_mask) | int(row[::-1], 2)
            for word, row in zip(old, bit_rows(block.values, block.bit_width))])
    return VerticalBlock(base_row, block.bit_width, count)


def to_horizontal(state: SubarrayState, base_row: int, width: int, count: int) -> HorizontalBlock:
    """Read back `count` vertical values of `width` bits from base_row."""
    _check_region(state, base_row, width, count)
    if not count or width < 1:  # HorizontalBlock rejects the bad width
        return HorizontalBlock((), width)
    lane_mask = (1 << count) - 1
    spec = f"0{count}b"
    rows = [format(word & lane_mask, spec)[::-1]
            for word in state.load_data_rows(base_row, width)]
    return HorizontalBlock(tuple(lane_values(rows, width)), width)
