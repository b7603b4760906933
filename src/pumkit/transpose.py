"""Layout conversion between horizontal words and vertical bit-columns.

Vertical layout stores an n-bit value one bit per row down a single
column: bit i (LSB = bit 0) of value j sits at row base_row+i, column j.
That makes a bit shift a row renaming and lets one row-activation
sequence operate on every column in parallel.

Both directions work on packed little-endian bytes, one item of 1, 2, 4
or 8 bytes per value; no Python loop runs per value or per lane.  In,
the block is packed once (`bytes` or `array.tobytes`, which also checks
type and range).  Byte column k, ``packed[k::size]``, holds bits 8k to
8k+7 of every value; read as one little-endian int, each of its 64-bit
words is an 8x8 bit matrix of 8 lanes by 8 bits, and three delta swaps
(Warren, *Hacker's Delight*, 2nd ed., section 7-3) transpose all of them
at once, so that byte b of word g holds bit 8k+b of lanes 8g to 8g+7.
Bit row 8k+b is then the strided bytes ``[b::8]``, read as one int.
Out, up to 8 rows are strided into one such buffer, the same swaps
(a transpose is its own inverse) turn it back into a byte column, which
is strided into the packed buffer, and `array.tolist` reads the lanes
back.  Lane counts and widths that are not multiples of 8 pad with zero
bytes.  Each byte column costs a fixed number of big-int operations.

`HorizontalBlock.rows` and `from_rows` are the two conversions on packed
row ints; `to_vertical`/`to_horizontal` move them in and out of a
subarray's data rows (`SubarrayState.load_data_rows` /
`store_data_rows`), one call per block, once `_check_region` has placed
the block inside the data region.  Conversions touch only the addressed
rows and columns; untouched cells are preserved exactly.  A block's
values must be ints (bools count) that fit its width, and a conversion's
base row, width and lane count ints (bools do not count); anything else
is a `CapacityError`.
"""

from __future__ import annotations

import functools
import sys
from array import array
from typing import NamedTuple

from .errors import CapacityError, Validated
from .subarray import SubarrayState

# Widest value a block holds: the 8-byte packed item.
MAX_WIDTH = 64

# Unsigned array typecode per item size, chosen by the platform's sizes.
_CODES: dict[int, str] = {}
for _code in "BHILQ":
    _CODES.setdefault(array(_code).itemsize, _code)

# (shift, mask) of the three delta swaps that transpose a 64-bit word as
# an 8x8 bit matrix: bit b of byte i trades places with bit i of byte b.
_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


@functools.lru_cache(maxsize=8)
def _swap_masks(words: int) -> tuple[tuple[int, int], ...]:
    """`_SWAPS` with each mask repeated over `words` 64-bit words; kept
    per word count, since every conversion of a block needs them."""
    return tuple((s, int.from_bytes(m.to_bytes(8, "little") * words, "little"))
                 for s, m in _SWAPS)


def _transpose8(x: int, masks) -> int:
    """`x` with each of its 64-bit words transposed as an 8x8 bit matrix
    (bit b of byte i to bit i of byte b); `masks` is `_swap_masks` of at
    least as many words.  Applied twice it gives `x` back."""
    for s, m in masks:
        t = (x ^ (x >> s)) & m
        x ^= t ^ (t << s)
    return x


def _item_size(width: int) -> int:
    """Bytes per packed value: the smallest of 1, 2, 4, 8 holding `width` bits."""
    return 1 if width <= 8 else 2 if width <= 16 else 4 if width <= 32 else 8


def _pack(values: tuple, size: int) -> bytes:
    """Little-endian packing of `values`, `size` bytes each.  Raises
    TypeError, ValueError or OverflowError on a non-int or a value the
    item size cannot hold."""
    if size == 1:
        return bytes(values)
    # 2-byte items pack as 4-byte ones, which `array` packs faster
    packed = array(_CODES[max(size, 4)], values)
    if sys.byteorder == "big":
        packed.byteswap()
    packed = packed.tobytes()
    if size == 2:
        n = len(values)
        if packed[2::4].count(0) != n or packed[3::4].count(0) != n:
            raise OverflowError("value does not fit in 2 bytes")
        low = bytearray(2 * n)
        low[0::2], low[1::2] = packed[0::4], packed[1::4]
        packed = bytes(low)
    return packed


def _unpack(buf: bytearray, size: int) -> list[int]:
    if size == 1:
        return list(buf)
    packed = array(_CODES[size], buf)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tolist()


class _BlockFields(NamedTuple):
    values: tuple[int, ...]
    bit_width: int


class HorizontalBlock(Validated, _BlockFields):
    """Conventional layout: a list of n-bit unsigned words.

    `_packed`, the values packed little-endian, `_item_size(bit_width)`
    bytes each, is an instance attribute outside the fields, so equality,
    hashing, the repr and pickles leave it out.
    """

    def __new__(cls, values, bit_width):
        if type(bit_width) is not int:  # a bool is not one
            raise CapacityError(f"bit width {bit_width!r:.40} is not an int")
        if not 1 <= bit_width <= MAX_WIDTH:
            raise CapacityError(f"bit width {bit_width} outside 1..{MAX_WIDTH}")
        values = tuple(values)
        size = _item_size(bit_width)
        try:
            packed = _pack(values, size)
        except (TypeError, ValueError, OverflowError):
            raise _misfit(values, bit_width) from None
        if bit_width < 8 * size and max(values, default=0) >> bit_width:
            raise _misfit(values, bit_width)
        self = tuple.__new__(cls, (values, bit_width))
        object.__setattr__(self, "_packed", packed)
        return self

    def rows(self) -> list[int]:
        """Vertical bit rows as packed ints: bit j of row i is bit i of
        values[j]."""
        width, size = self.bit_width, _item_size(self.bit_width)
        words = -(-len(self.values) // 8)
        masks = _swap_masks(words)
        cols = [_transpose8(int.from_bytes(self._packed[k::size], "little"), masks)
                .to_bytes(8 * words, "little") for k in range(-(-width // 8))]
        return [int.from_bytes(cols[i // 8][i % 8::8], "little") for i in range(width)]


def from_rows(rows, width: int, count: int) -> HorizontalBlock:
    """Inverse of `HorizontalBlock.rows`: the `count` values whose bit i is
    bit j of rows[i]; bits at column `count` and above are ignored."""
    if count < 0:
        raise CapacityError(f"lane count {count} is negative")
    if not count or not 1 <= width <= MAX_WIDTH:
        return HorizontalBlock((), width)  # rejects the bad width
    size = _item_size(width)
    words = -(-count // 8)
    masks = _swap_masks(words)
    lane_mask = (1 << count) - 1
    buf = bytearray(size * count)
    for k in range(0, width, 8):
        col = bytearray(8 * words)
        for b, row in enumerate(rows[k:k + 8]):
            col[b::8] = (row & lane_mask).to_bytes(words, "little")
        buf[k // 8::size] = _transpose8(int.from_bytes(col, "little"),
                                        masks).to_bytes(8 * words, "little")[:count]
    block = tuple.__new__(HorizontalBlock, (tuple(_unpack(buf, size)), width))  # valid
    object.__setattr__(block, "_packed", bytes(buf))
    return block


def _misfit(values, width: int) -> CapacityError:
    """The error naming the first value that is not an int of `width` bits."""
    for i, v in enumerate(values):
        if not isinstance(v, int):
            return CapacityError(f"value {i} is {v!r:.40}, not an int")
        if v >> width:  # str() refuses ints of over 4300 digits
            shown = v if v.bit_length() <= MAX_WIDTH else f"a {v.bit_length()}-bit int"
            return CapacityError(f"value {i} ({shown}) does not fit in {width} bits")


class VerticalBlock(NamedTuple):
    """A transposed operand: n consecutive data rows, one value per column."""

    base_row: int
    bit_width: int
    column_count: int


def _check_region(state: SubarrayState, base_row: int, width: int, count: int):
    for name, value in (("base row", base_row), ("bit width", width), ("lane count", count)):
        if type(value) is not int:  # a bool is not one
            raise CapacityError(f"{name} {value!r:.40} is not an int")
    if count < 0:
        raise CapacityError(f"lane count {count} is negative")
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


def to_vertical(block: HorizontalBlock, state: SubarrayState, base_row: int) -> VerticalBlock:
    """Write `block` into the subarray in vertical layout, LSB at base_row."""
    count = len(block.values)
    _check_region(state, base_row, block.bit_width, count)
    if count:
        keep_mask = ~((1 << count) - 1)  # the columns beyond the block
        old = state.load_data_rows(base_row, block.bit_width)
        state.store_data_rows(base_row, [
            (word & keep_mask) | row for word, row in zip(old, block.rows())])
    return VerticalBlock(base_row, block.bit_width, count)


def to_horizontal(state: SubarrayState, base_row: int, width: int, count: int) -> HorizontalBlock:
    """Read back `count` vertical values of `width` bits from base_row."""
    _check_region(state, base_row, width, count)
    return from_rows(state.load_data_rows(base_row, width), width, count)
