import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from pumkit.codegen import SubarrayConfig
from pumkit.errors import CapacityError
from pumkit.subarray import new_subarray
from pumkit.transpose import (
    HorizontalBlock,
    _swap_masks,
    _transpose8,
    from_rows,
    to_horizontal,
    to_vertical,
)

CFG = SubarrayConfig(total_rows=80, columns=64, data_row_count=72)


def fresh():
    return new_subarray(CFG)


class TestToVertical:
    def test_single_value_bit_layout(self):
        st = fresh()
        to_vertical(HorizontalBlock((5,), 4), st, 0)
        column0 = [st.load_row(f"D{i}") & 1 for i in range(4)]
        assert column0 == [1, 0, 1, 0]  # 5 = 0b0101, LSB first

    def test_all_zero_and_all_one_columns(self):
        st = fresh()
        to_vertical(HorizontalBlock((0, 15), 4), st, 0)
        for i in range(4):
            word = st.load_row(f"D{i}")
            assert word & 1 == 0
            assert (word >> 1) & 1 == 1

    def test_block_descriptor(self):
        st = fresh()
        block = to_vertical(HorizontalBlock((1, 2, 3), 8), st, 10)
        assert (block.base_row, block.bit_width, block.column_count) == (10, 8, 3)

    def test_too_many_values(self):
        st = fresh()
        with pytest.raises(CapacityError):
            to_vertical(HorizontalBlock(tuple(range(70)), 8), st, 0)

    def test_region_overflow(self):
        st = fresh()
        with pytest.raises(CapacityError):
            to_vertical(HorizontalBlock((1,), 16), st, 60)

    def test_value_out_of_range(self):
        with pytest.raises(CapacityError):
            HorizontalBlock((16,), 4)

    @pytest.mark.parametrize("values,match", [
        ((16,), r"^value 0 \(16\) does not fit in 4 bits$"),
        ((3, -1), r"^value 1 \(-1\) does not fit"),
        ((0, 10**5000), r"^value 1 \(a 16610-bit int\) does not fit"),
    ])
    def test_out_of_range_value_is_named_by_index(self, values, match):
        with pytest.raises(CapacityError, match=match):
            HorizontalBlock(values, 4)

    def test_width_out_of_range(self):
        with pytest.raises(CapacityError):
            HorizontalBlock((0,), 65)

    @pytest.mark.parametrize("width", ["3", 3.0, True, None])
    def test_width_must_be_an_int(self, width):
        with pytest.raises(CapacityError, match=f"^bit width {width!r} is not an int$"):
            HorizontalBlock((1,), width)

    @pytest.mark.parametrize("values,width,match", [
        ((1, 1.5), 16, r"^value 1 is 1\.5, not an int$"),
        (("7",), 33, r"^value 0 is '7', not an int$"),
        ((0, 0, -1), 9, r"^value 2 \(-1\) does not fit in 9 bits$"),
        ((512,), 9, r"^value 0 \(512\) does not fit in 9 bits$"),
        ((1 << 33,), 33, r"^value 0 \(8589934592\) does not fit in 33 bits$"),
        ((1 << 40,), 17, r"^value 0 \(1099511627776\) does not fit in 17 bits$"),
        ((1 << 64,), 64, r"^value 0 \(a 65-bit int\) does not fit in 64 bits$"),
        ((256,), 8, r"^value 0 \(256\) does not fit in 8 bits$"),
        ((65536,), 16, r"^value 0 \(65536\) does not fit in 16 bits$"),
        ((2**32,), 16, r"^value 0 \(4294967296\) does not fit in 16 bits$"),
        ((0, 65535, 1 << 24), 16, r"^value 2 \(16777216\) does not fit in 16 bits$"),
    ])
    def test_misfits_are_named_at_every_item_size(self, values, width, match):
        with pytest.raises(CapacityError, match=match):
            HorizontalBlock(values, width)

    @pytest.mark.parametrize("width", [1, 8, 16, 64])
    def test_bools_are_ints(self, width):
        assert HorizontalBlock((True, False), width).rows() == [1] + [0] * (width - 1)


class TestRoundTrip:
    def test_single_value(self):
        st = fresh()
        to_vertical(HorizontalBlock((5,), 4), st, 0)
        assert to_horizontal(st, 0, 4, 1).values == (5,)

    def test_random_16_bit(self, rng):
        st = fresh()
        values = tuple(rng.getrandbits(16) for _ in range(64))
        to_vertical(HorizontalBlock(values, 16), st, 3)
        assert to_horizontal(st, 3, 16, 64).values == values

    @pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 31, 32, 63, 64])
    def test_many_widths(self, width, rng):
        st = fresh()
        values = tuple(rng.getrandbits(width) for _ in range(17))
        to_vertical(HorizontalBlock(values, width), st, 1)
        assert to_horizontal(st, 1, width, 17).values == values


class TestLocality:
    def test_untouched_cells_preserved(self, rng):
        st = fresh()
        noise = {}
        for i in range(20):
            token = f"D{i}"
            noise[token] = rng.getrandbits(64)
            st.store_row(token, noise[token])
        to_vertical(HorizontalBlock((3, 1, 2), 4), st, 8)
        # rows outside 8..11 untouched
        for i in range(20):
            if not 8 <= i < 12:
                assert st.load_row(f"D{i}") == noise[f"D{i}"]
        # columns beyond the block preserved within touched rows
        for i in range(8, 12):
            got = st.load_row(f"D{i}")
            assert got >> 3 == noise[f"D{i}"] >> 3


PROP_CFG = SubarrayConfig(total_rows=136, columns=320, data_row_count=128)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(width=hst.integers(1, 64), count=hst.integers(0, 300),
           base_frac=hst.floats(0, 1), seed=hst.integers(0, 2**32 - 1))
    @example(width=1, count=0, base_frac=0.0, seed=0)
    @example(width=64, count=1, base_frac=1.0, seed=1)
    @example(width=33, count=299, base_frac=0.5, seed=2)
    def test_round_trip_and_locality(self, width, count, base_frac, seed):
        rng = random.Random(seed)
        base = int(base_frac * (PROP_CFG.data_row_count - width))
        top = (1 << width) - 1
        values = tuple(rng.choice((0, top, 1 << (width - 1), rng.getrandbits(width)))
                       for _ in range(count))
        st = new_subarray(PROP_CFG)
        noise = [rng.getrandbits(PROP_CFG.columns) for _ in range(PROP_CFG.data_row_count)]
        for i, word in enumerate(noise):
            st.store_row(f"D{i}", word)
        to_vertical(HorizontalBlock(values, width), st, base)
        keep = ~((1 << count) - 1)
        for i, old in enumerate(noise):
            got = st.load_row(f"D{i}")
            if not base <= i < base + width:
                assert got == old
                continue
            assert got & keep == old & keep
            bit = i - base
            assert all((got >> j) & 1 == (v >> bit) & 1 for j, v in enumerate(values))
        before = st.dump_rows()
        assert to_horizontal(st, base, width, count).values == values
        assert st.dump_rows() == before


def naive_rows(values, width):
    """Bit rows built bit by bit: bit j of row i is bit i of values[j]."""
    rows = [0] * width
    for j, v in enumerate(values):
        for i in range(width):
            if v >> i & 1:
                rows[i] |= 1 << j
    return rows


WIDE_CFG = SubarrayConfig(total_rows=80, columns=4096, data_row_count=72)


class TestPackedRows:
    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 4096])
    @pytest.mark.parametrize("width", [8, 9, 16, 17, 32, 33, 64])
    def test_round_trip_against_naive_rows(self, width, count):
        rng = random.Random(width * 10007 + count)
        top = (1 << width) - 1
        values = tuple(rng.choice((0, top, 1 << (width - 1), rng.getrandbits(width)))
                       for _ in range(count))
        want = naive_rows(values, width)
        block = HorizontalBlock(values, width)
        assert block.rows() == want
        assert from_rows(want, width, count).values == values
        st = new_subarray(WIDE_CFG)
        to_vertical(block, st, 5)
        assert st.load_data_rows(5, width) == want
        assert to_horizontal(st, 5, width, count).values == values

    @pytest.mark.parametrize("width", [3, 8, 9, 33, 64])
    def test_bits_above_the_count_are_ignored(self, width, rng):
        count = 13
        values = tuple(rng.getrandbits(width) for _ in range(count))
        noise = [rng.getrandbits(WIDE_CFG.columns) << count for _ in range(width)]
        rows = [r | n for r, n in zip(naive_rows(values, width), noise)]
        assert from_rows(rows, width, count).values == values
        st = new_subarray(WIDE_CFG)
        st.store_data_rows(0, rows)
        assert to_horizontal(st, 0, width, count).values == values

    def test_full_row_with_odd_lane_count_and_width(self):
        rng = random.Random(65535)
        values = tuple(rng.getrandbits(9) for _ in range(65535))
        want = naive_rows(values, 9)
        assert HorizontalBlock(values, 9).rows() == want
        assert from_rows(want, 9, 65535).values == values

    def test_from_rows_rejects_a_bad_width(self):
        with pytest.raises(CapacityError):
            from_rows([1] * 65, 65, 1)

    def test_negative_lane_counts_are_capacity_errors(self):
        with pytest.raises(CapacityError, match="^lane count -1 is negative$"):
            to_horizontal(fresh(), 0, 4, -1)
        with pytest.raises(CapacityError, match="^lane count -3 is negative$"):
            from_rows([0] * 4, 4, -3)

    @pytest.mark.parametrize("convert, match", [
        (lambda st: to_horizontal(st, 0.5, 4, 4), "^base row 0.5 is not an int$"),
        (lambda st: to_horizontal(st, 0, 4.0, 4), "^bit width 4.0 is not an int$"),
        (lambda st: to_horizontal(st, 0, 4, 2.0), "^lane count 2.0 is not an int$"),
        (lambda st: to_horizontal(st, True, 4, 4), "^base row True is not an int$"),
        (lambda st: to_vertical(HorizontalBlock((1, 2), 4), st, 0.5),
         "^base row 0.5 is not an int$"),
    ])
    def test_non_int_regions_are_capacity_errors(self, convert, match):
        st = fresh()
        before = st.dump_rows()
        with pytest.raises(CapacityError, match=match):
            convert(st)
        assert st.dump_rows() == before


def naive_transpose8(x: int, words: int) -> int:
    """Each 64-bit word of `x` transposed bit by bit: bit b of byte i goes
    to bit i of byte b."""
    out = 0
    for g in range(words):
        for i in range(8):
            for b in range(8):
                if x >> (64 * g + 8 * i + b) & 1:
                    out |= 1 << (64 * g + 8 * b + i)
    return out


class TestBlockTranspose:
    @settings(max_examples=60, deadline=None)
    @given(data=hst.integers(0, 6).flatmap(
        lambda words: hst.tuples(hst.just(words), hst.integers(0, (1 << 64 * words) - 1))))
    @example(data=(1, (1 << 64) - 1))
    @example(data=(2, 1 << 127))
    def test_matches_a_bitwise_transpose_and_undoes_itself(self, data):
        words, x = data
        masks = _swap_masks(words)
        once = _transpose8(x, masks)
        assert once == naive_transpose8(x, words)
        assert _transpose8(once, masks) == x
