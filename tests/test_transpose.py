import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from pumkit.codegen import SubarrayConfig
from pumkit.errors import CapacityError
from pumkit.subarray import new_subarray
from pumkit.transpose import HorizontalBlock, to_horizontal, to_vertical

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
