import pickle
import random

import pytest

import pumkit.oplib
from pumkit.codegen import (
    Command,
    MicroProgram,
    SubarrayConfig,
    activation_count,
    verify_program,
)
from pumkit.errors import ArityError, CapacityError, PumError
from pumkit.logic import _enum_masks, eval_netlist, truth_table
from pumkit.oplib import (
    MAX_N_INPUTS,
    N_ARY,
    OP_KINDS,
    build_netlist,
    compile_op,
    execute_op,
    op_signature,
    oracle,
    oracle_lanes,
)

from conftest import compiled_op

CFG = SubarrayConfig(columns=64)


def run(kind, width, inputs, n_inputs=2, effort=2):
    compiled = compiled_op(kind, width, CFG, effort=effort, n_inputs=n_inputs)
    return execute_op(compiled, inputs, CFG)


class TestOracle:
    def test_division_by_zero_sentinel(self):
        assert oracle("div", 4, (9, 0)) == 15

    def test_subtraction_wraps(self):
        assert oracle("sub", 4, (3, 5)) == 14

    def test_three_way_xor(self):
        assert oracle("xor_n", 1, (1, 1, 1)) == 1

    def test_equality(self):
        assert oracle("eq", 4, (7, 7)) == 1
        assert oracle("eq", 4, (7, 6)) == 0

    def test_relu_clamps_negative(self):
        assert oracle("relu", 4, (0b1010,)) == 0
        assert oracle("relu", 4, (0b0101,)) == 0b0101

    def test_bitcount(self):
        assert oracle("bitcount", 8, (0xFF,)) == 8

    def test_add_reports_carry(self):
        assert oracle("add", 4, (15, 1)) == 16


def _lane_reference(kind, w, operands):
    """Each kind's semantics for one lane, stated apart from `oplib`."""
    mask = (1 << w) - 1
    a = operands[0] & mask
    if kind in ("and_n", "or_n", "xor_n"):
        for v in operands[1:]:
            v &= mask
            a = a & v if kind == "and_n" else a | v if kind == "or_n" else a ^ v
        return a
    if kind == "if_then_else":
        return (operands[1] if operands[0] & 1 else operands[2]) & mask
    if kind == "bitcount":
        return bin(a).count("1")
    if kind == "relu":
        return 0 if a >> (w - 1) else a
    b = operands[1] & mask
    return {"eq": a == b, "neq": a != b, "gt": a > b, "lt": a < b,
            "max": max(a, b), "min": min(a, b), "add": a + b,
            "sub": (a - b) & mask, "mul": a * b,
            "div": a // b if b else mask}[kind]


class TestColumnOracle:
    @pytest.mark.parametrize("kind, n_inputs",
                             [(k, n) for k in OP_KINDS for n in ((2, 5) if k in N_ARY else (2,))])
    @pytest.mark.parametrize("width", [1, 4, 8, 33, 64])
    def test_matches_the_per_lane_oracle(self, kind, n_inputs, width):
        widths = op_signature(kind, width, n_inputs)[0]
        rng = random.Random(f"{kind}:{width}:{n_inputs}")
        # corners (0, 1, all-ones, MSB-only crossed, so relu's sign bit and
        # a = b; zero divisors), then random lanes with bits above the width
        cases = pumkit.oplib._corner_lanes(kind, widths, rng)
        cases += [tuple(rng.getrandbits(wk + 3) for wk in widths) for _ in range(200)]
        columns = [list(col) for col in zip(*cases)]
        want = [int(_lane_reference(kind, width, case)) for case in cases]
        assert [oracle(kind, width, case) for case in cases] == want
        assert oracle_lanes(kind, width, columns) == want

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown operation"):
            oracle_lanes("nosuch", 4, [[1], [2]])

    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_in_range_core_equals_oracle_lanes(self, kind):
        """The lane check's oracle, on columns drawn in range as the lane
        check draws them, gives `oracle_lanes`'s ints and leaves its
        columns as they were."""
        rng = random.Random(kind)
        for width in [*range(1, 9), 16, 32, 33, 64]:
            for n_inputs in range(2, 7) if kind in N_ARY else (2,):
                widths = op_signature(kind, width, n_inputs)[0]
                cases = pumkit.oplib._corner_lanes(kind, widths, rng)
                cases += [tuple(rng.getrandbits(wk) for wk in widths) for _ in range(100)]
                columns = [list(col) for col in zip(*cases)]
                copy = [list(col) for col in columns]
                got = pumkit.oplib._oracle_in_range(kind, width, columns)
                assert got == oracle_lanes(kind, width, columns)
                assert all(type(v) is int for v in got)
                assert columns == copy

    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_oracle_masks_out_of_range_operands(self, kind):
        """Bits above an operand's width are ignored: ``if_then_else``'s
        condition reads bit 0 alone, every other operand its low bits."""
        rng = random.Random(kind)
        for width in (1, 4, 8, 33):
            widths = op_signature(kind, width, 3 if kind in N_ARY else 2)[0]
            for _ in range(20):
                lane = tuple(rng.getrandbits(wk) for wk in widths)
                junk = tuple(v | rng.getrandbits(5) + 1 << wk for v, wk in zip(lane, widths))
                assert oracle(kind, width, junk) == oracle(kind, width, lane)
                assert oracle_lanes(kind, width, [[v] for v in junk]) == [oracle(kind, width, lane)]


class TestRandomColumn:
    @pytest.mark.parametrize("n", [1, 4096])
    @pytest.mark.parametrize("width", [1, 4, 8, 16, 31, 32, 33, 64])
    def test_equals_per_lane_draws(self, width, n):
        one_call, per_lane = random.Random(width * n), random.Random(width * n)
        column = pumkit.oplib._random_column(one_call, width, n)
        assert column == [per_lane.getrandbits(width) for _ in range(n)]
        assert one_call.getstate() == per_lane.getstate()


class TestSignatures:
    def test_sixteen_kinds(self):
        assert len(OP_KINDS) == 16
        assert len(set(OP_KINDS)) == 16

    def test_add_has_carry_column(self):
        assert op_signature("add", 4) == ((4, 4), 5)

    def test_mul_full_product(self):
        assert op_signature("mul", 8) == ((8, 8), 16)

    def test_predication_takes_condition_lane(self):
        assert op_signature("if_then_else", 8) == ((1, 8, 8), 8)

    def test_bitcount_output_width(self):
        assert op_signature("bitcount", 8) == ((8,), 4)

    def test_n_ary(self):
        assert op_signature("and_n", 2, 5) == ((2,) * 5, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            op_signature("nosuch", 4)

    def test_n_ary_operand_bounds(self):
        assert op_signature("and_n", 1, MAX_N_INPUTS) == ((1,) * MAX_N_INPUTS, 1)
        for n in (1, MAX_N_INPUTS + 1, 10**17):
            with pytest.raises(ValueError, match="operands"):
                op_signature("and_n", 1, n)

    @pytest.mark.parametrize("kind", sorted(set(OP_KINDS) - N_ARY))
    def test_fixed_arity_kinds_take_no_operand_count(self, kind):
        op_signature(kind, 4, 2)  # the default is accepted
        for n in (1, 3, 7):
            with pytest.raises(ValueError, match=f"{kind} .*not {n}"):
                op_signature(kind, 4, n)

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            op_signature("add", 0)
        with pytest.raises(ValueError):
            op_signature("add", 65)


class TestNetlists:
    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_netlist_matches_oracle_exhaustively(self, kind):
        width = 3
        n_inputs = 3 if kind in N_ARY else 2
        widths, out_w = op_signature(kind, width, n_inputs)
        net = build_netlist(kind, width, n_inputs)
        assert net.input_count == sum(widths)
        in_bits = sum(widths)
        for t in range(1 << in_bits):
            operands = []
            shift = 0
            for w in widths:
                operands.append((t >> shift) & ((1 << w) - 1))
                shift += w
            bits = [(t >> i) & 1 for i in range(in_bits)]
            got = sum(b << i for i, b in enumerate(eval_netlist(net, bits)))
            assert got == oracle(kind, width, operands), (kind, operands)

    def test_adder_netlist_uses_xor_gates(self):
        net = build_netlist("add", 2)
        assert any(g.kind == "XOR" for g in net.gates)


def _netlist_lanes(kind, width, words, lanes):
    """`build_netlist(kind, width)` over `lanes` lanes in one `eval_bulk`
    call, word i packing input bit i; the result of each lane."""
    outs = build_netlist(kind, width).eval_bulk(words, lanes)
    bits = [format(m, f"0{lanes}b")[::-1] for m in outs]
    return [int("".join(col)[::-1], 2) for col in zip(*bits)]


class TestTrimmedDivider:
    """The divider drops the remainder bits that cannot be nonzero; the
    lane check samples div16 and div32 on 280 cases, so the netlist is
    checked here against `_lane_reference`."""

    @pytest.mark.parametrize("width", range(1, 9))
    def test_exhaustive(self, width):
        n = 1 << 2 * width  # every (a, b), divisor 0 included; 65,536 at width 8
        mask = (1 << width) - 1
        want = [_lane_reference("div", width, (t & mask, t >> width)) for t in range(n)]
        assert _netlist_lanes("div", width, _enum_masks(2 * width), n) == want

    @pytest.mark.parametrize("width", [16, 32])
    def test_corner_and_random_lanes(self, width):
        rng = random.Random(f"div-netlist:{width}")
        cases = pumkit.oplib._corner_lanes("div", (width, width), rng)
        cases += [(rng.getrandbits(width), rng.getrandbits(width >> rng.randint(0, 3)))
                  for _ in range(2000)]
        words = [0] * (2 * width)
        for lane, (a, b) in enumerate(cases):
            t = a | b << width
            for i in range(2 * width):
                words[i] |= (t >> i & 1) << lane
        want = [_lane_reference("div", width, case) for case in cases]
        assert _netlist_lanes("div", width, words, len(cases)) == want


class TestOneAdder:
    """sub computes ~(~A + B) and bitcount adds each bit on `ripple_add`.
    Both netlists are checked here on every input against
    `_lane_reference`, apart from any compile, whose lane check samples
    sub above width 6."""

    @pytest.mark.parametrize("width", range(1, 9))
    @pytest.mark.parametrize("kind", ["sub", "bitcount"])
    def test_exhaustive(self, kind, width):
        widths = op_signature(kind, width)[0]
        n = 1 << sum(widths)  # 65,536 (a, b) pairs for sub8
        mask = (1 << width) - 1
        want = [_lane_reference(kind, width, (t & mask, t >> width)[:len(widths)])
                for t in range(n)]
        assert _netlist_lanes(kind, width, _enum_masks(sum(widths)), n) == want

    def test_bitcount_counter_stops_at_the_result_width(self):
        """The counter has bit_length(w) bits, not w: bitcount32 builds 342
        gates where a w-bit counter built 992."""
        assert len(build_netlist("bitcount", 32).gates) < 400


class TestCompile:
    def test_add_verified_exhaustively(self):
        compiled = compiled_op("add", 4, CFG)
        assert compiled.verified_cases == 256

    def test_div_verified_exhaustively_including_zero(self):
        compiled = compiled_op("div", 4, CFG)
        assert compiled.verified_cases == 256  # all (a, b), b = 0 included

    def test_compiled_artifact_is_consistent(self):
        compiled = compiled_op("max", 4, CFG)
        assert compiled.program.name == "max"
        assert compiled.program.width == 4
        assert compiled.program.data_rows == 8 + 4
        assert compiled.rowmap.data_rows_used == 12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            compile_op("nosuch", 4, CFG)

    @pytest.mark.parametrize("kind, width, out_width", [("add", 64, 65), ("mul", 33, 66)])
    def test_result_wider_than_staging_fails_before_compiling(
            self, monkeypatch, kind, width, out_width):
        assert op_signature(kind, width)[1] == out_width  # still a valid signature

        def never(*args, **kwargs):
            raise AssertionError("compiled a result that cannot be staged")

        monkeypatch.setattr(pumkit.oplib, "build_netlist", never)
        monkeypatch.setattr(pumkit.oplib, "optimize", never)
        with pytest.raises(CapacityError,
                           match=f"{kind} width {width} has a {out_width}-bit result"):
            compile_op(kind, width)

    def test_one_lowering_serves_both_checks(self):
        """`verify_program` and the lane check run under the row map's
        geometry, also when the subarray has rows above it."""
        cfg = SubarrayConfig(total_rows=64, columns=64, data_row_count=32)
        compiled = compile_op("add", 4, cfg)
        assert list(compiled.program._lowered) == [(40, 32)]

    def test_compile_reads_the_rows_not_the_columns(self):
        """Two compiles with the same arguments and rows give the same
        program, whatever the columns: what lets the tests share one
        compile (`conftest.compiled_op`)."""
        a = compile_op("eq", 4, CFG)
        b = compile_op("eq", 4, SubarrayConfig(columns=1))
        assert a is not b
        assert (a.program, a.rowmap, a.report, a.verified_cases) == \
            (b.program, b.rowmap, b.report, b.verified_cases)
        assert (a.graph.packed_nodes, a.graph.packed_outputs) == \
            (b.graph.packed_nodes, b.graph.packed_outputs)

    def test_symbolic_check_rejects_a_dropped_tra(self, monkeypatch):
        real_schedule = pumkit.oplib.schedule

        def drop_last_tra(*args, **kwargs):
            program = real_schedule(*args, **kwargs)
            cmds = list(program.commands)
            i = max(k for k, c in enumerate(cmds) if c.op == "TRA")
            return MicroProgram(program.name, program.width, program.data_rows,
                                tuple(cmds[:i] + cmds[i + 1:]))

        monkeypatch.setattr(pumkit.oplib, "schedule", drop_last_tra)
        with pytest.raises(PumError, match="add width 8 fails the symbolic check"):
            compile_op("add", 8, CFG)

    @pytest.mark.parametrize("width, first_failure", [
        (4, "(1, 0): got 0, want 1"),  # exhaustive lanes: a + 16 * b in order
        (8, "(0, 1): got 0, want 1"),  # crossed corners first: (0, 0), (0, 1), ...
    ])
    def test_lane_check_names_the_first_failing_lane(self, monkeypatch, width,
                                                     first_failure):
        # the program writes constant 0 to the sum's low bit; with the
        # symbolic check bypassed, only the lane check can catch it
        real_schedule = pumkit.oplib.schedule

        def zero_low_bit(graph, rowmap, **kwargs):
            program = real_schedule(graph, rowmap, **kwargs)
            cmds = list(program.commands)
            i = max(k for k, c in enumerate(cmds) if c.rows[-1] == rowmap.output_rows[0])
            cmds[i] = Command("AAP", ("C0", rowmap.output_rows[0]))
            return MicroProgram(program.name, program.width, program.data_rows, tuple(cmds))

        monkeypatch.setattr(pumkit.oplib, "schedule", zero_low_bit)
        monkeypatch.setattr(pumkit.oplib, "verify_program", lambda *args: True)
        with pytest.raises(PumError) as err:
            compile_op("add", width, CFG)
        assert str(err.value) == \
            f"compiled add width {width} disagrees with oracle on {first_failure}"

    def test_seeded_lanes_include_corners(self):
        compiled = compiled_op("div", 8, CFG)
        # 4 x 4 crossed corners, 4 equal-operand and 4 zero-divisor lanes
        assert compiled.verified_cases == 4096 + 16 + 4 + 4
        cases = pumkit.oplib._corner_lanes("div", (8, 8), random.Random(0))
        assert {(0, 0), (1, 1), (255, 255), (128, 128), (255, 0), (128, 1)} <= set(cases)
        assert sum(a == b for a, b in cases[16:]) >= 4
        assert sum(b == 0 for _, b in cases[16:]) >= 4
        wide = pumkit.oplib._corner_lanes("xor_n", (8,) * 6, random.Random(0))
        assert len(wide) == 4 ** 4 + 4 and all(c[5] == c[3] for c in wide[:256])


# Smallest spare data rows (beyond inputs and outputs) with which each op
# compiled when the objective was a spill-free estimate; the exact objective
# must still compile every one of them.
TIGHT_SPARE_ROWS = [("mul", 8, 2, 19), ("div", 8, 2, 19), ("add", 16, 2, 14),
                    ("bitcount", 16, 2, 12), ("max", 8, 2, 4), ("xor_n", 8, 4, 7)]


@pytest.mark.parametrize("kind,width,n_inputs,spare", TIGHT_SPARE_ROWS)
def test_tight_subarray_still_compiles(kind, width, n_inputs, spare):
    widths, out_width = op_signature(kind, width, n_inputs)
    data_rows = sum(widths) + out_width + spare
    cfg = SubarrayConfig(total_rows=data_rows + 8, columns=64, data_row_count=data_rows)
    compiled = compile_op(kind, width, cfg, n_inputs=n_inputs)
    assert verify_program(compiled.graph, compiled.rowmap, compiled.program)
    assert compiled.report.estimated_activations_after == \
        activation_count(compiled.program).total
    rng = random.Random(f"{kind}{width}")
    lanes = [[rng.getrandbits(w) for _ in range(64)] for w in widths]
    want = [oracle(kind, width, case) for case in zip(*lanes)]
    assert execute_op(compiled, lanes, cfg) == want


def _div8_with_spare_rows(spare: int) -> SubarrayConfig:
    widths, out_width = op_signature("div", 8)
    data_rows = sum(widths) + out_width + spare
    return SubarrayConfig(total_rows=data_rows + 8, columns=64, data_row_count=data_rows)


@pytest.mark.parametrize("effort", [1, 2])
def test_div8_fits_in_eighteen_spare_rows(effort):
    """The divider keeps only the remainder bits that can be nonzero and
    subtracts on the one adder, so div8 fits two spare rows below its
    `TIGHT_SPARE_ROWS` entry, at 2,234 activations."""
    for spare in (18, 17):
        compiled = compile_op("div", 8, _div8_with_spare_rows(spare), effort=effort)
        assert verify_program(compiled.graph, compiled.rowmap, compiled.program)
    assert activation_count(compiled.program).total == 2234


def test_capacity_error_names_the_op_width_and_data_rows():
    """div8 keeps 24 data rows for operands and result; with 16 spare its
    spill region runs out, and the error says which compile on how many rows."""
    cfg = _div8_with_spare_rows(16)
    with pytest.raises(CapacityError, match="^div width 8 does not fit in 40 data rows: "
                                            "spill region exhausted") as err:
        compile_op("div", 8, cfg)
    assert isinstance(err.value.__cause__, CapacityError)


class TestExecute:
    def test_add_with_carry_lane(self):
        out = run("add", 4, [[5, 0, 15], [6, 0, 1]])
        assert [v & 15 for v in out] == [11, 0, 0]
        assert [v >> 4 for v in out] == [0, 0, 1]

    def test_if_then_else(self):
        assert run("if_then_else", 8, [[1, 0], [9, 9], [4, 4]]) == [9, 4]

    def test_max(self):
        assert run("max", 4, [[3, 12], [7, 2]]) == [7, 12]

    def test_min(self):
        assert run("min", 4, [[3, 12], [7, 2]]) == [3, 2]

    def test_div_sentinel_lane(self):
        assert run("div", 4, [[9, 9], [0, 3]]) == [15, 3]

    def test_n_ary_and(self):
        assert run("and_n", 1, [[1, 1], [1, 0], [1, 1]], n_inputs=3) == [1, 0]

    def test_simd_lanes_match_solo_runs(self, rng):
        compiled = compiled_op("mul", 4, CFG)
        lanes_a = [rng.randrange(16) for _ in range(16)]
        lanes_b = [rng.randrange(16) for _ in range(16)]
        together = execute_op(compiled, [lanes_a, lanes_b], CFG)
        solo = [execute_op(compiled, [[a], [b]], CFG)[0]
                for a, b in zip(lanes_a, lanes_b)]
        assert together == solo

    def test_lane_overflow(self):
        compiled = compiled_op("add", 4, CFG)
        with pytest.raises(CapacityError):
            execute_op(compiled, [[0] * 65, [0] * 65], CFG)

    def test_lanes_filling_every_column(self, rng):
        compiled = compiled_op("add", 4, CFG)
        a = [rng.randrange(16) for _ in range(CFG.columns)]
        b = [rng.randrange(16) for _ in range(CFG.columns)]
        assert execute_op(compiled, [a, b], CFG) == [x + y for x, y in zip(a, b)]

    def test_unequal_lanes(self):
        compiled = compiled_op("add", 4, CFG)
        with pytest.raises(ArityError):
            execute_op(compiled, [[1, 2], [1]], CFG)

    def test_wrong_operand_count(self):
        compiled = compiled_op("add", 4, CFG)
        with pytest.raises(ArityError):
            execute_op(compiled, [[1, 2]], CFG)

    def test_empty_lanes(self):
        compiled = compiled_op("add", 4, CFG)
        assert execute_op(compiled, [[], []], CFG) == []

    @pytest.mark.parametrize("bad,index", [(1.0, 0), ("1", 0), (None, 2), (2.5, 1)])
    def test_non_int_operand_is_a_capacity_error_naming_its_index(self, bad, index):
        compiled = compiled_op("add", 4, CFG)
        lanes = [1, 2, 3]
        lanes[index] = bad
        with pytest.raises(CapacityError, match=f"value {index} is .*not an int"):
            execute_op(compiled, [lanes, [2, 2, 2]], CFG)

    def test_bool_operands_are_ints(self):
        assert run("add", 4, [[True, False], [2, 2]]) == [3, 2]


class TestOptimizationBenefit:
    @pytest.mark.parametrize("kind", ["add", "sub", "mul", "div", "bitcount"])
    def test_effort2_strictly_beats_effort0(self, kind):
        e0 = compiled_op(kind, 4, CFG, effort=0)
        e2 = compiled_op(kind, 4, CFG, effort=2)
        assert activation_count(e2.program).total < activation_count(e0.program).total

    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_effort2_never_worse(self, kind):
        n_inputs = 3 if kind in N_ARY else 2
        e0 = compiled_op(kind, 4, CFG, effort=0, n_inputs=n_inputs)
        e2 = compiled_op(kind, 4, CFG, effort=2, n_inputs=n_inputs)
        assert activation_count(e2.program).total <= activation_count(e0.program).total

    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_static_estimate_never_worse(self, kind):
        from pumkit.codegen import estimate_cost_static

        n_inputs = 3 if kind in N_ARY else 2
        e0 = compiled_op(kind, 4, CFG, effort=0, n_inputs=n_inputs)
        e2 = compiled_op(kind, 4, CFG, effort=2, n_inputs=n_inputs)
        assert estimate_cost_static(e2.graph, CFG) <= estimate_cost_static(e0.graph, CFG)
        for c in (e0, e2):
            assert c.report.estimated_activations_after == activation_count(c.program).total


class TestPickle:
    def test_compiled_op_round_trips(self, rng):
        compiled = compile_op("mul", 4, CFG)
        lanes = [[rng.randrange(16) for _ in range(40)] for _ in range(2)]
        got = execute_op(compiled, lanes, CFG)  # fills the lowering cache
        back = pickle.loads(pickle.dumps(compiled))
        g, h = compiled.graph, back.graph
        assert (h.input_count, h.packed_nodes, h.packed_outputs) == (
            g.input_count, g.packed_nodes, g.packed_outputs)
        n, m = compiled.netlist, back.netlist
        assert (m.input_count, m.gates, m.outputs) == (n.input_count, n.gates, n.outputs)
        assert back.program == compiled.program
        assert back.program._lowered is None
        assert execute_op(back, lanes, CFG) == got
