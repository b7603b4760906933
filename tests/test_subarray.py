import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from pumkit.codegen import (
    Command,
    MicroProgram,
    SubarrayConfig,
    _check_command,
    alias_base,
    allocate_rows,
    lower,
    schedule,
)
from pumkit.errors import ConfigError, ExecutionError, MicroProgramError, RowSafetyError
from pumkit.logic import MajGraph
from pumkit.subarray import ExecutionReport, new_subarray

from conftest import compiled_op, random_majgraph

CFG = SubarrayConfig(total_rows=64, columns=64, data_row_count=32)


def fresh():
    return new_subarray(CFG)


class TestInit:
    def test_constant_rows(self):
        st = fresh()
        assert st.load_row("C0") == 0
        assert st.load_row("C1") == (1 << 64) - 1
        assert st.read_row("C1") == (1,) * 64

    def test_columns_match_config(self):
        st = new_subarray(SubarrayConfig(total_rows=16, columns=7, data_row_count=8))
        assert len(st.read_row("D0")) == 7

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ConfigError):
            new_subarray(SubarrayConfig(total_rows=10, data_row_count=8))

    def test_rows_start_zeroed(self):
        st = fresh()
        for token in ("D0", "T0", "DCC0"):
            assert st.load_row(token) == 0

    def test_command_log_starts_empty(self):
        assert fresh().report.total_activations == 0


class TestAap:
    def test_copy_from_constant(self):
        st = fresh()
        st.exec_aap("C1", "T0")
        assert st.load_row("T0") == (1 << 64) - 1

    def test_dcc_complement_alias(self):
        st = fresh()
        pattern = 0xDEADBEEF_CAFEF00D
        st.store_row("DCC0", pattern)
        st.exec_aap("~DCC0", "T1")
        assert st.load_row("T1") == pattern ^ ((1 << 64) - 1)

    def test_source_unchanged(self):
        st = fresh()
        st.store_row("D0", 0b1010)
        st.exec_aap("D0", "T2")
        assert st.load_row("D0") == 0b1010

    def test_constant_destination_rejected(self):
        st = fresh()
        with pytest.raises(RowSafetyError):
            st.exec_aap("T0", "C0")

    def test_self_copy_rejected(self):
        st = fresh()
        with pytest.raises(Exception):
            st.exec_aap("T0", "T0")
        with pytest.raises(Exception):
            st.exec_aap("~DCC0", "DCC0")


class TestTra:
    def test_all_eight_triples(self):
        # one column per operand combination
        st = new_subarray(SubarrayConfig(total_rows=16, columns=8, data_row_count=8))
        words = [0, 0, 0]
        for col, bits in enumerate(itertools.product((0, 1), repeat=3)):
            for r in range(3):
                words[r] |= bits[r] << col
        for r, w in enumerate(words):
            st.store_row(f"T{r}", w)
        st.exec_tra("T0", "T1", "T2")
        for col, bits in enumerate(itertools.product((0, 1), repeat=3)):
            want = int(sum(bits) >= 2)
            for r in range(3):
                assert (st.load_row(f"T{r}") >> col) & 1 == want

    def test_destructive_writeback_equalizes(self):
        st = fresh()
        st.store_row("T0", 0b0011)
        st.store_row("T1", 0b0101)
        st.store_row("DCC1", 0b1001)
        st.exec_tra("T0", "T1", "DCC1")
        assert st.load_row("T0") == st.load_row("T1") == st.load_row("DCC1") == 0b0001

    def test_rejects_rows_outside_compute_group(self):
        st = fresh()
        with pytest.raises(Exception):
            st.exec_tra("D0", "T0", "T1")
        with pytest.raises(Exception):
            st.exec_tra("C0", "T0", "T1")

    def test_rejects_duplicates(self):
        st = fresh()
        with pytest.raises(Exception):
            st.exec_tra("T0", "T0", "T1")


# a small geometry for arbitrary command sequences, with every row a
# plain AAP may read or write, and TRAs over the compute group
_SMALL = SubarrayConfig(total_rows=16, columns=8, data_row_count=8)
_SMALL_WRITABLE = [f"D{i}" for i in range(8)] + ["T0", "T1", "T2", "T3", "DCC0", "DCC1"]
_SMALL_AAP = hst.tuples(
    hst.sampled_from(_SMALL_WRITABLE + ["~DCC0", "~DCC1", "C0", "C1"]),
    hst.sampled_from(_SMALL_WRITABLE),
).filter(lambda rows: rows[0].lstrip("~") != rows[1]).map(lambda rows: Command("AAP", rows))
_SMALL_TRA = hst.permutations(["T0", "T1", "T2", "T3", "DCC0", "DCC1"]).map(
    lambda rows: Command("TRA", tuple(rows[:3])))
# row tokens in and out of _SMALL's range, and tokens that are no rows
_ANY_TOKENS = ["D0", "D7", "D8", "D40", "D03", "D" + "9" * 20, "T0", "T1", "T3", "DCC0",
               "DCC1", "~DCC0", "~DCC1", "~T0", "C0", "C1", "X1"]


class TestRunProgram:
    AND_PROG = MicroProgram("and", 1, 3, (
        Command("AAP", ("D0", "T0")),
        Command("AAP", ("D1", "T1")),
        Command("AAP", ("C0", "T2")),
        Command("TRA", ("T0", "T1", "T2")),
        Command("AAP", ("T0", "D2")),
    ))

    def test_single_lane(self):
        st = fresh()
        st.store_row("D0", 1)
        st.store_row("D1", 1)
        st.run_program(self.AND_PROG)
        assert st.load_row("D2") & 1 == 1

    def test_random_lanes_match_bitwise_and(self, rng):
        st = fresh()
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        st.store_row("D0", a)
        st.store_row("D1", b)
        report = st.run_program(self.AND_PROG)
        assert st.load_row("D2") == a & b
        assert report.aap_count == 4 and report.tra_count == 1
        assert report.total_activations == 11

    def test_unknown_row_aborts_with_line(self):
        prog = MicroProgram("x", 1, 1, (Command("AAP", ("D9999", "T0")),))
        with pytest.raises(ExecutionError, match="line 3"):
            fresh().run_program(prog)

    def test_parsed_line_numbers_in_abort(self):
        from pumkit.codegen import parse_microprogram
        text = "UP/1\nop=x width=1 data_rows=1\n# pad\nAAP D9999 T0\nEND\n"
        with pytest.raises(ExecutionError, match="line 4"):
            fresh().run_program(parse_microprogram(text))

    def test_constants_intact_after_program(self, rng):
        g = random_majgraph(rng, n_inputs=4, n_nodes=10)
        rm = allocate_rows(g, CFG)
        prog = schedule(g, rm)
        st = fresh()
        for i in range(4):
            st.store_row(f"D{i}", rng.getrandbits(64))
        st.run_program(prog)
        assert st.load_row("C0") == 0
        assert st.load_row("C1") == (1 << 64) - 1

    def test_log_consistency(self, rng):
        g = random_majgraph(rng, n_inputs=3, n_nodes=8)
        rm = allocate_rows(g, CFG)
        prog = schedule(g, rm)
        st = fresh()
        report = st.run_program(prog)
        aap = sum(1 for c in prog.commands if c.op == "AAP")
        tra = len(prog.commands) - aap
        assert (report.aap_count, report.tra_count) == (aap, tra)
        assert report.total_activations == 2 * aap + 3 * tra

    def test_state_report_counts_each_run_once(self, rng):
        st = fresh()
        first = st.run_program(self.AND_PROG)
        g = random_majgraph(rng, n_inputs=3, n_nodes=8)
        second = st.run_program(schedule(g, allocate_rows(g, CFG)))
        assert (st.report.aap_count, st.report.tra_count) == (
            first.aap_count + second.aap_count, first.tra_count + second.tra_count)

    @settings(max_examples=40, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), n_nodes=hst.integers(1, 24))
    def test_run_program_equals_stepping_commands(self, seed, n_nodes):
        rng = random.Random(seed)
        g = random_majgraph(rng, n_inputs=rng.randint(1, 6), n_nodes=n_nodes)
        prog = schedule(g, allocate_rows(g, CFG))
        run, step = fresh(), fresh()
        for i in range(CFG.data_row_count):
            noise = rng.getrandbits(64)
            run.store_row(f"D{i}", noise)
            step.store_row(f"D{i}", noise)
        report = run.run_program(prog)
        _step(step, prog)
        assert run.dump_rows() == step.dump_rows()
        assert report == run.report == step.report


    def test_out_of_range_row_aborts_before_any_command_runs(self):
        from pumkit.codegen import parse_microprogram
        text = ("UP/1\nop=x width=1 data_rows=2\n# load\n"
                "AAP D0 T0\nAAP D40 T1  # CFG has 32 data rows\n"
                "TRA T0 T1 T2\nEND\n")
        st = fresh()
        st.store_row("D0", 0b1011)
        before = st.dump_rows()
        with pytest.raises(ExecutionError, match=r"^line 5: AAP D40 T1: row D40 out of range"):
            st.run_program(parse_microprogram(text))
        assert st.dump_rows() == before
        assert st.report == ExecutionReport()

    @pytest.mark.parametrize("command, why", [
        (Command("AAP", ("D40", "C1")), "AAP may not write constant row C1"),
        (Command("AAP", ("D40", "D40")), "AAP source and destination must differ"),
        (Command("AAP", ("D40", "~DCC0")), "complement alias is source-only"),
        (Command("AAP", ("D40", "T0", "T1")), "AAP takes exactly 2 rows"),
        (Command("TRA", ("T0", "T1", "D40")),
         "TRA operand D40 outside the compute/dual-contact group"),
        (Command("AAP", ("D40", "D3x")), "unknown row token 'D3x'"),
    ])
    def test_a_broken_rule_is_reported_before_a_row_out_of_range(self, command, why):
        """D40 is outside CFG's 32 data rows; a command that names it and
        also breaks a rule is refused for the rule, before any row changes."""
        prog = MicroProgram("x", 1, 2, (Command("AAP", ("D0", "T0")), command))
        st = fresh()
        before = st.dump_rows()
        with pytest.raises(MicroProgramError, match=f"^line 4: {re.escape(why)}$"):
            st.run_program(prog)
        assert st.dump_rows() == before

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_one_program_under_two_geometries_equals_stepping(self, rng, order):
        # the designated rows sit at different physical indices in the two
        geometries = (CFG, SubarrayConfig(total_rows=80, columns=64, data_row_count=40))
        g = random_majgraph(rng, n_inputs=4, n_nodes=16)
        prog = schedule(g, allocate_rows(g, CFG))
        for cfg in (geometries[k] for k in order):
            run, step = new_subarray(cfg), new_subarray(cfg)
            for i in range(cfg.data_row_count):
                noise = rng.getrandbits(64)
                run.store_row(f"D{i}", noise)
                step.store_row(f"D{i}", noise)
            run.run_program(prog)
            _step(step, prog)
            assert run.dump_rows() == step.dump_rows()
            assert run.report == step.report

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_row_range_is_checked_per_geometry(self, order):
        prog = MicroProgram("x", 1, 36, (Command("AAP", ("D35", "T0")),))
        geometries = (CFG, SubarrayConfig(total_rows=64, columns=64, data_row_count=40))
        for k in order:
            st = new_subarray(geometries[k])
            if geometries[k].data_row_count > 35:
                assert st.run_program(prog).aap_count == 1
            else:
                with pytest.raises(ExecutionError, match="line 3: AAP D35 T0"):
                    st.run_program(prog)

    @pytest.mark.parametrize("kind", ["add", "sub", "mul", "div"])
    def test_compiled_programs_equal_stepping_with_noise_in_every_row(self, rng, kind):
        cfg = SubarrayConfig(columns=64)
        prog = compiled_op(kind, 4, cfg).program
        assert any(c.rows[0].startswith("~") for c in prog.commands)
        for _ in range(3):
            run, step = new_subarray(cfg), new_subarray(cfg)
            for token in _NOISY_ROWS:
                noise = rng.getrandbits(64)
                run.store_row(token, noise)
                step.store_row(token, noise)
            report = run.run_program(prog)
            _step(step, prog)
            assert run.dump_rows() == step.dump_rows()
            assert report == run.report == step.report

    def test_copy_out_survives_a_later_tra_on_its_source(self):
        prog = MicroProgram("x", 1, 2, (
            Command("AAP", ("T0", "T1")),
            Command("TRA", ("T0", "T2", "T3")),
            Command("AAP", ("T1", "D1")),
        ))
        st = fresh()
        for token, word in (("T0", 0b1100), ("T2", 0b1010), ("T3", 0b0110)):
            st.store_row(token, word)
        st.run_program(prog)
        assert st.load_row("D1") == 0b1100
        assert st.load_row("T0") == st.load_row("T3") == 0b1110

    @settings(max_examples=200, deadline=None)
    @given(commands=hst.lists(hst.one_of(_SMALL_AAP, _SMALL_TRA), min_size=1, max_size=60),
           seed=hst.integers(0, 2**32 - 1))
    def test_arbitrary_commands_equal_stepping(self, commands, seed):
        prog = MicroProgram("x", 1, _SMALL.data_row_count, tuple(commands))
        rng = random.Random(seed)
        run, step = new_subarray(_SMALL), new_subarray(_SMALL)
        for token in _SMALL_WRITABLE:
            noise = rng.getrandbits(_SMALL.columns)
            run.store_row(token, noise)
            step.store_row(token, noise)
        report = run.run_program(prog)
        _step(step, prog)
        assert run.dump_rows() == step.dump_rows()
        assert report == run.report == step.report
        ops, _, slots, _, _ = lower(prog, _SMALL)
        assert len(ops) == sum(c.op == "TRA" or c.rows[0].startswith("~")
                               for c in commands)
        written = {t for c in commands for t in (c.rows if c.op == "TRA" else c.rows[1:])}
        assert slots <= len(written)

    @settings(max_examples=300, deadline=None)
    @given(commands=hst.lists(hst.builds(
        Command, hst.sampled_from(["AAP", "AAP", "TRA", "ZAP"]),
        hst.lists(hst.sampled_from(_ANY_TOKENS), max_size=4).map(tuple)), min_size=1, max_size=8))
    @example(commands=[Command("AAP", ("D0", "T0")), Command("AAP", ("D8", "D40"))])
    def test_lowering_refuses_what_each_command_checked_in_turn_refuses(self, commands):
        """`lower`'s token and shape halves give `_check_command`'s error,
        then the first row out of range (the destination first), for the
        first command in program order that has one, and no error when no
        command has. Tokens repeat across commands, so most are met in an
        earlier command first."""
        want = None
        for n, (op, rows) in enumerate(commands):
            try:
                _check_command(op, rows)
                for t in reversed(rows):
                    try:
                        _SMALL.row_index(alias_base(t) or t)
                    except MicroProgramError as e:
                        want = ExecutionError, f"line {n + 3}: {Command(op, rows).render()}: {e}"
                        break
            except MicroProgramError as e:
                want = MicroProgramError, f"line {n + 3}: {e}"
            if want:
                break
        prog = MicroProgram("x", 1, 1, tuple(commands))
        if want is None:
            lower(prog, _SMALL)
        else:
            with pytest.raises(want[0]) as raised:
                lower(prog, _SMALL)
            assert str(raised.value) == want[1]


# every writable row of the default geometry
_NOISY_ROWS = [f"D{i}" for i in range(504)] + ["T0", "T1", "T2", "T3", "DCC0", "DCC1"]


def _step(state, prog):
    for cmd in prog.commands:
        (state.exec_aap if cmd.op == "AAP" else state.exec_tra)(*cmd.rows)


class TestColumnIndependence:
    def test_wide_run_equals_per_column_runs(self, rng):
        for _ in range(5):
            g = random_majgraph(rng, n_inputs=3, n_nodes=8)
            rm = allocate_rows(g, CFG)
            prog = schedule(g, rm)
            cols = 16
            cfg_wide = SubarrayConfig(total_rows=64, columns=cols, data_row_count=32)
            cfg_one = SubarrayConfig(total_rows=64, columns=1, data_row_count=32)
            inputs = [rng.getrandbits(cols) for _ in range(3)]
            wide = new_subarray(cfg_wide)
            for i, w in enumerate(inputs):
                wide.store_row(f"D{i}", w)
            wide.run_program(prog)
            for col in range(cols):
                single = new_subarray(cfg_one)
                for i, w in enumerate(inputs):
                    single.store_row(f"D{i}", (w >> col) & 1)
                single.run_program(prog)
                for out_row in rm.output_rows:
                    assert (wide.load_row(out_row) >> col) & 1 == \
                        single.load_row(out_row)


class TestHostAccess:
    def test_write_read_round_trip(self, rng):
        st = fresh()
        bits = tuple(rng.randint(0, 1) for _ in range(64))
        st.write_row("D0", bits)
        assert st.read_row("D0") == bits

    def test_data_rows_by_index(self):
        st = fresh()
        st.store_data_rows(30, [5, 1 << 70])
        assert st.load_data_rows(30, 2) == [5, 0]  # masked to the 64 columns
        assert st.load_row("D30") == 5
        for base, count in ((31, 2), (-1, 1)):
            with pytest.raises(RowSafetyError, match="outside 0..31"):
                st.load_data_rows(base, count)
        with pytest.raises(RowSafetyError):
            st.store_data_rows(32, [1])

    def test_read_constants(self):
        st = fresh()
        assert st.read_row("C0") == (0,) * 64

    def test_only_dcc_rows_have_complement_aliases(self):
        st = fresh()
        st.store_row("DCC1", 5)
        assert st.load_row("~DCC1") == st.load_row("C1") ^ 5
        for token in ("~D0", "~T0", "~C0", "~C1", "~~DCC0"):
            with pytest.raises(MicroProgramError, match="unknown row"):
                st.load_row(token)
        with pytest.raises(RowSafetyError):
            st.store_row("~DCC0", 0)

    def test_write_constant_rejected(self):
        with pytest.raises(RowSafetyError):
            fresh().write_row("C1", (0,) * 64)

    def test_wrong_length_rejected(self):
        with pytest.raises(RowSafetyError):
            fresh().write_row("D0", (1, 0))

    def test_dump_rows_shape(self):
        st = new_subarray(SubarrayConfig(total_rows=12, columns=5, data_row_count=4))
        dump = st.dump_rows()
        lines = dump.splitlines()
        assert len(lines) == 12
        assert all(len(l) == 5 for l in lines)
        assert lines[-1] == "11111"  # C1 on top
