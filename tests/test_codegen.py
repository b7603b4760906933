import hashlib
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pumkit
from pumkit.codegen import (
    DEFAULT_SUBARRAY,
    Command,
    MicroProgram,
    RowMap,
    SubarrayConfig,
    activation_count,
    allocate_rows,
    data_row_index,
    estimate_cost_static,
    format_microprogram,
    parse_microprogram,
    schedule,
    spill_rows_used,
    verify_program,
)
from pumkit.errors import ArityError, CapacityError, ConfigError, MicroProgramError
from pumkit.logic import EDGE_ONE, EDGE_ZERO, MajGraph
from pumkit.oplib import _run_lanes, build_netlist, compile_op, execute_op, oracle
from pumkit.subarray import new_subarray
from pumkit.synthesis import lower_to_maj, optimize

from conftest import compiled_op, in_edge, random_majgraph

MAJ_AB0 = MajGraph(2, [(in_edge(0), in_edge(1), EDGE_ZERO)], [0])
NOT_A = MajGraph(1, [], [in_edge(0) | 1])

CFG = SubarrayConfig(total_rows=64, columns=16, data_row_count=32)


class TestConfig:
    def test_defaults(self):
        cfg = SubarrayConfig()
        assert cfg.total_rows == 512
        assert cfg.columns == 65536
        assert cfg.data_row_count == 504

    def test_row_indexing(self):
        assert CFG.row_index("D0") == 0
        assert CFG.row_index("T0") == 56
        assert CFG.row_index("C1") == 63

    def test_unknown_row(self):
        with pytest.raises(MicroProgramError):
            CFG.row_index("D9999")

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ConfigError):
            SubarrayConfig(total_rows=16, data_row_count=12)

    def test_bad_columns(self):
        with pytest.raises(ConfigError):
            SubarrayConfig(columns=0)


class TestAllocateRows:
    def test_one_bit_and_uses_three_rows(self):
        rm = allocate_rows(MAJ_AB0, SubarrayConfig())
        assert rm.data_rows_used == 3
        assert rm.input_rows == ("D0", "D1")
        assert rm.output_rows == ("D2",)

    def test_four_bit_add_uses_thirteen_rows(self):
        graph = lower_to_maj(build_netlist("add", 4))
        rm = allocate_rows(graph, SubarrayConfig())
        assert rm.data_rows_used == 13  # 4 + 4 inputs, 5 outputs

    def test_capacity_error_names_shortfall(self):
        graph = lower_to_maj(build_netlist("add", 4))
        with pytest.raises(CapacityError, match="short by 9"):
            allocate_rows(graph, SubarrayConfig(total_rows=16, data_row_count=4))

    def test_deterministic(self):
        assert allocate_rows(MAJ_AB0, CFG) == allocate_rows(MAJ_AB0, CFG)


class TestSchedule:
    def test_minimal_maj_program(self):
        rm = allocate_rows(MAJ_AB0, CFG)
        prog = schedule(MAJ_AB0, rm, name="and", width=1)
        assert [c.render() for c in prog.commands] == [
            "AAP D0 T0",
            "AAP D1 T1",
            "AAP C0 T2",
            "TRA T0 T1 T2",
            "AAP T0 D2",
        ]

    def test_not_program(self):
        rm = allocate_rows(NOT_A, CFG)
        prog = schedule(NOT_A, rm, name="not", width=1)
        assert [c.render() for c in prog.commands] == [
            "AAP D0 DCC0",
            "AAP ~DCC0 D1",
        ]

    def test_deterministic_byte_identical(self, rng):
        for _ in range(10):
            g = random_majgraph(rng, n_inputs=4, n_nodes=10)
            rm = allocate_rows(g, CFG)
            a = format_microprogram(schedule(g, rm))
            b = format_microprogram(schedule(g, rm))
            assert a == b

    def test_program_does_not_depend_on_hash_seed(self):
        # div4/div8 read complements off ~DCC rows; which one must not follow set order
        code = ("from pumkit.codegen import format_microprogram\n"
                "from pumkit.oplib import compile_op\n"
                "for w in (4, 8): print(format_microprogram(compile_op('div', w).program))")
        src = str(Path(pumkit.__file__).resolve().parent.parent)
        texts = set()
        for seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True, timeout=300)
            texts.add(done.stdout)
        assert len(texts) == 1

    def test_simulation_matches_eval_exhaustively(self, rng):
        for _ in range(15):
            n_in = rng.randint(1, 8)
            g = random_majgraph(rng, n_inputs=n_in, n_nodes=rng.randint(1, 12))
            rm = allocate_rows(g, CFG)
            prog = schedule(g, rm)
            lanes = 1 << n_in
            cfg = SubarrayConfig(total_rows=64, columns=lanes, data_row_count=32)
            state = new_subarray(cfg)
            masks = []
            for i in range(n_in):
                word = 0
                for t in range(lanes):
                    if (t >> i) & 1:
                        word |= 1 << t
                masks.append(word)
                state.store_row(f"D{i}", word)
            state.run_program(prog)
            want = g.eval_bulk(masks, lanes)
            for j in range(g.output_count):
                got = state.load_row(rm.output_rows[j])
                assert got == want[j], f"output {j} mismatch"

    def test_liveness_audit_passes(self, rng):
        for _ in range(20):
            g = random_majgraph(rng, n_inputs=5, n_nodes=14)
            rm = allocate_rows(g, CFG)
            prog = schedule(g, rm)
            assert verify_program(g, rm, prog)

    def test_audit_catches_truncated_program(self):
        graph = optimize(lower_to_maj(build_netlist("add", 2)), 2)[0]
        rm = allocate_rows(graph, CFG)
        prog = schedule(graph, rm)
        broken = MicroProgram(prog.name, prog.width, prog.data_rows,
                              prog.commands[:-1])
        assert verify_program(graph, rm, prog)
        assert not verify_program(graph, rm, broken)

    def test_audit_refuses_every_deletion_the_simulator_gets_wrong(self):
        """Delete each command of add4 in turn: whenever an exhaustive
        256-lane run disagrees with `oracle`, `verify_program` refuses the
        program, so the audit reads commands as the simulator does."""
        compiled = compiled_op("add", 4)
        lanes = [[t & 15 for t in range(256)], [t >> 4 for t in range(256)]]
        want = [oracle("add", 4, case) for case in zip(*lanes)]
        commands = compiled.program.commands
        wrong = 0
        for i in range(len(commands)):
            mutant = compiled.program._replace(commands=commands[:i] + commands[i + 1:])
            if execute_op(replace(compiled, program=mutant), lanes) != want:
                wrong += 1
                assert not verify_program(compiled.graph, compiled.rowmap, mutant), i
        assert wrong > len(commands) // 2

    # add1 as an exact search schedules it: 9 AAPs and 3 TRAs, 27
    # activations.  Its second TRA computes M(0, ~b0, ~a0) from ~DCC reads
    # and its third reads constant 1 and that result, so the audit must
    # equate M(~a,~b,~c) with ~M(a,b,c) to match the graph's nodes.
    ADD1_EXACT = """UP/1
op=add width=1 data_rows=4
AAP D1 DCC0
AAP C1 T0
AAP C0 T1
AAP ~DCC0 T2
AAP D0 DCC1
AAP ~DCC1 T3
TRA T1 DCC0 DCC1
AAP T1 D3
AAP C0 T1
TRA T1 T2 T3
TRA T0 T1 DCC0
AAP ~DCC0 D2
END
"""

    def test_audit_normalises_majority_self_duality(self):
        compiled = compile_op("add", 1)
        lanes = [[0, 0, 1, 1], [0, 1, 0, 1]]

        def run(text):
            prog = parse_microprogram(text)
            sums = _run_lanes(prog, compiled.operand_widths, compiled.out_width,
                              lanes, CFG)[0]
            return sums, verify_program(compiled.graph, compiled.rowmap, prog)

        assert activation_count(parse_microprogram(self.ADD1_EXACT)).total == 27
        assert run(self.ADD1_EXACT) == ([0, 1, 1, 2], True)
        # one row changed: the sum bit is written uncomplemented
        mutant = self.ADD1_EXACT.replace("AAP ~DCC0 D2", "AAP DCC0 D2")
        assert run(mutant) == ([1, 0, 0, 3], False)

    def test_rowmap_must_cover_graph(self):
        rm = allocate_rows(MAJ_AB0, CFG)
        with pytest.raises(ArityError):
            schedule(NOT_A, rm)

    @pytest.mark.parametrize("graph_of, rowmap_of", [("add", "eq"), ("eq", "add")])
    def test_rowmap_of_another_graph_is_refused(self, graph_of, rowmap_of):
        """add4 has five outputs and eq4 one: `schedule` and
        `verify_program` refuse either's row map for the other."""
        mine, other = compiled_op(graph_of, 4), compiled_op(rowmap_of, 4)
        with pytest.raises(ArityError, match="row map has 8 input"):
            verify_program(mine.graph, other.rowmap, mine.program)
        with pytest.raises(ArityError, match="row map has 8 input"):
            schedule(mine.graph, other.rowmap)

    @pytest.mark.parametrize("rowmap", [
        RowMap(("D0", "D0"), ("D1",), 2, 10),  # both inputs read from one row
        RowMap(("D0", "D1"), ("D0",), 2, 10),  # the output overwrites an input
    ])
    def test_rowmap_with_a_repeated_row_is_refused(self, rowmap):
        """`schedule` would read D0 for both inputs of MAJ(in0, in1, 0), and
        `verify_program` would reject a correct program for losing the input
        its output row held."""
        program = schedule(MAJ_AB0, RowMap(("D0", "D1"), ("D2",), 3, 10))
        with pytest.raises(ArityError, match="row D0 more than once"):
            schedule(MAJ_AB0, rowmap)
        with pytest.raises(ArityError, match="row D0 more than once"):
            verify_program(MAJ_AB0, rowmap, program)

    def test_spill_under_row_pressure(self, rng):
        # wide fanin graph forces more than six simultaneously live values
        nodes = []
        for k in range(12):
            nodes.append((in_edge(k), in_edge(k + 1), EDGE_ZERO))
        # consume all twelve values at the very end, pairwise
        alive = [k << 1 for k in range(12)]
        k = 12
        while len(alive) > 1:
            nxt = []
            for i in range(0, len(alive) - 1, 2):
                nodes.append((alive[i], alive[i + 1], EDGE_ONE))
                nxt.append(k << 1)
                k += 1
            if len(alive) % 2:
                nxt.append(alive[-1])
            alive = nxt
        g = MajGraph(13, nodes, [alive[0]])
        rm = allocate_rows(g, CFG)
        prog = schedule(g, rm)
        spill_aaps = [c for c in prog.commands
                      if c.op == "AAP" and c.rows[1][0] == "D"
                      and c.rows[1][1:].isdigit()
                      and int(c.rows[1][1:]) >= rm.spill_start]
        assert spill_aaps, "expected at least one spill under pressure"
        assert verify_program(g, rm, prog)
        lanes = 16
        state = new_subarray(CFG)
        words = [rng.getrandbits(lanes) for _ in range(13)]
        for i, w in enumerate(words):
            state.store_row(f"D{i}", w)
        state.run_program(prog)
        assert state.load_row(rm.output_rows[0]) == g.eval_bulk(words, lanes)[0]

    def test_eviction_moves_a_live_value_to_an_idle_row(self):
        """n3's TRA needs DCC1 to read ~in2 while DCC1 holds n1, still
        live as an output: `_evict` copies n1 to T0, which n2's last read
        left dead, instead of spilling it to a data row."""
        g = MajGraph(3, [(-7, -4, -1), (-1, -8, -4), (1, -8, -8), (5, 3, -7)], [2, 7])
        rm = allocate_rows(g, DEFAULT_SUBARRAY)
        prog = schedule(g, rm)
        texts = [c.render() for c in prog.commands]
        assert "AAP DCC1 T0" in texts
        assert not any(c.op == "AAP" and c.rows[1] == f"D{rm.spill_start}"
                       for c in prog.commands)
        assert verify_program(g, rm, prog)
        lanes = 1 << g.input_count
        state = new_subarray(DEFAULT_SUBARRAY._replace(columns=lanes))
        words = [sum(1 << t for t in range(lanes) if t >> i & 1) for i in range(3)]
        for row, word in zip(rm.input_rows, words):
            state.store_row(row, word)
        state.run_program(prog)
        assert [state.load_row(row) for row in rm.output_rows] == g.eval_bulk(words, lanes)

    def test_flip_moves_a_pinned_dcc_operand_aside(self):
        """n2 = M(n0, 1, ~n1): n0's spare copy and the constant pin DCC0
        and DCC1 when ~n1, held nowhere, must be read through a DCC row.
        `_flip_into_dcc` moves n0 from DCC0 to T3 first, then loads n1
        into DCC0 and reads ~n1 from its complement port."""
        n0, n1 = 0, 2
        g = MajGraph(1, [(EDGE_ONE, EDGE_ONE, in_edge(0)), (EDGE_ZERO, n0, n0),
                         (n0, EDGE_ONE, n1 | 1)], [4, n0])
        rm = allocate_rows(g, SubarrayConfig())
        prog = schedule(g, rm)
        texts = [c.render() for c in prog.commands]
        assert activation_count(prog) == (11, 3, 31)
        moved = texts.index("AAP DCC0 T3")
        assert texts[moved + 1:moved + 4] == ["AAP T0 DCC0", "AAP ~DCC0 T0", "TRA T3 DCC1 T0"]
        assert verify_program(g, rm, prog)
        state = new_subarray(DEFAULT_SUBARRAY._replace(columns=2))
        state.store_row(rm.input_rows[0], 0b10)
        state.run_program(prog)
        assert [state.load_row(row) for row in rm.output_rows] == g.eval_bulk([0b10], 2)


def _wide_graph() -> MajGraph:
    """Two nodes over the top inputs of 40, one read complemented: input
    values sit far past the 2 * node_count entries of node values."""
    n0 = (in_edge(39), in_edge(37) | 1, in_edge(38))
    return MajGraph(40, [n0, (0, in_edge(36), EDGE_ONE)], [2, 1])


def _deep_graph() -> MajGraph:
    """25 nodes over 4 inputs: 12 nodes over inputs and constants, all
    live until a pairwise reduction reads them (spilling), then two nodes
    over the root, inputs and constants, so input and constant values
    share the compute rows with many live nodes to the end."""
    nodes = []
    for k in range(12):
        nodes.append((in_edge(k % 4), in_edge((k + 1) % 4) ^ (k & 1),
                      EDGE_ZERO if k % 3 else EDGE_ONE))
    alive = [k << 1 for k in range(12)]
    j = 0
    while len(alive) > 1:
        nxt = []
        for i in range(0, len(alive) - 1, 2):
            third = in_edge(j % 4) ^ (j & 1) if j % 3 else (EDGE_ZERO, EDGE_ONE)[j & 1]
            nodes.append((alive[i], alive[i + 1] ^ 1, third))
            nxt.append(len(nodes) - 1 << 1)
            j += 1
        if len(alive) % 2:
            nxt.append(alive[-1])
        alive = nxt
    root = len(nodes) - 1 << 1
    nodes.append((root, in_edge(3) | 1, EDGE_ONE))
    nodes.append((root ^ 1, in_edge(0), in_edge(2) | 1))
    return MajGraph(4, nodes, [len(nodes) - 1 << 1, len(nodes) - 2 << 1 | 1, 2])


class TestValueIndexedState:
    """The scheduler keeps per-value state in lists indexed by the packed
    value, node values first and input and constant values, which are
    negative, in the tail.  Graphs with far more inputs than nodes, and
    with far more nodes than inputs, pin their programs and run them."""

    @staticmethod
    def _run(g: MajGraph, rm: RowMap, prog: MicroProgram) -> None:
        """The program's outputs equal `eval_bulk` on every assignment, or
        on 256 seeded ones past 8 inputs."""
        if g.input_count <= 8:
            lanes = 1 << g.input_count
            words = [sum(1 << t for t in range(lanes) if t >> i & 1)
                     for i in range(g.input_count)]
        else:
            lanes = 256
            rng = random.Random(30)
            words = [rng.getrandbits(lanes) for _ in range(g.input_count)]
        state = new_subarray(DEFAULT_SUBARRAY._replace(columns=lanes))
        for row, word in zip(rm.input_rows, words):
            state.store_row(row, word)
        state.run_program(prog)
        assert [state.load_row(row) for row in rm.output_rows] == g.eval_bulk(words, lanes)

    def test_more_inputs_than_nodes(self):
        g = _wide_graph()
        rm = allocate_rows(g, DEFAULT_SUBARRAY)
        prog = schedule(g, rm)
        assert [c.render() for c in prog.commands] == [
            "AAP D39 T0", "AAP D37 DCC0", "AAP ~DCC0 T1", "AAP D38 T2", "TRA T0 T1 T2",
            "AAP D36 T3", "AAP C1 DCC0", "TRA T0 T3 DCC0",
            "AAP T0 D40", "AAP T1 DCC0", "AAP ~DCC0 D41"]
        assert verify_program(g, rm, prog)
        self._run(g, rm, prog)

    def test_more_nodes_than_inputs_with_spills(self):
        g = _deep_graph()
        rm = allocate_rows(g, DEFAULT_SUBARRAY)
        prog = schedule(g, rm)
        text = format_microprogram(prog)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "4f3909d326d520a5"
        assert activation_count(prog) == (115, 25, 305)
        assert spill_rows_used(prog, rm)
        assert verify_program(g, rm, prog)
        self._run(g, rm, prog)


class TestCosts:
    def test_activation_count_of_minimal_program(self):
        rm = allocate_rows(MAJ_AB0, CFG)
        prog = schedule(MAJ_AB0, rm)
        assert activation_count(prog) == (4, 1, 11)

    def test_empty_program(self):
        prog = MicroProgram("noop", 1, 0, ())
        assert activation_count(prog) == (0, 0, 0)

    def test_spill_rows_count_to_the_highest_row_written(self):
        """A spill row written twice counts once, a spill row only read
        not at all, and the count runs from the region's start to the
        highest row written in it."""
        rm = RowMap(("D0",), ("D1",), 2, 8)
        commands = [("AAP", ("D0", "T0")), ("AAP", ("T0", "D4")), ("AAP", ("D0", "T1")),
                    ("AAP", ("T1", "D4")), ("AAP", ("D6", "T2")), ("TRA", ("T0", "T1", "T2")),
                    ("AAP", ("D4", "D1"))]
        prog = MicroProgram("x", 1, 2, tuple(Command(*c) for c in commands))
        assert spill_rows_used(prog, rm) == 3  # D2, D3 and D4
        assert spill_rows_used(prog._replace(commands=prog.commands[:1]), rm) == 0

    def test_not_program_counts(self):
        prog = schedule(NOT_A, allocate_rows(NOT_A, CFG))
        assert activation_count(prog) == (2, 0, 4)

    def test_estimate_matches_minimal_schedule(self):
        assert estimate_cost_static(MAJ_AB0) == 11
        assert estimate_cost_static(MAJ_AB0, CFG) == 11

    def test_estimate_empty_graph_is_copy_cost(self):
        passthrough = MajGraph(1, [], [in_edge(0)])
        assert estimate_cost_static(passthrough) == 2  # one AAP
        assert estimate_cost_static(passthrough, CFG) == 2

    def test_estimate_lower_bounds_schedule(self, rng):
        """The objective is the scheduled count itself, spills included,
        and fails where `schedule` fails."""
        spilled = 0
        for _ in range(15):
            g = random_majgraph(rng, n_inputs=5, n_nodes=12)
            need = g.input_count + g.output_count
            tight = SubarrayConfig(total_rows=need + 10, columns=16,
                                   data_row_count=need + 2)
            for cfg in (CFG, tight):
                rm = allocate_rows(g, cfg)
                try:
                    prog = schedule(g, rm)
                except CapacityError:
                    with pytest.raises(CapacityError):
                        estimate_cost_static(g, cfg)
                    continue
                spilled += any(c.op == "AAP" and (data_row_index(c.rows[1]) or 0)
                               >= rm.spill_start for c in prog.commands)
                assert estimate_cost_static(g, cfg) == activation_count(prog).total
        assert spilled, "expected some schedules with spill traffic"

    def test_no_spill_means_estimate_exact(self):
        rm = allocate_rows(MAJ_AB0, CFG)
        prog = schedule(MAJ_AB0, rm)
        assert estimate_cost_static(MAJ_AB0, CFG) == activation_count(prog).total

    def test_estimate_raises_when_the_graph_does_not_fit(self):
        cfg = SubarrayConfig(total_rows=10, columns=16, data_row_count=2)
        with pytest.raises(CapacityError):
            estimate_cost_static(MAJ_AB0, cfg)


class TestTextFormat:
    def test_round_trip_byte_identical(self):
        rm = allocate_rows(MAJ_AB0, CFG)
        prog = schedule(MAJ_AB0, rm, name="and", width=1)
        text = format_microprogram(prog)
        assert format_microprogram(parse_microprogram(text)) == text

    def test_default_program_round_trips(self):
        """`schedule`'s default width is one, which the text format takes."""
        prog = schedule(MAJ_AB0, allocate_rows(MAJ_AB0, CFG))
        text = format_microprogram(prog)
        back = parse_microprogram(text)
        assert (back.width, back.commands) == (1, prog.commands)
        assert format_microprogram(back) == text

    def test_program_width_is_at_least_one(self):
        with pytest.raises(MicroProgramError, match="width=0"):
            MicroProgram("x", 0, 1, ())

    @pytest.mark.parametrize("width, data_rows, match", [
        ("3", 1, r"^width='3' is not an int$"),
        (True, 1, r"^width=True is not an int$"),
        (3.0, 1, r"^width=3.0 is not an int$"),
        (3, -1, r"^data_rows=-1 is not an int >= 0$"),
        (3, "1", r"^data_rows='1' is not an int >= 0$"),
        (3, False, r"^data_rows=False is not an int >= 0$"),
    ])
    def test_program_header_fields_are_ints(self, width, data_rows, match):
        with pytest.raises(MicroProgramError, match=match):
            MicroProgram("x", width, data_rows, ())

    def test_program_names_survive_the_text_format(self):
        """The header splits on whitespace and drops what follows a '#',
        and reads a str, so a name that these would change is refused."""
        for name in ("add", "", "a=b", "x.y-z_1", "~DCC0"):
            text = format_microprogram(MicroProgram(name, 2, 1, ()))
            assert parse_microprogram(text).name == name
        for name in ("a b", "a#b", 5, "a\tb", "a\nb", "a\u2028b", None):
            with pytest.raises(MicroProgramError, match="^name=.* is not a str without"):
                MicroProgram(name, 2, 1, ())

    def test_program_may_use_no_data_rows(self):
        assert MicroProgram("noop", 1, 0, ()).data_rows == 0

    def test_program_stores_commands_and_lines_as_tuples(self):
        commands = [Command("AAP", ("D0", "T0")), Command("AAP", ("T0", "D1"))]
        listed = MicroProgram("x", 1, 2, commands, [4, 6])
        tupled = MicroProgram("x", 1, 2, tuple(commands), (4, 6))
        assert (type(listed.commands), type(listed.lines)) == (tuple, tuple)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed._replace(lines=None) == MicroProgram("x", 1, 2, commands)

    @pytest.mark.parametrize("lines", [(), (7,), (7, 8, 9)])
    def test_program_needs_one_line_number_per_command(self, lines):
        commands = (Command("AAP", ("D0", "T0")), Command("AAP", ("T0", "D1")))
        with pytest.raises(MicroProgramError,
                           match=f"^{len(lines)} line numbers for 2 commands$"):
            MicroProgram("x", 1, 2, commands, lines)

    def test_program_commands_must_be_a_sequence(self):
        with pytest.raises(MicroProgramError, match="must be sequences"):
            MicroProgram("x", 1, 2, 5)
        with pytest.raises(MicroProgramError, match="must be sequences"):
            MicroProgram("x", 1, 2, (), 5)

    def test_parse_keeps_line_numbers(self):
        text = "UP/1\nop=x width=1 data_rows=2\n# staged\nAAP D0 T0\nEND\n"
        prog = parse_microprogram(text)
        assert prog.line_of(0) == 4

    @pytest.mark.parametrize("text", [
        "op=x width=1 data_rows=2\nAAP D0 T0\nEND\n",          # missing magic
        "UP/1\nop=x width=1\nAAP D0 T0\nEND\n",                 # header fields
        "UP/1\nop=x width=1 data_rows=2\nAAP D0 T0\n",          # missing END
        "UP/1\nop=x width=1 data_rows=2\nAAP D0 QQ7\nEND\n",    # unknown token
        "UP/1\nop=x width=1 data_rows=2\nAAP D0 C1\nEND\n",     # const dest
        "UP/1\nop=x width=1 data_rows=2\nAAP T0 ~DCC0\nEND\n",  # alias dest
        "UP/1\nop=x width=1 data_rows=2\nAAP T0 T0\nEND\n",     # src == dst
        "UP/1\nop=x width=1 data_rows=2\nTRA T0 T1 T1\nEND\n",  # dup rows
        "UP/1\nop=x width=1 data_rows=2\nTRA T0 T1 D0\nEND\n",  # data row in TRA
        "UP/1\nop=x width=1 data_rows=2\nTRA T0 T1 ~DCC0\nEND\n",  # alias in TRA
        "UP/1\nop=x width=1 data_rows=2\nEND\nAAP D0 T0\n",     # after END
        "UP/1\nop=x width=1 data_rows=2\nZAP D0 T0\nEND\n",     # unknown op
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(MicroProgramError):
            parse_microprogram(text)

    @pytest.mark.parametrize("fields", [
        "width=-3 data_rows=-1", "width=0 data_rows=2", "width=1 data_rows=-1",
        # a repeated field, and numbers int() takes that are not canonical digits
        "op=add width=10 data_rows=13", "width=1_0 data_rows=13", "width=\u0663 data_rows=13",
        "width=04 data_rows=13", "width=+4 data_rows=13", "width= data_rows=13",
        "width=4 data_rows=\uff11\uff13",
        pytest.param("width=4 data_rows=1" + "3" * 4301, id="4302-digit data_rows"),
    ])
    def test_rejects_bad_header_values_naming_the_line(self, fields):
        text = f"UP/1\n# header next\nop=x {fields}\nAAP D0 T0\nEND\n"
        with pytest.raises(MicroProgramError, match="line 3: header"):
            parse_microprogram(text)

    @pytest.mark.parametrize("token", ["D03", "D00", "D\u0663", "D+3", "D", "d3"])
    def test_rejects_non_canonical_data_rows_naming_the_line(self, token):
        # D03 and D<Arabic-Indic 3> would both reach physical row 3; only
        # D3 names it, so each row has one spelling in `.up` text
        text = f"UP/1\nop=x width=1 data_rows=4\n\nAAP T0 {token}\nEND\n"
        with pytest.raises(MicroProgramError, match=re.escape(f"line 4: unknown row token '{token}'")):
            parse_microprogram(text)
        assert data_row_index(token) is None

    @pytest.mark.parametrize("digits", [19, 4301])
    def test_rejects_over_long_row_index_naming_the_line(self, digits):
        token = "D" + "1" * digits
        text = f"UP/1\nop=x width=1 data_rows=4\nAAP D0 T0\nAAP {token} T0\nEND\n"
        with pytest.raises(MicroProgramError, match="line 4: row token 'D1111"):
            parse_microprogram(text)
        assert data_row_index(token) is None

    def test_accepts_an_eighteen_digit_row_index(self):
        prog = parse_microprogram(f"UP/1\nop=x width=1 data_rows=4\nAAP D{'9' * 18} T0\nEND\n")
        assert data_row_index(prog.commands[0].rows[0]) == 10 ** 18 - 1

    def test_accepts_canonical_data_rows(self):
        prog = parse_microprogram("UP/1\nop=x width=1 data_rows=4\nAAP D0 T0\nAAP T0 D30\nEND\n")
        assert [c.rows for c in prog.commands] == [("D0", "T0"), ("T0", "D30")]
        assert CFG.row_index("D30") == 30

    def test_accepts_zero_data_rows(self):
        assert parse_microprogram("UP/1\nop=x width=1 data_rows=0\nEND\n").data_rows == 0

    def test_command_validation_direct(self):
        """A `Command` is built unchecked, so a rule-breaking one is refused
        where a program is read: by `parse_microprogram`, by `run_program`
        with the same message and no row changed, and by `verify_program`."""
        rowmap = allocate_rows(MAJ_AB0, CFG)
        good = schedule(MAJ_AB0, rowmap).commands
        for bad, why in [
            (Command("AAP", ("C0", "C1")), "AAP may not write constant row C1"),
            (Command("TRA", ("T0", "T1", "C0")),
             "TRA operand C0 outside the compute/dual-contact group"),
            (Command("AAP", ("D0", "X1")), "unknown row token 'X1'"),
        ]:
            program = MicroProgram("x", 1, 3, good[:2] + (bad,) + good[2:])
            message = f"^line 5: {re.escape(why)}$"  # two header lines, then commands
            with pytest.raises(MicroProgramError, match=message):
                parse_microprogram(format_microprogram(program))
            state = new_subarray(CFG)
            for i in range(CFG.data_row_count):
                state.store_row(f"D{i}", 0x5A5A ^ i)
            before = state.dump_rows()
            with pytest.raises(MicroProgramError, match=message):
                state.run_program(program)
            assert state.dump_rows() == before
            with pytest.raises(MicroProgramError, match=message):
                verify_program(MAJ_AB0, rowmap, program)


_TOKENS = ["D0", "D1", "D7", "D12", "D03", "D\u0663", "D", "T0", "T3", "T4", "DCC0", "DCC1",
           "~DCC0", "~DCC1", "~T0", "C0", "C1", "AAP", "TRA", "END", "#", "=", "x"]


@st.composite
def up_texts(draw):
    """Mostly well-formed `.up` text with random damage: header fields,
    values and command tokens are drawn from valid and invalid spellings."""
    lines = [draw(st.sampled_from(["UP/1", "UP/1", "UP/1 ", "UP/2", "# c", ""]))]
    fields = draw(st.lists(st.sampled_from(["op", "width", "data_rows", "rows", ""]),
                           max_size=4))
    values = st.one_of(st.integers(-3, 70).map(str), st.text(max_size=4),
                       st.sampled_from(["\u0663", "1_0", "+2", "0x1", "9" * 30]))
    lines.append(" ".join(f"{k}={draw(values)}" if draw(st.booleans()) else k
                          for k in fields))
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(["AAP", "TRA", "ZAP", "aap"]))
        rows = draw(st.lists(st.sampled_from(_TOKENS), max_size=4))
        lines.append(" ".join([op, *rows]) + draw(st.sampled_from(["", "  # note"])))
    if draw(st.booleans()):
        lines.append("END")
    lines.extend(draw(st.lists(st.sampled_from(["", "# tail", "END", "AAP D0 T0"]),
                               max_size=2)))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def _assert_round_trips_or_is_rejected(text: str):
    try:
        prog = parse_microprogram(text)
    except MicroProgramError:
        return
    again = parse_microprogram(format_microprogram(prog))
    assert (again.name, again.width, again.data_rows) == (prog.name, prog.width, prog.data_rows)
    assert again.commands == prog.commands
    assert format_microprogram(again) == format_microprogram(prog)


@settings(max_examples=300, deadline=None)
@given(text=up_texts())
def test_up_text_round_trips_or_raises_microprogram_error(text):
    """Parsing never fails with anything but `MicroProgramError`, and what
    it accepts formats back to the same program."""
    _assert_round_trips_or_is_rejected(text)


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=80))
def test_arbitrary_text_round_trips_or_raises_microprogram_error(text):
    _assert_round_trips_or_is_rejected(text)

