import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pumkit.errors import ArityError, NetlistFormatError, TableSizeError
from pumkit.logic import (
    EDGE_ONE,
    EDGE_ZERO,
    Gate,
    MajGraph,
    Netlist,
    equivalent,
    eval_majgraph,
    eval_netlist,
    format_netlist,
    parse_netlist,
    truth_table,
)
from pumkit.oplib import OP_KINDS, build_netlist
from pumkit.synthesis import lower_to_maj

from conftest import in_edge, random_majgraph, random_netlist

import random


IN0, IN1, IN2 = in_edge(0), in_edge(1), in_edge(2)
AND2 = Netlist(2, [Gate("AND", (IN0, IN1))], [0])
OR2 = Netlist(2, [Gate("OR", (IN0, IN1))], [0])
XOR2 = Netlist(2, [Gate("XOR", (IN0, IN1))], [0])
NOT1 = Netlist(1, [Gate("NOT", (IN0,))], [0])

MAJ_AB0 = MajGraph(2, [(IN0, IN1, EDGE_ZERO)], [0])
MAJ_AB1 = MajGraph(2, [(IN0, IN1, EDGE_ONE)], [0])
MAJ_ABC = MajGraph(3, [(IN0, IN1, IN2)], [0])


class TestEvalNetlist:
    def test_and(self):
        assert eval_netlist(AND2, (1, 1)) == (1,)
        assert eval_netlist(AND2, (1, 0)) == (0,)

    def test_xor(self):
        assert eval_netlist(XOR2, (1, 0)) == (1,)
        assert eval_netlist(XOR2, (1, 1)) == (0,)

    def test_ripple_adder(self):
        adder = build_netlist("add", 4)
        a, b = 5, 6
        bits = [(a >> i) & 1 for i in range(4)] + [(b >> i) & 1 for i in range(4)]
        out = eval_netlist(adder, bits)
        total = sum(bit << i for i, bit in enumerate(out))
        assert total == 11
        assert out[4] == 0  # carry

    def test_arity_error(self):
        with pytest.raises(ArityError):
            eval_netlist(AND2, (1,))


class TestEvalMajGraph:
    def test_maj_with_zero(self):
        assert eval_majgraph(MAJ_AB0, (1, 1)) == (1,)
        assert eval_majgraph(MAJ_AB0, (1, 0)) == (0,)

    def test_maj_with_one(self):
        assert eval_majgraph(MAJ_AB1, (0, 1)) == (1,)

    def test_complementary_pair_dominates(self):
        g = MajGraph(2, [(IN0, IN0 ^ 1, IN1)], [0])
        for a in (0, 1):
            assert eval_majgraph(g, (a, 1)) == (1,)
            assert eval_majgraph(g, (a, 0)) == (0,)

    def test_arity_error(self):
        with pytest.raises(ArityError):
            eval_majgraph(MAJ_ABC, (1, 0))

    @given(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
           st.tuples(st.booleans(), st.booleans(), st.booleans()))
    def test_maj_node_truth(self, bits, negs):
        g = MajGraph(3, [tuple(in_edge(i) ^ negs[i] for i in range(3))], [0])
        effective = [bits[i] ^ negs[i] for i in range(3)]
        assert eval_majgraph(g, bits) == (int(sum(effective) >= 2),)

    def test_double_complement_is_identity(self, rng):
        g = random_majgraph(rng)
        e = g.packed_outputs[0]
        twice = MajGraph(g.input_count, g.packed_nodes,
                         [e ^ 1 ^ 1] + list(g.packed_outputs[1:]))
        assert truth_table(g) == truth_table(twice)


class TestTruthTable:
    def test_and_table(self):
        assert truth_table(AND2).rows() == [(0,), (0,), (0,), (1,)]

    def test_not_table(self):
        assert truth_table(NOT1).rows() == [(1,), (0,)]

    def test_maj_has_four_ones(self):
        assert truth_table(MAJ_ABC).ones() == 4

    def test_size_guard(self):
        wide = Netlist(17, [], [IN0])
        with pytest.raises(TableSizeError):
            truth_table(wide)

    def test_agrees_with_eval(self, rng):
        for _ in range(20):
            g = random_majgraph(rng, n_inputs=3, n_nodes=6)
            table = truth_table(g)
            for t in range(8):
                bits = [(t >> i) & 1 for i in range(3)]
                assert table.row(t) == g.eval(bits)

    def test_eval_deterministic(self, rng):
        g = random_majgraph(rng)
        bits = [rng.randint(0, 1) for _ in range(g.input_count)]
        assert g.eval(bits) == g.eval(bits)


class TestEquivalent:
    def test_and_is_maj_with_zero(self):
        assert equivalent(AND2, MAJ_AB0)

    def test_or_is_maj_with_one(self):
        assert equivalent(OR2, MAJ_AB1)

    def test_and_is_not_or(self):
        assert not equivalent(AND2, OR2)

    def test_input_mismatch(self):
        with pytest.raises(ArityError):
            equivalent(AND2, NOT1)

    def test_output_mismatch(self):
        two_out = Netlist(2, [Gate("AND", (IN0, IN1))], [0, 0])
        with pytest.raises(ArityError):
            equivalent(AND2, two_out)


class TestTextFormat:
    TEXT = "inputs 2\ng0 = AND in0 in1\ng1 = NOT g0\noutputs g1\n"

    def test_round_trip(self):
        n = parse_netlist(self.TEXT)
        assert n.gates == (Gate("AND", (IN0, IN1)), Gate("NOT", (0,)))
        assert n.outputs == (2,)
        assert format_netlist(n) == self.TEXT
        assert parse_netlist(format_netlist(n)).gates == n.gates

    def test_ids_name_gates_by_position(self):
        """Any unique canonical ids defined before use parse; the text
        written back numbers the gates g0, g1, ... in order."""
        n = parse_netlist("inputs 2\ng7 = AND in0 in1\ng3 = NOT g7\noutputs g3 g7 1\n")
        assert n.gates == (Gate("AND", (IN0, IN1)), Gate("NOT", (0,)))
        assert n.outputs == (2, 0, EDGE_ONE)
        assert format_netlist(n) == (
            "inputs 2\ng0 = AND in0 in1\ng1 = NOT g0\noutputs g1 g0 1\n")

    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_library_netlists_round_trip(self, kind):
        n = build_netlist(kind, 4)
        back = parse_netlist(format_netlist(n))
        assert (back.input_count, back.gates, back.outputs) == (
            n.input_count, n.gates, n.outputs)

    def test_comments_and_blanks(self):
        n = parse_netlist("# nand\ninputs 2\n\ng0 = AND in0 in1  # both\noutputs g0\n")
        assert n.input_count == 2 and len(n.gates) == 1

    @pytest.mark.parametrize("text", [
        "g0 = AND in0 in1\noutputs g0\n",          # missing header
        "inputs 2\ng0 = AND in0 in1\n",            # missing footer
        "inputs 2\ng0 = NAND in0 in1\noutputs g0\n",   # unknown kind
        "inputs 2\ng0 = AND in0\noutputs g0\n",        # bad arity
        "inputs 2\ng0 = AND in0 in5\noutputs g0\n",    # input out of range
        "inputs 2\ng0 = AND in0 g1\noutputs g0\n",     # forward reference
        "inputs 2\ng0 = AND in0 in1\ng0 = OR in0 in1\noutputs g0\n",  # dup id
        "inputs 2\ng0 = AND in0 in1\noutputs g0\ng1 = OR in0 in1\n",  # after footer
        "inputs 2\ng0 = AND in01 in1\noutputs g0\n",   # leading zero
        "inputs 2\ng0 = AND in\u0661 in0\noutputs g0\n",  # Arabic-Indic digit
        "inputs 2\ng\u0660 = AND in0 in1\noutputs g\u0660\n",  # Arabic-Indic id
        "inputs 2\ng0 = AND in0 in1\noutputs in\uff11\n",  # fullwidth output digit
        "inputs 2\ng0 = AND in0 in1\noutputs g1\n",  # undefined output
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(NetlistFormatError, match=r"^line \d+: "):
            parse_netlist(text)

    @pytest.mark.parametrize("count", ["\u00b2", "\u0663", "02", "+2", "2_0", "\uff12"])
    def test_header_count_is_canonical_digits(self, count):
        with pytest.raises(NetlistFormatError, match="^line 1: "):
            parse_netlist(f"inputs {count}\ng0 = AND in0 in1\noutputs g0\n")


@pytest.mark.parametrize("gates, outputs, where", [
    ([Gate("AND", (IN0, in_edge(2)))], [0], "g0"),  # input past input_count
    ([Gate("NOT", (IN0,)), Gate("AND", (IN0, 4))], [2], "g1"),  # forward gate
    ([Gate("NOT", (IN0,)), Gate("AND", (IN0, 1))], [2], "g1"),  # complemented gate
    ([Gate("NOT", (IN0 | 1,))], [0], "g0"),  # complemented input
    ([Gate("AND", (IN0, IN1))], [2], "outputs"),  # output past the last gate
])
def test_netlist_edges_are_range_checked(gates, outputs, where):
    """An edge is a constant, an input below `input_count` or an earlier
    gate, and only constant 1 is complemented."""
    with pytest.raises(NetlistFormatError, match=f"^{where}: "):
        Netlist(2, gates, outputs)


@pytest.mark.parametrize("gates, outputs", [
    ([Gate("AND", ("in01", IN1))], [0]),
    ([Gate("AND", ("in\u0663", IN1))], [0]),
])
def test_netlist_refs_take_canonical_ascii_digits(gates, outputs):
    """A reference is a packed int edge: a name in any digit spelling,
    as `.up` text writes one, is not one; `parse_netlist` reads names."""
    with pytest.raises(NetlistFormatError, match="^g0: "):
        Netlist(4, gates, outputs)


def test_netlist_immutable():
    with pytest.raises(AttributeError):
        AND2.input_count = 3
    for circuit in (AND2, MajGraph(1, [], [-4])):
        for name in type(circuit).__slots__:
            with pytest.raises(AttributeError):
                setattr(circuit, name, getattr(circuit, name))
            with pytest.raises(AttributeError):
                delattr(circuit, name)
        assert circuit.input_count in (1, 2)  # still there


def test_netlist_and_graph_unpickle(rng):
    net = random_netlist(rng, n_gates=12)
    back = pickle.loads(pickle.dumps(net))
    assert (back.input_count, back.gates, back.outputs) == (
        net.input_count, net.gates, net.outputs)
    g = random_majgraph(rng, n_nodes=12)
    h = pickle.loads(pickle.dumps(g))
    assert (h.input_count, h.packed_nodes, h.packed_outputs) == (
        g.input_count, g.packed_nodes, g.packed_outputs)


def test_majgraph_validates_structure():
    with pytest.raises(ArityError):
        MajGraph(2, [(IN0, IN1)], [0])
    with pytest.raises(NetlistFormatError):
        MajGraph(1, [(IN0, 2, EDGE_ZERO)], [0])


@pytest.mark.parametrize("nodes, outputs, error, where", [
    ([(IN0, IN1, in_edge(2))], [0], NetlistFormatError, "n0"),  # input past input_count
    ([(IN0, IN1, EDGE_ZERO), (IN0, IN1, 4)], [2], NetlistFormatError, "n1"),  # forward node
    ([(IN0, IN1, EDGE_ZERO), (IN0, IN1, 3)], [2], NetlistFormatError, "n1"),  # self edge
    ([(IN0, IN1, EDGE_ZERO)], [2], NetlistFormatError, "outputs"),  # past the last node
    ([(("in0", False), IN1, EDGE_ZERO)], [0], NetlistFormatError, "n0"),  # a string pair
    ([(IN0, IN1, True)], [0], NetlistFormatError, "n0"),  # a bool
    ([(IN0, IN1, EDGE_ZERO)], [False], NetlistFormatError, "outputs"),  # a bool output
    ([(IN0, IN1, EDGE_ZERO), (IN0, 0)], [2], ArityError, "n1"),  # a node with two edges
])
def test_graph_edges_are_range_checked(nodes, outputs, error, where):
    """A node has three edges, and an edge is an int reading a constant,
    an input below `input_count` or an earlier node, complemented or not."""
    with pytest.raises(error, match=f"^{where}: "):
        MajGraph(2, nodes, outputs)


@pytest.mark.parametrize("cls", [MajGraph, Netlist])
@pytest.mark.parametrize("count", [2.0, "2", True, -1])
def test_input_count_is_a_non_negative_int(cls, count):
    with pytest.raises(ArityError, match="input count must be a non-negative int"):
        cls(count, [], [])


def test_constant_one_is_the_complemented_constant_zero():
    """One edge per constant value: ~0 is 1, and either reads as 1."""
    assert EDGE_ZERO ^ 1 == EDGE_ONE
    g = MajGraph(1, [(IN0, EDGE_ZERO ^ 1, EDGE_ONE ^ 1)],
                 [EDGE_ZERO ^ 1, EDGE_ONE, EDGE_ONE ^ 1])
    assert g.packed_nodes[0][1] == g.packed_outputs[0] == g.packed_outputs[1]
    assert g.eval([0]) == (1, 1, 0) and g.eval([1]) == (1, 1, 0)


def test_lowered_not_of_a_constant_is_an_edge():
    n = Netlist(0, [Gate("NOT", (EDGE_ZERO,)), Gate("NOT", (EDGE_ONE,))], [0, 2])
    g = lower_to_maj(n)
    assert g.node_count == 0
    assert g.packed_outputs == (EDGE_ONE, EDGE_ZERO)
