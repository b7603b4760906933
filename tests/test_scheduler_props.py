"""Properties of the scheduler and the optimizer under tight row budgets,
and of the packed edge form every stage shares (``ref << 1 | neg``: gate
or node k is k, the constant is -1 and input i is -(2 + i); constant 1
is the complemented constant 0)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumkit.codegen import (
    SubarrayConfig,
    activation_count,
    allocate_rows,
    estimate_cost_static,
    schedule,
    verify_program,
)
from pumkit.errors import CapacityError
from pumkit.logic import (
    EDGE_ONE,
    EDGE_ZERO,
    Gate,
    MajGraph,
    Netlist,
    _enum_masks,
    equivalent,
    format_netlist,
    parse_netlist,
)
from pumkit.subarray import new_subarray
from pumkit.synthesis import _Builder, lower_to_maj, optimize

from conftest import in_edge


@st.composite
def majgraphs(draw, max_inputs=5, max_nodes=24):
    n_in = draw(st.integers(1, max_inputs))
    refs = [EDGE_ZERO, EDGE_ONE] + [in_edge(i) for i in range(n_in)]

    def edge():
        return draw(st.sampled_from(refs)) ^ draw(st.booleans())

    nodes = []
    for k in range(draw(st.integers(0, max_nodes))):
        nodes.append((edge(), edge(), edge()))
        refs.append(k << 1)
    outputs = [edge() for _ in range(draw(st.integers(1, 4)))]
    return MajGraph(n_in, nodes, outputs)


@st.composite
def netlists(draw, max_inputs=5, max_gates=30):
    n_in = draw(st.integers(1, max_inputs))
    refs = [EDGE_ZERO, EDGE_ONE] + [in_edge(i) for i in range(n_in)]
    gates = []
    for k in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(("AND", "OR", "XOR", "NOT")))
        arity = 1 if kind == "NOT" else 2
        gates.append(Gate(kind, tuple(draw(st.sampled_from(refs)) for _ in range(arity))))
        refs.append(k << 1)
    # up to twelve outputs, all live until the end of the sweep, so the
    # schedule has to spill and sometimes runs out of spill rows
    outputs = [draw(st.sampled_from(refs)) for _ in range(draw(st.integers(1, 12)))]
    return Netlist(n_in, gates, outputs)


def _tight_config(g: MajGraph, spare: int) -> SubarrayConfig:
    data_rows = max(1, g.input_count + g.output_count + spare)
    return SubarrayConfig(total_rows=data_rows + 8, columns=1 << g.input_count,
                          data_row_count=data_rows)


def _schedule_or_none(g: MajGraph, cfg: SubarrayConfig):
    try:
        rowmap = allocate_rows(g, cfg)
        return rowmap, schedule(g, rowmap)
    except CapacityError:
        return None


def _simulate(g: MajGraph, rowmap, program, cfg: SubarrayConfig) -> list[int]:
    """Every input combination, one per column; the output rows' words."""
    state = new_subarray(cfg)
    for token, word in zip(rowmap.input_rows, _enum_masks(g.input_count)):
        state.store_row(token, word)
    state.run_program(program)
    return [state.load_row(token) for token in rowmap.output_rows]


@settings(max_examples=150, deadline=None)
@given(g=majgraphs(), spare=st.integers(-1, 3))
def test_tight_budget_schedules_correctly_or_raises_capacity(g, spare):
    """A program either verifies and simulates to `eval_bulk`, or the
    scheduler says it ran out of rows; never a wrong program.  The
    optimizer's objective is the scheduled count exactly, and fails with
    the schedule."""
    cfg = _tight_config(g, spare)
    scheduled = _schedule_or_none(g, cfg)
    if scheduled is None:
        with pytest.raises(CapacityError):
            estimate_cost_static(g, cfg)
        return
    rowmap, program = scheduled
    assert verify_program(g, rowmap, program)
    lanes = 1 << g.input_count
    assert _simulate(g, rowmap, program, cfg) == g.eval_bulk(_enum_masks(g.input_count), lanes)
    assert estimate_cost_static(g, cfg) == activation_count(program).total


@settings(max_examples=100, deadline=None)
@given(netlist=netlists(), spare=st.integers(0, 3))
def test_optimize_under_tight_budget_fits_or_raises_capacity(netlist, spare):
    """Lowered random netlists optimized for a subarray with 0-3 spare data
    rows: the result either raises `CapacityError` when scheduled, or
    verifies and simulates to the netlist.  A graph that fits is never
    optimized into one that does not."""
    g = lower_to_maj(netlist)
    cfg = _tight_config(g, spare)
    input_fits = _schedule_or_none(g, cfg) is not None
    opt, report = optimize(g, 2, cfg)
    assert (report.estimated_activations_before is not None) == input_fits
    scheduled = _schedule_or_none(opt, cfg)
    if scheduled is None:
        assert not input_fits and report.estimated_activations_after is None
        return
    rowmap, program = scheduled
    assert report.estimated_activations_after == activation_count(program).total
    assert verify_program(opt, rowmap, program)
    lanes = 1 << g.input_count
    want = netlist.eval_bulk(_enum_masks(g.input_count), lanes)
    assert _simulate(opt, rowmap, program, cfg) == want


_Z = EDGE_ZERO
# The schedule spills n1 and reloads it into DCC1, so n4's TRA leaves n4 in
# DCC1 and n5 reads ~n4 off ~DCC1: 60 activations.  Sweeping with an
# unbounded row pool instead of spilling routes ~n4 with two more AAPs (62),
# so a spill-free count is no lower bound on what ships.
SPILL_SAVES_ROUTING = MajGraph(0, [
    (_Z, _Z, _Z), (_Z, _Z, _Z), (_Z, _Z, _Z), (_Z, _Z, 0 << 1 | 1),
    (_Z, 1 << 1, 2 << 1), (_Z, _Z, 4 << 1 | 1),
], [3 << 1, 5 << 1])


def test_objective_counts_the_spilling_schedule():
    cfg = SubarrayConfig()
    g = SPILL_SAVES_ROUTING
    program = schedule(g, allocate_rows(g, cfg))
    assert activation_count(program).total == 60
    assert estimate_cost_static(g, cfg) == 60


@settings(max_examples=100, deadline=None)
@given(g=majgraphs())
def test_builder_passes_rebuild_a_checked_equivalent_graph(g):
    """The rewrite passes keep every edge in range (`to_graph` goes
    through the checking constructor) and the function unchanged."""
    b = _Builder.from_graph(g)
    b.clean_compact(Counter())
    b.dual_push(Counter())
    b.clean_compact(Counter())
    assert equivalent(g, b.to_graph())


@settings(max_examples=100, deadline=None)
@given(netlist=netlists())
def test_netlist_text_round_trips_the_packed_form(netlist):
    back = parse_netlist(format_netlist(netlist))
    assert (back.input_count, back.gates, back.outputs) == (
        netlist.input_count, netlist.gates, netlist.outputs)
