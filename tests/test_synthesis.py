import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pumkit.synthesis as synthesis
from pumkit.codegen import (
    DEFAULT_SUBARRAY,
    SubarrayConfig,
    estimate_cost_static,
)
from pumkit.errors import ArityError, CapacityError
from pumkit.logic import (
    EDGE_ONE,
    EDGE_ZERO,
    REF_ZERO,
    Gate,
    MajGraph,
    Netlist,
    _enum_masks,
    _maj,
    equivalent,
    truth_table,
)
from pumkit.oplib import N_ARY, OP_KINDS, build_netlist, compile_op
from pumkit.synthesis import (
    RewriteRule,
    _ADDER_CELL,
    _LIBRARY,
    _MAJ_FLIPS,
    _Builder,
    _Template,
    _const_pair,
    lower_to_maj,
    optimize,
    verify_rules,
)

from conftest import in_edge, random_majgraph, random_netlist


class TestLowering:
    def test_and_is_single_node(self):
        g = lower_to_maj(Netlist(2, [Gate("AND", (in_edge(0), in_edge(1)))], [0]))
        assert g.packed_nodes == ((in_edge(0), in_edge(1), EDGE_ZERO),)
        assert g.packed_outputs == (0,)

    def test_not_fuses_into_output_edge(self):
        n = Netlist(2, [Gate("AND", (in_edge(0), in_edge(1))), Gate("NOT", (0,))], [2])
        g = lower_to_maj(n)
        assert g.node_count == 1
        assert g.packed_outputs == (1,)

    def test_xor_template_truth_table(self):
        g = lower_to_maj(Netlist(2, [Gate("XOR", (in_edge(0), in_edge(1)))], [0]))
        assert [r[0] for r in truth_table(g).rows()] == [0, 1, 1, 0]

    def test_not_of_constant_folds(self):
        n = Netlist(1, [Gate("NOT", (EDGE_ZERO,)), Gate("AND", (in_edge(0), 0))], [2])
        g = lower_to_maj(n)
        assert equivalent(n, g)

    def test_lowering_preserves_function(self, rng):
        for _ in range(25):
            n = random_netlist(rng, n_inputs=4, n_gates=12)
            assert equivalent(n, lower_to_maj(n))


class TestOptimize:
    def test_absorb_equal_operands(self):
        g = MajGraph(2, [(in_edge(0), in_edge(0), in_edge(1))], [0])
        opt, report = optimize(g, 2)
        assert opt.node_count == 0
        assert opt.packed_outputs == (in_edge(0),)
        assert report.estimated_activations_after <= report.estimated_activations_before

    def test_absorb_complementary_operands(self):
        g = MajGraph(2, [(in_edge(0), in_edge(0) | 1, in_edge(1))], [0])
        opt, _ = optimize(g, 2)
        assert opt.node_count == 0
        assert opt.packed_outputs == (in_edge(1),)

    def test_adder_beats_naive_lowering(self):
        naive = lower_to_maj(build_netlist("add", 4))
        opt, report = optimize(naive, 2)
        assert opt.node_count < naive.node_count
        assert equivalent(naive, opt)
        assert report.node_count_after == opt.node_count

    def test_effort_zero_is_identity(self, rng):
        g = lower_to_maj(random_netlist(rng))
        opt, report = optimize(g, 0)
        assert (opt.packed_nodes, opt.packed_outputs) == (g.packed_nodes, g.packed_outputs)
        assert report.rules_applied == ()
        assert (report.estimated_activations_after
                == report.estimated_activations_before)

    @pytest.mark.parametrize("effort", [0, 1, 2])
    def test_monotone_cost(self, effort, rng):
        """Also under a subarray with two spare data rows, where schedules
        spill or do not fit at all."""
        tight_fits = 0
        for _ in range(10):
            g = lower_to_maj(random_netlist(rng, n_gates=15))
            need = g.input_count + g.output_count
            tight = SubarrayConfig(total_rows=need + 10, data_row_count=need + 2)
            for cfg in (DEFAULT_SUBARRAY, tight):
                try:
                    before = estimate_cost_static(g, cfg)
                except CapacityError:
                    assert optimize(g, effort, cfg)[1].estimated_activations_before is None
                    continue
                tight_fits += cfg is tight
                opt, report = optimize(g, effort, cfg)
                assert estimate_cost_static(opt, cfg) <= before
                assert report.estimated_activations_after <= before
        assert tight_fits

    def test_fixpoint_idempotence(self, rng):
        for _ in range(10):
            g = lower_to_maj(random_netlist(rng, n_gates=15))
            once, _ = optimize(g, 2)
            twice, report = optimize(once, 2)
            assert twice.packed_nodes == once.packed_nodes
            assert twice.packed_outputs == once.packed_outputs
            assert all(name == "dead_node" for name, _ in report.rules_applied)

    @pytest.mark.parametrize("kind, rounds", [("add", 1), ("eq", 2)], ids=["add", "eq"])
    def test_each_round_cleans_and_compacts_once(self, kind, rounds, monkeypatch):
        """The cell round ends with one `clean_compact` whether or not it
        finds a full adder (add has them, eq none), and so does every
        rewrite round, which runs `cut_rewrite` once, except a rule-free
        one from the last kept graph, which ends the rounds before its
        `clean_compact`.  add4's cells are kept and its first rewrite
        round applies nothing; eq4's first rewrite round is kept and its
        second applies nothing."""
        calls = Counter()
        for name in ("clean_compact", "cut_rewrite"):
            def spy(self, counts, real=getattr(_Builder, name), name=name):
                calls[name] += 1
                return real(self, counts)
            monkeypatch.setattr(_Builder, name, spy)
        optimize(lower_to_maj(build_netlist(kind, 4)), 2)
        assert calls == {"cut_rewrite": rounds, "clean_compact": rounds}

    def test_a_rule_free_round_is_not_scored(self, monkeypatch):
        """The objective scores the lowered graph and each graph a round
        hands it, and no graph of a rewrite round that applies no rule to
        the last kept graph: mul8 scores only the lowered graph and the
        cell round's, and the widths-4/8 grid 80 graphs."""
        scored = Counter()
        real = synthesis.estimate_cost_static

        def objective(g, cfg=None):
            scored[kind, width] += 1
            return real(g, cfg)

        monkeypatch.setattr(synthesis, "estimate_cost_static", objective)
        for kind in OP_KINDS:
            for width in (4, 8):
                compile_op(kind, width)
        assert scored["mul", 8] == 2
        assert [scored[cell] for cell in (("mul", 4), ("bitcount", 4), ("bitcount", 8))] \
            == [2, 2, 4]
        assert sum(scored.values()) == 80

    def test_a_round_that_ties_the_best_is_not_kept(self, monkeypatch):
        """A round is kept only when it strictly improves the metric: with
        every graph scored alike, add4's adder cells and rewrites are all
        rolled back, and `optimize` returns the very graph it was given."""
        monkeypatch.setattr(synthesis, "_metric", lambda g, cfg: (False, 0, 0))
        g = lower_to_maj(build_netlist("add", 4))
        opt, report = optimize(g)
        assert opt is g
        assert report.rules_applied == ()

    def test_bad_effort_rejected(self):
        g = MajGraph(1, [], [in_edge(0)])
        with pytest.raises(ValueError):
            optimize(g, 3)

    @pytest.mark.parametrize("call, args, kwargs, error, match", [
        (compile_op, ("add", True), {}, ArityError, "width must be an int, got True"),
        (compile_op, ("add", 4.0), {}, ArityError, "width must be an int, got 4.0"),
        (compile_op, ("and_n", 4), {"n_inputs": 3.0}, ArityError,
         "n_inputs must be an int, got 3.0"),
        (optimize, (MajGraph(1, [], [in_edge(0)]), True), {}, ValueError, "effort"),
        (optimize, (MajGraph(1, [], [in_edge(0)]), False), {}, ValueError, "effort"),
        (optimize, (MajGraph(1, [], [in_edge(0)]), 1.0), {}, ValueError, "effort"),
        (optimize, (MajGraph(1, [], [in_edge(0)]), 2.0), {}, ValueError, "effort"),
    ], ids=["width-True", "width-4.0", "n_inputs-3.0", "effort-True", "effort-False",
            "effort-1.0", "effort-2.0"])
    def test_a_count_that_is_no_int_is_refused(self, call, args, kwargs, error, match):
        """A bool or a float equal to an accepted count is still refused."""
        with pytest.raises(error, match=match):
            call(*args, **kwargs)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_pipeline_equivalence_random(self, seed):
        rng = random.Random(seed)
        n = random_netlist(rng, n_inputs=rng.randint(1, 6),
                           n_gates=rng.randint(1, 20))
        opt, _ = optimize(lower_to_maj(n), 2)
        assert equivalent(n, opt)


class TestVerifyRules:
    def test_default_rules_all_pass(self):
        checks = verify_rules()
        assert checks, "rule library is empty"
        failing = [c.name for c in checks if not c.passed]
        assert failing == []

    def test_rule_names_cover_engine_passes(self, rng):
        """Every rule `optimize` counts has a checked identity, and every
        checked identity is one a pass applies: the counted rules of
        `clean`, `compact` and `dual_push`, the template names of the cut
        library, and the canonical edge order and constant folding every
        pass applies uncounted."""
        checked = {c.name for c in verify_rules()}
        passes = {"absorb_equal", "absorb_complement", "cse", "dead_node", "dual_push"}
        templates = {tpl.name for tpl in _LIBRARY.values()}
        assert checked == passes | templates | {"commute", "const_fold"}
        counted = set()
        graphs = [lower_to_maj(build_netlist(kind, width, 3 if kind in N_ARY else 2))
                  for kind in OP_KINDS for width in (2, 4)]
        graphs += [lower_to_maj(random_netlist(rng, n_gates=15)) for _ in range(20)]
        graphs += [random_majgraph(rng) for _ in range(20)]
        for g in graphs:
            counted |= {name for name, _ in optimize(g, 2)[1].rules_applied}
        assert counted <= checked
        assert counted >= passes

    def test_corrupted_rule_fails_with_name(self):
        bogus = RewriteRule(
            "bogus_and_is_or",
            MajGraph(2, [(in_edge(0), in_edge(1), EDGE_ZERO)], [0]),
            MajGraph(2, [(in_edge(0), in_edge(1), EDGE_ONE)], [0]),
        )
        checks = verify_rules((bogus,))
        assert len(checks) == 1
        assert checks[0].name == "bogus_and_is_or"
        assert not checks[0].passed

    def test_oversized_rule_rejected(self):
        wide = RewriteRule(
            "too_wide",
            MajGraph(6, [], [in_edge(0)]),
            MajGraph(6, [], [in_edge(0)]),
        )
        checks = verify_rules((wide,))
        assert not checks[0].passed
        assert "5" in checks[0].detail


def _adder_chain(rng: random.Random, width: int) -> Netlist:
    """A ripple chain of `width` full adders over inputs a, b and a carry-in,
    each bit reading a random polarity of its three leaves and taking its
    carry as OR(AND(a,b), AND(a^b,c)); sums are output in a random
    polarity, then the carry-out."""
    gates: list[Gate] = []

    def gate(kind, *ops):
        gates.append(Gate(kind, ops))
        return len(gates) - 1 << 1

    def lit(e):
        return gate("NOT", e) if rng.random() < 0.5 else e

    carry, outs = in_edge(2 * width), []
    for i in range(width):
        a, b, c = lit(in_edge(i)), lit(in_edge(width + i)), lit(carry)
        x = gate("XOR", a, b)
        outs.append(lit(gate("XOR", x, c)))
        carry = gate("OR", gate("AND", a, b), gate("AND", x, c))
    return Netlist(2 * width + 1, gates, outs + [carry])


class TestAdderCells:
    @pytest.mark.parametrize("kind", ["add", "sub", "mul", "div"])
    def test_effort_zero_ships_the_lowered_netlist(self, kind):
        lowered = lower_to_maj(build_netlist(kind, 4))
        opt, report = optimize(lowered, 0)
        assert opt is lowered
        assert report.rules_applied == ()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_every_full_adder_becomes_a_cell_of_the_same_function(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 5)
        netlist = _adder_chain(rng, width)
        b = _Builder.from_graph(lower_to_maj(netlist))
        counts = Counter()
        b.clean(counts)
        assert b.adder_cells(counts)
        b.clean_compact(counts)
        assert counts["adder_cell"] == width
        assert b.to_graph().node_count == 3 * width
        assert equivalent(netlist, b.to_graph())
        assert equivalent(netlist, optimize(lower_to_maj(netlist), 2)[0])

    @pytest.mark.parametrize("kind,width", [("add", 8), ("sub", 8), ("add", 16), ("sub", 16)])
    def test_ripple_adders_and_subtractors_are_rebuilt(self, kind, width):
        """Bit 0 reads a constant carry and stays a half adder."""
        _, report = optimize(lower_to_maj(build_netlist(kind, width)), 2)
        assert dict(report.rules_applied)["adder_cell"] == width - 1

    @pytest.mark.parametrize("node", range(3))
    @pytest.mark.parametrize("edge", range(3))
    def test_a_cell_with_one_complement_flipped_fails_its_rule(self, monkeypatch, node, edge):
        nodes = [list(nd) for nd in _ADDER_CELL.nodes]
        nodes[node][edge] ^= 1
        monkeypatch.setattr(synthesis, "_ADDER_CELL", _Template(
            _ADDER_CELL.name, _ADDER_CELL.cost, tuple(map(tuple, nodes)), _ADDER_CELL.out))
        failed = [c for c in verify_rules() if not c.passed]
        assert [(c.name, c.detail) for c in failed] == [("adder_cell", "truth tables differ")]


class TestReport:
    def test_report_counts_match_graphs(self):
        naive = lower_to_maj(build_netlist("xor_n", 2, 3))
        opt, report = optimize(naive, 2)
        assert report.node_count_before == naive.node_count
        assert report.node_count_after == opt.node_count
        assert report.depth_before == naive.depth()
        assert report.depth_after == opt.depth()
        assert dict(report.rules_applied)

    def test_render_mentions_activations(self):
        _, report = optimize(lower_to_maj(build_netlist("add", 2)), 1)
        text = report.render()
        assert "activations" in text and "->" in text


def _random_graph(seed: int) -> MajGraph:
    """A lowered random netlist, a random majority graph or a long chain."""
    rng = random.Random(seed)
    kind = rng.randrange(3)
    if kind == 0:
        return lower_to_maj(random_netlist(rng, n_inputs=rng.randint(1, 6),
                                           n_gates=rng.randint(1, 40)))
    if kind == 1:
        return random_majgraph(rng, n_inputs=rng.randint(1, 6),
                               n_nodes=rng.randint(1, 30))
    return _chain_graph(rng)


def _chain_graph(rng: random.Random) -> MajGraph:
    """17-24 majority nodes over in0-in2, each reading the one before.
    The cone of a deep node's cut {in0, in1, in2} holds every node up to
    it, more than _CONE_CAP."""
    def lit(v: int) -> int:
        return in_edge(v) ^ (rng.random() < 0.5)

    nodes = [(lit(0), lit(1), lit(2))]
    for k in range(rng.randint(16, 23)):
        a, b = rng.sample(range(3), 2)
        nodes.append(((k << 1) ^ (rng.random() < 0.5), lit(a), lit(b)))
    return MajGraph(3, nodes, [(len(nodes) - 1 << 1) ^ (rng.random() < 0.5)])


def _rewrite_ready(b: _Builder) -> _Builder:
    """`b` as `optimize` hands it to `cut_rewrite` in one round: compacted
    by the round before, then complement-pushed."""
    b.clean_compact(Counter())
    b.dual_push(Counter())
    return b


def _kept_cuts(b: _Builder, cap: int) -> tuple[list, dict]:
    """(the cuts `_node_cuts` keeps, per node, and `b._cut_records()`)
    with the cut cap at `cap`."""
    kept = []
    real = _Builder._node_cuts

    def spy(self, nd, options):
        sets, cuts = real(self, nd, options)
        kept.append(cuts)
        return sets, cuts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Builder, "_node_cuts", spy)
        mp.setattr(_Builder, "_CUT_CAP", cap)
        by_cut = b._cut_records()
    return kept, by_cut


def _cut_values(b: _Builder, cut: tuple[int, ...], last: int, rest: int) -> dict:
    """Every ref's truth table over `cut` (cut[v] is variable v), from
    evaluating nodes 0..last in index order with every other input at
    `rest`: 0, or all ones when negative."""
    masks = _enum_masks(len(cut))
    full = (1 << (1 << len(cut))) - 1
    vals = {-2 - v: rest & full for v in range(b.input_count)}
    vals[REF_ZERO] = 0
    vals.update(zip(cut, masks))
    for k in range(last + 1):
        if k not in cut:
            x, y, z = [vals[e >> 1] ^ (full if e & 1 else 0) for e in b.nodes[k]]
            vals[k] = _maj(x, y, z)
    return vals


def _reachable(b: _Builder, root: int, cut: tuple[int, ...]) -> set[int]:
    """The nodes reachable from `root` along edges, stopping at `cut`."""
    cone, todo = set(), [root]
    while todo:
        k = todo.pop()
        if k not in cone:
            cone.add(k)
            todo.extend(e >> 1 for e in b.nodes[k] if e >> 1 >= 0 and e >> 1 not in cut)
    return cone


class TestCutRecords:
    """The cut records `cut_rewrite` builds afresh every round, against an
    evaluation of the whole graph and a reachability walk."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_records_are_their_roots_over_their_cuts(self, seed):
        """On uncleaned and cleaned builders, at the shipped cut cap and at
        a cap of 2, which truncates cut sets.  A record's table is its
        root's value over the cut whatever the other inputs are, so the
        cut separates the root; its template is the library's for that
        table and its cone is what the root reaches above the cut.  Every
        kept cut with such a template and at most _CONE_CAP cone nodes
        has its record, and each cut's records are in node order."""
        g = _random_graph(seed)
        for builder in (_Builder.from_graph(g), _rewrite_ready(_Builder.from_graph(g))):
            for cap in (_Builder._CUT_CAP, 2):
                kept, by_cut = _kept_cuts(builder, cap)
                assert len(kept) == len(builder.nodes)
                roots: dict = {}  # cut -> the nodes keeping it
                for root, cuts in enumerate(kept):
                    for cut in cuts:
                        if cut:  # a node over constants only has an empty cut
                            roots.setdefault(cut, []).append(root)
                want: dict = {}
                for cut, cut_roots in roots.items():
                    low = _cut_values(builder, cut, cut_roots[-1], 0)
                    high = _cut_values(builder, cut, cut_roots[-1], -1)
                    for root in cut_roots:
                        assert low[root] == high[root], (root, cut)
                        tpl = _LIBRARY.get((len(cut), low[root]))
                        cone = _reachable(builder, root, cut)
                        if tpl is not None and len(cone) <= _Builder._CONE_CAP:
                            want[cut, root] = (cone, low[root], tpl)
                got = {}
                for cut, recs in by_cut.items():
                    assert [rec[3] for rec in recs] == sorted({rec[3] for rec in recs})
                    for cone, table, tpl, root in recs:
                        got[cut, root] = (set(cone), table, tpl)
                assert got == want

    @pytest.mark.parametrize("seed", range(5))
    def test_a_cone_past_the_cone_cap_has_no_record(self, seed):
        """The deep node keeps the cut (in0, in1, in2), but that cut's cone
        holds more than _CONE_CAP nodes."""
        b = _Builder.from_graph(_chain_graph(random.Random(seed)))
        deep = len(b.nodes) - 1
        cut = (in_edge(2) >> 1, in_edge(1) >> 1, in_edge(0) >> 1)
        kept, by_cut = _kept_cuts(b, _Builder._CUT_CAP)
        assert cut in kept[deep]
        assert len(_reachable(b, deep, cut)) > _Builder._CONE_CAP
        assert deep not in [rec[3] for rec in by_cut.get(cut, ())]


class TestConeTable:
    """`_cone_table`, which `_cut_records` calls at _CONE_CAP and
    `adder_cells` at 3, against an evaluation of the whole graph and a
    reachability walk."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_a_table_is_its_root_over_its_leaves(self, seed):
        """For random roots over 1-3 leaf refs in random order: the root's
        own children (a one-node cone, read off the root's edges), a cut
        reached by replacing node leaves with their children, every input
        of a graph of at most three, or random refs.  The table is None
        when some path from the root reaches an input that is not a leaf
        or when the cone holds more than `cap` nodes, and otherwise it is
        the root's value over the leaves whatever the other inputs are,
        with the cone what the root reaches above the leaves."""
        rng = random.Random(seed)
        g = _random_graph(seed)
        for b in (_Builder.from_graph(g), _rewrite_ready(_Builder.from_graph(g))):
            refs = [-2 - v for v in range(b.input_count)] + list(range(len(b.nodes)))
            for k in range(8 if b.nodes else 0):
                root = rng.randrange(len(b.nodes))
                others = [r for r in refs if r != root]
                leaves = sorted({e >> 1 for e in b.nodes[root]} - {REF_ZERO})
                if k % 4 == 1:  # a cut further down: a node leaf for its children
                    for _ in range(rng.randint(1, 20)):
                        node_leaves = [r for r in leaves if r >= 0]
                        if not node_leaves:
                            break
                        r = rng.choice(node_leaves)
                        wider = set(leaves) - {r} | {e >> 1 for e in b.nodes[r]} - {REF_ZERO}
                        if len(wider) <= 3:
                            leaves = sorted(wider)
                elif k % 4 == 3 and b.input_count <= 3:  # a chain graph's deep cones
                    leaves = refs[:b.input_count]
                elif k % 4 >= 2:
                    leaves = rng.sample(others, min(len(others), rng.randint(1, 3)))
                if not leaves:
                    continue
                rng.shuffle(leaves)
                reach = _reachable(b, root, leaves)
                separated = all(e >> 1 >= 0 or e >> 1 in leaves or e >> 1 == REF_ZERO
                                for n in reach for e in b.nodes[n])
                for cap in (3, _Builder._CONE_CAP):
                    cone, table = b._cone_table(root, leaves, cap)
                    if not separated or len(reach) > cap:
                        assert table is None, (root, leaves, cap)
                        continue
                    assert cone == reach
                    for rest in (0, -1):
                        assert table == _cut_values(b, tuple(leaves), root, rest)[root]


def _kid_chain(width: int) -> MajGraph:
    """`width` bits over a chained a and fresh inputs b, each an XOR3
    shape whose outer operand is the inner XOR2's AND kid: y = M(a,b,0),
    x = M(~y, M(a,b,1), 0), s = M(~M(x,y,0), M(x,y,1), 0), and
    M(a, b, M(x,y,0)) is the next bit's a.  Each s is an output, then
    the last a."""
    nodes: list[tuple[int, int, int]] = []

    def node(*edges: int) -> int:
        nodes.append(tuple(sorted(edges)))
        return len(nodes) - 1 << 1

    a, outs = in_edge(0), []
    for i in range(width):
        b = in_edge(1 + i)
        y = node(a, b, EDGE_ZERO)
        x = node(y ^ 1, node(a, b, EDGE_ONE), EDGE_ZERO)
        low = node(x, y, EDGE_ZERO)
        outs.append(node(low ^ 1, node(x, y, EDGE_ONE), EDGE_ZERO))
        a = node(a, b, low)
    return MajGraph(width + 1, nodes, outs + [a])


def _or_of_ands_chain(width: int) -> Netlist:
    """A ripple chain of `width` full adders whose carry is an OR of three
    ANDs, OR(OR(AND(a,c), AND(b,c)), AND(a,b)): the carry reads the XOR3's
    cone only through AND(a,b), so it is found by the walk."""
    gates: list[Gate] = []

    def gate(kind, *ops):
        gates.append(Gate(kind, ops))
        return len(gates) - 1 << 1

    carry, outs = in_edge(2 * width), []
    for i in range(width):
        a, b = in_edge(i), in_edge(width + i)
        outs.append(gate("XOR", gate("XOR", a, b), carry))
        either = gate("OR", gate("AND", a, carry), gate("AND", b, carry))
        carry = gate("OR", either, gate("AND", a, b))
    return Netlist(2 * width + 1, gates, outs + [carry])


def _check_adder_shapes(b: _Builder) -> tuple[int, int, int]:
    """Every XOR2 `_xor2s` finds, every XOR3 `_xor3` reads and every carry
    `_carry_of` accepts (with nothing taken) against `_cone_table` walks
    over the same leaves.  Returns how many of each were checked."""
    want = {}  # lowering's XOR shape, its cone and table walked
    for i, nd in enumerate(b.nodes):
        kids = None if nd is None else _const_pair(nd)
        if kids is None or kids[0] < 0:
            continue
        pair = _const_pair(b.nodes[kids[0]])
        if pair is None or pair != _const_pair(b.nodes[kids[1]]):
            continue
        cone, table = b._cone_table(i, pair, 3)
        if table in (0b0110, 0b1001):
            assert cone == {i, *kids}
            want[i] = (*pair, kids, table & 1)
    xor2 = b._xor2s()
    assert xor2 == want
    fanout = b._fanout()
    xor3s = carries = 0
    for s, (u, v, _, _) in xor2.items():
        for inner, c in ((u, v), (v, u)):
            if inner not in xor2 or c in xor2[inner][:2]:
                continue
            leaves = [*xor2[inner][:2], c]
            cone, table = b._xor3(s, inner, leaves, xor2)
            assert (cone, table) == b._cone_table(s, leaves, _Builder._CONE_CAP)
            if table not in (0x96, 0x69):
                continue
            xor3s += 1
            expected = None  # the first consumer whose walked table is MAJ
            for m in sorted({f for k in cone for f in fanout[k]} - cone):
                if m < len(b.nodes):
                    carry_cone, t = b._cone_table(m, leaves, _Builder._CONE_CAP)
                    if t in _MAJ_FLIPS:
                        expected = (m, _MAJ_FLIPS[t], cone | carry_cone)
                        break
            assert b._carry_of(cone, leaves, fanout, set()) == expected
            carries += expected is not None
    return len(xor2), xor3s, carries


class TestAdderShapes:
    """`adder_cells` reads XOR2s, XOR3s and carries off lowering's shapes
    and keeps the `_cone_table` walk for every other cone; both must give
    what the walk gives."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_shape_reads_agree_with_the_walk(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 5)
        for g, chain in ((lower_to_maj(_adder_chain(rng, width)), True),
                         (lower_to_maj(_or_of_ands_chain(width)), True),
                         (_random_graph(seed), False)):
            b = _Builder.from_graph(g)
            b.clean(Counter())
            xor2s, xor3s, carries = _check_adder_shapes(b)
            if chain:  # one full adder per bit
                assert min(xor2s // 2, xor3s, carries) >= width

    def test_a_carry_outside_lowering_shape_is_walked_to(self):
        netlist = _or_of_ands_chain(4)
        b = _Builder.from_graph(lower_to_maj(netlist))
        counts = Counter()
        b.clean(counts)
        assert b.adder_cells(counts)
        b.clean_compact(counts)
        assert counts["adder_cell"] == 4
        assert equivalent(netlist, b.to_graph())

    @pytest.mark.parametrize("width", [1, 3])
    def test_an_outer_operand_that_is_an_inner_kid_is_walked(self, width):
        """The walk stops at the AND kid, so it is no XOR3 over (a, b, y):
        no cell is built, and the report is what the walk route gives."""
        g = _kid_chain(width)
        b = _Builder.from_graph(g)
        b.clean(Counter())
        assert _check_adder_shapes(b) == (2 * width, 0, 0)
        opt, report = optimize(g, 2)
        assert equivalent(g, opt)
        assert report == {
            1: (7, 2, 4, 1, 57, 22, (("cut_collapse", 1), ("cut_maj", 5), ("dead_node", 1))),
            3: (21, 6, 12, 3, 169, 54, (("cut_collapse", 3), ("cut_maj", 15), ("dead_node", 3))),
        }[width]


def _gen_templates_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "gen_templates.py"
    spec = importlib.util.spec_from_file_location("gen_templates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTemplateTable:
    """`_LIBRARY` is built from the rows of the generated `pumkit.templates`."""

    def test_checked_in_table_is_the_generator_output(self):
        import pumkit.templates as templates
        script = _gen_templates_script()
        assert Path(templates.__file__).read_text() == script.render()
        assert list(templates.ROWS) == script.rows()
        assert script.main(["--check"]) == 0

    def test_library_is_the_table(self):
        import pumkit.templates as templates
        assert [(nv, t, tpl.name, tpl.cost, tpl.nodes, tpl.out)
                for (nv, t), tpl in _LIBRARY.items()] == list(templates.ROWS)

    def test_entries_are_pinned(self):
        """A change to the table's content shows up here as a pin edit."""
        assert len(_LIBRARY) == 124
        assert Counter(nv for nv, _ in _LIBRARY) == {1: 4, 2: 14, 3: 106}
        assert Counter(tpl.name for tpl in _LIBRARY.values()) == {
            "cut_collapse": 18, "cut_maj": 40, "cut_maj2": 64, "adder_cell": 2}

    def test_xor3_rows_are_the_adder_cell_sum(self):
        for table, out in ((0x96, _ADDER_CELL.out), (0x69, _ADDER_CELL.out | 1)):
            tpl = _LIBRARY[3, table]
            assert (tpl.name, tpl.cost, tpl.nodes, tpl.out) == (
                "adder_cell", 3, _ADDER_CELL.nodes, out)

    def test_a_flipped_row_fails_verify_rules(self, monkeypatch):
        key = (3, 0xE8)  # MAJ of the three leaves
        tpl = _LIBRARY[key]
        assert tpl.name == "cut_maj"
        flipped = dict(_LIBRARY)
        flipped[key] = _Template(tpl.name, tpl.cost, tpl.nodes, tpl.out ^ 1)
        monkeypatch.setattr(synthesis, "_LIBRARY", flipped)
        failing = [c for c in verify_rules() if not c.passed]
        assert [c.name for c in failing] == ["cut_maj"]
        assert "1 templates disagree: [(3, 232)]" in failing[0].detail
