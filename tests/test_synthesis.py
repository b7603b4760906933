import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumkit.codegen import SubarrayConfig, estimate_cost_static
from pumkit.errors import CapacityError
from pumkit.logic import Gate, MajGraph, Netlist, equivalent, truth_table
from pumkit.oplib import build_netlist
from pumkit.synthesis import (
    RewriteRule,
    lower_to_maj,
    optimize,
    verify_rules,
)

from conftest import random_netlist


class TestLowering:
    def test_and_is_single_node(self):
        g = lower_to_maj(Netlist(2, [Gate("g0", "AND", ("in0", "in1"))], ["g0"]))
        assert g.nodes == ((("in0", False), ("in1", False), ("0", False)),)
        assert g.outputs == (("n0", False),)

    def test_not_fuses_into_output_edge(self):
        n = Netlist(2, [Gate("g0", "AND", ("in0", "in1")),
                        Gate("g1", "NOT", ("g0",))], ["g1"])
        g = lower_to_maj(n)
        assert g.node_count == 1
        assert g.outputs == (("n0", True),)

    def test_xor_template_truth_table(self):
        g = lower_to_maj(Netlist(2, [Gate("g0", "XOR", ("in0", "in1"))], ["g0"]))
        assert [r[0] for r in truth_table(g).rows()] == [0, 1, 1, 0]

    def test_not_of_constant_folds(self):
        n = Netlist(1, [Gate("g0", "NOT", ("0",)),
                        Gate("g1", "AND", ("in0", "g0"))], ["g1"])
        g = lower_to_maj(n)
        assert equivalent(n, g)

    def test_lowering_preserves_function(self, rng):
        for _ in range(25):
            n = random_netlist(rng, n_inputs=4, n_gates=12)
            assert equivalent(n, lower_to_maj(n))


class TestOptimize:
    def test_absorb_equal_operands(self):
        g = MajGraph(2, [(("in0", False), ("in0", False), ("in1", False))],
                     [("n0", False)])
        opt, report = optimize(g, 2)
        assert opt.node_count == 0
        assert opt.outputs == (("in0", False),)
        assert report.estimated_activations_after <= report.estimated_activations_before

    def test_absorb_complementary_operands(self):
        g = MajGraph(2, [(("in0", False), ("in0", True), ("in1", False))],
                     [("n0", False)])
        opt, _ = optimize(g, 2)
        assert opt.node_count == 0
        assert opt.outputs == (("in1", False),)

    def test_adder_beats_naive_lowering(self):
        naive = lower_to_maj(build_netlist("add", 4))
        opt, report = optimize(naive, 2)
        assert opt.node_count < naive.node_count
        assert equivalent(naive, opt)
        assert report.node_count_after == opt.node_count

    def test_effort_zero_is_identity(self, rng):
        g = lower_to_maj(random_netlist(rng))
        opt, report = optimize(g, 0)
        assert opt.nodes == g.nodes and opt.outputs == g.outputs
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
            for cfg in (None, tight):
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
            assert twice.nodes == once.nodes
            assert twice.outputs == once.outputs
            assert all(name == "dead_node" for name, _ in report.rules_applied)

    def test_bad_effort_rejected(self):
        g = MajGraph(1, [], [("in0", False)])
        with pytest.raises(ValueError):
            optimize(g, 3)

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

    def test_rule_names_cover_engine_passes(self):
        names = {c.name for c in verify_rules()}
        for expected in ("commute", "absorb_equal", "absorb_complement",
                         "cse", "dual_push", "cut_xor", "cut_library"):
            assert expected in names

    def test_corrupted_rule_fails_with_name(self):
        bogus = RewriteRule(
            "bogus_and_is_or",
            MajGraph(2, [(("in0", False), ("in1", False), ("0", False))],
                     [("n0", False)]),
            MajGraph(2, [(("in0", False), ("in1", False), ("1", False))],
                     [("n0", False)]),
        )
        checks = verify_rules((bogus,))
        assert len(checks) == 1
        assert checks[0].name == "bogus_and_is_or"
        assert not checks[0].passed

    def test_oversized_rule_rejected(self):
        wide = RewriteRule(
            "too_wide",
            MajGraph(6, [], [("in0", False)]),
            MajGraph(6, [], [("in0", False)]),
        )
        checks = verify_rules((wide,))
        assert not checks[0].passed
        assert "5" in checks[0].detail


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
