import pytest
from hypothesis import given
from hypothesis import strategies as st

from pumkit.codegen import Command, MicroProgram
from pumkit.costmodel import (
    NOT_CALIBRATED,
    CostParams,
    compare,
    estimate,
    transpose_cost_ns,
)
from pumkit.errors import ConfigError


def program(n_aap, n_tra):
    commands = [Command("AAP", ("D0", "T0"))] * n_aap
    commands += [Command("TRA", ("T0", "T1", "T2"))] * n_tra
    return MicroProgram("x", 1, 1, tuple(commands))


class TestEstimate:
    def test_empty_program(self):
        report = estimate(program(0, 0), CostParams())
        assert report.latency_ns == 0
        assert report.energy_pj == 0

    def test_linear_sum(self):
        params = CostParams(t_aap_ns=100.0, t_tra_ns=150.0)
        report = estimate(program(4, 1), params)
        assert report.latency_ns == 4 * 100.0 + 150.0 == 550.0

    def test_energy_counts_activations_and_precharges(self):
        params = CostParams(e_act_pj=10.0, e_pre_pj=1.0)
        report = estimate(program(4, 1), params)
        assert report.energy_pj == (2 * 4 + 3 * 1) * 10.0 + 5 * 1.0

    def test_doubling_banks_doubles_throughput(self):
        one = estimate(program(4, 1), CostParams(banks=1))
        two = estimate(program(4, 1), CostParams(banks=2))
        assert two.throughput_ops_per_s == 2 * one.throughput_ops_per_s
        assert two.latency_ns == one.latency_ns

    def test_linearity_over_concatenation(self):
        params = CostParams()
        p1, p2 = program(3, 2), program(5, 1)
        joined = MicroProgram("x", 1, 1, p1.commands + p2.commands)
        a, b, c = estimate(p1, params), estimate(p2, params), estimate(joined, params)
        assert c.latency_ns == a.latency_ns + b.latency_ns
        assert c.energy_pj == a.energy_pj + b.energy_pj

    @given(st.floats(0.1, 100.0))
    def test_scaling_params_preserves_ranking(self, factor):
        base = CostParams()
        scaled = CostParams(
            t_aap_ns=base.t_aap_ns * factor,
            t_tra_ns=base.t_tra_ns * factor,
            e_act_pj=base.e_act_pj * factor,
            e_pre_pj=base.e_pre_pj * factor,
            transpose_ns_per_word=base.transpose_ns_per_word * factor,
        )
        small, big = program(2, 1), program(9, 4)
        assert (estimate(small, base).latency_ns < estimate(big, base).latency_ns)
        assert (estimate(small, scaled).latency_ns < estimate(big, scaled).latency_ns)

    def test_report_is_labeled_uncalibrated(self):
        assert "not hardware-calibrated" in NOT_CALIBRATED
        assert NOT_CALIBRATED in estimate(program(1, 0), CostParams()).render()

    def test_params_must_be_positive(self):
        with pytest.raises(ConfigError):
            CostParams(t_aap_ns=0)
        with pytest.raises(ConfigError):
            CostParams(banks=-1)

    @pytest.mark.parametrize("field, bad, match", [
        ("t_aap_ns", "3", "t_aap_ns must be a number, got '3'"),
        ("e_act_pj", None, "e_act_pj must be a number"),
        ("t_tra_ns", True, "t_tra_ns must be a number"),
        ("banks", 1.5, "banks must be an int >= 1, got 1.5"),
        ("banks", True, "banks must be an int >= 1, got True"),
        ("banks", 0, "banks must be an int >= 1, got 0"),
        ("columns_per_subarray", 64.0, "columns_per_subarray must be an int >= 1"),
        ("columns_per_subarray", "64", "columns_per_subarray must be an int >= 1"),
    ])
    def test_params_must_be_numbers_and_counts_ints(self, field, bad, match):
        with pytest.raises(ConfigError, match=f"^cost parameter {match}"):
            CostParams(**{field: bad})

    def test_int_latencies_are_numbers(self):
        assert estimate(program(1, 0), CostParams(t_aap_ns=3)).latency_ns == 3

    def test_transpose_cost_is_per_word(self):
        params = CostParams(transpose_ns_per_word=2.5)
        assert transpose_cost_ns(10, params) == 25.0
        assert transpose_cost_ns(0, params) == 0.0


class TestCompare:
    def test_identical_reports_give_unit_ratios(self):
        r = estimate(program(4, 1), CostParams())
        result = compare(r, r)
        assert result.latency_ratio == 1.0
        assert result.energy_ratio == 1.0
        assert result.throughput_ratio == 1.0
        assert result.undefined == ()

    def test_optimized_vs_naive_throughput(self):
        naive = estimate(program(40, 12), CostParams())
        optimized = estimate(program(20, 6), CostParams())
        result = compare(optimized, naive)
        assert result.throughput_ratio is not None
        assert result.throughput_ratio >= 1.0

    def test_zero_latency_denominator_flagged(self):
        empty = estimate(program(0, 0), CostParams())
        busy = estimate(program(4, 1), CostParams())
        result = compare(busy, empty)
        assert "latency" in result.undefined
        assert result.latency_ratio is None
        # an empty program's throughput is infinite, also undefined as divisor
        assert "throughput" in result.undefined
