"""Acceptance suite: one test per criterion, each reporting a pass/fail line.

The criteria pin down end-to-end behavior: compiled programs must match
the host oracles exhaustively at width 4 and on randomized sweeps at
widths 8/16/32, optimization must never hurt and must strictly help the
arithmetic operations, the simulated substrate must obey its command
semantics exactly, layout conversion must round-trip, the rewrite-rule
library must verify, and the classifier must map the six archetype
records onto the six classes.  Absolute hardware comparisons are
deliberately not reproduced; the cost model only emits clearly labeled
analytical estimates.
"""

import csv
import io
import random
import time
from contextlib import contextmanager

import pytest

import pumkit.oplib
from conftest import compiled_op, random_majgraph, record_acceptance

from pumkit.classifier import BottleneckClass, MetricsRecord, classify, compute_lfmr, recommend
from pumkit.cli import main
from pumkit.codegen import (
    SubarrayConfig,
    activation_count,
    allocate_rows,
    schedule,
)
from pumkit.costmodel import NOT_CALIBRATED, CostParams, estimate
from pumkit.errors import RowSafetyError
from pumkit.logic import equivalent
from pumkit.oplib import (
    N_ARY,
    OP_KINDS,
    execute_op,
    op_signature,
    oracle,
)
from pumkit.subarray import new_subarray
from pumkit.synthesis import lower_to_maj, optimize, verify_rules
from pumkit.transpose import HorizontalBlock, to_horizontal, to_vertical
from pumkit.oplib import build_netlist

ROWS = SubarrayConfig()  # compile-time row structure (512 rows)
CFG64 = SubarrayConfig(columns=64)
ARITH = ("add", "sub", "mul", "div")


@contextmanager
def criterion(n: int, desc: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        record_acceptance(f"[criterion {n}] FAIL  {desc}")
        raise
    record_acceptance(
        f"[criterion {n}] PASS  {desc}  ({time.monotonic() - started:.1f}s)"
    )


def _n_inputs(kind: str) -> int:
    return 3 if kind in N_ARY else 2


def _exhaustive_cases(widths):
    total_bits = sum(widths)
    for t in range(1 << total_bits):
        operands = []
        shift = 0
        for w in widths:
            operands.append((t >> shift) & ((1 << w) - 1))
            shift += w
        yield tuple(operands)


def test_criterion_1_oracle_equivalence_width4_exhaustive():
    with criterion(1, "16 ops at width 4: exhaustive sweep on a 64-column "
                      "subarray matches the host oracle"):
        started = time.monotonic()
        total_lanes = 0
        for kind in OP_KINDS:
            n = _n_inputs(kind)
            widths, _ = op_signature(kind, 4, n)
            compiled = compiled_op(kind, 4, ROWS, effort=2, n_inputs=n)
            batch = [[] for _ in widths]
            for case in _exhaustive_cases(widths):
                for k, v in enumerate(case):
                    batch[k].append(v)
                if len(batch[0]) == 64:
                    got = execute_op(compiled, batch, CFG64)
                    want = [oracle(kind, 4, lane) for lane in zip(*batch)]
                    assert got == want, f"{kind}: batch mismatch"
                    total_lanes += 64
                    batch = [[] for _ in widths]
            if batch[0]:
                got = execute_op(compiled, batch, CFG64)
                want = [oracle(kind, 4, lane) for lane in zip(*batch)]
                assert got == want, f"{kind}: tail batch mismatch"
                total_lanes += len(batch[0])
        elapsed = time.monotonic() - started
        assert elapsed < 300, f"criterion 1 overran its budget: {elapsed:.0f}s"
        assert total_lanes >= 16 * 256


def test_criterion_2_randomized_equivalence_widths_8_16_32():
    with criterion(2, "16 ops at widths 8/16/32: 4096 random lanes per op "
                      "match the host oracle"):
        started = time.monotonic()
        cfg = SubarrayConfig(columns=4096)
        rng = random.Random(0x5EED)
        for kind in OP_KINDS:
            n = _n_inputs(kind)
            for width in (8, 16, 32):
                widths, _ = op_signature(kind, width, n)
                compiled = compiled_op(kind, width, ROWS, effort=2,
                                             n_inputs=n)
                lanes = [[rng.getrandbits(w) for _ in range(4096)]
                         for w in widths]
                got = execute_op(compiled, lanes, cfg)
                want = [oracle(kind, width, lane) for lane in zip(*lanes)]
                assert got == want, f"{kind} width {width}: mismatch"
        elapsed = time.monotonic() - started
        assert elapsed < 600, f"criterion 2 overran its budget: {elapsed:.0f}s"


def test_criterion_3_optimization_property(tmp_path, monkeypatch):
    with criterion(3, "bench CSV (16 ops x 4 widths): effort-2 activations "
                      "<= effort-0 everywhere, strictly fewer for arithmetic"):
        # the bench takes criterion 2's effort-2 compiles from the memo
        monkeypatch.setattr(pumkit.oplib, "compile_op", compiled_op)
        out = tmp_path / "bench.csv"
        assert main(["bench", "-o", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 64  # 16 ops x widths {4, 8, 16, 32}
        for row in rows:
            e0, e2 = int(row["act_e0"]), int(row["act_e2"])
            assert e2 <= e0, f"{row['op']} w{row['width']}: optimization hurt"
            assert float(row["act_ratio"]) >= 1.0
            if row["op"] in ARITH:
                assert e2 < e0, f"{row['op']} w{row['width']}: no strict win"


def test_criterion_4_substrate_semantics():
    with criterion(4, "substrate semantics: TRA majority truth, destructive "
                      "write-back, AAP fidelity, ~DCC complement, constant "
                      "integrity"):
        started = time.monotonic()
        cfg = SubarrayConfig(total_rows=16, columns=8, data_row_count=8)
        # TRA majority truth and destructiveness over all 8 operand triples
        st = new_subarray(cfg)
        words = [0, 0, 0]
        for col in range(8):
            for r in range(3):
                if (col >> r) & 1:
                    words[r] |= 1 << col
        for r, w in enumerate(words):
            st.store_row(f"T{r}", w)
        st.exec_tra("T0", "T1", "T2")
        for col in range(8):
            bits = [(col >> r) & 1 for r in range(3)]
            want = int(sum(bits) >= 2)
            for r in range(3):
                assert (st.load_row(f"T{r}") >> col) & 1 == want
        assert st.load_row("T0") == st.load_row("T1") == st.load_row("T2")
        # AAP copy fidelity and complement alias, every 8-bit pattern
        for pattern in range(256):
            st.store_row("D0", pattern)
            st.exec_aap("D0", "T3")
            assert st.load_row("T3") == pattern
            st.store_row("DCC0", pattern)
            st.exec_aap("~DCC0", "T3")
            assert st.load_row("T3") == pattern ^ 0xFF
        # constant rows reject writes and stay intact after a program
        with pytest.raises(RowSafetyError):
            st.exec_aap("T0", "C1")
        g = random_majgraph(random.Random(11), n_inputs=3, n_nodes=6)
        rm = allocate_rows(g, cfg)
        st2 = new_subarray(cfg)
        st2.run_program(schedule(g, rm))
        assert st2.load_row("C0") == 0
        assert st2.load_row("C1") == 0xFF
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"criterion 4 overran one second: {elapsed:.2f}s"


def test_criterion_5_column_independence():
    with criterion(5, "20 random programs: 16-column execution equals 16 "
                      "one-column executions exactly"):
        rng = random.Random(0xC01)
        cfg16 = SubarrayConfig(total_rows=64, columns=16, data_row_count=32)
        cfg1 = SubarrayConfig(total_rows=64, columns=1, data_row_count=32)
        for _ in range(20):
            n_in = rng.randint(1, 5)
            g = random_majgraph(rng, n_inputs=n_in, n_nodes=rng.randint(1, 12))
            rm = allocate_rows(g, cfg16)
            prog = schedule(g, rm)
            inputs = [rng.getrandbits(16) for _ in range(n_in)]
            wide = new_subarray(cfg16)
            for i, w in enumerate(inputs):
                wide.store_row(f"D{i}", w)
            wide.run_program(prog)
            for col in range(16):
                single = new_subarray(cfg1)
                for i, w in enumerate(inputs):
                    single.store_row(f"D{i}", (w >> col) & 1)
                single.run_program(prog)
                for d in range(cfg16.data_row_count):
                    token = f"D{d}"
                    assert ((wide.load_row(token) >> col) & 1
                            == single.load_row(token)), f"column {col} differs"


def test_criterion_6_transpose_round_trip():
    with criterion(6, "transpose round trip: widths 1..64, 10,048 random "
                      "values, exact"):
        started = time.monotonic()
        rng = random.Random(0x7104)
        cfg = SubarrayConfig(total_rows=80, columns=157, data_row_count=72)
        cases = 0
        for width in range(1, 65):
            st = new_subarray(cfg)
            values = tuple(rng.getrandbits(width) for _ in range(157))
            to_vertical(HorizontalBlock(values, width), st, 0)
            assert to_horizontal(st, 0, width, 157).values == values
            cases += len(values)
        assert cases >= 10000
        elapsed = time.monotonic() - started
        assert elapsed < 30, f"criterion 6 overran its budget: {elapsed:.0f}s"


def test_criterion_7_synthesis_soundness():
    with criterion(7, "rewrite rules verify truth-preserving; netlist -> "
                      "optimized graph equivalence exhaustive for ops with "
                      "<= 12 circuit inputs"):
        checks = verify_rules()
        failing = [c.name for c in checks if not c.passed]
        assert failing == [], f"rules failed verification: {failing}"
        plans = {
            "two_operand": (("eq", "neq", "gt", "lt", "max", "min",
                             "add", "sub", "mul", "div"), (1, 2, 4, 6)),
            "predication": (("if_then_else",), (1, 2, 4, 5)),
            "unary": (("bitcount", "relu"), (1, 4, 8, 12)),
            "n_ary": (tuple(N_ARY), (1, 2, 4)),
        }
        checked = 0
        for kinds, widths in plans.values():
            for kind in kinds:
                n = _n_inputs(kind)
                for width in widths:
                    sig_widths, _ = op_signature(kind, width, n)
                    assert sum(sig_widths) <= 12
                    net = build_netlist(kind, width, n)
                    graph, _ = optimize(lower_to_maj(net), 2)
                    assert equivalent(net, graph), f"{kind} width {width}"
                    checked += 1
        assert checked == 10 * 4 + 4 + 2 * 4 + 3 * 3


def test_criterion_8_classifier_fixtures():
    with criterion(8, "six archetype records map onto the six bottleneck "
                      "classes with the fixed recommendations; "
                      "LFMR(100,1000) = 0.10 exactly"):
        assert compute_lfmr(100, 1000) == 0.10
        archetypes = {
            BottleneckClass.DRAM_BANDWIDTH_BOUND:
                MetricsRecord("stream", 50, 0.03, 0.05, {1: 0.95, 16: 0.93}),
            BottleneckClass.DRAM_LATENCY_BOUND:
                MetricsRecord("chase", 2, 0.05, 0.05, {1: 0.92, 16: 0.90}),
            BottleneckClass.L1L2_CACHE_CAPACITY:
                MetricsRecord("tile", 2, 0.05, 0.05, {1: 0.90, 16: 0.30}),
            BottleneckClass.L3_CACHE_CONTENTION:
                MetricsRecord("share", 3, 0.85, 0.05, {1: 0.20, 16: 0.50}),
            BottleneckClass.L1_CACHE_CAPACITY:
                MetricsRecord("hot", 1, 0.90, 0.05, {1: 0.10, 16: 0.10}),
            BottleneckClass.COMPUTE_BOUND:
                MetricsRecord("dense", 1, 0.80, 2.0, {1: 0.10, 16: 0.10}),
        }
        for expected, rec in archetypes.items():
            got, _ = classify(rec)
            assert got is expected, f"{rec.function_name}: {got} != {expected}"
        labels = {
            BottleneckClass.DRAM_BANDWIDTH_BOUND: "pnm-beneficial",
            BottleneckClass.DRAM_LATENCY_BOUND: "pnm-beneficial",
            BottleneckClass.L1L2_CACHE_CAPACITY: "pnm-beneficial-at-low-core-counts",
            BottleneckClass.L3_CACHE_CONTENTION: "pnm-cost-effective-vs-larger-l3",
            BottleneckClass.L1_CACHE_CAPACITY: "neutral",
            BottleneckClass.COMPUTE_BOUND: "pnm-harmful",
        }
        for cls, label in labels.items():
            assert recommend(cls).label == label


def test_criterion_9_hardware_comparisons_not_reproduced():
    with criterion(9, "absolute platform speedup/energy ratios, area, and "
                      "process-variation reliability are intentionally not "
                      "reproduced; cost output is labeled as an uncalibrated "
                      "analytical estimate"):
        compiled = compiled_op("add", 4, ROWS)
        report = estimate(compiled.program, CostParams())
        assert NOT_CALIBRATED in report.render()
        assert "not hardware-calibrated" in NOT_CALIBRATED
        # the model exposes only relative accounting knobs, no platform baselines
        fields = set(CostParams._fields)
        assert fields == {"t_aap_ns", "t_tra_ns", "e_act_pj", "e_pre_pj",
                          "transpose_ns_per_word", "banks",
                          "columns_per_subarray"}
        counts = activation_count(compiled.program)
        assert report.total_activations == counts.total
