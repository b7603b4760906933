"""Emitted-program accounting and the benchmark's output checks.

AAP purposes are read off each command's row tokens and the program's
RowMap alone, so they do not depend on scheduler internals.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from pumkit import costmodel
from pumkit.codegen import activation_count, data_row_index, verify_program
from pumkit.errors import PumError
from pumkit.oplib import execute_op

from . import reference

PURPOSES = ("input_load", "const_load", "dcc_copy", "dcc_read",
            "row_copy", "spill_out", "spill_in", "output_write")
_DCC = ("DCC0", "DCC1")
_COMPUTE_GROUP = ("T0", "T1", "T2", "T3") + _DCC


class AttributionError(AssertionError):
    """An AAP fits no purpose, or the purposes miss the activation count."""


def aap_purposes(program, rowmap) -> Counter:
    """Count every AAP of `program` under exactly one purpose.

    Spill rows are D[spill_start, spill_end).  Destination decides first
    (output write, spill out), then the source (spill in, constant, ~DCC
    read, operand input), then a copy into a DCC row or between compute
    rows.  The counts must sum to `activation_count(program).aap`.
    """
    inputs, outputs = set(rowmap.input_rows), set(rowmap.output_rows)

    def in_spill(token: str) -> bool:
        i = data_row_index(token)
        return i is not None and rowmap.spill_start <= i < rowmap.spill_end

    counts = Counter()
    for cmd in program.commands:
        if cmd.op != "AAP":
            continue
        src, dst = cmd.rows
        if dst in outputs:
            purpose = "output_write"
        elif in_spill(dst):
            purpose = "spill_out"
        elif in_spill(src):
            purpose = "spill_in"
        elif src in ("C0", "C1"):
            purpose = "const_load"
        elif src.startswith("~"):
            purpose = "dcc_read"
        elif src in inputs:
            purpose = "input_load"
        elif src in _COMPUTE_GROUP and dst in _DCC:
            purpose = "dcc_copy"
        elif src in _COMPUTE_GROUP and dst in _COMPUTE_GROUP:
            purpose = "row_copy"
        else:
            raise AttributionError(f"{program.name}: no purpose for AAP {src} {dst}")
        counts[purpose] += 1
    if sum(counts.values()) != activation_count(program).aap:
        raise AttributionError(f"{program.name}: purposes do not sum to the AAP count")
    return counts


def spill_rows(program, rowmap) -> int:
    """Distinct spill-region rows the program writes."""
    rows = set()
    for cmd in program.commands:
        if cmd.op == "AAP":
            i = data_row_index(cmd.rows[1])
            if i is not None and rowmap.spill_start <= i < rowmap.spill_end:
                rows.add(i)
    return len(rows)


def program_metrics(compiled_ops) -> dict[str, float]:
    """Program-quality counts summed over `compiled_ops`, plus the
    activations of each grid cell (0 for cells not compiled)."""
    m = dict.fromkeys(("activations", "sim_latency_ns", "verified_cases",
                       "codegen.aap", "codegen.tra", "codegen.spill_rows",
                       "codegen.estimate_gap", "synthesis.nodes_in",
                       "synthesis.nodes_out", "synthesis.rules_applied"), 0)
    m.update((f"codegen.aap.{p}", 0) for p in PURPOSES)
    m.update((f"codegen.act.{k}.{w}", 0)
             for k in reference.GRID_KINDS for w in reference.GRID_WIDTHS)
    for c in compiled_ops:
        act = activation_count(c.program)
        m["activations"] += act.total
        m["sim_latency_ns"] += costmodel.estimate(c.program).latency_ns
        m["verified_cases"] += c.verified_cases
        m["codegen.aap"] += act.aap
        m["codegen.tra"] += act.tra
        for purpose, n in aap_purposes(c.program, c.rowmap).items():
            m[f"codegen.aap.{purpose}"] += n
        m["codegen.spill_rows"] += spill_rows(c.program, c.rowmap)
        m["synthesis.nodes_in"] += c.report.node_count_before
        m["synthesis.nodes_out"] += c.report.node_count_after
        m["synthesis.rules_applied"] += sum(n for _, n in c.report.rules_applied)
        m[f"codegen.act.{c.kind}.{c.width}"] += act.total
        m["codegen.estimate_gap"] += act.total - c.report.estimated_activations_after
    return m


def verify_timed(compiled) -> tuple[bool, float]:
    """verify_program's verdict on one compiled program, and its seconds."""
    t0 = time.perf_counter()
    ok = verify_program(compiled.graph, compiled.rowmap, compiled.program)
    return ok, time.perf_counter() - t0


def lanes_match(compiled, rng: random.Random, n_random: int) -> bool:
    """Whether a simulated run of one compiled program matches the reference
    on the corner lanes plus `n_random` seeded ones."""
    cases = reference.lane_cases(compiled.kind, compiled.width, rng, n_random)
    try:
        got = execute_op(compiled, reference.operand_lists(cases))
    except PumError:
        return False
    return got == [reference.expected(compiled.kind, compiled.width, case) for case in cases]
