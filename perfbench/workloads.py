"""The four workloads: which pumkit layer each one stresses, and why.

* compile-grid    compile_op at effort 2, cold, over the `pumkit bench`
                  grid.  Synthesis dominates, so rewrite, objective and
                  scheduler changes show here.
* execute-wide    execute_op on add32 and mul16 at 4096 lanes.  Layout
                  conversion (transpose in/out) dominates.
* execute-narrow  the same two programs over many 64-lane batches.  Command
                  dispatch in the subarray model dominates; transposes are
                  tiny, so per-call overhead there shows and a faster bulk
                  layout conversion does not.
* classify        label_csv on a generated metrics CSV.  The only workload
                  that reaches the classifier.

Every workload draws its inputs from the seed and checks every output
against `reference`.  A pass is one sweep over the fixed inputs; its
wall time is what the benchmark measures.
"""

from __future__ import annotations

import csv
import io
import random

from pumkit.classifier import label_csv
from pumkit.errors import PumError
from pumkit.oplib import compile_op, execute_op

from . import programs, reference

EFFORT = 2


def compile_program(kind: str, width: int):
    return compile_op(kind, width, effort=EFFORT, n_inputs=reference.n_inputs(kind))


class CompileGrid:
    """Compile every op x width cell from cold; the seed draws the check lanes."""

    name = "compile-grid"
    setup_programs = ()
    SMOKE = {"widths": (4,)}
    # Untraced runs time widths 4 and 8 only.  A width-16 cell takes up to
    # 1.5 s and a width-32 one up to 14 s (div32), so a run could repeat
    # them only a few times, and on a shared host a few samples are not
    # steady.  Traced runs compile the full grid once untraced and once
    # traced, for compile_s and the program counts.
    TRACED = {"widths": reference.GRID_WIDTHS}

    CHECK_LANES = 64  # seeded lanes run per program, after the corner lanes

    def __init__(self, seed: int, widths=(4, 8)):
        self.seed = seed
        self.checked = {}  # (kind, width, commands) -> lanes match the reference
        self.cells = [(k, w) for k in reference.GRID_KINDS for w in widths]
        self.items = len(self.cells)

    def prepare(self, compiled):
        pass

    def run_pass(self, tracer):
        out = {}
        for kind, width in self.cells:
            with tracer.span("oplib.compile_op"):
                try:
                    out[kind, width] = compile_program(kind, width)
                except PumError as e:
                    out[kind, width] = e
        return out

    def check(self, out) -> tuple[int, int, float]:
        failed = 0
        verify_s = 0.0
        for (kind, width), c in out.items():
            if isinstance(c, PumError):
                failed += 1
                continue
            symbolic, seconds = programs.verify_timed(c)
            verify_s += seconds
            # rounds recompile the same cells; a program already run on its
            # lanes needs no second simulation
            key = (kind, width, c.program.commands)
            if key not in self.checked:
                rng = random.Random(f"{self.seed}:{kind}:{width}")
                self.checked[key] = programs.lanes_match(c, rng, self.CHECK_LANES)
            failed += not (symbolic and self.checked[key])
        return len(out), failed, verify_s

    def compiled_ops(self, out):
        return [c for c in out.values() if not isinstance(c, PumError)]


class Execute:
    """add32 and mul16 over `batches` batches of `lanes` seeded lanes each."""

    setup_programs = (("add", 32), ("mul", 16))
    TRACED = {}

    def __init__(self, seed: int, lanes: int, batches: int):
        self.seed = seed
        self.lanes = lanes
        self.batches = batches
        self.items = lanes * batches * len(self.setup_programs)
        self.compiled = []
        self.inputs = []  # per program: list of per-batch operand lists
        self.want = []    # per program: list of per-batch expected outputs

    def prepare(self, compiled):
        self.compiled = compiled
        n = self.lanes * self.batches
        for c in compiled:
            rng = random.Random(f"{self.seed}:{c.kind}:{c.width}")
            cases = reference.lane_cases(c.kind, c.width, rng, 0)
            cases += reference.random_cases(c.kind, c.width, rng, n - len(cases))
            chunks = [cases[i:i + self.lanes] for i in range(0, n, self.lanes)]
            self.inputs.append([reference.operand_lists(ch) for ch in chunks])
            self.want.append([[reference.expected(c.kind, c.width, case) for case in ch]
                              for ch in chunks])

    def run_pass(self, tracer):
        out = []
        for c, batches in zip(self.compiled, self.inputs):
            results = []
            for operands in batches:
                with tracer.span("oplib.execute_op"):
                    try:
                        results.append(execute_op(c, operands))
                    except PumError as e:
                        results.append(e)
            out.append(results)
        return out

    def check(self, out) -> tuple[int, int, float]:
        failed = 0
        for results, wants in zip(out, self.want):
            for got, want in zip(results, wants):
                if isinstance(got, PumError):
                    failed += len(want)
                else:
                    failed += sum(g != w for g, w in zip(got, want))
                    failed += abs(len(got) - len(want))
        verify_s = 0.0
        for c in self.compiled:
            symbolic, seconds = programs.verify_timed(c)
            verify_s += seconds
            if not symbolic:
                failed += self.lanes * self.batches
        return self.items, failed, verify_s

    def compiled_ops(self, out):
        return self.compiled


class ExecuteWide(Execute):
    # 4096 lanes rather than a full 65536-column row: one call then takes
    # about 0.1 s instead of about 3.5 s, so a run repeats each call often
    # enough to time it steadily.
    name = "execute-wide"
    SMOKE = {"lanes": 256}

    def __init__(self, seed: int, lanes: int = 4096):
        super().__init__(seed, lanes, batches=1)


class ExecuteNarrow(Execute):
    name = "execute-narrow"
    SMOKE = {"batches": 2}

    def __init__(self, seed: int, batches: int = 16):
        super().__init__(seed, lanes=64, batches=batches)


class Classify:
    """Label CSVs whose records come in equal shares from the six classes.

    The records are split into FILES files, one label_csv call each, so
    that every call is short enough to repeat within a run.
    """

    name = "classify"
    setup_programs = ()
    SMOKE = {"records": 600}
    TRACED = {}

    FILES = 10

    def __init__(self, seed: int, records: int = 10000):
        rng = random.Random(seed)
        per_file = records // self.FILES
        self.files = [reference.metrics_csv(per_file, rng) for _ in range(self.FILES)]
        self.items = per_file * self.FILES

    def prepare(self, compiled):
        pass

    def run_pass(self, tracer):
        out = []
        for text, _ in self.files:
            with tracer.span("classifier.label_csv"):
                try:
                    out.append(label_csv(text))
                except PumError as e:
                    out.append(e)
        return out

    def check(self, out) -> tuple[int, int, float]:
        failed = 0
        for labelled, (_, labels) in zip(out, self.files):
            if isinstance(labelled, PumError):
                failed += len(labels)
                continue
            rows = list(csv.reader(io.StringIO(labelled)))
            col = rows[0].index("class") if rows and "class" in rows[0] else None
            got = [row[col] for row in rows[1:]] if col is not None else []
            failed += sum(g != w for g, w in zip(got, labels))
            failed += abs(len(labels) - len(got))
        return self.items, failed, 0.0

    def compiled_ops(self, out):
        return []


WORKLOADS = {w.name: w for w in (CompileGrid, ExecuteWide, ExecuteNarrow, Classify)}
