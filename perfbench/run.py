"""pumkit benchmark: one workload per process, seeded, checked, timed.

    python3 perfbench/run.py --workload compile-grid --seed 1 --seconds 10 --trace 0

Run from anywhere; pumkit is imported from `src/` next to this directory.
With `--trace 0` it prints the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-layer ones: a second, traced set of passes wraps the
layer-boundary functions and attributes its time to spans.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

A run repeats whole passes over the workload's inputs until `--seconds`
have passed (at least one pass) and reports the pass time in calibration
units: each call's time over that of a fixed routine timed around it,
which cancels the slowdowns other tenants of a shared host cause (see
`measure`).  Between passes it sets up again now and then (a fresh
interpreter importing pumkit, plus compiling the programs the workload
executes), at least SETUPS times in all, times set-ups the same way and
reports them in seconds at the run's quickest calibration time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import programs, tracing, workloads  # noqa: E402

SETUPS = 5          # set-ups per run, at least
SETUP_SHARE = 0.2   # between passes, set up again while set-ups have taken
                    # less than this share of the run so far

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import pumkit\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Time `import pumkit` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-I", "-c", _IMPORT_TIMER, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


class SetUps:
    """Set-ups spread over a run.  A set-up is `import pumkit` in a fresh
    interpreter, plus compiling the programs the workload executes.

    Each part of a set-up, the import and each program's compile, is timed
    between two calibration timings, as each unit of a pass is (see
    `measure`).  Spreading set-ups between the passes gives them the same
    spells of a shared host that the passes get.
    """

    def __init__(self, workload):
        self.workload = workload
        self.parts = []  # per set-up: (seconds, calibration seconds) of each part
        self.spent = 0.0
        self.start = time.perf_counter()

    def once(self) -> list:
        """Set up once; returns the compiled programs."""
        t = time.perf_counter()
        compiled = []

        def timed_compile(kind, width):
            t0 = time.perf_counter()
            compiled.append(workloads.compile_program(kind, width))
            return time.perf_counter() - t0

        steps = [import_seconds] + [functools.partial(timed_compile, kind, width)
                                    for kind, width in self.workload.setup_programs]
        parts = []
        before = tracing.calibration_seconds()
        for step in steps:
            seconds = step()
            after = tracing.calibration_seconds()
            parts.append((seconds, (before + after) / 2))
            before = after
        self.parts.append(parts)
        self.spent += time.perf_counter() - t
        return compiled

    def due(self):
        """Set up again if set-ups are behind their share of the run."""
        if self.spent < SETUP_SHARE * (time.perf_counter() - self.start):
            self.once()

    def seconds(self, at_least: int, calibrations: list[float]) -> tuple[float, float]:
        """(set-up seconds, compile seconds) after at least `at_least` set-ups.

        Each part counts with the median over set-ups of its time over the
        calibration time around it, converted back to seconds at the
        quickest calibration time of the run: the set-ups' own and the
        passes' `calibrations`.
        """
        while len(self.parts) < at_least:
            self.once()
        quickest = min([c for parts in self.parts for _, c in parts] + calibrations)
        ratios = [statistics.median(t / c for t, c in part) for part in zip(*self.parts)]
        return sum(ratios) * quickest, sum(ratios[1:]) * quickest


def measure(workload, seconds: float, traced: bool, between=lambda: None):
    """Whole rounds over the workload's inputs until `seconds` have elapsed
    (at least one); checks every round and calls `between` after each one
    that ends before the deadline.

    Returns the rounds' tracers and verify seconds, the counts, the last
    round's output, and two pass figures over the units of a pass (a root
    span: one compile_op, execute_op or label_csv call):

    * seconds: each unit counts with its fastest time;
    * untraced only, calibrated: each unit counts with the median over
      rounds of its time divided by the calibration time around it.

    Other tenants of a shared host slow a run down for seconds to minutes
    at a time, and the fastest time of a unit longer than a few
    milliseconds still carries that slowdown; the calibration routine,
    timed right before and after the unit, carries it too, so their ratio
    does not.
    """
    rounds = []  # (tracer, verify seconds)
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        tracer = tracing.Tracer(calibrate=not traced)
        out = None  # let the previous round's output go before the next
        with tracer.installed() if traced else contextlib.nullcontext():
            out = workload.run_pass(tracer)
        a, f, verify_s = workload.check(out)
        attempted += a
        failed += f
        rounds.append((tracer, verify_s))
        if time.perf_counter() < deadline:
            between()
    units = list(zip(*([end - start for _, start, end, parent in t.spans if parent < 0]
                       for t, _ in rounds)))
    best = sum(min(times) for times in units)
    calibrated = None
    if not traced:
        cals = list(zip(*(t.cal for t, _ in rounds)))
        calibrated = sum(statistics.median(t / c for t, c in zip(times, cal))
                         for times, cal in zip(units, cals))
    return rounds, attempted, failed, out, best, calibrated


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer seconds and counts of one traced pass.

    A hook whose function no longer exists leaves its metrics out.
    """
    total, own, calls, share = tracer.summary()
    m = {"trace.attributed_share": share,
         "oplib.compile_self_s": own.get("oplib.compile_op", 0.0),
         "oplib.execute_self_s": own.get("oplib.execute_op", 0.0),
         "classifier.label_self_s": own.get("classifier.label_csv", 0.0)}
    spans = {
        "oplib.build_netlist_s": ("oplib.build_netlist", total),
        "oplib.oracle_s": ("oplib.oracle", total),
        "synthesis.lower_s": ("synthesis.lower", total),
        "synthesis.optimize_self_s": ("synthesis.optimize", own),
        "codegen.objective_s": ("codegen.objective", total),
        "codegen.objective_calls": ("codegen.objective", calls),
        "codegen.allocate_s": ("codegen.allocate", total),
        "codegen.schedule_s": ("codegen.schedule", total),
        "transpose.to_vertical_s": ("transpose.to_vertical", total),
        "transpose.to_horizontal_s": ("transpose.to_horizontal", total),
        "subarray.run_s": ("subarray.run", total),
        "classifier.parse_s": ("classifier.parse", total),
        "classifier.classify_s": ("classifier.classify", total),
    }
    for metric, (span, table) in spans.items():
        if span in tracer.hooked:
            m[metric] = table.get(span, 0)
    for counter, span in (("transpose.bits", "transpose.to_vertical"),
                          ("subarray.commands", "subarray.run")):
        if span in tracer.hooked:
            m[counter] = tracer.counts.get(counter, 0)
    return m


def _median_by_key(dicts: list[dict]) -> dict:
    keys = set.intersection(*(set(d) for d in dicts))
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object printed as JSON."""
    cls = workloads.WORKLOADS[name]
    workload = cls(seed, **(cls.SMOKE if smoke else cls.TRACED if trace else {}))
    setups = SetUps(workload)
    workload.prepare(setups.once())

    # A traced run measures twice, untraced then traced, each for a quarter
    # of `seconds`: per-layer figures have no bound to hold, and a full-grid
    # compile-grid pass takes about 30 s.
    measure_s = seconds / 4 if trace else seconds
    rounds, attempted, failed, out, pass_s, pass_cal = measure(
        workload, measure_s, traced=False, between=setups.due)
    setup_s, compile_setup_s = setups.seconds(1 if smoke else SETUPS,
                                              [c for t, _ in rounds for c in t.cal])
    values = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "pass_cal": pass_cal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        traced, a, f, _, traced_s, _ = measure(workload, measure_s, traced=True)
        attempted += a
        failed += f
        values.update(_median_by_key([layer_metrics(t) for t, _ in traced]))
        values.update(programs.program_metrics(workload.compiled_ops(out)))
        values["trace.overhead_s"] = traced_s - pass_s
        values["codegen.verify_program_s"] = statistics.median(v for _, v in rounds)
        rate = workload.items / pass_s
        values["compile_s"] = pass_s if name == "compile-grid" else compile_setup_s
        values["execute_lanes_per_s"] = rate if name.startswith("execute") else 0.0
        values["classify_records_per_s"] = rate if name == "classify" else 0.0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{args.workload:15} {name:32} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
