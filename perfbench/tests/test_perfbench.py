"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys

import pytest

from perfbench import run  # first: puts src/ on sys.path
from perfbench import programs, reference, tracing, workloads

import pumkit
from pumkit import oplib
from pumkit.codegen import MicroProgram, activation_count

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _originals():
    out = {}
    for path, attr, name, _, _ in tracing.HOOKS:
        out[name] = getattr(tracing._owner(path), attr)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_smoke_emits_every_metric(name, trace):
    before = _originals()
    result = run.run(name, seed=3, seconds=0.01, trace=trace, smoke=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # the traced run puts every wrapped function back
    assert _originals() == before


def test_aap_purposes_sum_to_activation_count():
    compiled = workloads.compile_program("add", 8)
    m = programs.program_metrics([compiled])
    act = activation_count(compiled.program)
    assert sum(m[f"codegen.aap.{p}"] for p in programs.PURPOSES) == act.aap == m["codegen.aap"]
    assert m["activations"] == act.total == m["codegen.act.add.8"]
    assert 2 * m["codegen.aap"] + 3 * m["codegen.tra"] == m["activations"]


def _drop_one_tra(compiled):
    cmds = list(compiled.program.commands)
    i = max(k for k, c in enumerate(cmds) if c.op == "TRA")
    program = MicroProgram(compiled.program.name, compiled.program.width,
                           compiled.program.data_rows, tuple(cmds[:i] + cmds[i + 1:]))
    return dataclasses.replace(compiled, program=program)


def test_broken_program_is_counted_failed():
    good = workloads.compile_program("add", 8)
    broken = _drop_one_tra(good)
    assert programs.verify_timed(good)[0]
    assert programs.lanes_match(good, random.Random(0), 32)
    assert not programs.verify_timed(broken)[0]
    assert not programs.lanes_match(broken, random.Random(0), 32)

    grid = workloads.CompileGrid(seed=0)
    assert grid.check({("add", 8): good})[1] == 0
    assert grid.check({("add", 8): broken})[1] == 1

    wl = workloads.ExecuteNarrow(seed=0, batches=2)
    wl.prepare([broken])
    _, failed, _ = wl.check(wl.run_pass(tracing.Tracer()))
    assert failed > 0


def test_missing_hook_is_reported_absent(monkeypatch):
    monkeypatch.delattr(pumkit.synthesis, "estimate_cost_static")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert "codegen.objective" in tracer.missing
    m = run.layer_metrics(tracer)
    assert "codegen.objective_s" not in m and "codegen.objective_calls" not in m
    assert "codegen.schedule_s" in m


def test_wrappers_restored_after_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            assert oplib.build_netlist is not before["oplib.build_netlist"]
            raise RuntimeError
    assert _originals() == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["root", 0.0, 10.0, -1], ["child", 1.0, 4.0, 0], ["child", 5.0, 6.0, 0]]
    total, own, calls, share = tracer.summary()
    assert own["root"] == 6.0 and total["child"] == 4.0 and calls["child"] == 2
    assert share == 0.4


def test_calibration_brackets_root_spans_only():
    tracer = tracing.Tracer(calibrate=True)
    for _ in range(3):
        with tracer.span("root"):
            with tracer.span("child"):
                pass
    assert len(tracer.cal) == 3 and all(c > 0 for c in tracer.cal)
    assert tracing.Tracer().cal == []


def test_classifier_records_fall_in_their_class():
    text, labels = reference.metrics_csv(300, random.Random(5))
    records = pumkit.classifier.parse_metrics_csv(text)
    assert [pumkit.classify(r)[0].value for r in records] == labels
    assert {labels.count(c) for c in reference.CLASSES} == {50}


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
