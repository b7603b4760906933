"""The plain result records are NamedTuples, and `import pumkit` builds
neither templates nor more dataclasses than the records that need one."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import pumkit  # noqa: F401  (loads every submodule the import loads)
from pumkit.classifier import Recommendation
from pumkit.codegen import RowMap
from pumkit.costmodel import CompareResult, CostReport
from pumkit.logic import MajGraph
from pumkit.synthesis import RewriteRule, RuleCheck, SynthesisReport
from pumkit.transpose import VerticalBlock

SRC = Path(__file__).resolve().parent.parent / "src"

GRAPH = MajGraph(1, [], [-4])
RECORDS = [
    SynthesisReport(31, 12, 8, 5, 265, 116, (("adder_cell", 3), ("cse", 7))),
    RewriteRule("identity", GRAPH, GRAPH),
    RuleCheck("commute", True),
    RowMap(("D0",), ("D1",), 2, 10),
    VerticalBlock(0, 8, 64),
    CostReport(5800.0, 120000.0, 11299310344.827585, 40, 12, 116),
    CompareResult(0.5, None, 2.0, ("energy",)),
    Recommendation("neutral", "about even"),
]


def test_reprs_are_the_dataclass_ones():
    """The grid digest hashes `repr(report)`, so the NamedTuple repr must
    be the one the frozen dataclasses printed."""
    assert repr(RECORDS[0]) == (
        "SynthesisReport(node_count_before=31, node_count_after=12, depth_before=8, "
        "depth_after=5, estimated_activations_before=265, "
        "estimated_activations_after=116, rules_applied=(('adder_cell', 3), ('cse', 7)))")
    assert repr(RECORDS[5]) == (
        "CostReport(latency_ns=5800.0, energy_pj=120000.0, "
        "throughput_ops_per_s=11299310344.827585, aap_count=40, tra_count=12, "
        "total_activations=116)")


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_tuples(record):
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, 0)
    assert record == tuple(record)
    assert record[0] == getattr(record, first)


def test_import_runs_at_most_ten_dataclass_decorations():
    modules = [m for name, m in sys.modules.items()
               if name == "pumkit" or name.startswith("pumkit.")]
    decorated = {f"{m.__name__}.{v.__name__}" for m in modules for v in vars(m).values()
                 if isinstance(v, type) and v.__module__ == m.__name__
                 and dataclasses.is_dataclass(v)}
    if "pumkit.config" in sys.modules:  # `import pumkit` does not load it
        decorated.discard("pumkit.config.RunConfig")
    assert len(decorated) <= 10, sorted(decorated)


def test_import_still_loads_every_submodule_and_the_full_library():
    """The import's saving is work that no longer happens, not work moved
    to first use: a fresh interpreter's `import pumkit` loads the same
    submodules as before and leaves `_LIBRARY` complete."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pumkit; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('pumkit.')))); "
            "print(len(sys.modules['pumkit.synthesis']._LIBRARY))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    loaded, library = done.stdout.split("\n")[:2]
    assert set(loaded.split()) >= {
        f"pumkit.{name}" for name in ("classifier", "codegen", "costmodel", "errors", "logic",
                                      "oplib", "subarray", "synthesis", "templates",
                                      "transpose")}
    assert int(library) == 124
