"""The records are NamedTuples or `__slots__` classes, and `import
pumkit` builds neither templates nor any dataclass but `CompiledOp`."""

import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import pumkit  # noqa: F401  (loads every submodule the import loads)
import pumkit.config  # `import pumkit` does not load it
from pumkit.classifier import MetricsRecord, Recommendation, Thresholds
from pumkit.codegen import (DEFAULT_SUBARRAY, Command, MicroProgram, RowMap, SubarrayConfig,
                            lower)
from pumkit.config import RunConfig
from pumkit.costmodel import CompareResult, CostParams, CostReport
from pumkit.errors import (CapacityError, ConfigError, Frozen, MetricsRangeError,
                           MicroProgramError, Validated)
from pumkit.logic import Circuit, Gate, MajGraph, Netlist, TruthTable
from pumkit.subarray import ExecutionReport
from pumkit.synthesis import _ADDER_CELL, RewriteRule, RuleCheck, SynthesisReport, _Template
from pumkit.transpose import HorizontalBlock, VerticalBlock, from_rows

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


def _decorated(modules) -> set[str]:
    return {f"{m.__name__}.{v.__name__}" for m in modules for v in vars(m).values()
            if isinstance(v, type) and v.__module__ == m.__name__
            and dataclasses.is_dataclass(v)}


def test_import_decorates_only_compiled_op():
    """`perfbench/tests` calls `dataclasses.replace` on a `CompiledOp`, so
    it alone stays a dataclass, here with `pumkit.config` loaded too, and
    in a fresh interpreter's `import pumkit`."""
    modules = [m for name, m in sys.modules.items()
               if name == "pumkit" or name.startswith("pumkit.")]
    assert pumkit.config in modules
    assert _decorated(modules) == {"pumkit.oplib.CompiledOp"}
    code = ("import dataclasses, sys; sys.path.insert(0, sys.argv[1]); import pumkit; "
            "print(sorted(f'{m.__name__}.{v.__name__}' for n, m in list(sys.modules.items()) "
            "if n.startswith('pumkit') for v in vars(m).values() if isinstance(v, type) "
            "and v.__module__ == m.__name__ and dataclasses.is_dataclass(v)))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == "['pumkit.oplib.CompiledOp']"


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


# --- the records that were dataclasses -----------------------------------------

PROGRAM = MicroProgram("x", 3, 1, (Command("AAP", ("D0", "T0")),))
CONFIG = SubarrayConfig(64, 16)
CONVERTED = {
    TruthTable(2, (8,)): "TruthTable(input_count=2, masks=(8,))",
    CONFIG: "SubarrayConfig(total_rows=64, columns=16, data_row_count=56)",
    PROGRAM: ("MicroProgram(name='x', width=3, data_rows=1, "
              "commands=(Command(op='AAP', rows=('D0', 'T0')),), lines=None)"),
    _ADDER_CELL: ("_Template(name='adder_cell', cost=3, "
                  "nodes=((-8, -6, -4), (-7, -6, -4), (-8, 1, 2)), out=4)"),
    HorizontalBlock((1, 2, 3), 4): "HorizontalBlock(values=(1, 2, 3), bit_width=4)",
    CostParams(banks=2): (
        "CostParams(t_aap_ns=100.0, t_tra_ns=150.0, e_act_pj=900.0, e_pre_pj=300.0, "
        "transpose_ns_per_word=10.0, banks=2, columns_per_subarray=65536)"),
    Thresholds(mpki_high=3.5): (
        "Thresholds(mpki_high=3.5, locality_high=0.1, ai_high=0.25, lfmr_high=0.7, "
        "trend_epsilon=0.05)"),
    RunConfig(CONFIG, CostParams(), Thresholds()): (
        "RunConfig(subarray=SubarrayConfig(total_rows=64, columns=16, data_row_count=56), "
        "cost=CostParams(t_aap_ns=100.0, t_tra_ns=150.0, e_act_pj=900.0, e_pre_pj=300.0, "
        "transpose_ns_per_word=10.0, banks=1, columns_per_subarray=65536), "
        "thresholds=Thresholds(mpki_high=10.0, locality_high=0.1, ai_high=0.25, "
        "lfmr_high=0.7, trend_epsilon=0.05))"),
}
# unhashable, so kept out of the dict above
METRICS = MetricsRecord("f", 1.0, 0.5, 0.1, {1: 0.5, 16: 0.25})
METRICS_REPR = ("MetricsRecord(function_name='f', llc_mpki=1.0, temporal_locality=0.5, "
                "arithmetic_intensity=0.1, lfmr_by_cores={1: 0.5, 16: 0.25})")
FROZEN = [*CONVERTED, METRICS]
frozen_ids = [type(r).__name__ for r in FROZEN]
_SLOTTED = (TruthTable, _Template)  # the `__slots__` classes; the rest are NamedTuples


@pytest.mark.parametrize("record, want", [*CONVERTED.items(), (METRICS, METRICS_REPR),
                                          (ExecutionReport(3, 2),
                                           "ExecutionReport(aap_count=3, tra_count=2)")],
                         ids=[*frozen_ids, "ExecutionReport"])
def test_converted_reprs_are_the_dataclass_ones(record, want):
    """The strings the dataclasses printed (the grid digest hashes reprs)."""
    assert repr(record) == want


@pytest.mark.parametrize("record", FROZEN, ids=frozen_ids)
def test_converted_records_refuse_assignment(record):
    name = type(record).__slots__[0] if isinstance(record, _SLOTTED) else record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        setattr(record, "extra", 0)
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_execution_report_stays_mutable_and_unhashable():
    report = ExecutionReport()
    report.aap_count += 2
    assert report == ExecutionReport(2, 0) != ExecutionReport(2, 1)
    assert report.total_activations == 4
    with pytest.raises(TypeError):
        hash(report)


def test_templates_compare_by_identity():
    twin = _Template(*(getattr(_ADDER_CELL, f) for f in _Template.__slots__))
    assert twin != _ADDER_CELL and repr(twin) == repr(_ADDER_CELL)
    assert hash(twin) != hash(_ADDER_CELL)


@pytest.mark.parametrize("record, change, error", [
    (DEFAULT_SUBARRAY, {"columns": 0}, ConfigError),
    (DEFAULT_SUBARRAY, {"total_rows": 8}, ConfigError),
    (PROGRAM, {"width": 0}, MicroProgramError),
    (PROGRAM, {"data_rows": -1}, MicroProgramError),
    (HorizontalBlock((1, 2, 3), 4), {"bit_width": 1}, CapacityError),
    (CostParams(), {"banks": 0}, ConfigError),
    (Thresholds(), {"lfmr_high": 1.5}, MetricsRangeError),
    (METRICS, {"llc_mpki": -1.0}, MetricsRangeError),
], ids=["columns", "total_rows", "width", "data_rows", "bit_width", "banks", "lfmr_high",
        "llc_mpki"])
def test_replace_re_validates(record, change, error):
    with pytest.raises(error):
        record._replace(**change)
    with pytest.raises(error):
        type(record)._make({**record._asdict(), **change}.values())


def test_replace_keeps_fields_and_derives_data_rows_only_when_asked():
    assert DEFAULT_SUBARRAY._replace(columns=2) == SubarrayConfig(512, 2, 504)
    assert CONFIG._replace(total_rows=128) == SubarrayConfig(128, 16, 56)
    assert CONFIG._replace(data_row_count=None) == CONFIG


def test_caches_are_not_fields():
    """Equality, hashing and `_replace` ignore the lowering cache and the
    packed bytes; `_replace` leaves the cache behind."""
    program = MicroProgram(*PROGRAM)
    lower(program, CONFIG)
    assert list(program._lowered) == [(64, 56)] and PROGRAM._lowered is None
    assert program == PROGRAM and hash(program) == hash(PROGRAM)
    assert program._replace(name="y")._lowered is None
    assert program._replace()._lowered is None
    block = HorizontalBlock((1, 2, 3), 4)
    rebuilt = from_rows(block.rows(), 4, 3)
    assert rebuilt == block and hash(rebuilt) == hash(block)
    assert rebuilt._packed == block._packed
    assert block._replace(values=(4, 5))._packed == HorizontalBlock((4, 5), 4)._packed


@pytest.mark.parametrize("record", [*FROZEN, ExecutionReport(3, 2)],
                         ids=[*frozen_ids, "ExecutionReport"])
def test_converted_records_pickle(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and repr(back) == repr(record)
    if not isinstance(record, _Template):  # equal by identity only
        assert back == record


def test_program_pickles_without_its_lowering():
    program = MicroProgram(*PROGRAM)
    lower(program, CONFIG)
    back = pickle.loads(pickle.dumps(program))
    assert back == program and back._lowered is None
    block = pickle.loads(pickle.dumps(HorizontalBlock((1, 2, 3), 4)))
    assert block._packed == HorizontalBlock((1, 2, 3), 4)._packed


# --- every Frozen record -------------------------------------------------------

# one of each record class on the `Frozen` base
SAMPLES = [*(r for r in FROZEN if isinstance(r, Frozen)), GRAPH,
           Netlist(2, [Gate("AND", (-4, -6))], [0])]


def _subclasses(cls) -> set[type]:
    found = set(cls.__subclasses__())
    return found.union(*map(_subclasses, found))


def test_every_frozen_record_is_sampled():
    """A record added later on `Frozen` must join `SAMPLES`, and so the
    checks below; `Validated` and `Circuit` are bases, not records."""
    loaded = {c for c in _subclasses(Frozen) if c.__module__.split(".")[0] == "pumkit"}
    assert loaded == {type(r) for r in SAMPLES} | {Validated, Circuit}


@pytest.mark.parametrize("record", SAMPLES, ids=[type(r).__name__ for r in SAMPLES])
def test_frozen_records_refuse_changes_and_pickle(record):
    fields = [getattr(record, name) for name in record._fields]
    for name, value in zip(record._fields, fields):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert [getattr(back, name) for name in record._fields] == fields
    if type(record).__repr__ is not object.__repr__:  # a circuit's repr is its address
        assert repr(back) == repr(record)
    if type(record).__eq__ is not object.__eq__:  # else equal by identity only
        assert back == record
