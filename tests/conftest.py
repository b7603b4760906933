import functools
import random

import pytest

from pumkit.codegen import DEFAULT_SUBARRAY, SubarrayConfig
from pumkit.logic import EDGE_ONE, EDGE_ZERO, Gate, MajGraph, Netlist
from pumkit.oplib import compile_op

GATE_KINDS = ("AND", "OR", "XOR", "NOT")

_acceptance_lines: list[str] = []


def record_acceptance(line: str):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.line(line)


def compiled_op(kind, width, cfg=DEFAULT_SUBARRAY, effort=2, n_inputs=2):
    """`compile_op`, memoized for the whole test session, so tests that
    only read a compile share it.  The key leaves out `cfg.columns`, which
    compiling does not read, and tells 4 from 4.0 or True."""
    return _compile(kind, width, cfg.total_rows, cfg.data_row_count, effort, n_inputs)


@functools.lru_cache(maxsize=None, typed=True)
def _compile(kind, width, total_rows, data_row_count, effort, n_inputs):
    cfg = SubarrayConfig(total_rows=total_rows, data_row_count=data_row_count)
    return compile_op(kind, width, cfg, effort, n_inputs)


def random_majgraph(rng: random.Random, n_inputs: int = 4, n_nodes: int = 8,
                    n_outputs: int | None = None) -> MajGraph:
    refs = [EDGE_ZERO, EDGE_ONE] + [in_edge(i) for i in range(n_inputs)]
    nodes = []
    for k in range(n_nodes):
        nodes.append(tuple(
            rng.choice(refs) ^ (rng.random() < 0.3) for _ in range(3)
        ))
        refs.append(k << 1)
    n_out = n_outputs if n_outputs is not None else rng.randint(1, 3)
    outputs = [rng.choice(refs) ^ (rng.random() < 0.3) for _ in range(n_out)]
    return MajGraph(n_inputs, nodes, outputs)


def in_edge(i: int) -> int:
    """Packed edge of input i; gate or node j is edge j << 1."""
    return (-2 - i) << 1


def random_netlist(rng: random.Random, n_inputs: int = 4, n_gates: int = 10,
                   n_outputs: int | None = None) -> Netlist:
    refs = [EDGE_ZERO, EDGE_ONE] + [in_edge(i) for i in range(n_inputs)]
    gates = []
    for k in range(n_gates):
        kind = rng.choice(GATE_KINDS)
        arity = 1 if kind == "NOT" else 2
        gates.append(Gate(kind, tuple(rng.choice(refs) for _ in range(arity))))
        refs.append(k << 1)
    n_out = n_outputs if n_outputs is not None else rng.randint(1, 3)
    outputs = [rng.choice(refs) for _ in range(n_out)]
    return Netlist(n_inputs, gates, outputs)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xDA7A)
