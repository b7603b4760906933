"""Analytical latency/energy/throughput accounting for command programs.

All numeric defaults are placeholders for relative comparisons between
programs; none are calibrated against hardware.  Absolute platform
comparisons are explicitly out of scope.

Accounting: each command contributes its per-command latency; energy
charges one activation per row touched (`codegen.row_activations`) plus
one precharge per command.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .codegen import DEFAULT_SUBARRAY, MicroProgram, activation_count
from .errors import ConfigError, Validated

NOT_CALIBRATED = "analytical estimate with placeholder parameters; not hardware-calibrated"


class _CostFields(NamedTuple):
    t_aap_ns: float = 100.0
    t_tra_ns: float = 150.0
    e_act_pj: float = 900.0
    e_pre_pj: float = 300.0
    transpose_ns_per_word: float = 10.0
    banks: int = 1
    columns_per_subarray: int = DEFAULT_SUBARRAY.columns


_COUNTS = ("banks", "columns_per_subarray")


class CostParams(Validated, _CostFields):
    """Per-command latencies and energies, the layout-conversion cost per
    word, and the columns working in parallel: finite positive numbers,
    of which the two counts are ints."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _CostFields.__new__(cls, *args, **kwargs)
        for name, value in zip(cls._fields, self):
            if name in _COUNTS:
                if type(value) is not int or value < 1:  # a bool is not one
                    raise ConfigError(
                        f"cost parameter {name} must be an int >= 1, got {value!r:.40}")
            elif type(value) not in (float, int):
                raise ConfigError(f"cost parameter {name} must be a number, got {value!r:.40}")
            elif not 0 < value < math.inf:
                raise ConfigError(f"cost parameter {name} must be finite and strictly positive")
        return self


DEFAULT_COST = CostParams()


class CostReport(NamedTuple):
    latency_ns: float
    energy_pj: float
    throughput_ops_per_s: float
    aap_count: int
    tra_count: int
    total_activations: int

    def render(self) -> str:
        return (
            f"latency:     {self.latency_ns:.1f} ns\n"
            f"energy:      {self.energy_pj:.1f} pJ\n"
            f"throughput:  {self.throughput_ops_per_s:.3e} ops/s\n"
            f"commands:    {self.aap_count} AAP + {self.tra_count} TRA "
            f"({self.total_activations} activations)\n"
            f"note:        {NOT_CALIBRATED}"
        )


def transpose_cost_ns(word_count: int, params: CostParams = DEFAULT_COST) -> float:
    """Layout-conversion overhead for moving `word_count` operand words."""
    return word_count * params.transpose_ns_per_word


def estimate(program: MicroProgram, params: CostParams = DEFAULT_COST) -> CostReport:
    """Linear per-command cost roll-up for one program."""
    counts = activation_count(program)
    latency = counts.aap * params.t_aap_ns + counts.tra * params.t_tra_ns
    energy = (counts.total * params.e_act_pj
              + (counts.aap + counts.tra) * params.e_pre_pj)
    if latency > 0:
        throughput = params.banks * params.columns_per_subarray / (latency * 1e-9)
    else:
        throughput = float("inf")
    return CostReport(latency, energy, throughput,
                      counts.aap, counts.tra, counts.total)


class CompareResult(NamedTuple):
    """Elementwise ratios of report `a` relative to report `b`."""

    latency_ratio: float | None
    energy_ratio: float | None
    throughput_ratio: float | None
    undefined: tuple[str, ...]


def compare(a: CostReport, b: CostReport) -> CompareResult:
    undefined = []

    def ratio(x: float, y: float, name: str) -> float | None:
        if y == 0 or y != y or y == float("inf"):
            undefined.append(name)
            return None
        return x / y

    lat = ratio(a.latency_ns, b.latency_ns, "latency")
    en = ratio(a.energy_pj, b.energy_pj, "energy")
    thr = ratio(a.throughput_ops_per_s, b.throughput_ops_per_s, "throughput")
    return CompareResult(lat, en, thr, tuple(undefined))
