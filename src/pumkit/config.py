"""Run configuration loaded from `key = value` text files.

Keys are namespaced (`subarray.rows`, `cost.t_aap_ns`,
`classify.mpki_high`); '#' starts a comment.  Command-line `--set`
overrides are applied after the file.
"""

from __future__ import annotations

from typing import NamedTuple

from .classifier import Thresholds
from .codegen import SubarrayConfig
from .costmodel import CostParams
from .errors import ConfigError
from .logic import _is_canonical_number, _is_plain_float_text

# key -> (section, record field, type); defaults live in the records
_KEYS = {
    "subarray.rows": ("subarray", "total_rows", int),
    "subarray.columns": ("subarray", "columns", int),
    "subarray.data_rows": ("subarray", "data_row_count", int),
    **{f"cost.{f}": ("cost", f, float) for f in (
        "t_aap_ns", "t_tra_ns", "e_act_pj", "e_pre_pj", "transpose_ns_per_word")},
    "cost.banks": ("cost", "banks", int),
    **{f"classify.{f}": ("classify", f, float) for f in (
        "mpki_high", "locality_high", "ai_high", "lfmr_high", "trend_epsilon")},
}


class RunConfig(NamedTuple):
    subarray: SubarrayConfig
    cost: CostParams
    thresholds: Thresholds


def _parse_assignment(text: str, where: str) -> tuple[str, float | int]:
    """One `key = value` pair; `where` prefixes error messages."""
    if "=" not in text:
        raise ConfigError(f"{where}expected 'key = value'")
    key, _, val = text.partition("=")
    key, val = key.strip(), val.strip()
    if key not in _KEYS:
        raise ConfigError(f"{where}unknown key {key!r}")
    typ = _KEYS[key][2]
    if typ is int and not _is_canonical_number(val):
        raise ConfigError(f"{where}bad value for {key}: {val[:40]!r} is not "
                          "ASCII digits without a leading zero")
    if typ is float and not _is_plain_float_text(val):
        raise ConfigError(f"{where}bad value for {key}: {val[:40]!r} is not "
                          "a number in ASCII without underscores")
    try:
        return key, typ(val)
    except ValueError as e:
        raise ConfigError(f"{where}bad value for {key}: {e}") from e


def parse_config_text(text: str) -> dict[str, float | int]:
    values: dict[str, float | int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, val = _parse_assignment(line, f"line {lineno}: ")
            values[key] = val
    return values


def load_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    values: dict[str, float | int] = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    for item in overrides or []:
        key, val = _parse_assignment(item, f"override {item!r}: ")
        values[key] = val
    return build_config(values)


def build_config(values: dict[str, float | int]) -> RunConfig:
    """Record defaults, overridden by the keys present in `values`."""
    fields: dict[str, dict[str, float | int]] = {"subarray": {}, "cost": {}, "classify": {}}
    for key, val in values.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        section, name, typ = _KEYS[key]
        fields[section][name] = typ(val)
    sub = SubarrayConfig(**fields["subarray"])
    cost = CostParams(columns_per_subarray=sub.columns, **fields["cost"])
    return RunConfig(sub, cost, Thresholds(**fields["classify"]))
