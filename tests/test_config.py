import re

import pytest

from pumkit.classifier import Thresholds
from pumkit.codegen import SubarrayConfig
from pumkit.config import RunConfig, build_config, load_config, parse_config_text
from pumkit.costmodel import CostParams
from pumkit.errors import ConfigError, MetricsRangeError


def test_empty_config_is_the_dataclass_defaults():
    assert build_config({}) == RunConfig(SubarrayConfig(), CostParams(), Thresholds())


def test_cost_columns_follow_subarray_columns():
    cfg = build_config({"subarray.columns": 16, "cost.t_aap_ns": 5})
    assert cfg.subarray.columns == cfg.cost.columns_per_subarray == 16
    assert cfg.cost.t_aap_ns == 5.0 and cfg.cost.t_tra_ns == CostParams().t_tra_ns


def test_cost_columns_default_to_the_subarray_columns():
    assert CostParams().columns_per_subarray == SubarrayConfig().columns
    cfg = build_config({})
    assert cfg.cost.columns_per_subarray == cfg.subarray.columns


def test_overrides_parse_like_file_lines():
    text = "subarray.rows = 64\ncost.banks = 4\nclassify.mpki_high = 3.5\n"
    items = ["subarray.rows=64", "cost.banks = 4", "classify.mpki_high=3.5"]
    assert load_config(None, items) == build_config(parse_config_text(text))


@pytest.mark.parametrize("item, message", [
    ("subarray.rows", "expected 'key = value'"),
    ("subarray.banana=7", "unknown key"),
    ("cost.banks=many", "bad value for cost.banks"),
    ("subarray.rows=\u0665\u0661\u0662", "bad value for subarray.rows"),
    ("subarray.columns=6_4", "bad value for subarray.columns"),
    ("cost.t_aap_ns=1_0", "bad value for cost.t_aap_ns"),
    ("classify.mpki_high=\u0663", "bad value for classify.mpki_high"),
    ("cost.e_act_pj=1.\u0665", "bad value for cost.e_act_pj"),
    ("subarray.rows=999999999999999999", "subarray.rows.*65536-row limit"),
])
def test_bad_override_names_the_item(item, message):
    with pytest.raises(ConfigError, match=message):
        load_config(None, [item])


def test_subarray_rows_above_the_limit_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="65536-row limit"):
        SubarrayConfig(total_rows=10**18)
    assert SubarrayConfig(total_rows=65536).data_row_count == 65528
    path = tmp_path / "run.cfg"
    path.write_text("subarray.rows = 65537\n")
    with pytest.raises(ConfigError, match="subarray.rows"):
        load_config(str(path))


@pytest.mark.parametrize("field, bad", [
    (field, bad) for field in ("total_rows", "columns", "data_row_count")
    for bad in (64.0, 8.5, True, "64", None)
    if (field, bad) != ("data_row_count", None)  # None asks for the default
])
def test_subarray_fields_must_be_ints(field, bad):
    with pytest.raises(ConfigError, match=re.escape(f"{field} must be an int, got {bad!r}")):
        SubarrayConfig(**{field: bad})


def test_float_keys_take_ascii_spellings():
    cfg = load_config(None, ["cost.t_aap_ns=1e1", "classify.mpki_high = 2.5",
                             "cost.t_tra_ns=+7"])
    assert (cfg.cost.t_aap_ns, cfg.thresholds.mpki_high, cfg.cost.t_tra_ns) == \
        (10.0, 2.5, 7.0)
    with pytest.raises(ConfigError, match="line 2: bad value for cost.t_tra_ns"):
        parse_config_text("cost.t_aap_ns = 10\ncost.t_tra_ns = 4_9\n")


def test_unknown_key_rejected_by_build_config():
    with pytest.raises(ConfigError):
        build_config({"subarray.banana": 7})


@pytest.mark.parametrize("item, error, key", [
    ("cost.t_aap_ns=nan", ConfigError, "t_aap_ns"),
    ("cost.e_pre_pj=inf", ConfigError, "e_pre_pj"),
    ("classify.mpki_high=inf", MetricsRangeError, "mpki_high"),
    ("classify.trend_epsilon=nan", MetricsRangeError, "trend_epsilon"),
])
def test_non_finite_values_rejected_naming_the_key(tmp_path, item, error, key):
    with pytest.raises(error, match=f"{key} must be finite"):
        load_config(None, [item])
    path = tmp_path / "run.cfg"
    path.write_text(item.replace("=", " = ") + "\n")
    with pytest.raises(error, match=f"{key} must be finite"):
        load_config(str(path))
