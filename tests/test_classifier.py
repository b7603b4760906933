import csv

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pumkit import classifier
from pumkit.classifier import (
    BottleneckClass,
    MetricsRecord,
    Thresholds,
    classify,
    compute_lfmr,
    ingest_csv,
    label_csv,
    parse_metrics_csv,
    recommend,
)
from pumkit.errors import MetricsError, MetricsRangeError


def record(name="f", mpki=1.0, locality=0.5, ai=0.1, lfmr=None):
    return MetricsRecord(name, mpki, locality, ai, lfmr or {1: 0.5})


ARCHETYPES = {
    BottleneckClass.DRAM_BANDWIDTH_BOUND:
        record("stream", mpki=50, locality=0.03, ai=0.05,
               lfmr={1: 0.95, 16: 0.93}),
    BottleneckClass.DRAM_LATENCY_BOUND:
        record("chase", mpki=2, locality=0.05, ai=0.05,
               lfmr={1: 0.92, 16: 0.90}),
    BottleneckClass.L1L2_CACHE_CAPACITY:
        record("tile", mpki=2, locality=0.05, ai=0.05,
               lfmr={1: 0.90, 16: 0.30}),
    BottleneckClass.L3_CACHE_CONTENTION:
        record("share", mpki=3, locality=0.85, ai=0.05,
               lfmr={1: 0.20, 16: 0.50}),
    BottleneckClass.L1_CACHE_CAPACITY:
        record("hot", mpki=1, locality=0.90, ai=0.05,
               lfmr={1: 0.10, 16: 0.10}),
    BottleneckClass.COMPUTE_BOUND:
        record("dense", mpki=1, locality=0.80, ai=2.0,
               lfmr={1: 0.10, 16: 0.10}),
}


class TestLfmr:
    def test_plain_ratio(self):
        assert compute_lfmr(100, 1000) == 0.10

    def test_caches_ineffective(self):
        assert compute_lfmr(1000, 1000) == 1.0

    def test_inconsistent_counts(self):
        with pytest.raises(MetricsRangeError, match="inconsistent"):
            compute_lfmr(10, 5)

    def test_no_l1_misses(self):
        with pytest.raises(MetricsRangeError):
            compute_lfmr(0, 0)


class TestClassify:
    @pytest.mark.parametrize("expected", list(ARCHETYPES))
    def test_archetypes(self, expected):
        cls, rationale = classify(ARCHETYPES[expected])
        assert cls is expected
        assert rationale

    def test_six_archetypes_cover_six_classes(self):
        got = {classify(m)[0] for m in ARCHETYPES.values()}
        assert got == set(BottleneckClass)

    def test_high_locality_high_mpki_warns(self):
        cls, rationale = classify(record(mpki=50, locality=0.9))
        assert cls is BottleneckClass.DRAM_BANDWIDTH_BOUND
        assert "warning" in rationale

    def test_low_flat_lfmr_falls_back_to_cache_capacity(self):
        cls, _ = classify(record(mpki=2, locality=0.05,
                                 lfmr={1: 0.30, 16: 0.32}))
        assert cls is BottleneckClass.L1L2_CACHE_CAPACITY

    def test_deterministic(self):
        m = ARCHETYPES[BottleneckClass.COMPUTE_BOUND]
        assert classify(m) == classify(m)

    @given(
        mpki=st.floats(0, 1000, allow_nan=False),
        locality=st.floats(0, 1, allow_nan=False),
        ai=st.floats(0, 100, allow_nan=False),
        lfmr1=st.floats(0, 1, allow_nan=False),
        lfmr16=st.floats(0, 1, allow_nan=False),
    )
    def test_total_over_valid_records(self, mpki, locality, ai, lfmr1, lfmr16):
        m = MetricsRecord("f", mpki, locality, ai, {1: lfmr1, 16: lfmr16})
        cls, rationale = classify(m)
        assert isinstance(cls, BottleneckClass)
        assert rationale

    def test_boundary_stability(self):
        t = Thresholds()
        m = record(mpki=4.0, locality=0.05, ai=0.05, lfmr={1: 0.92, 16: 0.91})
        base = classify(m, t)[0]
        # perturb each metric by less than its distance to the nearest cutoff
        for delta in (-1.0, 1.0):
            assert classify(record(mpki=4.0 + delta, locality=0.05, ai=0.05,
                                   lfmr={1: 0.92, 16: 0.91}), t)[0] is base
        for delta in (-0.01, 0.01):
            assert classify(record(mpki=4.0, locality=0.05 + delta, ai=0.05,
                                   lfmr={1: 0.92, 16: 0.91}), t)[0] is base


class TestRecommend:
    def test_fixed_mapping(self):
        assert recommend(BottleneckClass.DRAM_BANDWIDTH_BOUND).label == "pnm-beneficial"
        assert recommend(BottleneckClass.DRAM_LATENCY_BOUND).label == "pnm-beneficial"
        assert (recommend(BottleneckClass.L1L2_CACHE_CAPACITY).label
                == "pnm-beneficial-at-low-core-counts")
        assert (recommend(BottleneckClass.L3_CACHE_CONTENTION).label
                == "pnm-cost-effective-vs-larger-l3")
        assert recommend(BottleneckClass.L1_CACHE_CAPACITY).label == "neutral"
        assert recommend(BottleneckClass.COMPUTE_BOUND).label == "pnm-harmful"


class TestRecordValidation:
    def test_locality_range(self):
        with pytest.raises(MetricsRangeError):
            record(locality=1.5)

    def test_negative_mpki(self):
        with pytest.raises(MetricsRangeError):
            record(mpki=-1)

    def test_lfmr_range(self):
        with pytest.raises(MetricsRangeError):
            record(lfmr={1: 1.2})

    @pytest.mark.parametrize("field, value", [
        ("mpki", float("nan")), ("mpki", float("inf")),
        ("ai", float("nan")), ("ai", float("inf")),
    ])
    def test_non_finite_metric_names_the_function(self, field, value):
        with pytest.raises(MetricsRangeError, match="^kern: .*finite"):
            record("kern", **{field: value})

    def test_needs_one_lfmr(self):
        with pytest.raises(MetricsRangeError):
            MetricsRecord("f", 1, 0.5, 0.1, {})

    def test_threshold_validation(self):
        with pytest.raises(MetricsRangeError):
            Thresholds(lfmr_high=1.5)

    @pytest.mark.parametrize("fields, match", [
        (("f", "1", 0.5, 0.1, {1: 0.5}), "llc_mpki must be a finite number >= 0, got '1'"),
        (("f", 1.0, None, 0.1, {1: 0.5}), "temporal_locality must be a number"),
        (("f", 1.0, 0.5, True, {1: 0.5}), "arithmetic_intensity must be a finite number"),
        (("f", 1.0, 0.5, 0.1, [(1, 0.5)]), "lfmr_by_cores must be a dict"),
        (("f", 1.0, 0.5, 0.1, {"1": 0.5}), "core counts .*ints >= 1, got '1'"),
        (("f", 1.0, 0.5, 0.1, {1.5: 0.5}), "core counts .*ints >= 1, got 1.5"),
        (("f", 1.0, 0.5, 0.1, {True: 0.5}), "core counts .*ints >= 1, got True"),
        (("f", 1.0, 0.5, 0.1, {0: 0.5}), "core counts .*ints >= 1, got 0"),
        (("f", 1.0, 0.5, 0.1, {1: 0.5, 16: 0.4, 8: 0.3}), "core counts .*ints >= 1, got 8"),
        (("f", 1.0, 0.5, 0.1, {1: "0.5"}), "LFMR@1 must be a number in"),
    ])
    def test_record_fields_must_be_numbers(self, fields, match):
        with pytest.raises(MetricsRangeError, match=f"^f: {match}"):
            MetricsRecord(*fields)

    def test_int_metrics_are_numbers(self):
        assert MetricsRecord("f", 1, 0, 0, {1: 1, 4: 0}).llc_mpki == 1

    @pytest.mark.parametrize("field, bad", [
        ("mpki_high", "3"), ("locality_high", None), ("ai_high", True),
        ("trend_epsilon", [0.1]),
    ])
    def test_thresholds_must_be_numbers(self, field, bad):
        with pytest.raises(MetricsRangeError, match=f"threshold {field} must be a number"):
            Thresholds(**{field: bad})


HEADER = "function,llc_mpki,temporal_locality,arithmetic_intensity,lfmr@1,lfmr@16"


class TestCsv:
    def test_ingest_valid_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            f"{HEADER}\n"
            "a,50,0.03,0.05,0.95,0.93\n"
            "b,2,0.05,0.05,0.92,0.90\n"
            "c,1,0.80,2.0,0.10,0.10\n"
        )
        records = ingest_csv(str(path))
        assert len(records) == 3
        assert records[0].lfmr_by_cores == {1: 0.95, 16: 0.93}

    def test_out_of_range_metric(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\na,1,1.5,0.05,0.5,0.5\n")
        with pytest.raises(MetricsRangeError, match="line 2"):
            ingest_csv(str(path))

    @pytest.mark.parametrize("row", ["a,nan,0.5,0.1,0.4,0.4", "a,1,0.5,inf,0.4,0.4"])
    def test_non_finite_metric_names_the_line(self, row):
        with pytest.raises(MetricsRangeError, match="line 3: a: .*finite"):
            parse_metrics_csv(f"{HEADER}\nb,1,0.5,0.1,0.4,0.4\n{row}\n")
        with pytest.raises(MetricsRangeError, match="line 2"):
            label_csv(f"{HEADER}\n{row}\n")

    @pytest.mark.parametrize("row, column", [
        ("a,1_0,0.5,0.1,0.4,0.4", "llc_mpki"),
        ("a,1,0.5,\u0661,0.4,0.4", "arithmetic_intensity"),
        ("a,1,0.5,0.1,0.4,0.\u0665", "lfmr@16"),
    ])
    @pytest.mark.parametrize("header, eol, line", [
        (HEADER, "\n", 2),
        (HEADER, "\r\n", 2),
        (HEADER.replace(",lfmr@16", ',"lfmr@16\n"'), "\n", 3),
    ], ids=["lf", "crlf", "line-break-in-header"])
    def test_non_ascii_or_underscored_number_names_the_line(self, row, column,
                                                            header, eol, line):
        with pytest.raises(MetricsError, match=f"line {line}: {column} "):
            parse_metrics_csv(f"{header}{eol}{row}{eol}b,1,0.5,0.1,0.4,0.4{eol}")

    def test_lone_cr_line_breaks_read_as_lf(self, monkeypatch):
        text = f"{HEADER}\na,50,0.03,0.05,0.95,0.93\n\nb,1,0.5,0.1,0.4,\n"
        want = parse_metrics_csv(text)
        def fail(*args):
            raise AssertionError("cell check ran on plain rows")
        monkeypatch.setattr(classifier, "_check_plain_numbers", fail)
        assert parse_metrics_csv(text.replace("\n", "\r")) == want
        assert len(want) == 2

    def test_oversized_cell_is_a_metrics_error(self):
        text = f"{HEADER}\nb,1,0.5,0.1,0.4,0.4\n{'f' * 200_000},1,0.5,0.1,0.4,0.4\n"
        with pytest.raises(MetricsError, match=r"^line 3: field larger than field limit"):
            parse_metrics_csv(text)

    def test_a_row_is_named_by_its_last_line(self):
        text = f'{HEADER}\n"fn\na",1,0.5,0.1,0.4,0.4\nb,1,0.5,0.1,0.4,1.5\n'
        with pytest.raises(MetricsRangeError, match="^line 4: b: "):
            parse_metrics_csv(text)
        with pytest.raises(MetricsError, match="^line 3: expected 6 fields"):
            parse_metrics_csv(f'{HEADER}\n"fn\na",1,0.5\n')

    def test_plain_rows_skip_the_cell_check(self, monkeypatch):
        def fail(*args):
            raise AssertionError("cell check ran on plain rows")
        monkeypatch.setattr(classifier, "_check_plain_numbers", fail)
        assert len(parse_metrics_csv(f"{HEADER}\nb,1,0.5,0.1,0.4,0.4\n")) == 1

    def test_names_may_hold_any_character(self):
        records = parse_metrics_csv(f"{HEADER}\ncaf\u00e9_fn,1,0.5,0.1,0.4,0.4\n")
        assert records[0].function_name == "caf\u00e9_fn"
        assert records[0].llc_mpki == 1.0

    def test_missing_lfmr_columns(self):
        with pytest.raises(MetricsError):
            parse_metrics_csv(
                "function,llc_mpki,temporal_locality,arithmetic_intensity\n"
            )

    def test_bad_header(self):
        with pytest.raises(MetricsError, match="bad header"):
            parse_metrics_csv("func,mpki\n")

    @pytest.mark.parametrize("col", ["lfmr@\u0663", "lfmr@+16"],
                             ids=["arabic-indic", "plus-sign"])
    def test_core_count_must_be_ascii_digits(self, col):
        with pytest.raises(MetricsError, match="bad header column"):
            parse_metrics_csv(f"{HEADER},{col}\n")

    def test_malformed_row(self):
        with pytest.raises(MetricsError, match="line 2"):
            parse_metrics_csv(f"{HEADER}\na,1,0.5\n")

    def test_blank_lfmr_cells_allowed(self):
        records = parse_metrics_csv(f"{HEADER}\na,1,0.5,0.1,0.4,\n")
        assert records[0].lfmr_by_cores == {1: 0.4}

    def test_label_csv_appends_columns(self):
        out = label_csv(f"{HEADER}\na,50,0.03,0.05,0.95,0.93\n")
        lines = out.splitlines()
        assert lines[0].endswith("class,recommendation,rationale")
        assert "dram-bandwidth-bound" in lines[1]
        assert "pnm-beneficial" in lines[1]

    def test_label_csv_empty(self):
        assert label_csv("") == ""

    def test_label_csv_reads_the_csv_once(self, monkeypatch):
        real, calls = csv.reader, []
        monkeypatch.setattr(csv, "reader", lambda *a, **k: calls.append(1) or real(*a, **k))
        out = label_csv(f"{HEADER}\n\na,50,0.03,0.05,0.95,0.93\nb,1,0.5,0.1,0.4,0.4\n")
        assert len(calls) == 1
        assert [line.split(",")[0] for line in out.splitlines()] == ["function", "a", "b"]

    def test_label_csv_builds_no_thresholds(self, monkeypatch):
        built = []
        real = Thresholds.__new__
        monkeypatch.setattr(Thresholds, "__new__",
                            lambda cls, *a, **k: built.append(1) or real(cls, *a, **k))
        rows = "".join(f"f{i},1,0.5,0.1,0.4,0.4\n" for i in range(1000))
        assert len(label_csv(f"{HEADER}\n{rows}").splitlines()) == 1001
        assert built == []

    def test_parse_metrics_csv_hands_back_the_rows_it_read(self):
        rows = []
        records = parse_metrics_csv(f"{HEADER}\n\na, 1,0.5,0.1,0.4,\n", rows=rows)
        assert rows == [HEADER.split(","), ["a", " 1", "0.5", "0.1", "0.4", ""]]
        assert records[0].llc_mpki == 1.0
