"""Data-movement bottleneck classification from profiling metrics.

Each function record carries four architecture-level metrics: last-level
cache misses per kilo-instruction, a temporal-locality score, arithmetic
intensity, and the last-to-first miss ratio (LLC misses over L1 misses)
measured at one or more core counts.  A threshold decision tree maps the
record onto one of six bottleneck classes and a suitability label for
offloading to near-memory compute.

The tree and its default thresholds are a reconstruction: the class
definitions are taken as given, the exact cutoffs are configurable and
should be recalibrated against local profiling data before drawing
research conclusions.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import re
from typing import NamedTuple

from .errors import MetricsError, MetricsRangeError, Validated
from .logic import _is_canonical_number, _is_plain_float_text


# the types a metric or threshold may have; a bool is not a number here
_REAL = (float, int)


class BottleneckClass(enum.Enum):
    DRAM_BANDWIDTH_BOUND = "dram-bandwidth-bound"
    DRAM_LATENCY_BOUND = "dram-latency-bound"
    L1L2_CACHE_CAPACITY = "l1l2-cache-capacity"
    L3_CACHE_CONTENTION = "l3-cache-contention"
    L1_CACHE_CAPACITY = "l1-cache-capacity"
    COMPUTE_BOUND = "compute-bound"


class _ThresholdFields(NamedTuple):
    mpki_high: float = 10.0
    locality_high: float = 0.1
    ai_high: float = 0.25
    lfmr_high: float = 0.7
    trend_epsilon: float = 0.05


_FRACTIONS = ("locality_high", "lfmr_high")


class Thresholds(Validated, _ThresholdFields):
    """The decision tree's cuts: finite positive numbers, the locality
    and LFMR ones below 1."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _ThresholdFields.__new__(cls, *args, **kwargs)
        for name, value in zip(cls._fields, self):
            if type(value) not in _REAL:
                raise MetricsRangeError(f"threshold {name} must be a number, got {value!r:.40}")
            if not 0 < value < math.inf:
                raise MetricsRangeError(f"threshold {name} must be finite and positive")
            if name in _FRACTIONS and not value < 1:
                raise MetricsRangeError(f"threshold {name} must lie in (0,1)")
        return self


DEFAULT_THRESHOLDS = Thresholds()


class _MetricsFields(NamedTuple):
    function_name: str
    llc_mpki: float
    temporal_locality: float
    arithmetic_intensity: float
    lfmr_by_cores: dict[int, float]


class MetricsRecord(Validated, _MetricsFields):
    """One profiled function: finite non-negative metrics, the locality a
    fraction, and LFMR fractions keyed by strictly increasing core counts,
    each an int >= 1."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _MetricsFields.__new__(cls, *args, **kwargs)
        name, mpki, locality, ai, lfmr = self
        if type(mpki) not in _REAL or not 0 <= mpki < math.inf:
            raise MetricsRangeError(
                f"{name}: llc_mpki must be a finite number >= 0, got {mpki!r:.40}")
        if type(locality) not in _REAL or not 0 <= locality <= 1:
            raise MetricsRangeError(
                f"{name}: temporal_locality must be a number in [0,1], got {locality!r:.40}")
        if type(ai) not in _REAL or not 0 <= ai < math.inf:
            raise MetricsRangeError(
                f"{name}: arithmetic_intensity must be a finite number >= 0, got {ai!r:.40}")
        if not isinstance(lfmr, dict):
            raise MetricsRangeError(f"{name}: lfmr_by_cores must be a dict, got {lfmr!r:.40}")
        if not lfmr:
            raise MetricsRangeError(f"{name}: need at least one LFMR entry")
        last = 0
        for c, v in lfmr.items():
            if type(c) is not int or c <= last:  # a bool is not a core count
                raise MetricsRangeError(
                    f"{name}: core counts must be strictly increasing ints >= 1, got {c!r:.40}")
            if type(v) not in _REAL or not 0 <= v <= 1:
                raise MetricsRangeError(
                    f"{name}: LFMR@{c} must be a number in [0,1], got {v!r:.40}")
            last = c
        return self


def compute_lfmr(llc_misses: int, l1_misses: int) -> float:
    """LLC misses over total L1 misses; near 1 means caches do nothing."""
    if l1_misses <= 0:
        raise MetricsRangeError("LFMR undefined: no L1 misses recorded")
    if llc_misses < 0 or llc_misses > l1_misses:
        raise MetricsRangeError(
            f"inconsistent counts: {llc_misses} LLC misses vs {l1_misses} L1 misses"
        )
    return llc_misses / l1_misses


def classify(m: MetricsRecord,
             t: Thresholds = DEFAULT_THRESHOLDS) -> tuple[BottleneckClass, str]:
    """Total, deterministic decision tree over one record."""
    high_mpki = m.llc_mpki >= t.mpki_high
    high_locality = m.temporal_locality >= t.locality_high
    high_ai = m.arithmetic_intensity >= t.ai_high
    lfmr = [m.lfmr_by_cores[c] for c in sorted(m.lfmr_by_cores)]
    drop = lfmr[0] - lfmr[-1]
    rise = lfmr[-1] - lfmr[0]

    if not high_locality:
        if high_mpki:
            return (BottleneckClass.DRAM_BANDWIDTH_BOUND,
                    f"low locality ({m.temporal_locality:.2f}) with high LLC MPKI "
                    f"({m.llc_mpki:.1f}): memory traffic saturates DRAM bandwidth")
        if min(lfmr) >= t.lfmr_high:
            return (BottleneckClass.DRAM_LATENCY_BOUND,
                    f"low locality, low MPKI, LFMR stays >= {t.lfmr_high:.2f} at every "
                    "core count: L2/L3 never filter misses, each one pays DRAM latency")
        if drop > t.trend_epsilon:
            return (BottleneckClass.L1L2_CACHE_CAPACITY,
                    f"low locality, low MPKI, LFMR falls {drop:.2f} as cores (and "
                    "private cache space) grow: working set fits once L1/L2 scale up")
        return (BottleneckClass.L1L2_CACHE_CAPACITY,
                "low locality, low MPKI, LFMR already below the high mark: the "
                "cache hierarchy absorbs most misses")
    if high_mpki:
        return (BottleneckClass.DRAM_BANDWIDTH_BOUND,
                f"warning: high locality ({m.temporal_locality:.2f}) with high LLC "
                f"MPKI ({m.llc_mpki:.1f}); MPKI dominates, treating as bandwidth-bound")
    if rise > t.trend_epsilon:
        return (BottleneckClass.L3_CACHE_CONTENTION,
                f"high locality and LFMR rises {rise:.2f} with core count: threads "
                "evict each other out of the shared L3")
    if not high_ai:
        return (BottleneckClass.L1_CACHE_CAPACITY,
                f"high locality, low arithmetic intensity "
                f"({m.arithmetic_intensity:.2f}): bound by L1 capacity, any "
                "mitigation performs about the same")
    return (BottleneckClass.COMPUTE_BOUND,
            f"high locality and high arithmetic intensity "
            f"({m.arithmetic_intensity:.2f}): the core, not the memory system, "
            "is the limit")


class Recommendation(NamedTuple):
    label: str
    note: str


_RECOMMENDATIONS = {
    BottleneckClass.DRAM_BANDWIDTH_BOUND: Recommendation(
        "pnm-beneficial",
        "near-memory execution exposes far more bandwidth than the channel"),
    BottleneckClass.DRAM_LATENCY_BOUND: Recommendation(
        "pnm-beneficial",
        "sending L1 misses straight to DRAM removes pointless cache latency"),
    BottleneckClass.L1L2_CACHE_CAPACITY: Recommendation(
        "pnm-beneficial-at-low-core-counts",
        "wins while private caches are small; scaling cores shrinks the gap"),
    BottleneckClass.L3_CACHE_CONTENTION: Recommendation(
        "pnm-cost-effective-vs-larger-l3",
        "offloading relieves shared-cache contention more cheaply than more L3"),
    BottleneckClass.L1_CACHE_CAPACITY: Recommendation(
        "neutral",
        "performance and energy come out about even either way"),
    BottleneckClass.COMPUTE_BOUND: Recommendation(
        "pnm-harmful",
        "offloading strands the work far from the big cores and prefetchers"),
}


def recommend(cls: BottleneckClass) -> Recommendation:
    return _RECOMMENDATIONS[cls]


# --- CSV front end -----------------------------------------------------------

_LINE_BREAK = re.compile("[\r\n]")
_FIXED_COLUMNS = ("function", "llc_mpki", "temporal_locality", "arithmetic_intensity")


def _parse_header(header: list[str]) -> list[int]:
    if len(header) < 5 or tuple(header[:4]) != _FIXED_COLUMNS:
        raise MetricsError(
            "bad header: expected 'function,llc_mpki,temporal_locality,"
            "arithmetic_intensity,lfmr@<cores>,...'"
        )
    cores = []
    for col in header[4:]:
        if not (col.startswith("lfmr@") and _is_canonical_number(col[5:])):
            raise MetricsError(f"bad header column {col!r}: expected lfmr@<cores>, "
                               "<cores> in ASCII digits without a leading zero")
        cores.append(int(col[5:]))
    if cores != sorted(set(cores)) or any(c < 1 for c in cores):
        raise MetricsError("lfmr@ core counts must be strictly increasing")
    return cores


def _check_plain_numbers(row: list[str], header: list[str], lineno: int):
    """`MetricsError` naming the first number cell of `row` that is not
    ASCII or holds an underscore."""
    if _is_plain_float_text("".join(row[1:])):
        return
    for column, cell in zip(header[1:], row[1:]):
        if not _is_plain_float_text(cell):
            raise MetricsError(f"line {lineno}: {column.strip()} {cell.strip()[:40]!r} "
                               "is not a number in ASCII without underscores")


def parse_metrics_csv(text: str, *,
                      rows: list[list[str]] | None = None) -> list[MetricsRecord]:
    """Records of a metrics CSV, one per non-blank row after the header.
    The non-blank rows as read, header first, are appended to `rows` when
    it is given.  Lines end at LF, CR LF or a lone CR.  An error names the
    last line of its row (a quoted cell may carry a row over several
    lines), or, for text the `csv` module cannot read, the line it
    stopped at."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        # line_num counts the lines read so far, up to the row's last one
        numbered = [(reader.line_num, row) for row in reader if row]
    except csv.Error as e:
        raise MetricsError(f"line {reader.line_num}: {e}") from None
    if rows is not None:
        rows.extend(row for _, row in numbered)
    if not numbered:
        return []
    _, header = numbered[0]
    cores = _parse_header([h.strip() for h in header])
    # every row after the header starts past the text's first line break;
    # when nothing there is non-ASCII or "_", no number cell can be either
    brk = _LINE_BREAK.search(text)
    plain = _is_plain_float_text(text[brk.end() if brk else 0:])
    records = []
    for lineno, row in numbered[1:]:
        if len(row) != 4 + len(cores):
            raise MetricsError(
                f"line {lineno}: expected {4 + len(cores)} fields, got {len(row)}"
            )
        if not plain:
            _check_plain_numbers(row, header, lineno)
        name = row[0].strip()
        try:
            mpki = float(row[1])
            locality = float(row[2])
            ai = float(row[3])
            lfmr = {}
            for c, cell in zip(cores, row[4:]):
                cell = cell.strip()
                if cell:
                    lfmr[c] = float(cell)
        except ValueError as e:
            raise MetricsError(f"line {lineno}: {e}") from e
        try:
            records.append(MetricsRecord(name, mpki, locality, ai, lfmr))
        except MetricsRangeError as e:
            raise MetricsRangeError(f"line {lineno}: {e}") from e
    return records


def ingest_csv(path: str) -> list[MetricsRecord]:
    """Parse and range-check a metrics CSV file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_metrics_csv(fh.read())


def label_csv(text: str, thresholds: Thresholds = DEFAULT_THRESHOLDS) -> str:
    """Augment a metrics CSV with class, recommendation, and rationale."""
    rows: list[list[str]] = []
    records = parse_metrics_csv(text, rows=rows)
    if not rows:
        return ""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0] + ["class", "recommendation", "rationale"])
    for row, rec in zip(rows[1:], records):
        cls, why = classify(rec, thresholds)
        writer.writerow(row + [cls.value, recommend(cls).label, why])
    return out.getvalue()
