"""In-memory spans around pumkit's layer boundaries, for the traced run.

`Tracer.installed()` replaces each hooked function at the module or class
attribute it is called through, and puts the original back on exit.  Each
wrapper records a span (name, start, end, parent).  A span's self time is
its duration minus the part covered by its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict


def _bits_vertical(args, result) -> int:
    return result.bit_width * result.column_count


def _bits_horizontal(args, result) -> int:
    return result.bit_width * len(result.values)


def _commands(args, result) -> int:
    return len(args[1].commands)  # run_program(self, program)


# (owner, attribute, span name, counter name, counter)
HOOKS = (
    ("pumkit.oplib", "build_netlist", "oplib.build_netlist", None, None),
    ("pumkit.oplib", "lower_to_maj", "synthesis.lower", None, None),
    ("pumkit.oplib", "optimize", "synthesis.optimize", None, None),
    ("pumkit.synthesis", "estimate_cost_static", "codegen.objective", None, None),
    ("pumkit.oplib", "allocate_rows", "codegen.allocate", None, None),
    ("pumkit.oplib", "schedule", "codegen.schedule", None, None),
    ("pumkit.oplib", "oracle", "oplib.oracle", None, None),
    ("pumkit.oplib", "to_vertical", "transpose.to_vertical", "transpose.bits", _bits_vertical),
    ("pumkit.oplib", "to_horizontal", "transpose.to_horizontal", "transpose.bits",
     _bits_horizontal),
    ("pumkit.subarray:SubarrayState", "run_program", "subarray.run", "subarray.commands",
     _commands),
    ("pumkit.classifier", "parse_metrics_csv", "classifier.parse", None, None),
    ("pumkit.classifier", "classify", "classifier.classify", None, None),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


def calibration_seconds() -> float:
    """Time a fixed pure-Python routine, about 3 ms on an idle 2.1 GHz Xeon
    vCPU.  It touches no pumkit code, so only the host's speed moves it."""
    t = time.perf_counter()
    d = {}
    for i in range(20000):
        d[i % 977] = d.get(i % 977, 0) + i * 3
    return time.perf_counter() - t


class Tracer:
    """Spans of one measured pass; `span()` also times the benchmark's own calls.

    With `calibrate`, each root span is bracketed by two timings of
    `calibration_seconds`, and `cal` holds their mean per root span.
    """

    def __init__(self, calibrate: bool = False):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.hooked: set[str] = set()
        self.missing: set[str] = set()
        self.calibrate = calibrate
        self.cal: list[float] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        calibrate = self.calibrate and not self._stack
        before = calibration_seconds() if calibrate else 0.0
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
            if calibrate:
                self.cal.append((before + calibration_seconds()) / 2)

    def _wrap(self, fn, name, counter_name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # span() inlined: some hooks run ~10^5 times per pass
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counts[counter_name] += counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hook that exists; a missing one is noted, not fatal."""
        patched = []
        try:
            for path, attr, name, counter_name, counter in HOOKS:
                owner = _owner(path)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.add(name)
                    continue
                setattr(owner, attr, self._wrap(fn, name, counter_name, counter))
                patched.append((owner, attr, fn))
                self.hooked.add(name)
            yield self
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)

    def summary(self) -> tuple[dict, dict, dict, float]:
        """(total seconds, self seconds, calls) by span name, and the share
        of root-span time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        calls: Counter = Counter()
        root = covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
            if parent < 0:
                root += end - start
                covered += child[i]
        return total, own, calls, covered / root if root else 0.0
