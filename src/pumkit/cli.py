"""Command-line driver tying the pipeline together.

Verbs:

* ``compile``    build one operation into a `.up` program file
* ``run``        execute a `.up` program over operand files
* ``bench``      compile the whole library at effort 0 vs 2, emit a CSV
                 (and with ``--json PATH`` the same rows as JSON)
* ``classify``   label a metrics CSV with bottleneck classes
* ``transpose``  convert operand files between horizontal and vertical form

Exit codes: 0 success, 2 usage or malformed input structure, 3 capacity
or data errors (bench: 1 when some operations failed to compile).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import classifier, costmodel, oplib
from .codegen import activation_count, format_microprogram, parse_microprogram
from .config import RunConfig, load_config
from .errors import (
    CapacityError,
    ConfigError,
    MetricsError,
    MetricsRangeError,
    MicroProgramError,
    NetlistFormatError,
    PumError,
)
from .transpose import MAX_WIDTH, HorizontalBlock, from_rows

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3

BENCH_WIDTHS = (4, 8, 16, 32)
BENCH_N_INPUTS = 4
# Digits an operand value may have: as many as the widest value has.
_MAX_VALUE_DIGITS = len(str((1 << MAX_WIDTH) - 1))


def _load_values(path: str) -> list[int]:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if not (line.isascii() and line.isdigit() and len(line) <= _MAX_VALUE_DIGITS):
                raise MicroProgramError(
                    f"{path}:{lineno}: expected an unsigned decimal of at most "
                    f"{_MAX_VALUE_DIGITS} ASCII digits, got {line[:40]!r}"
                )
            values.append(int(line))
    return values


def _write_lines(path: str | None, lines: list[str]):
    text = "\n".join(lines) + ("\n" if lines else "")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_compile(args, cfg: RunConfig) -> int:
    if args.op not in oplib.OP_KINDS:
        print(f"unknown operation {args.op!r}; choose from: "
              f"{', '.join(oplib.OP_KINDS)}", file=sys.stderr)
        return EXIT_USAGE
    compiled = oplib.compile_op(args.op, args.width, cfg.subarray,
                                effort=args.effort, n_inputs=args.inputs)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(format_microprogram(compiled.program))
    print(f"compiled {args.op} width {args.width} -> {args.output}")
    print(f"verified against the host oracle on {compiled.verified_cases} cases")
    print(f"spill rows: {compiled.spill_rows}")
    print(compiled.report.render())
    print(costmodel.estimate(compiled.program, cfg.cost).render())
    return EXIT_OK


def cmd_run(args, cfg: RunConfig) -> int:
    with open(args.program, "r", encoding="utf-8") as fh:
        program = parse_microprogram(fh.read())
    kind, width = program.name, program.width
    if kind not in oplib.OP_KINDS:
        print(f"program op {kind!r} is not in the operation vocabulary",
              file=sys.stderr)
        return EXIT_USAGE
    if program.data_rows > cfg.subarray.data_row_count:
        raise CapacityError(
            f"program needs {program.data_rows} data rows, config provides "
            f"{cfg.subarray.data_row_count}"
        )
    n_inputs = 2
    if kind in oplib.N_ARY:  # n operands and the result, `width` rows each
        n_inputs = max(2, program.data_rows // width - 1)
    widths, out_w = oplib.op_signature(kind, width, n_inputs)
    oplib._check_result_width(kind, width, out_w)
    if sum(widths) + out_w != program.data_rows:
        raise MicroProgramError(
            f"header data_rows={program.data_rows} inconsistent with "
            f"{kind} width {width}: operands and result take "
            f"{sum(widths)} + {out_w} rows"
        )
    if len(args.inputs) != len(widths):
        print(f"{kind} width {width} takes {len(widths)} operand files, "
              f"got {len(args.inputs)}", file=sys.stderr)
        return EXIT_USAGE
    operands = [_load_values(p) for p in args.inputs]
    lanes = len(operands[0])
    for path, vals in zip(args.inputs, operands):
        if len(vals) != lanes:
            print(f"operand files disagree on lane count: {args.inputs[0]} has "
                  f"{lanes}, {path} has {len(vals)}", file=sys.stderr)
            return EXIT_DATA
    out, report = oplib._run_lanes(program, widths, out_w, operands, cfg.subarray)
    _write_lines(args.output, [str(v) for v in out])
    moved = lanes * (len(widths) + 1)
    print(f"executed {len(program.commands)} commands over {lanes} lanes")
    print(f"activations: {report.total_activations} "
          f"({report.aap_count} AAP + {report.tra_count} TRA)")
    print(f"transpose:   {costmodel.transpose_cost_ns(moved, cfg.cost):.1f} ns "
          f"for {moved} words in/out")
    print(costmodel.estimate(program, cfg.cost).render())
    return EXIT_OK


def bench_rows(cfg: RunConfig, widths=BENCH_WIDTHS) -> tuple[list[dict], list[str]]:
    """Compile the whole library at effort 0 and 2; returns (rows, failures)."""
    rows = []
    failures = []
    for kind in oplib.OP_KINDS:
        n_inputs = BENCH_N_INPUTS if kind in oplib.N_ARY else 2
        for width in widths:
            try:
                e0 = oplib.compile_op(kind, width, cfg.subarray,
                                      effort=0, n_inputs=n_inputs)
                e2 = oplib.compile_op(kind, width, cfg.subarray,
                                      effort=2, n_inputs=n_inputs)
            except PumError as e:
                failures.append(f"{kind} width {width}: {e}")
                continue
            a0 = activation_count(e0.program)
            a2 = activation_count(e2.program)
            c0 = costmodel.estimate(e0.program, cfg.cost)
            c2 = costmodel.estimate(e2.program, cfg.cost)
            rows.append({
                "op": kind,
                "width": width,
                "aap_e0": a0.aap, "tra_e0": a0.tra, "act_e0": a0.total,
                "aap_e2": a2.aap, "tra_e2": a2.tra, "act_e2": a2.total,
                "act_ratio": round(a0.total / a2.total, 4),
                "latency_e0_ns": c0.latency_ns,
                "latency_e2_ns": c2.latency_ns,
                "energy_e0_pj": c0.energy_pj,
                "energy_e2_pj": c2.energy_pj,
                "throughput_ratio": round(
                    c2.throughput_ops_per_s / c0.throughput_ops_per_s, 4),
            })
    return rows, failures


def cmd_bench(args, cfg: RunConfig) -> int:
    rows, failures = bench_rows(cfg)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()) if rows else
                            ["op", "width"], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write_lines(args.output, out.getvalue().splitlines())
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"act_e0_total": sum(r["act_e0"] for r in rows),
                       "act_e2_total": sum(r["act_e2"] for r in rows),
                       "failures": failures, "rows": rows}, fh, indent=1)
            fh.write("\n")
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print(f"benchmarked {len(rows)} op/width combinations "
          f"({costmodel.NOT_CALIBRATED})", file=sys.stderr)
    return 1 if failures else EXIT_OK


def cmd_classify(args, cfg: RunConfig) -> int:
    with open(args.metrics, "r", encoding="utf-8") as fh:
        text = fh.read()
    labeled = classifier.label_csv(text, cfg.thresholds)
    _write_lines(args.output, labeled.splitlines())
    return EXIT_OK


def cmd_transpose(args, cfg: RunConfig) -> int:
    if args.reverse:
        with open(args.values, "r", encoding="utf-8") as fh:
            lines = [l.strip() for l in fh if l.strip()]
        if len(lines) != args.width:
            print(f"expected {args.width} bit rows, got {len(lines)}",
                  file=sys.stderr)
            return EXIT_DATA
        if not lines or any(len(l) != len(lines[0]) or set(l) - {"0", "1"}
                            for l in lines):
            print("bit rows must be equal-length strings of 0/1", file=sys.stderr)
            return EXIT_USAGE
        # character j of line i is bit i of value j, so bit j of the row int
        block = from_rows([int(l[::-1], 2) for l in lines], args.width, len(lines[0]))
        _write_lines(args.output, [str(v) for v in block.values])
        return EXIT_OK
    block = HorizontalBlock(tuple(_load_values(args.values)), args.width)
    count = len(block.values)
    spec = f"0{count}b"
    _write_lines(args.output, [format(row, spec)[::-1] if count else ""
                               for row in block.rows()])
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pumkit",
        description="compile, execute, and analyze in-DRAM bulk-bitwise operations",
    )
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override one config key")
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("compile", help="compile one operation to a .up file")
    c.add_argument("--op", required=True)
    c.add_argument("--width", type=int, required=True)
    c.add_argument("--inputs", type=int, default=2,
                   help="operand count for N-input logic ops")
    c.add_argument("--effort", type=int, choices=(0, 1, 2), default=2)
    c.add_argument("-o", "--output", required=True)

    r = sub.add_parser("run", help="execute a .up program over operand files")
    r.add_argument("program")
    r.add_argument("--inputs", nargs="+", required=True,
                   help="operand files, one unsigned decimal per line")
    r.add_argument("-o", "--output", default=None)

    b = sub.add_parser("bench", help="effort-0 vs effort-2 sweep over the library")
    b.add_argument("-o", "--output", default=None)
    b.add_argument("--json", metavar="PATH", default=None,
                   help="also write the rows, their totals and any failures as JSON")

    k = sub.add_parser("classify", help="label a metrics CSV with bottleneck classes")
    k.add_argument("metrics")
    k.add_argument("-o", "--output", default=None)

    t = sub.add_parser("transpose", help="convert values to vertical bit rows")
    t.add_argument("values")
    t.add_argument("--width", type=int, required=True)
    t.add_argument("--reverse", action="store_true",
                   help="convert bit rows back to values")
    t.add_argument("-o", "--output", default=None)
    return p


_VERBS = {
    "compile": cmd_compile,
    "run": cmd_run,
    "bench": cmd_bench,
    "classify": cmd_classify,
    "transpose": cmd_transpose,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        return _VERBS[args.verb](args, cfg)
    except MetricsRangeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, MicroProgramError, NetlistFormatError, MetricsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except PumError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
