import csv
import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

import pumkit.cli
import pumkit.oplib
from pumkit.cli import main
from pumkit.codegen import format_microprogram, parse_microprogram
from pumkit.oplib import execute_op

from conftest import compiled_op


def write(path, lines):
    path.write_text("\n".join(str(x) for x in lines) + "\n")


class TestCompile:
    def test_emits_parseable_file(self, tmp_path, capsys):
        out = tmp_path / "add4.up"
        assert main(["compile", "--op", "add", "--width", "4",
                     "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("UP/1\nop=add width=4 data_rows=13\n")
        assert format_microprogram(parse_microprogram(text)) == text
        stdout = capsys.readouterr().out
        assert "activations" in stdout
        assert "not hardware-calibrated" in stdout

    def test_reports_spill_rows(self, tmp_path, capsys):
        # add4 keeps 13 data rows for operands and result; two more spill
        assert main(["--set", "subarray.rows=23", "--set", "subarray.data_rows=15",
                     "compile", "--op", "add", "--width", "4",
                     "-o", str(tmp_path / "add4.up")]) == 0
        assert "spill rows: 2\n" in capsys.readouterr().out

    def test_unknown_op_exits_2(self, tmp_path, capsys):
        assert main(["compile", "--op", "nosuch", "--width", "4",
                     "-o", str(tmp_path / "x.up")]) == 2

    def test_bad_width_exits_2(self, tmp_path):
        assert main(["compile", "--op", "add", "--width", "0",
                     "-o", str(tmp_path / "x.up")]) == 2

    def test_capacity_error_exits_3(self, tmp_path):
        assert main(["--set", "subarray.rows=16", "--set", "subarray.data_rows=4",
                     "compile", "--op", "add", "--width", "4",
                     "-o", str(tmp_path / "x.up")]) == 3

    def test_capacity_error_names_the_op_width_and_data_rows(self, tmp_path, capsys):
        # div8 keeps 24 data rows for operands and result; 16 spare are too few
        assert main(["--set", "subarray.rows=48", "--set", "subarray.data_rows=40",
                     "compile", "--op", "div", "--width", "8",
                     "-o", str(tmp_path / "x.up")]) == 3
        assert capsys.readouterr().err.startswith(
            "error: div width 8 does not fit in 40 data rows: spill region exhausted")
        assert not (tmp_path / "x.up").exists()

    def test_too_many_inputs_exits_2(self, tmp_path, capsys):
        assert main(["compile", "--op", "and_n", "--width", "1",
                     "--inputs", "100000000000000000",
                     "-o", str(tmp_path / "x.up")]) == 2
        assert "and_n takes 2..1024 operands" in capsys.readouterr().err

    def test_operand_count_on_a_fixed_arity_kind_exits_2(self, tmp_path, capsys):
        assert main(["compile", "--op", "add", "--width", "4", "--inputs", "7",
                     "-o", str(tmp_path / "x.up")]) == 2
        assert "add takes a fixed number of operands, not 7" in capsys.readouterr().err
        assert not (tmp_path / "x.up").exists()

    def test_n_input_logic(self, tmp_path):
        out = tmp_path / "and4.up"
        assert main(["compile", "--op", "and_n", "--inputs", "4",
                     "--width", "1", "-o", str(out)]) == 0
        prog = parse_microprogram(out.read_text())
        assert prog.name == "and_n"
        assert prog.data_rows == 5  # four 1-bit operands + one output


class TestRun:
    def compile_add(self, tmp_path):
        out = tmp_path / "add4.up"
        assert main(["compile", "--op", "add", "--width", "4",
                     "-o", str(out)]) == 0
        return out

    def test_single_lane_add(self, tmp_path, capsys):
        prog = self.compile_add(tmp_path)
        a, b, out = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "out.txt"
        write(a, [5])
        write(b, [6])
        assert main(["run", str(prog), "--inputs", str(a), str(b),
                     "-o", str(out)]) == 0
        assert out.read_text() == "11\n"
        assert "activations" in capsys.readouterr().out

    def test_mismatched_lane_counts_exit_3(self, tmp_path):
        prog = self.compile_add(tmp_path)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write(a, [5, 7])
        write(b, [6])
        assert main(["run", str(prog), "--inputs", str(a), str(b)]) == 3

    def test_randomized_lanes_match_host_addition(self, tmp_path):
        prog = self.compile_add(tmp_path)
        rng = random.Random(7)
        xs = [rng.randrange(16) for _ in range(64)]
        ys = [rng.randrange(16) for _ in range(64)]
        a, b, out = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "o.txt"
        write(a, xs)
        write(b, ys)
        assert main(["run", str(prog), "--inputs", str(a), str(b),
                     "-o", str(out)]) == 0
        got = [int(l) for l in out.read_text().splitlines()]
        assert got == [x + y for x, y in zip(xs, ys)]

    def test_n_ary_run_derives_operand_count(self, tmp_path):
        prog = tmp_path / "or3.up"
        assert main(["compile", "--op", "or_n", "--inputs", "3",
                     "--width", "2", "-o", str(prog)]) == 0
        files = []
        for i, vals in enumerate(([1, 2], [2, 0], [0, 1])):
            f = tmp_path / f"v{i}.txt"
            write(f, vals)
            files.append(str(f))
        out = tmp_path / "out.txt"
        assert main(["run", str(prog), "--inputs", *files, "-o", str(out)]) == 0
        assert [int(l) for l in out.read_text().splitlines()] == [3, 3]

    def test_bad_program_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.up"
        bad.write_text("not a program\n")
        a = tmp_path / "a.txt"
        write(a, [1])
        assert main(["run", str(bad), "--inputs", str(a)]) == 2

    def test_negative_header_fields_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "neg.up"
        bad.write_text("UP/1\nop=add width=-3 data_rows=-1\nEND\n")
        a = tmp_path / "a.txt"
        write(a, [1])
        assert main(["run", str(bad), "--inputs", str(a), str(a)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_over_long_row_index_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "long.up"
        bad.write_text(f"UP/1\nop=add width=1 data_rows=3\nAAP D{'1' * 4301} T0\nEND\n")
        a = tmp_path / "a.txt"
        write(a, [1])
        assert main(["run", str(bad), "--inputs", str(a), str(a)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "at most 18 digits" in err

    @pytest.mark.parametrize("header", [
        "op=add width=4 data_rows=3", "op=add width=4 data_rows=14",
        "op=relu width=4 data_rows=4", "op=or_n width=2 data_rows=7",
        "op=and_n width=2 data_rows=4",
    ])
    def test_inconsistent_data_rows_exit_2(self, tmp_path, capsys, header):
        bad = tmp_path / "bad.up"
        bad.write_text(f"UP/1\n{header}\nEND\n")
        a = tmp_path / "a.txt"
        write(a, [1])
        assert main(["run", str(bad), "--inputs", str(a), str(a)]) == 2
        assert "inconsistent" in capsys.readouterr().err

    def test_result_wider_than_staging_exits_3_before_staging(
            self, tmp_path, capsys, monkeypatch):
        wide = tmp_path / "add64.up"
        wide.write_text("UP/1\nop=add width=64 data_rows=193\nEND\n")
        a = tmp_path / "a.txt"
        write(a, [1])

        def never(*args):
            raise AssertionError("staged a result wider than the staging limit")

        monkeypatch.setattr(pumkit.oplib, "_run_lanes", never)
        assert main(["run", str(wide), "--inputs", str(a), str(a)]) == 3
        assert "add width 64 has a 65-bit result" in capsys.readouterr().err

    def test_more_data_rows_than_the_config_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "big.up"
        bad.write_text(f"UP/1\nop=and_n width=1 data_rows={10 ** 17}\nEND\n")
        a = tmp_path / "a.txt"
        write(a, [1])
        assert main(["run", str(bad), "--inputs", str(a), str(a)]) == 3
        assert "504" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["\u00b2", "\u0663", "1" * 5000, "1" * 21],
                             ids=["superscript", "arabic-indic", "5000-digits", "21-digits"])
    def test_bad_operand_value_names_file_and_line(self, tmp_path, capsys, line):
        prog = self.compile_add(tmp_path)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write(a, [1, 2])
        b.write_text(f"3\n\n{line}\n", encoding="utf-8")
        assert main(["run", str(prog), "--inputs", str(a), str(b)]) == 2
        err = capsys.readouterr().err
        assert f"{b}:3: expected an unsigned decimal" in err
        assert len(err) < 200

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(op=hst.sampled_from([("add", 4, 2), ("mul", 3, 2), ("xor_n", 2, 3),
                                ("if_then_else", 3, 2), ("bitcount", 5, 2)]),
           lanes=hst.integers(0, 40), seed=hst.integers(0, 2**32 - 1))
    def test_run_matches_execute_op(self, tmp_path, op, lanes, seed):
        kind, width, n_inputs = op
        compiled = compiled_op(kind, width, n_inputs=n_inputs)
        prog = tmp_path / f"{kind}.up"
        prog.write_text(format_microprogram(compiled.program))
        rng = random.Random(seed)
        operands = [[rng.getrandbits(w) for _ in range(lanes)]
                    for w in compiled.operand_widths]
        files = []
        for k, vals in enumerate(operands):
            files.append(tmp_path / f"in{k}.txt")
            files[-1].write_text("".join(f"{v}\n" for v in vals))
        out = tmp_path / "out.txt"
        assert main(["run", str(prog), "--inputs", *map(str, files),
                     "-o", str(out)]) == 0
        got = [int(l) for l in out.read_text().splitlines()]
        assert got == execute_op(compiled, operands)

    def test_bad_operand_value_exits_2(self, tmp_path):
        prog = self.compile_add(tmp_path)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("5\nbogus\n")
        write(b, [6, 6])
        assert main(["run", str(prog), "--inputs", str(a), str(b)]) == 2

    def test_more_lanes_than_columns_exit_3(self, tmp_path, capsys):
        prog = self.compile_add(tmp_path)
        narrow = ["--set", "subarray.columns=16"]
        a, b, out = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "o.txt"
        write(a, range(16))
        write(b, [1] * 16)
        assert main([*narrow, "run", str(prog), "--inputs", str(a), str(b),
                     "-o", str(out)]) == 0
        assert [int(l) for l in out.read_text().splitlines()] == list(range(1, 17))
        write(a, [v % 16 for v in range(17)])
        write(b, [1] * 17)
        assert main([*narrow, "run", str(prog), "--inputs", str(a), str(b)]) == 3
        err = capsys.readouterr().err
        assert "17" in err and "16-column subarray" in err

    def test_out_of_range_operand_exits_3(self, tmp_path):
        prog = self.compile_add(tmp_path)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write(a, [16])
        write(b, [6])
        assert main(["run", str(prog), "--inputs", str(a), str(b)]) == 3


class TestBench:
    def test_json_rows_equal_the_csv_rows(self, tmp_path, monkeypatch):
        """One sweep of the grid (here its width-4 column) writes both
        files, and the JSON holds the CSV's rows as numbers."""
        sweeps = []
        real = pumkit.cli.bench_rows

        def width_4(cfg):
            sweeps.append(cfg)
            return real(cfg, widths=(4,))

        monkeypatch.setattr(pumkit.cli, "bench_rows", width_4)
        out, doc = tmp_path / "bench.csv", tmp_path / "bench.json"
        assert main(["bench", "-o", str(out), "--json", str(doc)]) == 0
        assert len(sweeps) == 1
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        bench = json.loads(doc.read_text())
        assert len(rows) == len(pumkit.oplib.OP_KINDS)
        assert [{k: str(v) for k, v in row.items()} for row in bench["rows"]] == rows
        assert bench["act_e2_total"] == sum(int(row["act_e2"]) for row in rows)
        assert bench["act_e0_total"] == sum(int(row["act_e0"]) for row in rows)
        assert bench["failures"] == []


class TestClassify:
    HEADER = "function,llc_mpki,temporal_locality,arithmetic_intensity,lfmr@1,lfmr@16"
    ARCHETYPES = [
        "stream,50,0.03,0.05,0.95,0.93",
        "chase,2,0.05,0.05,0.92,0.90",
        "tile,2,0.05,0.05,0.90,0.30",
        "share,3,0.85,0.05,0.20,0.50",
        "hot,1,0.90,0.05,0.10,0.10",
        "dense,1,0.80,2.0,0.10,0.10",
    ]

    def test_archetype_fixture_yields_six_classes(self, tmp_path):
        src = tmp_path / "m.csv"
        out = tmp_path / "labeled.csv"
        src.write_text("\n".join([self.HEADER] + self.ARCHETYPES) + "\n")
        assert main(["classify", str(src), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        classes = [l.split(",")[6] for l in lines[1:]]
        assert len(set(classes)) == 6

    def test_empty_file(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("")
        assert main(["classify", str(src)]) == 0
        assert capsys.readouterr().out == ""

    def test_bad_header_exits_2(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("who,what\n")
        assert main(["classify", str(src)]) == 2

    def test_oversized_cell_exits_2(self, tmp_path, capsys):
        src = tmp_path / "m.csv"
        src.write_text(f"{self.HEADER}\n{'f' * 200_000},1,0.5,0.1,0.5,0.5\n")
        assert main(["classify", str(src)]) == 2
        assert "line 2: field larger than field limit" in capsys.readouterr().err

    def test_out_of_range_exits_3(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text(f"{self.HEADER}\nf,1,1.5,0.1,0.5,0.5\n")
        assert main(["classify", str(src)]) == 3

    def test_threshold_override_changes_labels(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text(f"{self.HEADER}\nf,5,0.03,0.05,0.95,0.93\n")
        out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        assert main(["classify", str(src), "-o", str(out1)]) == 0
        assert main(["--set", "classify.mpki_high=4",
                     "classify", str(src), "-o", str(out2)]) == 0
        assert "dram-latency-bound" in out1.read_text()
        assert "dram-bandwidth-bound" in out2.read_text()


class TestTranspose:
    def test_round_trip(self, tmp_path):
        values = tmp_path / "v.txt"
        rows = tmp_path / "rows.txt"
        back = tmp_path / "back.txt"
        write(values, [5, 0, 15, 9])
        assert main(["transpose", str(values), "--width", "4",
                     "-o", str(rows)]) == 0
        text = rows.read_text().splitlines()
        assert text == ["1011", "0010", "1010", "0011"]  # bit i of value j at (i, j)
        assert main(["transpose", str(rows), "--width", "4", "--reverse",
                     "-o", str(back)]) == 0
        assert back.read_text() == values.read_text()

    def test_twenty_digit_value_is_accepted(self, tmp_path):
        values, rows = tmp_path / "v.txt", tmp_path / "rows.txt"
        write(values, [2 ** 64 - 1, 0])
        assert main(["transpose", str(values), "--width", "64", "-o", str(rows)]) == 0
        assert rows.read_text().splitlines() == ["10"] * 64


    @pytest.mark.parametrize("width", [9, 33])
    def test_wide_values_round_trip(self, tmp_path, width):
        rng = random.Random(width)
        vals = [0, (1 << width) - 1, 1 << (width - 1)] + [
            rng.getrandbits(width) for _ in range(10)]
        values, rows, back = tmp_path / "v.txt", tmp_path / "rows.txt", tmp_path / "b.txt"
        write(values, vals)
        assert main(["transpose", str(values), "--width", str(width),
                     "-o", str(rows)]) == 0
        assert rows.read_text().splitlines() == [
            "".join(str(v >> i & 1) for v in vals) for i in range(width)]
        assert main(["transpose", str(rows), "--width", str(width), "--reverse",
                     "-o", str(back)]) == 0
        assert back.read_text() == values.read_text()


class TestConfigHandling:
    def test_config_file_applies(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# tiny array\n"
            "subarray.rows = 64\n"
            "subarray.columns = 16\n"
            "cost.t_aap_ns = 10\n"
        )
        out = tmp_path / "eq.up"
        assert main(["--config", str(cfgfile), "compile", "--op", "eq",
                     "--width", "2", "-o", str(out)]) == 0

    def test_unknown_key_exits_2(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("subarray.banana = 7\n")
        out = tmp_path / "x.up"
        assert main(["--config", str(cfgfile), "compile", "--op", "eq",
                     "--width", "2", "-o", str(out)]) == 2

    def test_bad_override_exits_2(self, tmp_path):
        assert main(["--set", "cost.t_aap_ns=fast", "compile", "--op", "eq",
                     "--width", "2", "-o", str(tmp_path / "x.up")]) == 2
