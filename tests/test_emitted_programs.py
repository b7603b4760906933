"""The programs the compiler emits, pinned, and the hand-off of the
scheduler sweep from the optimizer's objective to `schedule` through
`codegen._sweep`."""

import hashlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import pytest

import pumkit.codegen as codegen
import pumkit.synthesis as synthesis
from pumkit.codegen import (
    SubarrayConfig,
    allocate_rows,
    data_row_index,
    estimate_cost_static,
    format_microprogram,
    schedule,
)
from pumkit.errors import CapacityError
from pumkit.logic import MajGraph
from pumkit.oplib import (
    N_ARY,
    OP_KINDS,
    build_netlist,
    compile_op,
    op_signature,
)
from pumkit.synthesis import lower_to_maj

from conftest import compiled_op

# sha256 of format_microprogram per op at widths 4, 8 and 16: effort 2,
# default subarray, n-ary ops with 4 operands.  A change that alters emitted
# programs on purpose regenerates this table and says so.
PINNED = {
    "and_n": ("e95f4fd87e7f20f0040aa7f4428b2c5dbc1e0bade2369420373e8f69943a5c0c",
              "b6b40aba295157d5cb17800400146d0fbfc9b46327019f94bf338ed481283733",
              "6c64eac6a0677a12508dc9f706c40972854ae5c23eb203b215302a99d1dc0b87"),
    "or_n": ("6c96a0ae13dc1cb68f70610785ba6c532e469791aab3b8cf5581ffd51d90986f",
             "5d7bd6c7a7469b0129bdcf93df5969ffbc43a74cd354b891734232e0c76f22fa",
             "ce51d4a8a2790acce287aa4e8334525f4e52b789adace3422b4a4a0bbd716c6b"),
    "xor_n": ("7d5e7a270c469e75d67313c2764a63142593c1e86daa7a4cafe42c6dc57c809a",
              "1437a0c90135b05d5fe80434b30608a3727f8e5351d80c13598dd2b09b49ccb3",
              "148e77630c7347ffe63f4aa05942abef7ad01ba373464a3caf3c2640d4f9d31b"),
    "eq": ("7a710d8b47816177189d6ef5915332361d5ad71310dda59aaad8e22131b6c495",
           "a92f417b5709e953941f05c69de58f84f9dee9e8ea3ae82ba2de6fb703ffcab1",
           "a91bb5c25062d34ab5648d9c91f4ddfd97bfbf128395c5860d4b5349c0fbd95f"),
    "neq": ("e73c5a89d02e2cd7bce3ea16fed0791152f5e3b0e36a7c112e6c84920e7aca3b",
            "d0ca73757e6f9b2603d16ebb305798adf59b0c5c1d0bf14649089826e79ea306",
            "f5c68e7c86520ddc1b1571c339a9ca5762ea81ef989e268e864337a4c554b7bb"),
    "gt": ("34cb4f6daa27ec7e4e08684abc6e07edfd21ab4c82c9e5ff31cc33d406656deb",
           "2417229e7ff2b43ed94a93f7bc10832f6a04383b0c0f43f09831b6ca11acecca",
           "6707ef4ab9fdb7b39b6b87227b04d1cc31dea757ba76d9f85ba283c257274a34"),
    "lt": ("841469c669d549162077379ee19389b6656bd87c57b61f45788384d1f4f84fe1",
           "1bf048a2ffaf2f165b52f47e717aa8951be02ad2a90791dfae511736e94ea83c",
           "c05c5981027a85df55be6aa28402f19f340fb7dd594f8de090fad3722fcb13f7"),
    "max": ("234b0a96bb03c677bc7e9e02b1c9f6d0c4df810d154fa46a313b8770788417bc",
            "21524454bb70f3313198337371bc2847134f3d01adc20ad611d8005715e3b643",
            "ac4532bcc7c00f12e9e5843c69051e43ea83ae1ba24201a2441c3ec56fcb6645"),
    "min": ("348ae891d88316ad738f6d355bea8f0eb09ab9fb72e745aaffd6303376bfd2e2",
            "a94e9f1abd80a3801becfced9b119b44ea176723e5d5bd0d700679896e6d9280",
            "c71cd583e268ca6f14713ac34cca84e7f36947c2eef53ab9f17bb2faa7af6088"),
    "add": ("517a2c0e8c4e0e69f7d5a0e187839fd6c0959123c49c7db344c1f5ab4830c6a4",
            "d925fb2c6605a72880c39698e984b7e5c6fe847c0d86ddab486147024179c8e0",
            "020c957ef5a2c6e87a31b187203bb400bf2614b3dfa216d47cb4c8971d7969a7"),
    "sub": ("a680f9859ab33f9c4e89330363411ff672f3068a96fc35560cabc561d9057641",
            "1208348a9311bf377f7081c2c9b5f8ab529eb008016e620345028c9441133028",
            "97a628e84b9f188bcd97de420715a33b4f1285130fea78c9b550f7a4b4a302d4"),
    "mul": ("a566612419903be8ebd939ffe0fa9b91427bb94bb60f04646fe0569a49075cb6",
            "d16c21c17e5b7b5a7066eebd3612dfdc3fdf3852f05f19629d31707acbbb7224",
            "b3573967d1816bc7514ad116e3d821daea016f0c2952cd1e9215756f7feb921c"),
    "div": ("55197db7918ced10cffc6c4a24d1c5d4308fa2f905c7d0158da77c790fe66f81",
            "3c515c20f7dd0438d01f8f067cc7fa08f3ccbeacd6fc9037af19f846a0112fb0",
            "bc5f980454996a2395aa77d1484ca9841cba4a4b3ccb2e5e1922ff30c436dc05"),
    "if_then_else": ("8f36817a7237d6c902f2d50110cd3cd515d88ae9940ed348c58fc3665c2d115f",
                     "e25c7a6531f56d52aae073a6029d62a6df03a91c94dd83048e7dfeb2cacd4a68",
                     "4e8703acad847ca85aef3a8c2a844524687ff8da2010e789007169d8846e6bc3"),
    "bitcount": ("e9bd4bb0a907d7a53f8b2e7cea03c4ce40aec0cb678cfe96262321350777f929",
                 "190a426e03d311fb805fa22ed003d974b6425fc4ea7994437d3c627e0f62f423",
                 "f10d551d80d03fae7629a16d23da7bf4ed6de1ddcf4e6e7f868772948926d5f2"),
    "relu": ("5ca789746108d1c4a9e3f971d20a96fd3432bf15843cbcf7dec7a5bae549ec54",
             "897ba75c40e3ee1762fb5836b12e3541baec048d6925e496b40fa142b9264e45",
             "dd52b58c8a0fb6c6ca6895e76b570ce006d93252eb3f2c2f210c8544f230b2df"),
}


PINNED_WIDTHS = (4, 8, 16)


@pytest.mark.parametrize("width", PINNED_WIDTHS)
@pytest.mark.parametrize("kind", sorted(PINNED))
def test_emitted_program_is_pinned(kind, width):
    compiled = compiled_op(kind, width, effort=2, n_inputs=4 if kind in N_ARY else 2)
    text = format_microprogram(compiled.program)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[kind][PINNED_WIDTHS.index(width)]


def _grid_digest_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "grid_digest.py"
    spec = importlib.util.spec_from_file_location("grid_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("width,digest,activations", [
    (4, "efa0fd7a21d81993", 2306),
    (8, "59916a65e448fdd8", 6906),
], ids=["4", "8"])  # a regenerated pin keeps the test's name
def test_grid_digest_is_pinned(width, digest, activations):
    """The digest also covers each cell's `SynthesisReport` repr and its
    `verified_cases`, which `PINNED` does not."""
    assert _grid_digest_script().width_digest(width) == (digest, activations)


def test_grid_digest_stops_quietly_when_stdout_closes(monkeypatch):
    """`grid_digest.py | head -1` closes the pipe after one line: `main`
    returns instead of raising `BrokenPipeError`."""
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    script = _grid_digest_script()
    monkeypatch.setattr(script, "width_digest", lambda width: ("0" * 16, 0))
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert script.main(["--widths", "4", "8"]) == 1


def test_grid_digest_times_each_width_on_stderr_only(monkeypatch, capsys):
    """Stdout holds only the digests, so two commits' runs diff line for
    line; each width's compile seconds go to stderr."""
    script = _grid_digest_script()
    monkeypatch.setattr(script, "width_digest", lambda width: ("0" * 16, width))
    assert script.main(["--widths", "4", "8"]) == 0
    out, err = capsys.readouterr()
    assert out == ("width 4: 0000000000000000  (4 activations)\n"
                   "width 8: 0000000000000000  (8 activations)\n"
                   "grid total: 12 activations\n")
    assert re.fullmatch(r"width 4: \d+\.\d{3} s compile\nwidth 8: \d+\.\d{3} s compile\n", err)


def _two_spare_rows(g: MajGraph) -> SubarrayConfig:
    rows = g.input_count + g.output_count + 2
    return SubarrayConfig(total_rows=rows + 8, columns=64, data_row_count=rows)


def _program_or_capacity(g: MajGraph, cfg: SubarrayConfig) -> str:
    try:
        return format_microprogram(schedule(g, allocate_rows(g, cfg)))
    except CapacityError as e:
        return f"CapacityError: {e}"


@pytest.mark.parametrize("kind,width", [("sub", 4), ("add", 4), ("mul", 4)])
def test_schedule_does_not_reuse_a_sweep_made_under_another_subarray(kind, width):
    """Lowered sub4 spills into both spare rows; add4 needs three and mul4
    eight, so under two spare rows they must raise, not ship the program
    swept under the default subarray."""
    g = lower_to_maj(build_netlist(kind, width))
    fresh = _program_or_capacity(MajGraph(
        g.input_count, g.packed_nodes, g.packed_outputs), _two_spare_rows(g))
    estimate_cost_static(g)
    assert _program_or_capacity(g, _two_spare_rows(g)) == fresh
    if kind == "sub":
        rowmap = allocate_rows(g, _two_spare_rows(g))
        assert any(c.endswith(f" D{rowmap.spill_end - 1}") for c in fresh.splitlines())
    else:
        assert fresh.startswith("CapacityError")


def test_compile_op_sweeps_only_the_graphs_it_scores(monkeypatch):
    """For every op at widths 4 and 8, `compile_op` sweeps once per graph
    the objective scores: `schedule` finds the winning graph's sweep in
    the two-entry cache."""
    sweeps, scored = [], []
    real_run, real_objective = codegen._Scheduler.run, synthesis.estimate_cost_static

    def counted_run(self):
        sweeps.append(self.graph)
        return real_run(self)

    def objective(g, cfg=None):
        scored.append(g)
        return real_objective(g, cfg)

    monkeypatch.setattr(codegen._Scheduler, "run", counted_run)
    monkeypatch.setattr(synthesis, "estimate_cost_static", objective)
    for kind in OP_KINDS:
        for width in (4, 8):
            sweeps.clear()
            scored.clear()
            codegen._sweep.cache_clear()
            compile_op(kind, width)
            info = codegen._sweep.cache_info()
            assert sweeps == scored, (kind, width)
            assert (info.misses, info.hits) == (len(scored), 1), (kind, width)
            assert info.currsize <= 2


def test_spill_rows_reported_on_a_tight_subarray():
    widths, out_width = op_signature("add", 4)
    rows = sum(widths) + out_width + 2
    cfg = SubarrayConfig(total_rows=rows + 8, columns=64, data_row_count=rows)
    compiled = compile_op("add", 4, cfg)
    written = {c.rows[1] for c in compiled.program.commands
               if c.op == "AAP" and (data_row_index(c.rows[1]) or 0) >= compiled.rowmap.spill_start}
    assert compiled.spill_rows == len(written) == 2
