"""Smoke test of the timing scripts: each compares two source trees for
one round or run and reports which was faster."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def src_copy(tmp_path_factory) -> Path:
    """A second tree with this checkout's `pumkit`: one tree passed twice
    collapses to one, which has nothing to be faster than."""
    copy = tmp_path_factory.mktemp("tree") / "src"
    shutil.copytree(ROOT / "src" / "pumkit", copy / "pumkit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


@pytest.mark.parametrize("script", ["sweep_timing.py", "cut_timing.py", "cell_timing.py",
                                    "check_timing.py", "import_timing.py"])
def test_script_times_two_trees(script, src_copy):
    src = ROOT / "src"
    once = "--runs" if script == "import_timing.py" else "--rounds"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--src", str(src), str(src_copy),
         once, "1"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert f"{src_copy} faster than {src} in " in done.stdout
