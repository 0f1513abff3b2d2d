"""Every demo prints the bytes pinned in tests/data/demos/<stem>.out."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import kernel_pin

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demo 03 also plots its fringe when matplotlib imports; the pinned text is the plain run's
PLOT_LINES = "\nwrote fringe.png\n"
# demo 04 prints the window solver's angles at full precision, and np.linalg.solve rounds them
# per OpenBLAS kernel, so its text is pinned per kernel in <stem>.<core>.out
PER_KERNEL = {"04_transform_compiler": ("SkylakeX", "Haswell")}


def pinned_text(stem):
    name = f"{stem}.out"
    if stem in PER_KERNEL:
        name = kernel_pin({core: f"{stem}.{core}.out" for core in PER_KERNEL[stem]})
    return (ROOT / "tests" / "data" / "demos" / name).read_text()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_pinned(demo, tmp_path):
    # the demo runs in tmp_path, where demo 03 writes fringe.png
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = run.stdout
    if importlib.util.find_spec("matplotlib") and out.endswith(PLOT_LINES):
        out = out[: -len(PLOT_LINES)]
    assert out == pinned_text(demo.stem)
