"""Every demo prints the bytes pinned in tests/data/demos/<stem>.out."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demo 03 also plots its fringe when matplotlib imports; the pinned text is the plain run's
PLOT_LINES = "\nwrote fringe.png\n"


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
    assert out == (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.out").read_text()
