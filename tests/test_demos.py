"""Smoke test: the demos run to completion against the current package.

Each demo runs as its own process, from a scratch directory so that its
default demo_out/ lands there. imbalance_report is left out: it trains four
loss arms to their epoch caps and takes several times longer than the other
five demos together (20 to 35 s against about 10 s), while exercising the
same code paths as the ablation tests and acceptance gate 9.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["autodiff_basics", "loss_landscape", "optimizer_steps", "train_quickstart", "transfer_stages"]
)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
