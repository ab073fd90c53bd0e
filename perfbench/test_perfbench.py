"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The traced runs use short epoch caps, so the whole file takes about half a
minute; the count metrics must still repeat exactly between two runs.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import opcount  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EPOCH_CAP = 2  # per stage, to keep the traced runs short
EXACT = (
    "layers.conv.gflop",
    "layers.conv.calls",
    "layers.conv.bwd_useful_ratio",
    "layers.frozen_fwd_useful_ratio",
    "layers.conv.fwd_gflop_computed",
    "layers.conv.bwd_gflop_computed",
    "layers.pool.fwd_gop_computed",
    "layers.pool.bwd_mb_computed",
    "staging.stage_epochs",
    "staging.transitions",
    "tensor.backward.calls",
    "losses.calls",
    "optim.step.calls",
    "optim.params_skipped",
    "data.images_decoded",
    "data.batches",
    "metrics.samples_counted",
    "checkpoint.bytes_written",
)


def test_conv_counts_by_hand():
    # one 3x3 window over one channel: 9 multiply-adds and a bias add
    assert opcount.conv_forward(1, 1, 3, 3, 1, 3, 1, 1, 4) == (2 * 9 + 1, 4 * (9 + 9 + 1 + 1))
    # backward without dx: dW (9 MACs) and db; reads g, x, writes dW, db
    assert opcount.conv_backward(1, 1, 3, 3, 1, 3, 1, 1, 4, False) == (19, 4 * (1 + 9 + 9 + 1))
    # with dx: another 9 MACs, 9 scatter adds, reads w, writes dx
    assert opcount.conv_backward(1, 1, 3, 3, 1, 3, 1, 1, 4, True) == (19 + 18 + 9, 4 * 38)


def test_pool_counts_by_hand():
    # 2x2 window on a 4x4 map: 4 outputs, 3 comparisons each
    assert opcount.pool_forward(1, 1, 4, 4, 2, 2, 2, 4) == (12, 4 * (16 + 4))
    assert opcount.pool_backward(1, 1, 4, 4, 2, 2, 4) == (4, 4 * (4 + 16))


def traced_replica(workload, inputs, out, cap):
    job = {"workload": workload.name, "inputs": inputs, "out": str(out / "out"),
           "trace_dir": str(out / "trace"), "result": str(out / "result.json"),
           "src": str(ROOT / "src"), "epoch_cap": cap}
    out.mkdir(parents=True)
    (out / "job.json").write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(out / "job.json")],
                   cwd=ROOT, env=env, check=True, timeout=300, capture_output=True)
    wall = json.loads((out / "result.json").read_text(encoding="utf-8"))["wall_s"]
    summary = tracer.summarize(out / "trace", wall)
    summary["epochs"] = sum(
        json.loads((d / "result.json").read_text(encoding="utf-8"))["epochs_total"]
        for d in workload.run_dirs(out / "out"))
    return summary


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_count_metrics_repeat_exactly(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(tmp_path / "setup", 1, contextlib.nullcontext)
    a = traced_replica(workload, inputs, tmp_path / "a", EPOCH_CAP)
    b = traced_replica(workload, inputs, tmp_path / "b", EPOCH_CAP)
    for key in EXACT + ("epochs",):
        assert a[key] == b[key], key
    assert a["trainer.train_runs"] == len(workload.run_dirs(tmp_path))
    assert a["layers.conv.calls"] > 0 and a["layers.conv.gflop"] > 0
    if name == "transfer":
        # tl and etl stage 1 freeze the backbone, etl stage 2 trains it
        assert a["layers.conv.bwd_useful_ratio"] == pytest.approx(1 / 3)
        assert 0 < a["layers.frozen_fwd_useful_ratio"] < 1
        assert a["staging.transitions"] == 1
    else:
        assert a["layers.conv.bwd_useful_ratio"] == 1.0
        assert a["layers.frozen_fwd_useful_ratio"] == 1.0


def test_fails_without_program(tmp_path):
    """In a directory holding only the benchmark, the command must fail without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
