"""The benchmark's tracer still sees the program's entry points.

perfbench/tracer.py wraps bct functions by name (the three loss functions,
Optimizer.step, the load_split, make_batches, count_batch and load_subset
names bound in bct.trainer, and bct.data.stack_batch, whose Batch.ids feed the
frozen-forward ratio). A refactor that stops calling a wrapped name, for example by
binding a loss kernel directly, reads 0 in that metric without failing any
other test. So this trains tiny runs under the tracer in a fresh process and
checks the counts it summarises.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, sys, time
from pathlib import Path

out = Path(sys.argv[1])
sys.path[:0] = [sys.argv[2], sys.argv[3]]
import tracer
from bct import trainer
from bct.config import LossSpec, ModelConfig, TrainConfig
from bct.data import load_manifest, synth_generate
from bct.staging import pretrain_source

synth_generate(out / "data", n_per_class=8, seed=2, noise_level=0.05, image_size=16,
               family="checker", cell_size=4)
tr = tracer.install(out / "unused")
summaries = {}
for kind in ("cross_entropy", "binary_cross_entropy", "focal"):
    tr.reset()
    trace = out / kind
    trace.mkdir()
    started = time.perf_counter()
    trainer.train(TrainConfig(data_root=str(out / "data"), image_size=16, seed=3, batch_size=8,
                              max_epochs=2, model=ModelConfig(channels=(2, 4, 4), dense_width=8),
                              loss=LossSpec(kind=kind)))
    tr.dump(trace / "main.json")
    summaries[kind] = tracer.summarize(trace, time.perf_counter() - started)

# tl over a backbone pretrained on a second tiny dataset; only the tl run is traced
synth_generate(out / "source", n_per_class=6, seed=5, noise_level=0.05, image_size=16,
               family="rings", cell_size=4)
backbone = ModelConfig(kind="backbone", channels=(2, 4, 4), dense_width=8)
ckpt = pretrain_source(TrainConfig(data_root=str(out / "source"), image_size=16, seed=3, batch_size=8,
                                   max_epochs=1, model=backbone), out / "backbone.bct1")
tr.reset()
trace = out / "tl"
trace.mkdir()
started = time.perf_counter()
log = trainer.train(TrainConfig(data_root=str(out / "data"), image_size=16, seed=3, batch_size=5, max_epochs=3,
                                model=backbone, paradigm="tl", pretrain_checkpoint=str(ckpt),
                                acc_threshold=1.0, loss_threshold=1e-30))
tr.dump(trace / "main.json")
summaries["tl"] = tracer.summarize(trace, time.perf_counter() - started)
balance = load_manifest(out / "data").class_balance()
summaries["tl"]["run"] = {"epochs": sum(log.per_stage_epochs),
                          **{s: sum(balance[s].values()) for s in ("train", "val", "test")}}
print(json.dumps(summaries))
"""


@pytest.fixture(scope="module")
def summaries(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out), str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("kind", ["cross_entropy", "binary_cross_entropy", "focal"])
@pytest.mark.parametrize(
    "metric", ["losses.calls", "optim.step.calls", "data.batches", "metrics.samples_counted",
               "tensor.backward.calls", "layers.conv.calls"],
)
def test_traced_count_is_non_zero(summaries, kind, metric):
    assert summaries[kind][metric] > 0


@pytest.mark.parametrize("kind", ["cross_entropy", "binary_cross_entropy", "focal"])
def test_one_step_and_one_backward_per_training_batch(summaries, kind):
    s = summaries[kind]
    assert s["optim.step.calls"] == s["tensor.backward.calls"] == s["data.batches"]


def test_tl_run_decodes_each_image_once_and_batches_by_index(summaries):
    s = summaries["tl"]
    run = s["run"]
    assert run["epochs"] == 3
    assert s["data.images_decoded"] == run["train"] + run["val"] + run["test"]
    assert s["data.batches"] == run["epochs"] * math.ceil(run["train"] / 5)
    # read from Batch.ids through the stack_batch hook; 1.0 if the hook is bypassed
    assert s["layers.frozen_fwd_useful_ratio"] < 1
    # every forward runs through the frozen backbone: per epoch a train pass, a
    # train-eval pass and a val pass, then one test pass; each image is distinct once
    forwards = run["epochs"] * (2 * run["train"] + run["val"]) + run["test"]
    distinct = run["train"] + run["val"] + run["test"]
    assert s["layers.frozen_fwd_useful_ratio"] == distinct / forwards


def test_tl_run_times_its_backbone_load(summaries):
    # train() loads the pretrained backbone through the load_subset name bound in bct.trainer
    assert summaries["tl"]["checkpoint.load_subset_s"] > 0
