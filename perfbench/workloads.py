"""The three benchmark workloads: inputs, the run itself, and output checks.

Workload seed s shifts the dataset seeds of the matching acceptance gate by
s, so s = 0 reproduces the gate's own data and s = 1 is the held-out seed.
The training seed stays at the gate's value 0: with other init seeds the
sigmoid desk net can stall at chance (train seeds 2 and 4 did not converge
in 200 epochs), and a workload must not fail at random seeds.

Each workload has
  setup(dir, seed, synth_timer)  writes the inputs (datasets, and for transfer
      the pretrained backbone), generating datasets under synth_timer(); it
      returns the input paths, inputs[dataset] being the one trained on
  run(inputs, out)  one replica, the part the benchmark times
  check(inputs, out, seed)  the output problems of one replica, as strings
  run_dirs(out)  the run directories whose walltime.csv the benchmark reads
"""

import json
import os
from dataclasses import replace
from pathlib import Path

from bct.checkpoint import read_checkpoint
from bct.cli import main as bct_main
from bct.config import LossSpec, ModelConfig, OptimizerConfig, TrainConfig
from bct.data import load_manifest, synth_generate
from bct.staging import pretrain_source

from bct import trainer  # called as trainer.train, so a traced replica reaches the patched name


def train_images(root) -> int:
    return len(load_manifest(root).ids("train"))


def _json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


class Desk:
    """The ROADMAP desk-scale run, gate 6: 64 px checker, 200 images, focal, Adam."""

    name = "desk"
    dataset = "data"
    # gate 6 allows 200 epochs; the pinned seed converges in 39, and the cap
    # keeps a stalled run inside the time limit of one benchmark run
    max_epochs = 80

    @staticmethod
    def setup(d, seed, synth_timer):
        root = Path(d) / "data"
        with synth_timer():
            synth_generate(root, n_per_class=100, seed=seed, noise_level=0.1,
                           image_size=64, family="checker", cell_size=8)
        return {"data": str(root)}

    @classmethod
    def run(cls, inputs, out, epoch_cap=None):
        trainer.train(TrainConfig(data_root=inputs["data"], image_size=64,
                                  loss=LossSpec(kind="focal", gamma=2.0),
                                  optim=OptimizerConfig(kind="adam"), batch_size=16,
                                  max_epochs=epoch_cap or cls.max_epochs, seed=0,
                                  out_dir=str(Path(out) / "desk")))

    @staticmethod
    def run_dirs(out):
        return [Path(out) / "desk"]

    @staticmethod
    def check(inputs, out, seed):
        result = _json(Path(out) / "desk" / "result.json")
        acc = result["test"]["metrics"]["accuracy"]
        problems = []
        if not result["converged"]:
            problems.append(f"desk did not converge in {result['epochs_total']} epochs")
        if acc < 0.95:
            problems.append(f"desk test accuracy {acc} < 0.95")
        return problems


class Transfer:
    """tl and etl on a 32 px checker target over a backbone pretrained on rings."""

    name = "transfer"
    dataset = "target"
    stage_epochs = 10
    pretrain_epochs = 6

    @classmethod
    def base(cls, target, max_epochs):
        # acc 1.0 and loss 1e-30 are out of reach, so every stage runs to its cap
        return TrainConfig(data_root=target, image_size=32, model=ModelConfig(kind="backbone"),
                           loss=LossSpec(kind="focal", gamma=2.0),
                           optim=OptimizerConfig(kind="adam", learning_rate=0.01),
                           batch_size=8, max_epochs=max_epochs, acc_threshold=1.0,
                           loss_threshold=1e-30, seed=0)

    @classmethod
    def setup(cls, d, seed, synth_timer):
        d = Path(d)
        with synth_timer():
            synth_generate(d / "source", n_per_class=50, seed=100 + seed, noise_level=0.1,
                           image_size=32, family="rings", cell_size=8)
            synth_generate(d / "target", n_per_class=100, seed=200 + seed, noise_level=0.65,
                           image_size=32, family="checker", cell_size=8)
        ckpt = d / "backbone.bct1"
        pretrain_source(cls.base(str(d / "source"), cls.pretrain_epochs), ckpt)
        return {"target": str(d / "target"), "backbone": str(ckpt)}

    @classmethod
    def run(cls, inputs, out, epoch_cap=None):
        base = cls.base(inputs["target"], epoch_cap or cls.stage_epochs)
        for paradigm in ("tl", "etl"):
            trainer.train(replace(base, paradigm=paradigm, pretrain_checkpoint=inputs["backbone"],
                                  out_dir=str(Path(out) / paradigm)))

    @staticmethod
    def run_dirs(out):
        return [Path(out) / "tl", Path(out) / "etl"]

    @classmethod
    def check(cls, inputs, out, seed):
        out = Path(out)
        problems = []
        pretrained = read_checkpoint(inputs["backbone"])
        tl = read_checkpoint(out / "tl" / "final.bct1")
        etl = read_checkpoint(out / "etl" / "final.bct1")
        for name, arr in pretrained.items():
            if tl[name].tobytes() != arr.tobytes():
                problems.append(f"tl changed frozen {name}")
        if all(etl[n].tobytes() == a.tobytes() for n, a in pretrained.items()):
            problems.append("etl stage 2 left the backbone unchanged")
        cap = cls.stage_epochs
        for paradigm, want in (("tl", [cap]), ("etl", [cap, cap])):
            got = _json(out / paradigm / "result.json")["per_stage_epochs"]
            if got != want:
                problems.append(f"{paradigm} ran stages {got}, expected {want}")
        return problems


class ImbalanceSuite:
    """bct ablate --suite loss on gate 9's 90/10 set with the capacity-starved net."""

    name = "imbalance_suite"
    dataset = "data"
    arms = ("cross_entropy", "focal_g0", "focal_g1", "focal_g2")

    @staticmethod
    def jobs():
        # each worker runs one BLAS thread, so jobs x threads stays <= nproc
        return min(2, len(os.sched_getaffinity(0)))

    @staticmethod
    def setup(d, seed, synth_timer):
        root = Path(d) / "data"
        with synth_timer():
            synth_generate(root, class_counts=(450, 50), seed=302 + seed, noise_level=1.0,
                           image_size=32, family="checker", cell_size=4)
        return {"data": str(root)}

    @classmethod
    def run(cls, inputs, out, epoch_cap=None):
        argv = ["ablate", "--suite", "loss", "--seeds", "0", "--jobs", str(cls.jobs()),
                "--out", str(Path(out) / "ablation"), "--data.root", inputs["data"],
                "--data.image_size", "32", "--model.channels", "2, 4",
                "--model.dense_width", "8", "--optim.learning_rate", "0.005",
                "--train.batch_size", "8", "--train.max_epochs", str(epoch_cap or 20),
                # out of reach, as in transfer: without them an arm that converges
                # early (focal_g1 at 6 to 9 epochs) makes the epoch count seed-dependent
                "--train.acc_threshold", "1.0", "--train.loss_threshold", "1e-30"]
        code = bct_main(argv)
        if code != 0:
            raise RuntimeError(f"bct ablate exited with {code}")

    @classmethod
    def run_dirs(cls, out):
        return [Path(out) / "ablation" / arm / "seed_0" for arm in cls.arms]

    @classmethod
    def check(cls, inputs, out, seed):
        lines = (Path(out) / "ablation" / "runs.jsonl").read_text(encoding="utf-8").splitlines()
        runs = {r["arm"]: r for r in map(json.loads, lines)}
        if sorted(runs) != sorted(cls.arms):
            return [f"ablation arms {sorted(runs)}, expected {sorted(cls.arms)}"]
        problems = [f"{arm} has no test recall" for arm, r in runs.items() if r["recall"] is None]
        # gate 9 pins the ordering at its own seed only; other seeds may reverse it
        if seed == 0 and not problems:
            focal, ce = runs["focal_g2"]["recall"], runs["cross_entropy"]["recall"]
            if focal < ce:
                problems.append(f"focal_g2 minority recall {focal} < cross_entropy {ce}")
        return problems


WORKLOADS = {w.name: w for w in (Desk, Transfer, ImbalanceSuite)}
