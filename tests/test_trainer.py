"""Training loop behavior: convergence, staging, artifacts, determinism.

Runs here use 16x16 images and a few samples per class so each case stays
well under a second; the full-scale behavior lives in test_acceptance.py.
"""

import concurrent.futures
import json
import math
import re
import statistics
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bct import trainer
from bct.checkpoint import read_checkpoint
from bct.cli import main
from bct.config import ModelConfig, TrainConfig
from bct.data import Split, stack_batch, synth_generate
from bct.errors import ConfigError, DataError, NumericError
from bct.layers import Model, build_cnn
from bct.losses import LossSpec, make_loss
from bct.optim import Optimizer, OptimizerConfig
from bct.staging import pretrain_source
from bct.tensor import Tensor
from bct.trainer import EpochRecord, RunLog, check_convergence, read_runlog, run_ablation, runlog_csv, train

SMALL_MODEL = dict(kind="cnn", channels=(4, 8, 8), dense_width=16)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "checker"
    synth_generate(root, n_per_class=8, seed=2, noise_level=0.05,
                   image_size=16, family="checker", cell_size=4)
    return str(root)


def small_config(dataset, **overrides):
    kwargs = dict(
        data_root=dataset,
        image_size=16,
        seed=3,
        model=ModelConfig(**SMALL_MODEL),
        batch_size=8,
        max_epochs=2,
    )
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


class TestConvergenceRule:
    def test_both_thresholds_must_hold(self):
        assert check_convergence(0.99, 0.001, 0.99, 0.001)
        assert not check_convergence(0.98, 0.0005, 0.99, 0.001)
        assert not check_convergence(1.0, 0.002, 0.99, 0.001)

    def test_boundary_is_inclusive(self):
        assert check_convergence(0.99, 0.001, 0.99, 0.001)


class TestTrainLoop:
    def test_records_one_per_epoch(self, dataset):
        log = train(small_config(dataset))
        assert [r.epoch for r in log.records] == [1, 2]
        assert all(r.stage == 1 for r in log.records)
        assert all(math.isfinite(r.train_loss) for r in log.records)
        assert not log.converged
        assert log.epochs_to_converge is None
        assert log.per_stage_epochs == [2]

    def test_trivial_thresholds_converge_at_epoch_one(self, dataset):
        config = small_config(dataset, acc_threshold=0.01, loss_threshold=100.0)
        log = train(config)
        assert log.converged
        assert log.epochs_to_converge == 1
        assert log.per_stage_epochs == [1]
        assert log.test_report is not None
        assert log.test_report.epochs_to_converge == 1

    def test_missing_data_root(self):
        with pytest.raises(ConfigError, match="data.root"):
            train(TrainConfig(model=ModelConfig(**SMALL_MODEL)))

    def test_model_too_deep_for_image(self, dataset):
        # three pool-2 stages cannot divide a 4px image
        config = small_config(dataset, image_size=4)
        with pytest.raises(ConfigError, match="image_size"):
            train(config)

    def test_diverging_forward_names_epoch_batch_and_layer(self, dataset):
        # step 1 leaves huge but finite weights; the next forward's scores are NaN
        config = small_config(dataset, optim=OptimizerConfig(learning_rate=1e30))
        with pytest.raises(NumericError, match=r"non-finite scores at epoch 1, batch 1; "
                                               r"first non-finite output from layer 12 \(dense2\)"):
            train(config)

    def test_diverging_eval_pass_names_the_epoch(self, dataset):
        # one batch per epoch: its step leaves huge weights, and the train-eval pass is the next forward
        config = small_config(dataset, batch_size=64, optim=OptimizerConfig(learning_rate=1e30))
        with pytest.raises(NumericError, match=r"^epoch 1: non-finite scores in evaluation batch 0; "
                                               r"first non-finite output from layer \d+"):
            train(config)

    def test_non_finite_eval_scores_name_the_batch_and_layer(self, dataset):
        config = small_config(dataset)
        model = trainer.build_model(config)
        model.params["dense1.weight"].data[0, 0] = np.inf
        samples = trainer.load_split(config.manifest(), "train")
        with pytest.raises(NumericError, match=r"in evaluation batch 0; first non-finite output from layer 10 \(dense1\)"):
            trainer.eval_split(model, samples, batch_size=4)

    def test_non_finite_gradient_names_parameter_epoch_and_batch(self, dataset, monkeypatch):
        # a finite loss whose gradient is NaN from the second training batch on
        real_make_loss, steps = trainer.make_loss, []

        def poisoned(spec):
            real = real_make_loss(spec)

            def loss_fn(s, t):
                loss = real(s, t)
                if not loss.requires_grad:  # an eval pass
                    return loss
                steps.append(1)
                fill = np.full(s.shape, np.nan if len(steps) >= 2 else 0.0, s.dtype)
                return Tensor.from_op(loss.data, (s,), lambda g: s.accumulate_grad(fill))

            return loss_fn

        monkeypatch.setattr(trainer, "make_loss", poisoned)
        with pytest.raises(NumericError, match=r"parameter 'conv1.weight' at epoch 1, batch 1"):
            train(small_config(dataset))

    def test_best_val_tracks_strict_improvement(self, dataset):
        log = train(small_config(dataset, max_epochs=3))
        recorded = [r.val_acc for r in log.records]
        best = max(recorded)
        # ties resolve to the earliest epoch that reached the best value
        assert log.best_epoch == recorded.index(best) + 1
        assert log.best_state is not None


class TestStepMemory:
    def test_each_steps_graph_is_freed_before_the_next_forward(self, dataset, monkeypatch):
        # weakrefs into the last training step's graph: its scores' array, and the
        # backward closures of scores and loss, which hold the rest of the tape
        real_forward, real_make_loss = Model.forward, trainer.make_loss
        alive, checks = [], []

        def forward(self, x):
            if alive:  # the next step's forward, or the train-eval pass after the last step
                checks.append(sum(r() is not None for r in alive))
                alive.clear()
            scores = real_forward(self, x)
            if scores.requires_grad:
                alive.extend([weakref.ref(scores.data), weakref.ref(scores._backward)])
            return scores

        def make_loss(spec):
            real = real_make_loss(spec)

            def loss_fn(s, t):
                loss = real(s, t)
                if loss.requires_grad:
                    alive.append(weakref.ref(loss._backward))
                return loss

            return loss_fn

        monkeypatch.setattr(Model, "forward", forward)
        monkeypatch.setattr(Model, "__call__", forward)
        monkeypatch.setattr(trainer, "make_loss", make_loss)
        train(small_config(dataset))
        steps = 2 * math.ceil(len(trainer.load_split(small_config(dataset).manifest(), "train")) / 8)
        assert checks == [0] * steps  # every step checked, none of its graph still alive

    def test_train_holds_no_float_copy_of_the_split(self, tmp_path):
        # 400 train images whose float32 values take 1.2 MiB; a loop that holds the
        # float split and the epoch's stacked batches peaks above twice that
        synth_generate(tmp_path, n_per_class=250, seed=1, image_size=16, cell_size=4)
        config = TrainConfig(data_root=str(tmp_path), image_size=16, batch_size=4, max_epochs=1,
                             model=ModelConfig(channels=(2,), dense_width=4, kernel_size=1))
        train_floats = len(trainer.load_split(config.manifest(), "train")) * 3 * 16 * 16 * 4
        tracemalloc.start()
        try:
            train(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * train_floats

    def test_desk_shaped_train_stays_under_24_mib(self, tmp_path):
        # desk's network and batch: a step that keeps conv1's and conv2's whole
        # columns (6.75 + 4.5 MiB) and every interior gradient until its walk
        # ends, or an eval pass that holds conv1's output for a whole batch,
        # peaks above 31 MiB here; bounded, both stay near 17 MiB
        synth_generate(tmp_path, n_per_class=20, seed=0, noise_level=0.1, image_size=64, cell_size=8)
        config = TrainConfig(data_root=str(tmp_path), image_size=64, batch_size=16, max_epochs=1,
                             model=ModelConfig(channels=(8, 16, 32)))
        tracemalloc.start()
        try:
            train(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20, f"traced peak {peak / 2**20:.1f} MiB"

    def test_one_recorded_desk_step_stays_under_8_75_mib(self):
        # desk's network, batch, loss and optimizer, after a warm-up step made
        # Adam's state: the peak (8.01 MiB) is pool1's backward, with conv1's
        # 2 MiB output it reads, its 2 MiB input gradient, the 2 MiB first
        # gradient accumulate_grad makes of that, and the batch. A conv that
        # keeps a padded copy of its input (0.8 MiB for conv1) or more than one
        # block of columns (2.25 MiB for conv3), rebuilds a whole batch's
        # columns for dW (6.75 MiB for conv1), or any other full-batch
        # transient at the peak crosses the budget
        rng = np.random.default_rng(0)
        pixels, labels = rng.integers(0, 256, (16, 3, 64, 64), dtype=np.uint8), rng.integers(0, 2, 16)
        split = Split(pixels, labels, np.arange(16).astype(str))
        model = build_cnn(seed=0)
        optimizer = Optimizer(model.params, OptimizerConfig(kind="adam"))
        loss_fn = make_loss(LossSpec(kind="focal", gamma=2.0))

        def step():
            batch = stack_batch(split)
            loss = loss_fn(model(batch.images), batch.targets)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.75 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"

    def test_allocator_settings_fall_back_silently(self, monkeypatch):
        keep = trainer._keep_freed_pages.__wrapped__  # uncached: each call really runs
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(trainer.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        keep()
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)]

        def no_libc(name):
            raise OSError("no C library")

        for cdll in (no_libc, lambda name: object()):  # no libc; a libc without mallopt
            monkeypatch.setattr(trainer.ctypes, "CDLL", cdll)
            keep()
            keep()
        monkeypatch.undo()
        trainer._keep_freed_pages()
        trainer._keep_freed_pages()


class TestTinySplits:
    def test_empty_val_and_test(self, tmp_path):
        # 3 images allocate (3, 0, 0) under the 0.8/0.1/0.1 split
        root = tmp_path / "tiny"
        synth_generate(root, seed=5, noise_level=0.05, image_size=16,
                       family="checker", cell_size=4, class_counts=(2, 1))
        config = small_config(str(root), batch_size=3, out_dir=str(tmp_path / "run"))
        log = train(config)
        assert all(math.isnan(r.val_acc) for r in log.records)
        assert log.best_state is None
        assert log.test_report is None
        result = json.loads((tmp_path / "run" / "result.json").read_text())
        assert result["test"] is None
        # with no val split, best.bct1 falls back to the final params
        best = read_checkpoint(tmp_path / "run" / "best.bct1")
        final = read_checkpoint(tmp_path / "run" / "final.bct1")
        assert all(np.array_equal(best[n], final[n]) for n in final)


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pre")
    source = tmp / "rings"
    synth_generate(source, n_per_class=8, seed=6, noise_level=0.05,
                   image_size=16, family="rings", cell_size=4)
    config = TrainConfig(
        data_root=str(source), image_size=16, seed=1,
        model=ModelConfig(kind="backbone", channels=(4, 8, 8), dense_width=16),
        batch_size=8, max_epochs=2,
    )
    path = tmp / "backbone.bct1"
    pretrain_source(config, path)
    return str(path)


class TestParadigmRuns:
    def backbone_config(self, dataset, pretrained, paradigm, **overrides):
        return small_config(
            dataset,
            model=ModelConfig(kind="backbone", channels=(4, 8, 8), dense_width=16),
            paradigm=paradigm,
            pretrain_checkpoint=pretrained,
            **overrides,
        )

    def test_tl_never_touches_backbone(self, dataset, pretrained):
        log = train(self.backbone_config(dataset, pretrained, "tl"))
        loaded = read_checkpoint(pretrained)
        for name, array in loaded.items():
            assert np.array_equal(log.final_state[name], array), name
        # the head did train
        head = [n for n in log.final_state if n.startswith("head.")]
        assert head

    def test_etl_stage_two_never_touches_head(self, dataset, pretrained):
        tl = train(self.backbone_config(dataset, pretrained, "tl"))
        etl = train(self.backbone_config(dataset, pretrained, "etl"))
        # same seed and caps: stage 1 replays the tl run exactly, stage 2
        # freezes the head, so the final heads agree to the bit
        for name in etl.final_state:
            if name.startswith("head."):
                assert np.array_equal(etl.final_state[name], tl.final_state[name]), name
        loaded = read_checkpoint(pretrained)
        moved = [n for n in loaded if not np.array_equal(etl.final_state[n], loaded[n])]
        assert moved, "stage 2 should fine-tune the backbone"
        assert etl.per_stage_epochs == [2, 2]
        assert len(etl.transitions) == 1
        assert etl.transitions[0].reason == "cap"

    def test_train_command_prints_each_epoch_and_the_stage_switch(self, dataset, pretrained, tmp_path, capsys):
        no_val = tmp_path / "no_val"
        synth_generate(no_val, n_per_class=4, seed=2, image_size=16, cell_size=4, ratios=(1.0, 0.0, 0.0))
        small = ["--data.image_size", "16", "--model.channels", "4,8,8", "--model.dense_width", "16",
                 "--train.max_epochs", "2"]
        epoch = r"epoch +{}  stage {}  loss \d+\.\d{{6}}  acc \d\.\d{{4}}  val {}"
        assert main(["train", "--data.root", str(no_val), "--data.ratios", "1,0,0", *small]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line, n in zip(lines, (1, 2)):
            assert re.fullmatch(epoch.format(n, 1, "-"), line), line
        assert not lines[2].startswith("epoch")
        assert main(["train", "--data.root", dataset, "--model.kind", "backbone", "--paradigm.kind", "etl",
                     "--paradigm.pretrain_checkpoint", pretrained, *small]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line, (n, stage) in zip(lines, ((1, 1), (2, 1), (3, 2), (4, 2))):
            assert re.fullmatch(epoch.format(n, stage, r"\d\.\d{4}"), line), line
        assert lines[4] == "stage switch after epoch 2: head -> backbone (cap)"

    def test_paradigm_requires_checkpoint(self, dataset):
        config = small_config(
            dataset,
            model=ModelConfig(kind="backbone", channels=(4, 8, 8), dense_width=16),
            paradigm="tl",
        )
        with pytest.raises(ConfigError, match="pretrain_checkpoint"):
            train(config)


class TestArtifacts:
    def test_output_files(self, dataset, tmp_path):
        config = small_config(dataset, out_dir=str(tmp_path / "run"))
        log = train(config)
        out = tmp_path / "run"
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "best.bct1", "final.bct1", "manifest.txt",
            "result.json", "runlog.csv", "walltime.csv",
        ]
        assert (out / "runlog.csv").read_text() == runlog_csv(log)
        result = json.loads((out / "result.json").read_text())
        assert result["epochs_total"] == 2
        assert result["converged"] is False
        manifest = (out / "manifest.txt").read_text()
        assert "train.seed = 3" in manifest
        assert "train.out_dir" not in manifest

    def test_runlog_csv_format(self):
        log = RunLog(records=[EpochRecord(1, 1, 0.6931471805599453, 0.5, 0.25)])
        assert runlog_csv(log) == (
            "epoch,stage,train_loss,train_acc,val_acc\n1,1,0.693147181,0.5,0.25\n"
        )

    def test_runlog_round_trips_through_read_runlog(self, tmp_path):
        records = [EpochRecord(1, 1, 0.6931471805599453, 0.5, float("nan")), EpochRecord(2, 2, 1e-05, 1.0, 0.125)]
        text = runlog_csv(RunLog(records=records))
        path = tmp_path / "runlog.csv"
        path.write_text(text, encoding="utf-8")
        assert runlog_csv(RunLog(records=read_runlog(path))) == text

    @pytest.mark.parametrize("row", ["2,1,0.5,1.5,0.5", "2,1,0.5,0.5,-0.1"], ids=["train_acc", "val_acc"])
    def test_read_runlog_rejects_an_accuracy_out_of_range(self, tmp_path, row):
        path = tmp_path / "runlog.csv"
        path.write_text(runlog_csv(RunLog(records=[EpochRecord(1, 1, 0.5, 0.5, 0.5)])) + row + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:3: train_acc must lie in \[0, 1\]"):
            read_runlog(path)

    def test_epochs_label(self):
        assert RunLog(per_stage_epochs=[3]).epochs_label() == "3"
        assert RunLog(per_stage_epochs=[2, 5]).epochs_label() == "7 (2 + 5)"

    def test_reruns_are_byte_identical(self, dataset, tmp_path):
        outs = []
        for name in ("one", "two"):
            config = small_config(dataset, out_dir=str(tmp_path / name))
            train(config)
            outs.append(tmp_path / name)
        for name in ("runlog.csv", "result.json", "manifest.txt", "final.bct1", "best.bct1"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestAblation:
    def test_unknown_suite(self, dataset, tmp_path):
        with pytest.raises(ConfigError, match="unknown suite"):
            run_ablation("width", small_config(dataset), [1], tmp_path)

    def test_seed_validation(self, dataset, tmp_path):
        with pytest.raises(ConfigError, match="at least one seed"):
            run_ablation("loss", small_config(dataset), [], tmp_path)
        with pytest.raises(ConfigError, match="duplicate"):
            run_ablation("loss", small_config(dataset), [1, 1], tmp_path)
        with pytest.raises(ConfigError, match="jobs"):
            run_ablation("loss", small_config(dataset), [1], tmp_path, jobs=0)

    def test_paradigm_suite_needs_source(self, dataset, tmp_path):
        config = small_config(
            dataset, model=ModelConfig(kind="backbone", channels=(4, 8, 8), dense_width=16)
        )
        with pytest.raises(ConfigError, match="source_root"):
            run_ablation("paradigm", config, [1], tmp_path)
        with pytest.raises(ConfigError, match="backbone"):
            run_ablation("paradigm", small_config(dataset, source_root=dataset), [1], tmp_path)

    def test_pool_has_no_more_workers_than_runs(self, dataset, tmp_path, monkeypatch):
        # a pool forks every worker up front; this stand-in records the size and runs the jobs in-process
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # run_ablation imports the pool class from concurrent.futures only when jobs > 1
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        table = run_ablation("loss", small_config(dataset, max_epochs=1), [1], tmp_path, jobs=64)
        assert sizes == [4] and len(table.runs) == 4

    def test_a_serial_ablation_never_imports_the_process_pool(self, dataset, tmp_path):
        # the pool's multiprocessing stack adds about 1.7 MiB to a process, so
        # only run_ablation with jobs > 1 imports it; a fresh interpreter shows it
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import bct, bct.cli, bct.trainer\n"
            "from bct.config import ModelConfig, TrainConfig\n"
            "config = TrainConfig(data_root=sys.argv[2], image_size=16, batch_size=8, max_epochs=1,\n"
            "                     model=ModelConfig(channels=(4, 8, 8), dense_width=16))\n"
            "bct.trainer.run_ablation('loss', config, [1], sys.argv[3], jobs=1)\n"
            "print('concurrent.futures.process' in sys.modules)\n"
        )
        src = Path(trainer.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script, str(src), dataset, str(tmp_path / "suite")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "suite" / "ablation.csv").is_file()

    def test_importing_trainer_and_cli_loads_no_cli_only_stdlib_module(self):
        # argparse, statistics and difflib add about 1 MiB to a numpy process;
        # only the parser and a rejected config key import one, when they run
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import bct, bct.cli, bct.trainer\n"
            "print(sorted(m for m in ('argparse', 'statistics', 'difflib') if m in sys.modules))\n"
        )
        src = Path(trainer.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script, str(src)], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_paradigm_suite_pretrains_per_seed_and_matches_across_jobs(self, dataset, tmp_path):
        source = tmp_path / "rings"
        synth_generate(source, n_per_class=6, seed=4, noise_level=0.05,
                       image_size=16, family="rings", cell_size=4)
        config = small_config(
            dataset, source_root=str(source),
            model=ModelConfig(kind="backbone", channels=(4, 8, 8), dense_width=16),
        )
        for jobs in (1, 2):
            out = tmp_path / f"jobs_{jobs}"
            table = run_ablation("paradigm", config, [0, 1], out, jobs=jobs)
            assert table.arms == ["baseline", "tl", "etl"]
            backbones = []
            for seed in (0, 1):
                path = out / "pretrain" / f"seed_{seed}" / "backbone.bct1"
                assert path.is_file()
                backbones.append(read_checkpoint(path))
                final = read_checkpoint(out / "tl" / f"seed_{seed}" / "final.bct1")
                for name, array in backbones[-1].items():
                    assert final[name].tobytes() == array.tobytes(), (jobs, seed, name)
            # each seed pretrains its own backbone
            assert any(a.tobytes() != backbones[1][n].tobytes() for n, a in backbones[0].items())
        assert (tmp_path / "jobs_1" / "runs.jsonl").read_bytes() == (
            tmp_path / "jobs_2" / "runs.jsonl"
        ).read_bytes()

    def test_loss_suite_runs_and_writes(self, dataset, tmp_path):
        config = small_config(dataset, max_epochs=1)
        table = run_ablation("loss", config, [1, 2], tmp_path / "abl")
        assert table.arms == ["cross_entropy", "focal_g0", "focal_g1", "focal_g2"]
        assert len(table.runs) == 8
        lines = (tmp_path / "abl" / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 8
        first = json.loads(lines[0])
        assert first["arm"] == "cross_entropy" and first["seed"] == 1
        md = (tmp_path / "abl" / "ablation.md").read_text()
        assert "| focal_g2 |" in md
        csv = (tmp_path / "abl" / "ablation.csv").read_text()
        assert csv.startswith("arm,n_converged,n_runs,median_epochs")
        # every run left its own artifact directory
        assert (tmp_path / "abl" / "focal_g1" / "seed_2" / "runlog.csv").is_file()

    def test_runs_jsonl_repeats_each_runs_result_json(self, dataset, tmp_path):
        run_ablation("loss", small_config(dataset, max_epochs=1), [1, 2], tmp_path / "abl")
        records = [json.loads(line) for line in (tmp_path / "abl" / "runs.jsonl").read_text().splitlines()]
        assert len(records) == 8
        for record in records:
            result_path = tmp_path / "abl" / record["arm"] / f"seed_{record['seed']}" / "result.json"
            result = json.loads(result_path.read_text())
            for key in ("converged", "epochs_to_converge", "epochs_total", "per_stage_epochs"):
                assert record[key] == result[key], (record["arm"], record["seed"], key)
            metrics = result["test"]["metrics"]
            for key, name in (("test_acc", "accuracy"), ("f1", "f1"), ("recall", "recall"), ("precision", "precision")):
                assert record[key] == metrics[name], (record["arm"], record["seed"], key)

    def test_tables_are_deterministic(self, dataset, tmp_path):
        config = small_config(dataset, max_epochs=1)
        run_ablation("optimizer", config, [1], tmp_path / "a")
        run_ablation("optimizer", config, [1], tmp_path / "b")
        for name in ("ablation.md", "ablation.csv", "runs.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_parallel_matches_serial(self, dataset, tmp_path):
        config = small_config(dataset, max_epochs=1)
        run_ablation("optimizer", config, [1, 2], tmp_path / "serial", jobs=1)
        run_ablation("optimizer", config, [1, 2], tmp_path / "par", jobs=2)
        assert (tmp_path / "serial" / "runs.jsonl").read_bytes() == (
            tmp_path / "par" / "runs.jsonl"
        ).read_bytes()


class TestMedians:
    def test_upper_median_and_inf_handling(self):
        assert trainer._median([3, 1, 2]) == 2
        assert trainer._median([1, 2, 3, 4]) == 3
        for values in ([5], [2, 1], [0.5, math.inf, 0.25], [3, 3, 1, 2, 9, 9]):
            assert trainer._median(values) == statistics.median_high(values)
        runs = [
            {"epochs_to_converge": 5, "test_acc": 0.9, "f1": 0.8},
            {"epochs_to_converge": None, "test_acc": 0.5, "f1": 0.4},
        ]
        row = trainer._arm_row("x", runs)
        assert row["median_epochs"] is None  # upper median lands on the failure
        assert row["n_converged"] == 1
        assert row["median_test_acc"] == 0.9
