"""Paradigm definitions and the staged freeze driver."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from bct.data import synth_generate
from bct.checkpoint import read_checkpoint
from bct.config import ModelConfig, TrainConfig
from bct.errors import ConfigError
from bct.layers import Dense, Model, build_backbone
from bct.losses import cross_entropy
from bct.optim import Optimizer, OptimizerConfig
from bct.rng import Rng
from bct.staging import PARADIGMS, StagedDriver, pretrain_source
from bct.tensor import Tensor


def two_part_model():
    return Model(
        [
            ("backbone.d1", Dense(4, 3, rng=Rng(1))),
            ("head.d2", Dense(3, 2, rng=Rng(2))),
        ]
    )


def driver_for(kind, cap=5, model=None):
    model = model or two_part_model()
    opt = Optimizer(model.params, OptimizerConfig(kind="sgd"))
    return StagedDriver(model, kind, opt, cap), opt


class TestParadigms:
    def test_known_kinds(self):
        assert list(PARADIGMS) == ["baseline", "tl", "etl"]
        assert [name for name, _ in PARADIGMS["baseline"]] == ["all"]
        assert [name for name, _ in PARADIGMS["tl"]] == ["head"]
        assert [name for name, _ in PARADIGMS["etl"]] == ["head", "backbone"]

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown paradigm"):
            driver_for("finetune")

    def test_prefixes_select_in_registry_order(self):
        # backbone.d1 is declared after head.d0, so registry order is not name order
        model = Model([("head.d0", Dense(4, 3, rng=Rng(1))), ("backbone.d1", Dense(3, 2, rng=Rng(2)))])
        _, opt = driver_for("baseline", model=model)
        assert opt.trainable_names() == list(model.params)
        _, opt = driver_for("etl", model=model)
        assert opt.trainable_names() == ["head.d0.weight", "head.d0.bias"]

    def test_prefix_that_matches_nothing(self):
        model = Model([("head.d2", Dense(3, 2, rng=Rng(2)))])
        with pytest.raises(ConfigError, match="'backbone.' matches no parameters"):
            driver_for("etl", model=model)


class TestStagedDriver:
    def test_initial_freeze_baseline(self):
        driver, opt = driver_for("baseline")
        # registry order: weight before bias, declaration order across layers
        assert opt.trainable_names() == [
            "backbone.d1.weight", "backbone.d1.bias", "head.d2.weight", "head.d2.bias"
        ]

    def test_initial_freeze_tl(self):
        driver, opt = driver_for("tl")
        assert opt.trainable_names() == ["head.d2.weight", "head.d2.bias"]

    def test_single_stage_converges(self):
        driver, _ = driver_for("baseline")
        assert driver.record_epoch(1, converged=False) is None
        assert not driver.done
        assert driver.record_epoch(2, converged=True) is None
        assert driver.done
        assert driver.exit_reason == "converged"
        assert driver.per_stage_epochs == [2]

    def test_single_stage_caps(self):
        driver, _ = driver_for("baseline", cap=3)
        for epoch in (1, 2, 3):
            driver.record_epoch(epoch, converged=False)
        assert driver.done
        assert driver.exit_reason == "cap"
        assert driver.per_stage_epochs == [3]

    def test_etl_transition_flips_freeze(self):
        driver, opt = driver_for("etl", cap=4)
        assert opt.trainable_names() == ["head.d2.weight", "head.d2.bias"]
        transition = driver.record_epoch(1, converged=True)
        assert transition is not None
        assert transition.epoch == 1
        assert transition.from_stage == "head"
        assert transition.to_stage == "backbone"
        assert transition.reason == "converged"
        assert transition.newly_trainable == ("backbone.d1.bias", "backbone.d1.weight")
        assert transition.newly_frozen == ("head.d2.bias", "head.d2.weight")
        assert opt.trainable_names() == ["backbone.d1.weight", "backbone.d1.bias"]
        assert driver.stage_number == 2
        assert not driver.done
        # second stage runs to its own cap, counted from zero
        for epoch in (2, 3, 4, 5):
            out = driver.record_epoch(epoch, converged=False)
        assert out is None
        assert driver.done
        assert driver.per_stage_epochs == [1, 4]
        assert driver.exit_reason == "cap"

    def test_record_after_done_raises(self):
        driver, _ = driver_for("baseline", cap=1)
        driver.record_epoch(1, converged=False)
        with pytest.raises(RuntimeError, match="finished"):
            driver.record_epoch(2, converged=False)

    def test_bad_cap(self):
        model = two_part_model()
        opt = Optimizer(model.params, OptimizerConfig(kind="sgd"))
        with pytest.raises(ConfigError, match="cap"):
            StagedDriver(model, "baseline", opt, 0)

    def test_transition_serializes(self):
        driver, _ = driver_for("etl", cap=1)
        t = driver.record_epoch(1, converged=False)
        d = json.loads(json.dumps(asdict(t)))
        assert d["reason"] == "cap"
        assert d["newly_trainable"] == ["backbone.d1.bias", "backbone.d1.weight"]
        assert d["moments_reset"] is False

    def test_frozen_stage_computes_no_gradient_for_its_frozen_params(self):
        model = build_backbone(input_shape=(3, 8, 8), channels=(2, 3, 4), dense_width=5, seed=0)
        opt = Optimizer(model.params, OptimizerConfig(kind="adam"))
        driver = StagedDriver(model, "etl", opt, stage_cap=5)
        x = Tensor(np.random.default_rng(0).random((4, 3, 8, 8)))
        targets = Tensor(np.eye(2)[[0, 1, 1, 0]])

        def step():
            opt.zero_grad()
            cross_entropy(model(x), targets).backward()
            opt.step()
            return {prefix: [n for n, p in model.params.items() if n.startswith(prefix) and p.grad is not None]
                    for prefix in ("backbone.", "head.")}

        graded = step()  # tl's stage: the head trains on a fixed backbone
        assert graded["backbone."] == [] and len(graded["head."]) == 4
        first_conv = model.layers[0][1]
        assert not first_conv(x).requires_grad  # nothing below the head is recorded
        driver.record_epoch(1, converged=True)  # etl's switch: the backbone trains, the head is frozen
        graded = step()
        assert graded["head."] == [] and len(graded["backbone."]) == 2 * 3
        assert first_conv(x).requires_grad


class TestPretrainSource:
    def make_config(self, tmp_path, **overrides):
        root = tmp_path / "source"
        synth_generate(root, n_per_class=6, seed=4, noise_level=0.05,
                       image_size=16, family="rings", cell_size=4)
        kwargs = dict(
            data_root=str(root),
            image_size=16,
            seed=1,
            model=ModelConfig(kind="backbone", channels=(4, 8, 8), dense_width=8),
            batch_size=6,
            max_epochs=2,
        )
        kwargs.update(overrides)
        return TrainConfig(**kwargs)

    def test_exports_backbone_params_only(self, tmp_path):
        config = self.make_config(tmp_path)
        out = pretrain_source(config, tmp_path / "bb.bct1")
        params = read_checkpoint(out)
        assert params
        assert all(name.startswith("backbone.") for name in params)
        assert all(a.dtype == np.float32 for a in params.values())

    def test_rejects_cnn_model(self, tmp_path):
        config = self.make_config(tmp_path, model=ModelConfig(kind="cnn", channels=(4, 8, 8)))
        with pytest.raises(ConfigError, match="backbone"):
            pretrain_source(config, tmp_path / "bb.bct1")

    def test_rejects_staged_paradigm(self, tmp_path):
        config = self.make_config(
            tmp_path, paradigm="tl", pretrain_checkpoint=str(tmp_path / "x.bct1")
        )
        with pytest.raises(ConfigError, match="baseline"):
            pretrain_source(config, tmp_path / "bb.bct1")
