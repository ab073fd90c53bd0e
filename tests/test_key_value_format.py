"""The one `key = value` format: config files, the manifest header, a run's manifest.txt, and the split-ratio rule."""

import math

import pytest

from bct.cli import main
from bct.config import TrainConfig, build_config, flatten
from bct.data import MANIFEST_NAME, ensure_manifest, load_manifest, scan_dataset, synth_generate
from bct.errors import ConfigError, DataError

RUN_FILES = ("runlog.csv", "result.json", "manifest.txt", "final.bct1", "best.bct1")


@pytest.mark.parametrize("overrides", [
    [],
    [("data.root", "ds"), ("data.seed", "4"), ("optim.kind", "sgd"), ("optim.learning_rate", "0.05"),
     ("loss.kind", "focal"), ("loss.gamma", "1.5"), ("data.ratios", "0.5,0.25,0.25"), ("train.out_dir", "out")],
], ids=["defaults", "set"])
def test_flatten_reads_back_unfiltered(overrides):
    config = build_config(None, overrides)
    assert build_config(None, flatten(config).items()) == config


def test_empty_value_leaves_a_key_with_a_default_an_error():
    with pytest.raises(ConfigError, match=r"--train.seed: expected an integer, got ''"):
        build_config(None, [("train.seed", "")])


def test_a_runs_manifest_reproduces_the_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "ds", "--per-class", "6", "--size", "12", "--cell", "3"]) == 0
    assert main(["train", "--quiet", "--data.root", "ds", "--data.image_size", "12", "--model.channels", "4",
                 "--model.dense_width", "8", "--train.max_epochs", "2", "--optim.kind", "adam",
                 "--train.out_dir", "run1"]) == 0
    assert main(["train", "--quiet", "--config", "run1/manifest.txt", "--train.out_dir", "run2"]) == 0
    for name in RUN_FILES:
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes(), name


@pytest.mark.parametrize("ratios", [(0.5, 0.5, 0.2), (1.2, -0.1, -0.1), (math.nan, 0.5, 0.5), (math.inf, 0.0, 0.0), (0.5, 0.5)],
                         ids=["sum", "negative", "nan", "inf", "count"])
def test_one_split_ratio_rule(tmp_path, ratios):
    messages = []
    for check in (lambda: scan_dataset(tmp_path, ratios=ratios),
                  lambda: ensure_manifest(tmp_path, ratios=ratios),
                  lambda: build_config(None, [("data.ratios", ",".join(map(str, ratios)))])):
        with pytest.raises(ConfigError, match="data.ratios must be three non-negative values") as e:
            check()
        messages.append(str(e.value))
    assert len(set(messages)) == 1, messages


def test_manifest_header_line_without_equals_reads_like_a_config_line(tmp_path):
    synth_generate(tmp_path, n_per_class=2, seed=0, image_size=8)
    path = tmp_path / MANIFEST_NAME
    lines = path.read_text().splitlines()
    lines.insert(1, "image size 8  ")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=rf"{MANIFEST_NAME}:2: expected 'key = value', got 'image size 8'$"):
        load_manifest(tmp_path)
    config = tmp_path / "run.conf"
    config.write_text("image size 8  \n")
    with pytest.raises(ConfigError, match=r"run\.conf:1: expected 'key = value', got 'image size 8'$"):
        build_config(config)


@pytest.mark.parametrize("line, key", [("sede = 9", "sede"), ("# note = hand edited", "# note")], ids=["typo", "comment"])
def test_manifest_header_rejects_a_key_it_does_not_know(tmp_path, line, key):
    synth_generate(tmp_path, n_per_class=2, seed=3, image_size=8)
    path = tmp_path / MANIFEST_NAME
    lines = path.read_text().splitlines()
    lines.insert(2, line)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=rf"{MANIFEST_NAME}:3: unknown header key {key!r}; expected image_size, ratios and seed$"):
        load_manifest(tmp_path)
