"""Config files, override precedence, and the command line surface."""

import json
import re
import warnings
from pathlib import Path

import pytest

from bct.cli import main
from bct.config import KEYS, TrainConfig, build_config, flatten
from bct.errors import ConfigError


def write_config(tmp_path, text):
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigFiles:
    def test_defaults_without_file(self):
        config = build_config()
        assert config == TrainConfig()

    def test_file_values_apply(self, tmp_path):
        path = write_config(
            tmp_path,
            "# a comment\n"
            "\n"
            "train.seed = 7\n"
            "optim.kind = rectadam\n"
            "model.channels = 4, 8, 16\n"
            "data.ratios = 0.6, 0.2, 0.2\n"
            "loss.gamma = 0.5\n",
        )
        config = build_config(path)
        assert config.seed == 7
        assert config.optim.kind == "rectadam"
        assert config.model.channels == (4, 8, 16)
        assert config.ratios == (0.6, 0.2, 0.2)
        assert config.loss.gamma == 0.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            build_config(str(tmp_path / "absent.conf"))

    def test_file_that_is_not_utf8_is_a_config_error(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_bytes(b"train.seed = 1\n\xff\n")
        with pytest.raises(ConfigError, match=r"run\.conf is not UTF-8"):
            build_config(str(path))

    def test_syntax_error_cites_line(self, tmp_path):
        path = write_config(tmp_path, "train.seed = 1\njust some words\n")
        with pytest.raises(ConfigError, match=r"run\.conf:2.*key = value"):
            build_config(path)

    def test_duplicate_key_cites_both_lines(self, tmp_path):
        path = write_config(tmp_path, "train.seed = 1\n# pad\ntrain.seed = 2\n")
        with pytest.raises(ConfigError, match=r":3: duplicate key 'train.seed', first set on line 1"):
            build_config(path)

    def test_unknown_key_suggests_nearest(self, tmp_path):
        path = write_config(tmp_path, "optim.kinds = adam\n")
        with pytest.raises(ConfigError, match=r"did you mean 'optim.kind'"):
            build_config(path)

    def test_bad_value_cites_key_and_line(self, tmp_path):
        path = write_config(tmp_path, "train.max_epochs = soon\n")
        with pytest.raises(ConfigError, match=r":1: train.max_epochs: expected an integer"):
            build_config(path)

    def test_overrides_beat_file_and_later_wins(self, tmp_path):
        path = write_config(tmp_path, "train.seed = 1\n")
        config = build_config(path, [("train.seed", "2"), ("train.seed", "3")])
        assert config.seed == 3

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError, match="command line.*unknown config key"):
            build_config(None, [("train.sede", "1")])

    def test_validation_runs_last(self, tmp_path):
        path = write_config(tmp_path, "paradigm.kind = tl\n")
        with pytest.raises(ConfigError, match="model.kind = backbone"):
            build_config(path)

    @pytest.mark.parametrize("ratios", ["nan,0.5,0.5", "0.5,nan,0.5", "inf,0,0"])
    def test_non_finite_ratios_are_rejected(self, ratios):
        with pytest.raises(ConfigError, match="data.ratios must be three non-negative values"):
            build_config(None, [("data.ratios", ratios)])

    @pytest.mark.parametrize("key", ["optim.learning_rate", "optim.momentum", "optim.epsilon",
                                     "loss.gamma", "train.loss_threshold"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_float_knobs_are_rejected(self, key, value):
        with pytest.raises(ConfigError, match="must be finite"):
            build_config(None, [(key, value)])

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_dir_under_an_existing_file_is_rejected(self, tmp_path, sub):
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError, match="is not a directory"):
            build_config(None, [("train.out_dir", str(blocker / sub))])

    def test_missing_pretrain_checkpoint_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="is not a file"):
            build_config(None, [("paradigm.kind", "tl"), ("model.kind", "backbone"),
                                ("paradigm.pretrain_checkpoint", str(tmp_path / "missing.bct1"))])

    def test_flatten_round_trips(self):
        config = build_config(None, [
            ("train.seed", "11"),
            ("optim.kind", "rectadam"),
            ("loss.kind", "focal"),
            ("loss.gamma", "1.5"),
            ("data.ratios", "0.5,0.25,0.25"),
        ])
        flat = flatten(config)
        assert set(flat) == set(KEYS)
        rebuilt = build_config(None, [(k, v) for k, v in flat.items() if v != ""])
        assert rebuilt == config


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synth'd dataset plus a short finished training run."""
    tmp = tmp_path_factory.mktemp("cli")
    ds = tmp / "ds"
    run = tmp / "run"
    assert main([
        "synth", "--out", str(ds), "--per-class", "8", "--seed", "2",
        "--noise", "0.05", "--size", "16", "--cell", "4",
    ]) == 0
    assert main([
        "train", "--quiet",
        "--data.root", str(ds), "--data.image_size", "16",
        "--model.channels", "4,8,8", "--model.dense_width", "16",
        "--train.batch_size", "8", "--train.max_epochs", "2",
        "--train.out_dir", str(run), "--train.seed", "3",
    ]) == 0
    return tmp


class TestCommands:
    def test_train_artifacts_exist(self, workspace):
        run = workspace / "run"
        for name in ("runlog.csv", "result.json", "final.bct1", "best.bct1", "manifest.txt"):
            assert (run / name).is_file(), name

    def test_manifest_is_pinned_not_resplit(self, workspace, capsys):
        # the split written by synth (seed 2) survives a train with seed 3
        assert main(["inspect", str(workspace / "ds" / "split_manifest.tsv")]) == 0
        before = capsys.readouterr().out
        assert main([
            "train", "--quiet",
            "--data.root", str(workspace / "ds"), "--data.image_size", "16",
            "--model.channels", "4,8,8", "--model.dense_width", "16",
            "--train.batch_size", "8", "--train.max_epochs", "1",
            "--train.seed", "99",
        ]) == 0
        assert main(["inspect", str(workspace / "ds" / "split_manifest.tsv")]) == 0
        after = capsys.readouterr().out.splitlines()[-1]
        assert after == before.splitlines()[-1]

    def test_evaluate_appends_jsonl(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval.jsonl"
        argv = [
            "evaluate",
            "--data.root", str(workspace / "ds"), "--data.image_size", "16",
            "--model.channels", "4,8,8", "--model.dense_width", "16",
            "--checkpoint", str(workspace / "run" / "best.bct1"),
            "--split", "val", "--out", str(out),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["split"] == "val"
        assert set(record["counts"]) == {"tp", "tn", "fp", "fn"}
        assert "accuracy" in record["metrics"]

    def test_plot_writes_svgs_deterministically(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["plot", "--run", str(workspace / "run"), "--out", str(out)]) == 0
        for name in ("loss.svg", "accuracy.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_inspect_checkpoint(self, workspace, capsys):
        assert main(["inspect", str(workspace / "run" / "best.bct1")]) == 0
        out = capsys.readouterr().out
        assert "parameter checkpoint" in out
        assert "conv1.weight" in out
        assert "total parameters" in out

    def test_inspect_ppm(self, workspace, capsys):
        assert main(["inspect", str(workspace / "ds" / "class0" / "img_0000.ppm")]) == 0
        assert "16x16" in capsys.readouterr().out

    def test_inspect_runlog(self, workspace, capsys):
        assert main(["inspect", str(workspace / "run" / "runlog.csv")]) == 0
        out = capsys.readouterr().out
        assert "2 epochs" in out
        assert "final:" in out

    def test_inspect_runlog_skips_every_spelling_of_nan(self, tmp_path, capsys):
        log = tmp_path / "runlog.csv"
        log.write_text("epoch,stage,train_loss,train_acc,val_acc\n"
                       "1,1,0.5,0.5,NaN\n2,1,0.4,0.6, nan\n3,1,0.3,0.7,0.5\n", encoding="utf-8")
        assert main(["inspect", str(log)]) == 0
        assert "best val acc 0.5 at epoch 3" in capsys.readouterr().out

    def test_plot_of_an_overflowing_span_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "runlog.csv").write_text("epoch,stage,train_loss,train_acc,val_acc\n"
                                             "1,1,1e308,0.5,0.5\n2,1,-1e308,0.5,0.5\n", encoding="utf-8")
        assert main(["plot", "--run", str(tmp_path)]) == 3
        assert "overflows" in capsys.readouterr().err
        assert not (tmp_path / "loss.svg").exists()

    def test_inspect_unknown_format(self, tmp_path, capsys):
        path = tmp_path / "mystery.bin"
        path.write_bytes(b"\x00\x01\x02\x03")
        assert main(["inspect", str(path)]) == 3


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert main(["train", "--model.kind", "turbo"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_data_error_is_3(self, capsys):
        assert main(["train", "--data.root", "/does/not/exist", "--quiet"]) == 3
        assert "data error" in capsys.readouterr().err

    def test_diverging_training_is_4(self, workspace, capsys):
        assert main([
            "train", "--quiet", "--data.root", str(workspace / "ds"), "--data.image_size", "16",
            "--model.channels", "4,8,8", "--model.dense_width", "16", "--train.batch_size", "8",
            "--optim.learning_rate", "1e30",
        ]) == 4
        assert "numeric error: non-finite scores at epoch 1, batch 1" in capsys.readouterr().err

    def test_diverging_training_prints_only_its_numeric_error(self, workspace, capsys):
        # the forward's overflow and NaN would otherwise warn from layer code first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "train", "--quiet", "--data.root", str(workspace / "ds"), "--data.image_size", "16",
                "--model.channels", "4,8,8", "--model.dense_width", "16", "--train.batch_size", "8",
                "--optim.learning_rate", "1e30",
            ])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric error: non-finite scores at epoch 1, batch 1")

    def test_out_dir_that_is_a_file_is_2_before_training(self, workspace, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        assert main(["train", "--data.root", str(workspace / "ds"), "--data.image_size", "16",
                     "--train.out_dir", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert "is not a directory" in captured.err and "epoch" not in captured.out

    def test_numeric_error_is_4(self, workspace, monkeypatch, capsys):
        from bct import cli as cli_mod
        from bct.errors import NumericError

        def boom(config, progress=None):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(cli_mod, "train", boom)
        assert main([
            "train", "--quiet", "--data.root", str(workspace / "ds"),
        ]) == 4
        assert "numeric error" in capsys.readouterr().err

    def test_checkpoint_mismatch_is_3(self, workspace, capsys):
        # checkpoint trained with one channel stack, evaluated against another
        assert main([
            "evaluate", "--checkpoint", str(workspace / "run" / "best.bct1"),
            "--data.root", str(workspace / "ds"), "--data.image_size", "16",
            "--model.channels", "2",
        ]) == 3
        assert "checkpoint error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, match",
        [
            ("epoch,stage,train_loss,train_acc,val_acc\n1,1,abc,0.5,0.5\n", r":2: could not convert string to float: 'abc'"),
            ("epoch,train_loss,train_acc,val_acc\n1,0.5,0.5,0.5\n", r":1: no column stage"),
            ("epoch,stage,train_loss,train_acc,val_acc\n1,1,0.5,0.5,0.5\n2,x,0.5,0.5,0.5\n", r":3: invalid literal for int"),
            ("epoch,stage,train_loss,train_acc,val_acc\n1,1,inf,0.5,nan\n", r":2: train_loss and train_acc must be finite"),
            ("epoch,stage,train_loss,train_acc,val_acc\n1,1,0.5,0.5\n", r":2: expected 5 fields"),
        ],
        ids=["bad_float", "no_stage", "bad_int", "inf_loss", "short_row"],
    )
    def test_bad_runlog_is_3(self, tmp_path, capsys, text, match):
        log = tmp_path / "runlog.csv"
        log.write_text(text, encoding="utf-8")
        for argv in (["plot", "--run", str(tmp_path)], ["inspect", str(log)]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert re.search(re.escape(str(log)) + match, err), err

    @pytest.mark.parametrize("train_acc, val_acc", [("0.5", "inf"), ("0.5", "-7"), ("-7", "0.5"), ("1.5", "nan")])
    def test_runlog_accuracy_outside_unit_interval_is_3(self, tmp_path, capsys, train_acc, val_acc):
        log = tmp_path / "runlog.csv"
        log.write_text("epoch,stage,train_loss,train_acc,val_acc\n1,1,0.5,0.5,0.5\n"
                       f"2,1,0.4,{train_acc},{val_acc}\n", encoding="utf-8")
        for argv in (["plot", "--run", str(tmp_path)], ["inspect", str(log)]):
            assert main(argv) == 3
            assert re.search(re.escape(str(log)) + r":3: train_acc must lie in \[0, 1\]", capsys.readouterr().err)

    def test_inspect_json_that_is_not_utf8_is_3(self, tmp_path, capsys):
        path = tmp_path / "eval.jsonl"
        path.write_bytes(b'{"split": "val"}\n\xff\n')
        assert main(["inspect", str(path)]) == 3
        assert "not UTF-8" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestAblateCommand:
    def test_ablate_runs_a_small_suite(self, workspace, tmp_path, capsys):
        out = tmp_path / "abl"
        assert main([
            "ablate", "--suite", "optimizer", "--seeds", "1,2",
            "--out", str(out),
            "--data.root", str(workspace / "ds"), "--data.image_size", "16",
            "--model.channels", "4,8,8", "--model.dense_width", "16",
            "--train.batch_size", "8", "--train.max_epochs", "1",
        ]) == 0
        printed = capsys.readouterr().out
        assert "| sgd |" in printed
        for name in ("ablation.md", "ablation.csv", "runs.jsonl"):
            assert (out / name).is_file()

    def test_bad_seeds_flag(self, workspace, capsys):
        assert main([
            "ablate", "--suite", "loss", "--seeds", "1,x", "--out", "/tmp/x",
            "--data.root", str(workspace / "ds"),
        ]) == 2
        assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("counts", ["3,x", "1,2,3"])
def test_bad_counts_flag(tmp_path, capsys, counts):
    assert main(["synth", "--out", str(tmp_path / "ds"), "--counts", counts]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--counts" in err and counts in err
    assert not (tmp_path / "ds").exists()


def tiny_train(workspace, *extra):
    return ["train", "--quiet", "--data.root", str(workspace / "ds"), "--data.image_size", "16",
            "--model.channels", "4,8,8", "--model.dense_width", "16",
            "--train.batch_size", "8", "--train.max_epochs", "1", *extra]


class TestOverrideTokens:
    """Config keys reach build_config as the tokens argparse leaves, paired in command-line order."""

    def test_value_that_begins_with_a_dash_reaches_the_config_parser(self, capsys):
        assert main(["train", "--optim.momentum", "-inf"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "momentum" in err

    def test_negative_gamma_trains_under_cross_entropy(self, workspace, capsys):
        assert main(tiny_train(workspace, "--loss.kind", "cross_entropy", "--loss.gamma", "-1e-3")) == 0

    def test_relative_out_dir_that_begins_with_a_dash(self, workspace, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(tiny_train(workspace, "--train.out_dir", "-run")) == 0
        assert (tmp_path / "-run" / "result.json").is_file()

    @pytest.mark.parametrize("out_dir", ["-h", "-hx"])
    def test_relative_out_dir_that_argparse_would_take_for_help(self, workspace, tmp_path, monkeypatch, out_dir):
        monkeypatch.chdir(tmp_path)
        assert main(tiny_train(workspace, "--train.out_dir", out_dir)) == 0
        assert (tmp_path / out_dir / "result.json").is_file()

    def test_both_forms_apply_in_command_line_order(self, workspace, tmp_path):
        argv = tiny_train(workspace, "--train.seed=5", "--train.seed", "6", "--train.out_dir", str(tmp_path / "run"))
        assert main(argv) == 0
        assert "train.seed = 6" in (tmp_path / "run" / "manifest.txt").read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize("argv, match", [
        (["train", "--train.sede", "1"], "unknown config key 'train.sede'; did you mean 'train.seed'"),
        (["train", "--train.seed"], "--train.seed: expected a value"),
        (["train", "stray"], "unexpected argument 'stray'"),
        (["evaluate", "--checkpoint", "x", "--optim.kind=turbo"], "--optim.kind: expected one of"),
    ])
    def test_bad_override_tokens_are_config_errors(self, capsys, argv, match):
        assert main(argv) == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate", "ablate"])
    def test_help_lists_every_key(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        listed = capsys.readouterr().out.split("Keys:")[1]
        assert re.findall(r"[a-z_]+\.[a-z_0-9]+", listed) == list(KEYS)

    @pytest.mark.parametrize("argv", [["synth", "--out", "ds", "--train.seed", "1"],
                                      ["plot", "--run", "run", "--train.seed=1"],
                                      ["inspect", "x.bct1", "--bogus"]])
    def test_commands_without_config_keys_reject_stray_flags(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOutputPaths:
    """A bad output path exits 2 before any work starts, never with a traceback after it."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "taken"
        path.write_text("", encoding="utf-8")
        return path

    def evaluate(self, workspace, out):
        return ["evaluate", "--data.root", str(workspace / "ds"), "--data.image_size", "16",
                "--model.channels", "4,8,8", "--model.dense_width", "16",
                "--checkpoint", str(workspace / "run" / "best.bct1"), "--out", str(out)]

    @pytest.mark.parametrize("out", ["", "missing/x.jsonl", "taken/x.jsonl", "taken/sub/x.jsonl"],
                             ids=["directory", "missing_dir", "under_file", "under_file_deep"])
    def test_evaluate_out_must_be_a_file_in_an_existing_directory(self, workspace, tmp_path, blocker, capsys, out):
        assert main(self.evaluate(workspace, tmp_path / out)) == 2
        captured = capsys.readouterr()
        assert "expected a file in an existing directory" in captured.err and "acc" not in captured.out
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_plot_out_at_or_under_a_file(self, workspace, blocker, capsys, sub):
        assert main(["plot", "--run", str(workspace / "run"), "--out", str(blocker / sub)]) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert blocker.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_synth_out_at_or_under_a_file(self, blocker, capsys, sub):
        assert main(["synth", "--out", str(blocker / sub), "--per-class", "2", "--size", "4", "--cell", "2"]) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert blocker.read_text(encoding="utf-8") == ""

    def test_inspect_directory_is_not_a_file(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path} is not a file" in err and "does not exist" not in err

    def test_plot_of_a_runlog_that_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "runlog.csv").mkdir()
        assert main(["plot", "--run", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'runlog.csv'} is not a file" in err and "does not exist" not in err


def test_readme_key_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration keys")[1].split("\n## ")[0]
    assert re.findall(r"^\| ([a-z_]+\.[a-z_0-9]+) \|", table, flags=re.M) == list(KEYS)
