"""What a bct command reports: the error classes' exit codes and labels, the one handler in main, terminal styling."""

import io

import pytest

import bct
from bct import checkpoint, cli, errors
from bct.cli import _style, main
from bct.data import synth_generate


class Tty(io.StringIO):
    def isatty(self):
        return True


@pytest.mark.parametrize(
    "stream, no_color, styled",
    [(Tty(), None, True), (Tty(), "1", False), (Tty(), "", True), (io.StringIO(), None, False), (object(), None, False)],
    ids=["tty", "tty_NO_COLOR", "tty_empty_NO_COLOR", "pipe", "no_isatty"],
)
def test_style_wraps_text_only_for_a_terminal_without_no_color(monkeypatch, stream, no_color, styled):
    if no_color is None:
        monkeypatch.delenv("NO_COLOR", raising=False)
    else:
        monkeypatch.setenv("NO_COLOR", no_color)
    assert _style("done", "32", stream) == ("\x1b[32mdone\x1b[0m" if styled else "done")


def test_style_defaults_to_stdout(monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setattr("sys.stdout", Tty())
    assert _style("title", "1") == "\x1b[1mtitle\x1b[0m"
    monkeypatch.setattr("sys.stdout", io.StringIO())
    assert _style("title", "1") == "title"


def test_main_writes_an_error_to_a_tty_stderr_as_one_red_line(monkeypatch, tmp_path):
    monkeypatch.delenv("NO_COLOR", raising=False)
    stderr = Tty()
    monkeypatch.setattr("sys.stderr", stderr)
    missing = tmp_path / "missing.bct1"
    assert main(["inspect", str(missing)]) == 3
    assert stderr.getvalue() == f"\x1b[31mdata error: {missing} does not exist\x1b[0m\n"


REPORTED = [
    (errors.ConfigError, 2, "config error"),
    (errors.DataError, 3, "data error"),
    (checkpoint.CheckpointError, 3, "checkpoint error"),
    (errors.NumericError, 4, "numeric error"),
]


@pytest.mark.parametrize("cls, code, label", REPORTED, ids=[c.__name__ for c, _, _ in REPORTED])
def test_each_reported_error_class_carries_its_exit_code_and_label(cls, code, label):
    assert cls.__module__ == "bct.errors"
    assert (cls.exit_code, cls.label) == (code, label)


def test_checkpoint_error_keeps_its_old_import_paths():
    assert checkpoint.CheckpointError is bct.CheckpointError is getattr(errors, "CheckpointError", None)


@pytest.mark.parametrize("cls, code, label", REPORTED, ids=[c.__name__ for c, _, _ in REPORTED])
def test_main_reports_each_error_class_on_one_stderr_line(monkeypatch, capsys, tmp_path, cls, code, label):
    def fail(args):
        raise cls("it broke")

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    assert main(["inspect", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{label}: it broke\n")


def test_ablate_out_that_is_a_file_names_the_flag_before_training(capsys, tmp_path):
    synth_generate(tmp_path / "ds", n_per_class=2, seed=0, image_size=8)
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    assert main(["ablate", "--suite", "loss", "--seeds", "0", "--out", str(blocker),
                 "--data.root", str(tmp_path / "ds"), "--data.image_size", "8"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: --out {blocker}: {blocker} exists and is not a directory\n")
