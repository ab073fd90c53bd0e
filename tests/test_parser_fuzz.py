"""Malformed-input fuzzing of the five input parsers: read_checkpoint,
read_ppm, load_manifest, the config file reader (via build_config) and the
runlog reader behind bct inspect and bct plot.

Each valid file is cut at every offset, then put through a fixed set of
seeded 1-3 byte overwrites. Every case must parse or raise the parser's own
error (CheckpointError, DataError, ConfigError); any other exception is a
parser bug. A path that is missing, is a directory or cannot be read must
raise that error too, naming the path, from those parsers and bct inspect.

Their writers go through write_output: a write that fails leaves the previous
file and no temp file, and raises the writer's error naming the path. No
other module of src/bct reads or writes a file itself.
"""

import argparse
import ast
import builtins
import errno
import io
import os
import random
import stat
from pathlib import Path

import numpy as np
import pytest

import bct
from bct.checkpoint import CheckpointError, read_checkpoint, save_checkpoint
from bct.cli import _inspect_runlog, cmd_inspect, cmd_plot
from bct.config import build_config
from bct.data import MANIFEST_NAME, DatasetManifest, load_manifest, read_ppm, save_manifest, write_ppm
from bct.errors import ConfigError, DataError, write_output
from bct.trainer import EpochRecord, RunLog, runlog_csv

N_FLIPS = 2000


def mutants(raw: bytes, rng: random.Random):
    """(label, bytes): every truncation, then N_FLIPS files with 1-3 bytes overwritten."""
    for at in range(len(raw)):
        yield f"cut at {at}", raw[:at]
    for case in range(N_FLIPS):
        buf = bytearray(raw)
        for _ in range(rng.randint(1, 3)):
            buf[rng.randrange(len(buf))] ^= rng.randint(1, 255)
        yield f"flip case {case}", bytes(buf)


def valid_checkpoint(path):
    rng = np.random.default_rng(0)
    save_checkpoint(
        {
            "conv.weight": rng.standard_normal((2, 1, 2, 2)).astype(np.float32),
            "conv.bias": np.zeros(2, np.float32),
            "s": np.float32(1.5),
        },
        path,
    )


def valid_ppm(path):
    write_ppm(path, np.arange(4 * 3 * 3, dtype=np.uint8).reshape(4, 3, 3))


def valid_manifest(path):
    entries = [(f"class{i % 2}/img_{i:03d}.ppm", i % 2, ("train", "val", "test")[i % 3]) for i in range(6)]
    save_manifest(DatasetManifest(path.parent, 64, (0.8, 0.1, 0.1), 7, entries))


def manifest_in(path):
    return load_manifest(path.parent)


def valid_config(path):
    path.write_text(
        "# a desk-like run\n"
        "data.root = data/desk\n"
        "data.image_size = 64\n"
        "data.ratios = 0.8,0.1,0.1\n"
        "model.channels = 8,16,32\n"
        "loss.kind = focal\n"
        "loss.gamma = 2\n"
        "optim.kind = adam\n"
        "optim.learning_rate = 0.001\n"
        "train.batch_size = 16\n"
        "train.seed = 0\n",
        encoding="utf-8",
    )


def valid_runlog(path):
    records = [
        EpochRecord(1, 1, 0.693147182, 0.5, float("nan")),
        EpochRecord(2, 1, 0.512345678, 0.75, 0.625),
        EpochRecord(3, 2, 0.25, 0.875, 0.875),
    ]
    path.write_text(runlog_csv(RunLog(records=records)), encoding="utf-8")


def runlog_in(path):
    """bct inspect on the log, then bct plot on its run directory."""
    _inspect_runlog(path)
    cmd_plot(argparse.Namespace(run=str(path.parent), out=str(path.parent / "svg")))


@pytest.mark.parametrize(
    "name, write_valid, parse, allowed",
    [
        ("valid.bct1", valid_checkpoint, read_checkpoint, CheckpointError),
        ("valid.ppm", valid_ppm, read_ppm, DataError),
        (MANIFEST_NAME, valid_manifest, manifest_in, DataError),
        ("run.cfg", valid_config, build_config, ConfigError),
        ("runlog.csv", valid_runlog, runlog_in, DataError),
    ],
    ids=["read_checkpoint", "read_ppm", "load_manifest", "build_config", "runlog"],
)
def test_malformed_files_parse_or_raise_the_parsers_error(tmp_path, name, write_valid, parse, allowed):
    (tmp_path / "valid").mkdir()
    path = tmp_path / "valid" / name
    write_valid(path)
    raw = path.read_bytes()
    parse(path)  # the unmodified file parses
    crashes, rejected, offsetless = [], 0, []
    for index, (label, data) in enumerate(mutants(raw, random.Random(0))):
        # a directory of its own: replacing a file's data, or cmd_plot's SVGs, can force a flush to disk
        (tmp_path / f"case{index}").mkdir()
        case_path = tmp_path / f"case{index}" / name
        case_path.write_bytes(data)
        try:
            parse(case_path)
        except allowed as e:
            rejected += 1
            if parse is read_ppm and " at byte " not in str(e):  # the README promises the byte offset
                offsetless.append(f"{label}: {e}")
        except Exception as e:  # noqa: BLE001 - anything else is the finding
            crashes.append(f"{label}: {type(e).__name__}: {e}")
    assert not crashes, f"{len(crashes)} cases escaped {allowed.__name__}, first: {crashes[:3]}"
    assert not offsetless, f"{len(offsetless)} PPM errors name no byte offset, first: {offsetless[:3]}"
    # binary files reject every truncation; text files parse when cut at a line end,
    # but most of their flips break the UTF-8, a value or a header
    assert rejected >= len(raw)


def inspect_in(path):
    cmd_inspect(argparse.Namespace(path=str(path)))


def deny_reads_of(monkeypatch, target):
    """Make every open of target raise PermissionError (chmod does not stop root)."""
    real_open = io.open

    def guarded_open(file, *args, **kwargs):
        if str(file) == str(target):
            raise PermissionError(errno.EACCES, "Permission denied", str(target))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", guarded_open)
    monkeypatch.setattr(builtins, "open", guarded_open)


@pytest.mark.parametrize("case", ["missing", "directory", "denied"])
@pytest.mark.parametrize(
    "name, write_valid, parse, allowed",
    [
        ("valid.bct1", valid_checkpoint, read_checkpoint, CheckpointError),
        ("valid.ppm", valid_ppm, read_ppm, DataError),
        (MANIFEST_NAME, valid_manifest, manifest_in, DataError),
        ("run.cfg", valid_config, build_config, ConfigError),
        ("runlog.csv", valid_runlog, runlog_in, DataError),
        ("eval.jsonl", valid_config, inspect_in, DataError),
    ],
    ids=["read_checkpoint", "read_ppm", "load_manifest", "build_config", "runlog", "inspect"],
)
def test_unreadable_path_raises_the_parsers_error_naming_it(tmp_path, monkeypatch, name, write_valid, parse, allowed,
                                                           case):
    path = tmp_path / name
    if case == "directory":
        path.mkdir()
    elif case == "denied":
        write_valid(path)
        deny_reads_of(monkeypatch, path)
    with pytest.raises(allowed) as raised:
        parse(path)
    message = str(raised.value)
    if case == "missing" and name == MANIFEST_NAME:
        assert f"{tmp_path}: no {MANIFEST_NAME}" in message
    else:
        want = {"missing": "does not exist", "directory": "is not a file", "denied": "Permission denied"}[case]
        assert str(path) in message and want in message, message


class FailingWrite:
    """A file whose write puts half the data down, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_writes(monkeypatch, how):
    """Make write_output's temp file write fail halfway, or its os.replace fail."""
    if how == "replace":
        def replace(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "replace", replace)
        return "Invalid cross-device link"
    real_open = builtins.open

    def opener(file, *args, **kwargs):  # the temp file is opened from its descriptor
        fh = real_open(file, *args, **kwargs)
        return FailingWrite(fh) if isinstance(file, int) else fh

    monkeypatch.setattr(builtins, "open", opener)
    return "No space left on device"


def write_text(path):
    write_output(path, "new text\n", ConfigError)


@pytest.mark.parametrize("how", ["write", "replace"])
@pytest.mark.parametrize(
    "name, write_valid, error",
    [
        ("valid.bct1", valid_checkpoint, CheckpointError),
        ("valid.ppm", valid_ppm, DataError),
        (MANIFEST_NAME, valid_manifest, DataError),
        ("out.txt", write_text, ConfigError),
    ],
    ids=["save_checkpoint", "write_ppm", "save_manifest", "write_output"],
)
def test_failed_write_keeps_the_previous_file_and_names_the_path(tmp_path, monkeypatch, name, write_valid, error,
                                                                 how):
    path = tmp_path / name
    path.write_bytes(b"previous bytes")
    strerror = fail_writes(monkeypatch, how)
    with pytest.raises(error) as raised:
        write_valid(path)
    assert str(raised.value) == f"{path}: cannot write ({strerror})"
    assert path.read_bytes() == b"previous bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]  # no temp file left


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_written_file_has_the_mode_write_text_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        (tmp_path / "by_path.txt").write_text("x", encoding="utf-8")
        write_output(tmp_path / "by_writer.txt", "x", ConfigError)
    finally:
        os.umask(old)
    want = stat.S_IMODE((tmp_path / "by_path.txt").stat().st_mode)
    assert stat.S_IMODE((tmp_path / "by_writer.txt").stat().st_mode) == want


def test_only_errors_py_reads_or_writes_files():
    """Every file read goes through read_input and every write through write_output."""
    found = []
    for source in sorted(Path(bct.__file__).parent.glob("*.py")):
        if source.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("write_text", "write_bytes", "read_text", "read_bytes"):
                found.append(f"{source.name}:{node.lineno}: .{node.attr}")
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
                    found.append(f"{source.name}:{node.lineno}: open()")
    assert not found, found


def test_no_module_has_an_unused_top_level_import():
    """Every name a top-level import binds is read in its module; __init__.py, whose imports are re-exports, is left out."""
    unused = []
    for source in sorted(Path(bct.__file__).parent.glob("*.py")):
        if source.name == "__init__.py":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
                unused += [f"{source.name}:{node.lineno}: {name}" for name in names if name not in read]
    assert not unused, unused
