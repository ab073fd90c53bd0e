"""Malformed-input fuzzing of the five input parsers: read_checkpoint,
read_ppm, load_manifest, the config file reader (via build_config) and the
runlog reader behind bct inspect and bct plot.

Each valid file is cut at every offset, then put through a fixed set of
seeded 1-3 byte overwrites. Every case must parse or raise the parser's own
error (CheckpointError, DataError, ConfigError); any other exception is a
parser bug.
"""

import argparse
import random

import numpy as np
import pytest

from bct.checkpoint import CheckpointError, read_checkpoint, save_checkpoint
from bct.cli import _inspect_runlog, cmd_plot
from bct.config import build_config
from bct.data import MANIFEST_NAME, DatasetManifest, load_manifest, read_ppm, save_manifest, write_ppm
from bct.errors import ConfigError, DataError
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
    (tmp_path / "case").mkdir()
    path = tmp_path / "valid" / name
    write_valid(path)
    raw = path.read_bytes()
    parse(path)  # the unmodified file parses
    case_path = tmp_path / "case" / name
    crashes, rejected = [], 0
    for label, data in mutants(raw, random.Random(0)):
        case_path.write_bytes(data)
        try:
            parse(case_path)
        except allowed:
            rejected += 1
        except Exception as e:  # noqa: BLE001 - anything else is the finding
            crashes.append(f"{label}: {type(e).__name__}: {e}")
    assert not crashes, f"{len(crashes)} cases escaped {allowed.__name__}, first: {crashes[:3]}"
    # binary files reject every truncation; text files parse when cut at a line end,
    # but most of their flips break the UTF-8, a value or a header
    assert rejected >= len(raw)
