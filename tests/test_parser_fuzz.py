"""Malformed-input fuzzing of the two binary parsers, read_checkpoint and read_ppm.

Each valid file is cut at every offset, then put through a fixed set of
seeded 1-3 byte overwrites. Every case must parse or raise the parser's own
error (CheckpointError, DataError); any other exception is a parser bug.
"""

import random

import numpy as np
import pytest

from bct.checkpoint import CheckpointError, read_checkpoint, save_checkpoint
from bct.data import read_ppm, write_ppm
from bct.errors import DataError

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


@pytest.mark.parametrize(
    "write_valid, parse, allowed",
    [
        (valid_checkpoint, read_checkpoint, CheckpointError),
        (valid_ppm, read_ppm, DataError),
    ],
    ids=["read_checkpoint", "read_ppm"],
)
def test_malformed_files_parse_or_raise_the_parsers_error(tmp_path, write_valid, parse, allowed):
    path = tmp_path / "valid"
    write_valid(path)
    raw = path.read_bytes()
    parse(path)  # the unmodified file parses
    case_path = tmp_path / "case"
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
    assert rejected >= len(raw)  # every truncation is rejected, and then some flips
