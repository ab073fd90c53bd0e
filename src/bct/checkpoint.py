"""Binary checkpoint format for named parameter sets.

Layout, all integers little-endian unsigned 32-bit:

    magic  b"BCT1"
    count  u32                      number of parameters
    then per parameter, in writing order:
        name_len u32, name bytes (UTF-8)
        rank     u32, dims u32 * rank
        values   f32 little-endian * prod(dims)

Values are always stored as float32. Reads are strict: bad magic, short
files, and trailing bytes all raise CheckpointError with the byte offset.
"""

import math
import struct

import numpy as np

from .errors import CheckpointError, read_input, write_output

MAGIC = b"BCT1"


def save_checkpoint(state, path) -> None:
    """Write a name->array mapping to path in its order; a Model's state() keeps registry order."""
    chunks = [MAGIC, struct.pack("<I", len(state))]
    for name, value in state.items():
        arr = np.ascontiguousarray(np.asarray(value), dtype="<f4")
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    write_output(path, b"".join(chunks), CheckpointError)


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse a checkpoint into an ordered name->float32 array mapping."""
    buf = read_input(path, CheckpointError)
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(buf):
            raise CheckpointError(
                f"{path}: truncated {what} at byte {pos}: need {n} bytes, have {len(buf) - pos}"
            )
        out = buf[pos : pos + n]
        pos += n
        return out

    if take(4, "magic") != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    (count,) = struct.unpack("<I", take(4, "parameter count"))
    state: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<I", take(4, f"name length of entry {i}"))
        try:
            name = take(name_len, f"name of entry {i}").decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: entry {i} name is not valid UTF-8") from e
        if name in state:
            raise CheckpointError(f"{path}: duplicate parameter {name!r}")
        (rank,) = struct.unpack("<I", take(4, f"rank of {name!r}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"dims of {name!r}")) if rank else ()
        raw = take(4 * math.prod(dims), f"values of {name!r}")
        try:
            state[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float32)
        except ValueError as e:  # a zero dim lets the others overflow numpy's size limit
            raise CheckpointError(f"{path}: dims {dims} of {name!r} at byte {pos - len(raw) - 4 * rank}: {e}") from e
    if pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - pos} trailing bytes after entry {count - 1}")
    return state


def load_subset(model, path, prefix: str = "") -> list[str]:
    """Model.load_state(state at path, prefix), whose mismatch raises CheckpointError naming the path."""
    state = read_checkpoint(path)
    try:
        return model.load_state(state, prefix)
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"{path}: {e.args[0]}") from e
