"""Error taxonomy surfaced through the CLI exit codes, the one input file reader and the one output file writer.

Each error the CLI reports carries its exit_code and label on its class, and
cli.main prints every one as `<label>: <message>` and exits with its code:
ConfigError 2, DataError and CheckpointError 3, NumericError 4.
A run that diverges raises NumericError: train() and the evaluation passes
check that a forward's scores are finite before any loss reads them, and
the optimizer checks each update. ShapeError and DomainError (``**``, the
loss checks) live in bct.tensor; they flag programming errors, not bad user
input, and the CLI does not catch them. Every input file is read through
read_input and every output file written through write_output, so a failed
read or write raises its caller's error naming the path.
"""

import contextlib
import os
from pathlib import Path


class ConfigError(ValueError):
    """Invalid or contradictory configuration (unknown key, bad value, ...)."""

    exit_code, label = 2, "config error"


class DataError(ValueError):
    """Dataset problems: missing directories, corrupt image files, bad splits."""

    exit_code, label = 3, "data error"


class CheckpointError(ValueError):
    """Checkpoint file malformed or inconsistent with the target model."""

    exit_code, label = 3, "checkpoint error"


class NumericError(RuntimeError):
    """Training diverged: non-finite scores, loss or parameter values."""

    exit_code, label = 4, "numeric error"


def read_input(path, error: type, text: bool = False):
    """The bytes of the regular file at path, or with text=True its text as read_text gives it; raises error,
    naming the path, for a missing path, a directory, FIFO or device, any OSError of the read, and non-UTF-8 text."""
    path = Path(path)
    try:
        if not path.is_file():
            raise error(f"{path} is not a file" if path.exists() else f"{path} does not exist")
        return path.read_text(encoding="utf-8") if text else path.read_bytes()
    except OSError as e:
        raise error(f"{path}: cannot read ({e.strerror or e})") from e
    except UnicodeDecodeError as e:
        raise error(f"{path} is not UTF-8 text ({e})") from e


def write_output(path, data, error: type, append: bool = False) -> None:
    """Write data, bytes or str as UTF-8, to a temp file beside path and os.replace it onto path; with append=True add it
    to path in one write call. Makes a missing directory, then tries once more; raises error naming the path on OSError."""
    path, data = Path(path), data.encode("utf-8") if isinstance(data, str) else data
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")  # a name no reader globs for
    for retry in (False, True):
        try:
            if retry:
                path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "ab") if append else open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as fh:
                fh.write(data)
            return None if append else os.replace(tmp, path)
        except OSError as e:
            with contextlib.suppress(OSError):
                tmp.unlink()
            if retry or not isinstance(e, FileNotFoundError):
                raise error(f"{path}: cannot write ({e.strerror or e})") from e
