"""Error taxonomy surfaced through the CLI exit codes, and the one input file reader.

ConfigError -> exit 2, DataError and bct.checkpoint.CheckpointError -> exit 3,
NumericError -> exit 4.
A run that diverges raises NumericError: train() and the evaluation passes
check that a forward's scores are finite before any loss reads them, and
the optimizer checks each update. ShapeError and DomainError (``**``, the
loss checks) live in bct.tensor; they flag programming errors, not bad user
input, and the CLI does not catch them. Every input file is read through
read_input, so each bad input raises its reader's error naming the path.
"""

from pathlib import Path


class ConfigError(ValueError):
    """Invalid or contradictory configuration (unknown key, bad value, ...)."""


class DataError(ValueError):
    """Dataset problems: missing directories, corrupt image files, bad splits."""


class NumericError(RuntimeError):
    """Training diverged: non-finite scores, loss or parameter values."""


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
