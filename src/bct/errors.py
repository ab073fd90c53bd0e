"""Error taxonomy surfaced through the CLI exit codes.

ConfigError -> exit 2, DataError -> exit 3, NumericError -> exit 4.
A run that diverges raises NumericError: train() and the evaluation passes
check that a forward's scores are finite before any loss reads them, and
the optimizer checks each update. ShapeError and DomainError (``**``, the
loss checks) live in bct.tensor; they flag programming errors, not bad user
input, and the CLI does not catch them.
"""


class ConfigError(ValueError):
    """Invalid or contradictory configuration (unknown key, bad value, ...)."""


class DataError(ValueError):
    """Dataset problems: missing directories, corrupt image files, bad splits."""


class NumericError(RuntimeError):
    """Training diverged: non-finite scores, loss or parameter values."""
