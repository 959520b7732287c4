"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4, and names the module each error came from.
"""

from __future__ import annotations

import os
import traceback


class StockrankError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(StockrankError):
    """Invalid or inconsistent run configuration."""


class DataError(StockrankError):
    """Malformed, missing, or misaligned input data."""


class NumericError(StockrankError):
    """A numeric procedure failed (non-convergence, undefined metric)."""


def failing_module(exc: BaseException) -> str:
    """The stockrank module an error was raised in.

    That is the innermost stockrank frame of its traceback, unless the
    error carries ``stockrank_module``: an error that crossed from a
    training child into the parent records there the module named by the
    child's own traceback, which did not cross.
    """
    recorded = getattr(exc, "stockrank_module", None)
    if recorded:
        return recorded
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        norm = frame.filename.replace(os.sep, "/")
        if "/stockrank/" in norm:
            return os.path.splitext(os.path.basename(frame.filename))[0]
    return "stockrank"
