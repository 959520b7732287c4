"""Exception hierarchy shared across the pipeline, and the csv readers the
CSV loaders share: csv_rows, and csv_table for the small tables.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4, and names the module each error came from.
"""

from __future__ import annotations

import csv
import os
import sys
import traceback
from contextlib import contextmanager


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

    That is the innermost stockrank frame of its traceback outside this
    module, whose csv readers raise on their caller's behalf, unless the
    error carries ``stockrank_module``: an error that crossed from a
    training child into the parent records there the module named by the
    child's own traceback, which did not cross.
    """
    recorded = getattr(exc, "stockrank_module", None)
    if recorded:
        return recorded
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        norm = frame.filename.replace(os.sep, "/")
        if "/stockrank/" in norm and not norm.endswith("/stockrank/errors.py"):
            return os.path.splitext(os.path.basename(frame.filename))[0]
    return "stockrank"


@contextmanager
def csv_rows(lines, path: str, start: int = 1):
    """Read lines with csv.reader: the block gets an iterator of (line
    number, row), the first numbered start. Inside the block a field may
    be of any length, as in numpy's C reader (the csv module's global
    field size limit is lifted), and a csv.Error becomes a DataError
    naming path and the line it was raised on."""
    reader = csv.reader(lines)
    limit = csv.field_size_limit(sys.maxsize)
    try:
        yield enumerate(reader, start)
    except csv.Error as exc:
        raise DataError(f"{path}:{start - 1 + reader.line_num}: {exc}") from exc
    finally:
        csv.field_size_limit(limit)


def csv_table(path: str, header: list[str]):
    """Iterate (line number, row) over the rows of the CSV file at path
    whose line 1 holds the given header, names stripped. Rows whose every
    field is empty or whitespace are skipped; every other row must have one
    field per header name. A fault is a DataError naming path:line."""
    with open(path, newline="") as fh, csv_rows(fh, path) as rows:
        names = next(rows, (1, None))[1]
        if names is None or [name.strip() for name in names] != header:
            raise DataError(f"{path}:1: expected header {','.join(header)}")
        for lineno, row in rows:
            if not "".join(row).strip():  # every field empty or whitespace
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} columns, "
                                f"got {len(row)}")
            yield lineno, row
