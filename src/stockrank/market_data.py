"""Loading, validation, and filtering of per-stock OHLCV panels.

The loader produces a rectangular Universe: a shared trading calendar on
which every retained stock has exactly one bar per day, held as one
(stocks x days x 5) float64 block. Filtering ops (dollar-volume
threshold, dead-stock marking) return new Universe objects and never
mutate their input.
"""

from __future__ import annotations

import bisect
import datetime as dt
import io
import math
import re
from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from .errors import DataError, csv_rows

#: Canonical sector names mapped to ids 0..10; anything else gets NO_SECTOR_ID.
SECTOR_NAMES = (
    "Energy",
    "Materials",
    "Industrials",
    "Consumer Discretionary",
    "Consumer Staples",
    "Health Care",
    "Financials",
    "Information Technology",
    "Communication Services",
    "Utilities",
    "Real Estate",
)
NO_SECTOR_ID = 11
N_SECTORS = 12

DEFAULT_DOLLAR_VOLUME_FLOOR = 10_000_000.0
DEFAULT_PRICE_FLOOR = 0.1

_OHLCV_HEADER = ["ticker", "date", "open", "high", "low", "close", "volume"]
_SECTOR_HEADER = ["ticker", "sector"]


#: Columns of Universe.bars.
OPEN, HIGH, LOW, CLOSE, VOLUME = range(5)
_PRICE_NAMES = ("open", "high", "low", "close")


@dataclass(frozen=True)
class StockSeries:
    """One stock of a Universe: its ticker, sector id and (n_days, 5) view
    of the bar block, one row per calendar day."""

    ticker: str
    sector_id: int
    bars: np.ndarray


@dataclass(frozen=True, eq=False)
class Universe:
    """Rectangular panel: every stock has a bar on every calendar day.

    ``bars[s, d]`` holds the open, high, low, close and volume (columns
    OPEN .. VOLUME) of stock s on calendar day d. ``death_day[s]`` is the
    first day whose open fell below the price floor, kept even if the
    price later recovers; it is n_days for a stock that never fell below
    it, and for every stock until apply_dead_stock_rule marks them.
    """

    calendar: tuple[dt.date, ...]
    tickers: tuple[str, ...]
    sector_ids: np.ndarray  # (n_stocks,) int
    bars: np.ndarray  # (n_stocks, n_days, 5) float64
    death_day: np.ndarray  # (n_stocks,) int

    @property
    def n_days(self) -> int:
        return len(self.calendar)

    @property
    def n_stocks(self) -> int:
        return len(self.tickers)

    @property
    def stocks(self) -> tuple[StockSeries, ...]:
        """One view per stock, in ticker order. The program reads the
        arrays; perfbench counts the rows loaded through these views."""
        return tuple(StockSeries(t, sid, bars) for t, sid, bars
                     in zip(self.tickers, self.sector_ids.tolist(), self.bars))

    def matrix(self, column: int) -> np.ndarray:
        """(n_stocks, n_days) C-contiguous copy of one bar column."""
        return np.ascontiguousarray(self.bars[:, :, column])


def load_sector_map(sector_path: str) -> dict[str, int]:
    """Read ``ticker,sector`` CSV into ticker -> sector_id (0..11); each
    ticker may appear once."""
    name_to_id = {name.lower(): i for i, name in enumerate(SECTOR_NAMES)}
    out: dict[str, int] = {}
    with open(sector_path, newline="") as fh, csv_rows(fh, sector_path) as rows:
        header = next(rows, (1, None))[1]
        if header is None or [h.strip() for h in header] != _SECTOR_HEADER:
            raise DataError(f"{sector_path}: expected header {','.join(_SECTOR_HEADER)}")
        for lineno, row in rows:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise DataError(f"{sector_path}:{lineno}: expected 2 columns, got {len(row)}")
            ticker, sector = row[0].strip(), row[1].strip()
            if ticker in out:
                raise DataError(f"{sector_path}:{lineno}: repeated ticker {ticker!r}")
            out[ticker] = name_to_id.get(sector.lower(), NO_SECTOR_ID)
    return out


# A parsed row. Ticker and date stay Python strings of any length (a sized
# str dtype would truncate them); prices and volume are parsed in C.
_ROW = np.dtype([("ticker", object), ("date", object), ("prices", np.float64, (4,)),
                 ("volume", np.int64)])
# A line break and the row after it, when that row holds only empty or
# whitespace fields, quoted or not: the rows csv.reader reads as blank
# (at the end of the text, that includes a quote that is never closed).
_BLANK_FIELD = r'(?:"[^\S\n]*")?[^\S\n]*'
_BLANK_ROWS = re.compile(
    rf'\n(?:{_BLANK_FIELD},)*(?:{_BLANK_FIELD}(?=\n|\Z)|"[^\S\n]*\Z)')
# Where a blank row can start; a fast scan that most files fail.
_BLANK_ROW_START = re.compile(r'\n[\s,"]')


def _parse_rows(path: str) -> np.ndarray:
    """The data rows of an OHLCV file, blank rows left out, in one pass of
    numpy's C reader. A bad header is a DataError; any row the reader
    rejects raises its ValueError."""
    try:
        with open(path) as fh:  # universal newlines: \r\n and \r end a row, as in csv
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from exc
    header_line = text.partition("\n")[0]
    with csv_rows([header_line], path) as rows:
        header = next(rows, (1, []))[1]
    if [h.strip() for h in header] != _OHLCV_HEADER:
        raise DataError(f"{path}: expected header {','.join(_OHLCV_HEADER)}")
    body = text[len(header_line):]  # each row follows a line break
    if _BLANK_ROW_START.search(body):
        body = _BLANK_ROWS.sub("", body)
    n_rows = body.count("\n") - body.endswith("\n")
    if n_rows == 0:
        raise DataError(f"{path}: no data rows")
    # one UTF-8 byte per ASCII character; a StringIO would hold four
    rows = np.loadtxt(io.BytesIO(body.encode()), dtype=_ROW, delimiter=",", comments=None,
                      quotechar='"', ndmin=1, encoding="utf-8")
    # A quote the last row opens and never closes holds every line break
    # after it without merging two rows, so the row count cannot show it:
    # csv reads from the last line that is not blank to the end.
    end = len(text)
    while end and (text[end - 1].isspace() or text[end - 1] in ',"'):
        end -= 1
    with csv_rows(io.StringIO(text[text.rfind("\n", 0, end) + 1:]), path) as last:
        open_quote = any("\n" in field for field in next(last)[1])
    if len(rows) != n_rows or open_quote:
        raise ValueError("a quoted field holds a line break")
    return rows


def _index(texts: np.ndarray, key) -> tuple[list, np.ndarray]:
    """The sorted distinct keys of a column of strings and each row's
    position among them; key maps a text to its key, once per distinct text."""
    texts = texts.tolist()
    key_of = {text: key(text) for text in dict.fromkeys(texts)}
    keys = sorted(set(key_of.values()))
    position = {k: i for i, k in enumerate(keys)}
    code = {text: position[k] for text, k in key_of.items()}
    return keys, np.fromiter(map(code.__getitem__, texts), dtype=np.intp, count=len(texts))


def _read_block(path: str) -> tuple[list[str], list[dt.date], np.ndarray, np.ndarray]:
    """Parse and check every row, and scatter the rows into a block over the
    file's tickers and dates. Returns (tickers, dates, present, block):
    present[s, d] says whether the file has a bar for (s, d) and block[s, d]
    is that bar. A row that fails a check raises ValueError."""
    rows = _parse_rows(path)
    tickers, stock = _index(rows["ticker"], str.strip)
    if not tickers[0]:
        raise ValueError("empty ticker")
    if any(";" in t for t in tickers):
        raise ValueError("a ticker holds ';'")
    dates, day = _index(rows["date"], lambda text: dt.date.fromisoformat(text.strip()))
    prices, volume = rows["prices"], rows["volume"]
    o, h, lo, c = prices.T
    if not (np.isfinite(prices).all() and (volume >= 0).all()
            and (lo <= np.minimum(o, c)).all() and (h >= np.maximum(o, c)).all()):
        raise ValueError("a row fails a value check")
    present = np.zeros((len(tickers), len(dates)), dtype=bool)
    present[stock, day] = True
    if np.count_nonzero(present) != len(rows):
        raise ValueError("a (ticker, date) pair repeats")
    block = np.zeros((len(tickers), len(dates), 5))
    block[stock, day, :VOLUME] = prices
    block[stock, day, VOLUME] = volume
    return tickers, dates, present, block


def _c_number(text: str, kind):
    """text as float or int, as numpy's C reader reads it: what ``kind``
    reads from the ASCII text left once any Unicode whitespace around it
    is stripped, with no underscores; None if it reads nothing."""
    text = text.strip()
    if "_" in text or not text.isascii():
        return None
    try:
        return kind(text)
    except ValueError:
        return None


def _row_fault(row: list[str], seen: set) -> str | None:
    """What is wrong with one csv row, checks in order; None for a good or
    a blank row. seen holds the (ticker, date) pairs of the rows before."""
    if any("\n" in field or "\r" in field for field in row):
        return "a quoted field holds a line break"
    if len(row) != 7 or not (ticker := row[0].strip()):
        # only a malformed row can be blank, so only it pays the blank test
        if all(not field.strip() for field in row):
            return None
        if len(row) != 7:
            return f"expected 7 columns, got {len(row)}"
        return "empty ticker"
    if ";" in ticker:
        return f"ticker {ticker!r} holds ';'"
    try:
        date = dt.date.fromisoformat(row[1].strip())
    except ValueError:
        return f"bad date {row[1].strip()!r} (expected YYYY-MM-DD)"
    prices = []
    for name, text in zip(_PRICE_NAMES, row[2:6]):
        value = _c_number(text, float)
        if value is None:
            return f"bad {name} value {text!r}"
        if not math.isfinite(value):
            return f"non-finite {name} value {text!r}"
        prices.append(value)
    v = _c_number(row[6], int)
    if v is None or not -(2**63) <= v < 2**63:
        return f"bad volume value {row[6]!r}"
    if v < 0:
        return f"negative volume {v}"
    o, h, lo, c = prices
    if lo > o or lo > c or h < o or h < c:
        return f"high/low do not bracket open/close (open={o}, high={h}, low={lo}, close={c})"
    if (ticker, date) in seen:
        return f"duplicate bar for ({ticker}, {date})"
    seen.add((ticker, date))
    return None


def _first_bad_row(path: str) -> DataError | None:
    """The first row in file order that fails a row check, as a DataError
    naming path:line; None if there is none.

    This csv pass runs only after the bulk parse or its checks rejected
    the file, to say where and why: it reads the same rows (line 1 is the
    header) and rejects what the C reader rejects.
    """
    seen: set = set()
    with open(path, newline="") as fh:
        fh.readline()
        try:
            with csv_rows(fh, path, start=2) as rows:
                for lineno, row in rows:
                    if fault := _row_fault(row, seen):
                        return DataError(f"{path}:{lineno}: {fault}")
        except DataError as exc:  # a row the csv module cannot read
            return exc
    return None


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Per row of a 2-d mask, the index of its first True, or the row length."""
    return np.where(mask.any(1), mask.argmax(1), mask.shape[1])


def load_ohlcv(
    path: str,
    sector_path: str,
    start: dt.date | None = None,
    end: dt.date | None = None,
    price_floor: float = DEFAULT_PRICE_FLOOR,
) -> Universe:
    """Load an OHLCV CSV plus a sector CSV into a rectangular Universe.

    Stocks that do not span the requested [start, end] range are dropped
    before alignment. The calendar is the set of dates carried by the
    retained stocks; a retained stock missing any calendar day is a data
    error (rectangularity violation), as is a duplicate (ticker, date) row
    or a non-positive price on a day before the stock first traded below
    ``price_floor``.

    The accepted dialect is the one numpy's C reader (``np.loadtxt``)
    parses the file in, in one pass:

    - Line 1 is the header ``ticker,date,open,high,low,close,volume``
      (whitespace around a name is ignored). Rows may come in any order.
    - One row per line; a line ends in ``\\n``, ``\\r\\n`` or ``\\r``.
    - Fields are separated by commas and may be quoted with ``"``, a
      doubled ``""`` inside standing for one quote, as in the csv module's
      default dialect. A quoted field may not hold a line break (the csv
      module read one).
    - There is no comment character: ``#`` is text like any other.
    - A row whose fields are all empty or whitespace, quoted or not, is
      skipped; so are empty lines.
    - Ticker and date are stripped of surrounding whitespace; the date is
      ISO (``datetime.date.fromisoformat``). A ticker may not hold ``;``,
      which separates the holdings of a ledger line.
    - A field may be of any length.
    - Prices are what ``float()`` reads from ASCII text, with any Unicode
      whitespace around it; ``nan`` and ``inf`` parse but are rejected as
      non-finite. The volume is a base-10 integer with an optional sign
      that fits int64. Underscores (``1_0``) and non-ASCII digits are
      rejected in every number, and so is a volume beyond int64: ``float()``
      and ``int()`` read them, and this loader accepted them before it
      parsed in bulk.

    A row that fails a check is reported as ``path:line`` with its cause,
    the first such row in file order winning; a file with no bad row never
    pays for the row-by-row pass that finds it.
    """
    sectors = load_sector_map(sector_path)
    try:
        tickers, dates, present, block = _read_block(path)
    except ValueError as exc:
        error = _first_bad_row(path) or DataError(f"{path}: {exc}")
        raise error from exc

    # Range handling: keep stocks whose bars span the requested window.
    keep = np.ones(len(tickers), dtype=bool)
    if start is not None:
        keep &= present.argmax(1) < bisect.bisect_right(dates, start)
    if end is not None:
        keep &= len(dates) - present[:, ::-1].argmax(1) > bisect.bisect_left(dates, end)
    lo = 0 if start is None else bisect.bisect_left(dates, start)
    hi = len(dates) if end is None else bisect.bisect_right(dates, end)
    held = present[keep, lo:hi]
    on_calendar = held.any(0)
    if not on_calendar.any():  # no stock kept, or none has a bar in the range
        raise DataError("no stocks span the requested date range")
    calendar = tuple(compress(dates[lo:hi], on_calendar.tolist()))
    held = held[:, on_calendar]
    bars = block[keep, lo:hi][:, on_calendar]
    kept = list(compress(tickers, keep.tolist()))

    # A non-positive price is tolerated only after a prior day's open fell
    # below the floor (the death rule); a stock's first fault wins, missing
    # days first.
    missing = ~held
    non_positive = _first_true((bars[:, :, :VOLUME] <= 0).any(2))
    pre_death = (non_positive < len(calendar)) & (
        non_positive <= _first_true(bars[:, :, OPEN] < price_floor))
    bad = missing.any(1) | pre_death
    if bad.any():
        k = int(bad.argmax())
        if missing[k].any():
            raise DataError(f"stock {kept[k]} is missing calendar day "
                            f"{calendar[missing[k].argmax()]}")
        raise DataError(f"stock {kept[k]} {calendar[non_positive[k]]}: "
                        "non-positive price on a pre-death day")
    return Universe(
        calendar=calendar,
        tickers=tuple(kept),
        sector_ids=np.array([sectors.get(t, NO_SECTOR_ID) for t in kept], dtype=int),
        bars=bars,
        death_day=np.full(len(kept), len(calendar)),
    )


def filter_by_dollar_volume(
    u: Universe, threshold: float = DEFAULT_DOLLAR_VOLUME_FLOOR
) -> Universe:
    """Remove stocks whose full-period mean of open*volume is below threshold."""
    if threshold <= 0:
        raise DataError(f"dollar-volume threshold must be > 0, got {threshold}")
    kept = np.mean(u.matrix(OPEN) * u.matrix(VOLUME), axis=1) >= threshold
    if not kept.any():
        raise DataError("dollar-volume filter removed every stock")
    return replace(u, tickers=tuple(compress(u.tickers, kept.tolist())),
                   sector_ids=u.sector_ids[kept], bars=u.bars[kept], death_day=u.death_day[kept])


def apply_dead_stock_rule(u: Universe, price_floor: float = DEFAULT_PRICE_FLOOR) -> Universe:
    """Mark each stock's death_day: the first day its open is below the floor.

    Bars are never altered; downstream return computation forces returns to
    zero once a stock is dead (see dataset.return_matrix).
    """
    if price_floor <= 0:
        raise DataError(f"price floor must be > 0, got {price_floor}")
    return replace(u, death_day=_first_true(u.bars[:, :, OPEN] < price_floor))
