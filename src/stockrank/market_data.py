"""Loading, validation, and filtering of per-stock OHLCV panels.

The loader produces a rectangular Universe: a shared trading calendar on
which every retained stock has exactly one bar per day. Filtering ops
(dollar-volume threshold, dead-stock marking) return new Universe objects
and never mutate their input.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DataError

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


class Bar(NamedTuple):
    """One trading day for one stock; a named tuple, so the loader's one
    object per row costs one tuple allocation.

    Invariants (enforced at load time for alive days): low <= min(open, close),
    high >= max(open, close), volume >= 0, prices > 0.
    """

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: int


@dataclass(frozen=True)
class StockSeries:
    """A single ticker's date-ascending bars plus sector identity.

    ``death_date`` is the first day whose open fell below the price floor;
    it stays set even if the price later recovers.
    """

    ticker: str
    sector_id: int
    bars: tuple[Bar, ...]
    death_date: dt.date | None = None

    def opens(self) -> np.ndarray:
        return np.array([b.open for b in self.bars], dtype=np.float64)

    def highs(self) -> np.ndarray:
        return np.array([b.high for b in self.bars], dtype=np.float64)

    def lows(self) -> np.ndarray:
        return np.array([b.low for b in self.bars], dtype=np.float64)

    def volumes(self) -> np.ndarray:
        return np.array([b.volume for b in self.bars], dtype=np.float64)

    def death_index(self, calendar: tuple[dt.date, ...]) -> int | None:
        """Index of death_date on the given calendar, or None if alive."""
        if self.death_date is None:
            return None
        return calendar.index(self.death_date)


@dataclass(frozen=True)
class Universe:
    """Rectangular panel: every stock has a bar on every calendar day."""

    calendar: tuple[dt.date, ...]
    stocks: tuple[StockSeries, ...]

    @property
    def n_days(self) -> int:
        return len(self.calendar)

    @property
    def n_stocks(self) -> int:
        return len(self.stocks)

    @property
    def tickers(self) -> tuple[str, ...]:
        return tuple(s.ticker for s in self.stocks)

    def open_matrix(self) -> np.ndarray:
        """(n_stocks, n_days) array of opening prices."""
        return np.stack([s.opens() for s in self.stocks])

    def high_matrix(self) -> np.ndarray:
        return np.stack([s.highs() for s in self.stocks])

    def low_matrix(self) -> np.ndarray:
        return np.stack([s.lows() for s in self.stocks])

    def volume_matrix(self) -> np.ndarray:
        return np.stack([s.volumes() for s in self.stocks])


def _parse_date(text: str, where: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"{where}: bad date {text!r} (expected YYYY-MM-DD)") from exc


def _parse_float(text: str, colname: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise DataError(f"{where}: bad {colname} value {text!r}") from exc
    if not math.isfinite(value):
        raise DataError(f"{where}: non-finite {colname} value {text!r}")
    return value


def load_sector_map(sector_path: str) -> dict[str, int]:
    """Read ``ticker,sector`` CSV into ticker -> sector_id (0..11); each
    ticker may appear once."""
    name_to_id = {name.lower(): i for i, name in enumerate(SECTOR_NAMES)}
    out: dict[str, int] = {}
    with open(sector_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _SECTOR_HEADER:
            raise DataError(f"{sector_path}: expected header {','.join(_SECTOR_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise DataError(f"{sector_path}:{lineno}: expected 2 columns, got {len(row)}")
            ticker, sector = row[0].strip(), row[1].strip()
            if ticker in out:
                raise DataError(f"{sector_path}:{lineno}: repeated ticker {ticker!r}")
            out[ticker] = name_to_id.get(sector.lower(), NO_SECTOR_ID)
    return out


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
    """
    sectors = load_sector_map(sector_path)

    per_ticker: dict[str, dict[dt.date, Bar]] = {}
    date_of: dict[str, dt.date] = {}  # each date text recurs once per ticker: parse it once
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _OHLCV_HEADER:
            raise DataError(f"{path}: expected header {','.join(_OHLCV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            if len(row) != 7 or not (ticker := row[0].strip()):
                # only a malformed row can be blank, so only it pays the blank test
                if all(not c.strip() for c in row):
                    continue
                if len(row) != 7:
                    raise DataError(f"{where}: expected 7 columns, got {len(row)}")
                raise DataError(f"{where}: empty ticker")
            date = date_of.get(row[1])
            if date is None:
                date = date_of[row[1]] = _parse_date(row[1].strip(), where)
            o = _parse_float(row[2], "open", where)
            h = _parse_float(row[3], "high", where)
            lo = _parse_float(row[4], "low", where)
            c = _parse_float(row[5], "close", where)
            try:
                v = int(row[6])
            except ValueError as exc:
                raise DataError(f"{where}: bad volume value {row[6]!r}") from exc
            if v < 0:
                raise DataError(f"{where}: negative volume {v}")
            if lo > o or lo > c or h < o or h < c:
                raise DataError(
                    f"{where}: high/low do not bracket open/close "
                    f"(open={o}, high={h}, low={lo}, close={c})"
                )
            bars = per_ticker.setdefault(ticker, {})
            if date in bars:
                raise DataError(f"{where}: duplicate bar for ({ticker}, {date})")
            bars[date] = Bar(date, o, h, lo, c, v)

    if not per_ticker:
        raise DataError(f"{path}: no data rows")

    # Range handling: keep stocks whose bars span the requested window.
    kept: dict[str, list[Bar]] = {}
    for ticker, by_date in per_ticker.items():
        dates = sorted(by_date)
        lo_d, hi_d = dates[0], dates[-1]
        want_lo = start if start is not None else lo_d
        want_hi = end if end is not None else hi_d
        if lo_d > want_lo or hi_d < want_hi:
            continue
        bars = [by_date[d] for d in dates if want_lo <= d <= want_hi]
        kept[ticker] = bars

    if not kept:
        raise DataError("no stocks span the requested date range")

    calendar_set: set[dt.date] = set()
    for bars in kept.values():
        calendar_set.update(b.date for b in bars)
    calendar = tuple(sorted(calendar_set))

    stocks = []
    for ticker in sorted(kept):
        bars = kept[ticker]
        have = {b.date for b in bars}
        for day in calendar:
            if day not in have:
                raise DataError(f"stock {ticker} is missing calendar day {day}")
        # Positive-price check; garbage is tolerated only after a prior day
        # already triggered the sub-floor death rule.
        dead = False
        for b in bars:
            if not dead and (b.open <= 0 or b.high <= 0 or b.low <= 0 or b.close <= 0):
                raise DataError(
                    f"stock {ticker} {b.date}: non-positive price on a pre-death day"
                )
            if b.open < price_floor:
                dead = True
        stocks.append(StockSeries(ticker, sectors.get(ticker, NO_SECTOR_ID), tuple(bars)))

    return Universe(calendar=calendar, stocks=tuple(stocks))


def filter_by_dollar_volume(
    u: Universe, threshold: float = DEFAULT_DOLLAR_VOLUME_FLOOR
) -> Universe:
    """Remove stocks whose full-period mean of open*volume is below threshold."""
    if threshold <= 0:
        raise DataError(f"dollar-volume threshold must be > 0, got {threshold}")
    kept = []
    for s in u.stocks:
        mean_dollar = float(np.mean(s.opens() * s.volumes()))
        if mean_dollar >= threshold:
            kept.append(s)
    if not kept:
        raise DataError("dollar-volume filter removed every stock")
    return Universe(calendar=u.calendar, stocks=tuple(kept))


def apply_dead_stock_rule(u: Universe, price_floor: float = DEFAULT_PRICE_FLOOR) -> Universe:
    """Mark each stock's death_date: the first day its open is below the floor.

    Bars are never altered; downstream return computation forces returns to
    zero once a stock is dead (see dataset.return_matrix).
    """
    if price_floor <= 0:
        raise DataError(f"price floor must be > 0, got {price_floor}")
    stocks = []
    for s in u.stocks:
        death = None
        for bar in s.bars:
            if bar.open < price_floor:
                death = bar.date
                break
        stocks.append(replace(s, death_date=death))
    return Universe(calendar=u.calendar, stocks=tuple(stocks))
