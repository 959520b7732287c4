"""Scalar reference implementations that the batched code is tested against.

These are the documented one-sample formulas, written for clarity: the
program computes the same quantities on arrays (``losses.batch_loss``,
``dataset.return_matrix``, ``market_data.load_ohlcv``), and the tests
compare the two.
"""

import csv
import datetime as dt
import math
import re

import numpy as np

from stockrank.dataset import LOOKAHEAD
from stockrank.errors import DataError, NumericError
from stockrank.losses import LOG_CLIP
from stockrank.market_data import NO_SECTOR_ID, OPEN, load_sector_map

OHLCV_HEADER = ["ticker", "date", "open", "high", "low", "close", "volume"]


def _check_one_hot(p: np.ndarray) -> None:
    p = np.asarray(p)
    if p.shape != (5,) or not np.all((p == 0) | (p == 1)) or p.sum() != 1:
        raise NumericError(f"label must be a one-hot 5-vector, got {p!r}")


def cross_entropy(p, q) -> float:
    """-sum_i p_i ln q_i for a one-hot p; q clipped below at 1e-12."""
    _check_one_hot(np.asarray(p, dtype=np.float64))
    q = np.asarray(q, dtype=np.float64)
    return float(-(np.asarray(p) * np.log(np.clip(q, LOG_CLIP, None))).sum())


def return_weighted_loss(y_true, y_pred, weight: float) -> float:
    """Cross-entropy scaled by the capped absolute next-day return."""
    if not 0.0 <= weight <= 0.5:
        raise NumericError(f"loss weight must lie in [0, 0.5], got {weight}")
    return cross_entropy(y_true, y_pred) * weight


def mse(y: float, y_hat: float) -> float:
    return float((y - y_hat) ** 2)


def daily_return(u, si: int, T: int) -> float:
    """Open-to-open fractional return attributed to anchor day T of stock si
    of a Universe.

    r = (open[T+2] - open[T+1]) / open[T+1]; forced to 0 once the stock is
    dead by day T+2 (its quotes are no longer tradeable).
    """
    if T < 0 or T + LOOKAHEAD >= u.n_days:
        raise DataError(f"anchor day {T} needs opens at days {T + 1} and {T + 2}")
    if T + 2 >= u.death_day[si]:
        return 0.0
    o1 = u.bars[si, T + 1, OPEN]
    o2 = u.bars[si, T + 2, OPEN]
    return (o2 - o1) / o1


def gather_windows(scaled: np.ndarray, universe, plan, ss, m: int) -> np.ndarray:
    """A SampleSet's (samples, m, n) windows in one fancy-index gather from
    a standardized span: sample i is the m days of its stock's row that
    end at its anchor day."""
    stock = np.array([universe.tickers.index(t) for t in ss.tickers], dtype=int)
    rows = ss.anchor_days[:, None] - plan.std_range[0] + np.arange(1 - m, 1)
    return scaled[stock[:, None], rows]


# The number syntax numpy's C reader accepts: ASCII digits, optional sign,
# whitespace around; the float grammar is Python's (inf, nan included).
_FLOAT_SYNTAX = re.compile(
    r"\s*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)\s*",
    re.IGNORECASE)
_INT_SYNTAX = re.compile(r"\s*[+-]?[0-9]+\s*")
_PRICES = ("open", "high", "low", "close")


def load_ohlcv_rows(path, sector_path, start=None, end=None, price_floor=0.1):
    """Row-by-row oracle of market_data.load_ohlcv: one csv row at a time
    into per-ticker dicts, then per-stock loops, with the same checks and
    messages. Returns (tickers, calendar, bars, sector_ids, death_day), the
    last as apply_dead_stock_rule(price_floor) would mark it."""
    sectors = load_sector_map(sector_path)
    per_ticker: dict[str, dict[dt.date, list[float]]] = {}
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline().rstrip("\r\n")]), [])
        if [h.strip() for h in header] != OHLCV_HEADER:
            raise DataError(f"{path}: expected header {','.join(OHLCV_HEADER)}")
        for lineno, row in enumerate(csv.reader(fh), start=2):
            where = f"{path}:{lineno}"
            if any("\n" in f or "\r" in f for f in row):
                raise DataError(f"{where}: a quoted field holds a line break")
            if all(not f.strip() for f in row):
                continue
            if len(row) != 7:
                raise DataError(f"{where}: expected 7 columns, got {len(row)}")
            ticker = row[0].strip()
            if not ticker:
                raise DataError(f"{where}: empty ticker")
            try:
                date = dt.date.fromisoformat(row[1].strip())
            except ValueError:
                raise DataError(f"{where}: bad date {row[1].strip()!r} (expected YYYY-MM-DD)")
            bar = []
            for name, text in zip(_PRICES, row[2:6]):
                if not _FLOAT_SYNTAX.fullmatch(text):
                    raise DataError(f"{where}: bad {name} value {text!r}")
                if not math.isfinite(float(text)):
                    raise DataError(f"{where}: non-finite {name} value {text!r}")
                bar.append(float(text))
            if not _INT_SYNTAX.fullmatch(row[6]) or not -2**63 <= int(row[6]) < 2**63:
                raise DataError(f"{where}: bad volume value {row[6]!r}")
            if int(row[6]) < 0:
                raise DataError(f"{where}: negative volume {int(row[6])}")
            o, h, lo, c = bar
            if lo > o or lo > c or h < o or h < c:
                raise DataError(f"{where}: high/low do not bracket open/close "
                                f"(open={o}, high={h}, low={lo}, close={c})")
            bars = per_ticker.setdefault(ticker, {})
            if date in bars:
                raise DataError(f"{where}: duplicate bar for ({ticker}, {date})")
            bars[date] = bar + [float(int(row[6]))]
    if not per_ticker:
        raise DataError(f"{path}: no data rows")

    kept = {}
    for ticker, by_date in per_ticker.items():
        dates = sorted(by_date)
        want_lo = start if start is not None else dates[0]
        want_hi = end if end is not None else dates[-1]
        if dates[0] <= want_lo and dates[-1] >= want_hi:
            kept[ticker] = {d: by_date[d] for d in dates if want_lo <= d <= want_hi}
    if not kept:
        raise DataError("no stocks span the requested date range")
    calendar = tuple(sorted({d for by_date in kept.values() for d in by_date}))
    tickers = tuple(sorted(kept))
    death_day = []
    for ticker in tickers:
        for day in calendar:
            if day not in kept[ticker]:
                raise DataError(f"stock {ticker} is missing calendar day {day}")
        dead = None
        for i, day in enumerate(calendar):
            bar = kept[ticker][day]
            if dead is None and min(bar[:4]) <= 0:
                raise DataError(f"stock {ticker} {day}: non-positive price on a pre-death day")
            if dead is None and bar[0] < price_floor:
                dead = i
        death_day.append(len(calendar) if dead is None else dead)
    bars = np.array([[kept[t][d] for d in calendar] for t in tickers], dtype=np.float64)
    bars = bars.reshape(len(tickers), len(calendar), 5)
    sector_ids = np.array([sectors.get(t, NO_SECTOR_ID) for t in tickers])
    return tickers, calendar, bars, sector_ids, np.array(death_day)
