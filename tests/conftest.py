import datetime as dt

import numpy as np
import pytest

from stockrank.dataset import Windows
from stockrank.market_data import Bar, StockSeries, Universe


def make_calendar(n_days, start=dt.date(2020, 1, 1)):
    days = []
    day = start
    while len(days) < n_days:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return tuple(days)


def make_series(ticker, opens, calendar=None, sector_id=0, highs=None, lows=None,
                closes=None, volumes=None, death_date=None):
    opens = np.asarray(opens, dtype=float)
    n = len(opens)
    calendar = calendar if calendar is not None else make_calendar(n)
    closes = np.asarray(closes, dtype=float) if closes is not None else opens.copy()
    highs = np.asarray(highs, dtype=float) if highs is not None else np.maximum(opens, closes) * 1.01
    lows = np.asarray(lows, dtype=float) if lows is not None else np.minimum(opens, closes) * 0.99
    volumes = volumes if volumes is not None else [1_000_000] * n
    bars = tuple(
        Bar(calendar[i], float(opens[i]), float(highs[i]), float(lows[i]),
            float(closes[i]), int(volumes[i]))
        for i in range(n)
    )
    return StockSeries(ticker=ticker, sector_id=sector_id, bars=bars, death_date=death_date)


def make_universe(opens_by_ticker, calendar=None, sectors=None, volumes=None):
    """opens_by_ticker: {ticker: iterable of opens}; all series share a calendar."""
    n = len(next(iter(opens_by_ticker.values())))
    calendar = calendar if calendar is not None else make_calendar(n)
    stocks = []
    for i, (ticker, opens) in enumerate(sorted(opens_by_ticker.items())):
        sector = sectors[ticker] if sectors else i % 11
        vol = volumes[ticker] if volumes else None
        stocks.append(make_series(ticker, opens, calendar, sector_id=sector, volumes=vol))
    return Universe(calendar=calendar, stocks=tuple(stocks))


def assert_on_calendar(u):
    """Every stock has exactly one bar per calendar day, in calendar order."""
    for s in u.stocks:
        assert tuple(b.date for b in s.bars) == u.calendar, s.ticker


def random_walk_universe(rng, n_stocks, n_days, vol=0.02):
    opens = {}
    for i in range(n_stocks):
        steps = rng.normal(0, vol, size=n_days)
        steps[0] = 0.0
        opens[f"T{i:03d}"] = 50.0 * np.exp(np.cumsum(steps))
    return make_universe(opens)


def as_windows(windows):
    """A Windows view over a (samples, m, n) array: each sample is a span
    row of its own, and the view keeps the array's dtype."""
    windows = np.asarray(windows)
    n_samples, m, _ = windows.shape
    return Windows(windows, np.arange(n_samples), np.zeros(n_samples, dtype=int), m)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
