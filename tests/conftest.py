"""Shared fixtures and universes for the tier-1 suite.

The suite runs its hypothesis properties under the ``tier1`` profile:
derandomized (the examples follow from each test alone) and with no example
database, so every run of a checkout draws the same examples and writes no
``.hypothesis/examples/``. Each property keeps its own ``max_examples``.

For an exploratory run with fresh randomness and the example database,
select Hypothesis's built-in profile on the command line:

    PYTHONPATH=src python -m pytest -q --hypothesis-profile=default

The option is applied after this module loads, so it replaces ``tier1``.
"""

import contextlib
import datetime as dt
import gc
import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from stockrank.config import RunConfig
from stockrank.dataset import Windows, build_split_plans, make_samples
from stockrank.market_data import Universe, load_ohlcv

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def make_calendar(n_days, start=dt.date(2020, 1, 1)):
    days = []
    day = start
    while len(days) < n_days:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return tuple(days)


def stock_bars(opens, highs=None, lows=None, closes=None, volumes=None):
    """(n_days, 5) bars of one stock from its columns: closes default to the
    opens, highs and lows to 1% beyond them, volumes to 1,000,000."""
    opens = np.asarray(opens, dtype=float)
    closes = np.asarray(closes, dtype=float) if closes is not None else opens.copy()
    highs = np.asarray(highs, dtype=float) if highs is not None else np.maximum(opens, closes) * 1.01
    lows = np.asarray(lows, dtype=float) if lows is not None else np.minimum(opens, closes) * 0.99
    volumes = np.asarray(volumes if volumes is not None else [1_000_000] * len(opens), dtype=float)
    return np.stack([opens, highs, lows, closes, volumes], axis=-1)


def universe_from_bars(bars_by_ticker, calendar=None, sectors=None):
    """A Universe over {ticker: (n_days, 5) bars}, tickers sorted; every
    stock alive, sector ids from sectors or i % 11."""
    tickers = sorted(bars_by_ticker)
    bars = np.stack([bars_by_ticker[t] for t in tickers])
    calendar = calendar if calendar is not None else make_calendar(bars.shape[1])
    sector_ids = [sectors[t] if sectors else i % 11 for i, t in enumerate(tickers)]
    return Universe(calendar=tuple(calendar), tickers=tuple(tickers),
                    sector_ids=np.array(sector_ids, dtype=int), bars=bars,
                    death_day=np.full(len(tickers), bars.shape[1]))


def make_stock(opens, **columns):
    """A one-stock universe, ticker AAA in sector 0; columns as stock_bars."""
    return universe_from_bars({"AAA": stock_bars(opens, **columns)}, sectors={"AAA": 0})


def make_universe(opens_by_ticker, calendar=None, sectors=None, volumes=None):
    """opens_by_ticker: {ticker: iterable of opens}; all series share a calendar."""
    return universe_from_bars(
        {t: stock_bars(opens, volumes=volumes[t] if volumes else None)
         for t, opens in opens_by_ticker.items()},
        calendar, sectors)


def load_files(path, sector_path, start=None, end=None):
    """load_ohlcv over the files' whole span, or [start, end], at the
    config's price floor."""
    return load_ohlcv(path, sector_path, start, end, RunConfig().price_floor)


def config_plans(calendar_len, offset=0, **lengths):
    """build_split_plans with the config's window lengths, except those given."""
    cfg = RunConfig()
    defaults = dict(m=cfg.m, std_days=cfg.std_days, trainval_days=cfg.trainval_days,
                    test_days=cfg.test_days)
    return build_split_plans(calendar_len, offset=offset, **{**defaults, **lengths})


def config_samples(panel, universe, plan, returns, **settings):
    """make_samples with the config's settings, except those given."""
    cfg = RunConfig()
    defaults = dict(m=cfg.m, thresholds=cfg.label_thresholds, cap=cfg.return_cap,
                    val_days=cfg.val_days)
    return make_samples(panel, universe, plan, returns, **{**defaults, **settings})


def assert_on_calendar(u):
    """Every stock has exactly one bar per calendar day, in calendar order."""
    assert u.bars.shape == (u.n_stocks, u.n_days, 5)
    assert list(u.calendar) == sorted(set(u.calendar))
    assert [len(s.bars) for s in u.stocks] == [u.n_days] * u.n_stocks


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


class TracedMemory:
    """Bytes allocated inside a ``traced_peak`` block, above what was traced
    at its start: ``held_now()`` while it runs; ``held`` (after a garbage
    collection) and ``peak`` once it has ended."""

    def __init__(self):
        self.base = tracemalloc.get_traced_memory()[0]
        self.held = self.peak = None

    def held_now(self) -> int:
        return tracemalloc.get_traced_memory()[0] - self.base


@contextlib.contextmanager
def traced_peak():
    """Trace the allocations of a with-block; numpy reports its data buffers
    to tracemalloc, so the figures count arrays."""
    gc.collect()
    tracemalloc.start()
    try:
        mem = TracedMemory()
        yield mem
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
        mem.held, mem.peak = current - mem.base, peak - mem.base
    finally:
        tracemalloc.stop()


def minor_faults() -> int:
    """Minor page faults this process has taken so far: each one maps a
    page, zero-filled by the kernel when it is fresh."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
