"""Seeded synthetic OHLCV generator with an optional planted signal.

Prices follow a geometric random walk. When a signal is configured, each
(stock, day) can independently arm a motif: the day's trading volume is
multiplied by ``volume_factor``, and with probability ``jump_prob`` the
open-to-open return two days later (the return a model anchored on that
day is asked to predict) receives an extra ``jump_size``. The generator
emits the armed events alongside the data so tests can measure how well
a model recovers them.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, csv_table
from .market_data import SECTOR_NAMES

EVENTS_HEADER = ["ticker", "anchor_day", "date", "realized"]


@dataclass(frozen=True)
class SignalSpec:
    """The walk's daily volatility and the planted-motif parameters; event_rate
    is the per (stock, day) probability of planting a motif, 0 for no signal.
    The fields are the ``synth`` command's signal options and defaults."""

    event_rate: float = 0.0
    jump_prob: float = 0.8
    jump_size: float = 0.05
    volume_factor: float = 6.0
    daily_vol: float = 0.02

    def __post_init__(self):
        if not 0.0 <= self.event_rate <= 1.0:
            raise ConfigError(f"event_rate must be in [0, 1], got {self.event_rate}")
        if not 0.0 <= self.jump_prob <= 1.0:
            raise ConfigError(f"jump_prob must be in [0, 1], got {self.jump_prob}")
        if self.jump_size <= -1.0:
            raise ConfigError(f"jump_size must exceed -1, got {self.jump_size}")
        if self.volume_factor <= 0.0:
            raise ConfigError(f"volume_factor must be positive, got {self.volume_factor}")


@dataclass(frozen=True)
class PlantedEvent:
    """One armed motif: visible at anchor_day, paying off at anchor_day + 2."""

    ticker: str
    anchor_day: int
    date: dt.date
    realized: bool


def trading_calendar(n_days: int) -> list[dt.date]:
    """Weekday-only calendar from 2015-01-01; no exchange holidays."""
    days = []
    day = dt.date(2015, 1, 1)
    while len(days) < n_days:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


def generate(
    seed: int,
    n_stocks: int,
    n_days: int,
    signal: SignalSpec | None = None,
) -> tuple[list[dict], list[PlantedEvent], list[dt.date]]:
    """Build per-stock OHLCV rows plus the planted-event log.

    Returns (rows, events, calendar) where each row dict carries ticker,
    date, open, high, low, close, volume. Deterministic for a fixed seed.
    No signal is ``SignalSpec()``.
    """
    if n_stocks < 1 or n_days < 5:
        raise ConfigError(f"need n_stocks >= 1 and n_days >= 5, got {n_stocks}, {n_days}")
    signal = signal or SignalSpec()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    calendar = trading_calendar(n_days)

    rows: list[dict] = []
    events: list[PlantedEvent] = []
    width = max(3, len(str(n_stocks - 1)))
    for si in range(n_stocks):
        ticker = f"S{si:0{width}d}"
        base_price = float(rng.uniform(15.0, 80.0))
        base_volume = float(rng.uniform(1.5e6, 4e6))

        log_ret = rng.normal(0.0, signal.daily_vol, size=n_days)  # log_ret[t] moves t-1 -> t
        log_ret[0] = 0.0
        vol_mult = np.ones(n_days)
        armed = np.zeros(n_days, dtype=bool)
        if signal.event_rate > 0.0:
            draws = rng.random(n_days)
            armed[: n_days - 2] = draws[: n_days - 2] < signal.event_rate
            jump_draws = rng.random(n_days)
            for t in np.flatnonzero(armed):
                vol_mult[t] *= signal.volume_factor
                realized = jump_draws[t] < signal.jump_prob
                if realized:
                    log_ret[t + 2] += np.log1p(signal.jump_size)
                events.append(PlantedEvent(ticker, int(t), calendar[t], bool(realized)))

        opens = base_price * np.exp(np.cumsum(log_ret))
        closes = opens * np.exp(rng.normal(0.0, signal.daily_vol / 2.0, size=n_days))
        hi_pad = np.abs(rng.normal(0.0, signal.daily_vol / 2.0, size=n_days))
        lo_pad = np.abs(rng.normal(0.0, signal.daily_vol / 2.0, size=n_days))
        highs = np.maximum(opens, closes) * np.exp(hi_pad)
        lows = np.minimum(opens, closes) * np.exp(-lo_pad)
        volumes = np.maximum(
            1, (base_volume * vol_mult * rng.lognormal(0.0, 0.3, size=n_days)).astype(np.int64)
        )

        for t in range(n_days):
            rows.append(
                {
                    "ticker": ticker,
                    "date": calendar[t],
                    "open": opens[t],
                    "high": highs[t],
                    "low": lows[t],
                    "close": closes[t],
                    "volume": int(volumes[t]),
                }
            )
    return rows, events, calendar


def write_ohlcv_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("ticker,date,open,high,low,close,volume\n")
        for r in rows:
            fh.write(
                f"{r['ticker']},{r['date'].isoformat()},{r['open']:.6f},{r['high']:.6f},"
                f"{r['low']:.6f},{r['close']:.6f},{r['volume']}\n"
            )


def write_sector_csv(tickers: list[str], path: str) -> None:
    """Round-robin over the canonical sector names."""
    with open(path, "w", newline="") as fh:
        fh.write("ticker,sector\n")
        for i, ticker in enumerate(sorted(set(tickers))):
            fh.write(f"{ticker},{SECTOR_NAMES[i % len(SECTOR_NAMES)]}\n")


def write_events_csv(events: list[PlantedEvent], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(EVENTS_HEADER) + "\n")
        for e in events:
            fh.write(f"{e.ticker},{e.anchor_day},{e.date.isoformat()},{int(e.realized)}\n")


def read_events_csv(path: str) -> list[PlantedEvent]:
    """The events of an events.csv as write_events_csv writes it; blank
    rows are skipped, and any other fault is a DataError naming path:line."""
    events = []
    for lineno, row in csv_table(path, EVENTS_HEADER):
        try:
            ticker, day, date, realized = (c.strip() for c in row)
            events.append(PlantedEvent(ticker, int(day), dt.date.fromisoformat(date),
                                       {"0": False, "1": True}[realized]))
        except (ValueError, KeyError) as exc:
            raise DataError(f"{path}:{lineno}: bad events row {row}") from exc
    return events
