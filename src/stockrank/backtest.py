"""Daily-rebalancing portfolio simulation on (days x stocks) arrays.

All strategies trade at the open with perfect fills and no costs, stay
fully invested, and accrue each day's open-to-open return on the weights
held after that day's rebalance.

simulate runs one long-only book: topk, bottomk, the two deciles, or the
equal-weight market, which holds each day's alive names. It reads three
aligned (days, stocks) arrays: the ranking scores, the return each stock
earns from that day's buy open (the anchor day's column of
dataset.return_matrix) and whether it is alive at the buy open. Column j
is the stock ``tickers[j]``; a Universe sorts its tickers, so column order
is ticker order. Each day ranks by descending score with a stable sort, so
tied scores rank in ticker order. Every book's ledger comes from one loop,
``_run``.

long_short composes a long-short strategy from the ledgers of its two legs
(LONG_SHORT): it earns the arithmetic difference of their daily returns on
unit capital, and its holdings column lists only the long leg's names.

Summation order is part of the output: every sum below is Python's
``sum`` over floats, in a fixed order, and reordering one changes the
last bits of a ledger.

- A drift rebalance sums the kept weights (the weight not freed) and
  then all the weights (to rescale them) in the order the names entered
  the portfolio; names that enter on the same day enter in ticker order.
- A day's return sums weight x return over the held names in ticker
  order, for every book, the market included.

Only the market skips names that are dead at the buy open. topk, bottomk
and the deciles rank every stock, so they may hold a name that is already
dead at the buy open; that name earns 0, because return_matrix zeroes a
stock's returns once it is dead.

A strategy's BacktestLedger holds, per day, the date, the weights held
after the rebalance, the day's return and the compounded value: the
columns of ledgers/<name>.csv, from which the report is rebuilt.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

STRATEGIES = (
    "topk",
    "bottomk",
    "top_decile",
    "bottom_decile",
    "long_short_k",
    "long_short_decile",
    "market_equal_weight",
)

# The legs, long then short, of each long-short strategy; simulate runs the
# other strategies, the long-only BOOKS.
LONG_SHORT = {"long_short_k": ("topk", "bottomk"),
              "long_short_decile": ("top_decile", "bottom_decile")}
BOOKS = tuple(s for s in STRATEGIES if s not in LONG_SHORT)

REBALANCE_MODES = ("drift", "equal")


@dataclass(frozen=True)
class DailyRanking:
    """One day's (ticker, score) pairs in rank order, as scores.csv lists them."""

    date: object
    entries: tuple[tuple[str, float], ...]


@dataclass
class BacktestLedger:
    """Per-day holdings and compounded portfolio value."""

    dates: list = field(default_factory=list)
    daily_returns: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    holdings: list[dict[str, float]] = field(default_factory=list)

    def append(self, date, holdings: dict[str, float], day_return: float) -> None:
        day_return = float(day_return)
        prev = self.values[-1] if self.values else 1.0
        self.dates.append(date)
        self.holdings.append({t: float(w) for t, w in holdings.items()})
        self.daily_returns.append(day_return)
        self.values.append(prev * (1.0 + day_return))

    @property
    def final_value(self) -> float:
        return self.values[-1] if self.values else 1.0

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("date,value,daily_return,holdings\n")
            for date, value, ret, hold in zip(self.dates, self.values,
                                              self.daily_returns, self.holdings):
                packed = ";".join(f"{t}:{w!r}" for t, w in sorted(hold.items()))
                fh.write(f"{date},{value!r},{ret!r},{packed}\n")

    def nav_to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("date,value\n")
            for date, value in zip(self.dates, self.values):
                fh.write(f"{date},{value!r}\n")

    @staticmethod
    def from_csv(path: str) -> "BacktestLedger":
        """The ledger to_csv wrote to path. Each line's value must be, bit for
        bit, the value its returns compound to so far, as to_csv writes it;
        any other is a DataError naming the path and line."""
        ledger = BacktestLedger()
        with open(path, newline="") as fh:
            header = fh.readline().strip()
            if header != "date,value,daily_return,holdings":
                raise DataError(f"{path}: not a ledger file")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    date, value, ret, packed = line.split(",", 3)
                    if dt.date.fromisoformat(date).isoformat() != date:
                        raise ValueError(f"date {date!r} is not YYYY-MM-DD")
                    recorded, day_return = float(value), float(ret)
                    holdings = {}
                    if packed:
                        for piece in packed.split(";"):
                            ticker, weight = piece.rsplit(":", 1)
                            holdings[ticker] = float(weight)
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: malformed ledger line {line!r}") from exc
                if not all(map(math.isfinite, (day_return, *holdings.values()))):
                    raise DataError(f"{path}:{lineno}: non-finite return or weight")
                ledger.append(date, holdings, day_return)
                if recorded.hex() != ledger.values[-1].hex():
                    raise DataError(f"{path}:{lineno}: value {value} is not the "
                                    f"{ledger.values[-1]!r} its returns compound to")
        return ledger


def rank_for_day(date, scores: dict[str, float]) -> DailyRanking:
    """One day's (ticker, score) pairs in rank order: descending score,
    ties in ticker order, as simulate ranks a row of its score array."""
    entries = tuple(sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])))
    return DailyRanking(date=date, entries=entries)


def _rebalance(held: list[int], weights: list[float], target: list[int],
               mode: str) -> tuple[list[int], list[float]]:
    """Move a long-only portfolio, (stocks, weights), onto the target stocks.

    Equal mode holds 1/len(target) of each target. Drift mode keeps the
    held targets at their drifted weights, in the order they entered,
    splits the weight the sales free equally among the newcomers, which
    enter in ticker order, and rescales the weights to sum to 1.
    """
    if mode == "equal":
        return target, [1.0 / len(target)] * len(target)
    wanted = set(target)
    kept = [(s, w) for s, w in zip(held, weights) if s in wanted]
    buys = sorted(wanted.difference(held))
    new = [w for _, w in kept]
    freed = 1.0 - sum(new)
    if buys:
        new += [freed / len(buys)] * len(buys)
    total = sum(new)
    return [s for s, _ in kept] + buys, [w / total for w in new]


def _run(picks: list, returns: np.ndarray, dates, tickers, mode: str) -> BacktestLedger:
    """A long-only ledger that rebalances onto the columns listed in picks[d]
    on day d and earns returns[d] until the next day's rebalance."""
    ledger = BacktestLedger()
    held, weights = [], []
    for date, target, rets in zip(dates, picks, returns.tolist()):
        held, weights = _rebalance(held, weights, target, mode)
        day_return = sum(w * rets[s] for s, w in sorted(zip(held, weights)))
        ledger.append(date, {tickers[s]: w for s, w in zip(held, weights)}, day_return)
        if mode == "drift":  # equal mode's next rebalance discards the drifted weights
            growth = 1.0 + day_return
            weights = [w * (1.0 + rets[s]) / growth for s, w in zip(held, weights)]
    return ledger


def simulate(book: str, scores: np.ndarray, returns: np.ndarray, alive: np.ndarray,
             dates, tickers, k: int, rebalance_mode: str) -> BacktestLedger:
    """Run one of the BOOKS over (days, stocks) scores, returns and alive
    mask, whose rows are the days ``dates`` and whose columns are the stocks
    ``tickers`` (see the module docstring). ``k`` and ``rebalance_mode`` are
    the run config's; books that do not use them ignore them.
    """
    if book not in BOOKS:
        raise DataError(f"unknown book {book!r}; expected one of {BOOKS}")
    if rebalance_mode not in REBALANCE_MODES:
        raise DataError(f"unknown rebalance mode {rebalance_mode!r}")
    shape = (len(dates), len(tickers))
    if not scores.shape == returns.shape == alive.shape == shape:
        raise DataError(f"scores {scores.shape}, returns {returns.shape} and alive "
                        f"{alive.shape} do not all cover {shape[0]} days x {shape[1]} stocks")
    n_stocks = shape[1]
    if book in ("topk", "bottomk") and k > n_stocks:
        raise DataError(f"k={k} exceeds universe size {n_stocks}")

    if book == "market_equal_weight":
        empty = np.flatnonzero(~alive.any(axis=1))
        if empty.size:
            raise DataError(f"{dates[empty[0]]}: no alive stocks for the market portfolio")
        return _run([np.flatnonzero(live).tolist() for live in alive], returns, dates,
                    tickers, "equal")
    if book in ("topk", "bottomk"):
        size, mode = k, rebalance_mode
    else:
        size, mode = max(1, n_stocks // 10), "equal"
    ranked = np.argsort(-scores, axis=1, kind="stable")
    picks = ranked[:, :size] if book.startswith("top") else ranked[:, n_stocks - size:]
    return _run(picks.tolist(), returns, dates, tickers, mode)


def long_short(long_leg: BacktestLedger, short_leg: BacktestLedger) -> BacktestLedger:
    """The long-short ledger of two long-only legs over the same days: each
    day earns the long leg's return minus the short leg's and lists the
    long leg's holdings."""
    ledger = BacktestLedger()
    days = zip(long_leg.dates, long_leg.holdings, long_leg.daily_returns, short_leg.daily_returns)
    for date, holdings, long_ret, short_ret in days:
        ledger.append(date, holdings, long_ret - short_ret)
    return ledger


def combine_strategies(ledgers: list[BacktestLedger]) -> BacktestLedger:
    """Equal-weight integration: daily return is the mean across ledgers."""
    if not ledgers:
        raise DataError("no ledgers to combine")
    first = ledgers[0]
    for other in ledgers[1:]:
        if other.dates != first.dates:
            raise DataError("ledgers cover different dates; cannot combine")
    out = BacktestLedger()
    for i, date in enumerate(first.dates):
        day_return = sum(led.daily_returns[i] for led in ledgers) / len(ledgers)
        merged: dict[str, float] = {}
        for led in ledgers:
            for t, w in led.holdings[i].items():
                merged[t] = merged.get(t, 0.0) + w / len(ledgers)
        out.append(date, merged, day_return)
    return out
