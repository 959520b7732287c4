"""Daily-rebalancing portfolio simulation from per-day scores and returns.

All strategies trade at the open with perfect fills and no costs, stay
fully invested, and accrue each day's open-to-open return on the weights
held after that day's rebalance. Long-short variants earn the arithmetic
difference of their two legs' daily returns on unit capital.

A strategy's BacktestLedger holds, per day, the date, the weights held
after the rebalance, the day's return and the compounded value: the
columns of ledgers/<name>.csv, from which the report is rebuilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

REBALANCE_MODES = ("drift", "equal")


@dataclass(frozen=True)
class DailyRanking:
    """Descending-score ordering of the universe for one day.

    Ties are broken by ticker so the ranking is deterministic and
    independent of input ordering.
    """

    date: object
    entries: tuple[tuple[str, float], ...]

    def top(self, k: int) -> list[str]:
        return [t for t, _ in self.entries[:k]]

    def bottom(self, k: int) -> list[str]:
        return [t for t, _ in self.entries[len(self.entries) - k :]]

    @property
    def tickers(self) -> list[str]:
        return [t for t, _ in self.entries]


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
                    date, _value, ret, packed = line.split(",", 3)
                    day_return = float(ret)
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
        return ledger


def rank_for_day(date, scores: dict[str, float]) -> DailyRanking:
    """Stable descending sort with lexicographic tie-break on ticker."""
    entries = tuple(sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])))
    return DailyRanking(date=date, entries=entries)


def rebalance_topk(
    current: dict[str, float], target: list[str], mode: str = "drift"
) -> dict[str, float]:
    """Move a long-only portfolio onto the target name list.

    Drift mode: names already held keep their drifted weights, proceeds
    from the sells are split equally among the newcomers. Equal mode:
    everything is re-equalized to 1/len(target). Weights always sum to 1.
    """
    if mode not in REBALANCE_MODES:
        raise DataError(f"unknown rebalance mode {mode!r}")
    if not target:
        raise DataError("rebalance target is empty")
    if mode == "equal":
        w = 1.0 / len(target)
        return {t: w for t in target}

    target_set = set(target)
    buys = sorted(t for t in target if t not in current)
    kept = {t: w for t, w in current.items() if t in target_set}
    freed = 1.0 - sum(kept.values())
    new = dict(kept)
    if buys:
        slice_w = freed / len(buys)
        for t in buys:
            new[t] = slice_w
    total = sum(new.values())
    return {t: w / total for t, w in new.items()}


def _drift(holdings: dict[str, float], returns: dict[str, float],
           day_return: float) -> dict[str, float]:
    growth = 1.0 + day_return
    return {t: w * (1.0 + returns[t]) / growth for t, w in holdings.items()}


def _run_long_only(
    select_fn, rankings: list[DailyRanking], returns_by_day: list[dict[str, float]], mode: str,
) -> BacktestLedger:
    ledger = BacktestLedger()
    holdings: dict[str, float] = {}
    for ranking, rets in zip(rankings, returns_by_day):
        target = select_fn(ranking)
        holdings = rebalance_topk(holdings, target, mode=mode)
        missing = [t for t in holdings if t not in rets]
        if missing:
            raise DataError(f"{ranking.date}: no returns for held tickers {missing}")
        day_return = sum(w * rets[t] for t, w in sorted(holdings.items()))
        ledger.append(ranking.date, dict(holdings), day_return)
        holdings = _drift(holdings, rets, day_return)
    return ledger


def _decile_size(n: int) -> int:
    return max(1, n // 10)


def simulate(
    strategy: str,
    rankings: list[DailyRanking],
    returns_by_day: list[dict[str, float]],
    k: int = 10,
    alive_by_day: list[list[str]] | None = None,
    rebalance_mode: str = "drift",
) -> BacktestLedger:
    """Run one strategy over aligned daily rankings and realized returns.

    ``alive_by_day`` limits the equal-weight market to stocks not yet dead;
    when omitted every ranked ticker is considered alive.
    """
    if strategy not in STRATEGIES:
        raise DataError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if len(rankings) != len(returns_by_day):
        raise DataError(
            f"{len(rankings)} ranking days vs {len(returns_by_day)} return days"
        )
    for ranking, rets in zip(rankings, returns_by_day):
        missing = [t for t in ranking.tickers if t not in rets]
        if missing:
            raise DataError(f"{ranking.date}: rankings and returns disagree on {missing}")
    if strategy in ("topk", "bottomk", "long_short_k"):
        n_universe = min(len(r.entries) for r in rankings)
        if k > n_universe:
            raise DataError(f"k={k} exceeds universe size {n_universe}")

    if strategy == "topk":
        return _run_long_only(lambda r: r.top(k), rankings, returns_by_day, rebalance_mode)
    if strategy == "bottomk":
        return _run_long_only(lambda r: r.bottom(k), rankings, returns_by_day, rebalance_mode)
    if strategy == "top_decile":
        return _run_long_only(lambda r: r.top(_decile_size(len(r.entries))),
                              rankings, returns_by_day, "equal")
    if strategy == "bottom_decile":
        return _run_long_only(lambda r: r.bottom(_decile_size(len(r.entries))),
                              rankings, returns_by_day, "equal")
    if strategy == "market_equal_weight":
        if alive_by_day is None:
            alive_by_day = [r.tickers for r in rankings]
        if len(alive_by_day) != len(rankings):
            raise DataError("alive_by_day does not align with rankings")
        ledger = BacktestLedger()
        for ranking, rets, alive in zip(rankings, returns_by_day, alive_by_day):
            names = sorted(alive)
            if not names:
                raise DataError(f"{ranking.date}: no alive stocks for the market portfolio")
            w = 1.0 / len(names)
            day_return = sum(w * rets[t] for t in names)
            ledger.append(ranking.date, {t: w for t in names}, day_return)
        return ledger

    # long-short: arithmetic difference of the two legs' returns
    if strategy == "long_short_k":
        long_leg = simulate("topk", rankings, returns_by_day, k=k,
                            rebalance_mode=rebalance_mode)
        short_leg = simulate("bottomk", rankings, returns_by_day, k=k,
                             rebalance_mode=rebalance_mode)
    else:
        long_leg = simulate("top_decile", rankings, returns_by_day)
        short_leg = simulate("bottom_decile", rankings, returns_by_day)
    ledger = BacktestLedger()
    for i, ranking in enumerate(rankings):
        day_return = long_leg.daily_returns[i] - short_leg.daily_returns[i]
        ledger.append(ranking.date, dict(long_leg.holdings[i]), day_return)
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
