"""Scalar reference implementations that the batched code is tested against.

These are the documented one-sample formulas, written for clarity: the
program computes the same quantities on arrays (``losses.batch_loss``,
``dataset.return_matrix``, ``market_data.load_ohlcv``,
``backtest.simulate``), and the tests compare the two.

The generic autograd ops below (``sub`` ... ``mean``) and ``chain_batch_loss``
are the bit-exact oracle of the loss nodes: each objective built as a chain
of one op per step, the way ``losses.batch_loss`` built it before the
closed-form nodes. The gradient tests also compose their probes from them.
They keep the program's memory rule: a backward closure holds its inputs'
nodes and only the arrays its formula reads.

``leaky_slope`` and ``dropout_scale`` are the float multipliers the two
mask ops saved before they kept a 1-byte mask: the forward is ``x * m``
and the backward ``g * m``, bit for bit.

``unfolded_sector_conv`` is the numeric oracle of the model's first layer:
the sector embedding added to the windows before the conv, which the model
computes with the add moved after it.

The per-channel functions (``batch_norm_train`` to ``dense_bias_grad``)
are the float64 oracle of the autograd channel rule: each computes an op's
outputs and gradients with numpy's axis reductions (``mean(axis=0)``,
``sum(axis=0)``, ``mean(axis=1)``, ``np.add.at`` on ``sum(axis=1)``)
and last-axis broadcasts, the way the ops computed them before the rule.
Among them, ``valid_conv`` computes the conv and its kernel gradient tap by
tap, against which the one-GEMM-per-tap backward is checked.
``window_gather`` is the fancy-index gather ``dataset.Windows`` replaced.

``stacked_panel`` is the bit-exact oracle of ``indicators.assemble_panel``:
the same kernels, with the feature stacks, the concatenation and the
``np.where`` warmup scrub that the one-buffer panel replaced.
"""

import csv
import datetime as dt
import math
import re

import numpy as np

from stockrank.backtest import REBALANCE_MODES, STRATEGIES, BacktestLedger, combine_strategies
from stockrank.dataset import LOOKAHEAD
from stockrank.errors import DataError, NumericError
from stockrank.losses import LOG_CLIP
from stockrank.indicators import (
    _BASIC_VALID_START,
    _REGISTRY,
    BASIC_FEATURE_NAMES,
    _momentum,
    _roll_mean,
    _roll_std,
)
from stockrank.market_data import HIGH, LOW, NO_SECTOR_ID, OPEN, VOLUME, load_sector_map
from stockrank.nn.autograd import (
    Tensor,
    _accum,
    _as_tensor,
    _make,
    _operands,
    _unbroadcast,
    conv1d_valid,
    embedding_add,
)

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


# ---------------------------------------------------------------------------
# generic autograd ops and the loss chain built from them
# ---------------------------------------------------------------------------


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    na, nb, a_shape, b_shape = a.node, b.node, a.data.shape, b.data.shape

    def backward(g):
        _accum(na, _unbroadcast(g, a_shape))
        _accum(nb, _unbroadcast(-g, b_shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    na, nb, a_data, b_data = a.node, b.node, a.data, b.data

    def backward(g):
        _accum(na, _unbroadcast(g * b_data, a_data.shape))
        _accum(nb, _unbroadcast(g * a_data, b_data.shape))

    return _make(a.data * b.data, (a, b), backward)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    na = a.node

    def backward(g):
        _accum(na, -g)

    return _make(-a.data, (a,), backward)


def pow_const(a, p: float) -> Tensor:
    a = _as_tensor(a)
    na, a_data = a.node, a.data

    def backward(g):
        _accum(na, g * p * a_data ** (p - 1.0))

    return _make(a.data**p, (a,), backward)


def log_clip(a, lo: float = LOG_CLIP) -> Tensor:
    """Natural log of a clipped below at ``lo``; zero gradient below the clip."""
    a = _as_tensor(a)
    clipped = np.maximum(a.data, lo)
    na, a_data = a.node, a.data

    def backward(g):
        _accum(na, g * (a_data >= lo) / clipped)

    return _make(np.log(clipped), (a,), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    na, a_shape = a.node, a.data.shape

    def backward(g):
        gg = g
        if not keepdims and axis is not None:
            gg = np.expand_dims(g, axis)
        _accum(na, np.broadcast_to(gg, a_shape).copy())

    return _make(out, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size / out.size
    na, a_shape = a.node, a.data.shape

    def backward(g):
        gg = g
        if not keepdims and axis is not None:
            gg = np.expand_dims(g, axis)
        _accum(na, np.broadcast_to(gg, a_shape) / n)

    return _make(out, (a,), backward)


def ce_per_sample(q, p: np.ndarray) -> Tensor:
    """(batch,) vector of cross-entropies; p is the constant one-hot matrix."""
    return neg(tsum(mul(p, log_clip(q, LOG_CLIP)), axis=1))


def chain_batch_loss(kind: str, outputs, labels, targets, weights) -> Tensor:
    """``losses.batch_loss`` as a chain of generic ops, one node per step."""
    if kind == "return_weighted_ce":
        return mean(mul(ce_per_sample(outputs, labels), weights))
    if kind == "ce":
        return mean(ce_per_sample(outputs, labels))
    return mean(pow_const(sub(outputs, targets.reshape(-1, 1)), 2.0))


def leaky_slope(x: np.ndarray, alpha: float) -> np.ndarray:
    """The float multiplier leaky ReLU saved before it kept a mask: 1 where
    x >= 0 and alpha elsewhere, in x's dtype."""
    slope = np.multiply(x >= 0, 1.0 - alpha, dtype=x.dtype)
    slope += alpha
    return slope


def dropout_scale(keep: np.ndarray, rate: float, dtype) -> np.ndarray:
    """The float multiplier dropout saved before it kept a mask: 1 / (1 - rate)
    where kept and 0 elsewhere."""
    return np.multiply(keep, 1.0 / (1.0 - rate), dtype=dtype)


def unfolded_sector_conv(windows, embedding, sector_ids, w) -> Tensor:
    """``models._sector_conv`` as the paper states it: the sector row added
    to every time step of the window, then the first conv."""
    return conv1d_valid(embedding_add(Tensor(windows), embedding, sector_ids), w)


# ---------------------------------------------------------------------------
# per-channel ops with axis reductions and last-axis broadcasts, in float64
# ---------------------------------------------------------------------------


def _f64(*arrays):
    return tuple(np.asarray(a, dtype=np.float64) for a in arrays)


def batch_norm_train(x, gamma, beta, running_mean, running_var, momentum, eps, g):
    """Train-mode batch norm over every axis but the last, and its backward
    for the upstream gradient g: (out, running_mean, running_var, dx,
    dgamma, dbeta)."""
    x, gamma, beta, g = _f64(x, gamma, beta, g)
    c = x.shape[-1]
    n = x.size // c
    mu = x.reshape(n, c).mean(axis=0)
    xc = x - mu
    var = (xc * xc).reshape(n, c).mean(axis=0)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    dbeta = g.reshape(n, c).sum(axis=0)
    dgamma = (g * xhat).reshape(n, c).sum(axis=0)
    dx = gamma * inv * (g - (dbeta + xhat * dgamma) / n)
    return (xhat * gamma + beta,
            momentum * running_mean + (1.0 - momentum) * mu,
            momentum * running_var + (1.0 - momentum) * var,
            dx, dgamma, dbeta)


def batch_norm_infer(x, gamma, beta, running_mean, running_var, eps):
    """Infer-mode batch norm from the running statistics."""
    x, gamma, beta = _f64(x, gamma, beta)
    scale = gamma / np.sqrt(running_var + eps)
    return x * scale + (beta - running_mean * scale)


def valid_conv(x, w, g):
    """Valid conv output, one matmul per tap, and the kernel gradient for
    the upstream gradient g: ``gw[tau] = sum over samples and steps of
    x[:, tau + t].T @ g[:, t]``."""
    x, w, g = _f64(x, w, g)
    k = w.shape[0]
    t_out = x.shape[1] - k + 1
    out = sum(x[:, tau : tau + t_out, :] @ w[tau] for tau in range(k))
    gw = np.stack([np.einsum("bti,bto->io", x[:, tau : tau + t_out, :], g)
                   for tau in range(k)])
    return out, gw


def time_mean_pool(x, g):
    """``x.mean(axis=1)`` and the backward g / time broadcast over time."""
    x, g = _f64(x, g)
    return x.mean(axis=1), np.broadcast_to(g[:, None, :], x.shape) / x.shape[1]


def sector_rows_add(x, table, ids, g):
    """The table row of each sample added at every time step, and the table
    gradient scattered with ``np.add.at`` from ``g.sum(axis=1)``."""
    x, table, g = _f64(x, table, g)
    gt = np.zeros_like(table)
    np.add.at(gt, ids, g.sum(axis=1))
    return x + table[ids][:, None, :], gt


def dense_bias_grad(g):
    """The bias gradient of a dense layer: ``g.sum(axis=0)``."""
    return _f64(g)[0].sum(axis=0)


def window_gather(span, stock, first_row, m, idx):
    """Windows of a (rows, days, n) span by one (..., m) fancy index into
    its flat rows: sample i's m rows from flat row stock[i] * days +
    first_row[i]."""
    n_rows, n_days, n = span.shape
    start = np.asarray(stock, dtype=np.intp) * n_days + np.asarray(first_row, dtype=np.intp)
    return span.reshape(n_rows * n_days, n)[start[idx][..., None] + np.arange(m)]


# ---------------------------------------------------------------------------
# the feature panel built from stacks
# ---------------------------------------------------------------------------


def _basic_matrix(o, h, lo, v):
    n_days = o.shape[1]
    ret1 = np.full_like(o, np.nan)
    ret1[:, 1:] = o[:, 1:] / o[:, :-1] - 1.0
    cols = {
        "mom_2": _momentum(o, 2),
        "mom_3": _momentum(o, 3),
        "mom_5": _momentum(o, 5),
        "mom_10": _momentum(o, 10),
        "sma_ratio_5": _roll_mean(o, 5) / o,
        "sma_ratio_20": _roll_mean(o, 20) / o,
        "sma_ratio_50": _roll_mean(o, 50) / o,
        "ret_std_5": _roll_std(ret1[:, 1:], 5, ddof=1) if n_days > 1 else np.full_like(o, np.nan),
        "ret_std_20": _roll_std(ret1[:, 1:], 20, ddof=1) if n_days > 1 else np.full_like(o, np.nan),
        "range_rel": (h - lo) / o,
        "volume": v.copy(),
        "dollar_volume": o * v,
    }
    # re-align the return-based stds (they were computed on a 1-shorter axis)
    for key in ("ret_std_5", "ret_std_20"):
        col = cols[key]
        if col.shape[1] == n_days - 1:
            full = np.full_like(o, np.nan)
            full[:, 1:] = col
            cols[key] = full
    return np.stack([cols[name] for name in BASIC_FEATURE_NAMES], axis=-1)


def stacked_panel(u, basic, specs):
    """``indicators.assemble_panel``'s (values, valid_start) the way it was
    built before it wrote into one array: the basic features stacked, the
    technical ones stacked, both concatenated, and the warmup scrubbed by
    an ``np.where`` copy."""
    o, h, lo, v = (u.matrix(column) for column in (OPEN, HIGH, LOW, VOLUME))
    blocks, valids = [], []
    if basic:
        blocks.append(_basic_matrix(o, h, lo, v))
        valids += [_BASIC_VALID_START[n] for n in BASIC_FEATURE_NAMES]
    if specs:
        blocks.append(np.stack([_REGISTRY[sp.name][2](o, h, lo, v, sp.params) for sp in specs],
                               axis=-1))
        valids += [sp.warmup - 1 for sp in specs]
    values = np.concatenate(blocks, axis=-1)
    valid_start = np.array(valids, dtype=int)
    day_idx = np.arange(u.n_days)[None, :, None]
    return np.where(day_idx >= valid_start[None, None, :], values, np.nan), valid_start


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


def gather_windows(scaled: np.ndarray, plan, ss, m: int) -> np.ndarray:
    """A SampleSet's (samples, m, n) windows in one fancy-index gather from
    a standardized span: sample i is the m days of its stock's row that
    end at its anchor day."""
    rows = ss.anchor_days[:, None] - plan.std_range[0] + np.arange(1 - m, 1)
    return scaled[ss.stock[:, None], rows]


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
            if ";" in ticker:
                raise DataError(f"{where}: ticker {ticker!r} holds ';'")
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
    calendar = tuple(sorted({d for by_date in kept.values() for d in by_date}))
    if not calendar:
        raise DataError("no stocks span the requested date range")
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


class DailyRanking:
    """Descending-score ordering of the universe for one day, ties broken
    by ticker."""

    def __init__(self, date, scores: dict[str, float]):
        self.date = date
        self.entries = tuple(sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])))

    def top(self, k: int) -> list[str]:
        return [t for t, _ in self.entries[:k]]

    def bottom(self, k: int) -> list[str]:
        return [t for t, _ in self.entries[len(self.entries) - k :]]

    @property
    def tickers(self) -> list[str]:
        return [t for t, _ in self.entries]


def rebalance_topk(current: dict[str, float], target: list[str],
                   mode: str = "drift") -> dict[str, float]:
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


def _run_long_only(select_fn, rankings: list[DailyRanking],
                   returns_by_day: list[dict[str, float]], mode: str) -> BacktestLedger:
    ledger = BacktestLedger()
    holdings: dict[str, float] = {}
    for ranking, rets in zip(rankings, returns_by_day):
        holdings = rebalance_topk(holdings, select_fn(ranking), mode=mode)
        day_return = sum(w * rets[t] for t, w in sorted(holdings.items()))
        ledger.append(ranking.date, dict(holdings), day_return)
        holdings = _drift(holdings, rets, day_return)
    return ledger


def simulate(strategy: str, rankings: list[DailyRanking],
             returns_by_day: list[dict[str, float]], k: int = 10,
             alive_by_day: list[list[str]] | None = None,
             rebalance_mode: str = "drift") -> BacktestLedger:
    """One strategy over daily rankings and {ticker: return} dicts, one per
    day; alive_by_day (default: every ranked ticker) limits the market."""
    if strategy not in STRATEGIES:
        raise DataError(f"unknown strategy {strategy!r}")
    if strategy in ("topk", "bottomk", "long_short_k"):
        n_universe = min(len(r.entries) for r in rankings)
        if k > n_universe:
            raise DataError(f"k={k} exceeds universe size {n_universe}")

    def decile(r):
        return max(1, len(r.entries) // 10)

    if strategy == "topk":
        return _run_long_only(lambda r: r.top(k), rankings, returns_by_day, rebalance_mode)
    if strategy == "bottomk":
        return _run_long_only(lambda r: r.bottom(k), rankings, returns_by_day, rebalance_mode)
    if strategy == "top_decile":
        return _run_long_only(lambda r: r.top(decile(r)), rankings, returns_by_day, "equal")
    if strategy == "bottom_decile":
        return _run_long_only(lambda r: r.bottom(decile(r)), rankings, returns_by_day, "equal")
    if strategy == "market_equal_weight":
        if alive_by_day is None:
            alive_by_day = [r.tickers for r in rankings]
        ledger = BacktestLedger()
        for ranking, rets, alive in zip(rankings, returns_by_day, alive_by_day):
            names = sorted(alive)
            if not names:
                raise DataError(f"{ranking.date}: no alive stocks for the market portfolio")
            w = 1.0 / len(names)
            ledger.append(ranking.date, {t: w for t in names}, sum(w * rets[t] for t in names))
        return ledger
    if strategy == "long_short_k":
        long_leg = simulate("topk", rankings, returns_by_day, k=k, rebalance_mode=rebalance_mode)
        short_leg = simulate("bottomk", rankings, returns_by_day, k=k,
                             rebalance_mode=rebalance_mode)
    else:
        long_leg = simulate("top_decile", rankings, returns_by_day)
        short_leg = simulate("bottom_decile", rankings, returns_by_day)
    ledger = BacktestLedger()
    for i, ranking in enumerate(rankings):
        ledger.append(ranking.date, dict(long_leg.holdings[i]),
                      long_leg.daily_returns[i] - short_leg.daily_returns[i])
    return ledger


def run_strategies(strategies, universe, scores: np.ndarray, days, k: int,
                   rebalance_mode: str) -> dict[str, BacktestLedger]:
    """pipeline.run_strategies on one dict per day: rankings per ensemble
    from (ensembles, days, stocks) scores, returns and alive names per
    anchor day, the ledgers of several ensembles combined."""
    tickers = universe.tickers
    dates = [universe.calendar[d] for d in days]
    returns_by_day, alive_by_day = [], []
    for d in days:
        returns_by_day.append({t: float(daily_return(universe, s, d))
                               for s, t in enumerate(tickers)})
        alive_by_day.append([t for s, t in enumerate(tickers) if universe.death_day[s] > d + 1])
    rankings = [[DailyRanking(date, dict(zip(tickers, row))) for date, row in
                 zip(dates, ens.tolist())] for ens in scores]
    ledgers = {}
    for strategy in strategies:
        per_ensemble = [simulate(strategy, ranks, returns_by_day, k=k, alive_by_day=alive_by_day,
                                 rebalance_mode=rebalance_mode) for ranks in rankings]
        ledgers[strategy] = (per_ensemble[0] if len(per_ensemble) == 1
                             else combine_strategies(per_ensemble))
    if "market_equal_weight" not in ledgers:
        ledgers["market_equal_weight"] = simulate("market_equal_weight", rankings[0],
                                                  returns_by_day, alive_by_day=alive_by_day)
    return ledgers
