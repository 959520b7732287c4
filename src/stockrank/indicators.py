"""Open-price feature engineering: basic statistics and technical indicators.

Every feature is a causal function of the series prefix ending at the
evaluation day: appending future days never changes past values. Because
all simulated trades happen at the market open, indicators that normally
consume closing prices are computed on *opening* prices; high, low, and
volume enter wherever an indicator's standard formula calls for them.

The table rule: a feature is a row of ``FEATURES``, its name, its first
valid day and its kernel ``(o, h, lo, v) -> (stocks, days)`` column, and
that row is the only place its warmup or its formula is stated. A panel
holds the features it is given by name, in the order of the names.

Warmup days (not enough history for the first valid value) are masked
invalid rather than zero-filled so that standardization statistics never
ingest warmup garbage.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .market_data import HIGH, LOW, OPEN, VOLUME, Universe


@dataclass(frozen=True)
class FeaturePanel:
    """tickers x calendar x features array of raw feature values.

    ``valid_start[f]`` is the first day index at which feature f is valid;
    earlier entries hold NaN. Validity depends only on (day, feature), and
    once a feature becomes valid it stays valid.
    """

    tickers: tuple[str, ...]
    dates: tuple
    feature_names: tuple[str, ...]
    values: np.ndarray  # (n_stocks, n_days, n_features) float64
    valid_start: np.ndarray  # (n_features,) int

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def first_all_valid_day(self) -> int:
        return int(self.valid_start.max())

    def to_csv(self, path: str) -> None:
        header = ["ticker", "date"] + list(self.feature_names)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for si, ticker in enumerate(self.tickers):
                for di, date in enumerate(self.dates):
                    row = [ticker, date.isoformat()]
                    row += [repr(float(v)) for v in self.values[si, di]]
                    writer.writerow(row)


# ---------------------------------------------------------------------------
# rolling primitives (axis 1 = time; all causal)
# ---------------------------------------------------------------------------

#: Elements per block of stocks in the blocked data stages (rolling std
#: here, standardization in ``dataset``): 2 MiB of float64, about three
#: (stocks, days) columns at 150 stocks x 560 days and under half of one
#: at 500 x 1,200.
BLOCK_ELEMS = 2**18


def stock_blocks(n_stocks: int, per_stock: int) -> list[slice]:
    """Slices of consecutive stocks that cover range(n_stocks), each of at
    most ``BLOCK_ELEMS`` elements at per_stock elements a stock (and at
    least one stock)."""
    step = max(1, BLOCK_ELEMS // per_stock)
    return [slice(a, a + step) for a in range(0, n_stocks, step)]


def _roll_apply(x: np.ndarray, window: int, fn) -> np.ndarray:
    """Apply fn over trailing windows; positions before window-1 are NaN."""
    out = np.full_like(x, np.nan)
    if x.shape[1] >= window:
        out[:, window - 1 :] = fn(sliding_window_view(x, window, axis=1))
    return out


def _roll_max(x, window):
    return _roll_apply(x, window, lambda w: w.max(axis=-1))


def _roll_min(x, window):
    return _roll_apply(x, window, lambda w: w.min(axis=-1))


def _roll_mean(x, window):
    return _roll_apply(x, window, lambda w: w.mean(axis=-1))


def _roll_sum(x, window):
    return _roll_apply(x, window, lambda w: w.sum(axis=-1))


def _roll_std(x, window, ddof):
    """Trailing-window standard deviation, over blocks of stocks: ``std``
    of a window view makes a deviations array of the view's size, so each
    block's is at most ``BLOCK_ELEMS`` elements, not (stocks, days, window).
    Each window's reduction is the same, so the result is bit for bit the
    whole view's."""
    out = np.full_like(x, np.nan)
    if x.shape[1] >= window:
        view = sliding_window_view(x, window, axis=1)
        for rows in stock_blocks(x.shape[0], view.shape[1] * window):
            out[rows, window - 1 :] = view[rows].std(axis=-1, ddof=ddof)
    return out


def _ema(x: np.ndarray, span: int) -> np.ndarray:
    """Exponential moving average seeded at column 0 with x itself."""
    alpha = 2.0 / (span + 1.0)
    out = np.full_like(x, np.nan)
    out[:, 0] = x[:, 0]
    for t in range(1, x.shape[1]):
        out[:, t] = alpha * x[:, t] + (1.0 - alpha) * out[:, t - 1]
    return out


def _wilder_rma(x: np.ndarray, window: int, start: int = 0) -> np.ndarray:
    """Wilder smoothing: seeded with the mean of the first ``window`` values."""
    out = np.full_like(x, np.nan)
    first = start + window - 1
    if first >= x.shape[1]:
        return out
    out[:, first] = x[:, start : first + 1].mean(axis=1)
    for t in range(first + 1, x.shape[1]):
        out[:, t] = (out[:, t - 1] * (window - 1) + x[:, t]) / window
    return out


def _safe_div(num: np.ndarray, den: np.ndarray, fallback: float) -> np.ndarray:
    out = np.full(np.broadcast(num, den).shape, float(fallback))
    good = den != 0
    np.divide(num, den, out=out, where=good)
    return out


def _shifted(x: np.ndarray) -> np.ndarray:
    """A column computed on day-over-day differences (one day shorter),
    placed back on the calendar: day 0 is NaN."""
    out = np.full((x.shape[0], x.shape[1] + 1), np.nan)
    out[:, 1:] = x
    return out


# ---------------------------------------------------------------------------
# kernels and their parts (parameters are given in the table)
# ---------------------------------------------------------------------------


def _momentum(o: np.ndarray, k: int) -> np.ndarray:
    out = np.full_like(o, np.nan)
    out[:, k:] = o[:, k:] / o[:, :-k] - 1.0
    return out


def _ret_std(o: np.ndarray, window: int) -> np.ndarray:
    """Sample std of the daily open-to-open returns (which start on day 1)."""
    return _shifted(_roll_std(o[:, 1:] / o[:, :-1] - 1.0, window, ddof=1))


def _rsi(o: np.ndarray, window: int) -> np.ndarray:
    delta = np.diff(o, axis=1)
    avg_gain = _wilder_rma(np.maximum(delta, 0.0), window)
    avg_loss = _wilder_rma(np.maximum(-delta, 0.0), window)
    return _shifted(np.where(
        (avg_gain == 0) & (avg_loss == 0),
        50.0,
        100.0 - _safe_div(100.0, 1.0 + _safe_div(avg_gain, avg_loss, np.inf), 0.0),
    ))


def _stoch_rsi(o, window, stoch_window):
    rsi = _rsi(o, window)
    lo_r, hi_r = _roll_min(rsi, stoch_window), _roll_max(rsi, stoch_window)
    return np.where(np.isnan(rsi), np.nan, _safe_div(rsi - lo_r, hi_r - lo_r, 0.5))


def _stoch_osc(o, h, lo, window):
    ll, hh = _roll_min(lo, window), _roll_max(h, window)
    return _safe_div(100.0 * (o - ll), hh - ll, 50.0)


def _williams_r(o, h, lo, window):
    ll, hh = _roll_min(lo, window), _roll_max(h, window)
    return _safe_div(-100.0 * (hh - o), hh - ll, -50.0)


def _awesome_osc(h, lo, fast, slow):
    mp = (h + lo) / 2.0
    return _roll_mean(mp, fast) - _roll_mean(mp, slow)


def _pvo(v, fast, slow):
    slow_ema = _ema(v, slow)
    return _safe_div(100.0 * (_ema(v, fast) - slow_ema), slow_ema, 0.0)


def _kama(o, window, fast, slow):
    sc_fast, sc_slow = 2.0 / (fast + 1.0), 2.0 / (slow + 1.0)
    out = np.full_like(o, np.nan)
    if o.shape[1] <= window:
        return out
    out[:, window] = o[:, window]
    vol = _roll_sum(np.abs(np.diff(o, axis=1)), window)  # indexed on the diff axis (day t-1)
    for t in range(window + 1, o.shape[1]):
        change = np.abs(o[:, t] - o[:, t - window])
        er = _safe_div(change, vol[:, t - 1], 0.0)
        sc = (er * (sc_fast - sc_slow) + sc_slow) ** 2
        out[:, t] = out[:, t - 1] + sc * (o[:, t] - out[:, t - 1])
    return out


def _clv(o, h, lo):
    # close-location value with open substituted for close
    return _safe_div((o - lo) - (h - o), h - lo, 0.0)


def _eom(h, lo, v, window):
    dist = np.diff((h + lo) / 2.0, axis=1)
    box = _safe_div(v[:, 1:] / 1e8, (h - lo)[:, 1:], 0.0)
    return _shifted(_roll_mean(_safe_div(dist, box, 0.0), window))


def _cmf(o, h, lo, v, window):
    return _safe_div(_roll_sum(_clv(o, h, lo) * v, window), _roll_sum(v, window), 0.0)


def _vpt(o, v):
    out = np.zeros_like(o)
    out[:, 1:] = np.cumsum(v[:, 1:] * (np.diff(o, axis=1) / o[:, :-1]), axis=1)
    return out


def _true_range(o, h, lo):
    prev = o[:, :-1]  # open substituted for close
    tr = np.maximum(h[:, 1:] - lo[:, 1:], np.abs(h[:, 1:] - prev))
    return np.maximum(tr, np.abs(lo[:, 1:] - prev))


def _ulcer(o, window):
    drawdown_pct = 100.0 * (o / _roll_max(o, window) - 1.0)
    sq = np.where(np.isnan(drawdown_pct), np.nan, drawdown_pct**2)
    return np.sqrt(_roll_mean(sq, window))


def _adx(o, h, lo, window):
    # each intermediate is dropped once consumed, so no more than a few
    # (stocks, days) columns are alive at once
    up = np.diff(h, axis=1)
    down = -np.diff(lo, axis=1)
    plus_dm = np.where((up > down) & (up > 0), up, 0.0)
    minus_dm = np.where((down > up) & (down > 0), down, 0.0)
    del up, down
    atr = _wilder_rma(_true_range(o, h, lo), window)
    plus_di = _safe_div(100.0 * _wilder_rma(plus_dm, window), atr, 0.0)
    del plus_dm
    minus_di = _safe_div(100.0 * _wilder_rma(minus_dm, window), atr, 0.0)
    del minus_dm, atr
    dx = _safe_div(100.0 * np.abs(plus_di - minus_di), plus_di + minus_di, 0.0)
    del plus_di, minus_di
    return _shifted(_wilder_rma(dx, window, start=window - 1))


def _aroon(x: np.ndarray, window: int, take_max: bool) -> np.ndarray:
    """100 * (window - since) / window, where ``since`` counts the days back
    to the extreme of the day and the ``window`` days before it, the most
    recent one on a tie. One pass over the lags, each replacing the extreme
    so far where it lies strictly beyond it, so no window view is copied."""
    out = np.full_like(x, np.nan)
    n = x.shape[1] - window  # days with a full lookback
    if n > 0:
        beyond = np.greater if take_max else np.less
        extreme = x[:, window:].copy()
        since = np.zeros(extreme.shape, dtype=np.intp)
        for lag in range(1, window + 1):
            past = x[:, window - lag : window - lag + n]
            hit = beyond(past, extreme)
            np.copyto(extreme, past, where=hit)
            since[hit] = lag
        out[:, window:] = 100.0 * (window - since) / window
    return out


def _midpoint(h, lo, window):
    return (_roll_max(h, window) + _roll_min(lo, window)) / 2.0


# ---------------------------------------------------------------------------
# the feature table: name -> (first valid day, kernel(o, h, lo, v))
# ---------------------------------------------------------------------------

FEATURES = {
    # the 12 basic features
    "mom_2": (2, lambda o, h, lo, v: _momentum(o, 2)),
    "mom_3": (3, lambda o, h, lo, v: _momentum(o, 3)),
    "mom_5": (5, lambda o, h, lo, v: _momentum(o, 5)),
    "mom_10": (10, lambda o, h, lo, v: _momentum(o, 10)),
    "sma_ratio_5": (4, lambda o, h, lo, v: _roll_mean(o, 5) / o),
    "sma_ratio_20": (19, lambda o, h, lo, v: _roll_mean(o, 20) / o),
    "sma_ratio_50": (49, lambda o, h, lo, v: _roll_mean(o, 50) / o),
    "ret_std_5": (5, lambda o, h, lo, v: _ret_std(o, 5)),
    "ret_std_20": (20, lambda o, h, lo, v: _ret_std(o, 20)),
    "range_rel": (0, lambda o, h, lo, v: (h - lo) / o),
    "volume": (0, lambda o, h, lo, v: v),
    "dollar_volume": (0, lambda o, h, lo, v: o * v),
    # the 20 technical indicators
    "stoch_rsi": (27, lambda o, h, lo, v: _stoch_rsi(o, 14, 14)),
    "stoch_osc": (13, lambda o, h, lo, v: _stoch_osc(o, h, lo, 14)),
    "awesome_osc": (33, lambda o, h, lo, v: _awesome_osc(h, lo, 5, 34)),
    "pvo": (25, lambda o, h, lo, v: _pvo(v, 12, 26)),
    "kama": (10, lambda o, h, lo, v: _kama(o, 10, 2, 30)),
    "williams_r": (13, lambda o, h, lo, v: _williams_r(o, h, lo, 14)),
    "adi": (0, lambda o, h, lo, v: np.cumsum(_clv(o, h, lo) * v, axis=1)),
    "eom": (14, lambda o, h, lo, v: _eom(h, lo, v, 14)),
    "force_index": (13, lambda o, h, lo, v: _shifted(_ema(np.diff(o, axis=1) * v[:, 1:], 13))),
    "cmf": (19, lambda o, h, lo, v: _cmf(o, h, lo, v, 20)),
    "vpt": (1, lambda o, h, lo, v: _vpt(o, v)),
    "atr": (14, lambda o, h, lo, v: _shifted(_wilder_rma(_true_range(o, h, lo), 14))),
    "bollinger_hband": (19, lambda o, h, lo, v: _roll_mean(o, 20) + 2.0 * _roll_std(o, 20, 0)),
    "donchian_width": (19, lambda o, h, lo, v: _roll_max(h, 20) - _roll_min(lo, 20)),
    "ulcer": (26, lambda o, h, lo, v: _ulcer(o, 14)),
    "adx": (27, lambda o, h, lo, v: _adx(o, h, lo, 14)),
    "aroon_up": (25, lambda o, h, lo, v: _aroon(h, 25, take_max=True)),
    "aroon_down": (25, lambda o, h, lo, v: _aroon(lo, 25, take_max=False)),
    "ichimoku_a": (25, lambda o, h, lo, v: (_midpoint(h, lo, 9) + _midpoint(h, lo, 26)) / 2.0),
    "rsi": (14, lambda o, h, lo, v: _rsi(o, 14)),
}

BASIC_FEATURE_NAMES = tuple(FEATURES)[:12]

#: The names a config may list under ``technical``.
TECHNICAL_NAMES = tuple(FEATURES)[12:]

#: The full indicator set: 19 names. Plain rsi is a configurable indicator
#: that no default set includes.
ALL_TECHNICAL_NAMES = tuple(n for n in TECHNICAL_NAMES if n != "rsi")

#: Default selection of 16 indicators used alongside the 12 basic features.
#: The three level-like indicators most redundant with the basic moving
#: averages are left out; this is a config choice, overridable per run.
DEFAULT_TECHNICAL_16 = tuple(
    n for n in ALL_TECHNICAL_NAMES if n not in ("bollinger_hband", "donchian_width", "ichimoku_a")
)


def assemble_panel(u: Universe, names) -> FeaturePanel:
    """The feature panel of a universe: the named features, in that order.

    Every check runs before any kernel does. Each feature is written into
    one preallocated (stocks, days, features) array, and its warmup is
    NaN-filled in place.
    """
    names = tuple(names)
    if not names:
        raise DataError("panel would contain no features")
    for i, name in enumerate(names):
        if name not in FEATURES:
            raise DataError(f"unknown feature: {name!r}")
        if name in names[:i]:
            raise DataError(f"duplicate feature name in panel: {name!r}")
    valid_start = np.array([FEATURES[name][0] for name in names], dtype=int)
    if int(valid_start.max()) >= u.n_days:
        raise DataError(
            f"universe has {u.n_days} days but the longest feature warmup "
            f"needs {int(valid_start.max()) + 1}"
        )

    o, h, lo, v = (u.matrix(column) for column in (OPEN, HIGH, LOW, VOLUME))
    values = np.empty((u.n_stocks, u.n_days, len(names)))
    for j, name in enumerate(names):
        values[:, :, j] = FEATURES[name][1](o, h, lo, v)
        # scrub the warmup so nothing downstream can consume it by accident
        values[:, : valid_start[j], j] = np.nan
    return FeaturePanel(
        tickers=u.tickers,
        dates=u.calendar,
        feature_names=names,
        values=values,
        valid_start=valid_start,
    )
