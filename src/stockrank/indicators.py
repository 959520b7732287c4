"""Open-price feature engineering: basic statistics and technical indicators.

Every feature is a causal function of the series prefix ending at the
evaluation day: appending future days never changes past values. Because
all simulated trades happen at the market open, indicators that normally
consume closing prices are computed on *opening* prices; high, low, and
volume enter wherever an indicator's standard formula calls for them.

Warmup days (not enough history for the first valid value) are masked
invalid rather than zero-filled so that standardization statistics never
ingest warmup garbage.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .market_data import HIGH, LOW, OPEN, VOLUME, Universe

@dataclass(frozen=True)
class FeatureSpec:
    """A named indicator with its parameters and history requirement.

    ``warmup`` is the number of days of history required before the first
    valid value; the first valid day index is ``warmup - 1``.
    """

    name: str
    params: dict = field(default_factory=dict)
    warmup: int = 1

    def __post_init__(self):
        if self.warmup < 1:
            raise DataError(f"{self.name}: warmup must be >= 1, got {self.warmup}")
        for key, val in self.params.items():
            if val <= 0:
                raise DataError(f"{self.name}: parameter {key} must be positive, got {val}")


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
    return _roll_apply(x, window, lambda w: w.std(axis=-1, ddof=ddof))


def _ema(x: np.ndarray, span: int, start: int = 0) -> np.ndarray:
    """Exponential moving average seeded at column ``start`` with x itself."""
    alpha = 2.0 / (span + 1.0)
    out = np.full_like(x, np.nan)
    out[:, start] = x[:, start]
    for t in range(start + 1, x.shape[1]):
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


# ---------------------------------------------------------------------------
# basic features
# ---------------------------------------------------------------------------

BASIC_FEATURE_NAMES = (
    "mom_2",
    "mom_3",
    "mom_5",
    "mom_10",
    "sma_ratio_5",
    "sma_ratio_20",
    "sma_ratio_50",
    "ret_std_5",
    "ret_std_20",
    "range_rel",
    "volume",
    "dollar_volume",
)

# first valid day index per basic feature
_BASIC_VALID_START = {
    "mom_2": 2,
    "mom_3": 3,
    "mom_5": 5,
    "mom_10": 10,
    "sma_ratio_5": 4,
    "sma_ratio_20": 19,
    "sma_ratio_50": 49,
    "ret_std_5": 5,
    "ret_std_20": 20,
    "range_rel": 0,
    "volume": 0,
    "dollar_volume": 0,
}


def _momentum(o: np.ndarray, k: int) -> np.ndarray:
    out = np.full_like(o, np.nan)
    out[:, k:] = o[:, k:] / o[:, :-k] - 1.0
    return out


def _basic_matrix(o: np.ndarray, h: np.ndarray, lo: np.ndarray, v: np.ndarray) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# technical indicators
# ---------------------------------------------------------------------------


def _rsi_matrix(o: np.ndarray, window: int) -> np.ndarray:
    delta = np.diff(o, axis=1)
    gain = np.maximum(delta, 0.0)
    loss = np.maximum(-delta, 0.0)
    avg_gain = _wilder_rma(gain, window)
    avg_loss = _wilder_rma(loss, window)
    rsi_core = np.where(
        (avg_gain == 0) & (avg_loss == 0),
        50.0,
        100.0 - _safe_div(100.0, 1.0 + _safe_div(avg_gain, avg_loss, np.inf), 0.0),
    )
    out = np.full_like(o, np.nan)
    out[:, 1:] = rsi_core
    return out


def _ind_rsi(o, h, lo, v, p):
    return _rsi_matrix(o, int(p["window"]))


def _ind_stoch_rsi(o, h, lo, v, p):
    rsi = _rsi_matrix(o, int(p["window"]))
    lo_r = _roll_min(rsi, int(p["stoch_window"]))
    hi_r = _roll_max(rsi, int(p["stoch_window"]))
    return np.where(np.isnan(rsi), np.nan, _safe_div(rsi - lo_r, hi_r - lo_r, 0.5))


def _ind_stoch_osc(o, h, lo, v, p):
    w = int(p["window"])
    ll, hh = _roll_min(lo, w), _roll_max(h, w)
    return _safe_div(100.0 * (o - ll), hh - ll, 50.0)


def _ind_awesome_osc(o, h, lo, v, p):
    mp = (h + lo) / 2.0
    return _roll_mean(mp, int(p["fast"])) - _roll_mean(mp, int(p["slow"]))


def _ind_pvo(o, h, lo, v, p):
    fast = _ema(v, int(p["fast"]))
    slow = _ema(v, int(p["slow"]))
    return _safe_div(100.0 * (fast - slow), slow, 0.0)


def _ind_kama(o, h, lo, v, p):
    w, fast, slow = int(p["window"]), int(p["fast"]), int(p["slow"])
    sc_fast, sc_slow = 2.0 / (fast + 1.0), 2.0 / (slow + 1.0)
    abs_diff = np.abs(np.diff(o, axis=1))
    out = np.full_like(o, np.nan)
    if o.shape[1] <= w:
        return out
    out[:, w] = o[:, w]
    vol = _roll_sum(abs_diff, w)  # indexed on the diff axis (day t-1)
    for t in range(w + 1, o.shape[1]):
        change = np.abs(o[:, t] - o[:, t - w])
        er = _safe_div(change, vol[:, t - 1], 0.0)
        sc = (er * (sc_fast - sc_slow) + sc_slow) ** 2
        out[:, t] = out[:, t - 1] + sc * (o[:, t] - out[:, t - 1])
    return out


def _ind_williams_r(o, h, lo, v, p):
    w = int(p["window"])
    ll, hh = _roll_min(lo, w), _roll_max(h, w)
    return _safe_div(-100.0 * (hh - o), hh - ll, -50.0)


def _clv(o, h, lo):
    # close-location value with open substituted for close
    return _safe_div((o - lo) - (h - o), h - lo, 0.0)


def _ind_adi(o, h, lo, v, p):
    return np.cumsum(_clv(o, h, lo) * v, axis=1)


def _ind_eom(o, h, lo, v, p):
    mid = (h + lo) / 2.0
    dist = np.diff(mid, axis=1)
    box = _safe_div(v[:, 1:] / 1e8, (h - lo)[:, 1:], 0.0)
    emv = _safe_div(dist, box, 0.0)
    sma = _roll_mean(emv, int(p["window"]))
    out = np.full_like(o, np.nan)
    out[:, 1:] = sma
    return out


def _ind_force_index(o, h, lo, v, p):
    raw = np.diff(o, axis=1) * v[:, 1:]
    out = np.full_like(o, np.nan)
    out[:, 1:] = _ema(raw, int(p["window"]))
    return out


def _ind_cmf(o, h, lo, v, p):
    w = int(p["window"])
    mfv = _clv(o, h, lo) * v
    return _safe_div(_roll_sum(mfv, w), _roll_sum(v, w), 0.0)


def _ind_vpt(o, h, lo, v, p):
    ret = np.diff(o, axis=1) / o[:, :-1]
    out = np.zeros_like(o)
    out[:, 1:] = np.cumsum(v[:, 1:] * ret, axis=1)
    return out


def _true_range(o, h, lo):
    prev = o[:, :-1]  # open substituted for close
    tr = np.maximum(h[:, 1:] - lo[:, 1:], np.abs(h[:, 1:] - prev))
    return np.maximum(tr, np.abs(lo[:, 1:] - prev))


def _ind_atr(o, h, lo, v, p):
    out = np.full_like(o, np.nan)
    out[:, 1:] = _wilder_rma(_true_range(o, h, lo), int(p["window"]))
    return out


def _ind_bollinger_hband(o, h, lo, v, p):
    w = int(p["window"])
    return _roll_mean(o, w) + p["n_std"] * _roll_std(o, w, ddof=0)


def _ind_donchian_width(o, h, lo, v, p):
    w = int(p["window"])
    return _roll_max(h, w) - _roll_min(lo, w)


def _ind_ulcer(o, h, lo, v, p):
    w = int(p["window"])
    drawdown_pct = 100.0 * (o / _roll_max(o, w) - 1.0)
    sq = np.where(np.isnan(drawdown_pct), np.nan, drawdown_pct**2)
    return np.sqrt(_roll_mean(sq, w))


def _ind_adx(o, h, lo, v, p):
    w = int(p["window"])
    up = np.diff(h, axis=1)
    down = -np.diff(lo, axis=1)
    plus_dm = np.where((up > down) & (up > 0), up, 0.0)
    minus_dm = np.where((down > up) & (down > 0), down, 0.0)
    atr = _wilder_rma(_true_range(o, h, lo), w)
    plus_di = _safe_div(100.0 * _wilder_rma(plus_dm, w), atr, 0.0)
    minus_di = _safe_div(100.0 * _wilder_rma(minus_dm, w), atr, 0.0)
    dx = _safe_div(100.0 * np.abs(plus_di - minus_di), plus_di + minus_di, 0.0)
    adx = _wilder_rma(dx, w, start=w - 1)
    out = np.full_like(o, np.nan)
    out[:, 1:] = adx
    return out


def _aroon(x: np.ndarray, window: int, take_max: bool) -> np.ndarray:
    def days_since_extreme(wins):
        flipped = wins[..., ::-1]
        return np.argmax(flipped, axis=-1) if take_max else np.argmin(flipped, axis=-1)

    out = np.full_like(x, np.nan)
    span = window + 1  # current day plus the lookback window
    if x.shape[1] >= span:
        since = days_since_extreme(sliding_window_view(x, span, axis=1))
        out[:, span - 1 :] = 100.0 * (window - since) / window
    return out


def _ind_aroon_up(o, h, lo, v, p):
    return _aroon(h, int(p["window"]), take_max=True)


def _ind_aroon_down(o, h, lo, v, p):
    return _aroon(lo, int(p["window"]), take_max=False)


def _ind_ichimoku_a(o, h, lo, v, p):
    conv_w, base_w = int(p["conv"]), int(p["base"])
    conv = (_roll_max(h, conv_w) + _roll_min(lo, conv_w)) / 2.0
    base = (_roll_max(h, base_w) + _roll_min(lo, base_w)) / 2.0
    return (conv + base) / 2.0


# name -> (default params, warmup fn, kernel)
_REGISTRY = {
    "stoch_rsi": ({"window": 14, "stoch_window": 14},
                  lambda p: int(p["window"]) + int(p["stoch_window"]), _ind_stoch_rsi),
    "stoch_osc": ({"window": 14}, lambda p: int(p["window"]), _ind_stoch_osc),
    "awesome_osc": ({"fast": 5, "slow": 34}, lambda p: int(p["slow"]), _ind_awesome_osc),
    "pvo": ({"fast": 12, "slow": 26}, lambda p: int(p["slow"]), _ind_pvo),
    "kama": ({"window": 10, "fast": 2, "slow": 30}, lambda p: int(p["window"]) + 1, _ind_kama),
    "williams_r": ({"window": 14}, lambda p: int(p["window"]), _ind_williams_r),
    "adi": ({}, lambda p: 1, _ind_adi),
    "eom": ({"window": 14}, lambda p: int(p["window"]) + 1, _ind_eom),
    "force_index": ({"window": 13}, lambda p: int(p["window"]) + 1, _ind_force_index),
    "cmf": ({"window": 20}, lambda p: int(p["window"]), _ind_cmf),
    "vpt": ({}, lambda p: 2, _ind_vpt),
    "atr": ({"window": 14}, lambda p: int(p["window"]) + 1, _ind_atr),
    "bollinger_hband": ({"window": 20, "n_std": 2.0}, lambda p: int(p["window"]),
                        _ind_bollinger_hband),
    "donchian_width": ({"window": 20}, lambda p: int(p["window"]), _ind_donchian_width),
    "ulcer": ({"window": 14}, lambda p: 2 * int(p["window"]) - 1, _ind_ulcer),
    "adx": ({"window": 14}, lambda p: 2 * int(p["window"]), _ind_adx),
    "aroon_up": ({"window": 25}, lambda p: int(p["window"]) + 1, _ind_aroon_up),
    "aroon_down": ({"window": 25}, lambda p: int(p["window"]) + 1, _ind_aroon_down),
    "ichimoku_a": ({"conv": 9, "base": 26}, lambda p: int(p["base"]), _ind_ichimoku_a),
    "rsi": ({"window": 14}, lambda p: int(p["window"]) + 1, _ind_rsi),
}

#: The full indicator set: 19 names. Plain rsi is a configurable indicator
#: that no default set includes.
ALL_TECHNICAL_NAMES = tuple(n for n in _REGISTRY if n != "rsi")

#: Default selection of 16 indicators used alongside the 12 basic features.
#: The three level-like indicators most redundant with the basic moving
#: averages are left out; this is a config choice, overridable per run.
DEFAULT_TECHNICAL_16 = tuple(
    n for n in ALL_TECHNICAL_NAMES if n not in ("bollinger_hband", "donchian_width", "ichimoku_a")
)


def make_spec(name: str, **overrides) -> FeatureSpec:
    """Build a FeatureSpec for a registered indicator, with param overrides."""
    if name not in _REGISTRY:
        raise DataError(f"unknown technical feature: {name!r}")
    defaults, warmup_fn, _ = _REGISTRY[name]
    params = {**defaults, **overrides}
    return FeatureSpec(name=name, params=params, warmup=warmup_fn(params))


def _technical_matrix(
    o: np.ndarray, h: np.ndarray, lo: np.ndarray, v: np.ndarray, specs: list[FeatureSpec]
) -> tuple[np.ndarray, np.ndarray]:
    cols = []
    valid = []
    for spec in specs:
        if spec.name not in _REGISTRY:
            raise DataError(f"unknown technical feature: {spec.name!r}")
        kernel = _REGISTRY[spec.name][2]
        cols.append(kernel(o, h, lo, v, spec.params))
        valid.append(spec.warmup - 1)
    return np.stack(cols, axis=-1), np.array(valid, dtype=int)


def assemble_panel(
    u: Universe, basic: bool = True, specs: list[FeatureSpec] | None = None
) -> FeaturePanel:
    """Compute the full feature panel for a universe.

    Feature order is the 12 basic features (when enabled) followed by the
    given specs in order; n = 12*[basic] + len(specs).
    """
    specs = list(specs) if specs is not None else []
    names: list[str] = []
    blocks: list[np.ndarray] = []
    valids: list[np.ndarray] = []

    o, h, lo, v = (u.matrix(column) for column in (OPEN, HIGH, LOW, VOLUME))

    if basic:
        blocks.append(_basic_matrix(o, h, lo, v))
        names.extend(BASIC_FEATURE_NAMES)
        valids.append(np.array([_BASIC_VALID_START[n] for n in BASIC_FEATURE_NAMES], dtype=int))
    if specs:
        seen = set(names)
        for sp in specs:
            if sp.name in seen:
                raise DataError(f"duplicate feature name in panel: {sp.name!r}")
            seen.add(sp.name)
        tvalues, tvalid = _technical_matrix(o, h, lo, v, specs)
        blocks.append(tvalues)
        names.extend(sp.name for sp in specs)
        valids.append(tvalid)

    if not blocks:
        raise DataError("panel would contain no features (basic off, no specs)")

    values = np.concatenate(blocks, axis=-1)
    valid_start = np.concatenate(valids)
    if int(valid_start.max()) >= u.n_days:
        raise DataError(
            f"universe has {u.n_days} days but the longest feature warmup "
            f"needs {int(valid_start.max()) + 1}"
        )
    # scrub warmup region so nothing downstream can consume it by accident
    day_idx = np.arange(u.n_days)[None, :, None]
    values = np.where(day_idx >= valid_start[None, None, :], values, np.nan)
    return FeaturePanel(
        tickers=u.tickers,
        dates=u.calendar,
        feature_names=tuple(names),
        values=values,
        valid_start=valid_start,
    )
