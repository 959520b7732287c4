"""Walk-forward splits, per-stock standardization, labels, and weights.

Day indices below always refer to the feature panel's calendar. For an
anchor day T, the prediction target is the open-to-open return from day
T+1 to day T+2, so the last usable anchor needs two future opens.

Samples are built column-wise: each period's standardized span is cast
once to float32, and each split holds a Windows view of it that stores
one start row per sample and gathers the (m, n) windows of a mini-batch
when indexed. Labels and weights are computed on the return array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .indicators import FeaturePanel, stock_blocks
from .market_data import OPEN, Universe

LOOKAHEAD = 2  # opens at T+1 and T+2 label anchor day T
SIGMA_EPS = 1e-8
N_CLASSES = 5


@dataclass(frozen=True)
class SplitPlan:
    """Half-open day-index ranges for one walk-forward period."""

    period_index: int
    std_range: tuple[int, int]
    trainval_range: tuple[int, int]
    test_range: tuple[int, int]

    def __post_init__(self):
        s0, s1 = self.std_range
        t0, t1 = self.trainval_range
        e0, e1 = self.test_range
        if not (s0 < s1 and t0 < t1 and e0 < e1):
            raise DataError(f"split plan ranges must be non-empty: {self}")
        if not (s1 == t0 and t1 == e0):
            raise DataError(f"split plan ranges are not contiguous: {self}")


class Windows:
    """Read-only (samples, m, n) view of the windows in a standardized span.

    ``span`` is (rows, days, n); sample i is the m consecutive days of row
    ``stock[i]`` that start at day ``first_row[i]``. The span is read as
    one flat block of rows * days rows of n features, and one read-only
    ``as_strided`` view of that block holds the m-row window that starts
    at each flat row: shape (flat rows - m + 1, m, n), strides (row, row,
    element), so no window is copied. Only the flat start row of each
    sample is stored, and a batch is ``view[start[idx]]``: an index array
    or a slice gathers a new (..., m, n) array in the span's dtype, so a
    mini-batch costs batch × m × n and the whole set is never
    materialized; an int gives that sample's (m, n) window as a read-only
    view. A span of fewer than m flat rows (an empty split has none) holds
    no window, so its view is empty and only an empty selection indexes
    it. ``shape``, ``size`` and ``dtype`` describe the gathered array;
    ``np.asarray`` gathers every window.

    A sample whose m days leave its stock's row would read another row of
    the flat block, so it is a DataError.
    """

    def __init__(self, span: np.ndarray, stock, first_row, m: int):
        n_rows, n_days, n = span.shape
        rows = span.reshape(n_rows * n_days, n)
        row_step, item_step = rows.strides
        self._view = np.lib.stride_tricks.as_strided(
            rows, shape=(max(len(rows) - m + 1, 0), m, n),
            strides=(row_step, row_step, item_step), writeable=False)
        first_row = np.asarray(first_row, dtype=np.intp)
        if ((first_row < 0) | (first_row > n_days - m)).any():
            raise DataError(f"a window of m={m} days leaves its stock's row of {n_days} days")
        self._start = np.asarray(stock, dtype=np.intp) * n_days + first_row
        self.shape = (len(self._start), m, n)
        self.dtype = span.dtype

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, idx) -> np.ndarray:
        return self._view[self._start[idx]]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("Windows gathers a new array; it cannot be viewed without a copy")
        out = self[:]
        return out if dtype is None else out.astype(dtype, copy=False)


class SampleSet:
    """Columnar batch of (stock, anchor day) samples, stock-major.

    Row i of every column describes the same sample: its stock (an index
    into ``Universe.tickers``), anchor day, (m, n) standardized window,
    one-hot label, realized return, loss weight and sector id. ``windows``
    is a Windows view: index it with a batch's rows to get that batch's
    windows.
    """

    def __init__(self, stock, anchor_days, windows: Windows, labels, returns, weights,
                 sector_ids):
        self.stock = np.asarray(stock, dtype=int)
        self.anchor_days = np.asarray(anchor_days, dtype=int)
        self.windows = windows
        self.labels = np.asarray(labels, dtype=np.float64)
        self.returns = np.asarray(returns, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.sector_ids = np.asarray(sector_ids, dtype=int)

    def __len__(self) -> int:
        return len(self.stock)


def build_split_plans(calendar_len: int, m: int, std_days: int, trainval_days: int,
                      test_days: int, offset: int = 0) -> list[SplitPlan]:
    """All walk-forward plans that fit on a calendar of the given length.

    The lengths are the run config's. Plan 0 standardizes on days
    [0, std_days), trains/validates on the next trainval_days and tests on
    the test_days after them; each later plan shifts everything test_days
    days. A plan is kept only while its last test anchor still has the two
    future opens its label needs. ``offset`` shifts all ranges forward
    (used when leading days are feature warmup). The first train anchor's
    window must start inside the std range, whose stats standardize it:
    m - 1 <= std_days.
    """
    if m - 1 > std_days:
        raise DataError(f"a window of m={m} days reaches before the std range of "
                        f"{std_days} days: m - 1 must be <= std_days")
    minimum = offset + std_days + trainval_days + test_days + (m - 1) + LOOKAHEAD
    if calendar_len < minimum:
        raise DataError(
            f"calendar has {calendar_len} days; walk-forward needs at least {minimum}"
        )
    plans = []
    period = 0
    while True:
        s0 = offset + period * test_days
        t0 = s0 + std_days
        e0 = t0 + trainval_days
        e1 = e0 + test_days
        if e1 - 1 + LOOKAHEAD >= calendar_len:
            break
        plans.append(
            SplitPlan(
                period_index=period,
                std_range=(s0, t0),
                trainval_range=(t0, e0),
                test_range=(e0, e1),
            )
        )
        period += 1
    return plans


def standardize(panel: FeaturePanel, plan: SplitPlan, dtype=np.float64) -> np.ndarray:
    """Standardize the plan's span with stats from its std range.

    Returns the (n_stocks, days, n_features) slice covering days
    [std_start, test_end), scaled per (stock, feature) by the mean and
    population standard deviation over the std range; sigma below
    SIGMA_EPS is clamped so constant features map to large finite values
    instead of crashing. The span is written block of stocks by block
    (``indicators.stock_blocks``): each block's statistics and its float64
    quotient are computed and written straight into the array of ``dtype``,
    so besides that array only one block's float64 temporaries exist, and a
    float32 span has the bits of the float64 quotient cast down. Every
    stock's arithmetic is the same in any block, so the result is bit for
    bit that of the whole span at once.
    """
    s0, s1 = plan.std_range
    if int(panel.valid_start.max()) > s0:
        raise DataError(
            f"std range starts at day {s0} but some features are valid only "
            f"from day {int(panel.valid_start.max())}"
        )
    span = panel.values[:, s0 : plan.test_range[1], :]
    out = np.empty(span.shape, dtype=dtype)
    for rows in stock_blocks(len(span), span[0].size):
        base = panel.values[rows, s0:s1, :]
        mean, std = base.mean(axis=1), base.std(axis=1)
        # the block's deviations from the mean live only for this call
        np.divide(span[rows] - mean[:, None, :], np.maximum(std, SIGMA_EPS)[:, None, :],
                  out=out[rows], casting="same_kind")
    return out


def return_matrix(u: Universe) -> np.ndarray:
    """(n_stocks, n_days - 2) matrix of open-to-open returns, one per anchor.

    Anchor T holds r = (open[T+2] - open[T+1]) / open[T+1], forced to 0
    once the stock is dead by day T+2 (its quotes are no longer tradeable).
    """
    opens = u.bars[:, :, OPEN]
    out = (opens[:, 2:] - opens[:, 1:-1]) / opens[:, 1:-1]
    # anchor T is zeroed when day T+2 is on/after the death day
    out[np.arange(u.n_days - LOOKAHEAD) >= u.death_day[:, None] - LOOKAHEAD] = 0.0
    return out


def _finite_returns(r) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    bad = ~np.isfinite(r)
    if bad.any():
        raise DataError(f"non-finite return {float(r[bad][0])!r}")
    return r


def assign_label(r, thresholds: tuple[float, float]) -> np.ndarray:
    """Map a return, or an array of returns, to one-hot class vectors.

    Boundaries: r >= hi is strong buy, lo < r < hi buy, -lo < r <= lo hold,
    -hi < r <= -lo sell, r <= -hi strong sell, where (lo, hi) are the run
    config's ``label_thresholds`` (0 < lo < hi, as it checks). The result
    has shape r.shape + (5,).
    """
    r = _finite_returns(r)
    lo, hi = thresholds
    idx = np.searchsorted([-hi, -lo, lo], r, side="left") + (r >= hi)
    return np.eye(N_CLASSES)[idx]


def cap_return(r, cap: float):
    """Loss weight: |r| clipped at the run config's ``return_cap``, elementwise."""
    return np.minimum(np.abs(_finite_returns(r)), cap)


def make_samples(panel: FeaturePanel, universe: Universe, plan: SplitPlan, returns: np.ndarray,
                 m: int, thresholds: tuple[float, float], cap: float,
                 val_days: int) -> dict[str, SampleSet]:
    """Build train/val/test SampleSets for one walk-forward period.

    The train/val window is split temporally: its trailing ``val_days``
    anchors validate, everything before them trains. Windows may reach
    back into the std range (those days are standardized with the same
    stats): ``build_split_plans`` keeps them inside it, and ``Windows``
    rejects a hand-built plan that does not. The settings are the run
    config's, which checks them. Samples are ordered by stock, then by
    anchor day.
    ``returns`` is ``return_matrix(universe)``, built once by the caller for
    every period. Every split's windows view the same float32 copy of the
    standardized span.
    """
    if panel.tickers != universe.tickers:
        raise DataError("panel and universe list different tickers")
    if returns.shape != (universe.n_stocks, universe.n_days - LOOKAHEAD):
        raise DataError(f"return matrix of shape {returns.shape} does not fit the universe")
    span = standardize(panel, plan, np.float32)
    offset = plan.std_range[0]  # span[:, d - offset, :] is panel day d

    t0, t1 = plan.trainval_range
    e0, e1 = plan.test_range
    ranges = {"train": (t0, t1 - val_days), "val": (t1 - val_days, t1), "test": (e0, e1)}
    out: dict[str, SampleSet] = {}
    for split, (a0, a1) in ranges.items():
        stock = np.repeat(np.arange(universe.n_stocks), a1 - a0)
        days = np.tile(np.arange(a0, a1), universe.n_stocks)
        r = returns[stock, days]
        out[split] = SampleSet(
            stock,
            days,
            Windows(span, stock, days + (1 - m - offset), m),
            assign_label(r, thresholds),
            r,
            cap_return(r, cap),
            universe.sector_ids[stock],
        )
    return out
