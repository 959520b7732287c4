"""Scalar reference implementations that the batched code is tested against.

These are the documented one-sample formulas, written for clarity: the
program computes the same quantities on arrays (``losses.batch_loss``,
``dataset.return_matrix``), and the tests compare the two.
"""

import numpy as np

from stockrank.dataset import LOOKAHEAD
from stockrank.errors import DataError, NumericError
from stockrank.losses import LOG_CLIP


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


def daily_return(s, T: int) -> float:
    """Open-to-open fractional return attributed to anchor day T of a
    StockSeries.

    r = (open[T+2] - open[T+1]) / open[T+1]; forced to 0 once the stock is
    dead by day T+2 (its quotes are no longer tradeable).
    """
    if T < 0 or T + LOOKAHEAD >= len(s.bars):
        raise DataError(f"anchor day {T} needs opens at days {T + 1} and {T + 2}")
    if s.death_date is not None and s.bars[T + 2].date >= s.death_date:
        return 0.0
    o1 = s.bars[T + 1].open
    o2 = s.bars[T + 2].open
    return (o2 - o1) / o1


def gather_windows(scaled: np.ndarray, universe, plan, ss, m: int) -> np.ndarray:
    """A SampleSet's (samples, m, n) windows in one fancy-index gather from
    a standardized span: sample i is the m days of its stock's row that
    end at its anchor day."""
    stock = np.array([universe.tickers.index(t) for t in ss.tickers], dtype=int)
    rows = ss.anchor_days[:, None] - plan.std_range[0] + np.arange(1 - m, 1)
    return scaled[stock[:, None], rows]
