"""Training objectives: return-weighted cross-entropy, plain CE, and MSE.

The return-weighted loss multiplies each sample's cross-entropy by the
magnitude of its capped next-day return, so names about to move hard
dominate the batch loss while flat names contribute almost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn.autograd import Tensor, log_clip, mean, mul, neg, pow_const, sub, tsum

LOG_CLIP = 1e-12
LOSS_KINDS = ("return_weighted_ce", "ce", "mse")


@dataclass(frozen=True)
class LossKind:
    """A named objective plus the output arity it implies for the model."""

    kind: str

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")

    @property
    def output_arity(self) -> int:
        return 1 if self.kind == "mse" else 5

    @property
    def classification(self) -> bool:
        return self.kind != "mse"


def ce_per_sample(q: Tensor, p: np.ndarray) -> Tensor:
    """(batch,) vector of cross-entropies; p is the constant one-hot matrix."""
    return neg(tsum(mul(p, log_clip(q, LOG_CLIP)), axis=1))


def batch_loss(kind: LossKind, outputs: Tensor, labels: np.ndarray,
               targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Scalar training loss for one mini-batch.

    outputs: (batch, 5) probabilities for the classification kinds, or
    (batch, 1) raw values for mse. labels: one-hot rows; targets: raw
    next-day returns; weights: capped absolute returns.
    """
    if kind.kind == "return_weighted_ce":
        return mean(mul(ce_per_sample(outputs, labels), weights))
    if kind.kind == "ce":
        return mean(ce_per_sample(outputs, labels))
    diff = sub(outputs, targets.reshape(-1, 1))
    return mean(pow_const(diff, 2.0))
