"""Training objectives: return-weighted cross-entropy, plain CE, and MSE.

The return-weighted loss multiplies each sample's cross-entropy by the
magnitude of its capped next-day return, so names about to move hard
dominate the batch loss while flat names contribute almost nothing.

Each objective is one autograd node (``weighted_cross_entropy``, with unit
weights for plain CE, or ``mean_squared_error``). Its closed-form backward
repeats the float operations of the generic op chain it replaced, in the
same order and with the same operands, so losses and gradients keep their
bits; the tests hold that chain as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn.autograd import Tensor, mean_squared_error, weighted_cross_entropy

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


def batch_loss(kind: LossKind, outputs: Tensor, labels: np.ndarray,
               targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Scalar training loss for one mini-batch.

    outputs: (batch, 5) probabilities for the classification kinds, or
    (batch, 1) raw values for mse. labels: one-hot rows; targets: raw
    next-day returns; weights: capped absolute returns.
    """
    if kind.kind == "return_weighted_ce":
        return weighted_cross_entropy(outputs, labels, weights, LOG_CLIP)
    if kind.kind == "ce":
        return weighted_cross_entropy(outputs, labels, np.ones(len(labels)), LOG_CLIP)
    return mean_squared_error(outputs, targets)
