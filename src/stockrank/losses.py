"""Training objectives: return-weighted cross-entropy, plain CE, and MSE.

The return-weighted loss multiplies each sample's cross-entropy by the
magnitude of its capped next-day return, so names about to move hard
dominate the batch loss while flat names contribute almost nothing.

Each objective is one autograd node (``weighted_cross_entropy``, with unit
weights for plain CE, or ``mean_squared_error``). Its closed-form backward
repeats the float operations of the generic op chain it replaced, in the
same order and with the same operands, so losses and gradients keep their
bits; the tests hold that chain as the oracle.

``LOSSES`` is the loss table, and the only place a loss's settings are
stated: each row names the loss as the config does (``kind``) and as the
CLI's ``--loss`` does (``alias``), and gives the model's output arity, the
initial and floor learning rates, and the dropout rate a config that names
none trains with. Config validation, the network, the training schedule
and the CLI choices all read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn.autograd import Tensor, mean_squared_error, weighted_cross_entropy

LOG_CLIP = 1e-12


@dataclass(frozen=True)
class LossKind:
    """One row of the loss table: a named objective and the settings it implies."""

    kind: str
    alias: str
    output_arity: int
    initial_lr: float
    min_lr: float
    dropout: float

    @property
    def classification(self) -> bool:
        return self.kind != "mse"


LOSSES = {row.kind: row for row in (
    LossKind("return_weighted_ce", "new", 5, 0.01, 0.001, 0.35),
    LossKind("ce", "ce", 5, 0.005, 0.0005, 0.40),
    LossKind("mse", "mse", 1, 0.01, 0.001, 0.40),
)}


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
