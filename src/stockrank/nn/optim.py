"""Adam, and the constants of plateau learning-rate halving and early
stopping, which ``models.train_period`` runs on the validation loss."""

from __future__ import annotations

import numpy as np

from ..errors import NumericError
from .autograd import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PLATEAU_FACTOR = 0.5
PLATEAU_PATIENCE = 5
EARLY_STOP_PATIENCE = 20


class AdamOptimizer:
    """Adam with bias correction; deterministic given the same gradients.

    The moments take each parameter's dtype, and every update stays in it.
    """

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            mhat = self.m[i] / bc1
            vhat = self.v[i] / bc2
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def state_dict(self) -> dict:
        return {
            "lr": self.lr,
            "step_count": self.step_count,
            "m": [a.copy() for a in self.m],
            "v": [a.copy() for a in self.v],
        }

    def load_state_dict(self, state: dict) -> None:
        self.lr = state["lr"]
        self.step_count = state["step_count"]
        if len(state["m"]) != len(self.params):
            raise NumericError("optimizer state does not match parameter count")
        self.m = [np.array(a, dtype=p.data.dtype) for a, p in zip(state["m"], self.params)]
        self.v = [np.array(a, dtype=p.data.dtype) for a, p in zip(state["v"], self.params)]

