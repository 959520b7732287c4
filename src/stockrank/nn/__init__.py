"""Minimal deterministic tensor + reverse-mode differentiation core.

Only the layers, objectives, optimizer, and schedules the ranking model
needs: valid 1D convolution over time with no bias (a batch norm follows
every conv), the sum of a conv kernel over its taps, matmul, batch
normalization, leaky ReLU, dropout, global average pooling, the dense
output head (matmul plus a broadcast add), softmax, a sector-embedding
add, the mean weighted cross-entropy and the mean squared error (one node
each), Adam, plateau LR halving, and early stopping.

Computation runs in the dtype of the data: a Tensor keeps float32 arrays
as float32 and stores anything else as float64, every op returns its
input's dtype, and gradients and Adam moments follow their parameter's
dtype. The ranking model trains in float32; the gradient tests build
float64 tensors and so run in float64.

Memory follows the graph, not the Tensors: a Tensor is an array plus a
graph node, and an op's backward closure keeps its parents' nodes and only
the arrays its formula reads, so an op output that no backward reads is
freed once the caller drops it. ``backward()`` frees each op's saved
arrays and gradient as it passes; only leaves (parameters) keep a
``grad``.
"""

from .autograd import (
    BatchNormState,
    Tensor,
    add,
    batch_norm,
    conv1d_valid,
    dense,
    dropout,
    embedding_add,
    global_avg_pool,
    kernel_sum,
    leaky_relu,
    matmul,
    mean_squared_error,
    softmax,
    weighted_cross_entropy,
)
from .optim import AdamOptimizer, EarlyStopping, ReduceOnPlateau

__all__ = [
    "Tensor",
    "BatchNormState",
    "add",
    "matmul",
    "dense",
    "conv1d_valid",
    "kernel_sum",
    "embedding_add",
    "batch_norm",
    "leaky_relu",
    "dropout",
    "global_avg_pool",
    "softmax",
    "weighted_cross_entropy",
    "mean_squared_error",
    "AdamOptimizer",
    "ReduceOnPlateau",
    "EarlyStopping",
]
