"""Minimal deterministic tensor + reverse-mode differentiation core.

Only the layers, objectives and optimizer the ranking model needs, one
autograd node per layer: valid 1D convolution over time with no bias (a
batch norm follows every conv), the sector-embedding add folded through
the first conv's kernel, batch normalization, leaky ReLU, dropout, global
average pooling, the dense layer (bias-free for a hidden block, with a
bias for the output head), softmax, the mean weighted cross-entropy and
the mean squared error, and Adam with the constants of plateau LR halving
and early stopping, which ``models.train_period`` runs.

Import from the submodules: the Tensor and its ops from ``nn.autograd``,
Adam and the schedule constants from ``nn.optim``. This package re-exports
nothing.

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
