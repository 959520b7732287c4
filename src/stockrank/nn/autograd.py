"""Define-by-run reverse-mode differentiation over float32 or float64 arrays.

A Tensor is an array plus a small graph ``Node``. Each op returns a new
Tensor whose node holds its parents' nodes and a closure that pushes a
gradient back into them; calling ``backward()`` on a scalar walks the
nodes in reverse topological order. Gradients are exact analytic
derivatives (verified against central finite differences in the test
suite).

The ops are the ones training differentiates: ``add`` and ``matmul``
(which make ``dense``), ``conv1d_valid``, ``kernel_sum``,
``embedding_add``, ``batch_norm``, ``leaky_relu``, ``dropout``,
``global_avg_pool``, ``softmax``, and the two objectives
``weighted_cross_entropy`` and ``mean_squared_error``, each one node with
a closed-form backward. Infer mode builds no backward: ``batch_norm``
returns a leaf and ``dropout`` returns its input.

Every conv and every hidden matmul of the model feeds a batch norm, whose
batch mean would cancel a bias in front of it, so ``conv1d_valid`` takes
none; only ``dense``, the output head, adds one.

Memory rule (the define-by-run rule of Paszke et al., 2019, "PyTorch: An
Imperative Style, High-Performance Deep Learning Library"): the graph holds
only what a backward reads. A backward closure holds its parents' nodes,
never a Tensor, plus the smallest arrays its formula reads: conv its input
and kernel, matmul both operands, batch norm ``xhat`` and gamma, leaky ReLU
the bool mask ``x >= 0`` and dropout its bool keep mask (each rebuilds its
float multiplier from the mask, bit for bit), softmax its output ``y``,
cross-entropy its probabilities, MSE ``diff``; the other ops keep shapes
only. So an op output that no backward reads (a conv's, a batch norm's, a
leaky ReLU's) is freed as soon as its caller drops the Tensor, and conv
backward builds its input gradient one tap at a time, with no stacked
product of every tap. ``backward()`` spends the graph:
once a node has pushed its gradient to its parents, its ``grad``, closure
and parents are dropped, so a non-leaf keeps no gradient and each saved
array is freed as the gradient passes it. Leaves (parameters) keep theirs.

Dtype rule: a Tensor keeps float32 data as float32 and stores anything
else as float64. Every op returns its input's dtype, a plain array or
scalar operand takes the dtype of the Tensor it meets, and each gradient
is stored in its tensor's dtype, so a float32 graph never upcasts.

Channel rule: activations are (batch, c) or (batch, time, c) with the
channels last, and every op does its per-channel work in one of two fast
passes, whatever the width c:

- a sum over every axis but the last (a channel's batch statistic, a
  shift or scale gradient) is a GEMV against ones, ``ones(n) @ a.reshape(n, c)``,
  a sum over the time axis is ``ones(time) @ a``, and a sum of samples by
  id (the embedding table's gradient) is a GEMM against their one-hot;
- a per-channel vector (or per-sample row) is applied to the
  (batch, time * c) view of the activations, tiled ``time`` times, so
  numpy's inner loop runs time * c elements long instead of c.

numpy's own ``sum(axis=...)``, ``mean(axis=...)`` and last-axis
broadcasts take their slow paths on a short last axis (c = 4 on a thin
network), and the rule is at least as fast at every width measured.
``softmax`` and the two objectives keep numpy's last-axis sums: those are
sums along the contiguous axis, not channel sums, and the loss nodes
repeat the bits of the op chain in ``tests/reference.py``.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericError


class Node:
    """The graph half of a Tensor: its gradient, whether it wants one, and
    for an op output the parents' nodes and the backward closure.

    A node holds no array of its Tensor, only the dtype its gradient is
    stored in, so the graph keeps an op output alive only where a backward
    closure saved it.
    """

    __slots__ = ("grad", "requires_grad", "dtype", "_parents", "_backward")

    def __init__(self, dtype: np.dtype, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.dtype = dtype
        self._parents: tuple[Node, ...] = ()
        self._backward = None


class Tensor:
    """A float32 or float64 array plus its graph ``node``.

    float32 data stays float32; any other input is stored as float64.
    ``grad`` and ``requires_grad`` live on the node. The array is not in
    the graph: an op output nothing saved is freed once its caller drops
    the Tensor, whatever the graph built on it (the memory rule, module
    docstring).
    """

    __slots__ = ("_data", "node")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self._data = data if data.dtype == np.float32 else np.asarray(data, dtype=np.float64)
        self.node = Node(self._data.dtype, requires_grad)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        # a gradient is stored in the dtype the data has now
        self._data = value
        self.node.dtype = value.dtype

    @property
    def grad(self) -> np.ndarray | None:
        return self.node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self.node.grad = value

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    def item(self) -> float:
        return float(self._data)

    def zero_grad(self) -> None:
        self.node.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf.

        The graph is spent as the gradient passes: once a node has pushed
        its gradient to its parents, its ``grad``, closure and parents are
        dropped, so the arrays its closure saved are freed before the
        earlier layers run. Leaves (parameters) keep their ``grad``; a
        second call on the same scalar reaches none of them.
        """
        if self._data.shape != ():
            raise NumericError(f"backward() needs a scalar, got shape {self._data.shape}")
        order: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(self.node, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.node.grad = np.ones((), dtype=self._data.dtype)
        for node in reversed(order):
            if node._parents:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = node._backward = None
                node._parents = ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self._data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a plain array takes the other Tensor's dtype."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return _as_tensor(a), _as_tensor(b)


def _accum(node: Node, g: np.ndarray) -> None:
    if node.requires_grad:
        g = np.asarray(g, dtype=node.dtype)
        node.grad = g if node.grad is None else node.grad + g


def _make(data, parents, backward) -> Tensor:
    """The op output Tensor; it joins the graph when a parent wants a gradient.

    ``parents`` are the op's input Tensors; the node keeps only their nodes.
    """
    out = Tensor(data)
    if any(p.node.requires_grad for p in parents):
        node = out.node
        node.requires_grad = True
        node._parents = tuple(p.node for p in parents)
        node._backward = backward
    return out


# ---------------------------------------------------------------------------
# the channel rule (module docstring)
# ---------------------------------------------------------------------------


def _rows(a: np.ndarray) -> np.ndarray:
    """The (batch, time * c) view of a (batch, ..., c) array."""
    return a.reshape(a.shape[0], math.prod(a.shape[1:]))


def _tile(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """A (c,) vector, or (batch, c) rows, tiled to the rows of ``_rows(a)``."""
    return np.tile(v, math.prod(a.shape[1:-1]))


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Sum over every axis but the last, as one GEMV against ones."""
    c = a.shape[-1]
    n = math.prod(a.shape[:-1])
    return np.ones(n, dtype=a.dtype) @ a.reshape(n, c)


def _channel_dot(a: np.ndarray, b: np.ndarray, c: int) -> np.ndarray:
    """Per-channel sum of a * b for two (batch, time * c) views, without an
    elementwise temporary: their column dots, then the time fold of those."""
    return _channel_sum(np.einsum("bj,bj->j", a, b).reshape(-1, c))


def _time_sum(a: np.ndarray) -> np.ndarray:
    """Sum of a (batch, time, c) array over time: ``ones(time) @ a``."""
    return np.ones(a.shape[1], dtype=a.dtype) @ a


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    extra = g.ndim - len(shape)
    if extra > 0:
        lead = math.prod(g.shape[:extra])
        rest = g.shape[extra:]
        g = (np.ones(lead, dtype=g.dtype) @ g.reshape(lead, math.prod(rest))).reshape(rest)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    na, nb, a_shape, b_shape = a.node, b.node, a.data.shape, b.data.shape

    def backward(g):
        _accum(na, _unbroadcast(g, a_shape))
        _accum(nb, _unbroadcast(g, b_shape))

    return _make(a.data + b.data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _operands(a, b)
    na, nb, a_data, b_data = a.node, b.node, a.data, b.data

    def backward(g):
        _accum(na, g @ b_data.T)
        _accum(nb, a_data.T @ g)

    return _make(a.data @ b.data, (a, b), backward)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def dense(x, w, b) -> Tensor:
    """Affine map: x @ w + b for x of shape (batch, d_in)."""
    return add(matmul(x, w), b)


def conv1d_valid(x, w) -> Tensor:
    """Valid (no padding) 1D convolution over the time axis, with no bias.

    x: (batch, time, ch_in), w: (k, ch_in, ch_out).
    out[s, t, o] = sum_{tau, i} x[s, t + tau, i] * w[tau, i, o];
    the feature axis is never convolved.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 3 or w.data.ndim != 3 or x.data.shape[2] != w.data.shape[1]:
        raise NumericError(
            f"conv1d shapes do not line up: x {x.data.shape}, w {w.data.shape}"
        )
    k, c_in, c_out = w.data.shape
    batch, t_in = x.data.shape[:2]
    if t_in < k:
        raise NumericError(f"conv1d kernel {k} longer than time axis {t_in}")
    t_out = t_in - k + 1
    nx, nw, x_data, w_data = x.node, w.node, x.data, w.data  # the input and the kernel
    out = x_data[:, 0:t_out, :] @ w_data[0]
    for tau in range(1, k):
        out += x_data[:, tau : tau + t_out, :] @ w_data[tau]

    def backward(g):
        # g zero-padded to t_in steps and flattened to rows: row r of the pad
        # lines up with row r + tau of x for every tap tau, and the zero rows
        # sit where a window would run into the next sample, so each tap is
        # one GEMM over contiguous rows
        rows = batch * t_in
        g_pad = np.zeros((batch, t_in, c_out), dtype=g.dtype)
        g_pad[:, :t_out] = g
        g_pad = g_pad.reshape(rows, c_out)
        if nx.requires_grad:
            # one GEMM per tap, added where it lines up: gx[r] gets
            # g_pad[r - tau] @ w[tau].T, so no (rows, k * c_in) product is kept
            gx = g_pad @ w_data[0].T
            for tau in range(1, k):
                gx[tau:] += g_pad[: rows - tau] @ w_data[tau].T
            _accum(nx, gx.reshape(x_data.shape))
        if nw.requires_grad:
            x2 = x_data.reshape(rows, c_in)
            n = rows - k + 1
            gw = np.empty_like(w_data)
            for tau in range(k):
                gw[tau] = x2[tau : tau + n].T @ g_pad[:n]
            _accum(nw, gw)

    return _make(out, (x, w), backward)


def kernel_sum(w) -> Tensor:
    """Sum of a (k, ch_in, ch_out) conv kernel over its k taps.

    It maps a time-constant input row through a convolution: for a row e
    added at every time step, conv(x + e) = conv(x) + e @ kernel_sum(w).
    """
    w = _as_tensor(w)
    nw, w_shape = w.node, w.data.shape

    def backward(g):
        _accum(nw, np.broadcast_to(g, w_shape))

    return _make(w.data.sum(axis=0), (w,), backward)


def embedding_add(x, table, ids: np.ndarray) -> Tensor:
    """Add one embedding row per sample across every time step.

    x: (batch, time, n), table: (rows, n), ids: (batch,) ints. The same row
    is added at all time steps, so the categorical signal is constant in
    time.
    """
    x, table = _as_tensor(x), _as_tensor(table)
    ids = np.asarray(ids, dtype=int)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.data.shape[0]:
        raise NumericError(
            f"embedding ids out of range [0, {table.data.shape[0]}): {ids.min()}..{ids.max()}"
        )
    out = (_rows(x.data) + _tile(table.data[ids], x.data)).reshape(x.data.shape)
    nx, nt, n_rows = x.node, table.node, table.data.shape[0]

    def backward(g):
        _accum(nx, g)
        if nt.requires_grad:
            # each table row's gradient is the time-summed gradient of its
            # samples: one GEMM against the (rows, batch) one-hot of ids
            onehot = np.equal.outer(np.arange(n_rows), ids).astype(g.dtype)
            _accum(nt, onehot @ _time_sum(g))

    return _make(out, (x, table), backward)


BN_MOMENTUM = 0.99  # weight of the old running statistic in each update
BN_EPS = 1e-5


class BatchNormState:
    """Running statistics of one batch-norm layer."""

    def __init__(self, n_channels: int):
        self.running_mean = np.zeros(n_channels, dtype=np.float64)
        self.running_var = np.ones(n_channels, dtype=np.float64)

    def copy(self) -> "BatchNormState":
        out = BatchNormState(len(self.running_mean))
        out.running_mean = self.running_mean.copy()
        out.running_var = self.running_var.copy()
        return out


def batch_norm(x, gamma, beta, state: BatchNormState, train: bool) -> Tensor:
    """Normalize per channel (last axis) over all other axes.

    Train mode uses batch statistics (population variance) and folds them
    into the running stats with momentum ``BN_MOMENTUM``. Infer mode is a pure
    function of the running stats and returns a leaf Tensor: nothing
    differentiates an infer-mode output, so it builds no backward. Every
    pass runs on the (batch, time * c) view of the activations, with the
    per-channel vectors tiled to it (the channel rule).
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    x_rows = _rows(x.data)
    if not train:
        dtype = x.data.dtype
        inv = (1.0 / np.sqrt(state.running_var + BN_EPS)).astype(dtype)
        scale = gamma.data * inv
        out = x_rows * _tile(scale, x.data)
        out += _tile(beta.data - state.running_mean.astype(dtype) * scale, x.data)
        return Tensor(out.reshape(x.data.shape))

    c = x.data.shape[-1]
    n = x.data.size // c
    mu = _channel_sum(x.data) / n
    xhat = x_rows - _tile(mu, x.data)  # the one centred temporary; normalized in place below
    var = _channel_dot(xhat, xhat, c) / n
    m = BN_MOMENTUM
    state.running_mean = m * state.running_mean + (1.0 - m) * mu
    state.running_var = m * state.running_var + (1.0 - m) * var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= _tile(inv, x.data)
    out = xhat * _tile(gamma.data, x.data)
    out += _tile(beta.data, x.data)
    nx, ngamma, nbeta, gamma_data = x.node, gamma.node, beta.node, gamma.data

    def backward_train(g):
        g_rows = _rows(g)
        dbeta = _channel_sum(g)
        dgamma = _channel_dot(g_rows, xhat, c)
        if nx.requires_grad:
            # with dxhat = g * gamma, sum(dxhat) = gamma * dbeta and
            # sum(dxhat * xhat) = gamma * dgamma, so
            # dx = gamma * inv * (g - (dbeta + xhat * dgamma) / n)
            dx = xhat * _tile(dgamma / n, g)
            dx += _tile(dbeta / n, g)
            np.subtract(g_rows, dx, out=dx)
            dx *= _tile(gamma_data * inv, g)
            _accum(nx, dx.reshape(g.shape))
        _accum(ngamma, dgamma)
        _accum(nbeta, dbeta)

    return _make(out.reshape(x.data.shape), (x, gamma, beta), backward_train)


def _leaky_slope(mask, alpha: float, dtype: np.dtype) -> np.ndarray:
    """1 where ``mask`` and ``alpha`` elsewhere, built from the boolean mask
    with one fused cast-and-scale instead of np.where."""
    slope = np.multiply(mask, 1.0 - alpha, dtype=dtype)
    slope += alpha
    return slope


def leaky_relu(x, alpha: float = 0.01) -> Tensor:
    """x * slope: slope is 1 where x >= 0 and ``alpha`` elsewhere, NaN included.

    The backward keeps the 1-byte mask ``x >= 0`` and rebuilds the slope
    from it, so it multiplies by the forward's slope, bit for bit.
    """
    x = _as_tensor(x)
    mask, dtype, nx = x.data >= 0, x.data.dtype, x.node
    out = _leaky_slope(mask, alpha, dtype)
    out *= x.data  # the product into the slope: no second activation-sized array

    def backward(g):
        gx = _leaky_slope(mask, alpha, dtype)
        gx *= g
        _accum(nx, gx)

    return _make(out, (x,), backward)


def _keep_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """``rng.random(shape, dtype=np.float32) >= rate`` for a Python float
    rate, bit for bit, leaving the generator in the same state, at about
    half the cost.

    That draw takes one 32-bit word u per element, the low half of each
    64-bit PCG64 output first and its high half next, buffered in the state
    (``has_uint32``, ``uinteger``) between calls; the element is
    (u >> 8) * 2**-24 in float32. So the element is kept exactly when
    u >= 256 * ceil(float32(rate) * 2**24), and the words come straight
    from ``random_raw`` with no float conversion.
    """
    bit_gen = rng.bit_generator
    if not isinstance(bit_gen, np.random.PCG64):
        raise NumericError(f"dropout needs a PCG64 generator, got {type(bit_gen).__name__}")
    n = math.prod(shape)
    cut = math.ceil(float(np.float32(rate)) * 2**24) << 8
    keep = np.empty(shape, dtype=bool)
    flat = keep.reshape(-1)
    state = bit_gen.state
    head = min(n, state["has_uint32"])  # the buffered high half comes first
    if head:
        flat[0] = state["uinteger"] >= cut
    rest = n - head
    halves = bit_gen.random_raw((rest + 1) // 2).astype("<u8", copy=False).view("<u4")
    np.greater_equal(halves[:rest], cut, out=flat[head:])
    if n:
        state = bit_gen.state
        state["has_uint32"] = rest % 2
        if rest:
            # the last word's high half: buffered if unused, else left stale
            state["uinteger"] = int(halves[-1])
        bit_gen.state = state
    return keep


def dropout(x, rate: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Infer mode, or a zero rate, returns ``x`` itself: no copy and no node.
    """
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise NumericError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise NumericError("dropout in train mode needs an rng")
    # the mask does not depend on the input dtype, so a float32 model and
    # its float64 copy see the same mask from the same rng; the backward
    # keeps the 1-byte mask and rebuilds the forward's scale from it
    keep = _keep_mask(rng, x.data.shape, rate)
    scale, dtype, nx = 1.0 / (1.0 - rate), x.data.dtype, x.node
    out = np.multiply(keep, scale, dtype=dtype)
    out *= x.data

    def backward(g):
        gx = np.multiply(keep, scale, dtype=dtype)
        gx *= g
        _accum(nx, gx)

    return _make(out, (x,), backward)


def global_avg_pool(x) -> Tensor:
    """Mean over the time axis: (batch, time, ch) -> (batch, ch), as a
    time sum against ones; the backward tiles g / time over the time axis."""
    x = _as_tensor(x)
    nx, x_shape = x.node, x.data.shape
    steps = x_shape[1]

    def backward(g):
        # _tile(g / steps, x) from x's shape: the closure keeps no array of x
        _accum(nx, np.tile(g / steps, steps).reshape(x_shape))

    return _make(_time_sum(x.data) / steps, (x,), backward)


def softmax(x) -> Tensor:
    """Shift-invariant softmax over the last axis, exactly normalized."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    nx = x.node

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(nx, y * (g - dot))

    return _make(y, (x,), backward)


# ---------------------------------------------------------------------------
# objectives: one node each, with the closed-form gradient
# ---------------------------------------------------------------------------


def weighted_cross_entropy(q, p: np.ndarray, w: np.ndarray, lo: float) -> Tensor:
    """Mean over the batch of w_i * -sum_k p_ik ln max(q_ik, lo).

    q: (batch, k) probabilities, p: (batch, k) one-hot rows, w: (batch,)
    weights. The gradient is zero where q lies below the clip ``lo``. The
    backward takes the chain rule through the log, the product with p, the
    row sum, the weighting and the mean in that order, operand for operand,
    so its bits are those of the same chain built from one op per step.
    """
    q = _as_tensor(q)
    p = np.asarray(p, dtype=q.data.dtype)
    w = np.asarray(w, dtype=q.data.dtype)
    clipped = np.maximum(q.data, lo)
    ce = -(p * np.log(clipped)).sum(axis=1)
    n = ce.size
    nq, q_data = q.node, q.data

    def backward(g):
        _accum(nq, -(g / n * w)[:, None] * p * (q_data >= lo) / clipped)

    return _make((ce * w).mean(), (q,), backward)


def mean_squared_error(y, t: np.ndarray) -> Tensor:
    """Mean over the batch of (y_i - t_i)^2; y: (batch, 1), t: (batch,)."""
    y = _as_tensor(y)
    diff = y.data - np.asarray(t, dtype=y.data.dtype).reshape(-1, 1)
    n = diff.size
    ny = y.node

    def backward(g):
        _accum(ny, g / n * 2.0 * diff)

    return _make((diff**2.0).mean(), (y,), backward)
