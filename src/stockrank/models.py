"""The ranking model: sector-embedded 1D CNN, training loop, ensembles.

A model maps an (m, n) standardized feature window plus a sector id to a
probability distribution over five return classes (or a single value for
the MSE variant). Three independently seeded members are combined into an
ensemble whose weights follow each member's recent realized returns.

Every conv and hidden dense block feeds a batch norm, whose batch mean
cancels any bias in front of it, so only the output head has a bias.

Models compute in float32: parameters, activations, gradients and Adam
moments are float32, while batch-norm running statistics stay float64.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import COMBINE_MODES, ArchConfig
from .errors import ConfigError, NumericError
from .losses import LossKind, batch_loss
from .market_data import N_SECTORS
from .nn.autograd import (
    BLOCK_ELEMS,
    BatchNormState,
    Tensor,
    batch_norm,
    conv1d_valid,
    dense,
    dropout,
    embedding_add,
    global_avg_pool,
    leaky_relu,
    softmax,
)
from .nn.optim import EARLY_STOP_PATIENCE, PLATEAU_FACTOR, PLATEAU_PATIENCE, AdamOptimizer

SCORE_VECTOR = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
INFER_CHUNK = 4096  # rows per infer-mode pass through the dense head


def ranking_scores(outputs: np.ndarray, classification: bool) -> np.ndarray:
    """Ranking score of each output row, in float64 so scores.csv keeps
    full-precision text: the expected class value under SCORE_VECTOR for
    classification kinds, the single predicted return for MSE."""
    outputs = np.asarray(outputs, dtype=np.float64)
    if classification:
        return outputs @ SCORE_VECTOR
    return outputs[:, 0]


class ModelState:
    """Parameters, batch-norm stats, optimizer state, and RNG for one model."""

    def __init__(self, arch: ArchConfig, params: dict[str, Tensor],
                 bn_states: dict[str, BatchNormState], rng: np.random.Generator,
                 seed: int):
        self.arch = arch
        self.params = params
        self.bn_states = bn_states
        self.rng = rng
        self.seed = seed
        self.optimizer = AdamOptimizer(list(params.values()), lr=arch.loss_kind.initial_lr)

    @property
    def param_count(self) -> int:
        return int(sum(p.data.size for p in self.params.values()))

    def snapshot(self) -> dict:
        return {
            "params": {k: p.data.copy() for k, p in self.params.items()},
            "bn": {k: s.copy() for k, s in self.bn_states.items()},
        }

    def restore(self, snap: dict) -> None:
        for k, p in self.params.items():
            p.data = snap["params"][k].copy()
        for k in self.bn_states:
            self.bn_states[k] = snap["bn"][k].copy()


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    draw = rng.normal(0.0, std, size=shape)
    return np.clip(draw, -2.0 * std, 2.0 * std)


def _param(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)


def build_model(arch: ArchConfig, seed: int) -> ModelState:
    """Initialize a float32 model deterministically from the seed.

    Conv and dense weights use scaled init (variance 2 / fan_in, clipped at
    two sigmas); the sector embedding is uniform in [-0.05, 0.05]. Values
    are drawn in float64 and rounded to float32.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    params: dict[str, Tensor] = {}
    bn_states: dict[str, BatchNormState] = {}

    params["embedding"] = _param(rng.uniform(-0.05, 0.05, size=(N_SECTORS, arch.n)))
    ch_in = arch.n
    for i, (k, ch_out) in enumerate(arch.conv):
        std = np.sqrt(2.0 / (k * ch_in))
        params[f"conv{i}_w"] = _param(_trunc_normal(rng, (k, ch_in, ch_out), std))
        params[f"conv{i}_bn_gamma"] = _param(np.ones(ch_out))
        params[f"conv{i}_bn_beta"] = _param(np.zeros(ch_out))
        bn_states[f"conv{i}_bn"] = BatchNormState(ch_out)
        ch_in = ch_out

    d_in = ch_in
    for i, width in enumerate(arch.dense):
        std = np.sqrt(2.0 / d_in)
        params[f"dense{i}_w"] = _param(_trunc_normal(rng, (d_in, width), std))
        params[f"dense{i}_bn_gamma"] = _param(np.ones(width))
        params[f"dense{i}_bn_beta"] = _param(np.zeros(width))
        bn_states[f"dense{i}_bn"] = BatchNormState(width)
        d_in = width

    arity = arch.loss_kind.output_arity
    std = np.sqrt(2.0 / d_in)
    params["out_w"] = _param(_trunc_normal(rng, (d_in, arity), std))
    params["out_b"] = _param(np.zeros(arity))

    return ModelState(arch, params, bn_states, rng, seed)


def _sector_conv(windows: np.ndarray, embedding: Tensor, sector_ids: np.ndarray,
                 w: Tensor) -> Tensor:
    """The first convolution of the windows with each sample's sector row
    added at every time step, computed with the add moved past the conv.

    The row e is constant in time and the conv is linear, so
    conv(x + e) = conv(x) + e @ sum_tau w[tau]: the conv runs on the raw
    windows, a grad-free leaf, so its backward builds no input gradient,
    and ``embedding_add``, one node, adds the sector rows passed through
    the kernel's tap sum to its (batch, t_out, ch_out) output; its backward
    gives the embedding's gradient and the kernel's second term.
    """
    return embedding_add(conv1d_valid(Tensor(windows), w), embedding, w, sector_ids)


def _infer_block(arch: ArchConfig) -> int:
    """Samples per infer-mode block of the conv stack: ``BLOCK_ELEMS`` over
    the widest conv output's t_out * c_out, at least one."""
    t, widest = arch.m, 0
    for k, c in arch.conv:
        t -= k - 1
        widest = max(widest, t * c)
    return max(1, BLOCK_ELEMS // widest)


def _conv_features(state: ModelState, p: dict[str, Tensor], windows: np.ndarray,
                   sector_ids: np.ndarray, train: bool) -> Tensor:
    """The sector conv, the conv blocks and the time pooling: (batch, c)."""
    arch = state.arch
    h = _sector_conv(windows, p["embedding"], sector_ids, p["conv0_w"])
    for i in range(len(arch.conv)):
        if i:
            h = conv1d_valid(h, p[f"conv{i}_w"])
        h = batch_norm(h, p[f"conv{i}_bn_gamma"], p[f"conv{i}_bn_beta"],
                       state.bn_states[f"conv{i}_bn"], train)
        h = leaky_relu(h, arch.leaky_slope)
        h = dropout(h, arch.dropout, state.rng, train)
    return global_avg_pool(h)


def _head(state: ModelState, p: dict[str, Tensor], h: Tensor, train: bool) -> Tensor:
    """The dense blocks and the output head on pooled (batch, c) features."""
    arch = state.arch
    for i in range(len(arch.dense)):
        h = dense(h, p[f"dense{i}_w"])
        h = batch_norm(h, p[f"dense{i}_bn_gamma"], p[f"dense{i}_bn_beta"],
                       state.bn_states[f"dense{i}_bn"], train)
        h = leaky_relu(h, arch.leaky_slope)
        h = dropout(h, arch.dropout, state.rng, train)
    out = dense(h, p["out_w"], p["out_b"])
    if arch.loss_kind.classification:
        out = softmax(out)
    return out


def _pooled_rows(state: ModelState, p: dict[str, Tensor], windows, sector_ids: np.ndarray,
                 lo: int, hi: int) -> Tensor:
    """Infer-mode pooled features of windows [lo, hi), the conv stack run
    over blocks of ``_infer_block`` samples, each gathered on its own."""
    dtype = p["embedding"].data.dtype
    block = _infer_block(state.arch)
    pooled = np.empty((hi - lo, state.arch.conv[-1][1]), dtype=dtype)
    for a in range(lo, hi, block):
        b = min(a + block, hi)
        x = np.asarray(windows[a:b], dtype=dtype)
        pooled[a - lo : b - lo] = _conv_features(state, p, x, sector_ids[a:b], False).data
    return Tensor(pooled)


def forward(state: ModelState, windows, sector_ids: np.ndarray, train: bool) -> Tensor:
    """Run the network on (batch, m, n) windows: an array, or in infer mode
    also a SampleSet's Windows view.

    Stack: sector embedding add, then conv blocks (conv, batch norm, leaky
    ReLU, dropout), global average pooling over time, dense blocks (a
    bias-free ``dense`` and the same trimmings), and a final ``dense`` head
    with a bias (softmax for classification kinds), each layer one autograd
    node. The embedding add and the first conv run as ``_sector_conv``,
    which adds each sector row after the conv, passed through its kernel:
    the same function up to float rounding, with a cheaper backward. The windows are cast to the parameters' dtype, which
    every op keeps; a batch gathered from a SampleSet's float32 span is
    already in it.

    Train mode runs the whole batch at once, draws the dropout masks (rate
    ``arch.dropout``) from ``state.rng`` and folds each batch's statistics
    into the batch-norm running stats. Each rebinding of ``h`` drops the
    previous op output, so the graph keeps only the arrays the backward
    closures read, a leaky ReLU or a dropout its mask packed to bits
    (autograd's memory rule).

    Infer mode uses the running stats, skips dropout, reads no RNG and
    builds no backward: it runs on grad-free leaves that share the
    parameters' arrays and returns a leaf. It streams the conv stack over
    blocks of ``_infer_block`` samples, each gathered from ``windows`` on
    its own, and writes their pooled rows into one (rows, c) array per
    ``INFER_CHUNK`` rows, which the dense head then takes whole. Every
    conv-stack op computes each sample on its own (a stacked matmul per
    sample, elementwise batch norm and leaky ReLU, a per-sample time sum),
    so a sample's bits do not depend on its block; the head's GEMMs are the
    part whose bits depend on the row count, and ``INFER_CHUNK`` fixes it.
    """
    p = state.params if train else {k: Tensor(v.data) for k, v in state.params.items()}
    dtype = p["embedding"].data.dtype
    if train:
        h = _conv_features(state, p, np.asarray(windows, dtype=dtype), sector_ids, True)
        return _head(state, p, h, True)

    n, sector_ids = len(windows), np.asarray(sector_ids)
    out = np.empty((n, state.arch.loss_kind.output_arity), dtype=dtype)
    for lo in range(0, n, INFER_CHUNK):
        hi = min(lo + INFER_CHUNK, n)
        # the head owns the pooled rows, so its first op frees them
        out[lo:hi] = _head(state, p, _pooled_rows(state, p, windows, sector_ids, lo, hi),
                           False).data
    return Tensor(out)


def predict_batch(state: ModelState, windows, sector_ids: np.ndarray) -> np.ndarray:
    """Infer-mode outputs for every window, ``windows`` an array or a
    SampleSet's Windows view: one infer-mode ``forward``, which gathers the
    windows block by block. Zero windows give a (0, arity) array."""
    return forward(state, windows, sector_ids, train=False).data


def _evaluate(state: ModelState, kind: LossKind, sample_set) -> float:
    """Mean loss over a SampleSet in infer mode, its batch loss taken over
    each ``INFER_CHUNK`` rows and weighted by their count."""
    out = predict_batch(state, sample_set.windows, sample_set.sector_ids)
    total = 0.0
    n = len(sample_set)
    for lo in range(0, n, INFER_CHUNK):
        sl = slice(lo, min(lo + INFER_CHUNK, n))
        loss = batch_loss(kind, Tensor(out[sl]), sample_set.labels[sl], sample_set.returns[sl],
                          sample_set.weights[sl])
        total += loss.item() * (sl.stop - sl.start)
    return total / n


def train_period(state: ModelState, train_set, val_set, batch_size: int,
                 max_epochs: int) -> dict:
    """Fit one walk-forward period, warm-starting from the current weights.

    The learning rate is reset to the loss's initial rate (``losses.LOSSES``)
    at the start (the retraining rule). One tracker follows the validation
    loss: the best loss so far, the epochs since it and a snapshot of the
    model taken at it. Every ``PLATEAU_PATIENCE``-th epoch without
    improvement halves the rate (never below the loss's min_lr); the
    ``EARLY_STOP_PATIENCE``-th stops training. A NaN loss never improves.
    The best epoch's snapshot is restored, and ``history["best_epoch"]`` names it.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise NumericError("train_period needs non-empty train and validation sets")
    kind = state.arch.loss_kind
    opt = state.optimizer
    opt.lr = kind.initial_lr
    best, wait, best_snapshot = np.inf, 0, None

    history = {"train_loss": [], "val_loss": [], "lr": []}
    n = len(train_set)
    for epoch in range(max_epochs):
        order = state.rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            out = forward(state, train_set.windows[idx], train_set.sector_ids[idx],
                          train=True)
            loss = batch_loss(kind, out, train_set.labels[idx], train_set.returns[idx],
                              train_set.weights[idx])
            if not np.isfinite(loss.item()):
                raise NumericError(f"non-finite training loss: {loss.item()}")
            opt.zero_grad()
            loss.backward()
            opt.step()
            epoch_loss += loss.item() * len(idx)
        val_loss = _evaluate(state, kind, val_set)
        history["train_loss"].append(epoch_loss / n)
        history["val_loss"].append(val_loss)
        history["lr"].append(opt.lr)
        if val_loss < best:
            best, wait, best_snapshot = val_loss, 0, state.snapshot()
            history["best_epoch"] = epoch
        else:
            wait += 1
            if wait == EARLY_STOP_PATIENCE:
                break
            if wait % PLATEAU_PATIENCE == 0:
                opt.lr = max(opt.lr * PLATEAU_FACTOR, kind.min_lr)

    if best_snapshot is not None:
        state.restore(best_snapshot)
        history["best_val_loss"] = best
    history["epochs"] = len(history["train_loss"])
    return history


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


@dataclass
class EnsembleState:
    """Member models plus the trailing per-period returns that weight them:
    each member's returns of the last ``window`` periods at most. The combine
    mode is checked again here, since a checkpoint's header holds it too."""

    members: list[ModelState]
    combine_mode: str
    window: int
    trailing_returns: list[list[float]] = field(default_factory=list)

    def __post_init__(self):
        if self.combine_mode not in COMBINE_MODES:
            raise ConfigError(f"unknown combine mode {self.combine_mode!r}")
        if not self.trailing_returns:
            self.trailing_returns = [[] for _ in self.members]

    def record_period_returns(self, member_returns: list[float]) -> None:
        if len(member_returns) != len(self.members):
            raise NumericError("one period return per member required")
        for hist, r in zip(self.trailing_returns, member_returns):
            hist.append(float(r))
            del hist[: max(0, len(hist) - self.window)]


def moe_weights(trailing_returns: list[list[float]]) -> np.ndarray:
    """Softmax of each member's compounded return over its trailing history,
    which ``EnsembleState.record_period_returns`` keeps to the window.

    Before any period has been recorded the members are weighted equally.
    """
    k = len(trailing_returns)
    if any(len(h) == 0 for h in trailing_returns):
        return np.full(k, 1.0 / k)
    r = np.array([np.prod(1.0 + np.asarray(h)) - 1.0 for h in trailing_returns])
    e = np.exp(r - r.max())
    return e / e.sum()


def ensemble_weights(ens: EnsembleState) -> np.ndarray:
    if ens.combine_mode == "simple_average":
        return np.full(len(ens.members), 1.0 / len(ens.members))
    return moe_weights(ens.trailing_returns)


def combine_members(ens: EnsembleState, member_outputs: list[np.ndarray]) -> np.ndarray:
    """Weighted average of the members' outputs; stays on the simplex for
    classification kinds because the weights do."""
    return np.tensordot(ensemble_weights(ens), np.stack(member_outputs), axes=1)


# ---------------------------------------------------------------------------
# checkpoints: versioned binary, bit-identical round trip
# ---------------------------------------------------------------------------

_MODEL_MAGIC = b"SRNN"
_ENSEMBLE_MAGIC = b"SREN"
# version 3: the header holds only what varies between models: parameters
# and Adam moments are float32 and batch-norm running statistics float64,
# a batch norm's channel count is its gamma's length, and Adam's betas and
# eps are the optimizer's constants
_CKPT_VERSION = 3


def _encode_model(state: ModelState) -> bytes:
    names = list(state.params.keys())
    if any(state.params[k].data.dtype != np.float32 for k in names):
        raise NumericError("only a float32 model can be saved")
    bn_names = sorted(state.bn_states.keys())
    opt = state.optimizer.state_dict()
    header = {
        "version": _CKPT_VERSION,
        "arch": asdict(state.arch),
        "seed": state.seed,
        "param_names": names,
        "param_shapes": {k: list(state.params[k].data.shape) for k in names},
        "bn_names": bn_names,
        "optimizer": {k: opt[k] for k in ("lr", "step_count")},
        "rng_state": state.rng.bit_generator.state,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    buffers = []
    for a in [state.params[k].data for k in names] + opt["m"] + opt["v"]:
        buffers.append(a.astype("<f4").tobytes())
    for k in bn_names:
        buffers.append(state.bn_states[k].running_mean.astype("<f8").tobytes())
        buffers.append(state.bn_states[k].running_var.astype("<f8").tobytes())
    body = b"".join(buffers)
    return _MODEL_MAGIC + struct.pack("<II", _CKPT_VERSION, len(head)) + head + body


def _decode_header(blob: bytes, magic: bytes, what: str) -> tuple[dict, int]:
    """The JSON header of a checkpoint blob and the offset of its body."""
    if blob[:4] != magic:
        raise NumericError(f"not {what} checkpoint")
    version, head_len = struct.unpack("<II", blob[4:12])
    if version != _CKPT_VERSION:
        raise NumericError(f"unsupported checkpoint version {version}")
    return json.loads(blob[12 : 12 + head_len].decode()), 12 + head_len


def _decode_model(blob: bytes) -> ModelState:
    header, offset = _decode_header(blob, _MODEL_MAGIC, "a model")

    def take(shape, dtype) -> np.ndarray:
        nonlocal offset
        count = math.prod(shape)
        wire = np.dtype(dtype).newbyteorder("<")
        arr = np.frombuffer(blob, dtype=wire, count=count, offset=offset).reshape(shape)
        offset += count * wire.itemsize
        return arr.astype(dtype)

    def take_params() -> list[np.ndarray]:
        return [take(header["param_shapes"][k], np.float32) for k in header["param_names"]]

    arch = ArchConfig(**header["arch"])
    params = {k: Tensor(a, requires_grad=True)
              for k, a in zip(header["param_names"], take_params())}
    m_list = take_params()
    v_list = take_params()
    bn_states = {}
    for k in header["bn_names"]:
        st = BatchNormState(len(params[f"{k}_gamma"].data))
        st.running_mean = take(st.running_mean.shape, np.float64)
        st.running_var = take(st.running_var.shape, np.float64)
        bn_states[k] = st
    if offset != len(blob):
        raise NumericError(f"model checkpoint has {len(blob) - offset} bytes past its end")

    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = header["rng_state"]
    state = ModelState(arch, params, bn_states, rng, header["seed"])
    state.optimizer.load_state_dict({**header["optimizer"], "m": m_list, "v": v_list})
    return state


def save_ensemble(ens: EnsembleState, path: str) -> None:
    header = {
        "version": _CKPT_VERSION,
        "combine_mode": ens.combine_mode,
        "window": ens.window,
        "trailing_returns": ens.trailing_returns,
        "n_members": len(ens.members),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    blobs = [_encode_model(m) for m in ens.members]
    with open(path, "wb") as fh:
        fh.write(_ENSEMBLE_MAGIC + struct.pack("<II", _CKPT_VERSION, len(head)) + head)
        for blob in blobs:
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)


def load_ensemble(path: str) -> EnsembleState:
    """Read an ensemble checkpoint; a file of another version, or one cut
    short or garbled, is a NumericError naming the path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _decode_ensemble(blob)
    except NumericError as exc:
        raise NumericError(f"{path}: {exc}") from exc
    except (ConfigError, struct.error, ValueError, KeyError, TypeError) as exc:
        raise NumericError(f"{path}: damaged ensemble checkpoint ({exc})") from exc


def _decode_ensemble(blob: bytes) -> EnsembleState:
    header, offset = _decode_header(blob, _ENSEMBLE_MAGIC, "an ensemble")
    members = []
    for _ in range(header["n_members"]):
        (size,) = struct.unpack("<Q", blob[offset : offset + 8])
        offset += 8
        members.append(_decode_model(blob[offset : offset + size]))
        offset += size
    if offset != len(blob):
        raise NumericError(f"ensemble checkpoint has {len(blob) - offset} bytes past its end")
    return EnsembleState(
        members=members,
        trailing_returns=[list(h) for h in header["trailing_returns"]],
        combine_mode=header["combine_mode"],
        window=header["window"],
    )
