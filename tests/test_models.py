import json
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockrank import models
from stockrank.dataset import (
    SampleSet,
    assign_label,
    build_split_plans,
    cap_return,
    make_samples,
    return_matrix,
    standardize,
)
from stockrank.errors import ConfigError, NumericError
from stockrank.indicators import assemble_panel
from stockrank.losses import LossKind, batch_loss
from stockrank.models import (
    ArchConfig,
    EnsembleState,
    TrainConfig,
    _decode_model,
    _encode_model,
    build_model,
    combine_members,
    ensemble_weights,
    forward,
    load_ensemble,
    moe_weights,
    predict_batch,
    ranking_scores,
    save_ensemble,
    train_period,
)
from stockrank.nn import Tensor, embedding_add

from conftest import as_windows, random_walk_universe
from reference import gather_windows, mul, tsum, unfolded_sector_conv

SMALL_ARCH = ArchConfig(m=10, n=6, conv=((3, 8), (3, 8)), dense=(8,),
                        loss="return_weighted_ce")


def toy_samples(rng, n, arch, signal=True):
    """Windows whose last-row mean predicts a +5% or 0% return."""
    windows = rng.normal(0, 1, size=(n, arch.m, arch.n))
    hot = rng.random(n) < 0.5
    returns = np.where(hot, 0.05, 0.0) + rng.normal(0, 0.002, size=n)
    if signal:
        windows[hot, -1, :] += 3.0
    labels = np.stack([assign_label(r) for r in returns])
    weights = np.array([cap_return(r) for r in returns])
    return SampleSet(np.arange(n), np.arange(n), as_windows(windows), labels, returns, weights,
                     rng.integers(0, 12, size=n))


def predict_one(state, window, sector_id):
    """Output row for a single window, through the batched path."""
    return predict_batch(state, np.asarray(window)[None], np.array([sector_id]))[0]


def ensemble_outputs(ens, windows, sector_ids):
    """Member outputs combined the way the walk-forward driver combines them."""
    return combine_members(ens, [predict_batch(m, windows, sector_ids) for m in ens.members])


def score(p):
    """Ranking score of one classification output row."""
    return float(ranking_scores(np.asarray(p)[None], classification=True)[0])


def as_float64(state):
    """Cast a built model's parameters to float64 in place; forward follows them."""
    for p in state.params.values():
        p.data = p.data.astype(np.float64)
    return state


class TestArchConfig:
    def test_conv_must_leave_time(self):
        with pytest.raises(ConfigError):
            ArchConfig(m=4, n=4, conv=((3, 8), (3, 8)), dense=(4,))

    def test_kernel_at_least_one(self):
        with pytest.raises(ConfigError):
            ArchConfig(m=10, n=4, conv=((0, 8),), dense=(4,))

    def test_conv_stack_not_empty(self):
        with pytest.raises(ConfigError, match="empty"):
            ArchConfig(m=10, n=4, conv=(), dense=(4,))

    def test_default_arch_is_valid(self):
        arch = ArchConfig()
        assert arch.loss_kind.classification


class TestEmbeddingAdd:
    def test_zero_embedding_is_identity(self, rng):
        x = rng.normal(size=(2, 5, 4))
        out = embedding_add(Tensor(x), Tensor(np.zeros((12, 4))), np.array([3, 7]))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_window_broadcasts_row(self, rng):
        table = rng.normal(size=(12, 4))
        out = embedding_add(Tensor(np.zeros((1, 5, 4))), Tensor(table), np.array([9]))
        for t in range(5):
            np.testing.assert_array_equal(out.data[0, t], table[9])

    def test_sector_difference_oracle(self, rng):
        # same window, different sectors: outputs differ row-wise by the
        # difference of the two embedding rows
        x = rng.normal(size=(5, 4))
        table = rng.normal(size=(12, 4))
        both = embedding_add(Tensor(np.stack([x, x])), Tensor(table), np.array([2, 8]))
        delta = both.data[0] - both.data[1]
        expected = table[2] - table[8]
        for t in range(5):
            np.testing.assert_allclose(delta[t], expected, rtol=1e-15)


class TestBuildModel:
    def test_embedding_contributes_12n_parameters(self):
        arch = ArchConfig(m=20, n=28, conv=((3, 4),), dense=(4,))
        state = build_model(arch, seed=0)
        assert state.params["embedding"].data.shape == (12, 28)
        assert state.params["embedding"].data.size == 336

    def test_conv_time_dims(self):
        arch = ArchConfig(m=20, n=28, conv=((3, 4), (3, 4), (3, 4)), dense=(4,))
        state = build_model(arch, seed=0)
        out = forward(state, np.zeros((2, 20, 28)), np.zeros(2, dtype=int), train=False)
        # time dims 18, 16, 14 entering the pool; output still (batch, 5)
        assert out.data.shape == (2, 5)

    def test_param_count_reported_and_stable(self):
        a = build_model(SMALL_ARCH, seed=1)
        b = build_model(SMALL_ARCH, seed=1)
        assert a.param_count == b.param_count > 0
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)

    def test_default_arch_parameters(self):
        # no bias in front of a batch norm: only the output head has one
        state = build_model(ArchConfig(), seed=0)
        blocks = [f"{name}_{part}" for name in ("conv0", "conv1", "conv2", "dense0")
                  for part in ("w", "bn_gamma", "bn_beta")]
        assert list(state.params) == ["embedding", *blocks, "out_w", "out_b"]
        # 336 embedding; convs 4,032 + 9,216 + 18,432 and dense 6,144
        # weights; 544 gamma and beta; the head 320 + 5
        assert state.param_count == 39_029

    def test_two_seeds_differ_same_shapes(self):
        a = build_model(SMALL_ARCH, seed=1)
        b = build_model(SMALL_ARCH, seed=2)
        assert any(
            not np.array_equal(a.params[k].data, b.params[k].data) for k in a.params
        )
        for k in a.params:
            assert a.params[k].data.shape == b.params[k].data.shape

    def test_mse_arch_outputs_scalar(self):
        arch = ArchConfig(m=10, n=6, conv=((3, 8),), dense=(8,), loss="mse")
        state = build_model(arch, seed=0)
        out = forward(state, np.zeros((4, 10, 6)), np.zeros(4, dtype=int), train=False)
        assert out.data.shape == (4, 1)


class TestPredict:
    def test_distribution_sums_to_one(self, rng):
        # float32 softmax: the five quotients, the float32 denominator and the
        # float32 sum each round at most eps/2 per operation, under 8 eps in all
        state = build_model(SMALL_ARCH, seed=5)
        p = predict_one(state, rng.normal(size=(10, 6)), sector_id=3)
        assert p.shape == (5,)
        assert p.dtype == np.float32
        assert abs(p.sum() - 1.0) < 8 * np.finfo(np.float32).eps
        assert (p > 0).all()

    def test_repeated_calls_identical(self, rng):
        state = build_model(SMALL_ARCH, seed=5)
        x = rng.normal(size=(10, 6))
        a = predict_one(state, x, 3)
        b = predict_one(state, x, 3)
        np.testing.assert_array_equal(a, b)

    def test_all_zero_weights_constant_function(self, rng):
        state = build_model(SMALL_ARCH, seed=5)
        for name, p in state.params.items():
            p.data = np.zeros_like(p.data)
        a = predict_one(state, rng.normal(size=(10, 6)), 0)
        b = predict_one(state, rng.normal(size=(10, 6)), 7)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_batch_matches_single(self, rng):
        state = build_model(SMALL_ARCH, seed=5)
        X = rng.normal(size=(4, 10, 6))
        ids = np.array([0, 1, 2, 3])
        batch = predict_batch(state, X, ids)
        for i in range(4):
            np.testing.assert_allclose(batch[i], predict_one(state, X[i], ids[i]), atol=1e-12)


def graph_nodes(t):
    """The nodes with a backward reachable from Tensor t through ``_parents``."""
    nodes, stack, seen = [], [t.node], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            nodes.append(node)
        stack.extend(node._parents)
    return nodes


def default_step_inputs(batch: int, seed: int = 0):
    """The default architecture and one seeded training batch of float32 windows."""
    arch = ArchConfig()
    rng = np.random.default_rng(seed)
    windows = rng.normal(size=(batch, arch.m, arch.n)).astype(np.float32)
    returns = rng.normal(0, 0.03, size=batch)
    return (arch, windows, rng.integers(0, 12, size=batch),
            np.eye(5)[rng.integers(0, 5, size=batch)], returns, np.minimum(np.abs(returns), 0.5))


def walk_keeping_every_gradient(loss):
    """``Tensor.backward``'s reverse topological walk, freeing nothing."""
    order, seen, stack = [], set(), [(loss.node, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in seen)
    loss.node.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestTrainStepMemory:
    """One default-architecture training step at batch 256 keeps only what
    its backward reads, and backward frees it."""

    BATCH = 256

    def _train_step(self, seed):
        arch, windows, ids, labels, returns, weights = default_step_inputs(self.BATCH)
        state = build_model(arch, seed=seed)
        out = forward(state, windows, ids, train=True)
        return state, batch_loss(arch.loss_kind, out, labels, returns, weights)

    def test_retained_and_peak_bytes(self):
        import tracemalloc

        arch, windows, ids, labels, returns, weights = default_step_inputs(self.BATCH)
        state = build_model(arch, seed=3)
        mb = 1e6
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = forward(state, windows, ids, train=True)
            loss = batch_loss(arch.loss_kind, out, labels, returns, weights)
            del out
            after_forward = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            loss.backward()
            after_backward, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 7.2 and 9.9 MB: each leaky ReLU and dropout keeps a 1-byte mask and
        # conv backward no stacked product; with their float32 multipliers
        # the step kept 12.3 MB and peaked 15.0 MB above the start, and a
        # graph that kept every op output held 24.7 MB and peaked at 39.6 MB
        assert after_forward <= 8 * mb, after_forward / mb
        assert peak - base <= 11 * mb, (peak - base) / mb
        # what is left is the parameters' gradients (0.16 MB)
        assert after_backward - base <= 1 * mb, (after_backward - base) / mb

    def test_backward_frees_op_gradients_and_leaves_match_a_walk_that_keeps_them(self):
        state, loss = self._train_step(seed=3)
        nodes = graph_nodes(loss)
        loss.backward()
        assert all(n.grad is None and n._backward is None and n._parents == () for n in nodes)
        kept_state, kept_loss = self._train_step(seed=3)
        kept_nodes = graph_nodes(kept_loss)
        walk_keeping_every_gradient(kept_loss)
        assert len(kept_nodes) == len(nodes)
        assert all(n.grad is not None for n in kept_nodes)
        for name, p in state.params.items():
            assert p.grad.dtype == np.float32
            assert p.grad.tobytes() == kept_state.params[name].grad.tobytes(), name


class TestInferMode:
    @pytest.mark.parametrize("arch", [ArchConfig(), ArchConfig(conv=((3, 8),), dense=(8,))],
                             ids=["default", "thin"])
    def test_infer_forward_and_loss_build_no_node(self, arch, rng):
        state = build_model(arch, seed=2)
        samples = toy_samples(rng, 6, arch)
        out = forward(state, samples.windows[:], samples.sector_ids, train=False)
        loss = batch_loss(arch.loss_kind, out, samples.labels, samples.returns, samples.weights)
        assert graph_nodes(out) == [] and graph_nodes(loss) == []
        assert all(p.requires_grad for p in state.params.values())  # training still can
        train_out = forward(state, samples.windows[:], samples.sector_ids, train=True)
        assert graph_nodes(train_out)


class TestScore:
    def test_pure_strong_buy(self):
        assert score(np.array([0, 0, 0, 0, 1.0])) == 2.0

    def test_uniform_is_zero(self):
        assert score(np.full(5, 0.2)) == pytest.approx(0.0, abs=1e-15)

    def test_hand_dot_product(self):
        assert score(np.array([0.2, 0.1, 0.1, 0.1, 0.5])) == pytest.approx(0.6, rel=1e-15)

    def test_float64_rows_and_regression_column(self):
        out = np.array([[0.1, 0.2, 0.3, 0.2, 0.2], [0.0, 0.0, 0.0, 1.0, 0.0]], np.float32)
        scores = ranking_scores(out, classification=True)
        assert scores.dtype == np.float64
        np.testing.assert_array_equal(scores, out.astype(np.float64) @ [-2, -1, 0, 1, 2])
        reg = np.array([[0.03], [-0.01]], np.float32)
        np.testing.assert_array_equal(ranking_scores(reg, classification=False),
                                      reg[:, 0].astype(np.float64))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_linearity_over_simplex_mixtures(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(5), size=3)
        w = rng.dirichlet(np.ones(3))
        mixed = np.tensordot(w, p, axes=1)
        assert score(mixed) == pytest.approx(sum(w[i] * score(p[i]) for i in range(3)),
                                             rel=1e-10, abs=1e-12)


class TestMoeWeights:
    def test_equal_returns_equal_weights(self):
        w = moe_weights([[0.1], [0.1], [0.1]])
        np.testing.assert_allclose(w, 1 / 3, rtol=1e-15)

    def test_hand_softmax(self):
        w = moe_weights([[np.log(2.0)], [0.0], [0.0]])
        np.testing.assert_allclose(w, [0.5, 0.25, 0.25], rtol=1e-12)

    def test_shift_invariance_of_cumulative_return(self):
        # additive shift in the compounded returns cancels in the softmax
        base = [[0.02, 0.01], [0.0, 0.0], [-0.01, 0.02]]
        w1 = moe_weights(base)
        r = [np.prod(1 + np.array(h)) - 1 for h in base]
        e = np.exp(np.array(r) + 5.0)
        np.testing.assert_allclose(w1, e / e.sum(), rtol=1e-12)

    def test_empty_history_equal_weights(self):
        np.testing.assert_allclose(moe_weights([[], [], []]), 1 / 3)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1,
                             max_size=6), min_size=2, max_size=4))
    def test_always_on_simplex(self, histories):
        w = moe_weights(histories)
        assert (w >= 0).all()
        assert abs(w.sum() - 1.0) < 1e-12

    def test_window_limits_history(self):
        # only the trailing 6 periods matter
        long_hist = [[0.9] * 10 + [0.0] * 6, [0.0] * 16, [0.0] * 16]
        np.testing.assert_allclose(moe_weights(long_hist, window=6), 1 / 3, rtol=1e-12)


class TestEnsemble:
    def _ensemble(self, seeds=(1, 2, 3), mode="moe"):
        members = [build_model(SMALL_ARCH, seed=s) for s in seeds]
        return EnsembleState(members=members, combine_mode=mode)

    def test_identical_members_idempotent(self, rng):
        ens = self._ensemble(seeds=(7, 7, 7))
        x = rng.normal(size=(1, 10, 6))
        out = ensemble_outputs(ens, x, np.array([2]))
        np.testing.assert_allclose(out, predict_batch(ens.members[0], x, np.array([2])),
                                   rtol=1e-12)

    def test_simple_average_midpoint(self):
        ens = self._ensemble(seeds=(1, 2), mode="simple_average")
        # stub members with constant outputs by zeroing weights and setting biases
        for m, hot in zip(ens.members, (0, 4)):
            for name, p in m.params.items():
                p.data = np.zeros_like(p.data)
            m.params["out_b"].data = np.full(5, -40.0)
            m.params["out_b"].data[hot] = 40.0
        out = ensemble_outputs(ens, np.zeros((1, 10, 6)), np.array([0]))
        np.testing.assert_allclose(out, [[0.5, 0, 0, 0, 0.5]], atol=1e-12)

    def test_score_of_average_equals_average_of_scores(self, rng):
        ens = self._ensemble()
        ens.record_period_returns([0.05, -0.02, 0.01])
        x = rng.normal(size=(10, 6))
        w = ensemble_weights(ens)
        member_scores = [score(predict_one(m, x, 1)) for m in ens.members]
        combined = score(ensemble_outputs(ens, x[None], np.array([1]))[0])
        assert combined == pytest.approx(float(np.dot(w, member_scores)), rel=1e-10)

    def test_trailing_history_trimmed_to_window(self):
        ens = self._ensemble()
        for i in range(9):
            ens.record_period_returns([0.01 * i, 0.0, 0.0])
        assert all(len(h) == 6 for h in ens.trailing_returns)

    def test_member_count_mismatch(self):
        ens = self._ensemble()
        with pytest.raises(NumericError):
            ens.record_period_returns([0.1, 0.2])


class TestTrainPeriod:
    def test_loss_decreases_on_learnable_signal(self, rng):
        state = build_model(SMALL_ARCH, seed=11)
        train = toy_samples(rng, 256, SMALL_ARCH)
        val = toy_samples(rng, 64, SMALL_ARCH)
        hp = TrainConfig.for_loss("return_weighted_ce", batch_size=64, max_epochs=6)
        hist = train_period(state, train, val, hp)
        assert hist["epochs"] == 6
        assert hist["train_loss"][-1] < hist["train_loss"][0]
        first3 = hist["train_loss"][:3]
        assert first3 == sorted(first3, reverse=True)  # monotone early descent

    def test_retrain_resets_lr(self, rng):
        state = build_model(SMALL_ARCH, seed=11)
        train = toy_samples(rng, 128, SMALL_ARCH)
        val = toy_samples(rng, 64, SMALL_ARCH)
        hp = TrainConfig.for_loss("return_weighted_ce", batch_size=64, max_epochs=2)
        train_period(state, train, val, hp)
        state.optimizer.lr = 0.001  # pretend plateau halvings happened
        hist = train_period(state, train, val, hp)
        assert hist["lr"][0] == hp.initial_lr == 0.01

    def test_zero_epoch_retrain_is_bit_identical(self, rng):
        state = build_model(SMALL_ARCH, seed=11)
        train = toy_samples(rng, 128, SMALL_ARCH)
        val = toy_samples(rng, 64, SMALL_ARCH)
        before = {k: p.data.copy() for k, p in state.params.items()}
        hp = TrainConfig.for_loss("return_weighted_ce", batch_size=64, max_epochs=0)
        hist = train_period(state, train, val, hp)
        assert hist["epochs"] == 0
        for k, p in state.params.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_two_seeds_different_parameters(self, rng):
        train = toy_samples(rng, 128, SMALL_ARCH)
        val = toy_samples(rng, 64, SMALL_ARCH)
        hp = TrainConfig.for_loss("return_weighted_ce", batch_size=64, max_epochs=2)
        a = build_model(SMALL_ARCH, seed=1)
        b = build_model(SMALL_ARCH, seed=2)
        train_period(a, train, val, hp)
        train_period(b, train, val, hp)
        assert any(not np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)

    def test_determinism_across_runs(self, rng):
        def run():
            r = np.random.default_rng(31)
            state = build_model(SMALL_ARCH, seed=9)
            train = toy_samples(r, 128, SMALL_ARCH)
            val = toy_samples(r, 64, SMALL_ARCH)
            hp = TrainConfig.for_loss("return_weighted_ce", batch_size=64, max_epochs=3)
            train_period(state, train, val, hp)
            return state

        a, b = run(), run()
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)

    def test_empty_sample_set_rejected(self, rng):
        state = build_model(SMALL_ARCH, seed=11)
        train = toy_samples(rng, 16, SMALL_ARCH)
        with pytest.raises(NumericError):
            train_period(state, train, SampleSet([], [], as_windows(np.zeros((0, 10, 6))),
                                                 np.zeros((0, 5)), [], [], []),
                         TrainConfig.for_loss("ce"))

    def test_schedule_profiles(self):
        new = TrainConfig.for_loss("return_weighted_ce")
        assert (new.initial_lr, new.min_lr, new.dropout) == (0.01, 0.001, 0.35)
        m = TrainConfig.for_loss("mse")
        assert (m.initial_lr, m.min_lr, m.dropout) == (0.01, 0.001, 0.40)
        c = TrainConfig.for_loss("ce")
        assert (c.initial_lr, c.min_lr, c.dropout) == (0.005, 0.0005, 0.40)


class TestFullModelGradients:
    @pytest.mark.parametrize("loss", ["return_weighted_ce", "ce", "mse"])
    def test_full_stack_vs_finite_differences(self, loss, rng):
        arch = ArchConfig(m=12, n=5, conv=((3, 6), (3, 6)), dense=(6,), loss=loss)
        # finite differences with h = 1e-5 need float64 resolution
        state = as_float64(build_model(arch, seed=4))
        kind = LossKind(loss)
        B = 4
        X = rng.normal(size=(B, 12, 5))
        ids = rng.integers(0, 12, size=B)
        labels = np.eye(5)[rng.integers(0, 5, size=B)]
        targets = rng.normal(0, 0.03, size=B)
        weights = np.minimum(np.abs(targets), 0.5)

        def loss_value():
            state.rng = np.random.default_rng(99)  # the same dropout masks every call
            out = forward(state, X, ids, train=True)
            return batch_loss(kind, out, labels, targets, weights)

        snap = state.snapshot()
        value = loss_value()
        for p in state.params.values():
            p.grad = None
        value.backward()
        h = 1e-5
        probe_rng = np.random.default_rng(12)
        worst = 0.0
        for name, p in state.params.items():
            flat = p.data.ravel()
            for i in probe_rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value().item()
                flat[i] = orig - h
                down = loss_value().item()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                an = 0.0 if p.grad is None else float(p.grad.ravel()[i])
                denom = max(abs(fd), abs(an))
                if denom > 1e-7:
                    worst = max(worst, abs(fd - an) / denom)
        state.restore(snap)  # the probes' batch-norm statistics leave no trace
        assert worst < 1e-4, f"{loss}: worst rel err {worst:.2e}"


class TestFloat32Model:
    def test_model_computes_in_float32(self, rng):
        state = build_model(SMALL_ARCH, seed=3)
        opt = state.optimizer
        assert {a.dtype for a in [p.data for p in state.params.values()] + opt.m + opt.v} \
            == {np.dtype(np.float32)}
        out = forward(state, rng.normal(size=(4, 10, 6)), np.arange(4), train=True)
        assert out.data.dtype == np.float32

    def test_float32_model_matches_float64_copy(self, rng):
        # Tolerances fixed from float32 epsilon before the first run. Each
        # float32 op rounds with relative error eps / 2; the errors compound
        # over sums of up to ~50 terms per output and five normalizing layers,
        # so outputs (probabilities in [0, 1]) may differ by 64 eps and
        # gradients by 1024 eps of the largest gradient entry in the model.
        # The scale is model-wide because gradients reached through batch
        # norm are differences of far larger terms, where float32 leaves
        # noise of the size of the terms that cancel. A wrong cast or
        # formula shows as errors of order one.
        eps = float(np.finfo(np.float32).eps)
        out_tol = 64 * eps
        grad_tol = 1024 * eps
        x = rng.normal(size=(32, 10, 6))
        ids = rng.integers(0, 12, size=32)
        labels = np.eye(5)[rng.integers(0, 5, size=32)]
        targets = rng.normal(0, 0.03, size=32)
        weights = np.minimum(np.abs(targets), 0.5)
        kind = SMALL_ARCH.loss_kind

        def run(state):
            state.rng = np.random.default_rng(5)  # both copies draw the same masks
            out = forward(state, x, ids, train=True)
            batch_loss(kind, out, labels, targets, weights).backward()
            return out.data, {k: p.grad for k, p in state.params.items()}

        out32, grads32 = run(build_model(SMALL_ARCH, seed=8))
        out64, grads64 = run(as_float64(build_model(SMALL_ARCH, seed=8)))
        assert out32.dtype == np.float32 and out64.dtype == np.float64
        np.testing.assert_allclose(out32, out64, rtol=0, atol=out_tol)
        scale = max(np.abs(g).max() for g in grads64.values())
        for k, g64 in grads64.items():
            assert grads32[k].dtype == np.float32, k
            np.testing.assert_allclose(grads32[k], g64, rtol=0, atol=grad_tol * scale,
                                       err_msg=k)

    def test_span_windows_train_as_the_float64_gather_did(self):
        # make_samples gathers each batch from a float32 span; a float64
        # gather of the same windows, cast by forward per batch, must give
        # the same parameters, Adam moments and outputs bit for bit
        u = random_walk_universe(np.random.default_rng(12), 5, 300)
        panel = assemble_panel(u, basic=True, specs=[])
        plan = build_split_plans(u.n_days, m=10, std_days=60, trainval_days=80, test_days=20,
                                 offset=panel.first_all_valid_day)[0]
        samples = make_samples(panel, u, plan, return_matrix(u), m=10)
        scaled = standardize(panel, plan)

        def float64_gather(ss):
            windows = as_windows(gather_windows(scaled, plan, ss, 10))
            assert windows.dtype == np.float64
            return SampleSet(ss.stock, ss.anchor_days, windows, ss.labels, ss.returns,
                             ss.weights, ss.sector_ids)

        arch = ArchConfig(m=10, n=panel.n_features, conv=((3, 8),), dense=(8,))
        hp = TrainConfig.for_loss(arch.loss, batch_size=64, max_epochs=1)

        def run(train, val, test):
            state = build_model(arch, seed=4)
            train_period(state, train, val, hp)
            return state, predict_batch(state, test.windows, test.sector_ids)

        a, out_a = run(samples["train"], samples["val"], samples["test"])
        b, out_b = run(*(float64_gather(samples[k]) for k in ("train", "val", "test")))
        assert out_a.dtype == np.float32
        np.testing.assert_array_equal(out_a, out_b)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data, err_msg=k)
        for ma, mb in zip(a.optimizer.m + a.optimizer.v, b.optimizer.m + b.optimizer.v):
            np.testing.assert_array_equal(ma, mb)
        assert a.optimizer.step_count == b.optimizer.step_count > 0


class TestSectorFold:
    """``forward`` adds the sector rows after the first conv, passed through
    its kernel; the paper adds them to the windows before it. In exact
    arithmetic the two are one function, so they may differ by rounding only.
    """

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), batch=st.integers(2, 12), k=st.integers(1, 4),
           loss=st.sampled_from(["return_weighted_ce", "mse"]), float64=st.booleans())
    def test_folded_matches_unfolded(self, seed, batch, k, loss, float64):
        # the same error budget as the float32-against-float64 comparison,
        # in units of the eps of the dtype the model computes in
        arch = ArchConfig(m=8, n=5, conv=((k, 6), (2, 4)), dense=(5,), loss=loss)
        data = np.random.default_rng(seed)
        x = data.normal(size=(batch, arch.m, arch.n))
        ids = data.integers(0, 12, size=batch)
        upstream = data.normal(size=(batch, arch.loss_kind.output_arity))
        table = data.normal(size=(12, arch.n))  # on the windows' scale, so the add matters

        def run(sector_conv):
            state = build_model(arch, seed=seed)
            if float64:
                as_float64(state)
            state.params["embedding"].data = table.astype(state.params["embedding"].data.dtype)
            with mock.patch.object(models, "_sector_conv", sector_conv):
                out = forward(state, x, ids, train=True)
                tsum(mul(out, upstream)).backward()
                infer = forward(state, x, ids, train=False)  # after one batch-norm update
            return out.data, infer.data, {name: p.grad for name, p in state.params.items()}

        folded, unfolded = run(models._sector_conv), run(unfolded_sector_conv)
        eps = float(np.finfo(folded[0].dtype).eps)
        for name, a, b in (("train", folded[0], unfolded[0]), ("infer", folded[1], unfolded[1])):
            assert a.dtype == b.dtype
            np.testing.assert_allclose(a, b, rtol=0, atol=64 * eps * max(1.0, np.abs(b).max()),
                                       err_msg=name)
        # model-wide scale, as gradients reached through batch norm are
        # differences of terms far larger than they are
        scale = max(np.abs(g).max() for g in unfolded[2].values())
        for name, g in unfolded[2].items():
            np.testing.assert_allclose(folded[2][name], g, rtol=0, atol=1024 * eps * scale,
                                       err_msg=name)


class TestCheckpoints:
    def test_model_round_trip_bit_identical(self, rng):
        state = build_model(SMALL_ARCH, seed=21)
        train = toy_samples(rng, 64, SMALL_ARCH)
        val = toy_samples(rng, 32, SMALL_ARCH)
        train_period(state, train, val,
                     TrainConfig.for_loss("return_weighted_ce", batch_size=32, max_epochs=2))
        blob = _encode_model(state)
        assert _encode_model(_decode_model(blob)) == blob

    def test_loaded_model_predicts_identically(self, rng):
        state = build_model(SMALL_ARCH, seed=21)
        loaded = _decode_model(_encode_model(state))
        x = rng.normal(size=(10, 6))
        np.testing.assert_array_equal(predict_one(state, x, 4), predict_one(loaded, x, 4))

    def test_loaded_model_resumes_training_identically(self, rng):
        train = toy_samples(rng, 64, SMALL_ARCH)
        val = toy_samples(rng, 32, SMALL_ARCH)
        hp = TrainConfig.for_loss("return_weighted_ce", batch_size=32, max_epochs=2)
        a = build_model(SMALL_ARCH, seed=3)
        train_period(a, train, val, hp)
        b = _decode_model(_encode_model(a))
        train_period(a, train, val, hp)
        train_period(b, train, val, hp)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)

    def test_resumed_float32_model_stays_float32(self, rng):
        train = toy_samples(rng, 64, SMALL_ARCH)
        val = toy_samples(rng, 32, SMALL_ARCH)
        hp = TrainConfig.for_loss("return_weighted_ce", batch_size=32, max_epochs=1)
        state = build_model(SMALL_ARCH, seed=3)
        train_period(state, train, val, hp)
        loaded = _decode_model(_encode_model(state))
        train_period(loaded, train, val, hp)
        opt = loaded.optimizer
        params = loaded.params.values()
        for a in [p.data for p in params] + [p.grad for p in params] + opt.m + opt.v:
            assert a.dtype == np.float32
        for bn in loaded.bn_states.values():
            assert bn.running_mean.dtype == bn.running_var.dtype == np.float64

    def test_ensemble_round_trip(self, tmp_path):
        members = [build_model(SMALL_ARCH, seed=s) for s in (1, 2, 3)]
        ens = EnsembleState(members=members)
        ens.record_period_returns([0.05, -0.01, 0.02])
        p1 = tmp_path / "e1.ens"
        p2 = tmp_path / "e2.ens"
        save_ensemble(ens, p1)
        loaded = load_ensemble(p1)
        save_ensemble(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.trailing_returns == ens.trailing_returns
        assert loaded.combine_mode == ens.combine_mode
        np.testing.assert_allclose(ensemble_weights(loaded), ensemble_weights(ens))

    def test_header_holds_only_what_varies(self):
        blob = _encode_model(build_model(SMALL_ARCH, seed=1))
        (head_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + head_len])
        assert set(header) == {"version", "arch", "seed", "param_names", "param_shapes",
                               "bn_names", "optimizer", "rng_state"}
        assert set(header["optimizer"]) == {"lr", "step_count"}

    def test_version_2_model_blob_is_rejected(self):
        blob = _encode_model(build_model(SMALL_ARCH, seed=1))
        with pytest.raises(NumericError, match="unsupported checkpoint version 2"):
            _decode_model(blob[:4] + struct.pack("<I", 2) + blob[8:])

    def test_float64_model_is_not_saved(self):
        with pytest.raises(NumericError, match="float32"):
            _encode_model(as_float64(build_model(SMALL_ARCH, seed=1)))

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:10],  # cut inside the version field
        lambda blob: blob[:-100],  # cut inside the last member
        lambda blob: blob + b"\0",
        lambda blob: blob[:4] + struct.pack("<I", 2) + blob[8:],
        # the first member's version field reads 2
        lambda blob: blob.replace(b"SRNN", b"SRNN" + struct.pack("<I", 2), 1)[:len(blob)],
        lambda blob: blob[:12] + b"\xff" + blob[13:],  # the header is no longer UTF-8
        lambda blob: blob.replace(b'"n_members":3', b'"n_members":4'),
    ], ids=["cut_header", "cut_member", "trailing_byte", "version_2", "member_version_2",
            "garbled_header", "missing_member"])
    def test_damaged_ensemble_file_is_numeric_error(self, tmp_path, damage):
        path = tmp_path / "e.ens"
        save_ensemble(EnsembleState(members=[build_model(SMALL_ARCH, seed=s) for s in (1, 2, 3)]),
                      path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(NumericError) as error:
            load_ensemble(path)
        assert str(error.value).startswith(f"{path}: ")


class TestTracedNames:
    """The benchmark's tracer wraps these names from outside the program.

    A renamed op, an op output not built by ``autograd._make``, or a renamed
    ``Tensor.backward`` or ``AdamOptimizer.step`` would silently zero its
    per-layer metrics, so the contract is pinned here.
    """

    OPS = ("embedding_add", "conv1d_valid", "batch_norm", "leaky_relu", "dropout",
           "global_avg_pool", "dense", "softmax")

    def test_training_reaches_every_traced_name(self, rng, monkeypatch):
        from stockrank import models
        from stockrank.nn import AdamOptimizer, autograd

        calls = dict.fromkeys(self.OPS + ("backward", "step"), 0)
        made = dict.fromkeys(self.OPS, 0)
        current: list[str] = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                current.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    current.pop()
            return wrapper

        make = autograd._make

        def counting_make(data, parents, backward):
            if current and current[-1] in made:
                made[current[-1]] += 1
            return make(data, parents, backward)

        for op in self.OPS:
            monkeypatch.setattr(models, op, counting(op, getattr(models, op)))
        monkeypatch.setattr(autograd, "_make", counting_make)
        monkeypatch.setattr(Tensor, "backward", counting("backward", Tensor.backward))
        monkeypatch.setattr(AdamOptimizer, "step", counting("step", AdamOptimizer.step))

        state = build_model(SMALL_ARCH, seed=1)
        hp = TrainConfig.for_loss("return_weighted_ce", batch_size=16, max_epochs=1)
        train_period(state, toy_samples(rng, 16, SMALL_ARCH), toy_samples(rng, 8, SMALL_ARCH),
                     hp)
        assert all(calls.values()), calls
        assert all(made.values()), made
