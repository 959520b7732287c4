import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockrank.dataset import assign_label, cap_return
from stockrank.errors import ConfigError, NumericError
from stockrank.config import RunConfig
from stockrank.losses import LOG_CLIP, LOSSES, batch_loss
from stockrank.nn.autograd import Tensor, softmax

from reference import chain_batch_loss, cross_entropy, mse, return_weighted_loss

CFG = RunConfig()
STRONG_SELL = np.array([1.0, 0, 0, 0, 0])
HOLD = np.array([0, 0, 1.0, 0, 0])
Q_EXAMPLE = np.array([0.2, 0.1, 0.1, 0.1, 0.5])


class TestCrossEntropy:
    def test_worked_example(self):
        # the two mislabeled predictions carry identical cross-entropy -ln 0.2
        q1 = np.array([0.2, 0.1, 0.1, 0.1, 0.5])
        q2 = np.array([0.1, 0.1, 0.2, 0.5, 0.1])
        assert cross_entropy(STRONG_SELL, q1) == pytest.approx(-np.log(0.2), rel=1e-15)
        assert cross_entropy(HOLD, q2) == pytest.approx(-np.log(0.2), rel=1e-15)
        assert cross_entropy(STRONG_SELL, q1) == pytest.approx(1.60944, abs=1e-5)

    def test_perfect_prediction(self):
        assert cross_entropy(HOLD, HOLD) == 0.0

    def test_uniform_prediction(self):
        assert cross_entropy(HOLD, np.full(5, 0.2)) == pytest.approx(np.log(5), rel=1e-15)

    def test_not_one_hot_rejected(self):
        with pytest.raises(NumericError):
            cross_entropy(np.array([0.5, 0.5, 0, 0, 0]), Q_EXAMPLE)

    def test_clip_guards_zero(self):
        q = np.array([0.0, 0.25, 0.25, 0.25, 0.25])
        val = cross_entropy(STRONG_SELL, q)
        assert np.isfinite(val)
        assert val == pytest.approx(-np.log(1e-12))


class TestReturnWeightedLoss:
    def test_strong_sell_example(self):
        # r = -5%: weight 0.05, prediction mass 0.2 on the true class
        loss = return_weighted_loss(STRONG_SELL, Q_EXAMPLE, cap_return(-0.05, CFG.return_cap))
        assert loss == pytest.approx(0.05 * -np.log(0.2), rel=1e-13)
        assert loss == pytest.approx(0.0804719, abs=1e-7)

    def test_hold_example_exactly_ten_times_smaller(self):
        q2 = np.array([0.1, 0.1, 0.2, 0.5, 0.1])
        big = return_weighted_loss(STRONG_SELL, Q_EXAMPLE, cap_return(-0.05, CFG.return_cap))
        small = return_weighted_loss(HOLD, q2, cap_return(0.005, CFG.return_cap))
        assert small == pytest.approx(0.00804719, abs=1e-7)
        assert big / small == pytest.approx(10.0, abs=1e-12)

    def test_zero_weight_annihilates(self):
        assert return_weighted_loss(STRONG_SELL, Q_EXAMPLE, 0.0) == 0.0

    def test_weight_out_of_range(self):
        with pytest.raises(NumericError):
            return_weighted_loss(STRONG_SELL, Q_EXAMPLE, 0.6)
        with pytest.raises(NumericError):
            return_weighted_loss(STRONG_SELL, Q_EXAMPLE, -0.1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_bilinearity_in_weight(self, w, true_idx, seed):
        rng = np.random.default_rng(seed)
        q = rng.dirichlet(np.ones(5))
        p = np.zeros(5)
        p[true_idx] = 1.0
        assert return_weighted_loss(p, q, w) == pytest.approx(
            w * cross_entropy(p, q), rel=1e-12, abs=1e-300
        )

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-0.49, max_value=0.49, allow_nan=False))
    def test_strong_labels_always_outweigh_holds(self, r):
        label_idx = int(np.argmax(assign_label(r, CFG.label_thresholds)))
        w = cap_return(r, CFG.return_cap)
        if label_idx in (0, 4):  # strong sell / strong buy
            assert w >= 0.03 > 0.01
            if abs(r) > 0.03:
                assert w > 0.03
        if label_idx == 2:  # hold
            assert w <= 0.01


class TestMse:
    def test_exact_prediction(self):
        assert mse(0.02, 0.02) == 0.0

    def test_hand_square(self):
        assert mse(0.03, 0.0) == pytest.approx(9e-4, rel=1e-15)

    def test_symmetric_in_error_sign(self):
        assert mse(0.1, 0.3) == mse(0.3, 0.1)
        assert mse(0.1, 0.3) == pytest.approx(0.04, rel=1e-12)


class TestLossTable:
    def test_rows(self):
        rows = [(row.kind, row.alias, row.output_arity, row.initial_lr, row.min_lr, row.dropout)
                for row in LOSSES.values()]
        assert rows == [("return_weighted_ce", "new", 5, 0.01, 0.001, 0.35),
                        ("ce", "ce", 5, 0.005, 0.0005, 0.40),
                        ("mse", "mse", 1, 0.01, 0.001, 0.40)]
        assert all(kind == row.kind for kind, row in LOSSES.items())
        assert [row.classification for row in LOSSES.values()] == [True, True, False]

    def test_unknown_kind(self):
        # not a table row, so the run's network rejects it
        with pytest.raises(ConfigError, match="unknown loss 'huber'"):
            RunConfig(loss="huber").arch()


class TestBatchLossGradients:
    """Gradients of the three batched objectives vs central differences."""

    def _check(self, kind, outputs, labels, targets, weights, tol=1e-6):
        h = 1e-6
        q = Tensor(outputs.copy(), requires_grad=True)
        loss = batch_loss(LOSSES[kind], q, labels, targets, weights)
        loss.backward()
        rng = np.random.default_rng(1)
        flat = q.data.ravel()
        for i in rng.choice(flat.size, size=min(12, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = batch_loss(LOSSES[kind], Tensor(q.data), labels, targets, weights).item()
            flat[i] = orig - h
            down = batch_loss(LOSSES[kind], Tensor(q.data), labels, targets, weights).item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            an = q.grad.ravel()[i]
            denom = max(abs(fd), abs(an), 1e-12)
            assert abs(fd - an) / denom < tol

    def test_return_weighted_ce(self, rng):
        B = 6
        outputs = rng.dirichlet(np.ones(5), size=B)
        labels = np.eye(5)[rng.integers(0, 5, size=B)]
        targets = rng.normal(0, 0.03, size=B)
        weights = np.minimum(np.abs(targets), 0.5)
        self._check("return_weighted_ce", outputs, labels, targets, weights)

    def test_plain_ce(self, rng):
        B = 6
        outputs = rng.dirichlet(np.ones(5), size=B)
        labels = np.eye(5)[rng.integers(0, 5, size=B)]
        self._check("ce", outputs, labels, np.zeros(B), np.zeros(B))

    def test_mse(self, rng):
        B = 6
        outputs = rng.normal(size=(B, 1))
        targets = rng.normal(0, 0.03, size=B)
        self._check("mse", outputs, np.zeros((B, 5)), targets, np.zeros(B))

    def test_batch_reduction_is_mean(self, rng):
        B = 4
        outputs = rng.dirichlet(np.ones(5), size=B)
        labels = np.eye(5)[rng.integers(0, 5, size=B)]
        targets = rng.normal(0, 0.03, size=B)
        weights = np.minimum(np.abs(targets), 0.5)
        total = batch_loss(LOSSES["return_weighted_ce"], Tensor(outputs), labels,
                           targets, weights).item()
        per_sample = [
            return_weighted_loss(labels[i], outputs[i], weights[i]) for i in range(B)
        ]
        assert total == pytest.approx(np.mean(per_sample), rel=1e-12)


class TestLossNodesMatchTheOpChain:
    """Each loss node gives the bits of the generic op chain it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(list(LOSSES)),
        dtype=st.sampled_from([np.float32, np.float64]),
        batch=st.one_of(st.just(1), st.integers(min_value=1, max_value=299)),
        scale=st.floats(min_value=0.0, max_value=200.0),
        tiny=st.sampled_from([0.0, 1e-30, 1e-13, LOG_CLIP, 1e-11]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_loss_and_gradient_bytes_equal_the_chain(self, kind, dtype, batch, scale, tiny,
                                                     seed):
        rng = np.random.default_rng(seed)
        arity = LOSSES[kind].output_arity
        # logits scaled up to 200 put some probabilities below the clip; the
        # first row's labelled probability is set to `tiny`, at or near it
        logits = (rng.normal(size=(batch, arity)) * scale).astype(dtype)
        labels = np.eye(5)[rng.integers(0, 5, size=batch)]
        targets = rng.normal(0, 0.05, size=batch)
        weights = np.minimum(np.abs(targets), 0.5)

        def run(loss_fn):
            x = Tensor(logits.copy(), requires_grad=True)
            if kind == "mse":
                loss = loss_fn(x)
                loss.backward()
                return loss, [x.grad]
            q = softmax(x)
            q.data[0, np.argmax(labels[0])] = tiny
            # backward keeps no op output's gradient, so the gradient on the
            # probabilities is read from a leaf holding the same array
            q_leaf = Tensor(q.data, requires_grad=True)
            loss_fn(q_leaf).backward()
            loss = loss_fn(q)
            loss.backward()
            return loss, [q_leaf.grad, x.grad]

        loss, grads = run(lambda out: batch_loss(LOSSES[kind], out, labels, targets, weights))
        ref, ref_grads = run(lambda out: chain_batch_loss(kind, out, labels, targets, weights))
        assert loss.data.dtype == ref.data.dtype == dtype
        assert loss.data.tobytes() == ref.data.tobytes()
        for g, ref_g in zip(grads, ref_grads):
            assert g.dtype == ref_g.dtype == dtype
            assert g.tobytes() == ref_g.tobytes()
