import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stockrank.errors import NumericError
from stockrank.nn.autograd import (
    BLOCK_ELEMS,
    BN_EPS,
    BN_MOMENTUM,
    BatchNormState,
    Tensor,
    batch_norm,
    conv1d_valid,
    dense,
    dropout,
    embedding_add,
    global_avg_pool,
    leaky_relu,
    mean_squared_error,
    softmax,
    weighted_cross_entropy,
)

import reference
from reference import log_clip, mean, mul, neg, pow_const, sub, tsum

H = 1e-5
GRAD_TOL = 1e-4


def finite_diff_check(build_loss, tensors, tol=GRAD_TOL, h=H, probes=6, seed=0):
    """Compare analytic gradients with central differences on a coordinate
    subset of every tensor; near-zero pairs are compared absolutely."""
    loss = build_loss()
    for t in tensors:
        t.grad = None
    loss.backward()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in tensors:
        flat = t.data.ravel()
        count = min(probes, flat.size)
        for i in rng.choice(flat.size, size=count, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss().item()
            flat[i] = orig - h
            down = build_loss().item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            an = 0.0 if t.grad is None else float(t.grad.ravel()[i])
            denom = max(abs(fd), abs(an))
            if denom < 1e-7:
                continue
            worst = max(worst, abs(fd - an) / denom)
    assert worst < tol, f"worst relative gradient error {worst:.3e}"
    return worst


class TestConv1d:
    def test_valid_length_law(self):
        for k in range(1, 21):
            x = Tensor(np.random.default_rng(0).normal(size=(2, 20, 3)))
            w = Tensor(np.zeros((k, 3, 4)))
            out = conv1d_valid(x, w)
            assert out.shape == (2, 20 - k + 1, 4)

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(3, 8, 2))
        w = np.zeros((1, 2, 2))
        w[0] = np.eye(2)
        out = conv1d_valid(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, x)

    def test_hand_dot_product(self):
        x = np.array([[[1.0], [2.0], [3.0]]])  # batch 1, time 3, 1 channel
        w = np.ones((3, 1, 1))
        out = conv1d_valid(Tensor(x), Tensor(w))
        assert out.data.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 6.0

    def test_kernel_longer_than_time(self):
        with pytest.raises(NumericError):
            conv1d_valid(Tensor(np.zeros((1, 2, 1))), Tensor(np.zeros((3, 1, 1))))

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 9, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
        finite_diff_check(lambda: tsum(mul(conv1d_valid(x, w), conv1d_valid(x, w))), [x, w])


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch,t_in,c_in,c_out,k", [
        (4, 7, 3, 2, 3),  # one block
        (256, 18, 48, 64, 3),  # the default arch's conv1 at batch 256: two blocks
        (256, 16, 64, 96, 3),  # and its conv2
        (700, 9, 50, 7, 4),  # three blocks
        (1000, 20, 28, 16, 3),  # five
    ])
    def test_input_gradient_matches_one_gemm_per_tap(self, batch, t_in, c_in, c_out, k, dtype,
                                                     rng):
        # the row-blocked input gradient has the bits of the whole-row GEMMs.
        # Float32 kept them at every shape tried, narrow kernels against
        # hundreds of input channels included; float64 at (300, 20, 300, 5)
        # differed in the last bit, as OpenBLAS runs a block's small dgemm
        # on another kernel than the whole one
        x = Tensor(rng.normal(size=(batch, t_in, c_in)).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(k, c_in, c_out)).astype(dtype))
        out = conv1d_valid(x, w)
        g = rng.normal(size=out.shape).astype(dtype)
        out.node._backward(g)
        assert_same_bits(x.grad, reference.conv_input_grad(w.data, g, t_in))


class TestBatchNorm:
    def test_already_normalized_batch(self, rng):
        x = rng.normal(size=(64, 5))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        state = BatchNormState(5)
        out = batch_norm(Tensor(x), Tensor(np.ones(5)), Tensor(np.zeros(5)), state, train=True)
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_gamma_zero_collapses_to_beta(self, rng):
        x = rng.normal(size=(8, 3))
        beta = np.array([1.0, -2.0, 0.5])
        state = BatchNormState(3)
        out = batch_norm(Tensor(x), Tensor(np.zeros(3)), Tensor(beta), state, train=True)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta, (8, 3)))

    def test_infer_mode_is_pure(self, rng):
        x = rng.normal(size=(8, 3))
        state = BatchNormState(3)
        state.running_mean = rng.normal(size=3)
        state.running_var = rng.uniform(0.5, 2.0, size=3)
        before = (state.running_mean.copy(), state.running_var.copy())
        a = batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), state, train=False)
        b = batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), state, train=False)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(state.running_mean, before[0])
        np.testing.assert_array_equal(state.running_var, before[1])

    def test_running_stats_momentum(self, rng):
        x = rng.normal(size=(32, 2))
        state = BatchNormState(2)
        batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, train=True)
        m = BN_MOMENTUM
        np.testing.assert_allclose(state.running_mean, (1 - m) * x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            state.running_var, m * 1.0 + (1 - m) * x.var(axis=0), rtol=1e-12
        )

    def test_train_gradients(self, rng):
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        state = BatchNormState(4)
        finite_diff_check(
            lambda: tsum(mul(batch_norm(x, g, b, state, train=True),
                             np.arange(24.0).reshape(6, 4))),
            [x, g, b],
        )

    def test_train_gradients_3d(self, rng):
        x = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        state = BatchNormState(4)
        finite_diff_check(
            lambda: mean(mul(batch_norm(x, g, b, state, train=True),
                             batch_norm(x, g, b, state, train=True))),
            [x, g, b],
        )

    def test_infer_builds_no_backward(self, rng):
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        state = BatchNormState(4)
        state.running_mean = rng.normal(size=4)
        state.running_var = rng.uniform(0.5, 2.0, size=4)
        out = batch_norm(x, g, b, state, train=False)
        assert out.node._parents == () and out.node._backward is None and not out.requires_grad


class TestLeakyRelu:
    @pytest.mark.parametrize("x,expected", [(2.0, 2.0), (-2.0, -0.02), (0.0, 0.0)])
    def test_values(self, x, expected):
        out = leaky_relu(Tensor(np.array(x)), alpha=0.01)
        assert out.data == pytest.approx(expected, abs=1e-15)

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        finite_diff_check(lambda: tsum(mul(leaky_relu(x, 0.01), leaky_relu(x, 0.01))), [x])


# a float32 uniform u to a Python float rate at it or one float64 or
# float32 ulp off it; the model's rate is a Python float, which numpy
# compares with a float32 array in float32
NUDGES = (
    float,
    lambda u: float(np.nextafter(float(u), 0.0)),
    lambda u: float(np.nextafter(float(u), 1.0)),
    lambda u: float(np.nextafter(u, np.float32(0))),
    lambda u: float(np.nextafter(u, np.float32(1))),
)


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = dropout(x, 0.0, np.random.default_rng(0), train=True)
        assert out is x

    def test_infer_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = dropout(x, 0.9, None, train=False)
        assert out is x

    def test_expected_value_preserved(self):
        x = np.ones((100_000,))
        out = dropout(Tensor(x), 0.35, np.random.default_rng(5), train=True)
        assert out.data.mean() == pytest.approx(1.0, rel=0.01)

    def test_gradient_with_fixed_mask(self, rng):
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        finite_diff_check(
            lambda: tsum(mul(dropout(x, 0.5, np.random.default_rng(42), train=True), 3.0)),
            [x],
        )

    def test_bad_rate(self):
        with pytest.raises(NumericError):
            dropout(Tensor(np.zeros(2)), 1.0, np.random.default_rng(0), train=True)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           before=st.integers(0, 5),
           shape=st.lists(st.integers(0, 9), min_size=0, max_size=3).map(tuple),
           rate=st.one_of(st.floats(1e-9, 1.0, exclude_max=True),
                          st.sampled_from([0.35, 0.4, 0.5, 1 - 2**-24, 1 - 2**-26])),
           at_a_draw=st.one_of(st.none(), st.tuples(st.integers(0, 10**6),
                                                    st.sampled_from(NUDGES))))
    def test_mask_and_generator_state_match_a_float32_uniform_draw(self, seed, before, shape,
                                                                   rate, at_a_draw):
        # the mask is rng.random(shape, float32) >= rate drawn another way;
        # an odd ``before`` leaves half of a 64-bit word buffered on entry,
        # a rate just below 1 rounds to 1.0 in float32, and ``at_a_draw``
        # puts the rate on one of the uniforms, or one ulp off it, so the
        # comparison's edge is met
        def generator():
            rng = np.random.default_rng(seed)
            rng.random(before, dtype=np.float32)
            return rng

        expected, rng = generator(), generator()
        uniforms = generator().random(shape, dtype=np.float32)
        if at_a_draw is not None and uniforms.size:
            pick, nudge = at_a_draw
            rate = nudge(uniforms.flat[pick % uniforms.size])
            assume(0.0 < rate < 1.0)
        keep = expected.random(shape, dtype=np.float32) >= rate
        out = dropout(Tensor(np.ones(shape, dtype=np.float32)), rate, rng, train=True)
        np.testing.assert_array_equal(out.data != 0, keep)
        assert rng.bit_generator.state == expected.bit_generator.state
        # and the generator goes on to draw what it would have drawn
        np.testing.assert_array_equal(rng.random(3, dtype=np.float32),
                                      expected.random(3, dtype=np.float32))

    @pytest.mark.parametrize("before", [0, 1])
    @pytest.mark.parametrize("n", [BLOCK_ELEMS - 1, BLOCK_ELEMS, BLOCK_ELEMS + 1,
                                   2 * BLOCK_ELEMS + 2])
    def test_mask_and_generator_state_over_several_blocks(self, before, n):
        # each block draws its own words; an odd block leaves a half over
        # for the next, as an odd ``before`` does for the first
        def generator():
            rng = np.random.default_rng(9)
            rng.random(before, dtype=np.float32)
            return rng

        expected, rng = generator(), generator()
        keep = expected.random(n, dtype=np.float32) >= 0.35
        out = dropout(Tensor(np.ones(n, dtype=np.float32)), 0.35, rng, train=True)
        np.testing.assert_array_equal(out.data != 0, keep)
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_needs_a_pcg64_generator(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(NumericError, match="PCG64"):
            dropout(Tensor(np.ones(4)), 0.5, rng, train=True)


# where a mask op's bits can slip: NaN, signed zeros, infinities, numbers
# either side of zero (subnormal in float32) and a large one
EDGE_VALUES = (np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45, 2.5, -2.5, 1e30)


def edge_cases(rng, dtype):
    """(x, g) pairs of dtype: each edge value as a 0-d input with another
    as its gradient, then 1-d and 3-d inputs and gradients drawn from the
    edge values, around a byte of the packed mask and over three of its
    blocks. 0 * inf makes NaN here, as it does in the op."""
    def draw(shape):
        return rng.choice(np.array(EDGE_VALUES), size=shape).astype(dtype)

    zero_d = [(np.asarray(v, dtype=dtype), np.asarray(EDGE_VALUES[i - 3], dtype=dtype))
              for i, v in enumerate(EDGE_VALUES)]
    shapes = ((1,), (7,), (8,), (9,), (10,), (4, 5, 3), (2 * BLOCK_ELEMS + 9,))
    return zero_d + [(draw(shape), draw(shape)) for shape in shapes]


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (a, b)


class TestPackedMasks:
    """The bits a mask op saves unpack to its mask: ``x >= 0`` for leaky
    ReLU (NaN and -0.0 included), the keep mask for dropout."""

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (8,), (9,)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip(self, shape, dtype, rng):
        x = rng.choice(np.array([np.nan, 0.0, -0.0, 1.5, -1.5]), size=shape).astype(dtype)
        leaky = leaky_relu(Tensor(x, requires_grad=True), 0.01)
        drop = dropout(Tensor(x, requires_grad=True), 0.35, np.random.default_rng(1), train=True)
        keep = np.random.default_rng(1).random(shape, dtype=np.float32) >= 0.35
        for out, mask in ((leaky, x >= 0), (drop, keep)):
            (bits,) = [v for v in saved_by(out) if isinstance(v, np.ndarray)]
            assert bits.dtype == np.uint8 and bits.shape == ((x.size + 7) // 8,)
            np.testing.assert_array_equal(np.unpackbits(bits)[: x.size].view(bool),
                                          np.ravel(mask))
            assert not np.unpackbits(bits)[x.size :].any()  # the last byte's padding


class TestMaskOpsMatchTheFloatMultiplier:
    """leaky_relu and dropout keep a packed mask, and still compute x * m
    forward and g * m backward for the float multiplier m they once saved
    (``reference.leaky_slope``, ``reference.dropout_scale``), bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0.01, 0.3])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_leaky_relu(self, dtype, alpha, rng):
        for x, g in edge_cases(rng, dtype):
            t = Tensor(x, requires_grad=True)
            out = leaky_relu(t, alpha)
            slope = reference.leaky_slope(x, alpha)
            assert_same_bits(out.data, x * slope)
            out.node._backward(g)
            assert_same_bits(t.grad, g * slope)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.35, 0.5])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_dropout(self, dtype, rate, rng):
        for seed in range(3):  # a 0-d input is kept for some seeds and dropped for others
            for x, g in edge_cases(rng, dtype):
                t = Tensor(x, requires_grad=True)
                out = dropout(t, rate, np.random.default_rng(seed), train=True)
                keep = np.random.default_rng(seed).random(x.shape, dtype=np.float32) >= rate
                scale = reference.dropout_scale(keep, rate, dtype)
                assert_same_bits(out.data, x * scale)
                out.node._backward(g)
                assert_same_bits(t.grad, g * scale)


class TestGlobalAvgPool:
    def test_constant_time_axis(self):
        x = np.tile(np.array([[1.0, 2.0]]), (3, 4, 1))
        out = global_avg_pool(Tensor(x))
        np.testing.assert_allclose(out.data, np.tile([1.0, 2.0], (3, 1)))

    def test_two_step_mean(self):
        x = np.array([[[0.0], [2.0]]])
        assert global_avg_pool(Tensor(x)).data[0, 0] == 1.0

    def test_single_step_identity(self, rng):
        x = rng.normal(size=(2, 1, 3))
        np.testing.assert_array_equal(global_avg_pool(Tensor(x)).data, x[:, 0, :])


class TestDense:
    def test_identity_weights(self, rng):
        x = rng.normal(size=(4, 3))
        out = dense(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x)

    def test_zero_input_broadcasts_bias(self):
        b = np.array([1.0, -1.0])
        out = dense(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 2))), Tensor(b))
        np.testing.assert_allclose(out.data, np.tile(b, (3, 1)))

    def test_hand_arithmetic(self):
        x = np.array([[2.0, 3.0]])
        w = np.array([[4.0], [5.0]])
        out = dense(Tensor(x), Tensor(w), Tensor(np.array([1.0])))
        assert out.data[0, 0] == 2 * 4 + 3 * 5 + 1

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        finite_diff_check(lambda: tsum(mul(dense(x, w, b), dense(x, w, b))), [x, w, b])

    def test_gradients_without_bias(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        finite_diff_check(lambda: tsum(mul(dense(x, w), dense(x, w))), [x, w])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [True, False])
    def test_is_the_matmul_and_batch_sum(self, dtype, bias, rng):
        # the operand GEMMs, and the bias gradient as a GEMV against ones,
        # bit for bit
        x, w, b, g = (rng.normal(size=shape).astype(dtype)
                      for shape in ((6, 4), (4, 3), (3,), (6, 3)))
        tensors = [Tensor(a, requires_grad=True) for a in (x, w, b)[: 2 + bias]]
        out = dense(*tensors)
        assert_same_bits(out.data, x @ w + b if bias else x @ w)
        out.node._backward(g)
        wants = (g @ w.T, x.T @ g, np.ones(6, dtype=dtype) @ g)
        for t, want in zip(tensors, wants):
            assert_same_bits(t.grad, want)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = softmax(Tensor(np.full(5, 3.3)))
        np.testing.assert_allclose(out.data, 0.2, rtol=1e-15)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=5)
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 123.456)).data
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_hand_values(self):
        out = softmax(Tensor(np.array([np.log(2.0), 0.0, 0.0, 0.0, 0.0])))
        np.testing.assert_allclose(out.data, [2 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6], rtol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=5, max_size=5))
    def test_sums_to_one(self, logits):
        out = softmax(Tensor(np.array(logits)))
        assert abs(out.data.sum() - 1.0) < 1e-12
        assert (out.data > 0).all()

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        finite_diff_check(lambda: tsum(mul(softmax(x), np.arange(20.0).reshape(4, 5))), [x])


class TestEmbeddingAdd:
    """The sector fold: table rows passed through a conv kernel's tap sum,
    added at every time step of the conv's output."""

    def test_gradients(self, rng):
        # x and w are independent leaves here, so w's gradient is the fold's
        # term alone; TestFullModelGradients checks it beside the conv's
        x = Tensor(rng.normal(size=(4, 6, 3)), requires_grad=True)
        table = Tensor(rng.normal(size=(12, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        ids = np.array([0, 3, 3, 11])

        def loss():
            y = embedding_add(x, table, w, ids)
            return tsum(mul(y, y))

        finite_diff_check(loss, [x, table, w])

    def test_maps_a_time_constant_row_through_the_conv(self, rng):
        x, table = rng.normal(size=(2, 7, 3)), rng.normal(size=(12, 3))
        ids = np.array([4, 9])
        w = Tensor(rng.normal(size=(3, 3, 4)))
        added = conv1d_valid(Tensor(x + table[ids][:, None, :]), w).data
        folded = embedding_add(conv1d_valid(Tensor(x), w), Tensor(table), w, ids).data
        np.testing.assert_allclose(added, folded, rtol=1e-12, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(NumericError):
            embedding_add(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((12, 3))),
                          Tensor(np.zeros((1, 3, 3))), np.array([12]))


def assert_within_eps(got, want, magnitude, n_eps, dtype):
    """|got - want| <= n_eps * eps(dtype) * magnitude, elementwise; the
    magnitude is the quantity evaluated on absolute values, so the bound
    scales with rounding and not with cancellation."""
    got = np.asarray(got)
    assert got.shape == np.shape(want)
    bound = n_eps * np.finfo(dtype).eps * magnitude
    err = np.abs(got.astype(np.float64) - want)
    assert (err <= bound).all(), f"worst {np.max(err / np.maximum(bound, 1e-300)):.3g} of the bound"


class TestChannelRule:
    """Every per-channel op against the float64 oracle in tests/reference.py,
    which computes the same outputs and gradients with numpy's axis
    reductions and last-axis broadcasts.

    Widths 1, 2, 4, 48 and 96; (batch, c) and (batch, time, c) activations
    with time 1 drawn on purpose; float32 and float64. Every tolerance is
    32 eps of the op's dtype times the magnitude of the quantity (see
    ``assert_within_eps``); over 3,000 draws the worst error was 3.5 eps in
    float32 and 9.2 eps in float64.
    """

    N_EPS = 32

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.sampled_from([1, 2, 4, 48, 96]),
           batch=st.integers(1, 40), steps=st.sampled_from([None, 1, 2, 5, 18]),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_ops_match_the_axis_reduction_oracle(self, seed, c, batch, steps, dtype):
        rng = np.random.default_rng(seed)
        shape = (batch, c) if steps is None else (batch, steps, c)
        x = (rng.uniform(-2, 2, size=c) + rng.uniform(0.5, 3, size=c)
             * rng.normal(size=shape)).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        self.check_batch_norm(rng, x, g, dtype)
        if steps is None:
            self.check_dense_bias(rng, x, g, dtype)
        else:
            self.check_conv(rng, x, g, dtype)
            self.check_global_avg_pool(rng, x, dtype)
            self.check_embedding_add(rng, x, g, dtype)

    def check(self, got, want, magnitude, dtype):
        assert got.dtype == dtype
        assert_within_eps(got, want, magnitude, self.N_EPS, dtype)

    @staticmethod
    def backward(out, g):
        """Differentiate sum(out * g), so out's gradient is g exactly."""
        tsum(mul(out, g)).backward()

    def check_batch_norm(self, rng, x, g, dtype):
        c = x.shape[-1]
        n = x.size // c
        gamma = rng.uniform(0.5, 1.5, size=c).astype(dtype)
        beta = rng.normal(size=c).astype(dtype)
        state = BatchNormState(c)
        state.running_mean = rng.normal(size=c)
        state.running_var = rng.uniform(0.5, 2.0, size=c)
        before = state.copy()
        tensors = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        out = batch_norm(*tensors, state, train=True)
        self.backward(out, g)
        want = reference.batch_norm_train(x, gamma, beta, before.running_mean,
                                          before.running_var, BN_MOMENTUM, BN_EPS, g)
        # magnitudes: every term on absolute values; |x - mu| <= |x| + mean|x|
        m = BN_MOMENTUM
        x64, g64 = x.astype(np.float64).reshape(n, c), np.abs(g.astype(np.float64)).reshape(n, c)
        spread = np.abs(x64) + np.abs(x64).mean(axis=0)
        inv = 1.0 / np.sqrt(x64.var(axis=0) + BN_EPS)
        sum_g = g64.sum(axis=0)
        sum_gx = (g64 * spread * inv).sum(axis=0)
        magnitudes = (
            (np.abs(gamma) * inv * spread + np.abs(beta)).reshape(x.shape),
            m * np.abs(before.running_mean) + (1 - m) * np.abs(x64).mean(axis=0),
            m * before.running_var + (1 - m) * (spread**2).mean(axis=0),
            (np.abs(gamma) * inv * (g64 + (sum_g + spread * inv * sum_gx) / n)).reshape(x.shape),
            sum_gx,
            sum_g,
        )
        got = (out.data, state.running_mean, state.running_var,
               tensors[0].grad, tensors[1].grad, tensors[2].grad)
        for name, a, b, mag in zip(("out", "mean", "var", "dx", "dgamma", "dbeta"),
                                   got, want, magnitudes):
            assert a.dtype == (np.float64 if name in ("mean", "var") else dtype), name
            assert_within_eps(a, b, mag, self.N_EPS, dtype)

        infer = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), before, train=False)
        scale = np.abs(gamma) / np.sqrt(before.running_var + BN_EPS)
        self.check(infer.data, reference.batch_norm_infer(
            x, gamma, beta, before.running_mean, before.running_var, BN_EPS),
            np.abs(x) * scale + np.abs(beta) + np.abs(before.running_mean) * scale, dtype)

    def check_dense_bias(self, rng, x, g, dtype):
        c = x.shape[-1]
        w, b = (Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                for shape in ((c, c), (c,)))
        self.backward(dense(Tensor(x), w, b), g)
        self.check(b.grad, reference.dense_bias_grad(g), reference.dense_bias_grad(np.abs(g)),
                   dtype)

    def check_conv(self, rng, out, g, dtype):
        batch, steps, c = out.shape
        k, c_in = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        x = Tensor(rng.normal(size=(batch, steps + k - 1, c_in)).astype(dtype))
        w = Tensor(rng.normal(size=(k, c_in, c)).astype(dtype), requires_grad=True)
        y = conv1d_valid(x, w)
        self.backward(y, g)
        want = reference.valid_conv(x.data, w.data, g)
        magnitude = reference.valid_conv(*map(np.abs, (x.data, w.data, g)))
        for got, a, mag in zip((y.data, w.grad), want, magnitude):
            self.check(got, a, mag, dtype)

    def check_global_avg_pool(self, rng, x, dtype):
        g = rng.normal(size=(x.shape[0], x.shape[2])).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        y = global_avg_pool(xt)
        self.backward(y, g)
        want = reference.time_mean_pool(x, g)
        magnitude = reference.time_mean_pool(np.abs(x), np.abs(g))
        for got, a, mag in zip((y.data, xt.grad), want, magnitude):
            self.check(got, a, mag, dtype)

    def check_embedding_add(self, rng, x, g, dtype):
        ids = rng.integers(0, 11, size=x.shape[0])
        k, c_in = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        xt = Tensor(x, requires_grad=True)
        table, w = (Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                    for shape in ((11, c_in), (k, c_in, x.shape[2])))
        y = embedding_add(xt, table, w, ids)
        self.backward(y, g)
        want = reference.sector_rows_add(x, table.data, w.data, ids, g)
        magnitude = reference.sector_rows_add(*map(np.abs, (x, table.data, w.data)), ids,
                                              np.abs(g))
        for got, a, mag in zip((y.data, table.grad, w.grad), want, magnitude):
            self.check(got, a, mag, dtype)
        np.testing.assert_array_equal(xt.grad, g)


class TestBackward:
    def test_single_dense_mse_matches_hand_formula(self, rng):
        # loss = (w.x - y)^2 -> dL/dw = 2 (w.x - y) x
        x = rng.normal(size=(1, 3))
        w = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        y = 0.7
        pred_minus = dense(Tensor(x), w, Tensor(np.array([-y])))
        loss = tsum(mul(pred_minus, pred_minus))
        loss.backward()
        residual = float((x @ w.data)[0, 0] - y)
        np.testing.assert_allclose(w.grad, 2 * residual * x.T, rtol=1e-12)

    def test_zero_input_gives_zero_weight_gradient(self):
        x = Tensor(np.zeros((2, 3)))
        w = Tensor(np.ones((3, 1)), requires_grad=True)
        out = dense(x, w)
        loss = tsum(mul(out, out))
        loss.backward()
        np.testing.assert_array_equal(w.grad, np.zeros((3, 1)))

    def test_backward_needs_scalar(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(NumericError):
            mul(x, x).backward()

    def test_gradient_accumulates_across_reuse(self, rng):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = mul(x, x)  # x^2, dy/dx = 2x = 4
        y.backward()
        assert float(x.grad) == 4.0

    def test_log_clip_zero_gradient_below_clip(self):
        # both entries labelled, unit weight: loss = -(ln 1e-12 + ln 0.5)
        x = Tensor(np.array([[1e-15, 0.5]]), requires_grad=True)
        loss = weighted_cross_entropy(x, np.ones((1, 2)), np.ones(1), 1e-12)
        loss.backward()
        assert x.grad[0, 0] == 0.0
        assert x.grad[0, 1] == pytest.approx(-2.0)


def float32_cases(rng) -> dict:
    """Each op applied to float32 tensors: name -> (output, differentiable inputs).

    The constants mixed in (one-hot rows, float64 arrays, Python scalars) are
    the ones that would upcast a float32 graph if an op let them. The generic
    ops of the loss oracle are here too: its bits are only comparable with
    the loss nodes' while it keeps float32 as well.
    """

    def f32(*shape):
        return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

    a, w, b = f32(3, 4), f32(4, 2), f32(2)
    seq, kernel, table, fold = f32(2, 7, 3), f32(3, 3, 4), f32(12, 3), f32(2, 3, 3)
    gamma, beta, column = f32(3), f32(3), f32(3, 1)
    positive = Tensor(rng.uniform(0.1, 1.0, size=(3, 4)).astype(np.float32),
                      requires_grad=True)
    return {
        "sub_const": (sub(np.ones((3, 4)), a), [a]),
        "mul_one_hot": (mul(np.eye(4)[:3], a), [a]),
        "neg": (neg(a), [a]),
        "pow_const": (pow_const(a, 2.0), [a]),
        "log_clip": (log_clip(positive), [positive]),
        "tsum": (tsum(a, axis=1), [a]),
        "mean": (mean(a), [a]),
        "dense_hidden": (dense(a, w), [a, w]),
        "dense": (dense(a, w, b), [a, w, b]),
        "conv1d_valid": (conv1d_valid(seq, kernel), [seq, kernel]),
        "embedding_add": (embedding_add(seq, table, fold, np.array([0, 5])), [seq, table, fold]),
        "batch_norm_train": (batch_norm(seq, gamma, beta, BatchNormState(3), train=True),
                             [seq, gamma, beta]),
        "batch_norm_infer": (batch_norm(seq, gamma, beta, BatchNormState(3), train=False),
                             [seq, gamma, beta]),
        "leaky_relu": (leaky_relu(a, 0.01), [a]),
        "dropout_train": (dropout(a, 0.35, np.random.default_rng(0), train=True), [a]),
        "dropout_infer": (dropout(a, 0.35, None, train=False), [a]),
        "global_avg_pool": (global_avg_pool(seq), [seq]),
        "softmax": (softmax(a), [a]),
        "weighted_cross_entropy": (
            weighted_cross_entropy(positive, np.eye(4)[[0, 2, 3]], np.array([0.1, 0.02, 0.5]),
                                   1e-12),
            [positive]),
        "mean_squared_error": (mean_squared_error(column, np.array([0.01, -0.02, 0.03])),
                               [column]),
    }


FLOAT32_OPS = ("sub_const", "mul_one_hot", "neg", "pow_const", "log_clip", "tsum", "mean",
               "dense_hidden", "dense", "conv1d_valid", "embedding_add",
               "batch_norm_train", "leaky_relu", "dropout_train", "global_avg_pool",
               "softmax", "weighted_cross_entropy", "mean_squared_error")
INFER_OPS = ("batch_norm_infer", "dropout_infer")


class TestFloat32:
    @pytest.mark.parametrize("name", FLOAT32_OPS)
    def test_op_keeps_float32_output_and_gradients(self, name, rng):
        out, inputs = float32_cases(rng)[name]
        assert out.data.dtype == np.float32
        # a float64 upstream weight must not upcast the gradients either
        loss = tsum(mul(out, rng.normal(size=out.shape)))
        assert loss.data.dtype == np.float32
        loss.backward()
        for t in inputs:
            assert t.grad is not None and t.grad.dtype == np.float32, name

    @pytest.mark.parametrize("name", INFER_OPS)
    def test_infer_mode_keeps_float32_and_builds_no_backward(self, name, rng):
        out, _ = float32_cases(rng)[name]
        assert out.data.dtype == np.float32
        assert out.node._parents == () and out.node._backward is None

    def test_gradient_takes_its_tensors_dtype(self, rng):
        a = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        tsum(mul(a, b)).backward()
        assert a.grad.dtype == np.float32
        assert b.grad.dtype == np.float64

    def test_float64_stays_float64(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        loss = tsum(leaky_relu(x, 0.01))
        loss.backward()
        assert loss.data.dtype == x.grad.dtype == np.float64

    def test_other_inputs_become_float64(self):
        assert Tensor(np.arange(3, dtype=np.int32)).data.dtype == np.float64
        assert Tensor(np.ones(2, dtype=np.float16)).data.dtype == np.float64
        assert Tensor(1.0).data.dtype == np.float64


def memory_rule_cases(rng) -> dict:
    """Each op on fresh leaves: name -> (output, inputs, indices of the inputs
    whose arrays its backward reads, whether it reads its own output)."""

    def leaf(*shape):
        return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

    def case(op, inputs, reads=(), reads_output=False, args=()):
        return op(*inputs, *args), inputs, set(reads), reads_output

    seq = (4, 7, 3)
    positive = Tensor(rng.uniform(0.1, 1.0, size=(4, 5)).astype(np.float32), requires_grad=True)
    return {
        # both operands' arrays are read; the bias's is not
        "dense": case(dense, [leaf(4, 3), leaf(3, 2), leaf(2)], reads=(0, 1)),
        "conv1d_valid": case(conv1d_valid, [leaf(*seq), leaf(3, 3, 2)], reads=(0, 1)),
        # the table's array is read; the kernel only through its tap sum
        "embedding_add": case(embedding_add, [leaf(*seq), leaf(12, 2), leaf(3, 2, 3)], reads=(1,),
                              args=(np.array([0, 5, 5, 11]),)),
        # gamma's array (a parameter's) is read; the input, its output and beta are not
        "batch_norm": case(batch_norm, [leaf(*seq), leaf(3), leaf(3)], reads=(1,),
                           args=(BatchNormState(3), True)),
        "leaky_relu": case(leaky_relu, [leaf(*seq)], args=(0.01,)),
        "dropout": case(dropout, [leaf(*seq)], args=(0.35, np.random.default_rng(0), True)),
        "global_avg_pool": case(global_avg_pool, [leaf(*seq)]),
        "softmax": case(softmax, [leaf(4, 5)], reads_output=True),
        "weighted_cross_entropy": case(
            weighted_cross_entropy, [positive], reads=(0,),
            args=(np.eye(5)[[0, 2, 3, 4]], np.array([0.1, 0.02, 0.5, 0.3]), 1e-12)),
        "mean_squared_error": case(mean_squared_error, [leaf(4, 1)],
                                   args=(np.array([0.01, -0.02, 0.03, 0.0]),)),
    }


MEMORY_RULE_OPS = ("dense", "conv1d_valid", "embedding_add", "batch_norm",
                   "leaky_relu", "dropout", "global_avg_pool", "softmax",
                   "weighted_cross_entropy", "mean_squared_error")


def saved_by(t: Tensor) -> list:
    """What the backward closure of t's node holds."""
    return [cell.cell_contents for cell in t.node._backward.__closure__]


class TestMemoryRule:
    """A backward closure holds its parents' nodes and only the arrays its
    formula reads; an array nothing saved dies with its Tensor, and backward()
    frees what the graph saved."""

    @pytest.mark.parametrize("name", MEMORY_RULE_OPS)
    def test_closure_keeps_only_what_backward_reads_until_backward(self, name, rng):
        out, inputs, reads, reads_output = memory_rule_cases(rng)[name]
        saved = saved_by(out)
        assert not any(isinstance(v, Tensor) for v in saved), name
        input_refs = [weakref.ref(t.data) for t in inputs]
        out_ref = weakref.ref(out.data)
        saved_refs = [weakref.ref(v) for v in saved if isinstance(v, np.ndarray)]
        loss = tsum(out)  # a sum reads only its input's shape
        del out, inputs, saved
        for i, ref in enumerate(input_refs):
            assert (ref() is not None) == (i in reads), (name, i)
        assert (out_ref() is not None) == reads_output, name
        assert all(ref() is not None for ref in saved_refs), name
        loss.backward()
        assert all(ref() is None for ref in input_refs + saved_refs + [out_ref]), name

    @pytest.mark.parametrize("name", ["leaky_relu", "dropout"])
    def test_mask_ops_save_one_packed_bit_array(self, name, rng):
        # the mask packed to one bit per element: ceil(84 / 8) = 11 bytes,
        # not a 1-byte bool mask or an activation-sized float multiplier
        out = memory_rule_cases(rng)[name][0]
        arrays = [v for v in saved_by(out) if isinstance(v, np.ndarray)]
        assert [(a.dtype, a.shape) for a in arrays] == [(np.dtype(np.uint8),
                                                          (-(-out.data.size // 8),))]

    def test_gradient_takes_the_dtype_its_data_has_at_backward(self, rng):
        w = Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True)
        w.data = w.data.astype(np.float64)
        tsum(dense(Tensor(rng.normal(size=(4, 3))), w)).backward()
        assert w.grad.dtype == np.float64
