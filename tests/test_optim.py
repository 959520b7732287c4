import numpy as np
import pytest

from stockrank.nn.autograd import Tensor
from stockrank.nn.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EARLY_STOP_PATIENCE,
    PLATEAU_FACTOR,
    PLATEAU_PATIENCE,
    AdamOptimizer,
)


def make_param(values):
    return Tensor(np.array(values, dtype=float), requires_grad=True)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = make_param([1.0, -2.0])
        opt = AdamOptimizer([p], lr=0.01)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_matches_hand_formula(self):
        # With constant gradient g, step 1 moves by lr * g / (|g| + eps).
        g = np.array([0.3, -0.7])
        p = make_param([0.0, 0.0])
        opt = AdamOptimizer([p], lr=0.01)
        p.grad = g.copy()
        opt.step()
        expected = -0.01 * g / (np.abs(g) + ADAM_EPS)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12)
        # magnitude is nearly lr in each coordinate (sign-scaled step)
        np.testing.assert_allclose(np.abs(p.data), 0.01, rtol=1e-6)

    def test_bias_correction_sequence(self):
        # two steps with the same gradient, checked against a direct rollout
        g = np.array([0.5])
        p = make_param([1.0])
        opt = AdamOptimizer([p], lr=0.1)
        m = v = 0.0
        x = 1.0
        for t in range(1, 3):
            p.grad = g.copy()
            opt.step()
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g[0]
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g[0] ** 2
            mhat = m / (1 - ADAM_BETA1**t)
            vhat = v / (1 - ADAM_BETA2**t)
            x = x - 0.1 * mhat / (np.sqrt(vhat) + ADAM_EPS)
            assert p.data[0] == pytest.approx(x, rel=1e-14)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(9)
            p = make_param(rng.normal(size=8))
            opt = AdamOptimizer([p], lr=0.01)
            for _ in range(25):
                p.grad = rng.normal(size=8)
                opt.step()
            return p.data.copy()

        a, b = run(), run()
        np.testing.assert_array_equal(a, b)

    def test_state_dict_round_trip(self):
        p = make_param([1.0, 2.0])
        opt = AdamOptimizer([p], lr=0.01)
        p.grad = np.array([0.1, 0.2])
        opt.step()
        state = opt.state_dict()
        p2 = make_param([0.0, 0.0])
        opt2 = AdamOptimizer([p2], lr=0.5)
        opt2.load_state_dict(state)
        assert opt2.lr == opt.lr
        assert opt2.step_count == 1
        np.testing.assert_array_equal(opt2.m[0], opt.m[0])


class TestScheduleConstants:
    """The values models.train_period schedules with; its tests cover the
    schedule itself."""

    def test_patience_is_five_epochs(self):
        assert PLATEAU_PATIENCE == 5

    def test_patience_is_twenty_epochs(self):
        assert EARLY_STOP_PATIENCE == 20

    def test_plateau_halves_the_rate(self):
        assert PLATEAU_FACTOR == 0.5
