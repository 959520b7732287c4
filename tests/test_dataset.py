import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockrank import indicators
from stockrank.dataset import (
    SplitPlan,
    Windows,
    assign_label,
    cap_return,
    return_matrix,
    standardize,
)
from stockrank.config import RunConfig
from stockrank.errors import DataError
from stockrank.indicators import BASIC_FEATURE_NAMES, FeaturePanel, assemble_panel
from stockrank.market_data import OPEN, apply_dead_stock_rule

from conftest import (
    config_plans,
    config_samples,
    make_stock,
    make_universe,
    random_walk_universe,
    traced_peak,
)
from reference import daily_return, gather_windows, whole_standardize, window_gather

CFG = RunConfig()
THRESHOLDS, CAP = CFG.label_thresholds, CFG.return_cap


class TestSplitPlans:
    def test_first_plan_layout(self):
        plans = config_plans(1782)
        assert plans[0].std_range == (0, 200)
        assert plans[0].trainval_range == (200, 400)
        assert plans[0].test_range == (400, 420)

    def test_plans_shift_by_twenty(self):
        plans = config_plans(1782)
        for prev, cur in zip(plans, plans[1:]):
            assert cur.std_range[0] - prev.std_range[0] == 20
            assert cur.trainval_range[0] - prev.trainval_range[0] == 20
            assert cur.test_range[0] - prev.test_range[0] == 20

    def test_five_year_panel_produces_67_periods(self):
        # 400 lead-in days + 67 periods * 20 test days + 2 label days
        assert len(config_plans(1742)) == 67

    def test_too_short_calendar(self):
        with pytest.raises(DataError, match="at least"):
            config_plans(421)

    def test_last_plan_leaves_room_for_labels(self):
        plans = config_plans(1782)
        last = plans[-1]
        assert last.test_range[1] - 1 + 2 < 1782

    def test_offset_shifts_everything(self):
        plans = config_plans(500, offset=50)
        assert plans[0].std_range == (50, 250)
        assert plans[0].test_range == (450, 470)

    def test_window_must_start_inside_the_std_range(self):
        # the first train anchor's window reaches m - 1 days back
        plans = config_plans(600, m=21, std_days=20, trainval_days=40)
        assert plans[0].std_range == (0, 20)
        with pytest.raises(DataError, match="m - 1 must be <= std_days"):
            config_plans(600, m=22, std_days=20, trainval_days=40)

    def test_contiguity_enforced(self):
        with pytest.raises(DataError, match="contiguous"):
            SplitPlan(0, (0, 200), (201, 401), (401, 421))


def flat_panel(universe):
    return assemble_panel(universe, BASIC_FEATURE_NAMES)


def std_range_stats(panel, plan):
    """Per (stock, feature) mean and population std over the plan's std range."""
    s0, s1 = plan.std_range
    base = panel.values[:, s0:s1, :]
    return base.mean(axis=1), base.std(axis=1)


class TestStandardize:
    def _panel_and_plan(self, rng, n_stocks=3, n_days=500):
        u = random_walk_universe(rng, n_stocks, n_days)
        panel = flat_panel(u)
        plans = config_plans(n_days, offset=panel.first_all_valid_day)
        return u, panel, plans[0]

    def test_constant_feature_maps_to_zero(self):
        u = make_universe({"AAA": [5.0] * 500}, volumes={"AAA": [1000] * 500})
        panel = flat_panel(u)
        plan = config_plans(500, offset=panel.first_all_valid_day)[0]
        scaled = standardize(panel, plan)
        col = panel.feature_names.index("dollar_volume")
        # constant 5.0 * 1000 everywhere: sigma 0, value - mean = 0
        np.testing.assert_allclose(scaled[0, :, col], 0.0, atol=1e-15)

    def test_hand_arithmetic(self, rng):
        u, panel, plan = self._panel_and_plan(rng)
        scaled = standardize(panel, plan)
        mean, std = std_range_stats(panel, plan)
        si, fj = 1, 3
        raw = panel.values[si, plan.trainval_range[0], fj]
        mu = mean[si, fj]
        sd = std[si, fj]
        expected = (raw - mu) / max(sd, 1e-8)
        got = scaled[si, plan.trainval_range[0] - plan.std_range[0], fj]
        assert got == pytest.approx(expected, rel=1e-12)
        assert (14.0 - 10.0) / 2.0 == 2.0  # the documented example shape

    def test_zero_sigma_large_finite(self):
        # constant over the std range, different later: epsilon guard kicks in
        opens = [5.0] * 260 + [6.0] * 240
        u = make_universe({"AAA": opens}, volumes={"AAA": [1000] * 500})
        panel = flat_panel(u)
        plan = config_plans(500, offset=panel.first_all_valid_day)[0]
        scaled = standardize(panel, plan)
        col = panel.feature_names.index("dollar_volume")
        sd = std_range_stats(panel, plan)[1][0, col]
        assert sd == 0.0
        late = scaled[0, -1, col]
        assert np.isfinite(late)
        assert late == pytest.approx((6000.0 - 5000.0) / 1e-8, rel=1e-9)

    def test_std_range_self_standardizes(self, rng):
        u, panel, plan = self._panel_and_plan(rng)
        scaled = standardize(panel, plan)
        s0, s1 = plan.std_range
        base = scaled[:, : s1 - s0, :]
        mask = std_range_stats(panel, plan)[1] > 1e-8
        mu = base.mean(axis=1)[mask]
        sd = base.std(axis=1)[mask]
        np.testing.assert_allclose(mu, 0.0, atol=1e-9)
        np.testing.assert_allclose(sd, 1.0, atol=1e-9)

    def test_float32_span_is_the_float64_quotient_cast_down(self, rng):
        # standardize writes the float32 span straight from the float64
        # quotient: its bits are those of the quotient's astype, NaN, inf
        # and signed zeros included
        u, panel, plan = self._panel_and_plan(rng)
        values = panel.values.copy()
        cells = rng.integers(0, values.size, size=60)
        values.flat[cells] = rng.choice(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300]),
                                        size=60)
        panel = dataclasses.replace(panel, values=values)
        with np.errstate(invalid="ignore", over="ignore"):
            span = standardize(panel, plan, np.float32)
            float64 = standardize(panel, plan)
            assert span.tobytes() == float64.astype(np.float32).tobytes()
        assert span.dtype == np.float32 and float64.dtype == np.float64
        assert np.isnan(span).any() and np.isinf(span).any()

    @pytest.mark.parametrize("budget", [1, 2 * 420 * 12 + 5, indicators.BLOCK_ELEMS])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_blocked_span_is_the_whole_span_bit_for_bit(self, rng, monkeypatch, budget, dtype):
        # 5 stocks, a span of 420 days of 12 features: each stock alone,
        # blocks of 2 stocks ending mid-universe with a short last block,
        # and the whole universe in one block; NaN, inf and a constant
        # feature included
        monkeypatch.setattr(indicators, "BLOCK_ELEMS", budget)
        u, panel, plan = self._panel_and_plan(rng, n_stocks=5)
        values = panel.values.copy()
        cells = rng.integers(0, values.size, size=40)
        values.flat[cells] = rng.choice(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0]), size=40)
        values[2, :, 4] = 3.0
        panel = dataclasses.replace(panel, values=values)
        with np.errstate(invalid="ignore", over="ignore"):
            got = standardize(panel, plan, dtype)
            whole = whole_standardize(panel, plan, dtype)
        assert got.dtype == whole.dtype and got.shape == whole.shape == (5, 420, 12)
        assert got.tobytes() == whole.tobytes()

    def test_peak_is_the_span_and_one_block(self, rng):
        # 120 stocks, a float32 span of 420 days of 12 features (2.4 MB),
        # in blocks of 52 stocks: beside the span, one block's float64
        # deviations from the mean, 1.05 blocks in all. With the whole
        # span's float64 deviations and quotient, 2.4 blocks
        n_stocks, n_days, n_features = 120, 700, 12
        panel = FeaturePanel(tuple(f"T{i}" for i in range(n_stocks)), tuple(range(n_days)),
                             tuple(f"f{j}" for j in range(n_features)),
                             rng.normal(size=(n_stocks, n_days, n_features)),
                             np.zeros(n_features, dtype=int))
        plan = config_plans(n_days)[0]
        with traced_peak() as mem:
            span = standardize(panel, plan, np.float32)
        block = indicators.BLOCK_ELEMS * 8
        assert span.shape == (n_stocks, 420, n_features)
        assert mem.peak <= span.nbytes + 1.1 * block, (mem.peak - span.nbytes) / block

    def test_same_stats_for_train_and_test(self, rng):
        u, panel, plan = self._panel_and_plan(rng)
        scaled = standardize(panel, plan)
        mean, std = std_range_stats(panel, plan)
        d = plan.test_range[0]
        raw = panel.values[0, d, 0]
        got = scaled[0, d - plan.std_range[0], 0]
        assert got == pytest.approx((raw - mean[0, 0]) / max(std[0, 0], 1e-8), rel=1e-12)


class TestDailyReturn:
    def test_three_percent(self):
        u = make_stock([90.0, 100.0, 103.0, 104.0])
        assert daily_return(u, 0, 0) == pytest.approx(0.03, abs=1e-15)

    def test_no_change(self):
        u = make_stock([90.0, 100.0, 100.0])
        assert daily_return(u, 0, 0) == 0.0

    def test_dead_stock_returns_zero(self):
        u = make_universe({"AAA": [5.0, 0.05, 8.0, 9.0]})
        u = apply_dead_stock_rule(u, 0.1)
        # death on day 1; the return depending on day 2 >= death is zeroed
        assert daily_return(u, 0, 0) == 0.0

    def test_return_before_death_recorded_as_usual(self):
        opens = [10.0, 11.0, 12.0, 13.0, 0.05, 0.04, 0.03]
        u = apply_dead_stock_rule(make_universe({"AAA": opens}), 0.1)
        assert u.death_day[0] == 4
        assert daily_return(u, 0, 0) == pytest.approx(12.0 / 11.0 - 1.0)
        assert daily_return(u, 0, 1) == pytest.approx(13.0 / 12.0 - 1.0)
        assert daily_return(u, 0, 2) == 0.0  # needs day 4 = death day
        assert daily_return(u, 0, 4) == 0.0

    def test_out_of_range(self):
        u = make_stock([10.0, 10.0, 10.0])
        with pytest.raises(DataError):
            daily_return(u, 0, 1)

    def test_return_matrix_agrees_with_scalar_op(self, rng):
        u = apply_dead_stock_rule(random_walk_universe(rng, 4, 30), 0.1)
        mat = return_matrix(u)
        for si in range(u.n_stocks):
            for T in range(u.n_days - 2):
                assert mat[si, T] == daily_return(u, si, T)


class TestLabels:
    CLASS_NAMES = ("strong_sell", "sell", "hold", "buy", "strong_buy")  # one-hot column order

    @pytest.mark.parametrize(
        "r,expected",
        [
            (0.05, "strong_buy"),
            (0.03, "strong_buy"),
            (0.02, "buy"),
            (0.01, "hold"),  # inclusive upper bound
            (0.0, "hold"),
            (-0.01, "sell"),
            (-0.02, "sell"),
            (-0.03, "strong_sell"),  # inclusive
            (-0.08, "strong_sell"),
        ],
    )
    def test_boundaries(self, r, expected):
        label = assign_label(r, THRESHOLDS)
        assert self.CLASS_NAMES[int(np.argmax(label))] == expected
        assert label.sum() == 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            assign_label(float("nan"), THRESHOLDS)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        st.sampled_from([0.01, -0.01, 0.03, -0.03, 1e-9, -1e-9]),
    ))
    def test_partition_of_reals(self, r):
        label = assign_label(r, THRESHOLDS)
        assert label.shape == (5,)
        assert np.count_nonzero(label) == 1

    def test_symmetric_returns_symmetric_labels(self, rng):
        r = rng.normal(0, 0.02, size=200_000)
        r = np.concatenate([r, -r])  # exactly symmetric
        idx = np.array([int(np.argmax(assign_label(x, THRESHOLDS))) for x in r[:5000]])
        buys = np.sum(idx == 3)
        sells = np.sum(idx == 1)
        strong_b = np.sum(idx == 4)
        strong_s = np.sum(idx == 0)
        assert abs(buys - sells) < 4 * np.sqrt(buys + sells + 1)
        assert abs(strong_b - strong_s) < 4 * np.sqrt(strong_b + strong_s + 1)


LABEL_EDGES = [0.0, THRESHOLDS[0], -THRESHOLDS[0], THRESHOLDS[1], -THRESHOLDS[1], 1e-9, -1e-9]


def reference_label_index(r):
    """The documented piecewise class rule, one comparison at a time, at
    the config's thresholds."""
    lo, hi = THRESHOLDS
    if r >= hi:
        return 4
    if r > lo:
        return 3
    if r > -lo:
        return 2
    if r > -hi:
        return 1
    return 0


class TestArrayLabelsAndWeights:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                              st.sampled_from(LABEL_EDGES)), min_size=1, max_size=40))
    def test_array_equals_scalar_elementwise(self, values):
        r = np.array(values)
        labels = assign_label(r, THRESHOLDS)
        weights = cap_return(r, CAP)
        assert labels.shape == (len(values), 5)
        assert weights.shape == (len(values),)
        for i, x in enumerate(values):
            np.testing.assert_array_equal(labels[i], assign_label(x, THRESHOLDS))
            assert int(np.argmax(labels[i])) == reference_label_index(x)
            assert weights[i] == cap_return(x, CAP) == min(abs(x), 0.5)

    def test_edges_exactly(self):
        labels = assign_label(np.array(LABEL_EDGES), THRESHOLDS)
        assert [int(np.argmax(row)) for row in labels] == [2, 2, 1, 4, 0, 2, 2]
        np.testing.assert_array_equal(cap_return(np.array(LABEL_EDGES), CAP), np.abs(LABEL_EDGES))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=0, max_size=20),
           st.integers(min_value=0, max_value=20),
           st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    def test_any_non_finite_element_rejected(self, values, where, bad):
        values.insert(min(where, len(values)), bad)
        with pytest.raises(DataError, match="non-finite"):
            assign_label(np.array(values), THRESHOLDS)
        with pytest.raises(DataError, match="non-finite"):
            cap_return(np.array(values), CAP)


class TestCapReturn:
    def test_below_cutoff(self):
        assert cap_return(0.03, CAP) == 0.03

    def test_positive_cap(self):
        assert cap_return(0.7, CAP) == 0.5

    def test_negative_cap(self):
        # |r_cap| of the piecewise capped return: min(|r|, 0.5)
        assert cap_return(-0.8, CAP) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_zero_weight_iff_zero_return(self, r):
        w = cap_return(r, CAP)
        assert 0.0 <= w <= 0.5
        assert (w == 0.0) == (r == 0.0)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(77)
    u = apply_dead_stock_rule(random_walk_universe(rng, 10, 500), 0.1)
    panel = flat_panel(u)
    plan = config_plans(500, offset=panel.first_all_valid_day)[0]
    return u, panel, plan


class TestMakeSamples:
    def test_counts(self, setup):
        u, panel, plan = setup
        out = config_samples(panel, u, plan, return_matrix(u))
        assert len(out["train"]) == 1800
        assert len(out["val"]) == 200
        assert len(out["test"]) == 200

    def test_return_matrix_must_fit_the_universe(self, setup):
        u, panel, plan = setup
        with pytest.raises(DataError, match="return matrix"):
            config_samples(panel, u, plan, return_matrix(u)[:, :-1])

    def test_first_anchor_window_reaches_into_std_range(self, setup):
        u, panel, plan = setup
        out = config_samples(panel, u, plan, return_matrix(u))
        train = out["train"]
        first = int(np.argmin(train.anchor_days))
        anchor = int(train.anchor_days[first])
        assert anchor == plan.trainval_range[0]
        scaled = standardize(panel, plan).astype(np.float32)
        si = int(train.stock[first])
        lo = anchor - 19 - plan.std_range[0]
        np.testing.assert_array_equal(train.windows[first], scaled[si, lo : lo + 20, :])

    def test_sample_consistency(self, rng):
        walk = random_walk_universe(rng, 6, 500)
        opens = dict(zip(walk.tickers, walk.matrix(OPEN)))
        opens["T002"][330:] = 0.05  # dies inside the train range
        u = apply_dead_stock_rule(make_universe(opens), 0.1)
        panel = flat_panel(u)
        plan = config_plans(500, offset=panel.first_all_valid_day)[0]
        out = config_samples(panel, u, plan, return_matrix(u))
        scaled = standardize(panel, plan).astype(np.float32)
        anchors = {"train": range(plan.trainval_range[0], plan.trainval_range[1] - 20),
                   "val": range(plan.trainval_range[1] - 20, plan.trainval_range[1]),
                   "test": range(*plan.test_range)}
        for split, ss in out.items():
            # stock-major order: every stock's anchors in turn
            tickers = [u.tickers[s] for s in ss.stock]
            assert tickers == [t for t in u.tickers for _ in anchors[split]]
            assert ss.anchor_days.tolist() == list(anchors[split]) * u.n_stocks
            assert ss.windows.shape == (len(ss), 20, panel.n_features)
            for i in range(len(ss)):
                si = u.tickers.index(tickers[i])
                T = int(ss.anchor_days[i])
                expected_r = daily_return(u, si, T)
                assert ss.returns[i] == expected_r
                assert ss.weights[i] == cap_return(expected_r, CAP)
                np.testing.assert_array_equal(ss.labels[i], assign_label(expected_r, THRESHOLDS))
                assert ss.sector_ids[i] == u.sector_ids[si]
                lo = T - 19 - plan.std_range[0]
                np.testing.assert_array_equal(ss.windows[i], scaled[si, lo : lo + 20, :])
        dead = np.array(u.tickers)[out["train"].stock] == "T002"
        assert (out["train"].weights[dead & (out["train"].anchor_days >= 328)] == 0.0).all()

    def test_no_lookahead_beyond_label_horizon(self, setup):
        u, panel, plan = setup
        out = config_samples(panel, u, plan, return_matrix(u))
        horizon = plan.test_range[1] + 1  # last day any sample may read
        # perturb all opens strictly after the horizon and rebuild
        opens = dict(zip(u.tickers, u.matrix(OPEN)))
        for t in opens:
            opens[t][horizon + 1 :] *= 1.5
        u2 = make_universe(opens, calendar=u.calendar)
        u2 = apply_dead_stock_rule(u2, 0.1)
        panel2 = flat_panel(u2)
        out2 = config_samples(panel2, u2, plan, return_matrix(u2))
        for split in ("train", "val", "test"):
            np.testing.assert_array_equal(out[split].windows, out2[split].windows)
            np.testing.assert_array_equal(out[split].returns, out2[split].returns)
            np.testing.assert_array_equal(out[split].labels, out2[split].labels)

    def test_dead_stock_samples_zero_weight(self):
        opens = {"AAA": np.full(500, 5.0), "BBB": np.full(500, 7.0)}
        opens["AAA"][300:] = 0.05  # dies inside the trainval range
        u = apply_dead_stock_rule(make_universe(opens), 0.1)
        panel = flat_panel(u)
        plan = config_plans(500, offset=panel.first_all_valid_day)[0]
        out = config_samples(panel, u, plan, return_matrix(u))
        for split in ("train", "val", "test"):
            ss = out[split]
            for i in range(len(ss)):
                if u.tickers[ss.stock[i]] == "AAA" and ss.anchor_days[i] >= 298:
                    assert ss.weights[i] == 0.0
                    assert ss.returns[i] == 0.0


class TestWindows:
    """SampleSet.windows gathers each batch from the period's float32 span."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n_stocks=st.integers(1, 4), m=st.integers(2, 20),
           std_days=st.integers(20, 50), trainval_days=st.integers(12, 40),
           test_days=st.integers(1, 15), plan_pick=st.integers(0, 10_000),
           data=st.data())
    def test_every_index_kind_gathers_the_span_windows(self, seed, n_stocks, m, std_days,
                                                       trainval_days, test_days, plan_pick,
                                                       data):
        rng = np.random.default_rng(seed)
        u = random_walk_universe(rng, n_stocks, 200)
        panel = flat_panel(u)
        plans = config_plans(u.n_days, m=m, std_days=std_days,
                                  trainval_days=trainval_days, test_days=test_days,
                                  offset=panel.first_all_valid_day)
        plan = plans[plan_pick % len(plans)]
        val_days = data.draw(st.integers(1, trainval_days - 1), label="val_days")
        out = config_samples(panel, u, plan, return_matrix(u), m=m, val_days=val_days)
        scaled = standardize(panel, plan).astype(np.float32)
        for ss in out.values():
            w = ss.windows
            expected = gather_windows(scaled, plan, ss, m)
            assert w.dtype == np.float32
            assert w.shape == expected.shape == (len(ss), m, panel.n_features)
            assert w.size == expected.size
            assert len(w) == len(ss)
            everything = np.asarray(w)
            assert everything.dtype == np.float32
            np.testing.assert_array_equal(everything, expected)

            n = len(ss)
            picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n),
                              label="batch")
            lo, hi, step = data.draw(st.tuples(st.integers(-n, n), st.integers(-n, n),
                                               st.integers(1, 4)), label="slice")
            scalar = data.draw(st.integers(-n, n - 1), label="scalar")
            for idx in (rng.permutation(np.array(picks)), slice(lo, hi, step), scalar,
                        np.array([], dtype=int)):
                got = w[idx]
                assert got.dtype == np.float32
                assert got.shape == expected[idx].shape
                np.testing.assert_array_equal(got, expected[idx])

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**16), n_rows=st.integers(0, 4), n_days=st.integers(1, 30),
           n=st.integers(1, 4), m=st.integers(1, 25), data=st.data())
    def test_strided_view_matches_the_fancy_index_gather(self, seed, n_rows, n_days, n, m,
                                                         data):
        rng = np.random.default_rng(seed)
        span = rng.normal(size=(n_rows, n_days, n)).astype(np.float32)
        # every window that fits in a row, in a drawn order, the span's last one first
        fits = [(r, f) for r in range(n_rows) for f in range(n_days - m + 1)]
        order = data.draw(st.permutations(range(len(fits))), label="order")
        picked = [fits[i] for i in order[: data.draw(st.integers(0, len(fits)), label="k")]]
        if fits:
            picked.insert(0, fits[-1])
        stock = np.array([r for r, _ in picked], dtype=int)
        first_row = np.array([f for _, f in picked], dtype=int)
        w = Windows(span, stock, first_row, m)
        k = len(picked)
        assert len(w) == k and w.shape == (k, m, n) and w.dtype == np.float32
        idxs = [slice(None), np.array([], dtype=int),
                data.draw(st.slices(max(k, 1)), label="slice")]
        if k:
            idxs += [0, k - 1, -1, rng.integers(0, k, size=int(rng.integers(1, 3 * k + 1)))]
        for idx in idxs:
            got, want = w[idx], window_gather(span, stock, first_row, m, idx)
            assert got.dtype == np.float32 and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.asarray(w), window_gather(span, stock, first_row, m,
                                                                   slice(None)))
        if fits:  # the window that ends on the span's last day
            np.testing.assert_array_equal(w[0], span[-1, -m:])
        if k:
            with pytest.raises(ValueError):
                w[0][...] = 0.0  # an int gives a read-only view of the span

    def test_window_leaving_its_stocks_row_is_a_data_error(self, rng):
        span = np.zeros((3, 40, 2), dtype=np.float32)
        for first_row in (-1, 31):  # one day before the row, one day past it
            with pytest.raises(DataError, match="leaves its stock's row of 40 days"):
                Windows(span, [1], [first_row], 10)
        assert len(Windows(span, [0, 2], [0, 30], 10)) == 2
        # a hand-built plan whose 5-day std range cannot hold an m=10 window:
        # each stock's first train window starts 4 days before its row
        u = random_walk_universe(rng, 3, 120)
        panel = flat_panel(u)
        o = panel.first_all_valid_day
        plan = SplitPlan(0, (o, o + 5), (o + 5, o + 35), (o + 35, o + 40))
        with pytest.raises(DataError, match="m=10 days leaves its stock's row of 40 days"):
            config_samples(panel, u, plan, return_matrix(u), m=10)

    def test_span_shorter_than_m_has_only_empty_selections(self):
        for span in (np.zeros((0, 10, 6), dtype=np.float32),
                     np.ones((1, 3, 2), dtype=np.float32)):
            w = Windows(span, np.array([], dtype=int), np.array([], dtype=int), 5)
            assert len(w) == 0 and w.size == 0
            for idx in (slice(None), np.array([], dtype=int)):
                assert w[idx].shape == (0, 5, span.shape[2])
                assert w[idx].dtype == np.float32
            assert np.asarray(w).shape == (0, 5, span.shape[2])

    def test_sample_sets_retain_a_fraction_of_their_windows(self):
        u = random_walk_universe(np.random.default_rng(5), 20, 520)
        panel = flat_panel(u)
        plan = config_plans(u.n_days, offset=panel.first_all_valid_day)[0]
        returns = return_matrix(u)
        with traced_peak() as mem:
            out = config_samples(panel, u, plan, returns)
        n_samples = sum(len(ss) for ss in out.values())
        float32_windows = n_samples * 20 * panel.n_features * 4
        assert n_samples == 20 * 220
        assert mem.held < float32_windows / 4, (mem.held, float32_windows)
