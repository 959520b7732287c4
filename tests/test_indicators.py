import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockrank import indicators
from stockrank.errors import DataError
from stockrank.indicators import (
    ALL_TECHNICAL_NAMES,
    BASIC_FEATURE_NAMES,
    DEFAULT_TECHNICAL_16,
    FEATURES,
    TECHNICAL_NAMES,
    assemble_panel,
)
from stockrank.market_data import CLOSE, HIGH, LOW, OPEN, VOLUME
from stockrank.synth import SignalSpec, generate, write_ohlcv_csv, write_sector_csv

import reference
from conftest import load_files, make_stock, make_universe, random_walk_universe, traced_peak


#: the names of the default panel: the 12 basic features, then the default 16
DEFAULT_28 = BASIC_FEATURE_NAMES + DEFAULT_TECHNICAL_16


def one_stock_panel(u, names):
    """(values of shape (n_days, n), feature names, valid_start) of the
    feature panel of a one-stock universe."""
    panel = assemble_panel(u, names)
    return panel.values[0], panel.feature_names, panel.valid_start


def column(u, col):
    return u.bars[0, :, col]


def without_last_day(u):
    return dataclasses.replace(u, calendar=u.calendar[:-1], bars=u.bars[:, :-1])


def basic_features(s):
    return one_stock_panel(s, BASIC_FEATURE_NAMES)


def random_series(rng, n=120, ticker="AAA"):
    steps = rng.normal(0, 0.02, size=n)
    steps[0] = 0.0
    opens = 50.0 * np.exp(np.cumsum(steps))
    closes = opens * np.exp(rng.normal(0, 0.01, size=n))
    highs = np.maximum(opens, closes) * np.exp(np.abs(rng.normal(0, 0.01, size=n)))
    lows = np.minimum(opens, closes) * np.exp(-np.abs(rng.normal(0, 0.01, size=n)))
    volumes = rng.integers(100_000, 5_000_000, size=n)
    return make_stock(opens, highs=highs, lows=lows, closes=closes, volumes=volumes)


class TestBasicFeatures:
    def test_constant_series(self):
        s = make_stock([42.0] * 60)
        values, names, valid = basic_features(s)
        col = {n: i for i, n in enumerate(names)}
        for name in ("mom_2", "mom_3", "mom_5", "mom_10"):
            column = values[valid[col[name]] :, col[name]]
            np.testing.assert_allclose(column, 0.0, atol=1e-15)
        for name in ("sma_ratio_5", "sma_ratio_20", "sma_ratio_50"):
            np.testing.assert_allclose(values[valid[col[name]] :, col[name]], 1.0, rtol=1e-12)
        for name in ("ret_std_5", "ret_std_20"):
            np.testing.assert_allclose(values[valid[col[name]] :, col[name]], 0.0, atol=1e-15)

    def test_three_day_momentum_direct_ratio(self):
        opens = [100.0, 101.0, 99.0, 103.0] + [100.0] * 56  # 60 days cover every warmup
        s = make_stock(opens)
        values, names, _ = basic_features(s)
        col = names.index("mom_3")
        assert values[3, col] == pytest.approx(103.0 / 100.0 - 1.0, abs=1e-15)

    def test_dollar_volume_product(self):
        s = make_stock([10.0] * 60, volumes=[2_000_000] * 60)
        values, names, _ = basic_features(s)
        assert values[0, names.index("dollar_volume")] == 2e7
        assert values[0, names.index("volume")] == 2_000_000

    def test_warmup_masked_not_error(self):
        s = make_stock([10.0] * 60)
        values, names, valid = basic_features(s)
        col = names.index("sma_ratio_50")
        assert valid[col] == 49
        assert np.isnan(values[48, col])
        assert np.isfinite(values[49, col])


class TestTechnicalFeatures:
    def test_williams_r_top_of_range(self):
        # open equals the window's highest high on the last day
        opens = np.linspace(10, 12, 30)
        highs = opens.copy()
        lows = opens * 0.9
        s = make_stock(opens, highs=highs, lows=lows, closes=opens)
        values, names, valid = one_stock_panel(s, ["williams_r"])
        assert values[-1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_aroon_up_at_new_high(self):
        opens = np.linspace(10, 12, 40)  # strictly rising: today is always the highest
        s = make_stock(opens)
        values, _, valid = one_stock_panel(s, ["aroon_up"])
        assert np.all(values[valid[0] :, 0] == 100.0)

    def test_aroon_down_at_new_low(self):
        opens = np.linspace(12, 10, 40)
        s = make_stock(opens)
        values, _, valid = one_stock_panel(s, ["aroon_down"])
        assert np.all(values[valid[0] :, 0] == 100.0)

    @pytest.mark.parametrize("take_max", [True, False])
    @pytest.mark.parametrize("n_days", [0, 1, 25, 26, 27, 300])
    def test_aroon_matches_the_window_argmax(self, take_max, n_days):
        # prices in cents, then in whole dollars for many ties: the most
        # recent extreme wins a tie, as the first argmax of the reversed
        # window has it
        rng = np.random.default_rng(7)
        prices = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(20, n_days)), axis=1))
        for x in (np.round(prices, 2), np.round(prices)):
            got = indicators._aroon(x, 25, take_max)
            assert got.tobytes() == reference.window_aroon(x, 25, take_max).tobytes()

    def test_donchian_constant_prices(self):
        s = make_stock([10.0] * 40, highs=[10.0] * 40, lows=[10.0] * 40)
        values, _, valid = one_stock_panel(s, ["donchian_width"])
        np.testing.assert_allclose(values[valid[0] :, 0], 0.0, atol=1e-15)

    def test_unknown_name(self):
        with pytest.raises(DataError, match="unknown feature: 'macdx'"):
            assemble_panel(make_stock([10.0] * 40), ["rsi", "macdx"])

    def test_repeated_or_no_names_rejected(self):
        s = make_stock([10.0] * 40)
        with pytest.raises(DataError, match="duplicate feature name in panel: 'rsi'"):
            assemble_panel(s, ["rsi", "atr", "rsi"])
        with pytest.raises(DataError, match="no features"):
            assemble_panel(s, [])

    def test_all_indicators_finite_after_warmup(self, rng):
        s = random_series(rng, n=150)
        values, names, valid = one_stock_panel(s, TECHNICAL_NAMES)
        for j, name in enumerate(names):
            col = values[valid[j] :, j]
            assert np.all(np.isfinite(col)), f"{name} produced non-finite values"
            before = values[: valid[j], j]
            assert np.all(np.isnan(before)), f"{name} leaked values into warmup"


#: Kernels that are finite before their first valid day: the day they turn
#: finite. Their first valid day is a burn-in, so that the EMA (pvo,
#: force_index) or the cumulative sum's zero start (vpt) has been forgotten.
BURN_IN = {"pvo": 0, "force_index": 1, "vpt": 0}


@pytest.mark.parametrize("name", list(FEATURES))
def test_first_valid_day_is_where_the_raw_kernel_turns_finite(name):
    s = random_series(np.random.default_rng(11), n=400)
    o, h, lo, v = (s.matrix(col) for col in (OPEN, HIGH, LOW, VOLUME))
    first_valid_day, kernel = FEATURES[name]
    finite = np.isfinite(kernel(o, h, lo, v)[0])
    first_finite = int(np.argmax(finite))
    assert first_finite == BURN_IN.get(name, first_valid_day)
    assert finite[first_finite:].all(), f"{name} turns non-finite after day {first_finite}"
    if name in BURN_IN:
        assert first_finite < first_valid_day


class TestPanel:
    def test_feature_counts(self, rng):
        u = random_walk_universe(rng, 3, 120)
        assert assemble_panel(u, DEFAULT_28).n_features == 28
        assert assemble_panel(u, BASIC_FEATURE_NAMES).n_features == 12
        assert assemble_panel(u, ALL_TECHNICAL_NAMES).n_features == 19

    def test_default_selection_has_16(self):
        assert len(DEFAULT_TECHNICAL_16) == 16
        assert len(ALL_TECHNICAL_NAMES) == 19
        assert len(TECHNICAL_NAMES) == 20 and len(FEATURES) == 32

    def test_feature_order_stable(self, rng):
        u = random_walk_universe(rng, 2, 120)
        a = assemble_panel(u, DEFAULT_28)
        b = assemble_panel(u, DEFAULT_28)
        assert a.feature_names == b.feature_names == DEFAULT_28
        np.testing.assert_array_equal(a.values, b.values)

    def test_feature_order_is_the_order_of_the_names(self, rng):
        u = random_walk_universe(rng, 2, 120)
        a = assemble_panel(u, DEFAULT_28)
        b = assemble_panel(u, DEFAULT_28[::-1])
        assert b.feature_names == DEFAULT_28[::-1]
        np.testing.assert_array_equal(a.values, b.values[:, :, ::-1])
        np.testing.assert_array_equal(a.valid_start, b.valid_start[::-1])

    def test_mask_monotone(self, rng):
        u = random_walk_universe(rng, 2, 120)
        panel = assemble_panel(u, DEFAULT_28)
        mask = np.arange(len(panel.dates))[:, None] >= panel.valid_start[None, :]
        diffs = mask[1:].astype(int) - mask[:-1].astype(int)
        assert (diffs >= 0).all()

    def test_too_short_universe_rejected(self, rng):
        u = random_walk_universe(rng, 2, 30)
        with pytest.raises(DataError, match="warmup"):
            assemble_panel(u, DEFAULT_28)

    def test_short_calendar_fails_before_any_kernel_runs(self, rng, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("a kernel ran")

        for name, (first_valid_day, _) in list(indicators.FEATURES.items()):
            monkeypatch.setitem(indicators.FEATURES, name, (first_valid_day, spy))
        u = random_walk_universe(rng, 2, 20)  # awesome_osc needs 34 days, sma_ratio_50 50
        for names in (BASIC_FEATURE_NAMES + ALL_TECHNICAL_NAMES, ALL_TECHNICAL_NAMES):
            with pytest.raises(DataError, match="warmup"):
                assemble_panel(u, names)

    def test_csv_export(self, rng, tmp_path):
        u = random_walk_universe(rng, 2, 60)
        panel = assemble_panel(u, BASIC_FEATURE_NAMES)
        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "ticker,date," + ",".join(BASIC_FEATURE_NAMES)


@pytest.fixture(scope="module")
def synth_universe(tmp_path_factory):
    """A 20-stock, 300-day universe of synth data, loaded from its CSV files."""
    path = tmp_path_factory.mktemp("synth")
    rows, _events, _calendar = generate(4, 20, 300, SignalSpec(event_rate=0.02))
    write_ohlcv_csv(rows, str(path / "ohlcv.csv"))
    write_sector_csv([r["ticker"] for r in rows], str(path / "sectors.csv"))
    return load_files(path / "ohlcv.csv", path / "sectors.csv")


class TestOneBufferPanel:
    """assemble_panel writes each feature into one array: the values of the
    stacked, concatenated and scrubbed assembly, without its copies."""

    @pytest.mark.parametrize("basic,names", [
        (True, DEFAULT_TECHNICAL_16),
        (True, TECHNICAL_NAMES),
        (False, ALL_TECHNICAL_NAMES),
        (True, ()),
    ], ids=["default", "all", "technical_only", "basic_only"])
    def test_matches_the_stacked_assembly_bit_for_bit(self, synth_universe, basic, names):
        panel = assemble_panel(synth_universe, BASIC_FEATURE_NAMES * basic + names)
        values, valid_start = reference.stacked_panel(synth_universe, basic, names)
        assert panel.values.dtype == values.dtype and panel.values.shape == values.shape
        assert panel.values.tobytes() == values.tobytes()
        np.testing.assert_array_equal(panel.valid_start, valid_start)

    def test_peak_memory_is_close_to_the_panel(self, synth_universe):
        with traced_peak() as mem:
            panel = assemble_panel(synth_universe, DEFAULT_28)
        # the panel and a few (stocks, days) kernel temporaries: 2.1 times
        # the panel; with the stacks, concatenation and np.where copy, 3.2
        assert mem.peak <= 2.5 * panel.values.nbytes, mem.peak / panel.values.nbytes


class TestBlockedKernels:
    """Rolling std runs over blocks of stocks, and every kernel's
    temporaries stay a few (stocks, days) columns."""

    @pytest.mark.parametrize("budget", [1, 1000, 5000, indicators.BLOCK_ELEMS])
    @pytest.mark.parametrize("window,ddof", [(5, 1), (20, 1), (20, 0)])
    def test_blocked_roll_std_is_the_whole_view_std_bit_for_bit(
            self, rng, monkeypatch, budget, window, ddof):
        # 10 stocks of 100 days, 480 or 1,620 window elements a stock:
        # each stock alone, blocks of 2 or 3 stocks that end mid-universe
        # with a short last block, and the whole universe in one block
        monkeypatch.setattr(indicators, "BLOCK_ELEMS", budget)
        x = rng.normal(size=(10, 100)) * np.exp(rng.normal(size=(10, 1)))
        x[3, 40] = np.nan
        got = indicators._roll_std(x, window, ddof)
        assert got.tobytes() == reference.whole_roll_std(x, window, ddof).tobytes()

    def test_stock_blocks_cover_the_stocks_in_order(self, monkeypatch):
        monkeypatch.setattr(indicators, "BLOCK_ELEMS", 100)
        assert indicators.stock_blocks(7, 30) == [slice(0, 3), slice(3, 6), slice(6, 9)]
        assert indicators.stock_blocks(2, 500) == [slice(0, 1), slice(1, 2)]  # one stock at least
        assert indicators.stock_blocks(0, 30) == []

    @pytest.mark.parametrize("name", list(FEATURES))
    def test_kernel_peak_is_a_few_columns(self, name):
        # 60 stocks of 1,500 days: a column is 720 kB, about a third of a
        # 2 MiB block. stoch_rsi holds the most, 6.3 columns; before the
        # blocks, ret_std_20 and bollinger_hband held 23.7 and adx 10.1
        u = random_walk_universe(np.random.default_rng(7), 60, 1500)
        columns = [u.matrix(c) for c in (OPEN, HIGH, LOW, VOLUME)]
        with traced_peak() as mem:
            FEATURES[name][1](*columns)
        assert mem.peak <= 7 * columns[0].nbytes, mem.peak / columns[0].nbytes


class TestShiftEquivariance:
    """Appending one day never changes previously computed values."""

    def test_all_features_causal(self, rng):
        s_full = random_series(rng, n=130)
        s_prefix = without_last_day(s_full)
        full_t, _, _ = one_stock_panel(s_full, TECHNICAL_NAMES)
        pref_t, _, _ = one_stock_panel(s_prefix, TECHNICAL_NAMES)
        np.testing.assert_array_equal(full_t[:-1], pref_t)
        full_b, _, _ = basic_features(s_full)
        pref_b, _, _ = basic_features(s_prefix)
        np.testing.assert_array_equal(full_b[:-1], pref_b)

    def test_deterministic_pure_function(self, rng):
        s = random_series(rng, n=90)
        a, _, _ = one_stock_panel(s, DEFAULT_TECHNICAL_16)
        b, _, _ = one_stock_panel(s, DEFAULT_TECHNICAL_16)
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# independent close-based reference implementations: on data where
# close == open, the open-based pipeline must reproduce them exactly
# ---------------------------------------------------------------------------


def ref_stoch_osc(close, high, low, window):
    out = np.full(len(close), np.nan)
    for t in range(window - 1, len(close)):
        hh = high[t - window + 1 : t + 1].max()
        ll = low[t - window + 1 : t + 1].min()
        out[t] = 50.0 if hh == ll else 100.0 * (close[t] - ll) / (hh - ll)
    return out


def ref_atr(close, high, low, window):
    n = len(close)
    tr = np.full(n, np.nan)
    for t in range(1, n):
        tr[t] = max(high[t] - low[t], abs(high[t] - close[t - 1]), abs(low[t] - close[t - 1]))
    atr = np.full(n, np.nan)
    atr[window] = np.mean(tr[1 : window + 1])
    for t in range(window + 1, n):
        atr[t] = (atr[t - 1] * (window - 1) + tr[t]) / window
    return atr


def ref_cmf(close, high, low, volume, window):
    n = len(close)
    clv = np.zeros(n)
    for t in range(n):
        if high[t] != low[t]:
            clv[t] = ((close[t] - low[t]) - (high[t] - close[t])) / (high[t] - low[t])
    out = np.full(n, np.nan)
    for t in range(window - 1, n):
        vsum = volume[t - window + 1 : t + 1].sum()
        out[t] = 0.0 if vsum == 0 else (clv[t - window + 1 : t + 1]
                                        * volume[t - window + 1 : t + 1]).sum() / vsum
    return out


def ref_bollinger_high(close, window, n_std):
    out = np.full(len(close), np.nan)
    for t in range(window - 1, len(close)):
        chunk = close[t - window + 1 : t + 1]
        out[t] = chunk.mean() + n_std * chunk.std()
    return out


def ref_rsi(close, window):
    n = len(close)
    gains = np.maximum(np.diff(close), 0.0)
    losses = np.maximum(-np.diff(close), 0.0)
    out = np.full(n, np.nan)
    ag = gains[:window].mean()
    al = losses[:window].mean()

    def rsi_of(ag, al):
        if ag == 0 and al == 0:
            return 50.0
        if al == 0:
            return 100.0
        return 100.0 - 100.0 / (1.0 + ag / al)

    out[window] = rsi_of(ag, al)
    for t in range(window + 1, n):
        ag = (ag * (window - 1) + gains[t - 1]) / window
        al = (al * (window - 1) + losses[t - 1]) / window
        out[t] = rsi_of(ag, al)
    return out


class TestCloseSubstitutionOracle:
    @pytest.fixture
    def series_close_eq_open(self, rng):
        steps = rng.normal(0, 0.02, size=100)
        steps[0] = 0.0
        opens = 40.0 * np.exp(np.cumsum(steps))
        highs = opens * np.exp(np.abs(rng.normal(0, 0.01, size=100)))
        lows = opens * np.exp(-np.abs(rng.normal(0, 0.01, size=100)))
        volumes = rng.integers(200_000, 900_000, size=100)
        return make_stock(opens, highs=highs, lows=lows, closes=opens, volumes=volumes)

    @pytest.mark.parametrize(
        "name,ref",
        [
            ("stoch_osc", lambda s: ref_stoch_osc(*(column(s, c) for c in (CLOSE, HIGH, LOW)),
                                                  14)),
            ("atr", lambda s: ref_atr(*(column(s, c) for c in (CLOSE, HIGH, LOW)), 14)),
            ("cmf", lambda s: ref_cmf(*(column(s, c) for c in (CLOSE, HIGH, LOW, VOLUME)), 20)),
            ("bollinger_hband", lambda s: ref_bollinger_high(column(s, CLOSE), 20, 2.0)),
            ("rsi", lambda s: ref_rsi(column(s, CLOSE), 14)),
        ],
    )
    def test_matches_close_based_reference(self, series_close_eq_open, name, ref):
        s = series_close_eq_open
        values, _, valid = one_stock_panel(s, [name])
        expected = ref(s)
        lo = valid[0]
        np.testing.assert_allclose(values[lo:, 0], expected[lo:], rtol=1e-10, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_shift_equivariance_property(seed):
    rng = np.random.default_rng(seed)
    s_full = random_series(rng, n=75)
    s_prefix = without_last_day(s_full)
    names = ["stoch_osc", "kama", "vpt", "ulcer"]
    full, _, _ = one_stock_panel(s_full, names)
    prefix, _, _ = one_stock_panel(s_prefix, names)
    np.testing.assert_array_equal(full[:-1], prefix)
