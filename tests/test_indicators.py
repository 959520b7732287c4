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
    FeatureSpec,
    assemble_panel,
    make_spec,
)
from stockrank.market_data import CLOSE, HIGH, LOW, VOLUME, load_ohlcv
from stockrank.synth import SignalSpec, generate, write_ohlcv_csv, write_sector_csv

import reference
from conftest import make_stock, make_universe, random_walk_universe


def one_stock_panel(u, basic, specs=()):
    """(values of shape (n_days, n), feature names, valid_start) of the
    feature panel of a one-stock universe."""
    panel = assemble_panel(u, basic=basic, specs=list(specs))
    return panel.values[0], panel.feature_names, panel.valid_start


def default16_specs():
    return [make_spec(n) for n in DEFAULT_TECHNICAL_16]


def column(u, col):
    return u.bars[0, :, col]


def without_last_day(u):
    return dataclasses.replace(u, calendar=u.calendar[:-1], bars=u.bars[:, :-1])


def basic_features(s):
    return one_stock_panel(s, basic=True)


def technical_features(s, specs):
    return one_stock_panel(s, basic=False, specs=specs)


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
        values, names, valid = technical_features(s, [make_spec("williams_r")])
        assert values[-1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_aroon_up_at_new_high(self):
        opens = np.linspace(10, 12, 40)  # strictly rising: today is always the highest
        s = make_stock(opens)
        values, _, valid = technical_features(s, [make_spec("aroon_up")])
        assert np.all(values[valid[0] :, 0] == 100.0)

    def test_aroon_down_at_new_low(self):
        opens = np.linspace(12, 10, 40)
        s = make_stock(opens)
        values, _, valid = technical_features(s, [make_spec("aroon_down")])
        assert np.all(values[valid[0] :, 0] == 100.0)

    def test_donchian_constant_prices(self):
        s = make_stock([10.0] * 40, highs=[10.0] * 40, lows=[10.0] * 40)
        values, _, valid = technical_features(s, [make_spec("donchian_width")])
        np.testing.assert_allclose(values[valid[0] :, 0], 0.0, atol=1e-15)

    def test_unknown_spec_name(self):
        with pytest.raises(DataError, match="unknown technical feature"):
            make_spec("macdx")

    def test_spec_invariants(self):
        with pytest.raises(DataError):
            FeatureSpec("x", {"window": -3}, warmup=5)
        with pytest.raises(DataError):
            FeatureSpec("x", {}, warmup=0)

    def test_all_indicators_finite_after_warmup(self, rng):
        s = random_series(rng, n=150)
        specs = [make_spec(n) for n in ALL_TECHNICAL_NAMES + ("rsi",)]
        values, names, valid = technical_features(s, specs)
        for j, name in enumerate(names):
            col = values[valid[j] :, j]
            assert np.all(np.isfinite(col)), f"{name} produced non-finite values"
            before = values[: valid[j], j]
            assert np.all(np.isnan(before)), f"{name} leaked values into warmup"


class TestPanel:
    def test_feature_counts(self, rng):
        u = random_walk_universe(rng, 3, 120)
        panel = assemble_panel(u, basic=True, specs=default16_specs())
        assert panel.n_features == 28
        panel12 = assemble_panel(u, basic=True, specs=[])
        assert panel12.n_features == 12
        panel19 = assemble_panel(u, basic=False, specs=[make_spec(n) for n in ALL_TECHNICAL_NAMES])
        assert panel19.n_features == 19

    def test_default_selection_has_16(self):
        assert len(DEFAULT_TECHNICAL_16) == 16
        assert len(ALL_TECHNICAL_NAMES) == 19

    def test_feature_order_stable(self, rng):
        u = random_walk_universe(rng, 2, 120)
        a = assemble_panel(u, basic=True, specs=default16_specs())
        b = assemble_panel(u, basic=True, specs=default16_specs())
        assert a.feature_names == b.feature_names
        assert a.feature_names[:12] == BASIC_FEATURE_NAMES
        np.testing.assert_array_equal(a.values, b.values)

    def test_mask_monotone(self, rng):
        u = random_walk_universe(rng, 2, 120)
        panel = assemble_panel(u, basic=True, specs=default16_specs())
        mask = np.arange(len(panel.dates))[:, None] >= panel.valid_start[None, :]
        diffs = mask[1:].astype(int) - mask[:-1].astype(int)
        assert (diffs >= 0).all()

    def test_too_short_universe_rejected(self, rng):
        u = random_walk_universe(rng, 2, 30)
        with pytest.raises(DataError, match="warmup"):
            assemble_panel(u, basic=True, specs=default16_specs())

    def test_short_calendar_fails_before_any_kernel_runs(self, rng, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("a kernel ran")

        for name in ALL_TECHNICAL_NAMES:
            defaults, warmup, _ = indicators._REGISTRY[name]
            monkeypatch.setitem(indicators._REGISTRY, name, (defaults, warmup, spy))
        monkeypatch.setattr(indicators, "_basic_columns", spy)
        u = random_walk_universe(rng, 2, 20)  # awesome_osc needs 34 days, sma_ratio_50 50
        for basic in (True, False):
            with pytest.raises(DataError, match="warmup"):
                assemble_panel(u, basic=basic, specs=[make_spec(n) for n in ALL_TECHNICAL_NAMES])

    def test_csv_export(self, rng, tmp_path):
        u = random_walk_universe(rng, 2, 60)
        panel = assemble_panel(u, basic=True, specs=[])
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
    return load_ohlcv(path / "ohlcv.csv", path / "sectors.csv")


class TestOneBufferPanel:
    """assemble_panel writes each feature into one array: the values of the
    stacked, concatenated and scrubbed assembly, without its copies."""

    @pytest.mark.parametrize("basic,names", [
        (True, DEFAULT_TECHNICAL_16),
        (True, ALL_TECHNICAL_NAMES + ("rsi",)),
        (False, ALL_TECHNICAL_NAMES),
        (True, ()),
    ], ids=["default", "all", "technical_only", "basic_only"])
    def test_matches_the_stacked_assembly_bit_for_bit(self, synth_universe, basic, names):
        specs = [make_spec(n) for n in names]
        panel = assemble_panel(synth_universe, basic=basic, specs=specs)
        values, valid_start = reference.stacked_panel(synth_universe, basic, specs)
        assert panel.values.dtype == values.dtype and panel.values.shape == values.shape
        assert panel.values.tobytes() == values.tobytes()
        np.testing.assert_array_equal(panel.valid_start, valid_start)

    def test_peak_memory_is_close_to_the_panel(self, synth_universe):
        import tracemalloc

        specs = default16_specs()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            panel = assemble_panel(synth_universe, basic=True, specs=specs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the panel and a few (stocks, days) kernel temporaries: 2.1 times
        # the panel; with the stacks, concatenation and np.where copy, 3.2
        assert peak <= 2.5 * panel.values.nbytes, peak / panel.values.nbytes


class TestShiftEquivariance:
    """Appending one day never changes previously computed values."""

    def test_all_features_causal(self, rng):
        s_full = random_series(rng, n=130)
        s_prefix = without_last_day(s_full)
        specs = [make_spec(n) for n in ALL_TECHNICAL_NAMES + ("rsi",)]
        full_t, _, _ = technical_features(s_full, specs)
        pref_t, _, _ = technical_features(s_prefix, specs)
        np.testing.assert_array_equal(full_t[:-1], pref_t)
        full_b, _, _ = basic_features(s_full)
        pref_b, _, _ = basic_features(s_prefix)
        np.testing.assert_array_equal(full_b[:-1], pref_b)

    def test_deterministic_pure_function(self, rng):
        s = random_series(rng, n=90)
        a, _, _ = technical_features(s, default16_specs())
        b, _, _ = technical_features(s, default16_specs())
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
        values, _, valid = technical_features(s, [make_spec(name)])
        expected = ref(s)
        lo = valid[0]
        np.testing.assert_allclose(values[lo:, 0], expected[lo:], rtol=1e-10, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_shift_equivariance_property(seed):
    rng = np.random.default_rng(seed)
    s_full = random_series(rng, n=75)
    s_prefix = without_last_day(s_full)
    specs = [make_spec("stoch_osc"), make_spec("kama"), make_spec("vpt"), make_spec("ulcer")]
    full, _, _ = technical_features(s_full, specs)
    prefix, _, _ = technical_features(s_prefix, specs)
    np.testing.assert_array_equal(full[:-1], prefix)
