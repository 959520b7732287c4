import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from stockrank.analytics import (
    GRID_ROWS,
    MetricsReport,
    annualize_return,
    build_metric_grid,
    build_report,
    load_risk_free,
    max_drawdown,
    mdd_duration,
    sharpe_ratio,
    student_t_two_sided,
    t_test_vs_market,
)
from stockrank.backtest import BacktestLedger
from stockrank.config import RunConfig
from stockrank.errors import DataError, NumericError

from reference import scan_max_drawdown, scan_mdd_duration


def ledger_from_returns(rets):
    led = BacktestLedger()
    for i, r in enumerate(rets):
        led.append(f"d{i}", {"A": 1.0}, float(r))
    return led


class TestSharpe:
    def test_hand_arithmetic(self):
        # mean 0.01, sample std of [0.02, 0.00] is 0.0141421...
        sr = sharpe_ratio([0.02, 0.00], 0.0)
        daily = 0.01 / np.std([0.02, 0.0], ddof=1)
        assert daily == pytest.approx(0.70711, abs=1e-5)
        assert sr == pytest.approx(daily * math.sqrt(252), rel=1e-12)
        assert sr == pytest.approx(11.2249, abs=1e-3)

    def test_constant_returns_undefined(self):
        with pytest.raises(NumericError, match="volatility"):
            sharpe_ratio([0.01, 0.01, 0.01], 0.01)

    def test_rf_lowers_sharpe_monotonically(self, rng):
        r = rng.normal(0.001, 0.01, size=100)
        base = sharpe_ratio(r, 0.0)
        for rf in (0.0001, 0.0005, 0.001):
            assert sharpe_ratio(r, rf) < base
            base = sharpe_ratio(r, rf)

    def test_denominator_is_portfolio_sigma_not_excess(self, rng):
        r = rng.normal(0.001, 0.01, size=200)
        rf = rng.normal(0.0002, 0.002, size=200)  # noisy risk-free series
        got = sharpe_ratio(r, rf)
        expected = (r - rf).mean() / r.std(ddof=1) * math.sqrt(252)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_needs_two_days(self):
        with pytest.raises(NumericError):
            sharpe_ratio([0.01], 0.0)


class TestAnnualize:
    def test_published_pair_2019_2024(self):
        # 12.89x over 1340 days annualizes to 61.73%
        assert annualize_return(12.89, 1340) == pytest.approx(0.6173, abs=0.001)

    def test_published_pair_2005_2010(self):
        assert annualize_return(5.6, 1360) == pytest.approx(0.3761, abs=0.001)

    def test_flat(self):
        assert annualize_return(1.0, 500) == 0.0

    def test_one_year_identity(self):
        assert annualize_return(1.37, 252) == pytest.approx(0.37, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.01, max_value=50.0),
           st.floats(min_value=0.01, max_value=50.0))
    def test_monotone_in_final_value(self, a, b):
        lo, hi = sorted([a, b])
        assert annualize_return(lo, 700) <= annualize_return(hi, 700)

    def test_invalid_inputs(self):
        with pytest.raises(NumericError):
            annualize_return(0.0, 100)
        with pytest.raises(NumericError):
            annualize_return(1.5, 0)


# NAV-like series: random walks, and short ones drawn from a few levels so
# that ties with the running peak are common
nav_series = st.one_of(
    st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1, max_size=60).map(
        lambda r: np.cumprod(1.0 + np.array(r))),
    st.lists(st.sampled_from([0.5, 0.8, 1.0, 1.25, 2.0]), min_size=1, max_size=20).map(
        np.array),
)


class TestMaxDrawdown:
    def test_hand_scan(self):
        assert max_drawdown([1.0, 1.2, 0.6, 0.9]) == pytest.approx(-0.5, abs=1e-15)

    def test_monotone_increasing_no_drawdown(self):
        assert max_drawdown([1.0, 1.1, 1.2, 1.3]) == 0.0

    def test_recovered_drawdown_still_counted(self):
        assert max_drawdown([1.0, 0.5, 1.1]) == pytest.approx(-0.5, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.1, max_value=100.0),
           st.integers(min_value=0, max_value=10_000))
    def test_scale_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        v = np.cumprod(1 + rng.normal(0, 0.02, size=50))
        assert max_drawdown(v) == pytest.approx(max_drawdown(c * v), rel=1e-9, abs=1e-12)

    def test_bounded_in_minus_one_zero(self, rng):
        v = np.cumprod(1 + rng.normal(0, 0.05, size=200))
        assert -1.0 <= max_drawdown(v) <= 0.0

    @settings(max_examples=300, deadline=None)
    @given(nav_series)
    def test_running_peak_equals_the_scan(self, v):
        assert max_drawdown(v) == scan_max_drawdown(v)


class TestMddDuration:
    def test_peak_to_recovery(self):
        assert mdd_duration([1.0, 0.5, 1.1]) == 2

    def test_monotone_increasing(self):
        assert mdd_duration([1.0, 1.1, 1.2]) == 0

    def test_censored_at_series_end(self):
        assert mdd_duration([1.0, 0.9, 0.8]) == 2

    def test_longest_episode_wins(self):
        # first episode lasts 2 days, second lasts 4 (censored)
        v = [1.0, 0.9, 1.05, 1.0, 0.9, 0.95, 1.0]
        assert mdd_duration(v) == 4

    def test_recovery_to_equal_level_counts(self):
        assert mdd_duration([1.0, 0.8, 1.0]) == 2

    def test_flat_series(self):
        assert mdd_duration([1.0, 1.0, 1.0]) == 0

    @settings(max_examples=300, deadline=None)
    @given(nav_series)
    def test_running_peak_equals_the_scan(self, v):
        assert mdd_duration(v) == scan_mdd_duration(v)


class TestTTest:
    def test_identical_series_null_case(self):
        r = [0.01, 0.02, 0.03, 0.01]
        t, p = t_test_vs_market(r, r, paired=True)
        assert t == 0.0
        assert p == 1.0

    def test_constant_positive_difference_is_degenerate(self):
        a = np.array([0.25, 0.5, 0.125])  # dyadic so the +0.25 shift is exact
        with pytest.raises(NumericError, match="zero variance"):
            t_test_vs_market(a + 0.25, a, paired=True)

    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(55)
        d = rng.normal(0.001, 0.01, size=1000)
        market = rng.normal(0.0005, 0.012, size=1000)
        strat = market + d
        t, p = t_test_vs_market(strat, market, paired=True)
        t_ref, p_ref = sps.ttest_rel(strat, market)
        assert t == pytest.approx(float(t_ref), abs=1e-9)
        assert p == pytest.approx(float(p_ref), abs=1e-9)

    def test_unpaired_matches_scipy_welch(self):
        rng = np.random.default_rng(56)
        a = rng.normal(0.001, 0.01, size=400)
        b = rng.normal(0.0, 0.02, size=400)
        t, p = t_test_vs_market(a, b, paired=False)
        t_ref, p_ref = sps.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(float(t_ref), abs=1e-9)
        assert p == pytest.approx(float(p_ref), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=400),
           st.floats(min_value=-0.02, max_value=0.02), st.booleans())
    def test_p_value_matches_scipy_t_sf(self, seed, n, drift, paired):
        # scipy is an oracle, not the bits: its own tail is off by up to
        # ~1e-13 relative here (and by 3e-9 at dof 1, t 1e-8)
        rng = np.random.default_rng(seed)
        b = rng.normal(0.0, 0.01, size=n)
        a = b + rng.normal(drift, rng.uniform(0.001, 0.03), size=n)
        t, p = t_test_vs_market(a, b, paired=paired)
        if paired:
            dof = n - 1
        else:
            va, vb = a.var(ddof=1), b.var(ddof=1)
            se2 = va / n + vb / n
            dof = se2**2 / ((va / n) ** 2 / (n - 1) + (vb / n) ** 2 / (n - 1))
        assert p == pytest.approx(float(2.0 * sps.t.sf(abs(t), dof)), rel=1e-11)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_invariant_to_common_additive_series(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 0.01, size=60)
        b = rng.normal(0, 0.01, size=60)
        common = rng.normal(0, 0.05, size=60)
        t1, _ = t_test_vs_market(a, b, paired=True)
        t2, _ = t_test_vs_market(a + common, b + common, paired=True)
        assert t1 == pytest.approx(t2, rel=1e-9, abs=1e-12)


WELCH_DOF = 37.3  # a Welch-Satterthwaite dof is rarely an integer


def closed_form_tail(t, dof):
    """The two-sided tail for dof 1 and 2 in closed form; for dof 2,
    1 - |t| / sqrt(2 + t²) rewritten as 2 / (s (s + |t|)), s = sqrt(2 + t²),
    which does not cancel at large |t|."""
    t = abs(t)
    if dof == 1:
        return 2.0 / math.pi * math.atan2(1.0, t)
    s = math.sqrt(2.0 + t * t)
    return 2.0 / (s * (s + t))


class TestStudentTTail:
    @pytest.mark.parametrize("dof", [1, 2, 7, WELCH_DOF, 399])
    def test_zero_t_is_exactly_one(self, dof):
        assert student_t_two_sided(0.0, dof) == 1.0
        assert student_t_two_sided(-0.0, dof) == 1.0

    @pytest.mark.parametrize("dof", [1, 2])
    def test_closed_forms(self, dof):
        for t in np.geomspace(1e-8, 1e8, 161):
            assert student_t_two_sided(t, dof) == pytest.approx(closed_form_tail(t, dof),
                                                                rel=1e-12)

    @pytest.mark.parametrize("dof", [1, 2, 5, WELCH_DOF, 399, 2999.5])
    def test_does_not_increase_with_abs_t(self, dof):
        # steps of 10% in |t|: far above the last-bit noise of the tail
        p = [student_t_two_sided(t, dof) for t in np.geomspace(1e-8, 1e4, 300)]
        assert all(a >= b for a, b in zip(p, p[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False), st.floats(min_value=1.0, max_value=1e4))
    def test_symmetric_and_within_unit_interval(self, t, dof):
        p = student_t_two_sided(t, dof)
        assert p == student_t_two_sided(-t, dof)
        assert 0.0 <= p <= 1.0

    @pytest.mark.parametrize("t", [1.4e154, 1e200, 1.7e308, math.inf, -math.inf])
    @pytest.mark.parametrize("dof", [1, WELCH_DOF])
    def test_overflowing_t_is_zero(self, t, dof):
        assert student_t_two_sided(t, dof) == 0.0


PAIRED = RunConfig().paired_t_test


def report(led, market=None):
    """build_report with no risk-free rate and the config's t-test."""
    return build_report(led, market, 0.0, PAIRED)


class TestBuildReport:
    def test_flat_ledger_flags_undefined(self):
        led = ledger_from_returns([0.0] * 40)
        market = ledger_from_returns([0.0] * 40)
        rep = report(led, market)
        assert rep.sharpe is None
        assert "sharpe_undefined" in rep.flags
        assert rep.final_value == 1.0
        assert rep.annual_return == 0.0
        # identical flat series: the paired test is the exact null case
        assert rep.t_value == 0.0 and rep.p_value == 1.0

    def test_fields_equal_individual_ops(self, rng):
        rets = rng.normal(0.001, 0.01, size=80)
        market_rets = rng.normal(0.0005, 0.01, size=80)
        led = ledger_from_returns(rets)
        market = ledger_from_returns(market_rets)
        rep = report(led, market)
        assert rep.final_value == pytest.approx(float(np.prod(1 + rets)), rel=1e-12)
        assert rep.sharpe == pytest.approx(sharpe_ratio(rets), rel=1e-12)
        assert rep.max_drawdown == pytest.approx(max_drawdown(led.values), rel=1e-12)
        assert rep.mdd_duration_days == mdd_duration(led.values)
        t, p = t_test_vs_market(rets, market_rets, PAIRED)
        assert rep.t_value == pytest.approx(t, rel=1e-12)
        assert rep.p_value == pytest.approx(p, rel=1e-12)

    def test_json_round_trip_lossless(self, rng):
        rets = rng.normal(0.001, 0.01, size=60)
        market = ledger_from_returns(rng.normal(0, 0.01, size=60))
        rep = report(ledger_from_returns(rets), market)
        # metrics.json holds dataclasses.asdict of each report
        payload = json.loads(json.dumps(dataclasses.asdict(rep)))
        again = MetricsReport(**{**payload, "flags": tuple(payload["flags"])})
        assert again == rep

    def test_small_sample_flagged(self, rng):
        led = ledger_from_returns(rng.normal(0.001, 0.01, size=10))
        market = ledger_from_returns(rng.normal(0, 0.01, size=10))
        rep = report(led, market)
        assert "small_sample_t" in rep.flags


class TestGrid:
    def test_row_labels_exact(self):
        assert GRID_ROWS == (
            "Final Value",
            "Annual Return",
            "Top 10 SR",
            "Bottom 10 SR",
            "Long-Short 10 SR",
            "Top Decile SR",
            "Bottom Decile SR",
            "Long-Short Decile SR",
        )

    def test_grid_values(self, rng):
        # the grid reads each strategy's metric report, as metrics.json holds it
        names = ("topk", "bottomk", "long_short_k", "top_decile", "bottom_decile",
                 "market_equal_weight")
        reports = {name: dataclasses.asdict(report(
                       ledger_from_returns(rng.normal(0.001, 0.01, size=50))))
                   for name in names}
        grid = build_metric_grid(reports)
        assert list(grid) == list(GRID_ROWS)
        assert grid["Final Value"] == reports["topk"]["final_value"]
        assert grid["Annual Return"] == reports["topk"]["annual_return"]
        for row, strategy in (("Top 10 SR", "topk"), ("Bottom 10 SR", "bottomk"),
                              ("Long-Short 10 SR", "long_short_k"),
                              ("Top Decile SR", "top_decile"),
                              ("Bottom Decile SR", "bottom_decile")):
            assert grid[row] == reports[strategy]["sharpe"]
        assert grid["Long-Short Decile SR"] is None  # no such report

    def test_grid_needs_the_topk_report(self):
        with pytest.raises(DataError, match="topk"):
            build_metric_grid({})


class TestRiskFree:
    def test_missing_file_means_zero(self):
        out = load_risk_free(None, ["2020-01-01"])
        np.testing.assert_array_equal(out, [0.0])

    def test_forward_fill_and_daily_scaling(self, tmp_path):
        import datetime as dt

        path = tmp_path / "rf.csv"
        path.write_text("date,annual_rate\n2020-01-01,0.0252\n2020-06-01,0.0504\n")
        cal = [dt.date(2020, 1, 2), dt.date(2020, 5, 1), dt.date(2020, 7, 1)]
        out = load_risk_free(str(path), cal)
        np.testing.assert_allclose(out, [0.0001, 0.0001, 0.0002])

    @pytest.mark.parametrize("rows", [
        ["2015-01-01,0.05", "2015-01-01,0.01"],
        ["2015-01-01,0.01", "2015-01-01,0.05"],
    ])
    def test_repeated_date_names_path_and_line(self, tmp_path, rows):
        path = tmp_path / "rf.csv"
        path.write_text("date,annual_rate\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=f"{path}:3: repeated date 2015-01-01"):
            load_risk_free(str(path), ["2015-01-02"])

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_non_finite_rate_names_path_and_line(self, tmp_path, rate):
        path = tmp_path / "rf.csv"
        path.write_text(f"date,annual_rate\n2015-01-01,0.01\n2015-01-02,{rate}\n")
        with pytest.raises(DataError, match=f"{path}:3: non-finite rate"):
            load_risk_free(str(path), ["2015-01-05"])

    def test_iso_date_strings_align_like_dates(self, tmp_path):
        import datetime as dt

        path = tmp_path / "rf.csv"
        path.write_text("date,annual_rate\n2020-06-01,0.0504\n2020-01-01,0.0252\n")
        cal = [dt.date(2019, 12, 31), dt.date(2020, 1, 1), dt.date(2020, 6, 2)]
        out = load_risk_free(str(path), [d.isoformat() for d in cal])
        np.testing.assert_array_equal(out, load_risk_free(str(path), cal))
        np.testing.assert_allclose(out, [0.0, 0.0001, 0.0002])
