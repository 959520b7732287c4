import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockrank.backtest import (
    BacktestLedger,
    DailyRanking,
    combine_strategies,
    rank_for_day,
    rebalance_topk,
    simulate,
)
from stockrank.errors import DataError


def rankings_from(score_rows):
    return [rank_for_day(i, dict(day)) for i, day in enumerate(score_rows)]


def trades(before, after):
    """Names sold and bought in moving from one holdings dict to the next."""
    return {"sell": sorted(before.keys() - after.keys()),
            "buy": sorted(after.keys() - before.keys())}


class TestRank:
    def test_orders_by_score(self):
        r = rank_for_day("2020-01-02", {"A": 0.1, "B": 0.9, "C": -0.3})
        assert r.tickers == ["B", "A", "C"]
        assert r.date == "2020-01-02"

    def test_ties_break_lexicographically(self):
        r = rank_for_day(0, {"C": 0.5, "A": 0.5, "B": 0.5})
        assert r.tickers == ["A", "B", "C"]

    def test_input_order_irrelevant(self):
        a = rank_for_day(0, dict([("A", 1.0), ("B", 2.0), ("C", 0.5)]))
        b = rank_for_day(0, dict([("C", 0.5), ("B", 2.0), ("A", 1.0)]))
        assert a.entries == b.entries

    def test_top_bottom_selection(self):
        r = rank_for_day(0, {"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.0})
        assert r.top(2) == ["A", "B"]
        assert r.bottom(2) == ["C", "D"]


class TestRebalance:
    def test_sell_hold_buy(self):
        current = {"A": 0.6, "B": 0.4}
        new = rebalance_topk(current, ["B", "C"])
        assert trades(current, new) == {"sell": ["A"], "buy": ["C"]}
        assert new["B"] == pytest.approx(0.4)
        assert new["C"] == pytest.approx(0.6)  # freed capital from A
        assert sum(new.values()) == pytest.approx(1.0, abs=1e-15)

    def test_no_trades_at_fixed_point(self):
        current = {"A": 0.5, "B": 0.5}
        new = rebalance_topk(current, ["A", "B"])
        assert trades(current, new) == {"sell": [], "buy": []}
        assert new == pytest.approx(current)

    def test_initial_buy_equal_weights(self):
        new = rebalance_topk({}, ["A", "B", "C", "D"])
        assert trades({}, new)["buy"] == ["A", "B", "C", "D"]
        assert all(w == pytest.approx(0.25) for w in new.values())

    def test_equal_mode_requalizes(self):
        current = {"A": 0.9, "B": 0.1}
        new = rebalance_topk(current, ["A", "B"], mode="equal")
        assert new == {"A": 0.5, "B": 0.5}

    def test_drifted_holdings_keep_weights(self):
        current = {"A": 0.7, "B": 0.3}
        new = rebalance_topk(current, ["A", "B", "C"])
        # nothing freed: C gets 0, weights renormalize over A and B
        assert new["C"] == pytest.approx(0.0, abs=1e-15)
        assert new["A"] == pytest.approx(0.7)


class TestSimulate:
    def test_null_market_final_value_one(self):
        rankings = rankings_from([[("A", 1.0), ("B", 0.5)]] * 4)
        returns = [{"A": 0.0, "B": 0.0}] * 4
        led = simulate("topk", rankings, returns, k=2)
        assert led.final_value == 1.0

    def test_hand_compounding(self):
        rankings = rankings_from([[("A", 1.0)]] * 2)
        returns = [{"A": 0.10}, {"A": -0.10}]
        led = simulate("topk", rankings, returns, k=1)
        assert led.final_value == pytest.approx(0.99, abs=1e-15)

    def test_three_stock_three_day_pencil_oracle(self):
        # Day 0: ranking favors A, B; equal buy 0.5/0.5.
        #   returns A +10%, B 0% -> value 1.05; drifted A 11/21, B 10/21.
        # Day 1: ranking favors A, C; sell B (10/21 freed), hold A at 11/21.
        #   C gets 10/21. returns A 0%, C +21%^-1... choose +5%:
        #   day ret = 11/21*0 + 10/21*0.05 = 0.0238095...; value 1.05 * (1 + 1/42)
        # Day 2: ranking favors A, C, no trades; returns both -2%.
        rankings = rankings_from([
            [("A", 2.0), ("B", 1.0), ("C", 0.0)],
            [("A", 2.0), ("C", 1.0), ("B", 0.0)],
            [("A", 2.0), ("C", 1.0), ("B", 0.0)],
        ])
        returns = [
            {"A": 0.10, "B": 0.0, "C": 0.07},
            {"A": 0.0, "B": 0.03, "C": 0.05},
            {"A": -0.02, "B": 0.0, "C": -0.02},
        ]
        led = simulate("topk", rankings, returns, k=2)

        v1 = 1.0 * (1 + 0.5 * 0.10 + 0.5 * 0.0)
        wA = 0.5 * 1.10 / 1.05
        wB = 0.5 * 1.00 / 1.05
        r2 = wA * 0.0 + wB * 0.05  # B's weight goes to C
        v2 = v1 * (1 + r2)
        v3 = v2 * (1 - 0.02)
        assert led.values[0] == pytest.approx(v1, abs=1e-12)
        assert led.values[1] == pytest.approx(v2, abs=1e-12)
        assert led.values[2] == pytest.approx(v3, abs=1e-12)
        assert trades(led.holdings[0], led.holdings[1]) == {"sell": ["B"], "buy": ["C"]}

    def test_accounting_identity(self, rng):
        n_days, n_stocks = 30, 8
        tickers = [f"S{i}" for i in range(n_stocks)]
        rankings = rankings_from(
            [list(zip(tickers, rng.normal(size=n_stocks))) for _ in range(n_days)]
        )
        returns = [dict(zip(tickers, rng.normal(0, 0.02, size=n_stocks)))
                   for _ in range(n_days)]
        led = simulate("topk", rankings, returns, k=3)
        assert led.final_value == pytest.approx(
            float(np.prod(1.0 + np.array(led.daily_returns))), abs=1e-12
        )
        for holdings in led.holdings:
            assert sum(holdings.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(w >= 0 for w in holdings.values())

    def test_k_equals_n_equal_mode_matches_market(self, rng):
        n_days, n_stocks = 10, 6
        tickers = [f"S{i}" for i in range(n_stocks)]
        rankings = rankings_from(
            [list(zip(tickers, rng.normal(size=n_stocks))) for _ in range(n_days)]
        )
        returns = [dict(zip(tickers, rng.normal(0, 0.02, size=n_stocks)))
                   for _ in range(n_days)]
        topk = simulate("topk", rankings, returns, k=n_stocks, rebalance_mode="equal")
        market = simulate("market_equal_weight", rankings, returns)
        np.testing.assert_allclose(topk.daily_returns, market.daily_returns, atol=1e-15)

    def test_k_equals_n_drift_matches_market_on_day_one(self, rng):
        n_stocks = 5
        tickers = [f"S{i}" for i in range(n_stocks)]
        rankings = rankings_from([list(zip(tickers, rng.normal(size=n_stocks)))])
        returns = [dict(zip(tickers, rng.normal(0, 0.02, size=n_stocks)))]
        topk = simulate("topk", rankings, returns, k=n_stocks)
        market = simulate("market_equal_weight", rankings, returns)
        assert topk.daily_returns[0] == pytest.approx(market.daily_returns[0], abs=1e-15)

    def test_decile_size_floor(self, rng):
        tickers = [f"S{i}" for i in range(25)]
        rankings = rankings_from([list(zip(tickers, rng.normal(size=25)))])
        returns = [dict(zip(tickers, rng.normal(0, 0.01, size=25)))]
        led = simulate("top_decile", rankings, returns)
        assert len(led.holdings[0]) == 2  # floor(25/10)

    def test_long_short_is_arithmetic_difference(self, rng):
        n_days, n_stocks = 12, 10
        tickers = [f"S{i}" for i in range(n_stocks)]
        rankings = rankings_from(
            [list(zip(tickers, rng.normal(size=n_stocks))) for _ in range(n_days)]
        )
        returns = [dict(zip(tickers, rng.normal(0, 0.02, size=n_stocks)))
                   for _ in range(n_days)]
        ls = simulate("long_short_k", rankings, returns, k=3)
        long_leg = simulate("topk", rankings, returns, k=3)
        short_leg = simulate("bottomk", rankings, returns, k=3)
        np.testing.assert_allclose(
            ls.daily_returns,
            np.array(long_leg.daily_returns) - np.array(short_leg.daily_returns),
            atol=1e-15,
        )

    def test_dead_stock_zero_returns_flow_through(self):
        rankings = rankings_from([[("A", 1.0), ("B", 0.0)]] * 3)
        returns = [{"A": 0.0, "B": 0.02}] * 3  # A is dead: zeroed upstream
        led = simulate("topk", rankings, returns, k=1)
        assert led.final_value == 1.0  # held only A, which returns nothing

    def test_date_misalignment_rejected(self):
        rankings = rankings_from([[("A", 1.0)], [("A", 1.0)]])
        with pytest.raises(DataError):
            simulate("topk", rankings, [{"A": 0.0}], k=1)

    def test_missing_return_rejected(self):
        rankings = rankings_from([[("A", 1.0), ("B", 0.5)]])
        with pytest.raises(DataError):
            simulate("topk", rankings, [{"A": 0.0}], k=1)

    def test_k_larger_than_universe_rejected(self):
        rankings = rankings_from([[("A", 1.0)]])
        with pytest.raises(DataError):
            simulate("topk", rankings, [{"A": 0.0}], k=5)

    def test_unknown_strategy(self):
        with pytest.raises(DataError):
            simulate("momentum", [], [])

    def test_deterministic_and_order_independent(self, rng):
        tickers = [f"S{i}" for i in range(6)]
        day_scores = list(zip(tickers, rng.normal(size=6)))
        returns = dict(zip(tickers, rng.normal(0, 0.02, size=6)))
        a = simulate("topk", rankings_from([day_scores]), [returns], k=2)
        b = simulate("topk", rankings_from([day_scores[::-1]]), [dict(reversed(list(returns.items())))], k=2)
        assert a.values == b.values
        assert a.holdings == b.holdings


class BruteForcePortfolio:
    """Independent dollar-accounting simulator used as the 30-day oracle.

    Tracks explicit dollar positions instead of weights: a sale moves the
    position's dollars to cash, newcomers split the cash equally, every
    position then grows by (1 + r). Portfolio value is the plain sum.
    """

    def __init__(self, k):
        self.k = k
        self.positions: dict[str, float] = {}
        self.cash = 1.0
        self.values = []

    def step(self, ranking_scores, returns):
        ordered = sorted(ranking_scores.items(), key=lambda kv: (-kv[1], kv[0]))
        target = [t for t, _ in ordered[: self.k]]
        for t in list(self.positions):
            if t not in target:
                self.cash += self.positions.pop(t)
        newcomers = [t for t in target if t not in self.positions]
        if newcomers:
            slice_dollars = self.cash / len(newcomers)
            for t in newcomers:
                self.positions[t] = slice_dollars
            self.cash = 0.0
        for t in self.positions:
            self.positions[t] *= 1.0 + returns[t]
        self.values.append(self.cash + sum(self.positions.values()))


def test_thirty_day_scripted_scenario_vs_brute_force(rng):
    n_days, n_stocks, k = 30, 5, 2
    tickers = [f"S{i}" for i in range(n_stocks)]
    scores = [dict(zip(tickers, rng.normal(size=n_stocks))) for _ in range(n_days)]
    returns = [dict(zip(tickers, rng.normal(0.001, 0.03, size=n_stocks)))
               for _ in range(n_days)]

    led = simulate("topk", [rank_for_day(i, s) for i, s in enumerate(scores)], returns, k=k)

    oracle = BruteForcePortfolio(k)
    for day in range(n_days):
        oracle.step(scores[day], returns[day])
    np.testing.assert_allclose(led.values, oracle.values, atol=1e-12)


class TestCombine:
    def _ledger(self, rets, dates=None):
        led = BacktestLedger()
        for i, r in enumerate(rets):
            led.append(dates[i] if dates else i, {"A": 1.0}, r)
        return led

    def test_single_ledger_identity(self):
        led = self._ledger([0.01, -0.02])
        out = combine_strategies([led])
        assert out.daily_returns == led.daily_returns
        assert out.values == led.values

    def test_identical_ledgers(self):
        a = self._ledger([0.01, 0.02])
        b = self._ledger([0.01, 0.02])
        out = combine_strategies([a, b])
        np.testing.assert_allclose(out.values, a.values, atol=1e-15)

    def test_cancellation(self, rng):
        r = rng.normal(0, 0.01, size=10)
        a = self._ledger(list(r))
        b = self._ledger(list(-r))
        out = combine_strategies([a, b])
        np.testing.assert_allclose(out.values, 1.0, atol=1e-15)

    def test_date_mismatch_rejected(self):
        a = self._ledger([0.01], dates=["2020-01-01"])
        b = self._ledger([0.01], dates=["2020-01-02"])
        with pytest.raises(DataError):
            combine_strategies([a, b])


class TestLedgerCsv:
    def test_round_trip(self, rng, tmp_path):
        tickers = ["A", "B", "C"]
        rankings = rankings_from(
            [list(zip(tickers, rng.normal(size=3))) for _ in range(5)]
        )
        returns = [dict(zip(tickers, rng.normal(0, 0.02, size=3))) for _ in range(5)]
        led = simulate("topk", rankings, returns, k=2)
        path = tmp_path / "ledger.csv"
        led.to_csv(path)
        loaded = BacktestLedger.from_csv(path)
        np.testing.assert_allclose(loaded.daily_returns, led.daily_returns, rtol=1e-15)
        np.testing.assert_allclose(loaded.values, led.values, rtol=1e-15)
        assert loaded.holdings[0].keys() == led.holdings[0].keys()

    @pytest.mark.parametrize("bad", [
        "garbage-line",
        "2020-01-03,1.0,not-a-number,A:0.5;B:0.5",
        "2020-01-03,1.0,0.01,A:0.5;B",
        "2020-01-03,1.0,nan,A:1.0",
    ])
    def test_malformed_line_names_path_and_line(self, tmp_path, bad):
        led = BacktestLedger()
        led.append("2020-01-02", {"A": 1.0}, 0.01)
        path = tmp_path / "ledger.csv"
        led.to_csv(path)
        with open(path, "a") as fh:
            fh.write(bad + "\n")
        with pytest.raises(DataError, match=f"{path}:3"):
            BacktestLedger.from_csv(path)
