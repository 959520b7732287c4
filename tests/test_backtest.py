import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from stockrank import pipeline
from stockrank.backtest import (
    STRATEGIES,
    BacktestLedger,
    _rebalance,
    combine_strategies,
    long_short,
    rank_for_day,
    simulate,
)
from stockrank.config import RunConfig
from stockrank.dataset import return_matrix
from stockrank.errors import DataError
from stockrank.market_data import Universe
from stockrank.pipeline import run_strategies

from conftest import make_calendar

NAMES = ["A", "B", "C", "D"]
CFG = RunConfig()


def run(strategy, score_rows, returns, k=CFG.k, rebalance_mode=CFG.rebalance_mode, alive=None):
    """simulate over days given as {ticker: score} and {ticker: return}
    dicts, with the config's k and rebalance mode unless given; columns are
    the sorted tickers of the first day, rows are dated by make_calendar."""
    tickers = sorted(score_rows[0])
    scores = np.array([[day[t] for t in tickers] for day in score_rows])
    rets = np.array([[day[t] for t in tickers] for day in returns])
    alive = np.ones(scores.shape, dtype=bool) if alive is None else np.asarray(alive)
    return simulate(strategy, scores, rets, alive, make_calendar(len(score_rows)), tickers,
                    k=k, rebalance_mode=rebalance_mode)


def random_days(rng, n_days, n_stocks, vol=0.02):
    """(scores, returns) as lists of {ticker: value} dicts."""
    tickers = [f"S{i}" for i in range(n_stocks)]
    scores = [dict(zip(tickers, rng.normal(size=n_stocks))) for _ in range(n_days)]
    returns = [dict(zip(tickers, rng.normal(0, vol, size=n_stocks))) for _ in range(n_days)]
    return scores, returns


def rebalance(current, target, mode="drift"):
    """_rebalance on names: holdings dicts and target lists of NAMES."""
    held, weights = _rebalance([NAMES.index(t) for t in current], list(current.values()),
                               [NAMES.index(t) for t in target], mode)
    return {NAMES[s]: w for s, w in zip(held, weights)}


def trades(before, after):
    """Names sold and bought in moving from one holdings dict to the next."""
    return {"sell": sorted(before.keys() - after.keys()),
            "buy": sorted(after.keys() - before.keys())}


class TestRank:
    def test_orders_by_score(self):
        r = rank_for_day("2020-01-02", {"A": 0.1, "B": 0.9, "C": -0.3})
        assert [t for t, _ in r.entries] == ["B", "A", "C"]
        assert r.date == "2020-01-02"

    def test_ties_break_lexicographically(self):
        r = rank_for_day(0, {"C": 0.5, "A": 0.5, "B": 0.5})
        assert [t for t, _ in r.entries] == ["A", "B", "C"]
        day = [{"C": 0.5, "A": 0.5, "B": 0.5}]
        zero = [{"A": 0.0, "B": 0.0, "C": 0.0}]
        assert list(run("topk", day, zero, k=1).holdings[0]) == ["A"]
        assert list(run("bottomk", day, zero, k=1).holdings[0]) == ["C"]

    def test_input_order_irrelevant(self):
        a = rank_for_day(0, dict([("A", 1.0), ("B", 2.0), ("C", 0.5)]))
        b = rank_for_day(0, dict([("C", 0.5), ("B", 2.0), ("A", 1.0)]))
        assert a.entries == b.entries

    def test_top_bottom_selection(self):
        day = [{"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.0}]
        zero = [dict.fromkeys("ABCD", 0.0)]
        assert sorted(run("topk", day, zero, k=2).holdings[0]) == ["A", "B"]
        assert sorted(run("bottomk", day, zero, k=2).holdings[0]) == ["C", "D"]


class TestRebalance:
    def test_sell_hold_buy(self):
        current = {"A": 0.6, "B": 0.4}
        new = rebalance(current, ["B", "C"])
        assert trades(current, new) == {"sell": ["A"], "buy": ["C"]}
        assert new["B"] == pytest.approx(0.4)
        assert new["C"] == pytest.approx(0.6)  # freed capital from A
        assert sum(new.values()) == pytest.approx(1.0, abs=1e-15)

    def test_no_trades_at_fixed_point(self):
        current = {"A": 0.5, "B": 0.5}
        new = rebalance(current, ["A", "B"])
        assert trades(current, new) == {"sell": [], "buy": []}
        assert new == pytest.approx(current)

    def test_initial_buy_equal_weights(self):
        new = rebalance({}, ["A", "B", "C", "D"])
        assert trades({}, new)["buy"] == ["A", "B", "C", "D"]
        assert all(w == pytest.approx(0.25) for w in new.values())

    def test_equal_mode_requalizes(self):
        current = {"A": 0.9, "B": 0.1}
        new = rebalance(current, ["A", "B"], mode="equal")
        assert new == {"A": 0.5, "B": 0.5}

    def test_drifted_holdings_keep_weights(self):
        current = {"A": 0.7, "B": 0.3}
        new = rebalance(current, ["A", "B", "C"])
        # nothing freed: C gets 0, weights renormalize over A and B
        assert new["C"] == pytest.approx(0.0, abs=1e-15)
        assert new["A"] == pytest.approx(0.7)

    def test_kept_names_stay_in_entry_order_and_buys_follow_in_ticker_order(self):
        new = rebalance({"C": 0.5, "A": 0.5}, ["D", "C", "B"])
        assert list(new) == ["C", "B", "D"]


class TestSimulate:
    def test_null_market_final_value_one(self):
        led = run("topk", [{"A": 1.0, "B": 0.5}] * 4, [{"A": 0.0, "B": 0.0}] * 4, k=2)
        assert led.final_value == 1.0

    def test_hand_compounding(self):
        led = run("topk", [{"A": 1.0}] * 2, [{"A": 0.10}, {"A": -0.10}], k=1)
        assert led.final_value == pytest.approx(0.99, abs=1e-15)

    def test_three_stock_three_day_pencil_oracle(self):
        # Day 0: ranking favors A, B; equal buy 0.5/0.5.
        #   returns A +10%, B 0% -> value 1.05; drifted A 11/21, B 10/21.
        # Day 1: ranking favors A, C; sell B (10/21 freed), hold A at 11/21.
        #   C gets 10/21 and returns +5%:
        #   day ret = 11/21*0 + 10/21*0.05 = 0.0238095...; value 1.05 * (1 + 1/42)
        # Day 2: ranking favors A, C, no trades; returns both -2%.
        scores = [
            {"A": 2.0, "B": 1.0, "C": 0.0},
            {"A": 2.0, "C": 1.0, "B": 0.0},
            {"A": 2.0, "C": 1.0, "B": 0.0},
        ]
        returns = [
            {"A": 0.10, "B": 0.0, "C": 0.07},
            {"A": 0.0, "B": 0.03, "C": 0.05},
            {"A": -0.02, "B": 0.0, "C": -0.02},
        ]
        led = run("topk", scores, returns, k=2)

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
        led = run("topk", *random_days(rng, 30, 8), k=3)
        assert led.final_value == pytest.approx(
            float(np.prod(1.0 + np.array(led.daily_returns))), abs=1e-12
        )
        for holdings in led.holdings:
            assert sum(holdings.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(w >= 0 for w in holdings.values())

    def test_k_equals_n_equal_mode_matches_market(self, rng):
        scores, returns = random_days(rng, 10, 6)
        topk = run("topk", scores, returns, k=6, rebalance_mode="equal")
        market = run("market_equal_weight", scores, returns)
        np.testing.assert_allclose(topk.daily_returns, market.daily_returns, atol=1e-15)

    def test_k_equals_n_drift_matches_market_on_day_one(self, rng):
        scores, returns = random_days(rng, 1, 5)
        topk = run("topk", scores, returns, k=5)
        market = run("market_equal_weight", scores, returns)
        assert topk.daily_returns[0] == pytest.approx(market.daily_returns[0], abs=1e-15)

    def test_decile_size_floor(self, rng):
        led = run("top_decile", *random_days(rng, 1, 25, vol=0.01))
        assert len(led.holdings[0]) == 2  # floor(25/10)

    def test_long_short_is_arithmetic_difference(self, rng):
        scores, returns = random_days(rng, 12, 10)
        long_leg = run("topk", scores, returns, k=3)
        short_leg = run("bottomk", scores, returns, k=3)
        ls = long_short(long_leg, short_leg)
        assert ls.dates == long_leg.dates
        assert ls.holdings == long_leg.holdings  # the long leg's names only
        np.testing.assert_array_equal(
            ls.daily_returns, np.array(long_leg.daily_returns) - np.array(short_leg.daily_returns))

    def test_dead_stock_zero_returns_flow_through(self):
        scores = [{"A": 1.0, "B": 0.0}] * 3
        returns = [{"A": 0.0, "B": 0.02}] * 3  # A is dead: zeroed upstream
        led = run("topk", scores, returns, k=1, alive=[[False, True]] * 3)
        assert led.final_value == 1.0  # held only A, which returns nothing

    def test_market_holds_only_alive_names(self):
        scores = [{"A": 1.0, "B": 0.0, "C": 0.5}] * 2
        returns = [{"A": 0.0, "B": 0.02, "C": 0.04}] * 2
        led = run("market_equal_weight", scores, returns,
                  alive=[[True, True, True], [False, True, True]])
        assert led.holdings[1] == {"B": 0.5, "C": 0.5}
        assert led.daily_returns[1] == pytest.approx(0.03, abs=1e-15)
        with pytest.raises(DataError, match="no alive stocks"):
            run("market_equal_weight", scores, returns, alive=[[False] * 3] * 2)

    def test_date_misalignment_rejected(self):
        with pytest.raises(DataError):
            run("topk", [{"A": 1.0}, {"A": 1.0}], [{"A": 0.0}], k=1)

    def test_missing_return_rejected(self):
        with pytest.raises(DataError):  # a return column short
            simulate("topk", np.array([[1.0, 0.5]]), np.array([[0.0]]),
                     np.ones((1, 2), dtype=bool), [0], ["A", "B"], k=1,
                     rebalance_mode=CFG.rebalance_mode)

    def test_k_larger_than_universe_rejected(self):
        with pytest.raises(DataError):
            run("topk", [{"A": 1.0}], [{"A": 0.0}], k=5)

    def test_unknown_strategy(self):
        with pytest.raises(DataError):
            run("momentum", [{"A": 1.0}], [{"A": 0.0}])
        with pytest.raises(DataError, match="unknown book"):  # long_short composes these
            run("long_short_k", [{"A": 1.0}], [{"A": 0.0}], k=1)

    def test_deterministic_and_leaves_inputs_alone(self, rng):
        scores, returns, alive = rng.normal(size=(5, 6)), rng.normal(0, 0.02, (5, 6)), \
            rng.random((5, 6)) < 0.8
        before = [scores.copy(), returns.copy(), alive.copy()]
        a, b = (simulate("topk", scores, returns, alive, list(range(5)), list("ABCDEF"), k=2,
                         rebalance_mode=CFG.rebalance_mode) for _ in range(2))
        assert a.values == b.values
        assert a.holdings == b.holdings
        for x, y in zip(before, (scores, returns, alive)):
            np.testing.assert_array_equal(x, y)


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

    led = run("topk", scores, returns, k=k)

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
        led = run("topk", *random_days(rng, 5, 3), k=2)
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
        "20x5-13-01,1.0,0.01,A:1.0",
        "2020-02-30,1.0,0.01,A:1.0",
        "2020-1-03,1.0,0.01,A:1.0",
        "20200103,1.0,0.01,A:1.0",
        "2020-W01-5,1.0,0.01,A:1.0",
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

    @pytest.mark.parametrize("bad_value", [
        lambda value: "abc",
        lambda value: repr(math.nextafter(float(value), math.inf)),  # one ulp off
    ], ids=["unparsable", "one_ulp_off"])
    def test_value_that_is_not_the_compounded_returns_names_path_and_line(self, tmp_path,
                                                                          bad_value):
        led = BacktestLedger()
        led.append("2020-01-02", {"A": 1.0}, 0.01)
        led.append("2020-01-03", {"A": 1.0}, 0.02)
        path = tmp_path / "ledger.csv"
        led.to_csv(path)
        lines = path.read_text().splitlines()
        date, value, rest = lines[2].split(",", 2)
        lines[2] = f"{date},{bad_value(value)},{rest}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"{path}:3"):
            BacktestLedger.from_csv(path)


def _ledger_bytes(ledgers: dict[str, BacktestLedger]) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        out = {}
        for name, led in ledgers.items():
            path = f"{tmp}/{name}.csv"
            led.to_csv(path)
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_stocks=st.integers(1, 12),
       n_test=st.integers(1, 15), n_ensembles=st.integers(1, 3),
       mode=st.sampled_from(["drift", "equal"]), data=st.data())
def test_arrays_write_the_ledgers_of_the_dict_oracle(seed, n_stocks, n_test, n_ensembles,
                                                     mode, data):
    """run_strategies on the score array writes ledger files byte for byte
    as the dict-per-day oracle does: ties (scores on a coarse grid,
    signed zeros included), stocks dying on the way, any k, both modes,
    every strategy and one to three ensembles."""
    k = data.draw(st.integers(1, n_stocks), label="k")
    strategies = data.draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, unique=True),
                           label="strategies")
    rng = np.random.default_rng(seed)
    n_days = n_test + 4
    opens = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.03, (n_stocks, n_days)), axis=1))
    bars = np.repeat(opens[:, :, None], 5, axis=2)
    # each stock dies with probability 1/2 somewhere in the calendar
    death_day = np.where(rng.random(n_stocks) < 0.5, rng.integers(0, n_days, n_stocks), n_days)
    universe = Universe(calendar=make_calendar(n_days),
                        tickers=tuple(f"S{i:02d}" for i in range(n_stocks)),
                        sector_ids=np.zeros(n_stocks, dtype=int), bars=bars, death_day=death_day)
    days = np.arange(1, 1 + n_test)
    scores = np.round(rng.normal(size=(n_ensembles, n_test, n_stocks)) * 2) / 2
    cfg = RunConfig(ohlcv_path="x", sector_path="y", k=k, rebalance_mode=mode,
                    strategies=strategies)

    def outcome(run_them):  # a day with no alive stock is the same error on both sides
        try:
            return _ledger_bytes(run_them())
        except DataError as exc:
            return str(exc)

    returns = return_matrix(universe)
    assert outcome(lambda: run_strategies(cfg, universe, returns, scores, days)) == outcome(
        lambda: reference.run_strategies(strategies, universe, scores, days.tolist(), k, mode))


def test_each_book_is_simulated_once_per_ensemble(monkeypatch):
    """The default strategies over 2 ensembles simulate the 4 long-only
    books once per ensemble, long-short legs included, and the market once."""
    n_stocks, n_days = 12, 30
    rng = np.random.default_rng(3)
    opens = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.03, (n_stocks, n_days)), axis=1))
    universe = Universe(calendar=make_calendar(n_days),
                        tickers=tuple(f"S{i:02d}" for i in range(n_stocks)),
                        sector_ids=np.zeros(n_stocks, dtype=int),
                        bars=np.repeat(opens[:, :, None], 5, axis=2),
                        death_day=np.full(n_stocks, n_days))
    days = np.arange(1, n_days - 2)
    calls = []

    def counted(book, *args, **kwargs):
        calls.append(book)
        return simulate(book, *args, **kwargs)

    monkeypatch.setattr(pipeline, "simulate", counted)
    cfg = RunConfig(ohlcv_path="x", sector_path="y", k=3)
    ledgers = run_strategies(cfg, universe, return_matrix(universe),
                             rng.normal(size=(2, len(days), n_stocks)), days)
    assert sorted(ledgers) == sorted(STRATEGIES)
    assert sorted(calls) == sorted(["topk", "bottomk", "top_decile", "bottom_decile"] * 2
                                   + ["market_equal_weight"])
