import datetime as dt
import re

import numpy as np
import pytest

from stockrank.errors import DataError
from stockrank.market_data import (
    NO_SECTOR_ID,
    apply_dead_stock_rule,
    filter_by_dollar_volume,
    load_ohlcv,
)

from conftest import assert_on_calendar, make_calendar, make_universe


def write_ohlcv(path, rows):
    with open(path, "w") as fh:
        fh.write("ticker,date,open,high,low,close,volume\n")
        for r in rows:
            fh.write(",".join(str(x) for x in r) + "\n")


def write_sectors(path, pairs):
    with open(path, "w") as fh:
        fh.write("ticker,sector\n")
        for t, s in pairs:
            fh.write(f"{t},{s}\n")


def days(n):
    return [d.isoformat() for d in make_calendar(n)]


def simple_rows(ticker, dates, price=10.0, volume=1_000_000):
    return [
        (ticker, d, price, price * 1.01, price * 0.99, price, volume) for d in dates
    ]


class TestLoadOhlcv:
    def test_two_tickers_five_days(self, tmp_path):
        d5 = days(5)
        write_ohlcv(tmp_path / "p.csv", simple_rows("AAA", d5) + simple_rows("BBB", d5))
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy"), ("BBB", "Utilities")])
        u = load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv")
        assert u.n_days == 5
        assert u.n_stocks == 2
        assert u.tickers == ("AAA", "BBB")
        assert_on_calendar(u)

    def test_missing_calendar_day_is_an_error(self, tmp_path):
        d5 = days(5)
        gappy = simple_rows("BBB", d5[:2] + d5[3:])  # missing the middle day
        write_ohlcv(tmp_path / "p.csv", simple_rows("AAA", d5) + gappy)
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy"), ("BBB", "Energy")])
        with pytest.raises(DataError, match=r"BBB.*2020-01-03"):
            load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv")

    def test_unknown_sector_maps_to_reserved_id(self, tmp_path):
        d5 = days(5)
        write_ohlcv(tmp_path / "p.csv", simple_rows("XYZ", d5) + simple_rows("AAA", d5))
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy")])  # XYZ absent
        u = load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv")
        by_ticker = {s.ticker: s for s in u.stocks}
        assert by_ticker["XYZ"].sector_id == NO_SECTOR_ID
        assert by_ticker["AAA"].sector_id == 0

    def test_repeated_sector_ticker_names_path_and_line(self, tmp_path):
        write_ohlcv(tmp_path / "p.csv", simple_rows("AAA", days(5)))
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy"), ("BBB", "Energy"),
                                           ("AAA", "Utilities")])
        with pytest.raises(DataError, match=re.escape(f"{tmp_path / 's.csv'}:4: repeated ticker")):
            load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv")

    def test_unrecognized_sector_name_maps_to_reserved_id(self, tmp_path):
        d5 = days(5)
        write_ohlcv(tmp_path / "p.csv", simple_rows("AAA", d5))
        write_sectors(tmp_path / "s.csv", [("AAA", "Cryptozoology")])
        u = load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv")
        assert u.stocks[0].sector_id == NO_SECTOR_ID

    def test_duplicate_ticker_date(self, tmp_path):
        d5 = days(5)
        rows = simple_rows("AAA", d5) + simple_rows("AAA", d5[:1])
        write_ohlcv(tmp_path / "p.csv", rows)
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy")])
        with pytest.raises(DataError, match="duplicate"):
            load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv")

    def test_malformed_row_reports_file_and_line(self, tmp_path):
        d2 = days(2)
        rows = simple_rows("AAA", d2)
        rows[1] = ("AAA", d2[1], "oops", 10.1, 9.9, 10.0, 100)
        write_ohlcv(tmp_path / "p.csv", rows)
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy")])
        with pytest.raises(DataError, match=r"p\.csv:3"):
            load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv")

    def test_high_low_must_bracket(self, tmp_path):
        d1 = days(1)
        write_ohlcv(tmp_path / "p.csv", [("AAA", d1[0], 10, 9.5, 9.0, 10, 100)])
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy")])
        with pytest.raises(DataError, match="bracket"):
            load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv")

    def test_non_positive_price_pre_death(self, tmp_path):
        d3 = days(3)
        rows = [
            ("AAA", d3[0], 10, 10.1, 9.9, 10, 100),
            ("AAA", d3[1], -1, 10.1, -1, -1, 100),
            ("AAA", d3[2], 10, 10.1, 9.9, 10, 100),
        ]
        write_ohlcv(tmp_path / "p.csv", rows)
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy")])
        with pytest.raises(DataError, match="non-positive"):
            load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv")

    def test_non_spanning_ticker_dropped_with_range(self, tmp_path):
        d5 = days(5)
        rows = simple_rows("AAA", d5) + simple_rows("BBB", d5[2:])
        write_ohlcv(tmp_path / "p.csv", rows)
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy"), ("BBB", "Energy")])
        u = load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv",
                       start=dt.date.fromisoformat(d5[0]), end=dt.date.fromisoformat(d5[4]))
        assert u.tickers == ("AAA",)
        assert "BBB" not in u.tickers


_GOOD = ["AAA", "2020-01-02", "10.0", "10.1", "9.9", "10.0", "100"]


def _bad_row(col, text):
    row = list(_GOOD)
    row[col] = text
    return ",".join(row)


_PRICE_COLUMNS = {"open": 2, "high": 3, "low": 4, "close": 5}

# (line 3 of a three-line file, the message it must give)
_BAD_ROWS = [
    (_bad_row(1, "2020-13-01"), "bad date '2020-13-01' (expected YYYY-MM-DD)"),
    (_bad_row(1, "01/02/2020"), "bad date '01/02/2020' (expected YYYY-MM-DD)"),
    *[(_bad_row(i, "oops"), f"bad {name} value 'oops'") for name, i in _PRICE_COLUMNS.items()],
    *[(_bad_row(i, v), f"non-finite {name} value '{v}'")
      for name, i in _PRICE_COLUMNS.items() for v in ("nan", "inf")],
    (_bad_row(6, "12x"), "bad volume value '12x'"),
    (_bad_row(6, "1.5"), "bad volume value '1.5'"),
    (_bad_row(6, "-5"), "negative volume -5"),
    (",".join(_GOOD[:6]), "expected 7 columns, got 6"),
    (",".join(_GOOD + ["1"]), "expected 7 columns, got 8"),
    (_bad_row(0, ""), "empty ticker"),
    (_bad_row(0, "   "), "empty ticker"),
    (_bad_row(4, "10.05"), "high/low do not bracket open/close"),
    (_bad_row(3, "9.95"), "high/low do not bracket open/close"),
]


class TestIngestEdgeCases:
    def _write(self, tmp_path, lines):
        path = tmp_path / "p.csv"
        path.write_text("ticker,date,open,high,low,close,volume\n" + "\n".join(lines) + "\n")
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy")])
        return path

    @pytest.mark.parametrize("bad,message", _BAD_ROWS)
    def test_bad_row_names_path_line_and_cause(self, tmp_path, bad, message):
        d = days(3)
        lines = [f"AAA,{d[0]},10.0,10.1,9.9,10.0,100", bad, f"AAA,{d[2]},10.0,10.1,9.9,10.0,100"]
        path = self._write(tmp_path, lines)
        with pytest.raises(DataError, match=re.escape(f"{path}:3: {message}")):
            load_ohlcv(path, tmp_path / "s.csv")

    @pytest.mark.parametrize("blank", ["", "   ", ",,,,,,", " , ,\t, , , , "])
    def test_blank_row_is_skipped(self, tmp_path, blank):
        d = days(2)
        path = self._write(tmp_path, [f"AAA,{d[0]},10.0,10.1,9.9,10.0,100", blank,
                                      f"AAA,{d[1]},10.0,10.1,9.9,10.0,100"])
        u = load_ohlcv(path, tmp_path / "s.csv")
        assert u.calendar == tuple(dt.date.fromisoformat(x) for x in d)

    def test_first_fault_in_file_order_wins(self, tmp_path):
        d = days(4)
        # line 3 fails a late check (close), line 4 the earliest (column count)
        lines = [f"AAA,{d[0]},10.0,10.1,9.9,10.0,100",
                 f"AAA,{d[1]},10.0,10.1,9.9,nan,100",
                 f"AAA,{d[2]},10.0,10.1",
                 f"AAA,{d[3]},10.0,10.1,9.9,10.0,100"]
        path = self._write(tmp_path, lines)
        with pytest.raises(DataError, match=re.escape(f"{path}:3: non-finite close")):
            load_ohlcv(path, tmp_path / "s.csv")


class TestDollarVolumeFilter:
    def test_retained_above_threshold(self):
        u = make_universe({"AAA": [10.0] * 5}, volumes={"AAA": [2_000_000] * 5})
        out = filter_by_dollar_volume(u, 1e7)
        assert out.tickers == ("AAA",)

    def test_removed_below_threshold(self):
        u = make_universe(
            {"AAA": [10.0] * 5, "BBB": [10.0] * 5},
            volumes={"AAA": [2_000_000] * 5, "BBB": [500_000] * 5},
        )
        out = filter_by_dollar_volume(u, 1e7)
        assert out.tickers == ("AAA",)

    def test_zero_threshold_rejected(self):
        u = make_universe({"AAA": [10.0] * 5})
        with pytest.raises(DataError):
            filter_by_dollar_volume(u, 0.0)

    def test_empty_result_is_an_error(self):
        u = make_universe({"AAA": [10.0] * 5}, volumes={"AAA": [10] * 5})
        with pytest.raises(DataError, match="every stock"):
            filter_by_dollar_volume(u, 1e7)

    def test_idempotent(self, rng):
        vols = {f"T{i}": list(rng.integers(10_000, 5_000_000, size=6)) for i in range(8)}
        u = make_universe({t: [10.0] * 6 for t in vols}, volumes=vols)
        once = filter_by_dollar_volume(u, 1e7)
        twice = filter_by_dollar_volume(once, 1e7)
        assert once.tickers == twice.tickers
        assert once.calendar == twice.calendar

    def test_calendar_unchanged(self):
        u = make_universe({"AAA": [10.0] * 5, "BBB": [10.0] * 5},
                          volumes={"AAA": [2_000_000] * 5, "BBB": [1] * 5})
        assert filter_by_dollar_volume(u, 1e7).calendar == u.calendar


class TestDeadStockRule:
    def test_death_on_second_day(self):
        u = make_universe({"AAA": [5.0, 0.05, 0.04]})
        out = apply_dead_stock_rule(u, 0.1)
        assert out.stocks[0].death_date == u.calendar[1]
        assert out.stocks[0].death_index(u.calendar) == 1

    def test_no_trigger(self):
        u = make_universe({"AAA": [5.0, 0.2, 0.11]})
        assert apply_dead_stock_rule(u, 0.1).stocks[0].death_date is None

    def test_death_is_permanent_despite_recovery(self):
        opens = [0.05, 5.0, 5.0]
        # linear-scan oracle: first index with open < floor
        expected = next(i for i, o in enumerate(opens) if o < 0.1)
        u = make_universe({"AAA": opens})
        out = apply_dead_stock_rule(u, 0.1)
        assert out.stocks[0].death_index(u.calendar) == expected == 0

    def test_bars_unchanged(self, rng):
        opens = list(rng.uniform(0.01, 10.0, size=12))
        u = make_universe({"AAA": opens})
        out = apply_dead_stock_rule(u, 0.1)
        assert out.stocks[0].bars == u.stocks[0].bars
        assert_on_calendar(out)

    def test_stock_stays_in_universe(self):
        u = make_universe({"AAA": [0.01] * 4, "BBB": [5.0] * 4})
        out = apply_dead_stock_rule(u, 0.1)
        assert out.n_stocks == 2
