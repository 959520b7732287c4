import csv
import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from stockrank import market_data
from stockrank.errors import DataError, csv_rows
from stockrank.market_data import (
    NO_SECTOR_ID,
    SECTOR_NAMES,
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
        sector_of = dict(zip(u.tickers, u.sector_ids.tolist()))
        assert sector_of["XYZ"] == NO_SECTOR_ID
        assert sector_of["AAA"] == 0

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
        assert u.sector_ids.tolist() == [NO_SECTOR_ID]

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

    def test_start_after_every_bar_is_data_error(self, tmp_path):
        # the stock starts before `start`, so it is kept, but has no bar in the range
        d2 = days(2)
        write_ohlcv(tmp_path / "p.csv", simple_rows("AAA", d2[:1]))
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy")])
        with pytest.raises(DataError, match="no stocks span the requested date range"):
            load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv",
                       start=dt.date.fromisoformat(d2[1]))


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
    (_bad_row(0, "A;A"), "ticker 'A;A' holds ';'"),
    (_bad_row(4, "10.05"), "high/low do not bracket open/close"),
    (_bad_row(3, "9.95"), "high/low do not bracket open/close"),
    # numbers float() and int() read but numpy's C reader does not
    (_bad_row(2, "1_0.0"), "bad open value '1_0.0'"),
    (_bad_row(5, "١٠.0"), "bad close value '١٠.0'"),
    (_bad_row(6, "1_000"), "bad volume value '1_000'"),
    (_bad_row(6, str(2**63)), f"bad volume value '{2**63}'"),
    ('"AA\nA",' + ",".join(_GOOD[1:]), "a quoted field holds a line break"),
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

    def test_field_longer_than_the_csv_limit_is_read(self, tmp_path):
        # 200,000 characters is beyond the csv module's default field limit
        d = days(2)
        path = self._write(tmp_path, ["A" * 200_000 + f",{d[0]},10.0,10.1,9.9,10.0,100",
                                      f"AAA,{d[1]},oops,10.1,9.9,10.0,100"])
        with pytest.raises(DataError, match=re.escape(f"{path}:3: bad open value 'oops'")):
            load_ohlcv(path, tmp_path / "s.csv")
        assert csv.field_size_limit() == 131072  # lifted only while reading

    def test_sector_file_field_longer_than_the_csv_limit_is_read(self, tmp_path):
        d = days(2)
        write_ohlcv(tmp_path / "p.csv", simple_rows("AAA", d))
        write_sectors(tmp_path / "s.csv", [("B" * 200_000, "Energy"), ("AAA", "Utilities")])
        u = load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv")
        assert u.sector_ids.tolist() == [SECTOR_NAMES.index("Utilities")]

    def test_csv_error_is_data_error_naming_the_line(self):
        # a bare carriage return inside a field of a line list
        with pytest.raises(DataError, match="^x.csv:2: new-line character"):
            with csv_rows(["a,b\n", "c\rd,e\n"], "x.csv") as rows:
                assert next(rows) == (1, ["a", "b"])
                assert csv.field_size_limit() > 131072
                next(rows)
        assert csv.field_size_limit() == 131072

    @pytest.mark.parametrize("blank", ["", "   ", ",,,,,,", " , ,\t, , , , "])
    def test_blank_row_is_skipped(self, tmp_path, blank):
        d = days(2)
        path = self._write(tmp_path, [f"AAA,{d[0]},10.0,10.1,9.9,10.0,100", blank,
                                      f"AAA,{d[1]},10.0,10.1,9.9,10.0,100"])
        u = load_ohlcv(path, tmp_path / "s.csv")
        assert u.calendar == tuple(dt.date.fromisoformat(x) for x in d)

    @pytest.mark.parametrize("tail", ['"100\n', '"100\n\n  \n'])
    def test_quote_left_open_on_the_last_line_holds_a_line_break(self, tmp_path, tail):
        d = days(2)
        path = tmp_path / "p.csv"
        path.write_text(f"ticker,date,open,high,low,close,volume\nAAA,{d[0]},1,1,1,1,1\n"
                        f"AAA,{d[1]},1,1,1,1," + tail)
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy")])
        with pytest.raises(DataError,
                           match=re.escape(f"{path}:3: a quoted field holds a line break")):
            load_ohlcv(path, tmp_path / "s.csv")

    @pytest.mark.parametrize("blank", ["   ", ",,", '"', ' ,"  '])
    def test_blank_last_line_without_a_line_break_is_skipped(self, tmp_path, blank):
        # a quote never closed reads, as in csv, to the end of the file
        d = days(1)
        path = tmp_path / "p.csv"
        path.write_text(f"ticker,date,open,high,low,close,volume\nAAA,{d[0]},1,1,1,1,1\n{blank}")
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy")])
        assert load_ohlcv(path, tmp_path / "s.csv").n_days == 1

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
        assert out.death_day.tolist() == [1]

    def test_no_trigger(self):
        u = make_universe({"AAA": [5.0, 0.2, 0.11]})
        assert apply_dead_stock_rule(u, 0.1).death_day.tolist() == [u.n_days]

    def test_death_is_permanent_despite_recovery(self):
        opens = [0.05, 5.0, 5.0]
        # linear-scan oracle: first index with open < floor
        expected = next(i for i, o in enumerate(opens) if o < 0.1)
        u = make_universe({"AAA": opens})
        out = apply_dead_stock_rule(u, 0.1)
        assert out.death_day[0] == expected == 0

    def test_bars_unchanged(self, rng):
        opens = list(rng.uniform(0.01, 10.0, size=12))
        u = make_universe({"AAA": opens})
        out = apply_dead_stock_rule(u, 0.1)
        np.testing.assert_array_equal(out.bars, u.bars)
        assert_on_calendar(out)

    def test_stock_stays_in_universe(self):
        u = make_universe({"AAA": [0.01] * 4, "BBB": [5.0] * 4})
        out = apply_dead_stock_rule(u, 0.1)
        assert out.n_stocks == 2


# ---------------------------------------------------------------------------
# bulk parse against the row-by-row oracle
# ---------------------------------------------------------------------------

_NUMBER_FORMATS = (repr, "{:.2f}".format, "{:.6f}".format, "{:.10e}".format,
                   "{:.10E}".format, lambda x: f" {x!r} ", lambda x: f'"{x!r}"',
                   lambda x: f"+{x!r}", lambda x: f"\t{x:.2f}")
_VOLUME_FORMATS = (str, lambda v: f" {v}", lambda v: f'"{v}"', lambda v: f"+{v}",
                   lambda v: f"{v}\t", lambda v: f"00{v}")
_TICKERS = ("S0", "#HASH", "A,B", 'Q"T', "LONG_TICKER_NAME_OVER_SIXTEEN", "s0", "Ünï")
_BLANK_LINES = ("", "   ", ",,,,,,", " , ,\t, , , , ", '"",""', '"  " ,', "\t", '""',
                "\x0c", ",")


def _quote(text):
    return '"' + text.replace('"', '""') + '"'


def _ticker_field(ticker, style):
    if style == 0 and not any(c in ticker for c in ',"'):
        return ticker
    if style == 1 and not any(c in ticker for c in ',"'):
        return f"  {ticker} "
    return _quote(ticker) if style != 3 else _quote(f" {ticker}  ")


def _date_field(day, style):
    return (day.isoformat(), f" {day.isoformat()}", _quote(day.isoformat()),
            day.strftime("%Y%m%d"))[style]


@st.composite
def valid_ohlcv(draw):
    """(file text, start, end) of a file load_ohlcv must accept."""
    n_dates = draw(st.integers(3, 12))
    calendar = make_calendar(n_dates, start=dt.date(2021, 3, 1))
    a = draw(st.integers(0, n_dates - 1))
    b = draw(st.integers(a, n_dates - 1))
    start = calendar[a] if draw(st.booleans()) else None
    end = calendar[b] if draw(st.booleans()) else None
    names = draw(st.lists(st.sampled_from(_TICKERS), min_size=1, max_size=4, unique=True))
    lines = []
    for i, name in enumerate(names):
        partial = i > 0 and (start or end) and draw(st.booleans())
        if partial:  # does not span [start, end]: dropped
            if start and a + 1 < n_dates and (not end or draw(st.booleans())):
                lo = draw(st.integers(a + 1, n_dates - 1))  # begins after start
                hi = draw(st.integers(lo + 1, n_dates))
            elif end and b >= 1:
                hi = draw(st.integers(1, b))  # ends before end
                lo = draw(st.integers(0, hi - 1))
            else:
                continue
        else:
            lo = draw(st.integers(0, a)) if start else 0
            hi = draw(st.integers(b + 1, n_dates)) if end else n_dates
        first_day = a if start else lo  # the window starts here for this stock
        death = draw(st.integers(first_day, hi)) if not partial else hi
        for d in range(lo, hi):
            if d < death or partial:
                o, c = draw(st.integers(1000, 10**7)), draw(st.integers(1000, 10**7))
                h = max(o, c) + draw(st.integers(0, 500))
                low = min(o, c) - draw(st.integers(0, 500))
                prices = [x / 100 for x in (o, h, low, c)]
            elif d == death:
                prices = [0.05, 0.05, 0.05, 0.05]
            else:  # quotes after death may be anything non-negative
                prices = [0.0, 0.0, 0.0, 0.0]
            fmt = draw(st.sampled_from(_NUMBER_FORMATS))
            volume = draw(st.integers(0, 10**12))
            lines.append(",".join([
                _ticker_field(name, draw(st.integers(0, 3))),
                _date_field(calendar[d], draw(st.integers(0, 3))),
                *(fmt(p) for p in prices),
                draw(st.sampled_from(_VOLUME_FORMATS))(volume),
            ]))
    if not lines:
        lines.append(f"S0,{calendar[0]},1.0,1.0,1.0,1.0,1")
        start = end = None
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BLANK_LINES)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = draw(st.sampled_from(["ticker,date,open,high,low,close,volume",
                                   ' ticker ,"date",open,high,low,close, volume']))
    text = newline.join([header, *lines]) + draw(st.sampled_from(["", newline]))
    return text, start, end


def _write_case(tmp_path, text):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    sectors = tmp_path / "s.csv"
    if not sectors.exists():
        write_sectors(sectors, [("S0", "Energy"), ("s0", "Utilities"), ("#HASH", "Materials")])
    return path, sectors


def _load_both(path, sectors, start, end):
    """(new, oracle): each a (tickers, calendar, bars, sector_ids, death_day)
    tuple or the DataError message it raised."""
    results = []
    for load in (load_ohlcv, reference.load_ohlcv_rows):
        try:
            got = load(path, sectors, start=start, end=end)
        except DataError as exc:
            results.append(str(exc))
            continue
        if load is load_ohlcv:
            got = (got.tickers, got.calendar, got.bars, got.sector_ids,
                   apply_dead_stock_rule(got).death_day)
        results.append(got)
    return results


def _assert_same(new, oracle):
    assert type(new) is type(oracle), (new, oracle)
    if isinstance(new, str):
        assert new == oracle
        return
    assert new[:2] == oracle[:2]
    assert new[2].dtype == np.float64 and new[2].shape == oracle[2].shape
    assert new[2].tobytes() == oracle[2].tobytes()  # bit for bit, signed zeros included
    assert new[3].tolist() == oracle[3].tolist()
    assert new[4].tolist() == oracle[4].tolist()


class TestBulkParse:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=valid_ohlcv())
    def test_valid_files_load_as_the_row_oracle_without_the_csv_pass(
            self, tmp_path, monkeypatch, case):
        text, start, end = case
        path, sectors = _write_case(tmp_path, text)

        def no_csv_pass(path):
            raise AssertionError("a valid file reached the csv error pass")

        monkeypatch.setattr(market_data, "_first_bad_row", no_csv_pass)
        new, oracle = _load_both(path, sectors, start, end)
        assert not isinstance(oracle, str), oracle
        _assert_same(new, oracle)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=valid_ohlcv(), data=st.data())
    def test_corrupted_files_give_the_oracle_result_or_its_data_error(
            self, tmp_path, case, data):
        text, start, end = case
        for _ in range(data.draw(st.integers(1, 3))):
            text = data.draw(_corruption(text))
        path, sectors = _write_case(tmp_path, text)
        new, oracle = _load_both(path, sectors, start, end)  # anything else raises here
        _assert_same(new, oracle)

    def test_non_ascii_tickers_load_as_the_row_oracle(self, tmp_path):
        # the C reader gets the body as UTF-8 bytes, and a two- or
        # three-byte character still reads as itself
        d = days(3)
        text = "ticker,date,open,high,low,close,volume\n" + "".join(
            f"{t},{day},{p},{p * 1.01},{p * 0.99},{p},100\n"
            for t, p in (("ÉNERGIE", 10.0), ("日本株", 20.0), (" Ωmega ", 30.0)) for day in d)
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        write_sectors(tmp_path / "s.csv", [("日本株", "Utilities"), ("ÉNERGIE", "Energy")])
        new, oracle = _load_both(path, tmp_path / "s.csv", None, None)
        _assert_same(new, oracle)
        tickers, _calendar, bars, sector_ids, _death = new
        assert tickers == ("ÉNERGIE", "Ωmega", "日本株")
        assert bars[:, 0, 0].tolist() == [10.0, 30.0, 20.0]
        assert sector_ids.tolist() == [SECTOR_NAMES.index("Energy"), NO_SECTOR_ID,
                                       SECTOR_NAMES.index("Utilities")]

    def test_csv_pass_runs_only_for_a_bad_file(self, tmp_path, monkeypatch):
        calls = []
        real = market_data._first_bad_row
        monkeypatch.setattr(market_data, "_first_bad_row",
                            lambda path: calls.append(path) or real(path))
        d = days(2)
        write_sectors(tmp_path / "s.csv", [("AAA", "Energy")])
        write_ohlcv(tmp_path / "p.csv", simple_rows("AAA", d))
        load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv")
        assert calls == []
        write_ohlcv(tmp_path / "p.csv", simple_rows("AAA", d) + [("AAA", d[1], 1, 1, 1, 1, 1)])
        with pytest.raises(DataError, match=re.escape(f"{tmp_path / 'p.csv'}:4: duplicate")):
            load_ohlcv(tmp_path / "p.csv", tmp_path / "s.csv")
        assert calls == [tmp_path / "p.csv"]


_HOSTILE = '",;\n\r \t\x0c\xa0_#x1.e-+\x00١'


@st.composite
def _corruption(draw, text):
    """text with one random edit: a character deleted, inserted or
    replaced, a line repeated, or the tail cut off."""
    kind = draw(st.sampled_from(["delete", "insert", "replace", "repeat", "cut"]))
    if not text:
        return draw(st.sampled_from(_HOSTILE))
    i = draw(st.integers(0, len(text) - 1))
    char = draw(st.sampled_from(_HOSTILE))
    if kind == "delete":
        return text[:i] + text[i + 1:]
    if kind == "insert":
        return text[:i] + char + text[i:]
    if kind == "replace":
        return text[:i] + char + text[i + 1:]
    if kind == "cut":
        return text[:i]
    lines = text.split("\n")
    j = draw(st.integers(0, len(lines) - 1))
    return "\n".join(lines[:j + 1] + lines[j:])


@settings(max_examples=400, deadline=None)
@given(text=st.text(alphabet=" \t\xa0\x0c\x1c+-_.eEinfatyINFATY0123456789١ ", max_size=8))
def test_number_syntax_matches_the_c_reader(text):
    """The csv pass reads a number only where numpy's C reader reads it,
    to the same value."""
    for kind, dtype in ((float, np.float64), (int, np.int64)):
        try:
            parsed = np.loadtxt([f"{text},"], dtype=dtype, delimiter=",", usecols=0,
                                comments=None, quotechar='"', ndmin=1)[0]
        except ValueError:
            parsed = None
        ours = market_data._c_number(text, kind)
        if ours is not None and kind is int and not -2**63 <= ours < 2**63:
            ours = None  # out of int64: the csv pass rejects it as a bad volume
        assert (ours is None) == (parsed is None), (kind, text, ours, parsed)
        if ours is not None:
            assert np.array(ours, dtype=dtype).tobytes() == np.array(parsed).tobytes()
