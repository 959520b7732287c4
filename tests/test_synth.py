import datetime as dt
import re

import numpy as np
import pytest

from stockrank.config import RunConfig
from stockrank.dataset import assign_label
from stockrank.errors import ConfigError, DataError
from stockrank.synth import (
    PlantedEvent,
    SignalSpec,
    generate,
    read_events_csv,
    write_events_csv,
    write_ohlcv_csv,
    write_sector_csv,
)

from conftest import assert_on_calendar, load_files


def opens_by_ticker(rows):
    out = {}
    for r in rows:
        out.setdefault(r["ticker"], []).append(r["open"])
    return {t: np.array(v) for t, v in out.items()}


class TestGenerate:
    def test_bit_identical_for_fixed_seed(self, tmp_path):
        spec = SignalSpec(event_rate=0.05)
        for sub in ("a", "b"):
            rows, events, _ = generate(11, 5, 60, spec)
            d = tmp_path / sub
            d.mkdir()
            write_ohlcv_csv(rows, d / "ohlcv.csv")
            write_sector_csv([r["ticker"] for r in rows], d / "sectors.csv")
            write_events_csv(events, d / "events.csv")
        for name in ("ohlcv.csv", "sectors.csv", "events.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self):
        a, _, _ = generate(1, 2, 30)
        b, _, _ = generate(2, 2, 30)
        assert any(x["open"] != y["open"] for x, y in zip(a, b))

    def test_bar_invariants_hold(self):
        rows, _, _ = generate(3, 8, 120, SignalSpec(event_rate=0.1))
        for r in rows:
            assert r["low"] <= min(r["open"], r["close"])
            assert r["high"] >= max(r["open"], r["close"])
            assert r["volume"] >= 1
            assert r["open"] > 0

    def test_loadable_by_market_data(self, tmp_path):
        rows, _, _ = generate(5, 4, 50, SignalSpec(event_rate=0.1))
        write_ohlcv_cssv = tmp_path / "ohlcv.csv"
        write_ohlcv_csv(rows, write_ohlcv_cssv)
        write_sector_csv([r["ticker"] for r in rows], tmp_path / "sectors.csv")
        u = load_files(write_ohlcv_cssv, tmp_path / "sectors.csv")
        assert u.n_stocks == 4
        assert u.n_days == 50
        assert_on_calendar(u)

    def test_zero_signal_symmetric_labels(self):
        rows, events, _ = generate(21, 20, 400, SignalSpec(event_rate=0.0))
        assert events == []
        opens = opens_by_ticker(rows)
        counts = np.zeros(5)
        thresholds = RunConfig().label_thresholds
        for series in opens.values():
            r = (series[2:] - series[1:-1]) / series[1:-1]
            for x in r:
                counts += assign_label(float(x), thresholds)
        buys, sells = counts[3], counts[1]
        strong_b, strong_s = counts[4], counts[0]
        assert abs(buys - sells) < 4 * np.sqrt(buys + sells)
        assert abs(strong_b - strong_s) < 4 * np.sqrt(strong_b + strong_s + 1)

    def test_planted_jump_rate_monte_carlo(self):
        # ~1.25e5 armed events; realized fraction within 1pp of jump_prob
        spec = SignalSpec(event_rate=0.25, jump_prob=0.8, jump_size=0.05)
        _, events, _ = generate(7, 250, 2000, spec)
        assert len(events) > 100_000
        realized = sum(e.realized for e in events) / len(events)
        assert realized == pytest.approx(0.8, abs=0.01)

    def test_realized_jump_visible_in_returns(self):
        spec = SignalSpec(event_rate=0.05, jump_prob=1.0, jump_size=0.05,
                          volume_factor=6.0)
        rows, events, _ = generate(9, 6, 200, spec)
        opens = opens_by_ticker(rows)
        vols = {}
        for r in rows:
            vols.setdefault(r["ticker"], []).append(r["volume"])
        for e in events[:40]:
            series = opens[e.ticker]
            T = e.anchor_day
            r = (series[T + 2] - series[T + 1]) / series[T + 1]
            # jump of 5% on top of ~2% daily noise
            assert r > 0.05 - 4 * 0.02
            # the motif itself: a volume spike on the anchor day
            median_vol = np.median(vols[e.ticker])
            assert vols[e.ticker][T] > 2.5 * median_vol

    def test_events_only_where_payoff_observable(self):
        _, events, _ = generate(3, 10, 100, SignalSpec(event_rate=0.3))
        assert all(e.anchor_day <= 97 for e in events)

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            SignalSpec(event_rate=1.5)
        with pytest.raises(ConfigError):
            SignalSpec(jump_size=-1.5)
        with pytest.raises(ConfigError):
            generate(0, 0, 50)

    def test_events_csv_round_trip(self, tmp_path):
        _, events, _ = generate(13, 5, 80, SignalSpec(event_rate=0.2))
        path = tmp_path / "events.csv"
        write_events_csv(events, path)
        loaded = read_events_csv(path)
        assert loaded == events
        assert all(isinstance(e, PlantedEvent) for e in loaded)

    def test_events_csv_skips_blank_lines(self, tmp_path):
        _, events, _ = generate(13, 5, 80, SignalSpec(event_rate=0.2))
        path = tmp_path / "events.csv"
        write_events_csv(events, path)
        with open(path, "a") as fh:
            fh.write("\n \n")
        assert read_events_csv(path) == events

    @pytest.mark.parametrize("line,lineno", [
        ("ticker,day,date,realized", 1),  # a header that is not the events header
        ("S000,5,2015-01-08", 3),
        ("S000,5,2015-01-08,1,extra", 3),
        ("S000,five,2015-01-08,1", 3),
        ("S000,5,2015-13-08,1", 3),
        ("S000,5,2015-01-08,yes", 3),
        ('S000,5,"2015-01-08', 3),  # a quote left open to the end of the file
    ])
    def test_bad_events_line_is_data_error_naming_path_and_line(self, tmp_path, line, lineno):
        path = tmp_path / "events.csv"
        write_events_csv([PlantedEvent("S000", 4, dt.date(2015, 1, 7), True)], path)
        lines = path.read_text().splitlines()
        if lineno == 1:
            lines[0] = line
        else:
            lines.append(line)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{lineno}: "):
            read_events_csv(path)
