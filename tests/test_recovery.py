"""Planted-signal recovery: the quality gate for changes that move scores.

``synth`` arms a motif on some (stock, day) cells: a volume spike on the
anchor day and a 10% jump in the return a model anchored there is asked to
predict. A model that learns the motif ranks the armed names high on their
anchor days. The measure is the mean percentile rank (0 bottom, 1 top) of
the armed test cells among all names that day; chance is 0.5, with a
standard error of about 0.025 over the 130 armed cells scored here.

The thin configuration trains in about a second. With it, model seeds 0-4
read 0.68-0.87 on planted data and 0.45-0.52 on the same seed's data
generated without events, scored against the same cells; 0.6, four
standard errors above chance, separates the two.
"""

import numpy as np
import pytest

from stockrank.config import RunConfig
from stockrank.dataset import return_matrix
from stockrank.pipeline import build_panel, load_universe, plan_periods, train_walk_forward
from stockrank.synth import SignalSpec, generate, write_ohlcv_csv, write_sector_csv

RECOVERED = 0.6


def write_data(path, event_rate):
    """The seed-3, 60 x 600 synth data set; returns its planted events."""
    spec = SignalSpec(event_rate=event_rate, jump_prob=1.0, jump_size=0.1)
    rows, events, _calendar = generate(3, 60, 600, spec)
    path.mkdir()
    write_ohlcv_csv(rows, str(path / "ohlcv.csv"))
    write_sector_csv([r["ticker"] for r in rows], str(path / "sectors.csv"))
    return events


def armed_percentile(data_dir, events):
    """Train the thin configuration with the ``new`` loss on data_dir and
    return the mean percentile rank of the events' test cells in ensemble
    0's scores, with the number of cells scored."""
    cfg = RunConfig(ohlcv_path=str(data_dir / "ohlcv.csv"),
                    sector_path=str(data_dir / "sectors.csv"),
                    conv=[[3, 8]], dense=[8], n_members=1, max_periods=2, max_epochs=3,
                    batch_size=64, loss="return_weighted_ce")
    cfg.validate()
    universe = load_universe(cfg)
    panel = build_panel(cfg, universe)
    _ensembles, records = train_walk_forward(cfg, universe, panel, plan_periods(cfg, panel),
                                             return_matrix(universe))
    scores = np.concatenate([r.scores[0] for r in records])  # (days, stocks)
    percentile = scores.argsort(axis=1).argsort(axis=1) / (universe.n_stocks - 1)
    days = np.concatenate([np.arange(*r.plan.test_range) for r in records])
    row = {d: i for i, d in enumerate(days.tolist())}
    column = {t: j for j, t in enumerate(universe.tickers)}
    cells = [percentile[row[e.anchor_day], column[e.ticker]]
             for e in events if e.anchor_day in row]
    return float(np.mean(cells)), len(cells)


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    path = tmp_path_factory.mktemp("recovery") / "planted"
    return path, write_data(path, event_rate=0.05)


def test_new_loss_recovers_planted_events(planted):
    mean_pct, cells = armed_percentile(*planted)
    assert cells == 130
    assert mean_pct > RECOVERED, f"armed names' mean percentile {mean_pct:.3f}"


def test_event_free_data_fails_the_gate(planted, tmp_path):
    # the same cells on data without the motif: the gate is not met by
    # the scorer or the pipeline alone
    _path, events = planted
    write_data(tmp_path / "plain", event_rate=0.0)
    mean_pct, _cells = armed_percentile(tmp_path / "plain", events)
    assert mean_pct < RECOVERED, f"event-free data read {mean_pct:.3f}"
