"""Command-line entry points.

Subcommands: synth, features, train, backtest, report, run. `run` is the
whole walk-forward pipeline; `train`, `backtest` and `report` are its
stages, call the same pipeline functions, and together write the same
scores, ledgers and report as `run`. Exit codes: 0 success, 2 config
error, 3 data error, 4 numeric failure. Errors are printed to stderr as
one JSON object naming the failing module.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click

from .backtest import BacktestLedger, STRATEGIES
from .config import RunConfig, load_config
from .dataset import return_matrix
from .errors import ConfigError, DataError, NumericError, StockrankError, failing_module
from .losses import LOSSES
from .pipeline import (
    build_panel,
    clear_outputs,
    load_universe,
    read_scores_csv,
    run_lock,
    run_pipeline,
    run_strategies,
    training_run,
    write_ledgers,
    write_manifest,
    write_report,
)
from .synth import SignalSpec, generate, write_events_csv, write_ohlcv_csv, write_sector_csv

_EXIT_CODES = {ConfigError: 2, DataError: 3, NumericError: 4}
_LOSS_OF_ALIAS = {row.alias: kind for kind, row in LOSSES.items()}


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StockrankError as exc:
            code = next(
                (c for klass, c in _EXIT_CODES.items() if isinstance(exc, klass)), 4
            )
            report = {
                "error": type(exc).__name__,
                "module": failing_module(exc),
                "message": str(exc),
            }
            click.echo(json.dumps(report, sort_keys=True), err=True)
            sys.exit(code)

    return wrapper


def _echo(msg: str) -> None:
    click.echo(msg)


@click.group()
def main():
    """Daily stock-ranking pipeline."""


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--n-stocks", type=int, default=30, show_default=True)
@click.option("--n-days", type=int, default=900, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="output directory")
@click.option("--event-rate", type=float, default=SignalSpec.event_rate, show_default=True,
              help="per (stock, day) probability of planting a motif")
@click.option("--jump-prob", type=float, default=SignalSpec.jump_prob, show_default=True)
@click.option("--jump-size", type=float, default=SignalSpec.jump_size, show_default=True)
@click.option("--volume-factor", type=float, default=SignalSpec.volume_factor, show_default=True)
@click.option("--daily-vol", type=float, default=SignalSpec.daily_vol, show_default=True)
@_guarded
def synth(seed, n_stocks, n_days, out, **spec):
    """Generate a seeded synthetic OHLCV + sector dataset."""
    rows, events, _cal = generate(seed, n_stocks, n_days, SignalSpec(**spec))
    os.makedirs(out, exist_ok=True)
    write_ohlcv_csv(rows, os.path.join(out, "ohlcv.csv"))
    write_sector_csv([r["ticker"] for r in rows], os.path.join(out, "sectors.csv"))
    write_events_csv(events, os.path.join(out, "events.csv"))
    _echo(f"wrote {n_stocks} stocks x {n_days} days to {out} "
          f"({len(events)} planted events)")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@_guarded
def features(config_path, out):
    """Compute the feature panel and export it as CSV."""
    cfg = load_config(config_path)
    universe = load_universe(cfg)
    panel = build_panel(cfg, universe)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "panel.csv")
    panel.to_csv(path)
    _echo(f"wrote {panel.n_features} features x {universe.n_stocks} stocks "
          f"x {universe.n_days} days to {path}")


def _load_config_with_overrides(config_path, seed=None, loss=None, strategy=()) -> RunConfig:
    """The config with the options given on the command line as overrides:
    ``--seed``, ``--loss`` (a loss table alias) and ``--strategy``."""
    overrides = {"seed": seed, "loss": _LOSS_OF_ALIAS.get(loss),
                 "strategies": list(strategy) or None}
    return load_config(config_path, {k: v for k, v in overrides.items() if v is not None})


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=int, default=None, help="override config seed")
@click.option("--out", type=click.Path(), required=True)
@click.option("--loss", type=click.Choice(list(_LOSS_OF_ALIAS)), default=None,
              help="override config loss")
@_guarded
def train(config_path, seed, out, loss):
    """Walk-forward training only: checkpoints and ranking scores."""
    cfg = _load_config_with_overrides(config_path, seed, loss)
    with training_run(cfg, out, log=_echo):
        pass  # the stage ends with the scores; backtest and report read them later
    _echo(f"scores in {os.path.join(out, 'scores')}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(exists=True), required=True,
              help="run directory holding scores/scores.csv")
@click.option("--strategy", type=click.Choice(STRATEGIES), multiple=True,
              help="restrict to these strategies")
@_guarded
def backtest(config_path, out, strategy):
    """Simulate strategies from previously written ranking scores.

    Writes ledgers/<name>.csv per strategy: each day's date, value, return
    and the weights held after that day's rebalance.
    """
    cfg = _load_config_with_overrides(config_path, strategy=strategy)
    scores_path = os.path.join(out, "scores", "scores.csv")
    if not os.path.exists(scores_path):
        raise DataError(f"no scores at {scores_path}; run train first")
    with run_lock(out):
        universe = load_universe(cfg)
        scores, days = read_scores_csv(scores_path, universe)
        ledgers = run_strategies(cfg, universe, return_matrix(universe), scores, days)
        clear_outputs(out, "ledgers")
        ledger_dir = write_ledgers(ledgers, out)
        write_manifest(cfg, out)
    _echo(f"wrote {len(ledgers)} ledgers to {ledger_dir}")


@main.command()
@click.option("--out", type=click.Path(exists=True), required=True,
              help="run directory holding ledgers/")
@_guarded
def report(out):
    """Aggregate ledgers into the metric grid and per-strategy reports."""
    resolved = os.path.join(out, "config.resolved.json")
    if not os.path.exists(resolved):
        raise DataError(f"missing {resolved}; run train/run first")
    cfg = load_config(resolved)
    ledger_dir = os.path.join(out, "ledgers")
    if not os.path.isdir(ledger_dir):
        raise DataError(f"missing {ledger_dir}; run backtest first")
    with run_lock(out):
        ledgers = {}
        for name in sorted(os.listdir(ledger_dir)):
            if name.endswith(".csv"):
                ledgers[name[:-4]] = BacktestLedger.from_csv(os.path.join(ledger_dir, name))
        if "market_equal_weight" not in ledgers:
            raise DataError("no market_equal_weight ledger to benchmark against")
        clear_outputs(out, "report")
        payload = write_report(cfg, ledgers, out)
        write_manifest(cfg, out)
    _echo(json.dumps(payload["grid"], sort_keys=True))
    _echo(f"report written to {os.path.join(out, 'report')}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=int, default=None, help="override config seed")
@click.option("--out", type=click.Path(), required=True)
@click.option("--loss", type=click.Choice(list(_LOSS_OF_ALIAS)), default=None)
@click.option("--strategy", type=click.Choice(STRATEGIES), multiple=True)
@_guarded
def run(config_path, seed, out, loss, strategy):
    """Full pipeline: ingest, features, walk-forward train, backtest, report."""
    cfg = _load_config_with_overrides(config_path, seed, loss, strategy)
    payload = run_pipeline(cfg, out, log=_echo)
    _echo(f"final top-k value: {payload['strategies']['topk']['final_value']:.4f}"
          if "topk" in payload["strategies"] else "run complete")


if __name__ == "__main__":
    main()
