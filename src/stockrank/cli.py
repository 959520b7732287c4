"""Command-line entry points.

Subcommands: synth, features, train, backtest, report, run. `run` is the
whole walk-forward pipeline; `train`, `backtest` and `report` are its
stages, call the same pipeline functions, and together write the same
scores, ledgers and report as `run`. Exit codes: 0 success, 2 usage or
config error, 3 data error, 4 numeric failure. Errors past usage are
printed to stderr as one JSON object naming the failing module.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

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


def _echo(msg: str) -> None:
    print(msg, flush=True)


def synth(seed, n_stocks, n_days, out, **spec):
    """Generate a seeded synthetic OHLCV + sector dataset (signal options: synth.SignalSpec)."""
    rows, events, _cal = generate(seed, n_stocks, n_days, SignalSpec(**spec))
    os.makedirs(out, exist_ok=True)
    write_ohlcv_csv(rows, os.path.join(out, "ohlcv.csv"))
    write_sector_csv([r["ticker"] for r in rows], os.path.join(out, "sectors.csv"))
    write_events_csv(events, os.path.join(out, "events.csv"))
    _echo(f"wrote {n_stocks} stocks x {n_days} days to {out} "
          f"({len(events)} planted events)")


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


def train(config_path, seed, out, loss):
    """Walk-forward training only: checkpoints and ranking scores."""
    cfg = _load_config_with_overrides(config_path, seed, loss)
    with training_run(cfg, out, log=_echo):
        pass  # the stage ends with the scores; backtest and report read them later
    _echo(f"scores in {os.path.join(out, 'scores')}")


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


def run(config_path, seed, out, loss, strategy):
    """Full pipeline: ingest, features, walk-forward train, backtest, report."""
    cfg = _load_config_with_overrides(config_path, seed, loss, strategy)
    payload = run_pipeline(cfg, out, log=_echo)
    _echo(f"final top-k value: {payload['strategies']['topk']['final_value']:.4f}"
          if "topk" in payload["strategies"] else "run complete")


def _existing(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


def _parser(prog: str) -> argparse.ArgumentParser:
    """The parser of every command: each sets ``command`` to its function."""

    def new(make, *args, **kwargs):  # --help but no -h, and no option prefixes
        parser = make(*args, allow_abbrev=False, add_help=False, **kwargs)
        parser.add_argument("--help", action="help", help="show this message and exit")
        return parser

    parser = new(argparse.ArgumentParser, prog=prog, description="Daily stock-ranking pipeline.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(fn, *options):
        sub = new(commands.add_parser, fn.__name__, help=fn.__doc__.splitlines()[0],
                  description=fn.__doc__)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(command=fn)

    def shown(name, default):  # an option whose help shows its default
        return (f"--{name.replace('_', '-')}",
                dict(type=type(default), default=default, help="(default: %(default)s)"))

    config = ("--config", dict(dest="config_path", type=_existing, required=True, metavar="PATH"))
    out = ("--out", dict(required=True, help="output directory"))
    run_dir = ("--out", dict(type=_existing, required=True, help="run directory"))
    seed = ("--seed", dict(type=int, help="override config seed"))
    loss = ("--loss", dict(choices=list(_LOSS_OF_ALIAS), help="override config loss"))
    strategy = ("--strategy", dict(choices=STRATEGIES, action="append", default=[],
                                   help="restrict to these strategies (repeatable)"))
    command(synth, shown("seed", 0), shown("n_stocks", 30), shown("n_days", 900), out,
            *[shown(f.name, f.default) for f in dataclasses.fields(SignalSpec)])
    command(features, config, out)
    command(train, config, seed, out, loss)
    command(backtest, config, run_dir, strategy)
    command(report, run_dir)
    command(run, config, seed, out, loss, strategy)
    return parser


def main(args: list[str] | None = None, prog_name: str = "stockrank") -> None:
    """Run the command that ``args`` (by default the process's arguments)
    names. A StockrankError is printed to stderr as one JSON line and exits
    with its code; any other exception propagates (exit 1)."""
    options = vars(_parser(prog_name).parse_args(args))
    command = options.pop("command")
    try:
        command(**options)
    except StockrankError as exc:
        code = next((c for klass, c in _EXIT_CODES.items() if isinstance(exc, klass)), 4)
        error = {"error": type(exc).__name__, "module": failing_module(exc),
                 "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr, flush=True)
        sys.exit(code)


if __name__ == "__main__":
    main()
