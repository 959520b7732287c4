"""Walk-forward driver: data -> features -> train -> backtest -> report.

`stockrank run` is run_pipeline. The staged commands `train`, `backtest`
and `report` call the same functions, so a staged run writes the same
bytes as a full one. Artifacts under one run directory:

    config.resolved.json          validated config actually used
    checkpoints/ensemble_{e}.ens  each ensemble after the last period
    scores/scores.csv             per (ensemble, period, date, ticker) ranking scores
    ledgers/<name>.csv            one ledger per strategy (+ market)
    report/nav_<name>.csv         NAV curves
    report/metrics.json           metric reports per strategy vs market
    report/grid.csv               headline strategy grid
    manifest.json                 config hash, artifact checksums, environment

The feature panel is exported only by `stockrank features`, as panel.csv
in a directory of its own.

Training, about all of a research run's time, uses every usable CPU: in
each walk-forward period the (ensemble, member) pairs are independent, so
this process trains every w-th of them in place while w - 1 children,
forked once the period's samples exist, train the rest. BLAS is capped at
one thread in each process meanwhile, since w processes with a BLAS pool
each would share the same cores. The trained members come back through
the checkpoint encoding, so outputs are byte-identical for any w;
`taskset -c 0 stockrank run ...` gives w = 1, the serial in-process loop
(the form to profile, as spans recorded in a child are lost with it).
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
import os
import sys
import traceback
from contextlib import contextmanager, suppress

import numpy as np

from . import __version__, blas
from .analytics import build_metric_grid, build_report, grid_to_csv, load_risk_free
from .backtest import BacktestLedger, DailyRanking, combine_strategies, rank_for_day, simulate
from .config import RunConfig
from .dataset import build_split_plans, make_samples, return_matrix
from .errors import ConfigError, DataError, failing_module
from .indicators import assemble_panel, make_spec
from .market_data import Universe, apply_dead_stock_rule, filter_by_dollar_volume, load_ohlcv
from .models import (
    ArchConfig,
    EnsembleState,
    TrainConfig,
    _decode_model,
    _encode_model,
    build_model,
    combine_members,
    load_ensemble,
    predict_batch,
    ranking_scores,
    save_ensemble,
    train_period,
)

SCORES_HEADER = ["ensemble", "period", "date", "ticker", "score"]


def _owner_is_gone(lock_path: str) -> bool:
    """Whether the lock holds the PID of a process that no longer exists."""
    try:
        with open(lock_path) as fh:
            pid = int(fh.read())
        if pid <= 0:
            return False
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):  # unreadable, not a PID, or alive
        return False
    return False


@contextmanager
def run_lock(out_dir: str):
    """One process owns a run directory at a time.

    A lock whose PID names no live process is left by a run that died,
    and is taken over once.
    """
    os.makedirs(out_dir, exist_ok=True)
    lock_path = os.path.join(out_dir, ".lock")
    for takeover in (False, True):
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if takeover or not _owner_is_gone(lock_path):
                raise ConfigError(f"run directory {out_dir} is locked by another process "
                                  f"(remove {lock_path} if that process is gone)")
            with suppress(FileNotFoundError):
                os.remove(lock_path)
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        if os.path.exists(lock_path):
            os.remove(lock_path)


def load_universe(cfg: RunConfig) -> Universe:
    start = dt.date.fromisoformat(cfg.start) if cfg.start else None
    end = dt.date.fromisoformat(cfg.end) if cfg.end else None
    u = load_ohlcv(cfg.ohlcv_path, cfg.sector_path, start=start, end=end,
                   price_floor=cfg.price_floor)
    u = filter_by_dollar_volume(u, cfg.dollar_volume_floor)
    return apply_dead_stock_rule(u, cfg.price_floor)


def build_panel(cfg: RunConfig, universe: Universe):
    specs = [make_spec(name) for name in cfg.technical]
    return assemble_panel(universe, basic=cfg.use_basic, specs=specs)


def plan_periods(cfg: RunConfig, panel) -> list:
    try:
        plans = build_split_plans(
            len(panel.dates),
            m=cfg.m,
            std_days=cfg.std_days,
            trainval_days=cfg.trainval_days,
            test_days=cfg.test_days,
            offset=panel.first_all_valid_day,
        )
    except DataError as exc:
        # the window scheme is configuration; not fitting the data is a
        # config infeasibility, caught before any training compute
        raise ConfigError(str(exc)) from exc
    if cfg.max_periods is not None:
        plans = plans[: cfg.max_periods]
    return plans


def _member_seeds(cfg: RunConfig) -> np.ndarray:
    ss = np.random.SeedSequence(cfg.seed)
    return ss.generate_state(cfg.n_ensembles * cfg.n_members, dtype=np.uint64)


def _arch_from_config(cfg: RunConfig, n_features: int) -> ArchConfig:
    hp = TrainConfig.for_loss(cfg.loss)
    return ArchConfig(
        m=cfg.m,
        n=n_features,
        conv=tuple(tuple(c) for c in cfg.conv),
        dense=tuple(cfg.dense),
        dropout=hp.dropout if cfg.dropout is None else cfg.dropout,
        leaky_slope=cfg.leaky_slope,
        loss=cfg.loss,
    )


def _alive_tickers(universe: Universe, anchor: int) -> list[str]:
    """Stocks not yet dead at the buy open (day anchor + 1)."""
    alive = []
    buy_day = universe.calendar[anchor + 1]
    for s in universe.stocks:
        if s.death_date is None or s.death_date > buy_day:
            alive.append(s.ticker)
    return alive


def _rank_days(dates, test, test_days: list[int], scores: np.ndarray) -> list[DailyRanking]:
    """One ranking per test day from the scores of a test SampleSet."""
    per_day: dict[int, dict[str, float]] = {d: {} for d in test_days}
    for d, ticker, sc in zip(test.anchor_days.tolist(), test.tickers, scores.tolist()):
        per_day[d][ticker] = sc
    return [rank_for_day(dates[d], per_day[d]) for d in test_days]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so ``taskset -c 0``
    gives 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def training_processes(n_jobs: int) -> int:
    """Processes that train a period's n_jobs members: one per usable CPU,
    at most one per member, and only this one where fork is missing or the
    BLAS thread count cannot be capped."""
    w = min(n_jobs, usable_cpus())
    if w > 1 and not (hasattr(os, "fork") and blas.can_limit()):
        return 1
    return w


def _train_in_turn(members, train_set, val_set, hp) -> tuple[list, Exception | None]:
    """Train members in order and stop at the first error; return the
    (member, history) pairs done before it, and the error or None."""
    done = []
    for member in members:
        try:
            done.append((member, train_period(member, train_set, val_set, hp)))
        except Exception as exc:  # raised later, in member order
            return done, exc
    return done, None


def _child_trains(send, members, train_set, val_set, hp) -> None:
    """Body of a training child: train its members, then send back each one
    encoded with its history, and the error that stopped it, if any."""
    done, error = _train_in_turn(members, train_set, val_set, hp)
    trace = None
    if error is not None:
        error.stockrank_module = failing_module(error)  # the traceback does not cross
        trace = "".join(traceback.format_exception(type(error), error, error.__traceback__))
    send.send(([(_encode_model(m), hist) for m, hist in done], error, trace))


class _ChildTraceback(Exception):
    """The traceback of an error raised in a training child, shown as its cause."""


def _receive_share(child, recv) -> tuple[list, Exception | None]:
    try:
        blobs, error, trace = recv.recv()
    except EOFError:
        child.join()
        raise ChildProcessError(f"training process {child.pid} exited with code "
                                f"{child.exitcode} before sending its members") from None
    if error is not None:
        error.__cause__ = _ChildTraceback(trace)
    return [(_decode_model(blob), hist) for blob, hist in blobs], error


def _train_members(members: list, train_set, val_set, hp: TrainConfig,
                   processes: int) -> list[tuple]:
    """Train one period's members; return (trained member, history) pairs
    in member order.

    Member i is trained by process i % processes. Process 0 is this one: it
    trains its members in place. The others are children forked here after
    the samples are built; they read them through copy-on-write pages and
    send back (_encode_model(member), history), which decodes to the state
    an in-place run would hold. While they run, BLAS is capped at one
    thread in every process. The first error in member order is raised, as
    the serial loop would raise it, and no child outlives the call.
    """
    if processes == 1:
        return [(m, train_period(m, train_set, val_set, hp)) for m in members]
    import multiprocessing  # only a parallel section pays for this import

    ctx = multiprocessing.get_context("fork")
    children = []
    trained = []
    with blas.limit_threads(1):
        try:
            for c in range(1, processes):
                recv, send = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_child_trains, daemon=True,
                                    args=(send, members[c::processes], train_set, val_set, hp))
                child.start()  # leaves through os._exit: no finally of the caller runs twice
                send.close()
                children.append((child, recv))
            shares = {0: _train_in_turn(members[::processes], train_set, val_set, hp)}
            for i in range(len(members)):
                c, k = i % processes, i // processes
                if c not in shares:  # read only once every earlier member trained
                    shares[c] = _receive_share(*children[c - 1])
                done, error = shares[c]
                if k == len(done):
                    raise error
                trained.append(done[k])
        finally:
            for child, recv in children:
                child.terminate()  # before close: a child mid-send would report a broken pipe
                child.join()
                recv.close()
    return trained


def train_walk_forward(cfg: RunConfig, universe: Universe, panel, plans,
                       log=lambda msg: None) -> dict:
    """Train all ensembles across the walk-forward periods.

    Each period trains every (ensemble, member) pair, in that order, on
    ``training_processes`` processes (see _train_members): this process
    trains pairs 0, w, 2w, ... in place and w - 1 forked children train
    the rest, each with BLAS capped at one thread. Members share nothing
    while they train, each carries its own seed and RNG, and a child's
    member comes back through the bit-exact checkpoint encoding, so every
    output is byte-identical for any w. With one member or one usable CPU
    (``taskset -c 0``) w is 1: the serial loop runs in process, with no
    fork and the default BLAS threads.

    Returns {"ensembles": [EnsembleState...], "scores": scores_rows,
    "rankings": {ensemble_index: [(day, DailyRanking)...]}, "histories": [...],
    "training_processes": w} where scores_rows feed scores.csv.
    """
    arch = _arch_from_config(cfg, panel.n_features)
    hp_overrides = {"batch_size": cfg.batch_size, "max_epochs": cfg.max_epochs}
    if cfg.dropout is not None:
        hp_overrides["dropout"] = cfg.dropout
    hp = TrainConfig.for_loss(cfg.loss, **hp_overrides)
    seeds = _member_seeds(cfg)
    ensembles = []
    for e in range(cfg.n_ensembles):
        members = [
            build_model(arch, int(seeds[e * cfg.n_members + i]))
            for i in range(cfg.n_members)
        ]
        ensembles.append(EnsembleState(members=members, combine_mode=cfg.combine_mode,
                                       window=cfg.moe_window))
    log(f"model parameter count: {ensembles[0].members[0].param_count}")

    scores_rows: list[tuple] = []
    rankings: dict[int, list] = {e: [] for e in range(cfg.n_ensembles)}
    histories: list[dict] = []
    classification = arch.loss_kind.classification
    returns = return_matrix(universe)
    processes = training_processes(cfg.n_ensembles * cfg.n_members)

    for plan in plans:
        samples = make_samples(panel, universe, plan, returns, m=cfg.m,
                               thresholds=cfg.label_thresholds, cap=cfg.return_cap,
                               val_days=cfg.val_days)
        test = samples["test"]
        test_days = sorted(set(test.anchor_days.tolist()))
        returns_by_day = _returns_for_days(returns, universe.tickers, test_days)
        trained = _train_members([m for ens in ensembles for m in ens.members],
                                 samples["train"], samples["val"], hp, processes)
        for e, ens in enumerate(ensembles):
            pairs = trained[e * cfg.n_members : (e + 1) * cfg.n_members]
            ens.members = [member for member, _hist in pairs]
            period_histories = [hist for _member, hist in pairs]
            for mi, hist in enumerate(period_histories):
                log(f"period {plan.period_index} ensemble {e} member {mi}: "
                    f"{hist['epochs']} epochs, val loss {hist['val_loss'][-1]:.6g}")
            histories.append({"period": plan.period_index, "ensemble": e,
                              "members": period_histories})

            member_outputs = [
                predict_batch(m, test.windows, test.sector_ids) for m in ens.members
            ]
            ens_scores = ranking_scores(combine_members(ens, member_outputs), classification)
            ens_rankings = _rank_days(panel.dates, test, test_days, ens_scores)
            rankings[e].extend(zip(test_days, ens_rankings))
            for ranking in ens_rankings:
                date = ranking.date.isoformat()
                for ticker, sc in ranking.entries:
                    scores_rows.append((e, plan.period_index, date, ticker, sc))

            # each member's own top-k return this period drives next period's weights
            member_period_returns = []
            for outputs in member_outputs:
                m_scores = ranking_scores(outputs, classification)
                led = simulate("topk", _rank_days(panel.dates, test, test_days, m_scores),
                               returns_by_day, k=cfg.k, rebalance_mode=cfg.rebalance_mode)
                member_period_returns.append(led.final_value - 1.0)
            ens.record_period_returns(member_period_returns)
    return {"ensembles": ensembles, "scores": scores_rows, "rankings": rankings,
            "histories": histories, "training_processes": processes}


def _returns_for_days(returns: np.ndarray, tickers, anchors: list[int]) -> list[dict[str, float]]:
    """ticker -> return dicts, one per anchor day, from a return_matrix."""
    return [dict(zip(tickers, day)) for day in returns[:, anchors].T.tolist()]


def run_strategies(cfg: RunConfig, universe: Universe,
                   rankings: dict[int, list]) -> dict[str, BacktestLedger]:
    """Simulate the configured strategies over all collected test days.

    With several ensembles, each strategy is simulated per ensemble and
    the ledgers are integrated with equal weights.
    """
    ledgers: dict[str, BacktestLedger] = {}
    anchor_days = [d for d, _ in rankings[0]]
    returns_by_day = _returns_for_days(return_matrix(universe), universe.tickers, anchor_days)
    alive_by_day = [_alive_tickers(universe, d) for d in anchor_days]
    for strategy in cfg.strategies:
        per_ensemble = []
        for e in sorted(rankings):
            ranks = [r for _, r in rankings[e]]
            per_ensemble.append(
                simulate(strategy, ranks, returns_by_day, k=cfg.k,
                         alive_by_day=alive_by_day, rebalance_mode=cfg.rebalance_mode)
            )
        led = per_ensemble[0] if len(per_ensemble) == 1 else combine_strategies(per_ensemble)
        led.strategy = strategy
        ledgers[strategy] = led
    if "market_equal_weight" not in ledgers:
        ranks = [r for _, r in rankings[0]]
        ledgers["market_equal_weight"] = simulate(
            "market_equal_weight", ranks, returns_by_day, alive_by_day=alive_by_day
        )
    return ledgers


def write_scores_csv(scores_rows: list[tuple], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for row in scores_rows:
            writer.writerow([row[0], row[1], row[2], row[3], repr(row[4])])


def read_scores_csv(path: str, calendar) -> dict[int, list]:
    """Rebuild per-ensemble daily rankings, as (calendar day index, DailyRanking)
    pairs in date order, from a scores.csv."""
    day_index = {d.isoformat(): i for i, d in enumerate(calendar)}
    per_day: dict[tuple[int, int], dict[str, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SCORES_HEADER:
            raise DataError(f"{path}: not a scores file")
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != len(SCORES_HEADER):
                raise DataError(f"{where}: expected {len(SCORES_HEADER)} columns, got {len(row)}")
            try:
                e, _period, score = int(row[0]), int(row[1]), float(row[4])
            except ValueError as exc:
                raise DataError(f"{where}: bad ensemble, period or score in {row}") from exc
            if not math.isfinite(score):
                raise DataError(f"{where}: non-finite score {row[4]!r}")
            if row[2] not in day_index:
                raise DataError(f"{where}: scores date {row[2]} not on the universe calendar")
            day_scores = per_day.setdefault((e, day_index[row[2]]), {})
            if row[3] in day_scores:
                raise DataError(f"{where}: duplicate (ensemble, date, ticker) row "
                                f"({e}, {row[2]}, {row[3]})")
            day_scores[row[3]] = score
    rankings: dict[int, list] = {}
    for (e, d) in sorted(per_day):
        rankings.setdefault(e, []).append((d, rank_for_day(calendar[d], per_day[(e, d)])))
    return rankings


def write_ledgers(ledgers: dict[str, BacktestLedger], out_dir: str) -> str:
    ledger_dir = os.path.join(out_dir, "ledgers")
    os.makedirs(ledger_dir, exist_ok=True)
    for name, led in sorted(ledgers.items()):
        led.to_csv(os.path.join(ledger_dir, f"{name}.csv"))
    return ledger_dir


def _training_summary(out_dir: str) -> dict:
    """Period and parameter counts of the training that wrote out_dir's
    checkpoints; empty when the scores came without a training run."""
    ckpt = os.path.join(out_dir, "checkpoints", "ensemble_0.ens")
    if not os.path.exists(ckpt):
        return {}
    with open(os.path.join(out_dir, "scores", "scores.csv"), newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        periods = {row[1] for row in reader}
    return {"periods": len(periods),
            "param_count": load_ensemble(ckpt).members[0].param_count}


def write_report(cfg: RunConfig, ledgers: dict[str, BacktestLedger], out_dir: str) -> dict:
    report_dir = os.path.join(out_dir, "report")
    os.makedirs(report_dir, exist_ok=True)
    market = ledgers["market_equal_weight"]
    rf = np.zeros(len(market.daily_returns))
    if cfg.rf_path:
        rf = load_risk_free(cfg.rf_path, list(market.dates))

    reports = {}
    for name, led in sorted(ledgers.items()):
        bench = market if name != "market_equal_weight" else None
        reports[name] = json.loads(
            build_report(led, bench, rf_daily=rf, paired_t=cfg.paired_t_test).to_json()
        )
        led.nav_to_csv(os.path.join(report_dir, f"nav_{name}.csv"))

    grid = build_metric_grid(
        {k: v for k, v in ledgers.items() if k != "market_equal_weight"}, rf_daily=rf
    ) if "topk" in ledgers else {}
    payload = {
        "model": cfg.loss,
        "n_test_days": len(market.daily_returns),
        "strategies": reports,
        "grid": grid,
        **_training_summary(out_dir),
    }
    with open(os.path.join(report_dir, "metrics.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if grid:
        grid_to_csv({cfg.loss: grid}, os.path.join(report_dir, "grid.csv"))
    return payload


def _dist_version(name: str) -> str | None:
    # from the installed metadata: importing scipy itself would cost ~0.3 s
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version(name)
    except PackageNotFoundError:
        return None


def _environment(processes: int | None) -> dict:
    """What the numbers of a run depend on besides its config and data.

    processes is the training process count w of train_walk_forward, or
    None when the process writing the manifest trained nothing (backtest,
    report).
    """
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": _dist_version("scipy"),
        "blas": blas.config(),
        "blas_threads": blas.threads(),
        "usable_cpus": usable_cpus(),
        "training_processes": processes,
    }


def write_manifest(cfg: RunConfig, out_dir: str, processes: int | None = None) -> None:
    entries = {}
    for root, _dirs, files in os.walk(out_dir):
        for name in sorted(files):
            if name in ("manifest.json", ".lock"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir)
            with open(path, "rb") as fh:
                entries[rel] = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "config_sha256": cfg.sha256(),
        "package_version": __version__,
        "artifacts": entries,
        "environment": _environment(processes),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


@contextmanager
def training_run(cfg: RunConfig, out_dir: str, log=lambda msg: None):
    """The train stage: load, plan and train, then write config.resolved.json,
    the checkpoints and scores.csv under the run lock.

    The caller's block runs under the same lock with (universe, rankings);
    the manifest is written after it.
    """
    universe = load_universe(cfg)
    log(f"universe: {universe.n_stocks} stocks x {universe.n_days} days")
    panel = build_panel(cfg, universe)
    plans = plan_periods(cfg, panel)  # fail-fast before training
    log(f"walk-forward periods: {len(plans)}")

    with run_lock(out_dir):
        with open(os.path.join(out_dir, "config.resolved.json"), "w") as fh:
            fh.write(cfg.to_json())
            fh.write("\n")
        result = train_walk_forward(cfg, universe, panel, plans, log=log)

        ckpt_dir = os.path.join(out_dir, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
        for e, ens in enumerate(result["ensembles"]):
            save_ensemble(ens, os.path.join(ckpt_dir, f"ensemble_{e}.ens"))

        scores_dir = os.path.join(out_dir, "scores")
        os.makedirs(scores_dir, exist_ok=True)
        write_scores_csv(result["scores"], os.path.join(scores_dir, "scores.csv"))

        yield universe, result["rankings"]
        write_manifest(cfg, out_dir, result["training_processes"])


def run_pipeline(cfg: RunConfig, out_dir: str, log=lambda msg: None) -> dict:
    """The full walk-forward loop, producing every artifact."""
    with training_run(cfg, out_dir, log) as (universe, rankings):
        ledgers = run_strategies(cfg, universe, rankings)
        write_ledgers(ledgers, out_dir)
        payload = write_report(cfg, ledgers, out_dir)
    return payload
