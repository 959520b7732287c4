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
in a directory of its own. Under the run lock, and before it writes, each
stage removes the directories it owns and every one downstream of them
(``clear_outputs``), so a reused run directory holds one run's files.

The train stage's unit of work is one walk-forward period: ``run_period``
returns its ``PeriodRecord``, and ``training_run`` writes from the records.

Training, about all of a research run's time, uses every usable CPU:
each period's (ensemble, member) pairs train on ``training_processes``
processes, this one and forked children, with BLAS capped at one thread
and glibc's malloc thresholds held fixed. ``_train_members`` tells how,
and why the outputs are byte-identical for any process or core count.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
import os
import shutil
import sys
import traceback
from collections import Counter
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, blas, malloc
from .analytics import build_metric_grid, build_report, grid_to_csv, load_risk_free
from .backtest import (LONG_SHORT, BacktestLedger, combine_strategies, long_short, rank_for_day,
                       simulate)
from .config import RunConfig
from .dataset import SplitPlan, build_split_plans, make_samples, return_matrix
from .errors import ConfigError, DataError, csv_table, failing_module
from .indicators import assemble_panel
from .losses import LOSSES
from .market_data import Universe, apply_dead_stock_rule, filter_by_dollar_volume, load_ohlcv
from .models import (
    EnsembleState,
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
#: The run directory's stage outputs, each stage's after those it reads.
STAGE_DIRS = ("checkpoints", "scores", "ledgers", "report")


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


def clear_outputs(out_dir: str, first: str) -> None:
    """Remove out_dir's stage directory ``first`` and every one after it in
    STAGE_DIRS: what a stage that writes ``first`` makes stale."""
    for name in STAGE_DIRS[STAGE_DIRS.index(first):]:
        with suppress(FileNotFoundError):
            shutil.rmtree(os.path.join(out_dir, name))


def load_universe(cfg: RunConfig) -> Universe:
    start = dt.date.fromisoformat(cfg.start) if cfg.start else None
    end = dt.date.fromisoformat(cfg.end) if cfg.end else None
    u = load_ohlcv(cfg.ohlcv_path, cfg.sector_path, start=start, end=end,
                   price_floor=cfg.price_floor)
    u = filter_by_dollar_volume(u, cfg.dollar_volume_floor)
    return apply_dead_stock_rule(u, cfg.price_floor)


def build_panel(cfg: RunConfig, universe: Universe):
    return assemble_panel(universe, cfg.feature_names)


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


def _day_arrays(universe: Universe, returns: np.ndarray, days: np.ndarray) -> tuple:
    """simulate's returns, alive mask, dates and tickers for the given
    anchor days; returns is return_matrix(universe). A stock is alive on
    anchor day d when it is not yet dead at the buy open, day d + 1."""
    return (returns[:, days].T, universe.death_day > days[:, None] + 1,
            [universe.calendar[d] for d in days.tolist()], universe.tickers)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so ``taskset -c 0``
    gives 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def training_processes(n_jobs: int) -> int:
    """Processes that train a period's n_jobs members.

    With w processes sharing C usable CPUs evenly, a period takes about
    max(n_jobs / C, ceil(n_jobs / w)) member-times; w is the fewest
    processes, at most 2C, that reach the least of it. That is
    min(n_jobs, C) when C divides n_jobs, and 1 on one CPU; 3 members on 2
    CPUs train in 3 processes, where 2 would leave a CPU idle while the
    third member trains. Only this process trains where fork is missing or
    the BLAS thread count cannot be capped.
    """
    cpus = usable_cpus()
    w = min(range(1, min(n_jobs, 2 * cpus) + 1),
            key=lambda w: max(n_jobs, cpus * -(-n_jobs // w)))
    if w > 1 and not (hasattr(os, "fork") and blas.can_limit()):
        return 1
    return w


def _train_in_turn(members, train_args) -> tuple[list, Exception | None]:
    """Train members in order with train_period(member, *train_args), stopping at
    the first error; return the (member, history) pairs done before it, and the error or None."""
    done = []
    for member in members:
        try:
            done.append((member, train_period(member, *train_args)))
        except Exception as exc:  # raised later, in member order
            return done, exc
    return done, None


def _child_trains(send, members, train_args) -> None:
    """Body of a training child: train its members, then send back each one
    encoded with its history, and the error that stopped it, if any."""
    done, error = _train_in_turn(members, train_args)
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


def _train_members(members: list, train_args: tuple, processes: int) -> list[tuple]:
    """Train one period's members, each with train_period(member,
    *train_args); return (trained member, history) pairs in member order.

    Member i is trained by process i % processes (``training_processes``
    picks the count). Process 0 is this one: it trains its members in
    place. The others are children forked here after the samples are
    built; they read them (the period's float32 span and each sample's
    start row) through copy-on-write pages and send back
    (_encode_model(member), history), which decodes bit for bit to the
    state an in-place run would hold, so every output is byte-identical
    for any process count. Members share nothing while they train, and
    each carries its own seed and RNG. The first error in member order is
    raised, as a serial loop would raise it, and no child outlives the
    call. With one process, as on one usable CPU (``taskset -c 0``), no
    child is started: every member trains in place, in order, without
    importing multiprocessing. That is the form to profile, as spans
    recorded in a child are lost with it.

    Every training process runs under one compute policy, which
    train_walk_forward sets once and which holds for the rest of the
    process: children inherit it through fork, and this process validates
    and scores under it too. Each part is a no-op where the platform lacks
    it. BLAS is capped at one thread. A threaded OpenBLAS call may round
    differently from a one-thread call, so under the machine's default
    thread count the bits of a run would depend on its cores; and a BLAS
    pool in each of several processes would share the same cores. The
    cost is the 3-8% a second BLAS thread bought a one-process run of the
    default architecture. glibc's malloc thresholds are held fixed (the
    malloc module: 32 MiB for mmap, 64 MiB for trim): under glibc's dynamic
    trim threshold (about 2.8 MB here) every default-architecture step
    handed its ~9 MB of freed temporaries back to the OS and the next step
    faulted in fresh zeroed pages, about 2,400 faults a step. The heap is
    trimmed once the members are trained, before the caller predicts.
    """
    children = []
    trained = []
    try:
        for c in range(1, processes):
            import multiprocessing  # only a parallel section pays for this import

            ctx = multiprocessing.get_context("fork")
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child_trains, daemon=True,
                                args=(send, members[c::processes], train_args))
            child.start()  # leaves through os._exit: no finally of the caller runs twice
            send.close()
            children.append((child, recv))
        shares = {0: _train_in_turn(members[::processes], train_args)}
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
        malloc.trim()
    return trained


@dataclass(frozen=True)
class PeriodRecord:
    """One walk-forward period's split plan; scores[e], ensemble e's (test days, stocks)
    float64 ranking scores; and histories[e][i], the train_period history of its member i."""

    plan: SplitPlan
    scores: np.ndarray
    histories: list[list[dict]]


def run_period(cfg: RunConfig, universe: Universe, panel, plan: SplitPlan,
               returns: np.ndarray, ensembles: list[EnsembleState],
               processes: int) -> PeriodRecord:
    """One walk-forward period, a run's unit of work: build its samples once
    (one float32 standardized span; returns is return_matrix(universe)),
    train every (ensemble, member) pair in that order with ``_train_members``
    on ``processes`` processes, score the test days and return the
    PeriodRecord. The ensembles are updated in place: they hold the trained
    members and each member's top-k return, which weights it next period."""
    samples = make_samples(panel, universe, plan, returns, m=cfg.m,
                           thresholds=cfg.label_thresholds, cap=cfg.return_cap,
                           val_days=cfg.val_days)
    test = samples["test"]
    test_days = np.arange(*plan.test_range)
    market = _day_arrays(universe, returns, test_days)
    stock_major = (universe.n_stocks, len(test_days))  # the test samples' order
    classification = LOSSES[cfg.loss].classification
    trained = _train_members([m for ens in ensembles for m in ens.members],
                             (samples["train"], samples["val"], cfg.batch_size, cfg.max_epochs),
                             processes)
    scores, histories = [], []
    for e, ens in enumerate(ensembles):
        pairs = trained[e * cfg.n_members : (e + 1) * cfg.n_members]
        ens.members = [member for member, _hist in pairs]
        histories.append([hist for _member, hist in pairs])
        member_outputs = [predict_batch(m, test.windows, test.sector_ids) for m in ens.members]
        scores.append(ranking_scores(combine_members(ens, member_outputs),
                                     classification).reshape(stock_major).T)
        member_period_returns = []
        for outputs in member_outputs:
            m_scores = ranking_scores(outputs, classification).reshape(stock_major).T
            led = simulate("topk", m_scores, *market, k=cfg.k,
                           rebalance_mode=cfg.rebalance_mode)
            member_period_returns.append(led.final_value - 1.0)
        ens.record_period_returns(member_period_returns)
    return PeriodRecord(plan, np.stack(scores), histories)


def train_walk_forward(cfg: RunConfig, universe: Universe, panel, plans, returns: np.ndarray,
                       log=lambda msg: None) -> tuple[list[EnsembleState], list[PeriodRecord]]:
    """Train all ensembles across the walk-forward periods, one run_period
    per plan, and log each member's line from its period's record; returns
    is return_matrix(universe).

    Returns (ensembles, records): the EnsembleStates after the last period
    and the PeriodRecord of each plan, in plan order.
    """
    blas.set_threads(1)  # the compute policy _train_members tells of
    malloc.hold_pages()
    arch = cfg.arch()
    seeds = np.random.SeedSequence(cfg.seed).generate_state(cfg.n_ensembles * cfg.n_members,
                                                             dtype=np.uint64)
    ensembles = [EnsembleState(members=[build_model(arch, int(seed)) for seed in ens_seeds],
                               combine_mode=cfg.combine_mode, window=cfg.moe_window)
                 for ens_seeds in seeds.reshape(cfg.n_ensembles, cfg.n_members)]
    log(f"model parameter count: {ensembles[0].members[0].param_count}")
    processes = training_processes(cfg.n_ensembles * cfg.n_members)
    records = []
    for plan in plans:
        record = run_period(cfg, universe, panel, plan, returns, ensembles, processes)
        for e, period_histories in enumerate(record.histories):
            for mi, hist in enumerate(period_histories):
                # the kept epoch's loss; the last epoch's when none was kept
                val_loss = hist["val_loss"][hist.get("best_epoch", -1)]
                log(f"period {plan.period_index} ensemble {e} member {mi}: "
                    f"{hist['epochs']} epochs, val loss {val_loss:.6g}")
        records.append(record)
    return ensembles, records


def run_strategies(cfg: RunConfig, universe: Universe, returns: np.ndarray,
                   scores: np.ndarray, days: np.ndarray) -> dict[str, BacktestLedger]:
    """Simulate the configured strategies over all collected test days.

    returns is return_matrix(universe), built once per command; scores is
    the (ensembles, days, stocks) score array and days the calendar day
    index of each of its rows. Each ensemble simulates once every book the
    strategies need, long-short legs included, and composes its long-short
    ledgers from them; each strategy's ledgers are then integrated across
    the ensembles with equal weights. The market, which reads no scores, is
    simulated once: an average of equal ledgers can differ from each in the
    last bit.
    """
    market = _day_arrays(universe, returns, days)
    strategies = [s for s in cfg.strategies if s != "market_equal_weight"]
    books = dict.fromkeys(leg for s in strategies for leg in LONG_SHORT.get(s, (s,)))
    per_ensemble = []
    for ens_scores in scores:
        ledgers = {book: simulate(book, ens_scores, *market, k=cfg.k,
                                  rebalance_mode=cfg.rebalance_mode) for book in books}
        for s in strategies:
            if s in LONG_SHORT:
                ledgers[s] = long_short(*(ledgers[leg] for leg in LONG_SHORT[s]))
        per_ensemble.append(ledgers)
    ledgers = {s: combine_strategies([ens[s] for ens in per_ensemble]) for s in strategies}
    ledgers["market_equal_weight"] = simulate("market_equal_weight", scores[0], *market,
                                              k=cfg.k, rebalance_mode=cfg.rebalance_mode)
    return ledgers


def write_scores_csv(scores_rows: Iterable[tuple], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for row in scores_rows:
            writer.writerow([row[0], row[1], row[2], row[3], repr(row[4])])


def _score_rows(universe: Universe, records: list[PeriodRecord]) -> Iterator[tuple]:
    """The scores.csv rows of the records, made one day at a time:
    (ensemble, period, date, ticker, score), each day's in rank order."""
    for record in records:
        for e, ens_scores in enumerate(record.scores):
            for d, day_scores in zip(range(*record.plan.test_range), ens_scores.tolist()):
                ranking = rank_for_day(universe.calendar[d].isoformat(),
                                       dict(zip(universe.tickers, day_scores)))
                for ticker, score in ranking.entries:
                    yield e, record.plan.period_index, ranking.date, ticker, score


def read_scores_csv(path: str, universe: Universe) -> tuple[np.ndarray, np.ndarray]:
    """The (ensembles, days, stocks) score array of a scores.csv, columns in
    universe ticker order, and the calendar day index of each of its rows,
    in date order: what run_strategies takes.

    Every row names a universe ticker, every (ensemble, date) ranks all of
    them once, the ensembles are numbered 0..E-1 and all rank the same
    dates, as the train stage writes them.
    """
    calendar = universe.calendar
    column = {t: j for j, t in enumerate(universe.tickers)}
    day_index = {d.isoformat(): i for i, d in enumerate(calendar)}
    cells: dict[tuple[int, int, int], float] = {}  # (ensemble, day, column) -> score
    for lineno, row in csv_table(path, SCORES_HEADER):
        where = f"{path}:{lineno}"
        try:
            e, _period, score = int(row[0]), int(row[1]), float(row[4])
        except ValueError as exc:
            raise DataError(f"{where}: bad ensemble, period or score in {row}") from exc
        if not math.isfinite(score):
            raise DataError(f"{where}: non-finite score {row[4]!r}")
        if row[2] not in day_index:
            raise DataError(f"{where}: scores date {row[2]} not on the universe calendar")
        if row[3] not in column:
            raise DataError(f"{where}: ticker {row[3]!r} is not in the universe")
        key = (e, day_index[row[2]], column[row[3]])
        if key in cells:
            raise DataError(f"{where}: duplicate (ensemble, date, ticker) row "
                            f"({e}, {row[2]}, {row[3]})")
        cells[key] = score
    if not cells:
        raise DataError(f"{path}: no score rows")
    ranked = Counter((e, d) for e, d, _ in cells)  # (ensemble, day) -> tickers ranked
    for (e, d), n in sorted(ranked.items()):
        if n != len(column):
            raise DataError(f"{path}: ensemble {e} on {calendar[d]} ranks "
                            f"{n} of the {len(column)} universe tickers")
    ensembles = sorted({e for e, _ in ranked})
    if ensembles != list(range(len(ensembles))):
        raise DataError(f"{path}: ensembles {ensembles} are not numbered "
                        f"0..{len(ensembles) - 1}")
    dates_of = [sorted(d for e2, d in ranked if e2 == e) for e in ensembles]
    for e, dates in enumerate(dates_of):
        if dates != dates_of[0]:
            other = sorted(set(dates_of[0]).symmetric_difference(dates))[0]
            raise DataError(f"{path}: ensembles 0 and {e} rank different dates "
                            f"(one ranks {calendar[other]}, the other does not)")
    days = np.array(dates_of[0])
    keys = np.array(list(cells))
    scores = np.empty((len(ensembles), len(days), len(column)))
    scores[keys[:, 0], np.searchsorted(days, keys[:, 1]), keys[:, 2]] = list(cells.values())
    return scores, days


def write_ledgers(ledgers: dict[str, BacktestLedger], out_dir: str) -> str:
    ledger_dir = os.path.join(out_dir, "ledgers")
    os.makedirs(ledger_dir, exist_ok=True)
    for name, led in sorted(ledgers.items()):
        led.to_csv(os.path.join(ledger_dir, f"{name}.csv"))
    return ledger_dir


def _training_summary(cfg: RunConfig, out_dir: str, n_test_days: int) -> dict:
    """Period and parameter counts of the training that wrote out_dir's
    checkpoints; empty when the scores came without a training run. Every
    period tests ``cfg.test_days`` days, so the test days count the periods."""
    ckpt = os.path.join(out_dir, "checkpoints", "ensemble_0.ens")
    if not os.path.exists(ckpt):
        return {}
    return {"periods": n_test_days // cfg.test_days,
            "param_count": load_ensemble(ckpt).members[0].param_count}


def write_report(cfg: RunConfig, ledgers: dict[str, BacktestLedger], out_dir: str) -> dict:
    """Write report/nav_<name>.csv per ledger, report/metrics.json and, when
    a topk ledger exists, report/grid.csv; return the metrics.json payload.

    Each strategy's entry in metrics.json is its MetricsReport as
    dataclasses.asdict gives it, measured against market_equal_weight.
    """
    report_dir = os.path.join(out_dir, "report")
    os.makedirs(report_dir, exist_ok=True)
    market = ledgers["market_equal_weight"]
    rf = load_risk_free(cfg.rf_path, list(market.dates))

    reports = {}
    for name, led in sorted(ledgers.items()):
        bench = market if name != "market_equal_weight" else None
        reports[name] = asdict(build_report(led, bench, rf_daily=rf, paired_t=cfg.paired_t_test))
        led.nav_to_csv(os.path.join(report_dir, f"nav_{name}.csv"))

    grid = build_metric_grid(reports) if "topk" in reports else {}
    n_test_days = len(market.daily_returns)
    payload = {
        "model": cfg.loss,
        "n_test_days": n_test_days,
        "strategies": reports,
        "grid": grid,
        **_training_summary(cfg, out_dir, n_test_days),
    }
    with open(os.path.join(report_dir, "metrics.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if grid:
        grid_to_csv({cfg.loss: grid}, os.path.join(report_dir, "grid.csv"))
    return payload


def write_manifest(cfg: RunConfig, out_dir: str, trained: bool = False) -> None:
    """Write manifest.json: the config hash, every other file's checksum, and
    the environment the files were written in. Of that environment, the
    package versions and the BLAS build can change a run's numbers; the
    thread and process counts do not. A process that trained records the 1
    BLAS thread it trained with; where this process did not train
    (backtest, report), the training process count and the glibc malloc
    thresholds are None, and the thresholds are None also without glibc."""
    processes = training_processes(cfg.n_ensembles * cfg.n_members) if trained else None
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
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas.config(),
            "blas_threads": blas.threads(),
            "usable_cpus": usable_cpus(),
            "training_processes": processes,
            "malloc_thresholds": None if processes is None else malloc.thresholds(),
        },
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


@contextmanager
def training_run(cfg: RunConfig, out_dir: str, log=lambda msg: None):
    """The train stage: load, plan and train, then write config.resolved.json,
    the checkpoints and scores.csv under the run lock.

    The checkpoints are made from the ensembles, scores.csv and the score
    array from the period records. The caller's block runs under the same
    lock with (universe, returns, scores, days), what run_strategies takes
    after its config; the manifest is written after it.
    """
    universe = load_universe(cfg)
    log(f"universe: {universe.n_stocks} stocks x {universe.n_days} days")
    panel = build_panel(cfg, universe)
    plans = plan_periods(cfg, panel)  # fail-fast before training
    if cfg.k > universe.n_stocks:  # every period's member weights hold the top k
        raise ConfigError(f"k={cfg.k} exceeds the {universe.n_stocks} stocks left "
                          "after filtering the universe")
    log(f"walk-forward periods: {len(plans)}")

    with run_lock(out_dir):
        clear_outputs(out_dir, "checkpoints")
        with open(os.path.join(out_dir, "config.resolved.json"), "w") as fh:
            fh.write(cfg.to_json())
            fh.write("\n")
        returns = return_matrix(universe)
        ensembles, records = train_walk_forward(cfg, universe, panel, plans, returns, log=log)

        ckpt_dir = os.path.join(out_dir, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
        for e, ens in enumerate(ensembles):
            save_ensemble(ens, os.path.join(ckpt_dir, f"ensemble_{e}.ens"))

        scores_dir = os.path.join(out_dir, "scores")
        os.makedirs(scores_dir, exist_ok=True)
        write_scores_csv(_score_rows(universe, records), os.path.join(scores_dir, "scores.csv"))

        yield (universe, returns, np.concatenate([r.scores for r in records], axis=1),
               np.concatenate([np.arange(*r.plan.test_range) for r in records]))
        write_manifest(cfg, out_dir, trained=True)


def run_pipeline(cfg: RunConfig, out_dir: str, log=lambda msg: None) -> dict:
    """The full walk-forward loop, producing every artifact."""
    with training_run(cfg, out_dir, log) as (universe, returns, scores, days):
        ledgers = run_strategies(cfg, universe, returns, scores, days)
        write_ledgers(ledgers, out_dir)
        payload = write_report(cfg, ledgers, out_dir)
    return payload
