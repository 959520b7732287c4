"""Workloads, set-up, child runs, output checks and summaries of the benchmark.

Every measured run is the real CLI in a fresh child process. The program
sees only the CSV files the set-up writes from ``stockrank.synth.generate``
with the benchmark's seed.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPANS_SCRIPT = os.path.join(ROOT, "perfbench", "spans.py")

MIN_REPEATS = 3
# A whole invocation must end within 180 s; no child may outlive this.
HARD_LIMIT_S = 170.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run", or "replay" for backtest followed by report
    n_stocks: int
    n_days: int
    event_rate: float
    config: dict


# The floor sits far below the generator's dollar volumes, so every stock
# passes the filter and the work per run does not depend on the seed.
_DATA = {"dollar_volume_floor": 1000.0}
_WIDE = dict(_DATA, n_members=1, conv=[[3, 4]], dense=[4], batch_size=1024, max_epochs=1)

WORKLOADS = {
    w.name: w
    for w in (
        # Training is most of the run: autograd, models and optim changes show here.
        Workload("train_small", "run", 30, 600, 0.02,
                 dict(_DATA, n_members=3, batch_size=256, max_periods=1, max_epochs=1)),
        # Ingest, panel, samples, ranking and backtest are a large share of the run.
        Workload("wide_universe", "run", 150, 560, 0.0, _WIDE),
        # The read side of a run's artifacts, with no training: autograd
        # changes should not show here.
        Workload("replay", "replay", 150, 560, 0.0, _WIDE),
    )
}

END_TO_END = ("run_s", "setup_s", "peak_rss_mb")

_MEMBER_RE = re.compile(r"^period \d+ ensemble \d+ member \d+: (\d+) epochs, val loss (\S+)$")
_SETUP_DONE = {"run": "walk-forward periods:", "replay": "wrote "}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Prepared:
    workload: Workload
    config_path: str
    n_stocks: int
    periods: int
    test_days: int
    train_per_period: int  # train samples per period and epoch
    strategies: tuple[str, ...]
    replay_dir: str | None = None  # seed files of a replay run directory


def prepare(workload: Workload, seed: int, work_dir: str) -> Prepared:
    """Write the seeded inputs and work out what a correct run must produce."""
    import numpy as np

    from stockrank.config import load_config
    from stockrank.pipeline import (build_panel, load_universe, plan_periods,
                                    rank_for_day, write_scores_csv)
    from stockrank.synth import SignalSpec, generate, write_ohlcv_csv, write_sector_csv

    import stockrank.cli  # noqa: F401  (compiles every module before any timing)

    data_dir = os.path.join(work_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    rows, _events, _cal = generate(seed, workload.n_stocks, workload.n_days,
                                   SignalSpec(event_rate=workload.event_rate))
    write_ohlcv_csv(rows, os.path.join(data_dir, "ohlcv.csv"))
    write_sector_csv([r["ticker"] for r in rows], os.path.join(data_dir, "sectors.csv"))
    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(dict(workload.config, ohlcv_path="data/ohlcv.csv",
                       sector_path="data/sectors.csv"), fh, sort_keys=True, indent=2)

    cfg = load_config(config_path)
    universe = load_universe(cfg)
    panel = build_panel(cfg, universe)
    plans = plan_periods(cfg, panel)
    prep = Prepared(workload, config_path, universe.n_stocks, len(plans),
                    cfg.test_days, universe.n_stocks * (cfg.trainval_days - cfg.val_days),
                    tuple(cfg.strategies))
    if workload.command == "replay":
        rng = np.random.default_rng(seed)
        scores_rows = []
        for plan in plans:
            for d in range(*plan.test_range):
                date = panel.dates[d]
                values = rng.normal(size=universe.n_stocks)
                ranking = rank_for_day(date, dict(zip(universe.tickers, values.tolist())))
                for ticker, sc in ranking.entries:
                    scores_rows.append((0, plan.period_index, date.isoformat(), ticker, sc))
        prep.replay_dir = os.path.join(work_dir, "replay_seed")
        os.makedirs(os.path.join(prep.replay_dir, "scores"))
        write_scores_csv(scores_rows, os.path.join(prep.replay_dir, "scores", "scores.csv"))
        with open(os.path.join(prep.replay_dir, "config.resolved.json"), "w") as fh:
            fh.write(cfg.to_json())
            fh.write("\n")
    return prep


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def launch(cmd: list[str], stderr_path: str, timeout: float, marker: str) -> dict:
    """Run one child; time it to exit and to the first stdout line starting with marker."""
    timed_out = threading.Event()
    t0 = time.perf_counter()
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                env=child_env(), cwd=ROOT)

    def kill():
        timed_out.set()
        proc.kill()

    killer = threading.Timer(timeout, kill)
    killer.start()
    lines = []
    marker_s = None
    try:
        for line in proc.stdout:
            now = time.perf_counter() - t0
            line = line.rstrip("\n")
            lines.append(line)
            if marker_s is None and line.startswith(marker):
                marker_s = now
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    with open(stderr_path) as fh:
        stderr = fh.read()
    return {
        "exit": proc.returncode,
        "timed_out": timed_out.is_set(),
        "wall_s": wall,
        "marker_s": marker_s,
        "maxrss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "stdout": lines,
        "stderr": stderr[-4000:],
    }


def _cli(traced: bool, spans_path: str) -> list[str]:
    if traced:
        return [sys.executable, SPANS_SCRIPT, spans_path]
    return [sys.executable, "-m", "stockrank.cli"]


def run_once(prep: Prepared, rep_dir: str, traced: bool, deadline: float) -> dict:
    """One repeat of the workload: its command(s), then the output checks."""
    os.makedirs(rep_dir)
    out = os.path.join(rep_dir, "out")
    if prep.workload.command == "run":
        steps = [["run", "--config", prep.config_path, "--out", out]]
    else:
        shutil.copytree(prep.replay_dir, out)
        steps = [["backtest", "--config", prep.config_path, "--out", out],
                 ["report", "--out", out]]
    children = []
    for i, args in enumerate(steps):
        timeout = deadline - time.perf_counter()
        if timeout <= 0:
            break
        child = launch(_cli(traced, os.path.join(rep_dir, f"spans{i}.jsonl")) + args,
                       os.path.join(rep_dir, f"stderr{i}.txt"), timeout,
                       _SETUP_DONE[prep.workload.command])
        child["command"] = args[0]
        children.append(child)
        if child["exit"] != 0:
            break
    rec = summarize_children(prep, children, len(steps))
    if not rec["problems"]:
        problems, rec["hashes"], rec["topk_final_value"] = check_outputs(prep, out)
        rec["problems"] = problems
        rec["artifact_mb"] = dir_bytes(out) / 1e6
    if traced:
        rec["spans"] = []
        for i in range(len(children)):
            path = os.path.join(rep_dir, f"spans{i}.jsonl")
            if os.path.exists(path):
                rec["spans"] += _offset(spans.read_spans(path), len(rec["spans"]))
    shutil.rmtree(out, ignore_errors=True)
    return rec


def _offset(span_list: list[list], base: int) -> list[list]:
    for s in span_list:
        if s[3] >= 0:
            s[3] += base
    return span_list


def summarize_children(prep: Prepared, children: list[dict], expected: int) -> dict:
    problems = []
    for c in children:
        if c["timed_out"]:
            problems.append(f"{c['command']} timed out")
        elif c["exit"] != 0:
            problems.append(f"{c['command']} exited with {c['exit']}")
    if len(children) < expected and not problems:
        problems.append("no time left to run every command")
    rec = {"children": children, "problems": problems}
    if problems:
        return rec
    rec["run_s"] = sum(c["wall_s"] for c in children)
    rec["peak_rss_mb"] = max(c["maxrss_mb"] for c in children)
    first = children[0]
    if first["marker_s"] is None:
        problems.append(f"no '{_SETUP_DONE[prep.workload.command]}' line on stdout")
        return rec
    rec["setup_s"] = first["marker_s"]
    if prep.workload.command == "run":
        epochs, losses = [], []
        for line in first["stdout"]:
            m = _MEMBER_RE.match(line)
            if m:
                epochs.append(int(m.group(1)))
                losses.append(float(m.group(2)))
        if not losses:
            problems.append("no member training lines on stdout")
            return rec
        rec["train_samples"] = prep.train_per_period * sum(epochs)
        rec["train_samples_per_s"] = rec["train_samples"] / (rec["run_s"] - rec["setup_s"])
        rec["val_loss"] = sum(losses) / len(losses)
    return rec


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _dirs, files in os.walk(path) for f in files)


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def check_outputs(prep: Prepared, out: str) -> tuple[list[str], dict, float | None]:
    """Problems found in a finished run directory, its hashes, and top-k final value."""
    problems = []
    manifest_path = os.path.join(out, "manifest.json")
    if not os.path.exists(manifest_path):
        return ["manifest.json missing"], {}, None
    with open(manifest_path) as fh:
        artifacts = json.load(fh)["artifacts"]
    for rel, digest in sorted(artifacts.items()):
        path = os.path.join(out, rel)
        if not os.path.exists(path):
            problems.append(f"manifest lists missing {rel}")
        elif sha256_file(path) != digest:
            problems.append(f"checksum mismatch for {rel}")

    if prep.workload.command == "run":
        problems += _check_scores(prep, os.path.join(out, "scores", "scores.csv"))
    for name in prep.strategies:
        if not os.path.exists(os.path.join(out, "ledgers", f"{name}.csv")):
            problems.append(f"ledger {name}.csv missing")
    grid = os.path.join(out, "report", "grid.csv")
    if not os.path.exists(grid) or os.path.getsize(grid) == 0:
        problems.append("report/grid.csv missing or empty")
    topk = None
    metrics_path = os.path.join(out, "report", "metrics.json")
    try:
        with open(metrics_path) as fh:
            metrics = json.load(fh, parse_constant=_reject_constant)
        topk = metrics["strategies"]["topk"]["final_value"]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"report/metrics.json: {exc}")

    hashed = ["report/grid.csv"] + [f"ledgers/{n}.csv" for n in prep.strategies]
    if prep.workload.command == "run":
        hashed.append("scores/scores.csv")
    hashes = {rel: sha256_file(os.path.join(out, rel)) for rel in hashed
              if os.path.exists(os.path.join(out, rel))}
    return problems, hashes, topk


def _check_scores(prep: Prepared, path: str) -> list[str]:
    """A finite score for every (period, day, ticker) of the walk-forward test span."""
    if not os.path.exists(path):
        return ["scores/scores.csv missing"]
    keys = set()
    rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for _ens, period, date, ticker, score in reader:
            rows += 1
            keys.add((period, date, ticker))
            if not math.isfinite(float(score)):
                return [f"non-finite score for {ticker} on {date}"]
    want = prep.n_stocks * prep.test_days * prep.periods
    if rows != want or len(keys) != want:
        return [f"scores.csv has {rows} rows ({len(keys)} distinct), expected {want}"]
    return []


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None when not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# a whole invocation
# ---------------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: str,
            log=print) -> dict:
    """Repeat the workload for ``seconds``, then (with ``trace``) make one traced run."""
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    prep = prepare(workload, seed, work_dir)
    log(f"{workload.name}: {prep.n_stocks} stocks x {workload.n_days} days, "
        f"{prep.periods} periods, seed {seed}; set-up {time.perf_counter() - started:.2f} s")

    repeats = []
    t_measure = time.perf_counter()
    while time.perf_counter() < deadline:
        rec = run_once(prep, os.path.join(work_dir, f"rep{len(repeats)}"), False, deadline)
        repeats.append(rec)
        _log_repeat(log, len(repeats) - 1, rec)
        spent = time.perf_counter() - t_measure
        # start another repeat only if it should end within ``seconds``
        if len(repeats) >= MIN_REPEATS and spent * (len(repeats) + 1) / len(repeats) > seconds:
            break
    traced = None
    if trace and time.perf_counter() < deadline:
        traced = run_once(prep, os.path.join(work_dir, "traced"), True, deadline)
        _log_repeat(log, "traced", traced)

    runs = repeats + ([traced] if traced else [])
    failed = sum(1 for r in runs if r["problems"])
    ok = [r for r in repeats if not r["problems"]]
    hash_sets = {json.dumps(r["hashes"], sort_keys=True) for r in runs if not r["problems"]}
    deterministic = len(hash_sets) <= 1
    result = {
        "workload": workload.name,
        "environment": environment(seed),
        "attempted": len(runs),
        "failed": failed,
        "error_rate": failed / len(runs),
        "medians_over": len(ok),
        "deterministic": deterministic,
        "correct": failed == 0 and deterministic and (traced is not None or not trace),
        "repeats": [_strip(r) for r in runs],
    }
    if ok:
        def med(key):
            return statistics.median([r[key] for r in ok])

        result["metrics"] = {name: med(name) for name in END_TO_END}
        result["topk_final_value"] = ok[0]["topk_final_value"]
        if workload.command == "run":
            result["train_samples_per_s"] = med("train_samples_per_s")
            result["val_loss"] = med("val_loss")
    if trace and traced and not traced["problems"] and ok:
        layers = spans.layer_metrics(traced["spans"])
        layers["pipeline.artifact_mb"] = traced["artifact_mb"]
        layers["trace.overhead_pct"] = 100.0 * (traced["run_s"] / result["metrics"]["run_s"] - 1)
        layers["run.train_samples_per_s"] = result.get("train_samples_per_s", 0.0)
        layers["run.val_loss"] = result.get("val_loss", 0.0)
        result["per_layer"] = layers
        spans_out = os.path.join(work_dir, "spans.jsonl")
        with open(spans_out, "w") as fh:
            for s in traced["spans"]:
                fh.write(json.dumps(s) + "\n")
    for name in os.listdir(work_dir):  # inputs and run directories; files stay
        path = os.path.join(work_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
    return result


def _strip(rec: dict) -> dict:
    """A repeat's record without bulky stdout and spans."""
    out = {k: v for k, v in rec.items() if k not in ("spans", "children")}
    out["children"] = [{k: v for k, v in c.items() if k != "stdout"} for c in rec["children"]]
    return out


def _log_repeat(log, label, rec: dict) -> None:
    if rec["problems"]:
        log(f"  run {label}: FAILED: {'; '.join(rec['problems'])}")
        for c in rec["children"]:
            if c["stderr"].strip():
                log(f"    stderr ({c['command']}): {c['stderr'].strip().splitlines()[-1]}")
        return
    log(f"  run {label}: run_s {rec['run_s']:.3f} s, setup_s {rec['setup_s']:.3f} s, "
        f"peak_rss_mb {rec['peak_rss_mb']:.1f} MB")
