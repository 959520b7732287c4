"""Span tracing for the benchmark's traced run, and the per-layer summary.

The program carries no instrumentation of its own, so the traced run
installs timing wrappers from outside: each wrapper replaces a function on
the module where its caller looks the name up (``pipeline``, ``cli`` and
``models`` import functions by name) and records one span per call. Spans
are kept in memory and written out as JSON lines when the run ends.

Run as a script, this module is the traced CLI:

    python3 perfbench/spans.py SPANS_PATH run --config CFG --out DIR
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

# Autograd ops timed per training step; forward spans are named
# ``autograd.<op>.fwd`` and every backward closure the op creates
# ``autograd.<op>.bwd``.
AUTOGRAD_OPS = ("embedding_add", "conv1d_valid", "batch_norm", "leaky_relu",
                "dropout", "global_avg_pool", "dense", "softmax")

LAYERS = ("market_data", "indicators", "dataset", "models", "losses", "autograd",
          "optim", "backtest", "analytics", "pipeline")


class Tracer:
    """In-memory span recorder: each span is [name, start, end, parent, attrs]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.current_op: str | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()

    def close_open(self) -> None:
        """End every span still open, e.g. when the program exits early."""
        while self._stack:
            self.close(self._stack[-1])

    def wrap(self, fn, name: str, attrs=None):
        """Time ``fn`` as a span; ``attrs(result)`` adds counts after the clock stops."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs is not None:
                self.spans[idx][4] = attrs(result)
            return result

        return timed

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def _patch(module, name: str, make):
    setattr(module, name, make(getattr(module, name)))


def install(tracer: Tracer) -> None:
    """Wrap the program's public layer functions where their callers look them up."""
    from stockrank import cli, dataset, models, pipeline
    from stockrank.backtest import BacktestLedger
    from stockrank.nn import autograd
    from stockrank.nn.optim import AdamOptimizer

    def span(module, name, label, attrs=None):
        _patch(module, name, lambda fn: tracer.wrap(fn, label, attrs))

    # market_data, reached through pipeline.load_universe
    span(pipeline, "load_ohlcv", "market_data.load_ohlcv",
         lambda u: {"rows": sum(len(s.bars) for s in u.stocks)})
    span(pipeline, "filter_by_dollar_volume", "market_data.filter_by_dollar_volume")
    span(pipeline, "apply_dead_stock_rule", "market_data.apply_dead_stock_rule")

    # indicators
    span(pipeline, "assemble_panel", "indicators.assemble_panel",
         lambda p: {"cells": int(p.values.size)})

    # dataset
    span(pipeline, "make_samples", "dataset.make_samples", lambda s: {
        "samples": sum(len(v) for v in s.values()),
        "window_bytes": sum(int(v.windows.size) for v in s.values()) * 8,
    })
    span(dataset, "return_matrix", "dataset.return_matrix")
    span(pipeline, "return_matrix", "dataset.return_matrix")

    # pipeline stages and artifact I/O; the cli names serve backtest and report
    for module in (pipeline, cli):
        for name in ("load_universe", "build_panel", "run_strategies",
                     "write_report", "write_manifest"):
            span(module, name, f"pipeline.{name}")
    span(cli, "run_pipeline", "pipeline.run_pipeline")
    span(cli, "read_scores_csv", "pipeline.read_scores_csv")
    for name in ("plan_periods", "train_walk_forward", "write_scores_csv", "save_ensemble"):
        span(pipeline, name, f"pipeline.{name}")

    # models
    for name in ("build_model", "train_period", "predict_batch"):
        span(pipeline, name, f"models.{name}")
    span(models, "batch_loss", "losses.batch_loss")
    _install_step_spans(tracer, models, autograd, AdamOptimizer)

    # backtest and analytics
    for name in ("simulate", "rank_for_day", "combine_strategies"):
        span(pipeline, name, f"backtest.{name}")
    BacktestLedger.from_csv = staticmethod(
        tracer.wrap(BacktestLedger.from_csv, "backtest.ledger_from_csv"))
    for name in ("build_report", "build_metric_grid"):
        span(pipeline, name, f"analytics.{name}")


def _install_step_spans(tracer: Tracer, models, autograd, optimizer_cls) -> None:
    """A training step runs from the train-mode forward call to the end of Adam's step."""
    forward = models.forward
    train_arg = inspect.signature(forward)

    @functools.wraps(forward)
    def traced_forward(*args, **kwargs):
        train = train_arg.bind(*args, **kwargs).arguments["train"]
        if train:
            tracer.open("models.step")  # closed by the optimizer step below
        idx = tracer.open("models.forward" if train else "models.eval_forward")
        try:
            return forward(*args, **kwargs)
        finally:
            tracer.close(idx)

    models.forward = traced_forward

    adam_step = optimizer_cls.step

    @functools.wraps(adam_step)
    def traced_adam_step(self):
        idx = tracer.open("optim.step")
        try:
            adam_step(self)
        finally:
            tracer.close(idx)
        step = tracer._stack[-1] if tracer._stack else -1
        if step >= 0 and tracer.spans[step][0] == "models.step":
            tracer.close(step)

    optimizer_cls.step = traced_adam_step
    autograd.Tensor.backward = tracer.wrap(autograd.Tensor.backward, "models.backward")

    def op_wrapper(op, fn):
        label = f"autograd.{op}.fwd"

        @functools.wraps(fn)
        def traced_op(*args, **kwargs):
            outer, tracer.current_op = tracer.current_op, op
            idx = tracer.open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.current_op = outer

        return traced_op

    for op in AUTOGRAD_OPS:
        setattr(models, op, op_wrapper(op, getattr(models, op)))

    make = autograd._make

    @functools.wraps(make)
    def traced_make(data, parents, backward):
        if tracer.current_op is not None and backward is not None:
            backward = tracer.wrap(backward, f"autograd.{tracer.current_op}.bwd")
        return make(data, parents, backward)

    autograd._make = traced_make


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


def read_spans(path: str) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _attrs in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_name, start, end, _parent, _attrs) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def _in_step(spans: list[list]) -> list[bool]:
    """Whether each span runs inside a training step."""
    flags: list[bool] = []
    for name, _start, _end, parent, _attrs in spans:
        flags.append(name == "models.step" or (parent >= 0 and flags[parent]))
    return flags


def _percentile_with_ten_beyond(values: list[float]) -> float:
    """The value at the highest percentile that still has ten values above it.

    That is percentile 100 * (n - 10) / n of n values; with ten or fewer
    values it is the largest.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals, per-step costs, call counts and self times."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[str, float] = {}
    step_total: dict[str, float] = {}
    step_ms: list[float] = []
    window_bytes = 0
    in_step = _in_step(spans)
    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, _parent, attrs) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if in_step[i]:
            step_total[name] = step_total.get(name, 0.0) + dur
        if name == "models.step":
            step_ms.append(1e3 * dur)
        for key, value in (attrs or {}).items():
            attr_sum[key] = attr_sum.get(key, 0.0) + value
        if name == "dataset.make_samples":
            window_bytes = max(window_bytes, attrs["window_bytes"])
        layer_self[name.split(".", 1)[0]] += selfs[i]

    def t(name):
        return total.get(name, 0.0)

    def per_step_ms(name):
        return 1e3 * step_total.get(name, 0.0) / steps if steps else 0.0

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    steps = len(step_ms)
    pmax_ms = _percentile_with_ten_beyond(step_ms)
    out = {
        "market_data.load_s": t("market_data.load_ohlcv"),
        "market_data.rows_per_s": rate(attr_sum.get("rows", 0), t("market_data.load_ohlcv")),
        "market_data.filter_s": t("market_data.filter_by_dollar_volume")
        + t("market_data.apply_dead_stock_rule"),
        "indicators.panel_s": t("indicators.assemble_panel"),
        "indicators.cells_per_s": rate(attr_sum.get("cells", 0), t("indicators.assemble_panel")),
        "dataset.samples_s": t("dataset.make_samples"),
        "dataset.samples_built": int(attr_sum.get("samples", 0)),
        "dataset.window_mb": window_bytes / 1e6,
        "dataset.return_matrix_calls": calls.get("dataset.return_matrix", 0),
        "dataset.return_matrix_s": t("dataset.return_matrix"),
        "models.train_s": t("models.train_period"),
        "models.steps": steps,
        "models.step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
        "models.step_ms_pmax": pmax_ms,
        "models.forward_ms": per_step_ms("models.forward"),
        "models.backward_ms": per_step_ms("models.backward"),
        "models.eval_s": t("models.eval_forward"),
        "losses.batch_loss_ms": per_step_ms("losses.batch_loss"),
        "optim.step_ms": per_step_ms("optim.step"),
        "backtest.simulate_s": t("backtest.simulate"),
        "backtest.simulate_calls": calls.get("backtest.simulate", 0),
        "backtest.rank_s": t("backtest.rank_for_day"),
        "backtest.rank_calls": calls.get("backtest.rank_for_day", 0),
        "pipeline.run_strategies_s": t("pipeline.run_strategies"),
        "analytics.report_s": t("analytics.build_report") + t("analytics.build_metric_grid"),
        "pipeline.scores_write_s": t("pipeline.write_scores_csv"),
        "pipeline.scores_read_s": t("pipeline.read_scores_csv"),
        "pipeline.checkpoint_s": t("pipeline.save_ensemble"),
        "pipeline.manifest_s": t("pipeline.write_manifest"),
    }
    for op in AUTOGRAD_OPS:
        out[f"autograd.{op}.fwd_ms"] = per_step_ms(f"autograd.{op}.fwd")
        out[f"autograd.{op}.bwd_ms"] = per_step_ms(f"autograd.{op}.bwd")
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    return out


def main(argv: list[str]) -> None:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from stockrank.cli import main as cli_main

    try:
        cli_main(args=cli_args, prog_name="stockrank")
    finally:
        tracer.close_open()
        tracer.write(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
