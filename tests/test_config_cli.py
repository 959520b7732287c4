import copy
import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import stockrank.cli
from stockrank import blas, malloc, models, pipeline
from stockrank.cli import main
from stockrank.config import RunConfig, load_config
from stockrank.errors import ConfigError
from stockrank.losses import LOSSES
from stockrank.synth import SignalSpec


def synth_dataset(runner, path, n_stocks=8, n_days=260, seed=5, event_rate=0.1):
    result = runner.invoke(main, [
        "synth", "--seed", str(seed), "--n-stocks", str(n_stocks),
        "--n-days", str(n_days), "--out", str(path),
        "--event-rate", str(event_rate), "--jump-prob", "0.9",
    ])
    assert result.exit_code == 0, result.output
    return path


def small_config(data_dir, **overrides):
    cfg = {
        "ohlcv_path": str(data_dir / "ohlcv.csv"),
        "sector_path": str(data_dir / "sectors.csv"),
        "std_days": 60,
        "trainval_days": 60,
        "test_days": 10,
        "val_days": 10,
        "m": 10,
        "conv": [[3, 6], [3, 6]],
        "dense": [6],
        "batch_size": 64,
        "max_epochs": 2,
        "n_members": 2,
        "k": 3,
        "seed": 9,
        "max_periods": 1,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def data_paths(tmp_path) -> dict[str, str]:
    """ohlcv_path and sector_path of two empty files: validate() checks
    that they exist, and reads neither."""
    paths = {}
    for key in ("ohlcv_path", "sector_path"):
        path = tmp_path / f"{key}.csv"
        path.touch()
        paths[key] = str(path)
    return paths


class TestRunConfig:
    def test_defaults_are_valid_profile(self, tmp_path):
        cfg = RunConfig(**data_paths(tmp_path))
        cfg.validate()
        assert cfg.std_days == cfg.trainval_days == 200
        assert cfg.test_days == cfg.m == 20
        assert cfg.label_thresholds == (0.01, 0.03)
        assert cfg.return_cap == 0.5
        assert cfg.loss == "return_weighted_ce"
        assert cfg.n_members == 3
        assert cfg.k == 10

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"ohlcv_path": "a", "windowing": 3})
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(path)

    def test_missing_paths_rejected(self, tmp_path):
        path = write_config(tmp_path, {"ohlcv_path": "absent.csv", "sector_path": "s.csv"})
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(path)

    def test_threshold_order_enforced(self, tmp_path):
        cfg = RunConfig(**data_paths(tmp_path), label_thresholds=(0.03, 0.01))
        with pytest.raises(ConfigError, match="thresholds"):
            cfg.validate()

    def test_empty_conv_stack_rejected(self, tmp_path):
        # the sector embedding enters the network through the first conv
        cfg = RunConfig(**data_paths(tmp_path), conv=[])
        with pytest.raises(ConfigError, match="conv"):
            cfg.validate()

    def test_relative_paths_resolve_against_config(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path, n_days=30)
        path = write_config(tmp_path, {"ohlcv_path": "ohlcv.csv",
                                       "sector_path": "sectors.csv"})
        cfg = load_config(path)
        assert os.path.isabs(cfg.ohlcv_path)
        assert cfg.ohlcv_path == str(tmp_path / "ohlcv.csv")

    @pytest.mark.parametrize("command", ["train", "run"])
    def test_loss_choices_are_the_table_aliases(self, runner, command):
        assert stockrank.cli._LOSS_OF_ALIAS == {"new": "return_weighted_ce", "ce": "ce",
                                                "mse": "mse"}
        result = runner.invoke(main, [command, "--config", __file__, "--out", "x",
                                      "--loss", "huber"])
        assert result.exit_code == 2, result.output
        error = result.stderr.splitlines()[-1]
        assert "'huber'" in error
        choices = re.findall(r"\w+", error.split("choose from", 1)[1])
        assert choices == [row.alias for row in LOSSES.values()] == ["new", "ce", "mse"]

    @pytest.mark.parametrize("command", ["features", "train", "backtest", "run"])
    def test_option_prefix_is_a_usage_error(self, tmp_path, runner, monkeypatch, command):
        # argparse would read --conf as --config unless abbreviations are off
        seen = []
        monkeypatch.setattr(stockrank.cli, "load_config", lambda *args: seen.append(args))
        result = runner.invoke(main, [command, "--conf", __file__, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "usage:" in result.stderr and seen == []

    def test_sha256_stable(self):
        a = RunConfig(ohlcv_path="x", sector_path="y")
        b = RunConfig(ohlcv_path="x", sector_path="y")
        assert a.sha256() == b.sha256()

    @pytest.mark.parametrize("key,value", [
        ("label_thresholds", [0.01]),
        ("conv", [[3]]),
        ("conv", [[3, 8, 1]]),
        ("m", "20"),
        ("m", 20.0),
        ("max_epochs", "1"),
        ("seed", "x"),
        ("k", 2.5),
        ("k", True),  # a bool is not an int
        ("use_basic", 1),
        ("strategies", "topk"),
        ("return_cap", "0.5"),
    ])
    def test_wrong_type_is_config_error_naming_the_key(self, tmp_path, runner, key, value):
        data = synth_dataset(runner, tmp_path / "d", n_days=30)
        cfg_path = write_config(tmp_path, small_config(data, **{key: value}))
        result = runner.invoke(main, ["run", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert key in err["message"]
        assert not (tmp_path / "out").exists()  # nothing ran

    def test_int_accepted_for_float_and_null_for_optional(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path, n_days=30)
        cfg = load_config(write_config(tmp_path, small_config(
            data, return_cap=1, dollar_volume_floor=1000, dropout=None, max_periods=None)))
        assert cfg.return_cap == 1 and cfg.dollar_volume_floor == 1000
        assert cfg.dropout is None and cfg.max_periods is None

    def test_int_for_float_is_stored_as_the_float(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path, n_days=30)
        as_int = dict(return_cap=1, dollar_volume_floor=1000, price_floor=1, dropout=0)
        as_float = {key: float(value) for key, value in as_int.items()}
        cfg_int, cfg_float = (
            load_config(write_config(tmp_path, small_config(data, **values), name=name))
            for name, values in (("int.json", as_int), ("float.json", as_float)))
        for key in as_int:
            assert type(getattr(cfg_int, key)) is float, key
        assert cfg_int.to_json() == cfg_float.to_json()
        assert cfg_int.sha256() == cfg_float.sha256()

    @pytest.mark.parametrize("key,value", [
        ("return_cap", float("nan")),
        ("price_floor", float("nan")),
        ("dollar_volume_floor", float("nan")),
        ("return_cap", float("inf")),
        ("leaky_slope", float("nan")),
        ("label_thresholds", [0.01, float("inf")]),
    ])
    def test_non_finite_float_is_config_error_naming_the_key(self, tmp_path, runner, key,
                                                              value, monkeypatch):
        data = synth_dataset(runner, tmp_path / "d", n_days=30)
        cfg_path = write_config(tmp_path, small_config(data, **{key: value}))
        assert "NaN" in cfg_path.read_text() or "Infinity" in cfg_path.read_text()
        loads = []
        monkeypatch.setattr(pipeline, "load_ohlcv", lambda *a, **k: loads.append(a))
        result = runner.invoke(main, ["run", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{key} must be finite")
        assert loads == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("slope", [1.5, 1.0, 1, 0.0, 0, -0.01])
    def test_leaky_slope_outside_0_1_fails_before_any_file_is_written(
            self, tmp_path, runner, slope, monkeypatch):
        data = synth_dataset(runner, tmp_path / "d", n_days=30)
        cfg_path = write_config(tmp_path, small_config(data, leaky_slope=slope))
        loads = []
        monkeypatch.setattr(pipeline, "load_ohlcv", lambda *a, **k: loads.append(a))
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err == {"error": "ConfigError", "module": "config",
                       "message": f"leaky_slope must be in (0, 1), got {float(slope)}"}
        assert loads == [] and not out.exists()

    @pytest.mark.parametrize("technical,message", [
        (["rsi", "atr", "rsi"], "technical lists 'rsi' twice"),
        (["rsi", "mom_2"], "unknown technical feature 'mom_2'"),
    ], ids=["repeated", "basic_name"])
    def test_bad_technical_list_fails_before_any_file_is_written(
            self, tmp_path, runner, technical, message, monkeypatch):
        data = synth_dataset(runner, tmp_path / "d", n_days=30)
        cfg_path = write_config(tmp_path, small_config(data, technical=technical))
        loads = []
        monkeypatch.setattr(pipeline, "load_ohlcv", lambda *a, **k: loads.append(a))
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err == {"error": "ConfigError", "module": "config", "message": message}
        assert loads == [] and not out.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("loss", "huber", "unknown loss 'huber'"),
        ("dropout", 1.0, "dropout must be in [0, 1), got 1.0"),
        ("conv", [[3, 0]], "conv must be a non-empty list of [k, channels] pairs >= 1, "
                           "got [[3, 0]]"),
        ("conv", [[6, 4], [6, 4]], "conv stack consumes the whole time axis"),
    ], ids=["loss", "dropout", "channels", "time_axis"])
    def test_network_rule_fails_before_any_file_is_written(
            self, tmp_path, runner, key, value, message, monkeypatch):
        # validate builds the run's network, whose rules config states once
        data = synth_dataset(runner, tmp_path / "d", n_days=30)
        cfg_path = write_config(tmp_path, small_config(data, **{key: value}))
        loads = []
        monkeypatch.setattr(pipeline, "load_ohlcv", lambda *a, **k: loads.append(a))
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err == {"error": "ConfigError", "module": "config", "message": message}
        assert loads == [] and not out.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("dollar_volume_floor", 0, "dollar_volume_floor must be > 0"),
        ("price_floor", 0, "price_floor must be > 0"),
        ("label_thresholds", [0.03, 0.01],
         "label thresholds must satisfy 0 < lo < hi, got 0.03, 0.01"),
        ("val_days", 200, "val_days must be smaller than trainval_days"),
        ("combine_mode", "x", "unknown combine_mode 'x'"),
        ("moe_window", 0, "moe_window must be >= 1"),
    ], ids=["dollar_volume_floor", "price_floor", "thresholds", "val_days", "combine_mode",
            "moe_window"])
    def test_stage_setting_rule_fails_before_any_file_is_written(
            self, tmp_path, runner, key, value, message, monkeypatch):
        # the stages that read these settings check none of them: each
        # rule is stated once, in RunConfig.validate
        data = synth_dataset(runner, tmp_path / "d", n_days=30)
        cfg_path = write_config(tmp_path, small_config(data, **{key: value}))
        loads = []
        monkeypatch.setattr(pipeline, "load_ohlcv", lambda *a, **k: loads.append(a))
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err == {"error": "ConfigError", "module": "config", "message": message}
        assert loads == [] and not out.exists()

    @pytest.mark.parametrize("key", ["ohlcv_path", "sector_path", "rf_path"])
    def test_directory_as_data_path_fails_before_any_file_is_written(
            self, tmp_path, runner, key, monkeypatch):
        # open() on a directory raises IsADirectoryError, which no stage
        # maps to a typed error: validate requires a regular file
        data = synth_dataset(runner, tmp_path / "d", n_days=30)
        folder = tmp_path / "folder.csv"
        folder.mkdir()
        cfg_path = write_config(tmp_path, small_config(data, **{key: str(folder)}))
        loads = []
        monkeypatch.setattr(pipeline, "load_ohlcv", lambda *a, **k: loads.append(a))
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err == {"error": "ConfigError", "module": "config",
                       "message": f"{key} is not a regular file: {folder}"}
        assert loads == [] and not out.exists()

    def test_end_before_start_fails_before_any_file_is_written(self, tmp_path, runner,
                                                               monkeypatch):
        # an empty date range is a config fault, not a data fault: no stock spans it
        data = synth_dataset(runner, tmp_path / "d", n_days=30)
        cfg_path = write_config(tmp_path, small_config(data, start="2016-06-01",
                                                       end="2016-01-01"))
        loads = []
        monkeypatch.setattr(pipeline, "load_ohlcv", lambda *a, **k: loads.append(a))
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err == {"error": "ConfigError", "module": "config",
                       "message": "end 2016-01-01 is before start 2016-06-01"}
        assert loads == [] and not out.exists()

    def test_window_longer_than_the_std_range_fails_before_the_run_directory(
            self, tmp_path, runner):
        # m - 1 <= std_days: the first train anchor's window starts inside
        # the std range; m = 62 on std_days = 60 fails on any calendar
        data = synth_dataset(runner, tmp_path / "d", n_days=400)
        cfg_path = write_config(tmp_path, small_config(data, m=62))
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err == {"error": "ConfigError", "module": "pipeline",
                       "message": "a window of m=62 days reaches before the std range of "
                                  "60 days: m - 1 must be <= std_days"}
        assert "walk-forward periods" not in result.output and not out.exists()

    @pytest.mark.parametrize("args,overrides", [
        (["run", "--seed", "4", "--loss", "mse", "--strategy", "topk",
          "--strategy", "bottomk"],
         {"seed": 4, "loss": "mse", "strategies": ["topk", "bottomk"]}),
        (["run", "--loss", "new"], {"loss": "return_weighted_ce"}),
        (["train", "--seed", "0", "--loss", "ce"], {"seed": 0, "loss": "ce"}),
        (["backtest", "--strategy", "long_short_k"], {"strategies": ["long_short_k"]}),
        (["backtest"], {}),
    ], ids=["run", "run_loss", "train", "backtest", "backtest_none"])
    def test_options_reach_load_config_as_overrides(self, tmp_path, runner, monkeypatch,
                                                    args, overrides):
        seen = []

        def recording(path, given=None):
            seen.append(given)
            raise ConfigError("stop")

        monkeypatch.setattr(stockrank.cli, "load_config", recording)
        result = runner.invoke(main, [args[0], "--config", __file__, "--out", str(tmp_path),
                                      *args[1:]])
        assert result.exit_code == 2, result.output
        assert seen == [overrides]

    def test_strategy_override_is_the_resolved_config(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data, n_members=1))
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out),
                                      "--strategy", "topk", "--strategy", "bottomk"])
        assert result.exit_code == 0, result.output
        resolved = load_config(out / "config.resolved.json")
        assert resolved.strategies == ["topk", "bottomk"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == resolved.sha256()
        assert sorted(os.listdir(out / "ledgers")) == ["bottomk.csv", "market_equal_weight.csv",
                                                      "topk.csv"]


class TestSynthCommand:
    def test_writes_three_files(self, tmp_path, runner):
        synth_dataset(runner, tmp_path / "d", n_days=40)
        for name in ("ohlcv.csv", "sectors.csv", "events.csv"):
            assert (tmp_path / "d" / name).exists()

    def test_deterministic(self, tmp_path, runner):
        synth_dataset(runner, tmp_path / "a", n_days=40)
        synth_dataset(runner, tmp_path / "b", n_days=40)
        assert (tmp_path / "a" / "ohlcv.csv").read_bytes() == \
            (tmp_path / "b" / "ohlcv.csv").read_bytes()

    def test_signal_options_are_the_spec_fields_and_defaults(self):
        parsed = vars(stockrank.cli._parser("stockrank").parse_args(["synth", "--out", "x"]))
        spec = dataclasses.asdict(SignalSpec())
        assert {name: parsed[name] for name in spec} == spec
        assert set(parsed) - set(spec) == {"seed", "n_stocks", "n_days", "out", "command"}
        assert parsed["command"] is stockrank.cli.synth


class TestFeaturesCommand:
    def test_panel_csv_written(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d", n_days=120)
        cfg_path = write_config(tmp_path, small_config(data))
        result = runner.invoke(main, ["features", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        header = (tmp_path / "out" / "panel.csv").read_text().splitlines()[0]
        assert header.startswith("ticker,date,mom_2")


class TestRunCommand:
    def test_full_run_and_artifacts(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "run1"
        result = runner.invoke(main, ["run", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        for rel in ("config.resolved.json", "manifest.json", "scores/scores.csv",
                    "ledgers/topk.csv", "ledgers/market_equal_weight.csv",
                    "report/metrics.json", "report/grid.csv",
                    "checkpoints/ensemble_0.ens"):
            assert (out / rel).exists(), rel
        assert not (out / ".lock").exists()  # lock released

    def test_byte_identical_reruns(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        for sub in ("r1", "r2"):
            result = runner.invoke(main, ["run", "--config", str(cfg_path),
                                          "--out", str(tmp_path / sub)])
            assert result.exit_code == 0, result.output
        a = (tmp_path / "r1" / "report" / "metrics.json").read_bytes()
        b = (tmp_path / "r2" / "report" / "metrics.json").read_bytes()
        assert a == b

    def test_manifest_covers_artifacts(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "run"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["package_version"]
        assert manifest["config_sha256"]
        assert "report/metrics.json" in manifest["artifacts"]
        assert "ledgers/topk.csv" in manifest["artifacts"]

    def test_loss_override_changes_model(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "mse_run"
        result = runner.invoke(main, ["run", "--config", str(cfg_path),
                                      "--out", str(out), "--loss", "mse"])
        assert result.exit_code == 0, result.output
        metrics = json.loads((out / "report" / "metrics.json").read_text())
        assert metrics["model"] == "mse"

    def test_member_line_prints_the_kept_epochs_val_loss(self, tmp_path, runner,
                                                          monkeypatch):
        # epoch 1 is kept, so the line gives its loss, not the last epoch's
        script = iter([0.5, 0.3, 0.4])
        monkeypatch.setattr(models, "_evaluate", lambda *args: next(script))
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data, n_members=1, max_epochs=3))
        result = runner.invoke(main, ["run", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        lines = [ln for ln in result.output.splitlines() if " member " in ln]
        assert lines == ["period 0 ensemble 0 member 0: 3 epochs, val loss 0.3"]

    def test_lockfile_blocks_concurrent_owner(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").write_text(str(os.getpid()))  # a live owner
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2
        assert "locked" in result.output

    def test_stale_lock_is_taken_over(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "stale"
        out.mkdir()
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()  # reaped, so no process has this PID any more
        (out / ".lock").write_text(str(dead.pid))
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "report" / "metrics.json").exists()
        assert not (out / ".lock").exists()

    def test_unparseable_lock_blocks(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "garbled"
        out.mkdir()
        (out / ".lock").write_text("not a pid")
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2
        assert "locked" in result.output


def _sink_mid_test_span(cfg_path, ohlcv):
    """Set S000's bar on the middle day of the first test span to 0.05, a
    positive price below the floor, which kills the stock; return the ISO
    date of the anchor before it, the first whose buy open is that day."""
    cfg = load_config(cfg_path)
    u = pipeline.load_universe(cfg)
    e0, e1 = pipeline.plan_periods(cfg, pipeline.build_panel(cfg, u))[0].test_range
    day = (e0 + e1) // 2
    prefix = f"S000,{u.calendar[day].isoformat()},"
    lines = [prefix + "0.05,0.05,0.05,0.05," + line.rsplit(",", 1)[1]
             if line.startswith(prefix) else line for line in ohlcv.read_text().splitlines()]
    ohlcv.write_text("\n".join(lines) + "\n")
    return u.calendar[day - 1].isoformat()


class TestStageSeparation:
    def test_train_then_backtest_then_report(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "staged"
        r1 = runner.invoke(main, ["train", "--config", str(cfg_path), "--out", str(out)])
        assert r1.exit_code == 0, r1.output
        assert (out / "scores" / "scores.csv").exists()
        assert not (out / "ledgers").exists()
        r2 = runner.invoke(main, ["backtest", "--config", str(cfg_path), "--out", str(out)])
        assert r2.exit_code == 0, r2.output
        assert (out / "ledgers" / "topk.csv").exists()
        r3 = runner.invoke(main, ["report", "--out", str(out)])
        assert r3.exit_code == 0, r3.output
        assert (out / "report" / "metrics.json").exists()

    @staticmethod
    def _assert_staged_matches_run(tmp_path, runner, cfg_path):
        """Run train, backtest and report, then run, into two directories
        with the same config; assert they hold the same bytes and return
        the run directory."""
        staged = tmp_path / "staged"
        direct = tmp_path / "direct"
        for cmd in (["train"], ["backtest"], ["report"]):
            args = cmd + (["--config", str(cfg_path)] if cmd[0] != "report" else [])
            args += ["--out", str(staged)]
            r = runner.invoke(main, args)
            assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(direct)])
        assert r.exit_code == 0, r.output
        ledgers = sorted(p.name for p in (direct / "ledgers").iterdir())
        assert sorted(p.name for p in (staged / "ledgers").iterdir()) == ledgers
        assert "topk.csv" in ledgers
        for rel in ["scores/scores.csv", "report/grid.csv", "report/metrics.json"] + [
                f"ledgers/{name}" for name in ledgers]:
            assert (staged / rel).read_bytes() == (direct / rel).read_bytes(), rel
        return direct

    def test_staged_matches_run(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        self._assert_staged_matches_run(tmp_path, runner,
                                        write_config(tmp_path, small_config(data)))

    def test_staged_matches_run_when_a_stock_dies_mid_test_span(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        first_dead_anchor = _sink_mid_test_span(cfg_path, data / "ohlcv.csv")
        direct = self._assert_staged_matches_run(tmp_path, runner, cfg_path)
        # the market holds S000 up to the anchor whose buy open is its death day
        market = (direct / "ledgers" / "market_equal_weight.csv").read_text()
        held = {line.split(",")[0]: "S000:" in line for line in market.splitlines()[1:]}
        assert first_dead_anchor in held
        assert held == {date: date < first_dead_anchor for date in held}

    def test_blank_scores_line_is_skipped_by_backtest_and_report(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "staged"
        r = runner.invoke(main, ["train", "--config", str(cfg_path), "--out", str(out)])
        assert r.exit_code == 0, r.output
        with open(out / "scores" / "scores.csv", "a") as fh:
            fh.write("\n \t\n,,, ,\n")  # empty, whitespace-only and empty-field rows
        for args in (["backtest", "--config", str(cfg_path)], ["report"]):
            r = runner.invoke(main, args + ["--out", str(out)])
            assert r.exit_code == 0, r.output
        assert json.loads((out / "report" / "metrics.json").read_text())["periods"] == 1

    def test_training_run_yields_the_scores_its_scores_csv_reads_back(self, tmp_path, runner):
        # the score array is made from the period records, and scores.csv
        # from the same records through rank_for_day: both must agree bit for bit
        data = synth_dataset(runner, tmp_path / "d")
        cfg = load_config(write_config(tmp_path, small_config(
            data, conv=[[3, 4]], dense=[4], n_members=1, max_epochs=1, n_ensembles=2,
            max_periods=2)))
        out = tmp_path / "o"
        with pipeline.training_run(cfg, str(out)) as (universe, _returns, scores, days):
            read_scores, read_days = pipeline.read_scores_csv(
                str(out / "scores" / "scores.csv"), universe)
        assert scores.shape == (2, 2 * cfg.test_days, universe.n_stocks)
        assert scores.dtype == read_scores.dtype == np.float64
        assert scores.tobytes() == read_scores.tobytes()
        assert days.tolist() == read_days.tolist()

    def test_market_ledger_does_not_depend_on_the_ensemble_count(self, tmp_path, runner):
        # the market reads no scores; an average of three equal ledgers
        # differs from each in the last bit on about one day in seven
        data = synth_dataset(runner, tmp_path / "d")
        market = {}
        for n in (1, 3):
            cfg = load_config(write_config(tmp_path, small_config(
                data, conv=[[3, 4]], dense=[4], n_members=1, max_epochs=1, n_ensembles=n,
                max_periods=2), name=f"ensembles{n}.json"))
            pipeline.run_pipeline(cfg, str(tmp_path / f"ensembles{n}"))
            market[n] = (tmp_path / f"ensembles{n}" / "ledgers" /
                         "market_equal_weight.csv").read_bytes()
        assert market[3] == market[1]

    def test_backtest_builds_no_panel(self, tmp_path, runner, monkeypatch):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "staged"
        r = runner.invoke(main, ["train", "--config", str(cfg_path), "--out", str(out)])
        assert r.exit_code == 0, r.output

        def no_panel(*_args):
            raise AssertionError("backtest must not build the feature panel")

        monkeypatch.setattr(stockrank.cli, "build_panel", no_panel)
        r = runner.invoke(main, ["backtest", "--config", str(cfg_path), "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert (out / "ledgers" / "topk.csv").exists()

    def test_reused_run_directory_holds_only_the_last_run(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d", n_stocks=14, n_days=520, seed=1)
        first = write_config(tmp_path, small_config(data, n_ensembles=2), name="first.json")
        second = write_config(tmp_path, small_config(data), name="second.json")
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"

        def run_and_report(cfg_path, out, *options):
            for args in (["run", "--config", str(cfg_path), *options], ["report"]):
                r = runner.invoke(main, args + ["--out", str(out)])
                assert r.exit_code == 0, r.output

        run_and_report(first, reused)
        run_and_report(second, reused, "--strategy", "topk")
        run_and_report(second, fresh, "--strategy", "topk")
        assert _run_files(reused) == _run_files(fresh)  # the manifest's artifacts included
        assert sorted(os.listdir(reused / "ledgers")) == ["market_equal_weight.csv", "topk.csv"]
        # backtest replaces the ledgers and drops the report built on them
        r = runner.invoke(main, ["backtest", "--config", str(first), "--out", str(reused),
                                 "--strategy", "bottomk"])
        assert r.exit_code == 0, r.output
        assert sorted(os.listdir(reused / "ledgers")) == ["bottomk.csv",
                                                          "market_equal_weight.csv"]
        assert not (reused / "report").exists()
        assert (reused / "checkpoints" / "ensemble_0.ens").exists()
        # report rebuilds report/ from the ledgers alone, each time
        for ledgers in (["bottomk.csv", "market_equal_weight.csv"], ["market_equal_weight.csv"]):
            for name in set(os.listdir(reused / "ledgers")) - set(ledgers):
                os.remove(reused / "ledgers" / name)
            r = runner.invoke(main, ["report", "--out", str(reused)])
            assert r.exit_code == 0, r.output
            assert sorted(os.listdir(reused / "report")) == ["metrics.json"] + [
                f"nav_{name}" for name in ledgers]

    @pytest.mark.parametrize("command", ["backtest", "report"])
    def test_locked_directory_is_left_unchanged(self, tmp_path, runner, command):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "staged"
        for cmd in ("train", "backtest"):
            r = runner.invoke(main, [cmd, "--config", str(cfg_path), "--out", str(out)])
            assert r.exit_code == 0, r.output
        (out / ".lock").write_text(str(os.getpid()))  # a live owner
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        args = [command] + (["--config", str(cfg_path)] if command == "backtest" else [])
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 2
        assert "locked" in result.output
        after = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before

    @pytest.mark.parametrize("row,problem", [
        ("0,0,2021-01-01", "expected 5 columns, got 3"),
        ("{0},{1},{2},ZZZ,0.5", "ticker 'ZZZ' is not in the universe"),
        ("x,0,2021-01-01,S000,0.5", "bad ensemble, period or score"),
        ("0,1.5,2021-01-01,S000,0.5", "bad ensemble, period or score"),
        ("0,0,2021-01-01,S000,abc", "bad ensemble, period or score"),
        ("0,0,2021-01-01,S000,inf", "non-finite score"),
        # a copy of the first score row with another score: the last must not win
        ("{0},{1},{2},{3},99.0", "duplicate (ensemble, date, ticker) row"),
    ])
    def test_malformed_scores_row_is_data_error(self, tmp_path, runner, row, problem):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "staged"
        r = runner.invoke(main, ["train", "--config", str(cfg_path), "--out", str(out)])
        assert r.exit_code == 0, r.output
        scores = out / "scores" / "scores.csv"
        lines = scores.read_text().splitlines()
        n_lines = len(lines)
        with open(scores, "a") as fh:
            fh.write(row.format(*lines[1].split(",")) + "\n")
        result = runner.invoke(main, ["backtest", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 3
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == "DataError"
        assert f"{scores}:{n_lines + 1}: {problem}" in err["message"]

    @pytest.mark.parametrize("edit,problem", [
        (lambda lines: lines[:1] + lines[2:], "ensemble 0 on {2} ranks 7 of the 8"),
        (lambda lines: lines + ["1,{1},{2},{3},0.5".format(*lines[1].split(","))],
         "ensemble 1 on {2} ranks 1 of the 8"),
    ], ids=["row-deleted", "ensemble-with-one-row"])
    def test_scores_day_not_ranking_every_ticker_is_data_error(self, tmp_path, runner, edit,
                                                               problem):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "staged"
        r = runner.invoke(main, ["train", "--config", str(cfg_path), "--out", str(out)])
        assert r.exit_code == 0, r.output
        scores = out / "scores" / "scores.csv"
        lines = scores.read_text().splitlines()
        scores.write_text("\n".join(edit(lines)) + "\n")
        result = runner.invoke(main, ["backtest", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 3
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == "DataError"
        problem = problem.format(*lines[1].split(","))
        assert f"{scores}: {problem} universe tickers" in err["message"]

    @pytest.mark.parametrize("edit,problem", [
        (lambda lines: lines[:1] + ["1" + line[1:] for line in lines[1:]],
         "ensembles [1] are not numbered 0..0"),
        (lambda lines: lines + ["2" + line[1:] for line in lines[1:]],
         "ensembles [0, 2] are not numbered 0..1"),
        # ensemble 1 ranks every ticker, but on the first date only
        (lambda lines: lines + ["1" + line[1:] for line in lines[1:]
                                if line.split(",")[2] == lines[1].split(",")[2]],
         "ensembles 0 and 1 rank different dates (one ranks {last}, the other does not)"),
        (lambda lines: lines[:1], "no score rows"),
    ], ids=["shifted", "gap", "fewer-dates", "empty"])
    def test_scores_with_misnumbered_or_misaligned_ensembles_is_data_error(
            self, tmp_path, runner, edit, problem):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "staged"
        r = runner.invoke(main, ["train", "--config", str(cfg_path), "--out", str(out)])
        assert r.exit_code == 0, r.output
        scores = out / "scores" / "scores.csv"
        lines = scores.read_text().splitlines()
        dates = sorted({line.split(",")[2] for line in lines[1:]})
        scores.write_text("\n".join(edit(lines)) + "\n")
        result = runner.invoke(main, ["backtest", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 3, result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == "DataError"
        assert err["message"] == f"{scores}: " + problem.format(last=dates[1])
        assert not (out / "ledgers").exists()

    def test_malformed_ledger_line_is_data_error(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "staged"
        for cmd in ("train", "backtest"):
            r = runner.invoke(main, [cmd, "--config", str(cfg_path), "--out", str(out)])
            assert r.exit_code == 0, r.output
        ledger = out / "ledgers" / "topk.csv"
        n_lines = len(ledger.read_text().splitlines())
        with open(ledger, "a") as fh:
            fh.write("garbage-line\n")
        result = runner.invoke(main, ["report", "--out", str(out)])
        assert result.exit_code == 3
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == "DataError"
        assert f"{ledger}:{n_lines + 1}:" in err["message"]

    def test_ledger_date_that_is_not_iso_is_data_error(self, tmp_path, runner):
        # with a risk-free file the report parses the market ledger's dates
        data = synth_dataset(runner, tmp_path / "d")
        rf = tmp_path / "rf.csv"
        rf.write_text("date,annual_rate\n2015-01-01,0.02\n")
        cfg_path = write_config(tmp_path, small_config(data, rf_path=str(rf)))
        out = tmp_path / "o"
        r = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert r.exit_code == 0, r.output
        for ledger in (out / "ledgers").iterdir():
            lines = ledger.read_text().splitlines()
            lines[1] = "20x5-13-01" + lines[1][lines[1].index(","):]
            ledger.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["report", "--out", str(out)])
        assert result.exit_code == 3, result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == "DataError"
        assert re.match(f"{re.escape(str(out / 'ledgers'))}/\\w+\\.csv:2: ", err["message"])

    def test_backtest_without_scores_fails_cleanly(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d", n_days=30)
        cfg_path = write_config(tmp_path, small_config(data))
        out = tmp_path / "empty"
        out.mkdir()
        result = runner.invoke(main, ["backtest", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 3

    def test_report_without_ledgers_fails_cleanly(self, tmp_path, runner):
        out = tmp_path / "empty"
        out.mkdir()
        result = runner.invoke(main, ["report", "--out", str(out)])
        assert result.exit_code == 3


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, runner):
        cfg_path = write_config(tmp_path, {"ohlcv_path": "missing.csv",
                                           "sector_path": "missing.csv"})
        result = runner.invoke(main, ["run", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["module"]

    def test_window_overrun_is_fail_fast_config_error(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d", n_days=120)
        cfg = small_config(data, std_days=200, trainval_days=200, test_days=20,
                           val_days=20, m=20)
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "never"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2
        # fail-fast: nothing was written
        assert not out.exists()

    def test_k_beyond_the_filtered_universe_is_config_error_before_training(
            self, tmp_path, runner, monkeypatch):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data, k=100))

        def no_training(*_args):
            raise AssertionError("k beyond the universe must fail before training")

        monkeypatch.setattr(pipeline, "train_period", no_training)
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert err["message"] == "k=100 exceeds the 8 stocks left after filtering the universe"
        assert not (out / "config.resolved.json").exists()

    def test_data_error_is_3(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d", n_days=120)
        # corrupt one row
        ohlcv = data / "ohlcv.csv"
        lines = ohlcv.read_text().splitlines()
        lines[3] = lines[3].replace(",", ";", 1)
        ohlcv.write_text("\n".join(lines) + "\n")
        cfg_path = write_config(tmp_path, small_config(data))
        result = runner.invoke(main, ["run", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == "DataError"
        assert err["module"] == "market_data"

    def test_report_on_a_cut_checkpoint_is_4(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data, conv=[[3, 4]], dense=[4],
                                                       n_members=1, max_epochs=1))
        out = tmp_path / "o"
        r = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert r.exit_code == 0, r.output
        ckpt = out / "checkpoints" / "ensemble_0.ens"
        ckpt.write_bytes(ckpt.read_bytes()[:10])
        result = runner.invoke(main, ["report", "--out", str(out)])
        assert result.exit_code == 4
        assert json.loads(result.output.strip().splitlines()[-1]) == {
            "error": "NumericError", "module": "models",
            "message": f"{ckpt}: damaged ensemble checkpoint "
                       "(unpack requires a buffer of 8 bytes)"}


def _run_files(out):
    """Every file of a run directory, by path; the manifest by its artifacts
    block, since its environment block records the training process count."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            rel = str(path.relative_to(out))
            files[rel] = (json.loads(path.read_text())["artifacts"] if rel == "manifest.json"
                          else path.read_bytes())
    return files


_train_period = pipeline.train_period


def _empty_val(member, train_set, val_set, batch_size, max_epochs):
    val_set = copy.copy(val_set)
    val_set.stock = val_set.stock[:0]  # train_period raises NumericError on an empty split
    return _train_period(member, train_set, val_set, batch_size, max_epochs)


class TestParallelTraining:
    def _config(self, tmp_path, runner, n_stocks=8, **overrides):
        data = synth_dataset(runner, tmp_path / "d", n_stocks=n_stocks)
        cfg = small_config(data, **{"conv": [[3, 4]], "dense": [4], "n_members": 3,
                                    "max_epochs": 1, "max_periods": 2, **overrides})
        return write_config(tmp_path, cfg)

    def test_parallel_equals_serial_byte_for_byte(self, tmp_path, runner, monkeypatch):
        cfg = load_config(self._config(tmp_path, runner))
        runs = {}
        for cpus in (1, 2):  # 2 forks 2 children even on a 1-CPU machine
            monkeypatch.setattr(pipeline, "usable_cpus", lambda cpus=cpus: cpus)
            out = tmp_path / f"cpus{cpus}"
            pipeline.run_pipeline(cfg, str(out))
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["environment"]["training_processes"] == (
                3 if cpus == 2 and pipeline.blas.can_limit() else 1)
            runs[cpus] = _run_files(out)
        rows = runs[1]["scores/scores.csv"].decode().splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"0", "1"}  # two periods
        assert "checkpoints/ensemble_0.ens" in runs[1]
        assert runs[2] == runs[1]
        assert multiprocessing.active_children() == []

    def test_child_error_keeps_type_message_and_module(self, tmp_path, runner, monkeypatch):
        cfg_path = self._config(tmp_path, runner)
        errors = {}
        # serial: every member fails in this process
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
        monkeypatch.setattr(pipeline, "train_period", _empty_val)
        result = runner.invoke(main, ["run", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "serial")])
        errors["serial"] = (result.exit_code, result.output.strip().splitlines()[-1])
        # parallel: only the members trained outside this process fail, or all
        parent = os.getpid()

        def fails_in_child(member, *train_args):
            train = _empty_val if os.getpid() != parent else _train_period
            return train(member, *train_args)

        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 3)
        for name, train in (("child", fails_in_child), ("every", _empty_val)):
            monkeypatch.setattr(pipeline, "train_period", train)
            out = tmp_path / name
            result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
            errors[name] = (result.exit_code, result.output.strip().splitlines()[-1])
            assert not (out / ".lock").exists()
            assert multiprocessing.active_children() == []
        assert errors["child"] == errors["every"] == errors["serial"]
        code, line = errors["serial"]
        assert code == 4
        assert json.loads(line) == {
            "error": "NumericError", "module": "models",
            "message": "train_period needs non-empty train and validation sets"}

    def test_child_that_dies_is_an_error_not_a_hang(self, tmp_path, runner, monkeypatch):
        cfg_path = self._config(tmp_path, runner)
        parent = os.getpid()

        def dies_in_child(member, *train_args):
            if os.getpid() != parent:
                os._exit(3)
            return _train_period(member, *train_args)

        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 3)
        monkeypatch.setattr(pipeline, "train_period", dies_in_child)
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert isinstance(result.exception, ChildProcessError)
        assert "exited with code 3" in str(result.exception)
        assert not (out / ".lock").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("policy", ["malloc", "blas_threads"])
    def test_policy_leaves_every_file_byte_for_byte(self, tmp_path, runner, policy):
        # each side runs in a fresh interpreter: neither mallopt nor the BLAS
        # cap is undone, so this process may already train under the policy.
        # malloc: glibc's held thresholds, or none, while 3 members train in
        # 3 processes. blas_threads: the thread count the run starts with,
        # while one member trains in this process at batch 1024 on 30
        # stocks, where a 2-thread OpenBLAS rounds differently from 1 thread
        if policy == "malloc":
            cfg_path = self._config(tmp_path, runner)
            sides = {"on": ("", {}), "off": ("malloc._glibc = lambda: None\n", {})}
        elif blas.can_limit():
            cfg_path = self._config(tmp_path, runner, n_stocks=30, n_members=1,
                                    batch_size=1024)
            sides = {n: ("", {"OPENBLAS_NUM_THREADS": n}) for n in ("1", "2")}
        else:
            pytest.skip("no OpenBLAS whose thread count can be set")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        runs = {}
        for side, (patch, env_vars) in sides.items():
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **env_vars)
            out = tmp_path / side
            code = ("import stockrank.cli\n"
                    "from stockrank import malloc, pipeline\n"
                    "pipeline.usable_cpus = lambda: 2\n"  # 3 members: 3 processes
                    f"{patch}stockrank.cli.main(['run', '--config', {str(cfg_path)!r}, "
                    f"'--out', {str(out)!r}])\n")
            result = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                                    capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, result.stderr
            runs[side] = _run_files(out)
            manifest_env = json.loads((out / "manifest.json").read_text())["environment"]
            if policy == "malloc":
                assert manifest_env["training_processes"] == (3 if blas.can_limit() else 1)
                assert manifest_env["malloc_thresholds"] == (
                    malloc.thresholds() if side == "on" else None)
            else:
                assert manifest_env["blas_threads"] == 1  # the count it trained with
        first, second = runs.values()
        assert {row.split(",")[1] for row in
                first["scores/scores.csv"].decode().splitlines()[1:]} == {"0", "1"}
        assert first == second

    def test_run_without_openblas_or_glibc_writes_the_same_bytes(self, tmp_path, runner,
                                                                monkeypatch):
        cfg = load_config(self._config(tmp_path, runner, n_members=1))
        pipeline.run_pipeline(cfg, str(tmp_path / "native"))
        monkeypatch.setattr(blas, "_openblas", lambda: None)
        monkeypatch.setattr(malloc, "_glibc", lambda: None)
        blas.set_threads(1)  # does nothing
        assert blas.threads() is None
        pipeline.run_pipeline(cfg, str(tmp_path / "bare"))
        env = json.loads((tmp_path / "bare" / "manifest.json").read_text())["environment"]
        assert (env["blas"], env["blas_threads"], env["malloc_thresholds"]) == (None, None, None)
        assert _run_files(tmp_path / "bare") == _run_files(tmp_path / "native")

    @pytest.mark.parametrize("cpus,expected", [
        (1, {1: 1, 2: 1, 3: 1, 7: 1}),  # taskset -c 0: the serial loop
        (2, {1: 1, 2: 2, 3: 3, 4: 2, 5: 3, 6: 2}),  # 3 on 2 CPUs: no CPU idles for the third
        (4, {1: 1, 3: 3, 4: 4, 6: 6, 8: 4, 9: 5, 12: 4, 13: 5}),
    ])
    def test_process_count(self, monkeypatch, cpus, expected):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        if pipeline.blas.can_limit():
            counts = {n: pipeline.training_processes(n) for n in expected}
            assert counts == expected
            for n in range(1, 40):
                w = pipeline.training_processes(n)
                assert 1 <= w <= min(n, 2 * cpus)
                if n % cpus == 0:
                    assert w == min(n, cpus)
        monkeypatch.setattr(pipeline.blas, "can_limit", lambda: False)
        assert pipeline.training_processes(3) == 1  # BLAS threads would oversubscribe

    def test_manifest_records_environment(self, tmp_path, runner):
        cfg_path = self._config(tmp_path, runner, n_members=1, max_periods=1)
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert set(env) == {"python", "numpy", "blas", "blas_threads",
                            "usable_cpus", "training_processes", "malloc_thresholds"}
        assert env["python"].startswith("%d.%d." % sys.version_info[:2])
        assert env["numpy"] == np.__version__
        assert env["usable_cpus"] >= 1
        assert env["training_processes"] == 1  # one member: no fork
        assert env["malloc_thresholds"] == malloc.thresholds()
        result = runner.invoke(main, ["report", "--out", str(out)])
        assert result.exit_code == 0, result.output
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["training_processes"] is None  # report trains nothing
        assert env["malloc_thresholds"] is None


class TestStartup:
    @staticmethod
    def _modules_after(commands, prefixes):
        """Names under the given top-level prefixes in sys.modules of a fresh
        interpreter, and its stdout, after it runs each CLI command in turn."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        code = (
            "import json, sys\n"
            "import stockrank.cli\n"
            f"for args in {commands!r}:\n"
            "    try:\n"
            "        stockrank.cli.main(args)\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, exc.code\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            f"                        if m.split('.')[0].startswith({prefixes!r}))))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.strip().splitlines()[-1]), result.stdout

    def test_cli_import_and_help_load_no_scipy(self):
        # multiprocessing serves only a parallel training section; every
        # command pays for what `import stockrank.cli` loads, so neither it
        # nor scipy is on that path, nor click: the parser is argparse
        modules, stdout = self._modules_after([["--help"]],
                                              ("scipy", "multiprocessing", "click"))
        assert "usage:" in stdout
        assert modules == []

    def test_run_and_report_load_no_scipy(self, tmp_path, runner):
        # the report's p-value is computed in-house: importing scipy for it
        # cost each reporting process about 0.3 s; one member trains in
        # this process, which starts no child and so imports no multiprocessing
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data, conv=[[3, 4]], dense=[4],
                                                       n_members=1, max_epochs=1))
        out = str(tmp_path / "o")
        modules, _ = self._modules_after(
            [["run", "--config", str(cfg_path), "--out", out], ["report", "--out", out]],
            ("scipy", "multiprocessing", "click"))
        assert modules == []
        metrics = json.loads((tmp_path / "o" / "report" / "metrics.json").read_text())
        assert metrics["strategies"]["topk"]["p_value"] is not None


class TestBenchmarkPatchPoints:
    def test_traced_cli_finds_every_patched_name(self, tmp_path):
        # perfbench/spans.py replaces functions by name on the modules that
        # call them; a name the program no longer has fails with AttributeError
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        result = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "spans.py"),
             str(tmp_path / "spans.jsonl"), "--help"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr

    def test_install_traces_every_autograd_op_of_a_training_step(self):
        # spans.install wraps each op of spans.AUTOGRAD_OPS where models looks
        # it up; an op the model stops calling, or that stops building its
        # backward through autograd._make, reads 0 in the per-layer metrics
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
        code = (
            "import json\n"
            "import numpy as np\n"
            "import spans\n"
            "tracer = spans.Tracer()\n"
            "spans.install(tracer)\n"
            "from stockrank import models\n"
            "from stockrank.losses import batch_loss\n"
            "from dataclasses import replace\n"
            "from stockrank.config import RunConfig\n"
            "arch = replace(RunConfig().arch(), m=10, n=6, conv=((3, 4),), dense=(4,))\n"
            "state = models.build_model(arch, seed=1)\n"
            "rng = np.random.default_rng(0)\n"
            "out = models.forward(state, rng.normal(size=(8, 10, 6)),\n"
            "                     rng.integers(0, 12, size=8), train=True)\n"
            "loss = batch_loss(arch.loss_kind, out, np.eye(5)[rng.integers(0, 5, size=8)],\n"
            "                  np.full(8, 0.02), np.full(8, 0.02))\n"
            "loss.backward()\n"
            "state.optimizer.step()\n"
            "print(json.dumps(spans.layer_metrics(tracer.spans)))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        metrics = json.loads(result.stdout.strip().splitlines()[-1])
        assert metrics["models.steps"] == 1
        traced = {name: value for name, value in metrics.items()
                  if name.startswith("autograd.") and name.endswith(("fwd_ms", "bwd_ms"))}
        assert traced and all(value > 0 for value in traced.values()), traced

    @staticmethod
    def _traced_run(tmp_path, runner, n_members):
        """Spans of a tiny `run` traced through perfbench/spans.py."""
        data = synth_dataset(runner, tmp_path / "d", n_stocks=12, n_days=520, event_rate=0.0)
        cfg = small_config(data, std_days=200, trainval_days=200, test_days=20, val_days=20,
                           m=20, conv=[[3, 4]], dense=[4], n_members=n_members, max_epochs=1,
                           batch_size=1024, dollar_volume_floor=1000.0)
        cfg_path = write_config(tmp_path, cfg)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        spans_path = tmp_path / "spans.jsonl"
        result = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "spans.py"), str(spans_path),
             "run", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        return [json.loads(line) for line in spans_path.read_text().splitlines()]

    def test_traced_run_records_span_attributes(self, tmp_path, runner):
        # a tiny traced `run`: the benchmark's attribute functions read the
        # universe and the SampleSets, so they must still find what they read
        spans = self._traced_run(tmp_path, runner, n_members=1)
        attrs = {name: a for name, _start, _end, _parent, a in spans
                 if name in ("market_data.load_ohlcv", "dataset.make_samples")}
        assert attrs["market_data.load_ohlcv"] == {"rows": 12 * 520}
        samples = 12 * (180 + 20 + 20)
        n_features = 12 + 16
        assert attrs["dataset.make_samples"] == {
            "samples": samples, "window_bytes": samples * 20 * n_features * 8}

    @pytest.mark.skipif(pipeline.training_processes(3) < 2, reason="trains in one process")
    def test_traced_parallel_run_records_training_spans(self, tmp_path, runner):
        # with members trained in children too, the traced process still
        # trains its own share in place, so the step spans reach the trace
        spans = self._traced_run(tmp_path, runner, n_members=3)
        assert {"models.step", "models.train_period"} <= {name for name, *_rest in spans}
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["environment"]["training_processes"] >= 2
