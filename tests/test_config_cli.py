import copy
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import stockrank.cli
from stockrank import pipeline
from stockrank.cli import main
from stockrank.config import RunConfig, load_config, resolve_loss_alias
from stockrank.errors import ConfigError


@pytest.fixture
def runner():
    return CliRunner()


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


class TestRunConfig:
    def test_defaults_are_valid_profile(self):
        cfg = RunConfig(ohlcv_path="x", sector_path="y")
        cfg.validate(check_paths=False)
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

    def test_threshold_order_enforced(self):
        cfg = RunConfig(ohlcv_path="x", sector_path="y", label_thresholds=(0.03, 0.01))
        with pytest.raises(ConfigError, match="thresholds"):
            cfg.validate(check_paths=False)

    def test_relative_paths_resolve_against_config(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path, n_days=30)
        path = write_config(tmp_path, {"ohlcv_path": "ohlcv.csv",
                                       "sector_path": "sectors.csv"})
        cfg = load_config(path)
        assert os.path.isabs(cfg.ohlcv_path)
        assert cfg.ohlcv_path == str(tmp_path / "ohlcv.csv")

    def test_loss_aliases(self):
        assert resolve_loss_alias("new") == "return_weighted_ce"
        assert resolve_loss_alias("ce") == "ce"
        assert resolve_loss_alias("mse") == "mse"
        with pytest.raises(ConfigError):
            resolve_loss_alias("huber")

    def test_sha256_stable(self):
        a = RunConfig(ohlcv_path="x", sector_path="y")
        b = RunConfig(ohlcv_path="x", sector_path="y")
        assert a.sha256() == b.sha256()


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

    def test_staged_matches_run(self, tmp_path, runner):
        data = synth_dataset(runner, tmp_path / "d")
        cfg_path = write_config(tmp_path, small_config(data))
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


def _empty_val(member, train_set, val_set, hp):
    val_set = copy.copy(val_set)
    val_set.tickers = []  # train_period raises NumericError on an empty split
    return _train_period(member, train_set, val_set, hp)


class TestParallelTraining:
    def _config(self, tmp_path, runner, **overrides):
        data = synth_dataset(runner, tmp_path / "d")
        cfg = small_config(data, **{"conv": [[3, 4]], "dense": [4], "n_members": 3,
                                    "max_epochs": 1, "max_periods": 2, **overrides})
        return write_config(tmp_path, cfg)

    def test_parallel_equals_serial_byte_for_byte(self, tmp_path, runner, monkeypatch):
        cfg = load_config(self._config(tmp_path, runner))
        runs = {}
        for cpus in (1, 3):  # 3 forks children even on a 1-CPU machine
            monkeypatch.setattr(pipeline, "usable_cpus", lambda cpus=cpus: cpus)
            out = tmp_path / f"cpus{cpus}"
            pipeline.run_pipeline(cfg, str(out))
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["environment"]["training_processes"] == (
                3 if cpus == 3 and pipeline.blas.can_limit() else 1)
            runs[cpus] = _run_files(out)
        rows = runs[1]["scores/scores.csv"].decode().splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"0", "1"}  # two periods
        assert "checkpoints/ensemble_0.ens" in runs[1]
        assert runs[3] == runs[1]
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

        def fails_in_child(member, train_set, val_set, hp):
            train = _empty_val if os.getpid() != parent else _train_period
            return train(member, train_set, val_set, hp)

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

        def dies_in_child(member, train_set, val_set, hp):
            if os.getpid() != parent:
                os._exit(3)
            return _train_period(member, train_set, val_set, hp)

        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 3)
        monkeypatch.setattr(pipeline, "train_period", dies_in_child)
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert isinstance(result.exception, ChildProcessError)
        assert "exited with code 3" in str(result.exception)
        assert not (out / ".lock").exists()
        assert multiprocessing.active_children() == []

    def test_process_count(self, monkeypatch):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 4)
        if pipeline.blas.can_limit():
            assert [pipeline.training_processes(n) for n in (1, 3, 6)] == [1, 3, 4]
        monkeypatch.setattr(pipeline.blas, "can_limit", lambda: False)
        assert pipeline.training_processes(3) == 1  # BLAS threads would oversubscribe

    def test_manifest_records_environment(self, tmp_path, runner):
        cfg_path = self._config(tmp_path, runner, n_members=1, max_periods=1)
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "blas_threads",
                            "usable_cpus", "training_processes"}
        assert env["python"].startswith("%d.%d." % sys.version_info[:2])
        assert env["numpy"] == np.__version__
        assert env["usable_cpus"] >= 1
        assert env["training_processes"] == 1  # one member: no fork
        result = runner.invoke(main, ["report", "--out", str(out)])
        assert result.exit_code == 0, result.output
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["training_processes"] is None  # report trains nothing


class TestStartup:
    def test_cli_import_and_help_load_no_scipy(self):
        # scipy serves one p-value in the report and multiprocessing only a
        # parallel training section; every command pays for what
        # `import stockrank.cli` loads, so both stay off that path
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        code = (
            "import json, sys\n"
            "import stockrank.cli\n"
            "try:\n"
            "    stockrank.cli.main(['--help'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] in ('scipy', 'multiprocessing'))))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "Usage:" in result.stdout
        assert json.loads(result.stdout.strip().splitlines()[-1]) == []


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
