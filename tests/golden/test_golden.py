"""The golden run: a change of any artifact's bits fails tier-1.

A tiny run (30 x 600 synth data, ``config.json`` beside this file: one conv
of 3 x 8, one dense block of 8, 2 members, 2 periods, 3 epochs, k 3) is
run through ``stockrank run`` and through the staged ``train``,
``backtest`` and ``report``. ``hashes.json`` holds the sha256 of each
artifact it writes, except ``config.resolved.json`` (absolute data paths)
and ``manifest.json`` (the environment), for each environment it was
recorded in. float32 GEMM bits can differ between BLAS core types and
library versions, so an entry is keyed by the Python minor version, the
numpy version and ``blas.config()``. Where the key has no entry, the test
skips and names the key: a missing key is never a pass.

A change that moves bits on purpose rewrites the entry for this machine:

    PYTHONPATH=src python tests/golden/rewrite_hashes.py
"""

import hashlib
import json
import os
import pathlib
import shutil
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from stockrank import blas
from stockrank.cli import main
from stockrank.synth import generate, write_ohlcv_csv, write_sector_csv

HERE = pathlib.Path(__file__).resolve().parent
CONFIG = HERE / "config.json"
HASHES = HERE / "hashes.json"
DATA = dict(seed=1, n_stocks=30, n_days=600)
UNHASHED = ("config.resolved.json", "manifest.json")
# the CLI commands of each way through the pipeline
MODES = {"run": ["run"], "staged": ["train", "backtest", "report"]}


def environment_key() -> dict:
    """What the recorded bits depend on: None where it cannot be read."""
    return {"python": "{}.{}".format(*sys.version_info[:2]), "numpy": np.__version__,
            "blas": blas.config()}


def recorded_artifacts(key: dict) -> dict | None:
    """The recorded {artifact: sha256} of an environment key, or None."""
    entries = json.loads(HASHES.read_text())["entries"] if HASHES.exists() else []
    return next((e["artifacts"] for e in entries
                 if all(e[k] == v for k, v in key.items())), None)


def write_data(data_dir: pathlib.Path) -> pathlib.Path:
    """The golden data and config in data_dir; returns the config's path."""
    rows, _events, _calendar = generate(DATA["seed"], DATA["n_stocks"], DATA["n_days"])
    write_ohlcv_csv(rows, str(data_dir / "ohlcv.csv"))
    write_sector_csv([r["ticker"] for r in rows], str(data_dir / "sectors.csv"))
    shutil.copy(CONFIG, data_dir / "config.json")
    return data_dir / "config.json"


def run_artifacts(config: pathlib.Path, out: pathlib.Path, mode: str) -> dict:
    """Run the golden config one way into out; {artifact: sha256} of what it wrote."""
    runner = CliRunner()
    for command in MODES[mode]:
        # report reads the config the train stage resolved into out
        args = [] if command == "report" else ["--config", str(config)]
        result = runner.invoke(main, [command, *args, "--out", str(out)])
        assert result.exit_code == 0, (command, result.output)
    hashes = {}
    for root, _dirs, files in os.walk(out):
        for name in files:
            path = pathlib.Path(root) / name
            rel = path.relative_to(out).as_posix()
            if rel not in UNHASHED:
                hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return dict(sorted(hashes.items()))


@pytest.fixture(scope="module")
def golden_config(tmp_path_factory):
    return write_data(tmp_path_factory.mktemp("golden_data"))


@pytest.mark.parametrize("mode", list(MODES))
def test_artifacts_match_the_recorded_hashes(mode, golden_config, tmp_path):
    key = environment_key()
    missing = [k for k, v in key.items() if v is None]
    if missing:
        pytest.skip(f"golden key not readable here: {missing}")
    recorded = recorded_artifacts(key)
    if recorded is None:
        pytest.skip(f"no golden hashes recorded for {key}")
    got = run_artifacts(golden_config, tmp_path / "run", mode)
    moved = sorted(name for name in recorded.keys() | got.keys()
                   if recorded.get(name) != got.get(name))
    assert not moved, f"{mode}: artifacts whose bits moved: {moved}"
