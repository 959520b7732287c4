"""Rewrite this environment's entry of hashes.json from a fresh golden run.

    PYTHONPATH=src python tests/golden/rewrite_hashes.py

Runs the golden config both ways (``run``, and the staged ``train``,
``backtest`` and ``report``), checks that both wrote the same bits, and
replaces the entry whose key is this machine's (Python minor version,
numpy version, ``blas.config()``), keeping every other entry. It prints
each artifact whose hash moved. Every rewrite is a change of bits: say in
CHANGES.md which files moved, and why.
"""

import json
import sys
import tempfile
from pathlib import Path

from test_golden import HASHES, MODES, environment_key, recorded_artifacts, run_artifacts, write_data


def main() -> int:
    key = environment_key()
    if any(v is None for v in key.values()):
        print(f"cannot record: golden key not readable here: {key}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        config = write_data(Path(tmp))
        runs = {mode: run_artifacts(config, Path(tmp) / mode, mode) for mode in MODES}
    artifacts = runs["run"]
    if any(got != artifacts for got in runs.values()):
        print("the ways through the pipeline wrote different bits", file=sys.stderr)
        return 1
    old = recorded_artifacts(key) or {}
    for name in sorted(old.keys() | artifacts.keys()):
        if old.get(name) != artifacts.get(name):
            print(f"moved: {name}")
    entries = json.loads(HASHES.read_text())["entries"] if HASHES.exists() else []
    entries = [e for e in entries if any(e[k] != v for k, v in key.items())]
    entries.append({**key, "artifacts": artifacts})
    HASHES.write_text(json.dumps({"entries": entries}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(artifacts)} hashes for {key} to {HASHES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
