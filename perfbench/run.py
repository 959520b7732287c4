"""Benchmark entry point: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. With ``--trace 0`` the last stdout line
is a JSON object holding every end-to-end metric named in BENCHMARK.json;
with ``--trace 1`` it holds every per-layer metric, taken from one extra
traced run. The full record of the invocation (every repeat, the checks,
the environment) goes to ``.perfbench/<workload>-seed<seed>-trace<t>/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _print_summary(result: dict, spec: dict, trace: bool) -> None:
    name = result["workload"]
    env = result["environment"]
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for metric in spec["end_to_end"]:
        value = result.get("metrics", {}).get(metric["name"])
        if value is not None:
            print(f"{name} {metric['name']}: {value:.4f} {metric['unit']} "
                  f"(median of {result['medians_over']} runs)")
    for key, unit in (("train_samples_per_s", "1/s"), ("val_loss", "loss"),
                      ("topk_final_value", "(information only)")):
        if result.get(key) is not None:
            print(f"{name} {key}: {result[key]:.6g} {unit}")
    print(f"{name} error_rate: {result['error_rate']:.4f} "
          f"({result['failed']} of {result['attempted']} runs failed)")
    print(f"{name} output check: {'pass' if result['failed'] == 0 else 'FAIL'}")
    print(f"{name} determinism check: {'pass' if result['deterministic'] else 'FAIL'}")
    if trace:
        for metric in spec["per_layer"]:
            value = result.get("per_layer", {}).get(metric["name"])
            if value is not None:
                print(f"{name} {metric['name']}: {value:.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stockrank", "__init__.py")):
        print("perfbench: no program source at src/stockrank; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    trace = bool(args.trace)
    work_dir = os.path.join(ROOT, ".perfbench",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result = harness.measure(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                             trace, work_dir)
    with open(os.path.join(work_dir, "record.json"), "w") as fh:
        json.dump(result, fh, sort_keys=True, indent=2)
    _print_summary(result, spec, trace)

    values = result.get("per_layer" if trace else "metrics")
    if values is None:
        print(f"perfbench: no successful {'traced ' if trace else ''}run to report",
              file=sys.stderr)
        return 1
    key = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
