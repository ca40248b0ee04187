"""seqrel benchmark: build, load and serve each workload in a fresh process.

    python3 perfbench/run.py --workload fraud_seq --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced
    python3 perfbench/run.py --smoke             # shrunk copies, schema checks

One workload prints its metrics, the environment descriptor and, as the last
line, {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json untraced (--trace 0), the per-layer metrics traced
(--trace 1). It exits non-zero when an output check fails. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
NAMES = ("fraud_seq", "fraud_emb100k", "mobility_seq")
CHILD_TIMEOUT_S = 170
# One BLAS thread: on a shared two-CPU host a second thread waits on the
# neighbours' load, which spread build_s twice as wide across runs.
BLAS_THREADS = 1
# end-to-end metrics shown but not in BENCHMARK.json: quality is defined on
# only some workloads, no operation fails on these inputs, and the per-branch
# latencies depend on how many queries are out of distribution
SHOWN = {"auprc": "1", "rmse": "1", "fail_share": "1",
         "score_p50_us.threshold": "us", "score_p50_us.fallback": "us"}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


def run_child(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Run one workload in a fresh process with BLAS_THREADS (at most nproc)."""
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"result-{name}-{size}-s{seed}-t{trace}-p{os.getpid()}.json"
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"{name}: worker exited with {proc.returncode}")
        return json.loads(out.read_text())
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: worker ran longer than {CHILD_TIMEOUT_S} s") from None
    finally:
        out.unlink(missing_ok=True)


def contract_line(result: dict, wanted: dict) -> dict:
    source = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": source[name], "unit": unit}
                        for name, unit in wanted.items()}}


def show(result: dict, e2e_units: dict) -> None:
    tag = f"{result['workload']} seed={result['seed']} trace={result['trace']}"
    for name, value in result["end_to_end"].items():
        unit = e2e_units.get(name) or SHOWN[name]
        print(f"{tag}  {name:<18} {value:>14.6g} {unit}")
    for name, value in sorted(result.get("per_layer", {}).items()):
        print(f"{tag}  {name:<34} {value:>14.6g}")
    for key in ("samples", "phases_s"):
        print(f"{tag}  {key} {json.dumps(result[key], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"{tag}  CHECK FAILED: {problem}")
    print(json.dumps({"env": result["env"]}, sort_keys=True))


def check_schema(result: dict, bench: dict, layer_where: dict) -> list:
    """Smoke checks: names, units and the per-layer map of the result."""
    problems = []
    name = result["workload"]
    e2e = result["end_to_end"]
    for metric in bench["end_to_end"]:
        value = e2e.get(metric["name"])
        if not (isinstance(value, float) and math.isfinite(value) and value > 0):
            problems.append(f"{name}: end-to-end {metric['name']} = {value!r}")
    quality = "rmse" if name == "mobility_seq" else "auprc"
    if not math.isfinite(e2e.get(quality, math.nan)):
        problems.append(f"{name}: no {quality}")
    if "per_layer" in result:
        layer = result["per_layer"]
        if set(layer) != set(layer_where):
            problems.append(f"{name}: per-layer names {sorted(set(layer) ^ set(layer_where))}")
        for metric, where in layer_where.items():
            value = layer.get(metric)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{name}: per-layer {metric} = {value!r}")
            elif name in where and value <= 0:
                problems.append(f"{name}: {metric} is {value} where its layer runs")
            elif name not in where and where and value != 0:
                problems.append(f"{name}: {metric} is {value} where its layer does not run")
    return problems


def run_all(size: str, seed: int, seconds: float) -> int:
    """Every workload untraced then traced at one seed; prints all metrics,
    the tracing overhead and, for smoke size, schema checks."""
    bench = spec()
    e2e_units = units(bench["end_to_end"])
    layer_units = units(bench["per_layer"])
    problems = []
    layer_where = None
    if size == "smoke":
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(HERE))
        import layers  # noqa: PLC0415 (needs seqrel on the path)
        layer_where = {n: where for n, (_, where) in layers.PER_LAYER.items()}
        declared = {n: unit for n, (unit, _) in layers.PER_LAYER.items()}
        if declared != layer_units:
            problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    summary = {}
    attempted = failed = 0
    for name in NAMES:
        plain = run_child(name, seed, seconds, 0, size)
        traced = run_child(name, seed, seconds, 1, size)
        for result in (plain, traced):
            show(result, e2e_units)
            attempted += result["attempted"]
            failed += result["failed"]
            problems += [f"{name}: {p}" for p in result["problems"]]
            if layer_where is not None:
                problems += check_schema(result, bench, layer_where)
        overhead = {
            "build_s": traced["end_to_end"]["build_s"] - plain["end_to_end"]["build_s"],
            "score_p50_us": (traced["end_to_end"]["score_p50_us"]
                             - plain["end_to_end"]["score_p50_us"]),
        }
        print(f"{name}  tracing overhead: build {overhead['build_s']:+.3f} s, "
              f"score p50 {overhead['score_p50_us']:+.1f} us")
        for metric, value in plain["end_to_end"].items():
            summary[f"{name}.{metric}"] = {
                "value": value, "unit": e2e_units.get(metric) or SHOWN[metric]}
    for p in problems:
        print(f"FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": summary}, sort_keys=True))
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunk copies of all workloads plus schema checks")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "seqrel" / "__init__.py").exists():
        print(f"no seqrel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    bench = spec()
    if args.smoke or args.workload == "all":
        size = "smoke" if args.smoke else "full"
        seconds = args.seconds or (1.0 if args.smoke else bench["run_seconds"])
        return run_all(size, args.seed, seconds)
    seconds = args.seconds or bench["run_seconds"]
    result = run_child(args.workload, args.seed, seconds, args.trace, "full")
    e2e_units = units(bench["end_to_end"])
    show(result, e2e_units)
    wanted = units(bench["per_layer"]) if args.trace else e2e_units
    print(json.dumps(contract_line(result, wanted), sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
