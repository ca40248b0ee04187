"""One workload in one process: build, load, check, serve, report.

Usage (run.py starts this in a fresh process per workload):
    python3 perfbench/worker.py --workload fraud_seq --seed 1 --seconds 10 \
        --trace 0 --size full --out result.json

The result file holds the metrics, the failed checks, the operation counts
and the environment descriptor.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from seqrel import infer as I  # noqa: E402
from seqrel import metrics as M  # noqa: E402
from seqrel.exceptions import SeqrelError  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

WORK = ROOT / "perfbench" / "_work"
TOP_R = 5
TOLERANCE = 1e-12
MIN_ROUNDS = 5  # serving rounds: score passes, explain passes and loads
TIMED_QUERIES = 250  # every (queries // this)-th query is timed, each round
EXPLAIN_STRIDE = 4  # explain every fourth timed query
BATCH_SHARE = 0.3  # share of the serving time spent in score_batch calls
COLD_STARTS = 5  # setup_s is the median of this many fresh-process starts
COLD_START_TIMEOUT_S = 60


class Run:
    """Operation counts and failed checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except SeqrelError as exc:
            self.failed += 1
            self.check(False, f"{fn.__name__} raised {type(exc).__name__}: {exc}")
            return None

    def check(self, ok, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)


def _p50_us(seconds: np.ndarray) -> float:
    return float(np.median(seconds)) * 1e6 if seconds.size else math.nan


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# output checks


def check_scores(run: Run, task: str, scores: np.ndarray) -> None:
    run.check(np.isfinite(scores).all(), "non-finite score")
    if task == "classification":
        run.check(((scores >= 0.0) & (scores <= 1.0)).all(),
                  "classification score outside [0, 1]")


def check_explanation(run: Run, bundle, entries, train_ids) -> None:
    cg = bundle.cg
    run.check(len(entries) == min(TOP_R, cg.k), "explain: wrong entry count")
    sims = [e.similarity for e in entries]
    run.check(sims == sorted(sims, reverse=True), "explain: not ranked")
    for e in entries:
        run.check(0 <= e.cluster < cg.k
                  and e.representative_id == cg.medoid_ids[e.cluster]
                  and e.representative_id in train_ids,
                  f"explain: entry {e.cluster} does not resolve to a medoid_id")


def code_fingerprint() -> str:
    """Digest of the package and benchmark sources: runs of the same code
    share it."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *ROOT.glob("perfbench/*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_quality_repeats(run: Run, key: str, value: float) -> None:
    """Same code, workload, size and seed must give the same quality bit for
    bit, across runs (untraced and traced alike)."""
    key = f"{code_fingerprint()}|{key}"
    WORK.mkdir(parents=True, exist_ok=True)
    ledger_path = WORK / "quality_ledger.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    seen = ledger.get(key)
    if seen is None:
        ledger[key] = repr(value)
        tmp = ledger_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ledger, sort_keys=True, indent=0))
        os.replace(tmp, ledger_path)
    else:
        run.check(seen == repr(value),
                  f"quality {value!r} differs from {seen} of an earlier run")


def quality(task: str, scores: np.ndarray, labels: np.ndarray) -> tuple:
    s = M.ScoredSet(scores, labels)
    return ("auprc", M.auprc(s)) if task == "classification" else ("rmse", M.rmse(s))


# ---------------------------------------------------------------------------
# serving


def batch_scores(run: Run, bundle, queries, batch_s: list | None = None) -> np.ndarray:
    out, seconds = timed(run.call, I.score_batch, bundle, queries)
    run.attempted += len(queries) - 1
    if out is None:
        return np.full(len(queries), np.nan)
    if batch_s is not None:
        batch_s.append(seconds)
    return np.array([r.score for r in out[0]])


def score_pass(run: Run, bundle, queries, expected) -> np.ndarray:
    """Every query once, closed loop with one caller: each call is sent after
    the previous one returns. Returns the seconds of each call. Every score
    must equal its score_batch counterpart."""
    got, lat = np.empty(len(queries)), np.empty(len(queries))
    for q, query in enumerate(queries):
        r, lat[q] = timed(run.call, I.score, bundle, query)
        got[q] = np.nan if r is None else r.score
    diff = np.abs(got - expected)
    run.check((diff <= TOLERANCE).all(),
              f"score and score_batch differ by {np.nanmax(diff):.3g} (> {TOLERANCE})")
    return lat


def explain_pass(run: Run, bundle, inputs: W.Inputs, picks) -> np.ndarray:
    lat = np.empty(len(picks))
    for j, q in enumerate(picks):
        entries, lat[j] = timed(run.call, I.explain, bundle, inputs.queries[q], TOP_R)
        if entries is not None:
            check_explanation(run, bundle, entries, inputs.train_ids)
    return lat


def fallback_branch(run: Run, bundle, queries) -> np.ndarray:
    """Per query: True when no prototype clears epsilon, so connect takes the
    top-m fallback. The most similar prototype comes from explain."""
    top = [run.call(I.explain, bundle, q, 1) for q in queries]
    return np.array([t is not None and t[0].similarity <= bundle.epsilon for t in top])


class Server:
    """Serving of one bundle, checked and timed.

    Untimed and checked first: two score_batch passes over every query (the
    plain and a permuted order), a score pass (the warm-up, which also builds
    the state infer computes lazily on first use) and an explain call per
    query to learn its connect branch. Then serve() runs rounds: a score
    pass over the timed queries, an explain pass over every
    EXPLAIN_STRIDE-th timed in-distribution query, and a score_batch call
    over the in-distribution queries whenever batch work falls below
    BATCH_SHARE of the serving time so far.

    A latency sample is a query's median call over the rounds. On a shared
    host the same call runs up to 1.7x slower while the neighbours are busy,
    in stretches from one call to about a minute long; the median over
    rounds spread across the run holds still where a single call, or the
    fastest of a few, jumps between those levels. The timed queries are a
    fixed subset so that each gets many rounds."""

    def __init__(self, run: Run, rec: spans.Recorder, bundle, inputs: W.Inputs, rng):
        self.run, self.rec, self.bundle, self.inputs = run, rec, bundle, inputs
        queries, n = inputs.queries, len(inputs.queries)
        scores = batch_scores(run, bundle, queries)
        check_scores(run, inputs.task, scores)
        perm = rng.permutation(n)
        permuted = batch_scores(run, bundle, [queries[i] for i in perm])
        run.check(np.max(np.abs(permuted - scores[perm])) <= TOLERANCE,
                  "permuting the queries does not permute the outputs")
        score_pass(run, bundle, queries, scores)
        self.scores, self.fallback = scores, fallback_branch(run, bundle, queries)
        # every k-th query: TIMED_QUERIES or so from the corpus's mixture,
        # plus the out-of-distribution ones at the same stride
        self.chosen = np.arange(0, n, max(1, n // TIMED_QUERIES))
        self.picks = self.chosen[inputs.in_dist[self.chosen]][::EXPLAIN_STRIDE]
        self.in_dist = [queries[i] for i in np.flatnonzero(inputs.in_dist)]
        self.score_lat, self.explain_lat, self.batch_s = [], [], []
        self.serving_s = 0.0

    def serve(self, seconds: float, min_rounds: int) -> None:
        """Rounds for `seconds`, and until there are min_rounds in all."""
        run, bundle, inputs = self.run, self.bundle, self.inputs
        timed_queries = [inputs.queries[i] for i in self.chosen]
        start = time.perf_counter()
        while (len(self.score_lat) < min_rounds
               or time.perf_counter() < start + seconds):
            with self.rec.span(layers.SERVE):
                self.score_lat.append(score_pass(run, bundle, timed_queries,
                                                 self.scores[self.chosen]))
                self.explain_lat.append(explain_pass(run, bundle, inputs, self.picks))
            now = self.serving_s + time.perf_counter() - start
            if sum(self.batch_s) < BATCH_SHARE * now:
                with self.rec.span(layers.SERVE):
                    again = batch_scores(run, bundle, self.in_dist, self.batch_s)
                run.check(np.max(np.abs(again - self.scores[inputs.in_dist])) <= TOLERANCE,
                          "score_batch is not repeatable")
        self.serving_s += time.perf_counter() - start

    def result(self) -> dict:
        inputs = self.inputs
        return {"scores": self.scores, "batch_s": self.batch_s,
                "batch_queries": len(self.in_dist),
                "score_lat": np.median(self.score_lat, axis=0),
                "in_dist": inputs.in_dist[self.chosen],
                "fallback": self.fallback[self.chosen],
                "explain_lat": np.median(self.explain_lat, axis=0),
                "rounds": len(self.score_lat), "serving_s": self.serving_s,
                "quality": quality(inputs.task, self.scores[inputs.in_dist],
                                   inputs.labels)}


def cold_starts(run: Run, bundle_path, query, expected: float, work: Path) -> list:
    """COLD_STARTS fresh processes, one after another, each timing load until
    its first score (coldstart.py). Their first score must equal the
    score_batch score of the same query."""
    query_path = work / "coldstart-query.pkl"
    query_path.write_bytes(pickle.dumps(query))
    cmd = [sys.executable, str(HERE / "coldstart.py"), str(bundle_path), str(query_path)]
    seconds = []
    for _ in range(COLD_STARTS):
        run.attempted += 1
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=COLD_START_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            run.failed += 1
            run.check(False, f"cold start ran longer than {COLD_START_TIMEOUT_S} s")
            continue
        if proc.returncode != 0:
            run.failed += 1
            run.check(False, f"cold start exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-300:]}")
            continue
        out = json.loads(proc.stdout.splitlines()[-1])
        run.check(abs(out["score"] - expected) <= TOLERANCE,
                  f"cold-start score {out['score']!r} differs from {expected!r}")
        seconds.append(out["setup_s"])
    return seconds


# ---------------------------------------------------------------------------
# environment


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_sha": git_sha(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    spec = W.SIZES[size][name]
    work = WORK / f"{name}-{size}-s{seed}-p{os.getpid()}"
    rec = spans.Recorder()
    instr = spans.Instrumentation(rec, layers.targets()) if trace else None
    run = Run()
    rng = np.random.default_rng([seed, 99])
    try:
        inputs, prepare_s = timed(W.prepare, spec, seed, work)
        if instr is not None:
            instr.install()
        gc.collect()
        # build 0 makes the bundle that serves; each later build is checked
        # to save the same bytes. Serving runs in one slice after each build,
        # so its samples spread across the run.
        with rec.span(layers.BUILD):
            bundle_path, first_build_s = timed(W.build, spec, inputs, work / "build0")
        run.attempted += 1
        builds = [first_build_s]
        with rec.span(layers.SETUP):
            bundle = run.call(I.load_bundle, bundle_path)
        if bundle is None:
            raise SystemExit(f"{name}: the bundle does not load")
        server = Server(run, rec, bundle, inputs, rng)
        for i in range(spec.builds):
            if i:
                # per-layer metrics come from the first build alone
                with rec.span(layers.REBUILD):
                    path, build_s = timed(W.build, spec, inputs, work / f"build{i}")
                run.attempted += 1
                builds.append(build_s)
                run.check(path.read_bytes() == bundle_path.read_bytes(),
                          f"build {i} saved a bundle that differs from build 0")
                gc.collect()
            server.serve(seconds / spec.builds,
                         math.ceil(MIN_ROUNDS * (i + 1) / spec.builds))
        served = server.result()
        build_s = float(np.median(builds))
        first = int(np.flatnonzero(inputs.in_dist)[0])
        setup, cold_s = timed(cold_starts, run, bundle_path, inputs.queries[first],
                              served["scores"][first], work)
    finally:
        if instr is not None:
            instr.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    qname, qvalue = served["quality"]
    check_quality_repeats(run, f"{name}|{size}|{seed}", qvalue)
    timed_lat, fallback = served["score_lat"], served["fallback"]
    lat = timed_lat[served["in_dist"]]
    e2e = {
        "setup_s": float(np.median(setup)) if setup else math.nan,
        "build_s": build_s,
        "score_p50_us": float(np.median(lat)) * 1e6,
        "score_p99_us": float(np.percentile(lat, 99)) * 1e6,
        "score_batch_qps": served["batch_queries"] / float(np.median(served["batch_s"])),
        "explain_p50_us": float(np.median(served["explain_lat"])) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        qname: qvalue,
        "fail_share": run.failed / run.attempted,
        # per connect branch, over every timed query; not gated, because the
        # out-of-distribution share sets how many fall back
        "score_p50_us.threshold": _p50_us(timed_lat[~fallback]),
        "score_p50_us.fallback": _p50_us(timed_lat[fallback]),
    }
    result = {
        "workload": name, "size": size, "seed": seed, "trace": int(trace),
        "correct": not run.problems, "attempted": run.attempted,
        "failed": run.failed, "problems": run.problems, "end_to_end": e2e,
        "samples": {"score": len(lat), "explain": len(served["explain_lat"]),
                    "score.threshold": int((~fallback).sum()),
                    "score.fallback": int(fallback.sum()),
                    "rounds": served["rounds"], "builds": len(builds),
                    "score_batch_calls": len(served["batch_s"]),
                    "score_batch_queries": served["batch_queries"],
                    "cold_starts": len(setup), "queries": len(inputs.queries),
                    "ood_queries": int((~inputs.in_dist).sum())},
        "phases_s": {"prepare": prepare_s, "build": sum(builds), "cold_starts": cold_s,
                     "serve": served["serving_s"]},
        "env": environment(seed),
    }
    if trace:
        summary = spans.Summary(rec.spans)
        per_layer = layers.summarise(summary)
        fallback = per_layer["graph.fallback_share"]
        run.check(0.0 < fallback < 1.0,
                  f"queries take only one connect branch (fallback share {fallback})")
        result.update(correct=not run.problems, per_layer=per_layer)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(W.SIZES), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.size)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
