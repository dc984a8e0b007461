"""Benchmark for linxbound: one workload per call, one JSON result line.

    python3 bench/run.py --workload bound-dense --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md): bound-dense, gamma-search, oracle-small.

Untraced (--trace 0), the workload is set up in SETUP_PROBES + 1 fresh
worker processes; the last one also runs whole rounds of the job list for
--seconds.  The result reports, per workload, the median round time
(wall_s), the median over rounds of the geometric mean of per-job times
(job_s_gmean), the median set-up time (setup_s) and the measuring worker's
peak resident set (peak_rss_mb).  Traced (--trace 1), one worker runs a
round untraced and a round traced and reports the per-layer metrics.

Every worker runs with BLAS pinned to one thread.  A run record with the
machine information, every round and every job time is written to
bench/out/, with the spans of a traced run.  Exits non-zero without a
result when the checkout holds no src/linxbound or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
OUT_DIR = os.path.join(ROOT, "bench", "out")

END_TO_END = (("wall_s", "s"), ("job_s_gmean", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 4
DEADLINE_S = 170.0
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def run_worker(mode: str, args, deadline: float) -> dict:
    env = dict(os.environ, **ONE_THREAD)
    config = {"mode": mode, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "root": ROOT, "t0": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(config)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker passed the {DEADLINE_S:g} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def gmean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tally(rounds) -> dict:
    jobs = [job for rnd in rounds for job in rnd["jobs"]]
    return {
        "correct": not any(job["problems"] for job in jobs),
        "attempted": len(jobs),
        "failed": sum(job["failed"] for job in jobs),
    }


def end_to_end(rounds, setup_samples, peak_rss_mb) -> dict[str, float]:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "job_s_gmean": statistics.median(gmean(j["s"] for j in r["jobs"]) for r in rounds),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "linxbound", "__init__.py")):
        print(f"bench: no src/linxbound under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            res = run_worker("trace", args, deadline)
            units = {name: unit for name, unit, _ in PER_LAYER}
            metrics = {name: (value, units[name]) for name, value in res["per_layer"].items()}
            setup_samples = [res["setup_s"]]
        else:
            setup_samples = [run_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            res = run_worker("measure", args, deadline)
            setup_samples.append(res["setup_s"])
            units = dict(END_TO_END)
            values = end_to_end(res["rounds"], setup_samples, res["peak_rss_mb"])
            metrics = {name: (value, units[name]) for name, value in values.items()}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    summary = tally(res["rounds"])
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": res["machine"], "setup_samples": setup_samples,
                   **summary, "metrics": metrics, "rounds": res["rounds"],
                   "spans": res.get("spans", [])}, fh)
    print(f"bench: {args.workload} seed={args.seed} rounds={len(res['rounds'])} "
          f"attempted={summary['attempted']} failed={summary['failed']} "
          f"threads={res['machine']['threads']} record={os.path.relpath(record, ROOT)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"bench:   {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({**summary, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
