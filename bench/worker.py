"""One fresh worker process of the benchmark.

run.py starts it with BLAS pinned to one thread and a JSON configuration as
its only argument.  It imports the package from the checkout's src/, makes
the workload's inputs and files, and then, by mode:

    setup    stops there and reports the set-up time;
    measure  runs whole rounds of the job list until the next round would
             pass the time budget (at least one round);
    trace    runs one round untraced and one traced.

Set-up time runs from the moment run.py launched the process (a
CLOCK_MONOTONIC stamp in the configuration) to the first timed job.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback


def run_round(jobs, tracer=None) -> dict:
    """Time every job once; checks run between jobs, outside the timed spans."""
    records = []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter()
        try:
            output = job.run()
        except Exception:   # a job that raises is a failed operation, not a benchmark crash
            seconds = time.perf_counter() - start
            print(f"job {job.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            records.append({"name": job.name, "s": seconds, "failed": True, "problems": []})
            continue
        seconds = time.perf_counter() - start
        failed = bool(job.failed(output))
        problems = [] if failed else job.check(output)
        for problem in problems:
            print(f"check failed: {job.name}: {problem}", file=sys.stderr)
        records.append({"name": job.name, "s": seconds, "failed": failed or bool(problems),
                        "problems": problems})
    return {"wall_s": sum(r["s"] for r in records), "jobs": records}


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    src = os.path.join(cfg["root"], "src")
    if not os.path.isfile(os.path.join(src, "linxbound", "__init__.py")):
        print(f"worker: no linxbound package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(cfg["root"], "bench", "out", f"work-{os.getpid()}")
    try:
        import linxbound
        import linxbound.cli

        import workloads

        inputs = workloads.make_inputs(cfg["workload"], cfg["seed"])
        wl = workloads.build(cfg["workload"], inputs, workdir, linxbound, linxbound.cli)
        result = {"setup_s": time.monotonic() - cfg["t0"]}
        if cfg["mode"] == "measure":
            rounds = []
            start = time.perf_counter()
            while True:
                began = time.perf_counter()
                rounds.append(run_round(wl.jobs))
                now = time.perf_counter()
                if (now - start) + (now - began) > cfg["seconds"]:
                    break
            result["rounds"] = rounds
            result["machine"] = machine_info()
        elif cfg["mode"] == "trace":
            import tracing

            untraced = run_round(wl.jobs)
            tracer = tracing.Tracer()
            with tracer.installed(linxbound):
                traced = run_round(wl.jobs, tracer)
            result["rounds"] = [untraced, traced]
            result["per_layer"] = tracer.layer_metrics(
                overhead_s=traced["wall_s"] - untraced["wall_s"],
                eval_ms=tracing.gradient_ms(linxbound, *wl.largest),
            )
            result["spans"] = [sp.as_dict() for sp in tracer.spans]
            result["machine"] = machine_info()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
