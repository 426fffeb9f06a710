"""fourwave benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing is installed.  Workloads (see workloads.py and
the prediction table in predictions.json):

  ensemble-martingale  particle engine, Fenwick sampling, martingale drift
  wide-solve           rk4 solves at M=4097 and M=2049, then Picard at M=257
  cli-batch            a script's sequence of fourwave CLI commands

A run starts worker processes one after another (worker.py), so load is a
single process and each worker's memory and import time are its own.  With
``--trace 0`` one worker spends the whole budget executing the workload
again and again, and four more only set it up; the result holds the
end-to-end metrics of BENCHMARK.json:

  wall_s       busy time of one execution, each operation at the fastest
               of its repeated timings (see busy_s)
  setup_s      median over the workers of import plus input set-up
  peak_rss_mb  peak RSS of the executing worker

With ``--trace 1`` untraced and traced workers alternate, two each, and the
result holds the per-layer metrics of BENCHMARK.json (medians over the
traced executions, set-up spans included) and ``trace_overhead_s``, traced
minus untraced ``wall_s``.  Every operation's output is checked; ``failed``
counts operations that raised, exited nonzero or failed a check, and
``attempted`` all of them: their ratio is the error rate.

The default seed and the hold-out seed below both run clean; a comparison
of two commits passes its own seeds with ``--seed``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
HOLDOUT_SEED = 8191
SETUP_SAMPLES = 5    # workers per --trace 0 run, each timing its set-up
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _run_worker(args, traced: bool, budget: float, out: Path, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--budget", repr(budget), "--traced", str(int(traced)), "--out", str(out)]
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.read_text())


def busy_s(results: list[dict]) -> float:
    """Busy time of one execution, each operation at its fastest time.

    Every execution of a run performs the same operations on the same
    inputs.  Other tenants of a shared host only ever add time, and on a
    2-core box they slow an operation by up to 1.7x for seconds to minutes,
    so the fastest of the repeated timings is the steady estimate.
    """
    runs = [d for r in results for d in r["durations"]]
    return sum(min(op) for op in zip(*runs))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "fourwave" / "__init__.py").is_file():
        return _fail(f"no fourwave sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((BENCH / "predictions.json").read_text())
    if args.workload not in predictions["workloads"]:
        return _fail(f"unknown workload {args.workload!r}")

    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".bench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    # (traced, budget) per worker.  Untraced, one worker spends the whole
    # budget on executions, so that every operation is timed as often as
    # possible, and the others only add set-up samples; traced, untraced and
    # traced workers alternate so that both meet the same host load.
    if args.trace:
        plan = [(False, args.seconds / 4), (True, args.seconds / 4)] * 2
    else:
        plan = [(False, args.seconds)] + [(False, 0.0)] * (SETUP_SAMPLES - 1)
    try:
        results = [(traced, _run_worker(args, traced, budget, work / f"w{k}.json", deadline))
                   for k, (traced, budget) in enumerate(plan)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    plain = [r for traced, r in results if not traced]
    if not args.trace:
        metrics = {
            "wall_s": busy_s(plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        }
        wanted = spec["end_to_end"]
    else:
        traced = [r for t, r in results if t]
        layers = [layer for r in traced for layer in r["layers"]]
        metrics = tracing.median_metrics(layers)
        metrics["trace_overhead_s"] = busy_s(traced) - busy_s(plain)
        for name in predictions["workloads"][args.workload]["active_spans"]:
            idle = sum(1 for layer in layers if layer[f"{name}.calls"] == 0)
            if idle:
                print(f"bench: span {name} recorded no call in {idle} traced "
                      f"execution(s) of {args.workload}", file=sys.stderr)
                attempted += idle
                failed += idle
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return _fail(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
