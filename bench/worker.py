"""One fresh benchmark process: import fourwave, set one workload up, run it.

Started by run.py, one at a time, so that each workload's peak RSS and
import time are its own.  Writes its measurements as JSON to ``--out``:

  setup_s      import of fourwave plus the workload's set-up
  durations    per execution of the workload, the time of each operation
  peak_rss_mb  peak resident set size of this process
  attempted, failed
  layers       (traced only) per-layer metrics of each execution

Usage: worker.py --root DIR --workload NAME --seed N --budget S --traced 0|1 --out FILE
"""

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def _clear_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--budget", required=True, type=float)
    ap.add_argument("--traced", required=True, type=int, choices=(0, 1))
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import fourwave
    import fourwave.cli  # noqa: F401  (loads every module of the package)
    src = (args.root / "src").resolve()
    if src not in Path(fourwave.__file__).resolve().parents:
        print(f"fourwave imported from {fourwave.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()  # before set-up, which calls particle.init
    workdir = args.out.parent / f"work-{args.out.stem}"
    _clear_dir(workdir)
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed, workdir)
    setup_s = time.perf_counter() - t0
    setup_spans = list(tracer.spans) if tracer is not None else []

    durations, layers = [], []
    attempted = failed = 0
    started = time.perf_counter()
    while args.budget > 0:
        if tracer is not None:
            tracer.spans = []
        ops = workloads.Ops(tracer.span if tracer is not None else None)
        t_iter = time.perf_counter()
        workload.run(ops)
        durations.append(ops.durations)
        attempted += ops.attempted
        failed += ops.failed
        if tracer is not None:
            layers.append(tracing.layer_metrics(setup_spans + tracer.spans))
        _clear_dir(workdir)
        # start another execution only if it should end within half an
        # execution of the budget
        now = time.perf_counter()
        if now - started + 0.5 * (now - t_iter) > args.budget:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    args.out.write_text(json.dumps({
        "setup_s": setup_s,
        "durations": durations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
