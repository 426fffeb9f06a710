"""Cross-check the harness against the ROADMAP baseline table.

    python3 bench/crosscheck.py > bench/crosscheck.json

Measures, on the machine it runs on:

* ``grid_interaction_parts`` per call, product(1) and sum(2) kernels, at
  grid extents M = 257, 1025 and 4097 (median over repeated calls);
* engine microseconds per accepted event and Fenwick chunks drawn per
  accepted event (product(1), affine, Exp(1) start, h = 2^-20, t = 1,
  precheck off), n = 1000 and 1600;
* ``cli.default_initial_measure(2^-20)``: build time and the peak RSS of a
  fresh process that builds it.

Each row carries the ROADMAP baseline range and ``factor2_disagreement``,
true when the measurement lies outside [low / 2, 2 * high].  Disagreements
are recorded as measured, not tuned away.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fourwave import fenwick  # noqa: E402
from fourwave.collision import grid_interaction_parts  # noqa: E402
from fourwave.kernels import AFFINE, parse_kernel  # noqa: E402
from fourwave.measures import DiscreteMeasure, quantize  # noqa: E402
from fourwave.particle import init, simulate  # noqa: E402

# ROADMAP "Baseline" rows as (low, high); a single value has low == high.
BASELINE = {
    "grid_interaction_parts.product.M257.ms": (0.24, 0.24),
    "grid_interaction_parts.sum.M257.ms": (0.51, 0.51),
    "grid_interaction_parts.product.M1025.ms": (1.4, 1.4),
    "grid_interaction_parts.sum.M1025.ms": (4.1, 4.1),
    "grid_interaction_parts.product.M4097.ms": (32.0, 32.0),
    "grid_interaction_parts.sum.M4097.ms": (75.0, 75.0),
    "engine.n1000.us_per_event": (440.0, 480.0),
    "engine.n1600.us_per_event": (440.0, 480.0),
    "engine.n1000.chunks_per_event": (233 / 232, 233 / 232),
    "engine.n1600.chunks_per_event": (233 / 232, 233 / 232),
    "default_initial_measure.s": (1.6, 1.6),
    "default_initial_measure.peak_rss_mb": (2300.0, 2300.0),
}

_DEFAULT_H_PROBE = """
import resource, time
from fourwave.cli import default_initial_measure
t0 = time.perf_counter()
mu = default_initial_measure(2.0 ** -20)
print(time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, len(mu))
"""


def grid_rows() -> dict:
    rng = np.random.default_rng(2015)
    rows = {}
    for m in (257, 1025, 4097):
        h = 4.0 / (m - 1)
        w = rng.exponential(1.0, size=m) / m
        for name, spec in (("product", "product:lambda=1"), ("sum", "sum:lambda=2")):
            kernel = parse_kernel(spec)
            grid_interaction_parts(w, h, kernel, bound_idx=m - 1)  # warm-up
            times = []
            while sum(times) < 1.0 or len(times) < 5:
                t0 = time.perf_counter()
                grid_interaction_parts(w, h, kernel, bound_idx=m - 1)
                times.append(time.perf_counter() - t0)
            rows[f"grid_interaction_parts.{name}.M{m}.ms"] = 1e3 * statistics.median(times)
    return rows


def engine_rows() -> dict:
    chunks = [0]
    orig = fenwick.FenwickTree.sample_batch

    def counting(self, targets):
        chunks[0] += 1
        return orig(self, targets)

    h = 2.0 ** -20
    rng = np.random.default_rng(101)
    vals = rng.exponential(1.0, size=4000)
    mu0 = quantize(DiscreteMeasure.from_points(vals, np.full(4000, 1.0 / 4000)), h)
    kernel = parse_kernel("product:lambda=1")
    rows = {}
    fenwick.FenwickTree.sample_batch = counting
    try:
        for n in (1000, 1600):
            events = busy = 0.0
            chunks[0] = 0
            for rep in range(8):
                state = init(n, mu0, h, seed=7 + rep)
                t0 = time.perf_counter()
                traj = simulate(state, kernel, AFFINE, 1.0, seed=7, stream=rep,
                                record_events=True, precheck=False)
                busy += time.perf_counter() - t0
                events += len(traj.events)
            rows[f"engine.n{n}.us_per_event"] = 1e6 * busy / events
            rows[f"engine.n{n}.chunks_per_event"] = chunks[0] / events
    finally:
        fenwick.FenwickTree.sample_batch = orig
    return rows


def default_h_rows() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _DEFAULT_H_PROBE], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    secs, rss, atoms = out.stdout.split()
    return {"default_initial_measure.s": float(secs),
            "default_initial_measure.peak_rss_mb": float(rss),
            "default_initial_measure.atoms": int(atoms)}


def main() -> int:
    measured = {**grid_rows(), **engine_rows(), **default_h_rows()}
    rows = []
    for key, value in measured.items():
        row = {"metric": key, "measured": value}
        if key in BASELINE:
            lo, hi = BASELINE[key]
            row["roadmap"] = [lo, hi]
            row["factor2_disagreement"] = not (lo / 2.0 <= value <= 2.0 * hi)
        rows.append(row)
    print(json.dumps({
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "rows": rows,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
