"""In-memory spans around the calls into fourwave's public functions.

A traced run wraps each function in ``TARGETS`` at every module that binds
it: ``fourwave.solver`` imports ``grid_interaction_parts`` by name, so
patching only ``fourwave.collision`` would record nothing for the solver.
Bindings are found by identity, scanning every loaded ``fourwave`` module.
Spans stay in memory; :func:`layer_metrics` turns one run's spans into
the per-layer metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import sys
import threading
import time

# (defining module, attribute) of every traced function.  The span name is
# "<last module component>.<function>".
TARGETS = [
    ("fourwave.particle", "init"),
    ("fourwave.particle", "simulate"),
    ("fourwave.particle", "simulate_truncated"),
    ("fourwave.particle", "extract_martingale"),
    ("fourwave.fenwick", "FenwickTree.sample_batch"),
    ("fourwave.collision", "grid_interaction_parts"),
    ("fourwave.collision", "grid_q_counting"),
    ("fourwave.collision", "q_counting"),
    ("fourwave.solver", "solve_truncated"),
    ("fourwave.solver", "picard"),
    ("fourwave.analysis", "martingale_stats"),
    ("fourwave.analysis", "mean_field_convergence"),
    ("fourwave.analysis", "conservation_report"),
    ("fourwave.measures", "weak_distance"),
    ("fourwave.measures", "save_measure_csv"),
    ("fourwave.measures", "load_measure_csv"),
    ("fourwave.trajectory", "save_events_jsonl"),
    ("fourwave.trajectory", "save_moments_csv"),
    ("fourwave.kernels", "check_submultiplicative"),
    ("fourwave.kernels", "check_symmetry"),
    ("fourwave.kernels", "check_homogeneity"),
    ("fourwave.cli", "default_initial_measure"),
]

# Grid extents M of the workloads' dense windows, one metric bucket each.
GRID_EXTENTS = (5, 257, 2049, 4097)

CLI_COMMANDS = ("simulate", "solve", "compare", "validate", "picard", "report", "replay")

_SIMULATE_SPANS = ("particle.simulate", "particle.simulate_truncated")
_SAVE_SPANS = ("measures.save_measure_csv", "trajectory.save_events_jsonl")
_RHS_PER_STEP = {"euler": 1, "rk4": 4, "if_euler": 2}


def _events(traj) -> int | None:
    return None if traj.events is None else len(traj.events)


def _path_arg(args, kwargs):
    return kwargs.get("path", args[1] if len(args) > 1 else None)


# What a span records besides its timing, from (args, kwargs, result).
_INFO = {
    "particle.simulate": lambda a, k, r: _events(r),
    "particle.simulate_truncated": lambda a, k, r: _events(r),
    "particle.extract_martingale": lambda a, k, r: _events(a[0]),
    "collision.grid_interaction_parts": lambda a, k, r: len(a[0]),
    "solver.solve_truncated": lambda a, k, r: (a[3] if len(a) > 3 else k["cfg"]).method,
    "measures.save_measure_csv": lambda a, k, r: os.path.getsize(_path_arg(a, k)),
    "trajectory.save_events_jsonl": lambda a, k, r: os.path.getsize(_path_arg(a, k)),
}


class Tracer:
    """Records spans ``[name, start, end, parent, info]`` while installed.

    ``parent`` is the enclosing span of the same thread, or None; spans
    opened by a worker thread of the program start at the top level.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        rec = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        info = _INFO.get(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            rec = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(rec)
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Patch every binding of every target, for the rest of the process;
        call after importing fourwave."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "fourwave" or key.startswith("fourwave.")]
        for modname, attr in TARGETS:
            owner = importlib.import_module(modname)
            name = f"{modname.rsplit('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)


def _self_time(rec, children) -> float:
    """Span duration minus the part of it covered by child spans."""
    covered, reach = 0.0, rec[1]
    for c in sorted(children, key=lambda s: s[1]):
        lo, hi = max(c[1], reach), c[2]
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (rec[2] - rec[1]) - covered


def _names() -> list[str]:
    names = [f"{m.rsplit('.', 1)[1]}.{a.rsplit('.', 1)[-1]}" for m, a in TARGETS]
    return names + [f"cli.{c}" for c in CLI_COMMANDS]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced workload execution.

    For every span name: ``<name>.s`` (total time), ``.self_s`` (time
    minus child spans) and ``.calls``; plus the derived per-event, per-step,
    per-extent and byte counts named in BENCHMARK.json.
    """
    out: dict[str, float] = {}
    for name in _names():
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    children: dict[int, list] = {}
    for rec in spans:
        if rec[3] is not None:
            children.setdefault(id(rec[3]), []).append(rec)
    ev_time = ev_count = ev_chunks = 0.0
    mart_time = mart_events = 0.0
    steps = 0
    extent_time = {m: 0.0 for m in GRID_EXTENTS}
    extent_calls = {m: 0 for m in GRID_EXTENTS}
    nbytes = {name: 0 for name in _SAVE_SPANS}
    for rec in spans:
        name, dur = rec[0], rec[2] - rec[1]
        kids = children.get(id(rec), [])
        out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += _self_time(rec, kids)
        out[f"{name}.calls"] += 1
        info = rec[4]
        if name in _SIMULATE_SPANS and info is not None:
            ev_time += dur
            ev_count += info
            ev_chunks += sum(1 for k in kids if k[0] == "fenwick.sample_batch")
        elif name == "particle.extract_martingale":
            mart_time += dur
            mart_events += info
        elif name == "collision.grid_interaction_parts" and info in extent_time:
            extent_time[info] += dur
            extent_calls[info] += 1
        elif name == "solver.solve_truncated":
            rhs = sum(1 for k in kids if k[0] == "collision.grid_interaction_parts")
            steps += rhs // _RHS_PER_STEP[info]
        elif name in nbytes:
            nbytes[name] += info
    out["particle.events"] = int(ev_count)
    out["particle.us_per_event"] = 1e6 * ev_time / ev_count if ev_count else 0.0
    out["fenwick.sample_batch_per_event"] = ev_chunks / ev_count if ev_count else 0.0
    out["particle.extract_martingale.us_per_event"] = (
        1e6 * mart_time / mart_events if mart_events else 0.0)
    out["solver.steps"] = steps
    for m in GRID_EXTENTS:
        out[f"collision.grid_interaction_parts.ms_per_call.M{m}"] = (
            1e3 * extent_time[m] / extent_calls[m] if extent_calls[m] else 0.0)
    for name, total in nbytes.items():
        out[f"{name}.bytes"] = total
    return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over several traced executions."""
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
