"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up) and then runs its operations through :class:`Ops`, which times
every library call or CLI command and applies an output check to it.  An
operation fails on an exception, a nonzero exit code or a failed check.
Checks are invariants the package guarantees, with the tolerances of its
acceptance gates; none compares against recorded digits, so a legitimate
change of draw order still passes.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

# Library functions are called through their modules, so that the traced
# run's patches on those modules see every call.
from fourwave import analysis, cli, particle, solver, trajectory
from fourwave.kernels import AFFINE, parse_kernel
from fourwave.measures import DiscreteMeasure, moment, quantize

PROD1 = parse_kernel("product:lambda=1")
SUM2 = parse_kernel("sum:lambda=2")


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Ops:
    """Runs, times and checks the operations of one workload execution."""

    def __init__(self, span=None):
        self.span = span or (lambda name: contextlib.nullcontext())
        self.attempted = 0
        self.failed = 0
        self.durations: list[float] = []  # of each operation, in order

    def run(self, name: str, fn, *args, check=None, **kwargs):
        """Call ``fn`` and time the call alone, then check its result."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            try:
                result = fn(*args, **kwargs)
            finally:
                self.durations.append(time.perf_counter() - t0)
            if check is not None:
                check(result)
            return result
        except Exception:  # an operation's failure is counted, not fatal
            self.failed += 1
            print(f"operation {name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def cli(self, span_name: str, argv: list[str], check=None) -> int | None:
        def call():
            with self.span(span_name), contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def check_exit(code):
            _require(code == 0, f"exit code {code} from fourwave {' '.join(argv)}")
            if check is not None:
                check()
        return self.run(span_name, call, check=check_exit)


def exponential_start(rng: np.random.Generator, draws: int, h: float) -> DiscreteMeasure:
    """Exp(1) sample of ``draws`` atoms of mass 1/draws, quantised to h.

    The draws are stratified, one per quantile interval of width 1/draws,
    so the start's moments, and with them the amount of work, hardly
    depend on the seed.
    """
    vals = -np.log1p(-(np.arange(draws) + rng.random(draws)) / draws)
    return quantize(DiscreteMeasure.from_points(vals, np.full(draws, 1.0 / draws)), h)


def _lib_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31))


# --------------------------------------------------------------------------
# ensemble-martingale
# --------------------------------------------------------------------------

def tanh_shift(w):
    return np.tanh(np.asarray(w, dtype=float) - 1.0)


class EnsembleMartingale:
    """Product(1), affine, h=2^-3, t_end=1: 8 event-logged replicas at each
    n in {100, 400, 1600}, their martingale statistics and event logs.

    Each replica starts from its own draw of n particles, so the total
    work depends little on the seed; the precheck runs on replica 0 of
    each n only, as in the martingale acceptance test.
    """

    H = 2.0 ** -3
    NS = (100, 400, 1600)
    REPLICAS = 8

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        mu0 = exponential_start(rng, 4000, self.H)
        self.sim_seed = _lib_seed(rng)
        self.states = {n: [particle.init(n, mu0, self.H, seed=_lib_seed(rng))
                           for _ in range(self.REPLICAS)] for n in self.NS}
        self.workdir = workdir

    def run(self, ops: Ops) -> None:
        ens = {}
        for n in self.NS:
            ens[n] = [ops.run("simulate", particle.simulate, st, PROD1, AFFINE, 1.0,
                              seed=self.sim_seed, stream=r, record_events=True,
                              precheck=(r == 0), check=_check_exact_path)
                      for r, st in enumerate(self.states[n])]
        complete = {n: trajs for n, trajs in ens.items() if None not in trajs}
        ops.run("martingale_stats", analysis.martingale_stats, complete, tanh_shift, PROD1,
                check=lambda rep: _require(rep.within_bound and len(rep.ns) == len(self.NS),
                                           "martingale estimate above 32|f|^2 L^2 t/n"))
        for n, trajs in complete.items():
            for r, traj in enumerate(trajs):
                path = self.workdir / f"events_n{n}_r{r:02d}.jsonl"
                ops.run("save_events_jsonl", trajectory.save_events_jsonl, traj, path,
                        check=lambda _, p=path, t=traj: _check_jsonl_lines(p, len(t.events)))


def _check_exact_path(traj) -> None:
    _require(len(traj.events) > 0, "no accepted jumps")
    _require(bool(np.all(traj.W == traj.W[0])), "W drifted")
    _require(bool(np.all(traj.energy_idx == traj.energy_idx[0])), "integer energy drifted")


def _check_jsonl_lines(path: Path, expected: int) -> None:
    lines = path.read_bytes().count(b"\n")
    _require(lines == expected, f"{path.name}: {lines} lines for {expected} events")


# --------------------------------------------------------------------------
# wide-solve
# --------------------------------------------------------------------------

def normalised_window_start(rng, draws: int, h: float, bound: float):
    """Exp(1) start restricted to [0, bound], the phi-mass beyond the window
    moved into the overflow, scaled so that <phi, mu0> + lam0 = 1."""
    inner, outer = exponential_start(rng, draws, h).compact().restricted(bound)
    lam0 = moment(outer, AFFINE)
    scale = 1.0 / (moment(inner, AFFINE) + lam0)
    return inner.scaled(scale), lam0 * scale


class WideSolve:
    """rk4 ``solve_truncated`` on the window [0, 4] at the default dt
    (product(1) at M=4097, sum(2) at M=2049), then ``picard`` on a 64-atom
    start at M=257: wide convolutions, then many small ones.

    Each solve samples 5 times up to t_end=1/16, 4 steps of 4 right-hand
    sides: short operations, so that a run times each of them many times.
    """

    BOUND = 4.0
    T_END = 1.0 / 16.0
    SOLVES = (("product", PROD1, 2.0 ** -10), ("sum", SUM2, 2.0 ** -9))
    PICARD_H = 2.0 ** -6

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.starts = [(name, kernel, h, *normalised_window_start(rng, 4000, h, self.BOUND))
                       for name, kernel, h in self.SOLVES]
        self.picard_start = normalised_window_start(rng, 64, self.PICARD_H, self.BOUND)

    def run(self, ops: Ops) -> None:
        for name, kernel, h, mu0, lam0 in self.starts:
            cfg = solver.SolverConfig(method="rk4", t_end=self.T_END, bound=self.BOUND, h=h,
                                      sample_times=np.linspace(0.0, self.T_END, 5))
            ops.run(f"solve_truncated {name}", solver.solve_truncated, mu0, lam0, kernel, cfg,
                    check=_check_rk4)
        mu0, lam0 = self.picard_start
        ops.run("picard", solver.picard, mu0, lam0, PROD1, self.BOUND,
                check=lambda rep: _require(rep.bound_sqrt2, "Picard iterates above sqrt(2)"))


def _check_rk4(traj) -> None:
    resid, start = traj.meta["conservation_residual"], traj.meta["conserved_start"]
    _require(resid <= 1e-12 * start, f"rk4 conservation residual {resid:.3e}")
    _require(bool(np.all(np.diff(traj.overflow) >= 0.0)), "overflow decreased")


# --------------------------------------------------------------------------
# cli-batch
# --------------------------------------------------------------------------

def _read_moments(path: Path) -> np.ndarray:
    """Columns t, W, E, phi, phi2, Lambda (NaN when untruncated)."""
    rows = [[float(x) if x else math.nan for x in line.split(",")]
            for line in path.read_text().splitlines()[1:]]
    return np.asarray(rows)


def _json(path: Path):
    return json.loads(path.read_text())


def _check_event_log(path: Path, t_end: float) -> None:
    prev = 0.0
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        _require(set(rec) == {"t", "i", "j", "l", "w_new"}, f"bad record in {path.name}")
        _require(prev <= rec["t"] <= t_end, f"event time out of order in {path.name}")
        prev = rec["t"]


def _check_untruncated_run(outdir: Path, replicas: int, events: bool = False) -> None:
    for r in range(replicas):
        m = _read_moments(outdir / f"moments_r{r:03d}.csv")
        # W = count/n and E = (integer energy)*h/n: equal floats iff exact
        _require(bool(np.all(m[:, 1] == m[0, 1])), f"W drifted in replica {r}")
        _require(bool(np.all(m[:, 2] == m[0, 2])), f"energy drifted in replica {r}")
        if events:
            _check_event_log(outdir / f"events_r{r:03d}.jsonl", float(m[-1, 0]))


def _check_truncated_run(outdir: Path, replicas: int) -> None:
    for r in range(replicas):
        m = _read_moments(outdir / f"moments_r{r:03d}.csv")
        conserved = m[:, 3] + m[:, 5]
        drift = float(np.max(np.abs(conserved - conserved[0])))
        _require(drift <= 1e-12 * conserved[0], f"<phi,X>+Lambda drifted by {drift:.3e}")
        _require(bool(np.all(np.diff(m[:, 1]) <= 0.0)), "truncated W increased")
        _require(bool(np.all(np.diff(m[:, 5]) >= 0.0)), "overflow decreased")
        _check_event_log(outdir / f"events_r{r:03d}.jsonl", float(m[-1, 0]))


def _check_solve(outdir: Path) -> None:
    m = _read_moments(outdir / "moments.csv")
    drift = _json(outdir / "conservation.json")["drift_phi_plus_lambda"]
    _require(drift <= 1e-12 * (m[0, 3] + m[0, 5]), f"solve conservation drift {drift:.3e}")
    _require(bool(np.all(np.diff(m[:, 5]) >= 0.0)), "solve overflow decreased")


def _check_replay(original: Path, replay: Path, replicas: int) -> None:
    for r in range(replicas):
        name = f"moments_r{r:03d}.csv"
        _require(filecmp.cmp(original / name, replay / name, shallow=False),
                 f"replayed {name} differs from the original")


class CliBatch:
    """A script's sequence of ``fourwave`` commands, each in its own
    output directory, later steps reading what earlier ones wrote."""

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = str(_lib_seed(np.random.default_rng(seed)))
        self.workdir = workdir

    def run(self, ops: Ops) -> None:
        d = {name: self.workdir / name for name in
             ("readme", "ens1000", "ens2000", "trunc", "solve", "compare",
              "picard", "report", "replay")}
        sim = ["simulate", "--kernel", "product:lambda=1", "--seed", self.seed]
        coarse = ["--h", repr(2.0 ** -6)]
        # the README command, at the default h = 2^-20
        ops.cli("cli.simulate", [*sim, "--n", "1000", "--replicas", "2", "--events",
                                 "--out", str(d["readme"])],
                check=lambda: _check_untruncated_run(d["readme"], 2, events=True))
        ops.cli("cli.simulate", [*sim, *coarse, "--n", "1000", "--replicas", "4",
                                 "--snapshots", "--out", str(d["ens1000"])],
                check=lambda: _check_untruncated_run(d["ens1000"], 4))
        ops.cli("cli.simulate", [*sim, *coarse, "--n", "2000", "--replicas", "4",
                                 "--snapshots", "--threads", "2", "--out", str(d["ens2000"])],
                check=lambda: _check_untruncated_run(d["ens2000"], 4))
        ops.cli("cli.simulate", [*sim, *coarse, "--bound", "2", "--n", "2000",
                                 "--replicas", "2", "--events", "--out", str(d["trunc"])],
                check=lambda: _check_truncated_run(d["trunc"], 2))
        ops.cli("cli.solve", ["solve", "--kernel", "product:lambda=1", *coarse,
                              "--out", str(d["solve"])],
                check=lambda: _check_solve(d["solve"]))
        ops.cli("cli.compare", ["compare", f"{d['ens1000']},{d['ens2000']}", str(d["solve"]),
                                "--out", str(d["compare"])],
                check=lambda: _require(all(map(math.isfinite, _json(
                    d["compare"] / "convergence.json")["median_err"])),
                    "non-finite convergence error"))
        ops.cli("cli.validate", ["validate", "--kernel", "product:lambda=1"])
        ops.cli("cli.picard", ["picard", "--kernel", "product:lambda=1",
                               "--out", str(d["picard"])],
                check=lambda: _require(_json(d["picard"] / "picard.json")["within_sqrt2"],
                                       "Picard iterates above sqrt(2)"))
        ops.cli("cli.report", ["report", str(d["ens1000"] / "moments_r000.csv"),
                               "--out", str(d["report"])],
                check=lambda: _require(
                    all(_json(d["report"] / "conservation.json")[k] for k in ("exact_W", "exact_E")),
                    "report finds drift"))
        ops.cli("cli.replay", ["simulate", "--manifest", str(d["ens1000"] / "manifest.json"),
                               "--out", str(d["replay"])],
                check=lambda: _check_replay(d["ens1000"], d["replay"], 4))


WORKLOADS = {
    "ensemble-martingale": EnsembleMartingale,
    "wide-solve": WideSolve,
    "cli-batch": CliBatch,
}
