"""Reproducible batch interface.

Subcommands: ``simulate``, ``solve``, ``compare``, ``validate``,
``picard``, ``report``.  Every run writes a ``manifest.json`` holding the
full configuration, seed and package version; re-running from the same
manifest reproduces the artifact directory bit for bit (no timestamps are
recorded).  Exit codes: 0 success, 2 configuration error, 3 runtime error
(for instance a sub-multiplicativity abort or a failed validation).

The default output root is the current directory, overridable with the
``FOURWAVE_OUTPUT_ROOT`` environment variable; each subcommand writes only
inside its designated output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import conservation_report, mean_field_convergence
from .kernels import KernelSpecError, parse_kernel, parse_weight
from .kernels import check_homogeneity, check_submultiplicative, check_symmetry
from .measures import (DiscreteMeasure, load_measure_csv, moment, quantize,
                       save_measure_csv, tv_norm)
from .particle import (EXP_START_CUTOFF, EXP_START_MEAN, AuditError,
                       MaxEventsError, ThinningError, init, simulate,
                       simulate_truncated)
from .solver import (SolverConfig, SolverError, picard, solve_limit,
                     solve_truncated)
from .trajectory import (Trajectory, load_moments_csv, save_events_jsonl,
                         save_moments_csv)

CONFIG_ERROR, RUNTIME_ERROR = 2, 3


class CliConfigError(Exception):
    pass


def _output_root() -> Path:
    return Path(os.environ.get("FOURWAVE_OUTPUT_ROOT", "."))


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(outdir: Path, command: str, config: dict) -> None:
    _json_dump({"schema": 1, "tool": "fourwave", "version": __version__,
                "command": command, "config": config}, outdir / "manifest.json")


def _load_manifest_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    return data.get("config", {})


def _merge_config(args: argparse.Namespace, manifest_cfg: dict, keys: list[str],
                  defaults: dict) -> dict:
    """Explicitly passed flags override the manifest, which overrides
    ``defaults``; a null value counts as unset."""
    unknown = set(manifest_cfg) - set(keys)
    if unknown:
        raise CliConfigError(f"unknown key {sorted(unknown)[0]!r} in manifest config")
    cfg = {}
    for key in keys:
        val = getattr(args, key)
        if val is None:
            val = manifest_cfg.get(key)
        cfg[key] = defaults.get(key) if val is None else val
    return cfg


def default_initial_measure(h: float, mean: float = EXP_START_MEAN,
                            cutoff: float = EXP_START_CUTOFF) -> DiscreteMeasure:
    """Exponential(mean) frequency distribution discretised on the h-grid.

    Materialises cutoff/h atoms; ``simulate`` draws its default start from
    the same law without it (``particle.init`` with ``mu0=None``).
    """
    kmax = int(np.ceil(cutoff / h))
    k = np.arange(kmax + 1)
    w = np.exp(-k * h / mean)
    w /= w.sum()
    keep = w > 1e-300
    return DiscreteMeasure.from_grid(k[keep], w[keep], h)


def _resolve_initial(cfg_initial: str | None, h: float) -> DiscreteMeasure:
    if cfg_initial is None:
        return default_initial_measure(h)
    mu = load_measure_csv(cfg_initial)
    if not mu.is_grid or mu.h != h:
        mu = quantize(mu, h)
    return mu


def _sample_times(t_end: float, samples: int) -> np.ndarray:
    return np.linspace(0.0, t_end, samples)


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

_SIM_KEYS = ["kernel", "weight", "n", "seed", "h", "t_end", "samples", "replicas",
             "bound", "lambda0", "events", "max_events", "initial", "snapshots",
             "threads"]


def cmd_simulate(args) -> int:
    defaults = {"weight": "affine", "n": 1000, "seed": 0, "h": 2.0 ** -20,
                "t_end": 1.0, "samples": 17, "replicas": 1, "lambda0": None,
                "events": False, "max_events": 10_000_000, "snapshots": False,
                "threads": 1}
    cfg = _merge_config(args, _load_manifest_config(args.manifest), _SIM_KEYS, defaults)
    if cfg["kernel"] is None:
        raise CliConfigError("--kernel is required")
    if cfg["n"] < 2:
        raise CliConfigError("n >= 2 required")
    kernel = parse_kernel(cfg["kernel"])
    weight = parse_weight(cfg["weight"])
    outdir = Path(args.out) if args.out else _output_root() / f"sim-seed{cfg['seed']}"
    outdir.mkdir(parents=True, exist_ok=True)

    mu0 = None if cfg["initial"] is None else _resolve_initial(cfg["initial"], cfg["h"])
    state = init(cfg["n"], mu0, cfg["h"], cfg["seed"], weight)
    times = _sample_times(cfg["t_end"], cfg["samples"])

    def run_one(stream: int) -> Trajectory:
        precheck = stream == 0  # all replicas share ``state``: one check covers them
        if cfg["bound"] is not None:
            return simulate_truncated(state, cfg["bound"], cfg["lambda0"], kernel,
                                      weight, cfg["t_end"], seed=cfg["seed"],
                                      stream=stream, sample_times=times,
                                      record_events=cfg["events"],
                                      record_snapshots=cfg["snapshots"],
                                      precheck=precheck)
        return simulate(state, kernel, weight, cfg["t_end"], seed=cfg["seed"],
                        stream=stream, sample_times=times,
                        record_events=cfg["events"],
                        record_snapshots=cfg["snapshots"],
                        max_events=cfg["max_events"], precheck=precheck)

    streams = range(cfg["replicas"])
    for stream in streams:
        traj = run_one(stream)
        save_moments_csv(traj, outdir / f"moments_r{stream:03d}.csv")
        if cfg["events"]:
            save_events_jsonl(traj, outdir / f"events_r{stream:03d}.jsonl")
        if cfg["snapshots"]:
            for k, snap in enumerate(traj.snapshots):
                save_measure_csv(snap, outdir / f"snap_r{stream:03d}_t{k:03d}.csv")
    _write_manifest(outdir, "simulate", cfg)
    print(f"wrote {len(streams)} replica(s) to {outdir}")
    return 0


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------

_SOLVE_KEYS = ["kernel", "h", "bound", "dt", "method", "t_end", "samples",
               "initial", "lambda0", "bound_schedule", "richardson"]


def cmd_solve(args) -> int:
    defaults = {"h": 2.0 ** -6, "bound": 4.0, "method": "rk4", "t_end": 1.0,
                "samples": 17, "lambda0": 0.0, "richardson": False}
    cfg = _merge_config(args, _load_manifest_config(args.manifest), _SOLVE_KEYS, defaults)
    if cfg["kernel"] is None:
        raise CliConfigError("--kernel is required")
    kernel = parse_kernel(cfg["kernel"])
    outdir = Path(args.out) if args.out else _output_root() / "solve"
    outdir.mkdir(parents=True, exist_ok=True)
    mu0 = _resolve_initial(cfg["initial"], cfg["h"])
    inner, outer = mu0.restricted(cfg["bound"])
    lam0 = cfg["lambda0"] + moment(outer, parse_weight("affine"))
    times = _sample_times(cfg["t_end"], cfg["samples"])

    def run(dt, sample=None):
        scfg = SolverConfig(method=cfg["method"], dt=dt, t_end=cfg["t_end"],
                            bound=cfg["bound"], h=cfg["h"],
                            sample_times=times if sample is None else sample)
        return solve_truncated(inner, lam0, kernel, scfg)

    if cfg["bound_schedule"]:
        schedule = [float(b) for b in str(cfg["bound_schedule"]).split(",")]
        scfg = SolverConfig(method=cfg["method"], dt=cfg["dt"], t_end=cfg["t_end"],
                            bound=max(schedule), h=cfg["h"], sample_times=times)
        traj, diags = solve_limit(mu0, kernel, scfg, schedule)
        _json_dump({"schema": 1, "report": "overflow_schedule",
                    "t": times.tolist(),
                    "overflow": {f"{b:g}": lam.tolist() for b, lam in diags.items()}},
                   outdir / "overflow_schedule.json")
    else:
        traj = run(cfg["dt"])
    save_moments_csv(traj, outdir / "moments.csv")
    save_measure_csv(traj.snapshots[0], outdir / "initial.csv")
    save_measure_csv(traj.snapshots[-1], outdir / "final.csv")
    for k, snap in enumerate(traj.snapshots):
        save_measure_csv(snap, outdir / f"snap_t{k:03d}.csv")
    rep = conservation_report(traj)
    (outdir / "conservation.json").write_text(rep.to_json() + "\n")
    (outdir / "conservation.txt").write_text(rep.to_text() + "\n")

    if cfg["richardson"]:
        dt0 = cfg["dt"] if cfg["dt"] is not None else traj.meta["dt"]
        # endpoint-only sampling: intermediate sample times would shorten
        # substeps and pollute the order measurement
        ends = np.array([0.0, cfg["t_end"]])
        finals = []
        for dt in [dt0, dt0 / 2.0, dt0 / 4.0]:
            finals.append(run(dt, sample=ends).snapshots[-1])
        e1 = tv_norm(finals[0] - finals[1])
        e2 = tv_norm(finals[1] - finals[2])
        table = {"schema": 1, "report": "richardson", "dt": dt0,
                 "err_dt_vs_half": e1, "err_half_vs_quarter": e2,
                 "ratio": e1 / e2 if e2 > 0 else float("inf"),
                 "expected_ratio": 2.0 ** {"euler": 1, "rk4": 4, "if_euler": 1}[cfg["method"]]}
        _json_dump(table, outdir / "richardson.json")
        print(f"richardson ratio {table['ratio']:.3f} "
              f"(expected ~{table['expected_ratio']:.0f} for {cfg['method']})")
    _write_manifest(outdir, "solve", cfg)
    print(f"wrote solve artifacts to {outdir}")
    return 0


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------

def _load_run_snapshots(run_dir: Path) -> tuple[dict, list[list[DiscreteMeasure]], np.ndarray]:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    cfg = manifest["config"]
    times = _sample_times(cfg["t_end"], cfg["samples"])
    if manifest["command"] == "solve":
        snaps = [[load_measure_csv(run_dir / f"snap_t{k:03d}.csv")
                  for k in range(len(times))]]
    else:
        snaps = []
        stream = 0
        while (run_dir / f"snap_r{stream:03d}_t000.csv").exists():
            snaps.append([load_measure_csv(run_dir / f"snap_r{stream:03d}_t{k:03d}.csv")
                          for k in range(len(times))])
            stream += 1
    return cfg, snaps, times


def _as_trajectory(snapshots: list[DiscreteMeasure], times: np.ndarray) -> Trajectory:
    z = np.zeros(len(times))
    return Trajectory(sample_times=times, W=z, E=z, phi=z, phi2=z, overflow=None,
                      snapshots=snapshots)


def cmd_compare(args) -> int:
    for d in args.ensembles.split(",") + [args.reference]:
        if not Path(d).is_dir():
            raise CliConfigError(f"missing run directory {d!r}")
    ref_cfg, ref_snaps, ref_times = _load_run_snapshots(Path(args.reference))
    reference = _as_trajectory(ref_snaps[0], ref_times)
    ensembles, dirs = {}, {}
    for d in args.ensembles.split(","):
        cfg, snaps, times = _load_run_snapshots(Path(d))
        n = cfg.get("n") or 1
        if n in dirs:
            raise CliConfigError(f"ensembles {dirs[n]!r} and {d!r} both have n={n}: "
                                 "each particle count may appear once")
        dirs[n] = d
        if len(times) != len(ref_times) or np.max(np.abs(times - ref_times)) > 1e-12:
            raise CliConfigError("sample-time grids of ensemble and reference differ")
        if not snaps:
            raise CliConfigError(f"no snapshots found in {d!r} (rerun with --snapshots)")
        ensembles[n] = [_as_trajectory(s, times) for s in snaps]
    report = mean_field_convergence(ensembles, reference, parse_weight("affine"))
    outdir = Path(args.out) if args.out else _output_root() / "compare"
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "convergence.json").write_text(report.to_json() + "\n")
    (outdir / "convergence.txt").write_text(report.to_text() + "\n")
    print(report.to_text())
    return 0


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def cmd_validate(args) -> int:
    kernel = parse_kernel(args.kernel)
    weight = parse_weight(args.weight)
    rng = np.random.default_rng(20270101)
    samples = rng.uniform(0.0, 100.0, size=(10_000, 3))
    scales = rng.uniform(1e-2, 1e2, size=16)
    reports = [
        check_symmetry(kernel, samples),
        check_homogeneity(kernel, samples[:500], scales),
        check_submultiplicative(kernel, weight, samples),
    ]
    for rep in reports:
        print(rep)
    if not all(r.passed for r in reports):
        print("validation FAILED", file=sys.stderr)
        return RUNTIME_ERROR
    print("all checks passed")
    return 0


# --------------------------------------------------------------------------
# picard
# --------------------------------------------------------------------------

def cmd_picard(args) -> int:
    kernel = parse_kernel(args.kernel)
    h = args.h
    if args.initial:
        mu0 = load_measure_csv(args.initial)
    else:
        mu0 = DiscreteMeasure.from_grid([1, 2], [0.5, 0.5], h)
    phi0 = moment(mu0, parse_weight("affine"))
    if phi0 > 1.0:
        mu0 = mu0.scaled(1.0 / phi0)
    rep = picard(mu0, 0.0, kernel, args.bound, iterations=args.iterations)
    outdir = Path(args.out) if args.out else _output_root() / "picard"
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": 1, "report": "picard", "constant": rep.constant,
        "horizon": rep.horizon, "sup_norms": rep.sup_norms.tolist(),
        "sup_diffs": rep.sup_diffs.tolist(), "within_sqrt2": rep.bound_sqrt2,
    }
    _json_dump(payload, outdir / "picard.json")
    _write_manifest(outdir, "picard", {"kernel": args.kernel, "h": h,
                                       "bound": args.bound,
                                       "iterations": args.iterations,
                                       "initial": args.initial})
    print(f"C = {rep.constant:.6g}, T = {rep.horizon:.6g}, "
          f"sup norms within sqrt(2): {rep.bound_sqrt2}")
    return 0 if rep.bound_sqrt2 else RUNTIME_ERROR


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def cmd_report(args) -> int:
    path = Path(args.moments)
    if not path.exists():
        raise CliConfigError(f"no moment trace at {path}")
    rep = conservation_report(load_moments_csv(path))
    print(rep.to_text())
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "conservation.json").write_text(rep.to_json() + "\n")
    return 0


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fourwave",
                                description="4-wave kinetic toolkit: particle "
                                            "simulation, deterministic solves, "
                                            "validation and comparison")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the stochastic particle system")
    sim.add_argument("--kernel")
    sim.add_argument("--weight")
    sim.add_argument("--n", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--h", type=float)
    sim.add_argument("--t-end", dest="t_end", type=float)
    sim.add_argument("--samples", type=int)
    sim.add_argument("--replicas", type=int)
    sim.add_argument("--bound", type=float, help="truncate to [0, bound]")
    sim.add_argument("--lambda0", type=float)
    sim.add_argument("--events", action="store_const", const=True, default=None)
    sim.add_argument("--max-events", dest="max_events", type=int)
    sim.add_argument("--snapshots", action="store_const", const=True, default=None)
    sim.add_argument("--initial", help="initial measure CSV")
    sim.add_argument("--threads", type=int,
                     help="no effect: replicas run one after another (kept for "
                          "manifest compatibility)")
    sim.add_argument("--manifest", help="replay configuration from a manifest")
    sim.add_argument("--out")
    sim.set_defaults(func=cmd_simulate)

    sol = sub.add_parser("solve", help="deterministic truncated solve")
    sol.add_argument("--kernel")
    sol.add_argument("--h", type=float)
    sol.add_argument("--bound", type=float)
    sol.add_argument("--dt", type=float)
    sol.add_argument("--method", choices=["euler", "rk4", "if_euler"])
    sol.add_argument("--t-end", dest="t_end", type=float)
    sol.add_argument("--samples", type=int)
    sol.add_argument("--lambda0", type=float)
    sol.add_argument("--initial", help="initial measure CSV")
    sol.add_argument("--richardson", action="store_const", const=True, default=None,
                     help="also run dt/2 and dt/4 and emit the error-ratio table")
    sol.add_argument("--bound-schedule", dest="bound_schedule")
    sol.add_argument("--manifest")
    sol.add_argument("--out")
    sol.set_defaults(func=cmd_solve)

    cmp_ = sub.add_parser("compare", help="ensemble-vs-reference convergence report")
    cmp_.add_argument("ensembles", help="comma-separated ensemble run directories")
    cmp_.add_argument("reference", help="reference solve directory")
    cmp_.add_argument("--out")
    cmp_.set_defaults(func=cmd_compare)

    val = sub.add_parser("validate", help="check kernel structure hypotheses")
    val.add_argument("--kernel", required=True)
    val.add_argument("--weight", default="affine")
    val.set_defaults(func=cmd_validate)

    pic = sub.add_parser("picard", help="run the existence-scheme iterates")
    pic.add_argument("--kernel", required=True)
    pic.add_argument("--h", type=float, default=2.0 ** -6)
    pic.add_argument("--bound", type=float, default=4.0 * 2.0 ** -6)
    pic.add_argument("--iterations", type=int, default=20)
    pic.add_argument("--initial")
    pic.add_argument("--out")
    pic.set_defaults(func=cmd_picard)

    rep = sub.add_parser("report", help="conservation report from a moment trace")
    rep.add_argument("moments", help="path to a moments CSV")
    rep.add_argument("--out")
    rep.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliConfigError, KernelSpecError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (ThinningError, SolverError, MaxEventsError, AuditError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
