"""Reproducible batch interface.

Subcommands: ``simulate``, ``solve``, ``compare``, ``validate``,
``picard``, ``report``.  ``simulate`` and ``solve`` write a
``manifest.json`` holding the full configuration, seed and package
version; replaying it with ``--manifest`` reproduces the artifact
directory bit for bit (no timestamps are recorded).  ``picard`` writes a
manifest that no command reads back (it has no ``--manifest``);
``compare``, ``validate`` and ``report`` write none.  A replay and
``compare`` read a manifest through one reader, which refuses another
tool's or command's manifest, an unknown key and a mistyped value (even
one a flag overrides), naming it; ``compare`` reads the snapshot files
it names, of a ``simulate`` reference the first replica's only.
Exit codes: 0 success, 2 configuration error (an input file that cannot
be read included), 3 runtime error (for instance a sub-multiplicativity
abort or a failed validation).

``simulate``, ``solve`` and ``picard`` take the grid of a grid-mode,
nonnegative ``--initial`` file and refuse any other ``--h``.  Every number
read from a flag, a manifest, a kernel spec or a measure CSV must be finite.

The default output root is the current directory, overridable with the
``FOURWAVE_OUTPUT_ROOT`` environment variable; each subcommand writes only
inside its designated output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import conservation_report, mean_field_convergence
from .kernels import parse_kernel, parse_weight
from .kernels import check_homogeneity, check_submultiplicative, check_symmetry
from .measures import (DiscreteMeasure, load_measure_csv, moment, save_measure_csv,
                       site_table, tv_norm)
from .particle import (EXP_START_CUTOFF, EXP_START_MEAN, AuditError,
                       MaxEventsError, ThinningError, init, simulate,
                       simulate_truncated)
from .solver import (SolverConfig, SolverError, picard, solve_limit,
                     solve_truncated)
from .trajectory import (Trajectory, load_moments_csv, save_events_jsonl,
                         save_moments_csv)

CONFIG_ERROR, RUNTIME_ERROR = 2, 3


class CliConfigError(ValueError):
    pass


def _output_root() -> Path:
    return Path(os.environ.get("FOURWAVE_OUTPUT_ROOT", "."))


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(outdir: Path, command: str, config: dict) -> None:
    _json_dump({"schema": 1, "tool": "fourwave", "version": __version__,
                "command": command, "config": config}, outdir / "manifest.json")


def _require_counts(cfg: dict, keys: list[str]) -> None:
    for key in keys:
        if cfg[key] < 1:
            raise CliConfigError(f"--{key.replace('_', '-')} must be at least 1, got {cfg[key]}")


def _manifest_value(action: argparse.Action, key: str, val):
    """A value as its flag gives it: a bool for a switch, an int for an int
    flag, a finite int or float (as a float) for a float flag, one of the
    choices or a string otherwise; a bool is no number."""
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if action.const is True:
        want, ok = "true or false", isinstance(val, bool)
    elif action.type is int:
        want, ok = "an integer", number and isinstance(val, int)
    elif action.type is float:
        want, ok = "a number", number
    elif action.choices:
        want, ok = f"one of {', '.join(action.choices)}", val in action.choices
    else:
        want, ok = "a string", isinstance(val, str)
    try:
        typed = action.type(val) if ok and action.type else val
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise CliConfigError(f"manifest key {key!r} must be {want}, got {val!r}")
    if isinstance(typed, float) and not math.isfinite(typed):
        raise CliConfigError(f"--{key.replace('_', '-')} must be finite, got {typed}")
    return typed


def _read_manifest(path, runs: dict) -> tuple[str, dict]:
    """(command, config) of a manifest this tool wrote for one of ``runs``
    (each command's flags by key): an unknown key is refused, null values
    are dropped and every other value goes through :func:`_manifest_value`.
    Every refusal names ``path``."""
    data = json.loads(Path(path).read_text())
    command = data.get("command") if isinstance(data, dict) else None
    if not (isinstance(command, str) and command in runs and data.get("tool") == "fourwave"
            and isinstance(data.get("config"), dict)):
        raise CliConfigError(f"{path} is not a fourwave {' or '.join(runs)} manifest")
    flags, cfg = runs[command], data["config"]
    try:
        unknown = set(cfg) - set(flags)
        if unknown:
            raise CliConfigError(f"unknown key {sorted(unknown)[0]!r} in manifest config")
        return command, {key: _manifest_value(flags[key], key, cfg[key])
                         for key in sorted(cfg) if cfg[key] is not None}
    except CliConfigError as exc:
        raise CliConfigError(f"{path}: {exc}") from None


def _merge_config(args: argparse.Namespace, command: str, defaults: dict) -> dict:
    """One key per flag of ``command`` but ``--manifest`` and ``--out``: a
    passed flag overrides the ``--manifest`` config, which overrides
    ``defaults``; a null value counts as unset."""
    path = getattr(args, "manifest", None)
    manifest = _read_manifest(path, {command: args.flags})[1] if path else {}
    cfg = {}
    for key, action in sorted(args.flags.items()):
        val = getattr(args, key)
        val = manifest.get(key) if val is None else _manifest_value(action, key, val)
        cfg[key] = defaults.get(key) if val is None else val
    if cfg["kernel"] is None:
        raise CliConfigError("--kernel is required")
    return cfg


def _initial(cfg: dict, command: str, default_h: float) -> DiscreteMeasure | None:
    """The ``--initial`` measure, None without one; sets ``cfg["h"]``.  The
    file's grid is the run's: a points-mode file, another h or a negative
    weight is refused.  Without a file, h is ``default_h`` unless given."""
    if cfg["initial"] is None:
        cfg["h"] = default_h if cfg["h"] is None else cfg["h"]
        return None
    mu = load_measure_csv(cfg["initial"])
    if mu.h is None:
        raise CliConfigError(f"{command} requires grid-mode initial data")
    if cfg["h"] not in (None, mu.h):
        raise CliConfigError(f"--h {cfg['h']!r} differs from the grid h={mu.h!r} of --initial")
    neg = np.flatnonzero(mu.weights < 0)
    if len(neg):
        raise CliConfigError(f"--initial {cfg['initial']}: weight {mu.weights[neg[0]]:g} "
                             f"at omega={mu.positions[neg[0]]:g} is negative")
    cfg["h"] = mu.h
    return mu


def default_initial_measure(h: float) -> DiscreteMeasure:
    """Exp(EXP_START_MEAN) discretised on the h-grid up to EXP_START_CUTOFF.

    Materialises cutoff/h atoms; ``simulate`` draws its default start from
    the same law without it (``particle.init`` with ``mu0=None``).
    """
    kmax = int(np.ceil(EXP_START_CUTOFF / h))
    k = np.arange(kmax + 1)
    w = np.exp(-k * h / EXP_START_MEAN)
    w /= w.sum()
    keep = w > 1e-300
    return DiscreteMeasure.from_grid(k[keep], w[keep], h)


def _sample_times(t_end: float, samples: int) -> np.ndarray:
    return np.linspace(0.0, t_end, samples)


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    defaults = {"weight": "affine", "n": 1000, "seed": 0, "t_end": 1.0, "samples": 17,
                "replicas": 1, "lambda0": None, "events": False,
                "max_events": 10_000_000, "snapshots": False, "threads": 1}
    cfg = _merge_config(args, "simulate", defaults)
    _require_counts(cfg, ["replicas", "samples", "max_events"])
    kernel = parse_kernel(cfg["kernel"])
    weight = parse_weight(cfg["weight"])
    mu0 = _initial(cfg, "simulate", 2.0 ** -20)
    outdir = Path(args.out) if args.out else _output_root() / f"sim-seed{cfg['seed']}"
    state = init(cfg["n"], mu0, cfg["h"], cfg["seed"], weight)
    times = _sample_times(cfg["t_end"], cfg["samples"])

    for stream in range(cfg["replicas"]):
        # all replicas share ``state``: one check covers them
        kw = dict(seed=cfg["seed"], stream=stream, sample_times=times,
                  record_events=cfg["events"], record_snapshots=cfg["snapshots"],
                  max_events=cfg["max_events"], precheck=stream == 0)
        if cfg["bound"] is None:
            traj = simulate(state, kernel, weight, cfg["t_end"], **kw)
        else:
            traj = simulate_truncated(state, cfg["bound"], cfg["lambda0"], kernel, weight,
                                      cfg["t_end"], **kw)
        outdir.mkdir(parents=True, exist_ok=True)  # after a run: a refused one writes nothing
        save_moments_csv(traj, outdir / f"moments_r{stream:03d}.csv")
        if cfg["events"]:
            save_events_jsonl(traj, outdir / f"events_r{stream:03d}.jsonl")
        if cfg["snapshots"]:
            sites = site_table(traj.snapshots)
            for k, snap in enumerate(traj.snapshots):
                save_measure_csv(snap, outdir / f"snap_r{stream:03d}_t{k:03d}.csv", sites)
    _write_manifest(outdir, "simulate", cfg)
    print(f"wrote {cfg['replicas']} replica(s) to {outdir}")
    return 0


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------

def cmd_solve(args) -> int:
    defaults = {"bound": 4.0, "method": "rk4", "t_end": 1.0, "samples": 17,
                "lambda0": 0.0, "richardson": False}
    cfg = _merge_config(args, "solve", defaults)
    _require_counts(cfg, ["samples"])
    if cfg["bound_schedule"]:
        if cfg["richardson"] or cfg["lambda0"]:
            raise CliConfigError("--bound-schedule starts every window from its canonical "
                                 "overflow: it takes neither --richardson nor --lambda0")
        # the schedule writes the largest window's trace: that is the bound run
        schedule = [float(b) for b in cfg["bound_schedule"].split(",")]
        if not all(map(math.isfinite, schedule)):
            raise CliConfigError(f"--bound-schedule entries must be finite, "
                                 f"got {cfg['bound_schedule']}")
        if args.bound is not None and args.bound != max(schedule):
            raise CliConfigError(f"--bound {args.bound:g} is not --bound-schedule's largest window")
        cfg["bound"] = max(schedule)
    kernel = parse_kernel(cfg["kernel"])
    mu0 = _initial(cfg, "solve", 2.0 ** -6)
    if mu0 is None:
        mu0 = default_initial_measure(cfg["h"])
    outdir = Path(args.out) if args.out else _output_root() / "solve"
    times = _sample_times(cfg["t_end"], cfg["samples"])
    scfg = SolverConfig(method=cfg["method"], dt=cfg["dt"], t_end=cfg["t_end"],
                        bound=cfg["bound"], h=cfg["h"], sample_times=times)

    if cfg["bound_schedule"]:
        traj, diags = solve_limit(mu0, kernel, scfg, schedule)
    else:
        inner, outer = mu0.restricted(cfg["bound"])
        lam0 = cfg["lambda0"] + moment(outer, parse_weight("affine"))
        traj = solve_truncated(inner, lam0, kernel, scfg)
    outdir.mkdir(parents=True, exist_ok=True)  # after the solve: a refused one writes nothing
    if cfg["bound_schedule"]:
        _json_dump({"schema": 1, "report": "overflow_schedule",
                    "t": times.tolist(),
                    "overflow": {f"{b:g}": lam.tolist() for b, lam in diags.items()}},
                   outdir / "overflow_schedule.json")
    save_moments_csv(traj, outdir / "moments.csv")
    sites = site_table(traj.snapshots)
    save_measure_csv(traj.snapshots[0], outdir / "initial.csv", sites)
    save_measure_csv(traj.snapshots[-1], outdir / "final.csv", sites)
    for k, snap in enumerate(traj.snapshots):
        save_measure_csv(snap, outdir / f"snap_t{k:03d}.csv", sites)
    rep = conservation_report(traj)
    (outdir / "conservation.json").write_text(rep.to_json() + "\n")
    (outdir / "conservation.txt").write_text(rep.to_text() + "\n")

    if cfg["richardson"]:
        dt0 = cfg["dt"] if cfg["dt"] is not None else traj.meta["dt"]
        # endpoint-only sampling: intermediate sample times would shorten
        # substeps and pollute the order measurement
        ends = np.array([0.0, cfg["t_end"]])
        finals = [solve_truncated(inner, lam0, kernel,
                                  replace(scfg, dt=dt, sample_times=ends)).snapshots[-1]
                  for dt in [dt0, dt0 / 2.0, dt0 / 4.0]]
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

def _run_trajectories(d: str, runs: dict, replicas: int | None = None) -> tuple[int, list[Trajectory]]:
    """n and the snapshot trajectories of the run in ``d``, named by its
    manifest: ``snap_tKKK.csv`` for a solve (n = 1), ``snap_rRRR_tKKK.csv``
    for replica R < ``replicas`` (default: all) of a ``simulate`` run, K < samples."""
    if not Path(d).is_dir():
        raise CliConfigError(f"missing run directory {d!r}")
    command, cfg = _read_manifest(Path(d) / "manifest.json", runs)
    try:
        times = _sample_times(cfg["t_end"], cfg["samples"])
        n, stems = (1, ["snap_"]) if command == "solve" else (cfg["n"], [
            f"snap_r{r:03d}_" for r in range(cfg["replicas"] if cfg["snapshots"] else 0)])
    except KeyError as exc:
        raise CliConfigError(f"the manifest in {d!r} sets no {exc}") from None
    if not stems:
        raise CliConfigError(f"no snapshots in {d!r} (rerun with --snapshots)")
    snapshots = [[load_measure_csv(Path(d) / f"{stem}t{k:03d}.csv") for k in range(len(times))]
                 for stem in stems[:replicas]]
    return n, [Trajectory.from_rows(times, np.zeros((len(times), 6)), False, snapshots=s)
               for s in snapshots]


def cmd_compare(args) -> int:
    """Weak distance of ``simulate --snapshots`` ensembles to a ``solve``
    reference, per replica, fitted against n.  The ensembles need the
    reference's sample times and truncation (``simulate --bound B`` against
    ``solve --bound B``): untruncated ensembles against a truncated
    reference measure the truncation, not the mean-field error."""
    reference = _run_trajectories(args.reference, args.runs, replicas=1)[1][0]
    ensembles, dirs = {}, {}
    for d in args.ensembles.split(","):
        n, trajs = _run_trajectories(d, args.runs)
        if n in dirs:
            raise CliConfigError(f"ensembles {dirs[n]!r} and {d!r} both have n={n}: "
                                 "each particle count may appear once")
        dirs[n], ensembles[n] = d, trajs
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
    cfg = _merge_config(args, "picard", {})
    kernel = parse_kernel(cfg["kernel"])
    mu0 = _initial(cfg, "picard", 2.0 ** -6)
    if mu0 is None:
        mu0 = DiscreteMeasure.from_grid([1, 2], [0.5, 0.5], cfg["h"])
    phi0 = moment(mu0, parse_weight("affine"))
    if phi0 > 1.0:
        mu0 = mu0.scaled(1.0 / phi0)
    rep = picard(mu0, 0.0, kernel, cfg["bound"], iterations=cfg["iterations"])
    outdir = Path(args.out) if args.out else _output_root() / "picard"
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": 1, "report": "picard", "constant": rep.constant,
        "horizon": rep.horizon, "sup_norms": rep.sup_norms.tolist(),
        "sup_diffs": rep.sup_diffs.tolist(), "within_sqrt2": rep.bound_sqrt2,
        "iterations_evaluated": rep.evaluated,
    }
    _json_dump(payload, outdir / "picard.json")
    _write_manifest(outdir, "picard", cfg)
    print(f"C = {rep.constant:.6g}, T = {rep.horizon:.6g}, "
          f"sup norms within sqrt(2): {rep.bound_sqrt2}")
    return 0 if rep.bound_sqrt2 else RUNTIME_ERROR


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def cmd_report(args) -> int:
    rep = conservation_report(load_moments_csv(args.moments))
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
    pic.add_argument("--h", type=float, help="default 2^-6; the grid of --initial when given")
    pic.add_argument("--bound", type=float, default=4.0 * 2.0 ** -6)
    pic.add_argument("--iterations", type=int, default=20)
    pic.add_argument("--initial")
    pic.add_argument("--out")
    pic.set_defaults(func=cmd_picard)

    for run in (sim, sol, pic):
        # a run's keys and their types: every flag but --manifest and --out
        run.set_defaults(flags={a.dest: a for a in run._actions
                                if a.dest not in ("help", "manifest", "out")})
    cmp_.set_defaults(runs={"simulate": sim.get_default("flags"),
                            "solve": sol.get_default("flags")})

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
    except (ThinningError, SolverError, MaxEventsError, AuditError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
