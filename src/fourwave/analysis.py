"""Turn trajectories into verdicts: convergence measurement, martingale
statistics, conservation audits and exploratory spectrum slope fits.

Every report here is a deterministic function of its input trajectories;
the only randomness (bootstrap confidence intervals) runs on a fixed-seed
counter-based generator.  Reports serialise to JSON (``"schema": 1``) and
to aligned-column text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .collision import _row_dot
from .kernels import Kernel, WeightFunction
from .measures import DiscreteMeasure, _prime_weak_pairings, phi_transform, weak_distance
from .particle import extract_martingale, make_rng
from .trajectory import Trajectory

__all__ = [
    "ConvergenceReport",
    "MartingaleReport",
    "ConservationReport",
    "mean_field_convergence",
    "martingale_stats",
    "conservation_report",
    "powerlaw_fit",
    "fit_loglog_slope",
]

_BOOTSTRAP_SEED = 0x40D0  # fixed: reports must be reproducible functions


def _json(obj, sort_keys: bool = False) -> str:
    """Indented JSON text of ``obj`` for every JSON file the package writes,
    with null for NaN and infinities (not JSON)."""
    return json.dumps(json.loads(json.dumps(obj), parse_constant=lambda _: None), indent=2,
                      sort_keys=sort_keys)


def fit_loglog_slope(x, y) -> tuple[float, float]:
    """OLS slope and standard error of log(y) against log(x)."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    if len(lx) < 2:
        raise ValueError("need at least two points for a slope")
    vx = lx - lx.mean()
    slope = float(np.dot(vx, ly) / np.dot(vx, vx))
    resid = ly - ly.mean() - slope * vx
    dof = max(len(lx) - 2, 1)
    stderr = float(math.sqrt(np.dot(resid, resid) / dof / np.dot(vx, vx)))
    return slope, stderr


def _safe_slope(x, y) -> tuple[float, float]:
    """Slope fit returning NaNs when degenerate (single point or zeros)."""
    if len(x) < 2 or any(v <= 0.0 for v in y):
        return math.nan, math.nan
    return fit_loglog_slope(x, y)


def _bootstrap_slopes(per_n_errors: dict[int, np.ndarray], resamples: int) -> np.ndarray:
    """Log-log slopes of median error against n, one per bootstrap resample
    of each n's replica errors.

    The resampled indices are drawn in one ``rng.integers`` call whose
    bound ``high`` holds, per column, the replica count k of that column's
    n: a row is one resample, its columns the k draws of each n in turn.
    An array bound takes one draw per element in C order, as k scalar
    calls do (none where k = 1), so the stream is that of a per-resample
    loop of one call per n.  The medians are then taken once per n and
    the slopes with ``_row_dot``, which gives every resample the bits of
    :func:`fit_loglog_slope` on its own medians (a matrix product would
    round some rows differently).
    """
    rng = make_rng(_BOOTSTRAP_SEED)
    ns = sorted(per_n_errors)
    counts = [len(per_n_errors[n]) for n in ns]
    picks = rng.integers(0, np.repeat(counts, counts), size=(resamples, sum(counts)))
    starts = np.cumsum([0, *counts])
    meds = np.stack([np.median(per_n_errors[n][picks[:, a:b]], axis=1)
                     for n, a, b in zip(ns, starts, starts[1:])], axis=1)
    lx = np.log(np.asarray(ns, dtype=float))
    vx = lx - lx.mean()
    return _row_dot(np.log(meds), vx) / np.dot(vx, vx)


def _bootstrap_slope_ci(per_n_errors: dict[int, np.ndarray]) -> tuple[float, float]:
    """95% percentile interval of 1000 :func:`_bootstrap_slopes`."""
    lo, hi = np.quantile(_bootstrap_slopes(per_n_errors, 1000), (0.025, 0.975))
    return float(lo), float(hi)


@dataclass
class ConvergenceReport:
    """Distance of particle ensembles to the deterministic reference.

    err(n) per replica is the sup over shared sample times of the weak
    distance between the phi-weighted empirical measure and the reference.
    """

    ns: list[int]
    medians: list[float]
    quartiles: list[tuple[float, float]]
    slope: float
    slope_stderr: float
    slope_ci: tuple[float, float]
    errors: dict[int, list[float]] = field(repr=False, default_factory=dict)

    def to_json(self) -> str:
        return _json({
            "schema": 1, "report": "mean_field_convergence",
            "n": self.ns, "median_err": self.medians,
            "quartiles": self.quartiles, "slope": self.slope,
            "slope_stderr": self.slope_stderr, "slope_ci": list(self.slope_ci),
            "errors": {str(k): v for k, v in self.errors.items()},
        })

    def to_text(self) -> str:
        lines = [f"{'n':>8} {'median err':>14} {'q25':>12} {'q75':>12}"]
        for n, med, (q1, q3) in zip(self.ns, self.medians, self.quartiles):
            lines.append(f"{n:>8d} {med:>14.6e} {q1:>12.4e} {q3:>12.4e}")
        lines.append(f"log-log slope {self.slope:+.4f} (se {self.slope_stderr:.4f}, "
                     f"95% CI [{self.slope_ci[0]:+.4f}, {self.slope_ci[1]:+.4f}])")
        return "\n".join(lines)


def mean_field_convergence(ensembles: dict[int, list[Trajectory]], reference: Trajectory,
                           weight: WeightFunction) -> ConvergenceReport:
    """Measure sup_t d(phi X^n_t, phi mu_t) per replica and fit err vs n.

    All trajectories must share the reference's sample-time grid and carry
    measure snapshots.  They must also share its truncation (the same
    window, or none): against a truncated reference whose phi-mass drains
    into the overflow, untruncated ensembles measure that drain, and their
    error does not fall with n.
    """
    if reference.snapshots is None:
        raise ValueError("reference trajectory carries no snapshots")
    runs = [(n, traj) for n, trajs in sorted(ensembles.items()) for traj in trajs]
    for _, traj in runs:
        if traj.snapshots is None:
            raise ValueError("ensemble trajectory carries no snapshots")
        if (len(traj.sample_times) != len(reference.sample_times)
                or np.max(np.abs(traj.sample_times - reference.sample_times)) > 1e-12):
            raise ValueError("sample-time grids do not match the reference")
    dists = [[] for _ in runs]
    # one trig table per sample time: its snapshots share most of their sites
    for ref_snap, *snaps in zip(reference.snapshots, *(traj.snapshots for _, traj in runs)):
        ref = phi_transform(ref_snap, weight)
        phis = [phi_transform(s, weight) for s in snaps]
        _prime_weak_pairings([ref, *phis])
        for d, phi in zip(dists, phis):
            d.append(weak_distance(phi, ref))
    per_n = {n: np.asarray([max(d) for (m, _), d in zip(runs, dists) if m == n])
             for n in sorted(ensembles)}
    ns = sorted(per_n)
    medians = [float(np.median(per_n[n])) for n in ns]
    quarts = [(float(np.quantile(per_n[n], 0.25)), float(np.quantile(per_n[n], 0.75)))
              for n in ns]
    slope, stderr = _safe_slope(ns, medians)
    ci = (_bootstrap_slope_ci(per_n) if not math.isnan(slope) else (math.nan, math.nan))
    return ConvergenceReport(ns, medians, quarts, slope, stderr, ci,
                             errors={n: per_n[n].tolist() for n in ns})


@dataclass
class MartingaleReport:
    """Ensemble estimate of E[sup |M^{n,f}|^2] against the proved bound."""

    ns: list[int]
    estimates: list[float]
    stderrs: list[float]
    bounds: list[float]
    slope: float
    slope_stderr: float
    replicas: int
    lam_bound: float
    f_sup: float

    @property
    def within_bound(self) -> bool:
        return all(e <= b for e, b in zip(self.estimates, self.bounds))

    def to_json(self) -> str:
        return _json({
            "schema": 1, "report": "martingale_stats",
            "n": self.ns, "estimate": self.estimates, "stderr": self.stderrs,
            "bound": self.bounds, "slope": self.slope,
            "slope_stderr": self.slope_stderr, "replicas": self.replicas,
            "kernel_sup": self.lam_bound, "f_sup": self.f_sup,
        })

    def to_text(self) -> str:
        lines = [f"{'n':>8} {'E sup|M|^2':>14} {'stderr':>12} {'bound':>14}"]
        for n, e, s, b in zip(self.ns, self.estimates, self.stderrs, self.bounds):
            lines.append(f"{n:>8d} {e:>14.6e} {s:>12.4e} {b:>14.6e}")
        lines.append(f"log-log slope {self.slope:+.4f} (se {self.slope_stderr:.4f}); "
                     f"within bound: {self.within_bound}")
        return "\n".join(lines)


def martingale_stats(ensembles: dict[int, list[Trajectory]], f,
                     kernel: Kernel) -> MartingaleReport:
    """Per-replica sup_t |M_t|^2 via the exact pathwise decomposition.

    The comparison constant is the kernel maximum over the reachable
    frequency box [0, E_total]^3 (total energy caps any single particle;
    every family-table kernel has nonnegative coefficients and exponents,
    so it is nondecreasing and attains its maximum at the corner).
    """
    ns = sorted(ensembles)
    estimates, stderrs, bounds = [], [], []
    lam_bound = 0.0
    t_end = None
    for n in ns:
        sups = []
        for traj in ensembles[n]:
            _, m = extract_martingale(traj, f, kernel)
            sups.append(float(np.max(np.abs(m))) ** 2)
            reach = traj.n * traj.E[0]  # total energy bounds any particle
            lam_bound = max(lam_bound, float(kernel.eval(reach, reach, reach)))
            t_end = float(traj.meta["t_end"])
        sups = np.asarray(sups)
        estimates.append(float(sups.mean()))
        stderrs.append(float(sups.std(ddof=1) / math.sqrt(len(sups))) if len(sups) > 1
                       else math.nan)
    mesh = np.linspace(0.0, max(traj.n * traj.E[0] for trs in ensembles.values()
                                for traj in trs), 4097)
    f_sup = float(np.max(np.abs(np.asarray(f(mesh), dtype=float))))
    bounds = [32.0 * f_sup ** 2 * lam_bound ** 2 * t_end / n for n in ns]
    slope, stderr = _safe_slope(ns, estimates)
    return MartingaleReport(ns, estimates, stderrs, bounds, slope, stderr,
                            replicas=len(ensembles[ns[0]]), lam_bound=lam_bound,
                            f_sup=f_sup)


@dataclass
class ConservationReport:
    """Maximum absolute drifts of the conserved functionals over a run."""

    drift_W: float
    drift_E: float
    drift_conserved_phi: float | None
    exact_W: bool
    exact_E: bool

    def to_json(self) -> str:
        return _json({
            "schema": 1, "report": "conservation",
            "drift_W": self.drift_W, "drift_E": self.drift_E,
            "drift_phi_plus_lambda": self.drift_conserved_phi,
            "exact_W": self.exact_W, "exact_E": self.exact_E,
        })

    def to_text(self) -> str:
        lam = ("n/a" if self.drift_conserved_phi is None
               else f"{self.drift_conserved_phi:.6e}")
        return (f"drift W              {self.drift_W:.6e} (exact zero: {self.exact_W})\n"
                f"drift E              {self.drift_E:.6e} (exact zero: {self.exact_E})\n"
                f"drift <phi,.>+Lambda {lam}")


def conservation_report(traj: Trajectory) -> ConservationReport:
    drift_w = float(np.max(np.abs(traj.W - traj.W[0])))
    drift_e = float(np.max(np.abs(traj.E - traj.E[0])))
    exact_w = bool(np.all(traj.W == traj.W[0]))
    if traj.energy_idx is not None:
        exact_e = bool(np.all(traj.energy_idx == traj.energy_idx[0]))
    else:
        exact_e = bool(np.all(traj.E == traj.E[0]))
    drift_c = None
    if traj.conserved_phi is not None:
        drift_c = float(np.max(np.abs(traj.conserved_phi - traj.conserved_phi[0])))
    return ConservationReport(drift_w, drift_e, drift_c, exact_w, exact_e)


def powerlaw_fit(mu: DiscreteMeasure, window: tuple[float, float],
                 nbins: int = 16) -> tuple[float, float]:
    """Least-squares slope of log binned mass density against log frequency.

    Exploratory output only: steady-state spectra of the model kernels are
    an open question, so no tolerance is attached to the fitted value.
    Requires at least 8 nonempty log-spaced bins inside the window.
    """
    lo, hi = window
    if not 0.0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    edges = np.geomspace(lo, hi, nbins + 1)
    pos, w = mu.positions, mu.weights
    sel = (pos >= lo) & (pos <= hi)
    which = np.clip(np.searchsorted(edges, pos[sel], side="right") - 1, 0, nbins - 1)
    mass = np.zeros(nbins)
    np.add.at(mass, which, w[sel])
    widths = np.diff(edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    keep = mass > 0
    if int(keep.sum()) < 8:
        raise ValueError(f"insufficient bins: only {int(keep.sum())} of {nbins} nonempty")
    density = mass[keep] / widths[keep]
    return fit_loglog_slope(centers[keep], density)
