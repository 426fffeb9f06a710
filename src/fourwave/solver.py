"""Deterministic integration of the kinetic equation and its truncated
auxiliary form on a uniform dyadic frequency grid.

The window [0, wmax] with resolution h is closed under w1 + w2 - w3 (outputs
beyond the window feed the overflow scalar), so the interaction right-hand
side can be materialised by exact scattering with no remeshing error; mass
and energy cancellation happens identically at the level of the scattered
vector.  Three steppers are provided:

* ``euler``     explicit Euler;
* ``rk4``       classical fourth order;
* ``if_euler``  integrating-factor Euler: per step the outflow (which is
  linear in the local weight with a nonnegative rate) is applied as an
  exponential decay with frozen coefficients while inflow stays explicit,
  so every atom weight remains nonnegative unconditionally.

The Picard existence scheme iterates the truncated equation on a time grid
and reports the norm curves against the contraction bounds implied by the
explicit operator constant computed in :func:`picard_constant`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .collision import grid_interaction_parts
from .kernels import AFFINE, Kernel
from .measures import DiscreteMeasure, moment
from .trajectory import Trajectory, checked_sample_times

__all__ = [
    "SolverConfig",
    "SolverError",
    "PicardReport",
    "solve_truncated",
    "solve_limit",
    "picard",
    "picard_constant",
    "zeta",
    "phi2_bound",
    "default_dt",
]

_METHODS = ("euler", "rk4", "if_euler")


class SolverError(RuntimeError):
    pass


@dataclass
class SolverConfig:
    """Time-marching configuration.

    ``dt=None`` selects the default step autoscaled to the cubic
    nonlinearity, see :func:`default_dt`.  ``bound`` must be a multiple of
    ``h``; sample times are where moment rows and snapshots are recorded.
    They must be nondecreasing and lie in [0, t_end]; ``None`` selects 17
    evenly spaced times.
    """

    method: str = "rk4"
    dt: float | None = None
    t_end: float = 1.0
    bound: float = 1.0
    h: float = 2.0 ** -6
    sample_times: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r} (expected one of {_METHODS})")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        k = self.bound / self.h
        if abs(k - round(k)) > 1e-9:
            raise ValueError("bound must be a multiple of the grid resolution h")


def default_dt(mu0: DiscreteMeasure, lam0: float) -> float:
    """0.05 * S / (<phi, mu0> + lam0)^2 with S = <phi^2, mu0>^-1."""
    phi = moment(mu0, AFFINE) + lam0
    phi2 = moment(mu0, lambda w: (np.asarray(w) + 1.0) ** 2)
    if phi <= 0 or phi2 <= 0:
        raise ValueError("initial data must have positive phi-moments")
    return 0.05 / (phi2 * phi * phi)


def _dense_initial(mu0: DiscreteMeasure, bound: float, h: float) -> np.ndarray:
    if not mu0.is_grid or mu0.h != h:
        raise ValueError(f"initial measure must live on the h={h} grid")
    m = int(round(bound / h)) + 1
    if len(mu0) and int(mu0.idx.max()) >= m:
        raise ValueError("initial measure must be supported on [0, bound]")
    w = np.zeros(m)
    if len(mu0):
        np.add.at(w, mu0.idx, mu0.weights)
    return w


class _TruncatedSystem:
    """Right-hand side of the truncated equation on the dense window."""

    def __init__(self, kernel: Kernel, h: float, m: int):
        self.kernel = kernel
        self.h = h
        grid = np.arange(m) * h
        self.phi = grid + 1.0
        self.phi2 = self.phi * self.phi

    def interaction(self, w):
        return grid_interaction_parts(w, self.h, self.kernel, bound_idx=len(w) - 1)

    def rhs(self, w, lam):
        parts = self.interaction(w)
        lfac = lam * lam + 2.0 * lam * float(np.dot(self.phi, w))
        dw = parts.gain - parts.loss_rate * w - lfac * self.phi * w
        dlam = parts.escape_rate + lfac * float(np.dot(self.phi2, w))
        return dw, dlam

    def loss_split(self, w, lam):
        """(inflow, interaction outflow rate, coupling outflow rate, escape)."""
        parts = self.interaction(w)
        lfac = lam * lam + 2.0 * lam * float(np.dot(self.phi, w))
        return parts.gain, parts.loss_rate, lfac * self.phi, parts.escape_rate


def _step(system: _TruncatedSystem, method: str, w, lam, dt):
    if method == "euler":
        dw, dlam = system.rhs(w, lam)
        return w + dt * dw, lam + dt * dlam
    if method == "rk4":
        k1w, k1l = system.rhs(w, lam)
        k2w, k2l = system.rhs(w + 0.5 * dt * k1w, lam + 0.5 * dt * k1l)
        k3w, k3l = system.rhs(w + 0.5 * dt * k2w, lam + 0.5 * dt * k2l)
        k4w, k4l = system.rhs(w + dt * k3w, lam + dt * k3l)
        return (w + dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w),
                lam + dt / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l))
    # integrating-factor Euler: outflow applied as exponential decay with
    # frozen rates, inflow scattered from the decayed state (the factor
    # weighs sources as well as sinks), so weights stay nonnegative and
    # the step cannot inject more than the surviving mass supports.  The
    # overflow is credited with the coupling channel's share of the
    # decayed phi-mass: first-order consistent and bounded by the phi-mass
    # present, instead of feeding a runaway lambda^2 term.
    gain0, int_rate, cpl_rate, _ = system.loss_split(w, lam)
    total_rate = int_rate + cpl_rate
    decay = np.exp(-dt * total_rate)
    w_half = w * decay
    removed = w - w_half
    share = np.divide(cpl_rate, total_rate, out=np.zeros_like(w),
                      where=total_rate > 0.0)
    parts = system.interaction(w_half)
    dlam = float(np.dot(system.phi, removed * share)) + dt * parts.escape_rate
    return w_half + dt * parts.gain, lam + dlam


def solve_truncated(mu0: DiscreteMeasure, lam0: float, kernel: Kernel,
                    cfg: SolverConfig) -> Trajectory:
    """March the truncated pair (mu, lambda) to cfg.t_end.

    Sample times are hit exactly (substeps are shortened as needed).  The
    conservation residual of <phi, mu> + lambda is tracked per step and
    reported in ``meta["conservation_residual"]``.  Under euler/rk4 a
    negative atom weight beyond 1e-9 of the initial mass aborts with a
    hint to use the integrating-factor stepper.
    """
    if lam0 < 0:
        raise ValueError("lam0 must be nonnegative")
    w = _dense_initial(mu0, cfg.bound, cfg.h)
    lam = float(lam0)
    system = _TruncatedSystem(kernel, cfg.h, len(w))
    sample_times = checked_sample_times(cfg.sample_times, cfg.t_end)
    dt = cfg.dt if cfg.dt is not None else default_dt(mu0, lam0)
    grid_w = np.arange(len(w)) * cfg.h
    mass0 = float(w.sum())
    neg_tol = 1e-9 * max(mass0, 1.0)

    rows = []
    snaps = []
    conserved0 = float(np.dot(system.phi, w)) + lam
    worst_resid = 0.0
    t = 0.0
    for target in sample_times:
        while t < target - 1e-12 * max(1.0, target):
            step = min(dt, target - t)
            w, lam = _step(system, cfg.method, w, lam, step)
            t += step
            if cfg.method != "if_euler" and float(w.min()) < -neg_tol:
                raise SolverError(
                    f"negative mass excursion {w.min():.3e} at t={t:.6g}: dt too "
                    f"large for {cfg.method}; reduce dt or use method='if_euler'")
            resid = abs(float(np.dot(system.phi, w)) + lam - conserved0)
            worst_resid = max(worst_resid, resid)
        phi_now = float(np.dot(system.phi, w))
        rows.append((float(w.sum()), float(np.dot(grid_w, w)), phi_now,
                     float(np.dot(system.phi2, w)), lam, phi_now + lam))
        snaps.append(_snapshot(w, cfg.h))
    arr = np.asarray(rows)
    traj = Trajectory(sample_times=sample_times, W=arr[:, 0], E=arr[:, 1],
                      phi=arr[:, 2], phi2=arr[:, 3], overflow=arr[:, 4],
                      conserved_phi=arr[:, 5], snapshots=snaps, h=cfg.h)
    traj.meta = {"t_end": cfg.t_end, "method": cfg.method, "dt": dt,
                 "bound": cfg.bound,
                 "conservation_residual": worst_resid,
                 "conserved_start": conserved0}
    return traj


def _snapshot(w: np.ndarray, h: float) -> DiscreteMeasure:
    nz = np.nonzero(w)[0]
    return DiscreteMeasure.from_grid(nz, w[nz], h)


def solve_limit(mu0: DiscreteMeasure, kernel: Kernel, cfg: SolverConfig,
                bound_schedule) -> tuple[Trajectory, dict]:
    """Solve along an increasing window schedule and check the truncation
    structure: window solutions increase atomwise and <phi, mu> + lambda
    agrees across windows.  Returns the largest-window trajectory plus the
    per-window overflow curves as truncation diagnostics.
    """
    bounds = sorted(bound_schedule)
    if moment(mu0, AFFINE) == math.inf:
        raise ValueError("initial phi-moment must be finite")
    runs = []
    for b in bounds:
        inner, outer = mu0.restricted(b)
        lam0 = moment(outer, AFFINE)
        sub = SolverConfig(method=cfg.method, dt=cfg.dt, t_end=cfg.t_end, bound=b,
                           h=cfg.h, sample_times=cfg.sample_times)
        runs.append(solve_truncated(inner, lam0, kernel, sub))
    for lo, hi, b in zip(runs, runs[1:], bounds):
        for snap_lo, snap_hi in zip(lo.snapshots, hi.snapshots):
            dense_lo = np.zeros(int(round(bounds[-1] / cfg.h)) + 1)
            dense_hi = dense_lo.copy()
            dense_lo[snap_lo.idx] = snap_lo.weights
            dense_hi[snap_hi.idx] = snap_hi.weights
            worst = float((dense_lo - dense_hi).max())
            if worst > 1e-9:
                raise SolverError(
                    f"window monotonicity violated by {worst:.3e} between "
                    f"bounds {b} and the next entry")
        mismatch = np.max(np.abs(lo.conserved_phi - hi.conserved_phi))
        if mismatch > 1e-10 * max(1.0, float(lo.conserved_phi[0])):
            raise SolverError(f"<phi, mu> + lambda differs across windows by {mismatch:.3e}")
    diagnostics = {b: run.overflow for b, run in zip(bounds, runs)}
    return runs[-1], diagnostics


# --------------------------------------------------------------------------
# analytic horizons
# --------------------------------------------------------------------------

def zeta(mu0: DiscreteMeasure) -> float:
    """Guaranteed strong-solution horizon 1 / (<phi^2, mu0> <phi, mu0>)."""
    phi = moment(mu0, AFFINE)
    phi2 = moment(mu0, lambda w: (np.asarray(w) + 1.0) ** 2)
    if phi <= 0 or phi2 <= 0:
        raise ValueError("horizon undefined for the zero measure")
    return 1.0 / (phi2 * phi)


def phi2_bound(mu0: DiscreteMeasure, t: float) -> float:
    """A-priori envelope (S - <phi, mu0> t)^-1 with S = <phi^2, mu0>^-1."""
    horizon = zeta(mu0)
    if t >= horizon:
        raise ValueError(f"envelope blows up at the horizon {horizon:.6g} <= t = {t:.6g}")
    phi = moment(mu0, AFFINE)
    s = 1.0 / moment(mu0, lambda w: (np.asarray(w) + 1.0) ** 2)
    return 1.0 / (s - phi * t)


# --------------------------------------------------------------------------
# Picard existence scheme
# --------------------------------------------------------------------------

def picard_constant(kernel: Kernel, bound: float) -> float:
    """Explicit constant C with ||L^B(mu, lam)|| <= C ||(mu, lam)||^3.

    Write m = ||mu||, l = |lam|, Kbar = max K on the window cube (the
    built-in families are nondecreasing in each argument, so the corner
    attains it), Pb = bound + 1 = max phi on the window and
    Po = 2*bound + 1 >= phi at any interaction output.  Term by term:

      interaction scatter (4 atoms per ordered triple)   <= 2 Kbar m^3
      overflow gain, phi-weighted escaping output        <= Kbar Po / 2 m^3
      coupling loss, measure part                        <= (l^2 + 2 l Pb m) Pb m
      coupling gain on the overflow                      <= (l^2 + 2 l Pb m) Pb^2 m

    Using m^3 + l^2 m + l m^2 <= (m + l)^3 and Pb >= 1 this collapses to
    C = max(Kbar (2 + Po/2), 2 Pb^2 (1 + Pb)).
    """
    kbar = float(kernel.eval(bound, bound, bound))
    pb = bound + 1.0
    po = 2.0 * bound + 1.0
    return max(kbar * (2.0 + po / 2.0), 2.0 * pb * pb * (1.0 + pb))


@dataclass
class PicardReport:
    """Norm curves of the Picard iterates on [0, T], T = 1/(4C)."""

    times: np.ndarray
    norms: np.ndarray            # f_n(t) = ||(mu^n_t, lam^n_t)||, shape (iters+1, nt)
    diffs: np.ndarray            # g_n(t) = ||iterate_n - iterate_{n-1}||, shape (iters, nt)
    constant: float
    horizon: float
    bound_sqrt2: bool = field(default=False)

    @property
    def sup_norms(self) -> np.ndarray:
        return self.norms.max(axis=1)

    @property
    def sup_diffs(self) -> np.ndarray:
        return self.diffs.max(axis=1)


def picard(mu0: DiscreteMeasure, lam0: float, kernel: Kernel, bound: float,
           iterations: int = 20, nsteps: int = 64) -> PicardReport:
    """Run the iterative scheme mu^{n+1} = mu0 + int_0^t L^B(mu^n, lam^n).

    Requires the proof's normalisation <phi, mu0> + lam0 <= 1.  Iterate 0
    is constant in time; the quadrature is trapezoidal on ``nsteps``
    uniform intervals over the contraction horizon T = 1/(4C).  Divergence
    (norms above the proof bound sqrt(2)) is reported, not raised.
    """
    if moment(mu0, AFFINE) + lam0 > 1.0 + 1e-12:
        raise ValueError("picard requires the rescaled normalisation <phi,mu0> + lam0 <= 1")
    h = mu0.h
    if h is None:
        raise ValueError("picard requires grid-mode initial data")
    c = picard_constant(kernel, bound)
    horizon = 1.0 / (4.0 * c)
    times = np.linspace(0.0, horizon, nsteps + 1)
    w0 = _dense_initial(mu0, bound, h)
    system = _TruncatedSystem(kernel, h, len(w0))
    nt, m = len(times), len(w0)

    cur_w = np.tile(w0, (nt, 1))
    cur_l = np.full(nt, float(lam0))
    norms = [np.abs(cur_w).sum(axis=1) + np.abs(cur_l)]
    diffs = []
    for _ in range(iterations):
        rhs_w = np.empty_like(cur_w)
        rhs_l = np.empty_like(cur_l)
        for k in range(nt):
            rhs_w[k], rhs_l[k] = system.rhs(cur_w[k], float(cur_l[k]))
        dtv = np.diff(times)[:, None]
        int_w = np.vstack([np.zeros((1, m)),
                           np.cumsum(0.5 * dtv * (rhs_w[:-1] + rhs_w[1:]), axis=0)])
        int_l = np.concatenate([[0.0],
                                np.cumsum(0.5 * np.diff(times) * (rhs_l[:-1] + rhs_l[1:]))])
        new_w = w0[None, :] + int_w
        new_l = lam0 + int_l
        diffs.append(np.abs(new_w - cur_w).sum(axis=1) + np.abs(new_l - cur_l))
        cur_w, cur_l = new_w, new_l
        norms.append(np.abs(cur_w).sum(axis=1) + np.abs(cur_l))
    report = PicardReport(times, np.asarray(norms), np.asarray(diffs), c, horizon)
    report.bound_sqrt2 = bool(np.all(report.sup_norms <= math.sqrt(2.0) + 1e-9))
    return report
