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
from dataclasses import dataclass, field, replace

import numpy as np

from .collision import _row_dot, _stack_rows, grid_interaction_parts
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
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        _window_points(self.bound, self.h)


def _window_points(bound: float, h: float) -> int:
    """Grid points of [0, bound]; ValueError unless bound is a nonnegative
    multiple of h."""
    if not bound >= 0:
        raise ValueError(f"bound must be nonnegative, got {bound!r}")
    k = bound / h
    if abs(k - round(k)) > 1e-9:
        raise ValueError("bound must be a multiple of the grid resolution h")
    return round(k) + 1


def default_dt(mu0: DiscreteMeasure, lam0: float) -> float:
    """0.05 * S / (<phi, mu0> + lam0)^2 with S = <phi^2, mu0>^-1, which must
    be positive and finite."""
    phi = moment(mu0, AFFINE) + lam0
    phi2 = moment(mu0, lambda w: (np.asarray(w) + 1.0) ** 2)
    dt = 0.05 / (phi2 * phi * phi) if phi > 0 and phi2 > 0 else 0.0
    if not 0 < dt < math.inf:
        raise ValueError(f"initial data must have positive, finite phi-moments and "
                         f"step, got phi={phi!r}, phi2={phi2!r}")
    return dt


def _dense_initial(mu0: DiscreteMeasure, bound: float, h: float) -> np.ndarray:
    if not mu0.is_grid or mu0.h != h:
        raise ValueError(f"initial measure must live on the h={h} grid")
    m = _window_points(bound, h)
    if len(mu0) and int(mu0.idx.max()) >= m:
        raise ValueError("initial measure must be supported on [0, bound]")
    return mu0.dense(m)


class _TruncatedSystem:
    """Right-hand side of the truncated equation on the dense window.

    Takes one state (an (M,) weight vector and a scalar overflow) or a
    stack of R states ((R, M) weights and (R,) overflows)."""

    def __init__(self, kernel: Kernel, h: float, m: int):
        self.kernel = kernel
        self.h = h
        grid = np.arange(m) * h
        self.phi = grid + 1.0
        self.phi2 = self.phi * self.phi

    def interaction(self, w):
        return grid_interaction_parts(w, self.h, self.kernel, bound_idx=w.shape[-1] - 1)

    def _coupling(self, w, lam):
        """lam^2 + 2 lam <phi, w>: the coupling outflow rate per unit phi."""
        return lam * lam + 2.0 * lam * _row_dot(w, self.phi)

    def rhs(self, w, lam):
        parts = self.interaction(w)
        lfac = self._coupling(w, lam)
        dw = parts.gain - parts.loss_rate * w - lfac[..., None] * self.phi * w
        dlam = parts.escape_rate + lfac * _row_dot(w, self.phi2)
        return dw, dlam


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
    cpl_rate = system._coupling(w, lam)[..., None] * system.phi
    total_rate = system.interaction(w).loss_rate + cpl_rate
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
    if len(sample_times) == 0:
        raise ValueError("solve_truncated needs at least one sample time")
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
        snaps.append(DiscreteMeasure.from_dense(w, cfg.h))
    traj = Trajectory.from_rows(sample_times, rows, True, snapshots=snaps, h=cfg.h)
    traj.meta = {"t_end": cfg.t_end, "method": cfg.method, "dt": dt,
                 "bound": cfg.bound,
                 "conservation_residual": worst_resid,
                 "conserved_start": conserved0}
    return traj


def solve_limit(mu0: DiscreteMeasure, kernel: Kernel, cfg: SolverConfig,
                bound_schedule) -> tuple[Trajectory, dict]:
    """Solve along an increasing window schedule and check the truncation
    structure: window solutions increase atomwise and <phi, mu> + lambda
    agrees across windows.  Returns the largest-window trajectory plus the
    per-window overflow curves as truncation diagnostics.
    """
    bounds = sorted(bound_schedule)
    if not bounds:
        raise ValueError("the bound schedule is empty: solve_limit needs at least one window")
    if moment(mu0, AFFINE) == math.inf:
        raise ValueError("initial phi-moment must be finite")
    m = _window_points(bounds[-1], cfg.h)
    runs = []
    for b in bounds:
        inner, outer = mu0.restricted(b)
        lam0 = moment(outer, AFFINE)
        runs.append(solve_truncated(inner, lam0, kernel, replace(cfg, bound=b)))
    for lo, hi, b in zip(runs, runs[1:], bounds):
        for snap_lo, snap_hi in zip(lo.snapshots, hi.snapshots):
            worst = float((snap_lo.dense(m) - snap_hi.dense(m)).max())
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

    Write m = ||mu||, l = |lam|, Kbar = max K on the window cube (every
    family-table kernel has nonnegative coefficients and exponents, so it
    is nondecreasing in each argument and the corner attains it),
    Pb = bound + 1 = max phi on the window and
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
    """Norm curves of the Picard iterates on [0, T], T = 1/(4C).

    ``evaluated`` counts the iterations whose right-hand side was computed:
    fewer than the rows of ``diffs`` once an iterate repeats an earlier one
    bit for bit, after which the rows repeat with that period."""

    times: np.ndarray
    norms: np.ndarray            # f_n(t) = ||(mu^n_t, lam^n_t)||, shape (iters+1, nt)
    diffs: np.ndarray            # g_n(t) = ||iterate_n - iterate_{n-1}||, shape (iters, nt)
    constant: float
    horizon: float
    bound_sqrt2: bool = field(default=False)
    evaluated: int = field(default=0)

    @property
    def sup_norms(self) -> np.ndarray:
        return self.norms.max(axis=1)

    @property
    def sup_diffs(self) -> np.ndarray:
        return self.diffs.max(axis=1)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays hold the same bits (so -0.0 differs from 0.0)."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def picard(mu0: DiscreteMeasure, lam0: float, kernel: Kernel, bound: float,
           iterations: int = 20) -> PicardReport:
    """Run the iterative scheme mu^{n+1} = mu0 + int_0^t L^B(mu^n, lam^n).

    Requires the proof's normalisation <phi, mu0> + lam0 <= 1, and a
    ``bound`` on mu0's grid (ValueError otherwise), so that C is the
    constant of the window the iterates live on.  Iterate 0
    is constant in time; the quadrature is trapezoidal on 64
    uniform intervals over the contraction horizon T = 1/(4C).  Each
    iteration evaluates its 65 time points in a few stacked calls
    of the grid core; the first evaluates iterate 0's one state once.
    Once an iterate repeats an earlier one bit for bit, the deterministic
    map cycles from there, so the remaining rows are filled in by the
    period without computing them.  An iteration that changes nothing
    (every difference exactly 0) stops at once; a longer cycle is found by
    Brent's method, which compares each iterate with one held earlier
    iterate, so it may stop a few iterations after the first repeat.
    Iterate 0, held as one row, takes no part in the comparison.
    Divergence (norms above the proof bound sqrt(2)) is reported, not
    raised.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if moment(mu0, AFFINE) + lam0 > 1.0 + 1e-12:
        raise ValueError("picard requires the rescaled normalisation <phi,mu0> + lam0 <= 1")
    h = mu0.h
    if h is None:
        raise ValueError("picard requires grid-mode initial data")
    w0 = _dense_initial(mu0, bound, h)
    c = picard_constant(kernel, bound)
    horizon = 1.0 / (4.0 * c)
    times = np.linspace(0.0, horizon, 65)
    system = _TruncatedSystem(kernel, h, len(w0))
    nt, m = len(times), len(w0)
    dtv = np.diff(times)

    # iterate 0 is constant in time: one row stands for all nt time points
    cur_w = w0[None, :]
    cur_l = np.full(1, float(lam0))
    norms = [np.broadcast_to(np.abs(cur_w).sum(axis=1) + np.abs(cur_l), (nt,))]
    diffs = []
    # Brent's cycle search: iterates 1, 2, ... against one checkpoint, moved
    # to iterates 1, 3, 7, 15, ...
    check, at, gap, period = None, 0, 1, 1
    for _ in range(iterations):
        blocks = -(-len(cur_w) // _stack_rows(m))  # fewest even blocks within the cap
        rhs = [system.rhs(wb, lb) for wb, lb in zip(np.array_split(cur_w, blocks),
                                                     np.array_split(cur_l, blocks))]
        rhs_w, rhs_l = (np.concatenate(part) for part in zip(*rhs))
        rhs_w, rhs_l = np.broadcast_to(rhs_w, (nt, m)), np.broadcast_to(rhs_l, (nt,))
        # w0 plus the trapezoidal integral, summed into the new iterate: no
        # vstack copy, which leaves room for the iterate the cycle search holds
        new_w = np.empty((nt, m))
        new_w[0] = 0.0
        np.cumsum(0.5 * dtv[:, None] * (rhs_w[:-1] + rhs_w[1:]), axis=0, out=new_w[1:])
        new_w += w0
        int_l = np.concatenate([[0.0], np.cumsum(0.5 * dtv * (rhs_l[:-1] + rhs_l[1:]))])
        new_l = lam0 + int_l
        diffs.append(np.abs(new_w - cur_w).sum(axis=1) + np.abs(new_l - cur_l))
        cur_w, cur_l = new_w, new_l
        norms.append(np.abs(cur_w).sum(axis=1) + np.abs(cur_l))
        if not diffs[-1].any():
            break
        if check is not None and _same_bits(cur_w, check[0]) and _same_bits(cur_l, check[1]):
            period = len(diffs) - at
            break
        if len(diffs) - at == gap:
            check, at, gap = (cur_w, cur_l), len(diffs), 2 * gap
    evaluated = len(diffs)
    for _ in range(iterations - evaluated):
        norms.append(norms[-period])
        diffs.append(diffs[-period])
    report = PicardReport(times, np.asarray(norms), np.asarray(diffs), c, horizon,
                          evaluated=evaluated)
    report.bound_sqrt2 = bool(np.all(report.sup_norms <= math.sqrt(2.0) + 1e-9))
    return report
