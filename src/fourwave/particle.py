"""Instantaneous coagulation-fragmentation particle system.

n unit-weight particles carry frequencies on a dyadic grid.  Each ordered
pair of distinct particles (i, j) together with a catalyst particle l
(which may coincide with i or j) interacts at rate K(w_i, w_j, w_l) / n^2
per unordered pair, provided w_i + w_j >= w_l; the jump replaces (w_i, w_j)
by (w_i + w_j - w_l, w_l).  Particle count and total frequency are
conserved by every jump, exactly in grid-integer arithmetic.

Simulation is exact in law by majorant thinning: candidate events arrive
from a Poisson clock with rate R = S^3 / (2 n^2), S the current total
interaction weight; the candidate triple is drawn weight-proportionally
from a prefix-sum table of the phi values and accepted with probability
K / (phi phi phi) when admissible.  For the affine weight S is invariant
across jumps (count and energy conservation), so the majorant never
drifts; for fractional weights S is re-read from the table after each
accepted jump.

The truncated variant confines particles to a window [0, B] with an
overflow scalar: interaction outputs beyond B and truncation-clock kills
move their weight into the overflow, conserving <phi, X> + Lambda exactly.
A coupled two-window driver shares one clock stream between nested windows
so the lower process is dominated by the upper one pathwise, atom by atom.
It runs on the same :class:`ParticleState` and its prefix table as the
engine: the upper window is a windowed state, the lower window a mask over
its slots with prefix tables of phi and phi^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import grid_q_counting, q_counting
from .fenwick import FenwickTree
from .kernels import AFFINE, WeightFunction, check_submultiplicative
from .measures import DiscreteMeasure
from .trajectory import EVENT_DTYPE, MomentRecorder, Trajectory

__all__ = [
    "ParticleState",
    "ThinningError",
    "MaxEventsError",
    "AuditError",
    "make_rng",
    "init",
    "simulate",
    "simulate_truncated",
    "simulate_coupled",
    "simulate_exact_clocks",
    "extract_martingale",
]

_MASK64 = (1 << 64) - 1
_CHUNK = 128          # candidates drawn per batch between accepted events
_AUDIT_EVERY = 10_000  # cached-sum audit cadence, in accepted events


class ThinningError(RuntimeError):
    """Acceptance probability exceeded 1: the kernel is not dominated by
    the interaction weight on the reachable support."""


class MaxEventsError(RuntimeError):
    """Event log would exceed the configured cap."""


class AuditError(RuntimeError):
    """A cached sum of the particle state diverged from recomputation, or
    the coupled driver's lower level left its upper level."""


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; (seed, stream) fully determines a run.

    Philox keyed with the two 64-bit words (seed, stream).  Replicas use
    consecutive stream ids on the same seed.
    """
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class ParticleState:
    """Multiset of n grid frequencies with the phi-weight prefix-sum table.

    ``idx`` holds int64 grid indices per slot; dead slots (truncated runs
    only) are flagged in ``alive`` and carry zero table weight.  Cached
    ``sum_idx`` equals the alive integer frequency total at all times.
    With the affine weight and a dyadic h every phi value, and so every
    prefix sum, is a multiple of min(h, 1); the prefix sums are therefore
    exact, and equal to any other summation order, while the phi total in
    those units (sum(idx) + n/h for h <= 1) stays below 2^53.  ``build``
    refuses any other affine configuration.
    """

    idx: np.ndarray
    h: float
    weight: WeightFunction
    fenwick: FenwickTree
    alive: np.ndarray
    sum_idx: int

    @staticmethod
    def build(idx, h: float, weight: WeightFunction = AFFINE) -> "ParticleState":
        idx = np.asarray(idx, dtype=np.int64)
        if h <= 0:
            raise ValueError("grid resolution h must be positive")
        if idx.min(initial=0) < 0:
            raise ValueError("frequencies must be nonnegative")
        if weight.is_affine:
            if math.frexp(h)[0] != 0.5:
                raise ValueError(f"grid resolution h={h!r} is not a power of two: "
                                 "affine phi sums would not be exact")
            if (int(idx.sum()) * h + len(idx)) / min(h, 1.0) >= 2.0 ** 53:
                raise ValueError("phi total in grid units, sum(idx) + n/h, reaches "
                                 "2^53: affine phi sums would not be exact")
        phi = np.asarray(weight(idx * h), dtype=float)
        return ParticleState(idx.copy(), h, weight, FenwickTree(phi),
                             np.ones(len(idx), dtype=bool), int(idx.sum()))

    @property
    def n(self) -> int:
        return len(self.idx)

    @property
    def phi_total(self) -> float:
        return self.fenwick.total

    def copy(self) -> "ParticleState":
        return ParticleState(self.idx.copy(), self.h, self.weight,
                             FenwickTree(self.fenwick.leaf), self.alive.copy(), self.sum_idx)

    def apply_jump(self, i: int, j: int, l: int) -> None:
        """Apply the interior jump (i, j | l): slot i takes the output
        frequency, slot j the catalyst copy.  Count and sum are conserved
        exactly; the phi table is updated in place."""
        if i == j:
            raise ValueError("the interacting pair must be two distinct particles")
        vi, vj, vl = int(self.idx[i]), int(self.idx[j]), int(self.idx[l])
        out = vi + vj - vl
        if out < 0:
            raise ValueError("inadmissible triple: w_i + w_j < w_l")
        self.idx[i] = out
        self.idx[j] = vl
        self.fenwick.set(i, float(self.weight(out * self.h)))
        self.fenwick.set(j, float(self.weight(vl * self.h)))

    def kill(self, slot: int) -> float:
        """Remove the particle in ``slot``; returns its phi value."""
        phi = float(self.fenwick.leaf[slot])
        self.alive[slot] = False
        self.sum_idx -= int(self.idx[slot])
        self.fenwick.set(slot, 0.0)
        return phi

    def escape(self, i: int, j: int, l: int) -> float:
        """Jump (i, j | l) whose output leaves the window: slot i takes the
        catalyst copy, slot j dies; returns the output's phi value."""
        vl = int(self.idx[l])
        out = int(self.idx[i]) + int(self.idx[j]) - vl
        self.idx[i] = vl
        self.fenwick.set(i, float(self.weight(vl * self.h)))
        self.alive[j] = False
        self.sum_idx -= out
        self.fenwick.set(j, 0.0)
        return float(self.weight(out * self.h))

    def audit(self) -> None:
        """Verify the cached sums against recomputation."""
        live = self.idx[self.alive]
        if int(live.sum()) != self.sum_idx:
            raise AuditError("cached frequency sum diverged")
        phi = np.zeros(self.n)
        phi[self.alive] = np.asarray(self.weight(live * self.h), dtype=float)
        total = float(phi.sum())
        if (self.fenwick.total != total if self.weight.is_affine
                else not math.isclose(self.fenwick.total, total, rel_tol=1e-9)):
            raise AuditError("phi table diverged")


# default initial law: Exp(EXP_START_MEAN) on the h-grid, cut at EXP_START_CUTOFF
EXP_START_MEAN = 1.0
EXP_START_CUTOFF = 40.0


def _exp_start_idx(u: np.ndarray, h: float) -> np.ndarray:
    """Grid indices k with P(k) proportional to q**k, q = exp(-h/mean), for
    k <= kmax = ceil(cutoff/h): the exact inverse CDF of that law, applied
    to the uniforms ``u`` in O(len(u)) time and memory."""
    if EXP_START_CUTOFF / h >= 2.0 ** 62:
        raise ValueError(f"grid resolution h={h!r} is too fine: grid indices would overflow int64")
    kmax = math.ceil(EXP_START_CUTOFF / h)
    z = -math.expm1(-(kmax + 1) * h / EXP_START_MEAN)
    k = np.floor(-EXP_START_MEAN * np.log1p(-u * z) / h)
    return np.minimum(k, kmax).astype(np.int64)


def init(n: int, mu0: DiscreteMeasure | None, h: float, seed: int,
         weight: WeightFunction = AFFINE) -> ParticleState:
    """n i.i.d. samples from mu0 (normalised), quantised to the h-grid.

    ``mu0=None`` selects the default law, Exp(1) on the h-grid up to a
    cutoff of 40 (the atoms of ``cli.default_initial_measure``), drawn by
    its closed-form inverse CDF without building the measure.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    if h <= 0:
        raise ValueError("grid resolution h must be positive")
    if mu0 is None:
        return ParticleState.build(_exp_start_idx(make_rng(seed).random(n), h), h, weight)
    mu0 = mu0.compact()
    if len(mu0) == 0 or np.any(mu0.weights < 0):
        raise ValueError("initial measure must be nonnegative and nonzero")
    rng = make_rng(seed)
    cdf = np.cumsum(mu0.weights)
    cdf /= cdf[-1]
    picks = np.searchsorted(cdf, rng.random(n), side="right")
    idx = np.rint(mu0.positions[picks] / h).astype(np.int64)
    return ParticleState.build(idx, h, weight)


def _require_state_weight(state: ParticleState, weight: WeightFunction) -> None:
    """The run's weight must be the one the state's phi table was built with."""
    if weight != state.weight:
        raise ValueError(f"weight {weight.spec_string()} differs from the weight "
                         f"{state.weight.spec_string()} the particle state was built with")


def _check_majorant(state: ParticleState, kernel, weight: WeightFunction) -> None:
    """Domination precheck on the reachable support envelope [0, E_tot]."""
    top = max(state.sum_idx * state.h, state.h)
    mesh = np.linspace(0.0, top, 12)
    grid = np.stack(np.meshgrid(mesh, mesh, mesh, indexing="ij"), axis=-1).reshape(-1, 3)
    rep = check_submultiplicative(kernel, weight, grid[grid[:, 0] + grid[:, 1] >= grid[:, 2]])
    if not rep.passed:
        raise ThinningError(
            f"kernel is not dominated by the interaction weight on the reachable "
            f"support: K/(phi*phi*phi) = {rep.worst_residual:.6g} at witness {rep.witness}")


def _run_engine(state: ParticleState, kernel, weight: WeightFunction, t_end: float,
                rng: np.random.Generator, *, bound_idx: int | None = None,
                lam_scaled: float = 0.0, sample_times=None, record_events: bool = False,
                record_snapshots: bool = False, max_events: int = 10_000_000) -> Trajectory:
    n = state.n
    h = state.h
    recorder = MomentRecorder(sample_times, t_end, n, h, weight, snapshots=record_snapshots)
    events: list[tuple] | None = [] if record_events else None
    initial_idx = state.idx.copy() if record_events else None

    fw = state.fenwick
    # the overflow is tracked as n * Lambda: a running sum of exact phi
    # values, so <phi, X> + Lambda has an exactly invariant numerator
    truncated = bound_idx is not None
    affine = weight.is_affine
    inv2n2 = 1.0 / (2.0 * n * n)

    def read():
        return state.idx[state.alive], fw.total, lam_scaled if truncated else None

    t = 0.0
    n_events = 0
    s1 = fw.total
    r_pair = s1 * s1 * s1 * inv2n2
    while t < t_end:
        lam_f = lam_scaled / n
        r_kill = s1 * (lam_f * lam_f + 2.0 * lam_f * s1 / n) if truncated else 0.0
        r_total = r_pair + r_kill
        if r_total <= 0.0:
            break
        gaps = -np.log1p(-rng.random(_CHUNK)) / r_total
        times = t + np.cumsum(gaps)
        kill_mask = (rng.random(_CHUNK) < r_kill / r_total) if r_kill > 0.0 else np.zeros(_CHUNK, dtype=bool)
        tri_u = rng.random((_CHUNK, 3)) * s1
        acc_u = rng.random(_CHUNK)
        slots = fw.sample_batch(tri_u.ravel()).reshape(_CHUNK, 3)
        si, sj, sl = slots[:, 0], slots[:, 1], slots[:, 2]
        vi, vj, vl = state.idx[si], state.idx[sj], state.idx[sl]
        out = vi + vj - vl
        phis = fw.leaf[si] * fw.leaf[sj] * fw.leaf[sl]
        valid = (si != sj) & (out >= 0) & ~kill_mask & (phis > 0.0)
        kvals = np.where(valid, kernel(vi * h, vj * h, vl * h), 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            acc_p = np.where(valid, kvals / np.where(phis > 0, phis, 1.0), 0.0)
        if np.any(acc_p > 1.0 + 1e-12):
            c = int(np.argmax(acc_p))
            raise ThinningError(
                f"acceptance probability {acc_p[c]:.6g} > 1 at triple "
                f"({vi[c] * h:.17g}, {vj[c] * h:.17g}, {vl[c] * h:.17g}); "
                f"the kernel violates sub-multiplicativity on the reachable support")
        hit = kill_mask | (valid & (acc_u < acc_p))
        hits = np.nonzero(hit)[0]
        if len(hits) == 0:
            t = float(times[-1])
            continue
        c = int(hits[0])
        t_ev = float(times[c])
        if t_ev >= t_end:
            t = t_end
            break
        recorder.advance(t_ev, read)
        t = t_ev
        if kill_mask[c]:
            victim = fw.sample(float(rng.random() * s1))
            lam_scaled += state.kill(victim)
            i, j, l, w_new, branch = victim, -1, -1, math.nan, "kill"
        else:
            i, j, l = int(si[c]), int(sj[c]), int(sl[c])
            o = int(out[c])
            if truncated and o > bound_idx:
                # output escapes the window: its phi-mass feeds the overflow
                lam_scaled += state.escape(i, j, l)
                w_new, branch = int(vl[c]) * h, "escape"
            else:
                state.apply_jump(i, j, l)
                w_new, branch = o * h, "interior"
        n_events += 1
        if events is not None:
            if n_events > max_events:
                raise MaxEventsError(f"event log exceeded the cap of {max_events} records")
            events.append((t_ev, i, j, l, w_new, branch))
        if n_events % _AUDIT_EVERY == 0:
            state.audit()
        if not affine or branch != "interior":
            s1 = fw.total
            r_pair = s1 * s1 * s1 * inv2n2
    recorder.finish(read)
    traj = recorder.build(truncated, initial_idx=initial_idx, events=None if events is None
                          else np.array(events, dtype=EVENT_DTYPE).view(np.recarray))
    traj.meta = {"t_end": t_end, "weight": weight.spec_string(),
                 "kernel": kernel.spec_string() if hasattr(kernel, "spec_string") else "custom"}
    return traj


def simulate(state: ParticleState, kernel, weight: WeightFunction, t_end: float, *,
             seed: int = 0, stream: int = 0, sample_times=None,
             record_events: bool = False, record_snapshots: bool = False,
             max_events: int = 10_000_000, precheck: bool = True) -> Trajectory:
    """Run the untruncated process on a fresh copy of ``state``.

    Exact in law; (seed, stream) fully determines the trajectory.  Raises
    :class:`ThinningError` if the kernel is not dominated by the weight on
    the reachable support (checked up front on a mesh and per candidate),
    and ``ValueError`` if ``weight`` is not the state's weight (as in every
    driver here).
    """
    _require_state_weight(state, weight)
    if precheck:
        _check_majorant(state, kernel, weight)
    work = state.copy()
    return _run_engine(work, kernel, weight, t_end, make_rng(seed, stream),
                       sample_times=sample_times, record_events=record_events,
                       record_snapshots=record_snapshots, max_events=max_events)


def _windowed(state: ParticleState, bound: float) -> tuple[ParticleState, int, float]:
    """A copy of ``state`` without the particles beyond the window, the
    window's last grid index, and n * <phi 1_{B^c}, X> (the phi-mass
    killed, summed exactly)."""
    work = state.copy()
    bound_idx = int(math.floor(bound / work.h + 1e-9))
    outside = np.nonzero(work.alive & (work.idx > bound_idx))[0]
    return work, bound_idx, math.fsum(work.kill(int(s)) for s in outside)


def truncation_overflow_start(state: ParticleState, bound: float) -> float:
    """Canonical initial overflow: phi-mass of the particles beyond the window."""
    return _windowed(state, bound)[2] / state.n


def simulate_truncated(state: ParticleState, bound: float, lam0: float | None, kernel,
                       weight: WeightFunction, t_end: float, *, seed: int = 0,
                       stream: int = 0, sample_times=None, record_events: bool = False,
                       record_snapshots: bool = False, precheck: bool = True) -> Trajectory:
    """Truncated process on the window [0, bound] with overflow lam0.

    ``state`` is the full initial configuration; particles beyond the
    window are dropped and must be covered by ``lam0``: the construction
    requires lam0 >= <phi 1_{B^c}, X_0> (otherwise the residual clock rate
    nu would be negative and the configuration is rejected).  ``lam0=None``
    selects the canonical cover exactly.  The affine weight is required;
    the overflow bookkeeping relies on phi-conservation.
    """
    _require_state_weight(state, weight)
    if not weight.is_affine:
        raise ValueError("the truncated construction requires the affine weight")
    work, bound_idx, canonical_scaled = _windowed(state, bound)
    if lam0 is None:
        lam_scaled = canonical_scaled
    else:
        if lam0 < 0:
            raise ValueError("lam0 must be nonnegative")
        lam_scaled = lam0 * state.n
        if lam_scaled < canonical_scaled * (1.0 - 1e-12) - 1e-12:
            raise ValueError(
                f"nu^B < 0: overflow start {lam0!r} does not cover the phi-mass "
                f"{canonical_scaled / state.n!r} outside the window")
    if precheck:
        _check_majorant(state, kernel, weight)
    return _run_engine(work, kernel, weight, t_end, make_rng(seed, stream),
                       bound_idx=bound_idx, lam_scaled=lam_scaled, sample_times=sample_times,
                       record_events=record_events, record_snapshots=record_snapshots)


def extract_martingale(traj: Trajectory, f, kernel) -> tuple[np.ndarray, np.ndarray]:
    """Martingale path M_t = <f, X_t> - <f, X_0> - int_0^t <f, Q^(n)(X_s)> ds.

    Requires an event-recorded untruncated trajectory; the time integral is
    exact because X is piecewise constant between jumps.  Returns the pair
    (times, M) evaluated at 0, both sides of every jump, and t_end.
    """
    ev = traj.events
    if ev is None or traj.initial_idx is None:
        raise ValueError("trajectory must carry a full event log")
    if np.any(ev.branch != "interior"):
        raise ValueError("martingale extraction is defined for the untruncated process")
    n, h = traj.n, traj.h
    idx = traj.initial_idx.copy()
    t_end = float(traj.meta["t_end"])
    fast = hasattr(kernel, "rank_one_terms")

    # dense count vector over the grid, maintained incrementally together
    # with the active support window; f is cached on the extended grid and
    # re-evaluated only when the window grows
    top = int(idx.max())
    if top > 65536:
        raise ValueError(
            "martingale extraction needs a moderate grid extent (the drift "
            "integrand is a per-interval triple sum); rerun the simulation "
            "with a coarser resolution h")
    counts = np.bincount(idx, minlength=top + 1).astype(float)
    fvec = np.asarray(f(np.arange(2 * len(counts) - 1) * h), dtype=float)

    def grow(to_idx):
        nonlocal counts, fvec, top
        top = max(top, to_idx)
        if to_idx >= len(counts):
            bigger = np.zeros(2 * to_idx + 1)
            bigger[: len(counts)] = counts
            counts = bigger
            fvec = np.asarray(f(np.arange(2 * len(counts) - 1) * h), dtype=float)

    def drift_now():
        active = counts[: top + 1]
        # convolution route for large supports; the direct route keeps the
        # bracket cancellations bit-exact on small supports
        m_active = int(np.count_nonzero(active))
        if fast and m_active > 32:
            return grid_q_counting(active / n, h, kernel, fvec, n)
        if m_active > 300:
            raise ValueError(
                "martingale drift would need a "
                f"{m_active}^3-term direct sum on a grid of extent {top}; "
                "rerun with a coarser resolution h")
        nz = np.nonzero(active)[0]
        meas = DiscreteMeasure.from_grid(nz, active[nz] / n, h)
        return float(q_counting(meas, kernel, f, n))

    times = [0.0]
    mvals = [0.0]
    # <f, X> accumulated in integer-count units and divided by n at the
    # end of each update: the per-jump increment is a 4-term sum of cached
    # f values, so conserved f cancel exactly along the path
    f_scaled = float(np.dot(fvec[: len(counts)], counts))
    f0 = f_scaled / n
    f_now = f0
    drift = drift_now()
    integral = 0.0
    t_prev = 0.0
    for t_ev, i, j, l in zip(ev.time.tolist(), ev.i.tolist(), ev.j.tolist(), ev.l.tolist()):
        integral += (t_ev - t_prev) * drift
        # left limit of M at the jump
        times.append(t_ev)
        mvals.append(f_now - f0 - integral)
        vi, vj, vl = int(idx[i]), int(idx[j]), int(idx[l])
        out = vi + vj - vl
        idx[i] = out
        idx[j] = vl
        grow(out)
        counts[vi] -= 1.0
        counts[vj] -= 1.0
        counts[out] += 1.0
        counts[vl] += 1.0
        f_scaled += (fvec[out] + fvec[vl]) - (fvec[vi] + fvec[vj])
        f_now = f_scaled / n
        times.append(t_ev)
        mvals.append(f_now - f0 - integral)
        drift = drift_now()
        t_prev = t_ev
    integral += (t_end - t_prev) * drift
    times.append(t_end)
    mvals.append(f_now - f0 - integral)
    return np.asarray(times), np.asarray(mvals)


# --------------------------------------------------------------------------
# coupled nested-window driver
# --------------------------------------------------------------------------

def simulate_coupled(state: ParticleState, bound_lo: float, bound_hi: float, kernel,
                     weight: WeightFunction, t_end: float, *, seed: int = 0,
                     stream: int = 0, sample_times=None) -> tuple[Trajectory, Trajectory]:
    """Both truncated processes for nested windows B in B' on one clock
    stream, so the lower process is dominated by the upper one pathwise.

    One shared event dictionary drives the pair: interaction clocks among
    upper-window particles act on both levels when the whole triple lives
    in the lower window and otherwise kill the lower level's pair members
    (shared-clock construction, so domination holds atom by atom at every
    event time); complement and residual clocks supply the remaining
    truncation kills at exactly the per-particle rate
    phi * (Lambda^2 + 2 Lambda <phi, X>) of each level.  Overflow starts
    are canonical, so <phi, X> + Lambda agree between levels at all times.
    Every event checks that each lower particle is alive in the upper level.
    """
    _require_state_weight(state, weight)
    if not weight.is_affine:
        raise ValueError("the truncated construction requires the affine weight")
    if bound_lo > bound_hi:
        raise ValueError("bounds must be nested: bound_lo <= bound_hi")
    _check_majorant(state, kernel, weight)
    rng = make_rng(seed, stream)
    n = state.n
    h = state.h
    # overflows tracked as n * Lambda (exact dyadic sums, see _run_engine)
    upper, hi_idx, lam_hi_s = _windowed(state, bound_hi)
    idx, fw = upper.idx, upper.fenwick
    # only the lower copy's alive mask and phi table are kept: its slots
    # take their values from the upper level
    lower, lo_idx, lam_lo_s = _windowed(state, bound_lo)
    in_lo, lo_phi = lower.alive, lower.fenwick
    lo_phi2 = FenwickTree(lo_phi.leaf * lo_phi.leaf)

    def share(s: int) -> None:
        phi = fw.leaf[s]
        lo_phi.set(s, phi)
        lo_phi2.set(s, phi * phi)

    def leave_lo(s: int) -> float:
        phi = float(lo_phi.leaf[s])
        in_lo[s] = False
        lo_phi.set(s, 0.0)
        lo_phi2.set(s, 0.0)
        return phi

    rec_lo = MomentRecorder(sample_times, t_end, n, h, weight, snapshots=True)
    rec_hi = MomentRecorder(sample_times, t_end, n, h, weight, snapshots=True)

    def read_lo():
        return idx[in_lo], lo_phi.total, lam_lo_s

    def read_hi():
        return idx[upper.alive], fw.total, lam_hi_s

    inv_n2 = 1.0 / (n * n)
    t = 0.0
    while t < t_end:
        s1_hi = fw.total
        s1_lo = lo_phi.total
        delta = (s1_hi - s1_lo) / n
        r_pair = s1_hi ** 3 * inv_n2 / 2.0
        lam_hi = lam_hi_s / n
        r_kill_hi = s1_hi * (lam_hi * lam_hi + 2.0 * lam_hi * s1_hi / n)
        r_extra_lo = delta / n * lo_phi2.total
        r_total = r_pair + r_kill_hi + r_extra_lo
        if r_total <= 0.0:
            break
        t_ev = t - math.log1p(-float(rng.random())) / r_total
        if t_ev >= t_end:
            t = t_end
            break
        rec_lo.advance(t_ev, read_lo)
        rec_hi.advance(t_ev, read_hi)
        t = t_ev
        u_class = float(rng.random()) * r_total
        if u_class < r_pair:
            i, j, l = (int(p) for p in fw.sample_batch(rng.random(3) * s1_hi))
            if i == j or min(fw.leaf[i], fw.leaf[j], fw.leaf[l]) <= 0.0:
                continue
            vi, vj, vl = int(idx[i]), int(idx[j]), int(idx[l])
            out = vi + vj - vl
            phis = fw.leaf[i] * fw.leaf[j] * fw.leaf[l]
            k_here = float(kernel(vi * h, vj * h, vl * h)) if out >= 0 else 0.0
            acc = k_here / phis if phis > 0 else 0.0
            if acc > 1.0 + 1e-12:
                raise ThinningError(
                    f"acceptance probability {acc:.6g} > 1 at triple "
                    f"({vi * h:.17g}, {vj * h:.17g}, {vl * h:.17g})")
            # unless the whole triple lives in the lower window, the lower
            # level loses its pair members to the overflow: on the
            # interaction clock and on its complement (null for the upper
            # window) alike
            all_in_lo = in_lo[i] and in_lo[j] and in_lo[l]
            if not all_in_lo:
                for s in (i, j):
                    if in_lo[s]:
                        lam_lo_s += leave_lo(s)
            if float(rng.random()) < acc:
                # interaction clock fires for the upper window: slot i takes
                # the output, window permitting, and slot j the catalyst copy
                if out <= hi_idx:
                    upper.apply_jump(i, j, l)
                else:
                    lam_hi_s += upper.escape(j, i, l)
                if all_in_lo:
                    # the lower level shares the jump; an output beyond its
                    # window feeds its overflow in place of slot i
                    share(j)
                    if out <= lo_idx:
                        share(i)
                    else:
                        lam_lo_s += float(weight(out * h))
                        leave_lo(i)
        elif u_class < r_pair + r_kill_hi:
            victim = fw.sample(float(rng.random()) * s1_hi)
            lam_hi_s += upper.kill(victim)
            if in_lo[victim]:
                lam_lo_s += leave_lo(victim)
        else:
            victim = lo_phi2.sample(float(rng.random()) * lo_phi2.total)
            lam_lo_s += leave_lo(victim)
        if np.any(in_lo & ~upper.alive):
            raise AuditError("pathwise domination violated: a lower-window particle "
                             "is not alive in the upper window")
    rec_lo.finish(read_lo)
    rec_hi.finish(read_hi)
    traj_lo = rec_lo.build(True)
    traj_hi = rec_hi.build(True)
    for tr, b in ((traj_lo, bound_lo), (traj_hi, bound_hi)):
        tr.meta = {"t_end": t_end, "bound": b, "weight": weight.spec_string()}
    return traj_lo, traj_hi


# --------------------------------------------------------------------------
# exact per-triple-clock reference (law-level oracle, small n only)
# --------------------------------------------------------------------------

def simulate_exact_clocks(state: ParticleState, kernel, weight: WeightFunction,
                          t_end: float, *, seed: int = 0, stream: int = 0,
                          sample_times=None, record_snapshots: bool = False) -> Trajectory:
    """Gillespie simulation with the full per-triple rate table.

    O(n^3) work per event; intended as the law-level oracle for the
    thinning engine at small n.
    """
    _require_state_weight(state, weight)
    work = state.copy()
    n, h = work.n, work.h
    rng = make_rng(seed, stream)
    recorder = MomentRecorder(sample_times, t_end, n, h, weight, snapshots=record_snapshots)

    def read():
        return work.idx, None, None

    iu, ju = np.triu_indices(n, k=1)
    t = 0.0
    while t < t_end:
        vi = work.idx[iu][:, None] * h
        vj = work.idx[ju][:, None] * h
        vl = work.idx[None, :] * h
        rates = kernel(vi, vj, vl) * ((vi + vj) >= vl) / (n * n)
        flat = rates.ravel()
        total = float(flat.sum())
        if total <= 0.0:
            break
        t_ev = t - math.log1p(-float(rng.random())) / total
        if t_ev >= t_end:
            break
        recorder.advance(t_ev, read)
        t = t_ev
        pick = int(np.searchsorted(np.cumsum(flat), float(rng.random()) * total, side="right"))
        pair, l = divmod(pick, n)
        work.apply_jump(int(iu[pair]), int(ju[pair]), int(l))
    recorder.finish(read)
    traj = recorder.build(False)
    traj.meta = {"t_end": t_end}
    return traj
