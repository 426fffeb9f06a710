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

Candidates come in chunks of 128.  A run takes its uniforms from one
buffer, which ``rng.random`` refills in blocks, in the order of one call
per use: per chunk 128 gaps, 128 kill draws when the kill clock runs, 384
triple draws and 128 acceptance draws, then one victim draw after a kill.
Philox output is contiguous across calls, so these are the numbers of
those calls.  A chunk's first kill is found first, and the triples before
it are evaluated in windows up to the first hit; the event is that kill if
no triple hits.  A family kernel under the affine weight satisfies K <= C
phi phi phi with C from its terms (``kernels.domination_constant``), so a
candidate whose acceptance draw is at least C cannot hit.  The candidates
before the kill are screened by their draws (nothing is when the kill
comes first) and only the kept ones are evaluated, in windows of ceil(32
min(C, 1)): for C >= 1 the screen keeps every candidate and the windows
hold 32.  A window evaluates a family kernel on the (3, k) stack of its
frequencies, each distinct exponent's power taken once over the stack
(``Kernel.eval_stack``, the bits of ``Kernel.eval``); a bare callable gets
the three rows.  One mask marks the valid candidates, two distinct slots
for the pair and w_i + w_j >= w_l: the acceptance probability is K / (phi
phi phi) on the valid candidates and 0 on the others, whatever K is on
them.  phi phi phi is never 0, as the search never picks a zero-weight
leaf.  A NaN K on a valid candidate neither hits nor refuses.  The state
is fixed until the event, so the path depends on neither the screen nor
the window size.  A candidate with acceptance probability above 1 raises
:class:`ThinningError`, naming the window's largest one, if it lies in an
evaluated window, that is, up to the hit and in the rest of the hit's
window, but never at or past the chunk's first kill; the discarded draws
of later candidates are not checked.  The screen leaves this rule as it
is: it drops a candidate only for C < 1, where none exceeds 1.  Moment
rows are recorded only when an event passes the next sample time.

The truncated variant is the pair (X, Lambda) on a window [0, B], held
by the state with its window: a kill moves phi-mass into the overflow
and an escape (an output beyond B) is the jump plus a kill of the
output, so <phi, X> + Lambda is conserved exactly.  A coupled driver
runs nested windows on one clock stream, so the lower process is
dominated by the upper one pathwise, atom by atom; each window is a
windowed :class:`ParticleState`, changed only by ``apply_jump``,
``escape`` and ``kill``, slot for slot, and the residual clock draws
from the phi^2 table of the lower window's leaves.

Every driver records moments with a :class:`MomentRecorder` bound to its
state, so this module alone knows the state's layout.  The per-triple-clock
oracle that judges the thinning engine in law at small n is test code,
``tests/clock_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import _stack_rows, grid_q_counting, q_counting
from .fenwick import FenwickTree
from .kernels import AFFINE, Kernel, WeightFunction, check_submultiplicative, domination_constant
from .measures import DiscreteMeasure
from .trajectory import EVENT_DTYPE, Trajectory, checked_sample_times

__all__ = [
    "ParticleState",
    "MomentRecorder",
    "ThinningError",
    "MaxEventsError",
    "AuditError",
    "make_rng",
    "init",
    "simulate",
    "simulate_truncated",
    "simulate_coupled",
    "extract_martingale",
]

_MASK64 = (1 << 64) - 1
_CHUNK = 128          # candidates drawn per batch between accepted events
_WINDOW = 32          # screened candidates evaluated at a time at C >= 1; ceil(32 C) below
_DRAWS = 64 * _CHUNK   # uniforms a run's draw buffer holds beyond a chunk and a victim
_NO_CANDIDATES = np.empty(0, dtype=np.intp)  # the screen's result when the kill comes first
_AUDIT_EVERY = 10_000  # cached-sum audit cadence, in accepted events
_CDF_BLOCK = 1 << 16  # atoms per block of init's two-level prefix table


class ThinningError(RuntimeError):
    """Acceptance probability exceeded 1: the kernel is not dominated by
    the interaction weight on the reachable support."""


def _acceptance_error(p: float, w1: float, w2: float, w3: float) -> ThinningError:
    """The error every driver raises for a candidate accepted with p > 1."""
    return ThinningError(f"acceptance probability {p:.6g} > 1 at triple "
                         f"({w1:.17g}, {w2:.17g}, {w3:.17g}); the kernel violates "
                         "sub-multiplicativity on the reachable support")


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
    """Multiset of n grid frequencies with the phi-weight prefix-sum table,
    the window and the overflow.

    ``idx`` holds int64 grid indices per slot; dead (killed) slots are
    flagged in ``alive`` and carry zero table weight.  Cached ``sum_idx``
    equals the alive integer frequency total at all times.  ``bound_idx``
    is the window's last grid index (None: untruncated) and ``lam`` is
    n * Lambda, the sum of the exact phi values that ``kill`` removed.
    With the affine weight and a dyadic h every phi value, and so every
    prefix sum, is a multiple of min(h, 1); the prefix sums are therefore
    exact, and equal to any other summation order, while the phi total in
    those units (sum(idx) + n/h for h <= 1) stays below 2^53.  ``build``
    refuses any other affine configuration and marks the affine table
    exact, so that its writes update the prefix sums in place.
    """

    idx: np.ndarray
    h: float
    weight: WeightFunction
    fenwick: FenwickTree
    alive: np.ndarray
    sum_idx: int
    bound_idx: int | None = None
    lam: float = 0.0

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
        return ParticleState(idx.copy(), h, weight, FenwickTree(phi, exact=weight.is_affine),
                             np.ones(len(idx), dtype=bool), int(idx.sum()))

    @property
    def n(self) -> int:
        return len(self.idx)

    @property
    def phi_total(self) -> float:
        return self.fenwick.total

    def copy(self) -> "ParticleState":
        return ParticleState(self.idx.copy(), self.h, self.weight, self.fenwick.copy(),
                             self.alive.copy(), self.sum_idx, self.bound_idx, self.lam)

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
        phi_out, phi_vl = self.weight.pair(out * self.h, vl * self.h)
        self.fenwick.set_pair(i, phi_out, j, phi_vl)

    def kill(self, slot: int) -> float:
        """Move the particle in ``slot`` into the overflow; returns its phi value."""
        phi = float(self.fenwick.leaf[slot])
        self.alive[slot] = False
        self.sum_idx -= int(self.idx[slot])
        self.fenwick.set(slot, 0.0)
        self.lam += phi
        return phi

    def escape(self, i: int, j: int, l: int) -> float:
        """Jump (i, j | l) whose output leaves the window: the jump (j, i | l)
        puts the output in slot j, which is killed; returns its phi value."""
        self.apply_jump(j, i, l)
        return self.kill(j)

    def audit(self) -> None:
        """Verify the cached sums against recomputation."""
        live = self.idx[self.alive]
        if int(live.sum()) != self.sum_idx:
            raise AuditError("cached frequency sum diverged")
        phi = np.zeros(self.n)
        phi[self.alive] = np.asarray(self.weight(live * self.h), dtype=float)
        total = float(phi.sum())
        fw = self.fenwick
        if (fw.total != total or not np.array_equal(fw._sums(), np.cumsum(fw.leaf))
                if fw.exact else not math.isclose(fw.total, total, rel_tol=1e-9)):
            raise AuditError("phi table diverged")


class MomentRecorder:
    """Moment rows (and optional snapshots) of one :class:`ParticleState`
    at fixed sample times, read from its live slots, prefix table and
    overflow; the Lambda column is nan when the state has no window.
    Sample times must be nondecreasing and lie in [0, t_end]; ``None``
    selects 17 evenly spaced times.
    """

    def __init__(self, state: ParticleState, sample_times, t_end: float, snapshots: bool = False):
        self.state = state
        self.times = checked_sample_times(sample_times, t_end)
        self._rows = []      # (W, E, phi, phi2, Lambda, <phi, X> + Lambda)
        self._idx_rows = []  # exact integer energy
        self._snaps = [] if snapshots else None
        self.next_time = self.times[0] if len(self.times) else math.inf  # first unrecorded

    def advance(self, t_next: float) -> None:
        """Record every sample time strictly before ``t_next`` from the
        current (pre-event) state; a no-op unless ``next_time < t_next``."""
        while self.next_time < t_next:
            self._record()
            k = len(self._rows)
            self.next_time = self.times[k] if k < len(self.times) else math.inf

    def finish(self) -> None:
        self.advance(np.inf)

    def _record(self) -> None:
        st = self.state
        n, h = st.n, st.h
        live = st.idx[st.alive]
        phis = st.weight(live * h)
        energy = int(live.sum())
        total = st.phi_total
        self._rows.append((len(live) / n, energy * h / n, total / n,
                           float(np.add.reduce(phis * phis)) / n,
                           np.nan if st.bound_idx is None else st.lam / n,
                           (total + st.lam) / n))
        self._idx_rows.append(energy)
        if self._snaps is not None:
            # one sort; a site with c particles weighs the sequential sum
            # of c terms 1/n, the bits np.add.at gives in compact()
            sites, counts = np.unique(live, return_counts=True)
            sums = np.cumsum(np.full(counts.max(initial=0), 1.0 / n))
            self._snaps.append(DiscreteMeasure(sums[counts - 1], h, sites))

    def build(self, **kw) -> Trajectory:
        return Trajectory.from_rows(
            self.times, self._rows, self.state.bound_idx is not None,
            energy_idx=np.asarray(self._idx_rows, dtype=np.int64),
            snapshots=self._snaps, n=self.state.n, h=self.state.h, **kw)


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


def _cdf(weights: np.ndarray) -> np.ndarray:
    """Normalised prefix sums of nonnegative weights, in two levels: a
    cumsum within each block of _CDF_BLOCK atoms, offset by the correctly
    rounded sum (math.fsum) of the pairwise-summed totals of the blocks
    before it.  A single cumsum drifts with the atom count (over 41.9M
    atoms it misplaced 9 of 24,000 draws); this table stays within a few
    ulp.  Up to _CDF_BLOCK atoms it is np.cumsum's bit for bit."""
    cdf = np.empty(len(weights))
    totals = []
    for lo in range(0, len(weights), _CDF_BLOCK):
        block, out = weights[lo:lo + _CDF_BLOCK], cdf[lo:lo + _CDF_BLOCK]
        np.cumsum(block, out=out)
        out += math.fsum(totals)
        totals.append(float(block.sum()))
    cdf /= cdf[-1]
    return cdf


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
    picks = np.searchsorted(_cdf(mu0.weights), rng.random(n), side="right")
    idx = np.rint(mu0.positions[picks] / h).astype(np.int64)
    return ParticleState.build(idx, h, weight)


def _require_state_weight(state: ParticleState, weight: WeightFunction) -> None:
    """The run's weight must be the one the state's phi table was built with."""
    if weight != state.weight:
        raise ValueError(f"weight {weight.spec_string()} differs from the weight "
                         f"{state.weight.spec_string()} the particle state was built with")


def _check_majorant(state: ParticleState, kernel) -> None:
    """Domination precheck on the reachable support envelope [0, E_tot],
    sampled on a 12-point mesh and the grid's smallest frequency h, where
    a kernel that outgrows phi towards 0 is largest."""
    top = max(state.sum_idx * state.h, state.h)
    mesh = np.linspace(0.0, top, 12)
    mesh = np.insert(mesh, np.searchsorted(mesh, state.h), state.h)
    grid = np.stack(np.meshgrid(mesh, mesh, mesh, indexing="ij"), axis=-1).reshape(-1, 3)
    rep = check_submultiplicative(kernel, state.weight, grid[grid[:, 0] + grid[:, 1] >= grid[:, 2]])
    if not rep.passed:
        raise ThinningError(
            f"kernel is not dominated by the interaction weight on the reachable "
            f"support: K/(phi*phi*phi) = {rep.worst_residual:.6g} at witness "
            f"{tuple(map(float, rep.witness))}")


def _run_engine(state: ParticleState, kernel, t_end: float, rng: np.random.Generator, *,
                sample_times=None, record_events: bool = False,
                record_snapshots: bool = False, max_events: int = 10_000_000) -> Trajectory:
    n, h = state.n, state.h
    recorder = MomentRecorder(state, sample_times, t_end, record_snapshots)
    events: list[tuple] | None = [] if record_events else None
    initial_idx = state.idx.copy() if record_events else None

    fw = state.fenwick
    affine = state.weight.is_affine
    inv2n2 = 1.0 / (2.0 * n * n)

    # K <= C phi phi phi: no candidate whose acceptance draw is at least
    # cut can hit, and for cut < 1 none has acceptance probability above 1
    cut = domination_constant(kernel, state.weight) * (1.0 + 1e-9)
    window = max(1, math.ceil(_WINDOW * min(cut, 1.0)))
    evaluate = (kernel.eval_stack if isinstance(kernel, Kernel)
                else lambda w: kernel(w[0], w[1], w[2]))

    u = np.empty(_DRAWS + 6 * _CHUNK + 1)  # the draw buffer of the module docstring
    pos = len(u)
    t = 0.0
    n_events = 0
    stale = True
    while t < t_end:
        if stale:
            s1 = fw.total
            lam_f = state.lam / n  # 0 without a window: no kill clock
            r_pair = s1 * s1 * s1 * inv2n2
            r_kill = s1 * (lam_f * lam_f + 2.0 * lam_f * s1 / n)
            r_total, stale = r_pair + r_kill, False
        if r_total <= 0.0:
            break
        used = (6 if r_kill > 0.0 else 5) * _CHUNK
        if pos + used >= len(u):  # room for the chunk and a victim draw
            rest = len(u) - pos
            u[:rest] = u[pos:]
            rng.random(out=u[rest:])
            pos = 0
        draws = u[pos:pos + used]
        gaps, acc = draws[:_CHUNK], draws[-_CHUNK:]
        tri = draws[-4 * _CHUNK:-_CHUNK].reshape(-1, 3)
        pos += used
        c = kill = _CHUNK
        if r_kill > 0.0:
            kills = draws[_CHUNK:2 * _CHUNK] < r_kill / r_total
            first = int(kills.argmax())
            if kills[first]:
                c = kill = first
        # the state is fixed until the chunk's first hit, so the candidates
        # before its first kill whose draw is below cut are evaluated window
        # by window up to the window that holds a hit; the event is that
        # kill if no triple hits.  Other candidates are discarded draws,
        # neither evaluated nor checked for acceptance above 1
        kept = (acc[:kill] < cut).nonzero()[0] if kill else _NO_CANDIDATES
        for lo in range(0, len(kept), window):
            ks = kept[lo:lo + window]
            s = fw.sample_batch(tri.take(ks, axis=0).T * s1)
            v = state.idx[s]
            leaves = fw.leaf[s]
            phis = leaves[0] * leaves[1] * leaves[2]
            valid = (s[0] != s[1]) & (v[0] + v[1] >= v[2])
            w = v * h
            # 0 off the valid candidates, whatever K is there (a product
            # with the mask would warn on an infinite K); NaN where K is NaN
            # at a valid one, which no u in [0, 1) hits and fmax skips
            acc_p = np.where(valid, evaluate(w) / phis, 0.0)
            if np.fmax.reduce(acc_p) > 1.0 + 1e-12:
                cw = int(np.nanargmax(acc_p))
                raise _acceptance_error(acc_p[cw], *w[:, cw])
            hit = acc[ks] < acc_p
            cw = int(hit.argmax())
            if hit[cw]:
                c = int(ks[cw])
                break
        # the time of the event, or of the chunk's last candidate: a
        # sequential cumsum of the gaps up to it, whose bits do not depend
        # on the gaps after it; log1p(-u) / -r has the bits of -log1p(-u) / r
        t_ev = t + float((np.log1p(-gaps[:c + 1]) / -r_total).cumsum()[-1])
        if c == _CHUNK:
            t = t_ev
            continue
        if t_ev >= t_end:
            t = t_end
            break
        if recorder.next_time < t_ev:
            recorder.advance(t_ev)
        t = t_ev
        if c == kill:
            victim = fw.sample(float(u[pos] * s1))
            pos += 1
            state.kill(victim)
            i, j, l, w_new, branch = victim, -1, -1, math.nan, "kill"
        else:
            i, j, l = s[:, cw].tolist()
            vi, vj, vl = v[:, cw].tolist()
            o = vi + vj - vl
            if state.bound_idx is not None and o > state.bound_idx:
                # output escapes the window: its phi-mass feeds the overflow
                state.escape(i, j, l)
                w_new, branch = float(w[2, cw]), "escape"
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
        # an affine interior jump keeps S, and only kills and escapes move Lambda
        stale = not affine or branch != "interior"
    recorder.finish()
    traj = recorder.build(initial_idx=initial_idx, events=None if events is None
                          else np.array(events, dtype=EVENT_DTYPE).view(np.recarray))
    traj.meta = {"t_end": t_end, "weight": state.weight.spec_string(),
                 "kernel": kernel.spec if isinstance(kernel, Kernel) else "custom"}
    return traj


def simulate(state: ParticleState, kernel, weight: WeightFunction, t_end: float, *,
             seed: int = 0, stream: int = 0, sample_times=None,
             record_events: bool = False, record_snapshots: bool = False,
             max_events: int = 10_000_000, precheck: bool = True) -> Trajectory:
    """Run the untruncated process on a copy of ``state`` without its window.

    Exact in law; (seed, stream) fully determines the trajectory.  Raises
    :class:`ThinningError` if the kernel is not dominated by the weight on
    the reachable support (checked up front on a mesh and per candidate),
    and ``ValueError`` if ``weight`` is not the state's weight (as in every
    driver here).
    """
    _require_state_weight(state, weight)
    if precheck:
        _check_majorant(state, kernel)
    return _run_engine(_windowed(state, None), kernel, t_end, make_rng(seed, stream),
                       sample_times=sample_times, record_events=record_events,
                       record_snapshots=record_snapshots, max_events=max_events)


def _windowed(state: ParticleState, bound: float | None) -> ParticleState:
    """A copy of ``state`` on the window [0, bound], no window for None:
    the particles beyond it killed, ``lam`` the exact sum of their phi
    values (0 for None).  ValueError for a negative ``bound``."""
    if bound is not None and not bound >= 0:
        raise ValueError(f"bound must be nonnegative, got {bound!r}")
    work = state.copy()
    work.bound_idx, work.lam = None, 0.0
    if bound is not None:
        work.bound_idx = int(math.floor(bound / work.h + 1e-9))
        outside = np.nonzero(work.alive & (work.idx > work.bound_idx))[0]
        # each kill adds to lam in turn; the correctly rounded sum replaces that
        work.lam = math.fsum([work.kill(int(s)) for s in outside])
    return work


def truncation_overflow_start(state: ParticleState, bound: float) -> float:
    """Canonical initial overflow: phi-mass of the particles beyond the window."""
    return _windowed(state, bound).lam / state.n


def simulate_truncated(state: ParticleState, bound: float, lam0: float | None, kernel,
                       weight: WeightFunction, t_end: float, *, seed: int = 0,
                       stream: int = 0, sample_times=None, record_events: bool = False,
                       record_snapshots: bool = False, max_events: int = 10_000_000,
                       precheck: bool = True) -> Trajectory:
    """Truncated process on the window [0, bound] with overflow lam0.

    ``state`` is the full initial configuration; its windowed copy kills
    the particles beyond the window, whose phi-mass ``lam0`` must cover:
    lam0 >= <phi 1_{B^c}, X_0>, or the residual clock rate nu would be
    negative and a ValueError names both values.  ``lam0=None`` selects
    the canonical cover exactly.  The affine weight is required; the
    overflow bookkeeping relies on phi-conservation.
    """
    _require_state_weight(state, weight)
    if not weight.is_affine:
        raise ValueError("the truncated construction requires the affine weight")
    work = _windowed(state, bound)
    if lam0 is not None:
        if lam0 < 0:
            raise ValueError("lam0 must be nonnegative")
        if lam0 * state.n < work.lam * (1.0 - 1e-12) - 1e-12:
            raise ValueError(
                f"nu^B < 0: overflow start {lam0!r} does not cover the phi-mass "
                f"{work.lam / state.n!r} outside the window")
        work.lam = lam0 * state.n
    if precheck:
        _check_majorant(state, kernel)
    return _run_engine(work, kernel, t_end, make_rng(seed, stream), sample_times=sample_times,
                       record_events=record_events, record_snapshots=record_snapshots,
                       max_events=max_events)


def extract_martingale(traj: Trajectory, f, kernel) -> tuple[np.ndarray, np.ndarray]:
    """Martingale path M_t = <f, X_t> - <f, X_0> - int_0^t <f, Q^(n)(X_s)> ds.

    Requires an event-recorded untruncated trajectory; the time integral is
    exact because X is piecewise constant between jumps.  Returns the pair
    (times, M) evaluated at 0, both sides of every jump, and t_end.

    The path's states are evaluated in blocks.  States with more than 32
    occupied sites and a :class:`Kernel` take the grid route, one stacked
    grid_q_counting call per block; every other state is one q_counting
    call, which picks its route by cost (for a bare callable kernel, the
    direct triple sum).  An affine f gives exactly 0 on either route.  No
    value depends on the block size.
    """
    ev = traj.events
    if ev is None or traj.initial_idx is None:
        raise ValueError("trajectory must carry a full event log")
    if np.any(ev.branch != "interior"):
        raise ValueError("martingale extraction is defined for the untruncated process")
    n, h = traj.n, traj.h

    # count vectors over every site the path visits (the initial sites and
    # the outputs w_new / h), and f on the extended grid the drift reads
    top = int(traj.initial_idx.max())
    extent = max(top, int(np.rint(ev.w_new / h).max(initial=0)))
    if extent > 65536:
        raise ValueError(
            "martingale extraction needs a moderate grid extent (the drift "
            "integrand is a per-interval triple sum); rerun the simulation "
            "with a coarser resolution h")
    m = extent + 1
    counts = np.bincount(traj.initial_idx, minlength=m).astype(float)
    fvec = np.asarray(f(np.arange(2 * extent + 1) * h), dtype=float)

    # sites each jump takes a particle from (vi, vj) and gives one to (out, vl)
    idx = traj.initial_idx.tolist()
    sites = []
    for i, j, l in zip(ev.i.tolist(), ev.j.tolist(), ev.l.tolist()):
        vi, vj, vl = idx[i], idx[j], idx[l]
        idx[i] = out = vi + vj - vl
        idx[j] = vl
        sites.append((vi, vj, out, vl))
    sites = np.array(sites, dtype=np.int64).reshape(-1, 4)

    # <f, X> in integer-count units, divided by n after each jump: each
    # increment is a 4-term sum of f values, so conserved f cancel exactly
    fs = fvec[sites]
    f_now = np.cumsum(np.concatenate([[float(np.dot(fvec[: top + 1], counts[: top + 1]))],
                                      (fs[:, 2] + fs[:, 3]) - (fs[:, 0] + fs[:, 1])])) / n

    # a block holds the states after lo .. hi - 1 jumps, as cumulative sums
    # of 4-site deltas; a jump whose catalyst sits at the frequency of a pair
    # member leaves X unchanged, so its state copies the drift before it
    new = np.concatenate([[True], (sites[:, 3] != sites[:, 0]) & (sites[:, 3] != sites[:, 1])])
    drift, rows = np.empty(len(new)), _stack_rows(m)
    for lo in range(0, len(drift), rows):
        hi = min(lo + rows, len(drift))
        jumps = sites[max(lo - 1, 0):hi - 1]
        block = np.zeros((hi - lo, m))
        block[0] = counts
        np.add.at(block, (np.arange(hi - lo - len(jumps), hi - lo)[:, None], jumps),
                  [-1.0, -1.0, 1.0, 1.0])
        counts = np.cumsum(block, axis=0, out=block)[-1]
        occupied = np.count_nonzero(block, axis=1)
        grid = (occupied > 32) & isinstance(kernel, Kernel) & new[lo:hi]
        direct = ~grid & new[lo:hi]
        if np.any(occupied[direct] > 300):
            raise ValueError(
                f"martingale drift would need a {occupied[direct].max()}^3-term direct "
                f"sum on a grid of extent {extent}; rerun with a coarser resolution h")
        if np.any(grid):
            drift[lo:hi][grid] = grid_q_counting(block[grid] / n, h, kernel, fvec, n)
        for r in np.flatnonzero(direct):
            drift[lo + r] = q_counting(DiscreteMeasure.from_dense(block[r] / n, h),
                                       kernel, f, n)
    drift = drift[np.maximum.accumulate(np.where(new, np.arange(len(new)), 0))]

    # M at 0, at both sides of every jump and at t_end
    t = np.concatenate([[0.0], ev.time, [float(traj.meta["t_end"])]])
    integral = np.cumsum(np.diff(t) * drift)
    mvals = np.repeat(f_now, 2) - f_now[0] - np.concatenate([[0.0], np.repeat(integral, 2)[:-1]])
    return np.repeat(t, 2)[1:-1], mvals


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
    Every event checks that each lower particle is alive, at the same
    frequency, in the same slot of the upper level.
    """
    _require_state_weight(state, weight)
    if not weight.is_affine:
        raise ValueError("the truncated construction requires the affine weight")
    if bound_lo > bound_hi:
        raise ValueError("bounds must be nested: bound_lo <= bound_hi")
    _check_majorant(state, kernel)
    rng = make_rng(seed, stream)
    n, h = state.n, state.h
    upper = _windowed(state, bound_hi)
    lower = _windowed(state, bound_lo)
    fw, lo_phi = upper.fenwick, lower.fenwick
    rec_lo, rec_hi = (MomentRecorder(s, sample_times, t_end, snapshots=True) for s in (lower, upper))
    inv_n2 = 1.0 / (n * n)
    # the residual clock kills lower particles with weight phi^2; the table
    # is rebuilt only after an event that changed the lower window
    lo_phi2 = np.cumsum(lo_phi.leaf * lo_phi.leaf)
    t = 0.0
    while t < t_end:
        lo_changed = False
        s1_hi = fw.total
        delta = (s1_hi - lo_phi.total) / n
        r_pair = s1_hi ** 3 * inv_n2 / 2.0
        lam_hi = upper.lam / n
        r_kill_hi = s1_hi * (lam_hi * lam_hi + 2.0 * lam_hi * s1_hi / n)
        r_extra_lo = delta / n * float(lo_phi2[-1])
        r_total = r_pair + r_kill_hi + r_extra_lo
        if r_total <= 0.0:
            break
        t_ev = t - math.log1p(-float(rng.random())) / r_total
        if t_ev >= t_end:
            t = t_end
            break
        rec_lo.advance(t_ev)
        rec_hi.advance(t_ev)
        t = t_ev
        u_class = float(rng.random()) * r_total
        if u_class < r_pair:
            i, j, l = (int(p) for p in fw.sample_batch(rng.random(3) * s1_hi))
            if i == j or min(fw.leaf[i], fw.leaf[j], fw.leaf[l]) <= 0.0:
                continue
            vi, vj, vl = int(upper.idx[i]), int(upper.idx[j]), int(upper.idx[l])
            out = vi + vj - vl
            phis = fw.leaf[i] * fw.leaf[j] * fw.leaf[l]
            k_here = float(kernel(vi * h, vj * h, vl * h)) if out >= 0 else 0.0
            acc = k_here / phis if phis > 0 else 0.0
            if acc > 1.0 + 1e-12:
                raise _acceptance_error(acc, vi * h, vj * h, vl * h)
            # unless the whole triple lives in the lower window, the lower
            # level loses its pair members to the overflow: on the
            # interaction clock and on its complement (null for the upper
            # window) alike
            all_in_lo = lower.alive[i] and lower.alive[j] and lower.alive[l]
            if not all_in_lo:
                for s in (i, j):
                    if lower.alive[s]:
                        lower.kill(s)
                        lo_changed = True
            if float(rng.random()) < acc:
                # interaction clock fires: slot i takes the output, window
                # permitting, and slot j the catalyst copy; the lower level
                # shares the jump when it holds the whole triple
                if out <= upper.bound_idx:
                    upper.apply_jump(i, j, l)
                else:
                    upper.escape(j, i, l)
                if all_in_lo:
                    lo_changed = True
                    if out <= lower.bound_idx:
                        lower.apply_jump(i, j, l)
                    else:
                        lower.escape(j, i, l)
            elif all_in_lo:
                continue  # a rejected candidate changed neither level
        elif u_class < r_pair + r_kill_hi:
            victim = fw.sample(float(rng.random()) * s1_hi)
            upper.kill(victim)
            if lower.alive[victim]:
                lower.kill(victim)
                lo_changed = True
        else:
            victim = int(np.searchsorted(lo_phi2, float(rng.random()) * lo_phi2[-1], side="right"))
            lower.kill(victim)
            lo_changed = True
        if np.any(lower.alive & (~upper.alive | (lower.idx != upper.idx))):
            raise AuditError("pathwise domination violated: a lower-window particle "
                             "is not alive, at its frequency, in the upper window")
        if lo_changed:
            lo_phi2 = np.cumsum(lo_phi.leaf * lo_phi.leaf)
    rec_lo.finish()
    rec_hi.finish()
    traj_lo, traj_hi = rec_lo.build(), rec_hi.build()
    for tr, b in ((traj_lo, bound_lo), (traj_hi, bound_hi)):
        tr.meta = {"t_end": t_end, "bound": b, "weight": weight.spec_string()}
    return traj_lo, traj_hi

