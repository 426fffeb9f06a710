"""Algebra of the collision operator.

The weak trilinear form pairs a test function f against three measures:

    <f, Q(mu, nu, tau)> = 1/2 * sum over atom triples (w1, w2, w3) with
        w1 + w2 >= w3 of  K(w1,w2,w3) * m1 * m2 * m3 *
        [ f(w1+w2-w3) + f(w3) - f(w2) - f(w1) ]

Ordered triples are summed with the 1/2 prefactor exactly as displayed in
the weak formulation; symmetry of K in its first two slots makes this
equivalent to unordered-pair summation, and the tests assert as much.

Two evaluation routes exist:

* a direct ordered-triple sum (``method="direct"``), the reference
  implementation, vectorised in blocks and costing O(m^3);
* a grid route (``method="grid"``) for measures on a common dyadic grid and
  a :class:`Kernel`, whose terms are rank-one: every slot reduces to
  discrete convolutions and prefix sums over grid extent M, with each
  slot-swapped pair of kernel terms folded into one.  Vectors shorter
  than ``_FFT_CROSSOVER`` (640) run through the exact O(M^2)
  ``np.convolve``; longer ones are one-row stacks.  Stacks of states
  along a leading axis (Picard's time points, a martingale path's states)
  run through rfft in O(M log M) with one spectrum per operand, within
  about 1e-15 relative of np.convolve: ``grid_interaction_parts`` over
  the rows' union nonzero hull, exactly zero outside it, with pair sums
  as products of spectra and correlations as products with a conjugate
  spectrum; ``grid_q_counting`` over the whole extent, so that a row's
  value does not depend on the other rows.  The grid extent has no
  upper limit.  Both routes compute the same sum; the grid route is what
  makes the large-n workloads tractable and it is cross-checked against
  the direct route in the test-suite.  ``method="auto"`` takes it for a
  grid measure and a :class:`Kernel` whenever it is the cheaper one.

The bracket vanishes identically for affine f: mass and energy are
conserved, and the grid closure under w1 + w2 - w3 makes that exact.  The
direct route sums each bracket; the grid route first subtracts f's affine
interpolant on the grid.  So for f = a + b*w on a dyadic grid both routes
give exactly 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .kernels import AFFINE, Kernel
from .measures import DiscreteMeasure

__all__ = [
    "TruncatedState",
    "q_pairing",
    "q_counting",
    "q_measure",
    "trilinear_pairing",
    "l_b_pairing",
    "counting_correction",
    "q_pairing_powermoment",
    "grid_q_counting",
    "grid_interaction_parts",
]

_DIRECT_BLOCK = 48  # first-axis block size for the O(m^3) route


@dataclass(frozen=True)
class TruncatedState:
    """Pair (measure supported on [0, bound], overflow scalar).

    The overflow upper-bounds the influence of mass outside the window; it
    is nonnegative and only ever grows along trajectories.
    """

    inner: DiscreteMeasure
    overflow: float
    bound: float

    def __post_init__(self):
        if self.overflow < 0:
            raise ValueError("overflow must be nonnegative")
        if len(self.inner) and self.inner.positions.max() > self.bound:
            raise ValueError("inner measure must be supported on [0, bound]")


# --------------------------------------------------------------------------
# direct ordered-triple route
# --------------------------------------------------------------------------

def _triple_blocks(p1: np.ndarray, p2: np.ndarray, p3: np.ndarray):
    """Ordered triples in blocks of _DIRECT_BLOCK along slot 1, broadcast to
    3-d: (slot-1 slice, x1, x2, x3, out = x1 + x2 - x3, out >= 0)."""
    x2, x3 = p2[None, :, None], p3[None, None, :]
    for lo in range(0, len(p1), _DIRECT_BLOCK):
        sl = slice(lo, lo + _DIRECT_BLOCK)
        x1 = p1[sl][:, None, None]
        out = x1 + x2 - x3
        yield sl, x1, x2, x3, out, out >= 0


def trilinear_pairing(mu: DiscreteMeasure, nu: DiscreteMeasure, tau: DiscreteMeasure,
                      kernel, f) -> float:
    """General trilinear form with mu, nu, tau in slots 1, 2, 3.

    Linear in each slot and symmetric in the first two; *not* symmetric
    under swapping slot 3 with either of the others.  Signed measures are
    allowed.  Reduces to ``q_pairing`` when all three slots coincide.
    """
    p1, w1 = mu.positions, mu.weights
    p2, w2 = nu.positions, nu.weights
    p3, w3 = tau.positions, tau.weights
    total = 0.0
    for a, x1, x2, x3, out, mask in _triple_blocks(p1, p2, p3):
        bracket = f(np.where(mask, out, 0.0)) + f(x3) - f(x2) - f(x1)
        contrib = (kernel(x1, x2, x3) * bracket * mask
                   * w1[a][:, None, None] * w2[None, :, None] * w3[None, None, :])
        total += float(np.sum(contrib))
    return 0.5 * total


def q_pairing(mu: DiscreteMeasure, kernel, f, method: str = "auto") -> float:
    """<f, Q(mu, mu, mu)> for a finite atomic (possibly signed) measure."""
    top = _grid_top(mu, kernel, method)
    if top is None:
        return trilinear_pairing(mu, mu, mu, kernel, f)
    return _grid_pairing(mu, top, kernel, f, None)


def counting_correction(x: DiscreteMeasure, kernel, f, n: int) -> float:
    """Diagonal term removed by the finite-n counting measure.

    Equals (1/2n) * sum over (w2, w3) with 2*w2 >= w3 of
    K(w2,w2,w3) * m2 * m3 * [f(2*w2-w3) + f(w3) - 2*f(w2)]; the correction
    excludes a particle from occupying both of the first two slots.
    """
    p, w = x.positions, x.weights
    if len(p) == 0:
        return 0.0
    x2 = p[:, None]
    x3 = p[None, :]
    out = 2.0 * x2 - x3
    mask = out >= 0.0
    bracket = f(np.where(mask, out, 0.0)) + f(x3) - 2.0 * f(x2)
    contrib = kernel(x2, x2, x3) * bracket * mask * w[:, None] * w[None, :]
    return 0.5 / n * float(np.sum(contrib))


def q_counting(x: DiscreteMeasure, kernel, f, n: int, method: str = "auto") -> float:
    """<f, Q^(n)(X)> for an empirical measure of n unit-1/n particles.

    The counting measure keeps slot 3 free but forbids the same particle in
    slots 1 and 2, so the full triple product is reduced by the diagonal
    correction.  ``n`` must match the particle count encoded in the
    weights (multiplicities allowed): every count n * weight must be a
    whole number to within 1e-9 of itself (at least 1e-9), and the counts
    must sum to n.  The direct route subtracts ``counting_correction`` from
    the triple sum; the grid route evaluates the diagonal in the grid core.
    """
    counts = x.weights * n
    whole = np.abs(counts - np.rint(counts)) <= 1e-9 * np.maximum(counts, 1.0)
    if not whole.all() or round(float(counts.sum())) != n:
        raise ValueError(f"weights are not multiplicities of 1/{n} particles")
    top = _grid_top(x, kernel, method)
    if top is None:
        return trilinear_pairing(x, x, x, kernel, f) - counting_correction(x, kernel, f, n)
    return _grid_pairing(x, top, kernel, f, n)


def q_measure(mu: DiscreteMeasure, kernel, method: str = "auto") -> DiscreteMeasure:
    """Materialise Q(mu, mu, mu) as a signed grid measure.

    Scatters +-(1/2) K m1 m2 m3 onto the four target atoms of every ordered
    admissible triple.  Requires grid mode so that w1 + w2 - w3 lands
    exactly on the grid; ``moment(q_measure(mu), f) == q_pairing(mu, f)``
    for every f.
    """
    if not mu.is_grid:
        raise ValueError("q_measure requires a grid-mode measure (grid closure)")
    mu = mu.compact()
    if len(mu) == 0:
        return DiscreteMeasure.zero(mu.h)
    top = _grid_top(mu, kernel, method, _MEASURE_TRIPLE_COST)
    if top is not None:
        w = mu.dense(top + 1)
        parts = grid_interaction_parts(w, mu.h, kernel, bound_idx=None)
        dw = parts.gain
        dw[: len(w)] -= parts.loss_rate * w
        return DiscreteMeasure.from_dense(dw, mu.h)
    return _q_measure_direct(mu, kernel)


def _q_measure_direct(mu: DiscreteMeasure, kernel) -> DiscreteMeasure:
    idx, w, h = mu.idx, mu.weights, mu.h
    acc_idx, acc_w = [], []
    for a, i1, i2, i3, iout, mask in _triple_blocks(idx, idx, idx):
        c = (0.5 * kernel(i1 * h, i2 * h, i3 * h)
             * w[a][:, None, None] * w[None, :, None] * w[None, None, :]) * mask
        shape = c.shape
        for target, sign in ((np.where(mask, iout, 0), 1.0),
                             (np.broadcast_to(i3, shape), 1.0),
                             (np.broadcast_to(i2, shape), -1.0),
                             (np.broadcast_to(i1, shape), -1.0)):
            acc_idx.append(target.ravel())
            acc_w.append(sign * c.ravel())
    out = DiscreteMeasure.from_grid(np.concatenate(acc_idx), np.concatenate(acc_w), h)
    return out.compact()


def l_b_pairing(state: TruncatedState, kernel, f) -> tuple[float, float]:
    """Parts of the pairing of (f, a) against the truncated generator at
    (mu, lambda).

    Returns ``(fpart, lamdot)``; callers form the total pairing
    fpart + a * lamdot themselves.  ``fpart`` collects every f-dependent
    term (interaction bracket with the in-window indicator plus the
    overflow-coupling loss), ``lamdot`` is the overflow growth rate
    (escaping interaction output plus coupling gain).
    phi is the affine weight w + 1.  With f = phi and a = 1 the two cancel
    exactly: the interaction bracket is zero for affine phi, which is the
    conservation law <phi, mu> + lambda = const.  Both summands of
    ``lamdot`` are nonnegative on nonnegative states, so the overflow never
    shrinks.
    """
    mu = state.inner
    lam, bound = state.overflow, state.bound
    p, w = mu.positions, mu.weights
    phi_vals = np.asarray(AFFINE(p), dtype=float)
    lfac = lam * lam + 2.0 * lam * float(np.sum(phi_vals * w))
    fpart_q = 0.0
    lam_q = 0.0
    for sl, x1, x2, x3, out, dmask in _triple_blocks(p, p, p):
        inb = dmask & (out <= bound)
        esc = dmask & ~inb
        out_safe = np.where(dmask, out, 0.0)
        c = (0.5 * kernel(x1, x2, x3) * dmask
             * w[sl][:, None, None] * w[None, :, None] * w[None, None, :])
        bracket_f = f(out_safe) * inb + f(x3) - f(x2) - f(x1)
        fpart_q += float(np.sum(c * bracket_f))
        lam_q += float(np.sum(c * (np.asarray(AFFINE(out_safe), dtype=float) * esc)))
    floss = float(np.sum(np.asarray(f(p), dtype=float) * phi_vals * w))
    phi2 = float(np.sum(phi_vals * phi_vals * w))
    fpart = fpart_q - lfac * floss
    lamdot = lam_q + lfac * phi2
    return fpart, lamdot


# --------------------------------------------------------------------------
# power-moment cross-check (indicator-free supports)
# --------------------------------------------------------------------------

def q_pairing_powermoment(mu: DiscreteMeasure, kernel: Kernel, p: int) -> float:
    """<w**p, Q(mu)> via pure moment algebra, valid only when the
    interaction indicator never bites (for instance supp(mu) in [a, 2a]).

    Expands (w1 + w2 - w3)**p multinomially, so every slot separates into
    power moments of the rank-one kernel factors.  Serves as an independent
    cross-check of the triple-sum routes on indicator-free subdomains.
    """
    pos, w = mu.positions, mu.weights
    if len(pos) == 0:
        return 0.0
    lo = pos.min()
    if lo <= 0 or pos.max() > 2.0 * lo:
        raise ValueError("power-moment route needs support in [a, 2a], a > 0")
    total = 0.0
    for coef, (e1, e2, e3) in kernel.terms:
        def mom(extra: float, exp: float) -> float:
            return float(np.sum(pos ** (extra + exp) * w)) if extra or exp else float(np.sum(w))

        m1 = [mom(al, e1) for al in range(p + 1)]
        m2 = [mom(al, e2) for al in range(p + 1)]
        m3 = [mom(al, e3) for al in range(p + 1)]
        t_out = 0.0
        for al in range(p + 1):
            for be in range(p + 1 - al):
                ga = p - al - be
                mult = math.factorial(p) // (math.factorial(al) * math.factorial(be) * math.factorial(ga))
                t_out += mult * (-1.0) ** ga * m1[al] * m2[be] * m3[ga]
        t_l = m1[0] * m2[0] * m3[p]
        t_2 = m1[0] * m2[p] * m3[0]
        t_1 = m1[p] * m2[0] * m3[0]
        total += coef * (t_out + t_l - t_2 - t_1)
    return 0.5 * total


# --------------------------------------------------------------------------
# grid (convolution) route
# --------------------------------------------------------------------------

# Vector length from which the grid route uses rfft.  Per call on a
# 2-core x86-64 host (numpy 2.4), grid_interaction_parts breaks even at
# M = 385-513 (product, sum) and 513-641 (mixed); grid_q_counting, with
# one spectrum per operand, at 385-513 (product, sum) and 513-641
# (mixed).  640 keeps the CLI's M = 257 solves on the exact np.convolve.
_FFT_CROSSOVER = 640


# The grid route costs about _GRID_COST * M log2 M against the direct
# route's m^3 (m atoms, grid extent M), in units of one ordered triple of
# q_pairing.  On a 2-core x86-64 host (numpy 2.4) the break-even read
# 0.5-1.2 (product) and 1-3.5 (sum, mixed) for m = 50-120, M = 257-131073;
# for q_pairing and q_counting at m = 8-48, M = 8-4097 it read about 1
# (product, mixed) and 1.3-4.5 (sum), and below m = 8 both routes cost
# 20-50 us, mostly call overhead.  Over those m = 2-48 cases 1.0 came
# within 1.5% of the faster route's summed time, 1.5 within 9%.
# q_measure's direct route costs _MEASURE_TRIPLE_COST times more per triple.
_GRID_COST, _MEASURE_TRIPLE_COST = 1.0, 10.0


def _grid_top(mu: DiscreteMeasure, kernel, method: str, triple_cost: float = 1.0) -> int | None:
    """mu's top grid index if ``method`` sends mu to the grid route, else
    None: "grid" always (a continuous-mode mu or a bare callable kernel
    raises ValueError), "direct" never, "auto" for a nonempty grid measure
    and a Kernel by the cost rule above; any other method raises ValueError."""
    if method not in ("auto", "grid", "direct"):
        raise ValueError(f"method must be 'auto', 'grid' or 'direct', got {method!r}")
    if method == "grid":
        if not mu.is_grid:
            raise ValueError("the grid route needs a grid-mode measure (grid closure)")
        if not isinstance(kernel, Kernel):
            raise ValueError("the grid route needs a Kernel, not a bare callable")
        return int(mu.idx.max(initial=0))
    if method == "direct" or not (mu.is_grid and isinstance(kernel, Kernel) and len(mu)):
        return None
    top = int(mu.idx.max())
    return top if _GRID_COST * (top + 1) * math.log2(top + 1) < triple_cost * len(mu) ** 3 else None


def _grid_pairing(mu: DiscreteMeasure, top: int, kernel: Kernel, f, n: int | None) -> float:
    """grid_q_counting on mu's dense weight vector, over the extent of its
    compacted atoms (atoms at one site sum as compact() sums them)."""
    w = mu.dense(top + 1)
    if w[-1] == 0.0:  # the top site's atoms cancel: compact() would drop it
        w = w[:int(np.flatnonzero(w).max(initial=0)) + 1]
    fvec = np.asarray(f(np.arange(2 * len(w) - 1) * mu.h), dtype=float)
    return grid_q_counting(w, mu.h, kernel, fvec, n)


# Grid values (rows times M) per stacked call of the grid core in picard
# and extract_martingale.  Under tracemalloc (numpy 2.4) a Picard run at
# M = 257 peaked at 4.7 MiB in one call and at 1.5 MiB in such blocks.
_STACK_VALUES = 4096


def _stack_rows(m: int) -> int:
    """Rows of extent m per stacked call within _STACK_VALUES."""
    return max(1, _STACK_VALUES // m)


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.dot(x[..., r, :], y[..., r, :]) for every row of x, with y one
    vector for all rows or a stack of its own.  Each row's bits do not
    depend on how many rows share the call (a matrix np.dot rounds its
    last rows differently), and two vectors get np.dot's own result."""
    if x.ndim == y.ndim == 1:
        return np.dot(x, y)
    return np.matmul(x[..., None, :], y[..., None])[..., 0, 0]


def _fft_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: pocketfft is fastest on such lengths."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _cap(d: np.ndarray, size: int) -> np.ndarray:
    """Prefix sums of d along the last axis, held at the total out to
    length ``size``."""
    padded = np.zeros(d.shape[:-1] + (size,))
    padded[..., :d.shape[-1]] = d
    return padded.cumsum(axis=-1)


def _frozen(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


@functools.lru_cache(maxsize=32)
def _grid_constants(m: int, h: float, kernel: Kernel):
    """What the grid core needs of extent m, grid h and a kernel, computed
    once per key and read-only: the folded kernel terms, the grid powers
    x**e keyed by exponent, and phi(w) = w + 1 on the escaping outputs
    m .. 2m-2.  Keyed on the (hashable, frozen) Kernel itself: another h
    or kernel of the same extent is another entry.  Two terms that swap
    slots 1 and 2 have equal pair sums and gains and swapped loss rates,
    so they fold into one with the summed coefficient: ``sum`` keeps 2 of
    its 3 terms and ``mixed`` 1 of 2."""
    folded = {}
    for coef, (e1, e2, e3) in kernel.terms:
        key = (min(e1, e2), max(e1, e2), e3)
        total, exps = folded.get(key, (0.0, (e1, e2, e3)))
        folded[key] = (total + coef, exps)
    terms = tuple(folded.values())
    grid = np.arange(m) * h
    powers = MappingProxyType({e: _frozen(grid ** e) for _, exps in terms for e in exps})
    phi_out = _frozen(np.asarray(AFFINE(np.arange(m, 2 * m - 1) * h), dtype=float))
    return terms, powers, phi_out


def _loss_corr(cross: np.ndarray, const: np.ndarray, n: int, u: int, m: int) -> np.ndarray:
    """corr[..., i] = sum_j v[j] * dcap[i + j], i < m, dcap the prefix sums
    of d, from the n-point cross spectrum D * conj(V) over the common hull
    of length u: the sum of the lags k <= i of sum_j v[j] * d[j + k].  From
    i = u - 1 on every lag counts: there corr is ``const`` = sum(d) sum(v)."""
    lags = np.fft.irfft(cross, n)[..., np.arange(1 - u, u - 1)]
    corr = np.empty(const.shape + (m,))
    corr[..., :u - 1] = np.cumsum(lags, axis=-1)[..., u - 1:]
    corr[..., u - 1:] = const[..., None]
    return corr


def grid_q_counting(w: np.ndarray, h: float, kernel: Kernel, fvec: np.ndarray,
                    n: int | None) -> float | np.ndarray:
    """<f, Q^(n)> for a dense grid weight vector, with f pre-evaluated on
    the extended grid 0 .. 2*M-2; a stack of vectors along the last axis
    gives one value per row.  ``n=None`` leaves out the diagonal
    correction, giving <f, Q(mu)>.  The hot path of the martingale drift,
    which evaluates the states of its path in stacks.

    Exact rearrangement of the ordered-triple sum: per rank-one term the
    slots decouple into convolutions against the pair-sum axis plus prefix
    sums along slot 3; the diagonal separates the same way at pair sum 2i.
    A stack transforms each slot vector, each slot vector times f, and f
    once, over the whole extent M, so with _row_dot a row's value does not
    depend on the other rows in the call.
    """
    m = w.shape[-1]
    if w.ndim == 1 and m >= _FFT_CROSSOVER:
        return float(grid_q_counting(w[None], h, kernel, fvec, n)[0])
    if m == 0:
        return 0.0 if w.ndim == 1 else np.zeros(w.shape[:-1])
    smax = 2 * m - 1
    # the bracket annihilates a + b w, so f less its affine interpolant
    # through sites 0 and 1 gives the same sum, and an affine f on a dyadic
    # grid leaves exactly 0 on every path
    f = fvec[:smax] - (fvec[0] + (fvec[1] - fvec[0] if smax > 1 else 0.0) * np.arange(smax))
    fm = f[:m]
    terms, powers, _ = _grid_constants(m, h, kernel)
    slots = {e: x * w for e, x in powers.items()}
    if w.ndim == 1:
        fwd, conv = (lambda x: x), (lambda x, y: np.convolve(x, y)[:smax])
    else:
        # d * f, the longest convolution, reaches 3M - 3: no wrap below smax
        nfft = _fft_len(3 * m - 2)
        fwd, conv = ((lambda x: np.fft.rfft(x, nfft)),
                     (lambda x, y: np.fft.irfft(x * y, nfft)[..., :smax]))
    spec = {e: fwd(x) for e, x in slots.items()}
    spec_fm = {e: fwd(slots[e] * fm) for e in {e for _, exps in terms for e in exps[:2]}}
    spec_f = fwd(f)
    total = diag = 0.0
    for coef, (e1, e2, e3) in terms:
        d = slots[e3]
        cab = conv(spec[e1], spec[e2])
        dcap = _cap(d, smax)
        g_out = conv(spec[e3], spec_f)
        dfcap = _cap(d * fm, smax)
        t_out = _row_dot(cab, g_out)
        t_l = _row_dot(cab, dfcap)
        t_1 = _row_dot(conv(spec_fm[e1], spec[e2]), dcap)
        # slots 1 and 2 swap into each other when their vectors coincide
        t_2 = t_1 if e1 == e2 else _row_dot(conv(spec[e1], spec_fm[e2]), dcap)
        total += coef * (t_out + t_l - t_1 - t_2)
        if n is not None:
            diag += coef * _row_dot(powers[e1] * powers[e2] * w, g_out[..., ::2]
                                    + dfcap[..., ::2] - 2.0 * fm * dcap[..., ::2])
    out = 0.5 * total if n is None else 0.5 * total - 0.5 / n * diag
    return float(out) if w.ndim == 1 else out


@dataclass
class GridInteractionParts:
    """Interaction right-hand side split for the grid window.

    ``gain`` is the scattered inflow (output-atom plus slot-3 copies);
    ``loss_rate`` is the outflow rate per unit weight at each grid site;
    ``escape_rate`` is the phi-weighted rate at which interaction outputs
    land beyond the window (zero when unbounded, where ``gain`` instead
    extends over the full reachable range 0..2M-2).  For a stack of states
    every field has the stack's leading axes: ``escape_rate`` holds one
    entry per row.
    """

    gain: np.ndarray
    loss_rate: np.ndarray
    escape_rate: float | np.ndarray


def grid_interaction_parts(w: np.ndarray, h: float, kernel: Kernel,
                           bound_idx: int | None) -> GridInteractionParts:
    """Scatter form of the interaction operator on a dense grid vector, or
    on a stack of them along the last axis.

    With ``bound_idx = M-1`` the gain is confined to the window and the
    escaping output mass is returned in ``escape_rate``, weighted by the
    affine phi(w) = w + 1; with ``bound_idx = None`` the full signed
    scatter over 0..2M-2 is produced (untruncated q_measure).  ``loss_rate``
    never depends on the bound.
    """
    m = w.shape[-1]
    no_escape = np.zeros(w.shape[:-1])[()]  # 0.0 for a vector, one zero per row for a stack
    if m == 0:
        return GridInteractionParts(np.zeros(w.shape), np.zeros(w.shape), no_escape)
    if bound_idx is not None and bound_idx != m - 1:
        raise ValueError("dense window must end at the truncation bound")
    smax = 2 * m - 1
    gain = np.zeros(w.shape[:-1] + (smax,))
    loss_rate = np.zeros(w.shape)
    terms, powers, phi_out = _grid_constants(m, h, kernel)
    slots = {e: x * w for e, x in powers.items()}
    if w.ndim == 1 and m < _FFT_CROSSOVER:
        for coef, (e1, e2, e3) in terms:
            half = 0.5 * coef
            a, b, d = slots[e1], slots[e2], slots[e3]
            cab = np.convolve(a, b)
            dcap = _cap(d, smax)
            # slot-3 gain: catalyst at l collects every pair with i+j >= l
            # (np.add.accumulate is np.cumsum's loop without its wrapper)
            gain[:m] += half * d * np.add.accumulate(cab[::-1])[::-1][:m]
            # output gain over y = (i+j) - l
            gain += half * np.convolve(cab, d[::-1])[m - 1:m - 1 + smax]
            # per-unit-weight loss rates in slots 1 and 2; coef * lr1 is
            # half * (lr1 + lr1) bit for bit
            lr1 = powers[e1] * np.correlate(dcap, b, "valid")
            loss_rate += (coef * lr1 if e1 == e2
                          else half * (lr1 + powers[e2] * np.correlate(dcap, a, "valid")))
    elif len(nz := np.flatnonzero(w.reshape(-1, m).any(axis=0))):
        # slot vectors live on the rows' union hull [lo, hi): one spectrum
        # each, long enough that no correlation wraps onto a kept output
        lo, hi = int(nz[0]), int(nz[-1]) + 1
        u = hi - lo
        nfft = _fft_len(3 * u - 2)
        spec = {e: np.fft.rfft(s[..., lo:hi], nfft) for e, s in slots.items()}
        tot = {e: s.sum(axis=-1) for e, s in slots.items()}
        outs = np.arange(max(1 - u, -lo), min(2 * u - 1, smax - lo))  # kept y - lo
        first = np.maximum(np.arange(u) - lo, 0)  # first pair sum 2lo + k a catalyst collects
        for coef, (e1, e2, e3) in terms:
            half = 0.5 * coef
            ab = spec[e1] * spec[e2]
            cab = np.fft.irfft(ab, nfft)[..., :2 * u - 1]  # pair sums 2lo .. 2hi-2
            gain[..., lo:hi] += (half * slots[e3][..., lo:hi]
                                 * np.cumsum(cab[..., ::-1], axis=-1)[..., ::-1][..., first])
            gain[..., lo + outs[0]:lo + outs[-1] + 1] += (
                half * np.fft.irfft(ab * spec[e3].conj(), nfft)[..., outs])
            lr1 = powers[e1] * _loss_corr(spec[e3] * spec[e2].conj(), tot[e3] * tot[e2],
                                          nfft, u, m)
            lr2 = lr1 if e1 == e2 else powers[e2] * _loss_corr(
                spec[e3] * spec[e1].conj(), tot[e3] * tot[e1], nfft, u, m)
            loss_rate += half * (lr1 + lr2)
    if bound_idx is None:
        return GridInteractionParts(gain, loss_rate, no_escape)
    return GridInteractionParts(gain[..., :m], loss_rate, _row_dot(gain[..., m:], phi_out))
