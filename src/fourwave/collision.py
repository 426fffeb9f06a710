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
  kernels that decompose into rank-one terms: every slot reduces to
  discrete convolutions and prefix sums over grid extent M.  Convolutions
  of operands shorter than ``_FFT_CROSSOVER`` (640) run through the exact
  O(M^2) ``np.convolve``; longer ones through rfft in O(M log M), with
  results within about 1e-15 relative of np.convolve and exact zeros
  outside the operands' nonzero hulls.  The grid extent has no upper
  limit.  Both routes compute the same sum term-for-term; the grid route
  is what makes the large-n workloads tractable and it is cross-checked
  against the direct route in the test-suite.

The bracket vanishes identically for affine f: mass and energy are
conserved, and the grid closure under w1 + w2 - w3 makes that exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "grid_q_pairing",
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
    if method == "grid" or (method == "auto" and _grid_eligible(mu, kernel)):
        w, h = _dense_vector(mu)
        return grid_q_pairing(w, h, kernel, f)
    return trilinear_pairing(mu, mu, mu, kernel, f)


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
    weights (multiplicities allowed).
    """
    counts = x.weights * n
    if not np.allclose(counts, np.rint(counts), atol=1e-9) or round(float(counts.sum())) != n:
        raise ValueError(f"weights are not multiplicities of 1/{n} particles")
    return q_pairing(x, kernel, f, method=method) - counting_correction(x, kernel, f, n)


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
    if method == "grid" or (method == "auto"
                            and _grid_eligible(mu, kernel, _MEASURE_TRIPLE_COST)):
        w, h = _dense_vector(mu)
        parts = grid_interaction_parts(w, h, kernel, bound_idx=None)
        dw = parts.gain
        dw[: len(w)] -= parts.loss_rate * w
        idx = np.nonzero(dw)[0]
        return DiscreteMeasure.from_grid(idx, dw[idx], h)
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
    for coef, (e1, e2, e3) in kernel.rank_one_terms():
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

# Operand length from which _conv uses rfft instead of np.convolve.  Per
# call of grid_interaction_parts / grid_q_counting on a 2-core x86-64 host
# (numpy 2.4), rfft was slower at M=385 for every kernel family, about
# even at M=513 and 10-50% faster from M=641 on (2-2.5x at M=1025).
_FFT_CROSSOVER = 640


# The grid route costs about _GRID_COST * M log2 M against the direct
# route's m^3 (m atoms, grid extent M), in units of one ordered triple of
# q_pairing: its break-even measured 0.5-1.2 (product) and 1-3.5 (sum,
# mixed) for m = 50-120, M = 257-131073 on a 2-core x86-64 host.
# q_measure's direct route costs _MEASURE_TRIPLE_COST times more per triple.
_GRID_COST, _MEASURE_TRIPLE_COST = 1.5, 10.0


def _grid_eligible(mu: DiscreteMeasure, kernel, triple_cost: float = 1.0) -> bool:
    if not (mu.is_grid and hasattr(kernel, "rank_one_terms") and len(mu) > _DIRECT_BLOCK):
        return False
    extent = int(mu.idx.max()) + 1
    return _GRID_COST * extent * math.log2(extent) < triple_cost * len(mu) ** 3


def _dense_vector(mu: DiscreteMeasure) -> tuple[np.ndarray, float]:
    mu = mu.compact()
    m = int(mu.idx.max()) + 1 if len(mu) else 1
    w = np.zeros(m)
    w[mu.idx] = mu.weights
    return w, mu.h


def _conv(u: np.ndarray, v: np.ndarray, cache: dict) -> np.ndarray:
    """Full linear convolution of u and v: np.convolve below _FFT_CROSSOVER;
    at or above it rfft of the operands trimmed to their nonzero hulls, so
    the result is exactly zero outside the sum of the hulls.  ``cache``
    belongs to one call: an operand (the same array object) used again is
    transformed only once."""
    if min(len(u), len(v)) < _FFT_CROSSOVER:
        return np.convolve(u, v)
    out = np.zeros(len(u) + len(v) - 1)
    hulls = [np.flatnonzero(x) for x in (u, v)]
    if not all(len(nz) for nz in hulls):
        return out
    (ulo, uhi), (vlo, vhi) = ((int(nz[0]), int(nz[-1]) + 1) for nz in hulls)
    size = uhi - ulo + vhi - vlo - 1
    nfft = 1 << (size - 1).bit_length()
    prod = 1.0
    for x, lo, hi in ((u, ulo, uhi), (v, vlo, vhi)):
        key = (id(x), nfft)
        if key not in cache:  # x is held with its spectrum, so its id stays unique
            cache[key] = (x, np.fft.rfft(x[lo:hi], nfft))
        prod = prod * cache[key][1]
    out[ulo + vlo:ulo + vlo + size] = np.fft.irfft(prod, nfft)[:size]
    return out


def _corr(u: np.ndarray, v: np.ndarray, out_len: int, cache: dict) -> np.ndarray:
    """corr[y] = sum_l v[l] * u[y + l] for y = 0 .. out_len-1 <= len(u)-1."""
    v_rev = cache.setdefault(("reversed", id(v)), (v, v[::-1]))[1]  # one view per v: spectrum cached
    return _conv(u, v_rev, cache)[len(v) - 1:len(v) - 1 + out_len]


def _cap(d: np.ndarray, size: int) -> np.ndarray:
    """Prefix sums of d, held at the total out to length ``size``."""
    cum = np.cumsum(d)
    return np.concatenate([cum, np.full(size - len(d), cum[-1])])


def _rank_one_terms(w: np.ndarray, h: float, kernel: Kernel, cache: dict):
    """Per-term core of the grid route: for each kernel term coef * w1**e1 *
    w2**e2 * w3**e3 yields coef, the grid powers x1 = x**e1 and x2 = x**e2,
    the slot vectors a = x1*w, b = x2*w and d = x**e3*w, the pair sums
    cab = a*b and the slot-3 prefix sums dcap over 0..2M-2.  Terms sharing
    an exponent share its arrays (and through ``cache`` their spectra)."""
    grid = np.arange(len(w)) * h
    terms = kernel.rank_one_terms()
    powers = {e: grid ** e for _, exps in terms for e in exps}
    slots = {e: x * w for e, x in powers.items()}
    caps = {e3: _cap(slots[e3], 2 * len(w) - 1) for _, (_, _, e3) in terms}
    for coef, (e1, e2, e3) in terms:
        a, b = slots[e1], slots[e2]
        yield coef, powers[e1], powers[e2], a, b, slots[e3], _conv(a, b, cache), caps[e3]


def grid_q_pairing(w: np.ndarray, h: float, kernel: Kernel, f) -> float:
    """<f, Q(mu)> for mu given as a dense weight vector on the h-grid."""
    fvec = np.asarray(f(np.arange(2 * len(w) - 1) * h), dtype=float)
    return grid_q_counting(w, h, kernel, fvec, None)


def grid_q_counting(w: np.ndarray, h: float, kernel: Kernel, fvec: np.ndarray,
                    n: int | None) -> float:
    """<f, Q^(n)> for a dense grid weight vector, with f pre-evaluated on
    the extended grid 0 .. 2*len(w)-2; ``n=None`` leaves out the diagonal
    correction, giving <f, Q(mu)>.  The hot path of the martingale drift.

    Exact rearrangement of the ordered-triple sum: per rank-one term the
    slots decouple into convolutions against the pair-sum axis plus prefix
    sums along slot 3; the diagonal separates the same way at pair sum 2i.
    """
    m = len(w)
    if m == 0:
        return 0.0
    smax = 2 * m - 1
    f = fvec[:smax]
    fm = f[:m]
    two_x = 2 * np.arange(m)
    cache = {}
    total = diag = 0.0
    for coef, x1, x2, a, b, d, cab, dcap in _rank_one_terms(w, h, kernel, cache):
        g_out = _conv(d, f, cache)[:smax]
        dfcap = _cap(d * fm, smax)
        t_out = float(np.dot(cab, g_out))
        t_l = float(np.dot(cab, dfcap))
        t_1 = float(np.dot(_conv(a * fm, b, cache), dcap))
        # slots 1 and 2 swap into each other when their vectors coincide
        t_2 = t_1 if a is b else float(np.dot(_conv(a, b * fm, cache), dcap))
        total += coef * (t_out + t_l - t_1 - t_2)
        if n is not None:
            diag += coef * float(np.dot(x1 * x2 * w, g_out[two_x] + dfcap[two_x]
                                        - 2.0 * fm * dcap[two_x]))
    return 0.5 * total if n is None else 0.5 * total - 0.5 / n * diag


@dataclass
class GridInteractionParts:
    """Interaction right-hand side split for the grid window.

    ``gain`` is the scattered inflow (output-atom plus slot-3 copies);
    ``loss_rate`` is the outflow rate per unit weight at each grid site;
    ``escape_rate`` is the phi-weighted rate at which interaction outputs
    land beyond the window (zero when unbounded, where ``gain`` instead
    extends over the full reachable range 0..2M-2).
    """

    gain: np.ndarray
    loss_rate: np.ndarray
    escape_rate: float


def grid_interaction_parts(w: np.ndarray, h: float, kernel: Kernel,
                           bound_idx: int | None) -> GridInteractionParts:
    """Scatter form of the interaction operator on a dense grid vector.

    With ``bound_idx = M-1`` the gain is confined to the window and the
    escaping output mass is returned in ``escape_rate``, weighted by the
    affine phi(w) = w + 1; with ``bound_idx = None`` the full signed
    scatter over 0..2M-2 is produced (untruncated q_measure).  ``loss_rate``
    never depends on the bound.
    """
    m = len(w)
    if m == 0:
        return GridInteractionParts(np.zeros(0), np.zeros(0), 0.0)
    if bound_idx is not None and bound_idx != m - 1:
        raise ValueError("dense window must end at the truncation bound")
    smax = 2 * m - 1
    gain = np.zeros(smax)
    loss_rate = np.zeros(m)
    cache = {}
    for coef, x1, x2, a, b, d, cab, dcap in _rank_one_terms(w, h, kernel, cache):
        half = 0.5 * coef
        # slot-3 gain: catalyst at l collects every pair with i+j >= l
        gain[:m] += half * d * np.cumsum(cab[::-1])[::-1][:m]
        # output gain over y = (i+j) - l
        gain += half * _corr(cab, d, smax, cache)
        # per-unit-weight loss rates in slots 1 and 2
        lr1 = x1 * _corr(dcap, b, m, cache)
        lr2 = lr1 if a is b else x2 * _corr(dcap, a, m, cache)
        loss_rate += half * (lr1 + lr2)
    if bound_idx is None:
        return GridInteractionParts(gain, loss_rate, 0.0)
    phi_out = np.asarray(AFFINE(np.arange(m, smax) * h), dtype=float)
    return GridInteractionParts(gain[:m], loss_rate, float(np.dot(gain[m:], phi_out)))
