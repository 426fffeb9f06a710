"""The exact per-triple-clock oracle (Gillespie 1977) that judges the
thinning engine in law at small n: one table of every clock of the
particle system, and one loop that draws events from it.  O(n^3) work per
event."""

import math

import numpy as np

from fourwave.particle import MomentRecorder, _windowed


def clock_table(idx, lam, h, kernel, weight, n):
    """Every clock at the live grid indices ``idx`` and the overflow
    n * Lambda = ``lam``, for n slots.

    Each unordered pair {a, b} of live particles with each live catalyst
    c (which may be a or b) has a clock at rate K / n^2, 0 for a negative
    output: the pair becomes (output, catalyst copy).  When Lambda > 0,
    each live particle also has a kill clock at rate
    phi (Lambda^2 + 2 Lambda <phi, X>) that moves its phi-mass into the
    overflow; otherwise there are none.  Returns ((a, b, rate), the kill
    clocks' rates): the pairs' positions a < b in ``idx``, and the rates
    with one row per pair and one column per catalyst.
    """
    a, b = np.triu_indices(len(idx), k=1)
    w = idx * h
    wa, wb = w[a, None], w[b, None]
    rate = np.where(wa + wb >= w, kernel(wa, wb, w), 0.0) / (n * n)
    if not lam > 0:
        return (a, b, rate), w[:0]
    phi = np.asarray(weight(w), dtype=float)
    lam_f = lam / n
    return (a, b, rate), phi * (lam_f * lam_f + 2.0 * lam_f * phi.sum() / n)


def exact_clocks(state, kernel, t_end, rng, *, bound=None, sample_times=None,
                 record_snapshots=False):
    """Gillespie run of :func:`clock_table` from ``state`` to ``t_end``,
    drawing uniforms from ``rng.random()``: the untruncated system for
    ``bound=None``, else the truncated one on the window [0, bound] from
    the canonical overflow start, where an output beyond the window
    escapes (the jump, then a kill of the output).

    The table lists the live slots in ascending order, except that an
    escape's survivor moves to the end, and a kill drops its slot.  The
    total rate is the last entry of the cumulative table, so a draw below
    1 always picks a clock with a positive rate.  Rows (and snapshots)
    come from a :class:`MomentRecorder`; ``meta["events"]`` counts the
    events.
    """
    work = _windowed(state, bound)
    recorder = MomentRecorder(work, sample_times, t_end, snapshots=record_snapshots)
    live = np.flatnonzero(work.alive)
    t, events = 0.0, 0
    while True:
        (a, b, rate), kills = clock_table(work.idx[live], work.lam, work.h, kernel,
                                           work.weight, work.n)
        cum = np.cumsum(np.append(rate, kills))
        if not len(cum) or cum[-1] <= 0.0:
            break
        t -= math.log1p(-rng.random()) / cum[-1]
        if t >= t_end:
            break
        recorder.advance(t)
        k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        if k >= rate.size:
            work.kill(int(live[k - rate.size]))
            live = np.delete(live, k - rate.size)
        else:
            pair, c = divmod(k, len(live))
            i, j, l = int(live[a[pair]]), int(live[b[pair]]), int(live[c])
            out = int(work.idx[i] + work.idx[j] - work.idx[l])
            if work.bound_idx is not None and out > work.bound_idx:
                work.escape(i, j, l)
                live = np.append(np.delete(live, [a[pair], b[pair]]), i)
            else:
                work.apply_jump(i, j, l)
        events += 1
    recorder.finish()
    traj = recorder.build()
    traj.meta = {"t_end": t_end, "events": events}
    return traj
