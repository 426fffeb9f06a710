"""Acceptance suite: one test per acceptance criterion, each printing a
pass line with the measured quantities (run with ``pytest -s`` to see them
inline).  Tolerances are pinned here and nowhere else."""

import math
import time

import numpy as np
import pytest

from fourwave.analysis import (fit_loglog_slope, martingale_stats,
                               mean_field_convergence, powerlaw_fit)
from fourwave.collision import (TruncatedState, counting_correction, l_b_pairing, q_pairing,
                                q_counting, trilinear_pairing)
from fourwave.kernels import AFFINE, parse_kernel, parse_weight
from fourwave.measures import DiscreteMeasure, moment, quantize
from fourwave.particle import (ParticleState, init, make_rng, simulate, simulate_coupled,
                               simulate_truncated)
from fourwave.solver import (SolverConfig, picard, phi2_bound, solve_limit,
                             solve_truncated, zeta)

from clock_oracle import clock_table, exact_clocks

PROD1 = parse_kernel("product:lambda=1")


def quantized_exponential(n_atoms: int, h: float, seed: int) -> DiscreteMeasure:
    rng = np.random.default_rng(seed)
    vals = rng.exponential(1.0, size=n_atoms)
    return quantize(DiscreteMeasure.from_points(vals, np.full(n_atoms, 1.0 / n_atoms)), h)


def smooth_indicator(x):
    """Smoothed indicator of [0, 2]: 1 below 1.75, cubic ramp to 0 at 2.25."""
    x = np.asarray(x, dtype=float)
    t = np.clip((x - 1.75) / 0.5, 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def ks_statistic(a, b) -> float:
    a, b = np.sort(np.asarray(a)), np.sort(np.asarray(b))
    grid = np.concatenate([a, b])
    ca = np.searchsorted(a, grid, side="right") / len(a)
    cb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(ca - cb)))


def test_01_exact_particle_conservation():
    """Product(1), affine, n=1000, h=2^-20, Exp(1) start, t=1: W and E
    drift exactly zero in grid-integer arithmetic, within 10 s."""
    t0 = time.monotonic()
    h = 2.0 ** -20
    mu0 = quantized_exponential(4000, h, seed=101)
    state = init(1000, mu0, h, seed=7)
    traj = simulate(state, PROD1, AFFINE, 1.0, seed=7, stream=0, record_events=True)
    elapsed = time.monotonic() - t0
    assert len(traj.events) > 0
    assert np.all(traj.W == traj.W[0])
    assert np.all(traj.energy_idx == traj.energy_idx[0])  # int64 equality
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1: PASS - {len(traj.events)} jumps, integer energy "
          f"drift 0, W drift 0, {elapsed:.2f}s < 10s")


def test_02_collision_operator_identities():
    """100 random atomic measures: affine cancellations at 1e-12 relative
    and the trilinear decomposition at 1e-10 relative, within 5 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    worst_cons, worst_tri = 0.0, 0.0
    f = lambda x: np.exp(-np.asarray(x) / 2.0)
    for _ in range(100):
        m = int(rng.integers(2, 31))
        mu = DiscreteMeasure.from_points(rng.uniform(0.0, 6.0, m),
                                         rng.uniform(0.05, 1.0, m))
        top = float(mu.positions.max())
        scale = 0.5 * float(PROD1.eval(top, top, top)) * mu.mass() ** 3 * 4.0
        for g, gscale in [(lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0),
                          (lambda x: np.asarray(x, dtype=float), max(top, 1.0))]:
            resid = abs(q_pairing(mu, PROD1, g)) / (scale * gscale + 1e-300)
            worst_cons = max(worst_cons, resid)
        nu = DiscreteMeasure.from_points(rng.uniform(0.0, 6.0, m),
                                         rng.uniform(0.05, 1.0, m))
        lhs = q_pairing(mu, PROD1, f) - q_pairing(nu, PROD1, f)
        rhs = (trilinear_pairing(mu + nu, mu - nu, mu, PROD1, f)
               + trilinear_pairing(mu + nu, nu, mu - nu, PROD1, f)
               + trilinear_pairing(mu, nu, nu - mu, PROD1, f))
        worst_tri = max(worst_tri, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-12))
    elapsed = time.monotonic() - t0
    assert worst_cons <= 1e-12
    assert worst_tri <= 1e-10
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2: PASS - conservation residual {worst_cons:.2e} <= 1e-12, "
          f"trilinear residual {worst_tri:.2e} <= 1e-10, {elapsed:.2f}s < 5s")


def test_03_counting_measure_correction():
    """|q_counting - q_pairing| scales like 1/n and stays below the
    explicit diagonal bound (2/n) ||f|| sup K ||X||^2."""
    f = lambda x: np.cos(np.asarray(x))
    ns = [100, 1000, 10000]
    diffs, bounds = [], []
    for n in ns:
        x = quantized_exponential(n, 2.0 ** -4, seed=1234 + n).compact()
        qp = q_pairing(x, PROD1, f)
        qc = q_counting(x, PROD1, f, n)
        top = float(x.positions.max())
        lam = float(PROD1.eval(top, top, top))
        diffs.append(abs(qc - qp))
        bounds.append(2.0 / n * 1.0 * lam * x.mass() ** 2)
    slope, _ = fit_loglog_slope(ns, diffs)
    assert all(d <= b for d, b in zip(diffs, bounds))
    assert -1.1 <= slope <= -0.9
    print(f"\nACCEPTANCE 3: PASS - slope {slope:.3f} in [-1.1, -0.9], "
          f"diffs below diagonal bound for n in {ns}")


def test_04_martingale_bound_and_scaling():
    """E[sup_t |M|^2] below 32 ||f||^2 Lambda^2 t / n for every n, with
    1/n scaling, 200 replicas per n in {100, 400, 1600}, within 3 min."""
    t0 = time.monotonic()
    h = 2.0 ** -3
    mu0 = quantized_exponential(4000, h, seed=12)
    ens = {}
    for n in [100, 400, 1600]:
        st = init(n, mu0, h, seed=500 + n)
        ens[n] = [simulate(st, PROD1, AFFINE, 1.0, seed=42, stream=rep,
                           record_events=True, precheck=(rep == 0))
                  for rep in range(200)]
    rep = martingale_stats(ens, smooth_indicator, PROD1)
    elapsed = time.monotonic() - t0
    assert rep.within_bound
    assert -1.35 <= rep.slope <= -0.65
    assert elapsed < 180.0
    print(f"\nACCEPTANCE 4: PASS - estimates {['%.2e' % e for e in rep.estimates]} "
          f"all below bounds, slope {rep.slope:.3f} in [-1.35, -0.65], "
          f"{elapsed:.1f}s < 180s")


def test_05_mean_field_convergence():
    """Median sup_t d(phi X^n, phi mu) strictly decreasing over
    n in {100, 400, 1600} with log-log slope in [-0.8, -0.2]; reference
    from an RK4 solve on the h = 2^-6 grid with 64 initial atoms."""
    t0 = time.monotonic()
    h = 2.0 ** -6
    k = np.arange(1, 65)          # 64 grid atoms on (0, 1]
    w = np.exp(-k * h)
    mu0 = DiscreteMeasure.from_grid(k, w / w.sum(), h)
    times = np.linspace(0.0, 1.0, 17)
    cfg = SolverConfig(method="rk4", dt=None, t_end=1.0, bound=4.0, h=h,
                       sample_times=times)
    reference = solve_truncated(mu0, 0.0, PROD1, cfg)
    assert reference.overflow[-1] < 1e-5   # truncation floor well below err
    ens = {}
    for n in [100, 400, 1600]:
        runs = []
        for repl in range(20):
            st = init(n, mu0, h, seed=900 + n + repl)
            runs.append(simulate(st, PROD1, AFFINE, 1.0, seed=77, stream=repl,
                                 sample_times=times, record_snapshots=True,
                                 precheck=(repl == 0)))
        ens[n] = runs
    report = mean_field_convergence(ens, reference, AFFINE)
    elapsed = time.monotonic() - t0
    assert report.medians[0] > report.medians[1] > report.medians[2]
    assert -0.8 <= report.slope <= -0.2
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5: PASS - medians {['%.4f' % m for m in report.medians]} "
          f"strictly decreasing, slope {report.slope:.3f} in [-0.8, -0.2], "
          f"{elapsed:.1f}s < 300s")


def test_06_picard_scheme():
    """Iterates of the existence scheme stay below sqrt(2) + 1e-9 up to
    the horizon 1/(4C) for 20 iterations, with geometric contraction."""
    h = 2.0 ** -6
    raw = DiscreteMeasure.from_grid([1, 2], [0.5, 0.5], h)
    mu0 = raw.scaled(1.0 / moment(raw, AFFINE))
    report = picard(mu0, 0.0, PROD1, 4 * h, iterations=20)
    assert np.all(report.sup_norms <= math.sqrt(2.0) + 1e-9)
    sup = report.sup_diffs
    ratios = [sup[i + 1] / sup[i] for i in range(2, len(sup) - 1) if sup[i] > 1e-16]
    assert ratios and all(r < 1.0 for r in ratios)
    print(f"\nACCEPTANCE 6: PASS - sup norm {report.sup_norms.max():.6f} <= sqrt(2)+1e-9,"
          f" g-ratios < 1 from n=2 (max {max(ratios):.3f}), C={report.constant:.4g}")


def test_07_truncation_structure():
    """Deterministic window schedule: atomwise monotone, shared
    <phi, mu> + lambda to 1e-10; stochastic coupled pairs: exact pathwise
    multiset domination and conservation on 50 seeds."""
    h = 2.0 ** -6
    mu0 = DiscreteMeasure.from_grid([32, 64], [0.5, 0.5], h)
    cfg = SolverConfig(method="rk4", dt=0.02, t_end=0.4, h=h)
    # solve_limit raises if monotonicity (1e-9) or conservation (1e-10) fail
    _, diags = solve_limit(mu0, PROD1, cfg, [1.0, 2.0, 3.0, 4.0])
    assert len(diags) == 4

    start = quantized_exponential(3000, h, seed=71)
    worst = 0.0
    for seed_i in range(50):
        st = init(60, start, h, seed=4000 + seed_i)
        lo, hi = simulate_coupled(st, 1.5, 4.0, PROD1, AFFINE, 0.5,
                                  seed=71, stream=seed_i)
        assert np.array_equal(lo.conserved_phi, hi.conserved_phi)
        assert np.all(lo.conserved_phi == lo.conserved_phi[0])
        for mlo, mhi in zip(lo.snapshots, hi.snapshots):
            upper = dict(zip(mhi.idx.tolist(), mhi.weights.tolist()))
            for kk, ww in zip(mlo.idx.tolist(), mlo.weights.tolist()):
                excess = ww - upper.get(kk, 0.0)
                worst = max(worst, excess)
                assert excess <= 0.0, "multiset domination violated"
    print(f"\nACCEPTANCE 7: PASS - 4-window schedule monotone and conserving; "
          f"50 coupled seeds dominated pathwise (worst excess {worst:.1e})")


def test_08_apriori_envelope():
    """Strong-regime second-moment envelope: <phi^2, mu_t> below
    (S - <phi, mu0> t)^-1 (1 + 1e-6) up to 0.8 zeta(mu0)."""
    h = 2.0 ** -6
    mu0 = DiscreteMeasure.from_grid([1, 2], [0.7, 0.3], h)
    horizon = zeta(mu0)
    t_end = 0.8 * horizon
    cfg = SolverConfig(method="rk4", dt=0.002, t_end=t_end, bound=2.0, h=h,
                       sample_times=np.linspace(0.0, t_end, 17))
    traj = solve_truncated(mu0, 0.0, PROD1, cfg)
    margins = [phi2_bound(mu0, t) * (1.0 + 1e-6) - p2
               for t, p2 in zip(traj.sample_times, traj.phi2)]
    assert all(m >= 0.0 for m in margins)
    print(f"\nACCEPTANCE 8: PASS - envelope holds to 0.8 zeta = {t_end:.4f} "
          f"(min margin {min(margins):.2e}, lambda stayed {traj.overflow[-1]:.1e})")


def test_09_oracle_equivalence():
    """Thinning engine vs exact per-triple-clock reference at n = 40:
    two-sample KS statistic of <f, X_t> below the 1% critical value over
    500 replicas each, within 2 min."""
    t0 = time.monotonic()
    h = 2.0 ** -4
    mu0 = quantized_exponential(2000, h, seed=7)
    st = init(40, mu0, h, seed=31)
    f = lambda x: np.cos(np.asarray(x))
    ta = np.array([0.0, 0.5])

    def observable(traj):
        snap = traj.snapshots[-1]
        return float(np.dot(f(snap.positions), snap.weights))

    thinned = [observable(simulate(st, PROD1, AFFINE, 0.5, seed=11, stream=r,
                                   sample_times=ta, record_snapshots=True,
                                   precheck=(r == 0)))
               for r in range(500)]
    exact = [observable(exact_clocks(st, PROD1, 0.5, make_rng(12, r), sample_times=ta,
                                     record_snapshots=True))
             for r in range(500)]
    stat = ks_statistic(thinned, exact)
    critical = 1.628 * math.sqrt((500 + 500) / (500 * 500))  # alpha = 1%
    elapsed = time.monotonic() - t0
    assert stat < critical
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 9: PASS - KS statistic {stat:.4f} < {critical:.4f} "
          f"(1% level, 500+500 replicas), {elapsed:.1f}s < 120s")


@pytest.mark.parametrize("kernel, weight", [
    (parse_kernel("sum:lambda=1"), AFFINE),
    (PROD1, parse_weight("fractional:gamma=0.6666666666666666")),
], ids=["sum", "fractional"])
def test_09_oracle_equivalence_other_cases(kernel, weight):
    """test_09's check for the sum kernel, and for the fractional weight
    gamma = 2/3, under which the majorant is re-read after every jump."""
    t0 = time.monotonic()
    h = 2.0 ** -4
    mu0 = quantized_exponential(2000, h, seed=7)
    st = init(40, mu0, h, seed=31, weight=weight)
    f = lambda x: np.cos(np.asarray(x))
    ta = np.array([0.0, 0.5])

    def observable(traj):
        snap = traj.snapshots[-1]
        return float(np.dot(f(snap.positions), snap.weights))

    thinned = [observable(simulate(st, kernel, weight, 0.5, seed=11, stream=r,
                                   sample_times=ta, record_snapshots=True,
                                   precheck=(r == 0)))
               for r in range(500)]
    exact = [observable(exact_clocks(st, kernel, 0.5, make_rng(12, r), sample_times=ta,
                                     record_snapshots=True))
             for r in range(500)]
    stat = ks_statistic(thinned, exact)
    critical = 1.628 * math.sqrt((500 + 500) / (500 * 500))  # alpha = 1%
    elapsed = time.monotonic() - t0
    assert stat < critical
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 9 ({kernel.spec}, {weight.spec_string()}): PASS - KS statistic "
          f"{stat:.4f} < {critical:.4f} (1% level, 500+500 replicas), {elapsed:.1f}s < 120s")


def test_09_truncated_oracle_rate_identity():
    """The truncated oracle's summed rate table, times each clock's jump in
    <f, X> and in Lambda, is the generator's pairing ``l_b_pairing`` less
    its diagonal (counting) term taken with the window indicator: out <= B
    in the f part, out > B in Lambda-dot."""
    n, h, bound, lam = 25, 2.0 ** -3, 2.0, 0.3
    bound_idx = 16
    idx = np.random.default_rng(3).integers(0, bound_idx + 1, n)
    x = DiscreteMeasure.from_grid(idx, np.full(n, 1.0 / n), h).compact()
    phi = lambda w: np.asarray(w, dtype=float) + 1.0
    for kernel in (PROD1, parse_kernel("sum:lambda=1"), parse_kernel("mixed:p=1,q=0,r=0")):
        for f in (np.cos, np.tanh, phi):
            (a, b, rate), kills = clock_table(idx, lam * n, h, kernel, AFFINE, n)
            out = idx[a, None] + idx[b, None] - idx
            fo = np.asarray(f(np.maximum(out, 0) * h), dtype=float)
            inside = out <= bound_idx
            fx = np.asarray(f(idx * h), dtype=float)
            fdot = (np.sum(rate * (np.where(inside, fo, 0.0) + fx - fx[a, None] - fx[b, None]))
                    - np.sum(kills * fx)) / n
            lamdot = (np.sum(rate * np.where(inside, 0.0, phi(out * h)))
                      + np.sum(kills * phi(idx * h))) / n
            want_f, want_lam = l_b_pairing(TruncatedState(x, lam, bound), kernel, f)
            want_f -= counting_correction(x, kernel, lambda w: f(w) * (w <= bound), n)
            want_lam -= counting_correction(x, kernel, lambda w: phi(w) * (w > bound), n)
            assert fdot == pytest.approx(want_f, rel=1e-12, abs=1e-14)
            assert lamdot == pytest.approx(want_lam, rel=1e-12, abs=1e-14)
    print("\nACCEPTANCE 9 (truncated rates): PASS - oracle rate table equals the "
          "windowed generator pairing")


def test_09_truncated_oracle_equivalence():
    """Truncated thinning engine vs the truncated exact-clock oracle at
    n = 30: two-sample KS statistics of <f, X_T> and of Lambda_T below the
    1% critical value over 450 runs each, from a start where interior
    jumps, escapes and kills all occur in quantity."""
    t0 = time.monotonic()
    n, h, bound, t_end, runs = 30, 2.0 ** -3, 3.0, 0.1, 450
    kernel = parse_kernel("product:lambda=3")
    # every particle starts in the window, w in [1, 3]: Lambda_0 = 0
    st = ParticleState.build(np.random.default_rng(5).integers(8, 25, n), h)
    f = lambda idx: float(np.sum(np.cos(np.sort(idx) * h))) / n

    def final(traj):
        snap = traj.snapshots[-1]
        return f(np.repeat(snap.idx, np.rint(snap.weights * n).astype(int))), traj.overflow[-1]

    thinned, branches = [], []
    for r in range(runs):
        traj = simulate_truncated(st, bound, None, kernel, AFFINE, t_end, seed=11, stream=r,
                                  sample_times=[0.0, t_end], record_events=True,
                                  record_snapshots=True, precheck=(r == 0))
        thinned.append(final(traj))
        branches.extend(traj.events.branch.tolist())
    exact = [final(exact_clocks(st, kernel, t_end, make_rng(12, r), bound=bound,
                                sample_times=[0.0, t_end], record_snapshots=True))
             for r in range(runs)]
    counts = {b: branches.count(b) for b in ("interior", "escape", "kill")}
    assert min(counts.values()) >= 300, counts
    critical = 1.628 * math.sqrt(2.0 / runs)  # alpha = 1%
    stats = [ks_statistic(*(np.array(side)[:, k] for side in (thinned, exact))) for k in (0, 1)]
    elapsed = time.monotonic() - t0
    assert max(stats) < critical
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 9 (truncated): PASS - KS statistics {stats[0]:.4f} (<f, X_T>) and "
          f"{stats[1]:.4f} (Lambda_T) < {critical:.4f} (1% level, {runs}+{runs} runs, "
          f"events {counts}), {elapsed:.1f}s < 120s")


def test_10_kz_spectra_exploratory_only():
    """Spectrum slope fits are emitted as exploratory output with no
    asserted exponent: reproducing the stationary power-law spectra is
    out of scope by design."""
    h = 2.0 ** -6
    mu0 = quantized_exponential(500, h, seed=55)
    st = init(300, mu0, h, seed=9)
    traj = simulate(st, PROD1, AFFINE, 0.8, seed=10, record_snapshots=True)
    slope, stderr = powerlaw_fit(traj.snapshots[-1], (2.0 ** -5, 4.0), nbins=12)
    assert np.isfinite(slope) and stderr >= 0.0
    print(f"\nACCEPTANCE 10: PASS (no gate) - exploratory spectrum slope "
          f"{slope:.3f} +/- {stderr:.3f}; stationary-spectrum validation is a non-goal")
