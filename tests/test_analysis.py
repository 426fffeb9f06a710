import json
from dataclasses import replace

import numpy as np
import pytest

from fourwave import analysis
from fourwave.analysis import (
    conservation_report,
    fit_loglog_slope,
    martingale_stats,
    mean_field_convergence,
    powerlaw_fit,
)
from fourwave.kernels import AFFINE, parse_kernel
from fourwave.measures import DiscreteMeasure, phi_transform, quantize, weak_distance
from fourwave.particle import init, make_rng, simulate
from fourwave.solver import SolverConfig, solve_truncated

PROD1 = parse_kernel("product:lambda=1")
ZERO = parse_kernel("const:c=0")
H = 2.0 ** -6


def exp_measure(seed=3, m=400):
    rng = np.random.default_rng(seed)
    vals = rng.exponential(1.0, size=m)
    return quantize(DiscreteMeasure.from_points(vals, np.full(m, 1.0 / m)), H)


class TestMeanFieldConvergence:
    def reference(self, t_end=0.25):
        mu0 = DiscreteMeasure.from_grid([32, 64], [0.5, 0.5], H)
        cfg = SolverConfig(method="rk4", dt=0.01, t_end=t_end, bound=4.0, h=H,
                           sample_times=np.linspace(0.0, t_end, 6))
        return mu0, solve_truncated(mu0, 0.0, PROD1, cfg)

    def test_reference_vs_itself_zero(self):
        _, ref = self.reference()
        rep = mean_field_convergence({1: [ref]}, ref, AFFINE)
        assert rep.errors[1] == [0.0]

    def test_sampling_error_decreases_with_n(self):
        # constant dynamics: err is pure initial-sampling noise
        mu0 = exp_measure()
        t_end = 0.2
        times = np.linspace(0.0, t_end, 5)
        cfg = SolverConfig(method="rk4", dt=0.05, t_end=t_end, bound=8.0, h=H,
                           sample_times=times)
        ref = solve_truncated(mu0, 0.0, ZERO, cfg)
        ensembles = {}
        for n in [50, 200, 800]:
            runs = []
            for rep_i in range(12):
                st = init(n, mu0, H, seed=1000 + 7 * n + rep_i)
                runs.append(simulate(st, ZERO, AFFINE, t_end, seed=5, stream=rep_i,
                                     sample_times=times, record_snapshots=True))
            ensembles[n] = runs
        rep = mean_field_convergence(ensembles, ref, AFFINE)
        assert rep.medians[0] > rep.medians[1] > rep.medians[2]
        assert rep.slope < -0.2
        assert rep.slope_ci[0] <= rep.slope <= rep.slope_ci[1]

    def test_grid_mismatch_rejected(self):
        _, ref = self.reference()
        mu0 = DiscreteMeasure.from_grid([32, 64], [0.5, 0.5], H)
        st = init(16, mu0, H, seed=0)
        other = simulate(st, ZERO, AFFINE, 0.25, sample_times=np.linspace(0, 0.25, 4),
                         record_snapshots=True)
        with pytest.raises(ValueError, match="grid"):
            mean_field_convergence({16: [other]}, ref, AFFINE)

    def test_error_monotone_in_horizon(self):
        # sup over fewer sample times can only be smaller
        mu0 = exp_measure()
        times = np.linspace(0.0, 0.4, 9)
        cfg = SolverConfig(method="rk4", dt=0.02, t_end=0.4, bound=8.0, h=H,
                           sample_times=times)
        ref = solve_truncated(mu0, 0.0, PROD1, cfg)
        st = init(100, mu0, H, seed=4)
        traj = simulate(st, PROD1, AFFINE, 0.4, seed=9, sample_times=times,
                        record_snapshots=True)
        from fourwave.measures import phi_transform, tv_norm, weak_distance
        dists = [weak_distance(phi_transform(s, AFFINE), phi_transform(r, AFFINE))
                 for s, r in zip(traj.snapshots, ref.snapshots)]
        sups = np.maximum.accumulate(dists)
        assert all(b >= a for a, b in zip(sups, sups[1:]))
        # the compared distances inherit the TV domination of the metric
        for s, r, d in zip(traj.snapshots, ref.snapshots, dists):
            assert d <= tv_norm(phi_transform(s, AFFINE) - phi_transform(r, AFFINE)) + 1e-12

    def test_same_report_as_recomputed_pairings(self):
        # each reference pairing is computed once and cached; weak_distance
        # on fresh measures, which computes both pairings on every call,
        # gives the same bits
        mu0 = exp_measure()
        times = np.linspace(0.0, 0.2, 5)
        cfg = SolverConfig(method="rk4", dt=0.05, t_end=0.2, bound=8.0, h=H,
                           sample_times=times)
        ref = solve_truncated(mu0, 0.0, PROD1, cfg)
        ensembles = {n: [simulate(init(n, mu0, H, seed=n + r), PROD1, AFFINE, 0.2, seed=3,
                                  stream=r, sample_times=times, record_snapshots=True)
                         for r in range(3)] for n in (40, 160)}
        got = mean_field_convergence(ensembles, ref, AFFINE)
        errors = {n: [max(weak_distance(phi_transform(s, AFFINE), phi_transform(q, AFFINE))
                          for s, q in zip(traj.snapshots, ref.snapshots)) for traj in trajs]
                  for n, trajs in ensembles.items()}
        assert got.errors == errors
        fresh = [DiscreteMeasure.from_grid(s.idx.copy(), s.weights.copy(), s.h)
                 for s in ref.snapshots]
        again = mean_field_convergence(ensembles, replace(ref, snapshots=fresh), AFFINE)
        assert again.to_json() == got.to_json()


def loop_bootstrap(per_n_errors, resamples=1000, quantiles=(0.025, 0.975)):
    """The per-resample bootstrap: one median per (resample, n) and one
    fit_loglog_slope per resample.  Returns the slopes and the interval."""
    rng = make_rng(analysis._BOOTSTRAP_SEED)
    ns = sorted(per_n_errors)
    slopes = np.empty(resamples)
    for r in range(resamples):
        meds = []
        for n in ns:
            errs = per_n_errors[n]
            meds.append(np.median(errs[rng.integers(0, len(errs), size=len(errs))]))
        slopes[r], _ = fit_loglog_slope(ns, meds)
    lo, hi = np.quantile(slopes, quantiles)
    return slopes, (float(lo), float(hi))


class TestBatchedBootstrap:
    """Batched medians and _row_dot slopes give the per-resample loop's bits."""

    def test_matches_per_resample_loop(self):
        rng = np.random.default_rng(2026)
        for _ in range(40):
            ns = rng.choice([50, 100, 200, 400, 1000, 2000, 8000], size=rng.integers(2, 4),
                            replace=False)
            # few distinct values per n, so resamples hold ties
            per_n = {int(n): rng.choice(rng.uniform(1e-4, 0.3, size=rng.integers(1, 6)),
                                        size=rng.integers(1, 25)) for n in ns}
            slopes, _ = loop_bootstrap(per_n, resamples=250)
            assert np.array_equal(analysis._bootstrap_slopes(per_n, 250), slopes)

    def test_interval_matches_per_resample_loop(self):
        rng = np.random.default_rng(7)
        for k in (1, 4, 9):
            per_n = {1000: rng.uniform(0.01, 0.1, size=k), 2000: rng.uniform(0.01, 0.1, size=k)}
            slopes, ci = loop_bootstrap(per_n)
            assert np.array_equal(analysis._bootstrap_slopes(per_n, 1000), slopes)
            assert analysis._bootstrap_slope_ci(per_n) == ci

    def test_one_draw_call_is_the_per_resample_loop(self):
        # unequal replica counts and single-replica n's (k = 1 takes no draw):
        # one integers call with a per-column bound draws the stream of one
        # call per (resample, n) and leaves the generator where that loop does
        counts = {100: 5, 200: 1, 400: 3, 800: 1, 1600: 9}
        loop, batch = make_rng(analysis._BOOTSTRAP_SEED), make_rng(analysis._BOOTSTRAP_SEED)
        want = [np.concatenate([loop.integers(0, k, size=k) for k in counts.values()])
                for _ in range(300)]
        got = batch.integers(0, np.repeat(list(counts.values()), list(counts.values())),
                             size=(300, sum(counts.values())))
        assert np.array_equal(got, want)
        assert repr(batch.bit_generator.state) == repr(loop.bit_generator.state)
        rng = np.random.default_rng(26)
        per_n = {n: rng.uniform(0.01, 0.1, size=k) for n, k in counts.items()}
        slopes, ci = loop_bootstrap(per_n)
        assert np.array_equal(analysis._bootstrap_slopes(per_n, 1000), slopes)
        assert analysis._bootstrap_slope_ci(per_n) == ci


class TestMartingaleStats:
    def ensembles(self, f_reps=25, ns=(24, 96)):
        mu0 = exp_measure()
        out = {}
        for n in ns:
            runs = []
            st = init(n, mu0, 2.0 ** -4, seed=2)
            for r in range(f_reps):
                runs.append(simulate(st, PROD1, AFFINE, 0.3, seed=3, stream=r,
                                     record_events=True, precheck=False))
            out[n] = runs
        return out

    def test_affine_f_all_zero(self):
        # n small enough for the bit-exact direct drift route
        rep = martingale_stats(self.ensembles(8, ns=(12, 24)),
                               lambda x: 1.0 + np.asarray(x), PROD1)
        assert rep.estimates == [0.0, 0.0]

    def test_bound_holds_and_scaling(self):
        rep = martingale_stats(self.ensembles(), lambda x: np.cos(np.asarray(x)), PROD1)
        assert rep.within_bound
        assert rep.slope < 0.0

    def test_deterministic(self):
        ens = self.ensembles(6)
        f = lambda x: np.cos(np.asarray(x))
        a = martingale_stats(ens, f, PROD1)
        b = martingale_stats(ens, f, PROD1)
        assert a.estimates == b.estimates and a.slope == b.slope

    def test_one_replica_has_null_stderr(self):
        # one replica has no spread: NaN, without numpy's degrees-of-freedom
        # warning (which the suite raises), written as null
        rep = martingale_stats(self.ensembles(1, ns=(24,)),
                               lambda x: np.cos(np.asarray(x)), PROD1)
        assert len(rep.stderrs) == 1 and np.isnan(rep.stderrs[0])
        assert strict_json(rep.to_json())["stderr"] == [None]

    def test_report_json_and_text(self):
        rep = martingale_stats(self.ensembles(4), lambda x: np.cos(np.asarray(x)), PROD1)
        data = json.loads(rep.to_json())
        assert set(data) == {"schema", "report", "n", "estimate", "stderr", "bound",
                             "slope", "slope_stderr", "replicas", "kernel_sup", "f_sup"}
        assert data["report"] == "martingale_stats" and data["n"] == [24, 96]
        assert data["estimate"] == rep.estimates and data["replicas"] == 4
        lines = rep.to_text().splitlines()
        assert len(lines) == 4 and lines[0].split()[0] == "n"
        row = lines[1].split()
        assert row[0] == "24" and float(row[1]) == pytest.approx(rep.estimates[0], rel=1e-6)
        assert float(row[3]) == pytest.approx(rep.bounds[0], rel=1e-6)
        assert lines[-1].endswith(f"within bound: {rep.within_bound}")


def strict_json(text: str):
    """json.loads that refuses NaN and the infinities, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    """Reports write null for a non-finite number, and a finite report has
    the bytes of json.dumps(..., indent=2)."""

    def test_one_n_has_null_slope(self):
        _, ref = TestMeanFieldConvergence().reference()
        conv = mean_field_convergence({1: [ref]}, ref, AFFINE)
        data = strict_json(conv.to_json())
        assert data["slope"] is None and data["slope_stderr"] is None
        assert data["slope_ci"] == [None, None] and data["median_err"] == [0.0]
        mart = martingale_stats(TestMartingaleStats().ensembles(3, ns=(24,)),
                                lambda x: np.cos(np.asarray(x)), PROD1)
        data = strict_json(mart.to_json())
        assert data["slope"] is None and data["slope_stderr"] is None
        assert data["estimate"] == mart.estimates
        inf = strict_json(replace(conv, medians=[-np.inf], slope=np.inf).to_json())
        assert inf["median_err"] == [None] and inf["slope"] is None

    def test_finite_report_bytes(self):
        _, ref = TestMeanFieldConvergence().reference()
        rep = replace(mean_field_convergence({1: [ref]}, ref, AFFINE), slope=-0.5,
                      slope_stderr=0.125, slope_ci=(-0.75, -0.25))
        want = json.dumps({"schema": 1, "report": "mean_field_convergence", "n": [1],
                           "median_err": [0.0], "quartiles": [(0.0, 0.0)], "slope": -0.5,
                           "slope_stderr": 0.125, "slope_ci": [-0.75, -0.25],
                           "errors": {"1": [0.0]}}, indent=2)
        assert rep.to_json() == want


class TestConservationReport:
    def test_particle_run_exact(self):
        st = init(64, exp_measure(), 2.0 ** -20, seed=6)
        traj = simulate(st, PROD1, AFFINE, 0.4, seed=1)
        rep = conservation_report(traj)
        assert rep.exact_W and rep.exact_E
        assert rep.drift_W == 0.0

    def test_solver_run_tolerances(self):
        mu0 = DiscreteMeasure.from_grid([32, 64], [0.5, 0.5], H)
        cfg = SolverConfig(method="rk4", dt=0.01, t_end=0.4, bound=4.0, h=H)
        rep = conservation_report(solve_truncated(mu0, 0.2, PROD1, cfg))
        assert rep.drift_conserved_phi <= 1e-10 * 2.0

    def test_strong_regime_energy_conserved(self):
        mu0 = DiscreteMeasure.from_grid([32, 64], [0.5, 0.5], H)
        cfg = SolverConfig(method="rk4", dt=0.01, t_end=0.4, bound=8.0, h=H)
        rep = conservation_report(solve_truncated(mu0, 0.0, PROD1, cfg))
        assert rep.drift_E <= 1e-10 * 0.75


class TestPowerlawFit:
    def test_exact_power_law(self):
        edges = np.geomspace(1.0, 100.0, 17)
        centers = np.sqrt(edges[:-1] * edges[1:])
        widths = np.diff(edges)
        mu = DiscreteMeasure.from_points(centers, widths * centers ** -2.0)
        slope, stderr = powerlaw_fit(mu, (1.0, 100.0), nbins=16)
        assert slope == pytest.approx(-2.0, abs=1e-6)
        assert stderr <= 1e-9

    def test_flat_density(self):
        edges = np.geomspace(1.0, 100.0, 17)
        centers = np.sqrt(edges[:-1] * edges[1:])
        widths = np.diff(edges)
        mu = DiscreteMeasure.from_points(centers, widths)
        slope, _ = powerlaw_fit(mu, (1.0, 100.0), nbins=16)
        assert slope == pytest.approx(0.0, abs=1e-9)

    def test_insufficient_bins(self):
        mu = DiscreteMeasure.from_points([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="insufficient"):
            powerlaw_fit(mu, (1.0, 100.0))

    def test_simulated_run_reports_without_gate(self):
        st = init(200, exp_measure(), 2.0 ** -6, seed=7)
        traj = simulate(st, PROD1, AFFINE, 0.5, seed=3, record_snapshots=True)
        final = traj.snapshots[-1]
        slope, stderr = powerlaw_fit(final, (2.0 ** -5, 4.0), nbins=12)
        assert np.isfinite(slope) and stderr >= 0.0


class TestSlopeFit:
    def test_exact_line(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        slope, se = fit_loglog_slope(x, 3.0 * x ** -1.5)
        assert slope == pytest.approx(-1.5, rel=1e-12)
        assert se <= 1e-12
