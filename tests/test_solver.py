import math

import numpy as np
import pytest

from fourwave.kernels import AFFINE, parse_kernel
from fourwave.measures import DiscreteMeasure, moment, tv_norm
from fourwave.solver import (
    PicardReport,
    SolverConfig,
    SolverError,
    default_dt,
    phi2_bound,
    picard,
    picard_constant,
    solve_limit,
    solve_truncated,
    zeta,
)

H = 2.0 ** -6
PROD1 = parse_kernel("product:lambda=1")
ZERO = parse_kernel("const:c=0")


def two_atoms(h=H, w1=0.5, w2=0.5):
    return DiscreteMeasure.from_grid([32, 64], [w1, w2], h)  # atoms at 0.5, 1.0


class TestSolveTruncated:
    def test_zero_kernel_exact_constant(self):
        mu0 = two_atoms()
        cfg = SolverConfig(method="euler", dt=0.05, t_end=1.0, bound=2.0, h=H)
        traj = solve_truncated(mu0, 0.0, ZERO, cfg)
        assert np.all(traj.W == traj.W[0]) and np.all(traj.E == traj.E[0])
        final = traj.snapshots[-1]
        assert np.array_equal(final.idx, mu0.idx)
        assert np.array_equal(final.weights, mu0.weights)

    def test_phi_plus_lambda_conserved(self):
        cfg = SolverConfig(method="rk4", dt=0.01, t_end=0.5, bound=4.0, h=H)
        traj = solve_truncated(two_atoms(), 0.25, PROD1, cfg)
        drift = np.max(np.abs(traj.conserved_phi - traj.conserved_phi[0]))
        assert drift <= 1e-10 * traj.conserved_phi[0]

    def test_rk4_conservation_on_fft_backed_window(self):
        # M = 4097 grid points: every right-hand side runs through rfft
        h = 2.0 ** -10
        rng = np.random.default_rng(5)
        idx = np.rint(rng.exponential(1.0, size=3000) / h).astype(np.int64)
        idx = idx[idx <= 4096]
        mu0 = DiscreteMeasure.from_grid(idx, np.full(len(idx), 1.0 / len(idx)), h).compact()
        cfg = SolverConfig(method="rk4", t_end=1.0 / 16, bound=4.0, h=h,
                           sample_times=np.linspace(0.0, 1.0 / 16, 3))
        traj = solve_truncated(mu0, 0.1, PROD1, cfg)
        assert traj.meta["conservation_residual"] <= 1e-12 * traj.meta["conserved_start"]
        assert np.all(np.diff(traj.overflow) >= 0.0)

    def test_mass_energy_constant_when_window_large(self):
        cfg = SolverConfig(method="rk4", dt=0.01, t_end=0.5, bound=8.0, h=2.0 ** -4)
        mu0 = DiscreteMeasure.from_grid([8, 16], [0.5, 0.5], 2.0 ** -4)
        traj = solve_truncated(mu0, 0.0, PROD1, cfg)
        assert np.max(np.abs(traj.W - traj.W[0])) <= 1e-10 * traj.W[0]
        assert np.max(np.abs(traj.E - traj.E[0])) <= 1e-10 * max(traj.E[0], 1e-30)

    def test_richardson_orders(self):
        mu0 = two_atoms()
        errs = {}
        for method, dts in [("euler", [0.02, 0.01, 0.005]), ("rk4", [0.04, 0.02, 0.01])]:
            finals = []
            for dt in dts:
                cfg = SolverConfig(method=method, dt=dt, t_end=0.4, bound=4.0, h=H,
                                   sample_times=np.array([0.0, 0.4]))
                traj = solve_truncated(mu0, 0.0, PROD1, cfg)
                finals.append(traj.snapshots[-1])
            errs[method] = [tv_norm(a - b) for a, b in zip(finals, finals[1:])]
        ratio_euler = errs["euler"][0] / errs["euler"][1]
        ratio_rk4 = errs["rk4"][0] / errs["rk4"][1]
        assert 1.7 <= ratio_euler <= 2.4, ratio_euler
        assert 11.0 <= ratio_rk4 <= 22.0, ratio_rk4

    def test_if_euler_unconditional_positivity(self):
        # steps far beyond the explicit stability limit: weights must stay
        # finite and nonnegative regardless
        for big, dt in [(2.0, 0.1), (8.0, 5.0), (3.0, 0.4)]:
            mu0 = DiscreteMeasure.from_grid([4, 8], [0.05, big], 2.0 ** -3)
            cfg = SolverConfig(method="if_euler", dt=dt, t_end=20 * dt, bound=4.0,
                               h=2.0 ** -3)
            traj = solve_truncated(mu0, 0.0, PROD1, cfg)
            for snap in traj.snapshots:
                assert np.all(np.isfinite(snap.weights))
                assert np.all(snap.weights >= 0.0)

    def test_if_euler_first_order(self):
        mu0 = two_atoms()
        ref = solve_truncated(mu0, 0.0, PROD1, SolverConfig(
            method="rk4", dt=0.005, t_end=0.4, bound=4.0, h=H,
            sample_times=np.array([0.0, 0.4])))
        errs = []
        for dt in [0.02, 0.01, 0.005]:
            tr = solve_truncated(mu0, 0.0, PROD1, SolverConfig(
                method="if_euler", dt=dt, t_end=0.4, bound=4.0, h=H,
                sample_times=np.array([0.0, 0.4])))
            errs.append(tv_norm(tr.snapshots[-1] - ref.snapshots[-1]))
        assert 1.6 <= errs[0] / errs[1] <= 2.4
        assert 1.6 <= errs[1] / errs[2] <= 2.4

    def test_euler_negative_mass_aborts(self):
        mu0 = DiscreteMeasure.from_grid([4, 8], [0.05, 8.0], 2.0 ** -3)
        cfg = SolverConfig(method="euler", dt=5.0, t_end=20.0, bound=4.0, h=2.0 ** -3)
        with pytest.raises(SolverError, match="if_euler"):
            solve_truncated(mu0, 0.0, PROD1, cfg)

    def test_methods_agree_within_richardson(self):
        mu0 = two_atoms()

        def final(method, dt):
            cfg = SolverConfig(method=method, dt=dt, t_end=0.3, bound=4.0, h=H,
                               sample_times=np.array([0.0, 0.3]))
            return solve_truncated(mu0, 0.0, PROD1, cfg).snapshots[-1]

        e1, e2 = final("euler", 0.01), final("euler", 0.005)
        r1, r2 = final("rk4", 0.01), final("rk4", 0.005)
        est = 2.0 * tv_norm(e1 - e2) + tv_norm(r1 - r2) / (1 - 2.0 ** -4)
        assert tv_norm(e1 - r1) <= est + 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError, match="method"):
            SolverConfig(method="leapfrog")
        with pytest.raises(ValueError, match="multiple"):
            SolverConfig(bound=1.0 + H / 3)

    def test_bad_sample_times_rejected(self):
        for times in ([0.0, 0.3, 0.1], [0.0, 0.5], [-0.1, 0.2]):
            cfg = SolverConfig(method="rk4", dt=0.05, t_end=0.4, bound=4.0, h=H,
                               sample_times=np.array(times))
            with pytest.raises(ValueError, match="sample times"):
                solve_truncated(two_atoms(), 0.0, ZERO, cfg)


class TestSolveLimit:
    def test_monotone_windows_and_shared_conservation(self):
        mu0 = two_atoms()
        times = np.linspace(0.0, 0.4, 17)
        cfg = SolverConfig(method="rk4", dt=0.02, t_end=0.4, h=H, sample_times=times)
        traj, diags = solve_limit(mu0, PROD1, cfg, [1.0, 2.0, 3.0, 4.0])
        assert set(diags) == {1.0, 2.0, 3.0, 4.0}
        # overflow decays as the window grows
        assert diags[4.0][-1] <= diags[1.0][-1]
        assert diags[4.0][-1] <= 1e-6
        # strong regime: the two largest windows leak nothing before half
        # the guaranteed horizon
        half_horizon = 0.5 * zeta(mu0)
        early = times < half_horizon
        assert np.all(diags[3.0][early] <= 1e-6)
        assert np.all(diags[4.0][early] <= 1e-6)

    def test_initial_mass_outside_first_window(self):
        mu0 = DiscreteMeasure.from_grid([32, 64, 160], [0.4, 0.4, 0.2], H)  # atom at 2.5
        cfg = SolverConfig(method="rk4", dt=0.02, t_end=0.2, h=H)
        traj, diags = solve_limit(mu0, PROD1, cfg, [1.0, 2.0, 4.0])
        assert diags[1.0][0] > diags[4.0][0]  # more phi-mass starts outside smaller windows


class TestHorizons:
    def test_zeta_examples(self):
        assert zeta(DiscreteMeasure.delta(1.0)) == pytest.approx(1.0 / 8.0, rel=1e-14)
        assert zeta(DiscreteMeasure.delta(0.0)) == pytest.approx(1.0, rel=1e-14)

    def test_zeta_mass_scaling(self):
        mu = DiscreteMeasure.from_points([0.5, 2.0], [0.3, 0.7])
        for c in [0.5, 2.0, 7.0]:
            assert zeta(mu.scaled(c)) == pytest.approx(zeta(mu) / c ** 2, rel=1e-12)

    def test_zeta_zero_measure(self):
        with pytest.raises(ValueError):
            zeta(DiscreteMeasure.zero())

    def test_phi2_bound_examples(self):
        mu = DiscreteMeasure.delta(1.0)
        assert phi2_bound(mu, 0.0) == pytest.approx(4.0, rel=1e-14)
        assert phi2_bound(mu, 1.0 / 16.0) == pytest.approx(8.0, rel=1e-14)
        ts = np.linspace(0.0, 0.9 * zeta(mu), 10)
        vals = [phi2_bound(mu, t) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        with pytest.raises(ValueError, match="horizon"):
            phi2_bound(mu, zeta(mu))


class TestPicard:
    def mu0(self):
        h = H
        raw = DiscreteMeasure.from_grid([1, 2], [0.5, 0.5], h)
        scale = 1.0 / moment(raw, AFFINE)
        return raw.scaled(scale)

    def test_normalisation_required(self):
        raw = DiscreteMeasure.from_grid([1, 2], [2.0, 2.0], H)
        with pytest.raises(ValueError, match="normalisation"):
            picard(raw, 0.0, PROD1, 4 * H)

    def test_iteration_zero_constant(self):
        rep = picard(self.mu0(), 0.0, PROD1, 4 * H, iterations=1)
        assert np.all(rep.norms[0] == rep.norms[0][0])

    def test_sqrt2_bound(self):
        rep = picard(self.mu0(), 0.0, PROD1, 4 * H, iterations=20)
        assert np.all(rep.sup_norms <= math.sqrt(2.0) + 1e-9)
        assert rep.bound_sqrt2

    def test_geometric_decay_of_diffs(self):
        rep = picard(self.mu0(), 0.0, PROD1, 4 * H, iterations=12)
        sup = rep.sup_diffs
        # successive-difference ratios bounded below 1 from n >= 2
        for a, b in zip(sup[2:], sup[3:]):
            if a <= 1e-16:
                break
            assert b / a < 1.0

    def test_constant_formula(self):
        c = picard_constant(PROD1, 4 * H)
        pb = 4 * H + 1.0
        assert c == pytest.approx(max(PROD1.eval(4 * H, 4 * H, 4 * H) * (2 + (8 * H + 1) / 2),
                                      2 * pb * pb * (1 + pb)), rel=1e-14)


class TestDefaultDt:
    def test_formula(self):
        mu = DiscreteMeasure.delta(1.0)
        # phi = 2, phi2 = 4, lam = 0: dt = 0.05 / (4 * 4)
        assert default_dt(mu, 0.0) == pytest.approx(0.05 / 16.0, rel=1e-14)
