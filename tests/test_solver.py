import math

import numpy as np
import pytest
from test_collision import zeros_and_accumulate_parts

from fourwave import solver
from fourwave.collision import _STACK_VALUES, GridInteractionParts, TruncatedState, l_b_pairing
from fourwave.kernels import AFFINE, parse_kernel
from fourwave.measures import DiscreteMeasure, moment, quantize, tv_norm
from fourwave.solver import (
    PicardReport,
    SolverConfig,
    SolverError,
    _dense_initial,
    _TruncatedSystem,
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

    def test_empty_sample_grid_rejected(self):
        cfg = SolverConfig(method="rk4", dt=0.05, t_end=0.4, bound=4.0, h=H,
                           sample_times=np.array([]))
        with pytest.raises(ValueError, match="at least one sample time"):
            solve_truncated(two_atoms(), 0.0, ZERO, cfg)

    def test_bad_sample_times_rejected(self):
        for times in ([0.0, 0.3, 0.1], [0.0, 0.5], [-0.1, 0.2]):
            cfg = SolverConfig(method="rk4", dt=0.05, t_end=0.4, bound=4.0, h=H,
                               sample_times=np.array(times))
            with pytest.raises(ValueError, match="sample times"):
                solve_truncated(two_atoms(), 0.0, ZERO, cfg)


class TestDirectOracle:
    """The truncated right-hand side against collision.l_b_pairing, the
    direct ordered-triple route: <f, dw> is its ``fpart`` and dlam its
    ``lamdot``."""

    @pytest.mark.parametrize("spec", ["product:lambda=1", "sum:lambda=1",
                                      "mixed:p=1,q=0.5,r=0.25", "const:c=1"])
    def test_rhs_matches_l_b_pairing(self, spec):
        h, bound = 0.25, 4.0
        kernel = parse_kernel(spec)
        system = _TruncatedSystem(kernel, h, int(bound / h) + 1)
        grid = np.arange(int(bound / h) + 1) * h
        f = lambda x: np.cos(np.asarray(x, dtype=float))
        rng = np.random.default_rng(5)
        w = rng.uniform(0.0, 0.2, size=(3, len(grid))) * (rng.random((3, len(grid))) < 0.6)
        lam = np.array([0.0, 0.3, 1.2])
        stacked = system.rhs(w, lam)
        for r in range(3):
            mu = DiscreteMeasure.from_grid(np.nonzero(w[r])[0], w[r][w[r] > 0], h)
            fpart, lamdot = l_b_pairing(TruncatedState(mu, lam[r], bound), kernel, f)
            dw, dlam = system.rhs(w[r], lam[r])
            for got_dw, got_dlam in ((dw, dlam), (stacked[0][r], stacked[1][r])):
                assert abs(float(np.dot(f(grid), got_dw)) - fpart) <= 1e-13 * abs(fpart)
                assert abs(float(got_dlam) - lamdot) <= 1e-13 * abs(lamdot)


class TestRightHandSideCalls:
    """solve_truncated against a run of the zeros-and-accumulate right-hand
    side, and its grid_interaction_parts calls per step, counted through
    fourwave.solver's binding (a traced run counts steps from them)."""

    @staticmethod
    def start():
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 65, size=40)
        return DiscreteMeasure.from_grid(idx, rng.uniform(0.0, 1.0, size=40) / 40, 2.0 ** -5)

    @staticmethod
    def outputs(traj):
        snaps = [(s.idx.tobytes(), s.weights.tobytes()) for s in traj.snapshots]
        rows = [x.tobytes() for x in (traj.W, traj.E, traj.phi, traj.phi2, traj.overflow)]
        return snaps, rows, repr(traj.meta)

    @pytest.mark.parametrize("method", ["euler", "rk4", "if_euler"])
    @pytest.mark.parametrize("spec", ["product:lambda=1", "sum:lambda=1",
                                      "mixed:p=1,q=0.5,r=0.25", "const:c=1"])
    def test_bits_of_the_old_right_hand_side(self, monkeypatch, method, spec):
        kernel = parse_kernel(spec)
        cfg = SolverConfig(method=method, t_end=0.25, bound=2.0, h=2.0 ** -5,
                           sample_times=np.linspace(0.0, 0.25, 5))
        new = self.outputs(solve_truncated(self.start(), 0.125, kernel, cfg))
        monkeypatch.setattr(solver, "grid_interaction_parts", lambda w, h, k, bound_idx:
                            GridInteractionParts(*zeros_and_accumulate_parts(w, h, k, bound_idx)))
        monkeypatch.setattr(solver, "_row_dot", lambda x, y: np.matmul(x[None, :], y[:, None])[0, 0])
        assert new == self.outputs(solve_truncated(self.start(), 0.125, kernel, cfg))

    @pytest.mark.parametrize("method, per_step", [("rk4", 4), ("euler", 1), ("if_euler", 2)])
    def test_calls_per_step(self, monkeypatch, method, per_step):
        calls = []
        inner = solver.grid_interaction_parts
        monkeypatch.setattr(solver, "grid_interaction_parts",
                            lambda *a, **k: calls.append(a[0].shape) or inner(*a, **k))
        # dt = 1/16 reaches the sample times 0, 1/4 and 1/2 in 8 exact steps
        cfg = SolverConfig(method=method, dt=0.0625, t_end=0.5, bound=2.0, h=2.0 ** -5,
                           sample_times=np.array([0.0, 0.25, 0.5]))
        solve_truncated(self.start(), 0.125, PROD1, cfg)
        assert calls == [(65,)] * (8 * per_step)


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


class TestNegativeBound:
    def test_refused_naming_the_bound(self):
        calls = [lambda b: SolverConfig(bound=b, h=H),
                 lambda b: solve_limit(two_atoms(), PROD1, SolverConfig(h=H), [b, 2.0]),
                 lambda b: picard(TestPicard().mu0(), 0.0, PROD1, b)]
        for call in calls:
            for bound in (-0.5, -H, math.nan):
                with pytest.raises(ValueError, match="bound must be nonnegative, got "):
                    call(bound)

    def test_zero_bound_is_one_point(self):
        assert SolverConfig(bound=0.0, h=H).bound == 0.0
        mu0 = DiscreteMeasure.from_grid([0], [0.5], H)
        traj = solve_truncated(mu0, 0.0, PROD1, SolverConfig(bound=0.0, h=H, t_end=0.1))
        assert traj.W[0] == 0.5


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

    def test_off_grid_bound_refused(self):
        # rounding 0.3078125 / h would iterate on [0, 20 h] = [0, 0.3125]
        # under the constant of [0, 0.3078125], whose horizon 1/(4C) is
        # longer than the window's own
        assert picard_constant(PROD1, 0.3078125) < picard_constant(PROD1, 20 * H)
        with pytest.raises(ValueError, match="multiple of the grid resolution h"):
            picard(self.mu0(), 0.0, PROD1, 0.3078125)

    def test_constant_formula(self):
        c = picard_constant(PROD1, 4 * H)
        pb = 4 * H + 1.0
        assert c == pytest.approx(max(PROD1.eval(4 * H, 4 * H, 4 * H) * (2 + (8 * H + 1) / 2),
                                      2 * pb * pb * (1 + pb)), rel=1e-14)


class TestPicardFixedPoint:
    """picard against a point-by-point run of every iteration."""

    @staticmethod
    def reference(mu0, lam0, kernel, bound, iterations=20, nsteps=64):
        """(sup norms, sup diffs) of the scheme with one rhs call per time
        point and no early stop."""
        c = picard_constant(kernel, bound)
        times = np.linspace(0.0, 1.0 / (4.0 * c), nsteps + 1)
        w0 = _dense_initial(mu0, bound, mu0.h)
        system = _TruncatedSystem(kernel, mu0.h, len(w0))
        cur_w, cur_l = np.tile(w0, (len(times), 1)), np.full(len(times), float(lam0))
        norms, diffs = [np.abs(cur_w).sum(axis=1) + np.abs(cur_l)], []
        half_dt = 0.5 * np.diff(times)
        for _ in range(iterations):
            rhs = [system.rhs(cur_w[k], float(cur_l[k])) for k in range(len(times))]
            rhs_w = np.array([r[0] for r in rhs])
            rhs_l = np.array([float(r[1]) for r in rhs])
            new_w = w0 + np.vstack([np.zeros((1, len(w0))), np.cumsum(
                half_dt[:, None] * (rhs_w[:-1] + rhs_w[1:]), axis=0)])
            new_l = lam0 + np.concatenate([[0.0], np.cumsum(half_dt * (rhs_l[:-1] + rhs_l[1:]))])
            diffs.append(np.abs(new_w - cur_w).sum(axis=1) + np.abs(new_l - cur_l))
            cur_w, cur_l = new_w, new_l
            norms.append(np.abs(cur_w).sum(axis=1) + np.abs(cur_l))
        return np.max(norms, axis=1), np.max(diffs, axis=1)

    @staticmethod
    def starts():
        raw = DiscreteMeasure.from_grid([1, 2], [0.5, 0.5], H)
        yield raw.scaled(1.0 / moment(raw, AFFINE)), 0.0, 4 * H
        # 64 atoms over M = 257 with a little overflow, <phi, mu0> + lam0 = 1
        rng = np.random.default_rng(8)
        idx = rng.integers(0, 257, size=64)
        wide = DiscreteMeasure.from_grid(idx, rng.random(64), H).compact()
        lam0 = 0.1
        yield wide.scaled((1.0 - lam0) / moment(wide, AFFINE)), lam0, 256 * H

    @pytest.mark.parametrize("spec", ["product:lambda=1", "sum:lambda=2"])
    def test_matches_pointwise_reference(self, spec):
        kernel = parse_kernel(spec)
        for mu0, lam0, bound in self.starts():
            rep = picard(mu0, lam0, kernel, bound, iterations=20)
            ref_norms, ref_diffs = self.reference(mu0, lam0, kernel, bound)
            assert rep.norms.shape == (21, 65) and rep.diffs.shape == (20, 65)
            assert np.all(np.abs(rep.sup_norms - ref_norms) <= 1e-14 * ref_norms)
            assert np.all(np.abs(rep.sup_diffs - ref_diffs) <= 1e-15)
            assert 1 <= rep.evaluated <= 20

    @staticmethod
    def tiled_first_iteration(mu0, lam0, kernel, bound, iterations=20, nsteps=64):
        """(norms, diffs, evaluated) of the scheme in picard's stacked blocks
        and with its stop, but with iterate 0 tiled to every time point and
        each tiled row evaluated."""
        c = picard_constant(kernel, bound)
        times = np.linspace(0.0, 1.0 / (4.0 * c), nsteps + 1)
        w0 = _dense_initial(mu0, bound, mu0.h)
        system = _TruncatedSystem(kernel, mu0.h, len(w0))
        nt, m = len(times), len(w0)
        blocks = -(-nt // max(1, _STACK_VALUES // m))
        cur_w, cur_l = np.tile(w0, (nt, 1)), np.full(nt, float(lam0))
        norms, diffs = [np.abs(cur_w).sum(axis=1) + np.abs(cur_l)], []
        dtv = np.diff(times)
        while len(diffs) < iterations and (not diffs or diffs[-1].any()):
            rhs = [system.rhs(wb, lb) for wb, lb in zip(np.array_split(cur_w, blocks),
                                                         np.array_split(cur_l, blocks))]
            rhs_w, rhs_l = (np.concatenate(part) for part in zip(*rhs))
            new_w = w0[None, :] + np.vstack([np.zeros((1, m)), np.cumsum(
                0.5 * dtv[:, None] * (rhs_w[:-1] + rhs_w[1:]), axis=0)])
            new_l = lam0 + np.concatenate([[0.0], np.cumsum(0.5 * dtv * (rhs_l[:-1] + rhs_l[1:]))])
            diffs.append(np.abs(new_w - cur_w).sum(axis=1) + np.abs(new_l - cur_l))
            cur_w, cur_l = new_w, new_l
            norms.append(np.abs(cur_w).sum(axis=1) + np.abs(cur_l))
        evaluated = len(diffs)
        norms += [norms[-1]] * (iterations - evaluated)
        diffs += [np.zeros(nt)] * (iterations - evaluated)
        return np.asarray(norms), np.asarray(diffs), evaluated

    @pytest.mark.parametrize("spec", ["product:lambda=1", "sum:lambda=2"])
    def test_first_iteration_on_one_row(self, spec):
        # iterate 0 is constant in time: evaluating its one state and
        # broadcasting it changes no bit of the report.  On the extra start
        # a matrix np.dot in the stacked right-hand side would round the
        # last rows of a block differently from a one-row call.
        kernel = parse_kernel(spec)
        rng = np.random.default_rng(1)
        wide = DiscreteMeasure.from_grid(rng.integers(0, 257, size=64), rng.random(64), H).compact()
        extra = wide.scaled(0.9 / moment(wide, AFFINE)), 0.1, 256 * H
        for mu0, lam0, bound in (*self.starts(), extra):
            rep = picard(mu0, lam0, kernel, bound, iterations=20)
            norms, diffs, evaluated = self.tiled_first_iteration(mu0, lam0, kernel, bound)
            assert np.array_equal(rep.norms, norms)
            assert np.array_equal(rep.diffs, diffs)
            assert rep.evaluated == evaluated

    def test_stop_at_fixed_point(self):
        mu0, lam0, bound = next(self.starts())
        rep = picard(mu0, lam0, PROD1, bound, iterations=20)
        e = rep.evaluated
        assert e < 20 and not rep.diffs[e - 1].any()
        assert rep.diffs[e - 2].any()
        assert np.all(rep.norms[e:] == rep.norms[e - 1]) and not rep.diffs[e:].any()
        longer = picard(mu0, lam0, PROD1, bound, iterations=40)
        assert longer.evaluated == e
        assert np.array_equal(longer.norms[:21], rep.norms)
        assert np.array_equal(longer.diffs[:20], rep.diffs)

    def test_stop_at_cycle(self):
        # a 64-atom Exp(1) start on [0, 4] (stratified draws at seed 8191,
        # after two 4000-draw starts, the phi-mass beyond 4 in the overflow)
        # whose sum:lambda=2 iterates end in a last-bit cycle: sup
        # differences near 3e-24 that never reach 0
        rng = np.random.default_rng(8191)
        rng.random(4000)
        rng.random(4000)
        vals = -np.log1p(-(np.arange(64) + rng.random(64)) / 64)
        raw = quantize(DiscreteMeasure.from_points(vals, np.full(64, 1 / 64)), H).compact()
        inner, outer = raw.restricted(4.0)
        lam0 = moment(outer, AFFINE)
        scale = 1.0 / (moment(inner, AFFINE) + lam0)
        mu0, lam0 = inner.scaled(scale), lam0 * scale
        kernel = parse_kernel("sum:lambda=2")
        norms, diffs, evaluated = self.tiled_first_iteration(mu0, lam0, kernel, 4.0)
        assert evaluated == 20 and diffs[-1].any()
        rep = picard(mu0, lam0, kernel, 4.0, iterations=20)
        assert rep.evaluated < 20
        assert np.array_equal(rep.norms, norms)
        assert np.array_equal(rep.diffs, diffs)

    @pytest.mark.parametrize("bad", [{"iterations": 0}, {"iterations": -3},
                                     {"nsteps": 0}, {"nsteps": -1}])
    def test_rejects_bad_counts(self, bad):
        mu0, lam0, bound = next(self.starts())
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            picard(mu0, lam0, PROD1, bound, **bad)


class TestDefaultDt:
    def test_formula(self):
        mu = DiscreteMeasure.delta(1.0)
        # phi = 2, phi2 = 4, lam = 0: dt = 0.05 / (4 * 4)
        assert default_dt(mu, 0.0) == pytest.approx(0.05 / 16.0, rel=1e-14)


class TestNonFiniteStep:
    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
    def test_config_refuses_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            SolverConfig(dt=dt)

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_default_dt_refuses_non_finite_step(self, weight):
        mu = DiscreteMeasure.from_grid([1, 2], [0.5, weight], 2.0 ** -6)
        with pytest.raises(ValueError, match="positive, finite phi-moments"):
            default_dt(mu, 0.0)
