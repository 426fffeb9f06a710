import math
import tracemalloc

import numpy as np
import pytest

from fourwave.cli import default_initial_measure, main
from fourwave.fenwick import FenwickTree
from fourwave.kernels import AFFINE, parse_kernel, parse_weight
from fourwave.measures import DiscreteMeasure, quantize
from fourwave.particle import (
    AuditError,
    MaxEventsError,
    ParticleState,
    ThinningError,
    extract_martingale,
    init,
    make_rng,
    simulate,
    simulate_coupled,
    simulate_exact_clocks,
    simulate_truncated,
    truncation_overflow_start,
)

PROD1 = parse_kernel("product:lambda=1")
CONST = parse_kernel("const:c=0.02")
ZERO = parse_kernel("const:c=0")


def exp_measure(seed=3, m=400, h=2.0 ** -6):
    rng = np.random.default_rng(seed)
    vals = rng.exponential(1.0, size=m)
    return quantize(DiscreteMeasure.from_points(vals, np.full(m, 1.0 / m)), h)


class TestFenwick:
    def test_against_naive(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.0, 3.0, size=37)
        fw = FenwickTree(w)
        assert fw.total == pytest.approx(w.sum(), rel=1e-14)
        for i in range(37):
            assert fw.prefix(i + 1) == pytest.approx(w[: i + 1].sum(), rel=1e-12)
        for _ in range(200):
            i = int(rng.integers(0, 37))
            v = float(rng.uniform(0.0, 3.0))
            w[i] = v
            fw.set(i, v)
        cum = np.cumsum(w)
        for u in rng.uniform(0.0, w.sum(), size=300):
            want = int(np.searchsorted(cum, u, side="right"))
            assert fw.sample(u) == want
        targets = rng.uniform(0.0, w.sum(), size=64)
        assert np.array_equal(fw.sample_batch(targets),
                              np.searchsorted(cum, targets, side="right"))

    def test_zero_weights_skipped(self):
        fw = FenwickTree([0.0, 2.0, 0.0, 1.0])
        for u in np.linspace(0.0, 2.999, 40):
            assert fw.leaf[fw.sample(u)] > 0.0


class TestPrefixTable:
    LEAVES = [0.0, 0.0, 0.5, 0.0, 1.25, 2.0, 0.0, 0.0, 0.75, 0.0, 0.0]  # zeros at both ends

    def test_targets_on_every_prefix_boundary(self):
        leaf = np.asarray(self.LEAVES)
        fw = FenwickTree(leaf)
        cum = np.cumsum(leaf)
        bounds = np.unique(np.concatenate([[0.0], cum[cum < cum[-1]]]))
        targets = np.concatenate([bounds, np.nextafter(bounds[1:], -np.inf)])
        draws = fw.sample_batch(targets)
        assert np.array_equal(draws, np.searchsorted(cum, targets, side="right"))
        assert np.all(leaf[draws] > 0.0)
        assert [fw.sample(u) for u in targets] == draws.tolist()

    def test_prefix_sums_rebuilt_once_per_write(self, monkeypatch):
        fw = FenwickTree(self.LEAVES)
        calls = []
        cumsum = np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda a: calls.append(1) or cumsum(a))
        for rounds in (1, 2):
            for _ in range(3):
                fw.total, fw.prefix(5), fw.sample(1.0), fw.sample_batch(np.array([0.5, 4.0]))
            assert len(calls) == rounds
            fw.set(3, 0.25)
            fw.set(0, 0.5)

    def test_set_on_copy_leaves_original_unchanged(self):
        st = init(64, exp_measure(), 2.0 ** -6, seed=4)
        u = make_rng(0).random(256) * st.phi_total
        total, draws = st.phi_total, st.fenwick.sample_batch(u)
        work = st.copy()
        work.fenwick.set(0, 0.0)
        work.apply_jump(1, 2, 3)
        assert work.phi_total == total - st.fenwick.leaf[0]
        assert st.phi_total == total
        assert np.array_equal(st.fenwick.sample_batch(u), draws)

    def test_random_sets_on_dyadic_leaves_match_fsum(self):
        rng = np.random.default_rng(5)
        n = 40
        leaf = rng.integers(0, 1 << 20, size=n) * 2.0 ** -12
        leaf[rng.random(n) < 0.2] = 0.0
        fw = FenwickTree(leaf)
        for _ in range(300):
            i = int(rng.integers(0, n))
            leaf[i] = 0.0 if rng.random() < 0.2 else int(rng.integers(0, 1 << 30)) * 2.0 ** -16
            fw.set(i, float(leaf[i]))
            assert fw.total == math.fsum(leaf)
            for k in range(n + 1):
                assert fw.prefix(k) == math.fsum(leaf[:k])


class TestInit:
    def test_point_mass(self):
        st = init(4, DiscreteMeasure.delta(1.0), 0.5, seed=1)
        assert list(st.idx) == [2, 2, 2, 2]

    def test_energy_bound(self):
        mu = exp_measure()
        st = init(256, mu, 2.0 ** -6, seed=5)
        assert st.sum_idx * st.h <= 256 * (mu.positions.max() + st.h / 2)

    def test_seed_determinism(self):
        mu = exp_measure()
        a = init(64, mu, 2.0 ** -6, seed=42)
        b = init(64, mu, 2.0 ** -6, seed=42)
        assert np.array_equal(a.idx, b.idx)
        assert not np.array_equal(a.idx, init(64, mu, 2.0 ** -6, seed=43).idx)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            init(1, DiscreteMeasure.delta(1.0), 0.5, seed=0)
        with pytest.raises(ValueError):
            init(4, DiscreteMeasure.delta(1.0), -0.5, seed=0)


class TestDefaultStart:
    @pytest.mark.parametrize("h", [2.0 ** -3, 2.0 ** -6, 2.0 ** -10, 2.0 ** -14])
    def test_closed_form_matches_table_lookup(self, h):
        mu = default_initial_measure(h)
        for seed in (0, 1, 7, 1234):
            for n in (1000, 4000):
                assert np.array_equal(init(n, None, h, seed).idx, init(n, mu, h, seed).idx)

    def test_nonpositive_h_rejected(self):
        for h in (0.0, -0.5):
            with pytest.raises(ValueError, match="positive"):
                init(1000, None, h, seed=0)
        # beyond int64 grid indices, or cutoff/h = inf: refused, not wrapped
        for h in (2.0 ** -60, 1e-320):
            with pytest.raises(ValueError, match="too fine"):
                init(1000, None, h, seed=0)

    def test_default_h_run_in_bounded_memory(self, tmp_path):
        # at h = 2^-20 the Exp(1) law has 41.9M atoms; the start draws n
        # particles without building them
        tracemalloc.start()
        try:
            assert main(["simulate", "--kernel", "product:lambda=1", "--n", "1000",
                         "--t-end", "0.01", "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestWeightMismatch:
    FRAC = parse_weight("fractional:gamma=0.5")

    def test_simulate(self):
        st = init(64, exp_measure(), 2.0 ** -6, seed=1)
        with pytest.raises(ValueError, match="particle state was built with"):
            simulate(st, PROD1, self.FRAC, 0.1, seed=0)

    def test_simulate_truncated(self):
        st = init(64, exp_measure(), 2.0 ** -6, seed=1, weight=self.FRAC)
        with pytest.raises(ValueError, match="particle state was built with"):
            simulate_truncated(st, 2.0, None, PROD1, AFFINE, 0.1, seed=0)

    def test_simulate_coupled(self):
        st = init(64, exp_measure(), 2.0 ** -6, seed=1, weight=self.FRAC)
        with pytest.raises(ValueError, match="particle state was built with"):
            simulate_coupled(st, 1.0, 2.0, PROD1, AFFINE, 0.1, seed=0)

    def test_simulate_exact_clocks(self):
        st = init(8, exp_measure(), 2.0 ** -6, seed=1)
        with pytest.raises(ValueError, match="particle state was built with"):
            simulate_exact_clocks(st, CONST, self.FRAC, 0.1, seed=0)


class TestSampleTimes:
    def test_every_driver_rejects_bad_sample_times(self):
        st = init(8, exp_measure(), 2.0 ** -6, seed=1)
        for times in ([0.0, 0.9, 0.1], [0.0, 5.0], [-0.1, 0.5], [0.0, np.nan]):
            with pytest.raises(ValueError, match="sample times"):
                simulate(st, ZERO, AFFINE, 1.0, sample_times=times)
        with pytest.raises(ValueError, match="sample times"):
            simulate_truncated(st, 2.0, None, ZERO, AFFINE, 1.0, sample_times=[0.5, 0.2])
        with pytest.raises(ValueError, match="sample times"):
            simulate_coupled(st, 1.0, 2.0, ZERO, AFFINE, 1.0, sample_times=[0.5, 0.2])
        with pytest.raises(ValueError, match="sample times"):
            simulate_exact_clocks(st, ZERO, AFFINE, 1.0, sample_times=[0.0, 1.5])
        traj = simulate(st, ZERO, AFFINE, 1.0, sample_times=[0.0, 0.5, 0.5, 1.0])
        assert traj.sample_times.tolist() == [0.0, 0.5, 0.5, 1.0]


class TestExactnessPreconditions:
    def test_non_dyadic_h_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="power of two"):
            ParticleState.build([1, 2, 3], 0.1, AFFINE)
        ParticleState.build([1, 2, 3], 0.1, parse_weight("fractional:gamma=0.5"))
        # the CLI reports it as a configuration error
        assert main(["simulate", "--kernel", "product:lambda=1", "--n", "8", "--h", "0.1",
                     "--t-end", "0.01", "--out", str(tmp_path)]) == 2

    def test_phi_total_beyond_mantissa_rejected(self):
        # n/h = 8192 * 2^41 = 2^54 h-units: Fenwick sums would round
        with pytest.raises(ValueError, match="2\\^53"):
            ParticleState.build(np.ones(8192, dtype=np.int64), 2.0 ** -41, AFFINE)
        with pytest.raises(ValueError, match="2\\^53"):
            ParticleState.build([2 ** 52, 2 ** 52], 1.0, AFFINE)
        ParticleState.build(np.ones(8192, dtype=np.int64), 2.0 ** -39, AFFINE)  # 2^52 + 8192


class TestJumpArithmetic:
    def test_forced_event(self):
        st = ParticleState.build([3, 2, 4], 1.0, AFFINE)
        before_sum = st.sum_idx
        st.apply_jump(0, 1, 2)
        # slot i takes the output 3 + 2 - 4, slot j the catalyst copy
        assert st.idx.tolist() == [1, 4, 4]
        assert st.sum_idx == before_sum == int(st.idx.sum())

    def test_catalyst_coincides_with_pair_is_noop(self):
        st = ParticleState.build([3, 2, 4], 1.0, AFFINE)
        st.apply_jump(0, 1, 0)  # catalyst is particle 0 itself
        assert sorted(st.idx.tolist()) == [2, 3, 4]

    def test_inadmissible_rejected(self):
        st = ParticleState.build([1, 1, 3], 1.0, AFFINE)
        with pytest.raises(ValueError):
            st.apply_jump(0, 1, 2)
        with pytest.raises(ValueError):
            st.apply_jump(0, 0, 1)

    def test_cached_sums_audit_after_many_jumps(self):
        # the phi table and frequency sum must match recomputation exactly
        st = init(32, exp_measure(), 2.0 ** -8, seed=12)
        rng = np.random.default_rng(3)
        applied = 0
        while applied < 500:
            i, j, l = rng.integers(0, 32, size=3)
            if i == j or st.idx[i] + st.idx[j] < st.idx[l]:
                continue
            st.apply_jump(int(i), int(j), int(l))
            applied += 1
        st.audit()
        phis = np.asarray(AFFINE(st.idx * st.h), dtype=float)
        assert st.fenwick.total == float(phis.sum())  # bit-exact for affine

    def test_audit_raises_on_diverged_frequency_sum(self):
        st = init(32, exp_measure(), 2.0 ** -8, seed=12)
        st.sum_idx += 1
        with pytest.raises(AuditError, match="frequency sum"):
            st.audit()

    def test_audit_raises_on_diverged_phi_table(self):
        st = init(32, exp_measure(), 2.0 ** -8, seed=12)
        st.fenwick.set(0, st.fenwick.leaf[0] + 1.0)
        with pytest.raises(AuditError, match="phi table"):
            st.audit()


class TestKillEscape:
    def test_kill(self):
        st = ParticleState.build([3, 5, 0, 7], 0.25, AFFINE)
        total, sum_idx = st.fenwick.total, st.sum_idx
        phi = st.kill(1)
        assert phi == 1.0 + 5 * 0.25
        assert st.alive.tolist() == [True, False, True, True]
        assert st.idx.tolist() == [3, 5, 0, 7] and st.fenwick.leaf[1] == 0.0
        assert st.sum_idx == sum_idx - 5
        assert st.fenwick.total + phi == total
        st.audit()

    def test_escape(self):
        st = ParticleState.build([3, 5, 2, 7], 0.25, AFFINE)
        total, sum_idx = st.fenwick.total, st.sum_idx
        phi = st.escape(0, 1, 2)
        # output 3 + 5 - 2 leaves; slot i takes the catalyst copy, slot j dies
        assert phi == 1.0 + 6 * 0.25
        assert st.idx[0] == 2 and st.fenwick.leaf[0] == 1.0 + 2 * 0.25
        assert st.alive.tolist() == [True, False, True, True] and st.fenwick.leaf[1] == 0.0
        assert st.sum_idx == sum_idx - 6
        assert st.fenwick.total + phi == total
        st.audit()

    def test_random_sequences_exact(self):
        # fine grid, catalyst coinciding with i or j included
        st = init(64, exp_measure(h=2.0 ** -20), 2.0 ** -20, seed=5)
        rng = np.random.default_rng(8)
        for step in range(200):
            live = np.nonzero(st.alive)[0]
            if len(live) < 3:
                break
            total, sum_idx = st.fenwick.total, st.sum_idx
            if step % 3 == 0:
                s = int(rng.choice(live))
                v = int(st.idx[s])
                phi = st.kill(s)
                assert not st.alive[s] and st.sum_idx == sum_idx - v
            else:
                i, j = (int(x) for x in rng.choice(live, size=2, replace=False))
                l = int(rng.choice(live))
                vl = int(st.idx[l])
                out = int(st.idx[i]) + int(st.idx[j]) - vl
                if out < 0:
                    continue
                phi = st.escape(i, j, l)
                assert st.idx[i] == vl and st.alive[i] and not st.alive[j]
                assert st.sum_idx == sum_idx - out
            assert st.fenwick.total + phi == total
            st.audit()


class TestSimulate:
    def test_zero_kernel_constant(self):
        st = init(32, exp_measure(), 2.0 ** -6, seed=2)
        traj = simulate(st, ZERO, AFFINE, 1.0, seed=9, record_events=True)
        assert len(traj.events) == 0
        assert np.all(traj.E == traj.E[0])

    def test_determinism_same_seed(self):
        st = init(64, exp_measure(), 2.0 ** -6, seed=2)
        a = simulate(st, PROD1, AFFINE, 0.5, seed=11, stream=3, record_events=True)
        b = simulate(st, PROD1, AFFINE, 0.5, seed=11, stream=3, record_events=True)
        assert np.array_equal(a.E, b.E)
        assert [e.time for e in a.events] == [e.time for e in b.events]
        c = simulate(st, PROD1, AFFINE, 0.5, seed=11, stream=4, record_events=True)
        assert [e.time for e in c.events] != [e.time for e in a.events]

    def test_exact_conservation(self):
        st = init(128, exp_measure(), 2.0 ** -20, seed=6)
        e0, phi0 = st.sum_idx, st.phi_total
        traj = simulate(st, PROD1, AFFINE, 0.5, seed=1, record_events=True)
        assert len(traj.events) > 0
        assert np.all(traj.energy_idx == e0)          # integer-exact energy
        assert np.all(traj.W == 1.0)                  # particle count
        assert np.all(traj.conserved_phi == phi0 / st.n)  # bit-exact phi sum

    def test_empirical_rate_matches_analytic(self):
        # all particles at frequency 1: jumps are value no-ops, so the total
        # rate stays exactly c/n^2 * #{(i<j, l)} for the whole run
        n, c, t = 50, 0.02, 10.0
        st = ParticleState.build(np.full(n, 16), 2.0 ** -4, AFFINE)
        rate = c / n ** 2 * (n * (n - 1) // 2) * n
        counts = []
        for rep in range(200):
            traj = simulate(st, CONST, AFFINE, t, seed=77, stream=rep,
                            record_events=True, precheck=False)
            counts.append(len(traj.events))
        mean = np.mean(counts)
        expect = rate * t
        se = math.sqrt(expect / 200)
        assert abs(mean - expect) <= 3 * se, (mean, expect, se)

    def test_submultiplicativity_abort(self):
        st = init(16, exp_measure(), 2.0 ** -4, seed=3)
        with pytest.raises(ThinningError):
            simulate(st, parse_kernel("product:lambda=9"), AFFINE, 0.1, seed=0)

    def test_in_loop_abort_without_precheck(self):
        st = ParticleState.build(np.full(8, 1600), 2.0 ** -4, AFFINE)  # omega = 100
        with pytest.raises(ThinningError, match="acceptance probability"):
            simulate(st, parse_kernel("product:lambda=9"), AFFINE, 10.0,
                     seed=0, precheck=False)

    def test_event_cap(self):
        st = init(64, exp_measure(), 2.0 ** -6, seed=2)
        with pytest.raises(MaxEventsError):
            simulate(st, PROD1, AFFINE, 2.0, seed=5, record_events=True, max_events=2)

    def test_fractional_weight_runs(self):
        # fractional majorant: total interaction weight changes across jumps
        st = init(48, exp_measure(), 2.0 ** -6, seed=8,
                  weight=parse_weight("fractional:gamma=0.6666666666666666"))
        traj = simulate(st, parse_kernel("product:lambda=1"),
                        parse_weight("fractional:gamma=0.6666666666666666"), 0.2, seed=4,
                        record_events=True)
        assert np.all(traj.energy_idx == traj.energy_idx[0])


class TestTruncated:
    def test_reduces_to_untruncated(self):
        st = init(48, exp_measure(), 2.0 ** -6, seed=4)
        bound = st.sum_idx * st.h  # nothing can escape the total energy
        a = simulate(st, PROD1, AFFINE, 0.5, seed=21, record_events=True)
        b = simulate_truncated(st, bound, 0.0, PROD1, AFFINE, 0.5, seed=21,
                               record_events=True)
        assert np.array_equal(a.E, b.E)
        assert np.array_equal(a.phi, b.phi)
        assert [e.time for e in a.events] == [e.time for e in b.events]
        assert np.all(b.overflow == 0.0)

    def test_phi_conservation_exact_and_overflow_monotone(self):
        st = init(96, exp_measure(), 2.0 ** -6, seed=4)
        traj = simulate_truncated(st, 1.0, None, PROD1, AFFINE, 1.0, seed=13,
                                  record_events=True)
        assert np.all(traj.conserved_phi == traj.conserved_phi[0])
        assert np.all(np.diff(traj.overflow) >= 0.0)
        branches = {e.branch for e in traj.events}
        assert branches & {"escape", "kill"}, "window too large to exercise truncation"

    def test_undersized_overflow_rejected(self):
        st = init(48, exp_measure(), 2.0 ** -6, seed=4)
        with pytest.raises(ValueError, match="nu\\^B"):
            simulate_truncated(st, 0.5, 0.0, PROD1, AFFINE, 0.1, seed=0)

    def test_window_edge_within_tolerance(self):
        # 1 - 1e-12 is within the grid tolerance of 1.0: the particles at
        # w = 1.0 are inside the window, at the start as for later outputs
        h = 2.0 ** -6
        st = ParticleState.build([64, 64, 0, 16, 32], h, AFFINE)
        traj = simulate_truncated(st, 1.0 - 1e-12, None, PROD1, AFFINE, 0.5, seed=2)
        assert traj.W[0] == 1.0 and traj.overflow[0] == 0.0
        assert truncation_overflow_start(st, 1.0 - 1e-12) == 0.0
        # half a grid step below, they are outside
        assert truncation_overflow_start(st, 1.0 - h / 2) == 2 * 2.0 / 5


class TestCoupled:
    def test_equal_bounds_identical(self):
        st = init(40, exp_measure(), 2.0 ** -6, seed=9)
        lo, hi = simulate_coupled(st, 2.0, 2.0, PROD1, AFFINE, 0.5, seed=3)
        assert np.array_equal(lo.phi, hi.phi)
        assert np.array_equal(lo.overflow, hi.overflow)

    def test_domination_and_shared_conservation(self):
        st = init(60, exp_measure(), 2.0 ** -6, seed=9)
        for stream in range(5):
            lo, hi = simulate_coupled(st, 1.5, 4.0, PROD1, AFFINE, 0.6,
                                      seed=51, stream=stream)
            assert np.array_equal(lo.conserved_phi, hi.conserved_phi)
            assert np.all(lo.conserved_phi == lo.conserved_phi[0])
            for mlo, mhi in zip(lo.snapshots, hi.snapshots):
                table = dict(zip(mhi.idx.tolist(), mhi.weights.tolist()))
                for k, w in zip(mlo.idx.tolist(), mlo.weights.tolist()):
                    assert w <= table.get(k, 0.0) + 1e-15

    def test_overflows_ordered(self):
        st = init(60, exp_measure(), 2.0 ** -6, seed=9)
        lo, hi = simulate_coupled(st, 1.0, 3.0, PROD1, AFFINE, 0.6, seed=7)
        assert np.all(lo.overflow >= hi.overflow - 1e-15)

    def test_domination_check_fires(self, monkeypatch):
        # an escape that kills the catalyst slot instead of the output slot
        # leaves a lower particle dead in the upper level
        escape = ParticleState.escape
        monkeypatch.setattr(ParticleState, "escape",
                            lambda self, i, j, l: escape(self, j, i, l))
        st = init(60, exp_measure(), 2.0 ** -6, seed=9)
        with pytest.raises(AuditError, match="domination"):
            simulate_coupled(st, 4.0, 4.0, PROD1, AFFINE, 0.3, seed=7)


class TestMartingale:
    def test_zero_kernel(self):
        st = init(24, exp_measure(), 2.0 ** -4, seed=5)
        traj = simulate(st, ZERO, AFFINE, 0.5, seed=2, record_events=True)
        _, m = extract_martingale(traj, lambda x: np.cos(np.asarray(x)), ZERO)
        assert np.all(m == 0.0)

    def test_affine_test_function_exact_zero(self):
        st = init(24, exp_measure(), 2.0 ** -4, seed=5)
        traj = simulate(st, PROD1, AFFINE, 0.5, seed=6, record_events=True)
        assert len(traj.events) > 0
        _, m = extract_martingale(traj, lambda x: 1.0 + np.asarray(x), PROD1)
        assert np.all(m == 0.0)

    def test_wide_grid_drift(self):
        # over 300 occupied sites beyond index 4096: the drift can only
        # come from the (rfft-backed) convolution route
        h = 2.0 ** -10
        st = init(1000, exp_measure(m=1000, h=h), h, seed=4)
        assert st.idx.max() > 4096 and len(np.unique(st.idx)) > 300
        traj = simulate(st, PROD1, AFFINE, 0.01, seed=1, record_events=True, precheck=False)
        assert len(traj.events) > 0
        _, m = extract_martingale(traj, lambda x: 1.0 + np.asarray(x), PROD1)
        assert np.max(np.abs(m)) <= 1e-12

    def test_ensemble_mean_zero(self):
        st = init(20, exp_measure(), 2.0 ** -4, seed=5)
        f = lambda x: np.cos(np.asarray(x))
        finals = []
        for rep in range(400):
            traj = simulate(st, PROD1, AFFINE, 0.4, seed=123, stream=rep,
                            record_events=True, precheck=False)
            _, m = extract_martingale(traj, f, PROD1)
            finals.append(m[-1])
        finals = np.asarray(finals)
        se = finals.std(ddof=1) / math.sqrt(len(finals))
        assert abs(finals.mean()) <= 3 * se + 1e-12


class TestExactClockOracle:
    def test_constant_state_rate(self):
        n, c, t = 12, 0.05, 4.0
        st = ParticleState.build(np.full(n, 8), 0.25, AFFINE)
        rate = c / n ** 2 * (n * (n - 1) // 2) * n
        rng_counts = []
        for rep in range(150):
            traj = simulate_exact_clocks(st, parse_kernel(f"const:c={c}"), AFFINE, t,
                                         seed=1, stream=rep)
            rng_counts.append(traj.phi[-1])  # phi is constant; use as smoke output
        traj = simulate_exact_clocks(st, parse_kernel(f"const:c={c}"), AFFINE, t, seed=1)
        assert np.all(traj.E == traj.E[0])


class TestZeroFrequencyAtoms:
    def test_inert_under_fractional_weight(self):
        # phi(0) = 0 for fractional weights: zero-frequency particles carry
        # no interaction weight and never change
        w = parse_weight("fractional:gamma=0.6666666666666666")
        st = ParticleState.build([0, 0, 8, 16, 24, 32], 2.0 ** -3, w)
        traj = simulate(st, PROD1, w, 2.0, seed=5, record_events=True,
                        record_snapshots=True)
        idx = traj.initial_idx.copy()
        ev = traj.events
        for i, j, l in zip(ev.i.tolist(), ev.j.tolist(), ev.l.tolist()):
            vi, vj, vl = int(idx[i]), int(idx[j]), int(idx[l])
            assert 0 not in (vi, vj, vl)
            idx[i], idx[j] = vi + vj - vl, vl
        zero_mass = [float(s.weights[s.idx == 0].sum()) for s in traj.snapshots]
        assert all(m == zero_mass[0] for m in zero_mass)
        assert st.fenwick.leaf[0] == 0.0 and st.fenwick.leaf[1] == 0.0
