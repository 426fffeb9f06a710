import math
import re
import tracemalloc

import numpy as np
import pytest

from fourwave import collision, particle
from fourwave.collision import (counting_correction, grid_q_counting, q_counting,
                                trilinear_pairing)
from fourwave.cli import default_initial_measure, main
from fourwave.fenwick import FenwickTree
from fourwave.kernels import AFFINE, parse_kernel, parse_weight
from fourwave.measures import DiscreteMeasure, moment, quantize
from fourwave.trajectory import EVENT_DTYPE
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
    simulate_truncated,
    truncation_overflow_start,
)

from clock_oracle import clock_table, exact_clocks

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


    def test_exact_writes_match_fresh_cumsum(self):
        rng = np.random.default_rng(5)
        leaf = rng.integers(0, 1 << 20, size=40) * 2.0 ** -12
        fw = FenwickTree(leaf, exact=True)
        cum = fw._sums()
        for step in range(300):
            i, j = (int(x) for x in rng.choice(40, size=2, replace=False))
            a, b = (int(x) * 2.0 ** -16 for x in rng.integers(0, 1 << 30, size=2))
            if step % 3 == 0:
                fw.set(i, a)
                leaf[i] = a
            else:
                if step % 3 == 2:  # a swap keeps the total
                    a, b = float(leaf[j]), float(leaf[i])
                fw.set_pair(i, a, j, b)
                leaf[i], leaf[j] = a, b
            assert np.array_equal(fw._sums(), np.cumsum(leaf))
        assert fw._sums() is cum

    def test_exact_table_updated_in_place(self):
        # jumps, escapes and kills write a few hundred leaves of an affine
        # state's table; its prefix sums stay the same array and equal a
        # fresh cumsum bit for bit
        st = init(300, exp_measure(h=2.0 ** -20), 2.0 ** -20, seed=3)
        frac = init(300, exp_measure(), 2.0 ** -6, seed=3,
                    weight=parse_weight("fractional:gamma=0.5"))
        assert st.fenwick.exact and st.copy().fenwick.exact and not frac.fenwick.exact
        cum = st.fenwick._sums()
        rng = np.random.default_rng(7)
        writes = 0
        while writes < 400:
            live = np.flatnonzero(st.alive)
            i, j, l = (int(x) for x in rng.choice(live, size=3))
            if writes % 10 == 9:
                st.kill(i)
                writes += 1
            elif i != j and st.idx[i] + st.idx[j] >= st.idx[l]:
                (st.escape if writes % 10 == 4 else st.apply_jump)(i, j, l)
                writes += 2
        assert st.fenwick._sums() is cum
        assert np.array_equal(cum, np.cumsum(st.fenwick.leaf))
        assert st.alive.sum() < 300
        st.audit()

    def test_audit_catches_a_diverged_prefix_sum(self):
        st = init(32, exp_measure(), 2.0 ** -8, seed=12)
        st.fenwick._sums()[5] += 1.0
        with pytest.raises(AuditError, match="phi table"):
            st.audit()


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


class TestInitTable:
    """init's two-level prefix table against the exact one of 2^20 integer
    weights below 2^40, whose prefix sums an int64 cumsum holds exactly."""

    @staticmethod
    def weights():
        ints = np.random.default_rng(20).integers(1, 1 << 40, size=1 << 20)
        exact = np.cumsum(ints)
        # exact prefix sums below 2^60, rounded to float and divided: within 1 ulp
        return ints.astype(float), exact / exact[-1]

    def test_few_ulp_and_better_than_one_cumsum(self):
        w, table = self.weights()
        plain = np.cumsum(w)
        plain /= plain[-1]
        worst = np.max(np.abs(particle._cdf(w) - table))
        assert worst <= 16 * 2.0 ** -52
        assert worst < np.max(np.abs(plain - table))

    def test_draws_match_exact_table(self):
        w, table = self.weights()
        mu = DiscreteMeasure.from_grid(np.arange(len(w)), w, 1.0)
        for seed in range(10):
            want = np.searchsorted(table, make_rng(seed).random(10 ** 4), side="right")
            assert np.array_equal(init(10 ** 4, mu, 1.0, seed).idx, want)

    def test_small_measure_keeps_one_cumsum(self):
        w = np.random.default_rng(3).random(particle._CDF_BLOCK)
        plain = np.cumsum(w)
        assert np.array_equal(particle._cdf(w), plain / plain[-1])


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


class TestEngineAudit:
    """The engine audits its cached sums every _AUDIT_EVERY accepted events;
    a small cadence makes short runs reach the audit."""

    def audited_run(self, monkeypatch, weight, corrupt_at=None):
        monkeypatch.setattr(particle, "_AUDIT_EVERY", 3)
        audits, jumps = [], []
        audit, apply_jump = ParticleState.audit, ParticleState.apply_jump

        def counted_audit(self):
            audits.append(self.n)
            audit(self)

        def jump(self, i, j, l):
            apply_jump(self, i, j, l)
            jumps.append(i)
            if len(jumps) == corrupt_at:
                self.sum_idx += 1

        monkeypatch.setattr(ParticleState, "audit", counted_audit)
        monkeypatch.setattr(ParticleState, "apply_jump", jump)
        st = init(48, exp_measure(), 2.0 ** -6, seed=8, weight=weight)
        traj = simulate(st, PROD1, weight, 2.0, seed=4, record_events=True)
        return traj, audits

    @pytest.mark.parametrize("spec", ["affine", "fractional:gamma=0.6666666666666666"])
    def test_clean_runs_pass(self, monkeypatch, spec):
        traj, audits = self.audited_run(monkeypatch, parse_weight(spec))
        assert len(traj.events) >= 6
        assert len(audits) == len(traj.events) // 3

    def test_corrupted_sum_raises(self, monkeypatch):
        with pytest.raises(AuditError, match="frequency sum"):
            self.audited_run(monkeypatch, AFFINE, corrupt_at=4)


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


def path_runs():
    """Runs whose paths must not depend on how the engine evaluates its
    candidates: untruncated product and sum runs under the affine weight,
    a fractional one (S re-read after every jump), a kill-dominated
    truncated run, and one from a nonzero overflow start that jumps, kills
    and escapes."""
    frac = parse_weight("fractional:gamma=0.6666666666666666")
    st = init(200, exp_measure(), 2.0 ** -6, seed=4)
    low = ParticleState.build(np.random.default_rng(1).integers(0, 16, 200), 2.0 ** -3)
    return [
        lambda: simulate(st, PROD1, AFFINE, 1.0, seed=3, record_events=True,
                         record_snapshots=True),
        lambda: simulate(st, parse_kernel("sum:lambda=1"), AFFINE, 1.0, seed=3,
                         record_events=True, record_snapshots=True),
        lambda: simulate(init(200, exp_measure(), 2.0 ** -6, seed=4, weight=frac), PROD1,
                         frac, 1.0, seed=3, record_events=True, record_snapshots=True),
        lambda: simulate_truncated(init(300, None, 2.0 ** -6, seed=7), 2.0, None, PROD1,
                                   AFFINE, 1.0, seed=7, record_events=True,
                                   record_snapshots=True),
        lambda: simulate_truncated(low, 2.0, 0.01, PROD1, AFFINE, 1.0, seed=13,
                                   record_events=True, record_snapshots=True),
    ]


def assert_same_path(a, b):
    """The same events (as bytes: kill records carry a NaN output
    frequency), moment rows and snapshots."""
    assert a.events.tobytes() == b.events.tobytes()
    assert (a.overflow is None) == (b.overflow is None)
    for name in ("W", "E", "phi", "phi2", "overflow", "conserved_phi", "energy_idx"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for x, y in zip(a.snapshots, b.snapshots, strict=True):
        assert np.array_equal(x.idx, y.idx) and np.array_equal(x.weights, y.weights)


class TestSimulate:
    def test_zero_kernel_constant(self):
        st = init(32, exp_measure(), 2.0 ** -6, seed=2)
        traj = simulate(st, ZERO, AFFINE, 1.0, seed=9, record_events=True)
        assert len(traj.events) == 0
        assert np.all(traj.E == traj.E[0])

    def test_kernel_recorded_by_type(self):
        st = init(32, exp_measure(), 2.0 ** -6, seed=2)
        bare = lambda a, b, c: PROD1(a, b, c)
        assert simulate(st, PROD1, AFFINE, 0.1, seed=9).meta["kernel"] == "product:lambda=1"
        assert simulate(st, bare, AFFINE, 0.1, seed=9).meta["kernel"] == "custom"

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

    def test_window_size_leaves_path_unchanged(self, monkeypatch):
        # a window of 1 evaluates candidate by candidate, a window of
        # _CHUNK the whole chunk at once: the draws, and so the paths, are
        # the same
        for run in path_runs():
            default = run()
            assert len(default.events) > 50
            for size in (1, particle._CHUNK):
                monkeypatch.setattr(particle, "_WINDOW", size)
                other = run()
                monkeypatch.undo()
                assert_same_path(default, other)
        assert {"interior", "kill", "escape"} <= set(default.events.branch)

    def test_screen_leaves_path_unchanged(self, monkeypatch):
        # C = inf keeps every candidate before a chunk's first kill, in
        # windows of 32.  The paths are the same, and
        # only the product runs under the affine weight (C = 4/27) search
        # fewer slots with the screen
        searched = []
        sample_batch = FenwickTree.sample_batch

        def counted(self, targets):
            searched[-1] += targets.shape[1]
            return sample_batch(self, targets)

        monkeypatch.setattr(FenwickTree, "sample_batch", counted)
        for run in path_runs():
            searched.append(0)
            default = run()
            searched.append(0)
            with monkeypatch.context() as m:
                m.setattr(particle, "domination_constant", lambda kernel, weight: math.inf)
                other = run()
            assert_same_path(default, other)
        screened, unscreened = searched[0::2], searched[1::2]
        assert [a < b for a, b in zip(screened, unscreened)] == [True, False, False, True, True]
        assert screened[1:3] == unscreened[1:3]


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

    def test_overflow_start_below_cover_refused(self):
        # nu^B < 0 below the canonical cover: the refusal names the start
        # and the cover; a start equal to the cover runs
        st = init(48, exp_measure(), 2.0 ** -6, seed=4)
        cover = truncation_overflow_start(st, 0.5)
        below = cover * (1.0 - 1e-9)
        with pytest.raises(ValueError, match="nu\\^B < 0") as refused:
            simulate_truncated(st, 0.5, below, PROD1, AFFINE, 0.1, seed=0)
        assert repr(below) in str(refused.value) and repr(cover) in str(refused.value)
        traj = simulate_truncated(st, 0.5, cover, PROD1, AFFINE, 0.1, seed=0)
        assert traj.overflow[0] == pytest.approx(cover, rel=1e-15)

    def test_untruncated_drivers_ignore_a_killed_mass(self):
        # a public kill moves phi-mass into the state's overflow, but the
        # untruncated drivers run with no window and zero overflow: their
        # rows are those of the same slots with the overflow cleared
        st = ParticleState.build([3, 5, 2, 7, 1, 0], 0.25, AFFINE)
        st.kill(0)
        assert st.lam == 1.75
        cleared = st.copy()
        cleared.lam = 0.0
        for run in (lambda s: simulate(s, PROD1, AFFINE, 1.0, seed=3, record_events=True),
                    lambda s: exact_clocks(s, PROD1, 1.0, make_rng(3))):
            traj, want = run(st), run(cleared)
            assert traj.overflow is None and traj.conserved_phi[0] == 8.75 / 6
            assert np.array_equal(traj.conserved_phi, traj.phi)
            for key in ("W", "E", "phi", "phi2", "conserved_phi"):
                assert np.array_equal(getattr(traj, key), getattr(want, key)), key
            assert traj.events is None or traj.events.tobytes() == want.events.tobytes()
            assert traj.W[-1] == 5 / 6

    def test_event_cap(self):
        st = init(96, exp_measure(), 2.0 ** -6, seed=4)
        with pytest.raises(MaxEventsError):
            simulate_truncated(st, 1.0, None, PROD1, AFFINE, 1.0, seed=13,
                               record_events=True, max_events=2)

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

    def test_negative_bound_refused(self):
        st = ParticleState.build([64, 64, 0, 16, 32], 2.0 ** -6, AFFINE)
        calls = [lambda b: simulate_truncated(st, b, None, PROD1, AFFINE, 0.1, seed=2),
                 lambda b: simulate_coupled(st, b, 2.0, PROD1, AFFINE, 0.1, seed=2),
                 lambda b: simulate_coupled(st, b, b, PROD1, AFFINE, 0.1, seed=2),
                 lambda b: truncation_overflow_start(st, b)]
        for call in calls:
            for bound in (-1.0, -2.0 ** -7, math.nan):
                with pytest.raises(ValueError, match="bound must be nonnegative, got "):
                    call(bound)
        # the zero window holds the particles at w = 0 only
        assert truncation_overflow_start(st, 0.0) == (2.0 + 2.0 + 1.25 + 1.5) / 5
        traj = simulate_truncated(st, 0.0, None, PROD1, AFFINE, 0.1, seed=2)
        assert traj.W[0] == 0.2


def reference_engine(state, kernel, t_end, seed, bound=None, lam0=None):
    """The thinning engine candidate by candidate, with one scalar
    rng.random call per uniform: per chunk 128 gaps, 128 kill draws when the
    kill clock runs, 384 triple draws and 128 acceptance draws, then one
    victim draw after a kill.  Returns the events and the W, E and
    overflow rows at the default sample times."""
    if bound is None:
        work, bound_idx, lam = state.copy(), None, 0.0
    else:
        work = particle._windowed(state, bound)
        bound_idx, lam = work.bound_idx, work.lam if lam0 is None else lam0 * state.n
    n, h, weight = work.n, work.h, work.weight
    idx, alive, leaf = work.idx.tolist(), work.alive.tolist(), work.fenwick.leaf.copy()
    rng = make_rng(seed)
    times = np.linspace(0.0, t_end, 17)
    rows, events = [], []

    def record(until):
        while len(rows) < len(times) and times[len(rows)] < until:
            live = [v for v, a in zip(idx, alive) if a]
            rows.append((len(live) / n, sum(live) * h / n, lam / n))

    t = 0.0
    while t < t_end:
        cum = np.cumsum(leaf)
        s1 = float(cum[-1])
        lam_f = lam / n
        r_pair = s1 * s1 * s1 * (1.0 / (2.0 * n * n))
        r_kill = s1 * (lam_f * lam_f + 2.0 * lam_f * s1 / n) if bound is not None else 0.0
        r_total = r_pair + r_kill
        if r_total <= 0.0:
            break
        gaps = [rng.random() for _ in range(128)]
        kills = [rng.random() for _ in range(128)] if r_kill > 0.0 else None
        tri = [rng.random() for _ in range(384)]
        acc = [rng.random() for _ in range(128)]
        elapsed, hit = 0.0, None
        for c in range(128):
            gap = np.log1p(-gaps[c]) / -r_total
            elapsed = gap if c == 0 else elapsed + gap
            if kills is not None and kills[c] < r_kill / r_total:
                hit = "kill"
                break
            i, j, l = (int(np.searchsorted(cum, u * s1, side="right"))
                       for u in tri[3 * c:3 * c + 3])
            out = idx[i] + idx[j] - idx[l]
            phis = leaf[i] * leaf[j] * leaf[l]
            if i != j and out >= 0 and phis > 0.0 and acc[c] < kernel(
                    idx[i] * h, idx[j] * h, idx[l] * h) / phis:
                hit = "jump"
                break
        t_ev = t + float(elapsed)
        if hit is None:
            t = t_ev
            continue
        if t_ev >= t_end:
            break
        record(t_ev)
        t = t_ev
        if hit == "kill":
            i = int(np.searchsorted(cum, rng.random() * s1, side="right"))
            lam += float(leaf[i])
            alive[i], leaf[i] = False, 0.0
            events.append((t, i, -1, -1, math.nan, "kill"))
        elif bound is not None and out > bound_idx:
            lam += float(weight(out * h))
            idx[i], leaf[i] = idx[l], float(weight(idx[l] * h))
            alive[j], leaf[j] = False, 0.0
            events.append((t, i, j, l, idx[l] * h, "escape"))
        else:
            idx[i], idx[j] = out, idx[l]
            leaf[i], leaf[j] = float(weight(out * h)), float(weight(idx[j] * h))
            events.append((t, i, j, l, out * h, "interior"))
    record(math.inf)
    arr = np.array(rows)
    return np.array(events, dtype=EVENT_DTYPE), arr[:, 0], arr[:, 1], arr[:, 2]


class TestEngineAgainstReference:
    """The engine's draw buffer, windows and kill-first chunks give the
    events and moments of the candidate-by-candidate reference."""

    FRAC = parse_weight("fractional:gamma=0.6666666666666666")

    def check(self, traj, ref, truncated):
        events, W, E, overflow = ref
        assert len(events) > 50
        assert traj.events.tobytes() == events.tobytes()  # kill records hold NaN
        assert np.array_equal(traj.W, W) and np.array_equal(traj.E, E)
        assert np.array_equal(traj.overflow, overflow) if truncated else traj.overflow is None

    @pytest.mark.parametrize("kernel, weight", [
        (PROD1, AFFINE), (parse_kernel("sum:lambda=1"), AFFINE), (PROD1, FRAC),
    ], ids=["product", "sum", "fractional"])
    def test_simulate(self, kernel, weight):
        st = init(200, exp_measure(), 2.0 ** -6, seed=4, weight=weight)
        traj = simulate(st, kernel, weight, 1.0, seed=3, record_events=True)
        self.check(traj, reference_engine(st, kernel, 1.0, 3), truncated=False)

    def test_kill_dominated(self):
        st = init(300, None, 2.0 ** -6, seed=7)
        traj = simulate_truncated(st, 2.0, None, PROD1, AFFINE, 1.0, seed=7, record_events=True)
        assert np.mean(traj.events.branch == "kill") > 0.9
        self.check(traj, reference_engine(st, PROD1, 1.0, 7, bound=2.0), truncated=True)

    def test_jumps_kills_and_escapes(self):
        low = ParticleState.build(np.random.default_rng(1).integers(0, 16, 200), 2.0 ** -3)
        traj = simulate_truncated(low, 2.0, 0.01, PROD1, AFFINE, 1.0, seed=13,
                                  record_events=True)
        assert {"interior", "kill", "escape"} <= set(traj.events.branch)
        self.check(traj, reference_engine(low, PROD1, 1.0, 13, bound=2.0, lam0=0.01),
                   truncated=True)


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
        # an upper-level escape that kills the catalyst slot instead of the
        # output slot leaves a lower particle dead in the upper level; the
        # driver windows the upper copy first
        windowed = particle._windowed
        copies = []

        def swapped_upper(state, bound):
            work = windowed(state, bound)
            if not copies:
                work.escape = lambda i, j, l: ParticleState.escape(work, j, i, l)
            copies.append(work)
            return work

        monkeypatch.setattr(particle, "_windowed", swapped_upper)
        st = init(60, exp_measure(), 2.0 ** -6, seed=9)
        with pytest.raises(AuditError, match="domination"):
            simulate_coupled(st, 4.0, 4.0, PROD1, AFFINE, 0.3, seed=7)


class TestRecorder:
    """Each moment row is the moment of the snapshot recorded with it."""

    @staticmethod
    def check_rows(traj, weight):
        n = traj.n
        assert len(traj.snapshots) == len(traj.sample_times)
        for k, snap in enumerate(traj.snapshots):
            counts = np.rint(snap.weights * n).astype(np.int64)
            assert traj.W[k] == counts.sum() / n
            assert traj.energy_idx[k] == int(np.dot(snap.idx, counts))
            assert traj.phi[k] == pytest.approx(moment(snap, weight), rel=1e-12)
            assert traj.phi2[k] == pytest.approx(
                moment(snap, lambda w: np.asarray(weight(w)) ** 2), rel=1e-12)
        if traj.truncated:
            np.testing.assert_allclose(traj.conserved_phi, traj.phi + traj.overflow,
                                       rtol=1e-15, atol=0.0)
        else:
            assert np.array_equal(traj.conserved_phi, traj.phi)

    def test_rows_match_snapshots(self):
        frac = parse_weight("fractional:gamma=0.6666666666666666")
        st = init(200, exp_measure(), 2.0 ** -6, seed=4)
        low = ParticleState.build(np.random.default_rng(1).integers(0, 16, 200), 2.0 ** -3)
        small = ParticleState.build(np.random.default_rng(2).integers(1, 16, 16), 2.0 ** -3)
        trunc = simulate_truncated(low, 2.0, truncation_overflow_start(low, 2.0) + 0.01,
                                   PROD1, AFFINE, 1.0, seed=13, record_events=True,
                                   record_snapshots=True)
        assert {"interior", "kill", "escape"} <= set(trunc.events.branch)
        runs = [
            (simulate(st, PROD1, AFFINE, 1.0, seed=3, record_snapshots=True), AFFINE),
            (simulate(init(200, exp_measure(), 2.0 ** -6, seed=4, weight=frac), PROD1,
                      frac, 1.0, seed=3, record_snapshots=True), frac),
            (trunc, AFFINE),
            *((tr, AFFINE) for tr in simulate_coupled(st, 1.0, 3.0, PROD1, AFFINE, 0.6,
                                                      seed=7)),
            (exact_clocks(small, PROD1, 1.0, make_rng(5), record_snapshots=True), AFFINE),
            (exact_clocks(ParticleState.build(small.idx, small.h, frac), PROD1, 1.0,
                          make_rng(5), record_snapshots=True), frac),
        ]
        for traj, weight in runs:
            assert traj.phi2[-1] != traj.phi2[0]  # the state moved
            self.check_rows(traj, weight)


    @pytest.mark.parametrize("n, sites, killed", [(7, 40, 0), (300, 40, 41), (1000, 3, 0),
                                                  (5, 4, 5)])
    def test_snapshot_has_the_bits_of_compact(self, n, sites, killed):
        # one sort and sequential sums of 1/n give the bits of merging a
        # unit-weight measure with compact(); at n = 1000 on 3 sites the
        # sums differ from count / n
        rng = np.random.default_rng(n)
        st = ParticleState.build(rng.integers(0, sites, n), 2.0 ** -6)
        for slot in rng.choice(n, killed, replace=False):
            st.kill(int(slot))
        rec = particle.MomentRecorder(st, [0.0], 1.0, snapshots=True)
        rec.finish()
        got = rec.build().snapshots[0]
        live = st.idx[st.alive]
        want = DiscreteMeasure.from_grid(live, np.full(len(live), 1.0 / n), st.h).compact()
        assert got.h == want.h and got._positions is None
        assert got.idx.dtype == want.idx.dtype and got.weights.dtype == want.weights.dtype
        assert got.idx.tobytes() == want.idx.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()


class TestMajorantPrecheck:
    """The precheck's mesh holds the grid's smallest frequency h, where
    K/(phi phi phi) = (w1 w2 w3)^(-1/6) of product:lambda=0.5 under the
    fractional 2/3 weight is largest; the refusal names plain floats."""

    @pytest.mark.parametrize("n, h, ratio", [(60, 2.0 ** -3, "2.82843"), (300, 2.0 ** -6, "8")])
    def test_refused_up_front(self, n, h, ratio):
        frac = parse_weight("fractional:gamma=0.6666666666666666")
        st = init(n, None, h, seed=7, weight=frac)
        with pytest.raises(ThinningError, match=re.escape(
                f"K/(phi*phi*phi) = {ratio} at witness ({h!r}, {h!r}, {h!r})")):
            simulate(st, parse_kernel("product:lambda=0.5"), frac, 0.5, seed=1)


class TestInLoopRefusal:
    """A kernel that spikes between the precheck's mesh points passes the
    precheck; each driver then refuses the first candidate it cannot
    accept, with one message."""

    @staticmethod
    def spike(w1, w2, w3):
        return np.where(np.asarray(w1) == 0.75, 1e6, 0.0)

    @pytest.mark.parametrize("driver", ["simulate", "truncated", "coupled"])
    def test_refused_with_one_message(self, driver):
        # eight particles at w = 0.75: the mesh linspace(0, 6, 12) misses 0.75
        st = ParticleState.build(np.full(8, 12), 2.0 ** -4, AFFINE)
        run = {"simulate": lambda: simulate(st, self.spike, AFFINE, 1.0, seed=0),
               "truncated": lambda: simulate_truncated(st, 2.0, None, self.spike, AFFINE,
                                                       1.0, seed=0),
               "coupled": lambda: simulate_coupled(st, 1.0, 2.0, self.spike, AFFINE,
                                                   1.0, seed=0)}[driver]
        with pytest.raises(ThinningError, match=r"acceptance probability 186589 > 1 at "
                           r"triple \(0\.75, 0\.75, 0\.75\); the kernel violates "
                           r"sub-multiplicativity on the reachable support"):
            run()

    def test_no_refusal_at_or_past_the_first_kill(self):
        # the truncation clock takes ~88% of the candidates; at seed 0 each
        # chunk's first candidate is a kill, so no triple is evaluated and
        # the run kills all eight particles, while at seed 2 a triple comes
        # before a chunk's first kill and is refused
        st = ParticleState.build(np.full(8, 12), 2.0 ** -4, AFFINE)

        def run(seed):
            return simulate_truncated(st, 2.0, 2.0, self.spike, AFFINE, 10.0, seed=seed,
                                      record_events=True, precheck=False)

        assert run(0).events.branch.tolist() == ["kill"] * 8
        with pytest.raises(ThinningError, match="acceptance probability 186589 > 1"):
            run(2)


class TestWindowMask:
    """The engine masks a window's candidates with the same slot for the
    pair or an inadmissible triple (w1 + w2 < w3) whatever K is there, and
    refuses by the largest acceptance probability that is not NaN."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_inadmissible_values_neither_hit_nor_raise(self, bad):
        # a bare callable has no domination constant, so each window holds
        # 32 candidates, all evaluated; the path is that of the plain kernel
        seen = []

        def poisoned(w1, w2, w3):
            off = w1 + w2 < w3
            seen.append(int(np.count_nonzero(off)))
            return np.where(off, bad, PROD1(w1, w2, w3))

        st = init(300, None, 2.0 ** -6, seed=7)
        got = simulate(st, poisoned, AFFINE, 1.0, seed=3, record_events=True,
                       record_snapshots=True, precheck=False)
        want = simulate(st, lambda a, b, c: PROD1(a, b, c), AFFINE, 1.0, seed=3,
                        record_events=True, record_snapshots=True, precheck=False)
        assert len(got.events) > 50 and sum(seen) > 500
        assert_same_path(got, want)

    def test_refusal_names_the_admissible_triple_in_its_window(self):
        # four particles at 0.75 and four at 0.25: K spikes on the pairs at
        # 0.75, and is NaN on the pairs at 0.25 (inadmissible when the
        # catalyst sits at 0.75) and on the mixed pairs (always admissible)
        st = ParticleState.build(np.array([12] * 4 + [4] * 4), 2.0 ** -4, AFFINE)
        calls = []

        def spiked(nan_value):
            def kernel(w1, w2, w3):
                same = w1 == w2
                spike = same & (w1 == 0.75)
                nans = ~same | (w1 == 0.25)
                calls.append((bool(spike.any()), bool((nans & (w1 + w2 >= w3)).any())))
                return np.where(spike, 1e6, np.where(nans, nan_value, 0.0))
            return kernel

        messages = []
        for nan_value in (math.nan, 0.0):
            calls.clear()
            with pytest.raises(ThinningError) as err:
                simulate(st, spiked(nan_value), AFFINE, 10.0, seed=0, precheck=False)
            messages.append(str(err.value))
            # the refusing window is the first that holds a spike
            assert calls[-1][0] and not any(spike for spike, _ in calls[:-1])
        # with NaN at admissible triples of that window too
        assert calls[-1][1]
        assert messages[0] == messages[1]
        assert re.search(r"> 1 at triple \(0\.75, 0\.75, 0\.(75|25)\)", messages[0])


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

    def test_extent_guard_covers_outputs(self):
        # the start stays below the 65536-site limit; an interaction output
        # goes beyond it, and the guard reads the whole path's extent
        h = 2.0 ** -14
        st = ParticleState.build([60000, 60000, 30000, 30000], h, AFFINE)
        traj = simulate(st, PROD1, AFFINE, 2.0, seed=0, record_events=True, precheck=False)
        assert st.idx.max() <= 65536 < np.max(traj.events.w_new) / h
        with pytest.raises(ValueError, match="moderate grid extent"):
            extract_martingale(traj, lambda x: np.cos(np.asarray(x)), PROD1)

    def test_direct_sum_guard(self):
        # a bare callable has no rank-one terms, so the drift can only take
        # the direct route, which refuses more than 300 occupied sites
        st = ParticleState.build(np.arange(400), 2.0 ** -6, AFFINE)
        traj = simulate(st, PROD1, AFFINE, 1e-9, seed=1, record_events=True, precheck=False)
        bare = lambda x1, x2, x3: PROD1(x1, x2, x3)
        with pytest.raises(ValueError, match="400\\^3-term direct sum"):
            extract_martingale(traj, lambda x: np.cos(np.asarray(x)), bare)

    @staticmethod
    def path_states(traj, picks):
        """Count vectors over the path's grid extent of the states after
        ``picks`` jumps, replayed from the event log."""
        idx = traj.initial_idx.copy()
        extent = max(int(idx.max()), int(np.rint(traj.events.w_new / traj.h).max()))
        rows = {}
        for k in range(len(traj.events) + 1):
            if k in picks:
                rows[k] = np.bincount(idx, minlength=extent + 1).astype(float)
            if k < len(traj.events):
                i, j, l = (int(traj.events[c][k]) for c in ("i", "j", "l"))
                idx[i], idx[j] = idx[i] + idx[j] - idx[l], idx[l]
        return np.array([rows[k] for k in sorted(picks)])

    @pytest.mark.parametrize("n, h, t_end", [(24, 2.0 ** -4, 2.0), (400, 2.0 ** -4, 0.3),
                                             (150, 2.0 ** -8, 0.3)])
    def test_batched_drift_matches_direct(self, n, h, t_end):
        # states along one path, stacked over the path's extent as the
        # martingale's grid route does, against the direct triple sum;
        # the last case has an extent above 640
        st = init(n, exp_measure(seed=n, h=h), h, seed=2)
        traj = simulate(st, PROD1, AFFINE, t_end, seed=5, record_events=True, precheck=False)
        events = len(traj.events)
        assert events > 4
        rows = self.path_states(traj, {0, events // 3, events // 2, events})
        occupied = np.count_nonzero(rows, axis=1)
        assert occupied.max() <= 32 if n == 24 else occupied.min() > 32
        assert (rows.shape[1] > 640) == (h == 2.0 ** -8)
        f = lambda x: np.tanh(np.asarray(x, dtype=float) - 1.0)
        fvec = f(np.arange(2 * rows.shape[1] - 1) * h)
        for spec in ("product:lambda=1", "sum:lambda=1", "mixed:p=1,q=0.5,r=0.25"):
            k = parse_kernel(spec)
            got = grid_q_counting(rows / n, h, k, fvec, n)
            for r, row in enumerate(rows):
                nz = np.nonzero(row)[0]
                x = DiscreteMeasure.from_grid(nz, row[nz] / n, h)
                ref = trilinear_pairing(x, x, x, k, f) - counting_correction(x, k, f, n)
                assert abs(got[r] - ref) <= 1e-12 * abs(ref), (spec, r)

    def test_block_size_leaves_path_unchanged(self, monkeypatch):
        # the paths start on 32 sites and spread beyond them, so both
        # routes run, over several blocks of about 48 states
        f = lambda x: np.cos(np.asarray(x, dtype=float))
        for seed in (1, 2):
            st = ParticleState.build(np.random.default_rng(seed).integers(0, 32, 300),
                                     2.0 ** -3, AFFINE)
            traj = simulate(st, PROD1, AFFINE, 1.0, seed=seed, record_events=True, precheck=False)
            assert len(traj.events) > 150
            blocks = extract_martingale(traj, f, PROD1)
            monkeypatch.setattr(collision, "_STACK_VALUES", 1)
            rows = extract_martingale(traj, f, PROD1)
            monkeypatch.undo()
            for a, b in zip(blocks, rows):
                assert np.array_equal(a, b)

    @staticmethod
    def per_jump_reference(traj, f, kernel):
        """M by a loop over the jumps: the direct-route drift of every
        state, with <f, X> and the integral accumulated in path order; and
        the number of jumps that left the state unchanged."""
        n, h, idx, unchanged = traj.n, traj.h, traj.initial_idx.copy(), 0
        extent = max(int(idx.max()), int(np.rint(traj.events.w_new / h).max()))
        fvec = np.asarray(f(np.arange(2 * extent + 1) * h), dtype=float)
        counts = np.bincount(idx, minlength=extent + 1).astype(float)

        def drift():
            nz = np.nonzero(counts)[0]
            return q_counting(DiscreteMeasure.from_grid(nz, counts[nz] / n, h), kernel, f, n)

        top = int(idx.max())
        f_scaled = float(np.dot(fvec[:top + 1], counts[:top + 1]))
        f0, f_now, q, integral, t_prev, mvals = f_scaled / n, f_scaled / n, drift(), 0.0, 0.0, [0.0]
        for t, i, j, l in zip(traj.events.time, traj.events.i, traj.events.j, traj.events.l):
            integral += (t - t_prev) * q
            vi, vj, vl = idx[i], idx[j], idx[l]
            idx[i], idx[j] = vi + vj - vl, vl
            unchanged += vl in (vi, vj)
            for site, step in ((vi, -1.0), (vj, -1.0), (vi + vj - vl, 1.0), (vl, 1.0)):
                counts[site] += step
            f_scaled += (fvec[vi + vj - vl] + fvec[vl]) - (fvec[vi] + fvec[vj])
            mvals += [f_now - f0 - integral, f_scaled / n - f0 - integral]
            f_now, q, t_prev = f_scaled / n, drift(), t
        integral += (traj.meta["t_end"] - t_prev) * q
        return np.array(mvals + [f_now - f0 - integral]), unchanged

    def test_direct_route_matches_per_jump_loop(self):
        # up to 32 occupied sites every state is one q_counting call on the
        # route its cost picks, as in the loop, and the blocks, the copies
        # of unchanged states and the cumulative sums give the loop's values
        # bit for bit
        f = lambda x: np.tanh(np.asarray(x, dtype=float) - 1.0)
        for seed in (1, 2, 3):
            st = init(60, exp_measure(seed=seed, h=2.0 ** -3), 2.0 ** -3, seed=seed)
            traj = simulate(st, PROD1, AFFINE, 3.0, seed=seed, record_events=True, precheck=False)
            ref, unchanged = self.per_jump_reference(traj, f, PROD1)
            assert len(traj.events) > 20 and unchanged > 0
            assert np.array_equal(extract_martingale(traj, f, PROD1)[1], ref)

    def test_bare_callable_route_matches_per_jump_loop(self):
        # a bare callable kernel keeps every state on the direct triple sum,
        # which the loop pins bit for bit
        f = lambda x: np.tanh(np.asarray(x, dtype=float) - 1.0)
        bare = lambda x1, x2, x3: PROD1(x1, x2, x3)
        for seed in (1, 2, 3):
            st = init(60, exp_measure(seed=seed, h=2.0 ** -3), 2.0 ** -3, seed=seed)
            traj = simulate(st, PROD1, AFFINE, 3.0, seed=seed, record_events=True, precheck=False)
            ref, unchanged = self.per_jump_reference(traj, f, bare)
            assert len(traj.events) > 20 and unchanged > 0
            assert np.array_equal(extract_martingale(traj, f, bare)[1], ref)

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
        # every jump of const on equal frequencies leaves the state as it
        # is, so the event count is Poisson with mean rate * t = 1.1
        n, c, t = 12, 0.05, 4.0
        st = ParticleState.build(np.full(n, 8), 0.25, AFFINE)
        rate = c / n ** 2 * (n * (n - 1) // 2) * n
        counts = []
        for rep in range(150):
            traj = exact_clocks(st, parse_kernel(f"const:c={c}"), t, make_rng(1, rep))
            assert np.all(traj.E == traj.E[0])
            counts.append(traj.meta["events"])
        assert abs(np.mean(counts) - rate * t) <= 4.0 * math.sqrt(rate * t / len(counts))

    def test_top_draw_picks_a_positive_rate(self, monkeypatch):
        # the zero-frequency particle sits at the end of the table, so the
        # product kernel gives every clock with it rate 0; a pick draw of
        # 1 - 2^-53 must land on the last clock with a positive rate, the
        # pair (1, 2) with catalyst 2.  Here numpy's pairwise sum of the
        # rates exceeds their sequential cumulative sum, so a total taken
        # from it would pick past the last positive rate
        st = ParticleState.build([1, 2, 3, 0], 0.25, AFFINE)
        (a, b, rate), _ = clock_table(st.idx, 0.0, st.h, PROD1, AFFINE, st.n)
        assert rate[-3, 2] > 0.0 and rate[-3, 3] == 0.0 and np.all(rate[-2:] == 0.0)
        assert (a[-3], b[-3]) == (1, 2)

        class Draws:
            values = iter([0.5, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53])

            def random(self):
                return next(self.values)

        jumps = []
        apply_jump = ParticleState.apply_jump
        monkeypatch.setattr(ParticleState, "apply_jump",
                            lambda s, *ijl: jumps.append(ijl) or apply_jump(s, *ijl))
        total = float(np.cumsum(rate)[-1])
        traj = exact_clocks(st, PROD1, 2.0 / total, Draws())
        assert jumps == [(1, 2, 2)] and traj.meta["events"] == 1

    def test_dead_slots_do_not_interact(self):
        # slot 0 is killed before the run: its particle takes part in no
        # pair and is no catalyst, so W, the integer energy and phi stay
        # those of the five live particles, row for row
        st = ParticleState.build([3, 5, 2, 7, 1, 0], 0.25)
        st.kill(0)
        traj = exact_clocks(st, PROD1, 3.0, make_rng(3), record_snapshots=True)
        assert np.all(traj.energy_idx == 15)
        snap = traj.snapshots[-1]
        live_phi = float(np.dot(np.rint(snap.weights * traj.n), snap.idx * 0.25 + 1.0))
        assert live_phi == 8.75 and traj.phi[-1] == live_phi / traj.n
        moved = exact_clocks(st, PROD1, 30.0, make_rng(2), record_snapshots=True)
        assert len(set(moved.phi2.tolist())) > 1  # the state moved
        assert np.all(moved.energy_idx == 15) and np.all(moved.W == 5 / 6)
        TestRecorder.check_rows(moved, AFFINE)


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
