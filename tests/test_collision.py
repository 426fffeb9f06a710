import itertools
import math

import numpy as np
import pytest

from fourwave import collision
from fourwave.collision import (
    TruncatedState,
    counting_correction,
    grid_interaction_parts,
    grid_q_counting,
    l_b_pairing,
    q_counting,
    q_measure,
    q_pairing,
    q_pairing_powermoment,
    trilinear_pairing,
)
from fourwave.kernels import AFFINE, parse_kernel
from fourwave.measures import (DiscreteMeasure, load_measure_csv, moment, save_measure_csv,
                               tv_norm)

RNG = np.random.default_rng(31415)

CONST1 = parse_kernel("const:c=1")
PROD1 = parse_kernel("product:lambda=1")


def grid_route(mu, kernel, f, n=None):
    """The grid route of q_pairing (n None) or of q_counting, whichever
    route their cost rule picks for mu."""
    return collision._grid_pairing(mu, int(mu.idx.max()), kernel, f, n)


def direct_counting(x, kernel, f, n):
    """The direct route of q_counting: the triple sum less the diagonal."""
    return trilinear_pairing(x, x, x, kernel, f) - counting_correction(x, kernel, f, n)


def q_measure_routes(mu, kernel):
    """q_measure's (direct, grid) routes, whichever its cost rule picks."""
    c = mu.compact()
    return collision._q_measure_direct(c, kernel), collision._q_measure_grid(
        c, int(c.idx.max()), kernel)


def brute_pairing(positions, weights, kernel, f):
    """Independent scalar-loop oracle for the ordered-triple sum."""
    total = 0.0
    for (x1, w1), (x2, w2), (x3, w3) in itertools.product(zip(positions, weights), repeat=3):
        if x1 + x2 < x3:
            continue
        out = x1 + x2 - x3
        total += 0.5 * float(kernel.eval(x1, x2, x3)) * w1 * w2 * w3 * (
            f(out) + f(x3) - f(x2) - f(x1))
    return total


def random_measure(m=10, signed=False, grid_h=None):
    w = RNG.uniform(0.05, 1.0, size=m)
    if signed:
        w *= RNG.choice([-1.0, 1.0], size=m)
    if grid_h is None:
        return DiscreteMeasure.from_points(RNG.uniform(0.0, 8.0, size=m), w)
    idx = RNG.integers(0, 64, size=m)
    return DiscreteMeasure.from_grid(idx, w, grid_h).compact()


def indicator(lo, hi):
    return lambda x: ((np.asarray(x) >= lo) & (np.asarray(x) <= hi)).astype(float)


class TestQPairing:
    def test_single_atom_vanishes(self):
        mu = DiscreteMeasure.delta(1.0)
        for k in [CONST1, PROD1]:
            assert q_pairing(mu, k, lambda x: np.cos(x)) == 0.0

    def test_two_atom_indicator_frozen(self):
        # mu = delta_1 + delta_3, K = 1: of the 8 ordered triples only
        # (3,3,1) produces an atom in [4.5, 5.5] (at 5) and (1,1,3) is
        # outside the admissible set, leaving exactly 1/2
        mu = DiscreteMeasure.from_points([1.0, 3.0], [1.0, 1.0])
        f = indicator(4.5, 5.5)
        assert brute_pairing([1.0, 3.0], [1.0, 1.0], CONST1, lambda x: float(f(x))) == 0.5
        assert q_pairing(mu, CONST1, f) == pytest.approx(0.5, abs=1e-15)

    def test_matches_brute_force(self):
        for k in [CONST1, PROD1, parse_kernel("sum:lambda=2"), parse_kernel("mixed:p=1,q=0,r=0.5")]:
            mu = random_measure(7, signed=True)
            f = lambda x: np.sin(1.3 * np.asarray(x))
            want = brute_pairing(mu.positions, mu.weights, k, lambda x: math.sin(1.3 * x))
            got = q_pairing(mu, k, f)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_affine_test_function_conserved(self):
        # the bracket vanishes identically for f = a + b*w
        for _ in range(20):
            mu = random_measure(12)
            scale = 0.5 * moment(mu, AFFINE) ** 3 * 4
            val = q_pairing(mu, PROD1, lambda x: 2.0 + 3.0 * np.asarray(x))
            assert abs(val) <= 1e-12 * max(scale, 1.0)


class TestTrilinear:
    def test_slot12_symmetry_exact(self):
        for _ in range(10):
            mu, nu, tau = (random_measure(6, signed=True) for _ in range(3))
            f = lambda x: np.cos(np.asarray(x))
            a = trilinear_pairing(mu, nu, tau, PROD1, f)
            b = trilinear_pairing(nu, mu, tau, PROD1, f)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-14)

    def test_decomposition_identity(self):
        # Q(mu)-Q(nu) = Q(mu+nu, mu-nu, mu) + Q(mu+nu, nu, mu-nu) + Q(mu, nu, nu-mu)
        f = lambda x: np.exp(-np.asarray(x) / 3.0)
        for _ in range(25):
            mu, nu = random_measure(8), random_measure(8)
            lhs = q_pairing(mu, PROD1, f) - q_pairing(nu, PROD1, f)
            rhs = (trilinear_pairing(mu + nu, mu - nu, mu, PROD1, f)
                   + trilinear_pairing(mu + nu, nu, mu - nu, PROD1, f)
                   + trilinear_pairing(mu, nu, nu - mu, PROD1, f))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_slot3_not_symmetric(self):
        mu = DiscreteMeasure.from_points([1.0, 2.0], [1.0, 0.5])
        nu = DiscreteMeasure.from_points([0.5, 3.0], [0.7, 0.2])
        tau = DiscreteMeasure.from_points([1.5, 4.0], [0.3, 0.9])
        f = lambda x: np.cos(np.asarray(x))
        a = trilinear_pairing(mu, nu, tau, PROD1, f)
        b = trilinear_pairing(mu, tau, nu, PROD1, f)
        assert abs(a - b) > 1e-6


class TestQMeasure:
    def test_single_atom_zero(self):
        out = q_measure(DiscreteMeasure.from_grid([1], [1.0], 1.0), CONST1)
        assert len(out) == 0

    def test_two_atom_new_position(self):
        mu = DiscreteMeasure.from_grid([1, 3], [1.0, 1.0], 1.0)
        out = q_measure(mu, CONST1)
        at5 = dict(zip(out.idx.tolist(), out.weights.tolist()))
        assert at5[5] == pytest.approx(0.5, abs=1e-15)

    def test_adjoint_of_pairing(self):
        for k in [CONST1, PROD1, parse_kernel("mixed:p=1,q=0.5,r=0")]:
            mu = random_measure(9, grid_h=0.25)
            res = q_measure(mu, k)
            for f in [lambda x: np.cos(np.asarray(x)), indicator(2.0, 5.0),
                      lambda x: np.asarray(x) ** 2]:
                assert moment(res, f) == pytest.approx(q_pairing(mu, k, f), rel=1e-11, abs=1e-12)

    def test_mass_energy_cancel(self):
        mu = random_measure(10, grid_h=0.5)
        res = q_measure(mu, PROD1)
        scale = max(1.0, tv_norm(res))
        assert abs(moment(res, lambda x: np.ones_like(x))) <= 1e-12 * scale
        assert abs(moment(res, lambda x: x)) <= 1e-12 * scale

    def test_rejects_continuous(self):
        with pytest.raises(ValueError, match="grid"):
            q_measure(random_measure(5), CONST1)


def counting_box(x: DiscreteMeasure, n, a, b, c):
    """mu^(n)(A x B x C) for box sets, straight from the definition."""
    def mass(box, isect=None):
        lo, hi = box
        sel = (x.positions >= lo) & (x.positions <= hi)
        if isect is not None:
            sel &= (x.positions >= isect[0]) & (x.positions <= isect[1])
        return float(x.weights[sel].sum())

    return mass(a) * mass(b) * mass(c) - mass(a, b) * mass(c) / n


class TestQCounting:
    def test_two_coincident_particles(self):
        x = DiscreteMeasure.from_points([1.0, 1.0], [0.5, 0.5]).compact()
        for f in [lambda v: np.cos(np.asarray(v)), indicator(0.0, 1.5)]:
            assert q_counting(x, CONST1, f, 2) == pytest.approx(0.0, abs=1e-15)

    def test_counting_box_example(self):
        x = DiscreteMeasure.from_points([1.0, 2.0], [0.5, 0.5])
        assert counting_box(x, 2, (1, 1), (1, 1), (1, 1)) == 0.0

    def test_diagonal_bound_and_oracle(self):
        f = lambda v: np.cos(np.asarray(v))
        for n in [10, 40]:
            vals = RNG.exponential(1.0, size=n)
            x = DiscreteMeasure.from_points(vals, np.full(n, 1.0 / n)).compact()
            qp = q_pairing(x, PROD1, f)
            qc = q_counting(x, PROD1, f, n)
            # oracle: the definitionally separate diagonal sum
            diag = 0.0
            for x2, w2 in zip(x.positions, x.weights):
                for x3, w3 in zip(x.positions, x.weights):
                    if 2 * x2 < x3:
                        continue
                    diag += 0.5 / n * float(PROD1.eval(x2, x2, x3)) * w2 * w3 * (
                        math.cos(2 * x2 - x3) + math.cos(x3) - 2 * math.cos(x2))
            assert qp - qc == pytest.approx(diag, rel=1e-10, abs=1e-13)
            lam = float(PROD1.eval(vals.max(), vals.max(), vals.max()))
            assert abs(qc - qp) <= 2.0 / n * 1.0 * lam * x.mass() ** 2 + 1e-12

    def test_wrong_n_rejected(self):
        x = DiscreteMeasure.from_points([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            q_counting(x, CONST1, lambda v: np.asarray(v), 3)

    def test_fractional_counts_rejected(self):
        # the counts 1000.004 and 999.996 sum to n, and lie within a
        # relative 1e-5 of whole numbers
        x = DiscreteMeasure.from_grid([1, 3], [1000.004 / 2000, 999.996 / 2000], 0.25)
        with pytest.raises(ValueError, match="multiplicities of 1/2000"):
            q_counting(x, PROD1, np.cos, 2000)

    @pytest.mark.parametrize("n", [3, 2000])
    def test_counts_read_back_from_csv(self, tmp_path, n):
        sites, counts = np.unique(np.random.default_rng(n).integers(0, 40, size=n),
                                  return_counts=True)
        x = DiscreteMeasure.from_grid(sites, counts / n, 0.25)
        save_measure_csv(x, tmp_path / "x.csv")
        back = load_measure_csv(tmp_path / "x.csv")
        assert q_counting(back, PROD1, np.cos, n) == q_counting(x, PROD1, np.cos, n)


class TestLBPairing:
    def grid_state(self, bound=16.0, lam=0.3, m=8):
        idx = RNG.integers(0, int(bound / 0.25) + 1, size=m)
        w = RNG.uniform(0.05, 0.5, size=m)
        mu = DiscreteMeasure.from_grid(idx, w, 0.25).compact()
        return TruncatedState(mu, lam, bound)

    def test_phi_one_exactly_zero(self):
        for _ in range(10):
            st = self.grid_state()
            fpart, lamdot = l_b_pairing(st, PROD1, AFFINE)
            assert fpart + lamdot == 0.0

    def test_reduces_to_q_pairing(self):
        mu = random_measure(8, grid_h=0.25)
        st = TruncatedState(mu, 0.0, 1e9)
        f = lambda x: np.cos(np.asarray(x))
        fpart, lamdot = l_b_pairing(st, PROD1, f)
        assert fpart == pytest.approx(q_pairing(mu, PROD1, f), rel=1e-11, abs=1e-13)
        assert lamdot == 0.0

    def test_overflow_rate_nonnegative(self):
        for _ in range(10):
            st = self.grid_state(bound=4.0)
            _, lamdot = l_b_pairing(st, PROD1, lambda x: np.zeros_like(np.asarray(x, dtype=float)))
            assert lamdot >= 0.0

    def test_state_validation(self):
        mu = DiscreteMeasure.from_grid([10], [1.0], 1.0)
        with pytest.raises(ValueError):
            TruncatedState(mu, 0.0, 4.0)
        with pytest.raises(ValueError):
            TruncatedState(mu, -1.0, 16.0)


class TestGridRoute:
    def test_matches_direct(self):
        for k in [CONST1, PROD1, parse_kernel("sum:lambda=2"), parse_kernel("mixed:p=1,q=0,r=0")]:
            mu = random_measure(40, grid_h=0.125)
            f = lambda x: np.cos(0.7 * np.asarray(x))
            direct = trilinear_pairing(mu, mu, mu, k, f)
            fast = grid_route(mu, k, f)
            assert fast == pytest.approx(direct, rel=1e-11, abs=1e-12)

    def test_auto_route_judges_cost_by_extent(self):
        # 60 atoms spread over grid extent 65537: the m^3 direct sum is
        # cheaper than convolutions over M, so auto must take it
        rng = np.random.default_rng(5)
        f = lambda x: np.cos(0.7 * np.asarray(x))
        idx = np.append(np.sort(rng.choice(np.arange(1, 65536), size=59, replace=False)), 65536)
        sparse = DiscreteMeasure.from_grid(idx, rng.uniform(0.1, 1.0, 60), 2.0 ** -6)
        assert q_pairing(sparse, PROD1, f) == trilinear_pairing(sparse, sparse, sparse, PROD1, f)
        # q_measure's direct route costs ~10x more per triple: grid there
        auto = q_measure(sparse, PROD1)
        grid = collision._q_measure_grid(sparse.compact(), 65536, PROD1)
        assert np.array_equal(auto.idx, grid.idx) and np.array_equal(auto.weights, grid.weights)
        dense = DiscreteMeasure.from_grid(np.arange(60), rng.uniform(0.1, 1.0, 60), 2.0 ** -6)
        assert q_pairing(dense, PROD1, f) == grid_route(dense, PROD1, f)

    def test_bare_callable_kernel_keeps_direct_route(self):
        # the grid route needs a Kernel's rank-one terms: a plain function
        # with the same values takes the direct sum on any measure
        rng = np.random.default_rng(11)
        f = lambda x: np.cos(0.7 * np.asarray(x))
        mu = DiscreteMeasure.from_grid(np.arange(60), rng.uniform(0.1, 1.0, 60), 2.0 ** -6)
        bare = lambda a, b, c: PROD1(a, b, c)
        assert len(mu) > collision._DIRECT_BLOCK
        assert q_pairing(mu, bare, f) == trilinear_pairing(mu, mu, mu, bare, f)
        assert q_pairing(mu, PROD1, f) == grid_route(mu, PROD1, f)
        direct = collision._q_measure_direct(mu.compact(), bare)
        got = q_measure(mu, bare)
        assert np.array_equal(got.idx, direct.idx) and np.array_equal(got.weights, direct.weights)

    def test_grid_route_reads_uncompacted_atoms(self):
        # repeated sites sum, and a top site whose atoms cancel leaves the
        # extent of the compacted measure, so the bits are compact()'s
        f = lambda x: np.cos(0.7 * np.asarray(x))
        mu = DiscreteMeasure.from_grid([1, 3, 3, 9, 9], [0.5, 0.3, 0.4, 0.2, -0.2], 0.25)
        assert grid_route(mu, PROD1, f) == grid_route(mu.compact(), PROD1, f)
        x = DiscreteMeasure.from_grid([2, 5, 5, 11], [0.25, 0.25, 0.5, 0.0], 0.25)
        assert grid_route(x, PROD1, f, 4) == grid_route(x.compact(), PROD1, f, 4)

    @pytest.mark.parametrize("m, extent", [(2, 3), (3, 8), (5, 16), (8, 40), (16, 130),
                                           (32, 130), (48, 257)])
    def test_auto_route_matches_direct_for_few_atoms(self, m, extent):
        # the martingale's small states: every case takes the grid route
        rng = np.random.default_rng(m)
        n = 5 * m
        sites = np.append(rng.choice(extent - 1, size=m - 1, replace=False), extent - 1)
        counts = 1 + rng.multinomial(n - m, np.full(m, 1.0 / m))
        x = DiscreteMeasure.from_grid(sites, counts / n, 2.0 ** -3)
        for spec in ("product:lambda=1", "sum:lambda=1", "mixed:p=1,q=0.5,r=0.25"):
            k = parse_kernel(spec)
            assert collision._grid_top(x, k) == extent - 1
            for f in (lambda v: np.cos(np.asarray(v)),
                      lambda v: np.tanh(np.asarray(v, dtype=float) - 1.0)):
                ref = direct_counting(x, k, f, n)
                assert abs(q_counting(x, k, f, n) - ref) <= 1e-12 * abs(ref), spec

    def test_q_measure_grid_matches_direct(self):
        mu = random_measure(30, grid_h=0.25)
        a, b = q_measure_routes(mu, PROD1)
        assert tv_norm(a - b) <= 1e-11 * max(1.0, tv_norm(a))

    def test_counting_grid_matches_direct(self):
        n = 64
        idx = RNG.integers(0, 40, size=n)
        x = DiscreteMeasure.from_grid(idx, np.full(n, 1.0 / n), 0.25).compact()
        f = lambda v: np.cos(np.asarray(v))
        assert grid_route(x, PROD1, f, n) == pytest.approx(
            direct_counting(x, PROD1, f, n), rel=1e-11, abs=1e-13)


class TestPowerMomentCrossCheck:
    def test_indicator_free_supports(self):
        # supp in [a, 2a] keeps every ordered triple admissible, so the
        # moment-algebra route must agree with the triple sums
        pos = RNG.uniform(2.0, 4.0, size=12)
        w = RNG.uniform(0.1, 1.0, size=12)
        mu = DiscreteMeasure.from_points(pos, w)
        for k in [PROD1, parse_kernel("sum:lambda=1"), CONST1]:
            for p in [0, 1, 2, 3]:
                direct = q_pairing(mu, k, lambda x: np.asarray(x, dtype=float) ** p)
                assert q_pairing_powermoment(mu, k, p) == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_rejects_wide_support(self):
        mu = DiscreteMeasure.from_points([1.0, 5.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            q_pairing_powermoment(mu, PROD1, 2)


class TestFftBackend:
    """The rfft convolution backend against the exact np.convolve one."""

    KERNELS = ["product:lambda=1", "sum:lambda=2", "mixed:p=1,q=0.5,r=0.25"]

    @staticmethod
    def window(m):
        rng = np.random.default_rng(m)
        h = 4.0 / (m - 1)
        return rng.random(m) * np.exp(-np.arange(m) * h), h

    @pytest.mark.parametrize("m", [collision._FFT_CROSSOVER - 1, collision._FFT_CROSSOVER, 4097])
    @pytest.mark.parametrize("spec", KERNELS)
    def test_parts_and_counting_match_np_convolve(self, monkeypatch, m, spec):
        k = parse_kernel(spec)
        w, h = self.window(m)
        fvec = np.cos(np.arange(2 * m - 1) * h)
        runs = {}
        for backend, crossover in (("auto", collision._FFT_CROSSOVER), ("exact", 10 ** 9)):
            monkeypatch.setattr(collision, "_FFT_CROSSOVER", crossover)
            runs[backend] = ([grid_interaction_parts(w, h, k, bound_idx=b) for b in (m - 1, None)],
                             grid_q_counting(w, h, k, fvec, 1000))
        (got_parts, got_count), (ref_parts, ref_count) = runs["auto"], runs["exact"]
        for got, ref in zip(got_parts, ref_parts):
            for a, b in ((got.gain, ref.gain), (got.loss_rate, ref.loss_rate)):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            assert abs(got.escape_rate - ref.escape_rate) <= 1e-13 * abs(ref.escape_rate)
        assert abs(got_count - ref_count) <= 1e-13 * abs(ref_count)

    def test_two_atom_gain_exactly_zero_outside_hull(self):
        m = 2049
        assert m >= collision._FFT_CROSSOVER
        w = np.zeros(m)
        w[[1000, 1200]] = [0.3, 0.7]
        # outputs i + j - l over the two atoms span [2*1000-1200, 2*1200-1000]
        for bound_idx in (m - 1, None):
            parts = grid_interaction_parts(w, 2.0 ** -9, PROD1, bound_idx=bound_idx)
            assert np.all(parts.gain[:800] == 0.0) and np.all(parts.gain[1401:] == 0.0)
            assert parts.gain[800] > 0.0 and parts.gain[1400] > 0.0
            assert parts.escape_rate == 0.0


class TestStackedCore:
    """grid_interaction_parts on an (R, M) stack against its rows' 1-D calls."""

    KERNELS = ["product:lambda=1", "sum:lambda=2", "mixed:p=1,q=0.5,r=0.25", "const:c=1"]

    @staticmethod
    def stack(m):
        """Rows supported on the hull [m//2, 7m//8]: a dense random row, an
        all-zero row, a two-atom row at the hull ends and a sparse random
        row.  Outputs reach past the window, so the escape is a bulk rate."""
        rng = np.random.default_rng(m)
        lo, hi = m // 2, (7 * m) // 8
        w = np.zeros((4, m))
        w[0, lo:hi + 1] = rng.random(hi + 1 - lo)
        w[2, [lo, hi]] = [0.3, 0.7]
        sparse = rng.integers(lo, hi + 1, size=3)
        w[3, sparse] = rng.random(3)
        return w, lo, hi

    @pytest.mark.parametrize("m", [1, 5, 257, 639, 640, 2049])
    @pytest.mark.parametrize("spec", KERNELS)
    @pytest.mark.parametrize("bounded", [True, False])
    def test_rows_match_vector_calls(self, m, spec, bounded):
        k = parse_kernel(spec)
        h = 4.0 / max(m - 1, 1)
        w, lo, hi = self.stack(m)
        bound_idx = m - 1 if bounded else None
        got = grid_interaction_parts(w, h, k, bound_idx=bound_idx)
        assert got.gain.shape == (4, m if bounded else 2 * m - 1)
        assert got.loss_rate.shape == (4, m)
        assert np.shape(got.escape_rate) == (4,)
        # a gain error within eps * max|gain| moves the escape by at most
        # eps * max|gain| * ||phi_out||_1: the normwise scale of the escape
        phi_out_l1 = float(np.sum(np.arange(m, 2 * m - 1) * h + 1.0))
        for r in range(4):
            ref = grid_interaction_parts(w[r], h, k, bound_idx=bound_idx)
            gain_scale = np.max(np.abs(ref.gain))
            assert np.max(np.abs(got.gain[r] - ref.gain)) <= 1e-13 * gain_scale
            assert np.max(np.abs(got.loss_rate[r] - ref.loss_rate)) <= (
                1e-13 * np.max(np.abs(ref.loss_rate)))
            assert abs(got.escape_rate[r] - ref.escape_rate) <= 1e-13 * gain_scale * phi_out_l1
        # outputs i + j - l over the union hull [lo, hi] span [2lo - hi, 2hi - lo]
        assert np.all(got.gain[:, :max(2 * lo - hi, 0)] == 0.0)
        assert np.all(got.gain[:, 2 * hi - lo + 1:] == 0.0)
        assert np.all(got.gain[1] == 0.0) and np.all(got.loss_rate[1] == 0.0)
        assert got.escape_rate[1] == 0.0

    @pytest.mark.parametrize("m", [5, 65, 639, 640, 4097])
    @pytest.mark.parametrize("spec", KERNELS)
    def test_counting_rows_match_one_row_stacks(self, m, spec):
        # every row is transformed over the whole extent, so its bits do
        # not depend on the other rows of the call
        k = parse_kernel(spec)
        h = 4.0 / (m - 1)
        w, _, _ = self.stack(m)
        fvec = np.tanh(np.arange(2 * m - 1) * h - 1.0)
        for n in (1000, None):
            got = grid_q_counting(w, h, k, fvec, n)
            assert got.shape == (4,) and got[1] == 0.0
            for r in range(4):
                assert np.array_equal(got[r], grid_q_counting(w[r:r + 1], h, k, fvec, n)[0])
            if m >= collision._FFT_CROSSOVER:
                # a vector from the crossover on is a one-row stack
                assert grid_q_counting(w[0], h, k, fvec, n) == got[0]

    @pytest.mark.parametrize("m", [5, 257, 639, 640, 2049])
    @pytest.mark.parametrize("spec", KERNELS[:3])
    def test_affine_f_gives_exact_zero(self, m, spec):
        # f less its affine interpolant is exactly 0 on a dyadic grid, on
        # the np.convolve, one-row rfft and stacked rfft paths alike
        k = parse_kernel(spec)
        h = 2.0 ** -6
        w, _, _ = self.stack(m)
        grid = np.arange(2 * m - 1) * h
        for fvec in (1.0 + grid, 2.0 + 3.0 * grid):
            for n in (None, 1000):
                assert np.all(grid_q_counting(w, h, k, fvec, n) == 0.0)
                for row in w:
                    assert grid_q_counting(row, h, k, fvec, n) == 0.0

    def test_leading_axes(self):
        w, _, _ = self.stack(257)
        k = parse_kernel("sum:lambda=2")
        flat = grid_interaction_parts(w, 2.0 ** -6, k, bound_idx=256)
        deep = grid_interaction_parts(w.reshape(2, 2, 257), 2.0 ** -6, k, bound_idx=256)
        for a, b in ((deep.gain.reshape(4, 257), flat.gain),
                     (deep.loss_rate.reshape(4, 257), flat.loss_rate),
                     (deep.escape_rate.reshape(4), flat.escape_rate)):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


class TestFoldedCore:
    """The grid core folds each slot-swapped pair of kernel terms into one
    term; the kernel itself keeps every term."""

    SUM2, MIXED = "sum:lambda=2", "mixed:p=1,q=0.5,r=0.25"

    def test_folded_terms(self):
        w = np.ones(5)
        expect = {self.SUM2: [(2.0 / 3.0, (2.0, 0.0, 0.0)), (1.0 / 3.0, (0.0, 0.0, 2.0))],
                  self.MIXED: [(1.0, (1.0, 0.5, 0.25))]}
        for spec, terms in expect.items():
            assert list(collision._grid_constants(len(w), 0.25, parse_kernel(spec))[0]) == terms
        for spec in ("product:lambda=1", "const:c=2"):
            k = parse_kernel(spec)
            assert collision._grid_constants(len(w), 0.25, k)[0] == k.terms

    def test_kernel_keeps_every_term(self):
        third = 1.0 / 3.0
        expect = {self.SUM2: [(third, (2.0, 0.0, 0.0)), (third, (0.0, 2.0, 0.0)),
                              (third, (0.0, 0.0, 2.0))],
                  self.MIXED: [(0.5, (1.0, 0.5, 0.25)), (0.5, (0.5, 1.0, 0.25))]}
        x1, x2, x3 = np.meshgrid(*[np.linspace(0.0, 3.0, 7)] * 3, indexing="ij")
        for spec, terms in expect.items():
            k = parse_kernel(spec)
            assert list(k.terms) == terms
            want = 0.0
            for coef, (e1, e2, e3) in terms:
                want = want + coef * x1 ** e1 * x2 ** e2 * x3 ** e3
            assert np.array_equal(k.eval(x1, x2, x3), want)

    @pytest.mark.parametrize("spec", [SUM2, MIXED])
    def test_parts_and_counting_match_direct(self, spec):
        k = parse_kernel(spec)
        mu = random_measure(30, grid_h=0.25)
        a, grid = q_measure_routes(mu, k)
        assert tv_norm(grid - a) <= 1e-11 * max(1.0, tv_norm(a))
        # the same scatter from a stack, which takes the rfft path
        c = mu.compact()
        w, h = c.dense(int(c.idx.max()) + 1), c.h
        rows = np.stack([w, 0.5 * w])
        parts = grid_interaction_parts(rows, h, k, bound_idx=None)
        for r, scale in enumerate((1.0, 0.125)):  # Q is cubic: Q(w / 2) = Q(w) / 8
            dw = parts.gain[r].copy()
            dw[:len(w)] -= parts.loss_rate[r] * rows[r]
            idx = np.flatnonzero(dw)
            got = DiscreteMeasure.from_grid(idx, dw[idx] / scale, h)
            assert tv_norm(got - a) <= 1e-11 * max(1.0, tv_norm(a))
        n = 64
        x = DiscreteMeasure.from_grid(RNG.integers(0, 40, size=n), np.full(n, 1.0 / n), 0.25).compact()
        f = lambda v: np.cos(np.asarray(v))
        assert grid_route(x, k, f, n) == pytest.approx(
            direct_counting(x, k, f, n), rel=1e-11, abs=1e-13)


class TestLossCorrelation:
    """corr[i] = sum_j b[j] * dcap[i + j], the correlation behind the loss
    rate, on both backends."""

    @pytest.mark.parametrize("m", [1, 5, 257, 639])
    def test_valid_mode_equals_full_convolution_slice(self, m):
        rng = np.random.default_rng(m)
        d, b = rng.random(m), rng.random(m) * np.exp(-np.arange(m) / 50.0)
        dcap = collision._cap(d, 2 * m - 1)
        assert np.array_equal(np.correlate(dcap, b, "valid"),
                              np.convolve(dcap, b[::-1])[m - 1:2 * m - 1])

    @pytest.mark.parametrize("m", [5, 257, 2049])
    def test_spectral_tail_is_the_row_constant(self, m):
        # with const:c=1 the loss rate is the correlation of dcap and b = d = w
        w, lo, hi = TestStackedCore.stack(m)
        u = hi + 1 - lo  # the rows' union hull is [lo, hi]
        h = 4.0 / (m - 1)
        cases = [w] if m < collision._FFT_CROSSOVER else [w, w[0]]
        for x in cases:
            lr = grid_interaction_parts(x, h, CONST1, bound_idx=m - 1).loss_rate
            tot = x.sum(axis=-1)
            assert np.array_equal(lr[..., u - 1:],
                                  np.broadcast_to((tot * tot)[..., None], lr[..., u - 1:].shape))
            if x.ndim == 2:
                assert np.all(lr[1] == 0.0)  # the all-zero row


def zeros_and_accumulate_parts(w, h, k, bound_idx):
    """The np.convolve route as zero buffers that each term adds into, with
    the escape as a one-row matmul: the reference form of the vector branch."""
    m, smax = len(w), 2 * len(w) - 1
    gain, loss_rate = np.zeros(smax), np.zeros(m)
    terms, powers, phi_out = collision._grid_constants(m, h, k)
    slots = {e: x * w for e, x in powers.items()}
    for coef, (e1, e2, e3) in terms:
        half = 0.5 * coef
        a, b, d = slots[e1], slots[e2], slots[e3]
        cab = np.convolve(a, b)
        dcap = collision._cap(d, smax)
        gain[:m] += half * d * np.cumsum(cab[::-1])[::-1][:m]
        gain += half * np.convolve(cab, d[::-1])[m - 1:m - 1 + smax]
        lr1 = powers[e1] * np.correlate(dcap, b, "valid")
        lr2 = lr1 if e1 == e2 else powers[e2] * np.correlate(dcap, a, "valid")
        loss_rate += half * (lr1 + lr2)
    if bound_idx is None:
        return gain, loss_rate, 0.0
    return gain[:m], loss_rate, np.matmul(gain[None, m:], phi_out[:, None])[0, 0]


class TestConvolveBranch:
    """The vector branch of grid_interaction_parts has the bits of the
    zeros-and-accumulate loop, the signs of zeros included."""

    # one spec per family row, plus a folded term with e1 == e2 != e3 and a
    # zero coefficient
    SPECS = ("product:lambda=1", "sum:lambda=2", "mixed:p=1,q=0.5,r=0.25", "const:c=1",
             "mixed:p=1,q=1,r=0", "const:c=0")
    # under mixed:p=1,q=1,r=0 the loss rate at site 0 is 0 * (a negative
    # correlation): -0.0 in the product, 0.0 from the zero buffer
    SIGNED = np.array([0.5, -0.125, 0.0, 0.25])

    @staticmethod
    def weights(rng, m, signed):
        w = rng.uniform(0.0, 1.0, size=m) * (rng.uniform(size=m) < 0.7) / m
        if signed:  # negative weights, exact zeros of both signs
            w *= rng.choice([-1.0, 1.0], size=m)
            w[rng.uniform(size=m) < 0.2] = -0.0
        return w

    @pytest.mark.parametrize("spec", SPECS)
    def test_bits_of_the_reference_loop(self, spec):
        k = parse_kernel(spec)
        rng = np.random.default_rng(sum(map(ord, spec)))
        for m in (1, 2, 4, 5, 257, 639):
            for signed in (False, True):
                for bound_idx in (m - 1, None):
                    w = self.SIGNED if signed and m == 4 else self.weights(rng, m, signed)
                    got = grid_interaction_parts(w, 2.0 ** -6, k, bound_idx)
                    want = zeros_and_accumulate_parts(w, 2.0 ** -6, k, bound_idx)
                    for a, b in zip((got.gain, got.loss_rate, got.escape_rate), want):
                        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_row_dot_of_two_vectors_is_np_dot(self):
        rng = np.random.default_rng(11)
        for m in (*range(1, 70), 257, 513, 639, 2049):
            x, y = rng.standard_normal(m), rng.standard_normal(m)
            got = collision._row_dot(x, y)
            assert got.tobytes() == np.dot(x, y).tobytes()
            # the one-row matmul, which stacks take, rounds the same way
            assert got.tobytes() == np.matmul(x[None, :], y[:, None])[0, 0].tobytes()


class TestGridConstantCache:
    """The grid core's folded terms, grid powers and escape weights are
    computed once per (M, h, kernel) and shared read-only."""

    SPECS = ("product:lambda=1", "sum:lambda=2", "mixed:p=1,q=0.5,r=0.25")

    @staticmethod
    def outputs(w, h, k):
        m = w.shape[-1]
        fvec = np.cos(np.arange(2 * m - 1) * h)
        parts = [grid_interaction_parts(w, h, k, bound_idx=b) for b in (m - 1, None)]
        return ([a for p in parts for a in (p.gain, p.loss_rate, np.asarray(p.escape_rate))]
                + [np.asarray(grid_q_counting(w, h, k, fvec, 64))])

    @pytest.mark.parametrize("shape", [(257,), (3, 257), (700,)])
    def test_cold_and_warm_agree(self, shape):
        w = RNG.uniform(0.0, 1.0, size=shape) / shape[-1]
        for spec in self.SPECS:
            k = parse_kernel(spec)
            collision._grid_constants.cache_clear()
            cold = self.outputs(w, 2.0 ** -6, k)
            warm = self.outputs(w, 2.0 ** -6, k)
            info = collision._grid_constants.cache_info()
            assert info.misses == info.currsize == 1 and info.hits > 1
            assert all(np.array_equal(a, b) for a, b in zip(cold, warm))

    def test_extent_shared_only_with_same_h_and_kernel(self):
        m, w = 129, RNG.uniform(0.0, 1.0, size=129) / 129
        runs = [(2.0 ** -6, PROD1), (2.0 ** -5, PROD1), (2.0 ** -6, parse_kernel("sum:lambda=1"))]
        cold = []
        for h, k in runs:
            collision._grid_constants.cache_clear()
            cold.append(self.outputs(w, h, k))
        collision._grid_constants.cache_clear()
        for (h, k), want in zip(runs, cold):
            assert all(np.array_equal(a, b) for a, b in zip(self.outputs(w, h, k), want))
        assert collision._grid_constants.cache_info().currsize == len(runs)
        for h, k in runs:
            terms, powers, phi_out = collision._grid_constants(m, h, k)
            assert terms == collision._grid_constants(m + 1, h, k)[0]
            for e, x in powers.items():
                assert np.array_equal(x, (np.arange(m) * h) ** e)
            assert np.array_equal(phi_out, np.arange(m, 2 * m - 1) * h + 1.0)

    def test_cached_arrays_reject_writes(self):
        terms, powers, phi_out = collision._grid_constants(65, 0.125, parse_kernel("sum:lambda=2"))
        for x in (*powers.values(), phi_out):
            with pytest.raises(ValueError):
                x[0] = 1.0
        with pytest.raises(TypeError):
            powers[9.0] = np.zeros(65)
        with pytest.raises(TypeError):
            terms[0] = (1.0, (0.0, 0.0, 0.0))
