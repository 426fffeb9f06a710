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
    grid_q_pairing,
    l_b_pairing,
    q_counting,
    q_measure,
    q_pairing,
    q_pairing_powermoment,
    trilinear_pairing,
)
from fourwave.kernels import AFFINE, parse_kernel
from fourwave.measures import DiscreteMeasure, moment, tv_norm

RNG = np.random.default_rng(31415)

CONST1 = parse_kernel("const:c=1")
PROD1 = parse_kernel("product:lambda=1")


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
            direct = q_pairing(mu, k, f, method="direct")
            fast = q_pairing(mu, k, f, method="grid")
            assert fast == pytest.approx(direct, rel=1e-11, abs=1e-12)

    def test_auto_route_judges_cost_by_extent(self):
        # 60 atoms spread over grid extent 65537: the m^3 direct sum is
        # cheaper than convolutions over M, so auto must take it
        rng = np.random.default_rng(5)
        f = lambda x: np.cos(0.7 * np.asarray(x))
        idx = np.append(np.sort(rng.choice(np.arange(1, 65536), size=59, replace=False)), 65536)
        sparse = DiscreteMeasure.from_grid(idx, rng.uniform(0.1, 1.0, 60), 2.0 ** -6)
        assert q_pairing(sparse, PROD1, f) == q_pairing(sparse, PROD1, f, method="direct")
        # q_measure's direct route costs ~10x more per triple: grid there
        auto, grid = q_measure(sparse, PROD1), q_measure(sparse, PROD1, method="grid")
        assert np.array_equal(auto.idx, grid.idx) and np.array_equal(auto.weights, grid.weights)
        dense = DiscreteMeasure.from_grid(np.arange(60), rng.uniform(0.1, 1.0, 60), 2.0 ** -6)
        assert q_pairing(dense, PROD1, f) == q_pairing(dense, PROD1, f, method="grid")

    def test_q_measure_grid_matches_direct(self):
        mu = random_measure(30, grid_h=0.25)
        a = q_measure(mu, PROD1, method="direct")
        b = q_measure(mu, PROD1, method="grid")
        assert tv_norm(a - b) <= 1e-11 * max(1.0, tv_norm(a))

    def test_counting_grid_matches_direct(self):
        n = 64
        idx = RNG.integers(0, 40, size=n)
        x = DiscreteMeasure.from_grid(idx, np.full(n, 1.0 / n), 0.25).compact()
        f = lambda v: np.cos(np.asarray(v))
        assert q_counting(x, PROD1, f, n, method="grid") == pytest.approx(
            q_counting(x, PROD1, f, n, method="direct"), rel=1e-11, abs=1e-13)


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
