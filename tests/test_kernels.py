import math

import numpy as np
import pytest

from fourwave import kernels
from fourwave.kernels import (
    AFFINE,
    Kernel,
    KernelSpecError,
    WeightFunction,
    check_homogeneity,
    check_submultiplicative,
    check_symmetry,
    domination_constant,
    parse_kernel,
    parse_weight,
)

RNG = np.random.default_rng(20260809)


def random_triples(count, lo=0.0, hi=100.0):
    return [tuple(t) for t in RNG.uniform(lo, hi, size=(count, 3))]


class TestEval:
    def test_product_closed_form(self):
        k = parse_kernel("product:lambda=1")
        assert k.eval(1.0, 2.0, 4.0) == pytest.approx(2.0, rel=1e-14)
        assert k.eval(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_sum_closed_form(self):
        k = parse_kernel("sum:lambda=2")
        assert k.eval(1.0, 2.0, 3.0) == pytest.approx(14.0 / 3.0, rel=1e-14)

    def test_total_at_zero(self):
        for spec in ["product:lambda=0", "const:c=1", "mixed:p=0,q=0,r=0"]:
            k = parse_kernel(spec)
            v = k.eval(0.0, 0.0, 0.0)
            assert np.isfinite(v) and v >= 0

    def test_never_negative_never_nan(self):
        for spec in ["product:lambda=1.7", "sum:lambda=3", "mixed:p=1,q=0.5,r=0", "const:c=2"]:
            k = parse_kernel(spec)
            for t in random_triples(200, 0.0, 50.0):
                v = float(k.eval(*t))
                assert np.isfinite(v) and v >= 0.0

    def test_vectorized(self):
        k = parse_kernel("product:lambda=1")
        a = np.array([1.0, 8.0])
        assert np.allclose(k.eval(a, a, a), a)

    @pytest.mark.parametrize("spec", [
        "product:lambda=1", "product:lambda=0", "sum:lambda=1", "sum:lambda=0",
        "mixed:p=1,q=0.5,r=0.25", "mixed:p=1,q=0,r=0", "const:c=1", "const:c=0.02",
    ])
    def test_skipped_unit_factors_change_no_bits(self, spec):
        # the plain sum over terms of coef * w1**e1 * w2**e2 * w3**e3, with
        # 0**0 = 1: same bytes, shape and type, broadcasting included
        def loop(k, w1, w2, w3):
            out = 0.0
            for coef, exps in k.terms:
                term = coef
                for w, e in zip((w1, w2, w3), exps):
                    w = np.asarray(w, dtype=float)
                    term = term * (np.ones_like(w) if e == 0.0 else w ** e)
                out = out + term
            return out

        k = parse_kernel(spec)
        col = RNG.uniform(0.0, 3.0, size=(4, 1))
        for args in [(1.0, 2.0, 3.0), (0.0, 0.0, 0.0), tuple(RNG.uniform(0.0, 3.0, (3, 5))),
                     (col, 2.0, RNG.uniform(0.0, 3.0, 3)), (1.5, 2.0, RNG.uniform(0.0, 3.0, 3))]:
            want, got = loop(k, *args), k.eval(*args)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestChecks:
    def test_symmetry_builtin_families(self):
        samples = random_triples(10_000)
        for spec in ["product:lambda=1", "sum:lambda=2", "mixed:p=1,q=0,r=0", "const:c=5"]:
            rep = check_symmetry(parse_kernel(spec), samples)
            assert rep.passed, str(rep)

    def test_symmetry_fails_on_unsymmetrized(self):
        # deliberately unsymmetrized test-only kernel  w1^1 * w2^0
        raw = lambda w1, w2, w3: np.asarray(w1, dtype=float)
        rep = check_symmetry(raw, [(1.0, 1.0, 1.0), (2.0, 3.0, 1.0)])
        assert not rep.passed
        assert rep.witness == (2.0, 3.0, 1.0)

    def test_homogeneity_examples(self):
        rep = check_homogeneity(parse_kernel("product:lambda=1"), [(1.0, 1.0, 1.0)], [3.0])
        assert rep.passed
        rep = check_homogeneity(parse_kernel("sum:lambda=2"), [(1.0, 0.0, 0.0)], [2.0])
        assert rep.passed
        rep = check_homogeneity(parse_kernel("const:c=5"), random_triples(5), [7.0])
        assert rep.passed

    def test_homogeneity_random_scales(self):
        samples = random_triples(300, 0.0, 100.0)
        scales = list(RNG.uniform(1e-2, 1e2, size=20))
        for spec in ["product:lambda=1", "sum:lambda=2", "mixed:p=1.5,q=0.5,r=1"]:
            rep = check_homogeneity(parse_kernel(spec), samples, scales)
            assert rep.passed, str(rep)

    def test_homogeneity_degree_mixed(self):
        assert parse_kernel("mixed:p=1,q=2,r=0.5").degree == 3.5
        assert parse_kernel("const:c=3").degree == 0.0

    def test_submultiplicative_product_affine(self):
        rep = check_submultiplicative(parse_kernel("product:lambda=1"), AFFINE,
                                      [(4.0, 9.0, 16.0)])
        assert rep.passed and rep.worst_residual < 1.0

    def test_submultiplicative_product_lambda_range(self):
        # domination hypothesis behind well-posedness and the mean-field
        # limit: holds for the product family up to degree 3
        samples = random_triples(10_000)
        for lam in [0.0, 0.5, 1.0, 2.0, 3.0]:
            rep = check_submultiplicative(parse_kernel(f"product:lambda={lam}"), AFFINE, samples)
            assert rep.passed, f"lambda={lam}: {rep}"

    def test_submultiplicative_tight_at_large_t(self):
        k = parse_kernel("product:lambda=3")
        rep = check_submultiplicative(k, AFFINE, [(t, t, t) for t in [10.0, 100.0, 1e4]])
        assert rep.passed
        assert 0.99 < rep.worst_residual < 1.0

    def test_fractional_tight_equality(self):
        # lambda/3 = 1 - gamma makes the bound an equality
        k = parse_kernel("product:lambda=1")
        w = parse_weight("fractional:gamma=0.666666666666666666")
        rep = check_submultiplicative(k, w, [(8.0, 8.0, 8.0)])
        assert rep.passed
        assert rep.worst_residual == pytest.approx(1.0, abs=1e-9)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            check_symmetry(parse_kernel("const:c=1"), [])


# scalar reference loops: the checkers' definition, one sample at a time
def loop_symmetry(kv, samples):
    worst, witness = 0.0, None
    for a, b, c in samples:
        ref = kv(a, b, c)
        res = abs(ref - kv(b, a, c)) / (1.0 + abs(ref))
        if res > worst:
            worst, witness = res, (a, b, c)
    return worst <= 1e-12, worst, witness


def loop_homogeneity(kv, deg, samples, scales):
    worst, witness = 0.0, None
    for a, b, c in samples:
        base = kv(a, b, c)
        for s in scales:
            scaled = s ** deg
            res = abs(kv(s * a, s * b, s * c) - scaled * base) / (scaled * (1.0 + base))
            if res > worst:
                worst, witness = res, (a, b, c, s)
    return worst <= 1e-10, worst, witness


def loop_submultiplicative(kv, weight, samples):
    worst, witness = 0.0, None
    for a, b, c in samples:
        bound = float(weight(a)) * float(weight(b)) * float(weight(c))
        val = float(kv(a, b, c))
        if bound == 0.0:
            ratio = 0.0 if val == 0.0 else math.inf
        else:
            ratio = val / bound
        if ratio > worst:
            worst, witness = ratio, (a, b, c)
    return worst <= 1.0 + 1e-12, worst, witness


class TestCheckersAgainstLoop:
    SPECS = ["product:lambda=1", "product:lambda=1.7", "sum:lambda=2", "sum:lambda=0.3",
             "mixed:p=1.5,q=0.5,r=1", "const:c=5"]
    FRAC = parse_weight("fractional:gamma=0.5")

    @staticmethod
    def agree(rep, ref):
        passed, worst, witness = ref
        assert rep.passed == passed
        assert rep.witness == witness
        assert rep.worst_residual == worst or abs(rep.worst_residual - worst) <= 1e-15 * abs(worst)

    def test_random_triples(self):
        samples = random_triples(2000)
        scales = list(RNG.uniform(1e-2, 1e2, size=12))
        for spec in self.SPECS:
            k = parse_kernel(spec)
            self.agree(check_symmetry(k, samples), loop_symmetry(k.eval, samples))
            self.agree(check_homogeneity(k, samples[:300], scales),
                       loop_homogeneity(k.eval, k.degree, samples[:300], scales))
            for w in (AFFINE, self.FRAC):
                self.agree(check_submultiplicative(k, w, samples),
                           loop_submultiplicative(k.eval, w, samples))

    def test_zero_bounds(self):
        # the fractional weight vanishes at 0: a zero bound gives ratio 0
        # where K is 0 (product) and inf where it is not (const, sum)
        samples = [tuple(t) for t in RNG.integers(0, 3, size=(200, 3)).astype(float)]
        for spec in ["product:lambda=1", "const:c=1", "sum:lambda=2"]:
            k = parse_kernel(spec)
            rep = check_submultiplicative(k, self.FRAC, samples)
            self.agree(rep, loop_submultiplicative(k.eval, self.FRAC, samples))
        assert check_submultiplicative(parse_kernel("const:c=1"), self.FRAC,
                                       samples).worst_residual == math.inf

    def test_unsymmetrized_raw_callable(self):
        def raw(w1, w2, w3):
            return np.asarray(w1, dtype=float) ** 2 * np.asarray(w3, dtype=float)

        samples = random_triples(1000)
        scales = [0.5, 3.0, 40.0]
        self.agree(check_symmetry(raw, samples), loop_symmetry(raw, samples))
        self.agree(check_homogeneity(raw, samples, scales, degree=3.0),
                   loop_homogeneity(raw, 3.0, samples, scales))
        self.agree(check_homogeneity(raw, samples, scales, degree=2.5),
                   loop_homogeneity(raw, 2.5, samples, scales))
        self.agree(check_submultiplicative(raw, AFFINE, samples),
                   loop_submultiplicative(raw, AFFINE, samples))

    def test_nan_residuals_never_win(self):
        def partly_nan(w1, w2, w3):
            w1 = np.asarray(w1, dtype=float)
            return np.where(w1 > 50.0, np.nan, w1 * np.asarray(w2, dtype=float))

        samples = random_triples(500)
        for rep, ref in [(check_symmetry(partly_nan, samples), loop_symmetry(partly_nan, samples)),
                         (check_submultiplicative(partly_nan, AFFINE, samples),
                          loop_submultiplicative(partly_nan, AFFINE, samples))]:
            self.agree(rep, ref)
            assert not math.isnan(rep.worst_residual)
        all_nan = [(60.0, 1.0, 1.0), (70.0, 2.0, 1.0)]
        rep = check_submultiplicative(partly_nan, AFFINE, all_nan)
        assert rep.passed and rep.worst_residual == 0.0 and rep.witness is None

    def test_first_maximum_is_the_witness(self):
        # equal residuals: the earliest sample wins, as in the loop
        samples = [(1.0, 1.0, 1.0), (4.0, 9.0, 16.0), (4.0, 9.0, 16.0), (2.0, 2.0, 2.0)]
        rep = check_submultiplicative(parse_kernel("const:c=1"), AFFINE, samples)
        assert rep.witness == (1.0, 1.0, 1.0)
        raw = lambda w1, w2, w3: np.asarray(w1, dtype=float)
        rep = check_symmetry(raw, [(1.0, 2.0, 0.0), (2.0, 1.0, 0.0), (1.0, 2.0, 0.0)])
        assert rep.witness == (1.0, 2.0, 0.0)

    def test_malformed_samples_rejected(self):
        with pytest.raises(ValueError, match="triples"):
            check_symmetry(parse_kernel("const:c=1"), [(1.0, 2.0)])


class TestDominationConstant:
    # 0 to 2 in steps of 1/16 (0.5 among them), then geometric up to 50
    AXIS = np.unique(np.concatenate([np.linspace(0.0, 2.0, 33), np.geomspace(2.0, 50.0, 25)]))
    MESH = np.stack(np.meshgrid(AXIS, AXIS, AXIS, indexing="ij"), axis=-1).reshape(-1, 3)

    # every family with all fields at 0, 0.4, 1 and 2.5, and uneven fields
    SPECS = [f"{family}:" + ",".join(f"{name}={value}" for name in kernels._FAMILIES[family][0])
             for family in sorted(kernels._FAMILIES) for value in (0.0, 0.4, 1.0, 2.5)] + [
        "mixed:p=1,q=0,r=0", "mixed:p=0.2,q=0.7,r=0.9", "const:c=0.02"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_bounds_the_kernel_on_a_mesh(self, spec):
        kernel = parse_kernel(spec)
        worst = check_submultiplicative(kernel, AFFINE, self.MESH).worst_residual
        assert worst <= domination_constant(kernel, AFFINE) * (1.0 + 1e-12)  # rounding of K and C

    def test_product_lambda_one_is_attained_at_one_half(self):
        kernel = parse_kernel("product:lambda=1")
        rep = check_submultiplicative(kernel, AFFINE, self.MESH)
        assert rep.witness == (0.5, 0.5, 0.5)
        assert abs(rep.worst_residual - 4 / 27) <= 1e-12
        assert abs(domination_constant(kernel, AFFINE) - 4 / 27) <= 1e-12

    def test_unbounded_and_unit_cases(self):
        assert domination_constant(parse_kernel("product:lambda=9"), AFFINE) == math.inf
        assert domination_constant(parse_kernel("product:lambda=1"),
                                   parse_weight("fractional:gamma=0.5")) == math.inf
        assert domination_constant(lambda a, b, c: np.ones_like(a), AFFINE) == math.inf
        assert domination_constant(parse_kernel("sum:lambda=1"), AFFINE) == 1.0
        assert domination_constant(parse_kernel("const:c=1"), AFFINE) == 1.0


class TestEvalStack:
    @pytest.mark.parametrize("spec", TestDominationConstant.SPECS)
    def test_equals_eval_bit_for_bit(self, spec):
        # grid frequencies with zeros in every row and an all-zero column,
        # as a C-ordered stack and as the transposed (3, k) view a window's
        # gathered draws give
        k = parse_kernel(spec)
        rng = np.random.default_rng(25)
        w = rng.integers(0, 160, size=(3, 41)) * 2.0 ** -4
        w[:, 0] = 0.0
        w[rng.random((3, 41)) < 0.2] = 0.0
        for stack in (w, np.ascontiguousarray(w.T).T, w[:, :1]):
            want, got = k.eval(stack[0], stack[1], stack[2]), k.eval_stack(stack)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()


class TestWeights:
    def test_affine_floor_and_conservation(self):
        assert AFFINE(0.0) == 1.0
        w1, w2, w3 = 3.0, 2.0, 4.0
        out = w1 + w2 - w3
        assert AFFINE(out) + AFFINE(w3) == AFFINE(w1) + AFFINE(w2)

    def test_fractional_properties(self):
        w = parse_weight("fractional:gamma=0.5")
        assert w(0.0) == 0.0
        xs = np.linspace(0.0, 50.0, 200)
        vals = np.asarray(w(xs))
        assert np.all(np.diff(vals) >= 0)           # nondecreasing
        mid = w((xs[:-2] + xs[2:]) / 2.0)
        assert np.all(mid >= (vals[:-2] + vals[2:]) / 2.0 - 1e-12)  # concave

    def test_pair_has_the_bits_of_the_array_form(self):
        vals = (np.random.default_rng(25).integers(0, 4000, size=64) * 2.0 ** -7).tolist()
        for weight in (AFFINE, parse_weight("fractional:gamma=0.6666666666666666")):
            for a, b in zip(vals[::2], vals[1::2]):
                got = weight.pair(a, b)
                assert np.array(got).tobytes() == weight(np.array([a, b])).tobytes()
                assert all(type(phi) is float for phi in got)


class TestParser:
    def test_round_trip(self):
        for spec in ["product:lambda=1", "sum:lambda=2", "mixed:p=1,q=0,r=0", "const:c=1"]:
            assert parse_kernel(spec).spec == spec

    def test_unknown_family(self):
        with pytest.raises(KernelSpecError, match="unknown kernel family 'frob'"):
            parse_kernel("frob:lambda=1")

    def test_out_of_range_named_field(self):
        with pytest.raises(KernelSpecError, match="'lambda'"):
            parse_kernel("product:lambda=-1")
        with pytest.raises(KernelSpecError, match="'q'"):
            parse_kernel("mixed:p=1,q=-2,r=0")
        with pytest.raises(KernelSpecError, match="'gamma'"):
            parse_weight("fractional:gamma=1.5")

    def test_unknown_and_missing_fields(self):
        with pytest.raises(KernelSpecError, match="unknown field"):
            parse_kernel("product:lambda=1,zeta=2")
        with pytest.raises(KernelSpecError, match="missing field"):
            parse_kernel("mixed:p=1,q=0")
        with pytest.raises(KernelSpecError, match="not a number"):
            parse_kernel("product:lambda=abc")


class TestNonFiniteFields:
    """A NaN or infinite field is refused where specs are read, naming the
    field, so the checkers never see it."""

    @pytest.mark.parametrize("spec,field", [
        ("product:lambda=nan", "lambda"), ("product:lambda=inf", "lambda"),
        ("mixed:p=1,q=nan,r=0", "q"), ("sum:lambda=-inf", "lambda"), ("const:c=NaN", "c"),
    ])
    def test_kernel_field_refused(self, spec, field):
        with pytest.raises(KernelSpecError, match=f"field '{field}' .* must be finite"):
            parse_kernel(spec)

    @pytest.mark.parametrize("spec", ["fractional:gamma=nan", "fractional:gamma=inf"])
    def test_weight_field_refused(self, spec):
        with pytest.raises(KernelSpecError, match="field 'gamma' .* must be finite"):
            parse_weight(spec)
