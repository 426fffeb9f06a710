import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourwave import measures
from fourwave.kernels import AFFINE, parse_weight
from fourwave.measures import (
    DiscreteMeasure,
    load_measure_csv,
    moment,
    moment_set,
    phi_transform,
    quantize,
    save_measure_csv,
    site_table,
    tv_norm,
    weak_distance,
)

RNG = np.random.default_rng(7)


def random_measure(m=12, signed=False):
    pos = RNG.uniform(0.0, 20.0, size=m)
    w = RNG.uniform(0.1, 2.0, size=m)
    if signed:
        w *= RNG.choice([-1.0, 1.0], size=m)
    return DiscreteMeasure.from_points(pos, w)


class TestMoment:
    def test_identity_on_delta(self):
        assert moment(DiscreteMeasure.delta(1.0), lambda w: w) == 1.0

    def test_affine_weight(self):
        mu = DiscreteMeasure.from_points([1.0, 3.0], [0.5, 0.5])
        assert moment(mu, AFFINE) == 3.0

    def test_fractional_at_zero(self):
        mu = DiscreteMeasure.delta(0.0)
        assert moment(mu, parse_weight("fractional:gamma=0.5")) == 0.0

    def test_permutation_invariance_large(self):
        m = 100_000
        pos = RNG.uniform(0.0, 10.0, size=m)
        w = RNG.uniform(-1.0, 1.0, size=m)
        mu = DiscreteMeasure.from_points(pos, w)
        perm = RNG.permutation(m)
        nu = DiscreteMeasure.from_points(pos[perm], w[perm])
        a, b = moment(mu, lambda x: np.sin(x)), moment(nu, lambda x: np.sin(x))
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


class TestTvNorm:
    def test_cancellation(self):
        mu = DiscreteMeasure.delta(1.0) - DiscreteMeasure.delta(1.0)
        assert tv_norm(mu) == 0.0

    def test_disjoint(self):
        assert tv_norm(DiscreteMeasure.delta(1.0) - DiscreteMeasure.delta(2.0)) == 2.0

    def test_same_atom_partial(self):
        mu = DiscreteMeasure.delta(1.0, 0.5) - DiscreteMeasure.delta(1.0, 0.25)
        assert tv_norm(mu) == 0.25


class TestWeakDistance:
    def test_identity(self):
        mu = random_measure()
        assert weak_distance(mu, mu) == 0.0

    def test_dominated_by_tv(self):
        assert weak_distance(DiscreteMeasure.delta(1.0), DiscreteMeasure.delta(2.0)) <= 2.0

    def test_converging_deltas_monotone(self):
        # mu_n = delta_{1 + 1/n} -> delta_1: the truncated series must
        # decrease strictly along n = 1, 2, 4, ..., 1024
        target = DiscreteMeasure.delta(1.0)
        vals = [weak_distance(DiscreteMeasure.delta(1.0 + 1.0 / n), target)
                for n in [2 ** j for j in range(11)]]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01 * vals[0] + 1e-6

    def test_symmetry_exact(self):
        mu, nu = random_measure(), random_measure()
        assert weak_distance(mu, nu) == weak_distance(nu, mu)

    def test_carried_pairings_change_no_bits(self):
        # a measure caches its pairings on first use: identity and symmetry
        # hold exactly whichever side's cache is cold or warm, and the cache
        # holds the pairing table's bits, read-only
        def cold(mu):
            return DiscreteMeasure(mu.weights, mu.h, mu.idx, mu._positions)

        def pairings(mu):
            phases = mu.positions[:, None] * measures.WEAK_METRIC_FREQUENCIES[None, :]
            table = np.empty_like(phases)
            table[:, 0::2] = np.cos(phases[:, 0::2])
            table[:, 1::2] = np.sin(phases[:, 1::2])
            return mu.weights @ table

        for mu, nu in ((random_measure(), random_measure()),
                       (DiscreteMeasure.from_grid([3, 9], [0.5, 0.25], 0.125),
                        DiscreteMeasure.zero(0.125))):
            d = weak_distance(cold(mu), cold(nu))
            assert weak_distance(cold(nu), cold(mu)) == d
            assert weak_distance(mu, mu) == 0.0  # warms mu
            assert weak_distance(mu, nu) == weak_distance(cold(nu), mu) == d
            assert weak_distance(nu, mu) == weak_distance(mu, nu) == d  # both warm
            assert weak_distance(nu, nu) == weak_distance(nu, cold(nu)) == 0.0
            for m in (mu, nu):
                assert np.array_equal(m._weak_pairings, pairings(m))
                with pytest.raises(ValueError):
                    m._weak_pairings[0] = 1.0

    def test_triangle_inequality(self):
        for _ in range(50):
            mu, nu, tau = random_measure(5), random_measure(5), random_measure(5)
            d13 = weak_distance(mu, tau)
            assert d13 <= weak_distance(mu, nu) + weak_distance(nu, tau) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(0.01, 3.0)),
                    min_size=0, max_size=8),
           st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(0.01, 3.0)),
                    min_size=0, max_size=8))
    def test_dominated_by_tv_property(self, atoms_a, atoms_b):
        mu = DiscreteMeasure.from_points([a for a, _ in atoms_a], [w for _, w in atoms_a])
        nu = DiscreteMeasure.from_points([a for a, _ in atoms_b], [w for _, w in atoms_b])
        assert weak_distance(mu, nu) <= tv_norm(mu - nu) + 1e-12


class TestPrimedPairings:
    """One trig table over the distinct positions of several measures gives
    each measure the pairings it computes on its own, bit for bit."""

    @staticmethod
    def own_pairings(mu):
        phases = mu.positions[:, None] * measures.WEAK_METRIC_FREQUENCIES[None, :]
        table = np.empty_like(phases)
        table[:, 0::2] = np.cos(phases[:, 0::2])
        table[:, 1::2] = np.sin(phases[:, 1::2])
        return mu.weights @ table

    @staticmethod
    def batch():
        rng = np.random.default_rng(26)
        out = []
        for m in (1, 7, 64, 251):  # grid sites shared across the measures
            out.append(DiscreteMeasure.from_grid(rng.integers(0, 300, m),
                                                 rng.uniform(-1.0, 1.0, m), 2.0 ** -6))
            out.append(DiscreteMeasure.from_points(rng.uniform(0.0, 20.0, m),
                                                   rng.uniform(-1.0, 1.0, m)))
        return out + [
            DiscreteMeasure.from_grid([3, 3, 70], [0.5, 0.25, 1.0], 0.1),  # inexact idx * h
            DiscreteMeasure.from_points([0.0, -0.0, 1.5, 1.5], [1.0, 2.0, 0.5, 0.5]),
            DiscreteMeasure.from_points([-0.0], [1.0]),  # a row apart from 0.0's
            DiscreteMeasure.zero(2.0 ** -6),
            DiscreteMeasure.zero(),
        ]

    def test_bits_of_each_measure_alone(self):
        ms = self.batch()
        measures._prime_weak_pairings(ms)
        for mu in ms:
            alone = DiscreteMeasure(mu.weights, mu.h, mu.idx, mu._positions)
            assert mu._weak_pairings.tobytes() == self.own_pairings(mu).tobytes()
            assert mu._weak_pairings.tobytes() == alone._weak_pairings.tobytes()
            assert not mu._weak_pairings.flags.writeable
        nu = ms[1]
        for mu in ms:
            fresh = [DiscreteMeasure(m.weights, m.h, m.idx, m._positions) for m in (mu, nu)]
            assert weak_distance(mu, nu) == weak_distance(*fresh)

    def test_carried_pairings_kept(self):
        mu, nu = random_measure(), random_measure()
        carried = mu._weak_pairings
        measures._prime_weak_pairings([mu, nu, mu])
        assert mu._weak_pairings is carried
        assert nu._weak_pairings.tobytes() == self.own_pairings(nu).tobytes()


class TestQuantize:
    def test_nearest_multiple(self):
        q = quantize(DiscreteMeasure.delta(1.26), 0.5)
        assert q.positions[0] == 1.5

    def test_tie_to_even_multiple(self):
        q = quantize(DiscreteMeasure.delta(1.25), 0.5)
        assert q.positions[0] == 1.0

    def test_mass_exact(self):
        mu = random_measure(500)
        q = quantize(mu, 2.0 ** -10)
        assert q.mass() == mu.mass()

    def test_energy_shift_bounded(self):
        mu = random_measure(200)
        h = 0.25
        q = quantize(mu, h)
        shift = abs(moment(q, lambda w: w) - moment(mu, lambda w: w))
        assert shift <= h / 2 * tv_norm(mu) + 1e-12


class TestPhiTransform:
    def test_affine_delta(self):
        out = phi_transform(DiscreteMeasure.delta(1.0), AFFINE)
        assert out.positions[0] == 1.0 and out.weights[0] == 2.0

    def test_fractional_kills_zero_atom(self):
        out = phi_transform(DiscreteMeasure.delta(0.0), parse_weight("fractional:gamma=0.5"))
        assert len(out) == 0

    def test_mass_is_phi_moment(self):
        mu = random_measure(50)
        assert phi_transform(mu, AFFINE).mass() == pytest.approx(moment(mu, AFFINE), rel=1e-15)


class TestMomentSet:
    def test_affine_identity(self):
        mu = random_measure(2000)
        ms = moment_set(mu, AFFINE)
        assert abs(ms.phi - (ms.W + ms.E)) <= 1e-13 * max(1.0, abs(ms.phi))

    def test_nonnegative_entries(self):
        ms = moment_set(random_measure(30), AFFINE)
        assert min(ms.W, ms.E, ms.phi, ms.phi2) >= 0.0


class TestCompactAndGrid:
    def test_compact_merges_exact_duplicates(self):
        mu = DiscreteMeasure.from_points([1.0, 1.0, 2.0], [0.5, 0.25, 1.0]).compact()
        assert len(mu) == 2
        assert mu.weights[0] == 0.75

    def test_grid_mode_positions(self):
        mu = DiscreteMeasure.from_grid([3, 1, 2], [1.0, 1.0, 1.0], 0.25)
        assert list(mu.positions) == [0.25, 0.5, 0.75]

    def test_grid_mismatch_rejected(self):
        a = DiscreteMeasure.from_grid([1], [1.0], 0.5)
        b = DiscreteMeasure.from_grid([1], [1.0], 0.25)
        with pytest.raises(ValueError):
            _ = a + b


class TestDenseVector:
    def test_round_trip(self):
        w = np.array([0.0, 0.5, 0.0, 0.0, 1.0 / 3.0, -2.0, 0.0])
        mu = DiscreteMeasure.from_dense(w, 0.25)
        assert mu.is_grid and mu.h == 0.25
        assert mu.idx.tolist() == [1, 4, 5] and mu.weights.tolist() == [0.5, 1.0 / 3.0, -2.0]
        assert np.array_equal(mu.dense(len(w)), w)
        again = DiscreteMeasure.from_dense(mu.dense(len(w)), 0.25)
        assert np.array_equal(again.idx, mu.idx) and np.array_equal(again.weights, mu.weights)

    def test_duplicates_summed_as_add_at(self):
        idx = RNG.integers(0, 6, size=40)
        weights = RNG.uniform(-1.0, 1.0, size=40) / 3.0
        mu = DiscreteMeasure.from_grid(idx, weights, 0.5)
        want = np.zeros(9)
        for i, x in zip(mu.idx.tolist(), mu.weights.tolist()):  # in atom order
            want[i] += x
        assert np.array_equal(mu.dense(9), want)

    def test_zero_entries_dropped(self):
        mu = DiscreteMeasure.from_dense([0.0, -0.0, 2.0, 0.0], 1.0)
        assert mu.idx.tolist() == [2] and mu.weights.tolist() == [2.0]

    def test_empty(self):
        mu = DiscreteMeasure.from_dense(np.zeros(5), 0.5)
        assert len(mu) == 0 and mu.h == 0.5
        assert np.array_equal(mu.dense(3), np.zeros(3))
        assert np.array_equal(DiscreteMeasure.zero(0.5).dense(4), np.zeros(4))

    def test_points_mode_refused(self):
        with pytest.raises(ValueError, match="grid-mode"):
            DiscreteMeasure.from_points([0.5, 1.0], [1.0, 1.0]).dense(4)


class TestCsv:
    def test_round_trip_continuous(self, tmp_path):
        mu = random_measure(20)
        path = tmp_path / "m.csv"
        save_measure_csv(mu, path)
        back = load_measure_csv(path)
        assert np.array_equal(back.positions, mu.positions)
        assert np.array_equal(back.weights, mu.weights)

    def test_round_trip_grid(self, tmp_path):
        mu = DiscreteMeasure.from_grid([1, 5, 9], [0.1, 0.2, 0.7], 2.0 ** -20)
        path = tmp_path / "m.csv"
        save_measure_csv(mu, path)
        back = load_measure_csv(path)
        assert back.is_grid and back.h == mu.h
        assert np.array_equal(back.idx, mu.idx)
        assert np.array_equal(back.weights, mu.weights)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10 ** 6),
                              st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)),
                    min_size=1, max_size=20),
           st.one_of(st.none(), st.floats(1e-9, 1e3, allow_subnormal=False)))
    def test_round_trip_property(self, tmp_path_factory, atoms, h):
        idx, w = (np.asarray(col) for col in zip(*atoms))
        mu = (DiscreteMeasure.from_points(idx * 0.37, w) if h is None
              else DiscreteMeasure.from_grid(idx, w, h))
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        save_measure_csv(mu, path)
        back = load_measure_csv(path)
        assert back.h == mu.h
        assert np.array_equal(back.positions, mu.positions)
        assert np.array_equal(back.weights, mu.weights)
        if h is not None:
            assert np.array_equal(back.idx, mu.idx)

    @staticmethod
    def csv_reference(mu):
        lines = [f"# h={mu.h:.17g}"] if mu.is_grid else []
        lines.append("omega,weight")
        for pos, w in zip(mu.positions, mu.weights):
            lines.append(f"{pos:.17g},{w:.17g}")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("mu", [
        DiscreteMeasure.from_grid([0, 3, 17, 2 ** 40], [0.1, 1.0 / 3.0, -2.5e-300, 7.0],
                                  2.0 ** -20),
        DiscreteMeasure.from_points([0.0, 1.0 / 7.0, 2.5, 1e22], [1e-5, 0.3, -1.0 / 3.0, 4.0]),
        DiscreteMeasure.from_points([], []),
    ], ids=["grid", "points", "empty"])
    def test_writer_bytes(self, tmp_path, mu):
        path = tmp_path / "m.csv"
        save_measure_csv(mu, path)
        assert path.read_text() == self.csv_reference(mu)

    @pytest.mark.parametrize("text, match", [
        ("0.5,1.0\n", "header"),
        ("omega,mass\n0.5,1.0\n", "header"),
        ("# h=0.5\n", "missing header"),
        ("omega,weight\n0.5,1.0,2.0\n", "2 fields"),
        ("# h=0.5\nomega,weight\n1.0,0.5\n1.25,0.5\n", "not on the grid"),
    ])
    def test_malformed_rejected(self, tmp_path, text, match):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_measure_csv(path)

    @pytest.mark.parametrize("text, match", [
        ("\n# note\nomega,mass\n0.5,1.0\n",
         r":3: expected header 'omega,weight', got 'omega,mass'"),
        ("# h=0.5\n\n", "missing header"),
        ("", "missing header"),
        ("omega,weight\n0.5,1.0\n0.75\n", ":3: expected 2 fields, got 1"),
        ("omega,weight\n0.5,1.0\n\n# note\n0.5,1.0,2.0\n", ":5: expected 2 fields, got 3"),
        ("omega,weight\n0.5,abc\n", "could not convert string to float: 'abc'"),
        ("omega,weight\n0.5,1.0\n0.75, \n", "could not convert string to float: ''"),
        ("# h=0.25\nomega,weight\n0.25,0.5\n\n0.3,0.5\n",
         r"position \S*0\.3\S* is not on the grid h=0\.25"),
    ])
    def test_malformed_rejected_with_line(self, tmp_path, text, match):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_measure_csv(path)

    @pytest.mark.parametrize("grid", [False, True])
    def test_blank_and_comment_lines_in_body_skipped(self, tmp_path, grid):
        head = "# h=0.25\n" if grid else ""
        path = tmp_path / "m.csv"
        path.write_text(head + "omega,weight\n0.25,0.5\n\n# a note, with a comma\n"
                        "  \n 0.75 , 0.125 \n1.5,0.375")
        back = load_measure_csv(path)
        assert back.is_grid == grid
        assert back.positions.tolist() == [0.25, 0.75, 1.5]
        assert back.weights.tolist() == [0.5, 0.125, 0.375]
        if grid:
            assert back.idx.tolist() == [1, 3, 6]

    @pytest.mark.parametrize("mu", [
        DiscreteMeasure.from_grid(RNG.integers(0, 2 ** 30, size=300), RNG.standard_normal(300),
                                  2.0 ** -20),
        DiscreteMeasure.from_points(RNG.exponential(3.0, size=300),
                                    RNG.uniform(1e-9, 1.0, size=300) ** 3),
    ], ids=["grid", "points"])
    def test_one_pass_body_matches_line_loop(self, tmp_path, mu):
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        save_measure_csv(mu, fast)
        # a comment line after the header sends the body down the line loop
        slow.write_text(fast.read_text().replace("omega,weight\n", "omega,weight\n# loop\n"))
        a, b = load_measure_csv(fast), load_measure_csv(slow)
        assert a.h == b.h == mu.h
        for x, y in ((a.positions, b.positions), (a.weights, b.weights), (a.idx, b.idx)):
            assert (x is None and y is None) or np.array_equal(x, y)
        assert np.array_equal(a.weights, mu.weights)

    @pytest.mark.parametrize("body, rows", [
        ("1_000,0.5\n2,0.25\n", [(2.0, 0.25), (1000.0, 0.5)]),
        ("0.25,1\n\n\n", [(0.25, 1.0)]),
        ("\n\n", []),
        ("0.25,1\n\n0.5,2\n", [(0.25, 1.0), (0.5, 2.0)]),
    ], ids=["underscore", "trailing-blank", "only-blank", "inner-blank"])
    def test_rows_loadtxt_refuses_or_skips_take_the_line_loop(self, tmp_path, body, rows):
        # float() takes 1_000 and loadtxt does not; loadtxt skips blank
        # lines, and warns on a body of nothing else
        path = tmp_path / "m.csv"
        path.write_text("omega,weight\n" + body)
        back = load_measure_csv(path)
        assert list(zip(back.positions.tolist(), back.weights.tolist())) == rows

    @pytest.mark.parametrize("head", ["", "# h=0.25\n"])
    @pytest.mark.parametrize("note", ["", "\n# note\n"], ids=["one-pass", "line-loop"])
    def test_non_number_named_with_line(self, tmp_path, head, note):
        path = tmp_path / "m.csv"
        path.write_text(head + "omega,weight\n0.25,1" + note + "\n0.5,abc\n0.75,2\n")
        line = 3 + bool(head) + 2 * bool(note)
        with pytest.raises(ValueError, match=rf"m\.csv:{line}: expected numbers, got '0\.5,abc' "
                                             r"\(could not convert string to float: 'abc'\)"):
            load_measure_csv(path)

    def test_non_number_h_named_with_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# note\n# h=1/4\nomega,weight\n0.25,1\n")
        with pytest.raises(ValueError, match=r"m\.csv:2: expected numbers, got '# h=1/4'"):
            load_measure_csv(path)

    def test_each_distinct_weight_formatted_once(self, tmp_path):
        # repeated weights, and -0.0 beside 0.0, which are equal as dict
        # keys but print apart: the bytes of the row-by-row writer
        path = tmp_path / "m.csv"
        for mu in (DiscreteMeasure.from_points([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
                                               [0.0, -0.0, 0.25, -0.0, 0.25, 0.0, 1.0 / 3.0]),
                   DiscreteMeasure.from_grid(range(7), [1.0 / 3.0, -0.0, 1.0 / 3.0, 0.0,
                                                        -2.5e-300, 1.0 / 3.0, -0.0], 2.0 ** -6),
                   DiscreteMeasure.from_grid([5], [-0.0], 0.5)):
            save_measure_csv(mu, path)
            text = path.read_text()
            assert text == self.csv_reference(mu)
            assert ",-0\n" in text

    def test_header_format(self, tmp_path):
        path = tmp_path / "m.csv"
        save_measure_csv(DiscreteMeasure.from_grid([1], [1.0], 0.5), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# h=0.5"
        assert lines[1] == "omega,weight"


class TestSiteTable:
    """save_measure_csv with a shared site table writes the bytes of the
    row-by-row writer (TestCsv.csv_reference), whatever table it gets."""

    GRID = [DiscreteMeasure.from_grid([0, 3, 17, 2 ** 40], [0.1, 1.0 / 3.0, -2.5e-300, 7.0],
                                      2.0 ** -20),
            DiscreteMeasure.from_grid([0], [0.5], 2.0 ** -6),  # one atom at 0
            DiscreteMeasure.from_grid([], [], 2.0 ** -6),
            DiscreteMeasure.from_grid([5, 5, 9, 1], [0.25, -0.0, 1.0 / 3.0, 0.25], 2.0 ** -6)]
    CONTINUOUS = [DiscreteMeasure.from_points([0.0, 1.0 / 7.0, 2.5, 1e22],
                                              [1e-5, 0.3, -1.0 / 3.0, 4.0]),
                  DiscreteMeasure.from_points([-0.0, 0.0, 0.5, -0.0], [1.0, 2.0, 3.0, 4.0]),
                  DiscreteMeasure.from_points([], [])]

    @pytest.mark.parametrize("family", ["GRID", "CONTINUOUS"])
    def test_same_bytes_with_and_without_a_table(self, tmp_path, family):
        measures = getattr(self, family)
        path = tmp_path / "m.csv"
        for table in (None, site_table(measures),  # a superset of every measure's sites
                      site_table(measures + [random_measure(40)])):
            for mu in measures:
                save_measure_csv(mu, path, table)
                assert path.read_text() == TestCsv.csv_reference(mu)
            for mu in measures:
                save_measure_csv(mu, path, site_table([mu]))
                assert path.read_text() == TestCsv.csv_reference(mu)

    def test_negative_zero_is_its_own_site(self, tmp_path):
        mu = DiscreteMeasure.from_points([-0.0, 0.0, 1.0], [0.5, 0.25, 0.25])
        keys, text = site_table([mu])
        assert list(text) == ["-0", "0", "1"]  # sorted as int64 bits: -0.0 is the least
        path = tmp_path / "m.csv"
        save_measure_csv(mu, path, (keys, text))
        assert path.read_text().splitlines()[1:] == ["-0,0.5", "0,0.25", "1,0.25"]
        # a table that holds 0.0 but not -0.0 lacks a site
        with pytest.raises(ValueError, match=r"m\.csv: position -0\.0 is not in the site table"):
            save_measure_csv(mu, path, site_table([DiscreteMeasure.from_points([0.0, 1.0],
                                                                               [1.0, 1.0])]))

    def test_missing_site_raises(self, tmp_path):
        a = DiscreteMeasure.from_grid([1, 4, 9], [0.25, 0.5, 0.25], 0.5)
        path = tmp_path / "m.csv"
        for table in (site_table([DiscreteMeasure.from_grid([1, 9], [1.0, 1.0], 0.5)]),
                      site_table([DiscreteMeasure.from_grid([1, 4], [1.0, 1.0], 0.5)]),
                      site_table([DiscreteMeasure.zero(0.5)])):
            with pytest.raises(ValueError, match="is not in the site table"):
                save_measure_csv(a, path, table)
        # the same indices on another grid are other positions
        with pytest.raises(ValueError, match=r"position 2\.0 is not"):
            save_measure_csv(a, path, site_table([DiscreteMeasure.from_grid([2, 4, 9], [1.0] * 3,
                                                                            0.25)]))
        # an empty measure needs no site
        save_measure_csv(DiscreteMeasure.zero(0.5), path, site_table([a]))
        assert path.read_text() == "# h=0.5\nomega,weight\n"


class TestFromGridOrder:
    """from_grid sorts its atoms stably by index, into arrays of its own."""

    @pytest.mark.parametrize("idx", [[4, 1, 4, 0, 1], [2, 2, 1], [3, 3, 5, 9]])
    def test_bits_of_the_stable_sort(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        w = np.arange(1.0, len(idx) + 1) / 3.0
        mu = DiscreteMeasure.from_grid(idx, w, 0.25)
        order = np.argsort(idx, kind="stable")
        assert mu.idx.tobytes() == idx[order].tobytes()
        assert mu.weights.tobytes() == w[order].tobytes()

    def test_inputs_not_aliased(self):
        idx, w = np.array([0, 2, 2, 5], dtype=np.int64), np.array([0.5, 0.25, 0.125, 0.125])
        mu = DiscreteMeasure.from_grid(idx, w, 0.5)
        assert not np.shares_memory(mu.idx, idx) and not np.shares_memory(mu.weights, w)
        idx[0], w[0] = 7, 9.0
        assert mu.idx[0] == 0 and mu.weights[0] == 0.5


class TestNonFiniteRows:
    """A non-finite position or weight is refused with its file line, on the
    one-pass body and on the line-by-line path alike."""

    @pytest.mark.parametrize("row", ["0.5,nan", "nan,0.5", "0.5,inf", "-inf,1", "0.5,-inf"])
    @pytest.mark.parametrize("grid", [False, True])
    def test_one_pass_body(self, tmp_path, row, grid):
        head = "# h=0.25\n" if grid else ""
        path = tmp_path / "m.csv"
        path.write_text(head + "omega,weight\n0.25,1\n" + row + "\n0.75,2\n")
        line = 4 if grid else 3
        with pytest.raises(ValueError, match=rf"m\.csv:{line}: expected finite numbers"):
            load_measure_csv(path)

    @pytest.mark.parametrize("grid", [False, True])
    def test_line_by_line_path(self, tmp_path, grid):
        # the blank and comment lines send the body down the line-by-line path
        head = "# h=0.25\n" if grid else ""
        path = tmp_path / "m.csv"
        path.write_text(head + "omega,weight\n0.25,1\n\n# note\n 0.5 , nan \n0.75,2\n")
        line = 6 if grid else 5
        with pytest.raises(ValueError,
                           match=rf"m\.csv:{line}: expected finite numbers, got '0.5 , nan'"):
            load_measure_csv(path)

    @pytest.mark.parametrize("h", ["nan", "inf", "0", "-0.5"])
    def test_grid_header(self, tmp_path, h):
        path = tmp_path / "m.csv"
        path.write_text(f"omega,weight\n# h={h}\n0.25,1\n")
        with pytest.raises(ValueError, match=rf"m\.csv:2: expected a positive finite h"):
            load_measure_csv(path)

    def test_signed_weights_still_read(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# h=0.25\nomega,weight\n0.25,-1\n0.5,2\n")
        assert load_measure_csv(path).weights.tolist() == [-1.0, 2.0]
