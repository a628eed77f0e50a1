import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special
from scipy.optimize import brentq
from scipy.stats import studentized_range

from acsfa import stats
from acsfa.stats import (
    ResponseMatrix,
    error_matrix,
    rcbd_anova,
    read_response_matrix,
    studentized_range_cdf,
    studentized_range_quantile,
    tukey_hsd,
    write_response_matrix,
)

# Published 10-run benchmark: best tour lengths of three solver variants on
# twelve classic instances, plus the instances' optimal lengths.
INSTANCES = (
    "ulysses16", "bays29", "Oliver30", "eil51", "pr76", "kroA100",
    "lin105", "TSP225", "gil262", "lin318", "rat575", "rat783",
)
OPTIMA = dict(zip(INSTANCES, (6859, 2020, 420, 426, 108159, 21282, 14379, 3916, 2378, 42029, 6773, 8806)))
BEST_LENGTHS = ResponseMatrix(
    np.array(
        [
            [6875, 2038, 426, 430, 110281, 22011, 14844, 4077, 2722, 47960, 7819, 10165],
            [6909, 2028, 425, 429, 108358, 21835, 14492, 4009, 2442, 43191, 7189, 10540],
            [6859, 2026, 421, 428, 108358, 21396, 14412, 3978, 2435, 43061, 7097, 10067],
        ],
        dtype=float,
    ),
    ("ACS", "PSOACS", "ACSFA"),
    INSTANCES,
)


@pytest.fixture(scope="module")
def errors() -> ResponseMatrix:
    return error_matrix(BEST_LENGTHS, OPTIMA)


class TestResponseMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            ResponseMatrix(np.zeros((2, 3)), ("a", "b"), ("x", "y"))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ResponseMatrix(np.zeros((1, 3)), ("a",), ("x", "y", "z"))

    def test_missing_cells_rejected(self):
        values = np.zeros((2, 2))
        values[0, 0] = np.nan
        with pytest.raises(ValueError, match="missing"):
            ResponseMatrix(values, ("a", "b"), ("x", "y"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ResponseMatrix(np.zeros((2, 2)), ("a", "a"), ("x", "y"))

    def test_non_numeric_cell_names_its_row_and_column(self):
        with pytest.raises(ValueError, match="row 'b', column 'y': cell 'zz' is not a number"):
            read_response_matrix("treatment,x,y\na,1,2\nb,3,zz\n")

    def test_indented_comments_are_skipped(self):
        m = read_response_matrix("# header note\ntreatment,x,y\n  # note\na,1,2\n\t# another\nb,3,4\n")
        assert m.treatments == ("a", "b")
        assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_round_trip_text(self, errors):
        again = read_response_matrix(write_response_matrix(errors))
        assert again.treatments == errors.treatments
        assert again.blocks == errors.blocks
        assert np.allclose(again.values, errors.values)


class TestErrorMatrix:
    def test_row_means_match_published_table(self, errors):
        means = errors.values.mean(axis=1)
        assert means[0] == pytest.approx(1016.75)
        assert round(means[1], 2) == 366.67
        assert round(means[2], 2) == 257.58

    def test_zero_row_for_perfect_solver(self):
        best = ResponseMatrix(
            np.array([[6859.0, 2020.0], [6900.0, 2100.0]]), ("perfect", "other"), ("ulysses16", "bays29")
        )
        err = error_matrix(best, OPTIMA)
        assert np.array_equal(err.values[0], [0.0, 0.0])

    def test_misaligned_labels(self):
        best = ResponseMatrix(np.ones((2, 2)) * 7000, ("a", "b"), ("ulysses16", "unknown99"))
        with pytest.raises(ValueError, match="unknown99"):
            error_matrix(best, OPTIMA)

    def test_below_optimum_rejected(self):
        best = ResponseMatrix(
            np.array([[6859.0, 2000.0], [6900.0, 2100.0]]), ("a", "b"), ("ulysses16", "bays29")
        )
        with pytest.raises(ValueError, match="below"):
            error_matrix(best, OPTIMA)


def anova_from_definition(values):
    """Direct textbook decomposition with independent (fsum) summation."""
    a = len(values)
    b = len(values[0])
    cells = [float(v) for row in values for v in row]
    grand = math.fsum(cells) / (a * b)
    row_means = [math.fsum(row) / b for row in values]
    col_means = [math.fsum(values[i][j] for i in range(a)) / a for j in range(b)]
    ss_treat = b * math.fsum((rm - grand) ** 2 for rm in row_means)
    ss_block = a * math.fsum((cm - grand) ** 2 for cm in col_means)
    ss_total = math.fsum((v - grand) ** 2 for v in cells)
    return ss_treat, ss_block, ss_total - ss_treat - ss_block


class TestRcbdAnova:
    def test_published_table_values(self, errors):
        table = rcbd_anova(errors)
        assert table.treatment.df == 2
        assert table.block.df == 11
        assert table.error.df == 22
        assert table.total.df == 35
        assert table.f_treatment == pytest.approx(3.00, abs=0.01)
        assert table.p_treatment == pytest.approx(0.070, abs=0.002)
        assert table.f_block == pytest.approx(2.92, abs=0.01)
        assert table.p_block == pytest.approx(0.016, abs=0.002)
        assert table.treatment.ss == pytest.approx(4043366, rel=1e-6)
        assert table.block.ss == pytest.approx(21614129, rel=1e-6)
        assert table.error.ss == pytest.approx(14808697, rel=1e-6)

    def test_df_and_ss_decomposition(self, errors):
        table = rcbd_anova(errors)
        assert table.treatment.df + table.block.df + table.error.df == table.total.df
        assert table.treatment.ss + table.block.ss + table.error.ss == pytest.approx(
            table.total.ss, rel=1e-6
        )

    def test_agrees_with_from_definition_oracle(self, errors):
        table = rcbd_anova(errors)
        ss_treat, ss_block, ss_error = anova_from_definition(errors.values.tolist())
        assert table.treatment.ss == pytest.approx(ss_treat, rel=1e-9)
        assert table.block.ss == pytest.approx(ss_block, rel=1e-9)
        assert table.error.ss == pytest.approx(ss_error, rel=1e-9)

    def test_agrees_with_oracle_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = int(rng.integers(2, 6))
            b = int(rng.integers(2, 9))
            values = rng.random((a, b)) * 100
            table = rcbd_anova(ResponseMatrix(values, tuple(f"t{i}" for i in range(a)), tuple(f"b{j}" for j in range(b))))
            ss_treat, ss_block, ss_error = anova_from_definition(values.tolist())
            assert table.treatment.ss == pytest.approx(ss_treat, rel=1e-9, abs=1e-9)
            assert table.block.ss == pytest.approx(ss_block, rel=1e-9, abs=1e-9)
            assert table.error.ss == pytest.approx(ss_error, rel=1e-9, abs=1e-9)

    def test_identical_rows_zero_treatment_ss(self):
        row = np.array([3.0, 9.0, 1.0, 7.0])
        m = ResponseMatrix(np.vstack([row, row, row]), ("a", "b", "c"), ("w", "x", "y", "z"))
        table = rcbd_anova(m)
        assert table.treatment.ss == 0.0
        assert table.f_treatment == 0.0

    def test_constant_shift_invariance(self, errors):
        table = rcbd_anova(errors)
        shifted = ResponseMatrix(errors.values + 1234.5, errors.treatments, errors.blocks)
        shifted_table = rcbd_anova(shifted)
        assert shifted_table.f_treatment == pytest.approx(table.f_treatment, rel=1e-9)
        assert shifted_table.f_block == pytest.approx(table.f_block, rel=1e-9)

    def test_block_relabeling_invariance(self, errors):
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(errors.blocks))
        shuffled = ResponseMatrix(
            errors.values[:, perm],
            errors.treatments,
            tuple(errors.blocks[i] for i in perm),
        )
        assert rcbd_anova(shuffled).f_treatment == pytest.approx(rcbd_anova(errors).f_treatment, rel=1e-12)

    def test_degenerate_all_equal(self):
        m = ResponseMatrix(np.full((3, 4), 5.0), ("a", "b", "c"), ("w", "x", "y", "z"))
        table = rcbd_anova(m)
        assert table.degenerate
        assert table.f_treatment == 0.0
        assert table.p_treatment == 1.0


class TestFUpperTail:
    """The p-values of rcbd_anova: the upper tail of the F distribution."""

    def test_against_quadrature(self, errors):
        # independent route: integrate the F density directly
        def f_density(x, d1, d2):
            c = math.exp(
                math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2) - math.lgamma(d2 / 2)
            ) * (d1 / d2) ** (d1 / 2)
            return c * x ** (d1 / 2 - 1) * (1 + d1 * x / d2) ** (-(d1 + d2) / 2)

        table = rcbd_anova(errors)
        cases = [
            (table.p_treatment, table.f_treatment, table.treatment.df, table.error.df),
            (table.p_block, table.f_block, table.block.df, table.error.df),
        ]
        assert [(f, d1, d2) for _, f, d1, d2 in cases] == [
            (pytest.approx(3.0035, abs=1e-4), 2, 22),
            (pytest.approx(2.9191, abs=1e-4), 11, 22),
        ]
        for p, f, d1, d2 in cases:
            expected, _ = integrate.quad(f_density, f, np.inf, args=(d1, d2))
            assert p == pytest.approx(expected, rel=1e-8)

    def test_edge_cases(self):
        labels = dict(treatments=("a", "b"), blocks=("w", "x", "y"))
        # equal treatment means over a nonzero residual: F = 0, p = 1
        table = rcbd_anova(ResponseMatrix(np.array([[1.0, 5.0, 3.0], [3.0, 3.0, 3.0]]), **labels))
        assert table.error.ms > 0.0
        assert table.f_treatment == 0.0
        assert table.p_treatment == 1.0
        # an exactly additive table has no residual: F = inf, p = 0
        table = rcbd_anova(ResponseMatrix(np.array([[1.0, 2.0, 4.0], [2.0, 3.0, 5.0]]), **labels))
        assert table.error.ss == 0.0
        assert table.f_treatment == table.f_block == float("inf")
        assert table.p_treatment == table.p_block == 0.0

    def test_matches_scipy_fdtrc(self):
        grid = (1, 2, 3, 4, 5, 7, 10, 14, 22, 33, 50, 75, 100, 150, 199, 200)
        dfs = [(d1, d2) for d1 in grid for d2 in grid]
        dfs += [(d1, 22) for d1 in range(1, 201)] + [(2, d2) for d2 in range(1, 201)]
        fs = [*np.linspace(0.0, 1e3, 21), *np.logspace(-3.0, 3.0, 61)]
        worst = max(
            abs(stats._f_upper_tail(d1, d2, f) - special.fdtrc(d1, d2, f)) for d1, d2 in dfs for f in fs
        )
        assert worst <= 1e-12

    def test_ends_and_nan(self):
        for d1, d2 in [(1, 1), (2, 22), (11, 22), (200, 200)]:
            assert stats._f_upper_tail(d1, d2, 0.0) == 1.0
            assert stats._f_upper_tail(d1, d2, 1e300) <= 1e-150
            assert stats._f_upper_tail(d1, d2, math.inf) == 0.0
            assert math.isnan(stats._f_upper_tail(d1, d2, math.nan))

    def test_strictly_decreasing_in_f(self):
        # shifting whole treatment rows apart leaves the residual as it is and raises F
        base = np.array([[3.0, 1.0, 4.0, 1.0], [5.0, 9.0, 2.0, 6.0], [5.0, 3.0, 5.0, 8.0]])
        shift = np.array([[0.0], [1.0], [2.0]])
        tables = [
            rcbd_anova(ResponseMatrix(base + gap * shift, ("a", "b", "c"), ("w", "x", "y", "z")))
            for gap in np.linspace(0.0, 20.0, 40)
        ]
        fs = [t.f_treatment for t in tables]
        ps = [t.p_treatment for t in tables]
        assert all(a < b for a, b in zip(fs, fs[1:]))
        assert all(a > b for a, b in zip(ps, ps[1:]))


class TestNormalCdf:
    """The normal CDF under the studentized range integral."""

    def test_matches_scipy_ndtr(self):
        a = np.linspace(-40.0, 40.0, 800_001)
        assert np.abs(stats._ndtr(a) - special.ndtr(a)).max() <= 1e-13


class TestLegendre:
    @pytest.mark.parametrize("n", [1, 2, 7, 192, 384, 512])
    def test_matches_numpy_leggauss(self, n):
        x, w = stats._legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.abs(x - ref_x).max() <= 2e-16
        assert np.abs(w / ref_w - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("n", [192, 384, 512])
    def test_integrates_even_powers(self, n):
        # an n-point rule is exact up to degree 2n - 1
        x, w = stats._legendre(n)
        assert float(w.sum()) == pytest.approx(2.0, abs=1e-15)
        for k in (1, 4, n // 2, n - 1):
            assert float(w @ x ** (2 * k)) == pytest.approx(2.0 / (2 * k + 1), abs=1e-15)


class TestStudentizedRange:
    def test_cdf_matches_scipy(self):
        for q, k, df in [(3.0, 3, 22), (2.5, 3, 10), (4.0, 5, 40), (1.2, 2, 5)]:
            assert studentized_range_cdf(q, k, df) == pytest.approx(
                float(studentized_range.cdf(q, k, df)), abs=1e-6
            )

    def test_quantile_matches_scipy(self):
        for p, k, df in [(0.90, 3, 22), (0.95, 3, 22), (0.99, 4, 30), (0.75, 2, 8)]:
            assert studentized_range_quantile(p, k, df) == pytest.approx(
                float(studentized_range.ppf(p, k, df)), abs=1e-5
            )

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 22, 60])
    def test_two_group_quantile_matches_the_t_oracle(self, df):
        # the range of two normals is |Z1 - Z2| = sqrt(2) |N(0, 1)|, so q = sqrt(2) |t_df|
        for p in (0.9, 0.95, 0.99, 0.999):
            exact = math.sqrt(2.0) * float(special.stdtrit(df, (1.0 + p) / 2.0))
            assert studentized_range_quantile(p, 2, df) == pytest.approx(exact, rel=1e-9)

    def test_root_agrees_with_brentq(self):
        for p, k, df in [(0.9, 3, 22), (0.95, 2, 1), (0.99, 4, 5), (0.999, 3, 60)]:
            root = brentq(lambda q: studentized_range_cdf(q, k, df) - p, 1e-9, 1e4, xtol=1e-12)
            assert studentized_range_quantile(p, k, df) == pytest.approx(root, abs=1e-9)

    def test_root_search_starts_on_the_last_doubling_step(self, monkeypatch):
        # at df = 1, p = 0.999 the doubling evaluates q = 4, 8, ..., 1024; the
        # root search then starts on [512, 1024] with both values known
        cdf = stats.studentized_range_cdf
        points = []

        def counted(q, k, df):
            points.append(q)
            return cdf(q, k, df)

        monkeypatch.setattr(stats, "studentized_range_cdf", counted)
        stats._quantile.cache_clear()
        try:
            q = studentized_range_quantile(0.999, 2, 1)
        finally:
            stats._quantile.cache_clear()
        assert points[:9] == [4.0 * 2**i for i in range(9)]
        assert all(512.0 < x < 1024.0 for x in points[9:])
        assert len(points) <= 17
        # the two-group range is sqrt(2) |t_1|, so this is the exact quantile
        assert q == pytest.approx(math.sqrt(2.0) * float(special.stdtrit(1, 0.9995)), abs=1e-9)

    def test_root_search_below_the_first_doubling_starts_at_zero(self, monkeypatch):
        # the 0.9 quantile at k = 3, df = 22 lies below 4, so the doubling
        # stops at once and the search runs on [0, 4], where f(0) = -p needs
        # no CDF evaluation
        cdf = stats.studentized_range_cdf
        points = []

        def counted(q, k, df):
            points.append(q)
            return cdf(q, k, df)

        monkeypatch.setattr(stats, "studentized_range_cdf", counted)
        stats._quantile.cache_clear()
        try:
            q = studentized_range_quantile(0.9, 3, 22)
        finally:
            stats._quantile.cache_clear()
        assert points[0] == 4.0
        assert all(0.0 < x < 4.0 for x in points[1:])
        assert len(points) <= 11
        assert cdf(q, 3, 22) == pytest.approx(0.9, abs=1e-9)

    def test_cold_quantile_memory_is_bounded(self):
        # numpy's leggauss eigensolved a 512 x 512 matrix and the CDF took
        # 64-row blocks: a 2.7 MB traced peak for this quantile
        stats._legendre.cache_clear()
        stats._quantile.cache_clear()
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            studentized_range_quantile(0.9, 3, 22)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
            stats._quantile.cache_clear()
        assert peak < 1e6

    def test_published_table_anchors(self):
        # classic 5% critical points: q(3, 20) = 3.58, q(3, 24) = 3.53
        assert studentized_range_quantile(0.95, 3, 20) == pytest.approx(3.58, abs=0.005)
        assert studentized_range_quantile(0.95, 3, 24) == pytest.approx(3.53, abs=0.005)

    def test_round_trip(self):
        q = studentized_range_quantile(0.9, 3, 22)
        assert studentized_range_cdf(q, 3, 22) == pytest.approx(0.9, abs=1e-6)

    def test_monotone_in_p(self):
        qs = [studentized_range_quantile(p, 3, 22) for p in (0.5, 0.8, 0.9, 0.95, 0.99)]
        assert qs == sorted(qs)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            studentized_range_cdf(1.0, 1, 10)
        with pytest.raises(ValueError):
            studentized_range_quantile(1.5, 3, 10)

    def test_quantile_beyond_the_bracket_rejected(self):
        # at df = 1 the 0.9999 quantile lies near 9003, past the 1e4 bracket's last doubling
        with pytest.raises(ValueError, match="beyond"):
            studentized_range_quantile(0.9999, 2, 1)


class TestTukey:
    def test_published_grouping_for_errors(self, errors):
        g = tukey_hsd(errors, 0.90)
        assert g.treatments == ("ACS", "PSOACS", "ACSFA")
        assert round(g.means[0], 2) == 1016.75
        assert round(g.means[1], 2) == 366.67
        assert round(g.means[2], 2) == 257.58
        assert g.letters == ("A", "AB", "B")

    def test_published_grouping_for_best_lengths(self):
        g = tukey_hsd(BEST_LENGTHS, 0.90)
        assert g.treatments == ("ACS", "PSOACS", "ACSFA")
        assert abs(g.means[0] - 19137.3) <= 0.05
        assert abs(g.means[1] - 18487.2) <= 0.05
        assert abs(g.means[2] - 18378.2) <= 0.05
        assert g.letters == ("A", "AB", "B")

    def test_pairwise_flags_match_letters(self, errors):
        g = tukey_hsd(errors, 0.90)
        letter_sets = dict(zip(g.treatments, (set(ls) for ls in g.letters)))
        for pair in g.pairs:
            share = bool(letter_sets[pair.first] & letter_sets[pair.second])
            assert share == (not pair.significant)

    def test_identical_rows_share_one_letter(self):
        row = np.array([3.0, 9.0, 1.0, 7.0])
        m = ResponseMatrix(np.vstack([row, row, row]), ("a", "b", "c"), ("w", "x", "y", "z"))
        g = tukey_hsd(m, 0.90)
        assert g.letters == ("A", "A", "A")

    def test_higher_confidence_never_splits_groups(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = int(rng.integers(3, 6))
            b = int(rng.integers(3, 8))
            m = ResponseMatrix(
                rng.random((a, b)) * 10,
                tuple(f"t{i}" for i in range(a)),
                tuple(f"b{j}" for j in range(b)),
            )
            low = tukey_hsd(m, 0.80)
            high = tukey_hsd(m, 0.99)
            low_letters = dict(zip(low.treatments, low.letters))
            high_letters = dict(zip(high.treatments, high.letters))
            for pair in low.pairs:
                if set(low_letters[pair.first]) & set(low_letters[pair.second]):
                    assert set(high_letters[pair.first]) & set(high_letters[pair.second])

    def test_grouping_consistent_on_random_matrices(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = int(rng.integers(2, 7))
            b = int(rng.integers(2, 7))
            m = ResponseMatrix(
                rng.random((a, b)) * 50,
                tuple(f"t{i}" for i in range(a)),
                tuple(f"b{j}" for j in range(b)),
            )
            g = tukey_hsd(m, 0.90)
            letter_sets = dict(zip(g.treatments, (set(ls) for ls in g.letters)))
            assert all(letter_sets.values())
            for pair in g.pairs:
                share = bool(letter_sets[pair.first] & letter_sets[pair.second])
                assert share == (not pair.significant)

    def test_invalid_confidence(self, errors):
        with pytest.raises(ValueError):
            tukey_hsd(errors, 1.0)
