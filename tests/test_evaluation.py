"""Correlation statistics, the bundled reference data, and live evaluation."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import flip_check
from taxsim import (
    Benchmark,
    EvaluationError,
    REFERENCE_TARGETS,
    REFERENCE_TOLERANCE,
    evaluate,
    load_benchmark,
    load_reference_scores,
    pearson,
    reference_benchmark,
    reference_correlations,
    spearman,
)
from taxsim.evaluation import reference_data_bytes

# byte-pin of the bundled reference table
REFERENCE_SHA256 = "c611c8f97082effd17115b3eb28e6e2c9a404091ab6ce4d28e9f24af7f2e4958"

_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-15)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1, 2], [1, 2, 3])

    def test_too_few_points(self):
        with pytest.raises(EvaluationError, match="at least 2"):
            pearson([1.0], [2.0])

    def test_zero_variance(self):
        with pytest.raises(EvaluationError, match="zero variance"):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(EvaluationError, match="zero variance"):
            pearson([1, 2, 3], [5, 5, 5])

    @settings(max_examples=100, deadline=None)
    @given(
        pairs=st.lists(st.tuples(_floats, _floats), min_size=2, max_size=40)
    )
    # statistics.correlation returns 1.0098 here, impossible for two points
    @example(pairs=[(0.0, 0.0), (1.0, 1.6185194267591099e-161)])
    def test_matches_stdlib(self, pairs):
        # the reference is exact: r^2 in rational arithmetic, signed by sxy
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        assume(len(set(xs)) > 1 and len(set(ys)) > 1)
        fx = [Fraction(x) for x in xs]
        fy = [Fraction(y) for y in ys]
        mx, my = sum(fx) / len(fx), sum(fy) / len(fy)
        sxx = sum((x - mx) ** 2 for x in fx)
        syy = sum((y - my) ** 2 for y in fy)
        sxy = sum((x - mx) * (y - my) for x, y in zip(fx, fy))
        expected = math.copysign(math.sqrt(sxy * sxy / (sxx * syy)), sxy)
        assert pearson(xs, ys) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(xs=st.lists(_floats, min_size=2, max_size=30))
    def test_self_correlation_is_one(self, xs):
        assume(len(set(xs)) > 1)
        assert pearson(xs, xs) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(st.tuples(_floats, _floats), min_size=2, max_size=30),
        scale=st.floats(min_value=0.01, max_value=100),
        shift=_floats,
    )
    def test_affine_invariance_and_sign_flip(self, pairs, scale, shift):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        assume(len(set(xs)) > 1 and len(set(ys)) > 1)
        r = pearson(xs, ys)
        stretched = [shift + scale * x for x in xs]
        assume(len(set(stretched)) > 1)
        assert pearson(stretched, ys) == pytest.approx(r, abs=1e-9)
        flipped = [shift - scale * x for x in xs]
        assume(len(set(flipped)) > 1)
        assert pearson(flipped, ys) == pytest.approx(-r, abs=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        # NaN used to pass through the final clamp as r = 1.0
        with pytest.raises(EvaluationError, match="non-finite"):
            pearson([1, 2, bad], [1, 3, 2])
        with pytest.raises(EvaluationError, match="non-finite"):
            pearson([1, 3, 2], [1, 2, bad])

    def test_symmetric_in_arguments(self):
        xs = [1.0, 4.0, 2.5, 7.0]
        ys = [2.0, 0.5, 9.0, 1.0]
        assert pearson(xs, ys) == pearson(ys, xs)


class TestSpearman:
    def test_monotone_transform_invariant(self):
        assert spearman([1, 2, 3], [10, 100, 1000]) == pytest.approx(1.0)

    def test_ties_get_average_ranks(self):
        assert spearman([1, 1, 2], [3, 3, 4]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman([1, 2, 3], [9, 4, 1]) == pytest.approx(-1.0)


class TestFlipCheck:
    def test_opposite_signs_same_magnitude(self):
        r, r_flipped = flip_check([1, 2, 3], [1, 2, 4], 10)
        assert r > 0 > r_flipped
        assert abs(r) == pytest.approx(abs(r_flipped), abs=1e-15)

    def test_constant_after_flip_degenerate(self):
        with pytest.raises(EvaluationError):
            flip_check([1, 2, 3], [5, 5, 5], 10)

    def test_reference_path_lengths(self):
        rows = load_reference_scores()
        mc = [r.mc_mean for r in rows]
        minlen = [30.0 - r.sim_edge for r in rows]  # 2*MAX was 30
        r_dist, r_sim = flip_check(mc, minlen, 30.0)
        assert abs(abs(r_dist) - abs(r_sim)) < 1e-12
        assert r_dist < 0 < r_sim

    def test_probability_minimization_form(self):
        # scoring with min p(c) instead of max 1-p(c) flips only the sign
        rows = load_reference_scores()
        mc = [r.mc_mean for r in rows]
        r_sim, r_minp = flip_check(mc, [r.sim_prob for r in rows], 1.0)
        assert abs(abs(r_sim) - abs(r_minp)) < 1e-12
        assert r_sim > 0 > r_minp


class TestReferenceData:
    def test_checksum_pinned(self):
        digest = hashlib.sha256(reference_data_bytes()).hexdigest()
        assert digest == REFERENCE_SHA256

    def test_row_count(self):
        assert len(load_reference_scores()) == 28

    def test_first_row(self):
        first = load_reference_scores()[0]
        assert (first.word1, first.word2) == ("car", "automobile")
        assert first.mc_mean == 3.92
        assert first.replication_mean == 3.9
        assert first.sim_ic == 8.0411
        assert first.sim_edge == 30
        assert first.sim_prob == 0.9962

    def test_words_lowercase_and_ratings_in_scale(self):
        for row in load_reference_scores():
            assert row.word1 == row.word1.lower()
            assert row.word2 == row.word2.lower()
            assert 0.0 <= row.mc_mean <= 4.0
            assert 0.0 <= row.replication_mean <= 4.0

    def test_correlations_hit_published_targets(self):
        computed = reference_correlations()
        for key, target in REFERENCE_TARGETS.items():
            assert computed[key] == pytest.approx(target, abs=REFERENCE_TOLERANCE)

    def test_replication_tracks_original_means(self):
        rows = load_reference_scores()
        r = pearson([r.mc_mean for r in rows], [r.replication_mean for r in rows])
        assert r >= 0.95

    def test_benchmark_view(self):
        bench = reference_benchmark()
        assert len(bench.rows) == 28
        assert bench.rows[0] == ("car", "automobile", 3.92)


class TestLoadBenchmark:
    def test_toy_file(self, toy_files):
        bench = load_benchmark(toy_files["benchmark"])
        assert bench.rows == (
            ("x", "y", 3.5),
            ("x", "z", 0.5),
            ("x", "unlisted", 1.0),
        )

    def test_words_lowercased(self, tmp_path):
        path = tmp_path / "b.csv"
        # a UTF-8 byte order mark and CRLF line ends change nothing
        for raw in (b"word1,word2,rating\nCar,AUTO,3.0\n",
                    b"\xef\xbb\xbfword1,word2,rating\r\nCar,AUTO,3.0\r\n"):
            path.write_bytes(raw)
            assert load_benchmark(path).rows == (("car", "auto", 3.0),)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("a,b,c\nx,y,1\n", encoding="utf-8")
        with pytest.raises(EvaluationError, match="header"):
            load_benchmark(path)

    def test_malformed_rating(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("word1,word2,rating\nx,y,high\n", encoding="utf-8")
        with pytest.raises(EvaluationError, match="malformed rating"):
            load_benchmark(path)

    @pytest.mark.parametrize("rating", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_rating(self, tmp_path, rating):
        path = tmp_path / "b.csv"
        path.write_text(f"word1,word2,rating\nx,y,1\nx,z,{rating}\n", encoding="utf-8")
        with pytest.raises(EvaluationError, match=rf"b\.csv:3: non-finite rating"):
            load_benchmark(path)


class TestEvaluate:
    def test_exclusion_accounting(self, toy_taxonomy, toy_model):
        bench = Benchmark(
            name="toy",
            rows=(("x", "y", 3.5), ("x", "z", 0.5), ("x", "unlisted", 1.0)),
        )
        report = evaluate("resnik", bench, toy_taxonomy, toy_model)
        assert report.n_included == 2
        assert report.excluded == (
            ("x", "unlisted", "word not in taxonomy: unlisted"),
        )
        assert report.n_included + len(report.excluded) == len(bench.rows)
        assert len(report.items) == len(bench.rows)
        assert report.r == pytest.approx(1.0)
        assert -1.0 <= report.r <= 1.0

    def test_structural_measures_need_no_model(self, toy_taxonomy):
        bench = Benchmark(name="toy", rows=(("x", "y", 3.0), ("x", "z", 1.0)))
        for measure in ("edge", "lch"):
            report = evaluate(measure, bench, toy_taxonomy, model=None)
            assert report.n_included == 2

    def test_too_few_usable_rows(self, toy_taxonomy, toy_model):
        bench = Benchmark(
            name="thin", rows=(("x", "y", 3.0), ("x", "ghost", 1.0))
        )
        with pytest.raises(EvaluationError, match="usable rows"):
            evaluate("resnik", bench, toy_taxonomy, toy_model)

    def test_unknown_measure(self, toy_taxonomy, toy_model):
        bench = Benchmark(name="toy", rows=(("x", "y", 3.0), ("x", "z", 1.0)))
        with pytest.raises(ValueError, match="unknown measure"):
            evaluate("weighted", bench, toy_taxonomy, toy_model)

    def test_non_finite_human_rating_rejected(self, toy_taxonomy):
        bench = Benchmark(
            name="nan", rows=(("x", "y", 3.0), ("x", "z", 1.0), ("y", "z", math.nan))
        )
        with pytest.raises(EvaluationError, match="non-finite"):
            evaluate("edge", bench, toy_taxonomy)

    def test_per_item_scores_recorded(self, toy_taxonomy, toy_model):
        bench = Benchmark(name="toy", rows=(("x", "y", 3.0), ("x", "z", 1.0)))
        report = evaluate("prob", bench, toy_taxonomy, toy_model)
        assert [item.score for item in report.items] == [0.25, 0.0]
        assert all(item.included for item in report.items)
