"""Correlation statistics, the bundled reference data, and live evaluation."""

import copy
import dataclasses
import hashlib
import math
import pickle
import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import _budget, flip_check
from taxsim import (
    Benchmark,
    EvalItem,
    EvalReport,
    EvaluationError,
    FrequencyTable,
    ProbabilityModel,
    REFERENCE_TARGETS,
    REFERENCE_TOLERANCE,
    evaluate,
    load_benchmark,
    load_reference_scores,
    pearson,
    reference_correlations,
    SimilarityError,
    SimScore,
    Taxonomy,
    WORD_MEASURES,
    build_model,
    sim_weighted,
    uniform_weights,
    word_similarity,
)
from taxsim.evaluation import reference_data_bytes

# byte-pin of the bundled reference table
REFERENCE_SHA256 = "c611c8f97082effd17115b3eb28e6e2c9a404091ab6ce4d28e9f24af7f2e4958"

_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


_PEARSON_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=2.0 ** 999, max_value=2.0 ** 1001),  # near 2**1000
    st.floats(min_value=-2.0 ** 1001, max_value=-2.0 ** 999),
    st.floats(min_value=-2.0 ** -1022, max_value=2.0 ** -1022),  # subnormal or zero
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(2 ** 999, 2 ** 1001),
    st.booleans(),
)


@st.composite
def _pearson_columns(draw):
    """Two columns of one length from ``_PEARSON_VALUE``, some entries
    replaced by the negation of the one before, so that values of equal
    magnitude and opposite sign meet."""
    n = draw(st.integers(0, 10))
    columns = []
    for _ in range(2):
        vs = draw(st.lists(_PEARSON_VALUE, min_size=n, max_size=n))
        for k in draw(st.lists(st.integers(1, n - 1), max_size=n)) if n > 1 else ():
            vs[k] = -vs[k - 1]
        columns.append(vs)
    return columns


def _pearson_outcome(correlation, xs, ys):
    """The hex string of ``correlation(xs, ys)``, or the type and message
    of the error it raises."""
    try:
        return correlation(xs, ys).hex()
    except (ValueError, EvaluationError) as exc:
        return type(exc), str(exc)


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
        scale=st.integers(min_value=-6, max_value=6).map(lambda k: 2.0 ** k),
        shift=_floats,
    )
    def test_affine_invariance_and_sign_flip(self, pairs, scale, shift):
        # only exact images test pearson: a power-of-two scale drops no
        # bit of x unless x * scale underflows, but shift + x * scale can,
        # so only the pairs whose x comes back exactly are kept
        pairs = [(x, y) for x, y in pairs
                 if all((shift + s * x - shift) / s == x for s in (scale, -scale))]
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**4400],
                             ids=["nan", "inf", "-inf", "int-beyond-float-range"])
    def test_non_finite_input_rejected(self, bad):
        # NaN used to pass through the final clamp as r = 1.0, and an int
        # beyond float range raised OverflowError from math.isfinite
        with pytest.raises(EvaluationError, match="non-finite"):
            pearson([1, 2, bad], [1, 3, 2])
        with pytest.raises(EvaluationError, match="non-finite"):
            pearson([1, 3, 2], [1, 2, bad])

    @pytest.mark.parametrize("bad", ["3", None, 1j, Decimal(3)],
                             ids=["str", "none", "complex", "decimal"])
    def test_non_real_input_rejected(self, bad):
        # str, None and complex used to raise TypeError from math.isfinite
        with pytest.raises(EvaluationError, match="^non-real input"):
            pearson([1, 2, bad], [1, 3, 2])
        with pytest.raises(EvaluationError, match="^non-real input"):
            pearson([1, 3, 2], [1, 2, bad])

    def test_bools_and_ints_are_real(self):
        assert pearson([True, False, True], [3, 1, 2]) == pearson([1.0, 0.0, 1.0], [3, 1, 2])

    def test_values_near_float_limit(self):
        # the sums used to overflow: fsum raised OverflowError, or an
        # infinite deviation turned r into NaN and the clamp into 1.0
        assert pearson([1.7e308, -1.7e308, 1.7e308], [1, 2, 3]) == 0.0
        assert pearson([1e308, 1e308, 0.0], [1, 2, 3]) == pearson([1, 1, 0], [1, 2, 3])
        assert pearson([1, 2, 3], [-1e308, 1e308, 1e308]) == pearson(
            [1, 2, 3], [-1, 1, 1]
        )

    def test_rounded_mean(self):
        # the mean of [0, 5e-324] used to round to 0, and that of two
        # adjacent floats onto one of them, leaving r = 0.707
        adjacent = [-1e6, math.nextafter(-1e6, 0.0)]
        assert pearson(adjacent, [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
        assert pearson([0.0, 1.0], [0.0, 5e-324]) == pytest.approx(1.0, abs=1e-15)
        assert pearson([5e-324, 0.0, 1e-323], [1, 2, 3]) == pytest.approx(
            pearson([1, 0, 2], [1, 2, 3]), abs=1e-15
        )

    def test_symmetric_in_arguments(self):
        xs = [1.0, 4.0, 2.5, 7.0]
        ys = [2.0, 0.5, 9.0, 1.0]
        assert pearson(xs, ys) == pearson(ys, xs)

    @settings(max_examples=_budget(300), derandomize=True, database=None, deadline=None)
    @given(columns=_pearson_columns())
    @example(columns=([1, 2, 3, 5], [True, False, True, True]))
    @example(columns=([2.0 ** 1000, -2.0 ** 1000, 2.0 ** 999, 1.0], [1, 2, 3, 4]))
    @example(columns=([5e-324, -5e-324, 1e-323, 0.0], [2.0 ** -1022, 0.0, -5e-324, 1.0]))
    @example(columns=([3.0, -3.0, 3.0, -3.0], [1.5, -1.5, -1.5, 1.5]))
    @example(columns=([1e308, -1e308, 1e308], [7, 7, 7]))
    def test_matches_the_generator_reference_bit_for_bit(self, columns):
        # the C-level passes must give every float of the generator-based
        # passes they replaced, and raise the same error where it raised
        xs, ys = columns
        assert _pearson_outcome(pearson, xs, ys) == _pearson_outcome(
            helpers.reference_pearson, xs, ys)


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

    # float() reads the last three as 10.0, 3.0 and 1.0: an underscore, an
    # Arabic-Indic digit and a fullwidth digit
    @pytest.mark.parametrize("rating", ["high", "1_0", "\u0663", "\uff11"])
    def test_malformed_rating(self, tmp_path, rating):
        path = tmp_path / "b.csv"
        path.write_text(f"word1,word2,rating\nx,y,1\nx,z,{rating}\n", encoding="utf-8")
        with pytest.raises(EvaluationError, match=rf"b\.csv:3: malformed rating {rating!r}$"):
            load_benchmark(path)

    @pytest.mark.parametrize("rating", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_rating(self, tmp_path, rating):
        path = tmp_path / "b.csv"
        path.write_text(f"word1,word2,rating\nx,y,1\nx,z,{rating}\n", encoding="utf-8")
        with pytest.raises(EvaluationError, match=rf"b\.csv:3: non-finite rating"):
            load_benchmark(path)

    @pytest.mark.parametrize("body, problem", [
        # a quoted field spans two lines; the word it holds is "a" once
        # stripped, as a word that holds a line break is itself rejected
        ('"a\n",c,1\nx,y\n', "expected 3 columns"),
        ("x,y,1\n\nx,y\n", "expected 3 columns"),  # a blank line
        ('"a\n",c,1\nx,y,high\n', "malformed rating"),
        ('"a\n",c,1\nx,y,nan\n', "non-finite rating"),
    ])
    def test_messages_name_the_physical_line(self, tmp_path, body, problem):
        path = tmp_path / "b.csv"
        path.write_text("word1,word2,rating\n" + body, encoding="utf-8")
        with pytest.raises(EvaluationError, match=rf"b\.csv:4: {problem}"):
            load_benchmark(path)

    def test_field_over_csv_limit(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(
            "word1,word2,rating\nx,y,1\n" + "x" * 131073 + ",z,1\n", encoding="utf-8"
        )
        with pytest.raises(EvaluationError, match=r"b\.csv:3: field larger than"):
            load_benchmark(path)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"word1,word2,rating\nx,caf\xe9,1\n")
        with pytest.raises(EvaluationError, match=r"b\.csv: not valid UTF-8"):
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

    @pytest.mark.parametrize("measure, kwargs, message", [
        ("resnik", {}, "requires a probability model"),
        ("prob", {}, "requires a probability model"),
        ("lch", {"log_base": 0.5}, "log_base"),
        ("lch", {"lch_floor": math.nan}, "floor"),
        ("lch", {"lch_floor": 1.5}, r"^floor must be finite and in \(0, 1\], got 1\.5$"),
    ], ids=["resnik-no-model", "prob-no-model", "lch-log-base", "lch-nan-floor",
            "lch-floor-above-one"])
    def test_arguments_checked_when_no_row_is_usable(self, toy_taxonomy, measure,
                                                     kwargs, message):
        # every row is out of vocabulary, so no row is scored: the
        # arguments are still checked, once, before the rows
        bench = Benchmark(name="oov", rows=(("ghost", "x", 3.0), ("x", "ghost", 1.0)))
        with pytest.raises(ValueError, match=message):
            evaluate(measure, bench, toy_taxonomy, None, **kwargs)

    def test_lch_on_a_flat_taxonomy_fails_when_no_row_is_usable(self):
        flat = Taxonomy.build([], senses={"w": {"solo"}}, concepts=["solo"])
        bench = Benchmark(name="oov", rows=(("ghost", "w", 3.0), ("w", "ghost", 1.0)))
        with pytest.raises(SimilarityError, match="depth"):
            evaluate("lch", bench, flat)

    def test_non_finite_human_rating_rejected(self, toy_taxonomy):
        bench = Benchmark(
            name="nan", rows=(("x", "y", 3.0), ("x", "z", 1.0), ("y", "z", math.nan))
        )
        with pytest.raises(EvaluationError, match="non-finite"):
            evaluate("edge", bench, toy_taxonomy)

    def test_non_str_word_excluded(self, toy_taxonomy):
        # the exclusion reason used to raise TypeError from str.join
        bench = Benchmark("b", (("x", "y", 1.0), ("x", "z", 2.0), (5, "x", 3.0),
                                (None, ("x",), 4.0)))
        report = evaluate("edge", bench, toy_taxonomy)
        assert report.excluded == ((5, "x", "word not in taxonomy: 5"),
                                   (None, ("x",), "word not in taxonomy: ('x',), None"))
        assert report.n_included == 2

    @pytest.mark.parametrize("given, message", [
        ({"rows": ()}, "^benchmark is a dict, not a Benchmark$"),
        ((("x", "y", 1.0), ("x", "z", 2.0)), "^benchmark is a tuple, not a Benchmark$"),
        (Benchmark("g", iter([("x", "y", 1.0)])),
         "^benchmark 'g' rows are a list_iterator, not a tuple or list$"),
        (Benchmark("b", (("x", "y", 1.0), ("x", "z"))),
         r"^benchmark 'b' row 1 has 2 fields, not 3 \(word1, word2, rating\)$"),
        (Benchmark("b", [("x", "y", 1.0), ("x", "z", 2.0), None, ("x", "z")]),
         r"^benchmark 'b' row 2 is a NoneType, not 3 \(word1, word2, rating\)$"),
        (Benchmark("b", (("x", "y", 1.0, "note"), ("x", "z", 2.0))),
         r"^benchmark 'b' row 0 has 4 fields, not 3 \(word1, word2, rating\)$"),
        (Benchmark("b", (("x", "y", 1.0), 7)),
         r"^benchmark 'b' row 1 is a int, not 3 \(word1, word2, rating\)$"),
    ], ids=["dict", "rows-not-in-a-benchmark", "iterator-rows", "two-fields", "none-row",
            "four-fields", "int-row"])
    def test_benchmark_shape_checked_at_the_boundary(self, toy_taxonomy, toy_model,
                                                      given, message):
        with pytest.raises(EvaluationError, match=message):
            evaluate("resnik", given, toy_taxonomy, toy_model)

    def test_second_measure_of_a_family_runs_no_kernel(self, toy_taxonomy, toy_model,
                                                        monkeypatch):
        # prob after resnik, and lch after edge, on the same rows read the
        # family's kept sweep; on the same rows object they also read the
        # taxonomy's kept lookup of the rows, and look no word up.  Rows
        # that may not be kept (a list, a str-subclass word, a bool rating)
        # are looked up on every call, and equal rows in a new tuple on the
        # first; another benchmark runs the kernels again
        sweeps, paths, lookups = [], [], []
        argmax = ProbabilityModel.subsumer_argmax
        monkeypatch.setattr(ProbabilityModel, "subsumer_argmax",
                            lambda *a: sweeps.append(a) or argmax(*a))
        for name in ("path_len", "nearest_path_len"):  # every path search
            search = getattr(Taxonomy, name)
            monkeypatch.setattr(Taxonomy, name,
                                lambda *a, search=search: paths.append(a) or search(*a))
        column = Taxonomy.sense_index_column
        monkeypatch.setattr(Taxonomy, "sense_index_column",
                            lambda *a: lookups.append(a) or column(*a))

        class Word(str):
            pass

        rows = (("x", "y", 3.0), ("x", "z", 1.0), ("y", "z", 2), ("x", "ghost", 0.0))
        t, m = toy_taxonomy, toy_model
        for first, second in (("resnik", "prob"), ("edge", "lch")):
            bench = Benchmark("a", rows)
            evaluate(first, bench, t, m)
            # the lookups of two calls in a row on each benchmark
            for again, looked_up in (
                    (bench, (0, 0)), (Benchmark("renamed", rows), (0, 0)),
                    (Benchmark("a", list(rows)), (2, 2)),
                    (Benchmark("a", ((Word("x"), "y", 3.0), *rows[1:])), (2, 2)),
                    (Benchmark("a", (("x", "y", True), *rows[1:])), (2, 2)),
                    (Benchmark("a", tuple([(*row,) for row in rows])), (2, 0))):
                for n in looked_up:
                    counts = len(sweeps), len(paths), len(lookups)
                    got = evaluate(second, again, t, m)
                    assert (len(sweeps), len(paths), len(lookups)) == (*counts[:2],
                                                                      counts[2] + n)
                assert got == evaluate(second, again, *copy.deepcopy((t, m)))
        assert sweeps and paths
        for measure in WORD_MEASURES:
            counts = len(sweeps), len(paths)
            evaluate(measure, Benchmark("b", rows[1:] + rows[:1]), t, m)
            evaluate(measure, Benchmark("b", rows[:3]), t, m)  # a's included rows, b's are rotated
            grown = len(sweeps) > counts[0], len(paths) > counts[1]
            assert grown == ((True, False) if measure in ("resnik", "prob") else (False, True))

    def test_copies_carry_no_kept_state(self, toy_taxonomy, toy_model, monkeypatch):
        # a pickled or deep-copied taxonomy and model leave out every slot
        # that evaluate and the weighted queries kept on them, so their
        # first evaluate looks the words up and runs the kernel again
        t, m = toy_taxonomy, toy_model
        bench = Benchmark("toy", (("x", "y", 3.0), ("x", "z", 1.0), ("y", "z", 2.0)))
        for measure in WORD_MEASURES:
            evaluate(measure, bench, t, m)
        assert sim_weighted(m, t, "A1", "A2", uniform_weights(m, t, "A1", "A2")) > 0
        slots = {"_kept_rows", "_kept_path_sweep"}, {"_kept_corpus_sweep", "_kept_domain"}
        assert slots[0] <= vars(t).keys() and slots[1] <= vars(m).keys()
        sweeps, paths, lookups = [], [], []
        argmax = ProbabilityModel.subsumer_argmax
        monkeypatch.setattr(ProbabilityModel, "subsumer_argmax",
                            lambda *a: sweeps.append(a) or argmax(*a))
        search = Taxonomy.nearest_path_len
        monkeypatch.setattr(Taxonomy, "nearest_path_len", lambda *a: paths.append(a) or search(*a))
        column = Taxonomy.sense_index_column
        monkeypatch.setattr(Taxonomy, "sense_index_column",
                            lambda *a: lookups.append(a) or column(*a))
        for t2, m2 in (pickle.loads(pickle.dumps((t, m))), copy.deepcopy((t, m))):
            assert m2.taxonomy is t2
            for owner in (t2, m2):
                assert not [k for k in vars(owner) if k.startswith("_kept_")]
            # the first call looks the rows up; the second reads its lookup
            for measure, ran, looked_up in (("prob", sweeps, 2), ("lch", paths, 0)):
                counts = len(ran), len(lookups)
                assert evaluate(measure, bench, t2, m2) == evaluate(measure, bench, t, m)
                assert len(ran) > counts[0] and len(lookups) == counts[1] + looked_up
            assert not slots[0] - vars(t2).keys() and "_kept_corpus_sweep" in vars(m2)

    def test_threads_agree_with_one_thread(self, monkeypatch):
        # four threads evaluate their own benchmarks with their own
        # measures, so each replaces the slots the others read: each
        # model's resnik/prob sweep, and the taxonomy's edge/lch sweep and
        # its lookup of the last rows; a torn or stale slot would show as
        # a wrong report in some thread
        rng = random.Random(5)
        edges = []
        for i in range(1, 400):
            parents = rng.sample(range(i), 2 if rng.random() < 0.1 else 1)
            edges += [(f"c{i}", f"c{p}") for p in parents]
        senses = {f"w{i}": {f"c{i}"} | ({f"c{i // 2}"} if i % 7 == 0 else set())
                  for i in range(400)}
        t = Taxonomy.build(edges, senses)
        models = [build_model(t, FrequencyTable.from_counts(
            {w: rng.randrange(3) for w in senses} | {"w0": 1})) for _ in range(2)]
        benches = [Benchmark(f"b{k}", tuple((f"w{rng.randrange(400)}", f"w{rng.randrange(400)}",
                                             float(rng.randrange(10))) for _ in range(60)))
                   for k in range(3)]
        jobs = [(measure, b, m) for measure in WORD_MEASURES for b in range(3) for m in range(2)]

        def run(job):
            measure, b, m = job
            return _bits(evaluate(measure, benches[b], t, models[m]))

        want = [run(job) for job in jobs]
        lookups = []
        column = Taxonomy.sense_index_column
        monkeypatch.setattr(Taxonomy, "sense_index_column",
                            lambda *a: lookups.append(a) or column(*a))
        start = threading.Barrier(4)
        results = [None] * 4

        def work(k):
            order = list(range(len(jobs))) * 3
            random.Random(k).shuffle(order)
            start.wait()
            got = [None] * len(jobs)
            for i in order:
                got[i] = run(jobs[i])
            results[k] = got

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert results == [want] * 4
        assert len(lookups) < 2 * 4 * 3 * len(jobs)  # some calls hit the kept rows

    def test_per_item_scores_recorded(self, toy_taxonomy, toy_model):
        bench = Benchmark(name="toy", rows=(("x", "y", 3.0), ("x", "z", 1.0)))
        report = evaluate("prob", bench, toy_taxonomy, toy_model)
        assert [item.score for item in report.items] == [0.25, 0.0]
        assert all(item.included for item in report.items)


def _row_by_row_report(measure, benchmark, t, model):
    """The report ``evaluate`` must give, built one row at a time: each
    item by its own constructor call, each score by
    ``word_similarity`` and r by the generator-based reference."""
    items, excluded, humans, scores = [], [], [], []
    for w1, w2, human in benchmark.rows:
        absent = sorted({str(w) for w in (w1, w2) if not t.sense_indices(w)})
        if absent:
            why = "word not in taxonomy: " + ", ".join(absent)
            items.append(EvalItem(w1, w2, human, None, False, why))
            excluded.append((w1, w2, why))
        else:
            value = word_similarity(measure, t, w1, w2, model).value
            items.append(EvalItem(w1, w2, human, value, True, None))
            humans.append(human)
            scores.append(value)
    return EvalReport(measure, helpers.reference_pearson(humans, scores), len(humans),
                      tuple(excluded), tuple(items))


_GHOST = ("x", "ghost", 9.0)
_SCORED = (("x", "y", 3.0), ("x", "z", 1.0), ("y", "z", 2.0), ("Y", "x", 4.0))
_ROW_WORD = st.sampled_from(["x", "y", "z", "Y", " z", "ghost", "phantom", 7, None, ("x",), 2.5])


@settings(max_examples=_budget(100), derandomize=True, database=None, deadline=None)
@given(rows=st.lists(st.tuples(_ROW_WORD, _ROW_WORD, st.sampled_from([0.0, 1.0, 2.5, 4.0])),
                     max_size=12))
@example(rows=_SCORED)
@example(rows=(_GHOST,) + _SCORED)  # excluded first
@example(rows=_SCORED[:2] + (_GHOST, ("ghost", "phantom", 0.5)) + _SCORED[2:])  # in the middle
@example(rows=_SCORED + (_GHOST,))  # excluded last
@example(rows=((7, "x", 1.0),) + _SCORED[:2] + ((None, ("x",), 2.0),) + _SCORED[2:]
         + (("x", 2.5, 0.0),))  # words that are not str
@example(rows=(_GHOST, ("x", "y", 3.0), _GHOST, ("z", "x", 1.0), _GHOST))
def test_column_built_report_matches_a_row_by_row_build(toy_taxonomy, toy_model, rows):
    # evaluate builds its items in one constructor pass over columns; a
    # build that makes each row's item by its own call must give the same
    # report
    t, bench = toy_taxonomy, Benchmark("cols", tuple(rows))
    usable = sum(bool(t.sense_indices(w1) and t.sense_indices(w2)) for w1, w2, _ in rows)
    for measure in WORD_MEASURES:
        got = _outcome(lambda: evaluate(measure, bench, t, toy_model))
        if usable < 2:
            assert got == (EvaluationError,
                           f"benchmark 'cols' has {usable} usable rows; need >= 2")
            continue
        want = _outcome(lambda: _row_by_row_report(measure, bench, t, toy_model))
        assert got == want  # a report, or the same zero-variance error
        if isinstance(want, EvalReport):
            assert _bits(got) == _bits(want)
            assert all(type(it.included) is bool for it in got.items)


def _oracle_scores(order, edges, senses, model, w1, w2):
    """measure -> (value, witness, sense pair) of ``w1``, ``w2`` by full
    enumeration and deque BFS; lch only on a taxonomy of depth 1 or more."""
    pair = (senses[w1], senses[w2])
    out = {
        "resnik": helpers.oracle_best_subsumer(
            order, edges, pair, lambda c: None if math.isinf(v := model.ic(c)) else v),
        "prob": helpers.oracle_best_subsumer(order, edges, pair, lambda c: 1.0 - model.p(c)),
    }
    path_pair = helpers.oracle_min_sense_pair(order, edges, senses, w1, w2)
    out["edge"] = (helpers.oracle_edge_words(order, edges, senses, w1, w2), None, path_pair)
    if helpers.oracle_max_depth(order, edges) >= 1:
        out["lch"] = (helpers.oracle_lch_words(order, edges, senses, w1, w2), None, path_pair)
    return out


def _hex(score):
    return None if score is None else score.hex()


def _outcome(call):
    """``call()``, or the (type, message) of the evaluation error it raises."""
    try:
        return call()
    except (EvaluationError, SimilarityError) as exc:
        return type(exc), str(exc)


def _bits(report):
    """Everything an EvalReport holds, each float as its hex string, so
    that two reports compare equal only bit for bit."""
    return (report.measure, report.r.hex(), report.n_included, report.excluded,
            [(it.word1, it.word2, it.human.hex(), _hex(it.score), it.included, it.reason)
             for it in report.items])


def _oracle_report(measure, rows, oracle, depth):
    """(r, [(score, included, reason)]) that ``evaluate`` must give from the
    oracle's scores, floats as hex, or the error it must raise."""
    if measure == "lch" and depth < 1:
        return SimilarityError, "taxonomy depth is 0; path-normalized similarity is undefined"
    humans = [h for (_, _, h), o in zip(rows, oracle) if o is not None]
    scores = [o[measure][0] for o in oracle if o is not None]
    if len(scores) < 2:
        return EvaluationError, f"benchmark 'random' has {len(scores)} usable rows; need >= 2"
    items = [(None, False, "word not in taxonomy: ghost") if o is None
             else (o[measure][0].hex(), True, None) for o in oracle]
    return _outcome(lambda: (pearson(humans, scores).hex(), items))


def test_evaluate_matches_the_oracles_on_random_dags():
    """evaluate, row by row, against the brute-force oracles on random DAGs
    with diamonds and polysemy, for every measure, and word_similarity's
    witness and sense pair against the oracles'."""
    ties = rows_scored = 0
    for k, (concepts, edges, senses, counts) in enumerate(
            helpers.random_instances(count=_budget(helpers.N_RANDOM_INSTANCES))):
        t = Taxonomy.build(edges, senses, concepts=concepts)
        model = build_model(t, FrequencyTable.from_counts(counts))
        order = t.concepts()
        rng = random.Random(k)
        words = sorted(senses) * 4 + ["ghost"]
        rows = tuple((rng.choice(words), rng.choice(words), float(rng.randint(0, 9)))
                     for _ in range(rng.randint(1, 8)))
        bench = Benchmark("random", rows)
        oracle = [None if "ghost" in (w1, w2) else
                  _oracle_scores(order, edges, senses, model, w1, w2) for w1, w2, _ in rows]
        for measure in WORD_MEASURES:
            got = _outcome(lambda: evaluate(measure, bench, t, model))
            if isinstance(got, tuple):  # an error
                assert got == _oracle_report(measure, rows, oracle, t.max_depth)
                continue
            assert (got.r.hex(), [(_hex(it.score), it.included, it.reason)
                                  for it in got.items]) == _oracle_report(
                measure, rows, oracle, t.max_depth)
            assert got.excluded == tuple((w1, w2, "word not in taxonomy: ghost")
                                         for (w1, w2, _), o in zip(rows, oracle) if o is None)
        for (w1, w2, _), scores in zip(rows, oracle):
            for measure, (value, witness, pair) in (scores or {}).items():
                score = word_similarity(measure, t, w1, w2, model)
                assert (score.value.hex(), score.witness, score.sense_pair) == (
                    value.hex(), witness, pair)
            if scores:
                rows_scored += 1
                best = scores["resnik"][0]
                ties += sum(model.ic(c) == best for a in senses[w1] for b in senses[w2]
                            for c in t.common_subsumers(a, b)) > 1
    # the tie-breaks must be exercised, not only unique maxima
    assert ties > rows_scored // 10


def _evaluated_items():
    """An included and an excluded item of a real ``evaluate`` report,
    which ``evaluate`` builds in one constructor pass over its columns."""
    t = Taxonomy.build(helpers.TOY_EDGES, helpers.TOY_SENSES)
    model = build_model(t, FrequencyTable.from_counts(helpers.TOY_COUNTS))
    bench = Benchmark("toy", (("x", "y", 3.5), ("x", "ghost", 1.0), ("x", "z", 0.5)))
    items = evaluate("resnik", bench, t, model).items
    return items[0], items[1]


@pytest.mark.parametrize("record", [
    SimScore(0.5, "coin", ("nickel", "dime")),
    SimScore(1.0),
    EvalItem("x", "y", 3.5, 0.25, True, None),
    EvalItem("x", "ghost", 1.0, None, False, "word not in taxonomy: 'ghost'"),
    *_evaluated_items(),
], ids=["simscore", "simscore-bare", "evalitem", "evalitem-excluded",
        "evalitem-from-evaluate", "evalitem-excluded-from-evaluate"])
class TestSlottedRecords:
    """The per-pair and per-row records have no ``__dict__``, and stay
    frozen, picklable and copyable: ``SimScore`` a slotted frozen
    dataclass, ``EvalItem`` a named tuple."""

    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")

    def test_pickle_round_trip(self, record):
        assert pickle.loads(pickle.dumps(record)) == record

    def test_deepcopy_round_trip(self, record):
        copied = copy.deepcopy(record)
        assert copied == record and copied is not record

    def test_assignment_raises(self, record):
        error = AttributeError if isinstance(record, EvalItem) else dataclasses.FrozenInstanceError
        with pytest.raises(error):
            setattr(record, _field_names(record)[0], 0)

    def test_equals_its_init_built_twin(self, record):
        twin = type(record)(*(getattr(record, name) for name in _field_names(record)))
        assert twin == record and hash(twin) == hash(record)


def _field_names(record):
    """The field names of a named tuple or a dataclass, in order."""
    if isinstance(record, EvalItem):
        return record._fields
    return [f.name for f in dataclasses.fields(record)]


def test_report_repr_hash_and_pickle_are_pinned(toy_taxonomy, toy_model):
    # a report with an excluded row keeps its repr, each item hashes as
    # the tuple of its fields, and the whole report survives a pickle
    # round trip
    bench = Benchmark("toy", (("x", "y", 3.5), ("x", "ghost", 1.0), ("x", "z", 0.5)))
    report = evaluate("resnik", bench, toy_taxonomy, toy_model)
    assert repr(report) == (
        "EvalReport(measure='resnik', r=0.9999999999999998, n_included=2, "
        "excluded=(('x', 'ghost', 'word not in taxonomy: ghost'),), items=("
        "EvalItem(word1='x', word2='y', human=3.5, score=0.4150374992788438, "
        "included=True, reason=None), "
        "EvalItem(word1='x', word2='ghost', human=1.0, score=None, included=False, "
        "reason='word not in taxonomy: ghost'), "
        "EvalItem(word1='x', word2='z', human=0.5, score=0.0, included=True, "
        "reason=None)))")
    for item in report.items:
        assert hash(item) == hash((item.word1, item.word2, item.human, item.score,
                                   item.included, item.reason))
    assert pickle.loads(pickle.dumps(report)) == report


def test_family_slots_match_deep_copies_and_the_oracles():
    # evaluate keeps the last sweep of each measure family (resnik and
    # prob on the model, edge and lch on the taxonomy) and the last lookup
    # of a tuple of rows on the taxonomy; random interleavings of calls
    # over one rows tuple reused across measures, the same rows in another
    # tuple or a list, overlapping rows, rows edited in place, two models
    # on one taxonomy, two taxonomies and varied lch arguments must each
    # give the report of the same call on deep copies, which carry no
    # slot, and the oracles' scores, bit for bit.  The calls on copies run
    # after the interleaving, so that they leave its slots be.
    calls = hits = row_hits = row_misses = 0
    for k, (concepts, edges, senses, counts) in enumerate(
            helpers.random_instances(seed=77, count=_budget(40))):
        rng = random.Random(k)
        t = Taxonomy.build(edges, senses, concepts=concepts)
        t2 = Taxonomy.build(edges, senses, concepts=concepts)
        setups = [(t, build_model(t, FrequencyTable.from_counts(counts))),
                  (t, build_model(t, FrequencyTable.from_counts({"w0": 1}))),
                  (t2, build_model(t2, FrequencyTable.from_counts(counts)))]
        words = sorted(senses) * 3 + ["ghost"]

        def row():
            return rng.choice(words), rng.choice(words), float(rng.randint(0, 9))

        rows, done = [row() for _ in range(rng.randint(2, 8))], []
        shared = tuple(rows)
        for _ in range(12):
            action = rng.random()
            if action < 0.15:  # a row edited in place
                rows[rng.randrange(len(rows))] = row()
            elif action < 0.25:  # overlapping rows
                cut = rng.randrange(len(rows))
                rows = rows[cut:] + [row() for _ in range(rng.randint(0, 2))] + rows[:cut]
            if action < 0.25 and rng.random() < 0.5:
                shared = tuple(rows)
            given = rng.random()
            bench = Benchmark("random", rows if given < 0.3 else tuple(rows) if given < 0.5
                              else shared)
            setup, measure = rng.randrange(len(setups)), rng.choice(WORD_MEASURES)
            kwargs = {"log_base": rng.choice([2.0, 10.0, Fraction(3, 2)]),
                      "lch_floor": rng.choice([1.0, 0.5, Fraction(1, 3)])}
            ti, mi = setups[setup]
            owner, name = ((mi, "_kept_corpus_sweep") if measure in ("resnik", "prob")
                           else (ti, "_kept_path_sweep"))
            slot, rows_slot = vars(owner).get(name), vars(ti).get("_kept_rows")
            got = _outcome(lambda: evaluate(measure, bench, ti, mi, **kwargs))
            hits += slot is vars(owner).get(name) and isinstance(got, EvalReport)
            if vars(ti).get("_kept_rows") is not rows_slot:
                row_misses += 1
                assert vars(ti)["_kept_rows"][0] is bench.rows
            else:
                row_hits += rows_slot is not None and rows_slot[0] is bench.rows
            done.append((measure, copy.deepcopy(bench), setup, kwargs, got))
        for measure, bench, setup, kwargs, got in done:
            ti, mi = copy.deepcopy(setups[setup])
            want = _outcome(lambda: evaluate(measure, bench, ti, mi, **kwargs))
            if isinstance(want, tuple):
                assert got == want
                continue
            assert _bits(got) == _bits(want)
            oracle = [None if "ghost" in (w1, w2) else
                      _oracle_scores(ti.concepts(), edges, senses, mi, w1, w2)
                      for w1, w2, _ in bench.rows]
            if measure == "lch":
                oracle = [o and {"lch": (helpers.oracle_lch_words(
                    ti.concepts(), edges, senses, w1, w2, kwargs["log_base"],
                    kwargs["lch_floor"]), None, None)}
                          for (w1, w2, _), o in zip(bench.rows, oracle)]
            assert (got.r.hex(), [(_hex(it.score), it.included, it.reason) for it in got.items]
                    ) == _oracle_report(measure, bench.rows, oracle, ti.max_depth)
            calls += 1
    # the slots both hit and miss
    assert calls > _budget(40) * 6 and calls // 10 < hits < calls // 2
    assert calls // 10 < row_hits < calls and calls // 10 < row_misses < calls
