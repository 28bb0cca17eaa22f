"""Fuzzing the command line: whatever bytes an input file holds, ``main``
returns a documented exit code and no exception escapes.  Fuzzing the
corpus and evaluation API: whatever values a caller passes, each call
returns the correct value or raises ``TaxsimError`` or ``ValueError``."""

import contextlib
import io
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import TOY_EDGES, TOY_SENSES, write_toy_files
from taxsim import (
    Benchmark,
    EvaluationError,
    FrequencyTable,
    ModelError,
    ProbabilityModel,
    TaxsimError,
    WORD_MEASURES,
    build_model,
    evaluate,
    pearson,
    word_similarity,
)
from taxsim.cli import main

# Pieces of the four input formats, so that many generated files get past
# their first line and reach the graph, model and scoring code.
FRAGMENTS = [
    b"A", b"A1", b"B", b"root", b"*root*", b"x", b"y", b"X ", b"z",
    b"\t", b"\n", b"\r\n", b"\r", b" ", b"#", b",", b'"', b"-", b"0", b"7",
    b"1e308", b"-1.7e308", b"nan", b"word1,word2,rating\n",
    b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\x00",
]
CONTENTS = st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from(FRAGMENTS), max_size=40).map(b"".join),
)

# the subcommands that read each kind of input file
READERS = {
    "taxonomy": ("validate", "sim", "stats", "eval"),
    "lexicon": ("validate", "sim", "stats", "eval"),
    "counts": ("sim", "stats", "eval"),
    "benchmark": ("eval",),
}


@pytest.fixture(scope="module")
def toy_paths(tmp_path_factory):
    return write_toy_files(tmp_path_factory.mktemp("fuzz"))


def _argv(command, paths):
    argv = ["--taxonomy", str(paths["taxonomy"]), "--lexicon", str(paths["lexicon"])]
    if command == "validate":
        return ["validate"] + argv
    argv += ["--counts", str(paths["counts"])]
    if command == "sim":
        return ["sim", "x", "y"] + argv
    if command == "stats":
        return ["stats"] + argv
    return ["eval", "--benchmark", str(paths["benchmark"])] + argv


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(content=CONTENTS)
@example(content=b"caf\xe9\tA\n")  # not UTF-8
@example(content=b"x\t" + b"9" * 4301 + b"\n")  # beyond int()'s digit limit
@example(content=b"word1,word2,rating\n" + b"x" * 131073 + b",y,1\n")  # csv limit
@example(content=b"x\t" + b"9" * 4300 + b"\ny\t" + b"9" * 4300 + b"\n")  # total too long
@example(content=b"x\t1\ny\t1" + b"0" * 400 + b"\n")  # p of x underflows to 0.0
@example(content=b"word1,word2,rating\nx,y,1e308\nx,z,1e308\ny,z,0\n")  # fsum overflow
def test_any_bytes_give_a_documented_exit_code(toy_paths, kind, content):
    fuzzed = toy_paths[kind].with_name("fuzzed-" + toy_paths[kind].name)
    fuzzed.write_bytes(content)
    paths = {**toy_paths, kind: fuzzed}
    for command in READERS[kind]:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(_argv(command, paths))
        assert code in {0, 1, 2, 3, 4}, (command, code)


class _Huge(int):
    """An int beyond float range and beyond int's limit on decimal digits,
    with a repr that a failing example can still print."""

    def __repr__(self):
        return "10**4400"


# Values the corpus and evaluation checks must either turn away or take
# correctly: non-finite, bool, float, str, None, negative, complex, huge.
HOSTILE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "2", "",
                     -5, 0, 1j, 2.5, _Huge(10**4400)]),
    st.integers(-3, 10**6),
    st.floats(min_value=-1e6, max_value=1e6),
)
# toy lexicon words as given and unnormalized, and an unlisted word
TOY_WORDS = st.sampled_from(["x", "y", "z", " X", "Z ", "unlisted"])
WORDS = st.one_of(TOY_WORDS, HOSTILE)  # hostile words are hashable non-str
NOT_A_TABLE = [None, [5, 2], {"x": 2}, "x"]
# about half of the tables and rows are valid, so that the value checks run
COUNTS = st.one_of(st.dictionaries(TOY_WORDS, st.integers(0, 9), max_size=4),
                   st.dictionaries(WORDS, st.one_of(st.integers(0, 9), HOSTILE),
                                   max_size=4))
FINITE = st.one_of(st.integers(-9, 9), st.floats(-4.0, 4.0))
ROW = st.one_of(st.tuples(TOY_WORDS, TOY_WORDS, FINITE), st.tuples(WORDS, WORDS, HOSTILE))
PAIR = st.one_of(st.tuples(FINITE, FINITE), st.tuples(HOSTILE, HOSTILE))


def _checked(counts) -> bool:
    """Whether a FrequencyTable takes ``counts``, by the documented rule."""
    return (all(isinstance(w, str) for w in counts)
            and all(isinstance(c, int) and not isinstance(c, bool) and c >= 0
                    for c in counts.values())
            and sum(counts.values()) < 10**4300)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(counts=COUNTS,
       log_base=st.one_of(st.sampled_from([2.0, math.e, 10]), HOSTILE),
       other=st.sampled_from(NOT_A_TABLE))
@example(counts={"x": 10**4400}, log_base=2.0, other=None)
@example(counts={"x": -5}, log_base=2.0, other=None)
@example(counts={"x": 2.5}, log_base=2.0, other=None)
@example(counts={"x": True}, log_base=2.0, other=None)
@example(counts={5: 1}, log_base=2.0, other=None)
@example(counts={"x": 2, "y": 1}, log_base=2.0, other=[5, 2])  # a raw freq list
@example(counts={"x": 2, "y": 1}, log_base="2", other=None)
def test_corpus_surface(toy_taxonomy, counts, log_base, other):
    if not _checked(counts):
        for build in (FrequencyTable, FrequencyTable.from_counts):
            with pytest.raises(ModelError):
                build(counts)
        return
    table = FrequencyTable(counts)
    assert table.counts is counts and table.total_raw == sum(counts.values())
    merged = {}
    for word, count in counts.items():
        key = word.strip().lower()
        merged[key] = merged.get(key, 0) + count
    folded = FrequencyTable.from_counts(counts)
    assert folded.counts == merged and folded.total_raw == table.total_raw
    if not (isinstance(log_base, (int, float)) and 1 < log_base < 1e308):
        for build in (ProbabilityModel, build_model):
            with pytest.raises(ValueError, match="^log_base must be finite and > 1, got "):
                build(toy_taxonomy, folded, log_base)
        return
    for build in (ProbabilityModel, build_model):
        with pytest.raises(ModelError, match="not a FrequencyTable"):
            build(toy_taxonomy, other, log_base)
    expected = helpers.oracle_freq(toy_taxonomy.concepts(), TOY_EDGES, TOY_SENSES, merged)
    if expected["root"] == 0:
        with pytest.raises(ModelError, match="N = 0"):
            build_model(toy_taxonomy, folded, log_base)
        return
    model = build_model(toy_taxonomy, folded, log_base)
    assert repr(model).startswith(f"ProbabilityModel(N={expected['root']}, ")
    for c, f in expected.items():
        assert model.freq(c) == f and model.p(c) == f / expected["root"]
        assert model.ic(c) == pytest.approx(helpers.oracle_ic(f, expected["root"], log_base))
        i = toy_taxonomy.index_of(c)
        assert model.one_minus_p_by_index[i] == 1.0 - model.p(c)
        assert model.ic_by_index[i] == model.ic(c)


def _exact_r(xs, ys):
    """Pearson's r in rational arithmetic, or None if it is undefined."""
    fx, fy = list(map(Fraction, xs)), list(map(Fraction, ys))
    mx, my = sum(fx) / len(fx), sum(fy) / len(fy)
    sxx = sum((x - mx) ** 2 for x in fx)
    syy = sum((y - my) ** 2 for y in fy)
    sxy = sum((x - mx) * (y - my) for x, y in zip(fx, fy))
    if sxx == 0 or syy == 0:
        return None
    return math.copysign(math.sqrt(sxy * sxy / (sxx * syy)), sxy)


def _usable(v) -> bool:
    return isinstance(v, (int, float)) and -1e308 < v < 1e308


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(pairs=st.lists(PAIR, max_size=5))
@example(pairs=[(1.0, "3"), (2.0, 1.0), (3.0, 2.0)])  # a str rating
@example(pairs=[(1.0, None), (2.0, 1.0), (3.0, 2.0)])
@example(pairs=[(1.0, 1j), (2.0, 1.0), (3.0, 2.0)])
@example(pairs=[(1.0, 10**4400), (2.0, 1.0), (3.0, 2.0)])
def test_pearson_surface(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    expected = (_exact_r(xs, ys) if len(pairs) >= 2 and all(map(_usable, xs + ys))
                else None)
    if expected is None:
        with pytest.raises(EvaluationError):
            pearson(xs, ys)
    else:
        assert pearson(xs, ys) == pytest.approx(expected, rel=1e-9, abs=1e-9)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(rows=st.lists(ROW, max_size=5),
       measure=st.sampled_from(WORD_MEASURES))
@example(rows=[("x", "y", 1.0), ("x", "z", 2.0), (5, "x", 3.0)], measure="edge")
@example(rows=[("x", "y", 1.0), ("x", "z", "2")], measure="resnik")  # a str rating
def test_evaluate_surface(toy_taxonomy, toy_model, rows, measure):
    known = toy_taxonomy.sense_indices
    included = [(w1, w2, h) for w1, w2, h in rows if known(w1) and known(w2)]
    humans = [h for _, _, h in included]
    scores = [word_similarity(measure, toy_taxonomy, w1, w2, toy_model).value
              for w1, w2, _ in included]
    benchmark = Benchmark("fuzz", tuple(rows))
    if len(included) < 2:
        with pytest.raises(EvaluationError, match="usable rows"):
            evaluate(measure, benchmark, toy_taxonomy, toy_model)
        return
    try:
        r = pearson(humans, scores)  # checked against the exact r above
    except EvaluationError as exc:
        with pytest.raises(EvaluationError, match=re.escape(str(exc))):
            evaluate(measure, benchmark, toy_taxonomy, toy_model)
        return
    report = evaluate(measure, benchmark, toy_taxonomy, toy_model)
    assert report.r == r and report.n_included == len(included)
    assert [(w1, w2) for w1, w2, _ in report.excluded] == [
        (w1, w2) for w1, w2, _ in rows if not (known(w1) and known(w2))]
    for w1, w2, reason in report.excluded:
        absent = sorted({str(w) for w in (w1, w2) if not known(w)})
        assert reason == "word not in taxonomy: " + ", ".join(absent)
