"""Fuzzing the command line: whatever bytes an input file holds, ``main``
returns a documented exit code and no exception escapes.  Fuzzing the
library API (taxonomy construction and lookups, the corpus types, the
similarity measures, weights and evaluation): whatever values a caller
passes inside its arguments, each call returns the correct value or
raises ``TaxsimError`` or ``ValueError``.

Each test's budget is its number of examples under Hypothesis's default
of 100 per test; a profile with a larger ``max_examples``, such as the
``fuzz`` profile of ``conftest.py`` (``--hypothesis-profile=fuzz``),
scales every budget by the same factor."""

import contextlib
import enum
import io
import math
import random
import re
import sys
import unicodedata
from decimal import Decimal
from fractions import Fraction
from numbers import Real

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import TOY_COUNTS, TOY_EDGES, TOY_SENSES, _budget, write_toy_files
from taxsim import (
    SYNTHETIC_ROOT,
    Benchmark,
    EvaluationError,
    FrequencyTable,
    ModelError,
    ProbabilityModel,
    Taxonomy,
    TaxonomyError,
    UnknownConceptError,
    UnknownWordError,
    WORD_MEASURES,
    build_model,
    evaluate,
    finite_common_subsumers,
    pearson,
    sim_edge,
    sim_lch,
    sim_prob,
    sim_resnik_concepts,
    sim_resnik_words,
    sim_weighted,
    uniform_weights,
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
    "caf\u00e9".encode(), "cafe\u0301".encode(),  # one word, composed and decomposed
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
@settings(max_examples=_budget(60), derandomize=True, database=None, deadline=None)
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


# An int too long for repr: an error message that shows it must not itself
# raise.  Hypothesis writes out each strategy, so the pools draw it from one
# that computes it.
BIG = 10**5000
BIG_INT = st.builds(pow, st.just(10), st.just(5000))

# Values the corpus and evaluation checks must either turn away or take
# correctly: non-finite, bool, float, str, None, negative, complex, huge.
HOSTILE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "2", "",
                     -5, 0, 1j, 2.5, _Huge(10**4400)]),
    BIG_INT,
    st.integers(-3, 10**6),
    st.floats(min_value=-1e6, max_value=1e6),
)
# an int subclass other than bool, for an index
_Index = enum.IntEnum("_Index", {"TWO": 2, "NINE": 9})
# one word with a composed and with a decomposed accent, each also
# capitalized: all four are one word
CAFE = ["caf\u00e9", "cafe\u0301", "CAF\u00c9", "CAFE\u0301"]
# toy lexicon words as given and unnormalized, an unlisted word, a
# plural of a toy word, and the spellings of an unlisted non-ASCII word
TOY_WORDS = st.sampled_from(["x", "y", "z", " X", "Z ", "unlisted", "Xs"] + CAFE)
WORDS = st.one_of(TOY_WORDS, HOSTILE)  # hostile words are hashable non-str
NOT_A_TABLE = [None, [5, 2], {"x": 2}, "x"]
NOT_COUNTS = [None, 5, "ab", [("x", 1)]]  # no mapping of words to counts
# about half of the tables and rows are valid, so that the value checks run
COUNTS = st.one_of(st.dictionaries(TOY_WORDS, st.integers(0, 9), max_size=4),
                   st.dictionaries(WORDS, st.one_of(st.integers(0, 9), HOSTILE),
                                   max_size=4))
FINITE = st.one_of(st.integers(-9, 9), st.floats(-4.0, 4.0))
# words that take the batch lookup's slower roads: a spelling that misses
# as given but normalizes to a stored word (surrounding whitespace, a
# decomposed accent), and an unhashable word, which sends its whole column
# through the word-by-word lookup
LOOKUP_WORD = st.one_of(TOY_WORDS, st.sampled_from([" x ", "\tY", ["x"]]))
# rows of other shapes, which evaluate rejects naming the first one
BAD_ROW = st.one_of(st.tuples(TOY_WORDS, TOY_WORDS),
                    st.tuples(TOY_WORDS, TOY_WORDS, FINITE, FINITE),
                    st.sampled_from([None, 7, ()]))
ROW = st.one_of(st.tuples(TOY_WORDS, TOY_WORDS, FINITE), st.tuples(WORDS, WORDS, HOSTILE),
                st.tuples(LOOKUP_WORD, LOOKUP_WORD, FINITE), BAD_ROW)
PAIR = st.one_of(st.tuples(FINITE, FINITE), st.tuples(HOSTILE, HOSTILE))


def _norm(word: str) -> str:
    """The documented normal form of a word: stripped, lowercased, NFC."""
    return unicodedata.normalize("NFC", word.strip().lower())


def _named(v) -> str:
    """How a message names ``v`` by ``str``: an int beyond float range by
    its number of decimal digits."""
    if isinstance(v, int) and abs(v) > sys.float_info.max:
        return f"an int of {Decimal(abs(v)).adjusted() + 1} digits"
    return str(v)


def _checked(counts) -> bool:
    """Whether a FrequencyTable takes ``counts``, by the documented rule."""
    return (all(isinstance(w, str) for w in counts)
            and all(isinstance(c, int) and not isinstance(c, bool) and c >= 0
                    for c in counts.values())
            and sum(counts.values()) < 10**4300)


@settings(max_examples=_budget(150), derandomize=True, database=None, deadline=None)
@given(counts=st.one_of(COUNTS, st.sampled_from(NOT_COUNTS)),
       log_base=st.one_of(st.sampled_from([2.0, math.e, 10]), HOSTILE),
       other=st.sampled_from(NOT_A_TABLE),
       stems=st.sampled_from([None, frozenset({"x", "og"}), "dog", "x", b"dog", 5]))
@example(counts={"x": 10**4400}, log_base=2.0, other=None, stems=None)
@example(counts={"x": -5}, log_base=2.0, other=None, stems=None)
@example(counts={"x": 2.5}, log_base=2.0, other=None, stems=None)
@example(counts={"x": True}, log_base=2.0, other=None, stems=None)
@example(counts={5: 1}, log_base=2.0, other=None, stems=None)
@example(counts={"x": 2, "y": 1}, log_base=2.0, other=[5, 2], stems=None)  # a raw freq list
@example(counts={"x": 2, "y": 1}, log_base="2", other=None, stems=None)
@example(counts={"x": 1, "y": 3}, log_base=2.0, other=None, stems=None)  # then y: 2.5
@example(counts={"ogs": 2, "xs": 1}, log_base=2.0, other=None, stems="dog")
@example(counts={"ogs": 2, "xs": 1}, log_base=2.0, other=None, stems=b"dog")
@example(counts={"x": 1}, log_base=2.0, other=None, stems=5)  # no word ends in "s"
@example(counts=None, log_base=2.0, other=None, stems=None)
@example(counts=5, log_base=2.0, other=None, stems=None)
@example(counts="ab", log_base=2.0, other=None, stems=None)
@example(counts=[("x", 1)], log_base=2.0, other=None, stems=None)  # pairs, not a mapping
def test_corpus_surface(toy_taxonomy, counts, log_base, other, stems):
    if not isinstance(counts, dict):
        for build in (FrequencyTable, FrequencyTable.from_counts):
            with pytest.raises(ModelError, match=(
                    f"^counts is a {type(counts).__name__}, not a mapping of words to counts$")):
                build(counts)
        return
    if not _checked(counts):
        for build in (FrequencyTable, FrequencyTable.from_counts):
            with pytest.raises(ModelError):
                build(counts)
        return
    if isinstance(stems, (str, bytes, int)):  # a str's substrings are not the stems meant
        kind = "string" if isinstance(stems, str) else type(stems).__name__
        with pytest.raises(ModelError, match=f"^plural_stems is a {kind}, not a collection"):
            FrequencyTable.from_counts(counts, plural_stems=stems)
        stems = None
    source = dict(counts)
    table = FrequencyTable(source)
    folded = FrequencyTable.from_counts(source, plural_stems=stems)
    source["y"] = 2.5  # after the check: reaches neither table, nor a model below
    assert table.counts == counts and table.total_raw == sum(counts.values())
    with pytest.raises(TypeError):
        table.counts["y"] = 2.5
    merged = {}
    for word, count in counts.items():
        key = _norm(word)
        if stems is not None and key.endswith("s") and key[:-1] in stems:
            key = key[:-1]
        merged[key] = merged.get(key, 0) + count
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


@settings(max_examples=_budget(150), derandomize=True, database=None, deadline=None)
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


@settings(max_examples=_budget(150), derandomize=True, database=None, deadline=None)
@given(rows=st.lists(ROW, max_size=5),
       measure=st.sampled_from(WORD_MEASURES))
@example(rows=[("x", "y", 1.0), ("x", "z", 2.0), (5, "x", 3.0)], measure="edge")
@example(rows=[("x", "y", 1.0), ("x", "z", "2")], measure="resnik")  # a str rating
@example(rows=[("x", "y", 1.0), ("x", "z", 2.0), (BIG, "x", 3.0)], measure="edge")
@example(rows=[(" X", CAFE[1], 1.0), (["x"], "y", 2.0), ("\tY", "Z ", 3.0), (CAFE[2], "x", 4.0)],
         measure="resnik")  # every spelling a fallback, one word unhashable
@example(rows=[("x", "y", 1.0), ("x", "z"), None], measure="prob")  # the first bad row named
def test_evaluate_surface(cafe_taxonomy, cafe_model, rows, measure):
    t, m = cafe_taxonomy, cafe_model
    bad = next(((k, row) for k, row in enumerate(rows)
                if not isinstance(row, tuple) or len(row) != 3), None)
    if bad is not None:
        k, row = bad
        shape = (f"has {len(row)} fields" if isinstance(row, tuple)
                 else f"is a {type(row).__name__}")
        with pytest.raises(EvaluationError, match=re.escape(
                f"benchmark 'fuzz' row {k} {shape}, not 3 (word1, word2, rating)")):
            evaluate(measure, Benchmark("fuzz", tuple(rows)), t, m)
        return
    known = t.sense_indices
    included = [(w1, w2, h) for w1, w2, h in rows if known(w1) and known(w2)]
    humans = [h for _, _, h in included]
    scores = [word_similarity(measure, t, w1, w2, m).value for w1, w2, _ in included]
    benchmark = Benchmark("fuzz", tuple(rows))
    if len(included) < 2:
        with pytest.raises(EvaluationError, match="usable rows"):
            evaluate(measure, benchmark, t, m)
        return
    try:
        r = pearson(humans, scores)  # checked against the exact r above
    except EvaluationError as exc:
        with pytest.raises(EvaluationError, match=re.escape(str(exc))):
            evaluate(measure, benchmark, t, m)
        return
    report = evaluate(measure, benchmark, t, m)
    assert report.r == r and report.n_included == len(included)
    assert [it.score for it in report.items if it.included] == scores
    assert [(w1, w2) for w1, w2, _ in report.excluded] == [
        (w1, w2) for w1, w2, _ in rows if not (known(w1) and known(w2))]
    for w1, w2, reason in report.excluded:
        absent = sorted({_named(w) for w in (w1, w2) if not known(w)})
        assert reason == "word not in taxonomy: " + ", ".join(absent)


# Values inside the arguments of Taxonomy.build: valid ids (an edge from
# IDS[i] to IDS[j] with j < i closes no cycle) and values no id may be.
IDS = ["r", "a", "b", "c"]
BAD_IDS = [math.nan, math.inf, -math.inf, True, None, 5, 10**400, "", "a\tb",
           ("a",), ["a"], {"a"}]
ID = st.one_of(st.sampled_from(IDS + [SYNTHETIC_ROOT]), st.sampled_from(BAD_IDS), BIG_INT)
GOOD_EDGE = st.tuples(st.integers(1, 3), st.integers(0, 2)).map(
    lambda ij: (IDS[ij[0]], IDS[min(ij[1], ij[0] - 1)]))
EDGE = st.one_of(
    GOOD_EDGE,
    st.tuples(ID, ID),  # may close a cycle
    st.sampled_from([None, 5, "ar", ("a",), ("a", "r", "b"), ["a", "r"]]),
)
SENSE_SET = st.one_of(st.lists(ID, max_size=3),
                      st.sampled_from([None, 5, "a", "ab", math.nan, set(), {"a": 1}]))
# about half of the arguments hold only valid values, so that builds succeed
EDGES = st.one_of(st.lists(GOOD_EDGE, min_size=1, max_size=5), st.lists(EDGE, max_size=5))
LEXICON = st.one_of(
    st.dictionaries(st.sampled_from(["w", " W", "v"] + CAFE),
                    st.lists(st.sampled_from(IDS), min_size=1, max_size=2), max_size=2),
    st.dictionaries(st.one_of(st.sampled_from(["w", " W", "v", "", " "] + CAFE[:2]),
                              st.sampled_from(BAD_IDS[:7]), BIG_INT), SENSE_SET, max_size=3))
CONCEPTS = st.one_of(st.lists(st.sampled_from(IDS), max_size=2), st.lists(ID, max_size=3),
                     st.sampled_from(["ab", ""]))


def _valid_id(v) -> bool:
    return isinstance(v, str) and v != "" and "\t" not in v


def _expected_build(edges, senses, concepts):
    """The parents of each concept and the sense set of each word that
    ``Taxonomy.build(edges, senses, concepts)`` gives by the documented
    rules, or None if it raises TaxonomyError."""
    if not isinstance(senses, dict):  # a list of pairs, a str
        return None
    if isinstance(concepts, str) or not all(
            isinstance(e, (tuple, list)) and len(e) == 2 and all(map(_valid_id, e))
            for e in edges) or not all(map(_valid_id, concepts)):
        return None
    ends = {c for e in edges for c in e}
    extra = [c for c in concepts if c not in ends]
    ids = ends | set(extra)
    if not ids or len(set(extra)) < len(extra):  # empty, or an id declared twice
        return None
    anc = helpers.oracle_ancestors(sorted(ids), [tuple(e) for e in edges])
    if any(child in anc[parent] for child, parent in edges):  # a cycle
        return None
    parents = {c: {p for child, p in edges if child == c} for c in ids}
    parentless = [c for c, ps in parents.items() if not ps]
    if len(parentless) > 1:
        if SYNTHETIC_ROOT in ids:
            return None
        parents.update(dict.fromkeys(parentless, {SYNTHETIC_ROOT}), **{SYNTHETIC_ROOT: set()})
    lexicon = {}
    for word, cids in senses.items():
        if not (isinstance(word, str) and word.strip() and isinstance(cids, (list, set, dict))
                and cids and all(isinstance(c, str) and c in ids for c in cids)):
            return None
        lexicon.setdefault(_norm(word), set()).update(cids)
    return parents, lexicon


@settings(max_examples=_budget(200), derandomize=True, database=None, deadline=None)
@given(edges=EDGES, senses=LEXICON, concepts=CONCEPTS)
@example(edges=[(["a"], "r")], senses={}, concepts=[])  # an unhashable id
@example(edges=[("a", "r"), ("b", "r")], senses={"w": "ab"}, concepts=[])
@example(edges=["ab"], senses={}, concepts=[])
@example(edges=[("a", "r")], senses={}, concepts="xy")
@example(edges=[("a", "r")], senses={"w": ["a\tb"]}, concepts=[""])
@example(edges=[(BIG, "r")], senses={}, concepts=[])
@example(edges=[(["a"], BIG)], senses={}, concepts=[])
@example(edges=[("a", "r")], senses={}, concepts=[BIG])
@example(edges=[("a", "r")], senses={"w": [BIG]}, concepts=[])
@example(edges=[("a", "r")], senses={BIG: ["a"]}, concepts=[])
@example(edges=[("a", "r"), ("b", "r"), ("c", "a")], senses={}, concepts=[])
@example(edges=[("a", "r"), ("b", "r")], senses=dict(zip(CAFE[:2], (["a"], ["b"]))),
         concepts=[])
@example(edges=[("a", "r")], senses=[("w", ["a"])], concepts=[])  # pairs, not a mapping
@example(edges=[("a", "r")], senses="wa", concepts=[])
@example(edges=[("a", "r")], senses=[], concepts=[])
def test_build_surface(edges, senses, concepts):
    expected = _expected_build(edges, senses, concepts)
    if expected is None:
        with pytest.raises(TaxonomyError):
            Taxonomy.build(edges, senses, concepts)
        return
    t = Taxonomy.build(edges, senses, concepts)
    parents, lexicon = expected
    assert {c: t.parents_of(c) for c in t.concepts()} == parents
    assert {w: t.senses_of(w) for w in t.words()} == lexicon
    for word in senses:  # each spelling as given
        assert t.senses_of(word) == lexicon[_norm(word)]
    ids = t.concepts()  # the index level
    edge_list = [(c, p) for c, ps in parents.items() for p in ps]
    anc = helpers.oracle_ancestors(ids, edge_list)
    for i in (True, _Index.TWO):  # asked first, so the memo is given these
        if i < t.concept_count:
            assert {ids[a] for a in t.ancestor_indices(i)} == anc[ids[i]]
            assert t.nearest_path_len([i], (0, i)) == 0
            assert t.nearest_path_len((i,), [0]) == helpers.oracle_path_len(
                ids, edge_list, ids[i], ids[0])
        else:
            with pytest.raises(UnknownConceptError):
                t.ancestor_indices(i)
            with pytest.raises(UnknownConceptError):
                t.nearest_path_len((0,), (0, i))
    for c in ids:
        i = t.index_of(c)
        assert ids[i] == c
        assert {ids[a] for a in t.ancestor_indices(i)} == anc[c] == t.subsumers(c)
        assert all(type(a) is int for a in t.ancestor_indices(i))
    for i in (-1, t.concept_count, 10**400, 1.0, None):
        with pytest.raises(UnknownConceptError if isinstance(i, int) else TypeError):
            t.ancestor_indices(i)
        for args in ((i, 0), (0, i)):
            with pytest.raises(UnknownConceptError if isinstance(i, int) else TypeError):
                t.path_len(*args)
        for args in (((i,), (0,)), ((0,), [0, i]), ([i, 0], ())):
            with pytest.raises(UnknownConceptError if isinstance(i, int) else TypeError):
                t.nearest_path_len(*args)
    for args in (((), (0,)), ([0], []), ((), ())):
        with pytest.raises(ValueError, match="^a sense sequence is empty$"):
            t.nearest_path_len(*args)
    assert t.nearest_path_len(range(t.concept_count), (t.concept_count - 1,), 0) == 0
    for c1 in ids:
        for c2 in ids:
            i, j = t.index_of(c1), t.index_of(c2)
            d = helpers.oracle_path_len(ids, edge_list, c1, c2)
            for limit in (None, -1, 0, False, True, d - 1, d, 10**400):
                expected = None if limit is not None and d > limit else d
                assert t.path_len(i, j, limit) == expected
                assert t.nearest_path_len((i, i), [j], limit) == expected
            for limit in (0.5, 1.0, math.nan, "1", Fraction(1), Decimal(1)):
                with pytest.raises(TypeError):
                    t.path_len(i, j, limit)
                with pytest.raises(TypeError):
                    t.nearest_path_len((i,), (j,), limit)


@settings(max_examples=_budget(20), derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_path_len_on_sparse_dags(seed):
    # mostly trees, as at benchmark scale, so that the path search may
    # step down into few children: every length, cut-off and sense pair
    # must still match the unpruned deque BFS
    concepts, edges, senses = helpers.random_sparse_instance(random.Random(seed))
    t = Taxonomy.build(edges, senses, concepts=concepts)
    for c1 in concepts:
        for c2 in concepts:
            d = helpers.oracle_path_len(concepts, edges, c1, c2)
            i, j = t.index_of(c1), t.index_of(c2)
            assert t.path_len(i, j) == d
            for limit in range(-1, d + 2):
                assert t.path_len(i, j, limit) == (d if d <= limit else None)
    for w1 in senses:
        for w2 in senses:
            score = sim_edge(t, w1, w2)
            assert score.sense_pair == helpers.oracle_min_sense_pair(
                t.concepts(), edges, senses, w1, w2)
            assert score.value == helpers.oracle_edge_words(concepts, edges, senses, w1, w2)


# concept ids of the toy taxonomy, near misses, hostile values and unhashables
CONCEPT = st.one_of(st.sampled_from(["root", "A", "B", "A1", "A2", "a", "A ", "x"]),
                    HOSTILE, st.sampled_from([["A"], {"A": 1}, {"A"}, 10**400]))
WORD_VALUE = st.one_of(st.sampled_from(["x", "y", "z", " X", "Z "]), WORDS,
                       st.sampled_from(["", "a\tb", ["x"], {"x"}, 10**400]))
# concept indices of the toy taxonomy, out-of-range ints and other values
INDEX = st.one_of(st.integers(-2, 6), HOSTILE,
                  st.sampled_from(["0", [0], 10**400, *_Index]))


@settings(max_examples=_budget(150), derandomize=True, database=None, deadline=None)
@given(concept=CONCEPT, word=WORD_VALUE, index=INDEX)
@example(concept=["x"], word=["x"], index=[0])
@example(concept=BIG, word=BIG, index=BIG)
@example(concept="A", word="x", index=True)
@example(concept="A", word="x", index=_Index.TWO)
def test_lookup_surface(toy_taxonomy, toy_model, concept, word, index):
    t, m = toy_taxonomy, toy_model
    anc = helpers.oracle_ancestors(t.concepts(), TOY_EDGES)
    if isinstance(index, int) and 0 <= index < t.concept_count:
        assert {t.concepts()[a] for a in t.ancestor_indices(index)} == anc[t.concepts()[index]]
        # a bool or IntEnum index is kept as a plain int, in its own tuple
        # and in every tuple built on it; the shared taxonomy has most
        # tuples built already, so a fresh one is asked first
        fresh = Taxonomy.build(TOY_EDGES, TOY_SENSES)
        assert fresh.ancestor_indices(index) == t.ancestor_indices(index)
        for u in (fresh, t):
            assert all(type(a) is int
                       for k in range(u.concept_count) for a in u.ancestor_indices(k))
        # the model's index-level queries, on a fresh model asked first with
        # this index too: the oracle's witness and domain, and plain ints
        # in the rank-space memo
        ids = t.concepts()
        for s1, s2 in (((index,), (0, 4)), ((3, index), [index, 1])):
            assert t.nearest_path_len(s1, s2) == min(
                helpers.oracle_path_len(ids, TOY_EDGES, ids[i], ids[j]) for i in s1 for j in s2)
        ic = lambda c: None if math.isinf(m.ic(c)) else m.ic(c)  # noqa: E731
        for model in (build_model(t, FrequencyTable.from_counts(TOY_COUNTS)), m):
            best = model.subsumer_argmax()
            for i, j in ((index, 0), (0, index)):
                by_ic, by_one_minus_p = best((i,), (j,))
                pair = {ids[i]}, {ids[j]}
                for found, value in ((by_ic, ic), (by_one_minus_p, lambda c: 1.0 - m.p(c))):
                    v, c, i1, i2 = found
                    assert (i1, i2) == (i, j)
                    assert (v, ids[c], (ids[i1], ids[i2])) == helpers.oracle_best_subsumer(
                        ids, TOY_EDGES, pair, value)
                assert [ids[c] for c in model.finite_ic_subsumer_indices(i, j)] == sorted(
                    helpers.oracle_finite_common_subsumers(ids, TOY_EDGES, m, ids[i], ids[j]),
                    key=t.index_of)
            assert all(type(r) is int for ranks in model._ranked.memo if ranks for r in ranks)
    else:
        with pytest.raises(UnknownConceptError if isinstance(index, int) else TypeError):
            t.ancestor_indices(index)
        best = m.subsumer_argmax()
        for query in (lambda: best((index,), (0,)), lambda: best((0,), (index,)),
                      lambda: best((0, index), (0,)),
                      lambda: t.nearest_path_len((0, index), (0,)),
                      lambda: t.nearest_path_len((1,), [index], 0),
                      lambda: m.finite_ic_subsumer_indices(index, 0),
                      lambda: m.finite_ic_subsumer_indices(0, index)):
            with pytest.raises(UnknownConceptError if isinstance(index, int) else TypeError):
                query()
    senses = {w: frozenset(cs) for w, cs in TOY_SENSES.items()}
    key = _norm(word) if isinstance(word, str) else None
    assert t.senses_of(word) == senses.get(key, frozenset())
    assert t.sense_indices(word) == tuple(sorted(map(t.index_of, t.senses_of(word))))
    assert t.sense_index_column([word, "x", word]) == [
        t.sense_indices(word), t.sense_indices("x"), t.sense_indices(word)]
    lookups = [t.index_of, t.subsumers, t.parents_of, t.depth_of, m.freq, m.p, m.ic,
               lambda c: t.common_subsumers(c, "A"), lambda c: t.shortest_path_len("A", c),
               lambda c: sim_resnik_concepts(m, t, c, "A"),
               lambda c: finite_common_subsumers(m, t, "A", c)]
    if not (isinstance(concept, str) and concept in t.concepts()):
        for lookup in lookups:
            with pytest.raises(UnknownConceptError, match="^unknown concept: "):
                lookup(concept)
        return
    assert t.concepts()[t.index_of(concept)] == concept
    assert t.subsumers(concept) == anc[concept]
    assert m.freq(concept) == helpers.oracle_freq(
        t.concepts(), TOY_EDGES, TOY_SENSES, TOY_COUNTS)[concept]
    assert sim_resnik_concepts(m, t, concept, "A").value == max(
        m.ic(c) for c in anc[concept] & anc["A"])


@pytest.fixture(scope="module")
def cafe_taxonomy():
    """The toy taxonomy with a non-ASCII word, stored from its decomposed
    spelling."""
    return Taxonomy.build(TOY_EDGES, {**TOY_SENSES, CAFE[3]: {"B"}})


@pytest.fixture(scope="module")
def cafe_model(cafe_taxonomy):
    return build_model(cafe_taxonomy, FrequencyTable.from_counts(TOY_COUNTS))


@settings(max_examples=_budget(150), derandomize=True, database=None, deadline=None)
@given(words=st.lists(st.one_of(WORD_VALUE, st.sampled_from(CAFE)), max_size=6),
       form=st.sampled_from([list, tuple, iter]))
@example(words=["x", ["x"], " Y", CAFE[1]], form=list)  # one unhashable word
@example(words=[], form=iter)
def test_sense_index_column_surface(cafe_taxonomy, words, form):
    t = cafe_taxonomy
    assert t.sense_index_column(form(words)) == [t.sense_indices(w) for w in words]
    assert t.sense_index_column(form(words)) == [  # the documented rule, word by word
        tuple(sorted(map(t.index_of, t.senses_of(w)))) for w in words]
    for not_a_column in ("xy", "", 5, None):
        with pytest.raises(TypeError):
            t.sense_index_column(not_a_column)


def _param_ok(v, low) -> bool:
    """Whether ``v`` is a real number in (low, largest float]."""
    return isinstance(v, Real) and low < v <= sys.float_info.max


# log bases above 1 and floors up to 1 are valid; a floor above 1, just
# above included, would rank synonyms below the pairs one edge apart
LCH_PARAM = st.one_of(st.sampled_from([2.0, math.e, 10, 0.5, 1, 1e308, 1.0 + 2**-52,
                                       Fraction(1, 3), Fraction(3, 2)]), HOSTILE,
                      st.sampled_from([10**400, "1", "a\tb", ""]))
DIRECT = {"resnik": lambda t, m, a, b, base, floor: sim_resnik_words(m, t, a, b),
          "edge": lambda t, m, a, b, base, floor: sim_edge(t, a, b),
          "prob": lambda t, m, a, b, base, floor: sim_prob(m, t, a, b),
          "lch": lambda t, m, a, b, base, floor: sim_lch(t, a, b, log_base=base, floor=floor)}


@settings(max_examples=_budget(150), derandomize=True, database=None, deadline=None)
@given(w1=WORD_VALUE, w2=WORD_VALUE, measure=st.sampled_from(WORD_MEASURES),
       log_base=LCH_PARAM, floor=LCH_PARAM)
@example(w1="x", w2="y", measure="lch", log_base="2", floor=1.0)
@example(w1="x", w2="y", measure="lch", log_base=2.0, floor=None)
@example(w1="x", w2="y", measure="lch", log_base=10**400, floor=1.0)
@example(w1="x", w2="y", measure="lch", log_base=2.0, floor="1")  # lch_floor in evaluate
@example(w1="x", w2="x", measure="lch", log_base=2.0, floor=3.0)  # synonyms would rank last
@example(w1="x", w2="x", measure="lch", log_base=Fraction(3, 2), floor=Fraction(1, 3))
@example(w1=BIG, w2="w", measure="resnik", log_base=2.0, floor=1.0)
@example(w1=BIG, w2="w", measure="edge", log_base=2.0, floor=1.0)
def test_word_measure_surface(toy_taxonomy, toy_model, w1, w2, measure, log_base, floor):
    t, m = toy_taxonomy, toy_model
    rows = ((w1, w2, 1.0), ("x", "y", 2.0), ("x", "z", 4.0))  # two rows always score

    def calls():
        yield lambda: DIRECT[measure](t, m, w1, w2, log_base, floor)
        yield lambda: word_similarity(measure, t, w1, w2, m, log_base=log_base,
                                      lch_floor=floor)

    if measure == "lch" and not (_param_ok(log_base, 1) and _param_ok(floor, 0)
                                 and floor <= 1):
        for call in calls():
            with pytest.raises(ValueError, match=r"^(log_base|floor) must be finite and "):
                call()
        with pytest.raises(ValueError, match=r"^(log_base|floor) must be finite and "):
            evaluate(measure, Benchmark("fuzz", rows), t, m, log_base=log_base,
                     lch_floor=floor)
        return
    if not (t.sense_indices(w1) and t.sense_indices(w2)):
        for call in calls():
            with pytest.raises(UnknownWordError):
                call()
        return
    a, b = _norm(w1), _norm(w2)
    args = (t.concepts(), TOY_EDGES, TOY_SENSES)
    expected = {"resnik": lambda: helpers.oracle_resnik_words(*args, m, a, b),
                "edge": lambda: helpers.oracle_edge_words(*args, a, b),
                "prob": lambda: helpers.oracle_prob_words(*args, m, a, b),
                "lch": lambda: helpers.oracle_lch_words(*args, a, b, log_base, floor)}
    for call in calls():
        assert call().value == pytest.approx(expected[measure](), rel=1e-12)
    report = evaluate(measure, Benchmark("fuzz", rows), t, m, log_base=log_base,
                      lch_floor=floor)
    assert [item.score for item in report.items] == [
        word_similarity(measure, t, *row[:2], m, log_base=log_base, lch_floor=floor).value
        for row in rows]


class _Float(float):
    """A float subclass: a real weight that takes the weight-by-weight check."""


# weights that a set of plain floats checked in one pass and the
# weight-by-weight check must agree on: -0.0 passes both, and True, an
# int and a float subclass are real numbers that only the second sees
ODD_WEIGHTS = [-0.0, True, 1, _Float(0.5), _Float(1.0)]


@settings(max_examples=_budget(150), derandomize=True, database=None, deadline=None)
@given(c1=CONCEPT, c2=CONCEPT, position=st.integers(-1, 2),
       weight=st.one_of(HOSTILE, st.sampled_from([10**400, "0.5", "", "a\tb", [0.5]]),
                        st.sampled_from(ODD_WEIGHTS)),
       extra_key=st.one_of(st.sampled_from([None, None, "nope", 5]), BIG_INT))
@example(c1="A1", c2="A2", position=0, weight="0.5", extra_key=None)
@example(c1="A1", c2="A2", position=0, weight=None, extra_key=None)
@example(c1="A1", c2="A2", position=0, weight=10**400, extra_key=None)
@example(c1="A1", c2="A2", position=0, weight=Decimal("1"), extra_key=None)
@example(c1="A1", c2="A2", position=0, weight=0.5, extra_key=BIG)
@example(c1=["x"], c2="A", position=-1, weight=0.5, extra_key=None)
@example(c1={}, c2="A", position=-1, weight=0.5, extra_key=None)
@example(c1="A1", c2="A2", position=1, weight=-0.0, extra_key=None)
@example(c1="root", c2="A1", position=0, weight=True, extra_key=None)
@example(c1="root", c2="root", position=0, weight=1, extra_key=None)
@example(c1="A1", c2="A2", position=0, weight=_Float(0.5), extra_key=None)
@example(c1="B", c2="root", position=0, weight=_Float(1.0), extra_key=None)
def test_weights_surface(toy_taxonomy, toy_model, c1, c2, position, weight, extra_key):
    t, m = toy_taxonomy, toy_model
    known = set(t.concepts())
    if not all(isinstance(c, str) and c in known for c in (c1, c2)):
        for call in (finite_common_subsumers, uniform_weights,
                     lambda *args: sim_weighted(*args, {})):
            with pytest.raises(UnknownConceptError):
                call(m, t, c1, c2)
        return
    domain = helpers.oracle_finite_common_subsumers(t.concepts(), TOY_EDGES, m, c1, c2)
    assert finite_common_subsumers(m, t, c1, c2) == domain
    weights = uniform_weights(m, t, c1, c2)
    assert weights == dict.fromkeys(sorted(domain, key=t.index_of), 1.0 / len(domain))
    for not_a_mapping in (None, [("A", 1.0)], list(weights.items())):
        with pytest.raises(ValueError, match="^weights is a (NoneType|list), not a mapping$"):
            sim_weighted(m, t, c1, c2, not_a_mapping)
    if 0 <= position < len(weights):
        weights[list(weights)[position]] = weight
    if extra_key is not None:
        with pytest.raises(ValueError, match="^weight domain mismatch: "):
            sim_weighted(m, t, c1, c2, {**weights, extra_key: 0.0})
    values = list(weights.values())
    if not (all(_param_ok(w, -1) and w >= 0 for w in values)
            and abs(math.fsum(values) - 1.0) <= 1e-9):
        with pytest.raises(ValueError, match="weight"):
            sim_weighted(m, t, c1, c2, weights)
        return
    assert sim_weighted(m, t, c1, c2, weights) == pytest.approx(
        math.fsum(w * m.ic(c) for c, w in weights.items()), rel=1e-12)
