"""Frequency counting, propagation, probabilities, information content."""

import copy
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    DIAMOND_COUNTS,
    DIAMOND_EDGES,
    DIAMOND_SENSES,
    TOY_COUNTS,
    TOY_EDGES,
    TOY_SENSES,
    _budget,
)
from taxsim import (
    FrequencyTable,
    ModelError,
    ProbabilityModel,
    Taxonomy,
    UnknownConceptError,
    build_model,
    load_counts,
)


class TestLoadCounts:
    def test_toy_total(self, toy_files):
        table = load_counts(toy_files["counts"])
        assert table.counts == {"x": 2, "y": 1, "z": 1}
        assert table.total_raw == 4

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("# nothing\n", encoding="utf-8")
        table = load_counts(path)
        assert table.counts == {}
        assert table.total_raw == 0

    def test_duplicates_summed(self, tmp_path):
        path = tmp_path / "c.tsv"
        # a UTF-8 byte order mark and CRLF line ends change nothing
        for raw in (b"x\t2\nx\t3\n", b"\xef\xbb\xbfx\t2\r\nx\t3\r\n"):
            path.write_bytes(raw)
            assert load_counts(path).counts == {"x": 5}

    def test_case_folded(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("Dog\t2\ndog\t3\n", encoding="utf-8")
        assert load_counts(path).counts == {"dog": 5}

    def test_negative_count(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x\t-1\n", encoding="utf-8")
        with pytest.raises(ModelError, match=r"c\.tsv:1: negative count -1"):
            load_counts(path)

    def test_malformed_count(self, tmp_path):
        path = tmp_path / "c.tsv"
        # int() accepts "1_000", "+5", " 3 " and "\u0663"; counts take ASCII digits
        for count in ("two", "2.0", "1_000", "+5", " 3 ", "\u0663", "--1"):
            path.write_text(f"x\t{count}\n", encoding="utf-8")
            with pytest.raises(ModelError, match=r"c\.tsv:1: malformed count"):
                load_counts(path)

    def test_count_beyond_int_digit_limit(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x\t" + "9" * 4301 + "\n", encoding="utf-8")
        with pytest.raises(ModelError, match="c.tsv:1: count too large"):
            load_counts(path)

    def test_total_beyond_int_digit_limit(self, tmp_path):
        # each count passes, their sum has 4,301 digits (stats could not print it)
        path = tmp_path / "c.tsv"
        path.write_text("x\t" + "9" * 4300 + "\nunlisted\t" + "9" * 4300 + "\n",
                        encoding="utf-8")
        with pytest.raises(ModelError, match=r"c\.tsv: total count too large \(4301 digits\)"):
            load_counts(path)
        path.write_text("x\t" + "9" * 4300 + "\n", encoding="utf-8")
        assert load_counts(path).total_raw == 10**4300 - 1

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x 2\n", encoding="utf-8")
        with pytest.raises(ModelError, match="expected"):
            load_counts(path)


class TestPluralFold:
    def test_folds_into_known_stem(self):
        table = FrequencyTable.from_counts({"cars": 3, "car": 1}, plural_stems={"car"})
        assert table.counts == {"car": 4}
        assert table.total_raw == 4

    def test_keeps_first_appearance_order(self):
        counts = {"b": 1, "a": 2, "cats": 3}
        for stems, words in ((set(), ["b", "a", "cats"]), ({"cat"}, ["b", "a", "cat"])):
            assert list(FrequencyTable.from_counts(counts, plural_stems=stems).counts) == words

    def test_unknown_stem_left_alone(self):
        table = FrequencyTable.from_counts({"glass": 2}, plural_stems={"car"})
        assert table.counts == {"glass": 2}

    def test_single_letter_not_stripped(self):
        table = FrequencyTable.from_counts({"s": 5}, plural_stems={""})
        assert table.counts == {"s": 5}

    def test_off_by_default(self):
        table = FrequencyTable.from_counts({"cars": 3, "car": 1})
        assert table.counts == {"cars": 3, "car": 1}

    def test_str_stems_rejected(self, tmp_path):
        # "og" in "dog" used to fold "ogs" into "og"
        with pytest.raises(ModelError, match="^plural_stems is a string, not a collection: 'dog'$"):
            FrequencyTable.from_counts({"ogs": 2, "xs": 1}, plural_stems="dog")
        path = tmp_path / "c.tsv"
        path.write_text("ogs\t2\n", encoding="utf-8")
        with pytest.raises(ModelError, match=r"c\.tsv: plural_stems is a string"):
            load_counts(path, plural_stems="dog")


class TestFromCounts:
    @pytest.mark.parametrize("count", [math.nan, math.inf, 2.5, True, "3"])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ModelError, match="not an integer"):
            FrequencyTable.from_counts({"x": 1, "y": count})

    def test_non_string_word_rejected(self):
        # used to raise AttributeError from word.strip()
        with pytest.raises(ModelError, match="counts word is not a string: 1"):
            FrequencyTable.from_counts({"x": 1, 1: 2})

    def test_total_beyond_int_digit_limit(self, toy_taxonomy):
        # a total that str() cannot print would break repr() of the model
        for counts, digits in (({"x": 10**4400}, 4401),
                               ({"x": 10**4300 - 1, "y": 10**4300 - 1}, 4301)):
            with pytest.raises(ModelError, match=rf"^total count too large \({digits} digits\)$"):
                FrequencyTable.from_counts(counts)
        table = FrequencyTable.from_counts({"x": 10**4300 - 1})
        assert "N=999" in repr(build_model(toy_taxonomy, table))


class TestConstructors:
    @pytest.mark.parametrize("counts, message", [
        ({"x": 10**4400}, r"^total count too large \(4401 digits\)$"),
        ({"x": -5}, r"^negative count for word 'x': -5$"),
        ({"x": 2.5}, r"^count for word 'x' is not an integer: 2\.5$"),
        ({"x": True}, r"^count for word 'x' is not an integer: True$"),
        ({5: 1}, r"^counts word is not a string: 5$"),
    ], ids=["total", "negative", "float", "bool", "word"])
    def test_table_checks_its_counts(self, counts, message):
        # the constructor used to accept all of these unchecked
        with pytest.raises(ModelError, match=message):
            FrequencyTable(counts)

    def test_table_total_is_derived(self):
        table = FrequencyTable({"x": 2, "Y ": 3})  # kept as given: no merging
        assert table.counts == {"x": 2, "Y ": 3} and table.total_raw == 5
        with pytest.raises(TypeError):
            FrequencyTable({"x": 2}, total_raw=7)

    def test_table_holds_a_read_only_copy(self, toy_taxonomy):
        # a later change to either mapping used to get round the check
        source = {"x": 1, "y": 3}
        table = FrequencyTable(source)
        source["y"] = 2.5
        with pytest.raises(TypeError):
            table.counts["y"] = 2.5
        assert table.counts == {"x": 1, "y": 3}
        assert build_model(toy_taxonomy, table).N == 4
        for copied in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert copied == table and copied.counts is not table.counts

    @pytest.mark.parametrize("table", [[5, 2], {"x": 2}, None], ids=["list", "dict", "none"])
    def test_model_takes_only_a_table(self, toy_taxonomy, table):
        # a raw freq list used to give ic(x) = -1.32 and resnik scores of 0.0
        with pytest.raises(ModelError, match="not a FrequencyTable"):
            ProbabilityModel(toy_taxonomy, table, 2.0)

    def test_model_constructor_is_build_model(self, toy_taxonomy, toy_model):
        model = ProbabilityModel(toy_taxonomy, FrequencyTable.from_counts(TOY_COUNTS))
        assert list(model.dump_rows()) == list(toy_model.dump_rows())
        assert model.ic_by_index == toy_model.ic_by_index
        assert model.one_minus_p_by_index == tuple(
            1.0 - model.p(c) for c in toy_taxonomy.concepts()
        )


class TestBuildModel:
    def test_toy_propagation(self, toy_model):
        assert {c: toy_model.freq(c) for c in ("A1", "A2", "A", "B", "root")} == {
            "A1": 2,
            "A2": 1,
            "A": 3,
            "B": 1,
            "root": 4,
        }
        assert toy_model.N == 4

    def test_toy_probability_and_ic(self, toy_model):
        assert toy_model.p("A") == 0.75
        assert toy_model.ic("A") == pytest.approx(0.4150375, abs=1e-6)
        assert toy_model.ic("A1") == 1.0
        assert toy_model.ic("root") == 0.0
        assert math.copysign(1.0, toy_model.ic("root")) == 1.0  # +0.0, not -0.0

    def test_unknown_words_excluded_from_n(self, toy_taxonomy):
        table = FrequencyTable.from_counts({"x": 2, "w_unknown": 99})
        model = build_model(toy_taxonomy, table)
        assert model.N == 2

    def test_diamond_deduplication(self):
        t = Taxonomy.build(DIAMOND_EDGES, DIAMOND_SENSES)
        model = build_model(t, FrequencyTable.from_counts(DIAMOND_COUNTS))
        assert model.freq("top") == 5  # once, not once per path
        assert model.freq("M") == 5
        assert model.freq("E") == 5
        assert model.N == 5

    def test_zero_frequency_concept_has_infinite_ic(self):
        t = Taxonomy.build(TOY_EDGES + [("C", "root")], TOY_SENSES)
        model = build_model(t, FrequencyTable.from_counts(TOY_COUNTS))
        assert model.freq("C") == 0
        assert math.isinf(model.ic("C"))

    def test_underflowed_probability_keeps_finite_ic(self, toy_taxonomy):
        # p(A1) = 1 / (10**400 + 1) is 0.0 as a float; its ic used to
        # raise "math domain error"
        table = FrequencyTable.from_counts({"x": 1, "y": 10**400})
        model = build_model(toy_taxonomy, table)
        assert model.p("A1") == 0.0
        assert model.ic("A1") == pytest.approx(math.log2(10**400 + 1))
        assert model.ic("root") == 0.0

    def test_n_zero_fails(self, toy_taxonomy):
        table = FrequencyTable.from_counts({"w_unknown": 7})
        with pytest.raises(ModelError, match="N = 0"):
            build_model(toy_taxonomy, table)

    def test_bad_log_base(self, toy_taxonomy):
        table = FrequencyTable.from_counts(TOY_COUNTS)
        # "2", None and 1j used to raise TypeError, and 10**4400 gave a
        # model whose repr raised ValueError
        for base in (1.0, 0.5, -2.0, math.nan, math.inf, True, "2", None, 1j, 10**4400):
            with pytest.raises(ValueError, match="log_base"):
                build_model(toy_taxonomy, table, log_base=base)

    def test_unknown_concept_lookup(self, toy_model):
        with pytest.raises(UnknownConceptError):
            toy_model.ic("nope")

    def test_dump_rows_sorted_by_id(self, toy_model):
        rows = list(toy_model.dump_rows())
        assert [r[0] for r in rows] == ["A", "A1", "A2", "B", "root"]
        assert rows[-1] == ("root", 4, 1.0, 0.0)

    def test_second_sense_under_existing_ancestor_changes_nothing(self, toy_model):
        # x's first sense A1 already lies under A, so adding A itself as a
        # second sense of x must leave every frequency unchanged
        t2 = Taxonomy.build(TOY_EDGES, {**TOY_SENSES, "x": {"A1", "A"}})
        m2 = build_model(t2, FrequencyTable.from_counts(TOY_COUNTS))
        for c in ("A1", "A2", "A", "B", "root"):
            assert m2.freq(c) == toy_model.freq(c)


def test_propagation_oracle_with_every_kind_of_word():
    """One-sense words take the per-concept direct-count path, the rest
    the deduplicating union; both must match the oracle, with zero counts
    and words outside the lexicon mixed in."""
    kinds = {"one": 0, "several": 0, "zero": 0, "unlisted": 0}
    for k, (concepts, edges, senses, counts) in enumerate(helpers.random_instances()):
        counts = {**counts, f"unlisted{k}": k + 1, "unlisted": 0}
        t = Taxonomy.build(edges, senses, concepts=concepts)
        model = build_model(t, FrequencyTable.from_counts(counts))
        expected = helpers.oracle_freq(concepts, edges, senses, counts)
        assert [model.freq(c) for c in concepts] == [expected[c] for c in concepts]
        for word, count in counts.items():
            kind = ("unlisted" if word not in senses else "zero" if count == 0
                    else "one" if len(senses[word]) == 1 else "several")
            kinds[kind] += 1
    assert min(kinds.values()) >= 20, kinds


def test_propagation_under_nested_diamonds_and_trees_below_valleys():
    # d is the bottom of the diamond a, b; x the bottom of a second one,
    # m1, m2, under d.  Trees hang below the valleys m1 and x, and below
    # the root; their mass is handed up to the valley above them, which
    # walks it up once.
    edges = [("a", "r"), ("b", "r"), ("d", "a"), ("d", "b"),
             ("m1", "d"), ("m2", "d"), ("x", "m1"), ("x", "m2"),
             ("t1", "m1"), ("t2", "t1"), ("t3", "t1"),
             ("u1", "x"), ("u2", "u1"),
             ("s1", "r"), ("s2", "s1")]
    senses = {"t2": {"t2"}, "t3": {"t3"}, "u1": {"u1"}, "u2": {"u2"}, "x": {"x"},
              "d": {"d"}, "m1": {"m1"}, "s2": {"s2"}, "t1": {"t1"},
              "two": {"t2", "u2"}, "far": {"s2", "x"}, "nested": {"x", "m2", "t3"}}
    counts = {"t2": 1, "t3": 2, "u1": 4, "u2": 8, "x": 16, "d": 32, "m1": 64,
              "s2": 128, "t1": 0, "two": 256, "far": 512, "nested": 1024, "none": 2048}
    concepts = sorted({c for e in edges for c in e})
    t = Taxonomy.build(edges, senses)
    ids = t.concepts()
    assert {ids[i] for i, flag in enumerate(t.valleys_by_index) if flag} == {
        "r", "a", "b", "d", "m1", "m2", "x"}
    model = build_model(t, FrequencyTable.from_counts(counts))
    expected = helpers.oracle_freq(concepts, edges, senses, counts)
    assert {c: model.freq(c) for c in concepts} == expected
    assert model.N == expected["r"] == sum(counts.values()) - counts["none"]


@settings(max_examples=_budget(60), derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
def test_propagation_on_sparse_dags(seed):
    # mostly trees, as at benchmark scale, so that most one-sense mass is
    # handed up from child to parent rather than walked up from a valley
    rng = random.Random(seed)
    concepts, edges, senses = helpers.random_sparse_instance(rng)
    counts = {w: rng.randint(0, 50) for w in senses}
    counts["w0"] += 1
    counts["unlisted"] = rng.randint(0, 50)
    t = Taxonomy.build(edges, senses, concepts=concepts)
    model = build_model(t, FrequencyTable.from_counts(counts))
    expected = helpers.oracle_freq(concepts, edges, senses, counts)
    assert [model.freq(c) for c in concepts] == [expected[c] for c in concepts]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_propagation_matches_enumeration_oracle(seed):
    rng = random.Random(seed)
    concepts, edges, senses, counts = helpers.random_instance(rng)
    t = Taxonomy.build(edges, senses, concepts=concepts)
    model = build_model(t, FrequencyTable.from_counts(counts))
    expected = helpers.oracle_freq(concepts, edges, senses, counts)
    root = helpers.oracle_root(concepts, edges)
    assert model.N == expected[root]
    for c in concepts:
        assert model.freq(c) == expected[c]
        assert model.p(c) == expected[c] / expected[root]
        assert model.ic(c) == helpers.oracle_ic(expected[c], expected[root], 2.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_frequency_monotone_along_edges(seed):
    rng = random.Random(seed)
    concepts, edges, senses, counts = helpers.random_instance(rng)
    t = Taxonomy.build(edges, senses, concepts=concepts)
    model = build_model(t, FrequencyTable.from_counts(counts))
    attached = sum(c for w, c in counts.items() if w in senses)
    assert model.freq(t.root) == attached
    for child, parent in edges:
        assert model.freq(child) <= model.freq(parent)
        assert model.p(child) <= model.p(parent)
        assert model.ic(child) >= model.ic(parent)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    base=st.sampled_from([math.e, 10.0, 3.0]),
)
def test_log_base_equivariance(seed, base):
    rng = random.Random(seed)
    concepts, edges, senses, counts = helpers.random_instance(rng, max_concepts=25)
    t = Taxonomy.build(edges, senses, concepts=concepts)
    base2 = build_model(t, FrequencyTable.from_counts(counts), log_base=2.0)
    other = build_model(t, FrequencyTable.from_counts(counts), log_base=base)
    for c in concepts:
        if base2.freq(c) == 0:
            assert math.isinf(other.ic(c))
        else:
            assert other.ic(c) == pytest.approx(
                base2.ic(c) / math.log2(base), rel=1e-12, abs=1e-12
            )
