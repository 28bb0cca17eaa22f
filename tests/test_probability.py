"""Frequency counting, propagation, probabilities, information content."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    DIAMOND_COUNTS,
    DIAMOND_EDGES,
    DIAMOND_SENSES,
    TOY_COUNTS,
    TOY_EDGES,
    TOY_SENSES,
)
from taxsim import (
    FrequencyTable,
    ModelError,
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

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x 2\n", encoding="utf-8")
        with pytest.raises(ModelError, match="expected"):
            load_counts(path)


class TestPluralFold:
    def test_folds_into_known_stem(self):
        table = FrequencyTable.from_counts(
            {"cars": 3, "car": 1}, plural_fold=True, known_words={"car"}
        )
        assert table.counts == {"car": 4}
        assert table.total_raw == 4

    def test_unknown_stem_left_alone(self):
        table = FrequencyTable.from_counts(
            {"glass": 2}, plural_fold=True, known_words={"car"}
        )
        assert table.counts == {"glass": 2}

    def test_single_letter_not_stripped(self):
        table = FrequencyTable.from_counts(
            {"s": 5}, plural_fold=True, known_words={""}
        )
        assert table.counts == {"s": 5}

    def test_requires_known_words(self):
        with pytest.raises(ValueError, match="known_words"):
            FrequencyTable.from_counts({"cars": 1}, plural_fold=True)

    def test_off_by_default(self):
        table = FrequencyTable.from_counts({"cars": 3, "car": 1})
        assert table.counts == {"cars": 3, "car": 1}


class TestFromCounts:
    @pytest.mark.parametrize("count", [math.nan, math.inf, 2.5, True, "3"])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ModelError, match="not an integer"):
            FrequencyTable.from_counts({"x": 1, "y": count})


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

    def test_n_zero_fails(self, toy_taxonomy):
        table = FrequencyTable.from_counts({"w_unknown": 7})
        with pytest.raises(ModelError, match="N = 0"):
            build_model(toy_taxonomy, table)

    def test_bad_log_base(self, toy_taxonomy):
        table = FrequencyTable.from_counts(TOY_COUNTS)
        for base in (1.0, 0.5, -2.0, math.nan, math.inf):
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
