"""Taxonomy construction, validation, and graph queries."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import DIAMOND_EDGES, DIAMOND_SENSES, TOY_EDGES, TOY_SENSES
from taxsim import (
    SYNTHETIC_ROOT,
    Taxonomy,
    TaxonomyError,
    UnknownConceptError,
    load_taxonomy,
)


class TestBuild:
    def test_toy_shape(self, toy_taxonomy):
        t = toy_taxonomy
        assert t.concept_count == 5
        assert t.edge_count == 4
        assert t.word_count == 3
        assert t.root == "root"
        assert set(t.concepts()) == {"root", "A", "B", "A1", "A2"}

    def test_two_node_cycle(self):
        with pytest.raises(TaxonomyError, match="cycle detected"):
            Taxonomy.build([("A", "B"), ("B", "A")])

    def test_self_edge_is_a_cycle(self):
        with pytest.raises(TaxonomyError, match="cycle detected"):
            Taxonomy.build([("A", "A"), ("A", "top")])

    def test_cycle_beside_valid_root(self):
        edges = [("A", "root"), ("B", "C"), ("C", "B")]
        with pytest.raises(TaxonomyError, match="cycle detected: (B -> C -> B|C -> B -> C)"):
            Taxonomy.build(edges)

    def test_synthetic_root_above_two_parentless(self):
        t = Taxonomy.build([("A", "r1"), ("B", "r2")])
        assert t.concept_count == 5
        assert t.root == SYNTHETIC_ROOT
        assert t.parents_of("r1") == {SYNTHETIC_ROOT}
        assert t.parents_of("r2") == {SYNTHETIC_ROOT}
        assert t.parents_of(SYNTHETIC_ROOT) == frozenset()

    def test_synthetic_root_id_collision(self):
        with pytest.raises(TaxonomyError, match="duplicate concept id"):
            Taxonomy.build([("a", SYNTHETIC_ROOT), ("b", "r2")])

    def test_duplicate_extra_concept(self):
        with pytest.raises(TaxonomyError, match="duplicate concept id"):
            Taxonomy.build([], concepts=["X", "X"])

    def test_extra_concept_overlapping_edge_is_idempotent(self):
        t = Taxonomy.build([("a", "b")], concepts=["a"])
        assert t.concept_count == 2

    def test_no_concepts(self):
        with pytest.raises(TaxonomyError, match="empty input"):
            Taxonomy.build([])

    def test_dangling_sense_reference(self):
        with pytest.raises(TaxonomyError, match="dangling concept reference"):
            Taxonomy.build(TOY_EDGES, {"w": {"nope"}})

    def test_empty_sense_set(self):
        with pytest.raises(TaxonomyError, match="empty sense set"):
            Taxonomy.build(TOY_EDGES, {"w": set()})

    @pytest.mark.parametrize("first, second", [("Dog", "dog"), (" dog", "dog\t")])
    def test_colliding_words_merge_sense_sets(self, first, second):
        # the later key used to overwrite the earlier one's senses
        t = Taxonomy.build([("a", "r"), ("b", "r")], {first: ["a"], second: ["b"]})
        assert t.senses_of("dog") == {"a", "b"}
        assert t.sense_indices(first) == (t.index_of("a"), t.index_of("b"))
        assert t.word_count == 1

    def test_empty_sense_set_rejected_despite_collision(self):
        with pytest.raises(TaxonomyError, match="empty sense set for word 'dog'"):
            Taxonomy.build([("a", "r")], {"Dog": ["a"], "dog": []})

    def test_duplicate_edges_idempotent(self, toy_taxonomy):
        t = Taxonomy.build(TOY_EDGES + TOY_EDGES, TOY_SENSES)
        assert t.edge_count == toy_taxonomy.edge_count
        assert t.subsumers("A1") == toy_taxonomy.subsumers("A1")


class TestLoadTaxonomy:
    def test_toy_files(self, toy_files):
        t = load_taxonomy(toy_files["taxonomy"], toy_files["lexicon"])
        assert t.concept_count == 5
        assert t.root == "root"
        assert t.senses_of("x") == {"A1"}

    def test_comments_blanks_duplicates(self, tmp_path):
        edges = tmp_path / "e.tsv"
        lex = tmp_path / "l.tsv"
        # a UTF-8 byte order mark and CRLF line ends change nothing
        for bom, eol in (("", "\n"), ("\ufeff", "\r\n")):
            edges.write_bytes(
                f"{bom}A\troot\n# a comment\n\nB\troot\nA\troot\nA1\tA\nA2\tA\n"
                .replace("\n", eol).encode("utf-8")
            )
            lex.write_bytes(f"{bom}X\tA1\nx\tA1\n".replace("\n", eol).encode("utf-8"))
            t = load_taxonomy(edges, lex)
            assert t.concept_count == 5
            assert set(t.concepts()) == {"A", "root", "B", "A1", "A2"}
            assert t.edge_count == 4
            assert t.words() == {"x"}  # case-normalized duplicate

    def test_empty_edge_file(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text("# only a comment\n", encoding="utf-8")
        lex = tmp_path / "l.tsv"
        lex.write_text("", encoding="utf-8")
        with pytest.raises(TaxonomyError, match="empty input"):
            load_taxonomy(edges, lex)

    def test_malformed_line_reports_position(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text("A\troot\nB root\n", encoding="utf-8")
        lex = tmp_path / "l.tsv"
        lex.write_text("", encoding="utf-8")
        with pytest.raises(TaxonomyError, match=r"e\.tsv:2"):
            load_taxonomy(edges, lex)

    def test_empty_field(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text("A\t\n", encoding="utf-8")
        lex = tmp_path / "l.tsv"
        lex.write_text("", encoding="utf-8")
        with pytest.raises(TaxonomyError, match="empty field"):
            load_taxonomy(edges, lex)

    def test_dangling_reference_named_in_file_order(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text("a\tr\n", encoding="utf-8")
        lexicon = tmp_path / "l.tsv"
        lexicon.write_text("W\ta\nw\tnope1\nw\tnope2\n", encoding="utf-8")
        with pytest.raises(TaxonomyError, match="unknown concept 'nope1'"):
            load_taxonomy(edges, lexicon)

    def test_invalid_utf8(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_bytes(b"a\tr\ncaf\xe9\tr\n")
        lexicon = tmp_path / "l.tsv"
        lexicon.write_text("w\ta\n", encoding="utf-8")
        with pytest.raises(TaxonomyError, match=r"e\.tsv: not valid UTF-8"):
            load_taxonomy(edges, lexicon)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_taxonomy(tmp_path / "absent.tsv", tmp_path / "absent2.tsv")


class TestSubsumers:
    def test_toy(self, toy_taxonomy):
        assert toy_taxonomy.subsumers("A1") == {"A1", "A", "root"}

    def test_root_is_its_own_subsumer(self, toy_taxonomy):
        assert toy_taxonomy.subsumers("root") == {"root"}

    def test_diamond_includes_both_parents(self):
        t = Taxonomy.build(DIAMOND_EDGES, DIAMOND_SENSES)
        assert t.subsumers("D") == {"D", "M", "E", "top"}

    def test_unknown_concept(self, toy_taxonomy):
        with pytest.raises(UnknownConceptError):
            toy_taxonomy.subsumers("nope")

    def test_monotone_containment_along_edges(self, toy_taxonomy):
        for child, parent in TOY_EDGES:
            assert toy_taxonomy.subsumers(parent) <= toy_taxonomy.subsumers(child)


class TestCommonSubsumers:
    def test_toy(self, toy_taxonomy):
        assert toy_taxonomy.common_subsumers("A1", "A2") == {"A", "root"}

    def test_identity(self, toy_taxonomy):
        for c in toy_taxonomy.concepts():
            assert toy_taxonomy.common_subsumers(c, c) == toy_taxonomy.subsumers(c)

    def test_never_empty(self, toy_taxonomy):
        assert "root" in toy_taxonomy.common_subsumers("A1", "B")

    def test_specific_meet_versus_distant_meet(self, coin_taxonomy):
        nickel_dime = coin_taxonomy.common_subsumers("nickel", "dime")
        assert "coin" in nickel_dime
        nickel_card = coin_taxonomy.common_subsumers("nickel", "credit_card")
        assert "medium_of_exchange" in nickel_card
        assert "coin" not in nickel_card


class TestShortestPath:
    def test_siblings(self, toy_taxonomy):
        assert toy_taxonomy.shortest_path_len("A1", "A2") == 2

    def test_zero_for_identity(self, toy_taxonomy):
        assert toy_taxonomy.shortest_path_len("A1", "A1") == 0

    def test_across_root(self, toy_taxonomy):
        assert toy_taxonomy.shortest_path_len("A1", "B") == 3

    def test_unknown_concept(self, toy_taxonomy):
        with pytest.raises(UnknownConceptError):
            toy_taxonomy.shortest_path_len("A1", "nope")


class TestDepths:
    def test_toy(self, toy_taxonomy):
        info = toy_taxonomy.depth_info()
        assert info.max_depth == 2
        assert info.depths == {"root": 0, "A": 1, "B": 1, "A1": 2, "A2": 2}

    def test_single_node(self):
        t = Taxonomy.build([], concepts=["solo"])
        assert t.depth_info().max_depth == 0
        assert t.root == "solo"

    def test_chain(self):
        k = 7
        edges = [(f"n{i}", f"n{i - 1}") for i in range(1, k + 1)]
        t = Taxonomy.build(edges)
        assert t.depth_info().max_depth == k

    def test_multiple_inheritance_takes_longest_path(self):
        # s has a shallow parent (top) and a deep one (mid2)
        edges = [("mid1", "top"), ("mid2", "mid1"), ("s", "top"), ("s", "mid2")]
        t = Taxonomy.build(edges)
        assert t.depth_of("s") == 3


class TestSensesOf:
    def test_known_word(self, toy_taxonomy):
        assert toy_taxonomy.senses_of("x") == {"A1"}

    def test_case_normalized(self, toy_taxonomy):
        assert toy_taxonomy.senses_of("X") == {"A1"}

    def test_absent_word_is_empty_not_error(self, toy_taxonomy):
        assert toy_taxonomy.senses_of("unlisted") == frozenset()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_dags_validate_and_subsume(seed):
    rng = random.Random(seed)
    concepts, edges, senses, _ = helpers.random_instance(rng)
    t = Taxonomy.build(edges, senses, concepts=concepts)
    root = t.root
    oracle_anc = helpers.oracle_ancestors(concepts, edges)
    for c in concepts:
        subs = t.subsumers(c)
        assert c in subs
        assert root in subs
        assert subs == oracle_anc[c]
    for child, parent in edges:
        assert t.subsumers(parent) <= t.subsumers(child)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_dags_path_lengths_match_bfs_oracle(seed):
    rng = random.Random(seed)
    concepts, edges, _, _ = helpers.random_instance(rng, max_concepts=25)
    t = Taxonomy.build(edges, concepts=concepts)
    table = helpers.oracle_all_pairs_path_len(concepts, edges)
    for c1 in concepts:
        for c2 in concepts:
            assert t.shortest_path_len(c1, c2) == table[c1][c2]
            assert t.shortest_path_len(c1, c2) == t.shortest_path_len(c2, c1)
    # triangle inequality over sampled triples
    for _ in range(200):
        a, b, c = (rng.choice(concepts) for _ in range(3))
        assert table[a][c] <= table[a][b] + table[b][c]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_dags_path_limit_matches_bfs_oracle(seed):
    # the limited kernel returns None exactly when the true distance
    # exceeds the limit, the exact length otherwise, symmetrically
    rng = random.Random(seed)
    concepts, edges, _, _ = helpers.random_instance(rng, max_concepts=25)
    t = Taxonomy.build(edges, concepts=concepts)
    table = helpers.oracle_all_pairs_path_len(concepts, edges)
    index = {c: k for k, c in enumerate(t.concepts())}
    for c1 in concepts:
        for c2 in concepts:
            i, j = index[c1], index[c2]
            expected = table[c1][c2]
            assert t.path_len(i, j) == expected
            for limit in range(-1, expected + 2):
                got = t.path_len(i, j, limit)
                assert got == (None if expected > limit else expected)
                assert t.path_len(j, i, limit) == got


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_dags_depth_bounded_by_root_path(seed):
    rng = random.Random(seed)
    concepts, edges, _, _ = helpers.random_instance(rng, max_concepts=30)
    t = Taxonomy.build(edges, concepts=concepts)
    assert t.max_depth == helpers.oracle_max_depth(concepts, edges)
    for c in concepts:
        assert t.depth_of(c) >= t.shortest_path_len(t.root, c)
        assert t.depth_of(c) <= t.max_depth
