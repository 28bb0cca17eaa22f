"""Taxonomy construction, validation, and graph queries."""

import io
import random
import sys
import threading
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import COIN_EDGES, DIAMOND_EDGES, DIAMOND_SENSES, TOY_EDGES, TOY_SENSES, _budget
from taxsim import (
    SYNTHETIC_ROOT,
    Taxonomy,
    TaxonomyError,
    UnknownConceptError,
    load_taxonomy,
    sim_edge,
    sim_lch,
)
from taxsim.taxonomy import _parse_pair_columns


class _UnhashableStr(str):
    __hash__ = None  # as for a str subclass that defines __eq__ alone


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
        with pytest.raises(TaxonomyError, match="^cycle detected: B -> C -> B$"):
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
        for edges in ([], [("a", "b")]):
            with pytest.raises(TaxonomyError, match="duplicate concept id: 'X'"):
                Taxonomy.build(edges, concepts=["a", "X", "X"])

    def test_extra_concept_overlapping_edge_is_idempotent(self):
        # declaring an edge end, even twice, is no duplicate
        for concepts in (["a"], ["a", "a"]):
            t = Taxonomy.build([("a", "b")], concepts=concepts)
            assert t.concepts() == ("a", "b")

    @pytest.mark.parametrize("edge, message", [
        ((1, ["x"]), "invalid concept id 1: "),
        ((["x"], 1), r"invalid edge \(\['x'\], 1\): unhashable type: 'list'"),
        (("", "a\tb"), "invalid concept id '': "),
        (("a\tb", None), r"invalid concept id 'a\\tb': "),
        ((None, ["x"]), "invalid concept id None: "),
    ], ids=["int-list", "list-int", "empty-tab", "tab-none", "none-list"])
    def test_edge_with_two_bad_ends_names_the_child(self, edge, message):
        with pytest.raises(TaxonomyError, match="^" + message):
            Taxonomy.build([("a", "r"), edge])

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

    @pytest.mark.parametrize("edges, concepts", [
        ([("", "r")], ()),
        ([("a", "")], ()),
        ([("a\tb", "r")], ()),  # would split the TSV columns of sim and stats
        ([(1, "r")], ()),
        ([("a", "r")], [""]),
        ([("a", "r")], ["a\tb"]),
        ([("a", "r")], [1]),
        ([("a", "r")], [_UnhashableStr("x")]),
    ], ids=["empty-child", "empty-parent", "tab", "int", "extra-empty", "extra-tab",
            "extra-int", "extra-unhashable-str"])
    def test_invalid_concept_id(self, edges, concepts):
        with pytest.raises(TaxonomyError, match="invalid concept id"):
            Taxonomy.build(edges, concepts=concepts)

    def test_non_string_word(self):
        # used to raise AttributeError from word.strip()
        with pytest.raises(TaxonomyError, match="lexicon word is not a string: 1"):
            Taxonomy.build([("a", "r")], {1: ["a"]})

    def test_string_sense_set_rejected(self):
        # a str used to iterate as one-letter ids: senses_of("w") == {"a", "b"}
        with pytest.raises(TaxonomyError, match="sense set for word 'w' is a string"):
            Taxonomy.build([("a", "r"), ("b", "r")], {"w": "ab"})

    @pytest.mark.parametrize("edges, senses, concepts, match", [
        ([(["a"], "r")], None, (), r"invalid edge \(\['a'\], 'r'\): unhashable"),
        ([("a", "r")], {"w": [["a"]]}, (), "invalid sense set for word 'w': unhashable"),
        ([("a", "r")], None, [["x"]], r"invalid concept id \['x'\]"),
        ([5], None, (), "invalid edge 5: cannot unpack"),
        ([(_UnhashableStr("a"), "r")], None, (), r"invalid edge \('a', 'r'\): unhashable"),
    ], ids=["edge-id", "sense-id", "extra-id", "edge-not-pair", "edge-unhashable-str"])
    def test_unhashable_id_or_non_pair_edge(self, edges, senses, concepts, match):
        # each used to raise a bare TypeError
        with pytest.raises(TaxonomyError, match=match):
            Taxonomy.build(edges, senses, concepts=concepts)

    @pytest.mark.parametrize("edges", [["ab"], [("a", "r"), "br"], [("a", "r"), "b"]],
                             ids=["only", "second", "one-letter"])
    def test_string_edge_rejected(self, edges):
        # "ab" used to unpack as the edge a -> b
        with pytest.raises(TaxonomyError, match="invalid edge '.*': a string"):
            Taxonomy.build(edges)

    @pytest.mark.parametrize("senses", [[("w", ["a"])], "wa", []], ids=["pairs", "str", "empty"])
    def test_non_mapping_senses_rejected(self, senses):
        # each but the empty list used to raise AttributeError from senses.items()
        kind = type(senses).__name__
        with pytest.raises(TaxonomyError, match=f"^senses is a {kind}, not a mapping of words"):
            Taxonomy.build([("a", "r")], senses)

    def test_string_concepts_rejected(self):
        # "xy" used to declare the concepts x and y
        with pytest.raises(TaxonomyError, match="concepts is a string"):
            Taxonomy.build([("a", "r")], concepts="xy")

    def test_edges_of_any_pair_type(self):
        edges = [["A", "root"], iter(("B", "root")), {"A1": 0, "A": 1}.keys(), ("A2", "A")]
        assert Taxonomy.build(edges).parents_of("A1") == {"A"}

    def test_duplicate_edges_idempotent(self, toy_taxonomy):
        t = Taxonomy.build(TOY_EDGES + TOY_EDGES, TOY_SENSES)
        assert t.edge_count == toy_taxonomy.edge_count
        assert t.subsumers("A1") == toy_taxonomy.subsumers("A1")


@settings(max_examples=100, deadline=None)
@given(senses=st.dictionaries(
    st.sampled_from(["dog", "Dog", " dog", "DOG\t", "cat", "Cat", "eel",
                     "caf\u00e9", "CAFE\u0301"]),
    st.lists(st.sampled_from(["a", "b", "c", "r"]), min_size=1, max_size=3),
))
def test_sense_map_independent_of_container_type(senses):
    edges = [("a", "r"), ("b", "r"), ("c", "a")]
    expected = {}
    for word, cids in senses.items():
        expected.setdefault(_nfc(word.strip().lower()), set()).update(cids)
    for make in (list, tuple, set, lambda cids: (c for c in cids)):
        t = Taxonomy.build(edges, {w: make(cids) for w, cids in senses.items()})
        assert {w: t.sense_indices(w) for w in t.words()} == {
            w: tuple(sorted(map(t.index_of, cids))) for w, cids in expected.items()
        }


_CASE_TRAPS = st.text(st.sampled_from(
    "İiIıΣσςΟΔẞßǅxeéÉ \t\n\u00a0\u2003\u0307\u0301"), max_size=6)


def _nfc(word: str) -> str:
    return unicodedata.normalize("NFC", word)


@settings(max_examples=300, deadline=None)
@given(lexicon=st.lists(_CASE_TRAPS, max_size=6), word=_CASE_TRAPS)
@example(lexicon=["ΟΔΟΣ"], word=" ΟΔΟΣ")  # final sigma: "οδος"
@example(lexicon=["İ"], word="i\u0307")   # "İ".lower() is two code points
@example(lexicon=["caf\u00e9"], word="CAFE\u0301")  # é composed and decomposed
def test_sense_lookup_as_given_matches_normalized(lexicon, word):
    # sense_indices tries a word as given before normalizing it, which is
    # sound only if every stored word is unchanged by strip(), lower() and NFC
    keys = [k for k in lexicon + [word] if k.strip().lower()]
    t = Taxonomy.build([("a", "r"), ("b", "r")],
                       {k: ["a" if n % 2 else "b"] for n, k in enumerate(keys)})
    assert all(_nfc(w.strip().lower()) == w for w in t.words())
    for probe in (word, word.upper(), word.lower(), f" {word}\t", word.strip().lower(),
                  unicodedata.normalize("NFD", word)):
        assert t.sense_indices(probe) == t.sense_indices(_nfc(probe.strip().lower()))


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


def _parsed(data: bytes):
    """The (left, right) rows that the column reader returns for a file
    holding ``data``, or the message of the error it raises."""
    try:
        left, right = _parse_pair_columns(
            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig"), "f.tsv")
    except TaxonomyError as e:
        return str(e)
    return list(zip(left, right))


def _reference_parsed(data: bytes):
    """The same from the line-by-line reference parser."""
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")
    try:
        return [(left, right) for _, left, right
                in helpers.reference_parse_pair_lines(fh, "f.tsv", TaxonomyError)]
    except TaxonomyError as e:
        return str(e)


@settings(max_examples=_budget(500), derandomize=True, database=None, deadline=None)
@given(text=st.text(
    alphabet=["a", "b", "#", " ", "\t", "\r", "\n", "\x0b", "\x1f", "\xa0", "\u2028"],
    max_size=40,
))
@example(text="  # indented comment\na\tb\n")
@example(text="\n   \n\t\na\tb")
@example(text="a\tb\r\nc\td\r\n")
@example(text="a\tb\t\n")
@example(text="a\tb\tc\n")
@example(text="\ufeffa\tb\n \tb\na\t \n")
def test_parser_matches_line_by_line_reference(text):
    """A reader-agreement test: the file reader's line parser must give
    the pairs, or the error, of the line-by-line reference parser in
    ``tests/helpers.py``, on any text."""
    data = text.encode("utf-8")
    assert _parsed(data) == _reference_parsed(data)


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

    @pytest.mark.parametrize("edges, c1, c2, length", [
        # v is the one concept with two parents: a1-b1 is 2 via v, not 4 via r
        ([("a", "r"), ("a1", "a"), ("b", "r"), ("b1", "b"), ("v", "a1"), ("v", "b1")],
         "a1", "b1", 2),
        # x's two parents make r and b valleys, but nothing under a is one:
        # only the far end's ancestors lead the search down to a2 or b1
        ([("a", "r"), ("a1", "a"), ("a2", "a1"), ("b", "r"), ("b1", "b"),
          ("x", "r"), ("x", "b")], "b1", "a2", 5),
        # no valley at all: the only route runs over the root
        ([("a", "r"), ("b", "r")], "a", "b", 2),
        # no valley: each side steps down only onto the other's chain, so
        # whichever side holds r when the frontiers tie finds the way down
        ([("c", "r"), ("a", "c"), ("b", "r")], "a", "b", 3),
    ], ids=["turn-at-valley", "far-end-under-no-valley", "root-only", "both-chains"])
    def test_pruned_down_moves_keep_every_shortest_path(self, edges, c1, c2, length):
        t = Taxonomy.build(edges)
        for x, y in ((c1, c2), (c2, c1)):
            i, j = t.index_of(x), t.index_of(y)
            assert t.shortest_path_len(x, y) == t.path_len(i, j) == length
            assert t.path_len(i, j, length - 1) is None
            assert t.path_len(i, j, length) == length

    @pytest.mark.parametrize("edges, s1, s2, length", [
        # a concept on both sides: 0, whatever else either side holds
        ([("a", "r"), ("b", "r"), ("a1", "a")], ("a1", "b"), ("r", "b"), 0),
        # c and a on one chain: their chains merge at b, and the walk from a
        # stops at r, which the walk from c listed already
        ([("a", "r"), ("b", "a"), ("c", "b"), ("x", "r")], ("c", "a"), ("x",), 2),
        ([("a", "r"), ("b", "a"), ("c", "b"), ("x", "r")], ("c", "a", "c"), ("b",), 1),
        # no valley: the side holding r steps down onto a1's and a2's
        # merged chains, or onto b1's
        ([("a", "r"), ("a1", "a"), ("a2", "a"), ("b", "r"), ("b1", "b")],
         ("a1", "a2"), ("b1",), 4),
        # a valley under one start: the nearer pair goes through v
        ([("a", "r"), ("a1", "a"), ("b", "r"), ("b1", "b"), ("v", "a1"), ("v", "b1")],
         ("a", "b1"), ("a1", "r"), 1),
    ], ids=["overlap", "nested-on-one-chain", "nested-next-to-the-other-end",
            "chains-under-no-valley", "beside-a-valley"])
    def test_nearest_path_len_of_hand_built_sets(self, edges, s1, s2, length):
        t = Taxonomy.build(edges)
        ids = t.concepts()
        assert length == min(helpers.oracle_path_len(ids, edges, c1, c2)
                             for c1 in s1 for c2 in s2)
        for x, y in ((s1, s2), (s2, s1)):
            i, j = [t.index_of(c) for c in x], tuple(map(t.index_of, y))
            assert t.nearest_path_len(i, j) == length
            assert t.nearest_path_len(i, j, length - 1) is None
            assert t.nearest_path_len(i, j, length) == length


class TestDepths:
    def test_toy(self, toy_taxonomy):
        t = toy_taxonomy
        assert t.max_depth == 2
        assert {cid: t.depth_of(cid) for cid in t.concepts()} == {
            "root": 0, "A": 1, "B": 1, "A1": 2, "A2": 2,
        }

    def test_single_node(self):
        t = Taxonomy.build([], concepts=["solo"])
        assert t.max_depth == 0
        assert t.root == "solo"

    @pytest.mark.parametrize("k", [7, 5000])
    def test_chain(self, k):
        # listed deepest-first, so the walk from index 0 climbs the whole
        # chain: deeper than Python's recursion limit at 5,000
        edges = [(f"n{i}", f"n{i - 1}") for i in range(k, 0, -1)]
        t = Taxonomy.build(edges)
        assert t.max_depth == k
        assert [t.depth_of(f"n{i}") for i in range(k + 1)] == list(range(k + 1))
        assert t.topological_order == tuple(range(k, -1, -1))

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

    @pytest.mark.parametrize("word", [5, None, 1.5, ("x",), ["x"]],
                             ids=["int", "none", "float", "tuple", "list"])
    def test_non_string_word_is_absent(self, toy_taxonomy, word):
        assert toy_taxonomy.sense_indices(word) == ()
        assert toy_taxonomy.senses_of(word) == frozenset()


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


@settings(max_examples=_budget(30), derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_dags_path_lengths_match_bfs_oracle(seed):
    """``path_len``, which steps down only into valleys and, from each
    side, along the other side's one-parent chains (a start and the
    concepts above it up to the first with no parent or two or more),
    must give the one-sided deque BFS oracle's length for every pair of
    a random DAG, in both argument orders."""
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


@settings(max_examples=_budget(30), derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_dags_path_limit_matches_bfs_oracle(seed):
    """``path_len`` with every limit from -1 to one past the length, held
    to the one-sided deque BFS oracle: None exactly when the true
    distance exceeds the limit, the exact length otherwise, in both
    argument orders."""
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


@settings(max_examples=_budget(30), derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_random_dags_nearest_path_len_matches_the_oracle(seed, sparse):
    """``nearest_path_len``, one search from every index of two sequences,
    must give the least deque-BFS length over their pairs, and None
    exactly when that exceeds the limit, every limit included; the
    sequences may overlap, repeat an index or hold two indices of one
    chain.  ``word_similarity``'s edge and lch sense pair must be the
    oracle's, the first pair in sorted order that has that length, for
    words of 2-4 senses."""
    rng = random.Random(seed)
    if sparse:
        concepts, edges, senses = helpers.random_sparse_instance(rng, max_concepts=30)
    else:
        concepts, edges, senses, _ = helpers.random_instance(rng, max_concepts=25)
    senses.update((f"poly{k}", set(rng.sample(concepts, min(len(concepts), rng.randint(2, 4)))))
                  for k in range(4))
    t = Taxonomy.build(edges, senses, concepts=concepts)
    ids = t.concepts()
    table = helpers.oracle_all_pairs_path_len(concepts, edges)
    for _ in range(30):
        s1, s2 = ([rng.randrange(len(ids)) for _ in range(rng.randint(1, 4))] for _ in "ab")
        expected = min(table[ids[i]][ids[j]] for i in s1 for j in s2)
        assert t.nearest_path_len(s1, s2) == t.nearest_path_len(s2, s1) == expected
        for limit in range(-1, expected + 2):
            assert t.nearest_path_len(s1, s2, limit) == (None if expected > limit else expected)
    for w1 in senses:
        for w2 in senses:
            if t.max_depth >= 1 and max(len(senses[w1]), len(senses[w2])) >= 2:
                pair = helpers.oracle_min_sense_pair(ids, edges, senses, w1, w2)
                assert sim_edge(t, w1, w2).sense_pair == sim_lch(t, w1, w2).sense_pair == pair


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


@settings(max_examples=_budget(60), derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_down_lists_match_the_closure(seed, sparse):
    """``path_len``'s down lists, each valley listed once under each of
    its parents, and the closure-free load's depths and order must be the
    oracles', on dense and on mostly-tree random DAGs.  The down lists
    come from one walk up from the concepts with two or more parents, and
    the depths from one memoised walk up the parent lists; the oracles
    take the valleys, every ancestor-or-self of a concept with two or
    more parents, from the fixpoint closure, and the depths by
    recursion."""
    rng = random.Random(seed)
    if sparse:
        concepts, edges, _ = helpers.random_sparse_instance(rng)
    else:
        concepts, edges, _, _ = helpers.random_instance(rng)
    t = Taxonomy.build(edges, concepts=concepts)
    ids = t.concepts()
    valleys = helpers.oracle_valleys(concepts, edges)
    parents = helpers.oracle_parents(concepts, edges)
    # each concept lists every valley among its children once, and nothing else
    assert [sorted(ids[v] for v in t._down[p]) for p in range(t.concept_count)] == [
        sorted(v for v in valleys if c in parents[v]) for c in ids]
    assert [{ids[p] for p in ps} for ps in t.parents_by_index] == [parents[c] for c in ids]
    depths = helpers.oracle_depths(concepts, edges)
    assert [t.depth_of(c) for c in ids] == [depths[c] for c in ids]
    assert t.topological_order == tuple(
        sorted(range(t.concept_count), key=lambda i: depths[ids[i]]))
    position = {i: k for k, i in enumerate(t.topological_order)}
    assert sorted(position) == list(range(t.concept_count))
    for i, ps in enumerate(t.parents_by_index):
        assert all(position[p] < position[i] for p in ps)


@settings(max_examples=_budget(200), derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
def test_cycle_message_matches_the_oracle(seed):
    """The depth walk, the only cycle check, must name the loop the oracle
    finds, on random graphs that may close cycles: the loop reached from
    the smallest index that reaches a cycle, through the first parent
    that reaches one at each step."""
    rng = random.Random(seed)
    edges = helpers.random_edges_with_cycles(rng)
    order = list(dict.fromkeys(c for edge in edges for c in edge))  # index order
    expected = helpers.oracle_cycle_message(order, edges)
    if expected is None:
        assert Taxonomy.build(edges).concepts()[:len(order)] == tuple(order)
        return
    with pytest.raises(TaxonomyError) as raised:
        Taxonomy.build(edges)
    assert str(raised.value) == expected


@settings(max_examples=_budget(60), derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_ancestor_tuples_match_the_closure_in_order(seed, sparse):
    """The memo's ancestor tuples, held to the oracles' fixpoint closure:
    each stored tuple holds the closure once, root first, each member
    after its parents and the concept last, whatever the order the
    queries miss in (a parent built before its child takes the one-parent
    path, a cold concept the walk from it)."""
    rng = random.Random(seed)
    if sparse:
        concepts, edges, _ = helpers.random_sparse_instance(rng)
    else:
        concepts, edges, _, _ = helpers.random_instance(rng)
    t = Taxonomy.build(edges, concepts=concepts)
    ids = t.concepts()
    closure = helpers.oracle_ancestors(concepts, edges)
    parents = helpers.oracle_parents(concepts, edges)
    root = t.index_of(helpers.oracle_root(concepts, edges))
    misses = list(range(t.concept_count))
    rng.shuffle(misses)
    for i in misses:
        anc = t.ancestor_indices(i)
        assert type(anc) is tuple
        assert len(set(anc)) == len(anc)
        assert {ids[a] for a in anc} == closure[ids[i]]
        assert anc[0] == root and anc[-1] == i
        position = {ids[a]: k for k, a in enumerate(anc)}
        for k, a in enumerate(anc):
            assert all(position[p] < k for p in parents[ids[a]] if p in position)
    assert all(t.ancestor_indices(i) is anc for i, anc in enumerate(t._ancestors))


def _built(t):
    """The concepts whose ancestor sets ``t`` has built; the memo list
    itself is made on the first miss."""
    return {c for c, anc in zip(t.concepts(), t._ancestors or ()) if anc is not None}


class TestAncestorMemo:
    def test_load_builds_no_ancestor_set(self, toy_files):
        t = load_taxonomy(toy_files["taxonomy"], toy_files["lexicon"])
        assert _built(t) == set()
        assert t.concept_count == 5

    def test_a_set_is_built_with_its_ancestors_and_kept(self):
        t = Taxonomy.build(DIAMOND_EDGES, DIAMOND_SENSES)
        anc = helpers.oracle_ancestors(t.concepts(), DIAMOND_EDGES)
        first = t.ancestor_indices(t.index_of("M"))
        assert _built(t) == anc["M"] == {"M", "top"}
        d = t.ancestor_indices(t.index_of("D"))  # builds E, reads M and top
        assert _built(t) == anc["D"]
        assert {t.concepts()[a] for a in d} == anc["D"]
        assert t.ancestor_indices(t.index_of("M")) is first
        assert all(type(a) is tuple for a in t._ancestors if a is not None)
        assert [t.concepts()[a] for a in d] == ["top", "M", "E", "D"]  # parents merged in order

    def test_a_child_of_a_built_parent_extends_the_parent_tuple(self):
        t = Taxonomy.build(COIN_EDGES)
        coin = t.ancestor_indices(t.index_of("coin"))
        built = _built(t)
        nickel = t.ancestor_indices(t.index_of("nickel"))  # one parent, already built
        assert _built(t) == built | {"nickel"}
        assert type(nickel) is tuple
        assert nickel == coin + (t.index_of("nickel"),)
        assert [t.concepts()[a] for a in nickel] == [
            "thing", "medium_of_exchange", "money", "cash", "coin", "nickel"]

    def test_structural_queries_build_no_ancestor_tuple(self):
        # the path search steps down along the far end's one-parent chain,
        # not through its ancestor set, so edge and lch build no tuple;
        # cow_s's second parent makes drug and its ancestors valleys
        t = Taxonomy.build(helpers.DRUG_EDGES + [("cow_s", "drug")], helpers.DRUG_SENSES)
        n = t.concept_count
        for i in range(n):
            for j in range(n):
                d = t.path_len(i, j)
                assert t.path_len(i, j, d) == d and t.path_len(i, j, d - 1) is None
        ids = t.concepts()
        assert t.shortest_path_len(ids[0], ids[-1]) == t.path_len(0, n - 1)
        for w1 in helpers.DRUG_SENSES:
            for w2 in helpers.DRUG_SENSES:
                sim_edge(t, w1, w2)
                sim_lch(t, w1, w2)
        assert t._ancestors is None

    def test_threads_racing_on_a_fresh_taxonomy_agree_with_one_thread(self):
        # a lost or torn update of the ancestor memo would show as a wrong
        # set in some thread; the path searches, which keep nothing between
        # calls, run while the memo fills
        rng = random.Random(5)
        edges = []
        for i in range(1, 2000):
            k = 2 if i > 1 and rng.random() < 0.1 else 1
            edges += [(f"c{i}", f"c{p}") for p in rng.sample(range(i), k)]
        pairs = [(rng.randrange(2000), rng.randrange(2000)) for _ in range(100)]
        reference = Taxonomy.build(edges)
        ids = reference.concepts()
        want_subs = [reference.subsumers(c) for c in ids]
        want_paths = [reference.path_len(i, j) for i, j in pairs]

        t = Taxonomy.build(edges)
        start = threading.Barrier(4)
        results = [None] * 4

        def work(k):
            order = list(range(len(ids)))
            random.Random(k).shuffle(order)  # each thread misses in its own order
            start.wait()
            subs = [None] * len(ids)
            for i in order:
                subs[i] = t.subsumers(ids[i])
            results[k] = subs, [t.path_len(i, j) for i, j in pairs]

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
        for subs, paths in results:
            assert subs == want_subs
            assert paths == want_paths
        assert [{ids[a] for a in t.ancestor_indices(i)} for i in range(len(ids))] == want_subs
