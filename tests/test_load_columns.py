"""Loading from files reads each file as two columns; the result must be
the same as building from the same pairs in memory."""

import io
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import _budget
from taxsim import FrequencyTable, ModelError, Taxonomy, TaxonomyError, load_counts, load_taxonomy
from taxsim.probability import _count_pattern, _count_problem
from taxsim.taxonomy import _index_columns, _parse_pair_columns

# Ids and words that survive a trip through a file: no tab or line end,
# not whitespace-only and not starting with "#", which would make the
# line blank or a comment.
ID_SUFFIXES = ["", "Σ", "\xa0x", "ß", " b", " "]
WORDS = ["dog", "Dog", " dog", "DOG ", "cat", "ΟΔΟΣ", "οδος", "İ", "straße", "x\xa0",
         "a b", "\x1fz"]
# lines the reader skips
SKIPPED = ["", "   ", "\t", "\xa0", "# comment", "  # indented\tcomment", "#\t#"]


def _observables(t: Taxonomy):
    return (
        t.concepts(),
        [sorted(t.parents_of(c)) for c in t.concepts()],
        [t.depth_of(c) for c in t.concepts()],
        t.max_depth,
        t.root,
        t.edge_count,
        {w: t.sense_indices(w) for w in t.words()},
    )


def _file_text(rng: random.Random, pairs, eol: str, bom: bool) -> str:
    lines = []
    for left, right in pairs:
        while rng.random() < 0.2:
            lines.append(rng.choice(SKIPPED))
        lines.append(f"{left}\t{right}")
    if rng.random() < 0.3:
        lines.append(rng.choice(SKIPPED))
    text = eol.join(lines) + (eol if rng.random() < 0.7 else "")
    return ("\ufeff" if bom else "") + text


@settings(max_examples=_budget(150), derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eol=st.sampled_from(["\n", "\r\n", "\r"]),
       bom=st.booleans())
def test_files_load_as_the_same_pairs_build(tmp_path_factory, seed, eol, bom):
    """A reader-agreement test: random edge, lexicon and counts files, with
    skipped lines, duplicates, any line ending and an optional BOM, must
    load as the taxonomy and counts table that the same pairs build."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    ids = [f"c{i}{rng.choice(ID_SUFFIXES)}" for i in range(n)]
    edges = [(ids[i], ids[p]) for i in range(1, n)
             for p in rng.sample(range(i), rng.randint(1, min(3, i)))]
    edges += rng.choices(edges, k=rng.randint(0, 3)) if edges else []  # duplicates
    rng.shuffle(edges)
    if not edges:
        edges = [(ids[0], "top")]
    ends = {c for edge in edges for c in edge}
    lexicon = [(rng.choice(WORDS), rng.choice(sorted(ends)))
               for _ in range(rng.randint(0, 15))]
    counts = [(rng.choice(WORDS + ["oov", "Oov "]), rng.randint(0, 1000))
              for _ in range(rng.randint(0, 15))]

    d = tmp_path_factory.mktemp("files")
    for name, pairs in (("e.tsv", edges), ("l.tsv", lexicon)):
        (d / name).write_bytes(_file_text(rng, pairs, eol, bom).encode("utf-8"))
    written = [(w, rng.choice(["-0", "00"]) if c == 0 else str(c)) for w, c in counts]
    (d / "c.tsv").write_bytes(_file_text(rng, written, eol, bom).encode("utf-8"))

    senses = {}
    for word, cid in lexicon:
        senses.setdefault(word, []).append(cid)
    assert _observables(load_taxonomy(d / "e.tsv", d / "l.tsv")) == \
        _observables(Taxonomy.build(edges, senses))

    raw = {}
    for word, count in counts:
        raw[word] = raw.get(word, 0) + count
    for stems in (None, {"dog", "oov"}):
        loaded = load_counts(d / "c.tsv", plural_stems=stems)
        built = FrequencyTable.from_counts(raw, plural_stems=stems)
        assert list(loaded.counts.items()) == list(built.counts.items())
        assert loaded.total_raw == built.total_raw


def _counts_or_error(data: bytes):
    try:
        words, counts = _parse_pair_columns(
            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig"), "c.tsv", ModelError,
            _count_pattern(), _count_problem)
    except ModelError as e:
        return str(e)
    merged = {}
    for word, count in zip(words, map(int, counts)):
        merged[word] = merged.get(word, 0) + count
    return merged


def _reference_counts_or_error(data: bytes):
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")
    try:
        return helpers.reference_count_lines(fh, "c.tsv", ModelError)
    except ModelError as e:
        return str(e)


@settings(max_examples=_budget(500), derandomize=True, database=None, deadline=None)
@given(text=st.text(
    alphabet=["x", "0", "7", "-", "+", "_", " ", "\t", "\n", "#", "٣", "\xa0"],
    max_size=30,
))
@example(text="x\t-0\ny\t-00\n")       # negative zeros are zero
@example(text="x\t-5\ny\tz\n")          # the first bad line is named
@example(text="x\tz\ny\t-5\n")
@example(text="x\t5\ny\t1\t2\nz\t-1\n")  # a malformed line before a bad count
@example(text="x\t-\n")
@example(text="x\t5-\n")
@example(text="x\t--0\n")
@example(text="x\t" + "9" * 4301 + "\ny\t-1\n")  # beyond int()'s digit limit
def test_count_reader_matches_line_by_line_reference(text):
    """A reader-agreement test: the counts reader must give the counts, or
    the error, of the line-by-line reference parser in
    ``tests/helpers.py``, on any text."""
    data = text.encode("utf-8")
    assert _counts_or_error(data) == _reference_counts_or_error(data)


def test_dangling_sense_named_in_file_order(tmp_path):
    # the first unknown id in the file is named; grouping the lexicon by
    # word first used to name "nope2", the later line of the earlier word
    edges = tmp_path / "e.tsv"
    edges.write_text("a\tr\n", encoding="utf-8")
    lexicon = tmp_path / "l.tsv"
    lexicon.write_text("w\ta\nv\tnope1\nw\tnope2\n", encoding="utf-8")
    with pytest.raises(TaxonomyError, match="word 'v' maps to unknown concept 'nope1'"):
        load_taxonomy(edges, lexicon)


def test_empty_word_named_before_a_later_dangling_id(tmp_path):
    edges = tmp_path / "e.tsv"
    edges.write_text("a\tr\n", encoding="utf-8")
    lexicon = tmp_path / "l.tsv"
    lexicon.write_text("w\ta\n \ta\nv\tnope\n", encoding="utf-8")
    with pytest.raises(TaxonomyError, match="empty word in lexicon"):
        load_taxonomy(edges, lexicon)
    lexicon.write_text("w\ta\nv\tnope\n \ta\n", encoding="utf-8")
    with pytest.raises(TaxonomyError, match="unknown concept 'nope'"):
        load_taxonomy(edges, lexicon)


def test_index_columns_consumes_its_lists():
    columns = [["a", "b", "c"], ["r", "a", "a"], ["Dog", " cat", "dog"], ["b", "c", "a"]]
    ids, index, parents, senses = _index_columns(*columns)
    assert columns == [[], [], [], []]
    assert ids == ("a", "r", "b", "c") and parents == [(1,), (), (0,), (0,)]
    assert senses == {"dog": (0, 2), "cat": (3,)}
    # a bad row is still named from the words and ids, which are emptied
    # only once they have been checked
    for words, sense_ids, match in [
        (["w", "v", " "], ["a", "nope", "a"], "word 'v' maps to unknown concept 'nope'"),
        (["w", " ", "v"], ["a", "a", "nope"], "empty word in lexicon"),
        (["w", "V", "u"], ["a", ["a"], "nope"], "invalid sense set for word 'v': unhashable"),
    ]:
        with pytest.raises(TaxonomyError, match=match):
            _index_columns(["a"], ["r"], words, sense_ids)


def test_comment_only_counts_file_is_empty(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("# nothing counted\n\n", encoding="utf-8")
    table = load_counts(path)
    assert table.counts == {} and table.total_raw == 0


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int() digits")
def test_count_digits_follow_the_runtime_limit(tmp_path):
    path = tmp_path / "c.tsv"
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        path.write_text("a\t1\nb\t" + "9" * 641 + "\n", encoding="utf-8")
        with pytest.raises(ModelError, match=r"c\.tsv:2: count too large \(641 digits\)$"):
            load_counts(path)
        path.write_text("a\t-" + "0" * 640 + "\n", encoding="utf-8")
        assert load_counts(path).counts == {"a": 0}
        sys.set_int_max_str_digits(0)
        path.write_text("a\t" + "9" * 5000 + "\n", encoding="utf-8")
        assert load_counts(path).counts == {"a": 10**5000 - 1}
    finally:
        sys.set_int_max_str_digits(limit)
