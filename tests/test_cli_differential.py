"""Differential test of the command line: random small taxonomies, with
diamonds, polysemy, a synthetic root, non-ASCII words and ids, and count
lines that repeat or fall outside the lexicon, are written to files and
run through ``main``; stdout, stderr, the exit code and every JSON row
must be what the brute-force oracles of ``tests/helpers.py`` predict,
formatted as the command line formats them.

This covers the file loaders that every command goes through: the line
parser, the index built from the columns, the counts table and the count
propagation."""

import contextlib
import io
import json
import random
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import _budget
from taxsim import SYNTHETIC_ROOT, WORD_MEASURES, EvaluationError, pearson
from taxsim.cli import main

# Each word's spellings in the input files; all of them are one word once
# stripped, lowercased and put in NFC.
SPELLINGS = {
    **{f"w{i}": [f"w{i}", f"W{i}", f" w{i} "] for i in range(6)},
    "caf\u00e9": ["caf\u00e9", "Cafe\u0301", " CAF\u00c9", "cafe\u0301 "],  # decomposed too
    "na\u00efve": ["na\u00efve", "nai\u0308ve", "NA\u00cfVE"],
    "straße": ["straße", "Straße"],
    "ωmega": ["ωmega", "ΩMEGA"],
}
UNLISTED = ["ghost", "Ünlisted"]


def _norm(word: str) -> str:
    return unicodedata.normalize("NFC", word.strip().lower())


def _instance(rng: random.Random):
    """The lines of an edge, a lexicon, a counts and a benchmark file,
    the words to query with ``sim``, and the flags."""
    n_roots = rng.choice([1, 1, 2, 3])  # more than one: a synthetic root above them
    n = rng.randint(2 * n_roots, 2 * n_roots + 10)
    ids = [f"{rng.choice('cçΩ')}{i}" for i in range(n)]
    edges = []
    for i in range(n_roots, n):
        # each root gets a child, so that it is in the edge file
        first = i - n_roots if i < 2 * n_roots else rng.randrange(i)
        more = rng.sample(range(i), min(i, rng.choice([0, 0, 1, 2])))  # diamonds
        edges += [(ids[i], ids[p]) for p in dict.fromkeys([first, *more])]
    rng.shuffle(edges)
    edge_lines = [f"{c}\t{p}" for c, p in edges]
    edge_lines.insert(rng.randrange(len(edge_lines) + 1), rng.choice(edge_lines))
    edge_lines.insert(rng.randrange(len(edge_lines) + 1), "# a comment")

    words = rng.sample(sorted(SPELLINGS), rng.randint(2, 7))
    lexicon_lines = [f"{rng.choice(SPELLINGS[w])}\t{c}" for w in words
                     for c in rng.sample(ids, rng.randint(1, min(3, n)))]  # polysemy
    rng.shuffle(lexicon_lines)

    count_lines = [(rng.choice(SPELLINGS[words[0]]), rng.randint(1, 30))]  # N > 0
    outside = UNLISTED + [f"{words[0]}s"] if rng.random() < 0.7 else []  # a plural too
    for w in words + outside:
        for _ in range(rng.choice([0, 1, 1, 2])):  # absent, once, or repeated
            count_lines.append((rng.choice(SPELLINGS.get(w, [w])), rng.randint(0, 30)))
    rng.shuffle(count_lines)

    def any_word():
        w = rng.choice(words * 4 + UNLISTED)
        return rng.choice(SPELLINGS.get(w, [w]))

    rows = [(any_word(), any_word(), rng.randint(0, 400) / 100) for _ in range(rng.randint(2, 9))]
    queries = [(any_word(), any_word()) for _ in range(3)]
    flags = ["--log-base", rng.choice(["2", "10", "2.5"]),
             "--lch-floor", rng.choice(["1", "0.5", "0.25"])]
    if rng.random() < 0.5:
        flags.append("--plural-fold")
    return edge_lines, lexicon_lines, count_lines, rows, queries, flags


class _Oracle:
    """What each command should print for one instance, from the lines
    written to its files."""

    def __init__(self, edge_lines, lexicon_lines, count_lines, flags):
        edges = [tuple(line.split("\t")) for line in edge_lines if not line.startswith("#")]
        self.order = list(dict.fromkeys(c for edge in edges for c in edge))
        self.edges = list(dict.fromkeys(edges))
        parentless = [c for c in self.order if c not in {child for child, _ in edges}]
        self.root = parentless[0]
        if len(parentless) > 1:
            self.root = SYNTHETIC_ROOT
            self.order.append(SYNTHETIC_ROOT)
            self.edges += [(c, SYNTHETIC_ROOT) for c in parentless]
        self.senses = {}
        for line in lexicon_lines:
            word, cid = line.split("\t")
            self.senses.setdefault(_norm(word), set()).add(cid)
        counts = {}
        for word, count in count_lines:
            key = _norm(word)
            if ("--plural-fold" in flags and key.endswith("s") and len(key) > 1
                    and key[:-1] in self.senses):
                key = key[:-1]
            counts[key] = counts.get(key, 0) + count
        self.freq = helpers.oracle_freq(self.order, self.edges, self.senses, counts)
        self.n = self.freq[self.root]
        total = sum(counts.values())
        dropped = total - self.n
        self.note = "" if not dropped else (
            f"note: {dropped / total:.2%} of the count mass ({dropped} of {total}) "
            "is dropped: its words are not in the lexicon\n")
        self.base = float(flags[flags.index("--log-base") + 1])
        self.floor = float(flags[flags.index("--lch-floor") + 1])

    def ic(self, c):
        return helpers.oracle_ic(self.freq[c], self.n, self.base)

    def validate(self):
        depth = helpers.oracle_max_depth(self.order, self.edges)
        return (f"{len(self.order)} concepts, {len(self.edges)} edges, "
                f"{len(self.senses)} words, MAX={depth}\n")

    def stats(self):
        return "".join(f"{c}\t{self.freq[c]}\t{self.freq[c] / self.n:.4f}\t{self.ic(c):.4f}\n"
                       for c in sorted(self.order))

    def score(self, measure, a, b):
        """(value, witness) of ``measure`` for the normalized words a, b."""
        args = (self.order, self.edges, self.senses)
        if measure == "edge":
            return helpers.oracle_edge_words(*args, a, b), None
        if measure == "lch":
            return helpers.oracle_lch_words(*args, a, b, self.base, self.floor), None
        value = ((lambda c: None if self.freq[c] == 0 else self.ic(c)) if measure == "resnik"
                 else (lambda c: 1.0 - self.freq[c] / self.n))
        best, witness, _ = helpers.oracle_best_subsumer(
            self.order, self.edges, (self.senses[a], self.senses[b]), value)
        return best, witness


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


@settings(max_examples=_budget(40), derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
def test_cli_matches_the_oracles(workdir, seed):
    rng = random.Random(seed)
    edge_lines, lexicon_lines, count_lines, rows, queries, flags = _instance(rng)
    paths = {kind: workdir / name for kind, name in (
        ("taxonomy", "taxonomy.tsv"), ("lexicon", "lexicon.tsv"),
        ("counts", "counts.tsv"), ("benchmark", "benchmark.csv"), ("json", "rows.jsonl"))}
    paths["taxonomy"].write_text("\n".join(edge_lines) + "\n", encoding="utf-8")
    paths["lexicon"].write_text("\n".join(lexicon_lines) + "\n", encoding="utf-8")
    paths["counts"].write_text("".join(f"{w}\t{c}\n" for w, c in count_lines),
                               encoding="utf-8")
    paths["benchmark"].write_text("word1,word2,rating\n" + "".join(
        f"{w1},{w2},{h}\n" for w1, w2, h in rows), encoding="utf-8")
    paths["json"].unlink(missing_ok=True)
    oracle = _Oracle(edge_lines, lexicon_lines, count_lines, flags)
    files = ["--taxonomy", str(paths["taxonomy"]), "--lexicon", str(paths["lexicon"])]
    counted = files + ["--counts", str(paths["counts"])] + flags

    assert _run(["validate"] + files) == (0, oracle.validate(), "")
    assert _run(["stats"] + counted) == (0, oracle.stats(), oracle.note)

    for w1, w2 in queries:
        a, b = _norm(w1), _norm(w2)
        if a not in oracle.senses or b not in oracle.senses:  # resnik runs first
            unknown = w1 if a not in oracle.senses else w2
            expected = (3, "", oracle.note + f"error: word not in taxonomy: {unknown!r}\n")
        else:
            lines = []
            for measure in WORD_MEASURES:
                value, witness = oracle.score(measure, a, b)
                lines.append(f"{a}\t{b}\t{measure}\t{value:.4f}\t{witness or '-'}\n")
            expected = (0, "".join(lines), oracle.note)
        assert _run(["sim", w1, w2] + counted) == expected

    code, out, err = _run(["eval", "--benchmark", str(paths["benchmark"]),
                           "--json-out", str(paths["json"])] + counted)
    stdout, json_rows, failure = [], [], None
    for measure in WORD_MEASURES:
        humans, scores, excluded = [], [], []
        for w1, w2, human in rows:
            a, b = _norm(w1), _norm(w2)
            missing = sorted({w for w in (a, b) if w not in oracle.senses})
            reason = "word not in taxonomy: " + ", ".join(missing) if missing else None
            score = None if missing else oracle.score(measure, a, b)[0]
            if missing:
                excluded.append(f"# excluded: {a},{b}\t{reason}\n")
            else:
                humans.append(human)
                scores.append(score)
            json_rows.append(json.dumps({"measure": measure, "pair": [a, b], "score": score,
                                         "included": not missing, "reason": reason},
                                        sort_keys=True))
        try:
            if len(humans) < 2:
                raise EvaluationError("fewer than 2 usable rows")
            r = pearson(humans, scores)
        except EvaluationError:  # exit 4 after the measures before it
            failure = measure
            break
        stdout += [f"{measure}\tr={r:.4f}\tn={len(humans)}\texcluded={len(excluded)}\n",
                   *excluded]
    assert out == "".join(stdout)
    if failure is None:
        assert (code, err) == (0, oracle.note)
        assert paths["json"].read_text(encoding="utf-8") == "\n".join(json_rows) + "\n"
    else:
        assert code == 4 and err.startswith(oracle.note + "error: ")
        assert not paths["json"].exists()
