"""Shared fixtures data, random-instance generators, the Hypothesis
budget, and brute-force oracles.

The oracles work from the raw edge/sense/count data with their own naive
algorithms (fixpoint ancestor closure, deque BFS, recursive depth) and
never call the production graph code, so agreement is a genuine
cross-check rather than a tautology.
"""

from __future__ import annotations

import math
import random
from collections import deque
from numbers import Real

from hypothesis import settings

from taxsim import EvaluationError, pearson


def _budget(examples: int) -> int:
    """``examples``, scaled by the loaded profile's ``max_examples`` over
    Hypothesis's default of 100."""
    return examples * settings.default.max_examples // 100


# ----------------------------------------------------------------------
# hand-checked fixture data
# ----------------------------------------------------------------------

# 5-concept toy: root -> {A, B}, A -> {A1, A2}; words x, y, z.
TOY_EDGES = [("A", "root"), ("B", "root"), ("A1", "A"), ("A2", "A")]
TOY_SENSES = {"x": {"A1"}, "y": {"A2"}, "z": {"B"}}
TOY_COUNTS = {"x": 2, "y": 1, "z": 1}

# diamond: D inherits from both M and E, which share one top node
DIAMOND_EDGES = [("D", "M"), ("D", "E"), ("M", "top"), ("E", "top")]
DIAMOND_SENSES = {"q": {"D"}}
DIAMOND_COUNTS = {"q": 5}

# currency fragment: nickel/dime meet at coin, nickel/credit card only at
# medium_of_exchange; counts make every level strictly more informative
# than its parent (ic2: coin=3, cash=2, medium_of_exchange=1, thing=0)
COIN_EDGES = [
    ("nickel", "coin"),
    ("dime", "coin"),
    ("coin", "cash"),
    ("note", "cash"),
    ("cash", "money"),
    ("money", "medium_of_exchange"),
    ("credit_card", "medium_of_exchange"),
    ("medium_of_exchange", "thing"),
    ("rock", "thing"),
]
COIN_SENSES = {
    "nickel": {"nickel"},
    "dime": {"dime"},
    "bill": {"note"},
    "card": {"credit_card"},
    "stone": {"rock"},
}
COIN_COUNTS = {"nickel": 1, "dime": 1, "bill": 2, "card": 4, "stone": 8}

# substance fragment where a slang sense wins: "horse" has an animal
# sense and a narcotic sense, so tobacco/horse meet at narcotic, deeper
# than tobacco/alcohol at drug and tobacco/sugar at substance
# (ic2: narcotic=log2(32/6), drug=2, substance=1)
DRUG_EDGES = [
    ("substance", "entity"),
    ("organism", "entity"),
    ("drug", "substance"),
    ("narcotic", "drug"),
    ("alcohol_s", "drug"),
    ("tobacco_s", "narcotic"),
    ("heroin_s", "narcotic"),
    ("sugar_s", "substance"),
    ("horse_s", "organism"),
    ("cow_s", "organism"),
]
DRUG_SENSES = {
    "tobacco": {"tobacco_s"},
    "alcohol": {"alcohol_s"},
    "sugar": {"sugar_s"},
    "horse": {"horse_s", "heroin_s"},
    "cow": {"cow_s"},
}
DRUG_COUNTS = {"tobacco": 2, "alcohol": 2, "sugar": 8, "horse": 4, "cow": 16}


def write_toy_files(directory):
    """Write the toy taxonomy, lexicon, counts and a 3-row benchmark into
    ``directory``; returns their paths by kind."""
    paths = {
        "taxonomy": directory / "taxonomy.tsv",
        "lexicon": directory / "lexicon.tsv",
        "counts": directory / "counts.tsv",
        "benchmark": directory / "benchmark.csv",
    }
    paths["taxonomy"].write_text(
        "".join(f"{c}\t{p}\n" for c, p in TOY_EDGES), encoding="utf-8"
    )
    paths["lexicon"].write_text(
        "".join(
            f"{w}\t{c}\n" for w, cs in sorted(TOY_SENSES.items()) for c in sorted(cs)
        ),
        encoding="utf-8",
    )
    paths["counts"].write_text(
        "".join(f"{w}\t{n}\n" for w, n in sorted(TOY_COUNTS.items())),
        encoding="utf-8",
    )
    paths["benchmark"].write_text(
        "word1,word2,rating\nx,y,3.5\nx,z,0.5\nx,unlisted,1.0\n", encoding="utf-8"
    )
    return paths


# ----------------------------------------------------------------------
# random instances
# ----------------------------------------------------------------------


def random_instance(rng: random.Random, max_concepts: int = 50,
                    max_words: int = 30, max_count: int = 100):
    """A random DAG taxonomy with diamonds and polysemy.

    Returns (concepts, edges, senses, counts).  Concept c0 is the unique
    parentless node; each later node picks 1-3 earlier parents, so
    multiple inheritance and diamond shapes occur routinely.  Words have
    1-3 senses; w0 always carries a positive count so N > 0.
    """
    n = rng.randint(1, max_concepts)
    concepts = [f"c{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        for p in rng.sample(range(i), rng.randint(1, min(3, i))):
            edges.append((concepts[i], concepts[p]))
    senses = {}
    counts = {}
    for w in range(rng.randint(1, max_words)):
        word = f"w{w}"
        picks = rng.sample(range(n), rng.randint(1, min(3, n)))
        senses[word] = {concepts[i] for i in picks}
        counts[word] = rng.randint(0, max_count)
    counts["w0"] = max(1, counts["w0"])
    return concepts, edges, senses, counts


def random_sparse_instance(rng: random.Random, max_concepts: int = 60,
                           two_parent_rate: float = 0.08, max_words: int = 12):
    """A random taxonomy shaped like a WordNet-scale one: mostly a tree.

    Returns (concepts, edges, senses).  Concept c0 is the root; each later
    node picks one earlier parent, or two with probability
    ``two_parent_rate``, so most concepts are no ancestor of any
    two-parent concept.  Words have 1-3 senses.
    """
    n = rng.randint(2, max_concepts)
    concepts = [f"c{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        k = 2 if i > 1 and rng.random() < two_parent_rate else 1
        edges += [(concepts[i], concepts[p]) for p in rng.sample(range(i), k)]
    senses = {
        f"w{w}": set(rng.sample(concepts, rng.randint(1, min(3, n))))
        for w in range(rng.randint(1, max_words))
    }
    return concepts, edges, senses


def random_edges_with_cycles(rng: random.Random, max_concepts: int = 16):
    """Random ``(child, parent)`` edges, listed in random order, that may
    close cycles: each concept c1, c2, ... picks 1-2 parents, each an
    earlier concept, or with a rate drawn per instance (0.05 to 0.4) any
    concept, itself included.  The list is never empty."""
    n = rng.randint(2, max_concepts)
    back_rate = rng.choice([0.05, 0.15, 0.4])
    edges = sorted({
        (f"c{i}", f"c{rng.randrange(n) if rng.random() < back_rate else rng.randrange(i)}")
        for i in range(1, n) for _ in range(rng.randint(1, 2))
    })
    rng.shuffle(edges)
    return edges


def random_tied_instance(rng: random.Random, max_concepts: int = 40, max_words: int = 20):
    """A random DAG taxonomy whose frequencies, ic and 1 - p tie often.

    Returns (concepts, edges, senses, counts), shaped as
    :func:`random_instance`'s.  Half of the concepts after c0 hang under
    the concept just before them alone, so chains of one-child concepts
    without words of their own pass all their mass up unchanged (equal
    frequencies); the rest pick 1-2 earlier parents.  Senses sit on the
    second half of the concepts, and about 40% of the words are counted
    0, so subtrees of zero frequency hold the senses of several words,
    which then share a zero-frequency subsumer.  One instance in three
    adds two words of counts near 2**60: N then exceeds 2**61, every
    small frequency has ``1 - p`` = 1.0, as the zero-frequency concepts
    do, and frequencies that differ by a few share one p, so one ic and
    one ``1 - p``.  w0 always carries a positive count, so N > 0.
    """
    n = rng.randint(2, max_concepts)
    concepts = [f"c{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        if rng.random() < 0.5:
            parents = [i - 1]
        else:
            parents = rng.sample(range(i), rng.randint(1, min(2, i)))
        edges += [(concepts[i], concepts[p]) for p in parents]
    deep = concepts[n // 2:]
    senses, counts = {}, {}
    for w in range(rng.randint(1, max_words)):
        word = f"w{w}"
        senses[word] = set(rng.sample(deep, rng.randint(1, min(2, len(deep)))))
        counts[word] = 0 if rng.random() < 0.4 else rng.randint(1, 3)
    counts["w0"] = max(1, counts["w0"])
    if rng.random() < 1 / 3:
        for word in ("huge0", "huge1"):
            senses[word] = {rng.choice(concepts)}
            counts[word] = 2**60 + rng.randint(0, 3)
    return concepts, edges, senses, counts


def random_tied_instances(seed: int = 20261020, count: int = 200):
    """The fixed, seeded sequence of :func:`random_tied_instance` DAGs."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_tied_instance(rng)


#: Size of the fixed random-DAG suite the oracle tests share.
N_RANDOM_INSTANCES = 200


def random_instances(seed: int = 20240101, count: int = N_RANDOM_INSTANCES):
    """The fixed, seeded sequence of random instances behind the oracle
    suites."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_instance(rng)


# ----------------------------------------------------------------------
# brute-force oracles
# ----------------------------------------------------------------------


def reference_parse_pair_lines(lines, label, error):
    """The line-by-line ``left<TAB>right`` parser that the whole-file
    ``taxonomy._parse_pair_columns`` must agree with on valid UTF-8."""
    try:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise error(
                    f"{label}:{lineno}: expected 2 tab-separated fields, got {len(fields)}"
                )
            left, right = fields
            if not left or not right:
                raise error(f"{label}:{lineno}: empty field")
            yield lineno, left, right
    except UnicodeDecodeError:
        raise error(f"{label}: not valid UTF-8") from None


def reference_count_lines(lines, label, error):
    """The line-by-line ``word<TAB>count`` reader: raw word -> summed
    count, in order of first appearance, which ``probability.load_counts``
    must agree with, error messages included."""
    counts = {}
    for lineno, word, field in reference_parse_pair_lines(lines, label, error):
        digits = field.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise error(f"{label}:{lineno}: malformed count {field!r}")
        try:
            count = int(field)
        except ValueError:
            raise error(f"{label}:{lineno}: count too large ({len(digits)} digits)") from None
        if count < 0:
            raise error(f"{label}:{lineno}: negative count {count}")
        counts[word] = counts.get(word, 0) + count
    return counts


def oracle_parents(concepts, edges):
    parents = {c: set() for c in concepts}
    for child, parent in edges:
        parents[child].add(parent)
    return parents


def oracle_root(concepts, edges):
    have_parent = {child for child, _ in edges}
    roots = [c for c in concepts if c not in have_parent]
    assert len(roots) == 1, f"expected a unique parentless concept, got {roots}"
    return roots[0]


def oracle_ancestors(concepts, edges):
    """Reflexive ancestor sets by fixpoint iteration."""
    parents = oracle_parents(concepts, edges)
    anc = {c: {c} for c in concepts}
    changed = True
    while changed:
        changed = False
        for c in concepts:
            for p in parents[c]:
                missing = anc[p] - anc[c]
                if missing:
                    anc[c] |= missing
                    changed = True
    return anc


def oracle_valleys(concepts, edges):
    """The valleys: every ancestor-or-self of a concept with two or more
    parents, from the fixpoint closure."""
    parents = oracle_parents(concepts, edges)
    anc = oracle_ancestors(concepts, edges)
    return set().union(*(anc[c] for c in concepts if len(parents[c]) > 1))


def oracle_freq(concepts, edges, senses, counts):
    """freq(c) by enumerating every word and testing subsumption against
    independently computed ancestor sets."""
    anc = oracle_ancestors(concepts, edges)
    freq = {}
    for c in concepts:
        total = 0
        for word, count in counts.items():
            if word in senses and any(c in anc[s] for s in senses[word]):
                total += count
        freq[c] = total
    return freq


def oracle_ic(freq: int, n_total: int, base: float) -> float:
    if freq == 0:
        return math.inf
    if freq / n_total == 0.0:  # underflowed: take the logs of the ints
        return (math.log(n_total) - math.log(freq)) / math.log(base)
    return 0.0 - math.log(freq / n_total) / math.log(base)


def oracle_path_len(concepts, edges, c1, c2):
    """Shortest undirected path by deque BFS over a fresh adjacency map."""
    adjacency = {c: set() for c in concepts}
    for child, parent in edges:
        adjacency[child].add(parent)
        adjacency[parent].add(child)
    if c1 == c2:
        return 0
    seen = {c1}
    queue = deque([(c1, 0)])
    while queue:
        node, dist = queue.popleft()
        for nxt in adjacency[node]:
            if nxt == c2:
                return dist + 1
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, dist + 1))
    return None


def oracle_all_pairs_path_len(concepts, edges):
    return {
        c1: {c2: oracle_path_len(concepts, edges, c1, c2) for c2 in concepts}
        for c1 in concepts
    }


def oracle_depths(concepts, edges):
    """Longest root-to-node path of every concept, by memoized recursion
    over parents."""
    parents = oracle_parents(concepts, edges)
    memo = {}

    def depth(c):
        if c not in memo:
            memo[c] = 0 if not parents[c] else 1 + max(depth(p) for p in parents[c])
        return memo[c]

    return {c: depth(c) for c in concepts}


def oracle_max_depth(concepts, edges):
    return max(oracle_depths(concepts, edges).values())


def oracle_cycle_message(order, edges):
    """The ``cycle detected: ...`` message a build of ``edges`` raises, or
    None if they close no cycle.

    ``order`` is the taxonomy's concept index order.  The loop named is
    the one a walk reaches from the smallest index that reaches a cycle,
    stepping each time to the first parent, in index order, that reaches
    one, until it comes back to a concept it has passed; which concepts
    reach a cycle comes from the fixpoint closure.
    """
    anc = oracle_ancestors(order, edges)
    parents = oracle_parents(order, edges)
    on_cycle = {c for c in order if any(c in anc[p] for p in parents[c])}
    reaches = [c for c in order if anc[c] & on_cycle]
    if not reaches:
        return None
    rank = {c: k for k, c in enumerate(order)}
    path, cur = [], reaches[0]
    while cur not in path:
        path.append(cur)
        cur = min((p for p in parents[cur] if anc[p] & on_cycle), key=rank.__getitem__)
    return "cycle detected: " + " -> ".join(path[path.index(cur):] + [cur])


def oracle_min_sense_path(concepts, edges, senses, w1, w2):
    return min(
        oracle_path_len(concepts, edges, c1, c2)
        for c1 in senses[w1]
        for c2 in senses[w2]
    )


def oracle_min_sense_pair(order, edges, senses, w1, w2):
    """The first sense pair, in ``order`` (the taxonomy's concept index
    order, as :meth:`Taxonomy.concepts` returns it), whose deque-BFS path
    length is the minimum over all sense pairs of the two words."""
    rank = {c: k for k, c in enumerate(order)}
    pairs = sorted(
        ((c1, c2) for c1 in senses[w1] for c2 in senses[w2]),
        key=lambda pair: (rank[pair[0]], rank[pair[1]]),
    )
    lengths = [oracle_path_len(order, edges, c1, c2) for c1, c2 in pairs]
    return pairs[lengths.index(min(lengths))]


def oracle_resnik_words(concepts, edges, senses, model, w1, w2):
    """Unpruned max of ic over all sense pairs and all common subsumers."""
    anc = oracle_ancestors(concepts, edges)
    best = None
    for c1 in senses[w1]:
        for c2 in senses[w2]:
            for c in anc[c1] & anc[c2]:
                value = model.ic(c)
                if math.isinf(value):
                    continue
                if best is None or value > best:
                    best = value
    return best


def oracle_prob_words(concepts, edges, senses, model, w1, w2):
    anc = oracle_ancestors(concepts, edges)
    best = None
    for c1 in senses[w1]:
        for c2 in senses[w2]:
            for c in anc[c1] & anc[c2]:
                value = 1.0 - model.p(c)
                if best is None or value > best:
                    best = value
    return best


def oracle_best_subsumer(concepts, edges, senses, value):
    """(value, witness, sense_pair) maximizing ``value(c)`` over every
    sense pair and every common subsumer ``c`` of it, by full
    enumeration; None when ``value`` skips every candidate.

    ``concepts`` is the taxonomy's concept index order (as
    :meth:`Taxonomy.concepts` returns it) and ``senses`` a pair of sense
    collections.  ``value`` returns None to skip a candidate.  Among
    maximal candidates the documented tie-break picks the first sense
    pair in index order, then the subsumer of smallest index.
    """
    anc = oracle_ancestors(concepts, edges)
    rank = {c: k for k, c in enumerate(concepts)}
    candidates = [
        (v, (rank[c1], rank[c2], rank[c]), c, (c1, c2))
        for c1 in senses[0]
        for c2 in senses[1]
        for c in anc[c1] & anc[c2]
        if (v := value(c)) is not None
    ]
    if not candidates:
        return None
    best = max(v for v, *_ in candidates)
    _, _, witness, pair = min(
        (cand for cand in candidates if cand[0] == best), key=lambda cand: cand[1]
    )
    return best, witness, pair


def oracle_edge_words(concepts, edges, senses, w1, w2):
    minlen = oracle_min_sense_path(concepts, edges, senses, w1, w2)
    return float(2 * oracle_max_depth(concepts, edges) - minlen)


def oracle_lch_words(concepts, edges, senses, w1, w2, log_base=2.0, floor=1.0):
    minlen = oracle_min_sense_path(concepts, edges, senses, w1, w2)
    effective = floor if minlen == 0 else float(minlen)
    return 0.0 - math.log(
        effective / (2.0 * oracle_max_depth(concepts, edges))
    ) / math.log(log_base)


def oracle_finite_common_subsumers(concepts, edges, model, c1, c2):
    anc = oracle_ancestors(concepts, edges)
    return {c for c in anc[c1] & anc[c2] if not math.isinf(model.ic(c))}


# ----------------------------------------------------------------------
# correlation helpers
# ----------------------------------------------------------------------


def reference_pearson(xs, ys):
    """``pearson`` as it was written before its passes became C-level
    ``map`` calls: generator expressions, ``abs`` per value and one
    product per value, in the same order of operations.  ``pearson``
    must give the same float, or raise the same error, bit for bit."""
    def rescaled(vs):
        big = max(map(abs, vs))
        if big == 0.0 or 2.0 ** -960 <= big < 2.0 ** 960:
            return vs
        exp = math.frexp(big)[1]
        return [math.ldexp(v, -exp) for v in vs]

    def deviations(vs):
        n = len(vs)
        m = math.fsum(vs) / n
        ds = [v - m for v in vs]
        if max(map(abs, ds)) <= abs(m) * 2.0 ** -16:
            c = math.fsum(ds) / n
            ds = [d - c for d in ds]
        return ds

    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if not all(issubclass(kind, Real) for kind in {*map(type, xs), *map(type, ys)}):
        raise EvaluationError("non-real input: correlation undefined")
    try:
        finite = all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))
    except OverflowError:
        finite = False
    if not finite:
        raise EvaluationError("non-finite input: correlation undefined")
    n = len(xs)
    if n < 2:
        raise EvaluationError(f"need at least 2 points, got {n}")
    dxs = deviations(rescaled(xs))
    dys = deviations(rescaled(ys))
    scale_x = max(abs(d) for d in dxs)
    scale_y = max(abs(d) for d in dys)
    if scale_x == 0.0 or scale_y == 0.0:
        raise EvaluationError("zero variance: correlation undefined")
    dxs = [d / scale_x for d in dxs]
    dys = [d / scale_y for d in dys]
    sxx = math.fsum(d * d for d in dxs)
    syy = math.fsum(d * d for d in dys)
    sxy = math.fsum(a * b for a, b in zip(dxs, dys))
    r = sxy / (math.sqrt(sxx) * math.sqrt(syy))
    return max(-1.0, min(1.0, r))


def flip_check(xs, ys, a):
    """Correlations of ``xs`` against ``ys`` and against ``a - ys``.

    Converting a distance into a similarity by subtracting from a
    constant flips the correlation's sign but not its magnitude; the
    returned pair makes that directly assertable.
    """
    return pearson(xs, ys), pearson(xs, [a - y for y in ys])
