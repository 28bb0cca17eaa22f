"""Shared fixtures data, random-instance generators, and brute-force
oracles.

The oracles work from the raw edge/sense/count data with their own naive
algorithms (fixpoint ancestor closure, deque BFS, recursive depth) and
never call the production graph code, so agreement is a genuine
cross-check rather than a tautology.
"""

from __future__ import annotations

import math
import random
from collections import deque

from taxsim import pearson

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


def oracle_max_depth(concepts, edges):
    """Longest root-to-node path by memoized recursion over parents."""
    parents = oracle_parents(concepts, edges)
    memo = {}

    def depth(c):
        if c not in memo:
            memo[c] = 0 if not parents[c] else 1 + max(depth(p) for p in parents[c])
        return memo[c]

    return max(depth(c) for c in concepts)


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


def flip_check(xs, ys, a):
    """Correlations of ``xs`` against ``ys`` and against ``a - ys``.

    Converting a distance into a similarity by subtracting from a
    constant flips the correlation's sign but not its magnitude; the
    returned pair makes that directly assertable.
    """
    return pearson(xs, ys), pearson(xs, [a - y for y in ys])
