"""Seeded WordNet-noun-scale input generator for the taxsim benchmark.

Writes a taxonomy, a lexicon, a counts file and the query lists of every
workload into one directory.  Standard library only; the same seed and
parameters give byte-identical files.

    python3 bench/gen.py --seed 7 --out bench/out/inputs-7

Shape: a random recursive tree (each concept hangs under a uniformly
chosen earlier concept, within the depth and fan-out caps), plus one
extra earlier parent for a ``multi_parent_rate`` share of concepts.
Every concept gets one word, the remaining words land on random
concepts, and a ``polysemy_rate`` share of words get 2-4 senses.  Counts
are Pareto-distributed over a ``counted_share`` of the lexicon, and an
``oov_count_share`` of count lines name words outside the lexicon.

Query lists are cut into blocks that the benchmark evaluates one at a
time; every block has the same composition, so blocks cost alike.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

#: Strata of the structural list; each block holds
#: ``structural_per_stratum`` rows of each, then one out-of-vocabulary row.
STRATA = ("near-mono", "near-poly", "far-mono", "far-poly")


@dataclass(frozen=True)
class GenParams:
    concepts: int = 82_000
    words: int = 117_000
    depth: int = 40                # cap on tree depth below the top concept
    max_fanout: int = 400          # cap on tree children per concept
    multi_parent_rate: float = 0.02
    polysemy_rate: float = 0.20
    counted_share: float = 0.6     # lexicon words that get a count line
    pareto_alpha: float = 1.2      # count = floor(paretovariate(alpha))
    oov_count_share: float = 0.05  # count lines whose word is not in the lexicon
    cli_pairs: int = 64
    structural_blocks: int = 24
    structural_per_stratum: int = 4
    ic_blocks: int = 5
    ic_block_rows: int = 20_000
    ic_deep_share: float = 0.3     # ic rows whose words share a deep subsumer
    ic_oov_per_block: int = 4
    concept_block_pairs: int = 20_000  # weighted concept pairs per ic block


def concept_id(i: int) -> str:
    return f"n{i:06d}"


def word_name(i: int) -> str:
    return f"w{i:06d}"


class _Graph:
    """Concepts 0..n-1 with a tree parent each and some extra parents."""

    def __init__(self, rng: random.Random, p: GenParams):
        n = p.concepts
        self.parents: list[tuple[int, ...]] = [()]
        depth = [0]
        fanout = [0]
        for i in range(1, n):
            while True:
                q = rng.randrange(i)
                if depth[q] < p.depth and fanout[q] < p.max_fanout:
                    break
            fanout[q] += 1
            depth.append(depth[q] + 1)
            fanout.append(0)
            self.parents.append((q,))
        for i in range(2, n):
            if rng.random() < p.multi_parent_rate:
                extra = rng.randrange(i)
                if extra not in self.parents[i]:
                    self.parents[i] = self.parents[i] + (extra,)
        self.children: list[list[int]] = [[] for _ in range(n)]
        for c, ps in enumerate(self.parents):
            for q in ps:
                self.children[q].append(c)
        # longest path from the top; parents always precede children
        self.depth = [0] * n
        for i in range(1, n):
            self.depth[i] = 1 + max(self.depth[q] for q in self.parents[i])

    def walk(self, rng: random.Random, c: int, hops: int) -> int:
        """End of a random undirected walk of ``hops`` edges."""
        for _ in range(hops):
            c = rng.choice(self.parents[c] + tuple(self.children[c]))
        return c

    def descend(self, rng: random.Random, c: int, steps: int) -> int:
        """End of a random downward walk of at most ``steps`` edges."""
        for _ in range(steps):
            if not self.children[c]:
                break
            c = rng.choice(self.children[c])
        return c


def generate(seed: int, p: GenParams = GenParams()) -> dict[str, str]:
    """All benchmark inputs for ``seed``, as file name -> text."""
    rng = random.Random(seed)
    g = _Graph(rng, p)
    n = p.concepts

    # lexicon: one word per concept first, then the rest at random
    senses: list[list[int]] = []
    for w in range(p.words):
        s = [w if w < n else rng.randrange(n)]
        if rng.random() < p.polysemy_rate:
            for _ in range(rng.randint(1, 3)):
                extra = rng.randrange(n)
                if extra not in s:
                    s.append(extra)
        senses.append(s)
    mono_at: list[list[int]] = [[] for _ in range(n)]
    for w, s in enumerate(senses):
        if len(s) == 1:
            mono_at[s[0]].append(w)
    mono = [w for w, s in enumerate(senses) if len(s) == 1]
    poly2 = [w for w, s in enumerate(senses) if len(s) == 2]

    counts: list[tuple[str, int]] = []
    for w in range(p.words):
        if rng.random() < p.counted_share:
            counts.append((word_name(w), int(rng.paretovariate(p.pareto_alpha))))
    n_oov = round(len(counts) * p.oov_count_share / (1 - p.oov_count_share))
    for k in range(n_oov):
        counts.append((f"x{k:06d}", int(rng.paretovariate(p.pareto_alpha))))
    rng.shuffle(counts)

    def rating() -> str:
        return f"{rng.uniform(0.0, 4.0):.2f}"

    def mono_near(c: int) -> int:
        """A monosemous word a few hops from concept ``c``."""
        while True:
            d = g.walk(rng, c, rng.randint(1, 4))
            if mono_at[d]:
                return rng.choice(mono_at[d])

    # CLI: a two-sense word and a one-sense word per call, so every call
    # scores exactly two sense pairs
    cli_pairs = [(rng.choice(poly2), rng.choice(mono)) for _ in range(p.cli_pairs)]

    structural: list[tuple[str, str, str]] = []
    for b in range(p.structural_blocks):
        block = []
        for stratum in STRATA:
            for _ in range(p.structural_per_stratum):
                w1 = rng.choice(poly2 if stratum.endswith("poly") else mono)
                if stratum.startswith("near"):
                    w2 = mono_near(rng.choice(senses[w1]))
                else:
                    w2 = rng.choice(mono)
                block.append((stratum, word_name(w1), word_name(w2)))
        rng.shuffle(block)
        block.append(("oov", word_name(rng.choice(mono)), f"oov{b:03d}"))
        structural.extend(block)

    deep = [c for c in range(n) if g.depth[c] >= 6 and g.children[c]]

    def deep_pair() -> tuple[int, int]:
        top = rng.choice(deep)
        return g.descend(rng, top, rng.randint(1, 4)), g.descend(rng, top, rng.randint(1, 4))

    def word_at(c: int) -> int:
        return rng.choice(mono_at[c]) if mono_at[c] else c  # word c has sense c

    ic: list[tuple[str, str]] = []
    concept_pairs: list[tuple[str, str]] = []
    for b in range(p.ic_blocks):
        block = []
        for _ in range(p.ic_block_rows - p.ic_oov_per_block):
            if rng.random() < p.ic_deep_share:
                a, c = deep_pair()
                block.append((word_name(word_at(a)), word_name(word_at(c))))
            else:
                block.append((word_name(rng.randrange(p.words)),
                              word_name(rng.randrange(p.words))))
        for k in range(p.ic_oov_per_block):
            block.append((f"oov{b:03d}{k}", word_name(rng.randrange(p.words))))
        rng.shuffle(block)
        ic.extend(block)
        for _ in range(p.concept_block_pairs):
            if rng.random() < p.ic_deep_share:
                a, c = deep_pair()
            else:
                a, c = rng.randrange(n), rng.randrange(n)
            concept_pairs.append((concept_id(a), concept_id(c)))

    shape = {
        "seed": seed,
        "params": asdict(p),
        "concepts": n,
        "edges": sum(len(ps) for ps in g.parents),
        "words": len(senses),
        "max_depth": max(g.depth),
        "multi_parent_rate": round(sum(len(ps) > 1 for ps in g.parents) / n, 6),
        "polysemy_rate": round(sum(len(s) > 1 for s in senses) / len(senses), 6),
    }
    return {
        "taxonomy.tsv": "".join(
            f"{concept_id(c)}\t{concept_id(q)}\n"
            for c in range(1, n) for q in g.parents[c]
        ),
        "lexicon.tsv": "".join(
            f"{word_name(w)}\t{concept_id(c)}\n" for w, s in enumerate(senses) for c in s
        ),
        "counts.tsv": "".join(f"{w}\t{k}\n" for w, k in counts),
        "cli_pairs.tsv": "".join(
            f"{word_name(a)}\t{word_name(b)}\n" for a, b in cli_pairs
        ),
        "structural.csv": "word1,word2,rating\n"
        + "".join(f"{a},{b},{rating()}\n" for _, a, b in structural),
        "structural_strata.txt": "".join(f"{s}\n" for s, _, _ in structural),
        "ic.csv": "word1,word2,rating\n"
        + "".join(f"{a},{b},{rating()}\n" for a, b in ic),
        "concept_pairs.tsv": "".join(f"{a}\t{b}\n" for a, b in concept_pairs),
        "shape.json": json.dumps(shape, sort_keys=True, indent=1) + "\n",
    }


def write(seed: int, out: Path, p: GenParams = GenParams()) -> dict:
    """Generate into ``out`` (created if needed); returns the shape."""
    files = generate(seed, p)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return json.loads(files["shape.json"])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Generate seeded taxsim benchmark inputs.")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    print(json.dumps(write(args.seed, args.out), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
