"""Independent reference answers for the benchmark's output gate.

Reads the generated text files itself and never calls taxsim.  Adjacency,
parents and word counts are built once per input set; each query then
walks the graph afresh: a deque BFS for path lengths and an upward
stack walk for ancestor sets.  The tie-break follows the documented
rule: the first sense pair in sorted index order, then the smallest
concept index, where indices number concepts by first appearance in the
taxonomy file.
"""

from __future__ import annotations

import math
from collections import deque
from pathlib import Path


def _pairs(text: str):
    for line in text.splitlines():
        if line and not line.startswith("#"):
            left, right = line.split("\t")
            yield left, right


class Oracle:
    def __init__(self, taxonomy: str, lexicon: str, counts: str, log_base: float = 2.0):
        self.ids: list[str] = []
        self.index: dict[str, int] = {}
        edges = []
        for child, parent in _pairs(taxonomy):
            edges.append((self._intern(child), self._intern(parent)))
        n = len(self.ids)
        self.parents: list[list[int]] = [[] for _ in range(n)]
        self.adjacent: list[list[int]] = [[] for _ in range(n)]
        for c, p in edges:
            self.parents[c].append(p)
            self.adjacent[c].append(p)
            self.adjacent[p].append(c)
        roots = [i for i in range(n) if not self.parents[i]]
        if len(roots) != 1:
            raise ValueError(f"expected one parentless concept, got {len(roots)}")
        self.root = roots[0]
        self.max_depth = self._max_depth()

        senses: dict[str, set[int]] = {}
        for word, cid in _pairs(lexicon):
            senses.setdefault(word.lower(), set()).add(self.index[cid])
        self.senses = {w: sorted(s) for w, s in senses.items()}

        self.log_base = log_base
        self.total_raw = 0
        self.freq = [0] * n
        for word, count in _pairs(counts):
            count = int(count)
            self.total_raw += count
            for c in self.ancestors_of(self.senses.get(word.lower(), ())):
                self.freq[c] += count
        self.N = self.freq[self.root]

    @classmethod
    def from_dir(cls, d: Path) -> "Oracle":
        def read(name: str) -> str:
            return (d / name).read_text(encoding="utf-8")
        return cls(read("taxonomy.tsv"), read("lexicon.tsv"), read("counts.tsv"))

    def _intern(self, cid: str) -> int:
        i = self.index.get(cid)
        if i is None:
            i = self.index[cid] = len(self.ids)
            self.ids.append(cid)
        return i

    def _max_depth(self) -> int:
        children: list[list[int]] = [[] for _ in self.ids]
        pending = [len(ps) for ps in self.parents]
        for c, ps in enumerate(self.parents):
            for p in ps:
                children[p].append(c)
        depth = [0] * len(self.ids)
        queue = deque([self.root])
        while queue:
            u = queue.popleft()
            for c in children[u]:
                depth[c] = max(depth[c], depth[u] + 1)
                pending[c] -= 1
                if pending[c] == 0:
                    queue.append(c)
        return max(depth)

    # ------------------------------------------------------------------

    def ancestors_of(self, concepts) -> set[int]:
        """Reflexive ancestors of every concept in ``concepts``."""
        seen = set(concepts)
        stack = list(seen)
        while stack:
            for p in self.parents[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    def path_len(self, a: int, b: int) -> int:
        if a == b:
            return 0
        seen = {a}
        queue = deque([(a, 0)])
        while queue:
            u, d = queue.popleft()
            for v in self.adjacent[u]:
                if v == b:
                    return d + 1
                if v not in seen:
                    seen.add(v)
                    queue.append((v, d + 1))
        raise ValueError("disconnected taxonomy")

    def ic(self, c: int) -> float:
        f = self.freq[c]
        return math.inf if f == 0 else 0.0 - math.log(f / self.N) / math.log(self.log_base)

    def _best_subsumer(self, w1: str, w2: str, value):
        """(value, witness, sense pair) maximising ``value`` over sense
        pairs and common subsumers; ``value`` returns None to skip."""
        best = None
        for a in self.senses[w1]:
            anc_a = self.ancestors_of([a])
            for b in self.senses[w2]:
                for c in sorted(anc_a & self.ancestors_of([b])):
                    v = value(c)
                    if v is not None and (best is None or v > best[0]):
                        best = (v, c, (a, b))
        return best

    def resnik(self, w1: str, w2: str):
        return self._best_subsumer(
            w1, w2, lambda c: None if self.freq[c] == 0 else self.ic(c))

    def prob(self, w1: str, w2: str):
        return self._best_subsumer(w1, w2, lambda c: 1.0 - self.freq[c] / self.N)

    def min_path(self, w1: str, w2: str) -> tuple[int, tuple[int, int]]:
        best = None
        for a in self.senses[w1]:
            for b in self.senses[w2]:
                length = self.path_len(a, b)
                if best is None or length < best[0]:
                    best = (length, (a, b))
        return best

    def edge(self, length: int) -> float:
        return float(2 * self.max_depth - length)

    def lch(self, length: int, floor: float = 1.0) -> float:
        effective = floor if length == 0 else float(length)
        return 0.0 - math.log(effective / (2.0 * self.max_depth)) / math.log(self.log_base)

    def word_score(self, measure: str, w1: str, w2: str) -> float | None:
        """The score ``evaluate`` should give a row; None when excluded."""
        if w1 not in self.senses or w2 not in self.senses:
            return None
        if measure == "resnik":
            return self.resnik(w1, w2)[0]
        if measure == "prob":
            return self.prob(w1, w2)[0]
        length = self.min_path(w1, w2)[0]
        return self.edge(length) if measure == "edge" else self.lch(length)

    def weighted_uniform(self, c1: str, c2: str) -> float:
        common = self.ancestors_of([self.index[c1]]) & self.ancestors_of([self.index[c2]])
        domain = [c for c in common if self.freq[c] > 0]
        share = 1.0 / len(domain)
        return math.fsum(share * self.ic(c) for c in domain)

    def cli_sim_stdout(self, w1: str, w2: str) -> str:
        """Exact stdout of ``taxsim sim w1 w2`` with every measure."""
        w1, w2 = w1.lower(), w2.lower()
        length = self.min_path(w1, w2)[0]
        r_value, r_witness, _ = self.resnik(w1, w2)
        p_value, p_witness, _ = self.prob(w1, w2)
        rows = [
            ("resnik", r_value, self.ids[r_witness]),
            ("edge", self.edge(length), "-"),
            ("prob", p_value, self.ids[p_witness]),
            ("lch", self.lch(length), "-"),
        ]
        return "".join(f"{w1}\t{w2}\t{m}\t{v:.4f}\t{wit}\n" for m, v, wit in rows)
