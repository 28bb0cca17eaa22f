"""IS-A taxonomy loading, validation, and graph queries.

A taxonomy is a directed acyclic graph of concepts linked by IS-A edges
(child to parent, multiple inheritance allowed) with a single top node,
plus an index mapping each word to the set of concepts that are its
senses.  Construction validates the structure once; afterwards the
object is immutable and every query is safe for unsynchronized use from
multiple threads.

Input formats (UTF-8 text, ``#`` lines ignored, duplicate lines
idempotent):

* edge file: one ``child<TAB>parent`` pair per line;
* lexicon file: one ``word<TAB>concept_id`` pair per line.

Concept ids are arbitrary non-empty tab-free strings and are
case-sensitive.  Words are lowercased on load and on lookup.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import TaxonomyError, UnknownConceptError

#: Id of the root inserted when the input has more than one parentless
#: concept.  The input may not already contain a concept with this id.
SYNTHETIC_ROOT = "*root*"


@dataclass(frozen=True)
class DepthInfo:
    """Depth of every concept, in edges along the longest path from the
    root, together with the taxonomy-wide maximum."""

    depths: dict[str, int]
    max_depth: int


def _parse_pair_lines(lines: Iterable[str], label: str) -> Iterator[tuple[str, str]]:
    """Yield (left, right) pairs from ``left<TAB>right`` lines.

    Blank lines and lines starting with ``#`` are skipped.  ``label`` is
    the file path used in diagnostics.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise TaxonomyError(
                f"{label}:{lineno}: expected 2 tab-separated fields, got {len(fields)}"
            )
        left, right = fields
        if not left or not right:
            raise TaxonomyError(f"{label}:{lineno}: empty field")
        yield left, right


class Taxonomy:
    """Immutable IS-A concept DAG with a word-to-senses index.

    Build instances with :meth:`build` or :func:`load_taxonomy`; the
    constructor is internal.
    """

    def __init__(
        self,
        ids: list[str],
        parents: list[tuple[int, ...]],
        senses: dict[str, frozenset[int]],
    ):
        n = len(ids)
        self._ids = ids
        self._index = {cid: i for i, cid in enumerate(ids)}
        self._parents = parents
        children: list[list[int]] = [[] for _ in range(n)]
        for child, ps in enumerate(parents):
            for p in ps:
                children[p].append(child)
        self._children = [tuple(sorted(cs)) for cs in children]
        self._senses = senses

        self._topo = self._toposort()
        roots = [i for i in range(n) if not self._parents[i]]
        # build() guarantees exactly one parentless node before we get here
        self._root = roots[0]
        self._ancestors = self._compute_ancestors()
        self._depths, self.max_depth = self._compute_depths()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        edges: Iterable[tuple[str, str]],
        senses: Mapping[str, Iterable[str]] | None = None,
        concepts: Iterable[str] = (),
    ) -> "Taxonomy":
        """Construct and validate a taxonomy.

        ``edges`` are (child, parent) id pairs; duplicates are merged.
        ``senses`` maps words to non-empty sets of concept ids.
        ``concepts`` declares additional isolated concepts (useful for
        single-node taxonomies, which have no edges).

        If more than one concept ends up parentless, a synthetic root is
        inserted above all of them so the top node is unique.

        Raises :class:`TaxonomyError` on a cycle, a dangling concept
        reference, a duplicate concept id, or empty input.
        """
        ids: list[str] = []
        index: dict[str, int] = {}

        def intern(cid: str) -> int:
            i = index.get(cid)
            if i is None:
                i = len(ids)
                index[cid] = i
                ids.append(cid)
            return i

        edge_set: set[tuple[int, int]] = set()
        for child, parent in edges:
            pair = (intern(child), intern(parent))
            edge_set.add(pair)

        # redeclaring an edge endpoint is idempotent; declaring the same
        # extra concept twice is a duplicate
        edge_endpoints = frozenset(index)
        for cid in concepts:
            if cid in index and cid not in edge_endpoints:
                raise TaxonomyError(f"duplicate concept id: {cid!r}")
            intern(cid)

        if not ids:
            raise TaxonomyError("empty input: no concepts")

        sense_map: dict[str, frozenset[int]] = {}
        for word, cids in (senses or {}).items():
            word = word.strip().lower()
            if not word:
                raise TaxonomyError("empty word in lexicon")
            targets = set()
            for cid in cids:
                if cid not in index:
                    raise TaxonomyError(
                        f"dangling concept reference: word {word!r} maps to "
                        f"unknown concept {cid!r}"
                    )
                targets.add(index[cid])
            if not targets:
                raise TaxonomyError(f"empty sense set for word {word!r}")
            sense_map[word] = frozenset(targets)

        parent_lists: list[set[int]] = [set() for _ in ids]
        for child, parent in edge_set:
            parent_lists[child].add(parent)

        parentless = [i for i in range(len(ids)) if not parent_lists[i]]
        if not parentless:
            # every concept has a parent, so some IS-A chain must loop
            raise TaxonomyError(cls._find_cycle_message(ids, parent_lists))
        if len(parentless) > 1:
            if SYNTHETIC_ROOT in index:
                raise TaxonomyError(
                    f"duplicate concept id: {SYNTHETIC_ROOT!r} is reserved "
                    "for the synthetic root"
                )
            root = intern(SYNTHETIC_ROOT)
            parent_lists.append(set())
            for i in parentless:
                parent_lists[i].add(root)

        parents = [tuple(sorted(ps)) for ps in parent_lists]
        return cls(ids, parents, sense_map)

    def _toposort(self) -> list[int]:
        """Topological order, parents before children; raises on a cycle."""
        n = len(self._ids)
        pending = [len(ps) for ps in self._parents]
        order = [i for i in range(n) if pending[i] == 0]
        for i in order:
            if len(order) == n:
                break
            for child in self._children[i]:
                pending[child] -= 1
                if pending[child] == 0:
                    order.append(child)
        if len(order) != n:
            leftover = [set(ps) for ps in self._parents]
            raise TaxonomyError(self._find_cycle_message(self._ids, leftover,
                                                         done=set(order)))
        return order

    @staticmethod
    def _find_cycle_message(
        ids: list[str], parent_sets: list[set[int]], done: set[int] = frozenset()
    ) -> str:
        """Walk parent links among unfinished nodes until one repeats."""
        remaining = set(range(len(ids))) - set(done)
        cur = min(remaining)
        path = [cur]
        seen = {cur: 0}
        while True:
            cur = next(p for p in sorted(parent_sets[cur]) if p in remaining)
            if cur in seen:
                cycle = path[seen[cur]:] + [cur]
                chain = " -> ".join(ids[i] for i in cycle)
                return f"cycle detected: {chain}"
            seen[cur] = len(path)
            path.append(cur)

    def _compute_ancestors(self) -> list[frozenset[int]]:
        anc: list[frozenset[int]] = [frozenset()] * len(self._ids)
        for i in self._topo:
            anc[i] = frozenset({i}).union(*(anc[p] for p in self._parents[i]))
        return anc

    def _compute_depths(self) -> tuple[list[int], int]:
        depths = [0] * len(self._ids)
        for i in self._topo:
            if self._parents[i]:
                depths[i] = 1 + max(depths[p] for p in self._parents[i])
        return depths, max(depths)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def _idx(self, concept: str) -> int:
        try:
            return self._index[concept]
        except KeyError:
            raise UnknownConceptError(f"unknown concept: {concept!r}") from None

    @property
    def root(self) -> str:
        return self._ids[self._root]

    @property
    def concept_count(self) -> int:
        return len(self._ids)

    @property
    def edge_count(self) -> int:
        return sum(len(ps) for ps in self._parents)

    @property
    def word_count(self) -> int:
        return len(self._senses)

    def concepts(self) -> tuple[str, ...]:
        return tuple(self._ids)

    def words(self) -> frozenset[str]:
        return frozenset(self._senses)

    def parents_of(self, concept: str) -> frozenset[str]:
        i = self._idx(concept)
        return frozenset(self._ids[p] for p in self._parents[i])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def subsumers(self, concept: str) -> frozenset[str]:
        """All ancestors of ``concept`` including the concept itself.

        Subsumption is reflexive, so the result always contains both the
        queried concept and the root.
        """
        i = self._idx(concept)
        return frozenset(self._ids[a] for a in self._ancestors[i])

    def common_subsumers(self, c1: str, c2: str) -> frozenset[str]:
        """Concepts subsuming both ``c1`` and ``c2``; never empty because
        the root subsumes everything."""
        i1, i2 = self._idx(c1), self._idx(c2)
        return frozenset(self._ids[a] for a in self._ancestors[i1] & self._ancestors[i2])

    def shortest_path_len(self, c1: str, c2: str) -> int:
        """Minimum number of IS-A edges between two concepts, treating
        edges as traversable in both directions.

        The path may run down through a shared child as well as up
        through a common subsumer.  Found by a bidirectional
        breadth-first search from both concepts, run without a length
        limit, so the result is always the exact length."""
        return self._path_len_idx(self._idx(c1), self._idx(c2))

    def _path_len_idx(self, i: int, j: int, limit: int | None = None) -> int | None:
        """Undirected shortest path length between concept indices.

        Bidirectional BFS: each step expands the smaller of the two
        frontiers by one whole level over parents and children.  While
        the searched balls (radii ``d_a`` from ``i`` and ``d_b`` from
        ``j``) are disjoint, the distance exceeds ``d_a + d_b``; so the
        first node one side reaches inside the other's ball closes a
        path of exactly ``d_a + d_b + 1``, the minimum over every
        meeting node of that level.

        With ``limit`` set, returns None as soon as the distance is
        known to exceed ``limit`` (once ``d_a + d_b >= limit`` without a
        meeting), and the exact length otherwise.
        """
        if i == j:
            return 0 if limit is None or limit >= 0 else None
        parents, children = self._parents, self._children
        seen_a, seen_b = {i}, {j}
        front_a, front_b = [i], [j]
        reach = 0  # d_a + d_b
        while front_a and front_b:
            if limit is not None and reach >= limit:
                return None
            if len(front_a) > len(front_b):
                front_a, front_b = front_b, front_a
                seen_a, seen_b = seen_b, seen_a
            nxt = []
            for u in front_a:
                for adjacent in (parents[u], children[u]):
                    for v in adjacent:
                        if v in seen_b:
                            return reach + 1
                        if v not in seen_a:
                            seen_a.add(v)
                            nxt.append(v)
            front_a = nxt
            reach += 1
        raise TaxonomyError(
            f"no path between {self._ids[i]!r} and {self._ids[j]!r}"
        )  # unreachable after validation: the root connects everything

    def depth_of(self, concept: str) -> int:
        return self._depths[self._idx(concept)]

    def depth_info(self) -> DepthInfo:
        """Per-concept longest-path depths and the taxonomy maximum."""
        return DepthInfo(
            depths={cid: self._depths[i] for i, cid in enumerate(self._ids)},
            max_depth=self.max_depth,
        )

    def senses_of(self, word: str) -> frozenset[str]:
        """The sense set of ``word`` (case-insensitive); empty if the word
        is absent.  Absence is not an error here: callers decide whether a
        missing word is fatal or merely excludes a pair."""
        indices = self._senses.get(word.strip().lower(), frozenset())
        return frozenset(self._ids[i] for i in indices)

    def __repr__(self) -> str:
        return (
            f"Taxonomy({self.concept_count} concepts, {self.edge_count} edges, "
            f"{self.word_count} words, root={self.root!r})"
        )


def load_taxonomy(edges_path: str | os.PathLike,
                  lexicon_path: str | os.PathLike) -> Taxonomy:
    """Load and validate a taxonomy from an edge file and a lexicon file."""
    with open(edges_path, encoding="utf-8") as fh:
        edges = list(_parse_pair_lines(fh, str(edges_path)))
    if not edges:
        raise TaxonomyError(f"{edges_path}: empty input")
    senses: dict[str, set[str]] = {}
    with open(lexicon_path, encoding="utf-8") as fh:
        for word, cid in _parse_pair_lines(fh, str(lexicon_path)):
            senses.setdefault(word.strip().lower(), set()).add(cid)
    return Taxonomy.build(edges, senses)
