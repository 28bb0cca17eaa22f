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
case-sensitive.  Words are stripped and lowercased on load and on lookup.

Loading (:func:`load_taxonomy`, :meth:`Taxonomy.build`, and the counts
loader and model builder in :mod:`taxsim.probability`) pauses Python's
process-wide cyclic garbage collector and restores the caller's
``gc.isenabled()`` state when it returns or raises.  A load makes only
acyclic containers, which the collector would otherwise scan many times
over as they pile up.  Two threads loading at once may overlap their
pauses, which is harmless; queries never touch the collector.
"""

from __future__ import annotations

import functools
import gc
import os
from typing import Callable, Iterable, Iterator, Mapping, TextIO, TypeVar

from .errors import TaxonomyError, UnknownConceptError

#: Id of the root inserted when the input has more than one parentless
#: concept.  The input may not already contain a concept with this id.
SYNTHETIC_ROOT = "*root*"

_F = TypeVar("_F", bound=Callable)


def _gc_paused(func: _F) -> _F:
    """Run ``func`` with the cyclic garbage collector disabled, then
    re-enable it only if it was enabled on entry, so nested calls and
    callers that disabled it themselves keep their state."""
    @functools.wraps(func)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()
    return paused  # type: ignore[return-value]


def _parse_pair_lines(fh: TextIO, label: str, error: type = TaxonomyError
                      ) -> Iterator[tuple[int, str, str]]:
    """Yield (lineno, left, right) from the ``left<TAB>right`` lines of
    the text file ``fh``, opened with universal newlines.

    Blank lines and lines starting with ``#`` (after whitespace) are
    skipped.  ``label`` is the file path used in diagnostics, which are
    raised as ``error``; so is a decoding failure anywhere in the file,
    which is read whole before any line is checked.
    """
    try:
        text = fh.read()
    except UnicodeDecodeError:
        raise error(f"{label}: not valid UTF-8") from None
    for lineno, line in enumerate(text.split("\n"), start=1):
        left, _, right = line.partition("\t")
        # most lines: two non-empty fields, the first starting with
        # neither whitespace nor ``#``; the rest take the checks below
        if (left and right and "\t" not in right
                and left[0] != "#" and not left[0].isspace()):
            yield lineno, left, right
            continue
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


def _invalid_id(cid: object) -> TaxonomyError:
    return TaxonomyError(f"invalid concept id {cid!r}: ids are non-empty tab-free strings")


class Taxonomy:
    """Immutable IS-A concept DAG with a word-to-senses index.

    Build instances with :meth:`build` or :func:`load_taxonomy`; the
    constructor is internal.
    """

    def __init__(
        self,
        ids: list[str],
        index: dict[str, int],
        parents: list[tuple[int, ...]],
        senses: dict[str, tuple[int, ...]],
    ):
        n = len(ids)
        self._ids = ids
        self._index = index
        self._parents = parents
        children: list[list[int]] = [[] for _ in range(n)]
        for child, ps in enumerate(parents):  # ascending, so each list is sorted
            for p in ps:
                children[p].append(child)
        self._children = [tuple(cs) for cs in children]
        self._senses = senses

        # One Kahn sweep, parents before children: each node's ancestor
        # set and longest-path depth are final once it is ordered.  It is
        # the only cycle check, and names the loop reached from the
        # smallest unordered index.
        pending = [len(ps) for ps in parents]
        order = [i for i in range(n) if not pending[i]]
        ancestors: list[frozenset[int]] = [frozenset()] * n
        depths = [0] * n
        for i in order:
            ps = parents[i]
            if len(ps) == 1:  # most nodes
                p = ps[0]
                ancestors[i] = ancestors[p] | {i}
                depths[i] = depths[p] + 1
            else:
                ancestors[i] = frozenset({i}).union(*(ancestors[p] for p in ps))
                if ps:
                    depths[i] = 1 + max(depths[p] for p in ps)
            for child in children[i]:
                pending[child] -= 1
                if not pending[child]:
                    order.append(child)
        if len(order) < n:
            done = set(order)
            cur = min(i for i in range(n) if i not in done)
            path: dict[int, int] = {}  # node -> position, in walk order
            while cur not in path:
                path[cur] = len(path)
                cur = next(p for p in parents[cur] if p not in done)
            chain = " -> ".join(ids[i] for i in list(path)[path[cur]:] + [cur])
            raise TaxonomyError(f"cycle detected: {chain}")
        self._root = order[0]  # build() leaves one parentless node
        self._ancestors = ancestors
        self._depths = depths
        self.max_depth = max(depths)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    @_gc_paused
    def build(
        cls,
        edges: Iterable[tuple[str, str]],
        senses: Mapping[str, Iterable[str]] | None = None,
        concepts: Iterable[str] = (),
    ) -> "Taxonomy":
        """Construct and validate a taxonomy.

        ``edges`` are (child, parent) id pairs; duplicates are merged.
        ``senses`` maps words to non-empty sets of concept ids.  Words
        are stripped and lowercased; keys that become equal (``"Dog"``
        and ``" dog"``) have their sense sets merged.
        ``concepts`` declares additional isolated concepts (useful for
        single-node taxonomies, which have no edges).

        If more than one concept ends up parentless, a synthetic root is
        inserted above all of them so the top node is unique.

        Raises :class:`TaxonomyError` on a cycle, a dangling concept
        reference, a duplicate concept id, a concept id that is not a
        non-empty tab-free string, an edge that is not a pair, a word that
        is not a string, a sense set that is a string or not iterable, an
        empty word or sense set, or empty input.
        """
        ids: list[str] = []
        index: dict[str, int] = {}
        get = index.get
        parent_sets: list[set[int]] = []

        def add(cid: str) -> int:  # first sight of ``cid``
            if not isinstance(cid, str) or not cid or "\t" in cid:
                raise _invalid_id(cid)
            i = index[cid] = len(ids)
            ids.append(cid)
            parent_sets.append(set())
            return i

        # an edge that is not a pair, or holds an unhashable id, fails in
        # one handler around the loop, which keeps checks off the per-edge
        # path; iter() stays outside it so that ``edge`` is bound there
        pairs = iter(edges)
        try:
            for edge in pairs:
                child, parent = edge
                c = get(child)
                if c is None:
                    c = add(child)
                p = get(parent)
                if p is None:
                    p = add(parent)
                parent_sets[c].add(p)
        except (TypeError, ValueError) as exc:
            raise TaxonomyError(f"invalid edge {edge!r}: {exc}") from None

        # redeclaring an edge endpoint is idempotent; declaring the same
        # extra concept twice is a duplicate
        n_endpoints = len(ids)  # ids are interned in order
        for cid in concepts:
            try:
                i = get(cid)
            except TypeError:  # unhashable
                raise _invalid_id(cid) from None
            if i is None:
                add(cid)
            elif i >= n_endpoints:
                raise TaxonomyError(f"duplicate concept id: {cid!r}")

        if not ids:
            raise TaxonomyError("empty input: no concepts")

        sense_map: dict[str, tuple[int, ...]] = {}
        try:
            for word, cids in (senses or {}).items():
                if not isinstance(word, str):
                    raise TaxonomyError(f"lexicon word is not a string: {word!r}")
                word = word.strip().lower()
                if not word:
                    raise TaxonomyError("empty word in lexicon")
                if isinstance(cids, str):  # would iterate as one-letter ids
                    raise TaxonomyError(
                        f"sense set for word {word!r} is a string, not a "
                        f"collection of concept ids: {cids!r}"
                    )
                targets = []
                for cid in cids:
                    i = get(cid)
                    if i is None:
                        raise TaxonomyError(
                            f"dangling concept reference: word {word!r} maps to "
                            f"unknown concept {cid!r}"
                        )
                    targets.append(i)
                if len(targets) == 1 and word not in sense_map:  # most words
                    sense_map[word] = tuple(targets)
                    continue
                if not targets:
                    raise TaxonomyError(f"empty sense set for word {word!r}")
                targets.extend(sense_map.get(word, ()))
                sense_map[word] = tuple(sorted(set(targets)))
        except TypeError as exc:  # a non-iterable sense set or an unhashable id
            raise TaxonomyError(f"invalid sense set for word {word!r}: {exc}") from None

        parentless = [i for i, ps in enumerate(parent_sets) if not ps]
        if len(parentless) > 1:
            if SYNTHETIC_ROOT in index:
                raise TaxonomyError(
                    f"duplicate concept id: {SYNTHETIC_ROOT!r} is reserved "
                    "for the synthetic root"
                )
            root = add(SYNTHETIC_ROOT)
            for i in parentless:
                parent_sets[i].add(root)

        parents = [tuple(sorted(ps)) for ps in parent_sets]
        return cls(ids, index, parents, sense_map)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def index_of(self, concept: str) -> int:
        """Index of ``concept`` (its order of first appearance in the input)."""
        try:
            return self._index[concept]
        except KeyError:
            raise UnknownConceptError(f"unknown concept: {concept!r}") from None

    def concept_id(self, i: int) -> str:
        """The concept id at index ``i``; inverse of :meth:`index_of`."""
        return self._ids[i]

    def sense_indices(self, word: str) -> tuple[int, ...]:
        """Sorted sense indices of ``word`` (case-insensitive); () if absent.

        ``word`` is looked up as given before it is stripped and
        lowercased: every stored word is already unchanged by both, so a
        hit as given is the hit the normalized lookup would make.
        """
        try:
            senses = self._senses.get(word)
        except TypeError:  # unhashable: fails on ``strip`` below, as before
            senses = None
        if senses is None:
            senses = self._senses.get(word.strip().lower(), ())
        return senses

    def ancestor_indices(self, i: int) -> frozenset[int]:
        """Indices of the ancestors of index ``i``, ``i`` and the root included."""
        return self._ancestors[i]

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
        i = self.index_of(concept)
        return frozenset(self._ids[p] for p in self._parents[i])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def subsumers(self, concept: str) -> frozenset[str]:
        """All ancestors of ``concept`` including the concept itself.

        Subsumption is reflexive, so the result always contains both the
        queried concept and the root.
        """
        i = self.index_of(concept)
        return frozenset(self._ids[a] for a in self.ancestor_indices(i))

    def common_subsumers(self, c1: str, c2: str) -> frozenset[str]:
        """Concepts subsuming both ``c1`` and ``c2``; never empty because
        the root subsumes everything."""
        i1, i2 = self.index_of(c1), self.index_of(c2)
        common = self.ancestor_indices(i1) & self.ancestor_indices(i2)
        return frozenset(self._ids[a] for a in common)

    def shortest_path_len(self, c1: str, c2: str) -> int:
        """Minimum number of IS-A edges between two concepts, treating
        edges as traversable in both directions.

        The path may run down through a shared child as well as up
        through a common subsumer.  Found by a bidirectional
        breadth-first search from both concepts, run without a length
        limit, so the result is always the exact length."""
        return self.path_len(self.index_of(c1), self.index_of(c2))

    def path_len(self, i: int, j: int, limit: int | None = None) -> int | None:
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
        return self._depths[self.index_of(concept)]

    def senses_of(self, word: str) -> frozenset[str]:
        """The sense set of ``word`` (case-insensitive); empty if the word
        is absent.  Absence is not an error here: callers decide whether a
        missing word is fatal or merely excludes a pair."""
        return frozenset(self._ids[i] for i in self.sense_indices(word))

    def __repr__(self) -> str:
        return (
            f"Taxonomy({self.concept_count} concepts, {self.edge_count} edges, "
            f"{self.word_count} words, root={self.root!r})"
        )


@_gc_paused
def load_taxonomy(edges_path: str | os.PathLike,
                  lexicon_path: str | os.PathLike) -> Taxonomy:
    """Load and validate a taxonomy from an edge file and a lexicon file."""
    with open(edges_path, encoding="utf-8-sig") as fh:
        edges = [pair[1:] for pair in _parse_pair_lines(fh, str(edges_path))]
    if not edges:
        raise TaxonomyError(f"{edges_path}: empty input")
    senses: dict[str, list[str]] = {}  # build() normalizes and merges words
    with open(lexicon_path, encoding="utf-8-sig") as fh:
        for _, word, cid in _parse_pair_lines(fh, str(lexicon_path)):
            senses.setdefault(word, []).append(cid)
    return Taxonomy.build(edges, senses)
