"""IS-A taxonomy loading, validation, and graph queries.

A taxonomy is a directed acyclic graph of concepts linked by IS-A edges
(child to parent, multiple inheritance allowed) with a single top node,
plus an index mapping each word to the set of concepts that are its
senses.  Construction validates the structure once; afterwards the
object is immutable and every query is safe for unsynchronized use from
multiple threads.

The one thing a query changes is a memo: each concept's ancestor set is
built the first time a query asks for it and kept in a list slot that
held None.  That needs no lock.  Every set built for a slot is equal to
any other built for it, since each is a function of the fixed graph
alone; storing an item in a list is atomic; and a build reads only
slots that are already filled, which never go back to None.  Two
threads that miss together at worst build the same set twice.

Input formats (UTF-8 text, ``#`` lines ignored, duplicate lines
idempotent):

* edge file: one ``child<TAB>parent`` pair per line;
* lexicon file: one ``word<TAB>concept_id`` pair per line.

Concept ids are arbitrary non-empty tab-free strings and are
case-sensitive.  Words are stripped, lowercased and put in Unicode
normal form NFC on load and on lookup.

Loading (:func:`load_taxonomy`, :meth:`Taxonomy.build`, and the counts
loader and model builder in :mod:`taxsim.probability`) pauses Python's
process-wide cyclic garbage collector and restores the caller's
``gc.isenabled()`` state when it returns or raises.  A load makes only
acyclic containers, which the collector would otherwise scan many times
over as they pile up.  Two threads loading at once may overlap their
pauses, which is harmless; queries never touch the collector, and
building an ancestor set on a query's first request for it does not
pause it either.
"""

from __future__ import annotations

import functools
import gc
import math
import operator
import os
import re
import unicodedata
from itertools import chain, compress, repeat
from sys import float_info
from typing import Callable, Iterable, Mapping, NoReturn, TextIO, TypeVar

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


def _decimal_digits(n: int) -> int:
    """Number of decimal digits of ``n`` > 0, also beyond ``str``'s limit."""
    d = int(math.log10(n)) + 1  # may be one off near a power of ten
    return d - (n < 10 ** (d - 1)) + (n >= 10 ** d)


def _shown(value: object, form: Callable[[object], str] = repr) -> str:
    """``form(value)`` for an error message; an int beyond float range,
    whose digits may be too many to print, is named by its size instead."""
    if isinstance(value, int) and abs(value) > float_info.max:
        return f"an int of {_decimal_digits(abs(value))} digits"
    try:
        return form(value)
    except ValueError:  # it holds an int too long to print
        return f"a {type(value).__name__} holding an int of too many digits"


def _normalized(words: Iterable[str]) -> list[str]:
    """``words`` stripped, then lowercased, then, if not ASCII, in
    Unicode normal form NFC: the one form of a word that the lexicon, the
    counts and the benchmarks store and look up, so that the composed and
    the decomposed spelling of "café" are one word."""
    words = list(map(str.lower, map(str.strip, words)))
    if "".join(words).isascii():  # one check of the whole column, as most are
        return words
    return [w if w.isascii() else unicodedata.normalize("NFC", w) for w in words]


# A run of blank and comment lines in a file's text with one "\n" before
# every line.
_SKIPPED_LINES = re.compile(r"\n(?:[^\S\n]*(?:#[^\n]*)?\n)+")


def _parse_pair_columns(
    fh: TextIO,
    label: str,
    error: type = TaxonomyError,
    right: str = r"[^\t\n]+",
    problem: Callable[[str], str | None] | None = None,
) -> tuple[list[str], list[str]]:
    """The left and right columns of the ``left<TAB>right`` lines of the
    text file ``fh``, opened with universal newlines.

    Blank lines and lines starting with ``#`` (after whitespace) are
    skipped; every other line must be a non-empty tab-free left field, a
    tab, and a right field matched whole by the regular expression
    ``right`` (by default any non-empty tab-free field; it may match no
    tab or line end).  That line pattern is the one rule: a scan of the
    text, once blank and comment lines are dropped, accepts the file,
    which is then split into one flat field list; or the same pattern
    finds the first bad line, and ``error`` is raised naming its
    ``label:line`` and its fault: its number of fields, an empty field,
    or ``problem(right_field)``.  ``label`` is the file path used in
    diagnostics; a decoding failure anywhere in the file raises
    ``error`` too.
    """
    try:
        text = fh.read()
    except UnicodeDecodeError:
        raise error(f"{label}: not valid UTF-8") from None
    line = rf"[^\t\n]+\t(?:{right})"
    body = _SKIPPED_LINES.sub("\n", f"\n{text}\n")
    if not re.search(rf"\n(?!{line}\n|\Z)", body):
        fields = body.replace("\n", "\t").split("\t")
        return fields[1:-1:2], fields[2:-1:2]
    bad = re.search(rf"(?m)^(?![^\S\n]*(?:#.*)?$|{line}$).*", text)
    fields = bad[0].split("\t")
    if len(fields) != 2:
        found = f"expected 2 tab-separated fields, got {len(fields)}"
    elif not all(fields):
        found = "empty field"
    else:
        found = problem(fields[1])
    lineno = text.count("\n", 0, bad.start()) + 1
    raise error(f"{label}:{lineno}: {found}")


class Taxonomy:
    """Immutable IS-A concept DAG with a word-to-senses index.

    Build instances with :meth:`build` or :func:`load_taxonomy`; the
    constructor is internal.
    """

    def __init__(
        self,
        ids: tuple[str, ...],
        index: dict[str, int],
        parents: list[tuple[int, ...]],
        senses: dict[str, tuple[int, ...]],
    ):
        n = len(ids)
        self._ids = ids
        self._index = index
        self._parents = parents = tuple(parents)
        children = [[] for _ in range(n)]
        for child, ps in enumerate(parents):  # ascending, so each list is sorted
            for p in ps:
                children[p].append(child)
        children = [tuple(cs) for cs in children]
        self._senses = senses

        # One Kahn sweep, parents before children, in the memory of the
        # freed child lists: each node's longest-path depth is final once
        # it is ordered.  It is the only cycle check, and names the loop
        # reached from the smallest unordered index.
        pending = [len(ps) for ps in parents]
        order = [i for i in range(n) if not pending[i]]
        depths = [0] * n
        for i in order:
            ps = parents[i]
            if len(ps) == 1:  # most nodes
                depths[i] = depths[ps[0]] + 1
            elif ps:
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
        del pending, children  # so the lists below can reuse their memory
        self._order = order = tuple(order)
        self._depths = depths
        # A valley is an ancestor-or-self of a node with two or more
        # parents: one pass, children before parents, flags each node
        # before it passes the flag on to its parents.
        valleys = bytearray(n)
        for i in reversed(order):
            ps = parents[i]
            if valleys[i] or len(ps) > 1:
                valleys[i] = 1
                for p in ps:
                    valleys[p] = 1
        self._valleys = bytes(valleys)
        # path_len steps down only into the far end's ancestors and into
        # valleys, listed here under each of their parents.
        down: list[tuple[int, ...]] = [()] * n
        for v in compress(range(n), valleys):
            for p in parents[v]:
                down[p] += (v,)
        self._down = down
        self.max_depth = max(depths)
        # Each concept's ancestor set, built by ancestor_indices on first
        # request; None until then.
        self._ancestors: list[frozenset[int] | None] = [None] * n

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
        are stripped, lowercased and put in Unicode normal form NFC; keys
        that become equal (``"Dog"`` and ``" dog"``, or ``"café"`` with a
        composed and with a decomposed ``é``) have their sense sets
        merged.
        ``concepts`` declares additional isolated concepts (useful for
        single-node taxonomies, which have no edges).

        If more than one concept ends up parentless, a synthetic root is
        inserted above all of them so the top node is unique.

        Raises :class:`TaxonomyError` on a cycle, a dangling concept
        reference, a duplicate concept id, a concept id that is not a
        non-empty tab-free string, an edge that is not a pair or is a
        string, a ``concepts`` argument that is a string, a word that is
        not a string, a sense set that is a string or not iterable, an
        empty word or sense set, or empty input.
        """
        ends = _edge_column(edges)
        extra = _extra_concepts(concepts, ends)
        if not ends and not extra:
            raise TaxonomyError("empty input: no concepts")
        words, sense_ids = _sense_columns(senses or {})
        return cls(*_index_columns(ends[0::2], ends[1::2], words, sense_ids, extra))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def index_of(self, concept: str) -> int:
        """Index of ``concept`` (its order of first appearance), else UnknownConceptError."""
        try:
            return self._index[concept]
        except (KeyError, TypeError):
            raise UnknownConceptError(f"unknown concept: {_shown(concept)}") from None

    def sense_indices(self, word: str) -> tuple[int, ...]:
        """Sorted sense indices of ``word`` (case-insensitive); () if absent
        or not a ``str``.

        ``word`` is looked up as given before it is normalized (stripped,
        lowercased, NFC): every stored word is already unchanged by that,
        so a hit as given is the hit the normalized lookup would make.
        """
        try:
            senses = self._senses.get(word)
        except TypeError:  # unhashable, so not a str
            senses = None
        if senses is None and isinstance(word, str):  # typed only after a miss
            senses = self._senses.get(_normalized((word,))[0])
        return senses or ()

    def ancestor_indices(self, i: int) -> frozenset[int]:
        """The indices of the ancestors of the concept of index ``i``
        (itself and the root included).

        A set is built from its parents' sets the first time it is asked
        for, and kept.  A miss collects the unbuilt ancestors of ``i`` by
        walking up, then builds them in order of depth, so that each
        parent's set is there before its children's.  An int index
        outside ``range(concept_count)`` raises UnknownConceptError, any
        other index TypeError.
        """
        if not 0 <= operator.index(i) < len(self._ids):
            raise UnknownConceptError(f"unknown concept index: {_shown(i)}")
        built = self._ancestors[i]
        if built is not None:
            return built
        memo, parents = self._ancestors, self._parents
        todo, seen = [i], {i}
        for u in todo:
            for p in parents[u]:
                if memo[p] is None and p not in seen:
                    seen.add(p)
                    todo.append(p)
        todo.sort(key=self._depths.__getitem__)  # a parent is shallower than its child
        for u in todo:
            ps = parents[u]
            if len(ps) == 1:  # most nodes
                memo[u] = memo[ps[0]] | {u}
            else:
                memo[u] = frozenset({u}).union(*map(memo.__getitem__, ps))
        return memo[i]

    @property
    def parents_by_index(self) -> tuple[tuple[int, ...], ...]:
        """The sorted parent indices of every concept, indexed by :meth:`index_of`."""
        return self._parents

    @property
    def topological_order(self) -> tuple[int, ...]:
        """Every concept index, each after all of its parents."""
        return self._order

    @property
    def valleys_by_index(self) -> bytes:
        """1 for every concept that is an ancestor-or-self of a concept
        with two or more parents (a valley), else 0, indexed by
        :meth:`index_of`; below any other concept the taxonomy is a tree."""
        return self._valleys

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
        """Every concept id, indexed by :meth:`index_of`."""
        return self._ids

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
        common = (self.ancestor_indices(self.index_of(c1))
                  & self.ancestor_indices(self.index_of(c2)))
        return frozenset(self._ids[a] for a in common)

    def shortest_path_len(self, c1: str, c2: str) -> int:
        """Minimum number of IS-A edges between two concepts, treating
        edges as traversable in both directions.

        The path may run down through a shared child as well as up
        through a common subsumer.  Found by :meth:`path_len`'s
        bidirectional breadth-first search from both concepts, run
        without a length limit, so the result is always the exact
        length.  The search skips every step down that no shortest path
        can take: it steps down only into a concept that is an
        ancestor-or-self of the far end or of a concept with two or more
        parents; :meth:`path_len` gives the reason this is exact."""
        return self.path_len(self.index_of(c1), self.index_of(c2))

    def path_len(self, i: int, j: int, limit: int | None = None) -> int | None:
        """Undirected shortest path length between concept indices.

        Bidirectional BFS: each step expands the smaller of the two
        frontiers by one whole level, up to every parent and down to
        some children.  A side steps down from ``u`` to its child ``v``
        only if ``v`` is an ancestor-or-self of a concept with two or
        more parents (a valley), or of the far end of the search (``j``
        for the side that started at ``i``, and ``i`` for the other).

        This skips no step of any shortest path.  After a shortest path
        goes down into ``v``, it either keeps going down to the far end,
        so ``v`` is an ancestor of that end, or it turns upward at some
        ``w`` at or below ``v``.  It leaves ``w`` by a different parent
        than the one it came in by, else it would not be shortest, so
        ``w`` has two or more parents.  Hence each side reaches every
        node of every shortest path at that node's distance from its
        start.  While the searched balls (radii ``d_a`` from ``i`` and
        ``d_b`` from ``j``) are disjoint, the distance therefore
        exceeds ``d_a + d_b``; and every meeting is a real path.  So
        the first node one side reaches inside the other's ball closes a
        path of exactly ``d_a + d_b + 1``, the minimum over every
        meeting node of that level.

        With ``limit`` set, returns None as soon as the distance is
        known to exceed ``limit`` (once ``d_a + d_b >= limit`` without a
        meeting), and the exact length otherwise.  An int index outside
        ``range(concept_count)`` raises UnknownConceptError, any other
        index, or a ``limit`` other than an int or None, TypeError.
        """
        goal_b, goal_a = self.ancestor_indices(i), self.ancestor_indices(j)  # far ends' ancestors
        if limit is not None:
            limit = operator.index(limit)
        if i == j:
            return 0 if limit is None or limit >= 0 else None
        parents, down = self._parents, self._down
        seen_a, seen_b = {i}, {j}
        front_a, front_b = [i], [j]
        reach = 0  # d_a + d_b
        while front_a and front_b:
            if limit is not None and reach >= limit:
                return None
            if len(front_a) > len(front_b):
                front_a, front_b = front_b, front_a
                seen_a, seen_b = seen_b, seen_a
                goal_a, goal_b = goal_b, goal_a
            nxt = []
            for u in front_a:
                below = down[u]
                if u in goal_a:  # a child of u may be an ancestor of the far end too
                    below += tuple([g for g in goal_a if u in parents[g]])
                for adjacent in (parents[u], below):
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
        is absent or not a ``str``.  Absence is not an error here: callers
        decide whether a missing word is fatal or merely excludes a pair."""
        return frozenset(self._ids[i] for i in self.sense_indices(word))

    def __repr__(self) -> str:
        return (
            f"Taxonomy({self.concept_count} concepts, {self.edge_count} edges, "
            f"{self.word_count} words, root={self.root!r})"
        )


def _check_id(cid: object) -> None:
    """Raise TaxonomyError unless ``cid`` is a hashable non-empty tab-free str."""
    if not (isinstance(cid, str) and cid and "\t" not in cid and type(cid).__hash__):
        raise TaxonomyError(f"invalid concept id {_shown(cid)}: "
                            "ids are non-empty tab-free strings")


def _edge_column(edges: Iterable) -> list[str]:
    """The ends of ``edges`` as one flat ``[child, parent, child, ...]``
    list; raises naming the first bad edge."""
    ends: list[str] = []
    for edge in edges:
        try:
            if isinstance(edge, str):  # would unpack as one-letter ids
                raise TypeError("a string, not a (child, parent) pair")
            child, parent = edge
            for cid in (child, parent):
                hash(cid)  # unhashable: TypeError
                _check_id(cid)
        except (TypeError, ValueError) as exc:
            raise TaxonomyError(f"invalid edge {_shown(edge)}: {exc}") from None
        ends += child, parent
    return ends


def _extra_concepts(concepts: Iterable, ends: list[str]) -> list[str]:
    """The ids of ``concepts`` that are not among ``ends``; declaring one
    twice is a duplicate."""
    if isinstance(concepts, str):  # would iterate as one-letter ids
        raise TaxonomyError(
            f"concepts is a string, not a collection of concept ids: {concepts!r}"
        )
    concepts = list(concepts)
    endpoints = frozenset(ends) if concepts else frozenset()
    extra: dict[str, None] = {}
    for cid in concepts:
        _check_id(cid)
        if cid in endpoints:
            continue
        if cid in extra:
            raise TaxonomyError(f"duplicate concept id: {cid!r}")
        extra[cid] = None
    return list(extra)


def _sense_columns(senses: Mapping) -> tuple[list[str], list]:
    """``senses`` as a word column and a concept id column, one row per
    (word, id) pair; words are not yet normalized."""
    words: list[str] = []
    sense_ids: list = []
    for word, cids in senses.items():
        if not isinstance(word, str):
            raise TaxonomyError(f"lexicon word is not a string: {_shown(word)}")
        if isinstance(cids, str):  # would iterate as one-letter ids
            raise TaxonomyError(f"sense set for word {_normalized((word,))[0]!r} is a "
                                f"string, not a collection of concept ids: {cids!r}")
        n = len(sense_ids)
        try:
            sense_ids.extend(cids)
        except TypeError as exc:  # not iterable
            raise TaxonomyError(
                f"invalid sense set for word {_normalized((word,))[0]!r}: {exc}") from None
        if len(sense_ids) == n:
            raise TaxonomyError(f"empty sense set for word {_normalized((word,))[0]!r}")
        words.extend(repeat(word, len(sense_ids) - n))
    return words, sense_ids


def _group(keys: Iterable, values: Iterable) -> dict:
    """Each key's distinct values as a sorted tuple, keys in order of
    first appearance."""
    groups: dict = {}
    get = groups.get
    for key, value in zip(keys, values):
        have = get(key)
        if have is None:
            groups[key] = (value,)
        elif value not in have:
            groups[key] = tuple(sorted((*have, value)))
    return groups


def _raise_bad_sense_row(words: list[str], sense_ids: list,
                         index: dict[str, int]) -> NoReturn:
    """Raise for the first (normalized word, concept id) row that is an
    empty word or names an unknown or unhashable id."""
    for word, cid in zip(words, sense_ids):
        if not word:
            raise TaxonomyError("empty word in lexicon")
        try:
            known = cid in index
        except TypeError as exc:
            raise TaxonomyError(f"invalid sense set for word {word!r}: {exc}") from None
        if not known:
            raise TaxonomyError(
                f"dangling concept reference: word {word!r} maps to "
                f"unknown concept {_shown(cid)}"
            )
    raise AssertionError("the sense checks rejected a valid lexicon")


def _index_columns(
    children: list[str],
    parents: list[str],
    words: list[str],
    sense_ids: list,
    extra: Iterable[str] = (),
) -> tuple[tuple[str, ...], dict[str, int], list[tuple[int, ...]], dict]:
    """The :class:`Taxonomy` constructor's arguments from the edges as a
    child and a parent column of valid ids, the lexicon as a word and a
    concept id column, and ``extra`` concepts, which are not edge ends.

    Ids are numbered in order of first appearance: each edge's child,
    then its parent, then the extra concepts.
    """
    ids = tuple(dict.fromkeys(chain(chain.from_iterable(zip(children, parents)), extra)))
    index = dict(zip(ids, range(len(ids))))
    lookup = index.__getitem__

    words = _normalized(words)
    try:
        senses = _group(words, map(lookup, sense_ids))
    except (KeyError, TypeError):  # an unknown or unhashable id
        senses = None
    if senses is None or "" in senses:
        _raise_bad_sense_row(words, sense_ids, index)

    parent_map = _group(map(lookup, children), map(lookup, parents))
    parent_lists = list(map(parent_map.get, range(len(ids)), repeat(())))
    parentless = [i for i, ps in enumerate(parent_lists) if not ps]
    if len(parentless) > 1:
        if SYNTHETIC_ROOT in index:
            raise TaxonomyError(
                f"duplicate concept id: {SYNTHETIC_ROOT!r} is reserved "
                "for the synthetic root"
            )
        root = index[SYNTHETIC_ROOT] = len(ids)
        ids += (SYNTHETIC_ROOT,)
        parent_lists.append(())
        for i in parentless:
            parent_lists[i] = (root,)
    return ids, index, parent_lists, senses


@_gc_paused
def load_taxonomy(edges_path: str | os.PathLike,
                  lexicon_path: str | os.PathLike) -> Taxonomy:
    """Load and validate a taxonomy from an edge file and a lexicon file."""
    with open(edges_path, encoding="utf-8-sig") as fh:
        edges = _parse_pair_columns(fh, str(edges_path))
    if not edges[0]:
        raise TaxonomyError(f"{edges_path}: empty input")
    with open(lexicon_path, encoding="utf-8-sig") as fh:
        lexicon = _parse_pair_columns(fh, str(lexicon_path))
    parts = _index_columns(*edges, *lexicon)
    del edges, lexicon  # free the columns before the taxonomy is built
    return Taxonomy(*parts)
