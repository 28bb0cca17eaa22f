"""IS-A taxonomy loading, validation, and graph queries.

A taxonomy is a directed acyclic graph of concepts linked by IS-A edges
(child to parent, multiple inheritance allowed) with a single top node,
plus an index mapping each word to the set of concepts that are its
senses.  Construction validates the structure once: the walk that finds
each concept's depth is the only cycle check.  Afterwards the object is
immutable and every query is safe for unsynchronized use from multiple
threads.

The one thing a query here changes is a memo: each concept's ancestors
are built the first time :meth:`Taxonomy.ancestor_indices`,
:meth:`Taxonomy.subsumers` or :meth:`Taxonomy.common_subsumers` asks for
them, as a tuple, and kept in a list slot that held None; the list is
made on the first miss.  That needs no lock.  Every tuple built for a
slot is equal to any other built for it, order included, since each is
a function of the fixed graph alone; storing an item in a list is
atomic; a build reads only slots that are already filled, which never
go back to None; and the list is stored with ``dict.setdefault``, so
every thread writes into the one list stored first.  Two threads that
miss together at worst build the same tuple twice.  The similarity
measures do not fill this memo: the probability model keeps the same
tuples in its rank space (see :mod:`taxsim.probability`), built by the
same walk, :func:`_ancestor_tuple`.  The path search keeps nothing
between calls.  Besides the memo, :func:`taxsim.evaluation.evaluate`
keeps ``_kept_...`` slots on the taxonomy (see :mod:`taxsim.evaluation`).

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
building an ancestor tuple on a query's first request for it does not
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
from collections.abc import Mapping
from itertools import chain, compress, repeat
from sys import float_info
from typing import Callable, Iterable, NoReturn, Sequence, TextIO, TypeVar

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
        self._senses = senses

        # Each concept's longest-path depth, from one walk up the parent
        # lists that keeps its own stack, not Python's, and memoises each
        # depth: a concept's depth is set once all of its parents' are.
        # It is the only cycle check.  Walks start from each index in
        # turn, so the first walk that meets a parent still on its stack
        # starts at the smallest index that reaches a cycle, and has gone
        # up only through parents that reach one (each earlier parent
        # reached none and was finished); it names the loop it closed.
        depths = [-1] * n  # -1: not reached, -2: on the walk's stack
        merges = []  # the concepts with two or more parents
        for start in range(n):
            if depths[start] >= 0:
                continue
            stack = [start]
            depths[start] = -2
            while stack:
                u = stack[-1]
                ps = parents[u]
                for p in ps:
                    if depths[p] < 0:  # not finished: go up to it first
                        if depths[p] == -2:
                            loop = stack[stack.index(p):] + [p]
                            raise TaxonomyError(
                                "cycle detected: " + " -> ".join(ids[i] for i in loop))
                        depths[p] = -2
                        stack.append(p)
                        break
                else:  # every parent has its depth
                    stack.pop()
                    if len(ps) == 1:  # most nodes
                        depths[u] = depths[ps[0]] + 1
                    elif ps:
                        depths[u] = 1 + max(map(depths.__getitem__, ps))
                        merges.append(u)
                    else:
                        depths[u] = 0
        # a parent is shallower than its child, and build() leaves one
        # parentless node, the only one of depth 0; the index's values are
        # 0..n-1 in order, so sorting its own ints gives range(n)'s order
        # without a second int object per concept
        self._order = order = tuple(sorted(index.values(), key=depths.__getitem__))
        self._root = order[0]
        self._depths = depths
        # the path search steps down only onto its starts' one-parent
        # chains and into valleys, the ancestors-or-self of the nodes with
        # two or more parents.  One walk up from those nodes lists each
        # valley under each of its parents, and goes on from a parent when
        # first met.
        down: list[tuple[int, ...]] = [()] * n
        todo, seen = merges, set(merges)  # each merge listed once, when its depth was set
        for v in todo:
            for p in parents[v]:
                down[p] += (v,)
                if p not in seen:
                    seen.add(p)
                    todo.append(p)
        self._down = down
        self.max_depth = max(depths)

    #: Each concept's ancestor indices as a tuple, root first and the
    #: concept last, built by ancestor_indices on first request; None until
    #: then, and the list itself is made on the first miss.  A tuple of
    #: ints takes a fifth of the memory of a frozenset, and the collector
    #: stops tracking it once it survives one collection.
    _ancestors: list[tuple[int, ...] | None] | None = None

    def __getstate__(self) -> dict:
        # the slots that evaluate and the similarity measures keep here are
        # named _kept_...; a pickled or copied taxonomy leaves them out
        return {k: v for k, v in vars(self).items() if not k.startswith("_kept_")}

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
        not a string, a ``senses`` argument that is neither a mapping nor
        None (a list of pairs, a string), a sense set that is a string or
        not iterable, an empty word or sense set, or empty input.
        """
        ends = _edge_column(edges)
        extra = _extra_concepts(concepts, ends)
        if not ends and not extra:
            raise TaxonomyError("empty input: no concepts")
        words, sense_ids = _sense_columns({} if senses is None else senses)
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

    def sense_index_column(self, words: Iterable[str]) -> list[tuple[int, ...]]:
        """``[self.sense_indices(w) for w in words]``, from one lookup pass.

        Every word is looked up as given in one pass; only a miss, or
        every word if one is unhashable, goes through
        :meth:`sense_indices`, so each entry is the one it returns.  A
        ``str`` ``words`` raises TypeError: its letters are not the words
        meant.
        """
        if isinstance(words, str):
            raise TypeError(f"words is a string, not a collection of words: {words!r}")
        words = list(words)
        try:
            column = list(map(self._senses.get, words))
        except TypeError:  # an unhashable word
            return list(map(self.sense_indices, words))
        for k in compress(range(len(column)), map(operator.not_, column)):
            column[k] = self.sense_indices(words[k])
        return column

    def ancestor_indices(self, i: int) -> tuple[int, ...]:
        """The distinct indices of the ancestors of the concept of index
        ``i``, the root first, each after all of its own ancestors, and
        ``i`` itself last.

        The tuple is built by :func:`_ancestor_tuple` the first time it is
        asked for, and kept, so every call returns the same object.  The
        similarity queries do not read it: the probability model keeps
        its own memo of the same tuples, mapped to its ranks.  An int index
        outside ``range(concept_count)`` raises UnknownConceptError, any
        other index TypeError; an int subclass, such as ``bool``, is taken
        as its plain int, so every returned index is an ``int``.
        """
        # the first call makes the memo: every thread gets the one list stored
        return _ancestor_tuple(self._parents, self._ancestors or vars(self).setdefault(
            "_ancestors", [None] * len(self._ids)), operator.index, i)

    @property
    def parents_by_index(self) -> tuple[tuple[int, ...], ...]:
        """The sorted parent indices of every concept, indexed by :meth:`index_of`."""
        return self._parents

    @property
    def topological_order(self) -> tuple[int, ...]:
        """Every concept index, sorted by depth (the longest path from the
        root), ties in index order: the root first, and each concept
        after all of its parents."""
        return self._order

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
        common = set(self.ancestor_indices(self.index_of(c1))).intersection(
            self.ancestor_indices(self.index_of(c2)))
        return frozenset(self._ids[a] for a in common)

    def shortest_path_len(self, c1: str, c2: str) -> int:
        """Minimum number of IS-A edges between two concepts, treating
        edges as traversable in both directions.

        The path may run down through a shared child as well as up
        through a common subsumer.  Found by :meth:`nearest_path_len`'s
        bidirectional breadth-first search from both concepts, run
        without a length limit, so the result is always the exact
        length.  The search skips every step down that no shortest path
        can take; :meth:`nearest_path_len` gives its rule and why it is
        exact."""
        return self.path_len(self.index_of(c1), self.index_of(c2))

    def path_len(self, i: int, j: int, limit: int | None = None) -> int | None:
        """Undirected shortest path length between concept indices:
        :meth:`nearest_path_len` of ``(i,)`` and ``(j,)``, with the same
        ``limit`` and the same errors."""
        return self.nearest_path_len((i,), (j,), limit)

    def nearest_path_len(self, s1: Sequence[int], s2: Sequence[int],
                         limit: int | None = None) -> int | None:
        """The least undirected path length between any concept index of
        ``s1`` and any of ``s2``, such as the senses of two words.

        Bidirectional BFS from every start of both sides at once: each
        step expands the smaller of the two frontiers by one whole level,
        up to every parent and down to some children; on a tie the side
        that expanded last goes on, and the side from ``s1`` expands
        first.  A side steps down from ``u`` to its child ``v`` if ``v``
        is an ancestor-or-self of a concept with two or more parents (a
        valley), or if ``v`` is on the one-parent chain of a start of the
        other side: that start and the concepts reached from it by going
        up while the concept has exactly one parent.  A side walks those
        chains when it first expands; chains that share a node are
        merged, so ``u`` may have several children on them.

        This skips no step of any shortest path.  Take one, from a start
        ``a`` of one side to a start ``b`` of the other; every node on it
        is as far from its side's starts as from ``a``, else a shorter
        path would exist.  After it goes down into ``v``, it either keeps
        going down to ``b``, so ``v`` is an ancestor-or-self of ``b``, or
        it turns upward at some ``w`` at or below ``v``.  It leaves ``w``
        by a different parent than the one it came in by, else it would
        not be shortest, so ``w`` has two or more parents and ``v`` is a
        valley.  ``b``'s ancestors-or-self are its chain and the
        ancestors-or-self of the chain's top ``t``; ``t`` is either the
        root, which is no concept's child, or has two or more parents, so
        that it and its ancestors are valleys.  Read from ``b``, the path
        is one of the other side's, so each side reaches every node of
        every shortest path at that node's distance from its starts.
        While the searched balls (radii ``d_a`` from ``s1`` and ``d_b``
        from ``s2``) are disjoint, the distance therefore exceeds ``d_a +
        d_b``; and every meeting is a real path.  So the first node one
        side reaches inside the other's ball closes a path of exactly
        ``d_a + d_b + 1``, the minimum over every meeting node of that
        level.

        With ``limit`` set, returns None as soon as the distance is
        known to exceed ``limit`` (once ``d_a + d_b >= limit`` without a
        meeting), and the exact length otherwise.  ``s1`` and ``s2`` are
        sequences of concept indices; an int index outside
        ``range(concept_count)`` raises UnknownConceptError, any other
        index, or a ``limit`` other than an int or None, TypeError, and
        an empty sequence ValueError.
        """
        # each index converted first, so that an error names it as a plain int
        n = len(self._ids)
        seen_a = {_checked_index(operator.index(i), n) for i in s1}
        seen_b = {_checked_index(operator.index(j), n) for j in s2}
        if not (seen_a and seen_b):
            raise ValueError("a sense sequence is empty")
        if limit is not None:
            limit = operator.index(limit)
        if not seen_a.isdisjoint(seen_b):
            return 0 if limit is None or limit >= 0 else None
        parents, down = self._parents, self._down
        front_a, front_b = list(seen_a), list(seen_b)
        # each side steps down onto the chains of the other side's starts,
        # walked when the side first expands
        ends_a, ends_b = front_b, front_a
        chain_a = chain_b = None
        reach = 0  # d_a + d_b
        while front_a and front_b:
            if limit is not None and reach >= limit:
                return None
            if len(front_a) > len(front_b):
                front_a, front_b = front_b, front_a
                seen_a, seen_b = seen_b, seen_a
                chain_a, chain_b = chain_b, chain_a
                ends_a, ends_b = ends_b, ends_a
            if chain_a is None:
                chain_a = _chains(parents, ends_a)
            nxt = []
            for u in front_a:
                below = down[u]
                if u in chain_a:  # u's children on the other side's chains
                    below += chain_a[u]
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
            "no path between the two index sequences"
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


def _checked_index(i: int, count: int) -> int:
    """``i`` as a plain int, if it is a concept index below ``count``; an
    int outside ``range(count)`` raises UnknownConceptError naming ``i``,
    any other value TypeError."""
    if not 0 <= (k := operator.index(i)) < count:
        raise UnknownConceptError(f"unknown concept index: {_shown(i)}")
    return k


def _chains(parents: tuple[tuple[int, ...], ...],
            starts: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """The one-parent chains of ``starts`` as ``{parent: children}``: each
    start, and each concept reached from it by going up while the concept
    has exactly one parent, listed under its parent.  Chains that meet
    share what lies above the meeting node, which is walked once."""
    chains: dict[int, tuple[int, ...]] = {}
    for end in starts:
        while len(ps := parents[end]) == 1:
            below = chains.get(p := ps[0])
            if below is not None:  # p and the chain above it are listed
                if end not in below:
                    chains[p] = below + (end,)
                break
            chains[p] = (end,)
            end = p
    return chains


def _ancestor_tuple(parents: tuple[tuple[int, ...], ...], memo: list,
                    label: Callable[[int], int], i: int) -> tuple[int, ...]:
    """``label(u)`` of every ancestor-or-self ``u`` of the concept of
    index ``i``, once each: the root's first, each after those of all of
    ``u``'s own ancestors, and ``i``'s last; read from ``memo[i]``, or
    built into it, with the tuple of every unbuilt ancestor on the way.
    ``i`` is checked as :func:`_checked_index` checks it, against
    ``len(memo)``, and a plain int, not a bool or IntEnum member, is
    what the memo keeps.

    ``memo`` holds one slot per concept, None until built.  A tuple is
    built from its parents' tuples: with one parent, the parent's tuple
    plus the concept's label; otherwise the parents' tuples merged in
    parent order, each label kept where it first appears.  So each is a
    function of the graph and ``label`` alone.  A miss whose one parent
    is built is one concatenation; any other walks up with its own
    stack, building each concept once all of its parents are built.
    This is the one ancestor walk: :meth:`Taxonomy.ancestor_indices`
    labels each concept by its index, the probability model by its rank.
    """
    try:  # most calls: an index in range whose tuple is built
        if i >= 0 and (built := memo[i]) is not None:
            return built
    except (TypeError, IndexError):  # not an int, or too large: checked below
        pass
    i = _checked_index(i, len(memo))
    ps = parents[i]
    if len(ps) == 1 and (up := memo[ps[0]]) is not None:  # most misses
        memo[i] = built = up + (label(i),)
        return built
    todo = [i]
    while todo:
        u = todo[-1]
        ps = parents[u]
        if len(ps) == 1:  # most nodes
            up = memo[ps[0]]
            if up is None:
                todo.append(ps[0])
                continue
            if memo[u] is None:  # else reached twice, through a diamond
                memo[u] = up + (label(u),)
        else:  # the root, or a merge of two or more parents
            unbuilt = [p for p in ps if memo[p] is None]
            if unbuilt:
                todo += unbuilt
                continue
            if memo[u] is None:
                memo[u] = (*dict.fromkeys(chain.from_iterable(map(memo.__getitem__, ps))),
                           label(u))
        todo.pop()
    return memo[i]


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
    if not isinstance(senses, Mapping):  # a list of pairs has no words to look up
        raise TaxonomyError(f"senses is a {type(senses).__name__}, "
                            "not a mapping of words to concept ids")
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

    The function consumes its four lists: each is emptied once it has
    been read, so that its strings are freed before the next step
    allocates.  The edge columns go once they are mapped to indices, the
    raw words once normalized (in place), and the sense ids and the
    normalized words once grouped and checked, since a bad row is named
    from them.
    """
    ids = tuple(dict.fromkeys(chain(chain.from_iterable(zip(children, parents)), extra)))
    index = dict(zip(ids, range(len(ids))))
    lookup = index.__getitem__
    child_ix, parent_ix = list(map(lookup, children)), list(map(lookup, parents))
    children.clear()
    parents.clear()

    words[:] = _normalized(words)
    try:
        senses = _group(words, map(lookup, sense_ids))
    except (KeyError, TypeError):  # an unknown or unhashable id
        senses = None
    if senses is None or "" in senses:
        _raise_bad_sense_row(words, sense_ids, index)
    sense_ids.clear()
    words.clear()

    parent_map = _group(child_ix, parent_ix)
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
    return Taxonomy(*_index_columns(*edges, *lexicon))
