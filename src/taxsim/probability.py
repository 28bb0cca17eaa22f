"""Word frequency counts and their propagation to taxonomy concepts.

Each counted word credits its full count to every concept that subsumes
any of its senses, so a concept's frequency is the summed count of the
distinct words below it.  A word contributes at most once per concept,
no matter how many of its senses fall under that concept or how many
inheritance paths lead up from them.  Concept probability is relative
frequency against N, the total count of words attached to the taxonomy;
information content is the negative log of that probability.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from collections.abc import Container
from dataclasses import dataclass, field
from functools import partial
from numbers import Real
from sys import float_info
from types import MappingProxyType
from typing import Callable, Collection, Iterator, Mapping, NamedTuple, Sequence

from .errors import ModelError
from .taxonomy import (Taxonomy, _ancestor_tuple, _decimal_digits, _gc_paused,
                       _normalized, _parse_pair_columns, _shown)


def _neg_log(x: float, base: float) -> float:
    # 0.0 - ... keeps -log(1.0) at +0.0 rather than -0.0
    return 0.0 - math.log(x) / math.log(base)


def _check_real(value: object, name: str, low: float, rule: str, error=ValueError,
                high: float = float_info.max) -> None:
    """Raise ``error``, naming ``name``, ``rule`` and ``value``, unless
    ``value`` is a real number in (``low``, ``high``], by default up to
    the largest float."""
    if not isinstance(value, Real) or not low < value <= high:
        raise error(f"{name} must be finite and {rule}, got {_shown(value)}")


@dataclass(frozen=True)
class FrequencyTable:
    """Word counts, kept as a read-only copy: ``str`` words, ``int`` counts >= 0,
    and a total within ``int``'s limit on decimal digits, ``total_raw``."""

    counts: Mapping[str, int]
    total_raw: int = field(init=False)

    def __post_init__(self):
        counts = dict(self.counts)
        # accepted at once when every word is a str and every count an int
        # >= 0, as is usual; else each entry is checked, naming the first bad one
        if not ({*map(type, counts)} <= {str} and {*map(type, counts.values())} <= {int}
                and min(counts.values(), default=0) >= 0):
            for word, count in counts.items():
                if not isinstance(word, str):
                    raise ModelError(f"counts word is not a string: {_shown(word)}")
                if isinstance(count, bool) or not isinstance(count, int):
                    raise ModelError(
                        f"count for word {word!r} is not an integer: {_shown(count)}")
                if count < 0:
                    raise ModelError(f"negative count for word {word!r}: {_shown(count)}")
        total = sum(counts.values())
        try:
            str(total)
        except ValueError:  # no count is larger, so all can be printed
            raise ModelError(f"total count too large ({_decimal_digits(total)} digits)") from None
        object.__setattr__(self, "counts", MappingProxyType(counts))
        object.__setattr__(self, "total_raw", total)

    def __reduce__(self):  # a mappingproxy cannot be pickled or deep-copied
        return FrequencyTable, (dict(self.counts),)

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], *,
                    plural_stems: Collection[str] | None = None) -> "FrequencyTable":
        """Build a table from a word -> count mapping, checked as by the
        constructor.

        Words are normalized as the lexicon's are (stripped, lowercased,
        NFC).  With ``plural_stems`` given, a word ending
        in "s" whose stripped form is in ``plural_stems`` has its count
        folded into the stripped form; ``None`` folds nothing.  The rule
        is deliberately naive; counts files are expected to arrive
        pre-lemmatized.  A ``plural_stems`` that is a ``str``, ``bytes``
        or no container of words at all raises ``ModelError``.
        """
        counts = cls(counts).counts  # checked as given; merging keeps their total
        # int subclasses as plain ints, as summing them would give
        return _table(list(counts), list(map(int, counts.values())), plural_stems)


def _table(words: list[str], counts: list[int],
           plural_stems: Collection[str] | None) -> FrequencyTable:
    """The table of a word column and a column of counts >= 0, summed per
    stripped and lowercased word, words in order of first appearance;
    ``plural_stems`` is as for :meth:`FrequencyTable.from_counts`."""
    # a str would match any substring as a stem; bytes, or a non-container such
    # as an int, cannot hold a str stem
    if isinstance(plural_stems, (str, bytes, bytearray)) or not (
            plural_stems is None or isinstance(plural_stems, Container)):
        kind = "string" if isinstance(plural_stems, str) else type(plural_stems).__name__
        raise ModelError(f"plural_stems is a {kind}, not a collection: {_shown(plural_stems)}")
    words = _normalized(words)
    if plural_stems is None:  # one dict pass, unless a word repeats
        merged = dict(zip(words, counts))
        if len(merged) == len(words):
            return FrequencyTable(merged)
    merged = {}
    for word, count in zip(words, counts):
        if (plural_stems is not None and word.endswith("s") and len(word) > 1
                and word[:-1] in plural_stems):
            word = word[:-1]
        merged[word] = merged.get(word, 0) + count
    return FrequencyTable(merged)


def _count_problem(field: str) -> str | None:
    """What is wrong with the count field ``field``, if anything; a field
    that :func:`_count_pattern` rejects always has a fault."""
    digits = field.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return f"malformed count {field!r}"
    try:
        count = int(field)
    except ValueError:  # beyond int()'s limit on decimal digits
        return f"count too large ({len(digits)} digits)"
    if count < 0:
        return f"negative count {count}"
    return None


def _count_pattern() -> str:
    """The pattern of a count field: ASCII decimal digits, or a negative
    zero, no more of them than ``int()``'s limit on decimal digits when
    called (0, and Python before 3.10.7, which has no such limit, allow
    any number)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    repeat = f"{{1,{limit}}}" if limit else "+"
    return f"[0-9]{repeat}|-0{repeat}"


@_gc_paused
def load_counts(
    path: str | os.PathLike,
    *,
    plural_stems: Collection[str] | None = None,
) -> FrequencyTable:
    """Read a ``word<TAB>count`` file into a :class:`FrequencyTable`;
    ``plural_stems`` is as for :meth:`FrequencyTable.from_counts`.

    Counts are non-negative integers written in ASCII decimal digits;
    duplicate words are summed.  ``#`` lines and blank lines are ignored.
    A count, or the total of all counts, longer than ``int``'s limit on
    decimal digits (4,300 by default) is rejected.
    """
    label = str(path)
    with open(path, encoding="utf-8-sig") as fh:
        words, counts = _parse_pair_columns(fh, label, ModelError, _count_pattern(),
                                            _count_problem)
    counts = list(map(int, counts))  # frees the count strings before _table runs
    try:
        return _table(words, counts, plural_stems)
    except ModelError as exc:  # the total, or a bad plural_stems: the counts were checked
        raise ModelError(f"{label}: {exc}") from None


class _RankSpace(NamedTuple):
    """A model's concepts in rank order, and its ancestor memo in ranks.

    The concepts of non-zero frequency take ranks ``0 .. nonzero - 1`` by
    ascending exact frequency, ties in index order, and the zero-frequency
    concepts the ranks after them by descending index.  ``order[r]`` is
    the concept of rank ``r`` and ``rank[c]`` the rank of concept ``c``;
    both hold the taxonomy's own index ints, so no int is made per
    concept.  ``memo`` holds each concept's ancestors-or-self as ranks,
    in the order of :meth:`Taxonomy.ancestor_indices`, or None until
    ``ancestors(i)`` builds them, checking ``i`` as that method does.
    ``tied_ic`` and ``tied_one_minus_p`` are the ranks of the frequencies
    whose value a greater frequency ties or beats (see
    :func:`_tied_frequencies`); they are empty unless N > 2**53 or some
    p underflows.
    """

    order: list[int]
    rank: list[int]
    memo: list[tuple[int, ...] | None]
    ancestors: Callable[[int], tuple[int, ...]]
    nonzero: int
    tied_ic: frozenset[int]
    tied_one_minus_p: frozenset[int]


def _tied_frequencies(values: Mapping[int, float]) -> frozenset[int]:
    """The frequencies of ``values`` (frequency -> value) whose value is
    not strictly greater than that of every greater frequency: where
    "least frequency" and "greatest value" can pick different concepts."""
    tied, top = set(), -math.inf
    for f in sorted(values, reverse=True):
        if values[f] <= top:
            tied.add(f)
        top = max(top, values[f])
    return frozenset(tied)


def _first_best(concepts: list[int], values: Sequence[float]) -> tuple[float, int]:
    """The greatest of ``values`` over ``concepts``, and the smallest
    concept index that has it."""
    top = max(map(values.__getitem__, concepts))
    return top, min(c for c in concepts if values[c] == top)


class ProbabilityModel:
    """Per-concept frequency, probability, and information content.

    Its values never change once built, and it is safe for concurrent
    queries.  Information content of a zero-frequency concept is ``+inf``
    (no smoothing is applied); similarity queries treat such concepts as
    carrying no evidence.

    Queries read each concept's ancestors from the model's rank space
    (:class:`_RankSpace`), built on the first query that needs it, and
    fill its memo without a lock, as the taxonomy fills its own: each
    tuple is a function of the fixed graph and ranks alone, storing it in
    a list slot is atomic, and a build reads only filled slots.
    """

    @_gc_paused
    def __init__(self, taxonomy: Taxonomy, table: FrequencyTable, log_base: float = 2.0):
        """Propagate the counts of ``table`` up ``taxonomy``: each counted
        word credits its count once to every ancestor-or-self of any of
        its senses (set semantics under polysemy and diamond
        inheritance).  Words absent from the lexicon do not contribute
        to N.

        No ancestor set is built.  A one-sense word's count is direct
        mass on its concept.  One pass, children before parents, adds
        the mass of each concept with at most one parent to its
        frequency and hands it on to that parent: the ancestors of such
        a concept are itself plus its parent's ancestors, which do not
        overlap, so no word is credited twice.  The mass of a concept
        with two or more parents, gathered from its own words and its
        children, is walked up once, crediting each ancestor-or-self
        once; so are the senses of each counted word with two or more
        of them.  Each walk takes a fresh mark in one list of marks, one
        slot per concept: it steps up each chain of one-parent concepts,
        marking and crediting each, and stops at a concept it has already
        marked; at a merge or the root it lists that concept's parents to
        go on from.  The counted words are looked up in one pass,
        :meth:`Taxonomy.sense_index_column`.

        ic and 1 - p are computed once per distinct frequency, by the
        same expressions as per concept, so each value is the same
        float; the concepts of one frequency share that float object."""
        _check_real(log_base, "log_base", 1, "> 1")
        if not isinstance(table, FrequencyTable):
            raise ModelError(f"table is a {type(table).__name__}, not a FrequencyTable")
        parents = taxonomy.parents_by_index
        freq = [0] * taxonomy.concept_count
        mass = [0] * taxonomy.concept_count
        # each concept's one parent, or -1 for the root and the merges
        up = [ps[0] if len(ps) == 1 else -1 for ps in parents]
        marks = [0] * taxonomy.concept_count  # the last walk that credited each concept
        walks = itertools.count(1)

        def credit(starts, count):
            """Add ``count`` once to every ancestor-or-self of ``starts``."""
            walk = next(walks)
            todo = list(starts)
            for u in todo:
                while marks[u] != walk:  # up a chain of one-parent concepts
                    marks[u] = walk
                    freq[u] += count
                    p = up[u]
                    if p < 0:  # the root, or a merge: its parents go on the list
                        todo += parents[u]
                        break
                    u = p

        counts = table.counts
        for senses, count in zip(taxonomy.sense_index_column(counts), counts.values()):
            if len(senses) == 1:  # () for a word not in the lexicon
                mass[senses[0]] += count
            elif senses:
                credit(senses, count)
        for i in reversed(taxonomy.topological_order):
            m = mass[i]
            if not m:
                continue
            p = up[i]
            if p >= 0:
                freq[i] += m
                mass[p] += m
            else:  # a merge, or the root
                credit((i,), m)
        n_total = freq[taxonomy.index_of(taxonomy.root)]
        if n_total <= 0:
            raise ModelError(
                "no counted word attaches to the taxonomy (N = 0); "
                "check that counts words appear in the lexicon"
            )
        self._taxonomy = taxonomy
        self._freq = freq
        self.log_base = log_base
        self.N = n_total
        # a p that underflowed to 0.0 (f > 0) takes its ic from the ints
        distinct = set(freq)
        ic = {
            f: math.inf if f == 0
            else _neg_log(p, log_base) if (p := f / n_total) > 0.0
            else (math.log(n_total) - math.log(f)) / math.log(log_base)
            for f in distinct
        }
        one_minus_p = {f: 1.0 - f / n_total for f in distinct}
        self._ic = tuple(map(ic.__getitem__, freq))
        self._one_minus_p = tuple(map(one_minus_p.__getitem__, freq))
        # resnik prefers the least non-zero frequency, prob the least of all
        self._tied_ic = _tied_frequencies({f: v for f, v in ic.items() if f})
        self._tied_one_minus_p = _tied_frequencies(one_minus_p)

    #: The rank space, built by :meth:`_rank` on the first query that needs it.
    _ranked: _RankSpace | None = None

    def __getstate__(self) -> dict:
        # the rank space is a cache whose memo a closure fills, so a pickled
        # or copied model leaves it out and builds its own on first use
        return {k: v for k, v in vars(self).items() if k != "_ranked"}

    def _rank(self) -> _RankSpace:
        """The rank space, built once and kept; two threads that miss
        together may both build it, and the first one stored, by
        ``dict.setdefault``, is the one every call reads."""
        freq, parents = self._freq, self._taxonomy.parents_by_index
        every = self._taxonomy.topological_order  # the index's own int objects
        # sorted twice, as a sort is stable: ties in frequency stay in index order
        order = sorted(sorted(every), key=freq.__getitem__)
        zeros = freq.count(0)
        order += reversed(order[:zeros])
        del order[:zeros]
        rank = sorted(every, key=order.__getitem__)  # the position of each index in order
        memo = [None] * len(order)
        ancestors = partial(_ancestor_tuple, parents, memo, rank.__getitem__)
        tied = (frozenset(rank[c] for c in order if freq[c] in tied_freqs)
                if tied_freqs else frozenset()
                for tied_freqs in (self._tied_ic, self._tied_one_minus_p))
        space = _RankSpace(order, rank, memo, ancestors, len(order) - zeros, *tied)
        return vars(self).setdefault("_ranked", space)

    def subsumer_argmax(self):
        """A function ``best(s1, s2)`` that gives, over the sense pairs
        ``s1`` x ``s2``, the common subsumer of greatest ic and the one of
        greatest 1 - p, as a pair ``(by_ic, by_one_minus_p)`` of
        ``(value, witness, i1, i2)``: the value, the subsumer's index and
        the sense pair.  resnik reads the first, prob the second.

        Zero-frequency subsumers (ic = ``+inf``) are skipped for ic; the
        root, with ic = 0 as N > 0, subsumes every pair, so one always
        remains.  Ties keep the first sense pair, in the order of ``s1``
        then ``s2``, then the smallest subsumer index.  prob keeps the
        greatest ``1 - p``, not the least ``p``: once N > 2**53, distinct
        p can round to one ``1 - p``, and the tie-break must see that
        tie.  ``s1`` and ``s2`` are non-empty sequences of concept
        indices, each checked as :meth:`Taxonomy.ancestor_indices` checks
        an index; an empty one raises ValueError.  ``i1`` and ``i2`` are
        their items as given.

        Each sense pair's common subsumers are one set of ranks.  Ranks
        go by ascending frequency, and a greater frequency has a lower ic
        and 1 - p, so the best finite ic is at the least rank,
        ``min(common)``, which is below every zero-frequency rank as the
        root's is; the best 1 - p is there too, unless the set holds a
        zero-frequency rank (1 - p = 1), whose greatest is the smallest
        such index.  A zero-frequency subsumer needs both senses of zero
        frequency, so only then is ``max(common)`` looked at.  Where one
        frequency's value ties or beats a smaller one's, the rank found
        is one of the model's tied ranks, and that pair's best is found
        over its whole set instead.  Only a strictly greater value
        replaces the best of an earlier pair.
        """
        order, _, memo, ancestors, nonzero, tied_ic, tied_p = self._ranked or self._rank()
        ic_of, one_minus_p_of = self._ic, self._one_minus_p

        def best(s1: Sequence[int], s2: Sequence[int]) -> tuple[tuple, tuple]:
            if not (s1 and s2):
                raise ValueError("a sense sequence is empty")
            best_ic = best_p = None
            top_ic = top_p = -math.inf
            try:  # a built tuple is read from the memo; any other goes through ancestors
                for i1 in s1:
                    if i1 < 0 or (anc1 := memo[i1]) is None:
                        anc1 = ancestors(i1)
                    a1, zero1 = set(anc1), anc1[-1] >= nonzero
                    for i2 in s2:
                        if i2 < 0 or (anc2 := memo[i2]) is None:
                            anc2 = ancestors(i2)
                        common = a1.intersection(anc2)
                        r = least = min(common)
                        if least in tied_ic:
                            v, c = _first_best([order[k] for k in common if k < nonzero], ic_of)
                        else:
                            v = ic_of[c := order[least]]
                        if v > top_ic:
                            top_ic, best_ic = v, (v, c, i1, i2)
                        if zero1 and anc2[-1] >= nonzero and (most := max(common)) >= nonzero:
                            r = most  # a zero-frequency subsumer: 1 - p = 1
                        if r in tied_p:
                            v, c = _first_best(list(map(order.__getitem__, common)),
                                               one_minus_p_of)
                        else:
                            v = one_minus_p_of[c := order[r]]
                        if v > top_p:
                            top_p, best_p = v, (v, c, i1, i2)
            except (TypeError, IndexError):  # an index that is no int, or beyond the memo
                for i in (*s1, *s2):
                    ancestors(i)  # raises as ancestor_indices does
                raise
            return best_ic, best_p

        return best

    def finite_ic_subsumer_indices(self, i: int, j: int) -> list[int]:
        """The indices of the common subsumers of the concepts of indices
        ``i`` and ``j`` whose ic is finite, in index order: their ranks
        below every zero-frequency rank.  ``i`` and ``j`` are checked as
        :meth:`Taxonomy.ancestor_indices` checks an index."""
        order, _, _, ancestors, nonzero, _, _ = self._ranked or self._rank()
        common = set(ancestors(i)).intersection(ancestors(j))
        return sorted([order[r] for r in common if r < nonzero])

    @property
    def taxonomy(self) -> Taxonomy:
        return self._taxonomy

    @property
    def one_minus_p_by_index(self) -> tuple[float, ...]:
        """1 - p of every concept, indexed by :meth:`Taxonomy.index_of`."""
        return self._one_minus_p

    @property
    def ic_by_index(self) -> tuple[float, ...]:
        """ic of every concept, indexed by :meth:`Taxonomy.index_of`."""
        return self._ic

    def freq(self, concept: str) -> int:
        return self._freq[self._taxonomy.index_of(concept)]

    def p(self, concept: str) -> float:
        return self._freq[self._taxonomy.index_of(concept)] / self.N

    def ic(self, concept: str) -> float:
        """Information content of ``concept``; ``+inf`` when its frequency
        is zero."""
        return self._ic[self._taxonomy.index_of(concept)]

    def dump_rows(self) -> Iterator[tuple[str, int, float, float]]:
        """(concept_id, freq, p, ic) rows sorted by concept id."""
        for cid in sorted(self._taxonomy.concepts()):
            i = self._taxonomy.index_of(cid)
            yield cid, self._freq[i], self._freq[i] / self.N, self._ic[i]

    def __repr__(self) -> str:
        return (
            f"ProbabilityModel(N={self.N}, log_base={self.log_base}, "
            f"{self._taxonomy.concept_count} concepts)"
        )


@_gc_paused  # also while the instance is allocated, which can start a due collection
def build_model(taxonomy: Taxonomy, table: FrequencyTable,
                log_base: float = 2.0) -> ProbabilityModel:
    """``ProbabilityModel(taxonomy, table, log_base)``."""
    return ProbabilityModel(taxonomy, table, log_base)
