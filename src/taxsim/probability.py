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

import math
import os
import sys
from dataclasses import dataclass, field
from numbers import Real
from sys import float_info
from types import MappingProxyType
from typing import Collection, Iterator, Mapping

from .errors import ModelError
from .taxonomy import (Taxonomy, _decimal_digits, _gc_paused, _normalized,
                       _parse_pair_columns, _shown)


def _neg_log(x: float, base: float) -> float:
    # 0.0 - ... keeps -log(1.0) at +0.0 rather than -0.0
    return 0.0 - math.log(x) / math.log(base)


def _check_real(value: object, name: str, low: float, rule: str, error=ValueError) -> None:
    """Raise ``error``, naming ``name``, ``rule`` and ``value``, unless
    ``value`` is a real number in (``low``, largest float]."""
    if not isinstance(value, Real) or not low < value <= float_info.max:
        raise error(f"{name} must be finite and {rule}, got {_shown(value)}")


class _Fresh(dict):
    """A dict that no caller holds, so a table keeps it rather than a copy."""


@dataclass(frozen=True)
class FrequencyTable:
    """Word counts, kept as a read-only copy: ``str`` words, ``int`` counts >= 0,
    and a total within ``int``'s limit on decimal digits, ``total_raw``."""

    counts: Mapping[str, int]
    total_raw: int = field(init=False)

    def __post_init__(self):
        counts = self.counts if type(self.counts) is _Fresh else dict(self.counts)
        for word, count in counts.items():
            if not isinstance(word, str):
                raise ModelError(f"counts word is not a string: {_shown(word)}")
            if isinstance(count, bool) or not isinstance(count, int):
                raise ModelError(f"count for word {word!r} is not an integer: {_shown(count)}")
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
        pre-lemmatized.  A ``str`` ``plural_stems`` raises ``ModelError``.
        """
        counts = cls(counts).counts  # checked as given; merging keeps their total
        return _table(list(counts), list(counts.values()), plural_stems)


def _table(words: list[str], counts: list[int],
           plural_stems: Collection[str] | None) -> FrequencyTable:
    """The table of a word column and a column of counts >= 0, summed per
    stripped and lowercased word, words in order of first appearance;
    ``plural_stems`` is as for :meth:`FrequencyTable.from_counts`."""
    if isinstance(plural_stems, str):  # would match any substring as a stem
        raise ModelError(f"plural_stems is a string, not a collection: {plural_stems!r}")
    words = _normalized(words)
    merged = _Fresh(zip(words, counts))  # no copy: the load's peak memory stays as it was
    if len(merged) < len(words):  # a word repeats: sum its counts
        merged = _Fresh.fromkeys(merged, 0)
        for word, count in zip(words, counts):
            merged[word] += count
    if plural_stems is not None:
        folded: dict[str, int] = _Fresh()
        for word, count in merged.items():
            stem = word[:-1]
            if word.endswith("s") and len(word) > 1 and stem in plural_stems:
                folded[stem] = folded.get(stem, 0) + count
            else:
                folded[word] = folded.get(word, 0) + count
        merged = folded
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
    except ModelError as exc:  # the total, or a str plural_stems: the counts were checked
        raise ModelError(f"{label}: {exc}") from None


class ProbabilityModel:
    """Per-concept frequency, probability, and information content.

    Immutable once built; safe for concurrent reads.  Information content
    of a zero-frequency concept is ``+inf`` (no smoothing is applied);
    similarity queries treat such concepts as carrying no evidence.
    """

    @_gc_paused
    def __init__(self, taxonomy: Taxonomy, table: FrequencyTable, log_base: float = 2.0):
        """Propagate the counts of ``table`` up ``taxonomy``: each counted
        word credits its count once to every ancestor-or-self of any of
        its senses (set semantics under polysemy and diamond
        inheritance).  Words absent from the lexicon do not contribute
        to N.

        No ancestor set is built.  A one-sense word's count is direct
        mass on its concept.  One pass, children before parents, hands
        each concept's mass on to its parent wherever the taxonomy is a
        tree: a concept that is not a valley (see
        :attr:`Taxonomy.valleys_by_index`) has at most one parent and a
        tree below it, so its frequency is its mass once its children
        have handed theirs on.  A valley's mass, gathered from its own
        words and its non-valley children, is walked up once, crediting
        each ancestor-or-self once; so are the senses of each counted
        word with two or more of them."""
        _check_real(log_base, "log_base", 1, "> 1")
        if not isinstance(table, FrequencyTable):
            raise ModelError(f"table is a {type(table).__name__}, not a FrequencyTable")
        parents = taxonomy.parents_by_index
        freq = [0] * taxonomy.concept_count
        mass = [0] * taxonomy.concept_count

        def credit(starts, count):
            """Add ``count`` once to every ancestor-or-self of ``starts``."""
            todo, seen = list(starts), set(starts)
            for u in todo:
                freq[u] += count
                for p in parents[u]:
                    if p not in seen:
                        seen.add(p)
                        todo.append(p)

        for word, count in table.counts.items():
            senses = taxonomy.sense_indices(word)  # () for a word not in the lexicon
            if len(senses) == 1:
                mass[senses[0]] += count
            elif senses:
                credit(senses, count)
        valleys = taxonomy.valleys_by_index
        for i in reversed(taxonomy.topological_order):
            if not mass[i]:
                continue
            if valleys[i]:
                credit((i,), mass[i])
            else:
                freq[i] += mass[i]
                for p in parents[i]:  # the only one, if any
                    mass[p] += mass[i]
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
        self._ic = tuple(
            math.inf if f == 0
            else _neg_log(p, log_base) if (p := f / n_total) > 0.0
            else (math.log(n_total) - math.log(f)) / math.log(log_base)
            for f in freq
        )
        self._one_minus_p = tuple(1.0 - f / n_total for f in freq)

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
