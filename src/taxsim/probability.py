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
from dataclasses import dataclass, field
from numbers import Real
from sys import float_info
from typing import Collection, Iterator, Mapping

from .errors import ModelError
from .taxonomy import Taxonomy, _gc_paused, _parse_pair_columns


def _neg_log(x: float, base: float) -> float:
    # 0.0 - ... keeps -log(1.0) at +0.0 rather than -0.0
    return 0.0 - math.log(x) / math.log(base)


def _decimal_digits(n: int) -> int:
    """Number of decimal digits of ``n`` > 0, also beyond ``str``'s limit."""
    d = int(math.log10(n)) + 1  # may be one off near a power of ten
    return d - (n < 10 ** (d - 1)) + (n >= 10 ** d)


@dataclass(frozen=True)
class FrequencyTable:
    """Word counts: ``str`` words, ``int`` counts >= 0, and a total within
    ``int``'s limit on decimal digits; ``total_raw`` is that total."""

    counts: dict[str, int]
    total_raw: int = field(init=False)

    def __post_init__(self):
        for word, count in self.counts.items():
            if not isinstance(word, str):
                raise ModelError(f"counts word is not a string: {word!r}")
            if isinstance(count, bool) or not isinstance(count, int):
                raise ModelError(f"count for word {word!r} is not an integer: {count!r}")
            if count < 0:
                raise ModelError(f"negative count for word {word!r}: {count}")
        total = sum(self.counts.values())
        try:
            str(total)
        except ValueError:  # no count is larger, so all can be printed
            raise ModelError(f"total count too large ({_decimal_digits(total)} digits)") from None
        object.__setattr__(self, "total_raw", total)

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], *,
                    plural_stems: Collection[str] | None = None) -> "FrequencyTable":
        """Build a table from a word -> count mapping, checked as by the
        constructor.

        Words are lowercased.  With ``plural_stems`` given, a word ending
        in "s" whose stripped form is in ``plural_stems`` has its count
        folded into the stripped form; ``None`` folds nothing.  The rule
        is deliberately naive; counts files are expected to arrive
        pre-lemmatized.
        """
        cls(counts)  # checks the counts as given; merging keeps their total
        return _table(list(counts), list(counts.values()), plural_stems)


def _table(words: list[str], counts: list[int],
           plural_stems: Collection[str] | None) -> FrequencyTable:
    """The table of a word column and a column of counts >= 0, summed per
    stripped and lowercased word, words in order of first appearance;
    ``plural_stems`` is as for :meth:`FrequencyTable.from_counts`."""
    words = list(map(str.lower, map(str.strip, words)))
    merged = dict(zip(words, counts))
    if len(merged) < len(words):  # a word repeats: sum its counts
        merged = dict.fromkeys(merged, 0)
        for word, count in zip(words, counts):
            merged[word] += count
    if plural_stems is not None:
        folded: dict[str, int] = {}
        for word in sorted(merged):
            count = merged[word]
            stem = word[:-1]
            if word.endswith("s") and len(word) > 1 and stem in plural_stems:
                folded[stem] = folded.get(stem, 0) + count
            else:
                folded[word] = folded.get(word, 0) + count
        merged = folded
    return FrequencyTable(merged)


def _count_problem(field: str) -> str | None:
    """What is wrong with the count field ``field``, if anything."""
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


def _count_column(fields: list[str]) -> list[int]:
    """The counts written in ``fields``; ``ValueError`` if
    :func:`_count_problem` finds fault with any of them."""
    counts = list(map(int, fields))  # ValueError for most malformed fields
    # int() also reads a sign, spaces, underscores and non-ASCII digits;
    # of these, only the sign of a negative zero is allowed
    digits = "".join(fields).replace("-", "")
    if counts and (min(counts) < 0 or not (digits.isascii() and digits.isdigit())):
        raise ValueError("malformed count")
    return counts


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
        words, counts = _parse_pair_columns(fh, label, ModelError, _count_column,
                                            _count_problem)
    try:
        return _table(words, counts, plural_stems)
    except ModelError as exc:  # the total count: the counts were checked above
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
        word credits its count once to the union of the ancestor sets of its
        senses (set semantics under polysemy and diamond inheritance); a
        one-sense word's count goes to its concept's direct count, whose
        ancestors are credited once with the sum.  Words absent from the
        lexicon do not contribute to N."""
        if not isinstance(log_base, Real) or not 1 < log_base <= float_info.max:
            big = isinstance(log_base, int) and log_base > 1  # may be too long for repr
            got = f"an int of {_decimal_digits(log_base)} digits" if big else repr(log_base)
            raise ValueError(f"log_base must be finite and > 1, got {got}")
        if not isinstance(table, FrequencyTable):
            raise ModelError(f"table is a {type(table).__name__}, not a FrequencyTable")
        freq = [0] * taxonomy.concept_count
        direct = [0] * taxonomy.concept_count
        for word, count in table.counts.items():
            senses = taxonomy.sense_indices(word)  # () for a word not in the lexicon
            if len(senses) == 1:
                direct[senses[0]] += count
                continue
            covered = frozenset().union(*map(taxonomy.ancestor_indices, senses))
            for i in covered:
                freq[i] += count
        for c, count in enumerate(direct):
            if count:
                for i in taxonomy.ancestor_indices(c):
                    freq[i] += count
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
