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
from dataclasses import dataclass
from typing import Collection, Iterator, Mapping

from .errors import ModelError
from .taxonomy import Taxonomy, _parse_pair_lines


def _neg_log(x: float, base: float) -> float:
    # 0.0 - ... keeps -log(1.0) at +0.0 rather than -0.0
    return 0.0 - math.log(x) / math.log(base)


@dataclass(frozen=True)
class FrequencyTable:
    """Merged word counts; ``total_raw`` is their sum."""

    counts: dict[str, int]
    total_raw: int

    @classmethod
    def from_counts(
        cls,
        counts: Mapping[str, int],
        *,
        plural_fold: bool = False,
        known_words: Collection[str] | None = None,
    ) -> "FrequencyTable":
        """Build a table from a word -> count mapping.

        Words are lowercased.  With ``plural_fold`` on, a word ending in
        "s" whose stripped form is in ``known_words`` has its count folded
        into the stripped form.  The rule is deliberately naive; counts
        files are expected to arrive pre-lemmatized.  Counts must be ints >= 0.
        """
        merged: dict[str, int] = {}
        for word, count in counts.items():
            if isinstance(count, bool) or not isinstance(count, int):
                raise ModelError(f"count for word {word!r} is not an integer: {count!r}")
            if count < 0:
                raise ModelError(f"negative count for word {word!r}: {count}")
            word = word.strip().lower()
            merged[word] = merged.get(word, 0) + count

        if plural_fold:
            if known_words is None:
                raise ValueError("plural_fold requires known_words")
            folded: dict[str, int] = {}
            for word in sorted(merged):
                count = merged[word]
                stem = word[:-1]
                if word.endswith("s") and len(word) > 1 and stem in known_words:
                    folded[stem] = folded.get(stem, 0) + count
                else:
                    folded[word] = folded.get(word, 0) + count
            merged = folded

        return cls(counts=merged, total_raw=sum(merged.values()))


def load_counts(
    path: str | os.PathLike,
    *,
    plural_fold: bool = False,
    known_words: Collection[str] | None = None,
) -> FrequencyTable:
    """Read a ``word<TAB>count`` file into a :class:`FrequencyTable`.

    Counts are non-negative integers written in ASCII decimal digits;
    duplicate words are summed.  ``#`` lines and blank lines are ignored.
    """
    label = str(path)
    counts: dict[str, int] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, word, field in _parse_pair_lines(fh, label, ModelError):
            digits = field.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise ModelError(f"{label}:{lineno}: malformed count {field!r}")
            try:
                count = int(field)
            except ValueError:  # beyond int()'s limit on decimal digits
                raise ModelError(
                    f"{label}:{lineno}: count too large ({len(digits)} digits)"
                ) from None
            if count < 0:
                raise ModelError(f"{label}:{lineno}: negative count {count}")
            counts[word] = counts.get(word, 0) + count
    return FrequencyTable.from_counts(
        counts, plural_fold=plural_fold, known_words=known_words
    )


class ProbabilityModel:
    """Per-concept frequency, probability, and information content.

    Immutable once built; safe for concurrent reads.  Information content
    of a zero-frequency concept is ``+inf`` (no smoothing is applied);
    similarity queries treat such concepts as carrying no evidence.
    """

    def __init__(self, taxonomy: Taxonomy, freq: list[int], log_base: float):
        self._taxonomy = taxonomy
        self._freq = freq
        self.log_base = log_base
        n_total = freq[taxonomy.index_of(taxonomy.root)]
        if n_total <= 0:
            raise ModelError(
                "no counted word attaches to the taxonomy (N = 0); "
                "check that counts words appear in the lexicon"
            )
        self.N = n_total
        self._p = tuple(f / n_total for f in freq)
        # a p that underflowed to 0.0 (f > 0) takes its ic from the ints
        self._ic = tuple(
            math.inf if f == 0
            else _neg_log(p, log_base) if p > 0.0
            else (math.log(n_total) - math.log(f)) / math.log(log_base)
            for f, p in zip(freq, self._p)
        )

    @property
    def taxonomy(self) -> Taxonomy:
        return self._taxonomy

    @property
    def p_by_index(self) -> tuple[float, ...]:
        """p of every concept, indexed by :meth:`Taxonomy.index_of`."""
        return self._p

    @property
    def ic_by_index(self) -> tuple[float, ...]:
        """ic of every concept, indexed by :meth:`Taxonomy.index_of`."""
        return self._ic

    def freq(self, concept: str) -> int:
        return self._freq[self._taxonomy.index_of(concept)]

    def p(self, concept: str) -> float:
        return self._p[self._taxonomy.index_of(concept)]

    def ic(self, concept: str) -> float:
        """Information content of ``concept``; ``+inf`` when its frequency
        is zero."""
        return self._ic[self._taxonomy.index_of(concept)]

    def dump_rows(self) -> Iterator[tuple[str, int, float, float]]:
        """(concept_id, freq, p, ic) rows sorted by concept id."""
        for cid in sorted(self._taxonomy.concepts()):
            i = self._taxonomy.index_of(cid)
            yield cid, self._freq[i], self._p[i], self._ic[i]

    def __repr__(self) -> str:
        return (
            f"ProbabilityModel(N={self.N}, log_base={self.log_base}, "
            f"{self._taxonomy.concept_count} concepts)"
        )


def build_model(
    taxonomy: Taxonomy, table: FrequencyTable, log_base: float = 2.0
) -> ProbabilityModel:
    """Propagate word counts upward and derive probabilities.

    For each counted word the union of the ancestor sets of all its
    senses is credited once with the word's count, which gives the
    deduplicated set semantics required under polysemy and diamond
    inheritance.  Words absent from the lexicon are ignored and do not
    contribute to N.
    """
    if not math.isfinite(log_base) or log_base <= 1:
        raise ValueError(f"log_base must be finite and > 1, got {log_base}")
    freq = [0] * taxonomy.concept_count
    for word, count in table.counts.items():
        senses = taxonomy.sense_indices(word)  # () for a word not in the lexicon
        covered = frozenset().union(*map(taxonomy.ancestor_indices, senses))
        for i in covered:
            freq[i] += count
    return ProbabilityModel(taxonomy, freq, log_base)
