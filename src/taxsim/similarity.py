"""Similarity measures over taxonomy concepts and words.

Five measures share one query surface:

* ``resnik``  - information content of the most informative common
  subsumer, maximized over sense pairs for word queries;
* ``edge``    - (2 * MAX) minus the shortest IS-A path length, minimized
  over sense pairs, where MAX is the taxonomy depth;
* ``prob``    - max of 1 - p(c) over common subsumers and sense pairs;
* ``lch``     - negative log of the shortest path length normalized by
  twice the taxonomy depth, with a configurable floor replacing a zero
  path so synonyms stay finite;
* ``weighted`` - concept-level only: a caller-supplied convex combination
  of the information content of all common subsumers, instead of the
  single maximizing one.

Ties in any argmax are broken toward the first sense pair, then the
smallest internal concept index (the order of first appearance in the
input), so results are deterministic.  All functions are pure over
immutable inputs and safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import SimilarityError, UnknownWordError
from .probability import ProbabilityModel, _neg_log
from .taxonomy import Taxonomy

#: Word-level measures usable by the evaluation pipeline and the CLI.
#: ``weighted`` is excluded: lifting it to words would require choosing a
#: sense pair, which the measure exists to avoid.
WORD_MEASURES = ("resnik", "edge", "prob", "lch")

#: Word-level measures that need a probability model.
CORPUS_MEASURES = ("resnik", "prob")

#: Tolerance on the sum of alpha weights.
WEIGHT_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SimScore:
    """A similarity value with its provenance.

    ``witness`` is the subsumer concept attaining the maximum, for the
    measures that have one; ``sense_pair`` records the maximizing senses
    of a word-level query.
    """

    value: float
    witness: str | None = None
    sense_pair: tuple[str, str] | None = None


def _sense_indices(t: Taxonomy, word: str) -> tuple[int, ...]:
    senses = t.sense_indices(word)
    if not senses:
        raise UnknownWordError(f"word not in taxonomy: {word!r}")
    return senses


def _best_subsumer(t: Taxonomy, s1: tuple[int, ...], s2: tuple[int, ...],
                   value: Callable[[int], float | None]) -> tuple | None:
    """(value, witness, i1, i2) maximizing ``value(c)`` over sense pairs
    ``s1`` x ``s2`` x sorted common subsumers ``c``, the one rule behind
    resnik and prob; None if ``value`` skips (returns None for) every c.
    Only a strictly greater value replaces the best, so ties keep the
    first pair, then the smallest c."""
    best = None
    for i1 in s1:
        for i2 in s2:
            for c in sorted(t.ancestor_indices(i1) & t.ancestor_indices(i2)):
                v = value(c)
                if v is not None and (best is None or v > best[0]):
                    best = (v, c, i1, i2)
    return best


def _word_score(t: Taxonomy, best: tuple) -> SimScore:
    value, witness, i1, i2 = best
    return SimScore(value=value, witness=t.concept_id(witness),
                    sense_pair=(t.concept_id(i1), t.concept_id(i2)))


def _resnik(model: ProbabilityModel, t: Taxonomy, s1: tuple[int, ...],
            s2: tuple[int, ...], a: str, b: str) -> SimScore:
    """resnik over sense pairs ``s1`` x ``s2``: zero-frequency subsumers are
    skipped, and ``a``, ``b`` name the query in the error if none is left."""
    ic = model.ic_by_index
    best = _best_subsumer(t, s1, s2, lambda c: None if math.isinf(ic[c]) else ic[c])
    if best is None:
        raise SimilarityError(
            f"every common subsumer of {a!r} and {b!r} has zero frequency"
        )
    return _word_score(t, best)


def sim_resnik_concepts(model: ProbabilityModel, t: Taxonomy,
                        c1: str, c2: str) -> SimScore:
    """Information content of the most informative concept subsuming both.

    Zero-frequency subsumers carry no evidence and are skipped; if no
    common subsumer has finite information content the model is
    degenerate and the query fails.
    """
    score = _resnik(model, t, (t.index_of(c1),), (t.index_of(c2),), c1, c2)
    return SimScore(value=score.value, witness=score.witness)


def sim_resnik_words(model: ProbabilityModel, t: Taxonomy,
                     w1: str, w2: str) -> SimScore:
    """Word similarity: the concept measure maximized over all sense pairs."""
    return _resnik(model, t, _sense_indices(t, w1), _sense_indices(t, w2), w1, w2)


def _min_sense_path(t: Taxonomy, w1: str, w2: str) -> tuple[int, tuple[str, str]]:
    """Shortest undirected IS-A path over all sense pairs of two words.

    After the first pair, each search is limited to ``best - 1`` edges:
    only a strictly shorter path can replace the best pair, so ties keep
    the first pair in sorted index order.
    """
    s1 = _sense_indices(t, w1)
    s2 = _sense_indices(t, w2)
    best = None
    best_pair = (-1, -1)
    for i1 in s1:
        for i2 in s2:
            length = t.path_len(i1, i2, None if best is None else best - 1)
            if length is not None:
                best, best_pair = length, (i1, i2)
    return best, (t.concept_id(best_pair[0]), t.concept_id(best_pair[1]))


def sim_edge(t: Taxonomy, w1: str, w2: str) -> SimScore:
    """Edge-counting similarity: (2 * MAX) - min path length.

    Subtracting from the maximum possible path length converts the path
    distance into a similarity; identical senses score 2 * MAX.
    """
    length, pair = _min_sense_path(t, w1, w2)
    return SimScore(value=float(2 * t.max_depth - length), sense_pair=pair)


def sim_prob(model: ProbabilityModel, t: Taxonomy, w1: str, w2: str) -> SimScore:
    """Max of 1 - p(c) over common subsumers of any sense pair.

    Uses raw probability instead of its negative log; a pair whose only
    common subsumer is the root scores exactly 0.  Zero-frequency
    subsumers are legitimate candidates here (1 - p = 1), since the
    candidate value stays finite.
    """
    s1 = _sense_indices(t, w1)
    s2 = _sense_indices(t, w2)
    p = model.p_by_index
    return _word_score(t, _best_subsumer(t, s1, s2, lambda c: 1.0 - p[c]))


def sim_lch(t: Taxonomy, w1: str, w2: str, *,
            log_base: float = 2.0, floor: float = 1.0) -> SimScore:
    """Normalized-path similarity: -log(len / (2 * MAX)).

    A zero path length (exact synonyms) is replaced by ``floor`` to keep
    the score finite while leaving synonyms strictly most similar.  The
    floor is a local convention, not a published constant.
    """
    if not math.isfinite(log_base) or log_base <= 1:
        raise ValueError(f"log_base must be finite and > 1, got {log_base}")
    if not math.isfinite(floor) or floor <= 0:
        raise ValueError(f"floor must be finite and positive, got {floor}")
    if t.max_depth < 1:
        raise SimilarityError(
            "taxonomy depth is 0; path-normalized similarity is undefined"
        )
    length, pair = _min_sense_path(t, w1, w2)
    effective = floor if length == 0 else float(length)
    value = _neg_log(effective / (2.0 * t.max_depth), log_base)
    return SimScore(value=value, sense_pair=pair)


def finite_common_subsumers(model: ProbabilityModel, t: Taxonomy,
                            c1: str, c2: str) -> frozenset[str]:
    """Common subsumers of two concepts with finite information content;
    the valid weight domain for :func:`sim_weighted`."""
    i1, i2 = t.index_of(c1), t.index_of(c2)
    ic = model.ic_by_index
    return frozenset(
        t.concept_id(c)
        for c in t.ancestor_indices(i1) & t.ancestor_indices(i2)
        if not math.isinf(ic[c])
    )


def uniform_weights(model: ProbabilityModel, t: Taxonomy,
                    c1: str, c2: str) -> dict[str, float]:
    """Equal weights over the finite-ic common subsumers of two concepts."""
    domain = finite_common_subsumers(model, t, c1, c2)
    if not domain:
        raise SimilarityError(
            f"every common subsumer of {c1!r} and {c2!r} has zero frequency"
        )
    share = 1.0 / len(domain)
    return {cid: share for cid in domain}


def sim_weighted(model: ProbabilityModel, t: Taxonomy, c1: str, c2: str,
                 weights: Mapping[str, float]) -> float:
    """Weighted-sum similarity: sum of weight(c) * ic(c) over subsumers.

    Every common subsumer contributes information content in proportion
    to its weight, instead of the single maximizing concept taking all.
    ``weights`` must cover exactly the finite-ic common subsumers, be
    non-negative, and sum to 1; with a point mass on the maximizing
    subsumer this reduces to :func:`sim_resnik_concepts`.
    """
    domain = finite_common_subsumers(model, t, c1, c2)
    given = set(weights)
    if given != domain:
        missing = sorted(domain - given)
        extra = sorted(given - domain)
        raise ValueError(
            f"weight domain mismatch: missing {missing}, unexpected {extra}"
        )
    for cid, w in weights.items():
        if w < 0:
            raise ValueError(f"negative weight for {cid!r}: {w}")
    total = math.fsum(weights.values())
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise ValueError(f"weights sum to {total!r}, expected 1.0")
    return math.fsum(w * model.ic(cid) for cid, w in weights.items())


def word_similarity(measure: str, t: Taxonomy, w1: str, w2: str,
                    model: ProbabilityModel | None = None, *,
                    log_base: float = 2.0, lch_floor: float = 1.0) -> SimScore:
    """Dispatch a word-level query to one of :data:`WORD_MEASURES`.

    ``model`` is required for the corpus-based measures (resnik, prob)
    and ignored by the purely structural ones (edge, lch).  ``log_base``
    only affects lch; the corpus measures inherit the base the model was
    built with.
    """
    if measure in CORPUS_MEASURES and model is None:
        raise ValueError(f"measure {measure!r} requires a probability model")
    if measure == "resnik":
        return sim_resnik_words(model, t, w1, w2)
    if measure == "edge":
        return sim_edge(t, w1, w2)
    if measure == "prob":
        return sim_prob(model, t, w1, w2)
    if measure == "lch":
        return sim_lch(t, w1, w2, log_base=log_base, floor=lch_floor)
    raise ValueError(f"unknown measure {measure!r}; expected one of {WORD_MEASURES}")
