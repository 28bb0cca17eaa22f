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

Ties in any argmax are broken toward the smallest internal concept
index, which is the order of first appearance in the input, so results
are deterministic.  All functions are pure over immutable inputs and
safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import SimilarityError, UnknownWordError
from .probability import ProbabilityModel, _neg_log
from .taxonomy import Taxonomy

#: Word-level measures usable by the evaluation pipeline and the CLI.
#: ``weighted`` is excluded: lifting it to words would require choosing a
#: sense pair, which the measure exists to avoid.
WORD_MEASURES = ("resnik", "edge", "prob", "lch")

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


def _sense_indices(t: Taxonomy, word: str) -> list[int]:
    senses = t._senses.get(word.strip().lower())
    if not senses:
        raise UnknownWordError(f"word not in taxonomy: {word!r}")
    return sorted(senses)


def _best_finite_ic(model: ProbabilityModel, t: Taxonomy,
                    i1: int, i2: int) -> tuple[float, int] | None:
    """Max finite information content over common subsumers, with its
    argmax; None when every candidate is infinite."""
    best = None
    best_at = -1
    for c in sorted(t._ancestors[i1] & t._ancestors[i2]):
        v = model._ic[c]
        if math.isinf(v):
            continue
        if best is None or v > best:
            best, best_at = v, c
    if best is None:
        return None
    return best, best_at


def sim_resnik_concepts(model: ProbabilityModel, t: Taxonomy,
                        c1: str, c2: str) -> SimScore:
    """Information content of the most informative concept subsuming both.

    Zero-frequency subsumers carry no evidence and are skipped; if no
    common subsumer has finite information content the model is
    degenerate and the query fails.
    """
    i1, i2 = t._idx(c1), t._idx(c2)
    best = _best_finite_ic(model, t, i1, i2)
    if best is None:
        raise SimilarityError(
            f"every common subsumer of {c1!r} and {c2!r} has zero frequency"
        )
    value, witness = best
    return SimScore(value=value, witness=t._ids[witness])


def sim_resnik_words(model: ProbabilityModel, t: Taxonomy,
                     w1: str, w2: str) -> SimScore:
    """Word similarity: the concept measure maximized over all sense pairs."""
    s1 = _sense_indices(t, w1)
    s2 = _sense_indices(t, w2)
    best = None
    best_witness = -1
    best_pair = (-1, -1)
    for i1 in s1:
        for i2 in s2:
            found = _best_finite_ic(model, t, i1, i2)
            if found is None:
                continue
            value, witness = found
            if best is None or value > best:
                best, best_witness, best_pair = value, witness, (i1, i2)
    if best is None:
        raise SimilarityError(
            f"every common subsumer of {w1!r} and {w2!r} has zero frequency"
        )
    return SimScore(
        value=best,
        witness=t._ids[best_witness],
        sense_pair=(t._ids[best_pair[0]], t._ids[best_pair[1]]),
    )


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
            length = t._path_len_idx(i1, i2, None if best is None else best - 1)
            if length is not None:
                best, best_pair = length, (i1, i2)
    return best, (t._ids[best_pair[0]], t._ids[best_pair[1]])


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
    best = None
    best_witness = -1
    best_pair = (-1, -1)
    for i1 in s1:
        for i2 in s2:
            for c in sorted(t._ancestors[i1] & t._ancestors[i2]):
                v = 1.0 - model._p[c]
                if best is None or v > best:
                    best, best_witness, best_pair = v, c, (i1, i2)
    return SimScore(
        value=best,
        witness=t._ids[best_witness],
        sense_pair=(t._ids[best_pair[0]], t._ids[best_pair[1]]),
    )


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
    i1, i2 = t._idx(c1), t._idx(c2)
    return frozenset(
        t._ids[c]
        for c in t._ancestors[i1] & t._ancestors[i2]
        if not math.isinf(model._ic[c])
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
    if measure == "resnik":
        if model is None:
            raise ValueError("measure 'resnik' requires a probability model")
        return sim_resnik_words(model, t, w1, w2)
    if measure == "edge":
        return sim_edge(t, w1, w2)
    if measure == "prob":
        if model is None:
            raise ValueError("measure 'prob' requires a probability model")
        return sim_prob(model, t, w1, w2)
    if measure == "lch":
        return sim_lch(t, w1, w2, log_base=log_base, floor=lch_floor)
    raise ValueError(f"unknown measure {measure!r}; expected one of {WORD_MEASURES}")
