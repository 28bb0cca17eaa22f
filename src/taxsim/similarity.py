"""Similarity measures over taxonomy concepts and words.

Five measures share one query surface:

* ``resnik``  - information content of the most informative common
  subsumer, maximized over sense pairs for word queries;
* ``edge``    - (2 * MAX) minus the shortest IS-A path length, minimized
  over sense pairs, where MAX is the taxonomy depth;
* ``prob``    - max of 1 - p(c) over common subsumers and sense pairs;
* ``lch``     - negative log of the shortest path length normalized by
  twice the taxonomy depth, with a configurable floor in (0, 1]
  replacing a zero path so synonyms stay finite;
* ``weighted`` - concept-level only: a caller-supplied convex combination
  of the information content of all common subsumers, instead of the
  single maximizing one.

Ties in any argmax are broken toward the first sense pair, then the
smallest internal concept index (the order of first appearance in the
input), so results are deterministic.  All functions are pure over
immutable inputs and safe to call from multiple threads.  A model must
be queried with the taxonomy object it was built on; any other raises
``ValueError``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from numbers import Real
from typing import Mapping

from .errors import SimilarityError, UnknownWordError
from .probability import ProbabilityModel, _check_real, _neg_log
from .taxonomy import Taxonomy, _shown

#: Word-level measures usable by the evaluation pipeline and the CLI.
#: ``weighted`` is excluded: lifting it to words would require choosing a
#: sense pair, which the measure exists to avoid.
WORD_MEASURES = ("resnik", "edge", "prob", "lch")

#: Word-level measures that need a probability model.
CORPUS_MEASURES = ("resnik", "prob")

#: Tolerance on the sum of alpha weights.
WEIGHT_SUM_TOLERANCE = 1e-9

# A model's per-index arrays mean nothing over another taxonomy's indices.
_OTHER_TAXONOMY = "the model was built on another taxonomy than the one queried"


@dataclass(frozen=True, slots=True)
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
        raise UnknownWordError(f"word not in taxonomy: {_shown(word)}")
    return senses


def _best_subsumer(model: ProbabilityModel, t: Taxonomy, measure: str,
                   s1: tuple[int, ...], s2: tuple[int, ...]) -> SimScore:
    """The one rule behind resnik and prob: the SimScore maximizing
    ``ic[c]`` (resnik) or ``1 - p[c]`` (prob) over sense pairs ``s1`` x
    ``s2`` x sorted common subsumers ``c``; only a strictly greater value
    replaces the best, so ties keep the first pair, then the smallest c.
    Zero-frequency c (``ic = +inf``) are skipped; the root, with p = 1
    and ic = 0 as N > 0, subsumes every pair, so one c always remains.
    prob scores ``1 - p``, not the least ``p``: once N > 2**53, distinct
    p can round to one ``1 - p``, and the tie-break must see that tie."""
    if model.taxonomy is not t:
        raise ValueError(_OTHER_TAXONOMY)
    anc = t.ancestor_indices
    values = model.one_minus_p_by_index if measure == "prob" else model.ic_by_index
    best, found, inf = -math.inf, None, math.inf
    for i1 in s1:
        a1 = set(anc(i1))
        for i2 in s2:
            for c in sorted(a1.intersection(anc(i2))):
                if best < (v := values[c]) < inf:
                    best, found = v, (c, i1, i2)
    ids, (c, i1, i2) = t.concepts(), found
    return SimScore(best, ids[c], (ids[i1], ids[i2]))  # positional: cheaper per row


def sim_resnik_concepts(model: ProbabilityModel, t: Taxonomy,
                        c1: str, c2: str) -> SimScore:
    """Information content of the most informative concept subsuming both;
    zero-frequency subsumers carry no evidence and are skipped."""
    score = _best_subsumer(model, t, "resnik", (t.index_of(c1),), (t.index_of(c2),))
    return SimScore(value=score.value, witness=score.witness)


def sim_resnik_words(model: ProbabilityModel, t: Taxonomy,
                     w1: str, w2: str) -> SimScore:
    """Word similarity: the concept measure maximized over all sense pairs."""
    return word_similarity("resnik", t, w1, w2, model)


def _min_sense_path(t: Taxonomy, s1: tuple[int, ...],
                    s2: tuple[int, ...]) -> tuple[int, tuple[str, str]]:
    """The one rule behind edge and lch: the shortest undirected IS-A
    path over sense pairs ``s1`` x ``s2``, and the pair that has it.

    After the first pair, each search is limited to ``best - 1`` edges:
    only a strictly shorter path can replace the best pair, so ties keep
    the first pair in sorted index order.
    """
    best = None
    best_pair = (-1, -1)
    for i1 in s1:
        for i2 in s2:
            length = t.path_len(i1, i2, None if best is None else best - 1)
            if length is not None:
                best, best_pair = length, (i1, i2)
    ids = t.concepts()
    return best, (ids[best_pair[0]], ids[best_pair[1]])


def sim_edge(t: Taxonomy, w1: str, w2: str) -> SimScore:
    """Edge-counting similarity: (2 * MAX) - min path length.

    Subtracting from the maximum possible path length converts the path
    distance into a similarity; identical senses score 2 * MAX.
    """
    return word_similarity("edge", t, w1, w2)


def sim_prob(model: ProbabilityModel, t: Taxonomy, w1: str, w2: str) -> SimScore:
    """Max of 1 - p(c) over common subsumers of any sense pair.

    Uses raw probability instead of its negative log; a pair whose only
    common subsumer is the root scores exactly 0.  Zero-frequency
    subsumers are legitimate candidates here (1 - p = 1), since the
    candidate value stays finite.
    """
    return word_similarity("prob", t, w1, w2, model)


def sim_lch(t: Taxonomy, w1: str, w2: str, *,
            log_base: float = 2.0, floor: float = 1.0) -> SimScore:
    """Normalized-path similarity: -log(len / (2 * MAX)).

    A zero path length (exact synonyms) is replaced by ``floor``, in
    (0, 1], to keep the score finite.  Synonyms never score below another
    pair: at the default 1.0 they tie with every pair one edge apart, such
    as a parent and its child, and a floor below 1 ranks them strictly
    first.  The floor is a local convention, not a published constant.
    """
    return word_similarity("lch", t, w1, w2, log_base=log_base, lch_floor=floor)


def _finite_ic_subsumers(model: ProbabilityModel, t: Taxonomy,
                         c1: str, c2: str) -> dict[str, float]:
    """{concept id: ic} of the finite-ic common subsumers of two concepts,
    in concept index order."""
    if model.taxonomy is not t:
        raise ValueError(_OTHER_TAXONOMY)
    ic, inf, ids, anc = model.ic_by_index, math.inf, t.concepts(), t.ancestor_indices
    common = set(anc(t.index_of(c1))).intersection(anc(t.index_of(c2)))
    return {ids[c]: ic[c] for c in sorted(common) if ic[c] != inf}


def finite_common_subsumers(model: ProbabilityModel, t: Taxonomy,
                            c1: str, c2: str) -> frozenset[str]:
    """Common subsumers of two concepts with finite information content;
    the valid weight domain for :func:`sim_weighted`."""
    return frozenset(_finite_ic_subsumers(model, t, c1, c2))


def uniform_weights(model: ProbabilityModel, t: Taxonomy,
                    c1: str, c2: str) -> dict[str, float]:
    """Equal weights over the finite-ic common subsumers of two concepts,
    keyed in concept index order (see :meth:`Taxonomy.index_of`)."""
    domain = _finite_ic_subsumers(model, t, c1, c2)
    return dict.fromkeys(domain, 1.0 / len(domain))


def sim_weighted(model: ProbabilityModel, t: Taxonomy, c1: str, c2: str,
                 weights: Mapping[str, float]) -> float:
    """Weighted-sum similarity: sum of weight(c) * ic(c) over subsumers.

    Every common subsumer contributes information content in proportion
    to its weight, instead of the single maximizing concept taking all.
    ``weights`` must cover exactly the finite-ic common subsumers, be
    finite and non-negative, and sum to 1; with a point mass on the
    maximizing subsumer this reduces to :func:`sim_resnik_concepts`.
    """
    domain = _finite_ic_subsumers(model, t, c1, c2)
    if domain.keys() != weights.keys():
        missing, extra = (", ".join(sorted(map(_shown, ks))) for ks in (
            domain.keys() - weights.keys(), weights.keys() - domain.keys()))
        raise ValueError(f"weight domain mismatch: missing [{missing}], unexpected [{extra}]")
    values = weights.values()
    try:
        if not all(issubclass(kind, Real) for kind in set(map(type, values))):
            cid, w = next((c, w) for c, w in weights.items() if not isinstance(w, Real))
            raise TypeError
        for cid, w in weights.items():
            if not math.isfinite(w):  # NaN would pass both checks below
                raise ValueError(f"non-finite weight for {cid!r}: {w}")
            if w < 0:
                raise ValueError(f"negative weight for {cid!r}: {w}")
    except (TypeError, OverflowError):  # not a real number, or an int beyond float range
        raise ValueError(
            f"weight for {_shown(cid)} is not a finite real: {type(w).__name__}") from None
    try:
        total = math.fsum(values)
    except OverflowError:  # finite weights whose sum is beyond float range
        total = math.inf
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise ValueError(f"weights sum to {total!r}, expected 1.0")
    return math.fsum(map(operator.mul, values, map(domain.__getitem__, weights)))


def _check_word_measure(measure: str, t: Taxonomy, model: ProbabilityModel | None,
                        log_base: float, lch_floor: float) -> None:
    """Raise unless ``measure`` is one of :data:`WORD_MEASURES` and can
    score words with these arguments: resnik and prob need a ``model``;
    lch needs ``log_base`` > 1, an ``lch_floor`` in (0, 1] and a taxonomy
    of depth 1 or more."""
    if measure in CORPUS_MEASURES:
        if model is None:
            raise ValueError(f"measure {_shown(measure)} requires a probability model")
    elif measure == "lch":
        _check_real(log_base, "log_base", 1, "> 1")
        _check_real(lch_floor, "floor", 0, "in (0, 1]", high=1)
        if t.max_depth < 1:
            raise SimilarityError(
                "taxonomy depth is 0; path-normalized similarity is undefined"
            )
    elif measure != "edge":
        raise ValueError(f"unknown measure {_shown(measure)}; expected one of {WORD_MEASURES}")


def word_similarity(measure: str, t: Taxonomy, w1: str, w2: str,
                    model: ProbabilityModel | None = None, *,
                    log_base: float = 2.0, lch_floor: float = 1.0) -> SimScore:
    """Score two words with one of :data:`WORD_MEASURES`: the one
    implementation behind the word-level ``sim_*`` functions.

    The measure and its arguments are checked before the words are
    looked up; each word's senses are then looked up once and handed to
    the measure's kernel.  ``model`` is required for the corpus-based
    measures (resnik, prob) and ignored by the purely structural ones
    (edge, lch).  ``log_base`` only affects lch; the corpus measures
    inherit the base the model was built with.
    """
    _check_word_measure(measure, t, model, log_base, lch_floor)
    s1, s2 = _sense_indices(t, w1), _sense_indices(t, w2)
    if measure in CORPUS_MEASURES:
        return _best_subsumer(model, t, measure, s1, s2)
    length, pair = _min_sense_path(t, s1, s2)
    if measure == "edge":
        return SimScore(float(2 * t.max_depth - length), None, pair)
    effective = lch_floor if length == 0 else float(length)
    return SimScore(_neg_log(effective / (2.0 * t.max_depth), log_base), None, pair)
