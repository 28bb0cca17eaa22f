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
input), so results are deterministic.  All functions are safe to call
from multiple threads.  ``resnik``, ``prob`` and the weighted functions
read each concept's ancestors from the model's rank-space memo, which
the model fills without a lock (see
:meth:`~taxsim.probability.ProbabilityModel.subsumer_argmax`); they
never fill the taxonomy's.  The last weighted domain is kept on the
model under :mod:`taxsim.evaluation`'s kept-state rule.  A model must be
queried with the taxonomy object it was built on; any other raises
``ValueError``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from numbers import Real

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


def _check_model(model: ProbabilityModel, t: Taxonomy) -> None:
    """Raise unless ``model`` was built on ``t``: a model's per-index
    arrays mean nothing over another taxonomy's indices."""
    if model.taxonomy is not t:
        raise ValueError("the model was built on another taxonomy than the one queried")


def _min_sense_path(t: Taxonomy, s1: tuple[int, ...],
                    s2: tuple[int, ...]) -> tuple[int, int, int]:
    """The shortest undirected IS-A path over sense pairs ``s1`` x
    ``s2``: its length and the pair that has it.

    One search from every sense of both words at once gives the length
    (:meth:`~taxsim.taxonomy.Taxonomy.nearest_path_len`).  The pair is
    the first, in sorted index order, whose own search limited to that
    length reaches it, so ties keep the first pair.
    """
    length = t.nearest_path_len(s1, s2)
    if len(s1) == len(s2) == 1:
        return length, s1[0], s2[0]
    return length, *next((i1, i2) for i1 in s1 for i2 in s2
                         if t.path_len(i1, i2, length) is not None)


def _path_value(measure: str, span: float, log_base: float, lch_floor: float):
    """edge's or lch's value as a function of a shortest path length,
    where ``span`` is twice the taxonomy depth."""
    if measure == "edge":
        return lambda length: span - length
    return lambda length: _neg_log((lch_floor if length == 0 else float(length)) / span,
                                   log_base)


def sim_resnik_concepts(model: ProbabilityModel, t: Taxonomy,
                        c1: str, c2: str) -> SimScore:
    """Information content of the most informative concept subsuming both;
    zero-frequency subsumers carry no evidence and are skipped."""
    s1, s2 = (t.index_of(c1),), (t.index_of(c2),)
    _check_model(model, t)
    value, witness, _, _ = model.subsumer_argmax()(s1, s2)[0]
    return SimScore(value, t.concepts()[witness])


def sim_resnik_words(model: ProbabilityModel, t: Taxonomy,
                     w1: str, w2: str) -> SimScore:
    """Word similarity: the concept measure maximized over all sense pairs."""
    return word_similarity("resnik", t, w1, w2, model)


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
    in concept index order.

    The last answer for two ids of exact type ``str`` is kept on the
    model as ``(c1, c2, domain)``, keyed by the two id objects
    themselves, so asking for a pair's domain and then scoring it, as
    ``sim_weighted(m, t, a, b, uniform_weights(m, t, a, b))`` does,
    intersects the pair's ancestors once.  Any other id, whose hash and
    equality may follow a field that changes, is looked up every call.
    The dict it returns may be returned again: callers only read it, and
    none hands it on.
    """
    _check_model(model, t)
    kept = vars(model).get("_kept_domain")
    if kept is not None and kept[0] is c1 and kept[1] is c2:
        return kept[2]
    ic, ids = model.ic_by_index, t.concepts()
    finite = model.finite_ic_subsumer_indices(t.index_of(c1), t.index_of(c2))
    domain = {ids[c]: ic[c] for c in finite}
    if type(c1) is str and type(c2) is str:  # checked on a miss only
        vars(model)["_kept_domain"] = (c1, c2, domain)
    return domain


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
    if not isinstance(weights, Mapping):  # None, or a list of pairs
        raise ValueError(f"weights is a {type(weights).__name__}, not a mapping")
    if domain.keys() != weights.keys():
        missing, extra = (", ".join(sorted(map(_shown, ks))) for ks in (
            domain.keys() - weights.keys(), weights.keys() - domain.keys()))
        raise ValueError(f"weight domain mismatch: missing [{missing}], unexpected [{extra}]")
    values = weights.values()
    # accepted at once when every weight is a float, finite and >= 0, as is
    # usual; else each weight is checked, naming the first bad one
    if not ({*map(type, values)} <= {float} and all(map(math.isfinite, values))
            and min(values, default=0.0) >= 0):
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
    the measure family's kernel, which :func:`~taxsim.evaluation.evaluate`
    runs too: the model's sweep of sense pairs x common subsumers,
    :meth:`~taxsim.probability.ProbabilityModel.subsumer_argmax`, for
    resnik and prob, and the least path over sense pairs,
    :func:`_min_sense_path`, for edge and lch.  Their indices become the
    witness and sense pair ids.  ``model`` is required for the
    corpus-based measures (resnik, prob) and ignored by the purely
    structural ones (edge, lch).  ``log_base`` only affects lch; the
    corpus measures inherit the base the model was built with.
    """
    _check_word_measure(measure, t, model, log_base, lch_floor)
    s1, s2 = _sense_indices(t, w1), _sense_indices(t, w2)
    ids = t.concepts()
    if measure in CORPUS_MEASURES:
        _check_model(model, t)
        value, witness, i1, i2 = model.subsumer_argmax()(s1, s2)[measure == "prob"]
        return SimScore(value, ids[witness], (ids[i1], ids[i2]))
    length, i1, i2 = _min_sense_path(t, s1, s2)
    value = _path_value(measure, 2.0 * t.max_depth, log_base, lch_floor)(length)
    return SimScore(value, None, (ids[i1], ids[i2]))
