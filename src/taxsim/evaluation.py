"""Scoring similarity measures against human-judgment benchmarks.

The central statistic is the sample Pearson correlation between a
measure's scores and mean human ratings over a list of word pairs.
Pairs containing a word with no senses in the taxonomy are excluded
(pairwise deletion) and reported, never silently dropped.

The package bundles the 28-pair Miller-Charles subset together with
published reference scores for three measures, so the whole correlation
pipeline can be exercised hermetically: replaying the bundled scores
must reproduce the published correlations.  Live evaluation recomputes
scores on whatever taxonomy and corpus the caller supplies, one sweep
per measure family (resnik and prob, edge and lch).  A benchmark whose
rows are not each three fields long is rejected before any row is
scored.

Kept state.  ``evaluate`` keeps the last lookup of a benchmark's rows
and the last edge/lch sweep on the taxonomy, and the last resnik/prob
sweep on the model; the weighted queries of :mod:`taxsim.similarity`
keep the last pair's domain on the model.  Each slot is one tuple in
its owner's ``vars()``, under a name starting with ``_kept_``, read and
replaced whole, so it needs no lock, dies with its owner and is left
out of the owner's pickles and copies.  One rule decides a hit: the
objects given are the very objects the slot was computed from (``is``).
The rows slot is keyed by the ``benchmark.rows`` object, and is filled
only for rows that cannot change: a ``tuple`` of ``tuple``s of two
``str`` words and a ``float`` or ``int`` rating, each of that exact
type, as :func:`load_benchmark` makes.  A family slot is keyed by the
two sense columns it swept, which only a hit on the rows slot hands
back.  So scoring one rows object by both measures of a family looks
its words up once and runs the family's kernel once, whatever
``log_base`` and ``lch_floor`` are; other rows (a list, a ``str``
subclass word, a ``bool`` rating, equal rows in a new tuple) are looked
up and swept again.  The domain slot is filled only for two concept ids
of exact type ``str``.  A hit is never stale: a slot holds its keys, so
their ids are not reused while it lives, and no kept row, column or id
can change.
"""

from __future__ import annotations

import csv
import math
import operator
import os
import re
from dataclasses import dataclass
from importlib import resources
from itertools import compress, repeat
from numbers import Real
from typing import Iterable, Iterator, NamedTuple

from .errors import EvaluationError
from .probability import ProbabilityModel
from .similarity import CORPUS_MEASURES, _check_model, _check_word_measure, _path_value
from .taxonomy import Taxonomy, _normalized, _shown

_REFERENCE_RESOURCE = "miller_charles.tsv"

#: Published correlations for the bundled reference scores against the
#: Miller-Charles means, and the slack that absorbs their 4-decimal
#: rounding.
REFERENCE_TARGETS = {"ic": 0.7911, "edge": 0.6645, "prob": 0.6671}
REFERENCE_TOLERANCE = 0.005


# ----------------------------------------------------------------------
# correlation statistics
# ----------------------------------------------------------------------


def _magnitude(vs: list[float]) -> float:
    """The largest magnitude in ``vs``, as two C-level passes: the value
    of ``max(map(abs, vs))``, since the largest magnitude is the largest
    value or the negated smallest."""
    return max(max(vs), -min(vs))


def _rescaled(vs: list[float]) -> list[float]:
    """``vs`` scaled by a power of two into (-1, 1) when its largest
    magnitude is near either end of the float range: near the top a sum
    or difference of the values could overflow, near the bottom the mean
    of subnormal values is rounded to a few bits.  The correlation is
    scale-invariant, and the scaling is exact for every value within
    2**1000 of the largest."""
    big = _magnitude(vs)
    if big == 0.0 or 2.0 ** -960 <= big < 2.0 ** 960:
        return vs
    return list(map(math.ldexp, vs, repeat(-math.frexp(big)[1])))


def _deviations(vs: list[float]) -> list[float]:
    """Deviations of ``vs`` from their mean.  The rounded mean can be off
    by one unit in its last place; when the values spread over less than
    2**-16 of the mean (two adjacent floats, say) that error is a visible
    share of every deviation, so one more pass subtracts the deviations'
    own mean.  Other inputs skip the pass and keep their bits."""
    n = len(vs)
    m = math.fsum(vs) / n
    ds = list(map(operator.sub, vs, repeat(m)))
    if _magnitude(ds) <= abs(m) * 2.0 ** -16:
        c = math.fsum(ds) / n
        ds = list(map(operator.sub, ds, repeat(c)))
    return ds


def pearson(xs: list[float], ys: list[float]) -> float:
    """Sample Pearson product-moment correlation.

    Two-pass computation (means first, then centered products, summed
    with compensation) so that tightly-toleranced correlations are not
    lost to cancellation.  Deviations are rescaled by their largest
    magnitude first; the correlation is scale-invariant and this keeps
    every intermediate within [0, n], immune to under- and overflow;
    inputs near either end of the float range are rescaled the same way
    beforehand.  Every pass over the values is one C-level ``map``, and
    each gives the floats of the per-value expression it stands for.
    Any input that is not a real number, or is NaN or infinite (an int
    beyond the float range included), is rejected, since no correlation
    of it is meaningful.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if not all(issubclass(kind, Real) for kind in {*map(type, xs), *map(type, ys)}):
        raise EvaluationError("non-real input: correlation undefined")
    try:
        finite = all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise EvaluationError("non-finite input: correlation undefined")
    n = len(xs)
    if n < 2:
        raise EvaluationError(f"need at least 2 points, got {n}")
    dxs = _deviations(_rescaled(xs))
    dys = _deviations(_rescaled(ys))
    scale_x = _magnitude(dxs)
    scale_y = _magnitude(dys)
    if scale_x == 0.0 or scale_y == 0.0:
        raise EvaluationError("zero variance: correlation undefined")
    dxs = list(map(operator.truediv, dxs, repeat(scale_x)))
    dys = list(map(operator.truediv, dys, repeat(scale_y)))
    sxx = math.fsum(map(operator.mul, dxs, dxs))
    syy = math.fsum(map(operator.mul, dys, dys))
    sxy = math.fsum(map(operator.mul, dxs, dys))
    r = sxy / (math.sqrt(sxx) * math.sqrt(syy))
    return max(-1.0, min(1.0, r))


# ----------------------------------------------------------------------
# benchmarks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Benchmark:
    """Ordered word pairs with mean human similarity ratings."""

    name: str
    rows: tuple[tuple[str, str, float], ...]


def _csv_records(fh: Iterable[str], label: str) -> Iterator[tuple[int, list[str]]]:
    """CSV records of ``fh``, each with the number of the line it ends on;
    a decoding or CSV syntax failure becomes an EvaluationError."""
    reader = csv.reader(fh)
    try:
        for record in reader:
            yield reader.line_num, record
    except UnicodeDecodeError:
        raise EvaluationError(f"{label}: not valid UTF-8") from None
    except csv.Error as exc:
        raise EvaluationError(f"{label}:{reader.line_num}: {exc}") from None


def load_benchmark(path: str | os.PathLike) -> Benchmark:
    """Read a benchmark CSV with header ``word1,word2,rating``, named by its path.
    A word that holds a tab or line break, which no lexicon word can and
    which would split the lines ``taxsim eval`` prints, is rejected, naming
    the line its record ends on."""
    label = str(path)
    rows: list[tuple[str, str, float]] = []
    with open(path, encoding="utf-8-sig", newline="") as fh:
        records = _csv_records(fh, label)
        _, header = next(records, (0, None))
        if header is None or _normalized(header) != ["word1", "word2", "rating"]:
            raise EvaluationError(
                f"{label}: expected header 'word1,word2,rating', got {header!r}"
            )
        for lineno, fields in records:
            if not fields:
                continue
            if len(fields) != 3:
                raise EvaluationError(f"{label}:{lineno}: expected 3 columns")
            w1, w2, rating = fields
            try:
                if "_" in rating or not rating.isascii():  # float() reads 1_0, ٣ and １
                    raise ValueError
                value = float(rating)
            except ValueError:
                raise EvaluationError(f"{label}:{lineno}: malformed rating {rating!r}") from None
            if not math.isfinite(value):
                raise EvaluationError(f"{label}:{lineno}: non-finite rating {rating!r}")
            w1, w2 = _normalized((w1, w2))
            if "\t" in w1 + w2 or "\n" in w1 + w2 or "\r" in w1 + w2:
                raise EvaluationError(f"{label}:{lineno}: tab or line break in {w1!r},{w2!r}")
            rows.append((w1, w2, value))
    return Benchmark(name=label, rows=tuple(rows))


# ----------------------------------------------------------------------
# bundled reference data
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceRow:
    """One benchmark pair with its human means and published scores."""

    word1: str
    word2: str
    mc_mean: float
    replication_mean: float
    sim_ic: float
    sim_edge: float
    sim_prob: float


def reference_data_bytes() -> bytes:
    """Raw bytes of the bundled reference table, for integrity checks."""
    return (resources.files(__package__) / "data" / _REFERENCE_RESOURCE).read_bytes()


def load_reference_scores() -> tuple[ReferenceRow, ...]:
    """The bundled 28-pair reference table."""
    text = re.sub(r"(?m)^#.*\n", "", reference_data_bytes().decode("utf-8"))
    records = csv.reader(text.splitlines(), delimiter="\t")
    next(records)  # the header
    return tuple(ReferenceRow(w1, w2, *map(float, scores)) for w1, w2, *scores in records)


def reference_correlations() -> dict[str, float]:
    """Correlation of each bundled score column against the human means."""
    rows = load_reference_scores()
    mc = [r.mc_mean for r in rows]
    return {
        "ic": pearson(mc, [r.sim_ic for r in rows]),
        "edge": pearson(mc, [r.sim_edge for r in rows]),
        "prob": pearson(mc, [r.sim_prob for r in rows]),
    }


# ----------------------------------------------------------------------
# live evaluation
# ----------------------------------------------------------------------


class EvalItem(NamedTuple):
    """Per-row outcome of an evaluation run: a named tuple of its six fields."""

    word1: str
    word2: str
    human: float
    score: float | None
    included: bool
    reason: str | None


@dataclass(frozen=True)
class EvalReport:
    """Correlation of one measure against one benchmark, with the full
    included/excluded accounting."""

    measure: str
    r: float
    n_included: int
    excluded: tuple[tuple[str, str, str], ...]
    items: tuple[EvalItem, ...]


def evaluate(
    measure: str,
    benchmark: Benchmark,
    taxonomy: Taxonomy,
    model: ProbabilityModel | None = None,
    *,
    log_base: float = 2.0,
    lch_floor: float = 1.0,
) -> EvalReport:
    """Score every benchmark row with ``measure`` and correlate against
    the human means.

    Rows where either word has no senses are excluded from both vectors
    and listed with a reason; included plus excluded always partitions
    the benchmark.  A ``benchmark`` that is not a :class:`Benchmark`, or
    a row that is not three fields long, raises EvaluationError naming
    the first bad row.  The measure and its arguments are checked once,
    as by :func:`~taxsim.similarity.word_similarity`, before any row is
    scored.  Each column of words is looked up in one pass
    (:meth:`~taxsim.taxonomy.Taxonomy.sense_index_column`), and the
    included rows' sense tuples are scored by the measure family's
    kernel, which ``word_similarity`` runs too: the model's
    :meth:`~taxsim.probability.ProbabilityModel.subsumer_argmax` for
    resnik and prob, :meth:`~taxsim.taxonomy.Taxonomy.nearest_path_len`
    for edge and lch.  So every score is the value ``word_similarity``
    reports.  The rows' lookup and each family's sweep are kept under the
    module's kept-state rule: resnik and prob, or edge and lch, on the
    same ``benchmark.rows`` object look no word up and run the family's
    kernel once.  Fails if fewer than 2 rows are usable.
    """
    rows = _checked_rows(benchmark)
    field = [operator.itemgetter(k) for k in range(3)]  # word1, word2, human
    included, excluded, humans, senses1, senses2 = _row_columns(rows, taxonomy, field)
    _check_word_measure(measure, taxonomy, model, log_base, lch_floor)
    if humans and measure in CORPUS_MEASURES:  # as at the first scored row
        _check_model(model, taxonomy)
    if len(humans) < 2:
        raise EvaluationError(
            f"benchmark {_shown(benchmark.name)} has {len(humans)} usable rows; need >= 2"
        )
    if measure in CORPUS_MEASURES:
        resnik, prob = _swept("_kept_corpus_sweep", _corpus_columns, model, senses1, senses2)
        scores = resnik if measure == "resnik" else prob
    else:
        lengths = _swept("_kept_path_sweep", _path_lengths, taxonomy, senses1, senses2)
        at = _path_value(measure, 2.0 * taxonomy.max_depth, log_base, lch_floor)
        scores = list(map(at, lengths))
    reasons = _spread(map(operator.not_, included), map(field[2], excluded))
    items = tuple(map(EvalItem, *(map(f, rows) for f in field),
                      _spread(included, scores), included, reasons))
    return EvalReport(measure=measure, r=pearson(humans, scores),
                      n_included=len(humans), excluded=excluded, items=items)


def _row_columns(rows: tuple | list, taxonomy: Taxonomy, field: list) -> tuple:
    """What the rows give over ``taxonomy`` before any measure: the
    included mask, the excluded rows with their reasons, and the included
    rows' ratings and two sense columns, which the family sweeps may keep.
    ``field`` gets each row's word1, word2 and rating.

    Each column of words is looked up in one pass
    (:meth:`~taxsim.taxonomy.Taxonomy.sense_index_column`).  The result
    is kept on the taxonomy as ``(rows, *result)`` when the rows pass the
    module's exact-type gate, checked by C-level type passes on a miss
    only."""
    kept = vars(taxonomy).get("_kept_rows")
    if kept is not None and kept[0] is rows:
        return kept[1:]
    column = taxonomy.sense_index_column
    senses1, senses2 = column(map(field[0], rows)), column(map(field[1], rows))
    included = list(map(all, zip(senses1, senses2)))
    excluded = tuple(
        (w1, w2, "word not in taxonomy: " + ", ".join(
            sorted({_shown(w, str) for w, s in ((w1, s1), (w2, s2)) if not s})))
        for (w1, w2, _), s1, s2 in compress(zip(rows, senses1, senses2),
                                            map(operator.not_, included))
    )
    found = (included, excluded, list(compress(map(field[2], rows), included)),
             list(compress(senses1, included)), list(compress(senses2, included)))
    if (type(rows) is tuple and {*map(type, rows)} <= {tuple}
            and {*map(type, map(field[0], rows)), *map(type, map(field[1], rows))} <= {str}
            and {*map(type, map(field[2], rows))} <= {float, int}):
        vars(taxonomy)["_kept_rows"] = (rows, *found)
    return found


def _swept(slot: str, sweep, owner, s1: list[tuple[int, ...]],
           s2: list[tuple[int, ...]]):
    """``sweep(owner, s1, s2)``, or the result kept in
    ``vars(owner)[slot]`` by the last sweep of these very columns.  The
    caller must not change ``s1`` or ``s2``."""
    kept = vars(owner).get(slot)
    if kept is not None and kept[0] is s1 and kept[1] is s2:
        return kept[2]
    result = sweep(owner, s1, s2)
    vars(owner)[slot] = (s1, s2, result)
    return result


def _corpus_columns(model: ProbabilityModel, s1: list[tuple[int, ...]],
                    s2: list[tuple[int, ...]]) -> tuple[list[float], list[float]]:
    """The resnik and prob columns of the model's one sweep per row,
    :meth:`~taxsim.probability.ProbabilityModel.subsumer_argmax`."""
    resnik, prob = [], []
    add_resnik, add_prob = resnik.append, prob.append
    for (by_ic, _, _, _), (by_p, _, _, _) in map(model.subsumer_argmax(), s1, s2):
        add_resnik(by_ic)
        add_prob(by_p)
    return resnik, prob


def _path_lengths(t: Taxonomy, s1: list[tuple[int, ...]],
                  s2: list[tuple[int, ...]]) -> list[int]:
    """The shortest path length over each row's sense pairs, from one
    search per row, :meth:`~taxsim.taxonomy.Taxonomy.nearest_path_len`."""
    return list(map(t.nearest_path_len, s1, s2))


def _checked_rows(benchmark: Benchmark) -> tuple | list:
    """``benchmark``'s rows, once each is known to be a row of 3 fields
    (word1, word2, rating): the field counts are read in one C-level
    pass, and the first bad row is named by its position."""
    if not isinstance(benchmark, Benchmark):
        raise EvaluationError(f"benchmark is a {type(benchmark).__name__}, not a Benchmark")
    rows = benchmark.rows
    if not isinstance(rows, (tuple, list)):
        raise EvaluationError(f"benchmark {_shown(benchmark.name)} rows are a "
                              f"{type(rows).__name__}, not a tuple or list")
    try:
        if {*map(len, rows)} <= {3}:
            return rows
    except TypeError:  # a row with no length
        pass
    for k, row in enumerate(rows):
        try:
            if len(row) == 3:
                continue
            shape = f"has {len(row)} fields"
        except TypeError:  # no length
            shape = f"is a {type(row).__name__}"
        raise EvaluationError(f"benchmark {_shown(benchmark.name)} row {k} {shape}, "
                              "not 3 (word1, word2, rating)")


def _spread(mask: Iterable[bool], values: Iterable) -> Iterator:
    """``values`` in order at the true places of ``mask``, None at the
    others: each flag picks the iterator that the next entry comes from."""
    sources = (repeat(None), iter(values))
    return map(next, map(sources.__getitem__, mask))

