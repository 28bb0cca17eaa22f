"""Scoring similarity measures against human-judgment benchmarks.

The central statistic is the sample Pearson correlation between a
measure's scores and mean human ratings over a list of word pairs.
Pairs containing a word with no senses in the taxonomy are excluded
(pairwise deletion) and reported, never silently dropped.

The package bundles the 28-pair Miller-Charles subset together with
published reference scores for three measures, so the whole correlation
pipeline can be exercised hermetically: replaying the bundled scores
must reproduce the published correlations.  Live evaluation recomputes
scores on whatever taxonomy and corpus the caller supplies.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass
from importlib import resources
from numbers import Real
from typing import Iterable, Iterator

from .errors import EvaluationError, SimilarityError
from .probability import ProbabilityModel
from .similarity import CORPUS_MEASURES, _check_model, _check_word_measure, _row_kernel
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


def _rescaled(vs: list[float]) -> list[float]:
    """``vs`` scaled by a power of two into (-1, 1) when its largest
    magnitude is near either end of the float range: near the top a sum
    or difference of the values could overflow, near the bottom the mean
    of subnormal values is rounded to a few bits.  The correlation is
    scale-invariant, and the scaling is exact for every value within
    2**1000 of the largest."""
    big = max(map(abs, vs))
    if big == 0.0 or 2.0 ** -960 <= big < 2.0 ** 960:
        return vs
    exp = math.frexp(big)[1]
    return [math.ldexp(v, -exp) for v in vs]


def _deviations(vs: list[float]) -> list[float]:
    """Deviations of ``vs`` from their mean.  The rounded mean can be off
    by one unit in its last place; when the values spread over less than
    2**-16 of the mean (two adjacent floats, say) that error is a visible
    share of every deviation, so one more pass subtracts the deviations'
    own mean.  Other inputs skip the pass and keep their bits."""
    n = len(vs)
    m = math.fsum(vs) / n
    ds = [v - m for v in vs]
    if max(map(abs, ds)) <= abs(m) * 2.0 ** -16:
        c = math.fsum(ds) / n
        ds = [d - c for d in ds]
    return ds


def pearson(xs: list[float], ys: list[float]) -> float:
    """Sample Pearson product-moment correlation.

    Two-pass computation (means first, then centered products, summed
    with compensation) so that tightly-toleranced correlations are not
    lost to cancellation.  Deviations are rescaled by their largest
    magnitude first; the correlation is scale-invariant and this keeps
    every intermediate within [0, n], immune to under- and overflow;
    inputs near either end of the float range are rescaled the same way
    beforehand.
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
    scale_x = max(abs(d) for d in dxs)
    scale_y = max(abs(d) for d in dys)
    if scale_x == 0.0 or scale_y == 0.0:
        raise EvaluationError("zero variance: correlation undefined")
    dxs = [d / scale_x for d in dxs]
    dys = [d / scale_y for d in dys]
    sxx = math.fsum(d * d for d in dxs)
    syy = math.fsum(d * d for d in dys)
    sxy = math.fsum(a * b for a, b in zip(dxs, dys))
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
    """Read a benchmark CSV with header ``word1,word2,rating``, named by its path."""
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
                value = float(rating)
            except ValueError:
                raise EvaluationError(f"{label}:{lineno}: malformed rating {rating!r}") from None
            if not math.isfinite(value):
                raise EvaluationError(f"{label}:{lineno}: non-finite rating {rating!r}")
            rows.append((*_normalized((w1, w2)), value))
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


@dataclass(frozen=True, slots=True)
class EvalItem:
    """Per-row outcome of an evaluation run."""

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
    the benchmark.  The measure and its arguments are checked once, as by
    :func:`~taxsim.similarity.word_similarity`, before any row is
    scored.  Each column of words is then looked up in one pass
    (:meth:`~taxsim.taxonomy.Taxonomy.sense_index_column`), and each
    included row's two sense tuples are scored by the row kernel that
    ``word_similarity`` runs, so every score is the value it reports.
    Fails if fewer than 2 rows are usable.
    """
    return next(_evaluate_each((measure,), benchmark, taxonomy, model, log_base, lch_floor))


def _evaluate_each(measures: tuple[str, ...], benchmark: Benchmark, taxonomy: Taxonomy,
                   model: ProbabilityModel | None, log_base: float = 2.0,
                   lch_floor: float = 1.0) -> Iterator[EvalReport]:
    """The reports of ``evaluate`` for each of ``measures``, in order,
    from one scoring pass over the rows.

    Each report, and each error, comes where the per-measure ``evaluate``
    calls would give it: the first measure that fails its check ends the
    reports, after those of the measures before it; the usable-row count
    and the correlation of a measure are checked when its report is due.
    """
    rows = benchmark.rows
    column = taxonomy.sense_index_column
    senses1, senses2 = column([w1 for w1, _, _ in rows]), column([w2 for _, w2, _ in rows])
    reasons = [
        None if s1 and s2 else "word not in taxonomy: " + ", ".join(
            sorted({_shown(w, str) for w, s in ((w1, s1), (w2, s2)) if not s}))
        for (w1, w2, _), s1, s2 in zip(rows, senses1, senses2)
    ]
    humans = [human for (_, _, human), why in zip(rows, reasons) if not why]
    checked, failure = [], None
    for measure in measures:
        try:
            _check_word_measure(measure, taxonomy, model, log_base, lch_floor)
            if humans and measure in CORPUS_MEASURES:  # as at the first scored row
                _check_model(model, taxonomy)
        except (ValueError, SimilarityError) as exc:  # raised after the reports before it
            failure = exc
            break
        checked.append(measure)
    # one float column per measure: no per-row container outlives its row
    columns = {measure: [] for measure in checked}
    if checked:
        score = _row_kernel(taxonomy, model, tuple(checked), log_base, lch_floor)
        for s1, s2 in zip(senses1, senses2):
            if s1 and s2:
                for measure, (value, _, _, _) in score(s1, s2).items():
                    columns[measure].append(value)
    del senses1, senses2  # the reports need only the reasons and the scores
    excluded = tuple((w1, w2, why) for (w1, w2, _), why in zip(rows, reasons) if why)
    for measure in checked:
        scores = columns.pop(measure)  # each column is let go once its report is out
        if len(humans) < 2:
            raise EvaluationError(
                f"benchmark {_shown(benchmark.name)} has {len(humans)} usable rows; need >= 2"
            )
        next_score = iter(scores).__next__
        items = tuple(
            EvalItem(w1, w2, human, None, False, why) if why
            else EvalItem(w1, w2, human, next_score(), True, None)
            for (w1, w2, human), why in zip(rows, reasons)
        )
        yield EvalReport(measure=measure, r=pearson(humans, scores),
                         n_included=len(humans), excluded=excluded, items=items)
    if failure is not None:
        raise failure
