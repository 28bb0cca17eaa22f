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
from dataclasses import dataclass
from importlib import resources
from numbers import Real
from typing import Iterable, Iterator

from .errors import EvaluationError
from .probability import ProbabilityModel
from .similarity import WORD_MEASURES, word_similarity
from .taxonomy import Taxonomy

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


def _csv_records(fh: Iterable[str], label: str) -> Iterator[list[str]]:
    """CSV records of ``fh``; a decoding or CSV syntax failure (such as a
    field over the csv module's size limit) becomes an EvaluationError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError:
        raise EvaluationError(f"{label}: not valid UTF-8") from None
    except csv.Error as exc:
        raise EvaluationError(f"{label}:{reader.line_num}: {exc}") from None


def load_benchmark(path: str | os.PathLike, name: str | None = None) -> Benchmark:
    """Read a benchmark CSV with header ``word1,word2,rating``."""
    label = str(path)
    rows: list[tuple[str, str, float]] = []
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = _csv_records(fh, label)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != [
            "word1",
            "word2",
            "rating",
        ]:
            raise EvaluationError(
                f"{label}: expected header 'word1,word2,rating', got {header!r}"
            )
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != 3:
                raise EvaluationError(f"{label}:{lineno}: expected 3 columns")
            w1, w2, rating = fields
            try:
                value = float(rating)
            except ValueError:
                raise EvaluationError(
                    f"{label}:{lineno}: malformed rating {rating!r}"
                ) from None
            if not math.isfinite(value):
                raise EvaluationError(
                    f"{label}:{lineno}: non-finite rating {rating!r}"
                )
            rows.append((w1.strip().lower(), w2.strip().lower(), value))
    return Benchmark(name=name or label, rows=tuple(rows))


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
    text = reference_data_bytes().decode("utf-8")
    rows = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith("word1"):
            continue
        w1, w2, mc, rep, ic, edge, prob = line.split("\t")
        rows.append(
            ReferenceRow(
                word1=w1,
                word2=w2,
                mc_mean=float(mc),
                replication_mean=float(rep),
                sim_ic=float(ic),
                sim_edge=float(edge),
                sim_prob=float(prob),
            )
        )
    return tuple(rows)


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
    the benchmark.  Fails if fewer than 2 rows are usable.
    """
    if measure not in WORD_MEASURES:
        raise ValueError(
            f"unknown measure {measure!r}; expected one of {WORD_MEASURES}"
        )
    items: list[EvalItem] = []
    known = taxonomy.sense_indices
    for w1, w2, human in benchmark.rows:
        if known(w1) and known(w2):
            score = word_similarity(  # the module attribute, which tracing may wrap
                measure, taxonomy, w1, w2, model, log_base=log_base, lch_floor=lch_floor
            )
            items.append(EvalItem(w1, w2, human, score.value, True, None))
            continue
        missing = sorted({str(w) for w in (w1, w2) if not known(w)})
        reason = "word not in taxonomy: " + ", ".join(missing)
        items.append(EvalItem(w1, w2, human, None, False, reason))

    humans = [it.human for it in items if it.included]
    scores = [it.score for it in items if it.included]
    if len(humans) < 2:
        raise EvaluationError(
            f"benchmark {benchmark.name!r} has {len(humans)} usable rows; need >= 2"
        )
    return EvalReport(
        measure=measure,
        r=pearson(humans, scores),
        n_included=len(humans),
        excluded=tuple(
            (it.word1, it.word2, it.reason) for it in items if not it.included
        ),
        items=tuple(items),
    )
