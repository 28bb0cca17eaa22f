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


def pearson(xs: list[float], ys: list[float]) -> float:
    """Sample Pearson product-moment correlation.

    Two-pass computation (means first, then centered products, summed
    with compensation) so that tightly-toleranced correlations are not
    lost to cancellation.  Deviations are rescaled by their largest
    magnitude first; the correlation is scale-invariant and this keeps
    every intermediate within [0, n], immune to under- and overflow.
    Any NaN or infinite input is rejected, since no correlation of it
    is meaningful.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if not all(map(math.isfinite, xs)) or not all(map(math.isfinite, ys)):
        raise EvaluationError("non-finite input: correlation undefined")
    n = len(xs)
    if n < 2:
        raise EvaluationError(f"need at least 2 points, got {n}")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    dxs = [x - mx for x in xs]
    dys = [y - my for y in ys]
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


def _ranks(values: list[float]) -> list[float]:
    # average ranks for ties
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs: list[float], ys: list[float]) -> float:
    """Rank correlation; supplementary statistic, not used in acceptance."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    return pearson(_ranks(xs), _ranks(ys))


def flip_check(xs: list[float], ys: list[float], a: float) -> tuple[float, float]:
    """Correlations of ``xs`` against ``ys`` and against ``a - ys``.

    Converting a distance into a similarity by subtracting from a
    constant flips the correlation's sign but not its magnitude; the
    returned pair makes that directly assertable.
    """
    return pearson(xs, ys), pearson(xs, [a - y for y in ys])


# ----------------------------------------------------------------------
# benchmarks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Benchmark:
    """Ordered word pairs with mean human similarity ratings."""

    name: str
    rows: tuple[tuple[str, str, float], ...]


def load_benchmark(path: str | os.PathLike, name: str | None = None) -> Benchmark:
    """Read a benchmark CSV with header ``word1,word2,rating``."""
    label = str(path)
    rows: list[tuple[str, str, float]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
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


def reference_benchmark() -> Benchmark:
    """The bundled pairs and human means as a live-mode benchmark."""
    rows = tuple(
        (r.word1, r.word2, r.mc_mean) for r in load_reference_scores()
    )
    return Benchmark(name="miller-charles-28", rows=rows)


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


@dataclass(frozen=True)
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
    for w1, w2, human in benchmark.rows:
        missing = [w for w in (w1, w2) if not taxonomy.senses_of(w)]
        if missing:
            reason = "word not in taxonomy: " + ", ".join(sorted(set(missing)))
            items.append(EvalItem(w1, w2, human, None, False, reason))
            continue
        score = word_similarity(
            measure, taxonomy, w1, w2, model, log_base=log_base, lch_floor=lch_floor
        )
        items.append(EvalItem(w1, w2, human, score.value, True, None))

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
