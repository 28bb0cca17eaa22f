"""Command-line interface.

Subcommands: ``validate`` (check taxonomy structure), ``sim`` (score a
word pair), ``eval`` (correlate measures against a benchmark, or replay
the bundled reference data), ``stats`` (dump the probability model).

Exit codes partition the failure classes: 0 success, 1 validation,
2 I/O, 3 query, 4 degenerate evaluation.  Identical inputs and flags
always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    EvaluationError,
    ModelError,
    SimilarityError,
    TaxonomyError,
    UnknownConceptError,
    UnknownWordError,
)
from .evaluation import (
    REFERENCE_TARGETS,
    REFERENCE_TOLERANCE,
    evaluate,
    load_benchmark,
    reference_correlations,
)
from .probability import build_model, load_counts
from .similarity import WORD_MEASURES, word_similarity
from .taxonomy import load_taxonomy

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_QUERY = 3
EXIT_EVALUATION = 4


@dataclass(frozen=True)
class RunConfig:
    """Resolved flags shared by the subcommands."""

    taxonomy: Path | None
    lexicon: Path | None
    counts: Path | None
    benchmark: Path | None
    log_base: float
    plural_fold: bool
    lch_floor: float
    measures: tuple[str, ...]
    json_out: Path | None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        if not math.isfinite(args.log_base) or args.log_base <= 1:
            raise ModelError(f"--log-base must be finite and > 1, got {args.log_base}")
        if not math.isfinite(args.lch_floor) or args.lch_floor <= 0:
            raise ModelError(
                f"--lch-floor must be finite and positive, got {args.lch_floor}"
            )
        measures = tuple(dict.fromkeys(args.measure)) if args.measure else WORD_MEASURES
        benchmark = getattr(args, "benchmark", None)
        json_out = getattr(args, "json_out", None)
        return cls(
            taxonomy=Path(args.taxonomy) if args.taxonomy else None,
            lexicon=Path(args.lexicon) if args.lexicon else None,
            counts=Path(args.counts) if args.counts else None,
            benchmark=Path(benchmark) if benchmark else None,
            log_base=args.log_base,
            plural_fold=args.plural_fold,
            lch_floor=args.lch_floor,
            measures=measures,
            json_out=Path(json_out) if json_out else None,
        )


def _load(config: RunConfig):
    if config.taxonomy is None or config.lexicon is None:
        raise ModelError("--taxonomy and --lexicon are required")
    return load_taxonomy(config.taxonomy, config.lexicon)


def _load_model(config: RunConfig, taxonomy):
    if config.counts is None:
        raise ModelError(
            "--counts is required for the corpus-based measures (resnik, prob)"
        )
    table = load_counts(
        config.counts,
        plural_fold=config.plural_fold,
        known_words=taxonomy.words() if config.plural_fold else None,
    )
    return build_model(taxonomy, table, log_base=config.log_base)


def _needs_model(measures) -> bool:
    return any(m in ("resnik", "prob") for m in measures)


def cmd_validate(config: RunConfig) -> int:
    t = _load(config)
    print(
        f"{t.concept_count} concepts, {t.edge_count} edges, "
        f"{t.word_count} words, MAX={t.max_depth}"
    )
    return EXIT_OK


def cmd_sim(config: RunConfig, w1: str, w2: str) -> int:
    t = _load(config)
    model = _load_model(config, t) if _needs_model(config.measures) else None
    for measure in WORD_MEASURES:
        if measure not in config.measures:
            continue
        score = word_similarity(
            measure, t, w1, w2, model,
            log_base=config.log_base, lch_floor=config.lch_floor,
        )
        print(
            f"{w1.lower()}\t{w2.lower()}\t{measure}\t{score.value:.4f}\t"
            f"{score.witness or '-'}"
        )
    return EXIT_OK


def cmd_eval_fixture() -> int:
    computed = reference_correlations()
    failed = False
    for key in ("ic", "edge", "prob"):
        r = computed[key]
        target = REFERENCE_TARGETS[key]
        ok = abs(r - target) <= REFERENCE_TOLERANCE
        failed = failed or not ok
        print(
            f"{key}\tr={r:.4f}\ttarget={target:.4f}±{REFERENCE_TOLERANCE}\t"
            f"{'PASS' if ok else 'FAIL'}"
        )
    return EXIT_VALIDATION if failed else EXIT_OK


def cmd_eval(config: RunConfig) -> int:
    if config.benchmark is None:
        raise ModelError("--benchmark is required (or use --fixture)")
    t = _load(config)
    model = _load_model(config, t) if _needs_model(config.measures) else None
    benchmark = load_benchmark(config.benchmark)
    json_lines: list[str] = []
    for measure in WORD_MEASURES:
        if measure not in config.measures:
            continue
        report = evaluate(
            measure, benchmark, t, model,
            log_base=config.log_base, lch_floor=config.lch_floor,
        )
        print(
            f"{measure}\tr={report.r:.4f}\tn={report.n_included}\t"
            f"excluded={len(report.excluded)}"
        )
        for w1, w2, reason in report.excluded:
            print(f"# excluded: {w1},{w2}\t{reason}")
        for item in report.items:
            json_lines.append(
                json.dumps(
                    {
                        "measure": measure,
                        "pair": [item.word1, item.word2],
                        "score": item.score,
                        "included": item.included,
                        "reason": item.reason,
                    },
                    sort_keys=True,
                )
            )
    if config.json_out is not None:
        config.json_out.write_text("\n".join(json_lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_stats(config: RunConfig) -> int:
    t = _load(config)
    model = _load_model(config, t)
    for cid, freq, p, ic in model.dump_rows():
        print(f"{cid}\t{freq}\t{p:.4f}\t{ic:.4f}")
    return EXIT_OK


def _add_common_options(parser: argparse.ArgumentParser, *, require_files: bool):
    parser.add_argument("--taxonomy", required=require_files,
                        help="edge file: child<TAB>parent per line")
    parser.add_argument("--lexicon", required=require_files,
                        help="lexicon file: word<TAB>concept_id per line")
    parser.add_argument("--counts", help="counts file: word<TAB>count per line")
    parser.add_argument("--log-base", type=float, default=2.0,
                        help="logarithm base for information content (default 2)")
    parser.add_argument("--plural-fold", action="store_true",
                        help="fold trailing-s words into lexicon stems")
    parser.add_argument("--lch-floor", type=float, default=1.0,
                        help="path length substituted for 0 in the lch measure")
    parser.add_argument("--measure", action="append", choices=WORD_MEASURES,
                        help="measure to compute (repeatable; default: all)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxsim",
        description="Semantic similarity over IS-A taxonomies using "
        "corpus-derived information content.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate taxonomy structure")
    _add_common_options(p_validate, require_files=True)

    p_sim = sub.add_parser("sim", help="score the similarity of two words")
    p_sim.add_argument("word1")
    p_sim.add_argument("word2")
    _add_common_options(p_sim, require_files=True)

    p_eval = sub.add_parser("eval", help="correlate measures against a benchmark")
    p_eval.add_argument("--fixture", action="store_true",
                        help="replay the bundled reference scores instead of "
                        "recomputing (needs no input files)")
    p_eval.add_argument("--benchmark", help="benchmark CSV: word1,word2,rating")
    p_eval.add_argument("--json-out", help="write per-row results as JSON lines")
    _add_common_options(p_eval, require_files=False)

    p_stats = sub.add_parser("stats", help="dump per-concept freq/p/ic")
    _add_common_options(p_stats, require_files=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval" and args.fixture:
            return cmd_eval_fixture()
        config = RunConfig.from_args(args)
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "sim":
            return cmd_sim(config, args.word1, args.word2)
        if args.command == "eval":
            return cmd_eval(config)
        return cmd_stats(config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TaxonomyError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (UnknownConceptError, UnknownWordError, SimilarityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUERY
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION


if __name__ == "__main__":
    sys.exit(main())
