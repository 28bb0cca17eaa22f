"""Command-line interface.

Subcommands: ``validate`` (check taxonomy structure), ``sim`` (score a
word pair), ``eval`` (correlate measures against a benchmark, or replay
the bundled reference data), ``stats`` (dump the probability model).

Exit codes partition the failure classes: 0 success, 1 validation,
2 I/O, 3 query, 4 degenerate evaluation.  Identical inputs and flags
always produce byte-identical output.  An empty path flag counts as
absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
from .probability import _check_real, build_model, load_counts
from .similarity import CORPUS_MEASURES, WORD_MEASURES, word_similarity
from .taxonomy import _gc_paused, _normalized, load_taxonomy

#: Exit code of each failure class, matched in order like ``except`` clauses.
EXIT_CODES = {
    OSError: 2,
    TaxonomyError: 1,
    ModelError: 1,
    UnknownConceptError: 3,
    UnknownWordError: 3,
    SimilarityError: 3,
    EvaluationError: 4,
}


def _load(args: argparse.Namespace, measures):
    """The taxonomy, and the probability model if any of ``measures``
    needs corpus counts (else ``None``).  Count mass that the model drops,
    because its words are not in the lexicon, is reported on stderr."""
    if not (args.taxonomy and args.lexicon):
        raise ModelError("--taxonomy and --lexicon are required")
    taxonomy = load_taxonomy(Path(args.taxonomy), Path(args.lexicon))
    if not any(m in CORPUS_MEASURES for m in measures):
        return taxonomy, None
    if not args.counts:
        raise ModelError(
            "--counts is required for the corpus-based measures (resnik, prob)"
        )
    table = load_counts(
        Path(args.counts),
        plural_stems=taxonomy.words() if args.plural_fold else None,
    )
    model = build_model(taxonomy, table, log_base=args.log_base)
    if table.total_raw > model.N:
        dropped = table.total_raw - model.N
        print(f"note: {dropped / table.total_raw:.2%} of the count mass "
              f"({dropped} of {table.total_raw}) is dropped: "
              "its words are not in the lexicon", file=sys.stderr)
    return taxonomy, model


def cmd_validate(args: argparse.Namespace, measures) -> int:
    t, _ = _load(args, ())
    print(
        f"{t.concept_count} concepts, {t.edge_count} edges, "
        f"{t.word_count} words, MAX={t.max_depth}"
    )
    return 0


def cmd_sim(args: argparse.Namespace, measures) -> int:
    t, model = _load(args, measures)
    w1, w2 = args.word1, args.word2
    shown = "\t".join(_normalized((w1, w2)))  # the words as looked up
    for measure in measures:
        score = word_similarity(
            measure, t, w1, w2, model,
            log_base=args.log_base, lch_floor=args.lch_floor,
        )
        print(
            f"{shown}\t{measure}\t{score.value:.4f}\t"
            f"{score.witness or '-'}"
        )
    return 0


def cmd_eval_fixture(args: argparse.Namespace) -> int:
    if any((args.benchmark, args.json_out, args.measure, args.taxonomy, args.lexicon,
            args.counts, args.plural_fold)):
        raise ModelError("--fixture replays the bundled reference scores; it takes no "
                         "--benchmark, --json-out, --measure, --taxonomy, --lexicon, "
                         "--counts or --plural-fold")
    failed = False
    for key, r in reference_correlations().items():
        target = REFERENCE_TARGETS[key]
        ok = abs(r - target) <= REFERENCE_TOLERANCE
        failed = failed or not ok
        print(f"{key}\tr={r:.4f}\ttarget={target:.4f}±{REFERENCE_TOLERANCE}\t"
              f"{'PASS' if ok else 'FAIL'}")
    return 1 if failed else 0


def _is_stdout(path: Path) -> bool:
    """Whether ``path`` names the file that stdout writes to; a path that
    does not exist, or a stdout with no file descriptor (None when it was
    closed at start), names none."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError, AttributeError):  # io.UnsupportedOperation is both
        return False


def cmd_eval(args: argparse.Namespace, measures) -> int:
    if args.fixture:
        return cmd_eval_fixture(args)
    if not args.benchmark:
        raise ModelError("--benchmark is required (or use --fixture)")
    t, model = _load(args, measures)
    benchmark = load_benchmark(Path(args.benchmark))
    # the --json-out lines stream to a file beside the target, or beside
    # the file it links to, created afresh with the first report, which
    # replaces that file once every report is out: a failing measure
    # leaves no file.  The file stdout writes to gets them through stdout,
    # after each report's lines.  Any other target is written straight
    # into: a FIFO or device, which the rename would replace, or a
    # directory, which fails to open
    target = partial = Path(args.json_out) if args.json_out else None
    to_stdout = sys.stdout if target and _is_stdout(target) else None
    if target and to_stdout is None and (target.is_file() or not target.exists()):
        target = Path(os.path.realpath(target))
        partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    out = to_stdout  # or, once opened, the file; stdout is never closed here
    try:
        for measure in measures:
            report = evaluate(measure, benchmark, t, model, log_base=args.log_base,
                              lch_floor=args.lch_floor)
            print(
                f"{measure}\tr={report.r:.4f}\tn={report.n_included}\t"
                f"excluded={len(report.excluded)}"
            )
            for w1, w2, reason in report.excluded:
                print(f"# excluded: {w1},{w2}\t{reason}")
            if target:
                if out is None:  # "x": a file or link already at the temporary name fails
                    out = open(partial, "w" if partial == target else "x", encoding="utf-8")
                out.writelines(
                    json.dumps({"measure": measure, "pair": [item.word1, item.word2],
                                "score": item.score, "included": item.included,
                                "reason": item.reason}, sort_keys=True) + "\n"
                    for item in report.items
                )
        if out is not to_stdout:
            out.close()
            if partial != target:
                os.replace(partial, target)
            out = None
    finally:
        if out is not to_stdout:  # a measure failed, or the file could not be written
            try:
                out.close()  # may fail to flush, and closes the file even then
            finally:
                if partial != target:
                    partial.unlink()
    return 0


def cmd_stats(args: argparse.Namespace, measures) -> int:
    _, model = _load(args, CORPUS_MEASURES)
    for cid, freq, p, ic in model.dump_rows():
        print(f"{cid}\t{freq}\t{p:.4f}\t{ic:.4f}")
    return 0


def _add_common_options(parser: argparse.ArgumentParser, *, require_files: bool):
    parser.add_argument("--taxonomy", required=require_files,
                        help="edge file: child<TAB>parent per line")
    parser.add_argument("--lexicon", required=require_files,
                        help="lexicon file: word<TAB>concept_id per line")
    parser.add_argument("--counts", help="counts file: word<TAB>count per line")
    parser.add_argument("--log-base", type=float, default=2.0,
                        help="logarithm base for information content and lch (default 2)")
    parser.add_argument("--plural-fold", action="store_true",
                        help="fold trailing-s words into lexicon stems")
    parser.add_argument("--lch-floor", type=float, default=1.0,
                        help="path length that stands in for 0 in lch, in (0, 1] (default 1)")
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
    p_validate.set_defaults(run=cmd_validate)

    p_sim = sub.add_parser("sim", help="score the similarity of two words")
    p_sim.add_argument("word1")
    p_sim.add_argument("word2")
    _add_common_options(p_sim, require_files=True)
    p_sim.set_defaults(run=cmd_sim)

    p_eval = sub.add_parser("eval", help="correlate measures against a benchmark")
    p_eval.add_argument("--fixture", action="store_true",
                        help="replay the bundled reference scores instead of "
                        "recomputing (needs no input files)")
    p_eval.add_argument("--benchmark", help="benchmark CSV: word1,word2,rating")
    p_eval.add_argument("--json-out", help="write per-row results as JSON lines")
    _add_common_options(p_eval, require_files=False)
    p_eval.set_defaults(run=cmd_eval)

    p_stats = sub.add_parser("stats", help="dump per-concept freq/p/ic")
    _add_common_options(p_stats, require_files=True)
    p_stats.set_defaults(run=cmd_stats)

    return parser


@_gc_paused
def main(argv: list[str] | None = None) -> int:
    """Run one command; the cyclic garbage collector stays paused until
    it returns, so that no collection scans the loaded taxonomy."""
    args = build_parser().parse_args(argv)
    try:
        _check_real(args.log_base, "--log-base", 1, "> 1", ModelError)
        _check_real(args.lch_floor, "--lch-floor", 0, "in (0, 1]", ModelError, 1)
        chosen = args.measure or WORD_MEASURES
        return args.run(args, tuple(m for m in WORD_MEASURES if m in chosen))
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
