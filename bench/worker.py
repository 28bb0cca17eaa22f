"""The benchmark process that holds taxsim's state.

``run.py`` starts it once per run.  It reads only the generated input
files, so its peak RSS is the program's own, and it reports its timings,
output digests and output samples as JSON for ``run.py`` to check.

    python3 bench/worker.py --inputs DIR --workload eval-ic --seconds 20 \
        --trace 0 --out result.json

Untraced, it sets up ``SETUPS`` times (``setup_s`` is their median) and,
on the ``eval-*`` workloads, runs passes over the query blocks after each
setup until ``--seconds`` have passed in all.  Traced, it runs in-process
CLI calls, sets up once, runs the workload's own passes untraced and
again traced (their ratio is the tracing overhead), then one traced
probe of every query layer the workload does not exercise, so that
every per-layer metric is measured on every workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import loop_seconds
from gen import STRATA

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUPS = 3
TRACE_CLI_CALLS = 3
STRUCTURAL = ("edge", "lch")
IC = ("resnik", "prob")
IC_PROBE_ROWS = 2_000
STRUCTURAL_SAMPLE_STRATA = 2     # oracle-checked rows per structural block
IC_SAMPLE_STEP = 100             # every n-th ic row and concept pair is checked
WEIGHTED = "similarity.weighted"

taxsim = None  # imported by main() from the checkout's src/


class Inputs:
    """The generated files of one seed, cut into the blocks passes run."""

    def __init__(self, d: Path):
        self.dir = d
        self.shape = json.loads((d / "shape.json").read_text(encoding="utf-8"))
        self.taxonomy, self.lexicon, self.counts = (
            d / "taxonomy.tsv", d / "lexicon.tsv", d / "counts.tsv")
        self.cli_pairs = [tuple(line.split("\t")) for line in
                          (d / "cli_pairs.tsv").read_text(encoding="utf-8").splitlines()]

    def load_queries(self) -> None:
        """Read the structural and ic query lists, cut into blocks."""
        d, p = self.dir, self.shape["params"]
        structural = taxsim.load_benchmark(d / "structural.csv").rows
        strata = (d / "structural_strata.txt").read_text(encoding="utf-8").splitlines()
        self.stratum = {f"{w1}|{w2}": s for (w1, w2, _), s in zip(structural, strata)}
        size = 4 * p["structural_per_stratum"] + 1
        self.structural = [
            (structural[k:k + size], strata[k:k + size])
            for k in range(0, len(structural), size)
        ]
        ic = taxsim.load_benchmark(d / "ic.csv").rows
        pairs = [tuple(line.split("\t")) for line in
                 (d / "concept_pairs.tsv").read_text(encoding="utf-8").splitlines()]
        rows, cps = p["ic_block_rows"], p["concept_block_pairs"]
        self.ic = [
            (ic[k * rows:(k + 1) * rows], pairs[k * cps:(k + 1) * cps])
            for k in range(p["ic_blocks"])
        ]
        # the lists are the benchmark's data, not the program's: keep the
        # collector from scanning them during the program's setup and passes
        gc.freeze()

    def cli_argv(self, w1: str, w2: str) -> list[str]:
        return ["sim", w1, w2, "--taxonomy", str(self.taxonomy),
                "--lexicon", str(self.lexicon), "--counts", str(self.counts)]


def child_env() -> dict:
    """The environment for a child that imports taxsim from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup(inp: Inputs):
    t = taxsim.load_taxonomy(inp.taxonomy, inp.lexicon)
    table = taxsim.load_counts(inp.counts)
    return t, table, taxsim.build_model(t, table)


def _hex(x: float | None) -> str:
    return "-" if x is None else float(x).hex()


def report_digest(reports) -> str:
    """Digest of every score, r and excluded row of ``evaluate`` reports."""
    h = hashlib.sha256()
    for r in reports:
        h.update(repr((r.measure, _hex(r.r), r.n_included, r.excluded,
                       [_hex(it.score) for it in r.items])).encode())
    return h.hexdigest()[:16]


def values_digest(values) -> str:
    return hashlib.sha256(",".join(_hex(v) for v in values).encode()).hexdigest()[:16]


def weighted(t, m, pairs, tracer=None) -> list[float]:
    uniform_weights, sim_weighted = taxsim.uniform_weights, taxsim.sim_weighted
    if tracer is None:
        return [sim_weighted(m, t, a, b, uniform_weights(m, t, a, b)) for a, b in pairs]
    out = []
    for a, b in pairs:
        with tracer.span(WEIGHTED, f"{a}|{b}"):
            out.append(sim_weighted(m, t, a, b, uniform_weights(m, t, a, b)))
    return out


def structural_pass(t, m, rows, name: str):
    """Evaluate ``edge`` and ``lch`` over one block: (reports, seconds)."""
    bench = taxsim.Benchmark(name=name, rows=tuple(rows))
    t0 = time.perf_counter()
    reports = [taxsim.evaluate(meas, bench, t, m) for meas in STRUCTURAL]
    return reports, time.perf_counter() - t0


def ic_pass(t, m, rows, pairs, name: str, tracer=None):
    """Evaluate ``resnik`` and ``prob`` over one block, then weight its
    concept pairs: (reports, weighted values, eval seconds, weighted seconds)."""
    bench = taxsim.Benchmark(name=name, rows=tuple(rows))
    t0 = time.perf_counter()
    reports = [taxsim.evaluate(meas, bench, t, m) for meas in IC]
    t1 = time.perf_counter()
    values = weighted(t, m, pairs, tracer)
    return reports, values, t1 - t0, time.perf_counter() - t1


class Run:
    """Everything one worker run reports back."""

    def __init__(self, inp: Inputs):
        self.inp = inp
        self.out: dict = {"setup_s": [], "setup_cal_s": [], "passes": [], "samples": [],
                          "cli_stdout": [], "cli_process_s": [],
                          "errors": [], "attempted": 0}
        self.cal_s = 0.0  # reference-loop time measured just before the current pass

    def op(self, kind: str, fn, *args, count: int = 1):
        """Call ``fn``; an exception counts as ``count`` failed operations."""
        self.out["attempted"] += count
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - every failure is reported, none is fatal
            self.out["errors"].append({"op": kind, "count": count,
                                       "error": traceback.format_exc(limit=4)})
            return None

    def blocks(self, workload: str) -> list:
        return self.inp.structural if workload == "eval-structural" else self.inp.ic

    def sample_reports(self, block: str, reports, rows_to_check) -> None:
        for r in reports:
            for i in rows_to_check:
                it = r.items[i]
                self.out["samples"].append(
                    {"block": block, "measure": r.measure, "w1": it.word1, "w2": it.word2,
                     "score": it.score, "included": it.included})

    def structural(self, t, m, k: int, sampled: set[str], tracer=None) -> float | None:
        rows, strata = self.inp.structural[k % len(self.inp.structural)]
        block = f"structural-{k % len(self.inp.structural)}"
        result = self.op("evaluate", structural_pass, t, m, rows, block, count=len(STRUCTURAL))
        if result is None:
            return None
        reports, seconds = result
        self.out["passes"].append({"block": block, "seconds": seconds,
                                   "eval_seconds": seconds,
                                   "word_scores": len(rows) * len(STRUCTURAL),
                                   "digest": report_digest(reports), "cal_s": self.cal_s,
                                   "traced": tracer is not None})
        if block not in sampled:
            sampled.add(block)
            b = k % len(self.inp.structural)
            want = {s for j, s in enumerate(STRATA)
                    if (j - b) % len(STRATA) < STRUCTURAL_SAMPLE_STRATA} | {"oov"}
            picks, seen = [], set()
            for i, s in enumerate(strata):
                if s in want and s not in seen:
                    seen.add(s)
                    picks.append(i)
            self.sample_reports(block, reports, picks)
        return seconds

    def ic(self, t, m, k: int, sampled: set[str], rows_limit: int | None = None,
           tracer=None) -> float | None:
        rows, pairs = self.inp.ic[k % len(self.inp.ic)]
        block = f"ic-{k % len(self.inp.ic)}"
        if rows_limit is not None:
            rows, pairs, block = rows[:rows_limit], pairs[:rows_limit], f"{block}:{rows_limit}"
        result = self.op("evaluate", ic_pass, t, m, rows, pairs, block, tracer,
                         count=len(IC) + len(pairs))
        if result is None:
            return None
        reports, values, eval_s, weighted_s = result
        self.out["passes"].append({"block": block, "seconds": eval_s + weighted_s,
                                   "eval_seconds": eval_s,
                                   "word_scores": len(rows) * len(IC),
                                   "concept_pairs": len(pairs),
                                   "weighted_seconds": weighted_s,
                                   "digest": report_digest(reports) + values_digest(values),
                                   "cal_s": self.cal_s, "traced": tracer is not None})
        if block not in sampled:
            sampled.add(block)
            self.sample_reports(block, reports, range(0, len(rows), IC_SAMPLE_STEP))
            for i in range(0, len(pairs), IC_SAMPLE_STEP):
                self.out["samples"].append({"block": block, "measure": "weighted",
                                            "w1": pairs[i][0], "w2": pairs[i][1],
                                            "score": values[i], "included": True})
        return eval_s + weighted_s

    def cli_main(self, k: int) -> float | None:
        w1, w2 = self.inp.cli_pairs[k % len(self.inp.cli_pairs)]

        def call():
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = taxsim.cli.main(self.inp.cli_argv(w1, w2))
            seconds = time.perf_counter() - t0
            if rc != 0:
                raise RuntimeError(f"taxsim.cli.main exited {rc}")
            return buf.getvalue(), seconds

        result = self.op("cli.main", call)
        if result is None:
            return None
        stdout, seconds = result
        self.out["cli_stdout"].append({"w1": w1, "w2": w2, "stdout": stdout})
        return seconds


def _own_pass(run: Run, workload: str, t, m, k: int, sampled: set[str], tracer=None):
    """Pass ``k`` of an eval workload: its seconds, or None if it failed."""
    if workload == "eval-structural":
        return run.structural(t, m, k, sampled, tracer)
    return run.ic(t, m, k, sampled, tracer=tracer)


def untraced(run: Run, workload: str, seconds: float) -> None:
    """Set up ``SETUPS`` times; on the eval workloads, each setup is
    followed by its share of the passes, so that both the setup and the
    pass samples spread over the whole run and its machine noise."""
    if workload != "cli-sim":
        run.inp.load_queries()
    sampled: set[str] = set()
    k = 0
    for i in range(SETUPS):
        gc.collect()
        cal_s = loop_seconds()
        t0 = time.perf_counter()
        state = run.op("setup", setup, run.inp)
        seconds_taken = time.perf_counter() - t0
        if state is None:
            continue
        run.out["setup_s"].append(seconds_taken)
        run.out["setup_cal_s"].append(cal_s)
        if workload != "cli-sim":
            t, _, m = state
            # by the last setup, every block has had at least one pass
            at_least = -(-len(run.blocks(workload)) * (i + 1) // SETUPS)
            start = time.perf_counter()
            while k < at_least or time.perf_counter() - start < seconds / SETUPS:
                gc.collect()
                run.cal_s = loop_seconds()
                _own_pass(run, workload, t, m, k, sampled)
                k += 1
            del t, m
        del state  # one model alive at a time, so RSS is one model's


def traced(run: Run, workload: str, seconds: float, spans_path: Path) -> None:
    """The traced run; see the module docstring."""
    from spans import Tracer

    tracer = Tracer()
    sampled: set[str] = set()

    def overhead(plain: list, timed: list) -> None:
        if plain and None not in plain and None not in timed:
            run.out["overhead_frac"] = math.fsum(timed) / math.fsum(plain) - 1.0

    # The CLI stage comes first, while the process holds no model and no
    # query lists, which would give the collector more to scan and slow
    # the call's own load.
    plain = ([run.cli_main(k) for k in range(TRACE_CLI_CALLS)]
             if workload == "cli-sim" else [])
    with tracer.installed():
        timed = [run.cli_main(k) for k in range(TRACE_CLI_CALLS)]
    overhead(plain, timed)
    # what a CLI process pays before main(): interpreter start and imports
    for _ in range(TRACE_CLI_CALLS):
        t0 = time.perf_counter()
        run.op("cli", lambda: subprocess.run(
            [sys.executable, "-c", "import taxsim.cli"], check=True, env=child_env()))
        run.out["cli_process_s"].append(time.perf_counter() - t0)

    run.inp.load_queries()
    with tracer.installed():
        t, table, m = setup(run.inp)
    if workload != "cli-sim":
        # the workload's own passes, untraced and then the same ones traced
        plain = []
        start = time.perf_counter()
        while len(plain) < 2 or time.perf_counter() - start < seconds / 2:
            gc.collect()
            plain.append(_own_pass(run, workload, t, m, len(plain), sampled))
        timed = []
        with tracer.installed():
            for k in range(len(plain)):
                gc.collect()
                timed.append(_own_pass(run, workload, t, m, k, sampled, tracer))
        overhead(plain, timed)
    # one traced probe of every query layer the workload leaves out
    with tracer.installed():
        if workload != "eval-structural":
            run.structural(t, m, 0, sampled, tracer)
        if workload != "eval-ic":
            run.ic(t, m, 0, sampled, rows_limit=IC_PROBE_ROWS, tracer=tracer)
    run.out["layers"], run.out["layer_samples"] = layer_metrics(tracer, run.inp, t, table, m)
    tracer.write(spans_path)


def layer_metrics(tr, inp: Inputs, t, table, m) -> tuple[dict, dict]:
    """Per-layer metrics from the spans and the program's public objects,
    with the number of samples behind each median or percentile."""
    from spans import median, percentile

    met: dict[str, float] = {}
    n: dict[str, int] = {}

    def timing(name: str, values: list[float]) -> None:
        met[name] = median(values)
        n[name] = len(values)

    timing("taxonomy.load_self_s", tr.self_seconds("taxonomy.load"))
    timing("taxonomy.build_s", tr.seconds("taxonomy.build"))
    met["taxonomy.concepts"] = t.concept_count
    met["taxonomy.edges"] = t.edge_count
    met["taxonomy.words"] = t.word_count
    met["taxonomy.max_depth"] = t.max_depth
    timing("probability.load_counts_s", tr.seconds("probability.load_counts"))
    timing("probability.build_model_s", tr.seconds("probability.build_model"))
    met["probability.dropped_mass_frac"] = (table.total_raw - m.N) / table.total_raw
    met["probability.zero_freq_concepts"] = sum(
        1 for c in t.concepts() if math.isinf(m.ic(c)))

    for meas in ("resnik", "prob", "edge", "lch", "weighted"):
        secs = tr.seconds(f"similarity.{meas}")
        key = f"similarity.{meas}"
        met[f"{key}.calls"] = len(secs)
        met[f"{key}.busy_s"] = math.fsum(secs)
        met[f"{key}.ms_p50"] = 1000 * median(secs)
        met[f"{key}.ms_p90"] = 1000 * percentile(secs, 90)
        n[f"{key}.ms_p50"] = n[f"{key}.ms_p90"] = len(secs)
    for meas in STRUCTURAL:
        for stratum in ("near", "far"):
            secs = [s.seconds for s in tr.named(f"similarity.{meas}")
                    if inp.stratum.get(s.pair, "").startswith(stratum)]
            timing(f"similarity.{meas}.{stratum}.ms_p50", [1000 * x for x in secs])

    word_spans = [s for meas in ("resnik", "prob", "edge", "lch")
                  for s in tr.named(f"similarity.{meas}")]
    met["similarity.sense_pairs"] = sum(
        len(t.senses_of(w1)) * len(t.senses_of(w2))
        for w1, w2 in (s.pair.split("|") for s in word_spans))
    lengths = [2 * t.max_depth - s.result.value for s in tr.named("similarity.edge")
               if s.pair in inp.stratum]
    met["similarity.path_len_mean"] = math.fsum(lengths) / len(lengths) if lengths else 0.0
    n["similarity.path_len_mean"] = len(lengths)

    met["evaluation.self_s"] = math.fsum(tr.self_seconds("evaluation.evaluate"))
    met["evaluation.pearson_s"] = math.fsum(tr.seconds("evaluation.pearson"))
    met["evaluation.excluded_pairs"] = sum(
        len(s.result.excluded) for s in tr.named("evaluation.evaluate"))
    timing("cli.main_s", tr.seconds("cli.main"))
    timing("cli.self_s", tr.self_seconds("cli.main"))
    return met, n


def main(argv: list[str] | None = None) -> int:
    global taxsim
    ap = argparse.ArgumentParser(description="taxsim benchmark worker")
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import taxsim as _taxsim
    import taxsim.cli  # noqa: F401 - traced and called as taxsim.cli.main
    taxsim = _taxsim

    run = Run(Inputs(args.inputs))
    loop_seconds()  # the first run of the reference loop is cold; discard it
    if args.trace:
        traced(run, args.workload, args.seconds, args.out.with_name("spans.jsonl.gz"))
    else:
        untraced(run, args.workload, args.seconds)
    run.out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.out.write_text(json.dumps(run.out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
