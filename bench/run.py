"""Seeded WordNet-scale benchmark for taxsim.

    python3 bench/run.py --workload eval-ic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It generates the inputs for ``--seed``
under ``bench/out/``, drives taxsim from ``src/`` through its public
entry points only, checks every output it can against an independent
oracle and the digests recorded in ``bench/golden.json``, and prints as
its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics and ``--trace 1`` the per-layer ones (see ``bench/README.md``).

All load comes from one closed-loop client: one process, one thread,
and CLI children run one at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from calibrate import REFERENCE_S, loop_seconds
from oracle import Oracle
from worker import Inputs, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("cli-sim", "eval-structural", "eval-ic")
MIN_CLI_CALLS = 3
CLI_MEASURES = 4


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def run_cli(inp: Inputs, w1: str, w2: str, log: Path) -> dict:
    """One ``taxsim sim`` process: wall time, the reference-loop time just
    before it, exit code, stdout and the child's own peak RSS."""
    cmd = [sys.executable, "-m", "taxsim.cli", *inp.cli_argv(w1, w2)]
    cal_s = loop_seconds()
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env())
        stdout = proc.stdout.read()
        proc.stdout.close()
        # wait4 reaps the child and gives its own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"w1": w1, "w2": w2, "seconds": seconds, "cal_s": cal_s, "rc": proc.returncode,
            "stdout": stdout.decode("utf-8", "replace"), "rss_mb": usage.ru_maxrss / 1024}


def run_worker(inputs: Path, workload: str, seconds: float, trace: int, out: Path) -> dict:
    result = out / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
           "--workload", workload, "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(result)]
    with open(out / "worker.log", "wb") as log:
        rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env()).returncode
    if rc != 0:
        raise RuntimeError(f"worker exited {rc}; see {out / 'worker.log'}")
    return json.loads(result.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# output gate
# ----------------------------------------------------------------------


def check(oracle, workload: str, cli_calls: list[dict], worker: dict,
          golden: dict | None) -> list[dict]:
    """Every mismatch between the outputs and their references, each with
    the number of operations it fails."""
    failures = []
    for call in cli_calls:
        if call["rc"] != 0:
            failures.append({"op": "cli", "count": 1, "why": f"exit {call['rc']}"})
        elif call["stdout"] != oracle.cli_sim_stdout(call["w1"], call["w2"]):
            failures.append({"op": "cli", "count": 1,
                             "why": f"stdout mismatch for {call['w1']} {call['w2']}"})
    for call in worker["cli_stdout"]:
        if call["stdout"] != oracle.cli_sim_stdout(call["w1"], call["w2"]):
            failures.append({"op": "cli.main", "count": 1,
                             "why": f"stdout mismatch for {call['w1']} {call['w2']}"})
    for s in worker["samples"]:
        if s["measure"] == "weighted":
            want = oracle.weighted_uniform(s["w1"], s["w2"])
        else:
            want = oracle.word_score(s["measure"], s["w1"], s["w2"])
        if s["included"] != (want is not None) or not _same(s["score"], want):
            failures.append({"op": s["measure"], "count": 1,
                             "why": f"{s['block']} {s['measure']} {s['w1']},{s['w2']}: "
                                    f"got {s['score']!r}, oracle {want!r}"})
    seen: dict[str, str] = {}
    for p in worker["passes"]:
        block, digest = p["block"], p["digest"]
        expected = seen.setdefault(block, digest)
        if golden is not None and block in golden.get(workload, {}):
            expected = golden[workload][block]
        if digest != expected:
            failures.append({"op": "evaluate", "count": 1,
                             "why": f"{block} digest {digest}, expected {expected}"})
    for e in worker["errors"]:
        failures.append({"op": e["op"], "count": e["count"], "why": e["error"]})
    return failures


def _same(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def scaled(seconds: float, cal_s: float) -> float:
    """``seconds`` at the reference machine speed (see calibrate.py)."""
    return seconds * REFERENCE_S / cal_s


def end_to_end(workload: str, cli_calls: list[dict], worker: dict) -> dict:
    """The end-to-end metrics.  Every timing is scaled by the reference
    loop measured just before it (see calibrate.py)."""
    setup = [scaled(s, c) for s, c in zip(worker["setup_s"], worker["setup_cal_s"])]
    if workload == "cli-sim":
        calls = [scaled(c["seconds"], c["cal_s"]) for c in cli_calls]
        return {
            "setup_s": statistics.median(setup),
            "job_s": statistics.fmean(calls),
            "pairs_per_s": CLI_MEASURES * len(calls) / math.fsum(calls),
            "peak_rss_mb": max(c["rss_mb"] for c in cli_calls),
        }
    passes = worker["passes"]
    by_block: dict[str, list[float]] = {}
    for p in passes:
        by_block.setdefault(p["block"], []).append(scaled(p["seconds"], p["cal_s"]))
    return {
        "setup_s": statistics.median(setup),
        # the whole query list once: each block at its mean pass time
        "job_s": math.fsum(statistics.fmean(v) for v in by_block.values()),
        "pairs_per_s": sum(p["word_scores"] for p in passes)
        / math.fsum(scaled(p["eval_seconds"], p["cal_s"]) for p in passes),
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def per_layer(worker: dict) -> dict:
    met = dict(worker["layers"])
    met["cli.process_s"] = statistics.median(worker["cli_process_s"])
    met["tracing.overhead_frac"] = worker["overhead_frac"]
    return met


def declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="taxsim benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "taxsim" / "cli.py").is_file():
        print(f"error: no taxsim sources under {SRC}", file=sys.stderr)
        return 2
    loop_seconds()  # the first run of the reference loop is cold; discard it
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    inputs = out / "inputs"
    shape = gen.write(args.seed, inputs)

    inp = Inputs(inputs)
    cli_calls: list[dict] = []

    def cli_for(seconds: float) -> None:
        start = time.perf_counter()
        n = len(cli_calls) + MIN_CLI_CALLS
        while len(cli_calls) < n or time.perf_counter() - start < seconds:
            pair = inp.cli_pairs[len(cli_calls) % len(inp.cli_pairs)]
            cli_calls.append(run_cli(inp, *pair, out / "cli.log"))

    if args.workload == "cli-sim" and not args.trace:
        # CLI calls on both sides of the worker's setups, so both spread
        # over the run
        cli_for(args.seconds / 2)
        worker = run_worker(inputs, args.workload, args.seconds, args.trace, out)
        cli_for(args.seconds / 2)
    else:
        worker = run_worker(inputs, args.workload, args.seconds, args.trace, out)

    golden = None
    if GOLDEN.is_file():
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(str(args.seed))
    failures = check(Oracle.from_dir(inputs), args.workload, cli_calls, worker, golden)
    attempted = worker["attempted"] + len(cli_calls)
    failed = sum(f["count"] for f in failures)
    values = per_layer(worker) if args.trace else end_to_end(
        args.workload, cli_calls, worker)
    units = declared(args.trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    if args.trace:
        samples = {**worker["layer_samples"], "cli.process_s": len(worker["cli_process_s"])}
    else:
        n = len(cli_calls) if args.workload == "cli-sim" else len(worker["passes"])
        samples = {"setup_s": len(worker["setup_s"]), "job_s": n, "pairs_per_s": n}

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "shape": shape, "machine": machine(),
              "samples": samples, "cli_calls": cli_calls,
              "passes": worker["passes"], "setup_s": worker["setup_s"],
              "setup_cal_s": worker["setup_cal_s"],
              "failures": failures, "metrics": metrics}
    (out / "result.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    shutil.rmtree(inputs)  # ~10 MB a run; the seed regenerates them
    for f in failures[:20]:
        print(f"FAIL {f['op']}: {f['why']}", file=sys.stderr)
    print("shape " + json.dumps({k: v for k, v in shape.items() if k != "params"},
                                sort_keys=True))
    print("machine " + json.dumps(machine(), sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": min(failed, attempted), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
