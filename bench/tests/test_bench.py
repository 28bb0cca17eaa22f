"""Tests of the benchmark itself, on a small generated instance.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import taxsim  # noqa: E402
import taxsim.cli  # noqa: E402,F401
import worker  # noqa: E402
from oracle import Oracle  # noqa: E402

SMALL = replace(
    gen.GenParams(), concepts=400, words=560, cli_pairs=3, structural_blocks=2,
    ic_blocks=2, ic_block_rows=300, ic_oov_per_block=2, concept_block_pairs=300,
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("inputs")
    gen.write(3, d, SMALL)
    return d


@pytest.fixture(scope="module")
def outputs(inputs):
    """A worker run over every layer of the small instance."""
    worker.taxsim = taxsim
    inp = worker.Inputs(inputs)
    r = worker.Run(inp)
    inp.load_queries()
    t, _, m = worker.setup(inp)
    sampled: set[str] = set()
    for k in range(2):
        r.structural(t, m, k, sampled)
        r.ic(t, m, k, sampled)
        r.structural(t, m, k, sampled)  # repeated blocks must digest alike
        r.cli_main(k)
    return r.out


def test_generator_is_deterministic(tmp_path):
    gen.write(5, tmp_path / "a", SMALL)
    gen.write(5, tmp_path / "b", SMALL)
    gen.write(6, tmp_path / "c", SMALL)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "taxonomy.tsv").read_bytes() != (
        tmp_path / "c" / "taxonomy.tsv").read_bytes()


def test_generator_shape_is_recorded(inputs):
    shape = json.loads((inputs / "shape.json").read_text(encoding="utf-8"))
    t = taxsim.load_taxonomy(inputs / "taxonomy.tsv", inputs / "lexicon.tsv")
    assert (shape["concepts"], shape["edges"], shape["words"], shape["max_depth"]) == (
        t.concept_count, t.edge_count, t.word_count, t.max_depth)
    assert 0 < shape["multi_parent_rate"] < 0.1
    assert 0.1 < shape["polysemy_rate"] < 0.3


def test_gate_passes_on_correct_outputs(inputs, outputs):
    assert outputs["samples"] and outputs["cli_stdout"]
    assert run.check(Oracle.from_dir(inputs), "eval-ic", [], outputs, None) == []


@pytest.mark.parametrize("measure", ["resnik", "prob", "edge", "lch", "weighted"])
def test_gate_catches_a_wrong_score(inputs, outputs, measure):
    bad = json.loads(json.dumps(outputs))
    sample = next(s for s in bad["samples"] if s["measure"] == measure and s["included"])
    sample["score"] += 1e-6
    failures = run.check(Oracle.from_dir(inputs), "eval-ic", [], bad, None)
    assert len(failures) == 1 and failures[0]["op"] == measure


def test_gate_catches_wrong_cli_output_and_digest(inputs, outputs):
    bad = json.loads(json.dumps(outputs))
    bad["cli_stdout"][0]["stdout"] = bad["cli_stdout"][0]["stdout"].replace("\t", " ", 1)
    bad["passes"][-1]["digest"] = "0" * 16
    failures = run.check(Oracle.from_dir(inputs), "eval-ic", [], bad, None)
    assert sorted(f["op"] for f in failures) == ["cli.main", "evaluate"]


def test_gate_checks_recorded_digests(inputs, outputs):
    block = outputs["passes"][0]["block"]
    golden = {"eval-structural": {block: "f" * 16}}
    failures = run.check(Oracle.from_dir(inputs), "eval-structural", [], outputs, golden)
    assert failures and all(block in f["why"] for f in failures)


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_traced_run_reports_every_per_layer_metric(inputs, tmp_path):
    worker.taxsim = taxsim
    r = worker.Run(worker.Inputs(inputs))
    worker.traced(r, "eval-ic", 0.0, tmp_path / "spans.jsonl.gz")
    assert r.out["errors"] == []
    assert set(run.per_layer(r.out)) == set(run.declared(1))
    assert len(r.out["cli_process_s"]) == worker.TRACE_CLI_CALLS
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0
    # tracing is removed again afterwards
    assert not hasattr(taxsim.evaluate, "__wrapped__")


@pytest.mark.parametrize("workload", ["eval-structural", "eval-ic"])
def test_untraced_run_covers_every_block_and_metric(inputs, workload):
    worker.taxsim = taxsim
    r = worker.Run(worker.Inputs(inputs))
    worker.untraced(r, workload, 0.0)
    assert r.out["errors"] == [] and len(r.out["setup_s"]) == worker.SETUPS
    assert {p["block"] for p in r.out["passes"]} == {
        f"{workload.split('-')[1]}-{k}" for k in range(len(r.blocks(workload)))}
    r.out["peak_rss_mb"] = 1.0  # set by worker.main
    assert set(run.end_to_end(workload, [], r.out)) == set(run.declared(0))
