"""Record the output digest of every query block for a range of seeds.

    python3 bench/record_golden.py 0 31

Run it on a commit whose outputs are known good: each seed's outputs
must first pass the oracle checks.  ``run.py`` then fails any run whose
block digest differs from the one recorded for its seed.  Digests are
merged into ``bench/golden.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import taxsim  # noqa: E402
import taxsim.cli  # noqa: E402,F401
import worker  # noqa: E402
from oracle import Oracle  # noqa: E402


def block_digests(seed: int) -> dict:
    d = HERE / "out" / f"golden-seed{seed}"
    shutil.rmtree(d, ignore_errors=True)
    gen.write(seed, d)
    worker.taxsim = taxsim
    inp = worker.Inputs(d)
    inp.load_queries()
    r = worker.Run(inp)
    t, _, m = worker.setup(inp)
    sampled: set[str] = set()
    for k in range(len(inp.structural)):
        r.structural(t, m, k, sampled)
    for k in range(len(inp.ic)):
        r.ic(t, m, k, sampled)
    failures = run.check(Oracle.from_dir(d), "", [], r.out, None)
    if failures:
        raise SystemExit(f"seed {seed}: outputs fail the oracle: {failures[:3]}")
    shutil.rmtree(d)
    out: dict[str, dict[str, str]] = {"eval-structural": {}, "eval-ic": {}}
    for p in r.out["passes"]:
        workload = "eval-structural" if p["block"].startswith("structural") else "eval-ic"
        out[workload][p["block"]] = p["digest"]
    return out


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8")) if run.GOLDEN.is_file() else {}
    for seed in range(first, last + 1):
        golden[str(seed)] = block_digests(seed)
        run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
        print(f"seed {seed} recorded", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
