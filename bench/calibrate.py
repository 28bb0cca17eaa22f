"""A fixed pure-Python reference loop that measures the machine's speed.

The benchmark runs it just before every timed operation.  Its work never
changes, so its time says how fast the interpreter ran on the machine
at that moment; each end-to-end timing is scaled by ``REFERENCE_S`` over
that time.  This takes out the drift of a shared machine, whose speed
moves by a quarter within minutes, without hiding a change in the
program, which the loop never calls.

The loop mixes the kinds of work taxsim does: set intersections,
sorting, string-keyed lookups and small allocations (parsing, resnik,
prob) and a breadth-first search over a graph too large for the CPU
caches (edge, lch).
"""

from __future__ import annotations

import random
import time

#: Nominal time of the loop: scaled timings read as seconds on a machine
#: where the loop takes this long, about its time on a quiet 2-vCPU Intel
#: Xeon with CPython 3.11.  Any fixed value would do.
REFERENCE_S = 0.09

_rng = random.Random(0)
_SETS = [frozenset(_rng.sample(range(4000), 24)) for _ in range(4000)]
_KEYS = [f"k{i:06d}" for i in range(20000)]
_INDEX = {k: i for i, k in enumerate(_KEYS)}
_ADJ: list[list[int]] = [[] for _ in range(60000)]
for _i in range(1, len(_ADJ)):
    _p = _rng.randrange(_i)
    _ADJ[_i].append(_p)
    _ADJ[_p].append(_i)
_GRAPH = [tuple(a) for a in _ADJ]
del _ADJ


def loop_seconds() -> float:
    """Wall time of one run of the reference loop."""
    sets, keys, index, graph = _SETS, _KEYS, _INDEX, _GRAPH
    t0 = time.perf_counter()
    acc = []
    for i in range(25000):
        common = sorted(sets[i % 4000] & sets[(i * 7 + 3) % 4000])
        acc.append((index[keys[(i * 13) % 20000]], len(common)))
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return time.perf_counter() - t0
