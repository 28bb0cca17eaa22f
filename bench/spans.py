"""Span tracing around taxsim's public entry points, for the traced run.

``Tracer.install()`` replaces each traced function, at every module
attribute of the ``taxsim`` package that refers to it, with a wrapper
that records a span; ``uninstall()`` puts the originals back.  Spans
stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

_MODULES = ("taxsim", "taxsim.cli", "taxsim.evaluation", "taxsim.similarity",
            "taxsim.probability", "taxsim.taxonomy")

#: (span name, module, attribute) of every traced module-level function.
FUNCTIONS = (
    ("cli.main", "taxsim.cli", "main"),
    ("taxonomy.load", "taxsim.taxonomy", "load_taxonomy"),
    ("probability.load_counts", "taxsim.probability", "load_counts"),
    ("probability.build_model", "taxsim.probability", "build_model"),
    ("similarity", "taxsim.similarity", "word_similarity"),
    ("similarity.uniform_weights", "taxsim.similarity", "uniform_weights"),
    ("similarity.sim_weighted", "taxsim.similarity", "sim_weighted"),
    ("evaluation.evaluate", "taxsim.evaluation", "evaluate"),
    ("evaluation.pearson", "taxsim.evaluation", "pearson"),
)
#: (span name, module, class, classmethod) of every traced classmethod.
CLASSMETHODS = (
    ("taxonomy.build", "taxsim.taxonomy", "Taxonomy", "build"),
    ("probability.from_counts", "taxsim.probability", "FrequencyTable", "from_counts"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    pair: str | None = None
    result: object = field(default=None, repr=False)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, pair: str | None = None):
        """A span opened by the benchmark itself around its own code."""
        sid = self._begin(name, pair)
        try:
            yield
        finally:
            self._end(sid)

    def _begin(self, name: str, pair: str | None) -> int:
        sid = len(self.spans)
        self.spans.append(Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                               pair=pair))
        self._stack.append(sid)
        self.spans[sid].start = time.perf_counter()
        return sid

    def _end(self, sid: int, result: object = None) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        span.result = result
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "similarity":
            # word_similarity(measure, t, w1, w2, ...): one span per measure,
            # shared pair id across measures
            def wrapper(measure, t, w1, w2, *args, **kwargs):
                sid = tracer._begin(f"similarity.{measure}", f"{w1}|{w2}")
                result = None
                try:
                    result = fn(measure, t, w1, w2, *args, **kwargs)
                    return result
                finally:
                    tracer._end(sid, result)
        else:
            def wrapper(*args, **kwargs):
                sid = tracer._begin(name, None)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    tracer._end(sid, result)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        mods = [sys.modules[m] for m in _MODULES]
        for name, mod, attr in FUNCTIONS:
            original = getattr(sys.modules[mod], attr)
            wrapper = self._wrap(name, original)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, value))
                        setattr(m, key, wrapper)
        for name, mod, cls_name, attr in CLASSMETHODS:
            cls = getattr(sys.modules[mod], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, classmethod(self._wrap(name, original.__func__)))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------

    def child_seconds(self) -> list[float]:
        """Time each span's direct children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.seconds
        return covered

    def self_seconds(self, name: str) -> list[float]:
        covered = self.child_seconds()
        return [s.seconds - covered[i] for i, s in enumerate(self.spans) if s.name == name]

    def seconds(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "pair": s.pair}))
                fh.write("\n")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
