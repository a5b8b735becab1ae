"""Span recorder for the traced benchmark run.

`Tracer.install` wraps every public function defined in an lsgame module and
rebinds each name under which any lsgame module holds that function, so the
copies that `from .linalg import op_norm` style imports bind are traced too.
Nothing under src/ is edited; the patch lives only in the traced process.
`Correlation.to_json` and `Correlation.from_json` are wrapped as well, as the
one span `strategy.correlation_json`, whose byte count is the JSON text's
length.

A span is (name, start, end, parent, sys_s, alloc_peak_bytes, nbytes):
perf_counter bounds, the index of the enclosing span (-1 at top level), and
a byte count that benchmark-side spans set.  Spans stay in memory until the
run ends.

Kernel time (getrusage) and the tracemalloc peak are taken only for the
spans in DETAIL_SPANS, and read 0 elsewhere: tracemalloc slows Python-level
allocation two- to threefold, and most spans are helpers that run for a few
microseconds, so probing every span would distort the times it reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import time
import tracemalloc
from contextlib import contextmanager

MODULES = (
    "numtheory",
    "groups",
    "lsg",
    "linalg",
    "representation",
    "strategy",
    "evaluation",
    "isometry",
    "robustness",
    "cli",
)

KINDS = ("s", "self_s", "calls", "sys_s", "alloc_peak_mb", "bytes")

DETAIL_SPANS = frozenset({"isometry.selftest_report"})


def _sys_time() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = False
        # open frames: [span index, sys0, detail, name, start]
        self._stack: list[list] = []

    def install(self) -> None:
        root = importlib.import_module("lsgame")
        mods = [importlib.import_module(f"lsgame.{m}") for m in MODULES]
        holders = [root] + mods
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, traced)
        self._wrap_correlation_json(root.Correlation)

    def _wrap_correlation_json(self, cls) -> None:
        to_json, from_json = cls.to_json, cls.from_json.__func__

        def traced_to_json(corr):
            if not self.enabled:
                return to_json(corr)
            self._enter("strategy.correlation_json")
            text = ""
            try:
                text = to_json(corr)
                return text
            finally:
                self._exit(len(text))

        def traced_from_json(klass, text):
            if not self.enabled:
                return from_json(klass, text)
            self._enter("strategy.correlation_json")
            try:
                return from_json(klass, text)
            finally:
                self._exit(len(text))

        cls.to_json = traced_to_json
        cls.from_json = classmethod(traced_from_json)

    def start(self) -> None:
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    @contextmanager
    def paused(self):
        """Run benchmark-side checks without recording their program calls."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    @contextmanager
    def span(self, name: str):
        """Benchmark-side span; the yielded dict takes a "bytes" count."""
        if not self.enabled:
            yield {}
            return
        extra = {"bytes": 0}
        self._enter(name)
        try:
            yield extra
        finally:
            self._exit(extra["bytes"])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(0)

        return traced

    def _enter(self, name: str) -> None:
        detail = name in DETAIL_SPANS and not tracemalloc.is_tracing()
        sys0 = 0.0
        if detail:
            tracemalloc.start()
            sys0 = _sys_time()
        self._stack.append([len(self.spans), sys0, detail, name, 0.0])
        self.spans.append(None)
        self._stack[-1][4] = time.perf_counter()

    def _exit(self, nbytes: int) -> None:
        end = time.perf_counter()
        index, sys0, detail, name, start = self._stack.pop()
        sys_s = alloc = 0
        if detail:
            sys_s = _sys_time() - sys0
            alloc = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[index] = (name, start, end, parent, sys_s, alloc, nbytes)


def span_stats(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Totals per span name; self_s subtracts the direct children's time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, sys_s, alloc, nbytes) in enumerate(spans):
        st = out.setdefault(name, dict.fromkeys(KINDS, 0.0))
        st["s"] += end - start
        st["self_s"] += end - start - child_time[i]
        st["calls"] += 1
        st["sys_s"] += sys_s
        st["alloc_peak_mb"] = max(st["alloc_peak_mb"], alloc / 1e6)
        st["bytes"] += nbytes
    return out


def merge_stats(into: dict, other: dict) -> None:
    """Add `other` into `into`: sums, except the allocation peak, a maximum."""
    for name, st in other.items():
        dst = into.setdefault(name, dict.fromkeys(KINDS, 0.0))
        for kind in KINDS:
            if kind == "alloc_peak_mb":
                dst[kind] = max(dst[kind], st[kind])
            else:
                dst[kind] += st[kind]
