"""Spans and counters around the calls into evdeform's layers.

The benchmark opens spans around its own calls into each module. While a
traced pass runs, a few functions are also wrapped where the calling module
looks them up (for example ``bundle_adjust`` as seen from
``evdeform.calibration.pipeline``), so their time shows inside the span of
the public call. Spans are kept in memory and written out once at the end.
A span's self time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name): wrapped only during traced passes
WRAPPED = (
    ("evdeform.calibration.pipeline", "estimate_fundamental_ransac", "calibration.estimate_fundamental_ransac"),
    ("evdeform.calibration.pipeline", "projective_factorize", "calibration.projective_factorize"),
    ("evdeform.calibration.pipeline", "euclidean_upgrade", "calibration.euclidean_upgrade"),
    ("evdeform.calibration.pipeline", "bundle_adjust", "calibration.bundle_adjust"),
    ("evdeform.deformation", "triangulate", "deformation.triangulate"),
)
# (module, attribute, counter name): calls counted, no span (called per pixel set)
COUNTED = (
    ("evdeform.deformation", "undistort_pixels", "deformation.undistort_calls"),
)


class Tracer:
    """Records spans and counters while enabled; costs one check otherwise.

    Every span and count carries the scope it was recorded in: ``"setup"``
    or the index of a traced pass.
    """

    def __init__(self):
        self.enabled = False
        self.scope: str | int = "setup"
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index, scope]
        self.counts: list[tuple[str, float, str | int]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() - self.t0, None, parent, self.scope])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter() - self.t0

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts.append((name, float(value), self.scope))

    @contextmanager
    def tracing(self, scope: str | int):
        """Enable recording under scope and wrap the inner functions."""
        restore = []
        for module_name, attr, name in WRAPPED + COUNTED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # the layer no longer calls it from there
                continue
            counted = (module_name, attr, name) in COUNTED
            setattr(module, attr, self._wrap(original, name, counted))
            restore.append((module, attr, original))
        self.enabled, self.scope = True, scope
        try:
            yield
        finally:
            self.enabled, self.scope = False, "setup"
            for module, attr, original in restore:
                setattr(module, attr, original)

    def _wrap(self, fn, name: str, counted: bool):
        if counted:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                self.count(name)
                return fn(*args, **kwargs)
            return counting

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            steps = getattr(result, "accepted_steps", None)  # bundle adjustment
            if steps is not None:
                self.count("calibration.ba_steps", steps)
            return result
        return spanned

    # -- aggregation -------------------------------------------------------

    def _per_scope(self, items) -> dict:
        out: dict = {}
        for name, value, scope in items:
            out.setdefault(name, {}).setdefault(scope, 0.0)
            out[name][scope] += value
        return out

    def _per_pass(self, by_scope: dict, name: str) -> float:
        """Median over traced passes of the per-pass total; the setup total
        when the name occurs only in setup; 0 when it never occurs."""
        scopes = by_scope.get(name, {})
        passes = [v for s, v in scopes.items() if s != "setup"]
        if passes:
            return statistics.median(passes)
        return scopes.get("setup", 0.0)

    def span_seconds(self) -> dict:
        return self._per_scope((s[0], s[2] - s[1], s[4]) for s in self.spans)

    def count_totals(self) -> dict:
        return self._per_scope(self.counts)

    def seconds(self, name: str) -> float:
        return self._per_pass(self.span_seconds(), name)

    def counted(self, name: str) -> float:
        return self._per_pass(self.count_totals(), name)

    def rate(self, count_name: str, span_name: str) -> float:
        """Count per second of span time, both taken from the same scope."""
        spans, counts = self.span_seconds(), self.count_totals()
        scopes = [s for s in spans.get(span_name, {}) if s != "setup"] or ["setup"]
        rates = [
            counts.get(count_name, {}).get(s, 0.0) / spans[span_name][s]
            for s in scopes
            if spans.get(span_name, {}).get(s, 0.0) > 0
        ]
        return statistics.median(rates) if rates else 0.0

    def self_times(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name over all scopes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **header,
            "span_fields": ["name", "start_s", "end_s", "parent", "scope"],
            "spans": self.spans,
            "counts": self.count_totals(),
            "self_times": self.self_times(),
        }
        path.write_text(json.dumps(doc) + "\n")
