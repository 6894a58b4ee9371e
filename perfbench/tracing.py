"""Span tracing around sddpkit's layer functions, from outside the package.

``Tracer`` replaces each layer function under the module attribute its
caller resolves (``sddpkit.driver.solve`` rather than ``sddpkit.lp.solve``,
because the driver imported the name), records one span per call in
memory, and puts the originals back on exit.  Stage LPs are tagged with a
kind when they are assembled, from the driver function that asked for
them, and the solve of that same LP object inherits the tag.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import sddpkit.driver
import sddpkit.robust
from sddpkit.approximations import EnvelopeUpperTerms

# (module, attribute, layer name)
TARGETS = (
    (sddpkit.driver, "solve", "lp.solve"),
    (sddpkit.driver, "assemble_stage_lp", "stages.assemble_stage_lp"),
    (sddpkit.driver, "inner_max_primal", "robust.inner_max_primal"),
    (sddpkit.driver, "nw_weights", "kernel.nw_weights"),
    (sddpkit.driver, "aggregate_backward", "approximations.aggregate_backward"),
    (sddpkit.robust, "solve", "lp.solve"),
)
LP_KINDS = ("bwd_lower", "bwd_upper", "fwd", "root_lower", "root_upper", "eval", "inner_max")

# Driver function that assembled a stage LP -> LP kind.  The backward pass
# assembles both bound LPs; the envelope block tells them apart.
_CALLER_KINDS = {
    "root_solve_lower": "root_lower",
    "root_solve_upper": "root_upper",
    "forward_pass": "fwd",
    "backward_pass": "bwd_lower",
    "evaluate_policy_out_of_sample": "eval",
}


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at top level
    start: float = 0.0
    end: float = 0.0
    kind: str = ""
    rows: int = 0
    cols: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that installs the layer wrappers and collects spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._last_lp = None
        self._last_kind = ""

    def __enter__(self) -> "Tracer":
        for module, attr, layer in TARGETS:
            original = getattr(module, attr, None)
            if original is None:
                # A layer the package no longer exposes under this name reads
                # as zero calls rather than failing the traced run.
                print(f"trace: {module.__name__}.{attr} not found", file=sys.stderr)
                continue
            self._saved.append((module, attr, original))
            if attr == "assemble_stage_lp":
                wrapper = self._wrap_assembly(layer, original)
            elif module is sddpkit.robust:
                wrapper = self._wrap(layer, original, lambda span, lp: "inner_max")
            elif attr == "solve":
                wrapper = self._wrap(layer, original, self._tag_stage_lp)
            else:
                wrapper = self._wrap(layer, original)
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._last_lp = None

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as ``train`` or ``eval``."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _tag_stage_lp(self, span: Span, lp) -> str:
        """Record the LP's shape; its kind is the one noted when it was assembled."""
        span.rows, span.cols = lp.n_rows, lp.n_vars
        return self._last_kind if lp is self._last_lp else "other"

    def _wrap(self, layer, fn, tag=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer)
            if tag is not None:
                span.kind = tag(span, args[0] if args else kwargs["lp"])
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def _wrap_assembly(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = _CALLER_KINDS.get(sys._getframe(1).f_code.co_name, "other")
            extra = kwargs.get("extra_terms", args[2] if len(args) > 2 else None)
            if kind == "bwd_lower" and isinstance(extra, EnvelopeUpperTerms):
                kind = "bwd_upper"
            span = self._open(layer)
            span.kind = kind
            try:
                lp = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._last_lp, self._last_kind = lp, kind
            return lp

        return wrapper


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.seconds
    return [s.seconds - c for s, c in zip(spans, child_time)]


def _inside_training(spans: list[Span]) -> list[bool]:
    """Whether each span is a benchmark ``train`` span or runs inside one."""
    inside = [False] * len(spans)
    for i, span in enumerate(spans):
        inside[i] = span.name == "train" or (span.parent >= 0 and inside[span.parent])
    return inside


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times over all spans; ``driver.other_s`` over training."""
    layers = {layer for _, _, layer in TARGETS}
    own = self_seconds(spans)
    out: dict[str, tuple[float, str]] = {}

    def totals(name, kind=None):
        picked = [s for s in spans if s.name == name and (kind is None or s.kind == kind)]
        return len(picked), sum(s.seconds for s in picked)

    for name in sorted(layers):
        calls, secs = totals(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.s"] = (secs, "s")
    for kind in LP_KINDS:
        calls, secs = totals("lp.solve", kind)
        out[f"lp.solve.{kind}.calls"] = (calls, "count")
        out[f"lp.solve.{kind}.s"] = (secs, "s")
        out[f"lp.solve.{kind}.ms_per_call"] = (1e3 * secs / calls if calls else 0.0, "ms")
    stage_lps = [s for s in spans if s.name == "lp.solve" and s.kind != "inner_max"]
    out["lp.rows_max"] = (max((s.rows for s in stage_lps), default=0), "count")
    out["lp.cols_max"] = (max((s.cols for s in stage_lps), default=0), "count")
    out["robust.inner_max_primal.self_s"] = (
        sum(t for s, t in zip(spans, own) if s.name == "robust.inner_max_primal"),
        "s",
    )
    inside = _inside_training(spans)
    train_s = sum(s.seconds for s in spans if s.name == "train")
    layer_self = sum(t for s, t, ins in zip(spans, own, inside) if ins and s.name in layers)
    out["driver.other_s"] = (train_s - layer_self, "s")
    return out


def spans_table(spans: list[Span]) -> dict[str, list]:
    """Column-wise dump (name, start, end, parent, kind), times from the first span."""
    t0 = spans[0].start if spans else 0.0
    return {
        "name": [s.name for s in spans],
        "start": [s.start - t0 for s in spans],
        "end": [s.end - t0 for s in spans],
        "parent": [s.parent for s in spans],
        "kind": [s.kind for s in spans],
    }
