"""Span recording for the traced run, from outside the program.

:class:`Tracer` swaps wrappers in for public functions and methods of the
``repro`` layers and swaps the originals back on :meth:`Tracer.uninstall`;
nothing in ``repro`` is edited.  Each call of a wrapped function records a
:class:`Span` (name, start, end, parent span, thread, run id) in memory; the
recorder writes them out once, when the run ends.  Only the traced run
installs the wrappers, and code running in other processes never sees them.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

from perfbench.stats import self_time


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    phase: str
    thread: int
    attrs: dict | None


class SpanRecorder:
    """Collects spans in memory; the parent of a span is the innermost open
    span on the same thread.  ``phase`` tags every span recorded while it is
    set, so set-up calls can be told apart from the timed windows."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs_of=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        phase = self.phase
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = attrs_of(start, args, kwargs, result) if attrs_of is not None else None
        self.spans.append(
            Span(span_id, parent, name, start, end, phase, threading.get_ident(), attrs)
        )
        return result

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span whose interval was measured elsewhere (a training step)."""
        self.spans.append(
            Span(next(self._ids), None, name, start, end, self.phase, threading.get_ident(), None)
        )

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                record = span._asdict()
                record["run"] = self.run_id
                handle.write(json.dumps(record) + "\n")


def _rows(start, args, kwargs, result):
    return {"rows": int(len(result)), "bytes": int(getattr(result, "nbytes", 0))}


def _infer_rows(start, args, kwargs, result):
    return {"rows": int(len(args[1]))}


def _queue_waits(start, args, kwargs, result):
    batch = args[0]
    requests = args[1] if len(args) > 1 else kwargs.get("requests")
    if requests is None:
        requests = batch.requests
    return {"waits": [start - request.submitted_at for request in requests]}


def _targets():
    """``(span name, owner, attribute, attrs_of)``; owner None = a module-level
    function, swapped in every ``repro`` / ``perfbench`` module that holds it."""
    from repro.api import registry
    from repro.augmentations import AugmentationBank
    from repro.core import AimTS, losses, prototypes
    from repro.data.corpus import ShardedCorpus, synthetic
    from repro.encoders import ImageEncoder, TSEncoder
    from repro.imaging import LineChartRenderer, RenderCache
    from repro.nn import Adam, Tensor, inference
    from repro.serving import MicroBatch, ModelServer

    return [
        ("data.build", None, synthetic.build_synthetic_corpus, None),
        ("data.gather", ShardedCorpus, "gather", _rows),
        ("imaging.render", LineChartRenderer, "render_batch", _rows),
        ("imaging.cache_get", RenderCache, "get_batch", None),
        ("augmentations.two_views", AugmentationBank, "two_views", None),
        ("encoders.ts_forward", TSEncoder, "forward", None),
        ("encoders.image_forward", ImageEncoder, "forward", None),
        ("core.loss", None, losses.prototype_loss, None),
        ("core.loss", None, losses.series_image_loss, None),
        ("core.loss", None, prototypes.pairwise_view_distances, None),
        ("nn.backward", Tensor, "backward", None),
        ("nn.optim", Adam, "step", None),
        ("api.save", AimTS, "save", None),
        ("api.load", None, registry.load_estimator, None),
        ("nn.inference.call", None, inference.batched_infer, _infer_rows),
        ("serving.submit", ModelServer, "submit", None),
        ("serving.materialize", MicroBatch, "materialize", _queue_waits),
    ]


def _wrapper(recorder: SpanRecorder, name: str, fn, attrs_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, attrs_of)

    return traced


class Tracer:
    """Installs and removes the span wrappers (idempotent both ways)."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._undo:
            return
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] in ("repro", "perfbench")
        ]
        for name, owner, target, attrs_of in _targets():
            if owner is not None:
                original = owner.__dict__[target]
                self._swap(owner, target, original, _wrapper(self.recorder, name, original, attrs_of))
                continue
            wrapped = _wrapper(self.recorder, name, target, attrs_of)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        self._swap(module, attr, target, wrapped)

    def _swap(self, holder, attr: str, original, replacement) -> None:
        setattr(holder, attr, replacement)
        self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


# --------------------------------------------------------------------------- #
# per-layer figures from the recorded spans
# --------------------------------------------------------------------------- #
def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span.  A recorded training step (``engine.step``)
    has no wrapped parent-child links, so its children are the top-level
    spans of its thread that fall inside its interval."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    top_level: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
        elif span.name != "engine.step":
            top_level[span.thread].append(span)
    result = {}
    for span in spans:
        if span.name == "engine.step":
            inner = [
                (s.start, s.end)
                for s in top_level[span.thread]
                if s.start >= span.start and s.end <= span.end
            ]
            result[span.id] = self_time(span.start, span.end, inner)
        else:
            result[span.id] = self_time(span.start, span.end, children.get(span.id, ()))
    return result


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total duration, total self time, summed numeric
    attrs and concatenated list attrs."""
    own = self_times(spans)
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": defaultdict(float)})
    for span in spans:
        entry = table[span.name]
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += own[span.id]
        for key, value in (span.attrs or {}).items():
            if isinstance(value, list):
                entry.setdefault("lists", defaultdict(list))[key].extend(value)
            else:
                entry["attrs"][key] += value
    return table

