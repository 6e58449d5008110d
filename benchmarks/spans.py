"""Spans recorded from outside the program, around the calls into each layer.

A :class:`Recorder` keeps spans in memory behind a lock, so threaded callers
stay correct; the run writes them out when it ends.  Each span holds its
name, start, end, parent span and record id; a span opened while another is
open on the same thread is that span's child and inherits its record id.

:func:`instrument` swaps traced wrappers in for the public functions that
the pipeline looks up by module global, and :class:`Traced` wraps a backend
object handed to the pipeline.  Both are undone when the traced pass ends;
untraced passes run the program untouched.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    record: str | None
    thread: int
    key: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)


class Recorder:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, record: str | None = None, key: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if record is None and parent is not None:
            record = parent[1]
        with self._lock:
            sid = next(self._ids)
        stack.append((sid, record))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, parent[0] if parent else None, name, start, end,
                        record, threading.get_ident(), key)
            with self._lock:
                self.spans.append(span)


class NullRecorder:
    """Stands in for a :class:`Recorder` in untraced passes."""

    def span(self, name: str, record: str | None = None, key: str | None = None):
        return contextlib.nullcontext()


def traced_function(recorder: Recorder, name: str, fn, record_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = record_of(args, kwargs) if record_of else None
        with recorder.span(name, record):
            return fn(*args, **kwargs)
    return wrapper


class Traced:
    """A backend object whose ``method`` runs inside a span named ``name``.

    Every other attribute (``backend_id``, ``request_of``, ``counter``, ...)
    is the wrapped object's own.  ``key_of`` maps the call's argument to a
    key stored on the span, such as the prompt of a ranking request.
    """

    def __init__(self, inner, method: str, recorder: Recorder, name: str,
                 key_of=None):
        self._inner = inner
        call = getattr(inner, method)

        def wrapper(arg):
            with recorder.span(name, key=key_of(arg) if key_of else None):
                return call(arg)
        setattr(self, method, wrapper)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def trace_cache(cache, recorder: Recorder):
    """Time ``get`` and ``put`` of one response cache instance."""
    for method in ("get", "put"):
        setattr(cache, method, traced_function(recorder, f"backends.cache_{method}",
                                               getattr(cache, method)))
    return cache


def _record_id_of_first_arg(args, kwargs):
    return args[0].record_id


def _record_id_of_rerank(args, kwargs):
    return kwargs.get("record_id")


# (module, global name, span name, record id of the call).  The pipeline
# and the re-ranker look these names up in their own module globals.
PATCHES = (
    ("tagrec.pipeline", "generate", "pipeline.generate", _record_id_of_first_arg),
    ("tagrec.pipeline", "retrieve", "retrieval.retrieve", _record_id_of_first_arg),
    ("tagrec.pipeline", "rerank_record", "rerank.rerank_record", _record_id_of_rerank),
    ("tagrec.pipeline", "evaluate_predictions", "evaluation.evaluate", None),
    ("tagrec.retrieval", "top_k", "retrieval.top_k", None),
    ("tagrec.rerank", "build_rerank_prompt", "prompting.build", None),
    ("tagrec.rerank", "parse_ranking_reply", "prompting.parse", None),
)


@contextlib.contextmanager
def instrument(recorder: Recorder):
    saved = []
    try:
        for module_name, attr, name, record_of in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, traced_function(recorder, name, original, record_of))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --------------------------------------------------------------------------
# Span arithmetic


def self_seconds(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part of it its children cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.seconds - covered


def record_seconds(spans: list[Span]) -> list[float]:
    """One record's generate + retrieve + re-rank, per processed record.

    A record starts with its ``pipeline.generate`` span and ends with the
    ``rerank.rerank_record`` span of the same record on the same thread.
    """
    pending: dict[tuple[int, str | None], float] = {}
    out = []
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "pipeline.generate":
            pending[(span.thread, span.record)] = span.start
        elif span.name == "rerank.rerank_record":
            start = pending.pop((span.thread, span.record), None)
            if start is not None:
                out.append(span.end - start)
    return out
