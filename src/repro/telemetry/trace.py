"""Lifecycle span tracing with cross-host context propagation.

The tracer records **spans** — named, timed intervals with attributes —
arranged into per-invocation trace trees: the schedule decision, the
bus hop, proto-Faaslet restore vs. cold boot, module compile, guest
execution, every state push/pull, and chained calls all become spans of
one trace, even when the chain crosses hosts (the trace context rides on
the :class:`~repro.runtime.bus.ExecuteBatch` that carries the call).

Design constraints, in order:

1. **Tracing off must cost nothing.** Instrumented code calls the free
   function :func:`span`, whose disabled path is one ``ContextVar.get``
   plus a ``None`` check returning a singleton no-op handle — no
   allocation, no clock read, no lock.
2. **Sampling is decided once per trace**, at the root: children and
   remote continuations inherit the decision through the propagated
   context, so a trace is always complete or absent, never partial.
3. **Propagation is explicit.** Threads do not inherit context (each
   ``threading.Thread`` starts with an empty ``contextvars`` context);
   executors re-activate the context carried by the bus message via
   :meth:`Tracer.activate`, exactly as a real cross-host hop would
   deserialise wire headers.

All timestamps come from ``time.perf_counter()`` — one monotonic clock
shared by every simulated host in the process, which is what lets a
multi-host trace export as a single coherent Chrome timeline.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


def _new_id() -> str:
    return os.urandom(8).hex()


class TraceContext(NamedTuple):
    """The propagated part of a trace: where new spans attach."""

    trace_id: str
    #: Span id new children adopt as their parent (None at a trace root).
    span_id: str | None
    #: Root sampling decision; unsampled contexts still propagate so the
    #: whole tree is uniformly dropped.
    sampled: bool = True


#: Wire format carried on bus messages: (trace_id, parent span id,
#: sampled, sender's perf_counter timestamp for queue-wait attribution).
Wire = tuple


def context_from_wire(wire: Wire) -> TraceContext:
    """Rebuild the propagated context from a bus-message wire tuple."""
    return TraceContext(wire[0], wire[1], bool(wire[2]))


@dataclass
class Span:
    """One finished, timed interval of a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    host: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    thread: int = field(default_factory=threading.get_ident)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "host": self.host,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "thread": self.thread,
            "attrs": self.attrs,
        }


#: (tracer, context, host) of the innermost active span on this thread.
_ACTIVE: ContextVar[tuple | None] = ContextVar("repro_trace_active", default=None)


def current_context() -> TraceContext | None:
    """The active trace context on this thread, if any."""
    state = _ACTIVE.get()
    return state[1] if state is not None else None


class _NoopSpan:
    """Singleton returned whenever a span would not be recorded."""

    __slots__ = ()
    recording = False

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set_attr(self, key, value) -> "_NoopSpan":
        return self

    def wire(self) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class SpanHandle:
    """Context manager around one recording span: entering activates the
    span as the ambient parent on this thread, exiting stamps the end
    time and hands the span to the tracer."""

    __slots__ = ("_tracer", "span", "_token")
    recording = True

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span
        self._token = None

    def __enter__(self) -> "SpanHandle":
        self._token = _ACTIVE.set(
            (
                self._tracer,
                TraceContext(self.span.trace_id, self.span.span_id, True),
                self.span.host,
            )
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end = time.perf_counter()
        if exc_type is not None:
            self.span.attrs["error"] = f"{exc_type.__name__}: {exc}"
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        self._tracer._finish(self.span)
        return False

    def set_attr(self, key, value) -> "SpanHandle":
        self.span.attrs[key] = value
        return self

    def wire(self) -> Wire:
        """Context to carry on an outgoing message (children of this span)."""
        return (self.span.trace_id, self.span.span_id, True, time.perf_counter())


class _UnsampledSpan:
    """Root handle for an unsampled trace: records nothing but keeps an
    unsampled context active so descendants (local and remote) uniformly
    skip recording instead of starting fresh traces."""

    __slots__ = ("_tracer", "_ctx", "_host", "_token")
    recording = False

    def __init__(self, tracer: "Tracer", ctx: TraceContext, host: str | None):
        self._tracer = tracer
        self._ctx = ctx
        self._host = host
        self._token = None

    def __enter__(self) -> "_UnsampledSpan":
        self._token = _ACTIVE.set((self._tracer, self._ctx, self._host))
        return self

    def __exit__(self, *exc) -> bool:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        return False

    def set_attr(self, key, value) -> "_UnsampledSpan":
        return self

    def wire(self) -> Wire:
        return (self._ctx.trace_id, self._ctx.span_id, False, time.perf_counter())


class Tracer:
    """Collects spans for one deployment (a cluster, or the CLI process).

    ``enabled=False`` (the default) short-circuits every entry point to
    the no-op singleton. ``sample_rate`` is the per-trace head-sampling
    probability, decided at the root and inherited everywhere else.
    ``max_spans`` bounds memory; spans beyond it are counted in
    :attr:`dropped` instead of stored.
    """

    def __init__(
        self,
        enabled: bool = False,
        sample_rate: float = 1.0,
        max_spans: int = 100_000,
        on_finish: Callable[[Span], None] | None = None,
        seed: int | None = None,
    ):
        self.enabled = enabled
        self.sample_rate = sample_rate
        self.max_spans = max_spans
        self.dropped = 0
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._random = random.Random(seed)
        self._on_finish = on_finish

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def trace(self, name: str, host: str | None = None, **attrs):
        """Start a span: a child of the ambient context when one is
        active on this thread, else the root of a new trace (where the
        sampling decision is rolled)."""
        if not self.enabled:
            return NOOP_SPAN
        state = _ACTIVE.get()
        if state is not None:
            tracer, ctx, active_host = state
            return tracer._span(name, ctx, host or active_host, attrs)
        ctx = TraceContext(_new_id(), None, self._random.random() < self.sample_rate)
        if not ctx.sampled:
            return _UnsampledSpan(self, ctx, host)
        return self._span(name, ctx, host, attrs)

    def _span(self, name: str, ctx: TraceContext, host, attrs: dict):
        if not ctx.sampled:
            return NOOP_SPAN
        return SpanHandle(
            self,
            Span(
                name=name,
                trace_id=ctx.trace_id,
                span_id=_new_id(),
                parent_id=ctx.span_id,
                host=host,
                start=time.perf_counter(),
                attrs=dict(attrs),
            ),
        )

    @contextmanager
    def activate(self, ctx: TraceContext | None, host: str | None = None):
        """Install a (possibly remote) context as this thread's ambient
        parent — the receive-side half of cross-host propagation."""
        if ctx is None or not self.enabled:
            yield
            return
        token = _ACTIVE.set((self, ctx, host))
        try:
            yield
        finally:
            _ACTIVE.reset(token)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _finish(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) < self.max_spans:
                self._spans.append(span)
            else:
                self.dropped += 1
        if self._on_finish is not None:
            self._on_finish(span)

    def finished_spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


def span(name: str, **attrs):
    """Open a child span of this thread's active trace, or a no-op.

    This is the function instrumentation sites call: when no trace is
    active (tracing off, unsampled trace, or code running outside any
    invocation) it returns the shared no-op handle without touching the
    clock or allocating.
    """
    state = _ACTIVE.get()
    if state is None:
        return NOOP_SPAN
    tracer, ctx, host = state
    if not ctx.sampled:
        return NOOP_SPAN
    return tracer._span(name, ctx, host, attrs)
