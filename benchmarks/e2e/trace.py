"""Benchmark-owned spans around the public methods of the live layers.

Nothing in ``src/`` changes and the program's own ``Telemetry`` stays off:
:class:`Tracer` replaces a *public* method of a live object (the bus, a
scheduler, a local tier ...) with a recording wrapper set as an **instance
attribute**, which both outside callers and the object's own ``self.x()``
calls resolve first. A span is ``(id, name, start, end, self, parent,
cause, call_id, thread)``:

* ``parent`` is the enclosing span on the same thread (``-1`` for a root);
  **self time** is the span's duration minus the time of the spans whose
  ``parent`` it is.
* ``cause`` links a root span to another thread's span of the same call
  (``execute`` on a pool thread is caused by the ``submit`` / ``dispatch``
  that created the call id); it never enters self-time arithmetic.

Spans stay in memory and are written by :meth:`Tracer.write` when the run
ends. A wrap point that no longer resolves is listed in
``missing_points`` and its metrics read 0; it never fails the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import types
from collections import defaultdict

#: span name -> layer (the module the time is charged to).
LAYER_OF = {
    "ingest.submit": "runtime.ingest",
    "ingest.next_batch": "runtime.ingest",
    "cluster.dispatch": "runtime.cluster",
    "cluster.dispatch_batch": "runtime.cluster",
    "scheduler.schedule": "runtime.scheduler",
    "scheduler.schedule_batch": "runtime.scheduler",
    "bus.send": "runtime.bus",
    "bus.send_many": "runtime.bus",
    "bus.receive": "runtime.bus",
    "calls.registry": "runtime.calls",
    "calls.wait": "runtime.calls",
    "instance.execute": "runtime.instance",
    "pagestore.get_proto": "faaslet.pagestore",
    "snapshot.restore": "faaslet.snapshot",
    "snapshot.capture": "faaslet.snapshot",
    "faaslet.call": "wasm",
    "registry.upload": "minilang",
    "state.push": "state.local",
    "state.pull": "state.local",
    "state.local_read": "state.local",
    "state.local_write": "state.local",
    "kv.op": "state.kv",
    "guest.python": "guest",
}

#: Spans that wait for work rather than do it: excluded from layer shares.
#: Most spans :meth:`Tracer.write` puts in a file (metrics use them all).
MAX_WRITTEN = 200_000

WAITING = frozenset({"bus.receive", "ingest.next_batch", "calls.wait"})

_REGISTRY_METHODS = (
    "create", "create_many", "create_or_get", "new_attempt", "new_attempts",
    "begin_attempt", "complete_attempt", "complete",
)
_KV_METHODS = (
    "get_ranges_into", "get_ranges_into_versioned", "set_ranges",
    "set_ranges_versioned", "get_value", "get_value_versioned", "set_value",
)


def _first_arg(args, kwargs):
    return args[0] if args else None


def _record_id(args, kwargs):
    return args[0].call_id if args else None


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self.spans: list[tuple] = []
        #: call id -> first span that carried it (the cross-thread cause).
        self._origin: dict[int, int] = {}
        self.points: list[str] = []
        self.missing_points: list[str] = []
        # Waits measured between two wrap points (seconds, with the time
        # the wait ended so a window can select them).
        self.queue_wait: list[tuple[float, float]] = []
        self.hop_wait: list[tuple[float, float]] = []
        self.pool_wait: list[tuple[float, float]] = []
        #: (end, seconds, instructions) per ``Faaslet.call``.
        self.guest_calls: list[tuple[float, float, int]] = []
        self._sent_at: dict[int, float] = {}
        self._received_at: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self, obj, attr, name, call_id=None, enter=None, leave=None, point=None
    ) -> bool:
        """Record a span named ``name`` around ``obj.attr``.

        ``call_id(args, kwargs)`` names the call the span belongs to when
        that is known on entry; ``enter(args)`` returns a token handed to
        ``leave(token, args, result, start, end)``, whose return value (if
        not None) is the call id learnt from the result.
        """
        point = point or f"{type(obj).__name__}.{attr}"
        original = getattr(obj, attr, None)
        if original is None or not callable(original):
            self.missing_points.append(point)
            return False
        if point not in self.points:
            self.points.append(point)
        tracer, local, ids, clock = self, self._local, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            cid = call_id(args, kwargs) if call_id is not None else None
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            token = enter(args) if enter is not None else None
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stack.pop()
                raise
            end = clock()
            stack.pop()
            if leave is not None:
                learnt = leave(token, args, result, start, end)
                if learnt is not None:
                    cid = learnt
            duration = end - start
            if stack:
                stack[-1][1] += duration
            cause = -1
            if cid is not None:
                first = tracer._origin.setdefault(cid, sid)
                if first != sid and parent == -1:
                    cause = first
            tracer.spans.append(
                (sid, name, start, end, duration - frame[1], parent, cause,
                 cid, threading.get_ident())
            )
            return result

        setattr(obj, attr, traced)
        return True

    def attach(self, cluster) -> None:
        """Wrap every layer object a freshly built cluster owns. Call
        before anything is deployed, so that uploads are traced and every
        Faaslet is born through a traced restore."""
        self.wrap(cluster, "dispatch", "cluster.dispatch", leave=self._returned_id)
        self.wrap(cluster, "dispatch_batch", "cluster.dispatch_batch")
        self.wrap(cluster.registry, "upload", "registry.upload")
        self._trace_python_guests(cluster.registry)
        self.wrap(cluster.registry, "generate_proto", "snapshot.capture")
        for method in _REGISTRY_METHODS:
            by_id = method in ("new_attempt", "begin_attempt",
                               "complete_attempt", "complete")
            self.wrap(cluster.calls, method, "calls.registry",
                      call_id=_first_arg if by_id else None)
        self.wrap(cluster.calls, "wait", "calls.wait", call_id=_first_arg)
        self.wrap(cluster.bus, "send", "bus.send", enter=self._sending_one)
        self.wrap(cluster.bus, "send_many", "bus.send_many", enter=self._sending_many)
        self.wrap(cluster.bus, "receive", "bus.receive", leave=self._received)
        for method in _KV_METHODS:
            self.wrap(cluster.global_state, method, "kv.op")
        for instance in cluster.instances:
            self.wrap(instance.scheduler, "schedule", "scheduler.schedule")
            self.wrap(instance.scheduler, "schedule_batch", "scheduler.schedule_batch")
            self.wrap(instance, "execute", "instance.execute",
                      call_id=_record_id, enter=self._executing)
            self.wrap(instance.snapshots, "get_proto", "pagestore.get_proto",
                      leave=self._got_proto)
            tier = instance.local_tier
            for method in ("push", "push_chunk"):
                self.wrap(tier, method, "state.push")
            for method in ("pull", "pull_chunk"):
                self.wrap(tier, method, "state.pull")
            self.wrap(tier, "write_local", "state.local_write")
            for method in ("get_state", "get_state_offset"):
                self.wrap(instance.state_api, method, "state.local_read")

    def attach_ingestion(self, plane) -> None:
        """The ingestion plane exists only once a workload configured it."""
        self.wrap(plane, "submit", "ingest.submit", leave=self._admitted)
        self.wrap(plane.admission, "next_batch", "ingest.next_batch",
                  leave=self._served)

    def _trace_python_guests(self, registry) -> None:
        """Run every host-native guest registered from now on under a
        ``guest.python`` span, so the benchmark's own guest code is told
        apart from the state and chaining calls it makes."""
        register = registry.register_python

        def register_traced(name, fn, **kwargs):
            holder = types.SimpleNamespace(fn=fn)
            self.wrap(holder, "fn", "guest.python", point="python guest")
            return register(name, holder.fn, **kwargs)

        registry.register_python = register_traced

    # ------------------------------------------------------------------
    # Hooks: waits between wrap points, and objects born inside one
    # ------------------------------------------------------------------
    @staticmethod
    def _returned_id(token, args, result, start, end):
        return result

    @staticmethod
    def _admitted(token, args, result, start, end):
        return result[0]

    def _served(self, token, args, result, start, end):
        now = time.monotonic()  # the clock ``enqueued_at`` was read from
        self.queue_wait.extend((end, now - item.enqueued_at) for item in result[1])

    def _sending_one(self, args):
        self._sent_at[id(args[1])] = time.perf_counter()

    def _sending_many(self, args):
        now = time.perf_counter()
        for message in args[1]:
            self._sent_at[id(message)] = now

    def _received(self, token, args, result, start, end):
        sent = self._sent_at.pop(id(result), None)
        if sent is None:
            return
        self.hop_wait.append((end, end - sent))
        items = getattr(result, "items", None)  # ExecuteBatch
        if items is not None:
            for call_id, _attempt in items:
                self._received_at[call_id] = end
        elif hasattr(result, "call_id"):  # ExecuteCall
            self._received_at[result.call_id] = end

    def _executing(self, args):
        received = self._received_at.pop(args[0].call_id, None)
        if received is not None:
            now = time.perf_counter()
            self.pool_wait.append((now, now - received))

    def _got_proto(self, token, args, result, start, end):
        if result is not None and "restore" not in vars(result):
            self.wrap(result, "restore", "snapshot.restore", leave=self._restored)

    def _restored(self, token, args, result, start, end):
        faaslet = result

        def executed():
            return faaslet.instance.instructions_executed

        def called(before, args, result, start, end):
            self.guest_calls.append((end, end - start, executed() - before))

        self.wrap(faaslet, "call", "faaslet.call",
                  enter=lambda args: executed(), leave=called)

    # ------------------------------------------------------------------
    # Reading the trace
    # ------------------------------------------------------------------
    def self_time(self, start: float, end: float) -> tuple[dict, dict]:
        """``(seconds, count)`` per span name over spans begun in
        ``[start, end)``."""
        seconds: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for span in list(self.spans):
            if start <= span[2] < end:
                seconds[span[1]] += span[4]
                count[span[1]] += 1
        return seconds, count

    @staticmethod
    def layer_shares(seconds: dict) -> dict[str, float]:
        """Each layer's share of all recorded working self time."""
        by_layer: dict[str, float] = defaultdict(float)
        for name, value in seconds.items():
            if name not in WAITING:
                by_layer[LAYER_OF.get(name, name)] += value
        total = sum(by_layer.values())
        return {
            layer: value / total if total else 0.0
            for layer, value in sorted(by_layer.items())
        }

    def write(self, path: str, window: tuple[float, float], **header) -> None:
        """One JSON document: a header, the span-name table and the spans as
        ``[id, name#, start, end, self, parent, cause, call_id, thread]``.
        Times are seconds from the first span; ``window`` is the measured
        window on the same axis (earlier spans belong to set-up). A long
        window is cut after ``MAX_WRITTEN`` spans; ``spans_total`` says how
        many there were."""
        spans = sorted(self.spans)[:MAX_WRITTEN]
        names = sorted({span[1] for span in spans})
        index = {name: i for i, name in enumerate(names)}
        threads = {ident: i for i, ident in
                   enumerate(dict.fromkeys(span[8] for span in spans))}
        origin = spans[0][2] if spans else 0.0
        doc = {
            **header,
            "window_s": [round(t - origin, 7) for t in window],
            "spans_total": len(self.spans),
            "points": self.points,
            "missing_points": self.missing_points,
            "layer_of": LAYER_OF,
            "columns": ["id", "name", "start_s", "end_s", "self_s", "parent",
                        "cause", "call_id", "thread"],
            "names": names,
            "spans": [
                [s[0], index[s[1]], round(s[2] - origin, 7),
                 round(s[3] - origin, 7), round(s[4], 7), s[5], s[6], s[7],
                 threads[s[8]]]
                for s in spans
            ],
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
