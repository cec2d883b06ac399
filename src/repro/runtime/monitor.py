"""The cluster's one timer, and the invocation monitor's recovery scan.

The paper's design (Fig. 5) assumes hosts and the message bus fail
independently of the callers that submitted work. One :class:`Timer`
thread sleeps until the earliest entry of a ``(when, seq, callback)`` heap
is due — with no timeout while the heap is empty — and runs the recovery
scan, an attached autoscaler's tick and a chaos bus's delayed deliveries
(DESIGN.md §6). The scan walks the registry's open calls and, through the
registry's transitions on each call's current attempt, parks it at once
when its host died (the liveness epoch moved on), parks it with a backoff
when it stays undelivered past the per-attempt timeout, re-dispatches a
parked call once its ``retry_at`` has passed (capped exponential backoff
with jitter, up to :attr:`RetryPolicy.max_attempts`) and declares the
terminal ``CALL_FAILED`` once the budget is spent. It then re-arms itself
at the next deadline it saw, one ``attempt_timeout`` on at the latest, so
a call placed after it needs no entry of its own; a host death, a dead host
dropping a message and an executor parking its attempt ask for a scan. An
entry that raises is counted in ``errors.swallowed{site="monitor.timer"}``;
the thread carries on. Re-dispatch goes back through the cluster's one
place-and-send road, under a ``call.retry`` span, with current warm-set and
liveness data.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import random
import threading
import time
from dataclasses import dataclass
from functools import partial

from .calls import CallStatus

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """How the invocation plane retries lost work."""

    #: Total dispatches per call (first attempt included).
    max_attempts: int = 4
    #: Seconds an attempt may stay *undelivered* (no executor claimed it)
    #: before its message is presumed lost. Claimed attempts are never
    #: timed out — only host death writes those off.
    attempt_timeout: float = 15.0
    #: Exponential backoff: ``min(max_delay, base_delay * 2**n)``.
    base_delay: float = 0.05
    max_delay: float = 1.0
    #: Multiplicative jitter in [0, jitter] added to each delay.
    jitter: float = 0.2
    #: Extra time a SENT attempt is granted past ``attempt_timeout`` while
    #: its target host is alive but *backlogged* (non-empty bus queue or
    #: worker backlog). Under the ingestion plane, deep queues are the
    #: normal open-loop condition, not evidence of loss — without this
    #: grace a 10⁵-call burst would trip a retry storm of calls that are
    #: merely waiting their turn. An excused attempt is checked again once
    #: per ``attempt_timeout`` while its host stays backlogged, so a
    #: genuinely dropped message times out within one ``attempt_timeout``
    #: of the backlog clearing, or once the grace is spent.
    backlog_grace: float = 30.0

    def backoff(self, attempt_number: int, rng: random.Random) -> float:
        delay = min(self.max_delay, self.base_delay * (2 ** attempt_number))
        return delay * (1.0 + self.jitter * rng.random())


class Timer:
    """The cluster's one timer thread: ``callback()`` entries run at their
    ``time.monotonic()`` deadline, in deadline order. No entry may block."""

    def __init__(self, metrics):
        self.metrics = metrics
        self._heap: list = []  # (when, seq, callback), earliest first
        self._seq = itertools.count()
        self._cv = threading.Condition(threading.Lock())
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, daemon=True, name="invocation-monitor"
            )
            self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        if self._thread is not None:
            self.call_at(-math.inf, None)  # ends the thread once popped
            self._thread.join(timeout)
            self._thread = None

    def call_at(self, when: float, callback) -> None:
        """Run ``callback()`` on the timer thread at ``time.monotonic()``
        ``when``; the thread wakes only if this entry is the earliest."""
        with self._cv:
            entry = (when, next(self._seq), callback)
            heapq.heappush(self._heap, entry)
            if self._heap[0] is entry:
                self._cv.notify()

    def _run(self) -> None:
        """Pop every entry due, then run them: one pushed meanwhile waits
        for the next round."""
        heap, cv, clock = self._heap, self._cv, time.monotonic
        while True:
            with cv:
                while not heap or heap[0][0] > clock():
                    cv.wait(heap[0][0] - clock() if heap else None)
                now, due = clock(), []
                while heap and heap[0][0] <= now:
                    due.append(heapq.heappop(heap)[2])
            for callback in due:
                if callback is None:
                    return
                try:
                    callback()
                except Exception:  # the timer must survive, but not silently
                    logger.exception("timer entry %r failed", callback)
                    self.metrics.counter(
                        "errors.swallowed", site="monitor.timer"
                    ).inc()


class InvocationMonitor:
    """The recovery scan, run on the cluster's timer when a deadline is due."""

    def __init__(self, cluster, policy: RetryPolicy, rng: random.Random | None = None):
        self.cluster = cluster
        self.policy = policy
        self.rng = rng or random.Random()
        self._lock = threading.Lock()
        self._scan_at = math.inf  # the live scan entry's; others are dropped

    # ------------------------------------------------------------------
    def request_scan(self, when: float) -> None:
        """Scan at ``when``, unless a scan is armed no later."""
        with self._lock:
            if when >= self._scan_at:
                return
            self._scan_at = when
        self.cluster.timer.call_at(when, partial(self._scan_due, when))

    def _scan_due(self, when: float) -> None:
        with self._lock:
            if when != self._scan_at:
                return  # superseded
            self._scan_at = math.inf
        self.scan()

    def scan(self, now: float | None = None) -> None:
        """One pass over the open calls (callable directly in tests); it
        re-arms at the earliest delivery deadline or retry it leaves, or
        ``attempt_timeout`` on, never at or before ``now``."""
        now = time.monotonic() if now is None else now
        timeout = self.policy.attempt_timeout
        due = now + timeout
        try:
            for record in self.cluster.calls.open_calls():
                status = record.status
                if status is CallStatus.SENT or status is CallStatus.RUNNING:
                    self._check_liveness(record, now)
                elif status is CallStatus.PARKED and now >= record.retry_at:
                    self._retry(record)
                # Re-arm: a call parked by this pass for its dead host has
                # ``retry_at == now``, and an overdue SENT attempt was
                # excused by the backlog grace (``now + timeout`` covers it).
                if record.status is CallStatus.PARKED:
                    due = min(due, max(record.retry_at, math.nextafter(now, due)))
                elif record.status is CallStatus.SENT and record.dispatched_at + timeout > now:
                    due = min(due, record.dispatched_at + timeout)
        finally:
            self.request_scan(due)

    def retry_time(self, number: int, now: float | None = None) -> float:
        """When a retry of attempt ``number``, parked at ``now``, may fire."""
        now = time.monotonic() if now is None else now
        return now + self.policy.backoff(number, self.rng)

    # ------------------------------------------------------------------
    def _check_liveness(self, record, now: float) -> None:
        number, host = record.attempt, record.host
        alive, epoch = self.cluster.host_liveness(host)
        if not alive or epoch != record.epoch:
            reason = f"host {host} died (attempt {number})"
            # Host death is detected, not suspected: re-queue at once.
            if self.cluster.calls.mark_attempt_lost(
                record.call_id, number, reason, now
            ):
                logger.warning("call %s: %s; re-queueing", record.call_id, reason)
        elif (
            record.status is CallStatus.SENT
            and now - record.dispatched_at > self.policy.attempt_timeout
            and not self._backlog_grace_holds(record, now)
        ):
            # The timeout detects *lost deliveries* only: an attempt still
            # SENT this long means its message was dropped (or delayed
            # past usefulness). Once an executor claimed it (RUNNING) the
            # host is alive and working — a long-running guest is not a
            # lost call, and retrying it would double-execute; host death
            # is what writes a RUNNING attempt off, via the epoch above.
            self.cluster.calls.mark_attempt_lost(
                record.call_id, number,
                f"attempt {number} on {host} timed out "
                f"after {self.policy.attempt_timeout}s",
                self.retry_time(number, now),
            )

    def _backlog_grace_holds(self, record, now: float) -> bool:
        """Whether a SENT attempt is excused from the delivery timeout:
        its live target is visibly backlogged (the message is plausibly
        still queued, not lost) and the grace budget is unspent."""
        if now - record.dispatched_at > (
            self.policy.attempt_timeout + self.policy.backlog_grace
        ):
            return False
        try:
            if self.cluster.bus.pending(record.host) > 0:
                return True
            instance = self.cluster.instance_for(record.host)
        except KeyError:
            return False
        return instance.pool_backlog() > 0

    def _retry(self, record) -> None:
        """Re-dispatch a parked call whose backoff has passed, or fail it
        once its budget is spent."""
        if record.attempt + 1 < self.policy.max_attempts:
            self.cluster.redispatch(record, reason=record.failure_chain[-1])
            return
        self.cluster.calls.fail_call(record.call_id)
        self.cluster.telemetry.metrics.counter("call.failed").inc()
        logger.error(
            "call %s failed after %d attempts: %s",
            record.call_id,
            record.attempt + 1,
            "; ".join(record.failure_chain),
        )
