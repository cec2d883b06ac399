"""The invocation monitor: timeouts, host-death detection, re-dispatch.

The paper's design (Fig. 5) assumes hosts and the message bus fail
independently of the callers that submitted work. This module is the
cluster's recovery loop: a daemon thread that scans the registry's open
calls and, through the registry's transitions on each call's current
attempt, parks it at once when its host died (the liveness epoch moved on),
parks it with a backoff when it stays undelivered past the per-attempt
timeout, re-dispatches a parked call once its ``retry_at`` has passed
(capped exponential backoff with jitter, up to
:attr:`RetryPolicy.max_attempts`) and declares the terminal ``CALL_FAILED``
once the budget is spent. A scan that raises is counted in
``errors.swallowed{site="monitor.scan"}``; the loop carries on.
Re-dispatch goes back through the cluster's one place-and-send road, under
a ``call.retry`` span, with current warm-set and liveness information.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from dataclasses import dataclass

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
    #: merely waiting their turn. A genuinely dropped message still times
    #: out once the backlog clears (or after the grace, whichever first).
    backlog_grace: float = 30.0

    def backoff(self, attempt_number: int, rng: random.Random) -> float:
        delay = min(self.max_delay, self.base_delay * (2 ** attempt_number))
        return delay * (1.0 + self.jitter * rng.random())


class InvocationMonitor:
    """Background watchdog over a cluster's in-flight calls."""

    def __init__(
        self,
        cluster,
        policy: RetryPolicy,
        interval: float = 0.02,
        rng: random.Random | None = None,
    ):
        self.cluster = cluster
        self.policy = policy
        self.interval = interval
        self.rng = rng or random.Random()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="invocation-monitor"
        )
        self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.scan()
            except Exception:  # the watchdog must survive, but not silently
                logger.exception("invocation monitor scan failed")
                self.cluster.telemetry.metrics.counter(
                    "errors.swallowed", site="monitor.scan"
                ).inc()

    def scan(self, now: float | None = None) -> None:
        """One pass over the open calls (callable directly in tests)."""
        now = time.monotonic() if now is None else now
        for record in self.cluster.calls.open_calls():
            status = record.status
            if status is CallStatus.SENT or status is CallStatus.RUNNING:
                self._check_liveness(record, now)
            elif status is CallStatus.PARKED and now >= record.retry_at:
                self._retry(record)

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
