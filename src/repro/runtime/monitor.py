"""The invocation monitor: timeouts, host-death detection, re-dispatch.

The paper's design (Fig. 5) assumes hosts and the message bus fail
independently of the callers that submitted work. This module is the
cluster's recovery loop: a daemon thread that watches every in-flight
call's latest :class:`~repro.runtime.calls.AttemptRecord` and

* writes an attempt off immediately when its target host died (the host's
  liveness epoch advanced past the one recorded at dispatch) — the
  re-queue path for a crashed host's in-flight calls;
* writes an attempt off when it exceeds the per-attempt timeout (a dropped
  or endlessly delayed delivery);
* re-dispatches written-off attempts with capped exponential backoff and
  jitter, up to :attr:`RetryPolicy.max_attempts`;
* declares the terminal ``CALL_FAILED`` state — with the per-attempt
  failure chain — once the budget is spent.

Every cluster runs one: there is no unmonitored way to place a call. The
monitor never executes anything itself; re-dispatch goes back through the
cluster's one place-and-send road (under a ``call.retry`` span, counted in
the ``call.retries`` metric), so retried calls are placed with current
warm-set and liveness information.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from dataclasses import dataclass

from .calls import ATTEMPT_FAILED, ATTEMPT_LOST, ATTEMPT_RUNNING, ATTEMPT_SENT

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
            except Exception:  # pragma: no cover - the watchdog must survive
                logger.exception("invocation monitor scan failed")

    def scan(self, now: float | None = None) -> None:
        """One pass over the in-flight calls (callable directly in tests)."""
        now = time.monotonic() if now is None else now
        for record in self.cluster.inflight_records():
            if record.done.is_set():
                self.cluster.forget_inflight(record.call_id)
                continue
            attempt = record.last_attempt
            if attempt is None:
                continue
            if attempt.state in (ATTEMPT_SENT, ATTEMPT_RUNNING):
                self._check_liveness(record, attempt, now)
            elif attempt.state in (ATTEMPT_LOST, ATTEMPT_FAILED):
                self._maybe_retry(record, attempt, now)

    # ------------------------------------------------------------------
    def _check_liveness(self, record, attempt, now: float) -> None:
        alive, epoch = self.cluster.host_liveness(attempt.host)
        if not alive or epoch != attempt.epoch:
            reason = f"host {attempt.host} died (attempt {attempt.number})"
            if self.cluster.calls.mark_attempt_lost(
                record.call_id, attempt.number, reason
            ):
                # Host death is detected, not suspected: re-queue at once.
                attempt.retry_at = now
                logger.warning("call %s: %s; re-queueing", record.call_id, reason)
        elif (
            attempt.state == ATTEMPT_SENT
            and now - attempt.dispatched_at > self.policy.attempt_timeout
            and not self._backlog_grace_holds(attempt, now)
        ):
            # The timeout detects *lost deliveries* only: an attempt still
            # SENT this long means its message was dropped (or delayed
            # past usefulness). Once an executor claimed it (RUNNING) the
            # host is alive and working — a long-running guest is not a
            # lost call, and retrying it would double-execute; host death
            # is what writes a RUNNING attempt off, via the epoch above.
            reason = (
                f"attempt {attempt.number} on {attempt.host} timed out "
                f"after {self.policy.attempt_timeout}s"
            )
            if self.cluster.calls.mark_attempt_lost(
                record.call_id, attempt.number, reason
            ):
                attempt.retry_at = now + self.policy.backoff(
                    attempt.number, self.rng
                )

    def _backlog_grace_holds(self, attempt, now: float) -> bool:
        """Whether a SENT attempt is excused from the delivery timeout:
        its live target is visibly backlogged (the message is plausibly
        still queued, not lost) and the grace budget is unspent."""
        if now - attempt.dispatched_at > (
            self.policy.attempt_timeout + self.policy.backlog_grace
        ):
            return False
        try:
            if self.cluster.bus.pending(attempt.host) > 0:
                return True
            instance = self.cluster.instance_for(attempt.host)
        except KeyError:
            return False
        return instance.pool_backlog() > 0

    def _maybe_retry(self, record, attempt, now: float) -> None:
        if attempt.retry_at == 0.0:
            # Parked by an executor (attempt_failed); schedule the backoff.
            attempt.retry_at = now + self.policy.backoff(attempt.number, self.rng)
            return
        if now < attempt.retry_at:
            return
        if len(record.attempts) >= self.policy.max_attempts:
            chain = [a.reason for a in record.attempts if a.reason]
            self.cluster.calls.fail_call(record.call_id, chain)
            self.cluster.telemetry.metrics.counter("call.failed").inc()
            self.cluster.forget_inflight(record.call_id)
            logger.error(
                "call %s failed after %d attempts: %s",
                record.call_id,
                len(record.attempts),
                "; ".join(chain),
            )
            return
        self.cluster.redispatch(record, reason=attempt.reason)
