"""Call records and the cluster-wide invocation registry.

Every function invocation gets a :class:`CallRecord` with a unique call id —
the value returned by ``chain_call`` and accepted by ``await_call`` /
``get_call_output`` (Tab. 2). The registry is the in-process stand-in for
the coordination the paper does over its message bus and global state.

There is one call lifecycle: every placement of a call on a host is an
:class:`AttemptRecord`, and the registry arbitrates an *attempt-claim
protocol* so that duplicate deliveries (a lossy/duplicating bus) and stale
retries (a host presumed dead that is merely slow) cannot double-execute a
call:

* :meth:`InvocationRegistry.new_attempts` records a round of placements
  (host + the host's liveness epoch at send time);
* :meth:`InvocationRegistry.begin_attempt` is the executor's atomic claim —
  it succeeds at most once per attempt, and never while another attempt
  is running or after the call reached a terminal state;
* :meth:`InvocationRegistry.complete_attempt` applies a completion only if
  that attempt still owns the call (a crashed host's zombie thread cannot
  complete a call that has been re-queued elsewhere);
* :meth:`InvocationRegistry.mark_attempt_lost` /
  :meth:`InvocationRegistry.attempt_failed` park an attempt for the
  monitor's retry loop;
* :meth:`InvocationRegistry.fail_call` is the terminal ``CALL_FAILED``
  state: retries exhausted, with the per-attempt failure chain preserved.

Calls may carry an **idempotency key**: re-dispatching with a key the
registry has already seen returns the original record instead of creating
a second invocation.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from dataclasses import dataclass, field


class CallStatus(enum.Enum):
    """Lifecycle states of a function invocation."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    #: Terminal infrastructure failure: every attempt was lost (dropped
    #: message, crashed host, unavailable state tier) and the retry budget
    #: is exhausted. Distinct from FAILED, which is the *function* exiting
    #: non-zero on a healthy host.
    CALL_FAILED = "call-failed"


#: Attempt lifecycle: ``sent`` (on the bus) -> ``running`` (claimed by an
#: executor) -> ``done``, or parked as ``lost`` (timeout / host death) or
#: ``failed`` (transient infrastructure error) for the retry loop.
ATTEMPT_SENT = "sent"
ATTEMPT_RUNNING = "running"
ATTEMPT_DONE = "done"
ATTEMPT_LOST = "lost"
ATTEMPT_FAILED = "failed"


#: Shared allocator guard for :class:`CompletionFlag`'s lazy event. Only
#: the *first* waiter on an unfinished call ever takes it, so it cannot
#: become a hot lock the way a per-record ``threading.Event`` is a hot
#: allocation (an Event is a Condition plus a Lock — ~3 µs per record,
#: which at 10⁵ queued calls is a third of a second of pure setup).
_FLAG_ALLOC_LOCK = threading.Lock()


class CompletionFlag:
    """Drop-in for the ``wait``/``set``/``is_set`` subset of
    :class:`threading.Event`, allocating the real event only when a
    thread actually blocks. Most calls in a bulk ingestion run are
    awaited via ``drain`` polling, never via ``done.wait``, so the
    common case is a plain boolean."""

    __slots__ = ("_flag", "_event")

    def __init__(self) -> None:
        self._flag = False
        self._event: threading.Event | None = None

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        self._flag = True
        event = self._event
        if event is not None:
            event.set()

    def wait(self, timeout: float | None = None) -> bool:
        if self._flag:
            return True
        with _FLAG_ALLOC_LOCK:
            if self._event is None:
                self._event = threading.Event()
            event = self._event
        # Re-check after publishing the event: a setter that missed it
        # has already flipped the flag, and one that sees it will set it.
        if self._flag:
            return True
        return event.wait(timeout)


@dataclass
class AttemptRecord:
    """One dispatch of a call to a host."""

    number: int
    host: str
    #: The target host's liveness epoch at dispatch time; if the host's
    #: epoch has advanced, everything this attempt did died with it.
    epoch: int
    dispatched_at: float
    state: str = ATTEMPT_SENT
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Why the attempt ended up lost/failed (feeds the failure chain).
    reason: str = ""
    #: Monotonic time before which the monitor must not retry (backoff).
    retry_at: float = 0.0


@dataclass
class CallRecord:
    call_id: int
    function: str
    input_data: bytes
    status: CallStatus = CallStatus.PENDING
    return_code: int | None = None
    output_data: bytes = b""
    host: str | None = None
    cold_start: bool = False
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    idempotency_key: str | None = None
    attempts: list[AttemptRecord] = field(default_factory=list)
    #: Per-attempt failure reasons, newest last (set on CALL_FAILED).
    failure_chain: list[str] = field(default_factory=list)
    done: CompletionFlag = field(default_factory=CompletionFlag, repr=False)
    #: Guards this record's attempt list and state transitions. Per-record
    #: so N hosts completing N different calls never serialise on one
    #: registry-wide lock (the ingestion plane's de-locked hot path).
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def latency(self) -> float:
        """End-to-end latency in seconds (valid once finished)."""
        return self.finished_at - self.submitted_at

    @property
    def retries(self) -> int:
        """Dispatches beyond the first."""
        return max(0, len(self.attempts) - 1)

    @property
    def last_attempt(self) -> AttemptRecord | None:
        return self.attempts[-1] if self.attempts else None


class InvocationRegistry:
    """Thread-safe registry of all calls in the cluster."""

    def __init__(self) -> None:
        self._calls: dict[int, CallRecord] = {}
        self._by_key: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._mutex = threading.Lock()

    def create(self, function: str, input_data: bytes) -> CallRecord:
        """One record: the one-element form of :meth:`create_many`."""
        (record,) = self.create_many(function, [input_data])
        return record

    def create_many(
        self, function: str, inputs: list[bytes]
    ) -> list["CallRecord"]:
        """Create one record per input with a single registry lock hold.

        Records are built outside the mutex: holding it through a thousand
        allocations would serialise against every concurrent completion."""
        now = time.monotonic()
        records = [
            CallRecord(
                next(self._ids),
                function,
                data if type(data) is bytes else bytes(data),
                submitted_at=now,
            )
            for data in inputs
        ]
        calls = self._calls
        with self._mutex:
            for record in records:
                calls[record.call_id] = record
        return records

    def create_or_get(
        self, function: str, input_data: bytes, idempotency_key: str | None
    ) -> tuple[CallRecord, bool]:
        """Create a call, or return the existing one for the idempotency
        key; the flag says whether a new record was created."""
        if idempotency_key is None:
            return self.create(function, input_data), True
        # Look-up, key reservation and registration share one hold, so
        # concurrent dispatches of one key agree on a single record.
        with self._mutex:
            existing = self._by_key.get(idempotency_key)
            if existing is not None:
                return self._calls[existing], False
            record = CallRecord(
                next(self._ids), function, bytes(input_data),
                submitted_at=time.monotonic(),
                idempotency_key=idempotency_key,
            )
            self._calls[record.call_id] = record
            self._by_key[idempotency_key] = record.call_id
        return record, True

    def get(self, call_id: int) -> CallRecord:
        # Lock-free: dict reads are atomic under the GIL and records are
        # never removed, so a reader can never observe a broken table.
        record = self._calls.get(call_id)
        if record is None:
            raise KeyError(f"unknown call id {call_id}")
        return record

    def get_many(self, call_ids) -> list[CallRecord]:
        """Fetch several records at once (batch expansion); lock-free
        like :meth:`get`."""
        try:
            return [self._calls[call_id] for call_id in call_ids]
        except KeyError as exc:
            raise KeyError(f"unknown call id {exc.args[0]}") from None

    # ------------------------------------------------------------------
    # Attempt protocol
    # ------------------------------------------------------------------
    def new_attempt(self, call_id: int, host: str, epoch: int) -> AttemptRecord:
        """Record a dispatch of ``call_id`` to ``host``: the one-element
        form of :meth:`new_attempts`."""
        return self.new_attempts([(self.get(call_id), host, epoch)])[0]

    def new_attempts(
        self, specs: list[tuple["CallRecord", str, int]]
    ) -> list[AttemptRecord]:
        """Record a placement round: one attempt per ``(record, host,
        epoch)`` spec, all stamped with one clock read. Returns the
        attempt records in spec order.
        """
        now = time.monotonic()
        out: list[AttemptRecord] = []
        for record, host, epoch in specs:
            with record.lock:
                attempt = AttemptRecord(
                    number=len(record.attempts),
                    host=host,
                    epoch=epoch,
                    dispatched_at=now,
                )
                record.attempts.append(attempt)
            out.append(attempt)
        return out

    def begin_attempt(self, call_id: int, number: int, host: str) -> bool:
        """Atomically claim the call for execution of attempt ``number``.

        Returns False — and the executor must drop the delivery — when the
        call already finished, the attempt was already begun (a duplicate
        delivery), the attempt was already written off as lost, or another
        attempt currently owns the call.
        """
        record = self.get(call_id)
        with record.lock:
            if record.done.is_set():
                return False
            if number < 0 or number >= len(record.attempts):
                return False
            attempt = record.attempts[number]
            if attempt.state != ATTEMPT_SENT:
                return False
            if any(a.state == ATTEMPT_RUNNING for a in record.attempts):
                return False
            attempt.state = ATTEMPT_RUNNING
            attempt.started_at = time.monotonic()
        return True

    def complete_attempt(
        self, call_id: int, number: int, return_code: int, output: bytes
    ) -> bool:
        """Apply attempt ``number``'s completion if it still owns the call.

        A crashed host's attempts are marked lost before the call is
        re-queued; a zombie executor thread on that host completing late is
        rejected here, which is what makes retried execution safe.
        """
        record = self.get(call_id)
        with record.lock:
            if record.done.is_set():
                return False
            if number < 0 or number >= len(record.attempts):
                return False
            attempt = record.attempts[number]
            if attempt.state not in (ATTEMPT_RUNNING, ATTEMPT_SENT):
                return False
            attempt.state = ATTEMPT_DONE
            attempt.finished_at = time.monotonic()
            self._finish(record, return_code, output)
        return True

    def mark_attempt_lost(self, call_id: int, number: int, reason: str) -> bool:
        """Write an in-flight attempt off (timeout or host death); the call
        returns to PENDING for the monitor to re-queue."""
        return self._park(call_id, number, ATTEMPT_LOST, reason)

    def attempt_failed(self, call_id: int, number: int, reason: str) -> bool:
        """An executor hit a transient infrastructure error (e.g. the state
        tier was unavailable); park the attempt for a backed-off retry."""
        return self._park(call_id, number, ATTEMPT_FAILED, reason)

    def _park(self, call_id: int, number: int, state: str, reason: str) -> bool:
        record = self.get(call_id)
        with record.lock:
            if record.done.is_set():
                return False
            if number < 0 or number >= len(record.attempts):
                return False
            attempt = record.attempts[number]
            if attempt.state not in (ATTEMPT_SENT, ATTEMPT_RUNNING):
                return False
            attempt.state = state
            attempt.reason = reason
            attempt.finished_at = time.monotonic()
            record.status = CallStatus.PENDING
        return True

    def fail_call(self, call_id: int, chain: list[str] | None = None) -> bool:
        """Terminal CALL_FAILED: the retry budget is exhausted. The failure
        chain (one reason per attempt) is preserved on the record and in
        the call output."""
        record = self.get(call_id)
        with record.lock:
            if record.done.is_set():
                return False
            chain = list(chain) if chain is not None else [
                a.reason for a in record.attempts if a.reason
            ]
            record.failure_chain = chain
            record.return_code = 1
            record.output_data = ("CallFailed: " + "; ".join(chain)).encode()
            record.finished_at = time.monotonic()
            record.status = CallStatus.CALL_FAILED
            record.done.set()
        return True

    def mark_running(self, call_id: int, host: str, cold_start: bool) -> None:
        """The claiming executor has its Faaslet: record where the call
        runs and whether it had to cold-start."""
        record = self.get(call_id)
        record.status = CallStatus.RUNNING
        record.host = host
        record.cold_start = cold_start
        record.started_at = time.monotonic()

    def complete(self, call_id: int, return_code: int, output: bytes) -> bool:
        """Finish a call on behalf of its latest attempt
        (:meth:`complete_attempt` for callers that do not track attempt
        numbers); first completion wins, duplicates are no-ops."""
        return self.complete_attempt(
            call_id, len(self.get(call_id).attempts) - 1, return_code, output
        )

    def _finish(self, record: CallRecord, return_code: int, output: bytes) -> None:
        """Terminal-state write; caller holds the record's lock."""
        record.return_code = return_code
        record.output_data = bytes(output)
        record.finished_at = time.monotonic()
        record.status = (
            CallStatus.SUCCEEDED if return_code == 0 else CallStatus.FAILED
        )
        record.done.set()

    def wait(self, call_id: int, timeout: float | None = None) -> int:
        """Block until the call finishes; returns its exit code."""
        record = self.get(call_id)
        if not record.done.wait(timeout):
            raise TimeoutError(f"call {call_id} did not finish in {timeout}s")
        assert record.return_code is not None
        return record.return_code

    def output(self, call_id: int) -> bytes:
        record = self.get(call_id)
        if not record.done.is_set():
            raise RuntimeError(f"call {call_id} has not finished")
        return record.output_data

    def all_records(self) -> list[CallRecord]:
        with self._mutex:
            return list(self._calls.values())
