"""Call records and the cluster-wide invocation registry.

Every function invocation gets a :class:`CallRecord` with a unique call id —
the value returned by ``chain_call`` and accepted by ``await_call`` /
``get_call_output`` (Tab. 2). The registry is the in-process stand-in for
the coordination the paper does over its message bus and global state.

A call has one state machine, and its record *is* its current attempt: each
placement bumps :attr:`CallRecord.attempt` and restamps host, liveness
epoch and dispatch time; one :class:`CallStatus` says where the attempt
stands. Every transition (place, claim, complete, park for the monitor's
retry) names an attempt number and acts, under the record's lock, only if
it is the current one, and a call is re-placed only once PARKED. Duplicate
deliveries and stale retries are thus rejected, and a zombie executor on a
dead host can neither complete nor relabel a call re-queued elsewhere.
:meth:`~InvocationRegistry.fail_call` is the terminal ``CALL_FAILED``.
A repeated **idempotency key** returns the original record.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from operator import attrgetter, itemgetter


class CallStatus(enum.Enum):
    """The one state of a call, its current attempt's included::

        PENDING -> SENT -> RUNNING -> SUCCEEDED | FAILED
                     |        |
                     +--------+--> PARKED --(retry)--> SENT
                                     |
                                     +--(budget spent)--> CALL_FAILED
    """

    PENDING = "pending"  # created, never placed
    SENT = "sent"  # the current attempt is on the bus, unclaimed
    RUNNING = "running"  # ... claimed by an executor
    #: Written off (lost delivery, dead host, transient infrastructure
    #: error): the reason ends the failure chain, the monitor retries at
    #: ``retry_at``.
    PARKED = "parked"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    #: Terminal infrastructure failure: every attempt was lost (dropped
    #: message, crashed host, unavailable state tier) and the retry budget
    #: is exhausted. Distinct from FAILED, which is the *function* exiting
    #: non-zero on a healthy host.
    CALL_FAILED = "call-failed"


_CALL_ID, _RECORD = attrgetter("call_id"), itemgetter(0)
#: Statuses of a live attempt: a tuple, whose ``in`` matches by identity.
_LIVE = (CallStatus.SENT, CallStatus.RUNNING)


#: Guards :class:`CompletionFlag`'s latch slot and its waiter count. Only
#: threads that block on an unfinished call take it — ``set()`` never does,
#: so a completion costs no process-wide lock however many calls finish.
_LATCH_LOCK = threading.Lock()


class CompletionFlag:
    """The ``wait``/``set``/``is_set`` subset of an ``Event`` as a latch
    on one raw lock, made only when a thread blocks (most calls are never
    waited for: for them the flag is a plain boolean).

    The first waiter allocates the lock already held; ``set()`` releases
    it, and each waiter acquires and then releases it, so every waiter
    wakes in turn. ``set()`` and the last waiter out drop the latch: a
    finished record keeps no lock."""

    __slots__ = ("_flag", "_latch")

    def __init__(self) -> None:
        self._flag = False
        #: ``[lock, threads inside wait()]`` while one blocks, else None.
        self._latch: list | None = None

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        self._flag = True
        latch = self._latch
        if latch is not None:
            self._latch = None
            latch[0].release()

    def wait(self, timeout: float | None = None) -> bool:
        if self._flag:
            return True
        with _LATCH_LOCK:
            latch = self._latch
            if latch is None:
                latch = self._latch = [threading.Lock(), 0]
                latch[0].acquire()
            latch[1] += 1
        # Re-check after publishing the latch: a setter that missed it has
        # already flipped the flag, and one that sees it will release it.
        lock, wait_s = latch[0], -1 if timeout is None else max(timeout, 0.0)
        if not self._flag and lock.acquire(True, wait_s):
            lock.release()  # pass the wake-up on to the next waiter
        with _LATCH_LOCK:
            latch[1] -= 1
            if self._flag and not latch[1] and self._latch is latch:
                self._latch = None
        return self._flag


class CallRecord:
    """One call and its current attempt. Records are retained for the
    registry's lifetime, so the record is slotted: no per-record dict."""

    __slots__ = (
        "call_id", "function", "input_data", "idempotency_key", "status",
        "return_code", "output_data", "cold_start", "submitted_at",
        "finished_at", "failure_chain", "done", "lock",
        "attempt", "host", "epoch", "dispatched_at", "retry_at",
    )

    def __init__(self, call_id: int, function: str, input_data: bytes,
                 submitted_at: float = 0.0, idempotency_key: str | None = None):
        self.call_id = call_id
        self.function = function
        self.input_data = input_data
        self.idempotency_key = idempotency_key
        self.status = CallStatus.PENDING
        self.return_code: int | None = None
        self.output_data = b""
        self.cold_start = False  # the executor had to cold-start a Faaslet
        self.submitted_at = submitted_at
        self.finished_at = 0.0
        #: One reason per parked attempt, oldest first.
        self.failure_chain: tuple[str, ...] = ()
        self.done = CompletionFlag()
        #: Guards the transitions. Per-record so N hosts completing N calls
        #: never serialise on one registry-wide lock.
        self.lock = threading.Lock()
        #: The current attempt: its number (-1 until placed), target host,
        #: that host's liveness epoch at dispatch (once the epoch advances,
        #: everything the attempt did died with it), dispatch time, and —
        #: once PARKED — the time before which it must not be retried.
        self.attempt = -1
        self.host: str | None = None
        self.epoch = 0
        self.dispatched_at = 0.0
        self.retry_at = 0.0

    @property
    def latency(self) -> float:
        """End-to-end latency in seconds (valid once finished)."""
        return self.finished_at - self.submitted_at

    @property
    def retries(self) -> int:
        """Dispatches beyond the first."""
        return max(0, self.attempt)


class InvocationRegistry:
    """Thread-safe registry of all calls in the cluster."""

    def __init__(self) -> None:
        self._calls: dict[int, CallRecord] = {}
        self._by_key: dict[str, int] = {}
        #: Placed calls not yet finished: what the monitor watches and
        #: what ``FaasmCluster.drain`` waits for. A call leaves it as it
        #: finishes, with one lock-free (GIL-atomic) pop.
        self._open: dict[int, CallRecord] = {}
        self._ids = itertools.count(1)
        self._mutex = threading.Lock()

    def create(self, function: str, input_data: bytes) -> CallRecord:
        """One record, with no idempotency key."""
        return self.create_or_get(function, input_data, None)[0]

    def create_many(self, function: str, inputs: list[bytes]) -> list[CallRecord]:
        """Create one record per input with a single registry lock hold.

        Records are built outside the mutex: holding it through a thousand
        allocations would serialise against every concurrent completion."""
        now = time.monotonic()
        records = [
            CallRecord(next(self._ids), function,
                       data if type(data) is bytes else bytes(data), now)
            for data in inputs
        ]
        with self._mutex:  # held for one C-level update
            self._calls.update(zip(map(_CALL_ID, records), records))
        return records

    def create_or_get(
        self, function: str, input_data: bytes, idempotency_key: str | None
    ) -> tuple[CallRecord, bool]:
        """Create a call, or return the existing one for the idempotency
        key; the flag says whether a new record was created."""
        if idempotency_key is None:
            record = CallRecord(next(self._ids), function, bytes(input_data), time.monotonic())
            with self._mutex:
                self._calls[record.call_id] = record
            return record, True
        # Look-up, key reservation and registration share one hold, so
        # concurrent dispatches of one key agree on a single record.
        with self._mutex:
            existing = self._by_key.get(idempotency_key)
            if existing is not None:
                return self._calls[existing], False
            record = CallRecord(
                next(self._ids), function, bytes(input_data),
                time.monotonic(), idempotency_key,
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
            return list(map(self._calls.__getitem__, call_ids))
        except KeyError as exc:
            raise KeyError(f"unknown call id {exc.args[0]}") from None

    def open_calls(self) -> list[CallRecord]:
        """The placed calls not yet finished, in placement order (the
        monitor's scan and ``drain`` read them)."""
        with self._mutex:
            return list(self._open.values())

    # ------------------------------------------------------------------
    # Attempt protocol
    # ------------------------------------------------------------------
    def new_attempt(self, call_id: int, host: str, epoch: int) -> int:
        """Place ``call_id`` on ``host``: the one-element form of
        :meth:`new_attempts`. Returns the attempt number."""
        return self.new_attempts([(self.get(call_id), host, epoch)])[0]

    def new_attempts(self, specs: list[tuple[CallRecord, str, int]]) -> list[int]:
        """Place a round of calls: a new current attempt per ``(record,
        host, epoch)``, one clock read, one registry hold to open them.
        Returns the attempt numbers. Raises on a call that is live or
        finished — a call is re-placed only once written off."""
        now = time.monotonic()
        numbers: list[int] = []
        for record, host, epoch in specs:
            with record.lock:
                # A tuple, not a set: ``in`` matches by identity, with no
                # ``Enum.__hash__`` calls.
                if record.status not in (CallStatus.PENDING, CallStatus.PARKED):
                    raise RuntimeError(f"call {record.call_id} is "
                                       f"{record.status.value}, not placeable")
                record.attempt = number = record.attempt + 1
                record.host = host
                record.epoch = epoch
                record.dispatched_at = now
                record.status = CallStatus.SENT
            numbers.append(number)
        records = list(map(_RECORD, specs))
        with self._mutex:  # held for one C-level update
            self._open.update(zip(map(_CALL_ID, records), records))
        return numbers

    def begin_attempt(self, call_id: int, number: int, host: str) -> bool:
        """Atomically claim the call for execution of attempt ``number``.
        False — drop the delivery — unless it is the current attempt, still
        unclaimed: duplicates, stale retries, written-off attempts and
        finished calls are all rejected."""
        record = self._calls[call_id]  # records are never removed
        with record.lock:
            if number != record.attempt or record.status is not CallStatus.SENT:
                return False
            record.host = host
            record.status = CallStatus.RUNNING
        return True

    def complete_attempt(
        self, call_id: int, number: int, return_code: int, output: bytes
    ) -> bool:
        """Apply attempt ``number``'s completion if it still owns the call.
        A crashed host's attempts are parked before the call is re-queued,
        so its zombie executor completing late is rejected here — which is
        what makes retried execution safe."""
        record = self._calls[call_id]
        with record.lock:
            if number != record.attempt or record.status not in _LIVE:
                return False
            self._finish(record, return_code, output)
        return True

    def mark_attempt_lost(self, call_id: int, number: int, reason: str,
                          retry_at: float = 0.0) -> bool:
        """Park live attempt ``number`` for the monitor to re-queue once
        ``retry_at`` has passed: written off by the monitor (timeout or
        host death) or, as :meth:`attempt_failed`, given up by its
        executor on a transient infrastructure error (e.g. the state tier
        was unavailable). ``reason`` joins the failure chain."""
        record = self._calls[call_id]
        with record.lock:
            if number != record.attempt or record.status not in _LIVE:
                return False
            record.failure_chain += (reason,)
            record.retry_at = retry_at
            # Last, so the monitor's lock-free read of PARKED sees the rest.
            record.status = CallStatus.PARKED
        return True

    attempt_failed = mark_attempt_lost

    def fail_call(self, call_id: int, reason: str | None = None) -> bool:
        """Terminal CALL_FAILED, the retry budget spent. ``reason`` (if any)
        ends the failure chain, kept on the record and in the output."""
        record = self.get(call_id)
        with record.lock:
            if record.done.is_set():
                return False
            if reason is not None:
                record.failure_chain += (reason,)
            output = "CallFailed: " + "; ".join(record.failure_chain)
            self._finish(record, 1, output.encode(), CallStatus.CALL_FAILED)
        return True

    def complete(self, call_id: int, return_code: int, output: bytes) -> bool:
        """Finish a call on behalf of its current attempt
        (:meth:`complete_attempt` for callers that do not track attempt
        numbers); first completion wins, duplicates are no-ops."""
        number = self.get(call_id).attempt
        return self.complete_attempt(call_id, number, return_code, output)

    def _finish(self, record, return_code: int, output: bytes, status=None) -> None:
        """Terminal-state write; caller holds the record's lock."""
        record.return_code = return_code
        record.output_data = bytes(output)
        record.finished_at = time.monotonic()
        record.status = status or (CallStatus.FAILED if return_code
                                   else CallStatus.SUCCEEDED)
        record.done.set()
        self._open.pop(record.call_id, None)

    def wait(self, call_id: int, timeout: float | None = None) -> int:
        """Block until the call finishes; returns its exit code."""
        record = self._calls[call_id]
        if not record.done.wait(timeout):
            raise TimeoutError(f"call {call_id} did not finish in {timeout}s")
        assert record.return_code is not None
        return record.return_code

    def output(self, call_id: int) -> bytes:
        record = self._calls[call_id]
        if not record.done.is_set():
            raise RuntimeError(f"call {call_id} has not finished")
        return record.output_data

    def all_records(self) -> list[CallRecord]:
        with self._mutex:
            return list(self._calls.values())
