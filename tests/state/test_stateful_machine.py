"""Hypothesis stateful testing of the two-tier architecture.

A rule-based machine drives three hosts' state APIs with arbitrary
interleavings of local writes, pushes and pulls, checking the tier
invariants against a reference model after every step:

* a host's local view reflects its own writes until overwritten by a pull;
* the global tier holds exactly the last pushed value for each key;
* pulling makes a host's view equal the global value;
* local writes never leak to other hosts without a push+pull.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.state import GlobalStateStore, LocalTier, StateAPI, StateClient
from repro.state.kv import StateKeyError

HOSTS = ["h0", "h1", "h2"]
KEYS = ["alpha", "beta"]
VALUES = [b"a" * 4, b"b" * 4, b"c" * 8, b"d" * 2]


class TwoTierMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = GlobalStateStore()
        self.apis = {
            host: StateAPI(LocalTier(host, StateClient(self.store)))
            for host in HOSTS
        }
        #: Reference models.
        self.global_model: dict[str, bytes] = {}
        self.local_model: dict[tuple[str, str], bytes] = {}

    hosts = st.sampled_from(HOSTS)
    keys = st.sampled_from(KEYS)
    values = st.sampled_from(VALUES)

    @rule(host=hosts, key=keys, value=values)
    def set_local(self, host, key, value):
        self.apis[host].set_state(key, value)
        self.local_model[(host, key)] = value

    @rule(host=hosts, key=keys)
    def push(self, host, key):
        if (host, key) not in self.local_model:
            return
        self.apis[host].push_state(key)
        self.global_model[key] = self.local_model[(host, key)]

    @rule(host=hosts, key=keys)
    def pull(self, host, key):
        if key not in self.global_model:
            return
        self.apis[host].pull_state(key)
        self.local_model[(host, key)] = self.global_model[key]

    @rule(host=hosts, key=keys, value=values, offset=st.integers(0, 3))
    def set_offset(self, host, key, value, offset):
        if (host, key) not in self.local_model:
            return
        self.apis[host].set_state_offset(key, value, offset)
        old = bytearray(self.local_model[(host, key)])
        end = offset + len(value)
        if end > len(old):
            old.extend(b"\x00" * (end - len(old)))
        old[offset:end] = value
        self.local_model[(host, key)] = bytes(old)

    @invariant()
    def local_views_match_model(self):
        for (host, key), expected in self.local_model.items():
            actual = bytes(self.apis[host].get_state(key))
            assert actual == expected, (host, key)

    @invariant()
    def global_tier_matches_model(self):
        for key, expected in self.global_model.items():
            assert self.store.get_value(key) == expected
        for key in KEYS:
            if key not in self.global_model:
                assert not self.store.exists(key)


TwoTierMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestTwoTier = TwoTierMachine.TestCase


# ---------------------------------------------------------------------------
# Retry/duplicate idempotency: the attempt-claim protocol under arbitrary
# interleavings of dispatch, duplicate delivery, crashes and retries.
# ---------------------------------------------------------------------------

from dataclasses import dataclass, field  # noqa: E402

from repro.runtime.calls import CallStatus, InvocationRegistry  # noqa: E402

LIVE = (CallStatus.SENT, CallStatus.RUNNING)
TERMINAL = (CallStatus.SUCCEEDED, CallStatus.FAILED, CallStatus.CALL_FAILED)


@dataclass
class CallModel:
    """What one call's record must read: the machine's reference model."""

    attempt: int = -1
    status: CallStatus = CallStatus.PENDING
    chain: list[str] = field(default_factory=list)
    completions: int = 0


class RetryIdempotencyMachine(RuleBasedStateMachine):
    """Drives the invocation registry the way a faulty cluster would.

    Rules model the events the chaos plane injects — duplicate deliveries
    (begin the same attempt twice), host crashes (an attempt marked lost
    mid-run), timeouts (a sent attempt written off), retries (a fresh
    attempt after a loss), late completions and exhausted budgets — on the
    current attempt *and on stale attempt numbers*. Every transition's
    answer is checked against a per-call reference model, and the
    invariants state the exactly-once contract: each attempt is begun at
    most once, each call completes at most once, the record reads exactly
    what the model says (attempt, status, failure chain), and a completed
    call's idempotent state write is observably applied exactly once.
    """

    calls = Bundle("calls")

    def __init__(self):
        super().__init__()
        self.registry = InvocationRegistry()
        self.store = GlobalStateStore()
        self.model: dict[int, CallModel] = {}
        #: Successful begin_attempt claims per (call_id, attempt number).
        self.begun: dict[tuple[int, int], int] = {}
        #: Guest executions per call (each successful claim runs the guest).
        self.executions: dict[int, int] = {}

    def _apply_guest(self, call_id: int) -> None:
        """The idempotent guest body: an absolute state write."""
        self.store.set_value(f"out/{call_id}", f"result-{call_id}".encode())
        self.executions[call_id] = self.executions.get(call_id, 0) + 1

    def _pick(self, call_id: int, pick: int) -> int | None:
        """An attempt number of the call: the current one or a stale one."""
        record = self.registry.get(call_id)
        if record.attempt < 0:
            return None
        return pick % (record.attempt + 1)

    def _owns(self, call_id: int, number: int) -> bool:
        """Whether the model says attempt ``number`` is current and live."""
        model = self.model[call_id]
        return number == model.attempt and model.status in LIVE

    def _claim(self, call_id: int, number: int) -> bool:
        model = self.model[call_id]
        expected = number == model.attempt and model.status is CallStatus.SENT
        claimed = self.registry.begin_attempt(call_id, number, "h0")
        assert claimed == expected, (call_id, number, model)
        if claimed:
            self.begun[(call_id, number)] = self.begun.get((call_id, number), 0) + 1
            model.status = CallStatus.RUNNING
        return claimed

    def _completed(self, call_id: int, status: CallStatus) -> None:
        model = self.model[call_id]
        model.completions += 1
        model.status = status

    def _park(self, call_id: int, number: int, reason: str) -> None:
        expected = self._owns(call_id, number)
        parked = self.registry.mark_attempt_lost(call_id, number, reason)
        assert parked == expected, (call_id, number, self.model[call_id])
        if parked:
            self.model[call_id].status = CallStatus.PARKED
            self.model[call_id].chain.append(reason)

    @rule(target=calls, key=st.integers(0, 4))
    def submit(self, key):
        record, created = self.registry.create_or_get(
            "fn", b"", idempotency_key=f"job-{key}"
        )
        if created:
            self.model[record.call_id] = CallModel()
        else:
            # The same idempotency key always maps to the same call.
            assert record.idempotency_key == f"job-{key}"
        return record.call_id

    @rule(call_id=calls)
    def dispatch_attempt(self, call_id):
        """The cluster (or the monitor retrying) sends a fresh attempt —
        refused unless the call is unplaced or its attempt written off."""
        model = self.model[call_id]
        if model.attempt >= 5:
            return
        if model.status not in (CallStatus.PENDING, CallStatus.PARKED):
            with pytest.raises(RuntimeError):
                self.registry.new_attempt(call_id, "h0", 0)
            return
        assert self.registry.new_attempt(call_id, "h0", 0) == model.attempt + 1
        model.attempt += 1
        model.status = CallStatus.SENT

    @rule(call_id=calls, pick=st.integers(0, 5))
    def deliver_and_complete(self, call_id, pick):
        """An executor receives a delivery, claims it, runs the guest and
        completes — the healthy path."""
        number = self._pick(call_id, pick)
        if number is not None and self._claim(call_id, number):
            self._apply_guest(call_id)
            assert self.registry.complete_attempt(call_id, number, 0, b"ok")
            self._completed(call_id, CallStatus.SUCCEEDED)

    @rule(call_id=calls, pick=st.integers(0, 5))
    def duplicate_delivery(self, call_id, pick):
        """A duplicated ExecuteCall: the second claim of an already-begun
        attempt must always be rejected."""
        number = self._pick(call_id, pick)
        if number is None:
            return
        first = self._claim(call_id, number)
        assert not self.registry.begin_attempt(call_id, number, "h0")
        if first:
            self._apply_guest(call_id)
            assert self.registry.complete_attempt(call_id, number, 0, b"ok")
            self._completed(call_id, CallStatus.SUCCEEDED)

    @rule(call_id=calls, pick=st.integers(0, 5))
    def crash_mid_run(self, call_id, pick):
        """The executor's host dies after the guest ran but before the
        completion was written (the pre-complete crash phase)."""
        number = self._pick(call_id, pick)
        if number is not None and self._claim(call_id, number):
            self._apply_guest(call_id)
            self._park(call_id, number, "host died")
            # The zombie completion from the dead host must be rejected.
            assert not self.registry.complete_attempt(call_id, number, 0, b"zombie")

    @rule(call_id=calls, pick=st.integers(0, 5))
    def lose_sent_attempt(self, call_id, pick):
        """A dropped message: the monitor writes the attempt off."""
        number = self._pick(call_id, pick)
        if number is not None:
            self._park(call_id, number, "timed out")

    @rule(call_id=calls)
    def retry_after_timeout(self, call_id):
        """The monitor's retry: the live attempt times out and the call is
        placed again — leaving a stale number for later deliveries."""
        model = self.model[call_id]
        if model.status in LIVE and model.attempt < 5:
            self._park(call_id, model.attempt, "timed out")
            self.dispatch_attempt(call_id)

    @rule(call_id=calls, pick=st.integers(0, 5))
    def late_completion(self, call_id, pick):
        """A completion arriving for any attempt number, current or stale."""
        number = self._pick(call_id, pick)
        if number is None:
            return
        expected = self._owns(call_id, number)
        assert self.registry.complete_attempt(call_id, number, 1, b"late") == expected
        if expected:
            self._completed(call_id, CallStatus.FAILED)

    @rule(call_id=calls)
    def exhaust_budget(self, call_id):
        """The monitor gives up on a parked call: CALL_FAILED, carrying the
        chain of every parked attempt's reason."""
        model = self.model[call_id]
        if model.status is not CallStatus.PARKED and model.status not in TERMINAL:
            return
        failed = self.registry.fail_call(call_id)
        assert failed == (model.status is CallStatus.PARKED)
        if failed:
            self._completed(call_id, CallStatus.CALL_FAILED)
            expected = "CallFailed: " + "; ".join(model.chain)
            assert self.registry.output(call_id) == expected.encode()

    @invariant()
    def each_attempt_begun_at_most_once(self):
        assert all(count == 1 for count in self.begun.values())

    @invariant()
    def record_is_its_model(self):
        for call_id, model in self.model.items():
            record = self.registry.get(call_id)
            assert record.attempt == model.attempt, call_id
            assert record.status is model.status, (call_id, record.status)
            assert list(record.failure_chain) == model.chain, call_id
            assert record.retries == max(0, model.attempt)

    @invariant()
    def at_most_one_completion(self):
        for call_id, model in self.model.items():
            assert model.completions <= 1, call_id
            record = self.registry.get(call_id)
            assert record.done.is_set() == (model.status in TERMINAL)

    @invariant()
    def idempotent_write_applied_exactly_once(self):
        """However many times a crashy history re-ran the guest, the
        observable state is exactly one application's worth."""
        for record in self.registry.all_records():
            key = f"out/{record.call_id}"
            if self.executions.get(record.call_id, 0) > 0:
                assert self.store.get_value(key) == f"result-{record.call_id}".encode()
            else:
                assert not self.store.exists(key)


RetryIdempotencyMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
TestRetryIdempotency = RetryIdempotencyMachine.TestCase
