"""The completion latch (``CompletionFlag``): every waiter wakes on one
``set()``, timeouts return the flag, and a finished flag holds no lock."""

import gc
import sys
import threading
import time

from repro.runtime import FaasmCluster, calls
from repro.runtime.calls import CompletionFlag
from tests.conftest import wait_for

LockType = type(threading.Lock())


def _sync_objects(flag: CompletionFlag) -> list:
    """Locks and Events the flag still holds, directly or in a container."""
    found, todo = [], gc.get_referents(flag)
    while todo:
        obj = todo.pop()
        if isinstance(obj, (LockType, threading.Event)):
            found.append(obj)
        elif isinstance(obj, (list, tuple, dict)):
            todo.extend(gc.get_referents(obj))
    return found


def _inside(flag: CompletionFlag) -> int:
    """Threads counted inside ``flag.wait``."""
    latch = flag._latch
    return 0 if latch is None else latch[1]


def _waiters(flag: CompletionFlag, n: int, timeout: float):
    """Start ``n`` threads blocked in ``flag.wait(timeout)``; returns the
    threads and the list their results land in."""
    results: list[bool] = []
    threads = [
        threading.Thread(target=lambda: results.append(flag.wait(timeout)))
        for _ in range(n)
    ]
    for thread in threads:
        thread.start()
    return threads, results


def test_three_waiters_all_wake_on_one_set():
    flag = CompletionFlag()
    threads, results = _waiters(flag, 3, timeout=5.0)
    wait_for(lambda: _inside(flag) == 3)
    start = time.monotonic()
    flag.set()
    for thread in threads:
        thread.join(5.0)
    assert results == [True, True, True]
    # Woken by the set, each in turn -- not by their own timeouts.
    assert time.monotonic() - start < 2.0
    assert _sync_objects(flag) == []


def test_set_before_wait_returns_at_once():
    flag = CompletionFlag()
    flag.set()
    start = time.monotonic()
    assert flag.wait() is True
    assert flag.wait(0) is True
    assert time.monotonic() - start < 0.1
    assert _sync_objects(flag) == []


def test_timed_out_wait_returns_false_and_the_flag_later_true():
    flag = CompletionFlag()
    assert flag.wait(0.02) is False
    assert flag.wait(0) is False
    assert not flag.is_set()
    flag.set()  # no waiter left inside: set() itself drops the latch
    assert _sync_objects(flag) == []
    assert flag.wait(0.02) is True


def test_a_waiter_that_gave_up_does_not_strand_the_next():
    flag = CompletionFlag()
    assert flag.wait(0.02) is False
    threads, results = _waiters(flag, 1, timeout=5.0)
    wait_for(lambda: _inside(flag) == 1)
    flag.set()
    threads[0].join(2.0)
    assert results == [True]
    assert _sync_objects(flag) == []


class _Preempt:
    """A stand-in for the latch guard that runs ``interleave`` the first
    time a waiter takes it: the waiter is preempted after its first flag
    check and before it publishes the latch."""

    def __init__(self, interleave) -> None:
        self.interleave, self.lock = interleave, threading.Lock()

    def __enter__(self):
        interleave, self.interleave = self.interleave, None
        if interleave is not None:
            interleave()
        self.lock.acquire()

    def __exit__(self, *exc) -> None:
        self.lock.release()


def test_a_set_that_misses_the_latch_strands_no_one_and_leaves_no_lock(monkeypatch):
    """The whole ``set()`` runs before the waiter publishes: the re-check
    must see the flag, and the latch nobody will release must be dropped."""
    flag = CompletionFlag()
    monkeypatch.setattr(calls, "_LATCH_LOCK", _Preempt(flag.set))
    start = time.monotonic()
    assert flag.wait(2.0) is True
    assert time.monotonic() - start < 1.0
    assert _sync_objects(flag) == []


def test_a_late_waiter_does_not_drop_a_latch_another_blocks_on(monkeypatch):
    """``set()`` is preempted between writing the flag and reading the
    latch, and a second waiter runs its whole ``wait()`` in that gap: it
    must leave the latch for ``set()`` to release to the blocked one."""
    flag = CompletionFlag()
    threads, results = _waiters(flag, 1, timeout=5.0)
    wait_for(lambda: _inside(flag) == 1)
    monkeypatch.setattr(calls, "_LATCH_LOCK", _Preempt(lambda: setattr(flag, "_flag", True)))
    assert flag.wait(2.0) is True
    flag.set()  # the rest of set(): read the latch, release it
    threads[0].join(2.0)
    assert results == [True]
    assert _sync_objects(flag) == []


def test_racing_set_and_wait_never_strand_a_waiter_or_keep_a_latch():
    """``set()`` lands anywhere inside ``wait()``'s publish-then-recheck:
    every waiter still returns True, and no finished flag keeps a lock."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(300):
            flag = CompletionFlag()
            threads, results = _waiters(flag, 2, timeout=5.0)
            flag.set()
            for thread in threads:
                thread.join(2.0)  # a stranded waiter would block for 5 s
            assert results == [True, True]
            assert _sync_objects(flag) == []
    finally:
        sys.setswitchinterval(interval)


def test_an_invoked_record_keeps_no_lock_or_event():
    """The regression guard for the RSS gain: a record ``invoke`` waited
    on keeps no latch (nor an Event) once the call returned."""
    cluster = FaasmCluster(n_hosts=2)
    try:
        cluster.register_python("echo", lambda ctx: ctx.write_output(ctx.input()))
        for _ in range(20):
            assert cluster.invoke("echo", b"x") == (0, b"x")
        records = cluster.calls.all_records()
        assert len(records) == 20
        for record in records:
            assert _sync_objects(record.done) == []
    finally:
        cluster.shutdown()
