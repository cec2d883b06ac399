"""The fixed cost of one warm call, counted (DESIGN.md §11).

A warm dispatched echo crosses the one road — ``invoke`` → ``dispatch`` →
``_place_and_send`` → ``schedule_batch`` → ``new_attempts`` → ``bus.send``
→ a worker's ``_receive`` → ``_execute_safely`` → ``execute`` →
``complete_attempt`` → ``wait``. This gate counts the Python-level calls
that road makes, on the caller's thread and the workers' (the
``invocation-monitor`` thread's scans are not the call's), as profile
``call`` events averaged over 200 warm calls. The count is a property of
the code, not of the machine, and the road makes no comprehension or
generator call, so it reads the same on every supported Python.
"""

import itertools
import sys
import threading

from repro.runtime import FaasmCluster

#: Measured mean: 45.5 calls per warm echo (87 before the road was cut; a
#: call entering at the host that is not warm pays one more, for the
#: peer's capacity). The ceiling is that plus 3 %, rounded down to whole
#: calls, so one more Python call per call on the road, such as one more
#: counter increment, fails the gate.
CEILING = 46

CALLS = 200


def _echo(ctx):
    ctx.write_output(ctx.input())
    return 0


def test_a_warm_echo_costs_at_most_its_counted_python_calls():
    events, on = itertools.count(), [False]

    def profile(frame, event, arg):
        if on[0] and event == "call" and (
            threading.current_thread().name != "invocation-monitor"
        ):
            next(events)

    # A worker inherits the profiler only if it is set before it starts.
    threading.setprofile(profile)
    cluster = FaasmCluster(n_hosts=2)
    try:
        cluster.register_python("echo", _echo)
        for _ in range(50):  # warm the pools, the warm set and its cache
            assert cluster.invoke("echo", b"x") == (0, b"x")
        sys.setprofile(profile)
        on[0] = True
        for _ in range(CALLS):
            cluster.invoke("echo", b"x")
    finally:
        on[0] = False
        sys.setprofile(None)
        threading.setprofile(None)
        cluster.shutdown()
    per_call = next(events) / CALLS
    assert per_call <= CEILING, (
        f"a warm echo made {per_call:.2f} Python-level calls, "
        f"above the ceiling of {CEILING}"
    )
