"""Exact-count gate: what one chained state call moves (DESIGN.md §10).

The ``state-write`` shape of ``benchmarks/e2e`` in miniature, on a default
two-host cluster: a parent on host-0 writes 16 x 4 KiB spans of a 1 MiB
key, pushes and chains a child on host-1 that force-pulls the key. The
meters are counts, not timings, so the assertions are equalities: the
pull moves the bytes that were pushed plus a descriptor per span, in one
round trip — and the whole value only when the child is further behind
than the store's write log reaches.
"""

from __future__ import annotations

import itertools
import struct
import zlib

from repro.runtime import FaasmCluster
from repro.state.kv import SPAN_DESCRIPTOR_BYTES, WRITE_LOG_DEPTH

KEY = "gate/grid"
SIZE = 1 << 20
SPAN = 4096
SPANS = 16
DEPTH = WRITE_LOG_DEPTH
#: Each round writes every other slot of its own block of slots.
BLOCK = 2 * SPANS
assert DEPTH * BLOCK * SPAN <= SIZE


def _writer(ctx):
    payload = ctx.input()
    offsets = struct.unpack_from(f"<{SPANS}I", payload)
    fill, chain = payload[4 * SPANS : 4 * SPANS + 1], payload[-1]
    ctx.state.get_state(KEY, mark_dirty=False)  # a pull on the first call only
    for offset in offsets:
        ctx.state.set_state_offset(KEY, fill * SPAN, offset)
    ctx.state.push_state(KEY)
    if chain:
        child = ctx.chain("checker", payload[: 4 * SPANS])
        ctx.await_call(child)
        ctx.write_output(ctx.call_output(child))
    return 0


def _checker(ctx):
    offsets = struct.unpack_from(f"<{SPANS}I", ctx.input())
    ctx.state.pull_state(KEY)
    checksum = 1
    for offset in offsets:
        checksum = zlib.adler32(
            ctx.state.get_state_offset(KEY, offset, SPAN, mark_dirty=False),
            checksum,
        )
    ctx.write_output(struct.pack("<I", checksum))
    return 0


def _call(cluster, round_no, chain=True):
    """One parent call writing 16 unaligned spans; returns the per-host
    meter deltas ``(sent, received, round trips)``."""
    # No two spans of DEPTH consecutive rounds overlap or touch, so the
    # spans a delta returns are exactly the spans that were pushed.
    offsets = [
        (BLOCK * (round_no % DEPTH) + 2 * i) * SPAN + 100 for i in range(SPANS)
    ]
    fill = bytes([1 + round_no])
    meters = [i.local_tier.client.meter for i in cluster.instances]
    before = [(m.sent_bytes, m.received_bytes, m.round_trips) for m in meters]
    code, output = cluster.invoke(
        "writer", struct.pack(f"<{SPANS}I", *offsets) + fill + bytes([chain])
    )
    assert code == 0
    if chain:
        expected = 1
        for _ in offsets:
            expected = zlib.adler32(fill * SPAN, expected)
        assert output == struct.pack("<I", expected)
    return [
        (m.sent_bytes - s, m.received_bytes - r, m.round_trips - t)
        for m, (s, r, t) in zip(meters, before)
    ]


def test_chained_call_moves_exactly_the_written_spans():
    cluster = FaasmCluster(n_hosts=2)
    try:
        cluster.global_state.set_value(KEY, bytes(SIZE))
        cluster.register_python("writer", _writer)
        cluster.register_python("checker", _checker)
        cluster.warm_sets.add("writer", "host-0")
        cluster.warm_sets.add("checker", "host-1")
        written = SPANS * SPAN
        delta = written + SPANS * SPAN_DESCRIPTOR_BYTES

        rounds = itertools.count()
        pushed_only = [(written, 0, 1), (0, 0, 0)]

        # First call: both replicas are born by a whole-value pull.
        parent, child = _call(cluster, next(rounds))
        assert parent == (written, SIZE, 2)
        assert child == (0, SIZE, 1)

        # Steady state: 2 round trips per call, pull == push + descriptors.
        for _ in range(3):
            parent, child = _call(cluster, next(rounds))
            assert [parent, child] == [(written, 0, 1), (0, delta, 1)]

        # The child falls exactly as far behind as the log reaches: still
        # a delta, of every span pushed meanwhile.
        for _ in range(DEPTH - 1):
            assert _call(cluster, next(rounds), chain=False) == pushed_only
        parent, child = _call(cluster, next(rounds))
        assert child == (0, DEPTH * delta, 1)

        # One push further and the first call after pulls the whole value
        # (the unanswerable delta request is its own, empty round trip) ...
        for _ in range(DEPTH):
            assert _call(cluster, next(rounds), chain=False) == pushed_only
        parent, child = _call(cluster, next(rounds))
        assert child == (0, SIZE, 2)
        # ... and the one after that is a delta again.
        parent, child = _call(cluster, next(rounds))
        assert [parent, child] == [(written, 0, 1), (0, delta, 1)]

        tier = cluster.instances[1].local_tier.pull_stats()
        assert tier["delta_pulls"] == 5
        assert tier["full_fallbacks"]["overflow"] == 1
        assert cluster.global_state.get_value(KEY) == bytes(
            cluster.instances[0].local_tier.replica(KEY).region.view(0, SIZE)
        )
    finally:
        cluster.shutdown()
