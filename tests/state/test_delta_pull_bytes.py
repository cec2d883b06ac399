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


def test_forty_rounds_leave_one_range_on_either_side():
    """Sole writer, sole checker: every push lands straight on the version
    the writer's replica was synced at and every pull answers at one
    version, so neither map ever fragments."""
    cluster = FaasmCluster(n_hosts=2)
    try:
        cluster.global_state.set_value(KEY, bytes(SIZE))
        cluster.register_python("writer", _writer)
        cluster.register_python("checker", _checker)
        cluster.warm_sets.add("writer", "host-0")
        cluster.warm_sets.add("checker", "host-1")
        for round_no in range(40):
            _call(cluster, round_no)
        version = cluster.global_state.version(KEY)
        for instance in cluster.instances:
            replica = instance.local_tier.replica(KEY)
            assert replica.synced._spans == [(0, SIZE, version)]
    finally:
        cluster.shutdown()


# ---------------------------------------------------------------------------
# The ``state-read`` shape: a forced chunk pull of a dataset nobody writes
# ---------------------------------------------------------------------------

DATA = "gate/dataset"
CHUNK = 256 << 10
CHUNKS = 4
WRITE = 1000


def _reader(ctx):
    (at,) = struct.unpack("<I", ctx.input())
    ctx.state.pull_state_offset(DATA, at, CHUNK)
    view = ctx.state.get_state_offset(DATA, at, CHUNK, mark_dirty=False)
    ctx.write_output(struct.pack("<I", zlib.adler32(view)))
    return 0


def _scribe(ctx):
    at, fill = struct.unpack("<IB", ctx.input())
    ctx.state.get_state(DATA, mark_dirty=False)  # a pull on the first call only
    ctx.state.set_state_offset(DATA, bytes([fill]) * WRITE, at)
    ctx.state.push_state(DATA)
    return 0


def test_forced_chunk_pull_of_unwritten_bytes_ships_nothing():
    cluster = FaasmCluster(n_hosts=2)
    try:
        store = cluster.global_state
        store.set_value(DATA, bytes(range(256)) * (CHUNKS * CHUNK // 256))
        cluster.register_python("reader", _reader)
        cluster.register_python("scribe", _scribe)
        cluster.warm_sets.add("reader", "host-0")
        cluster.warm_sets.add("scribe", "host-1")
        tier = cluster.instances[0].local_tier
        meter = tier.client.meter

        def read(at):
            """(bytes, round trips) one reader call on ``[at, at+CHUNK)``
            moved; its checksum is checked against the store."""
            before = meter.received_bytes, meter.round_trips
            code, output = cluster.invoke("reader", struct.pack("<I", at))
            assert code == 0 and output == struct.pack(
                "<I", zlib.adler32(store.get_range(DATA, at, CHUNK))
            )
            assert meter.sent_bytes == 0
            return meter.received_bytes - before[0], meter.round_trips - before[1]

        def write(at, fill):
            assert cluster.invoke("scribe", struct.pack("<IB", at, fill))[0] == 0

        # The first pull of a chunk ships it; every later one ships nothing.
        assert read(CHUNK) == (CHUNK, 1)
        for _ in range(3):
            assert read(CHUNK) == (0, 1)
        # One span written inside the chunk: the span and its descriptor. A
        # span written outside it: nothing.
        write(CHUNK + 5000, 0xA1)
        assert read(CHUNK) == (WRITE + SPAN_DESCRIPTOR_BYTES, 1)
        write(3 * CHUNK + 5000, 0xA2)
        assert read(CHUNK) == (0, 1)

        # A chunk straddling two ranges synced at different versions is one
        # trip, asked since the older: it re-ships the write the newer range
        # had already seen, and nothing else.
        assert read(2 * CHUNK) == (CHUNK, 1)
        write(CHUNK + 9000, 0xA3)
        write(2 * CHUNK + 9000, 0xA4)
        assert read(2 * CHUNK) == (WRITE + SPAN_DESCRIPTOR_BYTES, 1)
        assert len(tier.replica(DATA).synced._spans) == 2
        at = CHUNK + CHUNK // 2
        before = meter.received_bytes, meter.round_trips
        tier.pull_chunk(DATA, at, CHUNK, force=True)
        assert (meter.received_bytes - before[0], meter.round_trips - before[1]) == (
            WRITE + SPAN_DESCRIPTOR_BYTES, 1
        )
        assert tier.read_local(DATA, at, CHUNK) == store.get_range(DATA, at, CHUNK)
        # The half of the first chunk it did not reach still owes 0xA3.
        assert read(CHUNK) == (WRITE + SPAN_DESCRIPTOR_BYTES, 1)
        assert read(CHUNK) == read(2 * CHUNK) == (0, 1)

        # Further behind than the write log reaches: the chunk itself, after
        # the unanswerable request's own empty trip, with the cause counted.
        assert tier.pull_stats()["full_fallbacks"]["overflow"] == 0
        for i in range(DEPTH + 1):
            write(CHUNK + 2 * i * WRITE, 0xB0 + i)
        assert read(CHUNK) == (CHUNK, 2)
        assert tier.pull_stats()["full_fallbacks"]["overflow"] == 1
        assert read(CHUNK) == (0, 1)
        # A whole-value write empties the log: the same, once.
        store.set_value(DATA, bytes(CHUNKS * CHUNK))
        assert read(CHUNK) == (CHUNK, 2)
        assert tier.pull_stats()["full_fallbacks"]["overflow"] == 2
        assert read(CHUNK) == (0, 1)

        stats = tier.pull_stats()
        assert stats["full_fallbacks"]["partial"] == 2  # the two first pulls
        assert stats["delta_pulls"] == 12
    finally:
        cluster.shutdown()
