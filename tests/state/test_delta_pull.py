"""The delta pull protocol, held by test (DESIGN.md §10).

A forced pull of a fully-present replica asks the store for the spans
written since the version the replica last synced at. Whatever the
interleaving of writers, resizes, deletes and reshards, three things must
hold after it: the replica is byte-identical to the store; it moved no
more than what was written since its previous sync (plus a descriptor per
span), or exactly the value on a *recorded* fallback; and a write version
never names two values. The machine drives one store and three tiers
through every operation that can touch a key; the cases below it pin the
paths the issue names one at a time. A second machine and two cluster
scenarios hold the other half of the demand path: partial replicas filled
by non-forced chunk pulls, where a local write must never be shadowed.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import settings, stateful, strategies as st

from repro.chaos import ChaosPlan
from repro.chaos.engine import ChaosEngine
from repro.chaos.plan import StripeOutage
from repro.chaos.state import ChaosStateStore
from repro.runtime import FaasmCluster
from repro.state.api import StateAPI
from repro.state.kv import (
    SPAN_DESCRIPTOR_BYTES,
    WRITE_LOG_DEPTH,
    GlobalStateStore,
    StateClient,
    StateUnavailableError,
)
from repro.state.local import LocalTier

KEY = "delta/key"
_MAX = 96  # small value => dense span collisions


class _RacingStore(GlobalStateStore):
    """A store whose reads can be raced: ``racer`` runs after the
    request arrived and before any byte is copied, which is where a guest
    store into a mapped page lands when it races a pull."""

    racer = None

    def _race(self):
        racer, self.racer = self.racer, None
        if racer is not None:
            racer()

    def get_since(self, key, since, view, extra=()):
        self._race()
        return super().get_since(key, since, view, extra)

    def get_ranges_into_versioned(self, key, dests):
        self._race()
        return super().get_ranges_into_versioned(key, dests)


class DeltaPullMachine(stateful.RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = _RacingStore(n_stripes=2)
        self.store.set_value(KEY, bytes(64))
        self.tiers = [
            LocalTier(f"host-{i}", StateClient(self.store)) for i in range(3)
        ]
        for tier in self.tiers:
            tier.pull(KEY)  # every tier starts synced: deltas from step one
        #: Per tier: payload bytes and spans written to the global value
        #: since the tier's last forced pull of the whole key.
        self.written = [0, 0, 0]
        self.spans = [0, 0, 0]
        self.version = self.store.version(KEY)

    tier_ids = st.integers(0, 2)
    offsets = st.integers(0, _MAX - 1)
    lengths = st.integers(1, _MAX)
    sizes = st.integers(1, _MAX)
    fills = st.integers(1, 255)

    # -- bookkeeping ----------------------------------------------------
    def _mutated(self, nbytes=0, nspans=0):
        """A global write happened: versions only ever go up, by one."""
        version = self.store.version(KEY)
        assert version > self.version
        self.version = version
        for i in range(3):
            self.written[i] += nbytes
            self.spans[i] += nspans

    def _push(self, tier_id, push):
        meter = self.tiers[tier_id].client.meter
        sent, trips = meter.sent_bytes, meter.round_trips
        nspans = len(self.tiers[tier_id].replica(KEY).dirty.spans) + 1
        push()
        if meter.round_trips > trips:
            self._mutated(meter.sent_bytes - sent, nspans)

    def _check_synced(self, tier_id):
        """After a forced pull: byte-identical wherever not (still) dirty,
        which without a racing writer is everywhere."""
        rep = self.tiers[tier_id].replica(KEY)
        value = self.store.get_value(KEY)
        assert rep.value_size == len(value)
        assert rep.present.covers(0, len(value))
        local = rep.region.read(0, len(value))
        dirty = {i for s, e in rep.dirty.spans for i in range(s, e)}
        for i, (mine, theirs) in enumerate(zip(local, value)):
            assert mine == theirs or i in dirty, f"byte {i} diverged"
        return dirty

    def _forced_pull(self, tier_id):
        tier = self.tiers[tier_id]
        rep = tier.replica(KEY)
        allowed = (
            self.written[tier_id] + rep.dirty.total()
            + SPAN_DESCRIPTOR_BYTES
            * (self.spans[tier_id] + len(rep.dirty.spans))
        )
        received = tier.client.meter.received_bytes
        fallbacks = sum(tier.full_fallbacks.values())
        tier.pull(KEY, force=True)
        received = tier.client.meter.received_bytes - received
        if sum(tier.full_fallbacks.values()) > fallbacks:
            assert received == self.store.size(KEY)
        else:
            assert received <= allowed
        self.written[tier_id] = self.spans[tier_id] = 0

    # -- local writes ----------------------------------------------------
    @stateful.rule(tier_id=tier_ids, offset=offsets, length=lengths, fill=fills)
    def ranged_write(self, tier_id, offset, length, fill):
        length = min(length, _MAX - offset)
        self.tiers[tier_id].write_local(KEY, bytes([fill]) * length, offset)

    @stateful.rule(tier_id=tier_ids, size=sizes, fill=fills)
    def set_state(self, tier_id, size, fill):
        StateAPI(self.tiers[tier_id]).set_state(KEY, bytes([fill]) * size)

    @stateful.rule(tier_id=tier_ids, size=sizes, fill=fills)
    def sized_write(self, tier_id, size, fill):
        """One byte plus a new logical size: growth the dirty set never
        sees (the zero fill is not a write), carried by the next push."""
        self.tiers[tier_id].write_local(KEY, bytes([fill]), 0, size=size)

    # -- global writes ---------------------------------------------------
    @stateful.rule(tier_id=tier_ids)
    def push(self, tier_id):
        self._push(tier_id, lambda: self.tiers[tier_id].push(KEY))

    @stateful.rule(tier_id=tier_ids, offset=offsets, length=lengths)
    def push_chunk(self, tier_id, offset, length):
        tier = self.tiers[tier_id]
        size = tier.replica(KEY).value_size
        if offset >= size:
            return
        length = min(length, size - offset)
        self._push(tier_id, lambda: tier.push_chunk(KEY, offset, length))

    @stateful.rule(tier_id=tier_ids, fill=fills)
    def append(self, tier_id, fill):
        if self.store.size(KEY) < _MAX:
            StateAPI(self.tiers[tier_id]).append_state(KEY, bytes([fill]))
            self._mutated()

    @stateful.rule(size=sizes, fill=fills)
    def set_value(self, size, fill):
        self.store.set_value(KEY, bytes([fill]) * size)
        self._mutated()

    @stateful.rule(size=sizes, fill=fills)
    def delete_and_recreate(self, size, fill):
        self.store.delete(KEY)
        self._mutated()
        self.store.set_value(KEY, bytes([fill]) * size)
        self._mutated()

    @stateful.rule(n_stripes=st.integers(1, 4))
    def reshard(self, n_stripes):
        value = self.store.get_value(KEY)
        self.store.reshard(n_stripes)
        assert self.store.get_value(KEY) == value
        assert self.store.version(KEY) == self.version

    # -- pulls -------------------------------------------------------------
    @stateful.rule(tier_id=tier_ids)
    def forced_pull(self, tier_id):
        self._forced_pull(tier_id)
        assert not self._check_synced(tier_id)

    @stateful.rule(tier_id=tier_ids, offset=offsets, length=lengths)
    def forced_chunk_pull(self, tier_id, offset, length):
        tier = self.tiers[tier_id]
        received = tier.client.meter.received_bytes
        try:
            rep = tier.pull_chunk(KEY, offset, length, force=True)
        except IndexError:
            assert offset + length > self.store.size(KEY)
            return
        assert tier.client.meter.received_bytes - received == length
        assert rep.region.read(offset, length) == self.store.get_range(
            KEY, offset, length
        )

    @stateful.rule(tier_id=tier_ids, offset=offsets, fill=fills)
    def guest_write_racing_a_pull(self, tier_id, offset, fill):
        """A store into the mapped region that lands mid-pull stays a
        local write: still dirty afterwards, never silently dropped."""
        rep = self.tiers[tier_id].replica(KEY)
        offset = min(offset, rep.value_size - 1)
        self.store.racer = lambda: rep.region.write(bytes([fill]), offset)
        self._forced_pull(tier_id)
        assert self.store.racer is None  # it ran
        assert self._check_synced(tier_id) == {offset}

    @stateful.invariant()
    def versions_never_go_back(self):
        assert self.store.version(KEY) == self.version


DeltaPullMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestDeltaPullMachine = DeltaPullMachine.TestCase


# ---------------------------------------------------------------------------
# The named paths, one at a time
# ---------------------------------------------------------------------------

SIZE = 64 * 1024
SPAN = 1024


def _two_tiers(store=None):
    store = store if store is not None else GlobalStateStore()
    store.set_value(KEY, b"\x11" * SIZE)
    tiers = [LocalTier(f"host-{i}", StateClient(store)) for i in range(2)]
    for tier in tiers:
        tier.pull(KEY)
    return store, tiers


def _pulled(tier):
    """(bytes, round trips) one forced pull of KEY moved."""
    meter = tier.client.meter
    received, trips = meter.received_bytes, meter.round_trips
    tier.pull(KEY, force=True)
    return meter.received_bytes - received, meter.round_trips - trips


def _write_and_push(tier, slot, fill):
    tier.write_local(KEY, bytes([fill]) * SPAN, slot * SPAN)
    tier.push(KEY)


def _in_sync(store, tier):
    rep = tier.replica(KEY)
    return rep.region.read(0, rep.value_size) == store.get_value(KEY)


def test_delta_ships_the_written_spans_in_one_round_trip():
    store, (writer, reader) = _two_tiers()
    _write_and_push(writer, 3, 0x22)
    assert _pulled(reader) == (SPAN + SPAN_DESCRIPTOR_BYTES, 1)
    assert _in_sync(store, reader)
    # Nothing written since: one round trip, no payload (the price of
    # having no hint that says "clean").
    assert _pulled(reader) == (0, 1)
    stats = reader.pull_stats()
    assert stats["delta_pulls"] == 2
    assert stats["bytes_saved"] == (SIZE - SPAN) + SIZE
    assert not any(stats["full_fallbacks"].values())


def test_log_overflow_falls_back_to_the_full_pull_then_deltas_again():
    store, (writer, reader) = _two_tiers()
    for i in range(WRITE_LOG_DEPTH):
        _write_and_push(writer, i, 0x30 + i)
    # Exactly as far behind as the log reaches: still a delta.
    # Exactly as far behind as the log reaches: still a delta (of one
    # span, the adjacent writes merged).
    assert _pulled(reader) == (
        WRITE_LOG_DEPTH * SPAN + SPAN_DESCRIPTOR_BYTES, 1
    )
    for i in range(WRITE_LOG_DEPTH + 1):
        _write_and_push(writer, 2 * i, 0x40 + i)
    assert _pulled(reader) == (SIZE, 2)
    assert reader.pull_stats()["full_fallbacks"]["overflow"] == 1
    assert _in_sync(store, reader)
    _write_and_push(writer, 5, 0x55)
    assert _pulled(reader) == (SPAN + SPAN_DESCRIPTOR_BYTES, 1)
    assert _in_sync(store, reader)


def test_interleaved_writers_on_two_hosts():
    store, (a, b) = _two_tiers()
    base = store.version(KEY)
    _write_and_push(a, 1, 0xA1)  # base + 1: straight onto a's synced-at
    assert a.replica(KEY).gver == base + 1
    _write_and_push(b, 2, 0xB2)  # base + 2, but b is synced at base
    assert b.replica(KEY).gver == base
    # b re-fetches a's span and its own; a fetches only b's.
    assert _pulled(b) == (2 * SPAN + SPAN_DESCRIPTOR_BYTES, 1)  # adjacent
    assert _pulled(a) == (SPAN + SPAN_DESCRIPTOR_BYTES, 1)
    assert _in_sync(store, a) and _in_sync(store, b)
    assert a.replica(KEY).gver == b.replica(KEY).gver == base + 2


def test_unpushed_local_writes_are_overwritten():
    store, (writer, reader) = _two_tiers()
    reader.write_local(KEY, b"\x99" * SPAN, 10 * SPAN)  # never pushed
    _write_and_push(writer, 3, 0x22)
    assert _pulled(reader) == (2 * (SPAN + SPAN_DESCRIPTOR_BYTES), 1)
    assert _in_sync(store, reader)
    assert not reader.replica(KEY).dirty.spans
    reader.push(KEY)  # nothing left to flush
    assert store.get_range(KEY, 10 * SPAN, SPAN) == b"\x11" * SPAN


def test_unknown_version_partial_and_resized_fall_back():
    store, (writer, reader) = _two_tiers()
    fresh = LocalTier("host-2", StateClient(store))
    fresh.write_local(KEY, b"\x01" * SPAN, 0)  # created locally: no version
    assert _pulled(fresh)[0] == SIZE
    assert fresh.pull_stats()["full_fallbacks"]["unknown-version"] == 1

    chunky = LocalTier("host-3", StateClient(store))
    chunky.pull_chunk(KEY, 0, SPAN)
    chunky.replica(KEY).gver = store.version(KEY)  # even with a version
    assert _pulled(chunky)[0] == SIZE
    assert chunky.pull_stats()["full_fallbacks"]["partial"] == 1

    StateAPI(writer).set_state(KEY, b"\x77" * (SIZE // 2))
    writer.push(KEY)
    assert _pulled(reader) == (SIZE // 2, 2)
    assert reader.pull_stats()["full_fallbacks"]["resized"] == 1
    assert _in_sync(store, reader)
    # The shrinking pusher itself stays synced: its next pull is a delta.
    assert _pulled(writer) == (0, 1)


def _outage_scenario(outage_at):
    """Writer pushed a span, reader holds an unpushed write; the reader's
    forced pull is next. The key's stripe goes dark for its
    ``outage_at``-th operation."""
    stripe = zlib.crc32(KEY.encode()) % 16
    engine = ChaosEngine(ChaosPlan(
        seed=3, stripe_outages=(StripeOutage(stripe, outage_at, n_ops=1),)
    ))
    store, (writer, reader) = _two_tiers(ChaosStateStore(engine))
    reader.client.UNAVAILABLE_RETRIES = 0  # let the outage through
    _write_and_push(writer, 3, 0x22)
    reader.write_local(KEY, b"\x99" * SPAN, 10 * SPAN)
    return store, reader, lambda: engine._stripe_ops[stripe]


def test_stripe_outage_mid_delta_pull_claims_nothing():
    # Dry run: which stripe operation is the delta read? It is one
    # operation — one pass through the chaos choke point — not two.
    store, reader, ops = _outage_scenario(outage_at=10**9)
    delta_op = ops()
    assert _pulled(reader) == (2 * (SPAN + SPAN_DESCRIPTOR_BYTES), 1)
    assert ops() == delta_op + 1

    store, reader, ops = _outage_scenario(outage_at=delta_op)
    rep = reader.replica(KEY)

    def claims():
        return (rep.gver, rep.present.spans, rep.dirty.spans,
                rep.value_size, bytes(rep.region.backing))

    before = claims()
    with pytest.raises(StateUnavailableError):
        reader.pull(KEY, force=True)
    assert claims() == before
    assert reader.pull_stats()["delta_pulls"] == 0
    # The retry is an ordinary delta pull.
    assert _pulled(reader) == (2 * (SPAN + SPAN_DESCRIPTOR_BYTES), 1)
    assert _in_sync(store, reader)


def test_versions_survive_reshard_and_delete_recreate():
    store = GlobalStateStore(n_stripes=2)
    store.set_value(KEY, b"\x11" * SIZE)
    tier = LocalTier("host-0", StateClient(store))
    other = LocalTier("host-1", StateClient(store))
    tier.pull(KEY)
    other.pull(KEY)
    _write_and_push(other, 1, 0x21)
    version = store.version(KEY)
    store.delete("gone")
    gone = store.version("gone")

    store.reshard(5)
    assert store.version(KEY) == version
    assert store.version("gone") == gone and not store.exists("gone")
    # One write behind: the write log survived too, so still a delta.
    assert _pulled(tier) == (SPAN + SPAN_DESCRIPTOR_BYTES, 1)
    assert _in_sync(store, tier)
    # Level with the store: an exact, empty delta.
    assert _pulled(other) == (0, 1)
    _write_and_push(other, 2, 0x22)
    assert store.version(KEY) == version + 1
    assert _pulled(tier) == (SPAN + SPAN_DESCRIPTOR_BYTES, 1)

    store.delete(KEY)
    store.set_value(KEY, b"\x33" * SIZE)  # same size, new life
    assert store.version(KEY) == version + 3
    assert _pulled(tier)[0] == SIZE
    assert _in_sync(store, tier)
    store.set_value("gone", b"back")
    assert store.version("gone") == gone + 1


# ---------------------------------------------------------------------------
# Partial replicas: non-forced chunk pulls vs guest writes
# ---------------------------------------------------------------------------

_MSIZE = 64  # small value => dense rule collisions


class DemandInterleaving(stateful.RuleBasedStateMachine):
    """One host's tier against a global store mutated behind its back.

    The replica is born partial (by a local write or a chunk pull), which
    the machine above never is. The model tracks, per byte, (a) the
    guest's unpushed local writes and (b) every value the global tier has
    ever held:

    * a byte the guest wrote locally (and has not force-pulled away) reads
      back *exactly* — no gap fill or delta pull may shadow it;
    * any other byte reads as *some* value the global tier legally held
      (§4.1 allows stale reads; it never allows invented ones);
    * an op raises the store's range error only when it genuinely needed
      a byte past the current *global* value end (a push of a locally
      created value may legally truncate the global value — the model
      mirrors the size machinery so it knows when that happened).
    """

    def __init__(self):
        super().__init__()
        self.store = GlobalStateStore()
        self.store.set_value(KEY, bytes(_MSIZE))
        self.tier = LocalTier("host", StateClient(self.store))
        #: offset -> value for unpushed guest writes.
        self.local = {}
        #: per-byte set of every value the global tier has held.
        self.history = [{0} for _ in range(_MSIZE)]
        #: current global value length (pushes may shrink it).
        self.gsize = _MSIZE
        #: replica's logical length / last synced length (None: no replica).
        self.lsize = None
        self.synced = None

    offsets = st.integers(min_value=0, max_value=_MSIZE - 1)
    lengths = st.integers(min_value=1, max_value=_MSIZE)
    values = st.integers(min_value=1, max_value=255)

    def _span(self, offset, length):
        return offset, min(_MSIZE, offset + length)

    @stateful.rule(offset=offsets, length=lengths, value=values)
    def remote_write(self, offset, length, value):
        start, end = self._span(offset, length)
        self.store.set_range(KEY, start, bytes([value]) * (end - start))
        self.gsize = max(self.gsize, end)
        for i in range(start, end):
            self.history[i].add(value)

    @stateful.rule(offset=offsets, length=lengths, value=values)
    def guest_write(self, offset, length, value):
        start, end = self._span(offset, length)
        self.lsize = end if self.lsize is None else max(self.lsize, end)
        self.tier.write_local(KEY, bytes([value]) * (end - start), start)
        for i in range(start, end):
            self.local[i] = value

    @stateful.rule()
    def push(self):
        if self.lsize is None:
            self.tier.push(KEY)  # creates a clean replica; pushes nothing
            self.lsize = self.synced = self.gsize
            return
        if self.local or self.synced != self.lsize:
            # The push truncates (or grows, zero-filled) the global value
            # to the replica's logical length and publishes local writes.
            self.gsize = self.synced = self.lsize
            for i, value in self.local.items():
                self.history[i].add(value)
        self.tier.push(KEY)
        self.local.clear()

    @stateful.rule()
    def force_pull(self):
        # A forced pull deliberately discards unpushed local writes. After
        # the first one the replica is synced at a version, so later ones
        # are delta pulls of whatever ``remote_write`` logged since.
        self.tier.pull(KEY, force=True)
        self.lsize = self.synced = self.gsize
        self.local.clear()
        assert self.tier.read_local(KEY, 0, self.gsize) == self.store.get_value(KEY)

    @stateful.rule(offset=offsets, length=lengths)
    def guest_read(self, offset, length):
        start, end = self._span(offset, length)
        if self.lsize is None:  # the pull creates it, global-sized
            self.lsize = self.synced = self.gsize
        self.lsize = max(self.lsize, end)  # pull_chunk grows to cover
        try:
            rep = self.tier.pull_chunk(KEY, start, end - start)
        except IndexError:
            assert end > self.gsize  # a needed gap was past the global end
            return
        data = rep.region.read(start, end - start)
        for i, byte in enumerate(data, start=start):
            if i in self.local:
                assert byte == self.local[i], (
                    f"local write at {i} shadowed: "
                    f"wrote {self.local[i]}, read {byte}"
                )
            else:
                assert byte in self.history[i], (
                    f"byte {i} read {byte}, never held by the global tier"
                )


DemandInterleaving.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestDemandInterleaving = DemandInterleaving.TestCase


CHUNK = 4 * 1024


def test_concurrent_disjoint_range_writers_union_in_the_global_value():
    """Four calls spread over two hosts each pull, fill and push their own
    chunk of one key: the global value is the union of the pushes."""
    cluster = FaasmCluster(n_hosts=2)
    try:
        cluster.global_state.set_value(KEY, bytes(16 * CHUNK))

        def writer(ctx):
            slot = int(ctx.input())
            view = ctx.state.get_state_offset(KEY, slot * CHUNK, CHUNK)
            view[:] = bytes([slot + 1]) * CHUNK
            ctx.state.push_state_offset(KEY, slot * CHUNK, CHUNK)
            return 0

        cluster.register_python("writer", writer)
        ids = [cluster.dispatch("writer", str(i).encode()) for i in range(4)]
        assert [cluster.calls.wait(cid, 10.0) for cid in ids] == [0] * 4
        assert cluster.global_state.get_value(KEY) == b"".join(
            bytes([slot + 1]) * CHUNK for slot in range(4)
        ) + bytes(12 * CHUNK)
    finally:
        cluster.shutdown()


def test_shrink_then_regrow_reads_zeros_in_the_tail():
    """A pulled value that shrinks and then regrows through
    ``get_state(size)``: the bytes the larger value held there must not
    resurface, locally or in the global tier — on a fresh replica and on
    a reused one."""
    cluster = FaasmCluster(n_hosts=1)
    try:

        def regrow(ctx):
            ctx.state.pull_state(KEY)  # the whole 0xaa value is local
            ctx.state.set_state(KEY, b"\xbb" * 1024)
            ctx.state.push_state(KEY)
            view = ctx.state.get_state(KEY, 2 * CHUNK)
            view[0] = 0xCC
            ctx.state.push_state(KEY)
            ctx.write_output(bytes(
                ctx.state.get_state_offset(KEY, CHUNK, 64, mark_dirty=False)
            ))
            return 0

        cluster.register_python("regrow", regrow)
        for _ in range(2):
            cluster.global_state.set_value(KEY, b"\xaa" * (16 * CHUNK))
            assert cluster.invoke("regrow") == (0, bytes(64))
            assert cluster.global_state.get_value(KEY) == (
                b"\xcc" + b"\xbb" * 1023 + bytes(2 * CHUNK - 1024)
            )
    finally:
        cluster.shutdown()
