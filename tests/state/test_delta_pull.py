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
from repro.wasm.memory import LinearMemory
from repro.wasm.types import PAGE_SIZE, Limits, MemoryType

KEY = "delta/key"
_MAX = 96  # small value => dense span collisions
_ALL = 2 * _MAX  # no rule makes a value, local or global, this long


class _RacingStore(GlobalStateStore):
    """A store whose reads can be raced: ``racer`` runs after the
    request arrived and before any byte is copied, which is where a guest
    store into a mapped page lands when it races a pull."""

    racer = None

    def _race(self):
        racer, self.racer = self.racer, None
        if racer is not None:
            racer()

    def get_since(self, key, offset, length, since, view, extra=()):
        self._race()
        return super().get_since(key, offset, length, since, view, extra)

    def get_ranges_into_versioned(self, key, dests):
        self._race()
        return super().get_ranges_into_versioned(key, dests)


class DeltaPullMachine(stateful.RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = _RacingStore(n_stripes=2)
        self.store.set_value(KEY, b"\xee" * 64)  # not zeros: a zero fill shows
        self.tiers = [
            LocalTier(f"host-{i}", StateClient(self.store)) for i in range(3)
        ]
        for tier in self.tiers:
            tier.pull(KEY)  # every tier starts synced: deltas from step one
        self.version = self.store.version(KEY)
        #: The model's own clock and log: one ``(tick, spans)`` per global
        #: write (a write that is not ranged counts as the whole value).
        self.tick = 0
        self.writes: list[tuple[int, list[tuple[int, int]]]] = []
        #: Per tier and byte: the tick at which a pull last brought it.
        self.pulled_at = [[0] * _ALL for _ in range(3)]
        #: Per byte: the store version of the last write that covered it.
        self.written_at = [self.version] * _ALL

    tier_ids = st.integers(0, 2)
    offsets = st.integers(0, _MAX - 1)
    lengths = st.integers(1, _MAX)
    sizes = st.integers(1, _MAX)
    fills = st.integers(1, 255)

    # -- bookkeeping ----------------------------------------------------
    def _mutated(self, spans=((0, _ALL),)):
        """A global write happened: versions only ever go up, by one."""
        version = self.store.version(KEY)
        assert version > self.version
        self.version = version
        self.tick += 1
        self.writes.append((self.tick, list(spans)))
        for start, end in spans:
            self.written_at[start:end] = [version] * (end - start)

    def _push(self, tier_id, spans, push):
        meter = self.tiers[tier_id].client.meter
        trips = meter.round_trips
        push()
        if meter.round_trips > trips:
            self._mutated(spans)

    def _check_synced(self, tier_id):
        """After a forced pull: byte-identical wherever not (still) dirty,
        which without a racing writer is everywhere."""
        rep = self.tiers[tier_id].replica(KEY)
        value = self.store.get_value(KEY)
        assert rep.value_size == len(value)
        assert rep.synced.covers(0, len(value))
        local = rep.region.read(0, len(value))
        dirty = {i for s, e in rep.dirty.spans for i in range(s, e)}
        for i, (mine, theirs) in enumerate(zip(local, value)):
            assert mine == theirs or i in dirty, f"byte {i} diverged"
        return dirty

    def _forced_pull(self, tier_id, start=0, end=None):
        """Force-pull ``[start, end)`` (the whole key without ``end``) and
        hold the result to the protocol: the range equals the store; it
        moved no more than what was written inside it since its oldest
        byte was last pulled plus its own dirty spans (and a descriptor
        per span), or exactly the range on a *recorded* fall-back; and
        nothing outside it — bytes or dirty marks — was touched."""
        tier = self.tiers[tier_id]
        rep = tier.replica(KEY)
        whole = end is None
        if whole:
            end = rep.value_size
        since = min(self.pulled_at[tier_id][start:end], default=0)
        owed = [
            (max(s, start), min(e, end))
            for tick, spans in self.writes if tick > since
            for s, e in spans if s < end and e > start
        ] + rep.dirty.intersect(start, end)
        allowed = sum(e - s + SPAN_DESCRIPTOR_BYTES for s, e in owed)
        before = rep.region.read(0, rep.value_size)  # the logical value
        marks = rep.dirty.intersect(0, start) + rep.dirty.intersect(end, 1 << 30)
        meter = tier.client.meter
        received, trips = meter.received_bytes, meter.round_trips
        fallbacks = sum(tier.full_fallbacks.values())
        if whole:
            tier.pull(KEY, force=True)
            end = self.store.size(KEY)
        else:
            tier.pull_chunk(KEY, start, end - start, force=True)
            after = rep.region.read(0, len(before))
            assert after[:start] == before[:start]
            assert after[end:len(before)] == before[end:]
            assert marks == (
                rep.dirty.intersect(0, start) + rep.dirty.intersect(end, 1 << 30)
            )
        received = meter.received_bytes - received
        if sum(tier.full_fallbacks.values()) > fallbacks:
            assert received == end - start
        else:
            assert received <= allowed
            assert meter.round_trips - trips == 1
        self.pulled_at[tier_id][start:end] = [self.tick] * (end - start)
        got = rep.region.read(start, end - start)
        theirs = self.store.get_range(KEY, start, end - start)
        dirty = {i for s, e in rep.dirty.intersect(start, end) for i in range(s, e)}
        for i, (mine, byte) in enumerate(zip(got, theirs), start=start):
            assert mine == byte or i in dirty, f"byte {i} diverged"
        return dirty

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
        rep = self.tiers[tier_id].replica(KEY)
        spans = rep.dirty.intersect(0, rep.value_size)
        if rep.value_size != self.store.size(KEY):
            spans = [(0, _ALL)]  # the push resizes: not a ranged write
        self._push(tier_id, spans, lambda: self.tiers[tier_id].push(KEY))

    @stateful.rule(tier_id=tier_ids, offset=offsets, length=lengths)
    def push_chunk(self, tier_id, offset, length):
        tier = self.tiers[tier_id]
        size = tier.replica(KEY).value_size
        if offset >= size:
            return
        length = min(length, size - offset)
        self._push(
            tier_id, [(offset, offset + length)],
            lambda: tier.push_chunk(KEY, offset, length),
        )

    @stateful.rule(tier_id=tier_ids, fill=fills)
    def append(self, tier_id, fill):
        if self.store.size(KEY) < _MAX:
            StateAPI(self.tiers[tier_id]).append_state(KEY, bytes([fill]))
            self._mutated()

    @stateful.rule(size=sizes, fill=fills)
    def set_value(self, size, fill):
        self.store.set_value(KEY, bytes([fill]) * size)
        self._mutated()

    @stateful.rule(fill=fills)
    def replace_value(self, fill):
        """A whole-value write of the same size: nothing but the emptied
        write log says a replica of that size is stale."""
        self.store.set_value(KEY, bytes([fill]) * self.store.size(KEY))
        self._mutated()

    @stateful.rule(offset=offsets, length=lengths, fill=fills)
    def remote_ranged_write(self, offset, length, fill):
        """A ranged write by nobody's tier (another cluster member)."""
        size = self.store.size(KEY)
        offset = min(offset, size - 1)
        length = min(length, size - offset)
        self.store.set_range(KEY, offset, bytes([fill]) * length)
        self._mutated([(offset, offset + length)])

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
        assert not self._forced_pull(tier_id)
        assert not self._check_synced(tier_id)

    @stateful.rule(tier_id=tier_ids, offset=offsets, length=lengths)
    def forced_chunk_pull(self, tier_id, offset, length):
        """A chunk of the replica's own value: a delta whenever the range
        is present, versioned and the sizes agree."""
        size = self.tiers[tier_id].replica(KEY).value_size
        offset = min(offset, size - 1)
        self.forced_chunk_pull_anywhere(tier_id, offset, min(length, size - offset))

    @stateful.rule(tier_id=tier_ids, offset=offsets, length=lengths)
    def forced_chunk_pull_anywhere(self, tier_id, offset, length):
        """... or of bytes the replica, or the store, may not reach."""
        try:
            assert not self._forced_pull(tier_id, offset, offset + length)
        except IndexError:
            assert offset + length > self.store.size(KEY)

    @stateful.rule(tier_id=tier_ids, offset=offsets, length=lengths)
    def reborn_partial(self, tier_id, offset, length):
        """The tier forgets the key and demands one chunk of it: a replica
        with gaps, whose filled ranges each carry the version they were
        read at."""
        tier = self.tiers[tier_id]
        length = min(length, self.store.size(KEY) - offset)
        if length <= 0:
            return
        tier.drop(KEY)
        received = tier.client.meter.received_bytes
        rep = tier.pull_chunk(KEY, offset, length)
        assert tier.client.meter.received_bytes - received == length
        assert rep.synced.missing(0, rep.value_size) == [
            (s, e) for s, e in [(0, offset), (offset + length, rep.value_size)]
            if s < e
        ]
        self.pulled_at[tier_id][offset:offset + length] = [self.tick] * length

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

    @stateful.rule(tier_id=tier_ids, offset=offsets, length=lengths, fill=fills)
    def guest_write_racing_a_chunk_pull(self, tier_id, offset, length, fill):
        """The same race on the ranged path: the store lands inside the
        chunk after the request left and before the bytes arrived."""
        rep = self.tiers[tier_id].replica(KEY)
        offset = min(offset, rep.value_size - 1)
        length = min(length, rep.value_size - offset)
        at = offset + length // 2
        self.store.racer = lambda: rep.region.write(bytes([fill]), at)
        try:
            dirty = self._forced_pull(tier_id, offset, offset + length)
        except IndexError:
            self.store.racer = None  # refused before the store was asked
            assert offset + length > self.store.size(KEY)
            return
        assert self.store.racer is None  # it ran
        assert dirty == {at}  # still a local write: the next push carries it

    @stateful.invariant()
    def versions_never_go_back(self):
        assert self.store.version(KEY) == self.version

    @stateful.invariant()
    def every_versioned_range_keeps_its_promise(self):
        """DESIGN.md §10, per range: a byte that is not dirty equals the
        global byte unless a write newer than its range's version covers
        it — checked on the map itself, after every step."""
        value = self.store.get_value(KEY)
        for tier in self.tiers:
            rep = tier.replica(KEY)
            local = rep.region.read(0, rep.value_size)
            dirty = {i for s, e in rep.dirty.spans for i in range(s, e)}
            for start, end, version in rep.synced._spans:
                if version is None:
                    continue
                assert end <= rep.value_size, "a version past the logical end"
                for i in range(start, min(end, len(value))):
                    assert (
                        local[i] == value[i] or i in dirty
                        or self.written_at[i] > version
                    ), f"byte {i} of {tier.host}, synced at {version}, is stale"


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


def _synced(tier):
    """The replica's ``(start, end, synced-at version)`` ranges."""
    return list(tier.replica(KEY).synced._spans)


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
    assert _synced(a) == [(0, SIZE, base + 1)]
    _write_and_push(b, 2, 0xB2)  # base + 2, but b is synced at base
    assert _synced(b) == [
        (0, 2 * SPAN, base), (2 * SPAN, 3 * SPAN, base + 2),
        (3 * SPAN, SIZE, base),
    ]
    # b re-fetches a's span and its own; a fetches only b's.
    assert _pulled(b) == (2 * SPAN + SPAN_DESCRIPTOR_BYTES, 1)  # adjacent
    assert _pulled(a) == (SPAN + SPAN_DESCRIPTOR_BYTES, 1)
    assert _in_sync(store, a) and _in_sync(store, b)
    assert _synced(a) == _synced(b) == [(0, SIZE, base + 2)]


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
    chunky.pull_chunk(KEY, 0, SPAN)  # a version, but only for the chunk
    assert _synced(chunky) == [(0, SPAN, store.version(KEY))]
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
        return (_synced(reader), rep.dirty.spans,
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


def _pulled_chunk(tier, offset, length):
    """(bytes, round trips) one forced pull of a chunk of KEY moved."""
    meter = tier.client.meter
    received, trips = meter.received_bytes, meter.round_trips
    tier.pull_chunk(KEY, offset, length, force=True)
    return meter.received_bytes - received, meter.round_trips - trips


def test_forced_chunk_pull_ships_what_was_written_inside_the_chunk():
    store, (writer, reader) = _two_tiers()
    chunk = (4 * SPAN, 4 * SPAN)  # slots 4..7
    assert _pulled_chunk(reader, *chunk) == (0, 1)  # nobody wrote: nothing
    _write_and_push(writer, 2, 0x22)  # outside the chunk
    assert _pulled_chunk(reader, *chunk) == (0, 1)
    _write_and_push(writer, 5, 0x55)  # inside
    writer.write_local(KEY, b"\x77" * SPAN, 7 * SPAN + SPAN // 2)
    writer.push(KEY)  # straddles the chunk's end: clipped to it
    assert _pulled_chunk(reader, *chunk) == (
        SPAN + SPAN // 2 + 2 * SPAN_DESCRIPTOR_BYTES, 1
    )
    assert reader.read_local(KEY, *chunk) == store.get_range(KEY, *chunk)
    # The chunk is level with the store; the rest of the key still owes
    # every write since the first pull, the chunk's own included.
    base = store.version(KEY)
    assert _synced(reader) == [
        (0, 4 * SPAN, base - 3), (4 * SPAN, 8 * SPAN, base),
        (8 * SPAN, SIZE, base - 3),
    ]
    assert _pulled(reader) == (3 * SPAN + 3 * SPAN_DESCRIPTOR_BYTES, 1)
    assert _in_sync(store, reader) and _synced(reader) == [(0, SIZE, base)]
    stats = reader.pull_stats()
    assert stats["delta_pulls"] == 4
    assert not any(stats["full_fallbacks"].values())


def test_forced_chunk_pull_overwrites_only_its_own_unpushed_writes():
    store, (writer, reader) = _two_tiers()
    reader.write_local(KEY, b"\x99" * SPAN, 5 * SPAN)  # inside, never pushed
    reader.write_local(KEY, b"\x88" * SPAN, 9 * SPAN)  # outside
    assert _pulled_chunk(reader, 4 * SPAN, 4 * SPAN) == (
        SPAN + SPAN_DESCRIPTOR_BYTES, 1
    )
    assert reader.read_local(KEY, 5 * SPAN, SPAN) == b"\x11" * SPAN
    assert reader.read_local(KEY, 9 * SPAN, SPAN) == b"\x88" * SPAN
    assert reader.replica(KEY).dirty.spans == [(9 * SPAN, 10 * SPAN)]
    reader.push(KEY)
    assert store.get_range(KEY, 9 * SPAN, SPAN) == b"\x88" * SPAN


def test_a_gap_fill_records_the_version_it_was_read_at():
    store, (writer, _) = _two_tiers()
    reader = LocalTier("host-2", StateClient(store))
    reader.pull_chunk(KEY, 0, 2 * SPAN)
    _write_and_push(writer, 1, 0x21)
    _write_and_push(writer, 3, 0x23)
    reader.pull_chunk(KEY, SPAN, 3 * SPAN)  # fills [2, 4) only, one version on
    base = store.version(KEY)
    assert _synced(reader) == [
        (0, 2 * SPAN, base - 2), (2 * SPAN, 4 * SPAN, base)
    ]
    # One forced pull across both ranges asks since the older one: a
    # single trip that re-ships slot 3, which the gap fill had just read.
    assert _pulled_chunk(reader, 0, 4 * SPAN) == (
        2 * (SPAN + SPAN_DESCRIPTOR_BYTES), 1
    )
    assert reader.read_local(KEY, 0, 4 * SPAN) == store.get_range(KEY, 0, 4 * SPAN)
    assert _synced(reader) == [(0, 4 * SPAN, base)]
    # A forced pull reaching into the gap ships its range whole, counted.
    assert _pulled_chunk(reader, 3 * SPAN, 2 * SPAN) == (2 * SPAN, 1)
    assert reader.pull_stats()["full_fallbacks"]["partial"] == 1


def test_a_local_grow_touches_only_the_tail():
    store, (_, reader) = _two_tiers()
    base = store.version(KEY)
    # Grown past the end: the tail reads zeros but is not present, so a
    # demand for it goes to the store; the rest keeps its version.
    reader.replica(KEY, size=SIZE + SPAN)
    assert _synced(reader) == [(0, SIZE, base)]
    with pytest.raises(IndexError):  # the global value ends before it
        reader.pull_chunk(KEY, SIZE, SPAN, force=True)
    assert reader.pull_stats()["full_fallbacks"]["partial"] == 1
    assert reader.replica(KEY).dirty.spans == []
    # Shrunk, then regrown: what was present stays present and reads zeros
    # ("stale tail bytes never resurface"), synced at no version from the
    # shrink on; below the new end the version stands.
    StateAPI(reader).set_state(KEY, b"\x55" * SPAN)
    assert _synced(reader) == [(0, SPAN, base), (SPAN, SIZE, None)]
    reader.replica(KEY, size=4 * SPAN)
    assert _synced(reader) == [(0, SPAN, base), (SPAN, SIZE, None)]
    assert reader.read_local(KEY, SPAN, SPAN) == bytes(SPAN)
    assert reader.pull_chunk(KEY, SPAN, SPAN).region.read(SPAN, SPAN) == bytes(SPAN)


def test_a_narrow_local_write_does_not_hide_the_rest_of_the_value():
    """A replica born by a local write narrower than the global value
    grows to cover a chunk the guest reads — and pulls it: the zero fill
    of the growth is not the value."""
    store = GlobalStateStore()
    store.set_value(KEY, b"\x11" * SIZE)
    tier = LocalTier("host-0", StateClient(store))
    tier.write_local(KEY, b"\x22" * SPAN, 0)
    rep = tier.pull_chunk(KEY, 2 * SPAN, SPAN)
    assert rep.region.read(2 * SPAN, SPAN) == b"\x11" * SPAN
    assert _synced(tier) == [
        (0, SPAN, None), (2 * SPAN, 3 * SPAN, store.version(KEY))
    ]
    assert tier.read_local(KEY, 0, SPAN) == b"\x22" * SPAN  # still ours


@pytest.mark.parametrize("transfer", ["pull_chunk", "push_chunk"])
def test_guest_store_after_a_chunk_transfer_is_still_tracked(transfer):
    """A forced chunk pull or a ``push_chunk`` over a mapped page forgets
    the page's dirty mark, so it must write-protect the page again: the
    guest's next store has to fault, or it is never pushed."""
    store = GlobalStateStore()
    store.set_value(KEY, bytes(PAGE_SIZE))
    tier = LocalTier("host-0", StateClient(store))
    rep = tier.pull(KEY)
    memory = LinearMemory(MemoryType(Limits(1, 8)))
    base = rep.region.map_into(memory)
    memory.write(base, b"\x11")
    if transfer == "pull_chunk":
        tier.pull_chunk(KEY, 0, PAGE_SIZE, force=True)
        assert rep.region.read(0, 1) == b"\x00"  # overwritten, as asked
    else:
        tier.push_chunk(KEY, 0, PAGE_SIZE)
        assert store.get_range(KEY, 0, 1) == b"\x11"
    assert rep.dirty.spans == []
    memory.write(base, b"\x22")
    assert rep.dirty.spans == [(0, PAGE_SIZE)]
    tier.push(KEY)
    assert store.get_range(KEY, 0, 1) == b"\x22"


def test_push_chunk_during_an_outage_keeps_the_dirty_marks():
    _, _, ops = _outage_scenario(outage_at=10**9)
    store, reader, _ = _outage_scenario(outage_at=ops())  # the next one
    mark = (10 * SPAN, 11 * SPAN)
    with pytest.raises(StateUnavailableError):
        reader.push_chunk(KEY, 10 * SPAN, SPAN)
    assert reader.replica(KEY).dirty.spans == [mark]
    reader.push(KEY)  # the retry still knows what to flush
    assert store.get_range(KEY, 10 * SPAN, SPAN) == b"\x99" * SPAN


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
        # Not zeros: a zero-filled local byte passed off as pulled shows.
        self.store.set_value(KEY, b"\xee" * _MSIZE)
        self.tier = LocalTier("host", StateClient(self.store))
        #: offset -> value for unpushed guest writes.
        self.local = {}
        #: per-byte set of every value the global tier has held.
        self.history = [{0xEE} for _ in range(_MSIZE)]
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
        # A write that starts past the global end zero-fills the gap.
        for i in range(self.gsize, start):
            self.history[i].add(0)
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
            for i in range(self.gsize, self.lsize):
                self.history[i].add(0)
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


def test_remote_write_past_the_global_end_reads_back_its_zero_gap():
    """A push truncates the global value to one byte; a remote write at
    byte 2 grows it and zero-fills byte 1, and a chunk pull of byte 1
    reads that zero, a value the global tier really held."""
    state = DemandInterleaving()
    state.guest_write(length=1, offset=0, value=1)
    state.push()
    state.remote_write(length=1, offset=2, value=1)
    state.guest_read(length=1, offset=1)
    assert state.store.get_value(KEY) == b"\x01\x00\x01"


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
