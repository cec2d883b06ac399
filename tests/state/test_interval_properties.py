"""Property tests for the delta-sync data plane.

Three layers are checked against brute-force models:

* ``_RangeMap`` — the replica's ``range -> synced-at version`` map must agree
  with a per-byte array after any sequence of assignments and drops, keep
  its spans normalised (touching spans of one version coalesced, a partial
  overwrite splitting what it straddles), and answer the gap and
  oldest-version queries a pull asks.
* ``_IntervalSet`` — every operation (add/remove/covers/missing/intersect/
  total) must agree with a byte-granular bitmap model, and the internal
  span list must stay normalised (sorted, disjoint, adjacent spans merged).
* Dirty tracking — after an arbitrary sequence of local writes, a push must
  transfer **exactly** the union of the written byte ranges (not one byte
  more or less), and leave the global value byte-identical to the local
  replica.
"""

import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.faaslet.sharing import SharedRegion
from repro.state import GlobalStateStore, LocalTier, StateClient
from repro.state.local import Replica, _IntervalSet, _RangeMap
from repro.wasm.memory import LinearMemory
from repro.wasm.types import PAGE_SIZE, Limits, MemoryType

UNIVERSE = 64

# An op is (kind, start, end) over a small universe so hypothesis can
# exercise adjacency/overlap/straddle cases densely.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(0, UNIVERSE),
        st.integers(0, UNIVERSE),
    ),
    max_size=30,
)


def _apply(ops):
    """Run ops against both the interval set and a byte-bitmap model."""
    iset = _IntervalSet()
    model: set[int] = set()
    for kind, a, b in ops:
        start, end = min(a, b), max(a, b)
        if kind == "add":
            iset.add(start, end)
            model.update(range(start, end))
        else:
            iset.remove(start, end)
            model.difference_update(range(start, end))
    return iset, model


@given(_ops)
@settings(max_examples=200, deadline=None)
def test_interval_set_matches_bitmap_model(ops):
    """Membership, coverage and gap queries agree with the bitmap model."""
    iset, model = _apply(ops)
    # Span list invariants: sorted, disjoint, non-empty, adjacent merged.
    spans = iset.spans
    for s, e in spans:
        assert s < e
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 < s2  # strictly separated: adjacency would have merged
    # total() is the model's cardinality.
    assert iset.total() == len(model)
    # Exact membership, byte by byte.
    covered = {i for s, e in spans for i in range(s, e)}
    assert covered == model


@given(_ops, st.integers(0, UNIVERSE), st.integers(0, UNIVERSE))
@settings(max_examples=200, deadline=None)
def test_interval_set_queries_match_model(ops, a, b):
    """covers/missing/intersect answer exactly what the bitmap model says."""
    iset, model = _apply(ops)
    start, end = min(a, b), max(a, b)
    window = set(range(start, end))
    assert iset.covers(start, end) == window.issubset(model)
    missing = {i for s, e in iset.missing(start, end) for i in range(s, e)}
    assert missing == window - model
    hit = {i for s, e in iset.intersect(start, end) for i in range(s, e)}
    assert hit == window & model


def test_adjacent_spans_merge():
    """Touching spans coalesce into one (a single flush range, not two)."""
    iset = _IntervalSet()
    iset.add(0, 5)
    iset.add(5, 10)
    assert iset.spans == [(0, 10)]
    iset.add(20, 25)
    iset.add(12, 20)
    assert iset.spans == [(0, 10), (12, 25)]
    iset.remove(4, 6)
    assert iset.spans == [(0, 4), (6, 10), (12, 25)]


def test_add_covered_adjacent_and_bridging_ranges():
    """The three shapes ``add`` tells apart: a range some span already
    covers changes nothing, one that touches a span extends it, and one
    that reaches across spans fuses them with the gaps between."""
    iset = _IntervalSet()
    for s, e in [(10, 20), (30, 40), (50, 60)]:
        iset.add(s, e)
    backing = iset._spans
    for s, e in [(10, 20), (12, 18), (10, 15), (15, 20), (30, 31), (59, 60)]:
        iset.add(s, e)
        assert iset._spans is backing
        assert iset.spans == [(10, 20), (30, 40), (50, 60)]
    assert iset.covers(10, 20) and iset.covers(12, 18)
    assert not iset.covers(10, 21) and not iset.covers(20, 30)
    assert not iset.covers(15, 35)  # both ends inside spans, a gap between

    iset.add(5, 10)  # adjacent on the left
    iset.add(40, 45)  # adjacent on the right
    assert iset.spans == [(5, 20), (30, 45), (50, 60)]
    iset.add(0, 2)  # separate, before everything
    iset.add(70, 80)  # separate, after everything
    assert iset.spans == [(0, 2), (5, 20), (30, 45), (50, 60), (70, 80)]

    iset.add(20, 30)  # exactly the gap: bridges two neighbours
    assert iset.spans == [(0, 2), (5, 45), (50, 60), (70, 80)]
    iset.add(40, 75)  # from inside one span, over a whole one, into a third
    assert iset.spans == [(0, 2), (5, 80)]
    iset.add(1, 100)  # swallows everything it overlaps
    assert iset.spans == [(0, 100)]


_ABSENT = "absent"
#: (start, end, version): a version to assign (``None`` = present, version
#: unknown) or ``_ABSENT`` to drop the range.
_assignments = st.lists(
    st.tuples(
        st.integers(0, UNIVERSE),
        st.integers(0, UNIVERSE),
        st.sampled_from([None, 1, 2, 3, _ABSENT]),
    ),
    max_size=30,
)


def _assign(ops):
    """Run assignments against both the map and a per-byte array."""
    rmap = _RangeMap()
    model = [_ABSENT] * UNIVERSE
    for a, b, version in ops:
        start, end = min(a, b), max(a, b)
        rmap.set(start, end, version, drop=version is _ABSENT)
        model[start:end] = [version] * (end - start)
    return rmap, model


@given(_assignments, st.integers(0, UNIVERSE), st.integers(0, UNIVERSE))
@settings(max_examples=300, deadline=None)
def test_range_map_matches_per_byte_reference(ops, a, b):
    rmap, model = _assign(ops)
    spans = rmap._spans
    # Normalised: non-empty, sorted, disjoint, and two spans that touch
    # carry different versions (equal ones would have coalesced).
    for s, e, _ in spans:
        assert s < e
    for (_, e1, v1), (s2, _, v2) in zip(spans, spans[1:]):
        assert e1 < s2 or (e1 == s2 and v1 != v2)
    # Exact, byte by byte.
    seen = [_ABSENT] * UNIVERSE
    for s, e, v in spans:
        seen[s:e] = [v] * (e - s)
    assert seen == model
    # The queries a pull asks of [start, end).
    start, end = min(a, b), max(a, b)
    window = model[start:end]
    gaps, versions = rmap.scan(start, end)
    assert {i for s, e in gaps for i in range(s, e)} == {
        i for i, v in enumerate(window, start) if v is _ABSENT
    }
    assert rmap.missing(start, end) == gaps
    assert rmap.covers(start, end) == (_ABSENT not in window)
    held = [v for v in window if v is not _ABSENT]
    assert set(versions) == set(held)
    if held and None not in held:
        assert min(versions) == min(held)  # the oldest: what a delta asks since


@given(
    _assignments,
    st.lists(st.tuples(st.integers(0, UNIVERSE), st.integers(0, UNIVERSE)), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_a_push_advances_exactly_the_ranges_one_version_behind(ops, pushed):
    new = 4  # just produced by the push: no range can be synced at it yet
    rmap, model = _assign(ops)
    replica = Replica("k", SharedRegion("k", UNIVERSE), synced=rmap)
    dirty = _IntervalSet()
    for a, b in pushed:
        dirty.add(min(a, b), max(a, b))
    spans = dirty.spans  # what a push carries: sorted, disjoint
    replica.pushed(spans, new)
    expected = [new if v == new - 1 else v for v in model]
    for s, e in spans:
        expected[s:e] = [new] * (e - s)
    seen = [_ABSENT] * UNIVERSE
    for s, e, v in replica.synced._spans:
        seen[s:e] = [v] * (e - s)
    assert seen == expected
    for (_, e1, v1), (s2, _, v2) in zip(replica.synced._spans, replica.synced._spans[1:]):
        assert e1 < s2 or v1 != v2


# Writes stay within a 256-byte value; no explicit shrink, so the dirty set
# must end up as exactly the union of the written ranges.
_writes = st.lists(
    st.tuples(st.integers(0, 255), st.integers(1, 64), st.integers(0, 255)),
    min_size=1,
    max_size=20,
)


@given(_writes)
@settings(max_examples=150, deadline=None)
def test_push_transfers_exactly_the_dirty_union(writes):
    """A delta push moves precisely the union of written byte ranges."""
    store = GlobalStateStore()
    tier = LocalTier("host", StateClient(store))
    meter = tier.client.meter
    model = bytearray()
    dirty: set[int] = set()
    for offset, length, fill in writes:
        data = bytes([fill]) * length
        tier.write_local("k", data, offset)
        if offset + length > len(model):
            model.extend(b"\x00" * (offset + length - len(model)))
        model[offset : offset + length] = data
        dirty.update(range(offset, offset + length))

    meter.reset()
    tier.push("k")
    assert meter.sent_bytes == len(dirty)
    assert meter.round_trips == 1
    assert store.get_value("k") == bytes(model)

    # Nothing dirty left: a second push is free (no round trip at all).
    meter.reset()
    tier.push("k")
    assert meter.sent_bytes == 0
    assert meter.round_trips == 0


@given(_writes)
@settings(max_examples=100, deadline=None)
def test_pull_discards_dirty_and_matches_global(writes):
    """A forced pull resyncs: local bytes match global, dirty set empties."""
    store = GlobalStateStore()
    store.set_value("k", bytes(range(256)))
    tier = LocalTier("host", StateClient(store))
    tier.pull("k")
    for offset, length, fill in writes:
        tier.write_local("k", bytes([fill]) * length, offset)
    tier.pull("k", force=True)
    rep = tier.replica("k")
    assert rep.dirty.total() == 0
    assert tier.read_local("k", 0, rep.size) == store.get_value("k")


# The mark log: marks append at write time and merge at the next drain.
_log_ops = st.lists(
    st.tuples(
        st.sampled_from(["mark", "mark", "mark", "drain", "whole", "restore", "view"]),
        st.integers(0, UNIVERSE),
        st.integers(0, UNIVERSE),
    ),
    max_size=40,
)


def _runs(points) -> list[tuple[int, int]]:
    """Sorted byte offsets as merged ``[start, end)`` spans."""
    spans: list[tuple[int, int]] = []
    for i in sorted(points):
        if spans and spans[-1][1] == i:
            spans[-1] = (spans[-1][0], i + 1)
        else:
            spans.append((i, i + 1))
    return spans


@given(_log_ops, st.integers(1, UNIVERSE))
@settings(max_examples=300, deadline=None)
def test_mark_log_drains_match_per_byte_reference(ops, value_size):
    """Random marks, ranged and whole drains, and put-back drains give the
    spans a per-byte model gives: a drain returns the marked bytes inside
    its range and the logical value, merged, and forgets every mark in its
    range; the ``dirty`` view folds the log in at any point."""
    replica = Replica("k", SharedRegion("k", UNIVERSE), value_size=value_size)
    model: set[int] = set()
    for kind, a, b in ops:
        start, end = min(a, b), max(a, b)
        if kind == "mark":
            replica.mark_dirty(start, end)
            model.update(range(start, end))
        elif kind == "view":
            assert replica.dirty.spans == _runs(model)
        else:
            if kind == "whole":  # every push drains the whole region
                start, end = 0, replica.region.size
            drained = replica.take_dirty(start, end)
            taken = {i for i in model if start <= i < min(end, value_size)}
            assert drained == _runs(taken)
            model.difference_update(range(start, end))
            if kind == "restore":  # the transfer failed: the marks go back
                replica.restore_dirty(drained)
                model |= taken
    assert replica.dirty.spans == _runs(model)


def _race_guest_stores_against_pushes(pages: int, writers: int) -> bool:
    """One race: ``writers`` threads each store one word into each of their
    share of a mapped replica's pages while this thread pushes in a loop.
    True when, after a last push, the global value holds every word."""
    store = GlobalStateStore()
    store.set_value("k", bytes(pages * PAGE_SIZE))
    tier = LocalTier("host", StateClient(store))
    replica = tier.pull("k")
    expected = bytearray(pages * PAGE_SIZE)
    for page in range(pages):
        expected[page * PAGE_SIZE : page * PAGE_SIZE + 8] = (page + 1).to_bytes(8, "little")

    def write(first: int) -> None:
        memory = LinearMemory(MemoryType(Limits(1, 1 + pages)))
        base = replica.region.map_into(memory)
        for page in range(first, pages, writers):
            memory.store_int(base + page * PAGE_SIZE, page + 1, 8)

    threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        tier.push("k")
    for thread in threads:
        thread.join()
    tier.push("k")
    return store.get_value("k") == expected


def test_guest_stores_racing_pushes_all_reach_the_global_tier():
    """Guest stores into a mapped replica, on three threads, race pushes
    at a 1 µs switch interval: every word written reaches the global tier.

    Each page takes one word, stored once, from one thread, so a fault mark
    that a drain loses, or takes before the word lands, leaves that word
    behind for good. A drain that drops a mark arriving while it merges the
    log loses a word in about one race in eight on a 2-vCPU VM, hence the
    100 races."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lost = [r for r in range(100) if not _race_guest_stores_against_pushes(96, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert lost == []


def test_a_faulting_store_lands_before_its_dirty_mark():
    """A drain that takes a fault's mark copies the stored word: the first
    mark pushes the key before the listener returns, as a push on another
    thread might, and nothing marks the page again afterwards."""
    store = GlobalStateStore()
    store.set_value("k", bytes(PAGE_SIZE))
    tier = LocalTier("host", StateClient(store))
    replica = tier.pull("k")
    memory = LinearMemory(MemoryType(Limits(1, 2)))
    base = replica.region.map_into(memory)
    listeners = replica.region._write_listeners
    (mark,) = listeners
    pushed = []

    def mark_then_push(start: int, end: int) -> None:
        mark(start, end)
        if not pushed:
            pushed.append(start)
            tier.push("k")

    listeners[0] = mark_then_push
    memory.store_int(base + 8, 0x5EED, 8)
    tier.push("k")
    assert pushed == [0]
    assert int.from_bytes(store.get_range("k", 8, 8), "little") == 0x5EED
