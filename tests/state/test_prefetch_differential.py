"""Differential proof that proactive delivery is semantically invisible.

Every scenario runs the same workload twice — once with
``DeliveryPolicy.off()`` (pure demand delivery) and once with
``DeliveryPolicy.aggressive(synchronous=True)`` (prefetch + pre-placement,
run inline so the comparison is deterministic) — and asserts the *final global state* and every
*guest-visible read* are byte-identical. The stateful machine at the
bottom then interleaves prefetch completion with guest reads and writes
to prove the invariant the scenarios spot-check: a stale prefetched span
can never shadow a newer local write.
"""

from __future__ import annotations

import hashlib

from hypothesis import settings
from hypothesis import stateful
from hypothesis import strategies as st

from repro.runtime import FaasmCluster
from repro.state.kv import GlobalStateStore, StateClient
from repro.state.local import LocalTier
from repro.state.prefetch import DeliveryPolicy
from repro.telemetry import AccessProfile

KEY = "diff/data"
CHUNK = 4 * 1024
SIZE = 16 * CHUNK

POLICIES = (
    DeliveryPolicy.off(),
    # confidence below every seeded ratio, synchronous so the speculative
    # pull is fully ordered before the guest runs (worst case for a
    # stale-shadow bug: the whole plan lands, then the guest writes).
    DeliveryPolicy.aggressive(confidence=0.1, synchronous=True),
)


def _seed_profile(cluster, function: str, key: str, spans, calls: int = 10):
    """Persist a synthetic access profile so the prefetcher has a plan
    for ``function`` before its first dispatch."""
    profile = AccessProfile(function)
    profile.calls = calls
    kp = profile.key_profile(key)
    for s, e in spans:
        kp.reads.add(s, e, calls)
    cluster.profile_store.save(profile)


def _run(policy, scenario):
    """Run one scenario under one policy; return (outputs, final state)."""
    cluster = FaasmCluster(n_hosts=2, delivery=policy)
    try:
        outputs = scenario(cluster)
        cluster.quiesce_delivery()
        state = {
            key: bytes(cluster.global_state.get_value(key))
            for key in cluster.global_state.keys()
            if not key.startswith("faasm/")  # scheduler bookkeeping
        }
        return outputs, state
    finally:
        cluster.shutdown()


def _differential(scenario):
    baseline = _run(POLICIES[0], scenario)
    speculative = _run(POLICIES[1], scenario)
    assert speculative == baseline


def test_cold_start_reader_is_identical():
    """Dispatch-time prefetch of the whole hot value vs pure demand pull."""

    def scenario(cluster):
        cluster.global_state.set_value(KEY, bytes(range(256)) * (SIZE // 256))

        def reader(ctx):
            view = ctx.state.get_state(KEY, mark_dirty=False)
            ctx.write_output(
                hashlib.sha256(bytes(view)).hexdigest().encode()
            )
            return 0

        cluster.register_python("reader", reader)
        _seed_profile(cluster, "reader", KEY, [(0, SIZE)])
        return [cluster.invoke("reader") for _ in range(3)]

    _differential(scenario)


def test_chained_calls_are_identical():
    """Parent dirties a range and chains cross-host; the callee's forced
    pull — a delta pull from its second call on — must see the parent's
    write with or without speculation around it."""

    def scenario(cluster):
        cluster.global_state.set_value(KEY, b"\x01" * SIZE)

        def parent(ctx):
            view = ctx.state.get_state_offset(KEY, 0, CHUNK)
            view[:8] = b"PARENTED"
            ctx.state.push_state_offset(KEY, 0, CHUNK)
            cid = ctx.chain("child", b"")
            ctx.await_all([cid])
            ctx.write_output(ctx.call_output(cid))
            return 0

        def child(ctx):
            ctx.state.pull_state(KEY)
            view = ctx.state.get_state_offset(KEY, 0, 16, mark_dirty=False)
            ctx.write_output(bytes(view))
            return 0

        cluster.register_python("parent", parent)
        cluster.register_python("child", child)
        _seed_profile(cluster, "child", KEY, [(0, CHUNK)])
        # Pin the child to the other host so the state crosses the
        # global tier.
        cluster.warm_sets.add("child", "host-1")
        outs = [cluster.invoke("parent") for _ in range(3)]
        assert all(out[1].startswith(b"PARENTED") for out in outs)
        return outs

    _differential(scenario)


def test_concurrent_writers_are_identical():
    """Disjoint-range writers racing prefetched reads: the final value is
    the union of all pushes regardless of speculation."""

    def scenario(cluster):
        cluster.global_state.set_value(KEY, b"\x00" * SIZE)

        def writer(ctx):
            slot = int(ctx.input())
            offset = slot * CHUNK
            view = ctx.state.get_state_offset(KEY, offset, CHUNK)
            view[:] = bytes([slot + 1]) * CHUNK
            ctx.state.push_state_offset(KEY, offset, CHUNK)
            ctx.write_output(b"ok-%d" % slot)
            return 0

        cluster.register_python("writer", writer)
        _seed_profile(
            cluster, "writer", KEY,
            [(i * CHUNK, (i + 1) * CHUNK) for i in range(4)],
        )
        ids = [cluster.dispatch("writer", str(i).encode()) for i in range(4)]
        return sorted(
            (cluster.calls.wait(cid), bytes(cluster.calls.output(cid)))
            for cid in ids
        )

    _differential(scenario)


def test_shrink_then_regrow_is_identical():
    """A value that shrinks and regrows under a full-value prefetch: the
    stale speculative tail must never resurface as the regrown bytes."""

    def scenario(cluster):
        cluster.global_state.set_value(KEY, b"\xaa" * SIZE)

        def regrow(ctx):
            ctx.state.set_state(KEY, b"\xbb" * 1024)
            ctx.state.push_state(KEY)
            view = ctx.state.get_state(KEY, 2 * CHUNK)
            view[0] = 0xCC
            ctx.state.push_state(KEY)
            tail = ctx.state.get_state_offset(
                KEY, CHUNK, 64, mark_dirty=False
            )
            ctx.write_output(bytes(tail))
            return 0

        cluster.register_python("regrow", regrow)
        _seed_profile(cluster, "regrow", KEY, [(0, SIZE)])
        return [cluster.invoke("regrow") for _ in range(2)]

    _differential(scenario)


# ---------------------------------------------------------------------------
# Stateful interleaving: prefetch completion vs guest reads and writes
# ---------------------------------------------------------------------------

_MSIZE = 64  # small value => dense rule collisions


class PrefetchInterleaving(stateful.RuleBasedStateMachine):
    """One host's tier against a global store mutated behind its back.

    The model tracks, per byte, (a) the guest's unpushed local writes and
    (b) every value the global tier has ever held. The safety contract of
    speculation is then:

    * a byte the guest wrote locally (and has not force-pulled away) reads
      back *exactly* — no prefetch completion, gap-fill, or delta pull
      may shadow it;
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

    @stateful.rule(offset=offsets, length=lengths)
    def prefetch(self, offset, length):
        if self.lsize is None:  # prefetch creates the replica, global-sized
            self.lsize = self.synced = self.gsize
        try:
            self.tier.prefetch_spans(KEY, [self._span(offset, length)])
        except IndexError:
            # Legal only when a needed gap lies past the global end (the
            # replica outlived a truncating push elsewhere).
            assert self.lsize > self.gsize

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


PrefetchInterleaving.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestPrefetchInterleaving = PrefetchInterleaving.TestCase
