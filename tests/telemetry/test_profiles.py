"""Trace mining: cluster runs -> per-function access profiles -> store.

The tentpole scenario: a chained multi-host run must yield mined
profiles showing state keys with byte-ranges, snapshot pages, chain
fan-out and phase breakdowns — and the profiles must round-trip through
the content-addressed object store unchanged.
"""

from __future__ import annotations

import pytest

from repro.host.filesystem import GlobalObjectStore
from repro.runtime import FaasmCluster
from repro.telemetry import AccessProfile, ProfileStore, Telemetry
from repro.telemetry.profiles import RangeCounter, TraceMiner

KERNEL_SRC = """
global int ready = 0;
export void init() {
    int[] warm = new int[65536];
    for (int i = 0; i < 65536; i = i + 2048) { warm[i] = i + 1; }
    ready = 1;
}
export int main() { return 0; }
"""

CHUNK = 4096
GRID = 4 * CHUNK


def _pipeline(ctx):
    ctx.state.get_state("grid", GRID)
    ctx.state.push_state("grid")
    cids = [ctx.chain("stage", str(i).encode()) for i in range(4)]
    ctx.await_all(cids)
    ctx.write_output(b"done")


def _stage(ctx):
    slot = int(ctx.input())
    offset = slot * CHUNK
    view = ctx.state.get_state_offset("grid", offset, CHUNK)
    view[0] = (view[0] + 1) % 256
    ctx.state.push_state_offset("grid", offset, CHUNK)
    ctx.write_output(b"ok")


@pytest.fixture
def mined_cluster():
    telemetry = Telemetry(enabled=True, mine_profiles=True)
    cluster = FaasmCluster(n_hosts=2, telemetry=telemetry)
    cluster.register_python("pipeline", _pipeline)
    cluster.register_python("stage", _stage)
    cluster.upload("kernel", KERNEL_SRC, init="init")
    # Share stages to the other host so state movement is real.
    cluster.warm_sets.add("stage", "host-1")
    yield cluster
    cluster.shutdown()


def _drive(cluster, rounds=3):
    for _ in range(rounds):
        assert cluster.invoke("pipeline")[0] == 0
        assert cluster.invoke("kernel")[0] == 0


class TestMinedProfiles:
    def test_chained_run_mines_all_functions(self, mined_cluster):
        _drive(mined_cluster)
        miner = mined_cluster.profiles
        assert miner.functions() == ["kernel", "pipeline", "stage"]
        assert miner.spans_mined > 0
        assert miner.spans_evicted == 0

    def test_state_key_and_byte_range_profiles(self, mined_cluster):
        _drive(mined_cluster)
        stage = mined_cluster.profiles.profile("stage")
        assert stage.calls == 12
        kp = stage.state["grid"]
        assert kp.pushes == 12
        assert kp.bytes_pushed == 12 * CHUNK
        # Every chunk boundary the stages touched shows up as a write
        # range; remote placement makes at least some pulls real.
        writes = {(s, e) for s, e, _ in kp.writes.hot()}
        assert writes == {(i * CHUNK, (i + 1) * CHUNK) for i in range(4)}
        assert kp.pulls > 0
        assert kp.reads.total_hits() > 0
        # The producer saw the full-value write range.
        pipeline = mined_cluster.profiles.profile("pipeline")
        assert (0, GRID) in {
            (s, e) for s, e, _ in pipeline.state["grid"].writes.hot()
        }

    def test_chain_fanout_and_phases(self, mined_cluster):
        _drive(mined_cluster)
        pipeline = mined_cluster.profiles.profile("pipeline")
        assert pipeline.chains == {"stage": 12}
        for phase in ("guest.exec", "queue.wait", "call.dispatch"):
            count, total = pipeline.phases[phase]
            assert count > 0 and total >= 0.0
        assert pipeline.latency.count == pipeline.calls == 3

    def test_snapshot_page_profile(self, mined_cluster):
        _drive(mined_cluster)
        kernel = mined_cluster.profiles.profile("kernel")
        snap = kernel.snapshot
        assert snap["restores"] >= 1
        assert snap["payload_pages"] > 0
        assert snap["bytes_shipped"] > 0
        assert kernel.cold_starts >= 1
        assert kernel.fuel.count == kernel.calls

    def test_object_store_round_trip(self, mined_cluster):
        _drive(mined_cluster)
        digests = cluster_digests = mined_cluster.persist_profiles()
        assert set(cluster_digests) == {"kernel", "pipeline", "stage"}
        for fn, digest in digests.items():
            mined = mined_cluster.profiles.profile(fn)
            loaded = mined_cluster.load_profile(fn)
            assert loaded.to_dict() == mined.to_dict()
            assert mined_cluster.profile_store.head(fn) == digest
        # Identical content re-saves to the same digest (dedup).
        assert mined_cluster.persist_profiles() == digests


class TestProfileStore:
    def test_head_flips_between_versions(self):
        store = ProfileStore(GlobalObjectStore())
        p1 = AccessProfile("fn")
        p1.calls = 1
        d1 = store.save(p1)
        p1.calls = 2
        d2 = store.save(p1)
        assert d1 != d2
        assert store.head("fn") == d2
        assert store.load("fn").calls == 2
        assert store.load("fn", d1).calls == 1
        assert store.digests("fn") == sorted([d1, d2])

    def test_function_names_with_slashes(self):
        store = ProfileStore(GlobalObjectStore())
        profile = AccessProfile("ns/sub/fn")
        store.save(profile)
        assert store.functions() == ["ns/sub/fn"]
        assert store.load("ns/sub/fn").function == "ns/sub/fn"

    def test_missing_profile_is_none(self):
        store = ProfileStore(GlobalObjectStore())
        assert store.load("ghost") is None
        assert store.head("ghost") is None


class TestMinerMechanics:
    def test_retry_span_folds_cause(self):
        telemetry = Telemetry(enabled=True, mine_profiles=True)
        with telemetry.tracer.trace(
            "call.retry", host="h", function="flaky", attempt=1
        ) as sp:
            sp.set_attr("fault", "drop")
        with telemetry.tracer.trace(
            "call.retry", host="h", function="flaky", attempt=2,
            reason="attempt timed out",
        ):
            pass
        profile = telemetry.profiles.profile("flaky")
        assert profile.retries == 2
        assert profile.fault_causes == {"drop": 1, "attempt timed out": 1}

    def test_trace_eviction_is_bounded(self):
        miner = TraceMiner(max_traces=4)
        telemetry = Telemetry(enabled=True)
        for i in range(10):
            # Orphan spans that never fold under an invoke.
            with telemetry.tracer.trace("call.dispatch", host="h", function=f"f{i}"):
                pass
        for span in telemetry.spans():
            miner.fold(span)
        assert len(miner._buffer) <= 5
        assert miner.spans_evicted > 0

    def test_range_counter_evicts_coldest(self):
        counter = RangeCounter(max_ranges=2)
        counter.add(0, 10, hits=5)
        counter.add(10, 20, hits=1)
        counter.add(20, 30)  # evicts the coldest, (10, 20)
        assert counter.hot() == [(0, 10, 5), (20, 30, 1)]
        assert len(counter) == 2

    def test_range_counter_never_evicts_hotter_for_colder(self):
        """A stream of one-hit ranges must not flush hot residents."""
        counter = RangeCounter(max_ranges=2)
        counter.add(0, 10, hits=5)
        counter.add(10, 20, hits=3)
        for i in range(50):
            counter.add(100 + i, 101 + i)  # all colder than both residents
        assert counter.hot() == [(0, 10, 5), (10, 20, 3)]


# ---------------------------------------------------------------------------
# Property tests: RangeCounter merge/coverage
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

#: Small (start, end, hits) triples: overlapping and identical spans are
#: likely, so merge exercises both the sum path and distinct-key inserts.
_span = st.tuples(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=5),
).map(lambda t: (t[0], t[0] + t[1], t[2]))
_spans = st.lists(_span, max_size=12)


def _counter(spans, max_ranges=1024):
    counter = RangeCounter(max_ranges=max_ranges)
    for s, e, n in spans:
        counter.add(s, e, n)
    return counter


class TestRangeCounterProperties:
    @given(_spans, _spans)
    @settings(max_examples=200, deadline=None)
    def test_merge_commutes_under_capacity(self, a_spans, b_spans):
        """With no eviction pressure, a.merge(b) and b.merge(a) hold the
        same (range -> hits) table: identical spans sum, overlapping but
        distinct spans stay distinct entries."""
        ab = _counter(a_spans)
        ab.merge(_counter(b_spans))
        ba = _counter(b_spans)
        ba.merge(_counter(a_spans))
        assert ab.hot() == ba.hot()
        assert ab.total_hits() == ba.total_hits()

    @given(_spans, _spans)
    @settings(max_examples=200, deadline=None)
    def test_merge_is_monotone_under_capacity(self, a_spans, b_spans):
        """Merging can only add information: coverage and total hits never
        drop below either input's (again absent eviction, which is lossy
        by design)."""
        a = _counter(a_spans)
        b = _counter(b_spans)
        merged = _counter(a_spans)
        merged.merge(b)
        assert merged.coverage() >= max(a.coverage(), b.coverage())
        assert merged.total_hits() == a.total_hits() + b.total_hits()

    @given(_spans)
    @settings(max_examples=200, deadline=None)
    def test_coverage_merges_overlaps(self, spans):
        """Coverage counts each byte once regardless of how many tracked
        ranges overlap it, and never exceeds the bounding extent."""
        counter = _counter(spans)
        covered = set()
        for s, e, _ in spans:
            covered.update(range(s, e))
        assert counter.coverage() == len(covered)

    @given(_spans)
    @settings(max_examples=100, deadline=None)
    def test_serialisation_round_trip(self, spans):
        counter = _counter(spans)
        clone = RangeCounter.from_dict(counter.to_dict())
        assert clone.hot() == counter.hot()

