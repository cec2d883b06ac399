"""Content-addressed snapshot plane: manifests, PageStore, delta pulls."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faaslet import (
    Faaslet,
    FunctionDefinition,
    HostSnapshotCache,
    PageStore,
    ProtoFaaslet,
    SnapshotManifest,
    SnapshotRepository,
)
from repro.host import StandaloneEnvironment
from repro.minilang import build
from repro.wasm.memory import ZERO_DIGEST, ZERO_PAGE, page_digest
from repro.wasm.types import F32, F64, I32, I64, PAGE_SIZE


def make_page(seed: int | None) -> memoryview:
    """A deterministic 64 KiB page: None -> all zeros, else a pattern."""
    if seed is None:
        return ZERO_PAGE
    pattern = bytes((seed + i) % 256 for i in range(256))
    return memoryview(bytes(pattern * (PAGE_SIZE // 256)))


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def test_zero_page_digest_is_sentinel():
    assert page_digest(bytes(PAGE_SIZE)) == ZERO_DIGEST
    assert page_digest(make_page(3)) != ZERO_DIGEST


def test_digest_is_content_addressed():
    """Same content => same digest, regardless of the backing object."""
    assert page_digest(make_page(5)) == page_digest(bytearray(make_page(5)))
    assert page_digest(make_page(5)) != page_digest(make_page(6))


# ----------------------------------------------------------------------
# Manifest round-trip (hypothesis)
# ----------------------------------------------------------------------
@given(
    name=st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FF),
        min_size=1,
        max_size=24,
    ),
    version=st.integers(1, 2**31 - 1),
    seeds=st.lists(
        st.one_of(st.none(), st.integers(0, 7)), min_size=0, max_size=12
    ),
    globals_snapshot=st.lists(
        st.tuples(
            st.sampled_from([I32, I64, F32, F64]),
            st.booleans(),
            st.integers(-(2**31), 2**31 - 1),
        ),
        max_size=6,
    ),
    table=st.one_of(
        st.none(), st.lists(st.one_of(st.none(), st.integers(0, 100)), max_size=8)
    ),
)
@settings(max_examples=60, deadline=None)
def test_manifest_round_trip(name, version, seeds, globals_snapshot, table):
    """Serialise/deserialise preserves digests (in order), zero-page
    elision markers, and the globals and table snapshots."""
    pages = [make_page(s) for s in seeds]
    digests = tuple(page_digest(p) for p in pages)
    manifest = SnapshotManifest(name, version, digests, globals_snapshot, table)
    restored = SnapshotManifest.from_bytes(manifest.to_bytes())
    assert restored == manifest
    # Digest stability: zero seeds are exactly the elided entries.
    for seed, digest in zip(seeds, restored.page_digests):
        assert (digest == ZERO_DIGEST) == (seed is None)
    assert restored.zero_pages == sum(1 for s in seeds if s is None)
    # The payload is deduplicated and zero-free.
    payload = restored.payload_digests()
    assert len(payload) == len(set(payload))
    assert ZERO_DIGEST not in payload
    assert restored.globals_snapshot == globals_snapshot
    assert restored.table_snapshot == table


# ----------------------------------------------------------------------
# PageStore
# ----------------------------------------------------------------------
def test_pagestore_dedups_shared_pages():
    """Two snapshots sharing pages store them once."""
    store = PageStore(host="h")
    snap_a = [make_page(1), make_page(2), make_page(3)]
    snap_b = [make_page(2), make_page(3), make_page(4)]  # shares 2 pages
    da = [page_digest(p) for p in snap_a]
    db = [page_digest(p) for p in snap_b]
    for d, p in zip(da, snap_a):
        store.insert(d, p)
    for d, p in zip(db, snap_b):
        store.insert(d, p)
    assert store.resident_pages == 4  # not 6
    assert store.stats()["dedup_hits"] == 2
    store.retain(da)
    store.retain(db)
    # Shared pages carry both snapshots' references.
    assert store.refcount(page_digest(make_page(2))) == 2
    assert store.refcount(page_digest(make_page(1))) == 1


def test_pagestore_refcount_lifecycle():
    store = PageStore()
    digests = [page_digest(make_page(i)) for i in (1, 2)]
    for i, d in zip((1, 2), digests):
        store.insert(d, make_page(i))
    store.retain(digests)
    store.retain(digests[:1])  # second snapshot uses only page 1
    assert store.release(digests) == 1  # page 2 evicted, page 1 survives
    assert store.contains(digests[0])
    assert not store.contains(digests[1])
    assert store.release(digests[:1]) == 1
    assert store.resident_pages == 0
    assert store.stats()["pages_evicted"] == 2


def test_pagestore_zero_page_intrinsic():
    store = PageStore()
    assert store.contains(ZERO_DIGEST)
    assert store.missing([ZERO_DIGEST, ZERO_DIGEST]) == []
    assert store.view(ZERO_DIGEST) == bytes(PAGE_SIZE)
    assert store.coverage([ZERO_DIGEST]) == 1.0
    # Zero pages are never stored.
    store.insert(ZERO_DIGEST, make_page(None))
    assert store.resident_pages == 0


def test_pagestore_insert_buffer_slices_not_copies():
    store = PageStore()
    pages = [make_page(1), make_page(2)]
    digests = [page_digest(p) for p in pages]
    buffer = bytearray(b"".join(bytes(p) for p in pages))
    assert store.insert_buffer(digests, buffer) == 2
    # The stored views alias the single pull buffer.
    assert store.view(digests[0]).obj is buffer
    assert store.view(digests[1]).obj is buffer
    with pytest.raises(ValueError):
        store.insert_buffer(digests, bytearray(PAGE_SIZE))  # wrong size


def test_pagestore_missing_and_coverage():
    store = PageStore()
    digests = [page_digest(make_page(i)) for i in range(4)]
    store.insert(digests[0], make_page(0))
    store.insert(digests[1], make_page(1))
    assert store.missing(digests) == digests[2:]
    assert store.coverage(digests) == 0.5
    # Duplicates and zero pages don't skew the score.
    assert store.coverage(digests[:2] + [ZERO_DIGEST] + digests[:2]) == 1.0


# ----------------------------------------------------------------------
# Repository + host cache: the delta-pull protocol
# ----------------------------------------------------------------------
SETUP_SRC = """
global int tag = 0;

export void setup(int k) {
    tag = k;
    int[] data = new int[65536];
    for (int i = 0; i < 65536; i = i + 2048) { data[i] = i + 1; }
    data[0] = k;
}

export int main() { return tag; }
"""


@pytest.fixture(scope="module")
def definition():
    return FunctionDefinition.build("delta-fn", build(SETUP_SRC))


def capture(definition, k: int) -> ProtoFaaslet:
    env = StandaloneEnvironment()
    return ProtoFaaslet.capture(
        definition, env, init=lambda f: f.invoke_export("setup", k)
    )


def test_delta_pull_ships_only_missing_pages(definition):
    repo = SnapshotRepository()
    cache = HostSnapshotCache("host-a", repo)

    repo.publish("delta-fn", capture(definition, 1))
    proto_v1 = cache.get_proto("delta-fn")
    assert proto_v1 is not None and proto_v1.version == 1
    first_bytes = cache.stats()["bytes_shipped"]
    assert first_bytes > 0

    # v2 differs in one data page (data[0] = 2) plus the globals blob.
    repo.publish("delta-fn", capture(definition, 2))
    proto_v2 = cache.get_proto("delta-fn")
    assert proto_v2.version == 2
    delta_bytes = cache.stats()["bytes_shipped"] - first_bytes
    assert 0 < delta_bytes < first_bytes / 2
    # The restored faaslet has v2 state.
    assert proto_v2.restore(StandaloneEnvironment()).call()[0] == 2


def test_fully_resident_restore_is_one_metadata_round_trip(definition):
    repo = SnapshotRepository()
    cache = HostSnapshotCache("host-a", repo)
    repo.publish("delta-fn", capture(definition, 1))
    cache.get_proto("delta-fn")

    before = cache.stats()
    # Republishing identical content bumps the version but shares every
    # page: the restore must ship zero pages in exactly one (metadata)
    # round trip.
    repo.publish("delta-fn", capture(definition, 1))
    proto = cache.get_proto("delta-fn")
    after = cache.stats()
    assert proto.version == 2
    assert after["bytes_shipped"] == before["bytes_shipped"]
    assert after["pages_shipped"] == before["pages_shipped"]
    assert after["round_trips"] == before["round_trips"] + 1


def test_cached_version_needs_no_page_pull(definition):
    repo = SnapshotRepository()
    cache = HostSnapshotCache("host-a", repo)
    repo.publish("delta-fn", capture(definition, 1))
    p1 = cache.get_proto("delta-fn")
    p2 = cache.get_proto("delta-fn")
    assert p1 is p2  # unchanged version: served from the proto cache
    assert cache.stats()["round_trips"] == 3  # 2 pulls + 1 freshness check


def test_repository_dedups_across_versions(definition):
    repo = SnapshotRepository()
    m1 = repo.publish("delta-fn", capture(definition, 1))
    stored_v1 = repo.store.resident_pages
    m2 = repo.publish("delta-fn", capture(definition, 2))
    shared = set(m1.payload_digests()) & set(m2.payload_digests())
    assert shared  # most pages are identical across versions
    # Only v2's exclusive pages were added; v1's exclusive pages released.
    assert repo.store.resident_pages == len(m2.payload_digests())
    assert repo.store.resident_pages <= stored_v1 + 2


def test_restore_across_hosts_via_manifest(definition):
    """Full path: capture -> publish -> pull on another host -> restore."""
    repo = SnapshotRepository()
    repo.publish("delta-fn", capture(definition, 7))
    cache = HostSnapshotCache("host-b", repo)
    proto = cache.get_proto("delta-fn")
    faaslet = proto.restore(StandaloneEnvironment(host="host-b"))
    code, _ = faaslet.call()
    assert code == 7
    # Restored pages alias the host PageStore (or the shared zero page).
    resident = cache.store
    for digest, view in zip(proto.page_digests, proto.frozen_pages):
        assert view is resident.view(digest) or digest == ZERO_DIGEST


def test_residency_callback_fires(definition):
    repo = SnapshotRepository()
    seen = []
    cache = HostSnapshotCache(
        "host-a", repo, on_residency=lambda fn, h, c: seen.append((fn, h, c))
    )
    repo.publish("delta-fn", capture(definition, 1))
    cache.get_proto("delta-fn")
    assert seen == [("delta-fn", "host-a", 1.0)]
    cache.get_proto("delta-fn")  # cached: no re-advertisement
    assert len(seen) == 1
