"""Tier-1 guard for the content-addressed snapshot plane, in exact counts.

A one-page version bump on a 16-page snapshot must ship exactly that
page, 16x fewer bytes than shipping every non-zero page, in two round
trips; a fully-resident restore must ship nothing in exactly one metadata
round trip; and a second function that shares pages with a resident one
must ship only its own. Every metric is a byte, page or trip count, not a
timing, so the guard is machine-independent — it catches regressions
that silently fall back to full-snapshot transfers (lost digests, a
PageStore that stopped deduplicating, a pull that re-ships resident
pages).
"""

import struct

import pytest

from repro.faaslet import (
    FunctionDefinition,
    HostSnapshotCache,
    ProtoFaaslet,
    SnapshotRepository,
)
from repro.minilang import build
from repro.wasm.types import PAGE_SIZE

_N_PAGES = 16


def _pages(seed_of_page, n=_N_PAGES):
    out = []
    for i in range(n):
        page = bytearray(PAGE_SIZE)
        struct.pack_into("<II", page, 0, seed_of_page(i), i)
        out.append(memoryview(bytes(page)))
    return out


def _definition(name):
    return FunctionDefinition.build(name, build("export int main() { return 0; }"))


def _proto(defn, pages):
    return ProtoFaaslet(defn, pages, [("i32", True, 0)], None)


@pytest.mark.smoke
def test_delta_pull_bytes_saved_floor():
    """A 1/16-page version bump ships exactly the changed page, 1/16 of
    the monolithic transfer, and an identical republish ships nothing."""
    defn = _definition("smoke-snap")
    repo = SnapshotRepository()
    cache = HostSnapshotCache("smoke-host", repo)

    repo.publish("smoke-snap", _proto(defn, _pages(lambda i: 1)))
    assert cache.get_proto("smoke-snap").version == 1

    v2 = _proto(defn, _pages(lambda i: 2 if i == 0 else 1))
    # The monolithic transfer ships every non-zero page, whatever the host
    # holds: all 16, against the delta's one.
    manifest = v2.manifest()
    assert manifest.n_pages - manifest.zero_pages == _N_PAGES
    repo.publish("smoke-snap", v2)
    before = cache.stats()
    assert cache.get_proto("smoke-snap").version == 2
    after = cache.stats()
    assert after["bytes_shipped"] - before["bytes_shipped"] == PAGE_SIZE
    # Metadata, then one batched page pull.
    assert after["round_trips"] - before["round_trips"] == 2

    # Fully-resident restore: zero pages, exactly one metadata round trip.
    v3 = _proto(defn, _pages(lambda i: 2 if i == 0 else 1))
    repo.publish("smoke-snap", v3)
    before = cache.stats()
    assert cache.get_proto("smoke-snap").version == 3
    after = cache.stats()
    assert after["bytes_shipped"] == before["bytes_shipped"]
    assert after["pages_shipped"] == before["pages_shipped"]
    assert after["round_trips"] == before["round_trips"] + 1


@pytest.mark.smoke
def test_cross_function_dedup_ships_only_exclusive_pages():
    """Two functions sharing 48 of 64 pages: pulling the second ships its
    16 exclusive pages, the 48 shared ones are PageStore dedup hits, and
    the host holds each shared page once."""
    repo = SnapshotRepository()
    cache = HostSnapshotCache("smoke-host", repo)
    defn_a, defn_b = _definition("snap-a"), _definition("snap-b")
    shared = _pages(lambda i: 7, n=48)
    repo.publish("snap-a", _proto(defn_a, shared + _pages(lambda i: 100)))
    repo.publish("snap-b", _proto(defn_b, shared + _pages(lambda i: 200)))

    cache.get_proto("snap-a")
    before = cache.stats()
    cache.get_proto("snap-b")
    after = cache.stats()
    assert after["bytes_shipped"] - before["bytes_shipped"] == 16 * PAGE_SIZE
    assert after["pull_dedup_hits"] - before["pull_dedup_hits"] == 48
    assert after["resident_pages"] == 48 + 16 + 16
