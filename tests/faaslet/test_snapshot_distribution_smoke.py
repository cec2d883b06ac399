"""Tier-1 regression guard for the content-addressed snapshot plane.

The full benchmark (``benchmarks/bench_snapshot_distribution.py``)
measures delta pulls on 64-page snapshots; this smoke test is its fast
tier-1 proxy: a one-page version bump on a 16-page snapshot must still
ship at least the bytes-saved floor stored in
``benchmarks/results/snapshot_distribution.json`` fewer bytes than
shipping every non-zero page, and a fully-resident restore must ship nothing in
exactly one metadata round trip. Both metrics are deterministic byte/trip
counts, not timings, so the guard is machine-independent — it catches
regressions that silently fall back to full-snapshot transfers (lost
digests, a PageStore that stopped deduplicating, a pull that re-ships
resident pages).

Run just this guard with ``python benchmarks/bench_snapshot_distribution.py
--smoke`` or ``pytest -m smoke``.
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
from tests.conftest import stored_floor

#: Used when the results file is missing (fresh checkout, no bench run).
_DEFAULT_FLOOR = 10.0

_N_PAGES = 16


def _pages(seed_of_page):
    out = []
    for i in range(_N_PAGES):
        page = bytearray(PAGE_SIZE)
        struct.pack_into("<II", page, 0, seed_of_page(i), i)
        out.append(memoryview(bytes(page)))
    return out


@pytest.mark.smoke
def test_delta_pull_bytes_saved_floor():
    """A 1/16-page version bump must ship ≥floor× fewer bytes than the
    monolithic transfer, and an identical republish must ship nothing."""
    defn = FunctionDefinition.build(
        "smoke-snap", build("export int main() { return 0; }")
    )
    repo = SnapshotRepository()
    cache = HostSnapshotCache("smoke-host", repo)

    repo.publish(
        "smoke-snap",
        ProtoFaaslet(defn, _pages(lambda i: 1), [("i32", True, 0)], None),
    )
    assert cache.get_proto(defn).version == 1

    v2 = ProtoFaaslet(
        defn, _pages(lambda i: 2 if i == 0 else 1), [("i32", True, 0)], None
    )
    # The monolithic transfer: every non-zero page, whatever the host holds.
    manifest = v2.manifest()
    full_bytes = (manifest.n_pages - manifest.zero_pages) * PAGE_SIZE
    repo.publish("smoke-snap", v2)
    before = cache.stats()
    assert cache.get_proto(defn).version == 2
    shipped = cache.stats()["bytes_shipped"] - before["bytes_shipped"]

    # Semantics first: the guard is meaningless if the pull is wrong.
    assert shipped == PAGE_SIZE, "delta must be exactly the changed page"
    ratio = full_bytes / shipped
    floor = stored_floor("snapshot_distribution", _DEFAULT_FLOOR)
    assert ratio >= floor, (
        f"delta pull saved only {ratio:.1f}x bytes, below the stored "
        f"floor {floor}x ({shipped} of {full_bytes} bytes shipped)"
    )

    # Fully-resident restore: zero pages, exactly one metadata round trip.
    repo.publish(
        "smoke-snap",
        ProtoFaaslet(
            defn, _pages(lambda i: 2 if i == 0 else 1), [("i32", True, 0)], None
        ),
    )
    before = cache.stats()
    assert cache.get_proto(defn).version == 3
    after = cache.stats()
    assert after["bytes_shipped"] == before["bytes_shipped"]
    assert after["round_trips"] == before["round_trips"] + 1
