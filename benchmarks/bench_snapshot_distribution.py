"""Snapshot distribution benchmarks: delta pulls, residency, dedup.

Supporting numbers for the Tab. 3 / Fig. 10 scalability story: restoring
a Proto-Faaslet on another host must cost O(missing pages), not
O(snapshot size). Four measurements against the real content-addressed
plane (:mod:`repro.faaslet.pagestore`):

* **Delta pull vs full transfer** — a host holding version N of a 64-page
  snapshot pulls version N+1 (one page changed): the delta pull must ship
  ≥90% fewer bytes than shipping every non-zero page. Headline
  metric is ``bytes_saved_ratio`` (byte-counted, not timed), with the
  tier-1 smoke floor (``tests/faaslet/test_snapshot_distribution_smoke
  .py``) stored alongside.
* **Fully-resident restore** — republishing identical content bumps the
  version but shares every page: the pull is exactly ONE metadata round
  trip and ships zero pages.
* **Cross-function dedup** — two functions sharing most pages: pulling
  the second ships only its exclusive pages, the rest are PageStore
  dedup hits.
* **Cluster end-to-end** — a real two-host cluster restoring an
  initialised function everywhere: per-restore round trips stay ≤2 and
  repeat restores ship nothing.

Rows accumulate into ``benchmarks/results/snapshot_distribution.json``.

Run ``python benchmarks/bench_snapshot_distribution.py --smoke`` for just
the fast tier-1 regression guard.
"""

from __future__ import annotations

import struct
import time

import pytest

from conftest import report
from repro.faaslet import (
    FunctionDefinition,
    HostSnapshotCache,
    ProtoFaaslet,
    SnapshotRepository,
)
from repro.minilang import build
from repro.runtime import FaasmCluster
from repro.wasm.types import PAGE_SIZE

#: Delta-vs-full bytes-saved floor enforced by the tier-1 smoke guard
#: (tests/faaslet/test_snapshot_distribution_smoke.py reads it from the
#: results JSON). ISSUE 5 acceptance: ≥90% fewer bytes, i.e. ≥10x.
SMOKE_FLOOR = 10.0

_N_PAGES = 64

_rows: list[dict] = []


def _report_all() -> None:
    columns: list[str] = []
    for row in _rows:
        columns.extend(c for c in row if c not in columns)
    report(
        "snapshot_distribution",
        "Snapshot distribution: content-addressed delta pulls",
        _rows,
        columns,
    )


def _definition(name: str) -> FunctionDefinition:
    return FunctionDefinition.build(
        name, build("export int main() { return 0; }")
    )


def synth_pages(n: int, seed: int, changed: dict[int, int] | None = None):
    """``n`` deterministic distinct pages; ``changed`` overrides the
    content seed of individual page indices (a new snapshot version)."""
    changed = changed or {}
    pages = []
    for i in range(n):
        page = bytearray(PAGE_SIZE)
        struct.pack_into("<II", page, 0, changed.get(i, seed), i)
        pages.append(memoryview(bytes(page)))
    return pages


def synth_proto(definition, pages) -> ProtoFaaslet:
    return ProtoFaaslet(definition, pages, [("i32", True, 0)], None)


def _full_transfer_bytes(proto) -> int:
    """What a monolithic transfer moves: every non-zero page, whatever the
    receiving host already holds."""
    manifest = proto.manifest()
    return (manifest.n_pages - manifest.zero_pages) * PAGE_SIZE


def test_delta_pull_vs_full_transfer():
    """Version bump with 1/64 pages changed: ship the delta, not the blob."""
    repo = SnapshotRepository()
    cache = HostSnapshotCache("bench-host", repo)
    defn = _definition("snapdist")

    repo.publish("snapdist", synth_proto(defn, synth_pages(_N_PAGES, seed=1)))
    cache.get_proto(defn)  # host now holds v1

    v2 = synth_proto(
        defn, synth_pages(_N_PAGES, seed=1, changed={0: 2})
    )
    full_bytes = _full_transfer_bytes(v2)
    repo.publish("snapdist", v2)

    before = cache.stats()
    proto = cache.get_proto(defn)
    shipped = cache.stats()["bytes_shipped"] - before["bytes_shipped"]
    trips = cache.stats()["round_trips"] - before["round_trips"]
    ratio = full_bytes / shipped

    assert proto.version == 2
    _rows.append(
        {
            "scenario": f"delta pull (1/{_N_PAGES} pages changed)",
            "full_transfer_bytes": full_bytes,
            "delta_pull_bytes": shipped,
            "round_trips": trips,
            "bytes_saved_ratio": round(ratio, 1),
            "smoke_floor": SMOKE_FLOOR,
        }
    )
    _report_all()
    assert shipped == PAGE_SIZE  # exactly the one changed page
    assert trips == 2  # metadata + one batched page pull
    assert ratio >= SMOKE_FLOOR, (
        f"delta pull saved only {ratio:.1f}x, target {SMOKE_FLOOR}x"
    )


def test_fully_resident_restore_zero_transfer():
    """Identical republish: one metadata round trip, zero pages shipped."""
    repo = SnapshotRepository()
    cache = HostSnapshotCache("bench-host", repo)
    defn = _definition("snapdist")

    repo.publish("snapdist", synth_proto(defn, synth_pages(_N_PAGES, seed=1)))
    cache.get_proto(defn)
    repo.publish("snapdist", synth_proto(defn, synth_pages(_N_PAGES, seed=1)))

    before = cache.stats()
    proto = cache.get_proto(defn)
    after = cache.stats()
    trips = after["round_trips"] - before["round_trips"]
    shipped = after["bytes_shipped"] - before["bytes_shipped"]
    pages = after["pages_shipped"] - before["pages_shipped"]

    _rows.append(
        {
            "scenario": "fully-resident restore (identical republish)",
            "delta_pull_bytes": shipped,
            "pages_shipped": pages,
            "round_trips": trips,
        }
    )
    _report_all()
    assert proto.version == 2
    assert (shipped, pages, trips) == (0, 0, 1)


def test_cross_function_dedup():
    """Two functions sharing 48/64 pages: the second ships only its own."""
    repo = SnapshotRepository()
    cache = HostSnapshotCache("bench-host", repo)
    defn_a, defn_b = _definition("snap-a"), _definition("snap-b")

    shared = synth_pages(48, seed=7)
    repo.publish(
        "snap-a", synth_proto(defn_a, shared + synth_pages(16, seed=100))
    )
    repo.publish(
        "snap-b", synth_proto(defn_b, shared + synth_pages(16, seed=200))
    )
    cache.get_proto(defn_a)
    before = cache.stats()
    cache.get_proto(defn_b)
    after = cache.stats()
    shipped = after["bytes_shipped"] - before["bytes_shipped"]
    dedup = after["pull_dedup_hits"] - before["pull_dedup_hits"]

    _rows.append(
        {
            "scenario": "cross-function dedup (48/64 pages shared)",
            "delta_pull_bytes": shipped,
            "pages_shipped": shipped // PAGE_SIZE,
            "dedup_hits": dedup,
            "resident_pages": after["resident_pages"],
        }
    )
    _report_all()
    assert shipped == 16 * PAGE_SIZE  # only snap-b's exclusive pages
    assert dedup == 48
    # The store holds each shared page once across both snapshots.
    assert after["resident_pages"] == 48 + 16 + 16


INIT_SRC = """
global int ready = 0;
export void init() {
    int[] data = new int[65536];
    for (int i = 0; i < 65536; i = i + 2048) { data[i] = i + 1; }
    ready = 1;
}
export int main() { return ready; }
"""


def test_cluster_end_to_end():
    """A real two-host cluster restores an initialised function everywhere;
    repeat invocations ship nothing new."""
    cluster = FaasmCluster(n_hosts=2)
    try:
        cluster.upload("warmed", INIT_SRC, init="init")
        full_bytes = _full_transfer_bytes(cluster.registry.proto("warmed"))
        start = time.perf_counter()
        for _ in range(8):
            assert cluster.invoke("warmed")[0] == 1
        elapsed = time.perf_counter() - start
        stats = cluster.snapshot_stats()
        hosts = stats["hosts"].values()
        total_shipped = sum(s["bytes_shipped"] for s in hosts)
        total_trips = sum(s["round_trips"] for s in hosts)
        restores = sum(1 for s in hosts if s["snapshots_cached"])
        _rows.append(
            {
                "scenario": "cluster end-to-end (2 hosts, 8 calls)",
                "full_transfer_bytes": full_bytes * restores,
                "delta_pull_bytes": total_shipped,
                "round_trips": total_trips,
                "repo_pages": stats["repository"]["resident_pages"],
                "wall_s": round(elapsed, 3),
            }
        )
        _report_all()
        # Each restoring host paid one manifest + at most one page pull;
        # warm reuse means later calls touch the plane only rarely.
        assert total_shipped <= full_bytes * restores
        resident = cluster.warm_sets.resident_hosts("warmed")
        assert all(c == 1.0 for c in resident.values())
    finally:
        cluster.shutdown()


if __name__ == "__main__":  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the fast delta-pull regression guard (the tier-1 "
        "smoke marker) instead of the full benchmark suite",
    )
    opts = parser.parse_args()
    if opts.smoke:
        target = [
            "-m", "smoke", "tests/faaslet/test_snapshot_distribution_smoke.py"
        ]
    else:
        target = [__file__]
    raise SystemExit(pytest.main(["-x", "-q", "-s", *target]))
