"""Cluster-level snapshot distribution: delta pulls, residency, recovery."""

import pytest

from repro.runtime import FaasmCluster

INIT_SRC = """
global int ready = 0;
export void init() {
    int[] data = new int[65536];
    for (int i = 0; i < 65536; i = i + 2048) { data[i] = i + 1; }
    ready = 1;
}
export int main() { return ready; }
"""


@pytest.fixture
def cluster():
    c = FaasmCluster(n_hosts=2)
    yield c
    c.shutdown()


def invoke_on_every_host(cluster, name):
    """Round-robin dispatch touches both hosts over a few calls."""
    for _ in range(4):
        assert cluster.invoke(name)[0] == 1


def test_cross_host_restore_is_metered(cluster):
    cluster.upload("warmed", INIT_SRC, init="init")
    manifest, _ = cluster.registry.snapshots.published("warmed")
    invoke_on_every_host(cluster, "warmed")
    stats = cluster.snapshot_stats()
    assert stats["repository"]["resident_pages"] > 0
    pulled = [s for s in stats["hosts"].values() if s["bytes_shipped"] > 0]
    assert pulled, stats
    for host_stats in pulled:
        # Delta protocol: pages arrive in whole-page units over at most
        # two round trips per restore (metadata + one batched page pull),
        # and a cold host ships each non-zero page once, no more.
        assert host_stats["bytes_shipped"] == host_stats["pages_shipped"] * 65536
        assert host_stats["pages_shipped"] == manifest.n_pages - manifest.zero_pages
        assert host_stats["round_trips"] >= 2
        assert host_stats["snapshots_cached"] == 1
        assert host_stats["resident_pages"] > 0


def test_repeat_restores_ship_nothing_new(cluster):
    cluster.upload("warmed", INIT_SRC, init="init")
    invoke_on_every_host(cluster, "warmed")
    before = cluster.snapshot_stats()
    invoke_on_every_host(cluster, "warmed")
    after = cluster.snapshot_stats()
    for host in after["hosts"]:
        assert (
            after["hosts"][host]["bytes_shipped"]
            == before["hosts"][host]["bytes_shipped"]
        )


def test_restore_advertises_page_residency(cluster):
    cluster.upload("warmed", INIT_SRC, init="init")
    cluster.invoke("warmed")
    resident = cluster.warm_sets.resident_hosts("warmed")
    assert resident  # the restoring host advertised itself
    for host, coverage in resident.items():
        assert host in ("host-0", "host-1")
        assert coverage == 1.0  # it pulled everything it was missing


def test_restores_counted_in_metrics_registry(cluster):
    cluster.upload("warmed", INIT_SRC, init="init")
    invoke_on_every_host(cluster, "warmed")
    assert cluster.telemetry.metrics.aggregate("snapshot.restores") >= 1
    assert cluster.telemetry.metrics.aggregate("snapshot.round_trips") >= 2


def test_host_death_clears_page_cache_and_residency(cluster):
    cluster.upload("warmed", INIT_SRC, init="init")
    invoke_on_every_host(cluster, "warmed")
    victim = next(
        i for i in cluster.instances
        if i.snapshots.stats()["resident_pages"] > 0
    )
    shipped_before = victim.snapshots.stats()["bytes_shipped"]
    victim.kill()
    assert victim.host not in cluster.warm_sets.resident_hosts("warmed")
    victim.restart()
    # The new life starts with an empty page cache...
    assert victim.snapshots.stats()["resident_pages"] == 0
    # ...and the next restore on it re-pulls the pages.
    victim.snapshots.get_proto("warmed")
    assert victim.snapshots.stats()["bytes_shipped"] > shipped_before
    assert cluster.warm_sets.resident_hosts("warmed")[victim.host] == 1.0


def test_pre_warm_pulls_through_snapshot_cache(cluster):
    cluster.upload("warmed", INIT_SRC, init="init")
    assert cluster.pre_warm("warmed", per_host=1) == 2
    stats = cluster.snapshot_stats()
    for host_stats in stats["hosts"].values():
        assert host_stats["snapshots_cached"] == 1
        assert host_stats["resident_pages"] > 0
