"""Helpers shared by the test suite."""

from __future__ import annotations

import time
import weakref

import pytest

from repro.faaslet import HostSnapshotCache, SnapshotManifest, SnapshotRepository
from repro.runtime import FaasmCluster


#: Every cluster built while the suite runs.
_clusters: "weakref.WeakSet[FaasmCluster]" = weakref.WeakSet()
_cluster_init = FaasmCluster.__init__


def _tracked_init(self, *args, **kwargs):
    _cluster_init(self, *args, **kwargs)
    _clusters.add(self)


FaasmCluster.__init__ = _tracked_init


def _shut_down_new_clusters():
    before = set(_clusters)
    yield
    for cluster in list(_clusters):
        if cluster not in before:
            cluster.shutdown()


@pytest.fixture(autouse=True)
def _shut_down_test_clusters():
    """Shut down the clusters a test built and left running. A cluster's
    timer thread and its bus seats never retire, so without this every
    later test, the timed ones included, shares the interpreter with the
    threads of all the clusters before it."""
    yield from _shut_down_new_clusters()


@pytest.fixture(autouse=True, scope="module")
def _shut_down_module_clusters():
    """The same for clusters a module-scoped fixture built, once the
    module is done with them."""
    yield from _shut_down_new_clusters()


def wait_for(condition, timeout: float = 10.0) -> None:
    """Poll until ``condition()`` holds; fail the test after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class _WireRepository(SnapshotRepository):
    """A repository whose manifests reach the host as bytes."""

    def published(self, name):
        manifest, definition = super().published(name)
        return SnapshotManifest.from_bytes(manifest.to_bytes()), definition


def ship_snapshot(definition, proto, host: str = "host-2"):
    """Carry ``proto`` to a cold second host the way the cluster does:
    ``SnapshotRepository.publish`` → the manifest's wire bytes → the pages
    the host lacks → ``HostSnapshotCache.get_proto``. Returns ``(the proto
    materialised there, that host's cache)``."""
    repository = _WireRepository()
    repository.publish(definition.name, proto)
    cache = HostSnapshotCache(host, repository)
    return cache.get_proto(definition.name), cache
