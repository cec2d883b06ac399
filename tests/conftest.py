"""Helpers shared by the test suite."""

from __future__ import annotations

import json
import pathlib
import time

from repro.faaslet import HostSnapshotCache, SnapshotManifest, SnapshotRepository

_RESULTS_DIR = pathlib.Path(__file__).parents[1] / "benchmarks" / "results"


def stored_floor(result_name: str, default: float, key: str = "smoke_floor") -> float:
    """The perf floor a benchmark stored in ``benchmarks/results/
    <result_name>.json`` (the first row carrying ``key``), or ``default``
    when the file or the row is missing (fresh checkout, no bench run)."""
    path = _RESULTS_DIR / f"{result_name}.json"
    if path.exists():
        for row in json.loads(path.read_text()):
            if key in row:
                return float(row[key])
    return default


def wait_for(condition, timeout: float = 10.0) -> None:
    """Poll until ``condition()`` holds; fail the test after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class _WireRepository(SnapshotRepository):
    """A repository whose manifests reach the host as bytes."""

    def manifest(self, name):
        manifest = super().manifest(name)
        return manifest and SnapshotManifest.from_bytes(manifest.to_bytes())


def ship_snapshot(definition, proto, host: str = "host-2"):
    """Carry ``proto`` to a cold second host the way the cluster does:
    ``SnapshotRepository.publish`` → the manifest's wire bytes → the pages
    the host lacks → ``HostSnapshotCache.get_proto``. Returns ``(the proto
    materialised there, that host's cache)``."""
    repository = _WireRepository()
    repository.publish(definition.name, proto)
    cache = HostSnapshotCache(host, repository)
    return cache.get_proto(definition), cache
