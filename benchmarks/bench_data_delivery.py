"""Proactive data delivery benchmark: the cold-path prefetch win.

The demand-only two-tier plane (§4.2) charges every cold call its hot
state on the critical path. The delivery plane (DESIGN.md §10) moves it
earlier; the claim is **byte-counted, not timed**, so it is
machine-independent:

* **Cold-path prefetch** — a profile-guided speculative pull delivers the
  function's hot ranges before the guest asks: the guest's own reads then
  move zero further bytes, and every prefetched byte is credited as hit
  (no waste for an exact profile).

What a chained callee's forced pull moves is no longer a delivery policy
but the pull protocol itself; its exact byte counts are gated in tier-1
by ``tests/state/test_delta_pull_bytes.py``.

The row lands in ``benchmarks/results/data_delivery.json``.
"""

from __future__ import annotations

from conftest import report
from repro.host.filesystem import GlobalObjectStore
from repro.state.api import StateAPI
from repro.state.kv import GlobalStateStore, StateClient, TransferMeter
from repro.state.local import LocalTier
from repro.state.prefetch import DeliveryPolicy, Prefetcher
from repro.telemetry import AccessProfile, ProfileStore

KEY = "delivery/grid"
SIZE = 256 * 1024

def test_cold_path_prefetch_hits_cover_demand():
    """An exact profile: the speculative pull moves the hot bytes, the
    guest's demand reads move nothing further, zero waste."""
    store = GlobalStateStore()
    store.set_value(KEY, b"\x66" * SIZE)
    meter = TransferMeter()
    tier = LocalTier("cold-host", StateClient(store, meter))

    profiles = ProfileStore(GlobalObjectStore())
    profile = AccessProfile("fn")
    profile.calls = 10
    profile.key_profile(KEY).reads.add(0, SIZE, 10)
    profiles.save(profile)
    prefetcher = Prefetcher(
        "cold-host", tier, profiles,
        DeliveryPolicy.aggressive(synchronous=True),
    )

    handle = prefetcher.begin("fn")
    assert handle is not None and handle.wait(5)
    prefetched = handle.bytes_pulled

    demand_before = meter.received_bytes
    view = StateAPI(tier).get_state(KEY, mark_dirty=False)
    assert bytes(view) == b"\x66" * SIZE
    demand_bytes = meter.received_bytes - demand_before

    stats = prefetcher.stats()["fn"]
    row = {
        "scenario": f"cold-path prefetch ({SIZE//1024}KiB hot, exact profile)",
        "prefetched_bytes": prefetched,
        "demand_bytes_after_prefetch": demand_bytes,
        "hit_bytes": stats["hit_bytes"],
        "waste_bytes": stats["waste_bytes"],
    }
    report(
        "data_delivery", "Proactive data delivery: prefetch", [row], list(row)
    )
    assert prefetched == SIZE
    assert demand_bytes == 0
    assert stats["hit_bytes"] == SIZE
    assert stats["waste_bytes"] == 0


if __name__ == "__main__":
    import subprocess
    import sys

    sys.exit(subprocess.call(
        [sys.executable, "-m", "pytest", "-s", "-q", __file__]
    ))
