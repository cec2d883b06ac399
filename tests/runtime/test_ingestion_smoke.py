"""Tier-1 guard: batched ingestion must beat per-call dispatch.

The ingestion plane exists to amortise every per-call cost — record
creation, admission, placement, bus traffic — across batches. This guard
sends the same 4 000-call open-loop burst of a host-native echo through
both roads on identical 4-host clusters, in the same run: per-call
``dispatch`` (one scheduling pass and one bus send per call) and bulk
``submit_many`` into the batched front door, alternating, three bursts
each. The batched road's best burst must keep :data:`RATIO_FLOOR` times
the per-call road's best. The floor is a ratio of two rates measured on
the same machine within a second, so it holds on a slow machine and
fails on a broken hot path (a re-introduced global lock, a submitter that
waits for a batch instead of placing it) on any.

``benchmarks/bench_ingestion.py`` runs the same comparison at 10⁵ calls.
"""

import time

import pytest

from repro.runtime import FaasmCluster
from repro.runtime.ingest import IngestionConfig

_CALLS = 4_000
_CHUNK = 500
_ROUNDS = 3

#: Best batched burst over best per-call burst. Twelve runs on a 2-vCPU
#: VM, six alone and six after the rest of ``tests/runtime``, measured
#: 1.95-2.59x; batches of one measure 0.77-0.88x.
RATIO_FLOOR = 1.5


def _echo(ctx):
    ctx.write_output(ctx.input())
    return 0


def _cluster() -> FaasmCluster:
    cluster = FaasmCluster(n_hosts=4)
    cluster.register_python("echo", _echo)
    return cluster


def _per_call_burst(cluster) -> float:
    start = time.perf_counter()
    ids = [cluster.dispatch("echo", b"x") for _ in range(_CALLS)]
    for record in cluster.calls.get_many(ids):
        assert record.done.wait(60.0), f"call {record.call_id} stranded"
    return _CALLS / (time.perf_counter() - start)


def _batched_burst(cluster) -> float:
    payloads = [b"x"] * _CHUNK
    start = time.perf_counter()
    for _ in range(_CALLS // _CHUNK):
        results = cluster.submit_many("echo", payloads)
        assert all(cid is not None for cid, _ in results)
    cluster.ingestion().drain(timeout=60.0)  # raises on stragglers
    return _CALLS / (time.perf_counter() - start)


@pytest.mark.smoke
def test_batched_ingestion_throughput_floor():
    per_call, batched = _cluster(), _cluster()
    try:
        batched.ingestion(
            IngestionConfig(batch_size=128, default_queue_limit=_CALLS + 16)
        )
        # Warm the pools and code paths before timing.
        for cid in [per_call.dispatch("echo", b"w") for _ in range(256)]:
            per_call.calls.wait(cid, 30.0)
        batched.submit_many("echo", [b"w"] * 256)
        batched.ingestion().drain(timeout=30.0)
        # Alternate the roads and keep each one's best burst, so a pause
        # that lands in one burst does not decide the ratio.
        rates = [
            (_per_call_burst(per_call), _batched_burst(batched))
            for _ in range(_ROUNDS)
        ]
        # Semantics first: every call finished, none stranded.
        for cluster in (per_call, batched):
            assert all(r.done.is_set() for r in cluster.calls.all_records())
    finally:
        per_call.shutdown()
        batched.shutdown()
    best_per_call = max(p for p, _ in rates)
    best_batched = max(b for _, b in rates)
    assert best_batched >= RATIO_FLOOR * best_per_call, (
        f"batched ingestion {best_batched:.0f} calls/s is "
        f"{best_batched / best_per_call:.2f}x per-call dispatch "
        f"({best_per_call:.0f} calls/s), below {RATIO_FLOOR}x; "
        f"bursts {[(round(p), round(b)) for p, b in rates]}"
    )
