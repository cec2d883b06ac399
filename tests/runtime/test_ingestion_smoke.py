"""Tier-1 guard: batched ingestion throughput must not regress.

``benchmarks/bench_ingestion.py`` measures open-loop batched-ingestion
throughput at 10⁵ queued calls (and asserts the issue's >= 5x speedup
over per-call dispatch) and stores a ``smoke_floor`` — a quarter of the
measured batched rate, so the guard tolerates slow CI machines — in
``benchmarks/results/ingestion.json``. This smoke test runs a scaled-down
batched burst and fails if throughput falls more than 5 % below that
floor, keeping the ingestion hot path (bulk record creation, admission,
batched placement, ``send_many``, pool execution) honest in tier-1.

Run via ``python benchmarks/bench_ingestion.py --smoke`` (full probe) or
``pytest -m smoke`` (this guard).
"""

import time

import pytest

from repro.runtime import FaasmCluster
from repro.runtime.ingest import IngestionConfig
from tests.conftest import stored_floor

#: Used when the results file is missing (fresh checkout, no bench run).
#: Deliberately loose: even a slow machine batches thousands of echo
#: calls per second, while a broken hot path (a re-introduced global
#: lock, a submitter that waits for a batch instead of placing it)
#: collapses well below it.
_DEFAULT_FLOOR = 2_000.0

_CALLS = 4_000
_CHUNK = 500


def _echo(ctx):
    ctx.write_output(ctx.input())
    return 0


@pytest.mark.smoke
def test_batched_ingestion_throughput_floor():
    cluster = FaasmCluster(n_hosts=4)
    try:
        cluster.register_python("echo", _echo)
        plane = cluster.ingestion(
            IngestionConfig(batch_size=128, default_queue_limit=_CALLS + 16)
        )
        # Warm the pools and code paths before timing.
        cluster.submit_many("echo", [b"w"] * 256)
        plane.drain(timeout=30.0)
        payloads = [b"x"] * _CHUNK
        start = time.perf_counter()
        for _ in range(_CALLS // _CHUNK):
            results = cluster.submit_many("echo", payloads)
            assert all(cid is not None for cid, _ in results)
        plane.drain(timeout=60.0)  # raises on stragglers
        elapsed = time.perf_counter() - start
        # Semantics first: every call finished, none stranded.
        records = cluster.calls.all_records()
        assert all(r.done.is_set() for r in records)
    finally:
        cluster.shutdown()
    calls_per_s = _CALLS / elapsed
    floor = stored_floor("ingestion", _DEFAULT_FLOOR)
    assert calls_per_s >= floor * 0.95, (
        f"batched ingestion throughput {calls_per_s:.1f} calls/s fell more "
        f"than 5% below the stored floor {floor} calls/s"
    )
