"""Open-loop ingestion throughput: batched front door vs per-call dispatch.

The ingestion plane (ISSUE 10) exists to absorb million-call open-loop
arrival streams: callers enqueue and leave, and the plane amortises every
per-call cost — record creation, admission, placement, bus traffic —
across batches. This harness quantifies that against the per-call
baseline, where each call walks the same road (``dispatch`` → one
scheduling pass → attempt record → ``bus.send``) as a batch of one.

Both sides run the same host-native echo guest on a default cluster, the
same host count, and the same number of queued calls, and both are *open
loop*: all calls are enqueued up front, then the harness waits for the
cluster to drain.

Acceptance (ISSUE 10): at 10⁵ queued calls the batched plane must sustain
**>= 5x** the per-call baseline's calls/s with bounded p99 sojourn and
zero stranded calls. ``--smoke`` runs a scaled-down probe (no ratio
assertion — small runs are dominated by warmup) used by the CI ingestion
job. The full run writes ``benchmarks/results/ingestion.json`` including
the ``smoke_floor`` row (batched calls/s, halved twice — machine-variance
margin) that ``tests/runtime/test_ingestion_smoke.py`` enforces in
tier-1.
"""

from __future__ import annotations

import time

import pytest

from conftest import report
from repro.runtime import FaasmCluster
from repro.runtime.ingest import IngestionConfig

HOSTS = 4
BATCH_SIZE = 128
SUBMIT_CHUNK = 1024
FULL_CALLS = 100_000
SMOKE_CALLS = 5_000
MIN_SPEEDUP = 5.0


def _echo(ctx):
    ctx.write_output(ctx.input())
    return 0


def _make_cluster() -> FaasmCluster:
    cluster = FaasmCluster(n_hosts=HOSTS)
    cluster.register_python("echo", _echo)
    return cluster


def _percentile(latencies: list[float], p: float) -> float:
    idx = min(len(latencies) - 1, int(p * (len(latencies) - 1)))
    return latencies[idx]


def measure_per_call(calls: int) -> dict:
    """Open-loop per-call baseline: ``cluster.dispatch`` per call, then
    wait for every record."""
    cluster = _make_cluster()
    try:
        start = time.perf_counter()
        ids = [cluster.dispatch("echo", b"x") for _ in range(calls)]
        records = cluster.calls.get_many(ids)
        for record in records:
            assert record.done.wait(300.0), f"call {record.call_id} stranded"
        elapsed = time.perf_counter() - start
        latencies = sorted(r.latency for r in records)
        stranded = sum(1 for r in records if not r.done.is_set())
    finally:
        cluster.shutdown()
    return {
        "calls_per_s": calls / elapsed,
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "stranded": stranded,
    }


def measure_batched(calls: int) -> dict:
    """Open-loop batched plane: bulk ``submit_many`` into the ingestion
    front door, then drain."""
    cluster = _make_cluster()
    try:
        plane = cluster.ingestion(
            IngestionConfig(
                batch_size=BATCH_SIZE, default_queue_limit=calls + 16
            )
        )
        plane.start()
        payloads = [b"x"] * SUBMIT_CHUNK
        start = time.perf_counter()
        submitted = 0
        while submitted < calls:
            take = min(SUBMIT_CHUNK, calls - submitted)
            results = cluster.submit_many("echo", payloads[:take])
            assert all(cid is not None for cid, _ in results)
            submitted += take
        plane.drain(timeout=300.0)  # raises on stragglers
        elapsed = time.perf_counter() - start
        sojourn = plane.sojourn_percentiles()
        stats = plane.stats()
        stranded = sum(
            1 for r in cluster.calls.all_records() if not r.done.is_set()
        )
    finally:
        cluster.shutdown()
    return {
        "calls_per_s": calls / elapsed,
        "p50_ms": sojourn["p50"] * 1e3,
        "p99_ms": sojourn["p99"] * 1e3,
        "stranded": stranded,
        "admitted": stats["tenants"]["default"]["served"],
    }


def _run(calls: int, smoke: bool) -> None:
    per_call = measure_per_call(calls)
    batched = measure_batched(calls)
    ratio = batched["calls_per_s"] / per_call["calls_per_s"]
    rows = [
        {
            "config": "per-call",
            "calls": calls,
            "calls_per_s": round(per_call["calls_per_s"], 1),
            "p50_sojourn_ms": round(per_call["p50_ms"], 1),
            "p99_sojourn_ms": round(per_call["p99_ms"], 1),
            "stranded": per_call["stranded"],
        },
        {
            "config": "batched",
            "calls": calls,
            "calls_per_s": round(batched["calls_per_s"], 1),
            "p50_sojourn_ms": round(batched["p50_ms"], 1),
            "p99_sojourn_ms": round(batched["p99_ms"], 1),
            "stranded": batched["stranded"],
        },
        {"config": "speedup", "speedup_x": round(ratio, 2)},
        {
            "config": "smoke_floor",
            "smoke_floor": round(batched["calls_per_s"] / 4, 1),
        },
    ]
    name = "ingestion_smoke" if smoke else "ingestion"
    report(
        name,
        f"Open-loop ingestion: batched vs per-call dispatch ({calls} calls)",
        rows,
        columns=[
            "config",
            "calls",
            "calls_per_s",
            "p50_sojourn_ms",
            "p99_sojourn_ms",
            "stranded",
            "speedup_x",
            "smoke_floor",
        ],
    )
    assert per_call["stranded"] == 0 and batched["stranded"] == 0
    if not smoke:
        # The batched plane must not trade throughput for unbounded queue
        # sojourn: p99 stays under the per-call baseline's p99.
        assert batched["p99_ms"] <= per_call["p99_ms"], (
            f"batched p99 {batched['p99_ms']:.1f} ms worse than per-call "
            f"{per_call['p99_ms']:.1f} ms"
        )
        assert ratio >= MIN_SPEEDUP, (
            f"batched ingestion is only {ratio:.2f}x the per-call baseline "
            f"({batched['calls_per_s']:.0f} vs "
            f"{per_call['calls_per_s']:.0f} calls/s); need "
            f">= {MIN_SPEEDUP}x"
        )


@pytest.mark.bench
def test_ingestion_throughput():
    _run(FULL_CALLS, smoke=False)


if __name__ == "__main__":  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down probe (5k calls, no ratio assertion) for CI",
    )
    opts = parser.parse_args()
    if opts.smoke:
        _run(SMOKE_CALLS, smoke=True)
    else:
        _run(FULL_CALLS, smoke=False)
