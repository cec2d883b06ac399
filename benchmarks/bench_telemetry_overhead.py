"""Telemetry overhead: what tracing costs, and that "off" costs nothing.

The telemetry layer's contract is a **no-op fast path**: with tracing
disabled every instrumentation site is one ``ContextVar.get`` plus a
``None`` check. This harness measures full-lifecycle invocation
throughput (cluster dispatch → schedule → bus → Faaslet → guest) for a
Polybench kernel under three configurations:

* ``off`` — the default disabled tracer (what production runs pay);
* ``sampled-1.0`` — tracing on, every trace recorded;
* ``sampled-0.1`` — tracing on, head-sampled at 10 %;
* ``mined+profiled`` — full tracing plus the online trace miner, the
  continuous guest profiler, and SLO monitors (the whole observability
  plane from the profiles/SLO PR).

It writes ``benchmarks/results/telemetry_overhead.json`` including the
``smoke_floor`` (calls/s with tracing off, halved — a generous margin so
the guard survives machine variance) that the tier-1 smoke test
``tests/telemetry/test_overhead_smoke.py`` enforces: tracing-off
throughput must stay within 5 % of the stored floor.
"""

from __future__ import annotations

import time

import pytest

from conftest import report
from repro.apps.kernels import KERNELS
from repro.runtime import FaasmCluster
from repro.telemetry import Telemetry

#: Polybench guest with a call-style entry (kernel size kept small so the
#: harness measures lifecycle overhead, not arithmetic).
KERNEL_SRC = (
    KERNELS["jacobi-1d"].source
    + "\nexport int main() { float r = kernel(48); return 0; }\n"
)

CALLS = 60


def _measure(telemetry: Telemetry | None) -> tuple[float, int]:
    """Invoke the kernel ``CALLS`` times; returns (calls/s, spans kept)."""
    cluster = FaasmCluster(n_hosts=2, telemetry=telemetry)
    try:
        cluster.upload("poly", KERNEL_SRC)
        for _ in range(4):  # warm both hosts' pools and the code cache
            assert cluster.invoke("poly")[0] == 0
        start = time.perf_counter()
        for _ in range(CALLS):
            assert cluster.invoke("poly")[0] == 0
        elapsed = time.perf_counter() - start
        spans = len(cluster.trace_spans())
        miner = cluster.profiles
        mined = len(miner.functions()) if miner is not None else 0
    finally:
        cluster.shutdown()
    return CALLS / elapsed, spans, mined


def test_telemetry_overhead():
    configs = [
        ("off", None),
        ("sampled-1.0", Telemetry(enabled=True, sample_rate=1.0)),
        ("sampled-0.1", Telemetry(enabled=True, sample_rate=0.1)),
        (
            "mined+profiled",
            Telemetry(enabled=True, sample_rate=1.0, per_function=True),
        ),
    ]
    rows = []
    baseline = None
    for name, telemetry in configs:
        calls_per_s, spans, mined = _measure(telemetry)
        if baseline is None:
            baseline = calls_per_s
        rows.append(
            {
                "config": name,
                "calls_per_s": round(calls_per_s, 1),
                "ms_per_call": round(1e3 / calls_per_s, 3),
                "spans_recorded": spans,
                "functions_mined": mined,
                "overhead_pct": round((baseline / calls_per_s - 1) * 100, 2),
            }
        )
    rows.append({"config": "smoke_floor", "smoke_floor": round(baseline / 2, 1)})
    report("telemetry_overhead", "Telemetry overhead (Polybench lifecycle)", rows)
    # Tracing must actually record when on, and full tracing has to stay
    # cheap relative to an invocation (well under 2x the off path).
    assert rows[1]["spans_recorded"] > 0
    assert rows[1]["calls_per_s"] > rows[0]["calls_per_s"] / 2
    # The full observability plane (miner + profiler + SLOs) rides on the
    # same finished-span stream: it must actually mine and stay within the
    # same envelope as plain tracing.
    assert rows[3]["functions_mined"] > 0
    assert rows[3]["calls_per_s"] > rows[0]["calls_per_s"] / 2


if __name__ == "__main__":  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the tracing-off overhead guard (the tier-1 smoke "
        "marker) instead of the full measurement",
    )
    opts = parser.parse_args()
    if opts.smoke:
        import pathlib

        smoke_test = (
            pathlib.Path(__file__).resolve().parents[1]
            / "tests"
            / "telemetry"
            / "test_overhead_smoke.py"
        )
        target = ["-m", "smoke", str(smoke_test)]
    else:
        target = [__file__]
    raise SystemExit(pytest.main(["-x", "-q", "-s", *target]))
