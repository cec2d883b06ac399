"""Tier-1 guard: tracing off must not slow the invocation lifecycle.

``benchmarks/bench_telemetry_overhead.py`` measures full cluster-invoke
throughput on a Polybench kernel and stores a ``smoke_floor`` (half the
measured tracing-off rate, so the guard tolerates machine variance) in
``benchmarks/results/telemetry_overhead.json``. This smoke test re-runs
the tracing-off configuration and fails if throughput regresses more
than 5 % below that floor — the "no-op fast path" acceptance bound from
the telemetry issue.

Run via ``python benchmarks/bench_telemetry_overhead.py --smoke`` or
``pytest -m smoke``.
"""

import time

import pytest

from repro.apps.kernels import KERNELS
from repro.runtime import FaasmCluster
from repro.telemetry import span
from repro.telemetry.trace import NOOP_SPAN
from tests.conftest import stored_floor

#: Used when the results file is missing (fresh checkout, no bench run).
_DEFAULT_FLOOR = 5.0

_KERNEL_SRC = (
    KERNELS["jacobi-1d"].source
    + "\nexport int main() { float r = kernel(48); return 0; }\n"
)


@pytest.mark.smoke
def test_tracing_off_throughput_floor():
    cluster = FaasmCluster(n_hosts=2)  # default telemetry: disabled
    try:
        cluster.upload("poly", _KERNEL_SRC)
        for _ in range(4):
            assert cluster.invoke("poly")[0] == 0
        calls = 30
        start = time.perf_counter()
        for _ in range(calls):
            assert cluster.invoke("poly")[0] == 0
        elapsed = time.perf_counter() - start
        # Semantics first: disabled tracing records nothing, and the
        # instrumentation entry point short-circuits to the no-op span.
        assert cluster.trace_spans() == []
        assert span("anything") is NOOP_SPAN
    finally:
        cluster.shutdown()
    calls_per_s = calls / elapsed
    floor = stored_floor("telemetry_overhead", _DEFAULT_FLOOR)
    assert calls_per_s >= floor * 0.95, (
        f"tracing-off throughput {calls_per_s:.1f} calls/s fell more than "
        f"5% below the stored floor {floor} calls/s "
        f"({elapsed * 1e3 / calls:.2f} ms/call)"
    )
