"""Guest threads: fork-join scaling of the Fig. 8 block.

The Fig. 8 distributed matmul's *inner block* (one leaf multiplication of
the divide-and-conquer) is parallelised across guest threads with
``parallel_for``. Guest threads are cooperatively scheduled one-at-a-time,
so the reported speedup is the **virtual-time model**: serial fuel over
modeled parallel fuel, where each scheduler rotation advances the virtual
clock by the maximum fuel any runnable thread consumed (i.e. what k cores
would do).

Results land in ``benchmarks/results/threads_fig8.json``. The fast tier-1
proxy, ``tests/minilang/test_threads_smoke.py``, holds its own floor.
"""

from __future__ import annotations

import time

import pytest

from conftest import report
from repro.faaslet import Faaslet, FunctionDefinition
from repro.host import StandaloneEnvironment
from repro.minilang import build

#: Virtual-time floor for parallel_for with 4 guest threads (Fig. 8 block).
THREADS_FLOOR = 2.0

#: Fig. 8's leaf multiplication: one n x n block of the divide-and-conquer,
#: rows split across guest threads. ``matmul_seq`` is the serial mirror
#: used to validate the parallel result.
MATMUL_SRC = """
export float matmul_par(int n, int nt) {
    float[] a = new float[n * n];
    float[] b = new float[n * n];
    float[] c = new float[n * n];
    for (int i = 0; i < n * n; i += 1) {
        a[i] = (float) (i % 13) * 0.25;
        b[i] = (float) (i % 7) - 3.0;
    }
    parallel_for (int i = 0; n; nt) {
        for (int j = 0; j < n; j += 1) {
            float s = 0.0;
            for (int k = 0; k < n; k += 1) {
                s += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = s;
        }
    }
    float sum = 0.0;
    for (int i = 0; i < n * n; i += 1) { sum += c[i]; }
    return sum;
}

export float matmul_seq(int n) {
    float[] a = new float[n * n];
    float[] b = new float[n * n];
    float[] c = new float[n * n];
    for (int i = 0; i < n * n; i += 1) {
        a[i] = (float) (i % 13) * 0.25;
        b[i] = (float) (i % 7) - 3.0;
    }
    for (int i = 0; i < n; i += 1) {
        for (int j = 0; j < n; j += 1) {
            float s = 0.0;
            for (int k = 0; k < n; k += 1) {
                s += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = s;
        }
    }
    float sum = 0.0;
    for (int i = 0; i < n * n; i += 1) { sum += c[i]; }
    return sum;
}
"""


def test_parallel_for_fig8_block(benchmark):
    """Fig. 8 matmul inner block across 1/2/4 guest threads: virtual-time
    speedup must scale, reaching >= 2x at four threads."""
    n = 24
    module = build(MATMUL_SRC)
    expected = None

    def run_sweep():
        nonlocal expected
        rows = []
        seq = Faaslet(
            FunctionDefinition.build("matmul", module, entry="matmul_seq"),
            StandaloneEnvironment(),
        )
        expected = seq.invoke_export("matmul_seq", n)
        for nt in (1, 2, 4):
            faaslet = Faaslet(
                FunctionDefinition.build("matmul", module, entry="matmul_par"),
                StandaloneEnvironment(),
            )
            start = time.perf_counter()
            result = faaslet.invoke_export("matmul_par", n, nt)
            elapsed = time.perf_counter() - start
            assert result == expected, f"nt={nt}: parallel result diverges"
            stats = faaslet.thread_runtime.stats()
            rows.append(
                {
                    "threads": nt,
                    "block": f"{n}x{n}",
                    "wall_ms": round(elapsed * 1e3, 1),
                    "total_fuel": stats["total_fuel"],
                    "virtual_fuel": stats["virtual_fuel"],
                    "modeled_speedup": round(stats["modeled_speedup"], 2),
                }
            )
        return rows

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report(
        "threads_fig8",
        "Guest threads: Fig. 8 matmul block, virtual-time scaling",
        rows,
    )

    by_nt = {r["threads"]: r["modeled_speedup"] for r in rows}
    assert by_nt[4] >= THREADS_FLOOR, f"4-thread modeled speedup {by_nt[4]}"
    assert by_nt[1] <= by_nt[2] <= by_nt[4], "speedup must scale with threads"


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main(["-x", "-q", "-s", __file__]))
