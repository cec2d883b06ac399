"""Fig. 9a — Polybench kernels in Faaslets vs native execution.

Each kernel is uploaded once (compiled to wasm, its definition built, its
Proto-Faaslet captured and every function lowered to Python: WAVM's compile
at upload, §3.4), timed as ``upload_ms``. A warm call, as the runtime makes
one (``reset``, then call a Faaslet restored from that Proto-Faaslet), is
timed best of five against the kernel's pure-Python native mirror.

**Scope note (see EXPERIMENTS.md):** the paper's ratios are ≈1× because WAVM
emits machine code; ours is generated Python with its SFI checks hoisted out
of its loops: measured warm ratios are a median 3.1–3.3× with subscripted
pass loads and 2.4–2.5× with streamed ones (2-vCPU VM, CPython 3.11).
Asserted: every checksum matches the native mirror bit-for-bit, and no kernel
is pathologically slower than the suite median (the paper's finding: SFI
adds no per-kernel pathologies beyond two loop-optimisation outliers).
"""

from __future__ import annotations

import time

import pytest

from conftest import report
from repro.apps.kernels import KERNELS, run_kernel_native
from repro.faaslet import FunctionDefinition
from repro.faaslet.snapshot import ProtoFaaslet
from repro.host import StandaloneEnvironment
from repro.minilang import build
from repro.wasm.compiled import lower_function

#: Per-kernel ratios as read off the paper's Fig. 9a bars (≈1.0 for most;
#: two kernels lose loop optimisations under wasm).
PAPER_RATIOS = {
    "2mm": 1.0, "3mm": 1.0, "atax": 0.9, "bicg": 0.9, "mvt": 1.0,
    "trisolv": 1.0, "cholesky": 1.1, "covariance": 1.45, "jacobi-1d": 1.0,
    "jacobi-2d": 1.1, "floyd-warshall": 0.9, "lu": 1.0, "durbin": 1.55,
    "seidel-2d": 1.0,
}


def _best(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _upload(kernel):
    """Compile, build, capture and lower once; the upload time and a Faaslet
    restored from the Proto-Faaslet."""
    start, env = time.perf_counter(), StandaloneEnvironment()
    module = build(kernel.source)
    definition = FunctionDefinition.build(kernel.name, module, entry="kernel")
    proto = ProtoFaaslet.capture(definition, env)
    for fn in definition.compiled:
        fn.compiled = fn.compiled or lower_function(fn, module)
    return time.perf_counter() - start, proto.restore(env)


def test_fig9a_polybench(benchmark):
    def run_suite():
        rows = []
        for name in sorted(KERNELS):
            kernel, n = KERNELS[name], KERNELS[name].default_n
            upload, faaslet = _upload(kernel)

            def warm():
                faaslet.reset()
                return faaslet.invoke_export("kernel", n)

            assert warm() == pytest.approx(run_kernel_native(kernel, n), rel=1e-12), name
            t_faaslet, t_native = _best(warm), _best(lambda: run_kernel_native(kernel, n))
            rows.append({"kernel": name, "upload_ms": round(upload * 1e3, 1),
                         "faaslet_ms": round(t_faaslet * 1e3, 2), "native_ms": round(t_native * 1e3, 2),
                         "ratio": round(t_faaslet / t_native, 2), "paper_ratio": PAPER_RATIOS[name]})
        return rows

    rows = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    report("fig9a_polybench", "Fig. 9a: Polybench warm calls in Faaslets vs native", rows)

    ratios = [r["ratio"] for r in rows]
    # No kernel pathologically worse than the suite median (the paper's
    # outliers are ~1.5x the others; we allow 4x for the generated code).
    median = sorted(ratios)[len(ratios) // 2]
    for row in rows:
        assert row["ratio"] < 4 * median, f"pathological kernel {row['kernel']}"
    assert len(rows) == len(KERNELS)


def test_fig9a_mvt_warm_call_is_nontrivial(benchmark):
    """Time warm calls of ``mvt`` on a Faaslet uploaded once, and check
    a call runs more than 100 000 guest instructions. It does not split
    the time between interpretation and the SFI bounds checks."""
    kernel = KERNELS["mvt"]
    n = kernel.default_n
    _, faaslet = _upload(kernel)
    benchmark(lambda: faaslet.invoke_export("kernel", n))
    instructions = faaslet.instance.instructions_executed
    assert instructions > 100_000  # the kernel is non-trivial
