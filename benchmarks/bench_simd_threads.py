"""Vector ISA + guest threads: SIMD speedups and fork-join scaling.

Two experiments, both layered on the Fig. 8/9 workloads:

* **SIMD** — Polybench-style array kernels written twice in minilang:
  a scalar element loop and the `vec_*` intrinsic that compiles to the
  v128 lane ops. Both versions run on the compiled tier and are timed
  for real (wall-clock); the i32x4 kernels (4 lanes per dispatch) must
  clear the floor on at least two kernels. The floor is a ratio *to the
  scalar loop*, and the compiled tier inlines scalar arithmetic, every
  single-page access (v128 included) and, for a counted ``for`` loop like
  the scalar one, hoists the page checks out of the loop, while each v128
  lane op is still a call into ``simd.py`` and the intrinsics' pointer-
  stepped loops are not that counted shape: against the closure-threaded
  tier the ratio fell from 3.2-3.6x to 1.1-1.9x. f64x2 kernels carry only
  2 lanes per op, so one ``struct`` round trip per op still loses to two
  inline float operations (0.6-0.7x of the scalar loop); they are reported
  for completeness. Because that ratio changed meaning, the strength of
  the old guard moved to one that did not: each v128 kernel on the
  compiled tier against the same kernel on the interpreter
  (``simd_vs_interp``; 3.3x on the closure-threaded tier, 5.5-8.4x now),
  which a de-optimised v128 lowering fails.

* **Guest threads** — the Fig. 8 distributed matmul's *inner block*
  (one leaf multiplication of the divide-and-conquer) parallelised
  across guest threads with ``parallel_for``. Guest threads are
  cooperatively scheduled one-at-a-time, so the reported speedup is the
  **virtual-time model**: serial fuel over modeled parallel fuel, where
  each scheduler rotation advances the virtual clock by the maximum
  fuel any runnable thread consumed (i.e. what k cores would do).

Results land in ``benchmarks/results/simd_threads.json``. The fast
tier-1 proxy, ``tests/minilang/test_simd_threads_smoke.py``, holds its
own floors.
"""

from __future__ import annotations

import time

import pytest

from conftest import report
from repro.faaslet import Faaslet, FunctionDefinition
from repro.host import StandaloneEnvironment
from repro.minilang import build
from repro.wasm import instantiate

#: Real wall-clock floor for the 4-lane kernels (acceptance: >=2 kernels).
SIMD_FLOOR = 1.3

#: Wall-clock floor (>=2 i32x4 kernels) for the v128 loop on the compiled
#: tier over the same loop on the interpreter: add/min measure 4.3-5.3x
#: (axpy 3.4-4.6x), and all three 3.0-3.5x on the closure-threaded tier
#: this one replaced.
SIMD_VS_INTERP_FLOOR = 3.8

#: Virtual-time floor for parallel_for with 4 guest threads (Fig. 8 block).
THREADS_FLOOR = 2.0

SIMD_SRC = """
export int scalar_add_i(int n, int reps) {
    int[] a = new int[n];
    int[] b = new int[n];
    int[] o = new int[n];
    for (int i = 0; i < n; i += 1) { a[i] = i; b[i] = n - i; }
    for (int r = 0; r < reps; r += 1) {
        for (int i = 0; i < n; i += 1) { o[i] = a[i] + b[i]; }
    }
    return o[n - 1];
}

export int simd_add_i(int n, int reps) {
    int[] a = new int[n];
    int[] b = new int[n];
    int[] o = new int[n];
    for (int i = 0; i < n; i += 1) { a[i] = i; b[i] = n - i; }
    for (int r = 0; r < reps; r += 1) {
        vec_add_i(a, b, o, n);
    }
    return o[n - 1];
}

export int scalar_min_i(int n, int reps) {
    int[] a = new int[n];
    int[] b = new int[n];
    int[] o = new int[n];
    for (int i = 0; i < n; i += 1) { a[i] = i * 7 - 900; b[i] = 800 - i * 3; }
    for (int r = 0; r < reps; r += 1) {
        for (int i = 0; i < n; i += 1) {
            int m = a[i];
            if (b[i] < m) { m = b[i]; }
            o[i] = m;
        }
    }
    return o[n - 1];
}

export int simd_min_i(int n, int reps) {
    int[] a = new int[n];
    int[] b = new int[n];
    int[] o = new int[n];
    for (int i = 0; i < n; i += 1) { a[i] = i * 7 - 900; b[i] = 800 - i * 3; }
    for (int r = 0; r < reps; r += 1) {
        vec_min_i(a, b, o, n);
    }
    return o[n - 1];
}

export int scalar_axpy_i(int n, int reps) {
    int[] x = new int[n];
    int[] o = new int[n];
    for (int i = 0; i < n; i += 1) { x[i] = i; }
    for (int r = 0; r < reps; r += 1) {
        for (int i = 0; i < n; i += 1) { o[i] = o[i] + 3 * x[i]; }
    }
    return o[n - 1];
}

export int simd_axpy_i(int n, int reps) {
    int[] x = new int[n];
    int[] o = new int[n];
    for (int i = 0; i < n; i += 1) { x[i] = i; }
    for (int r = 0; r < reps; r += 1) {
        vec_axpy_i(3, x, o, n);
    }
    return o[n - 1];
}

export float scalar_axpy_f(int n, int reps) {
    float[] x = new float[n];
    float[] o = new float[n];
    for (int i = 0; i < n; i += 1) { x[i] = (float) i; }
    for (int r = 0; r < reps; r += 1) {
        for (int i = 0; i < n; i += 1) { o[i] = o[i] + 1.0001 * x[i]; }
    }
    return o[n - 1];
}

export float simd_axpy_f(int n, int reps) {
    float[] x = new float[n];
    float[] o = new float[n];
    for (int i = 0; i < n; i += 1) { x[i] = (float) i; }
    for (int r = 0; r < reps; r += 1) {
        vec_axpy_f(1.0001, x, o, n);
    }
    return o[n - 1];
}

export float scalar_dot_f(int n, int reps) {
    float[] a = new float[n];
    float[] b = new float[n];
    for (int i = 0; i < n; i += 1) { a[i] = (float) i; b[i] = 1.5; }
    float acc = 0.0;
    for (int r = 0; r < reps; r += 1) {
        float s = 0.0;
        for (int i = 0; i < n; i += 1) { s += a[i] * b[i]; }
        acc = s;
    }
    return acc;
}

export float simd_dot_f(int n, int reps) {
    float[] a = new float[n];
    float[] b = new float[n];
    for (int i = 0; i < n; i += 1) { a[i] = (float) i; b[i] = 1.5; }
    float acc = 0.0;
    for (int r = 0; r < reps; r += 1) {
        acc = vec_dot_f(a, b, n);
    }
    return acc;
}
"""

#: (display name, export suffix, lanes per v128 op)
SIMD_KERNELS = [
    ("add-i32", "add_i", 4),
    ("min-i32", "min_i", 4),
    ("axpy-i32", "axpy_i", 4),
    ("axpy-f64", "axpy_f", 2),
    ("dot-f64", "dot_f", 2),
]

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


def _best_of(fn, repeats: int = 3):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_simd_kernels_wallclock(benchmark):
    module = build(SIMD_SRC)
    inst = instantiate(module, tier="compiled")
    oracle = instantiate(module, tier="interp")
    n, reps = 512, 40

    def run_suite():
        rows = []
        for name, suffix, lanes in SIMD_KERNELS:
            t_scalar, r_scalar = _best_of(
                lambda s=suffix: inst.invoke(f"scalar_{s}", n, reps)
            )
            t_simd, r_simd = _best_of(
                lambda s=suffix: inst.invoke(f"simd_{s}", n, reps)
            )
            t_interp, r_interp = _best_of(
                lambda s=suffix: oracle.invoke(f"simd_{s}", n, reps)
            )
            assert r_simd == r_scalar == r_interp, f"{name}: SIMD result diverges"
            rows.append(
                {
                    "kernel": name,
                    "lanes": lanes,
                    "scalar_ms": round(t_scalar * 1e3, 1),
                    "simd_ms": round(t_simd * 1e3, 1),
                    "speedup": round(t_scalar / t_simd, 2),
                    "simd_interp_ms": round(t_interp * 1e3, 1),
                    "simd_vs_interp": round(t_interp / t_simd, 2),
                }
            )
        return rows

    rows = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    rows.append(
        {
            "kernel": "floors",
            "simd_floor": SIMD_FLOOR,
            "simd_vs_interp_floor": SIMD_VS_INTERP_FLOOR,
        }
    )
    report("simd_threads", "Vector ISA: scalar vs v128 kernels (wall-clock)", rows)

    cleared = [
        r for r in rows if r.get("lanes") == 4 and r["speedup"] >= SIMD_FLOOR
    ]
    assert len(cleared) >= 2, (
        f"expected >=2 i32x4 kernels at >= {SIMD_FLOOR}x, got "
        f"{[(r['kernel'], r['speedup']) for r in rows if 'lanes' in r]}"
    )
    ahead = [
        r for r in rows
        if r.get("lanes") == 4 and r["simd_vs_interp"] >= SIMD_VS_INTERP_FLOOR
    ]
    assert len(ahead) >= 2, (
        f"expected >=2 i32x4 kernels at >= {SIMD_VS_INTERP_FLOOR}x the "
        f"interpreter, got "
        f"{[(r['kernel'], r['simd_vs_interp']) for r in rows if 'lanes' in r]}"
    )


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
        "simd_threads_fig8",
        "Guest threads: Fig. 8 matmul block, virtual-time scaling",
        rows,
    )

    by_nt = {r["threads"]: r["modeled_speedup"] for r in rows}
    assert by_nt[4] >= THREADS_FLOOR, f"4-thread modeled speedup {by_nt[4]}"
    assert by_nt[1] <= by_nt[2] <= by_nt[4], "speedup must scale with threads"


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main(["-x", "-q", "-s", __file__]))
