"""Tier-1 regression guard for the vector ISA and guest threads.

``benchmarks/bench_simd_threads.py`` measures the scalar-vs-v128 kernels
and the Fig. 8 fork-join block at real problem sizes; this is its fast
tier-1 proxy, and every floor it checks is held here:

* the v128 ``vec_min_i`` kernel must stay faster than its scalar loop
  (:data:`SIMD_FLOOR`, a same-run wall-clock ratio of the best of 9
  alternating rounds each, insensitive to host speed). The compiled tier sped scalar loops up twice as much as v128
  loops, so this ratio is thin (1.15x, measures 1.4-1.7x) and guards only
  the sign;
* the same v128 kernel on the compiled tier must stay well ahead of
  itself on the interpreter (:data:`SIMD_VS_INTERP_FLOOR`, 4x, measures
  5.4x; the closure-threaded tier measured 3.3x) — the guard that a
  de-optimised v128 lowering trips;
* ``parallel_for`` with 4 guest threads over 400 equal iterations must
  model exactly a 4x speedup: serial fuel is four times the virtual-time
  fuel, an exact count.
"""

import time

import pytest

from repro.faaslet import Faaslet, FunctionDefinition
from repro.host import StandaloneEnvironment
from repro.minilang import build
from repro.wasm import instantiate

#: v128 kernel over its scalar loop, same run.
SIMD_FLOOR = 1.15
#: v128 kernel on the compiled tier over the interpreter, same run.
SIMD_VS_INTERP_FLOOR = 4.0

_SIMD_SRC = """
export int scalar_min(int n, int reps) {
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

export int simd_min(int n, int reps) {
    int[] a = new int[n];
    int[] b = new int[n];
    int[] o = new int[n];
    for (int i = 0; i < n; i += 1) { a[i] = i * 7 - 900; b[i] = 800 - i * 3; }
    for (int r = 0; r < reps; r += 1) {
        vec_min_i(a, b, o, n);
    }
    return o[n - 1];
}
"""

_PF_SRC = """
export int main(int n) {
    int[] out = new int[n];
    parallel_for (int i = 0; n; 4) {
        int acc = 0;
        for (int j = 0; j < 50; j += 1) { acc += i * j; }
        out[i] = acc;
    }
    return out[n - 1];
}
"""


@pytest.mark.smoke
def test_simd_kernel_speedup_floor():
    module = build(_SIMD_SRC)
    inst = instantiate(module, tier="compiled")
    oracle = instantiate(module, tier="interp")
    n, reps = 256, 12
    inst.invoke("simd_min", 8, 1)  # warm-up: lazy compilation, vec library

    def timed(inst, name):
        start = time.perf_counter()
        result = inst.invoke(name, n, reps)
        return time.perf_counter() - start, result

    # Scalar and v128 alternate, best of 9 each, so a slow phase of the
    # machine slows both sides rather than one.
    rounds = [(timed(inst, "scalar_min"), timed(inst, "simd_min")) for _ in range(9)]
    t_scalar, r_scalar = min(scalar for scalar, _ in rounds)
    t_simd, r_simd = min(simd for _, simd in rounds)
    t_interp, r_interp = min(timed(oracle, "simd_min") for _ in range(3))
    # The guard is meaningless if results diverge.
    assert r_simd == r_scalar == r_interp
    speedup = t_scalar / t_simd
    assert speedup >= SIMD_FLOOR, (
        f"v128 min kernel speedup {speedup:.2f}x fell below the "
        f"floor {SIMD_FLOOR}x (scalar {t_scalar * 1e3:.1f} ms, "
        f"simd {t_simd * 1e3:.1f} ms)"
    )
    over_interp = t_interp / t_simd
    assert over_interp >= SIMD_VS_INTERP_FLOOR, (
        f"v128 min kernel is {over_interp:.2f}x the interpreter, below the "
        f"floor {SIMD_VS_INTERP_FLOOR}x (interp "
        f"{t_interp * 1e3:.1f} ms, compiled {t_simd * 1e3:.1f} ms)"
    )


@pytest.mark.smoke
def test_parallel_for_modeled_speedup_floor():
    faaslet = Faaslet(
        FunctionDefinition.build("pf", build(_PF_SRC), entry="main"),
        StandaloneEnvironment(),
    )
    faaslet.invoke_export("main", 400)
    stats = faaslet.thread_runtime.stats()
    assert stats["threads_spawned"] == 4
    # 100 equal iterations per thread: the four threads burn equal fuel
    # side by side, so the virtual clock runs exactly a quarter of it.
    assert stats["total_fuel"] == 4 * stats["virtual_fuel"], stats
    assert stats["modeled_speedup"] == 4.0
