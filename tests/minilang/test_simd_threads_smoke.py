"""Tier-1 regression guard for the vector ISA and guest threads.

The full benchmark (``benchmarks/bench_simd_threads.py``) measures the
scalar-vs-v128 kernels and the Fig. 8 fork-join block at real problem
sizes; this smoke test is its fast tier-1 proxy. It checks three floors
stored in ``benchmarks/results/simd_threads.json``:

* the v128 ``vec_min_i`` kernel must stay faster than its scalar loop
  (``smoke_floor``, wall-clock, relative — insensitive to host speed).
  The compiled tier sped scalar loops up twice as much as v128 loops, so
  this ratio is thin (1.15x, measures 1.4-1.7x) and guards only the sign;
* the same v128 kernel on the compiled tier must stay well ahead of
  itself on the interpreter (``simd_vs_interp_smoke_floor``, 4x, measures
  5.4x; the closure-threaded tier measured 3.3x) — the guard that a
  de-optimised v128 lowering trips;
* ``parallel_for`` with 4 guest threads must keep its virtual-time
  modeled speedup (``threads_smoke_floor``, deterministic).

Run just this guard with ``python benchmarks/bench_simd_threads.py
--smoke`` or ``pytest -m smoke``.
"""

import time

import pytest

from repro.faaslet import Faaslet, FunctionDefinition
from repro.host import StandaloneEnvironment
from repro.minilang import build
from repro.wasm import instantiate
from tests.conftest import stored_floor

#: Used when the results file is missing (fresh checkout, no bench run).
_DEFAULT_FLOORS = {
    "smoke_floor": 1.15,
    "simd_vs_interp_smoke_floor": 4.0,
    "threads_smoke_floor": 1.8,
}

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


def _stored_floors() -> dict[str, float]:
    return {
        key: stored_floor("simd_threads", default, key)
        for key, default in _DEFAULT_FLOORS.items()
    }


@pytest.mark.smoke
def test_simd_kernel_speedup_floor():
    module = build(_SIMD_SRC)
    inst = instantiate(module, tier="compiled")
    oracle = instantiate(module, tier="interp")
    n, reps = 256, 12
    inst.invoke("simd_min", 8, 1)  # warm-up: lazy compilation, vec library

    def best(inst, name):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            result = inst.invoke(name, n, reps)
            times.append(time.perf_counter() - start)
        return min(times), result

    t_scalar, r_scalar = best(inst, "scalar_min")
    t_simd, r_simd = best(inst, "simd_min")
    t_interp, r_interp = best(oracle, "simd_min")
    # The guard is meaningless if results diverge.
    assert r_simd == r_scalar == r_interp
    floors = _stored_floors()
    speedup = t_scalar / t_simd
    assert speedup >= floors["smoke_floor"], (
        f"v128 min kernel speedup {speedup:.2f}x fell below the stored "
        f"floor {floors['smoke_floor']}x (scalar {t_scalar * 1e3:.1f} ms, "
        f"simd {t_simd * 1e3:.1f} ms)"
    )
    over_interp = t_interp / t_simd
    assert over_interp >= floors["simd_vs_interp_smoke_floor"], (
        f"v128 min kernel is {over_interp:.2f}x the interpreter, below the "
        f"stored floor {floors['simd_vs_interp_smoke_floor']}x (interp "
        f"{t_interp * 1e3:.1f} ms, compiled {t_simd * 1e3:.1f} ms)"
    )


@pytest.mark.smoke
def test_parallel_for_modeled_speedup_floor():
    faaslet = Faaslet(
        FunctionDefinition.build("pf", build(_PF_SRC), entry="main"),
        StandaloneEnvironment(),
    )
    faaslet.invoke_export("main", 400)
    floor = _stored_floors()["threads_smoke_floor"]
    stats = faaslet.thread_runtime.stats()
    assert stats["threads_spawned"] == 4
    assert stats["modeled_speedup"] >= floor, (
        f"4-thread modeled speedup {stats['modeled_speedup']:.2f}x fell "
        f"below the stored floor {floor}x ({stats})"
    )
