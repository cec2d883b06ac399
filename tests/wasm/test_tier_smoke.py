"""Tier-1 regression guard for the compiled execution tier.

The full tiered benchmark (``benchmarks/bench_vm_throughput.py``) measures
Polybench at real problem sizes; this smoke test is its fast tier-1 proxy:
it measures the compiled tier's speedup over the reference interpreter on
one loop-dense kernel and fails if it drops below the floor stored in
``benchmarks/results/vm_throughput_tiered.json``. The floor is *relative*
(compiled vs interp on the same machine, same run), so the guard is
insensitive to host speed but catches regressions that de-optimise the
compiled tier — a botched lowering rule, superblocks falling into their
metered arm, interpreter fallbacks, lost code-cache sharing.

Run just this guard with ``python benchmarks/bench_vm_throughput.py
--smoke`` or ``pytest -m smoke``.
"""

import time

import pytest

from repro.minilang import build
from repro.wasm import instantiate
from tests.conftest import stored_floor

#: Used when the results file is missing (fresh checkout, no bench run).
_DEFAULT_FLOOR = 2.0

_KERNEL_SRC = """
export float kernel(int n) {
    float[] a = new float[n];
    for (int i = 0; i < n; i = i + 1) {
        a[i] = (float) (i % 17) / 17.0;
    }
    float acc = 0.0;
    for (int rep = 0; rep < 40; rep = rep + 1) {
        for (int i = 1; i < n - 1; i = i + 1) {
            a[i] = (a[i - 1] + a[i] + a[i + 1]) / 3.0;
        }
        acc = acc + a[n / 2];
    }
    return acc;
}
"""


def _time_tier(module, tier: str, n: int) -> tuple[float, int, float]:
    inst = instantiate(module, tier=tier)
    inst.invoke("kernel", 8)  # warm-up: lazy compilation, allocator paths
    before = inst.instructions_executed
    start = time.perf_counter()
    result = inst.invoke("kernel", n)
    elapsed = time.perf_counter() - start
    return elapsed, inst.instructions_executed - before, result


@pytest.mark.smoke
def test_compiled_tier_speedup_floor():
    module = build(_KERNEL_SRC)
    n = 600
    t_interp, instrs_i, r_interp = _time_tier(module, "interp", n)
    t_compiled, instrs_c, r_compiled = _time_tier(module, "compiled", n)
    # Semantics first: the guard is meaningless if the tiers diverge.
    assert r_compiled == r_interp
    assert instrs_c == instrs_i
    speedup = t_interp / t_compiled
    floor = stored_floor("vm_throughput_tiered", _DEFAULT_FLOOR)
    assert speedup >= floor, (
        f"compiled tier speedup {speedup:.2f}x fell below the stored "
        f"floor {floor}x (interp {t_interp * 1e3:.1f} ms, "
        f"compiled {t_compiled * 1e3:.1f} ms, {instrs_i:,} instructions)"
    )
