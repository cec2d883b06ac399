"""Tier-1 regression guard for guest threads.

``benchmarks/bench_threads.py`` measures the Fig. 8 fork-join block at real
problem sizes; this is its fast tier-1 proxy: ``parallel_for`` with 4 guest
threads over 400 equal iterations must model exactly a 4x speedup — serial
fuel is four times the virtual-time fuel, an exact count.
"""

import pytest

from repro.faaslet import Faaslet, FunctionDefinition
from repro.host import StandaloneEnvironment
from repro.minilang import build

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
