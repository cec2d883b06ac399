"""minilang ``parallel_for`` fork-join regions.

``parallel_for`` must outline its body correctly on both execution tiers:
chunked iteration, read-only scalar capture, shared arrays/globals, and
clamping of degenerate thread counts and ranges.
"""

import pytest

from repro.faaslet import Faaslet, FunctionDefinition
from repro.host import StandaloneEnvironment
from repro.minilang import TypeErrorML, build

TIERS = ("interp", "compiled")


def run_export(src: str, tier: str, entry: str, *args):
    faaslet = Faaslet(
        FunctionDefinition.build("ml", build(src), entry=entry),
        StandaloneEnvironment(),
        tier=tier,
    )
    return faaslet, faaslet.invoke_export(entry, *args)


# ----------------------------------------------------------------------
# parallel_for
# ----------------------------------------------------------------------

_PF_BASIC = """
export int main(int n, int nt) {
    int scale = 3;
    int[] out = new int[n];
    parallel_for (int i = 0; n; nt) {
        out[i] = i * scale + 1;
    }
    for (int i = 0; i < n; i += 1) {
        if (out[i] != i * scale + 1) { return 1 + i; }
    }
    return 0;
}
"""


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize(
    "n,nt",
    [
        (100, 4),  # even chunks
        (101, 4),  # ragged final chunk
        (3, 8),    # more threads than iterations
        (50, 1),   # degenerate: single thread
        (10, 0),   # clamped up to one thread
        (0, 4),    # empty range
    ],
)
def test_parallel_for_covers_range_exactly(tier, n, nt):
    _, result = run_export(_PF_BASIC, tier, "main", n, nt)
    assert result == 0


@pytest.mark.parametrize("tier", TIERS)
def test_parallel_for_speedup_and_agreement(tier):
    faaslet, result = run_export(_PF_BASIC, tier, "main", 4000, 4)
    assert result == 0
    stats = faaslet.thread_runtime.stats()
    assert stats["threads_spawned"] == 4
    assert stats["modeled_speedup"] > 2.0


def test_parallel_for_stats_identical_across_tiers():
    per_tier = {}
    for tier in TIERS:
        faaslet, result = run_export(_PF_BASIC, tier, "main", 777, 3)
        assert result == 0
        per_tier[tier] = faaslet.thread_runtime.stats()
    assert per_tier["interp"] == per_tier["compiled"]


def test_parallel_for_workers_run_compiled_across_quanta():
    """Each ``parallel_for`` worker outlives ten fuel quanta; after every
    preemption it carries on in compiled code (under 5 % of instructions
    take the metered arm), with results, modeled speedup and total fuel
    equal to the interpreter's."""
    src = """
    export int main(int n) {
        int[] out = new int[n];
        parallel_for (int i = 0; n; 2) {
            int acc = 0;
            for (int j = 0; j < 400; j += 1) { acc += (i + j) % 7; }
            out[i] = acc;
        }
        int sum = 0;
        for (int i = 0; i < n; i += 1) { sum += out[i]; }
        return sum;
    }
    """
    per_tier = {}
    for tier in TIERS:
        faaslet, result = run_export(src, tier, "main", 120)
        runtime, inst = faaslet.thread_runtime, faaslet.instance
        quantum = runtime.cgroup.period_fuel // 2
        assert all(t.fuel_used >= 10 * quantum for t in runtime.threads.values())
        if tier == "compiled":
            assert inst.metered_instructions < 0.05 * inst.instructions_executed
        per_tier[tier] = (result, runtime.stats(), inst.instructions_executed)
    assert per_tier["interp"] == per_tier["compiled"]
    assert per_tier["compiled"][0] == sum(
        (i + j) % 7 for i in range(120) for j in range(400)
    )


@pytest.mark.parametrize("tier", TIERS)
def test_parallel_for_captures_float_and_long(tier):
    src = """
    export int main() {
        int n = 40;
        float alpha = 2.5;
        long bias = 1000000000000;
        float[] x = new float[n];
        long[] big = new long[n];
        for (int i = 0; i < n; i += 1) { x[i] = (float) i; }
        parallel_for (int i = 0; n; 4) {
            x[i] = x[i] * alpha;
            big[i] = bias + (long) i;
        }
        for (int i = 0; i < n; i += 1) {
            if (x[i] != (float) i * 2.5) { return 1; }
            if (big[i] != 1000000000000 + (long) i) { return 2; }
        }
        return 0;
    }
    """
    _, result = run_export(src, tier, "main")
    assert result == 0


@pytest.mark.parametrize("tier", TIERS)
def test_parallel_for_shares_globals(tier):
    src = """
    global int total = 0;

    export int main() {
        int[] partial = new int[4];
        parallel_for (int t = 0; 4; 4) {
            int acc = 0;
            for (int j = 0; j < 100; j += 1) {
                acc += t * 100 + j;
            }
            partial[t] = acc;
        }
        for (int t = 0; t < 4; t += 1) {
            total += partial[t];
        }
        return total;
    }
    """
    _, result = run_export(src, tier, "main")
    assert result == sum(range(400))


@pytest.mark.parametrize("tier", TIERS)
def test_parallel_for_pointer_rows_in_body(tier):
    """An outlined worker reaches each row of the parent's arrays through
    a pointer computed from its own counter."""
    src = """
    export int main() {
        int n = 64;
        int rows = 4;
        float[] a = new float[n];
        float[] b = new float[n];
        float[] o = new float[n];
        for (int i = 0; i < n; i += 1) { a[i] = (float) i; b[i] = 2.0; }
        parallel_for (int r = 0; rows; 2) {
            float[] ra = farr(ptr(a) + r * 128);
            float[] rb = farr(ptr(b) + r * 128);
            float[] ro = farr(ptr(o) + r * 128);
            for (int i = 0; i < 16; i += 1) { ro[i] = ra[i] + rb[i]; }
        }
        for (int i = 0; i < n; i += 1) {
            if (o[i] != (float) i + 2.0) { return 1 + i; }
        }
        return 0;
    }
    """
    _, result = run_export(src, tier, "main")
    assert result == 0


def test_parallel_for_rejects_write_to_captured_scalar():
    src = """
    export int main() {
        int acc = 0;
        parallel_for (int i = 0; 10; 2) {
            acc = acc + i;
        }
        return acc;
    }
    """
    with pytest.raises(TypeErrorML, match="captured"):
        build(src)


def test_parallel_for_nested_region_traps_at_runtime():
    src = """
    export int main() {
        int[] out = new int[4];
        parallel_for (int i = 0; 4; 2) {
            parallel_for (int j = 0; 2; 2) {
                out[i] = i;
            }
        }
        return 0;
    }
    """
    from repro.faaslet.threads import GuestThreadError

    faaslet = Faaslet(
        FunctionDefinition.build("ml", build(src), entry="main"),
        StandaloneEnvironment(),
    )
    with pytest.raises(GuestThreadError, match="nested"):
        faaslet.invoke_export("main")


def test_parallel_for_module_roundtrips_through_printer():
    """The code cache keys on printed module text, so modules with
    tables and elements must print/parse stably."""
    from repro.wasm.printer import print_module
    from repro.wasm.text import parse_module

    module = build(_PF_BASIC)
    text = print_module(module)
    assert print_module(parse_module(text)) == text
