"""VM microbenchmarks: interpreter throughput and host-interface costs.

Not a paper figure — reference numbers that contextualise the Fig. 9
results: how many guest instructions/second the interpreter sustains, what
one host call costs, and what shared-region mapping costs. These are the
"substrate constants" EXPERIMENTS.md cites when explaining why absolute
Fig. 9 ratios differ from the paper's.
"""

from __future__ import annotations

import time

import pytest

from conftest import report
from repro.faaslet import Faaslet, FunctionDefinition
from repro.host import StandaloneEnvironment
from repro.minilang import build

SPIN_SRC = """
export int main() {
    int acc = 0;
    for (int i = 0; i < 200000; i += 1) { acc += i; }
    return acc % 1000;
}
"""

HOSTCALL_SRC = """
extern long gettime();
export int main() {
    long t = 0;
    for (int i = 0; i < 5000; i += 1) { t = gettime(); }
    return (int) (t % 1000);
}
"""


def test_interpreter_instruction_throughput(benchmark):
    env = StandaloneEnvironment()
    faaslet = Faaslet(FunctionDefinition.build("spin", build(SPIN_SRC)), env)

    def run():
        return faaslet.invoke_export("main")

    benchmark(run)
    before = faaslet.instance.instructions_executed
    start = time.perf_counter()
    run()
    elapsed = time.perf_counter() - start
    instructions = faaslet.instance.instructions_executed - before
    rate = instructions / elapsed
    report(
        "vm_throughput",
        "VM substrate constants",
        [
            {
                "metric": "interpreter throughput",
                "value": f"{rate / 1e6:.2f} M instr/s",
            }
        ],
    )
    assert rate > 200_000, "interpreter should sustain >0.2M instr/s"


def test_host_call_cost(benchmark):
    env = StandaloneEnvironment()
    faaslet = Faaslet(FunctionDefinition.build("hc", build(HOSTCALL_SRC)), env)

    start = time.perf_counter()
    faaslet.invoke_export("main")
    elapsed = time.perf_counter() - start
    per_call_us = elapsed / 5000 * 1e6
    benchmark(lambda: faaslet.invoke_export("main"))
    report(
        "vm_hostcall",
        "Host-interface call cost",
        [{"metric": "gettime() round trip", "value": f"{per_call_us:.2f} us"}],
    )
    # Host calls are dynamic-linked thunks, not HTTP: they must be cheap.
    assert per_call_us < 100


def test_shared_region_mapping_cost(benchmark):
    env = StandaloneEnvironment()
    env.state.set_state("big", b"\x00" * (8 * 1024 * 1024))
    definition = FunctionDefinition.build("m", build("export int main() { return 0; }"))

    def map_once():
        faaslet = Faaslet(definition, env)
        return faaslet.map_state_region("big", None)

    benchmark(map_once)
    start = time.perf_counter()
    for _ in range(50):
        map_once()
    per_map_us = (time.perf_counter() - start) / 50 * 1e6
    report(
        "vm_mapping",
        "Shared-region mapping cost (8 MiB value)",
        [{"metric": "create Faaslet + map region", "value": f"{per_map_us:.0f} us"}],
    )
    # Mapping is page-table aliasing, not copying: far below a copy's cost.
    copy_time = _copy_cost_us(8 * 1024 * 1024)
    assert per_map_us < copy_time * 5  # generous bound vs memcpy of the value


def _copy_cost_us(nbytes: int) -> float:
    src = bytes(nbytes)
    start = time.perf_counter()
    bytearray(src)
    return (time.perf_counter() - start) * 1e6


# ----------------------------------------------------------------------
# Execution tiers: compiled code vs the reference interpreter
# ----------------------------------------------------------------------

#: Relative compiled-vs-interpreter floor enforced by the tier-1 smoke
#: guard (tests/wasm/test_tier_smoke.py reads it from the results JSON).
#: The smoke kernel measures 13x; under half of that means the tier has
#: been de-optimised, whatever the host's speed.
SMOKE_FLOOR = 6.0

#: Geomean Polybench speedup (compiled / interp) the engine must deliver.
#: Measured 15.9x; the closure-threaded tier it replaced measured 5.0x.
GEOMEAN_TARGET = 8.0


def _compile_ms(module) -> float:
    """Cost of generating and ``exec``-ing the Python form of every
    function of ``module`` (what a process pays once, on first call)."""
    from repro.wasm import compile_module, lower_function

    functions = compile_module(module)
    start = time.perf_counter()
    for fn in functions:
        lower_function(fn, module)
    return (time.perf_counter() - start) * 1e3


def _time_kernel(module, tier: str, n: int) -> tuple[float, int, object]:
    from repro.wasm import instantiate

    inst = instantiate(module, tier=tier)
    inst.invoke("kernel", 4)  # warm-up: triggers lazy compilation
    before = inst.instructions_executed
    start = time.perf_counter()
    result = inst.invoke("kernel", n)
    elapsed = time.perf_counter() - start
    return elapsed, inst.instructions_executed - before, result


def test_tiered_throughput_polybench():
    """Polybench on both tiers: per-kernel speedup, compile cost and the
    geomean, recorded for EXPERIMENTS.md."""
    import math

    from repro.apps.kernels import KERNELS

    rows = []
    speedups = []
    for name in sorted(KERNELS):
        kernel = KERNELS[name]
        module = build(kernel.source)
        n = kernel.default_n
        t_interp, instrs, r_interp = _time_kernel(module, "interp", n)
        t_compiled, instrs_c, r_compiled = _time_kernel(module, "compiled", n)
        assert r_compiled == r_interp, f"{name}: tier results diverge"
        assert instrs_c == instrs, f"{name}: tier instruction counts diverge"
        speedup = t_interp / t_compiled
        speedups.append(speedup)
        rows.append(
            {
                "kernel": name,
                "interp_ms": round(t_interp * 1e3, 2),
                "compiled_ms": round(t_compiled * 1e3, 2),
                "interp_mips": round(instrs / t_interp / 1e6, 2),
                "compiled_mips": round(instrs / t_compiled / 1e6, 2),
                "speedup": round(speedup, 2),
                "compile_ms": round(_compile_ms(module), 2),
            }
        )
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    rows.append(
        {
            "kernel": "geomean",
            "speedup": round(geomean, 2),
            "smoke_floor": SMOKE_FLOOR,
        }
    )
    report("vm_throughput_tiered", "Execution tiers: Polybench", rows)
    assert geomean >= GEOMEAN_TARGET, (
        f"compiled tier geomean speedup {geomean:.2f}x below "
        f"{GEOMEAN_TARGET}x target"
    )


if __name__ == "__main__":  # pragma: no cover
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the fast tier-regression guard (the tier-1 smoke "
        "marker) instead of the full benchmark suite",
    )
    opts = parser.parse_args()
    if opts.smoke:
        target = ["-m", "smoke", "tests/wasm/test_tier_smoke.py"]
    else:
        target = [__file__]
    raise SystemExit(pytest.main(["-x", "-q", "-s", *target]))
