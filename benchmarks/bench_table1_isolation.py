"""Tab. 1 — isolation approaches for serverless.

Reconstructs the comparison table: the container/VM/unikernel/SFI columns
use the paper's cited characteristics; the Faaslet column is *measured* on
our implementation (initialisation time, memory footprint, and the three
functional properties demonstrated by executable checks rather than
claimed)."""

from __future__ import annotations

import time

import pytest

from conftest import report
from repro.faaslet import Faaslet, FunctionDefinition, NetworkPolicyError, ProtoFaaslet
from repro.host import StandaloneEnvironment
from repro.minilang import build
from repro.wasm import OutOfBoundsMemoryAccess

#: Tab. 1's cited container initialisation time.
CONTAINER_INIT_MS = 100.0


def test_table1_isolation_matrix(benchmark):
    env = StandaloneEnvironment()
    definition = FunctionDefinition.build("noop", build("export int main() { return 0; }"))

    # Measured Faaslet properties.
    start = time.perf_counter()
    for _ in range(20):
        faaslet = Faaslet(definition, env)
    init_ms = (time.perf_counter() - start) / 20 * 1e3
    benchmark(lambda: Faaslet(definition, env))
    footprint_kb = max(faaslet.memory_footprint(), 64 * 1024) / 1024

    # Functional checks backing the three check-marks.
    # 1. Memory safety: OOB access traps.
    bad = Faaslet(
        FunctionDefinition.build(
            "oob", build("export int main() { int[] a = new int[1]; return a[99999999]; }")
        ),
        env,
    )
    assert bad.call()[0] != 0
    memory_safety = True

    # 2. Resource isolation: network policy enforced (AF_UNIX rejected).
    try:
        faaslet.netns.socket(1, 1)  # AF_UNIX
        resource_isolation = False
    except NetworkPolicyError:
        resource_isolation = True

    # 3. Efficient state sharing: two Faaslets share one region, zero copies.
    env.state.set_state("shared", b"\x00" * 64)
    a = Faaslet(definition, env)
    b = Faaslet(definition, env)
    base_a = a.map_state_region("shared", 64)
    base_b = b.map_state_region("shared", 64)
    a.instance.memory.write(base_a, b"PING")
    state_sharing = bytes(b.instance.memory.read(base_b, 4)) == b"PING"

    rows = [
        {"approach": "Containers", "mem_safety": "yes", "res_isolation": "yes",
         "state_sharing": "no", "init": f"~{CONTAINER_INIT_MS:.0f} ms",
         "footprint": "MBs"},
        {"approach": "VMs", "mem_safety": "yes", "res_isolation": "yes",
         "state_sharing": "no", "init": "~100 ms", "footprint": "MBs"},
        {"approach": "Unikernel", "mem_safety": "yes", "res_isolation": "yes",
         "state_sharing": "no", "init": "~10 ms", "footprint": "KBs"},
        {"approach": "SFI", "mem_safety": "yes", "res_isolation": "no",
         "state_sharing": "no", "init": "~10 us", "footprint": "Bytes"},
        {"approach": "Faaslet (measured)",
         "mem_safety": "yes" if memory_safety else "NO",
         "res_isolation": "yes" if resource_isolation else "NO",
         "state_sharing": "yes" if state_sharing else "NO",
         "init": f"{init_ms:.2f} ms",
         "footprint": f"{footprint_kb:.0f} KB"},
    ]
    report("table1_isolation", "Tab. 1: isolation approaches", rows)

    assert memory_safety and resource_isolation and state_sharing
    # Faaslet non-functionals sit in the unikernel/SFI gap as in Tab. 1:
    # an order of magnitude below the containers' cited init, or better.
    assert CONTAINER_INIT_MS / init_ms >= 10
    assert footprint_kb < 1024
