"""What a warm ``poly-exec`` call executes of its generated code, counted.

The compiled tier checks a counted loop's range once per entry (its guard
``_h<pc> = ...``), and a 2-deep rectangular nest's once per nest entry, and
lowers the pass behind it with the facts that guard proves
(``repro.wasm.compiled`` module doc). This gate runs each kernel the
``poly-exec`` workload calls, at its size, as a warm call does: in a
Faaslet restored from its Proto-Faaslet, called once and reset, so the
pages the first call privatised hold the snapshot again and stay writable.
It counts the guard lines and all the generated lines the call executes
(``line`` trace events) and gates both exactly, and the call takes no
copy-on-write fault. The counts are a property of the lowering, not of the
machine.

Before nests, each inner loop paid its guard once per outer iteration:
102, 145 and 406 guard evaluations per call. With nests but a reset that
made every page copy-on-write again, each kernel's first nest stored into
such pages, so its guard failed and its inner loops kept theirs: 3, 52 and
43, and 34 268, 51 896 and 35 247 generated lines. Now every nest's guard
holds and pays one, and its pass runs with the facts its guard proves.
"""

import re
import sys

import pytest

from repro.apps.kernels import KERNELS
from repro.faaslet import FunctionDefinition
from repro.faaslet.snapshot import ProtoFaaslet
from repro.host import StandaloneEnvironment
from repro.minilang import build
from repro.wasm import compile_module
from repro.wasm.compiled import _Lowering

#: The ``poly-exec`` guest: the kernel's checksum written as the output.
MAIN = """
extern void write_call_output(int buf, int len);
export int main() {
    float[] out = new float[1];
    out[0] = kernel(%d);
    write_call_output(ptr(out), 8);
    return 0;
}
"""

#: kernel, size, guard evaluations and generated lines executed per warm call.
EXPECTED = [("jacobi-1d", 48, 3, 33_417), ("atax", 48, 4, 36_266), ("2mm", 14, 29, 30_266)]


def _warm_call(name: str, n: int) -> tuple[int, int, int]:
    """Guard lines and generated lines a warm call executes, and its COW faults."""
    module = build(KERNELS[name].source + MAIN % n)
    guards = {}
    for fn in compile_module(module):
        source = _Lowering(fn, module).run().splitlines()
        guards[f"<compiled:{fn.name}>"] = {
            k + 1 for k, line in enumerate(source) if re.match(r" +_h\d+ = (?!0$)", line)
        }
    env = StandaloneEnvironment()
    faaslet = ProtoFaaslet.capture(FunctionDefinition.build(name, module), env).restore(env)
    assert faaslet.call()[0] == 0
    faaslet.reset()
    memory, hits, lines_run = faaslet.instance.memory, [0], [0]
    faults = memory.cow_faults

    def trace(frame, event, arg):
        lines = guards.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines_run[0] += 1
                hits[0] += frame.f_lineno in lines
            return line

        return line

    sys.settrace(trace)
    try:
        assert faaslet.call()[0] == 0
    finally:
        sys.settrace(None)
    return hits[0], lines_run[0], memory.cow_faults - faults


@pytest.mark.parametrize("name, n, guards, lines", EXPECTED, ids=[f"{k}-{n}" for k, n, *_ in EXPECTED])
def test_a_warm_poly_exec_call_evaluates_its_counted_guards(name, n, guards, lines):
    assert _warm_call(name, n) == (guards, lines, 0)
