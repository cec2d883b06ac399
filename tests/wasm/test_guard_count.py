"""How often a warm ``poly-exec`` call evaluates a hoisting guard, counted.

The compiled tier checks a counted loop's range once per entry (its guard
``_h<pc> = ...``), and a 2-deep rectangular nest's once per nest entry
(``repro.wasm.compiled`` module doc). This gate runs each kernel the
``poly-exec`` workload calls, at its size, as a warm call does: in a
Faaslet restored from its Proto-Faaslet and reset once, so the heap's
pages are copy-on-write again. It counts the guard lines the generated
code executes (``line`` trace events) and gates them exactly. The count is
a property of the lowering, not of the machine.

Before nests, each inner loop paid its guard once per outer iteration:
102, 145 and 406 guard evaluations per call. A nest whose pages are all
writable at entry now pays one; the kernels' first nests store into
copy-on-write pages, so their guard fails and the inner loops keep theirs
for that nest.
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

#: kernel, size, guard evaluations per warm call.
EXPECTED = [("jacobi-1d", 48, 3), ("atax", 48, 52), ("2mm", 14, 43)]


def _guard_evaluations(name: str, n: int) -> int:
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
    hits = [0]

    def trace(frame, event, arg):
        lines = guards.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                hits[0] += 1
            return line

        return line

    sys.settrace(trace)
    try:
        assert faaslet.call()[0] == 0
    finally:
        sys.settrace(None)
    return hits[0]


@pytest.mark.parametrize("name, n, expected", EXPECTED)
def test_a_warm_poly_exec_call_evaluates_its_counted_guards(name, n, expected):
    assert _guard_evaluations(name, n) == expected
