"""What a warm call of each Polybench kernel executes of its generated code, counted.

The compiled tier checks a counted loop's range once per entry (its guard
``_h<pc> = ...``), and a 2-deep rectangular nest's once per nest entry, and
lowers the pass behind it with the facts that guard proves; an innermost
pass reads its loads before the first store as streams, strided slices of
their page views zipped with the counter (``repro.wasm.compiled`` module
doc). This gate runs each of the 14 kernels as a warm call does: in a
Faaslet restored from its Proto-Faaslet, called once and reset, so the
pages the first call privatised hold the snapshot again and stay writable.
It counts the guard lines, all the generated lines the call executes
(``line`` trace events) and the streamed loops it enters, gates all three
exactly, and the call takes no copy-on-write fault. The counts are a
property of the lowering, not of the machine.

Before nests, each inner loop paid its guard once per outer iteration:
102, 145 and 406 guard evaluations per call for ``jacobi-1d``, ``atax``
and ``2mm`` at ``poly-exec``'s sizes. With nests but a reset that made
every page copy-on-write again, each kernel's first nest stored into such
pages, so its guard failed and its inner loops kept theirs: 3, 52 and 43,
and 34 268, 51 896 and 35 247 generated lines. With every nest's guard
holding and its facts applied, before streams: 33 417, 36 266 and 30 266.
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

#: kernel, size, then per warm call: guard evaluations, generated lines executed
#: and streamed pass loops entered. The first three are ``poly-exec``'s kernels
#: at its sizes; the rest are sized to keep this file fast.
EXPECTED = [
    ("jacobi-1d", 48, 3, 14_768, 101), ("atax", 48, 4, 22_096, 97), ("2mm", 14, 29, 17_620, 392),
    ("3mm", 18, 55, 48_054, 972), ("bicg", 48, 3, 24_478, 49), ("mvt", 48, 4, 27_049, 97),
    ("trisolv", 64, 129, 23_096, 64), ("cholesky", 24, 325, 24_527, 300),
    ("covariance", 22, 25, 19_315, 297), ("jacobi-2d", 24, 22, 36_317, 464),
    ("floyd-warshall", 22, 507, 180_564, 22), ("lu", 24, 326, 31_408, 553),
    ("durbin", 96, 287, 52_644, 286), ("seidel-2d", 24, 12, 24_166, 244),
]


def _warm_call(name: str, n: int) -> tuple[int, int, int, int]:
    """Guard lines, generated lines and streamed loops entered by a warm call,
    and its COW faults. A ``for`` line is entered when the line run before
    it in its frame lies above it; its iterations come back from below."""
    module = build(KERNELS[name].source + MAIN % n)
    guards, streams = {}, {}
    for fn in compile_module(module):
        source = _Lowering(fn, module).run().splitlines()
        key = f"<compiled:{fn.name}>"
        guards[key] = {k + 1 for k, line in enumerate(source) if re.match(r" +_h\d+ = (?!0$)", line)}
        streams[key] = {k + 1 for k, line in enumerate(source) if re.match(r" +for .* in zip\(", line)}
    env = StandaloneEnvironment()
    faaslet = ProtoFaaslet.capture(FunctionDefinition.build(name, module), env).restore(env)
    assert faaslet.call()[0] == 0
    faaslet.reset()
    memory, counts = faaslet.instance.memory, [0, 0, 0]
    faults = memory.cow_faults

    def trace(frame, event, arg):
        lines = guards.get(frame.f_code.co_filename)
        if lines is None:
            return None
        loops, last = streams[frame.f_code.co_filename], [0]

        def line(frame, event, arg):
            if event == "line":
                at = frame.f_lineno
                counts[0] += at in lines
                counts[1] += 1
                counts[2] += at in loops and last[0] < at
                last[0] = at
            return line

        return line

    sys.settrace(trace)
    try:
        assert faaslet.call()[0] == 0
    finally:
        sys.settrace(None)
    return counts[0], counts[1], counts[2], memory.cow_faults - faults


@pytest.mark.parametrize("name, n, guards, lines, streams", EXPECTED, ids=[f"{k}-{n}" for k, n, *_ in EXPECTED])
def test_a_warm_poly_exec_call_evaluates_its_counted_guards(name, n, guards, lines, streams):
    assert _warm_call(name, n) == (guards, lines, streams, 0)
