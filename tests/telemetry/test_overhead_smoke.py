"""Tier-1 guard: tracing off must not slow the invocation lifecycle.

The telemetry layer's contract is a no-op fast path: with tracing disabled
every instrumentation site returns the shared :data:`NOOP_SPAN` without
touching the clock or allocating. This guard counts instead of timing: 30
full cluster invocations of a Polybench kernel (dispatch → schedule → bus
→ Faaslet → guest) must build zero span objects of any kind, so a site
that starts recording, timing or allocating while tracing is off fails
here on any machine.
"""

import pytest

from repro.apps.kernels import KERNELS
from repro.runtime import FaasmCluster
from repro.telemetry import span, trace
from repro.telemetry.trace import NOOP_SPAN, Tracer

_KERNEL_SRC = (
    KERNELS["jacobi-1d"].source
    + "\nexport int main() { float r = kernel(48); return 0; }\n"
)


@pytest.mark.smoke
def test_tracing_off_throughput_floor(monkeypatch):
    built = []
    for name in ("Span", "SpanHandle", "_UnsampledSpan"):
        cls = getattr(trace, name)

        def counted(*args, _cls=cls, **kwargs):
            built.append(_cls.__name__)
            return _cls(*args, **kwargs)

        monkeypatch.setattr(trace, name, counted)

    cluster = FaasmCluster(n_hosts=2)  # default telemetry: disabled
    try:
        cluster.upload("poly", _KERNEL_SRC)
        for _ in range(4):
            assert cluster.invoke("poly")[0] == 0
        built.clear()  # upload and warm-up are not the call path
        for _ in range(30):
            assert cluster.invoke("poly")[0] == 0
        assert built == [], f"tracing off built {len(built)} spans: {built[:5]}"
        assert cluster.trace_spans() == []
        assert span("anything") is NOOP_SPAN
    finally:
        cluster.shutdown()
    # The count sees what a recording tracer builds.
    Tracer(enabled=True).trace("probe")
    assert built == ["Span", "SpanHandle"]
