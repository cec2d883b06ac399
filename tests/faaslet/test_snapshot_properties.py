"""Snapshot serialisation and restore properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faaslet import Faaslet, FunctionDefinition, ProtoFaaslet
from repro.host import StandaloneEnvironment
from repro.minilang import build
from repro.wasm.memory import ZERO_DIGEST
from repro.wasm.types import PAGE_SIZE
from tests.conftest import ship_snapshot

STATEFUL_SRC = """
global int a = 0;
global long b = 0;
global float c = 0.0;

export void setup(int x, long y, float z) {
    a = x;
    b = y;
    c = z;
    int[] cells = new int[256];
    for (int i = 0; i < 256; i = i + 1) { cells[i] = x * i; }
}

export int geta() { return a; }
export long getb() { return b; }
export float getc() { return c; }
"""


@pytest.fixture(scope="module")
def definition():
    return FunctionDefinition.build("stateful", build(STATEFUL_SRC), entry="geta")


@given(
    st.integers(-(2**31), 2**31 - 1),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
)
@settings(max_examples=40, deadline=None)
def test_serialised_snapshot_preserves_all_state(definition, x, y, z):
    """Manifest + pages round-trips globals of every type and memory."""
    env = StandaloneEnvironment()
    source = Faaslet(definition, env)
    source.invoke_export("setup", x, y, z)
    proto = ProtoFaaslet.capture_from(source)

    remote, _ = ship_snapshot(definition, proto, host="other")
    restored = remote.restore(StandaloneEnvironment(host="other"))
    assert restored.invoke_export("geta") == x
    assert restored.invoke_export("getb") == y
    assert restored.invoke_export("getc") == z


def test_serialised_size_tracks_nonzero_pages(definition):
    """A cold host is shipped only the non-zero unique pages (zero-page
    elision); the manifest that describes them stays far below one page."""
    env = StandaloneEnvironment()
    source = Faaslet(definition, env)
    source.invoke_export("setup", 7, 7, 7.0)  # dirty real data pages
    proto = ProtoFaaslet.capture_from(source)
    present = len({d for d in proto.page_digests if d != ZERO_DIGEST})
    assert present >= 1
    remote, cache = ship_snapshot(definition, proto)
    assert cache.stats()["bytes_shipped"] == present * PAGE_SIZE
    assert len(proto.manifest().to_bytes()) < PAGE_SIZE
    assert proto.size_bytes == len(proto.frozen_pages) * PAGE_SIZE
    # A restore of the wire form still reports the full memory size.
    assert remote.size_bytes == proto.size_bytes
    assert remote.page_digests == proto.page_digests


def test_restore_count_metric(definition):
    env = StandaloneEnvironment()
    proto = ProtoFaaslet.capture(definition, env)
    assert proto.restore_count == 0
    proto.restore(env)
    proto.restore(env)
    assert proto.restore_count == 2


def test_snapshot_of_grown_memory():
    """Snapshots capture memory beyond the module's declared minimum."""
    src = """
    global int ready = 0;
    export void init() {
        float[] big = new float[50000];  // forces growth past 1 page
        big[49999] = 7.5;
        ready = (int) big[49999];
    }
    export int main() { return ready; }
    """
    env = StandaloneEnvironment()
    definition = FunctionDefinition.build("grower", build(src))
    proto = ProtoFaaslet.capture(definition, env, init="init")
    assert len(proto.frozen_pages) > 1
    assert proto.restore(env).call()[0] == 7
    # ... and every grown page reaches a second host.
    remote, _ = ship_snapshot(definition, proto)
    assert len(remote.frozen_pages) == len(proto.frozen_pages)
    assert remote.restore(StandaloneEnvironment(host="host-2")).call()[0] == 7


def test_capture_with_python_init_callable():
    env = StandaloneEnvironment()
    definition = FunctionDefinition.build(
        "cb", build("global int v = 0;\nexport int main() { return v; }")
    )

    def init(faaslet):
        faaslet.instance.set_global if False else None
        # Write through the export-free path: set the global directly.
        faaslet.instance.globals[1].value = 99  # [0] is the heap pointer

    proto = ProtoFaaslet.capture(definition, env, init=init)
    assert proto.restore(env).call()[0] == 99


def test_snapshot_excludes_dl_handles():
    env = StandaloneEnvironment()
    env.object_store.upload("lib.ml", b"export int one() { return 1; }")
    definition = FunctionDefinition.build(
        "dl", build("export int main() { return 0; }")
    )
    faaslet = Faaslet(definition, env)
    handle = faaslet.dlopen("lib.ml")
    faaslet.dlsym(handle, "one")
    with pytest.raises(Exception, match="dynamically linked"):
        ProtoFaaslet.capture_from(faaslet)
