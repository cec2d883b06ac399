"""Tab. 2 conformance: every host-interface function the paper lists is
importable by guests, under the expected name and arity."""

import gc

import pytest

from repro.faaslet import Faaslet, FunctionDefinition, ProtoFaaslet
from repro.host import O_CREAT, O_RDWR, StandaloneEnvironment, build_host_imports, interface
from repro.minilang import build
from repro.minilang.stdlib import PRELUDE
from repro.wasm import Trap, parse_module

#: (name, n_params, n_results) for the full Tab. 2 surface as our guests
#: import it ("env" module). Byte arrays are (ptr, len) pairs.
TABLE2_SURFACE = [
    # Standard calls
    ("input_size", 0, 1),
    ("read_call_input", 2, 1),
    ("write_call_output", 2, 0),
    ("chain_call", 4, 1),
    ("await_call", 1, 1),
    ("get_call_output_size", 1, 1),
    ("get_call_output", 3, 1),
    # State
    ("get_state", 3, 1),
    ("get_state_offset", 4, 1),
    ("set_state", 4, 0),
    ("set_state_offset", 5, 0),
    ("push_state", 2, 0),
    ("push_state_offset", 4, 0),
    ("pull_state", 2, 0),
    ("pull_state_offset", 4, 0),
    ("append_state", 4, 0),
    ("state_size", 2, 1),
    ("lock_state_read", 2, 0),
    ("unlock_state_read", 2, 0),
    ("lock_state_write", 2, 0),
    ("unlock_state_write", 2, 0),
    ("lock_state_global_read", 2, 0),
    ("unlock_state_global_read", 2, 0),
    ("lock_state_global_write", 2, 0),
    ("unlock_state_global_write", 2, 0),
    # Dynamic linking
    ("dlopen", 2, 1),
    ("dlsym", 3, 1),
    ("dlclose", 1, 1),
    # Memory
    ("sbrk", 1, 1),
    ("brk", 1, 1),
    ("mmap", 1, 1),
    ("munmap", 2, 1),
    # Networking
    ("socket", 2, 1),
    ("connect", 4, 1),
    ("bind", 4, 1),
    ("nsend", 3, 1),
    ("nrecv", 3, 1),
    ("nclose", 1, 1),
    # File I/O
    ("open", 3, 1),
    ("close", 1, 1),
    ("dup", 1, 1),
    ("read", 3, 1),
    ("write", 3, 1),
    ("seek", 3, 1),
    ("fstat_size", 2, 1),
    # Guest threads (intra-Faaslet fork-join parallelism)
    ("thread_spawn", 2, 1),
    ("thread_join", 1, 1),
    # Misc
    ("gettime", 0, 1),
    ("getrandom", 2, 1),
]


@pytest.fixture(scope="module")
def imports():
    env = StandaloneEnvironment()
    definition = FunctionDefinition.build(
        "probe", build("export int main() { return 0; }")
    )
    faaslet = Faaslet(definition, env)
    return build_host_imports(faaslet)


@pytest.mark.parametrize("name,n_params,n_results", TABLE2_SURFACE)
def test_interface_function_present_with_arity(imports, name, n_params, n_results):
    key = ("env", name)
    assert key in imports, f"Tab. 2 function {name!r} missing from the host interface"
    host_fn = imports[key]
    assert len(host_fn.type.params) == n_params, name
    assert len(host_fn.type.results) == n_results, name


def test_no_undeclared_interface_functions(imports):
    """Everything the interface exports is accounted for in the table."""
    declared = {name for name, _, _ in TABLE2_SURFACE}
    exported = {name for (_mod, name) in imports}
    assert exported == declared


def test_stdlib_prelude_matches_interface(imports):
    """The guest stdlib declares exactly the functions the host provides
    (so any guest linking the prelude will always link successfully)."""
    import re

    declared = set(re.findall(r"extern\s+\w+\s+(\w+)\(", PRELUDE))
    exported = {name for (_mod, name) in imports}
    assert declared <= exported
    missing_from_prelude = exported - declared
    # The prelude intentionally omits nothing.
    assert not missing_from_prelude


# ----------------------------------------------------------------------
# The table is static: a cold start links against it (DESIGN.md §7)
# ----------------------------------------------------------------------

#: The ``cold-churn`` guest of ``benchmarks/e2e``: it declares two imports.
LOOKUP_SRC = """
extern int read_call_input(int buf, int len);
extern void write_call_output(int buf, int len);
global int table = 0;
export void init() {
    int[] t = new int[1024];
    for (int i = 0; i < 1024; i = i + 1) { t[i] = (i * 7919 + 13) % 65521; }
    table = ptr(t);
}
export int main() {
    int[] in = new int[1];
    read_call_input(ptr(in), 4);
    int[] t = iarr(table);
    int[] out = new int[1];
    out[0] = t[in[0]];
    write_call_output(ptr(out), 4);
    return 0;
}
"""


def _lookup_proto(env):
    definition = FunctionDefinition.build("lookup", build(LOOKUP_SRC))
    return ProtoFaaslet.capture(definition, env, init="init")


def _host(faaslet, name):
    """``faaslet``'s linked ``env.<name>`` as a plain callable."""
    return build_host_imports(faaslet)[("env", name)].fn


def _put(faaslet, addr, data):
    faaslet.instance.memory.write(addr, data)
    return addr, len(data)


def test_two_faaslets_link_the_same_code(imports):
    env = StandaloneEnvironment()
    noop = FunctionDefinition.build("noop", build("export int main() { return 0; }"))
    a, b = Faaslet(noop, env), Faaslet(noop, env)
    links_a, links_b = build_host_imports(a), build_host_imports(b)
    for key in imports:
        assert links_a[key].type is links_b[key].type is imports[key].type
        assert links_a[key].fn.__func__ is links_b[key].fn.__func__
        assert links_a[key].fn.__self__ is a and links_b[key].fn.__self__ is b
    assert links_a[("env", "sbrk")] is links_a[("env", "sbrk")]  # bound once
    with pytest.raises(KeyError):
        links_a[("env", "no_such_call")]


def test_restore_binds_one_host_function_per_declared_import(monkeypatch):
    bound = []

    class CountingHostFunc(interface.HostFunc):
        def __init__(self, module, name, *args):
            bound.append(name)
            super().__init__(module, name, *args)

    env = StandaloneEnvironment()
    proto = _lookup_proto(env)
    env.object_store.upload(
        "lib/same.ml",
        b"extern int read_call_input(int b, int l);"
        b" export int f() { return read_call_input(0, 0); }",
    )
    env.object_store.upload(
        "lib/more.ml", b"extern int input_size(); export int g() { return input_size(); }"
    )
    monkeypatch.setattr(interface, "HostFunc", CountingHostFunc)
    faaslet = proto.restore(env)
    assert sorted(bound) == ["read_call_input", "write_call_output"]
    assert faaslet.call((5).to_bytes(4, "little"))[1] == (5 * 7919 + 13).to_bytes(4, "little")
    # Neither a reset nor a library that imports what is already linked
    # binds anything; a library's new import is bound once, then reused.
    faaslet.reset()
    faaslet.dlopen("lib/same.ml")
    assert len(bound) == 2
    faaslet.dlopen("lib/more.ml")
    faaslet.reset()
    faaslet.dlopen("lib/more.ml")
    assert sorted(bound) == ["input_size", "read_call_input", "write_call_output"]


def test_restore_allocates_for_its_imports_not_for_the_interface():
    """What linking a restore leaves allocated, counted with the collector
    off while the import mapping is still alive (as it is for the length of
    ``Faaslet.__init__``): a closure factory builds all of Tab. 2 here — 49
    closures, ``HostFunc``s and ``FuncType``s, over 300 tracked objects —
    whatever the guest declares; linking builds two bindings."""
    env = StandaloneEnvironment()
    proto = _lookup_proto(env)
    faaslet = proto.restore(env)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        links = build_host_imports(faaslet)
        instance = proto.make_instance(links)
        allocated = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(instance.funcs) > 2 and allocated < 60


def test_interleaved_faaslets_see_only_their_own_call():
    """Isolation through the shared table: it holds code, never state."""
    env = StandaloneEnvironment()
    env.netns.endpoints[("svc", 80)] = lambda data: b"re:" + data
    noop = build("export int main() { return 0; }")
    alice = Faaslet(FunctionDefinition.build("a", noop, user="alice"), env)
    bob = Faaslet(FunctionDefinition.build("b", noop, user="bob"), env)
    alice.input_data, bob.input_data = b"alice-in", b"bob-in!!"

    assert _host(alice, "read_call_input")(0, 8) == 8
    assert _host(bob, "read_call_input")(0, 8) == 8
    assert alice.instance.memory.read(0, 8) == b"alice-in"
    assert bob.instance.memory.read(0, 8) == b"bob-in!!"
    _host(alice, "write_call_output")(0, 5)
    _host(bob, "write_call_output")(0, 3)
    _host(alice, "write_call_output")(5, 3)
    assert (alice.output_data, bob.output_data) == (b"alice-in", b"bob")

    # Files: same path, same descriptor number, different tenants.
    path = b"notes.txt"
    fd_a = _host(alice, "open")(*_put(alice, 64, path), O_CREAT | O_RDWR)
    assert fd_a >= 0
    assert _host(bob, "open")(*_put(bob, 64, path), O_RDWR) == -1
    assert _host(bob, "close")(fd_a) == -1
    fd_b = _host(bob, "open")(*_put(bob, 64, path), O_CREAT | O_RDWR)
    assert _host(alice, "write")(fd_a, *_put(alice, 128, b"from-alice")) == 10
    assert _host(bob, "write")(fd_b, *_put(bob, 128, b"bob")) == 3
    assert _host(alice, "fstat_size")(64, len(path)) == 10
    assert _host(bob, "fstat_size")(64, len(path)) == 3

    # Sockets: a descriptor means nothing in another Faaslet's namespace.
    sock_a = _host(alice, "socket")(2, 1)
    assert _host(alice, "connect")(sock_a, *_put(alice, 192, b"svc"), 80) == 0
    assert _host(bob, "nsend")(sock_a, 0, 3) == -1
    assert _host(alice, "nsend")(sock_a, 0, 5) == 5
    sock_b = _host(bob, "socket")(2, 1)
    assert _host(bob, "nrecv")(sock_b, 256, 16) == 0
    assert _host(alice, "nrecv")(sock_a, 256, 16) == 8
    assert alice.instance.memory.read(256, 8) == b"re:alice"

    # State: the value is shared by design, the mapping is per Faaslet.
    base_a = _host(alice, "get_state")(*_put(alice, 320, b"k"), 8)
    assert base_a > 0
    assert (alice.mapped_state_keys, bob.mapped_state_keys) == (["k"], [])
    alice.instance.memory.write(base_a, b"shared!!")
    base_b = _host(bob, "get_state")(*_put(bob, 320, b"k"), 8)
    assert bob.instance.memory.read(base_b, 8) == b"shared!!"
    assert bob.instance.memory.read(0, 8) == b"bob-in!!"


THREADS_SRC = """
(module
  (import "env" "thread_spawn" (func $spawn (param i32 i32) (result i32)))
  (import "env" "thread_join" (func $join (param i32) (result i32)))
  (import "env" "read_call_input" (func $read (param i32 i32) (result i32)))
  (import "env" "write_call_output" (func $write (param i32 i32)))
  (memory 1)
  (table 1 funcref)
  (elem (i32.const 0) $worker)
  (func $worker (param $arg i32)
    (drop (call $read (i32.mul (local.get $arg) (i32.const 8)) (i32.const 4)))
    (i32.store8 (i32.add (i32.mul (local.get $arg) (i32.const 8)) (i32.const 4))
                (i32.add (local.get $arg) (i32.const 48)))
    (call $write (i32.mul (local.get $arg) (i32.const 8)) (i32.const 5)))
  (func (export "run") (result i32)
    (local $t0 i32) (local $t1 i32) (local $t2 i32) (local $t3 i32)
    (local.set $t0 (call $spawn (i32.const 0) (i32.const 0)))
    (local.set $t1 (call $spawn (i32.const 0) (i32.const 1)))
    (local.set $t2 (call $spawn (i32.const 0) (i32.const 2)))
    (local.set $t3 (call $spawn (i32.const 0) (i32.const 3)))
    (drop (call $join (local.get $t0)))
    (drop (call $join (local.get $t1)))
    (drop (call $join (local.get $t2)))
    (drop (call $join (local.get $t3)))
    (i32.const 0)))
"""


def test_guest_threads_share_their_faaslet_and_nothing_else():
    """Four guest threads of one Faaslet make host calls through the same
    bindings; a neighbour running between them is not touched."""
    env = StandaloneEnvironment()
    definition = FunctionDefinition.build("t", parse_module(THREADS_SRC), entry="run")
    threaded, neighbour = Faaslet(definition, env), Faaslet(definition, env)
    neighbour.input_data = b"NEXT"
    assert _host(neighbour, "read_call_input")(0, 4) == 4
    assert threaded.call(b"mine") == (0, b"mine0mine1mine2mine3")
    assert neighbour.output_data == b"" and neighbour.input_data == b"NEXT"
    assert neighbour.call(b"next")[1] == b"next0next1next2next3"
    assert threaded.output_data == b"mine0mine1mine2mine3"


# ----------------------------------------------------------------------
# The one guard: what the interface swallows, it logs and counts
# ----------------------------------------------------------------------


def _swallowed(env, site):
    return env.metrics.counter("errors.swallowed", site=site).value


def test_guarded_entries_return_minus_one_and_count(caplog):
    env = StandaloneEnvironment()
    noop = FunctionDefinition.build("noop", build("export int main() { return 0; }"))
    faaslet = Faaslet(noop, env)
    bad_utf8 = _put(faaslet, 0, b"\xff\xfe")
    provocations = {
        "chain_call": (*_put(faaslet, 16, b"nobody"), 0, 0),  # unknown function
        "await_call": (424242,),
        "get_call_output_size": (424242,),
        "get_call_output": (424242, 0, 4),
        "dlopen": _put(faaslet, 32, b"lib/missing.ml"),
        "dlsym": (99, *_put(faaslet, 48, b"f")),  # bad handle
    }
    for site, args in provocations.items():
        assert _swallowed(env, site) == 0
        with caplog.at_level("ERROR", logger="repro.host.interface"):
            assert _host(faaslet, site)(*args) == -1, site
        assert _swallowed(env, site) == 1, site
        assert site in caplog.text
    # A name that is not UTF-8 is the guest's error too, not the host's.
    assert _host(faaslet, "dlopen")(*bad_utf8) == -1
    assert _swallowed(env, "dlopen") == 2
    # A bad guest pointer stays a trap, and the unguarded entries count nothing.
    with pytest.raises(Trap):
        _host(faaslet, "chain_call")(1 << 30, 4, 0, 0)
    assert _host(faaslet, "open")(*_put(faaslet, 64, b"absent.txt"), 0) == -1
    assert env.metrics.aggregate("errors.swallowed") == 7


def test_standalone_chain_counts_a_raising_function():
    """The standalone environment reports a chained function that raised
    as exit code 1, and counts it."""
    env = StandaloneEnvironment()
    env.register_function("boom", lambda data: 1 // 0)
    call_id = env.chain_call("boom", b"")
    assert env.await_call(call_id) == 1
    assert env.get_call_output(call_id) == b""
    assert _swallowed(env, "standalone.chain") == 1
