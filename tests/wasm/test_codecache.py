"""The cluster-wide compiled-module cache (§3.4/§5.2 object-code sharing).

Codegen — and the lazily-attached generated Python code — must run once
per distinct module text per process, no matter how many uploads, spawns
or object-store loads reference it; these tests pin the identity-sharing
and counter behaviour the registry and Faaslet paths rely on.
"""

from repro.minilang import build
from repro.wasm import Instance, parse_module
from repro.wasm.codecache import (
    GLOBAL_CODE_CACHE,
    ModuleCodeCache,
    module_key,
)

_WAT = """
(module
  (func $double (export "double") (param i32) (result i32)
    (i32.add (local.get 0) (local.get 0))))
"""


def test_structural_key_is_identity_independent():
    m1 = parse_module(_WAT)
    m2 = parse_module(_WAT)
    assert m1 is not m2
    assert module_key(m1) == module_key(m2)
    m3 = parse_module(_WAT.replace("i32.add", "i32.sub"))
    assert module_key(m3) != module_key(m1)


def test_key_includes_isa_version(monkeypatch):
    """Cached object code is invalidated when the ISA/tier revision bumps:
    the same module text hashes differently under a different version tag,
    so entries compiled before the vector ISA landed can never be reused."""
    from repro.wasm import codecache

    baseline = module_key(parse_module(_WAT))
    assert module_key(parse_module(_WAT)) == baseline  # stable
    monkeypatch.setattr(codecache, "ISA_VERSION", "repro-isa-0-test")
    assert module_key(parse_module(_WAT)) != baseline


def test_get_or_compile_shares_and_counts():
    cache = ModuleCodeCache()
    m1 = parse_module(_WAT)
    m2 = parse_module(_WAT)
    c1 = cache.get_or_compile(m1)
    c2 = cache.get_or_compile(m2)
    assert c1 is c2
    assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1, "seeded": 0}
    assert cache.lookup(m1) is c1
    assert len(cache) == 1
    cache.clear()
    assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0, "seeded": 0}


def test_seed_existing_entry_wins():
    cache = ModuleCodeCache()
    m1 = parse_module(_WAT)
    c1 = cache.get_or_compile(m1)
    from repro.wasm import compile_module

    cache.seed(parse_module(_WAT), compile_module(parse_module(_WAT)))
    assert cache.lookup(m1) is c1  # first entry kept
    assert cache.stats()["seeded"] == 0


def test_seed_with_key_binds_module_and_first_wins():
    cache = ModuleCodeCache()
    from repro.wasm import compile_module

    m1, m2 = parse_module(_WAT), parse_module(_WAT)
    c1, c2 = compile_module(m1), compile_module(m2)
    kept = cache.seed_with_key(m1, "obj:deadbeef", c1)
    assert kept is c1
    # Same artifact loaded again: the canonical list comes back and the
    # fresh duplicate is discarded.
    shared = cache.seed_with_key(m2, "obj:deadbeef", c2)
    assert shared is c1
    # The explicit key is bound to both modules, overriding the text hash.
    assert module_key(m1) == module_key(m2) == "obj:deadbeef"
    assert cache.stats()["seeded"] == 1
    assert cache.stats()["hits"] == 1


def test_instance_uses_global_cache():
    """Two instances of separately parsed, identical modules share one
    compiled function list — spawn never re-runs codegen."""
    i1 = Instance(parse_module(_WAT))
    i2 = Instance(parse_module(_WAT))
    assert i1.funcs[-1] is i2.funcs[-1]
    assert i1.funcs[-1].compiled is None  # lowered lazily, on first call
    assert i1.invoke("double", 21) == 42
    run = i1.funcs[-1].compiled
    assert run is not None
    assert i2.invoke("double", 21) == 42
    # The Python function built by the first call serves both instances.
    assert i2.funcs[-1].compiled is run


def test_registry_object_store_loads_share_compiled(tmp_path):
    from repro.runtime.registry import FunctionRegistry

    reg = FunctionRegistry()
    src = """
    export int kernel() {
        int s = 0;
        for (int i = 0; i < 10; i = i + 1) { s = s + i; }
        return s;
    }
    """
    uploaded = reg.upload("cachedemo", src, snapshot=False, entry="kernel")
    before = reg.code_cache_stats()
    d1 = reg.load_from_object_store("cachedemo")
    d2 = reg.load_from_object_store("cachedemo")
    after = reg.code_cache_stats()
    assert d1.compiled is d2.compiled
    assert after["seeded"] == before["seeded"] + 1
    assert after["hits"] == before["hits"] + 1
    assert uploaded.module is not d1.module  # distinct objects, shared code


def test_proto_restore_shares_generated_code():
    """Proto-Faaslet restores reuse the definition's compiled functions, so
    code generated in any restored instance is visible to all."""
    from repro.faaslet import Faaslet, FunctionDefinition, ProtoFaaslet
    from repro.host.environment import StandaloneEnvironment

    module = build(
        """
        export int kernel() {
            int s = 0;
            for (int i = 0; i < 50; i = i + 1) { s = s + i; }
            return s;
        }
        """
    )
    definition = FunctionDefinition.build("shared", module, entry="kernel")
    env = StandaloneEnvironment()
    proto = ProtoFaaslet.capture(definition, env)
    f1 = Faaslet(definition, env, proto=proto)
    assert f1.invoke_export("kernel") == 1225
    generated = [fn.compiled for fn in definition.compiled if fn.compiled]
    assert generated, "first call should have attached generated code"
    f2 = Faaslet(definition, env, proto=proto)
    assert f2.instance.funcs[-1] is f1.instance.funcs[-1]
    assert f2.instance.funcs[-1].compiled is f1.instance.funcs[-1].compiled


def test_each_function_is_lowered_once_per_process(monkeypatch):
    """One ``exec`` per distinct module, however instances of it come to
    be: upload, plain spawn, Proto-Faaslet restore, a re-upload of the same
    text, ``dlopen`` of the same text into another Faaslet."""
    from repro.faaslet import Faaslet
    from repro.host.environment import StandaloneEnvironment
    from repro.runtime.registry import FunctionRegistry
    from repro.wasm import instance as instance_module

    lowered = []
    lower = instance_module.lower_function

    def counting(fn, module):
        lowered.append(fn)
        return lower(fn, module)

    monkeypatch.setattr(instance_module, "lower_function", counting)
    # A constant no other test uses keeps the global cache cold for it.
    src = """
    export int kernel() {
        int s = 0;
        for (int i = 0; i < 7; i = i + 1) { s = s + i * 770077; }
        return s;
    }
    """
    reg = FunctionRegistry()
    definition = reg.upload("once", src, entry="kernel")  # captures a proto
    env = StandaloneEnvironment(object_store=reg.object_store)
    expected = sum(i * 770077 for i in range(7))
    spawned = Faaslet(definition, env)
    restored = [Faaslet(definition, env, proto=reg.proto("once")) for _ in range(3)]
    again = Faaslet(reg.upload("once-more", src, entry="kernel"), env)
    for faaslet in (spawned, *restored, again):
        assert faaslet.invoke_export("kernel") == expected
    env.object_store.upload("lib/once.ml", src.encode())
    host = Faaslet(reg.upload("host", "export int main() { return 0; }"), env)
    entry = host.dlsym(host.dlopen("lib/once.ml"), "kernel")
    lib = host.instance.table[entry][1]
    assert lib.invoke("kernel") == expected

    kernels = {id(f.instance.funcs[-1]) for f in (spawned, *restored, again)}
    assert kernels == {id(lib.funcs[-1])}  # one function object for all
    assert [fn.name for fn in lowered].count("kernel") == 1
    assert len(lowered) == len({id(fn) for fn in lowered})
