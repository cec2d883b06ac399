"""Object-file format tests: round-trip, cross-host loading, robustness."""

import pickle

import pytest

from repro.apps.kernels import KERNELS
from repro.faaslet import Faaslet, FunctionDefinition
from repro.host import StandaloneEnvironment
from repro.minilang import build
from repro.wasm import ValType, instantiate, parse_module
from repro.wasm import objectfile
from repro.wasm.codegen import compile_module
from repro.wasm.objectfile import (
    ObjectFileError,
    decode_value,
    encode_value,
    read_object,
    write_object,
)


def roundtrip(module):
    compiled = compile_module(module)
    data = write_object(module, compiled, meta={"entry": "main"})
    return read_object(data)


def test_roundtrip_executes_identically():
    module = build(
        """
        global int counter = 5;
        export int main() {
            counter = counter + 1;
            float[] a = new float[8];
            a[3] = 1.5;
            return counter + (int) a[3];
        }
        """
    )
    restored_module, compiled, meta = roundtrip(module)
    assert meta == {"entry": "main"}
    inst = instantiate(restored_module, validated=True, precompiled=compiled)
    assert inst.invoke("main") == 7
    assert inst.invoke("main") == 8


def test_roundtrip_with_imports_and_data():
    module = build(
        """
        extern int input_size();
        export int main() { return input_size() + loadb("x"); }
        """
    )
    restored, compiled, _ = roundtrip(module)
    assert len(restored.imports) == 1
    assert restored.imports[0].name == "input_size"
    assert restored.data  # interned string segment survived


@pytest.mark.parametrize("name", ["2mm", "durbin", "floyd-warshall"])
def test_kernel_object_roundtrip(name):
    kernel = KERNELS[name]
    module = build(kernel.source)
    restored, compiled, _ = roundtrip(module)
    n = max(6, kernel.default_n // 3)
    original = instantiate(module, validated=True).invoke("kernel", n)
    from_object = instantiate(
        restored, validated=True, precompiled=compiled
    ).invoke("kernel", n)
    assert from_object == original


def test_bad_magic_rejected():
    with pytest.raises(ObjectFileError, match="magic"):
        read_object(b"NOPE" + b"\x00" * 10)


def test_truncated_file_rejected():
    module = build("export int main() { return 0; }")
    data = write_object(module, compile_module(module))
    with pytest.raises(ObjectFileError):
        read_object(data[: len(data) // 2])


def test_unsupported_version_rejected():
    module = build("export int main() { return 0; }")
    data = bytearray(write_object(module, compile_module(module)))
    data[4] = 99
    with pytest.raises(ObjectFileError, match="version"):
        read_object(bytes(data))


def test_corrupted_section_tag_rejected():
    module = build("export int main() { return 0; }")
    data = bytearray(write_object(module, compile_module(module)))
    data[6] = 200  # first section tag
    with pytest.raises(ObjectFileError):
        read_object(bytes(data))


def test_cross_host_cold_start_from_object_store():
    """A registry that never compiled the function instantiates it from the
    shared object store (the §5.2 cold-start path)."""
    from repro.runtime import FaasmCluster

    cluster = FaasmCluster(n_hosts=1)
    cluster.upload(
        "fn",
        """
        extern void write_call_output(int buf, int len);
        export int main() {
            write_call_output("from-object", slen("from-object"));
            return 0;
        }
        """,
    )
    # A "different host": a fresh registry over the same object store.
    from repro.runtime.registry import FunctionRegistry

    other = FunctionRegistry(cluster.object_store)
    definition = other.load_from_object_store("fn")
    env = StandaloneEnvironment(object_store=cluster.object_store)
    faaslet = Faaslet(definition, env)
    code, output = faaslet.call()
    assert (code, output) == (0, b"from-object")


def test_missing_object_file():
    from repro.runtime.registry import FunctionRegistry

    registry = FunctionRegistry()
    with pytest.raises(KeyError):
        registry.load_from_object_store("ghost")


def test_meta_carries_definition_fields():
    from repro.runtime import FaasmCluster

    cluster = FaasmCluster(n_hosts=1)
    cluster.upload(
        "cfg", "export int main() { return 0; }", max_pages=32, user="alice"
    )
    from repro.runtime.registry import FunctionRegistry

    other = FunctionRegistry(cluster.object_store)
    definition = other.load_from_object_store("cfg")
    assert definition.max_pages == 32
    assert definition.user == "alice"


def test_the_old_v128_valtype_code_is_refused(monkeypatch):
    # i32, i64, f32 and f64 keep the codes they had; 4 was v128's.
    assert [encode_value(vt) for vt in ValType] == [bytes([8, code]) for code in range(4)]
    module = parse_module(
        """
        (module
          (global $g (mut f64) (f64.const 1.5))
          (func (export "main") (result i32)
            (local $x f64)
            (i32.const 0)))
        """
    )
    compiled = compile_module(module)
    assert read_object(write_object(module, compiled))[0].globals_[0].type.valtype is ValType.F64
    # The same module written by an encoder that gives f64 the v128 code.
    monkeypatch.setitem(objectfile._VALTYPE_CODES, ValType.F64, 4)
    blob = write_object(module, compiled)
    monkeypatch.undo()
    with pytest.raises(ObjectFileError):
        read_object(blob)


def test_value_encoder_round_trips_and_refuses_what_it_did_not_write():
    value = [(ValType.I32, True, bytes(range(16))), (ValType.F64, False, -2.5), None]
    assert decode_value(encode_value(value)) == value
    for bad in (
        pickle.dumps(value),  # not this encoder's: never unpickled
        encode_value(value)[:-1],  # short
        encode_value(value) + b"\x00",  # trailing bytes
        bytes([8, 99]),  # a value type code no ValType has
    ):
        with pytest.raises(ObjectFileError):
            decode_value(bad)
