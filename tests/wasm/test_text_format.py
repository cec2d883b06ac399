"""Text-format assembler tests: syntax coverage and error reporting."""

import pytest

from repro.wasm import ParseError, instantiate, parse_module


def run(text, name, *args):
    return instantiate(parse_module(text)).invoke(name, *args)


def test_comments_line_and_block():
    text = """
    ;; a line comment
    (module
      (; a block (; nested ;) comment ;)
      (func $f (export "f") (result i32)
        (i32.const 5)))  ;; trailing
    """
    assert run(text, "f") == 5


def test_string_escapes_in_data():
    text = r"""
    (module
      (memory 1)
      (data (i32.const 0) "a\nb\t\00\41\\")
      (func $f (export "f") (param i32) (result i32)
        (i32.load8_u (local.get 0))))
    """
    inst = instantiate(parse_module(text))
    # Layout: a \n b \t \x00 A \\
    assert inst.invoke("f", 0) == ord("a")
    assert inst.invoke("f", 1) == ord("\n")
    assert inst.invoke("f", 3) == ord("\t")
    assert inst.invoke("f", 4) == 0
    assert inst.invoke("f", 5) == 0x41
    assert inst.invoke("f", 6) == ord("\\")


def test_hex_and_underscore_literals():
    text = """
    (module
      (func $f (export "f") (result i32)
        (i32.add (i32.const 0xff) (i32.const 1_000))))
    """
    assert run(text, "f") == 255 + 1000


def test_float_literals():
    text = """
    (module
      (func $f (export "f") (result f64)
        (f64.add (f64.const 1.5e2) (f64.const -0.25))))
    """
    assert run(text, "f") == pytest.approx(149.75)


def test_named_and_indexed_locals_mix():
    text = """
    (module
      (func $f (export "f") (param $a i32) (param i32) (result i32)
        (i32.sub (local.get $a) (local.get 1))))
    """
    assert run(text, "f", 10, 3) == 7


def test_multi_type_param_clause():
    text = """
    (module
      (func $f (export "f") (param i32 i32 i32) (result i32)
        (i32.add (local.get 0) (i32.add (local.get 1) (local.get 2)))))
    """
    assert run(text, "f", 1, 2, 3) == 6


def test_flat_instruction_sequence():
    text = """
    (module
      (func $f (export "f") (param i32) (result i32)
        local.get 0
        i32.const 3
        i32.mul))
    """
    assert run(text, "f", 7) == 21


def test_label_resolution_by_name_and_depth():
    text = """
    (module
      (func $f (export "f") (param $n i32) (result i32)
        (local $i i32)
        (block $out
          (loop $top
            (local.set $i (i32.add (local.get $i) (i32.const 1)))
            (br_if 1 (i32.ge_s (local.get $i) (local.get $n)))
            (br $top)))
        (local.get $i)))
    """
    assert run(text, "f", 5) == 5


def test_exports_clause_forms():
    text = """
    (module
      (global $g i32 (i32.const 3))
      (memory (export "mem") 1)
      (func $f (result i32) (global.get $g))
      (export "get" (func $f))
      (export "g" (global $g)))
    """
    inst = instantiate(parse_module(text))
    assert inst.invoke("get") == 3
    assert inst.get_global("g") == 3


def test_unbalanced_parens_rejected():
    with pytest.raises(ParseError, match="unbalanced|unexpected"):
        parse_module("(module (func $f")


def test_unknown_instruction_rejected():
    with pytest.raises(ParseError, match="unknown instruction"):
        parse_module('(module (func $f (i32.frobnicate)))')


@pytest.mark.parametrize(
    "text",
    [
        '(module (func $f (local $v v128)))',
        '(module (global $g v128 (i32.const 0)))',
        '(module (func $f (param v128)))',
        '(module (func $f (drop (v128.const 0))))',
        '(module (func $f (drop (i32x4.add (i32.const 0) (i32.const 0)))))',
    ],
    ids=["local", "global", "param", "v128.const", "i32x4.add"],
)
def test_vector_isa_is_refused(text):
    """There is no vector ISA: a ``v128`` type or a lane op is as unknown
    as any other made-up name."""
    with pytest.raises(ParseError, match="unknown (value type|instruction)"):
        parse_module(text)


def test_unknown_label_rejected():
    with pytest.raises(ParseError, match="unknown label"):
        parse_module('(module (func $f (block $a (br $nope))))')


def test_unknown_function_reference_rejected():
    with pytest.raises(ParseError, match="unknown function"):
        parse_module('(module (func $f (call $ghost)))')


def test_import_fields_may_appear_anywhere():
    """Textually-late import fields are fine: the assembler collects
    imports in a first pass, so the index space stays imports-first."""
    module = parse_module('(module (func $f) (import "env" "g" (func $g)))')
    assert len(module.imports) == 1
    assert module.num_funcs == 2


def test_error_reports_line_numbers():
    text = "(module\n  (func $f\n    (i32.bogus)))"
    with pytest.raises(ParseError, match="line 3"):
        parse_module(text)


def test_table_with_min_max():
    text = """
    (module
      (table 2 5)
      (elem (i32.const 0) $f)
      (func $f (result i32) (i32.const 1))
      (func $g (export "g") (result i32)
        (call_indirect (result i32) (i32.const 0))))
    """
    assert run(text, "g") == 1


def test_nested_folded_expressions():
    text = """
    (module
      (func $f (export "f") (param i32 i32 i32) (result i32)
        (i32.add
          (i32.mul (local.get 0) (local.get 1))
          (i32.sub (local.get 2) (i32.const 1)))))
    """
    assert run(text, "f", 2, 3, 10) == 15


def test_memory_offset_and_align_immediates():
    text = """
    (module
      (memory 1)
      (func $f (export "f") (result i32)
        (i32.store offset=8 align=4 (i32.const 0) (i32.const 77))
        (i32.load offset=8 (i32.const 0))))
    """
    assert run(text, "f") == 77
