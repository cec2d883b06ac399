"""The verifier (``repro.wasm.verify``) on the corpus and on unsafe code.

Every function the compiled tier generates for the corpus must verify: the
14 Polybench kernels, the guest interpreter, the guest sources in
``examples/`` and the minilang test programs here, and the 400 typed
programs of ``test_tier_differential`` there (which also counts fallbacks).
Seeded unsafe lowerings -- one rule broken each -- must be refused.
"""

import ast
import pathlib
import re

import pytest

from repro.apps.guest_interpreter import INTERPRETER_SRC
from repro.apps.kernels import KERNELS
from repro.minilang import build
from repro.wasm import compile_module
from repro.wasm.codecache import GLOBAL_CODE_CACHE
from repro.wasm.compiled import UNMETERED, _Lowering, lower_function
from repro.wasm.verify import Unverified, verify

_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _lowered(module):
    """``{name: (source, namespace)}`` of every function of ``module``."""
    out = {}
    for fn in compile_module(module):
        lowering = _Lowering(fn, module)
        source = lowering.run()
        out[fn.name] = (source, dict(lowering.ns, _code=fn.code, _UNMETERED=UNMETERED,
                                     _CallStackExhausted=None, _Unreachable=None))
    return out


def _verified(module) -> int:
    """Verify every function of ``module``; how many hoisted loops it has."""
    guards = 0
    for source, ns in _lowered(module).values():
        verify(ast.parse(source), ns)
        guards += len(re.findall(r"^ +_h\d+ = \S", source, re.M))
    return guards


def _guest_sources(*paths):
    """Minilang programs quoted in Python files: the string constants that
    declare an ``export`` and build (some test programs must not)."""
    modules = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and "export " in node.value:
                try:
                    modules.append(build(node.value))
                except Exception:  # an error-path program or a template
                    continue
    return modules


def test_corpus_verifies_with_no_fallback():
    fallbacks = GLOBAL_CODE_CACHE.metrics.counter("wasm.compile_fallbacks", cause="unverified")
    guards = sum(_verified(build(k.source)) for k in KERNELS.values())
    assert guards >= 40  # most innermost Polybench loops are guarded (most run as a pass)
    _verified(build(INTERPRETER_SRC))
    examples = _guest_sources(*sorted((_ROOT / "examples").glob("*.py")))
    programs = _guest_sources(*sorted((_ROOT / "tests" / "minilang").glob("*.py")))
    assert len(examples) >= 3 and len(programs) >= 40
    for module in examples + programs:
        _verified(module)
    for fn in compile_module(build(KERNELS["atax"].source)):
        assert lower_function(fn, build(KERNELS["atax"].source)) is not None
    assert fallbacks.value == 0


# ----------------------------------------------------------------------
# Seeded unsafe lowerings: each breaks one rule and must be refused
# ----------------------------------------------------------------------

def _jacobi():
    """The ``jacobi-1d`` kernel: general loads and stores, and passes with
    streamed loads and hoisted stores."""
    return _lowered(build(KERNELS["jacobi-1d"].source))["kernel"]


_UNSAFE = {  # name: (pattern, replacement, what the verifier says)
    # The general load's page bound goes: pages[-1] or past npg reads on.
    "load-without-bounds-test": (r"if _o <= 65528 and 0 <= _p < npg else mem\.load",
                                 "if _o <= 65528 else mem.load", "bounds test"),
    # A general store that skips Page.writable would write a frozen page.
    "store-without-writable": (r"and 0 <= _p < npg and pages\[_p\]\.writable:",
                               "and 0 <= _p < npg:", "bounds test"),
    # z one step short: the guard never looks at the last iteration.
    "guard-skips-last-iteration": (r"(_z\d+ = L\d+ \+ \(_n\d+) - 1 - ", r"\1 - 2 - ",
                                   "last iteration"),
    # The access reads one item past the offset the guard checked.
    "hoisted-form-differs-from-guard": (r"(_c\d+d\[_e\d+ \+ L\d+)\]", r"\1 + 1]",
                                        "did not test this access"),
    # A call inside the guarded iteration could run other guest code.
    "call-in-guarded-loop": (r"^( +)((L\d+) = \(\3 \+ 1\))$",
                             r"\1inst._call(0, [], depth + 1)\n\1\2", "call inside"),
    # Builtins and the instance's class are out of reach.
    "reachable-import": (r"^(def f\(.*\):)$", r"\1\n    __import__('os')", "dunder"),
    "reachable-class": (r"^(def f\(.*\):)$", r"\1\n    _c = inst.__class__", "__class__"),
    # A hoisted access copied above its pass runs at a counter the pass never tested.
    "hoisted-before-exit-test": (
        r"(?s)(if _h\d+ and ex \+ \d+ <= lim:\n)( +)((?:(?!if _h\d).)*?)"
        r"(_c\d+d\[[^\n]*\] = _t\d+\n)", r"\1\2\4\2\3\4", "outside the tested"),
    # A view of a page the guard never bounded.
    "view-of-unchecked-page": (r"_v(\d+) = pages\[_p\1\]", r"_v\1 = pages[_p\1 + 1]",
                               "checked pages"),
    # The counter stepped by two walks past z.
    "counter-steps-past-last": (r"^( +)(L\d+) = \(\2 \+ 1\)$", r"\1\2 = (\2 + 2)",
                                "counter written"),
    # Re-arming the guard inside the loop would re-enter with stale views.
    "guard-re-armed": (r"^( +)(_h\d+) = 0$", r"\1\2 = 1", "assigned 1"),
    # A pass without its cap at z runs as far as fuel lasts.
    "pass-without-cap": (r"min\(([^,\n]+), _z\d+ \+ 1\)", r"\1", "capped"),
    # A pass whose range ends one step late runs one iteration past z.
    "pass-past-last": (r"(range\(.*, _z\d+ \+ )1\)", r"\g<1>2)", "capped"),
    # A typed index whose base the guard never aligned reads the wrong item.
    "typed-index-unaligned": (r" and not _b\d+ & 7", "", "aligned"),
    # A pass store whose guard lacks ``not shared`` could write a mapped page
    # between a push's re-protection and its fault.
    "typed-store-outside-writable": (r" and not pages\[_p\d+\]\.shared", "", "writable test"),
    # A typed view of a page the guard never bounded.
    "typed-view-of-unchecked-page": (r"(_c(\d+)d) = _v\2\.cast", r"\1 = pages[_p\2 + 1].view.cast",
                                     "checked pages"),
    # The typed access strides two items where the guard checked one.
    "typed-stride-wider": (r"(_c\d+d\[_e\d+ \+ )(L\d+)\]", r"\1\2 * 2]",
                           "did not test this access"),
    # Only the ``for`` steps the counter inside a pass.
    "counter-written-in-pass": (r"^( +)(for (L\d+) in range\(.*:)$", r"\1\2\n\1    \3 = (\3 + 1)",
                                "counter written"),
    # A stream one item past z reads the item after the guard's last.
    "stream-past-last": (r"(_c\d+d\[[^:\]]+:_e\d+ \+ _z\d+ \+ )1:", r"\g<1>2:", "stream is not"),
    # A stream stepping two items where the counter steps one.
    "stream-step-not-stride": (r"(_c\d+d\[[^:\]]+:[^:\]]+:)1\]", r"\g<1>2]", "stream is not"),
    # A stream from a view of a page the guard never bounded.
    "stream-of-unchecked-page": (r", (_c(\d+)d)\[(_e\d+ \+ 1:)", r", pages[_p\2 + 1].view.cast('d')[\3",
                                 "outside the tested"),
    # A streamed item bound to the counter would overwrite it every iteration.
    "stream-shadows-counter": (r"for (L\d+), _r\d+", r"for \1, \1", "stream targets"),
    # A raw view subscript bypasses every bounds test.
    "raw-view-read": (r"^(def f\(.*\):)$", r"\1\n    _t99 = inst.memory.pages[0].view[0]",
                      "'view'"),
}


@pytest.mark.parametrize("name", sorted(_UNSAFE))
def test_verifier_refuses_seeded_unsafe_lowering(name):
    source, ns = _jacobi()
    verify(ast.parse(source), ns)  # the real lowering passes
    pattern, repl, reason = _UNSAFE[name]
    mutated, n = re.subn(pattern, repl, source, count=1, flags=re.M)
    assert n == 1, "the mutation must apply"
    with pytest.raises(Unverified, match=re.escape(reason)):
        verify(ast.parse(mutated), ns)


# ----------------------------------------------------------------------
# Counted nests: one guard boxes every access over both counters
# ----------------------------------------------------------------------

#: A nest guard: the outer counter's head, then an inner one from a constant.
_NEST_GUARD = r"^( +_h\d+ = L\d+ < _n\d+ and _z\d+ \+ \d+ < 2147483648 and \d+ < _n\d+.*?)"

_UNSAFE_NEST = {  # name: (pattern, replacement, what the verifier says)
    # The (last, last) corner goes: the far end of the box is never tested.
    "nest-guard-omits-a-corner": (_NEST_GUARD + r" and \d+ <= _b\d+ \+ _z\d+ \* \S+ \+ _z\d+ \* \S+ <= \d+",
                                  r"\1", "did not test this access"),
    # A store's page is not tested writable when the nest is entered.
    "nest-guard-omits-writable": (_NEST_GUARD + r" and pages\[_p\d+\]\.writable", r"\1", "writable test"),
    # A stream at a variable stride the guard never tested positive.
    "stream-stride-not-positive": (r" and 0 < _m\d+", "", "stream is not"),
    # The inner loop's bound moves with the outer counter: a triangle.
    "inner-bound-reads-outer-counter": (r"^( +_z\d+ = (L\d+) \+ .*\n +_n\d+ = \(_x if \(_x := \()L\d+\)",
                                        r"\1\2)", "inner bound reads"),
    # The outer counter written inside an inner pass walks off its box.
    "outer-counter-written-in-nest": (r"(?s)(for (L\d+) in range\(\2, min\(.*?\n( +)for L\d+ in "
                                      r"range\(\d+, _z\d+ \+ 1, \d+\):\n)", r"\1\3    \2 = (\2 + 1)\n",
                                      "counter written"),
}


@pytest.mark.parametrize("name", sorted(_UNSAFE_NEST))
def test_verifier_refuses_unsafe_nest_and_counts_the_fallback(monkeypatch, name):
    """Each mutant of ``2mm``'s nests is refused, and the refusal is the
    one counted fallback to the interpreter."""
    module = build(KERNELS["2mm"].source)
    (fn,) = [f for f in compile_module(module) if f.name == "kernel"]
    source, ns = _lowered(module)["kernel"]
    verify(ast.parse(source), ns)  # the real lowering passes
    pattern, repl, reason = _UNSAFE_NEST[name]
    mutated, n = re.subn(pattern, repl, source, count=1, flags=re.M)
    assert n == 1, "the mutation must apply"
    with pytest.raises(Unverified, match=re.escape(reason)):
        verify(ast.parse(mutated), ns)
    fallbacks = GLOBAL_CODE_CACHE.metrics.counter("wasm.compile_fallbacks", cause="unverified")
    before = fallbacks.value
    monkeypatch.setattr(_Lowering, "run", lambda self: mutated)
    assert lower_function(fn, module) is None and fallbacks.value == before + 1
