"""A pass's facts against the interpreter.

Inside a pass the compiled tier lowers with what the nest's guard proved
(``repro.wasm.compiled`` module doc): counters lie in ``[start, z]``, an
invariant local the body computes with in ``[0, 2**31)`` (a divisor in
``(0, 2**31)``), and a ``+``/``*`` expression over them below ``2**31`` at
the box's upper corner. So it drops the i32 masks, the signed readings and
the division trap tests those facts make dead. Each case below breaks one
fact; its guard must miss, and today's code must then match the interpreter
on result or trap kind, instructions and fuel, whole and cut by fuel at
mid-run. A seeded mutant whose guard lacks one conjunct must fail.
"""

import random
import re
import struct
import sys

import pytest

from repro.minilang import build
from repro.wasm import OutOfFuel, Trap, compile_module, instantiate
from repro.wasm import compiled

#: A 2-deep nest storing two values ``A`` and ``B`` computed per element.
NEST = """
export float facts(int base, int n, int m, int d, int k, int e) {
    float[] a = new float[256];
    float[] b = new float[256];
    for (int i = base; i < n; i = i + 1) {
        for (int j = 0; j < m; j = j + 1) {
            a[(i - base) * 16 + j] = A;
            b[(i - base) * 16 + j] = B;
        }
    }
    float s = 0.0;
    for (int i = 0; i < 256; i = i + 1) { s = s + a[i] * 3.0 + b[i]; }
    return s;
}
"""
#: Values computed with both counters and four invariant locals: ``k`` in a
#: sum, ``d`` an i32 and an f64 divisor, ``e`` an f64 one.
GUEST = NEST.replace("A;", "(float) ((i + j + k) % d) / (float) d;").replace(
    "B;", "(float) (i * j) / (float) e + (float) ((i * 2 + j) / d);")

U = 2**32
MAX = 2**31
#: (base, n, m, d, k, e): in range, then one broken fact each.
TAKEN = (0, 9, 12, 7, 3, 5)
MISSES = {
    "n is 0": (0, 0, 12, 7, 3, 5),
    "n is negative": (0, U - 3, 12, 7, 3, 5),
    "n is 2**31 unsigned": (0, MAX + 4, 12, 7, 3, 5),
    "m is 2**31 unsigned": (0, 9, MAX, 7, 3, 5),
    "the counters' sum crosses 2**31": (MAX - 8, MAX - 3, 12, 7, 3, 5),
    "the counters' product crosses 2**31": (2**30, 2**30 + 4, 12, 7, 0, 5),
    "only the sum with k crosses 2**31": (0, 9, 12, 7, MAX - 10, 5),
    "rem_s of a negative dividend": (0, 9, 12, 7, U - 40, 5),
    "rem_s and div_s by a negative divisor": (0, 9, 12, U - 7, 3, 5),
    "an i32 zero divisor": (0, 9, 12, 0, 3, 5),
    "f64.div by float(0)": (0, 9, 12, 7, 3, 0),
}


def _module():
    module = build(GUEST)
    # The nest's two, the inner loop's own (where the nest's guard misses) and the sum's.
    assert len(re.findall(r"^ +for L\d+(?:, _r\d+)* in (?:zip\()?range\(", _source(module), re.M)) == 4
    return module


def _source(module):
    return "".join(_lines(module).values())


def _lines(module):
    """The generated source of each function, by its code's file name."""
    return {f"<compiled:{fn.name}>": compiled._Lowering(fn, module).run() for fn in compile_module(module)}


def _run(module, tier, args, fuel, code):
    """Outcome, instructions and fuel left, and whether a line the facts
    folded ran (a remainder by a local, its trap test dropped); ``code`` is
    the module's compiled functions and those lines, by file name."""
    inst = instantiate(module, tier=tier, fuel=fuel, precompiled=code[0])
    ran, passes = [False], code[1]

    def trace(frame, event, arg):
        lines = passes.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def line(frame, event, arg):
            ran[0] |= frame.f_lineno in lines
            return line

        return line

    sys.settrace(trace)
    try:
        outcome = ("ok", struct.pack("<d", inst.invoke("facts", *args)))
    except Trap as trap:
        outcome = ("trap", type(trap).__name__)
    except ArithmeticError as error:  # a fold the facts did not justify
        outcome = ("python", type(error).__name__)
    finally:
        sys.settrace(None)
    return (outcome, inst.instructions_executed, inst.fuel), ran[0]


def _agree(module, args):
    """Both tiers, whole and cut at half the run: equal. Whether a folded line ran."""
    code = compile_module(module), {name: {k for k, text in enumerate(source.splitlines(), 1)
                                           if re.search(r" % L\d+\)", text)}
                                    for name, source in _lines(module).items()}
    whole, ran = _run(module, "compiled", args, 10**8, code)
    assert whole == _run(module, "interp", args, 10**8, code)[0], args
    half = whole[1] // 2
    cut, _ = _run(module, "compiled", args, half, code)
    assert cut == _run(module, "interp", args, half, code)[0], args
    assert half == 0 or cut[0] == ("trap", OutOfFuel.__name__)
    return ran


def test_the_nest_takes_its_pass_in_range():
    module = _module()
    assert _agree(module, TAKEN)
    source = _source(module)
    # The folds happened: no trap test, signed reading or mask in the pass.
    nest = source[source.index("for L", source.index("_s")):source.index("ex += (")]
    assert "% L" in nest and "_k" not in nest and "4294967295" not in nest


@pytest.mark.parametrize("case", sorted(MISSES))
def test_a_broken_fact_is_a_guard_miss_that_matches(case):
    assert not _agree(_module(), MISSES[case])


def _random_nest(rng):
    """``NEST`` storing random ``+ * - % /`` expressions over the counters,
    the invariant locals and small constants."""
    def expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(["i", "j", "k", "d", "e", "1", "2", "7", "0"])
        return f"({expr(depth - 1)} {rng.choice('+*-%/+*')} {expr(depth - 1)})"

    return NEST.replace("A;", f"(float) {expr(3)} / (float) {rng.choice('dekij')};").replace(
        "B;", f"(float) ({expr(3)}) * 0.5;")


def test_random_nests_match_the_interpreter():
    """Random arithmetic in the nest, arguments in range and at the edges:
    both tiers agree whole and cut by fuel (a guard without its corner
    tests, or without its locals' ranges, fails this test too)."""
    rng, edges = random.Random(45), [0, 1, 3, 7, MAX - 1, MAX, U - 1, U - 7, 2**30, 46341]
    for _ in range(8):
        module = build(_random_nest(rng))
        for _ in range(6):
            base = rng.choice([0, 0, 3, MAX - 6, 2**30, U - 2])
            n = (base + rng.choice([0, 1, 5, 9])) % U if rng.random() < 0.8 else rng.choice(edges)
            m = rng.choice([0, 1, 4, 12, 16]) if rng.random() < 0.8 else rng.choice(edges)
            _agree(module, (base, n, m, *(rng.choice(edges) for _ in range(3))))


def test_a_guard_without_its_corner_test_fails(monkeypatch):
    """The mutant drops the sum's corner conjunct: the pass then computes
    ``(i + j + k) % d`` past 2**31 without the wrap, unlike the interpreter."""
    run, counts = compiled._Lowering.run, []

    def mutated(self):
        source, n = re.subn(r" and L\d+ \+ (?:L|_z)\d+ \+ _z\d+ < 2147483648", "", run(self))
        counts.append(n)
        return source

    monkeypatch.setattr(compiled._Lowering, "run", mutated)
    module = build(GUEST)
    with pytest.raises(AssertionError):
        _agree(module, MISSES["only the sum with k crosses 2**31"])
    assert max(counts) == 2  # from the nest's guard and from its inner loop's own
