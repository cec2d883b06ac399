"""The compiled tier's safety check: every page access it emits is covered.

SFI confines guest accesses to linear memory (§3.1) and trusts the code
generator that makes that cheap (§3.4): here :mod:`repro.wasm.compiled`,
whose output :func:`verify` checks in one walk before it is compiled. Every
page view goes to a ``struct`` (un)pack under its bounds test, or to one a
guarded iteration's entry guard covered; a typed view is subscripted, or
streamed (sliced from the item at the counter's first value to the one after
its last, at a positive stride), only inside a pass capped at the guard's
last iteration, at items the guard aligned and bounded, and stored to only
if the guard found its page ``writable`` and ``not shared``. A nest's guard
is the same rule over a box of counters: an access is covered at every
corner of its counters' ranges, and an inner bound reads no counter or local
the nest writes. DESIGN.md §2.1 states the rules.
"""

from __future__ import annotations

import ast
import re
import struct
from itertools import product

from .futex import atomic_notify, atomic_wait32
from .memory import INLINE_LOADS, INLINE_STORES
from .ops import BINOPS, UNOPS
from .types import PAGE_SIZE, FuncType

#: Builtins generated code may read (``range``, ``min`` and ``zip`` only as a pass's range).
BUILTINS = frozenset(["float", "abs", "len", "range", "min", "zip"])
_PRELUDE = frozenset(["_code", "_UNMETERED", "_CallStackExhausted", "_Unreachable"])
_FIXED = {"pages": "mem.pages", "mem": "inst.memory", "npg": "len(pages)", "inst": "inst"}
_WATCHED = frozenset(["_a", "_p", "_o", *_FIXED])
#: A guarded iteration's invariants, views and page objects: fixed inside it.
_FROZEN = re.compile(r"_[nzpbmvef]\d+|_c\d+[dIQ]")
#: A pass's typed page view: the page's ``view.cast(<its last letter>)``.
_CAST = re.compile(r"_c\d+([dIQ])")
#: An address known >= 0: a local, temp, slot, constant or mask (plus a constant).
_NONNEG = re.compile(r"(?:L|_t|s)?\d+|\(.* & \d+\)|\((?:(?:L|_t|s)?\d+|\(.* & \d+\)) \+ \d+\)")
_LOCAL = re.compile(r"(?:L|_t|s|_[nzpbmvhef])\d+|_c\d+[dIQ]|_x")
_TYPED = re.compile(r"float|abs|len")
_SYM = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.LShift: "<<",
        ast.RShift: ">>", ast.BitAnd: "&", ast.Lt: "<", ast.LtE: "<=", ast.USub: "-",
        ast.Not: "not "}
_KIND = {id(f): ("load", f.__self__.size) for f, _ in INLINE_LOADS.values()}
_KIND |= {id(f): ("store", f.__self__.size) for f, _ in INLINE_STORES.values()}
_KIND |= {id(f): ("fn", 0) for f in [*BINOPS.values(), *UNOPS.values(), atomic_notify, atomic_wait32]}
#: The operand nodes of the expression kinds generated code uses.
_KIDS = {ast.BinOp: lambda n: (n.left, n.right), ast.List: lambda n: n.elts,
         ast.Tuple: lambda n: n.elts, ast.Compare: lambda n: (n.left, *n.comparators),
         ast.Subscript: lambda n: (n.value, n.slice), ast.UnaryOp: lambda n: (n.operand,),
         ast.BoolOp: lambda n: n.values, ast.JoinedStr: lambda n: n.values,
         ast.FormattedValue: lambda n: (n.value,), ast.Dict: lambda n: (*n.keys, *n.values)}
_TEXT = {ast.Name: lambda n: n.id, ast.Constant: lambda n: repr(n.value),
         ast.Attribute: lambda n: f"{_src(n.value)}.{n.attr}",
         ast.Subscript: lambda n: f"{_src(n.value)}[{_src(n.slice)}]",
         ast.BinOp: lambda n: f"({_src(n.left)} {_SYM.get(type(n.op), '?')} {_src(n.right)})",
         ast.UnaryOp: lambda n: f"({_SYM.get(type(n.op), '?')}{_src(n.operand)})",
         ast.Compare: lambda n: f"({_src(n.left)}" + "".join(
             f" {_SYM.get(type(o), '?')} {_src(c)}" for o, c in zip(n.ops, n.comparators)) + ")",
         ast.Call: lambda n: f"{_src(n.func)}({', '.join(map(_src, n.args))})"}


class Unverified(Exception):
    """The generated code breaks one of the verifier's rules."""


def _fail(node, why: str):
    raise Unverified(f"line {getattr(node, 'lineno', '?')}: {why}")


def _src(n) -> str:
    """Canonical text: every operation parenthesised; a node kind no rule
    names (or a call with keywords) renders unequal to every form."""
    text = _TEXT.get(type(n))
    return text(n) if text and not getattr(n, "keywords", None) else f"<{type(n).__name__}>"


def _stmt(s) -> str:
    """One plain assignment as text (anything else renders as ``?``)."""
    single = type(s) is ast.Assign and len(s.targets) == 1
    return f"{_src(s.targets[0])} = {_src(s.value)}" if single else "?"


def _conj(test) -> list[str]:
    ands = type(test) is ast.BoolOp and type(test.op) is ast.And
    return [_src(v) for v in (test.values if ands else [test])]


def verify(tree: ast.Module, ns: dict) -> None:
    """Raise :class:`Unverified` unless ``tree``, one ``def f`` that will
    run in namespace ``ns``, keeps every rule."""
    fn = tree.body[0] if len(tree.body) == 1 else None
    if type(fn) is not ast.FunctionDef or fn.name != "f" or fn.decorator_list:
        _fail(tree, "not one generated function")
    c = _Checker(ns)
    stores = c.block(fn.body, [], {})
    known = stores | {a.arg for a in fn.args.args} | BUILTINS | _PRELUDE
    if (stores | ns.keys()) & BUILTINS:
        _fail(fn, "a builtin is shadowed")
    for name in c.loads | stores:  # every name but the (un)pack or typed view of an access
        obj = ns.get(name, ns) if name[:2] == "_k" else None
        if name[:2] == "__" or _KIND.get(id(obj), "?")[0] in "ls" or _CAST.fullmatch(name) or name not in known and (
                not _LOCAL.fullmatch(name) and id(obj) not in _KIND  # else at worst a NameError
                and not isinstance(obj, (float, tuple, FuncType))):
            _fail(fn, f"name {name!r} is a dunder, unbound, or an (un)pack outside an access")


class _Checker:
    def __init__(self, ns):
        self.ns, self.g, self.loads, self.guards = ns, None, set(), set()

    def block(self, body, tests, env) -> set:
        """One statement list, with the tests known to hold and the ``_a``
        each of ``_p``/``_o`` was split from, both dropped once stale."""
        env, i, g, assigned = dict(env), 0, self.g, set()
        while i < len(body):
            s, i = body[i], i + 1
            t = type(s)
            if t is ast.Assign or t is ast.AugAssign:
                names = []
                for x in s.targets if t is ast.Assign else (s.target,):
                    for n in x.elts if type(x) is ast.Tuple else (x,):
                        if type(n) is ast.Name:
                            names.append(n.id)
                        elif type(n) is ast.Subscript:  # only a typed view's item
                            self.covered(n, None, 0, True)
                        else:
                            self.expr(n, tests, env)
                assigned.update(names)
                self.expr(s.value, tests, env)
                if any(n in _WATCHED or n[:2] == "_h" or g and (
                        n == g["iv"] or n in g["in"] or _FROZEN.fullmatch(n)) for n in names):
                    if not g and type(s.value) is ast.BoolOp and re.fullmatch(r"_h\d+", names[0]):
                        taken, inner = self.guard(s, body, i - 1)
                        i, assigned, tests = i + taken, assigned | inner, []
                        env.clear()
                        continue
                    self.assign(s, names, env, body, i)
                    tests = []
            elif t is ast.Expr or t is ast.Return or t is ast.Raise:
                self.expr(getattr(s, "value", None) or s.exc, tests, env)
            elif t is ast.If or t is ast.While:
                self.expr(s.test, tests, env)
                if g and body is g["top"] and [_src(s.test), *map(_src, s.body)] == g["exit"]:
                    g["in"][g["iv"]] = (g["iv"], g["z"])  # the exit test: iv <= z from here on
                inner = self.block(s.body, *(([], {}) if t is ast.While else (
                    tests + [s.test], env))) | self.block(s.orelse, tests, env)
                assigned |= inner
                for name in inner:
                    env.pop(name, None)
                tests = [] if inner & _WATCHED else tests
            elif t is ast.For and g:
                assigned |= self.pass_(s, tests, env, body is g["top"])
                tests = []
            elif t not in (ast.Break, ast.Continue, ast.Pass):
                _fail(s, f"{t.__name__} statement")
        return assigned

    def assign(self, s, names, env, body, i) -> None:
        """An assignment to a name some rule is about."""
        g, value = self.g, _src(s.value)
        simple = type(s) is ast.Assign and len(s.targets) == len(names) == 1
        for t in names:
            env.pop(t, None)
            if t in _FIXED and not (simple and value == _FIXED[t]) or t[:2] == "_h" \
                    and not (simple and value == "0") or g and _FROZEN.fullmatch(t):
                _fail(s, f"{t!r} assigned {value}")
            if g and (t == g["iv"] or t in g["in"]) and not (
                    simple and value == f"({t} + {g['step']})" and body is g["top"] and t == g["iv"]
                    and [_src(x) for x in body[i:]] in (["<Continue>"], [])):
                _fail(s, "counter written other than by its step, last")
        if simple and names[0] == "_a":
            env["_a"] = [_NONNEG.fullmatch(value)]
        elif simple and "_a" in env and value == {"_p": "(_a >> 16)",
                                                  "_o": f"(_a & {PAGE_SIZE - 1})"}.get(names[0]):
            env[names[0]] = env["_a"]

    def expr(self, n, tests, env) -> None:
        t = type(n)
        kids = _KIDS.get(t)
        if t is ast.Subscript and _CAST.fullmatch(_src(n.value)):
            self.covered(n, None, 0, False)
        elif kids:
            for k in kids(n):
                if type(k) is ast.Name:
                    self.loads.add(k.id)
                elif type(k) is not ast.Constant:
                    self.expr(k, tests, env)
        elif t is ast.Name:
            self.loads.add(n.id)
        elif t is ast.IfExp:
            self.expr(n.test, tests, env)
            self.expr(n.body, tests + [n.test], env)
            self.expr(n.orelse, tests, env)
        elif t is ast.Call:
            kind, size = _KIND.get(id(self.ns.get(getattr(n.func, "id", ""), self)), (None, 0))
            args = [*n.args, *(k.value for k in n.keywords)]
            if kind in ("load", "store"):
                self.access(n, {c for x in tests for c in _conj(x)}, env, kind, size)
                view, args = args[0], args[1:]  # checked by access
                self.expr(view.value if type(view) is ast.Attribute else view, tests, env)
            elif self.g and kind != "fn" and not _TYPED.fullmatch(_src(n.func)):
                _fail(n, "call inside a guarded iteration")
            else:
                self.expr(n.func, tests, env)
            self.expr(ast.Tuple(args), tests, env)
        elif t is ast.Attribute:
            if n.attr[:2] == "__" or n.attr in ("view", "cast"):
                _fail(n, f"attribute {n.attr!r} outside an access or a binding")
            self.expr(n.value, tests, env)
        elif t is ast.NamedExpr and n.target.id == "_x":
            self.expr(n.value, tests, env)
        elif t is not ast.Constant:
            _fail(n, f"{t.__name__} in generated code")

    def access(self, call, facts, env, kind, size) -> None:
        args, g = [_src(a) for a in call.args], self.g
        if g and args[0] in g["views"]:
            return self.covered(call, args[1], size, kind == "store" and g["views"][args[0]])
        split = env.get("_p")
        if args[:2] != ["pages[_p].view", "_o"] or split is None or split is not env.get("_o"):
            _fail(call, "access is not split from one address into _p and _o")
        if (f"(_o <= {PAGE_SIZE - size})" not in facts
                or "(0 <= _p < npg)" not in facts and not (split[0] and "(_p < npg)" in facts)
                or kind == "store" and "pages[_p].writable" not in facts):
            _fail(call, "access not dominated by its bounds test")

    def guard(self, s, body, i) -> tuple:
        """Check the guard ``_h`` at ``body[i]`` with what it needs around it;
        returns how many statements past it that took, and what they assign."""
        h, conj, levels, want = s.targets[0].id, _conj(s.value), [], []
        while head := re.fullmatch(r"\((L\d+|\d+) (<=?) (_n\d+)\) \(\((_z\d+) \+ (\d+)\) < 2147483648\)",
                                   " ".join(conj[2 * len(levels):2 * len(levels) + 2])):
            lo, op, n, z, step = head.groups()  # a counter's first value, its exit compare, n, z, step
            span = f"(({n} - 1) - {lo})" if op == "<" else f"({n} - {lo})"  # z = lo + span//c*c
            levels.append(head.groups())
            want += [n, f"{z} = ({lo} + (({span} // {step}) * {step}))"]
        pre = body[i - len(want):i] if len(want) <= i else []
        if [lo[0] == "L" for lo, *_ in levels] != [True] + [False] * (len(levels) - 1) or h in self.guards \
                or [_stmt(x).partition(" = ")[0] if k % 2 == 0 else _stmt(x) for k, x in enumerate(pre)] != want:
            _fail(s, "guard does not stop at the last iteration")
        self.guards.add(h)
        (iv, op, n, z, step), inner = levels[0], {z: (lo, c) for lo, _, _, z, c in levels[1:]}
        g = dict(iv=iv, z=z, step=step, inner=inner, box={}, aligned={}, exit=[f"(not ({iv} {op} {n}))", "<Break>"])
        g["in"] = {}  # the counters a pass or the exit test holds in range here: first and last value
        for c in conj[len(want):]:  # ``c <= e <= k``: e's value known to lie in [c, k]
            if m := re.fullmatch(r"\(\d+ <= (.+) <= (\d+)\)", c):
                g["box"][m[1]] = min(int(m[2]), g["box"].get(m[1], PAGE_SIZE))
            elif m := re.fullmatch(r"\(not \((_[bm]\d+) & (\d+)\)\)", c):  # a multiple of k+1
                g["aligned"][m[1]] = g["aligned"].get(m[1], 0) | int(m[2])
        rest = body[i + 1:i + 3] + [s, s]
        bind = rest[0] if type(rest[0]) is ast.If else ast.If(ast.Name(h), [], [])
        loop = rest[1] if bind is rest[0] else rest[0]
        first, clear = (getattr(loop, "body", []) + [s, s])[:2]
        if [type(x) for x in (bind, loop, first)] != [ast.If, ast.While, ast.If] or \
                [_src(bind.test), _src(loop.test), _conj(first.test)[0]] != [h, "True", h] or \
                bind.orelse or loop.orelse or first.orelse or \
                _src(getattr(clear, "targets", [s])[0]) != h:
            _fail(s, "guard is not followed by its views and a loop opening with its iteration")
        binds = " ".join(f"{_stmt(b)};" for b in bind.body)
        found = re.findall(r"(_v\d+) = pages\[(_p\d+)\]\.view;((?: _c\d+[dIQ] = \1\.cast\('[dIQ]'\);)*)", binds)
        g["views"] = {view: page for view, page, _ in found if f"(0 <= {page} < npg)" in conj}
        g["private"] = {page for _, page, _ in found  # stores need no test: nothing clears these mid-call
                        if {f"pages[{page}].writable", f"(not pages[{page}].shared)"} <= {*conj}}
        g["positive"] = {m[1] for c in conj if (m := re.fullmatch(r"\(0 < (_m\d+)\)", c))}
        g["typed"] = {c: (g["views"][view], struct.calcsize(f)) for view, _, casts in found
                      if view in g["views"] for c, f in re.findall(r"(_c\d+(\w)) = \S+\('\2'\)", casts)}
        g["items"] = dict(re.findall(r"(_[ef]\d+) = (\(_[bm]\d+ >> \d\));", binds))
        if len(g["views"]) + len(g["typed"]) + len(g["items"]) != len(bind.body):
            _fail(bind, "guarded iteration binds something other than views of checked pages")
        self.g, g["top"] = g, first.body
        assigned = self.block([first], [], {})
        self.g = None
        for x in pre[2::2]:  # an inner loop's bound holds for the whole nest
            if {y.id for y in ast.walk(x.value) if type(y) is ast.Name} & (assigned | {iv}):
                _fail(x, "inner bound reads a counter or a local the nest writes")
        return 1 + (bind is rest[0]), assigned | self.block(loop.body[1:], [], {})

    def covered(self, node, at, size, obj) -> None:
        """An access at ``at`` (its base plus ``(counter * stride)`` terms) where
        a pass or the exit test holds each counter in range, boxed at every
        corner of those ranges; a store's page (``obj``) proved writable and
        private by the guard. A typed view's item (``at`` None, ``obj`` the
        store flag) has its index read back from items to bytes, aligned."""
        g, terms, typed = self.g or {"in": {}}, [], at is None
        if typed:
            view, size = g.get("typed", {}).get(_src(node.value), ("", 0))
            at, obj = re.sub(r"_[ef]\d+", lambda x: g["items"].get(x[0], "?"), _src(node.slice)), obj and view
        k = size.bit_length() - 1
        while m := re.fullmatch(r"\((.+) \+ (?:(L\d+)|\((L\d+) \* (\d+|\(-\d+\)|_m\d+|\(_m\d+ >> \d\))\))\)", at):
            at, terms = m[1], [(m[2] or m[3], m[4] or "1"), *terms]
        if not g["in"] or typed and not view or any(c not in g["in"] for c, _ in terms) or obj and obj not in g["private"]:
            _fail(node, "access outside the tested pass or its writable test")
        base = re.fullmatch(rf"\((_b\d+) >> {k}\)" if typed else r"_b\d+", at)
        strides = [s if not typed else re.sub(rf"^\((_m\d+) >> {k}\)$", r"\1", s) if "_" in s else
                   str(x) if (x := int(s.strip("()")) * size) >= 0 else f"({x})" for _, s in terms]
        corners = ["(" * sum(v != "0" for v in ends) + base[typed] + "".join(f" + ({v} * {s}))" for v, s in zip(
            ends, strides) if v != "0") for ends in product(*(g["in"][c] for c, _ in terms))] if base else []
        if not base or any(s[0] == "(" and "_" in s for s in strides) or typed and any(
                g["aligned"].get(x, 0) & (size - 1) != size - 1 for x in (base[1], *strides) if x[0] == "_") \
                or max(g["box"].get(x, PAGE_SIZE) for x in corners) > PAGE_SIZE - size:
            _fail(node, "guard did not test this access aligned at every corner of its counters' range")

    def pass_(self, s, tests, env, top) -> set:
        """``for iv in range(iv, min(<fuel>, z + 1), c)`` at the top, or an inner
        loop's ``for j in range(<its first value>, z + 1, c)``: the counter's
        values from the guard's first one up to its ``z``. Zipped after the
        range, its target after the counter: streams, one ``_r`` each."""
        g, it = self.g, s.iter
        zipped = type(it) is ast.Call and _src(it.func) == "zip" and not it.keywords and it.args
        names = [_src(x) for x in s.target.elts] if zipped and type(s.target) is ast.Tuple else [_src(s.target)]
        iv, streams, it = names[0], it.args[1:] if zipped else [], it.args[0] if zipped else it
        if len(names) != 1 + len(streams) or len({*names}) != len(names) or not all(
                re.fullmatch(r"_r\d+", t) for t in names[1:]):
            _fail(s, "stream targets are not the counter and fresh temps")
        args = it.args if type(it) is ast.Call and not it.keywords and len(it.args) == 3 else [s] * 3
        cap = args[1]
        fuel = cap.args[0] if top and type(cap) is ast.Call and not cap.keywords and len(cap.args) == 2 else None
        z = g["z"] if top else _src(getattr(cap, "left", s))
        lo, c = (iv, g["step"]) if top else g["inner"].get(z, ("?", "?"))
        if s.orelse or not re.fullmatch(r"L\d+", iv) or iv in g["in"] or (iv == g["iv"]) != top \
                or [_src(it.func) if args[0] is not s else "", *map(_src, args[::2]),
                    _src(cap.args[1]) if fuel else _src(cap)] != ["range", lo, c, f"({z} + 1)"] \
                or top and (not fuel or _src(cap.func) != "min"):
            _fail(s, "pass is not capped at the guard's last iteration")
        if fuel:
            self.expr(fuel, tests, env)
        g["in"][iv] = (lo, z)
        for x in streams:
            self.stream(x, iv, lo, z, c)
        inner = self.block(s.body, [], {})
        del g["in"][iv]
        return inner | {*names}

    def stream(self, x, iv, lo, z, c) -> None:
        """``view[B + lo*t : B + z*t + 1 : t*c]`` with a positive item stride
        ``t`` (1 unwritten): the items ``view[B + iv*t]`` takes over the pass,
        each boxed as that subscript is."""
        k = x.slice if type(x) is ast.Subscript else None
        lower = k.lower if type(k) is ast.Slice and type(k.lower) is ast.BinOp and type(k.lower.op) is ast.Add else None
        mult = lower and type(lower.right) is ast.BinOp and type(lower.right.op) is ast.Mult
        first, t = (lower.right.left, lower.right.right) if mult else (lower and lower.right, ast.Constant(1))
        b, u = _src(lower.left) if lower else "", _src(t)
        m = re.fullmatch(r"\((_m\d+) >> \d\)", self.g["items"].get(u, ""))
        last = f"(({b} + ({z} * {u})) + 1)" if mult else f"(({b} + {z}) + 1)"
        if not lower or _src(first) != lo or _src(k.upper) != last \
                or _src(k.step) != (repr(int(u) * int(c)) if u.isdigit() else u if c == "1" else f"({u} * {c})") \
                or not (u.isdigit() and int(u) > 0 or m and m[1] in self.g["positive"]):
            _fail(x, "stream is not the counter's items from its first value to its last, at a positive stride")
        self.expr(ast.Tuple([k.lower, k.upper, k.step]), [], {})
        self.covered(ast.Subscript(x.value, ast.BinOp(lower.left, ast.Add(), ast.BinOp(ast.Name(iv), ast.Mult(), t)
                                                      if mult else ast.Name(iv))), None, 0, False)
