"""The compiled tier's safety check: every page access it emits is covered.

SFI confines guest accesses to linear memory (§3.1) and trusts the code
generator that makes that cheap (§3.4): here :mod:`repro.wasm.compiled`,
whose output :func:`verify` checks in one walk before it is compiled. Every
page view goes to a ``struct`` (un)pack under its bounds test, or to one a
guarded iteration's entry guard covered; a typed view is subscripted only
inside a pass capped at the guard's last iteration, at an item the guard
aligned and bounded. DESIGN.md §2.1 states the rules.
"""

from __future__ import annotations

import ast
import re
import struct

from .futex import atomic_notify, atomic_wait32
from .memory import INLINE_LOADS, INLINE_STORES
from .ops import BINOPS, UNOPS
from .simd import SIMD_EXTRACT_OPS, SIMD_REPLACE_OPS
from .types import PAGE_SIZE, FuncType

#: Builtins generated code may read (``range`` and ``min`` only as a pass's range).
BUILTINS = frozenset(["float", "abs", "len", "range", "min"])
_PRELUDE = frozenset(["_code", "_UNMETERED", "_CallStackExhausted", "_Unreachable"])
_FIXED = {"pages": "mem.pages", "mem": "inst.memory", "npg": "len(pages)", "inst": "inst"}
_WATCHED = frozenset(["_a", "_p", "_o", *_FIXED])
#: A guarded iteration's invariants, views and page objects: fixed inside it.
_FROZEN = re.compile(r"_[nzpbmvPef]\d+|_c\d+[dIQ]")
#: A pass's typed page view: the page's ``view.cast(<its last letter>)``.
_CAST = re.compile(r"_c\d+([dIQ])")
#: An address known >= 0: a local, temp, slot, constant or mask (plus a constant).
_NONNEG = re.compile(r"(?:L|_t|s)?\d+|\(.* & \d+\)|\((?:(?:L|_t|s)?\d+|\(.* & \d+\)) \+ \d+\)")
_LOCAL = re.compile(r"(?:L|_t|s|_[nzpbmvPhef])\d+|_c\d+[dIQ]|_x")
_TYPED = re.compile(r"mem\.(load|store)_(int|float)|float|abs|len")
_SYM = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.LShift: "<<",
        ast.RShift: ">>", ast.BitAnd: "&", ast.Lt: "<", ast.LtE: "<=", ast.USub: "-",
        ast.Not: "not "}
_KIND = {id(f): ("load", f.__self__.size) for f, _ in INLINE_LOADS.values()}
_KIND |= {id(f): ("store", f.__self__.size) for f, _ in INLINE_STORES.values()}
_KIND |= {id(f): ("fn", 0) for f in [*BINOPS.values(), *UNOPS.values(),
          *SIMD_EXTRACT_OPS.values(), *SIMD_REPLACE_OPS.values(), atomic_notify, atomic_wait32]}
#: The operand nodes of the expression kinds generated code uses.
_KIDS = {ast.BinOp: lambda n: (n.left, n.right), ast.List: lambda n: n.elts,
         ast.Tuple: lambda n: n.elts, ast.Compare: lambda n: (n.left, *n.comparators),
         ast.Subscript: lambda n: (n.value, n.slice), ast.UnaryOp: lambda n: (n.operand,),
         ast.BoolOp: lambda n: n.values, ast.JoinedStr: lambda n: n.values,
         ast.FormattedValue: lambda n: (n.value,)}
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
                and not isinstance(obj, (bytes, float, tuple, FuncType))):
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
                            self.typed(n, {c for x in tests for c in _conj(x)}, True)
                        else:
                            self.expr(n, tests, env)
                assigned.update(names)
                self.expr(s.value, tests, env)
                if any(n in _WATCHED or n[:2] == "_h" or g and (
                        n == g["iv"] or _FROZEN.fullmatch(n)) for n in names):
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
                    g["at"] = "tested"  # the exit test: iv <= z from here on
                inner = self.block(s.body, *(([], {}) if t is ast.While else (
                    tests + [s.test], env))) | self.block(s.orelse, tests, env)
                assigned |= inner
                for name in inner:
                    env.pop(name, None)
                tests = [] if inner & _WATCHED else tests
            elif t is ast.For and g and body is g["top"]:
                assigned |= self.pass_(s, tests, env)
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
            if g and t == g["iv"] and not (
                    simple and value == f"({t} + {g['step']})" and body is g["top"]
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
            self.typed(n, {c for x in tests for c in _conj(x)}, False)
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
            return self.hoisted(call, facts, size, g["views"][args[0]] if kind == "store" else "")
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
        h, conj = s.targets[0].id, _conj(s.value)
        head = re.fullmatch(r"\((L\d+) (<=?) (_n\d+)\) \(\((_z\d+) \+ (\d+)\) < 2147483648\)",
                            " ".join(conj[:2]))
        iv, op, n, z, step = head.groups() if head else ("",) * 5
        span = f"(({n} - 1) - {iv})" if op == "<" else f"({n} - {iv})"  # z = iv + span//c*c
        if not head or i < 2 or h in self.guards or [_src(getattr(x, "targets", [s])[0]) for x in
                body[i - 2:i]] != [n, z] or _src(body[i - 1].value) != \
                f"({iv} + (({span} // {step}) * {step}))":
            _fail(s, "guard does not stop at the last iteration")
        self.guards.add(h)
        g = dict(iv=iv, z=z, step=step, at="", box={}, aligned={},
                 exit=[f"(not ({iv} {op} {n}))", "<Break>"])
        for c in conj[2:]:  # ``c <= e <= k``: e's value known to lie in [c, k]
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
        binds = " ".join(f"{_src(b.targets[0])} = {_src(b.value)};" if type(b) is ast.Assign
                         else "?" for b in bind.body)
        found = re.findall(r"(_P\d+) = pages\[(_p\d+)\]; (_v\d+) = \1\.view;((?: _c\d+[dIQ] = "
                           r"\3\.cast\('[dIQ]'\);)*)", binds)
        g["views"] = {view: obj for obj, page, view, _ in found if f"(0 <= {page} < npg)" in conj}
        g["typed"] = {c: (g["views"][view], struct.calcsize(f)) for _, _, view, casts in found
                      if view in g["views"] for c, f in re.findall(r"(_c\d+(\w)) = \S+\('\2'\)", casts)}
        g["items"] = dict(re.findall(r"(_[ef]\d+) = (\(_[bm]\d+ >> \d\));", binds))
        if len(g["views"]) * 2 + len(g["typed"]) + len(g["items"]) != len(bind.body):
            _fail(bind, "guarded iteration binds something other than views of checked pages")
        self.g, g["top"] = g, first.body
        assigned = self.block([first], [], {})
        self.g = None
        return 1 + (bind is rest[0]), assigned | self.block(loop.body[1:], [], {})

    def hoisted(self, call, facts, size, obj) -> None:
        """``k(v, B + iv * S)`` in the tested iteration, boxed at ``iv`` and ``z``."""
        g, at = self.g, _src(call.args[1])
        if g["at"] != "tested" or obj and f"{obj}.writable" not in facts:
            _fail(call, "hoisted access outside the tested iteration or its writable test")
        m = re.fullmatch(rf"\((_b\d+) \+ \({g['iv']} \* (\d+|\(-\d+\)|_m\d+)\)\)|_b\d+", at)
        ends = (at, f"({m[1]} + ({g['z']} * {m[2]}))" if m and m[1] else at)
        if not m or max(g["box"].get(x, PAGE_SIZE) for x in ends) > PAGE_SIZE - size:
            _fail(call, "guard did not test this access at the first and last iteration")

    def pass_(self, s, tests, env) -> set:
        """``for iv in range(iv, min(<fuel>, z + 1), c)``: the tested iteration,
        repeated for counter values from the guard's ``iv`` up to ``z``."""
        g, it = self.g, s.iter
        cap = it.args[1] if type(it) is ast.Call and len(it.args) == 3 else None
        if _src(s.target) != g["iv"] or s.orelse or type(cap) is not ast.Call or it.keywords \
                or cap.keywords or [_src(it.func), *map(_src, it.args[::2]), _src(cap.func),
                                    len(cap.args)] != ["range", g["iv"], g["step"], "min", 2] \
                or _src(cap.args[1]) != f"({g['z']} + 1)":
            _fail(s, "pass is not capped at the guard's last iteration")
        self.expr(cap.args[0], tests, env)
        g["at"] = "tested"
        inner = self.block(s.body, [], {})
        g["at"] = ""
        return inner

    def typed(self, n, facts, store) -> None:
        """``c[(B >> k) + iv * (S >> k)]`` in a pass: ``B + iv * S`` boxed at
        ``iv`` and ``z``, ``B`` and ``S`` aligned to the view's items."""
        g = self.g or {}
        at = re.sub(r"_[ef]\d+", lambda x: g.get("items", {}).get(x[0], "?"), _src(n.slice))
        obj, size = g.get("typed", {}).get(_src(n.value), ("", 0))
        if not obj or g["at"] != "tested" or store and f"{obj}.writable" not in facts:
            _fail(n, "typed access outside the tested pass or its writable test")
        k, iv, mask = size.bit_length() - 1, g["iv"], size - 1
        m = re.fullmatch(rf"\(\((_b\d+) >> {k}\) \+ (?:{iv}|\({iv} \* (\d+|\(-\d+\)|\((_m\d+) >> {k}\))\))\)"
                         rf"|\((_b\d+) >> {k}\)", at)
        b, sym = (m[1] or m[4], m[3]) if m else ("", "")
        stride = int(m[2].strip("()")) * size if m and m[2] and not sym else size
        stride = sym or (f"({stride})" if stride < 0 else str(stride))
        ends = [f"({b} + ({v} * {stride}))" if m and m[1] else b for v in (iv, g["z"])]
        if not m or any(g["aligned"].get(x, 0) & mask != mask for x in (b, sym) if x) or \
                max(g["box"].get(x, PAGE_SIZE) for x in ends) > PAGE_SIZE - size:
            _fail(n, "guard did not test this access aligned at the first and last iteration")
