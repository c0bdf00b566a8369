"""Differential machinery: the cross-language value/event relation, the
source-vs-compiled runner, the unconditional enforcement check, and the
fuzzers (bytecode modules, attacker contexts, source programs).

diff_run judges a typed source module against the compiled, typechecked
module it is given, and compiles nothing itself; diff_run_source is
parse, compile, typecheck and diff_run.  A source run and its compiled
run are compared event by event through a growing bijection between
source allocations (cell base, id) and target segments (byte base, id),
laid out by the module's one SrcModule.layout.  The trace shape required
depends on the source verdict: a memory-safe source program must produce
a fully related pair of traces with a monitor-safe target trace; an
unsafe one, or a safe one that traps, must produce the related image of
its prefix followed by exactly one trap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from . import bytecode as bc
from .bytecode import FuncDef, FuncType, ModuleDef, ValueType
from .compiler import compile_module, compile_type
from .interp import Handle, ReadEv, SAllocEv, SFreeEv, TrapEv, WriteEv, run
from .minic import (
    Layout,
    Safe,
    SInt,
    SrcAlloc,
    SrcFree,
    SrcRead,
    SrcWrite,
    TypedModule,
    parse_source,
    src_ms,
    src_run,
)
from .tracerel import check_ms
from .typecheck import typecheck_module


# ---------------------------------------------------------------------------
# Cross-language relation


class _AllocRec(NamedTuple):
    """A related allocation pair, with its element's layout at hand so that
    a related access is one divmod and one index."""

    src_base: int
    total_cells: int
    tgt_base: int
    tgt_id: int
    wtype: object         # element word type
    elem_cells: int
    elem_bytes: int
    cell_bytes: tuple     # byte offset of each cell of one element
    total_bytes: int


@dataclass
class CrossBijection:
    """source (base cell, id) <-> target (base byte, id), one entry per
    related allocation pair."""

    allocs: dict[int, _AllocRec] = field(default_factory=dict)   # src id ->
    used_tgt_ids: set[int] = field(default_factory=set)


def relate_value(layout: Layout, delta: CrossBijection, sv, tv) -> bool:
    """Value relation: annotated pointers match valid handles up to the
    byte layout; integers match any invalid handle (or the same i32)."""
    if isinstance(sv, SInt):
        if isinstance(tv, Handle):
            return not tv.valid
        return sv.n == tv
    if not isinstance(tv, Handle) or not tv.valid:
        return False
    rec = delta.allocs.get(sv.id)
    if rec is None:
        return False
    base_cells = sv.base - rec.src_base
    if 0 <= base_cells < rec.total_cells:
        elem, cell = divmod(base_cells, rec.elem_cells)
        byte_base = rec.tgt_base + elem * rec.elem_bytes + rec.cell_bytes[cell]
    elif base_cells == rec.total_cells:
        byte_base = rec.tgt_base + rec.total_bytes
    else:
        return False
    wtype = sv.wtype
    width = rec.elem_bytes if wtype is rec.wtype else layout.sizeof(wtype)
    return (tv.id == rec.tgt_id
            and tv.base == byte_base
            and tv.bound == sv.length * width
            and tv.offset == (sv.addr - sv.base) * width)


def relate_events(layout: Layout, delta: CrossBijection, sev, tev) -> bool:
    """Event relation; a related allocation pair extends the bijection."""
    if isinstance(sev, SrcAlloc):
        if not isinstance(tev, SAllocEv):
            return False
        ptr, h = sev.ptr, tev.handle
        if not h.valid or h.offset != 0 or ptr.length < 0:
            return False
        if ptr.id in delta.allocs or h.id in delta.used_tgt_ids:
            return False
        w = ptr.wtype
        elem_bytes = layout.sizeof(w)
        if h.bound != ptr.length * elem_bytes:
            return False
        cell_bytes = layout.cell_bytes(w)
        elem_cells = len(cell_bytes)
        delta.allocs[ptr.id] = _AllocRec(ptr.base, ptr.length * elem_cells, h.base, h.id,
                                         w, elem_cells, elem_bytes, cell_bytes, h.bound)
        delta.used_tgt_ids.add(h.id)
        return True
    if isinstance(sev, (SrcRead, SrcWrite)):
        if isinstance(sev.v, SInt):
            return isinstance(tev, TrapEv)  # forged accesses relate to trap
        want = ReadEv if isinstance(sev, SrcRead) else WriteEv
        if not isinstance(tev, want):
            return False
        if compile_type(sev.ty) is not tev.ty:
            return False
        return tev.handle.valid and relate_value(layout, delta, sev.v, tev.handle)
    if isinstance(sev, SrcFree):
        if isinstance(sev.v, SInt):
            return isinstance(tev, TrapEv)
        if not isinstance(tev, SFreeEv):
            return False
        return tev.handle.valid and relate_value(layout, delta, sev.v, tev.handle)
    return False


# ---------------------------------------------------------------------------
# Differential runner


@dataclass
class RelationReport:
    related: bool
    index: int = -1
    reason: str = ""
    src_verdict: object = None
    src_trace: list = field(default_factory=list)
    tgt_trace: list = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return not self.related


def diff_run(tm: TypedModule, cm: ModuleDef) -> RelationReport:
    """Run tm and cm, its compiled and typechecked module, and check the
    trace shape that the source verdict requires: for a safe source that
    ends "ok", traces of one length, related event by event, and a
    monitor-safe target trace; for a source unsafe at index k, or a safe
    one that trapped (a division by zero) after k events, k related events
    and then exactly one trap."""
    sres = src_run(tm)
    s_tr = sres.trace
    verdict = src_ms(tm.mod, s_tr)
    t_tr = run(cm).trace

    def report(index: int = -1, reason: str = "") -> RelationReport:
        return RelationReport(not reason, index, reason, verdict, s_tr, t_tr)

    # whole: all k source events must relate; else k, then one trap.
    whole = isinstance(verdict, Safe) and sres.outcome != "trap"
    k = len(s_tr) if isinstance(verdict, Safe) else verdict.index
    if whole and sres.outcome != "ok":
        return report(-1, f"source {sres.outcome} on a safe trace")
    if whole and len(t_tr) != k:
        return report(min(k, len(t_tr)), f"trace lengths differ ({k} vs {len(t_tr)})")
    if not whole and len(t_tr) != k + 1:
        return report(k, f"target trace has {len(t_tr)} events, want {k + 1}")
    layout, delta = tm.mod.layout, CrossBijection()
    for i in range(k):
        if not relate_events(layout, delta, s_tr[i], t_tr[i]):
            what = "events" if whole else "prefix events"
            return report(i, f"{what} unrelated: {s_tr[i]!r} vs {t_tr[i]!r}")
    if not whole and not isinstance(t_tr[k], TrapEv):
        return report(k, f"expected trap, got {t_tr[k]!r}")
    if whole and not isinstance(check_ms(t_tr), Safe):
        return report(k, "target trace not monitor-safe")
    return report()


def diff_run_source(text: str) -> RelationReport:
    tm = parse_source(text)
    cm = compile_module(tm)
    typecheck_module(cm)
    return diff_run(tm, cm)


def enforce_check(cm: ModuleDef) -> bool:
    """The unconditional guarantee: whatever the source does, the trace of
    its compiled, typechecked module cm is monitor-safe."""
    return isinstance(check_ms(run(cm).trace), Safe)


# ---------------------------------------------------------------------------
# Bytecode module fuzzer (well-typed by construction)


_EXTREME_I32 = (-(1 << 31), (1 << 31) - 1, -1, 0, 1, 7, 16, 64, 255, -64)


class ModuleGen:
    """Generates well-typed whole modules biased toward handle abuse:
    out-of-range arithmetic, edge slices, stores over handle bytes,
    double frees."""

    def __init__(self, rng: random.Random, max_funcs: int = 4, budget: int = 40):
        self.rng = rng
        self.budget = budget
        n = rng.randint(1, max_funcs)
        self.signatures = [FuncType((), (ValueType.I32,))]
        for _ in range(n - 1):
            params = tuple(self._pick_type() for _ in range(rng.randint(0, 2)))
            self.signatures.append(FuncType(params, (self._pick_type(),)))

    def _pick_type(self) -> ValueType:
        return self.rng.choice((ValueType.I32, ValueType.I32, ValueType.I64,
                                ValueType.HANDLE, ValueType.HANDLE))

    def _spend(self, n: int = 1) -> bool:
        if self.budget < n:
            return False
        self.budget -= n
        return True

    def gen_module(self) -> ModuleDef:
        funcs = []
        for i, sig in enumerate(self.signatures):
            funcs.append(self._gen_func(i, sig))
        return ModuleDef(tuple(funcs), (), heap_size=64,
                         segment_size=4096)

    def _gen_func(self, index: int, sig: FuncType) -> FuncDef:
        rng = self.rng
        locals_ = tuple(self._pick_type() for _ in range(rng.randint(1, 3)))
        all_vars = tuple(sig.params) + locals_
        body: list = []
        for _ in range(rng.randint(0, 3)):
            if not self._spend(3):
                break
            body.extend(self._gen_stmt(index, all_vars))
        body.extend(self._gen_value(index, all_vars, sig.results[0], depth=3))
        return FuncDef(sig.params, locals_, sig.results, tuple(body))

    def _locals_of(self, all_vars, ty) -> list[int]:
        return [i for i, t in enumerate(all_vars) if t is ty]

    def _gen_stmt(self, findex: int, all_vars) -> list:
        rng = self.rng
        choice = rng.randrange(7)
        handles = self._locals_of(all_vars, ValueType.HANDLE)
        if choice == 0 and handles:
            # store a number through a handle (may overwrite handle bytes)
            ty = rng.choice((ValueType.I32, ValueType.I64))
            return (self._gen_value(findex, all_vars, ValueType.HANDLE, 2)
                    + self._gen_value(findex, all_vars, ty, 1)
                    + [bc.segstore(ty)])
        if choice == 1 and handles:
            # store a handle through a handle
            return (self._gen_value(findex, all_vars, ValueType.HANDLE, 2)
                    + self._gen_value(findex, all_vars, ValueType.HANDLE, 2)
                    + [bc.segstore(ValueType.HANDLE)])
        if choice == 2 and handles:
            i = rng.choice(handles)
            return self._gen_value(findex, all_vars, ValueType.HANDLE, 2) + [bc.set_(i)]
        if choice == 3 and handles:
            # free something, occasionally twice in a row
            i = rng.choice(handles)
            code = [bc.get(i), bc.segfree()]
            if rng.random() < 0.3:
                code += [bc.get(i), bc.segfree()]
                self._spend(2)
            return code
        if choice == 4:
            i = rng.randrange(len(all_vars)) if all_vars else None
            if i is not None:
                return self._gen_value(findex, all_vars, all_vars[i], 2) + [bc.set_(i)]
        if choice == 5:
            ty = rng.choice((ValueType.I32, ValueType.I64))
            slots = self._locals_of(all_vars, ty)
            if slots:
                return (self._gen_value(findex, all_vars, ValueType.HANDLE, 2)
                        + [bc.segload(ty), bc.set_(rng.choice(slots))])
        return []

    def _gen_value(self, findex: int, all_vars, ty: ValueType, depth: int) -> list:
        rng = self.rng
        slots = self._locals_of(all_vars, ty)
        leaf_only = depth <= 0 or self.budget <= 2

        if ty is ValueType.HANDLE:
            choices = []
            if slots:
                choices += ["get"] * 3
            if not leaf_only:
                choices += ["new", "add", "slice", "load"]
            if not choices:
                choices = ["new"]
            pick = rng.choice(choices)
            if pick == "get":
                self._spend()
                return [bc.get(rng.choice(slots))]
            if pick == "new":
                self._spend(2)
                return (self._gen_value(findex, all_vars, ValueType.I32, 0)
                        + [bc.new_segment()])
            if pick == "add":
                self._spend(2)
                return (self._gen_value(findex, all_vars, ty, depth - 1)
                        + self._gen_value(findex, all_vars, ValueType.I32, 0)
                        + [bc.handle_add()])
            if pick == "slice":
                self._spend(3)
                return (self._gen_value(findex, all_vars, ty, depth - 1)
                        + [bc.const(ValueType.I32, rng.choice((0, 1, 4, 8, 16, 63, 64))),
                           bc.const(ValueType.I32, rng.choice((0, 4, 8, 64))),
                           bc.slice_()])
            self._spend(2)
            return (self._gen_value(findex, all_vars, ty, depth - 1)
                    + [bc.segload(ValueType.HANDLE)])

        if ty in (ValueType.F32, ValueType.F64):
            self._spend()
            return [bc.const(ty, float(rng.randint(-8, 8)))]

        # integers
        choices = ["const"] * 2
        if slots:
            choices += ["get"] * 2
        if not leaf_only:
            choices += ["binop", "if", "segload"]
            callees = [j for j in range(findex + 1, len(self.signatures))
                       if self.signatures[j].results == (ty,)]
            if callees:
                choices += ["call"]
        pick = rng.choice(choices)
        if pick == "const":
            self._spend()
            lit = rng.choice(_EXTREME_I32) if rng.random() < 0.4 \
                else rng.randint(0, 64)
            return [bc.const(ty, lit)]
        if pick == "get":
            self._spend()
            return [bc.get(rng.choice(slots))]
        if pick == "binop":
            self._spend(2)
            ops = ("add", "sub", "mul", "and", "or", "xor")
            if ty is ValueType.I32:
                ops += ("eq", "lt_s")  # comparisons produce i32
            op = rng.choice(ops)
            return (self._gen_value(findex, all_vars, ty, depth - 1)
                    + self._gen_value(findex, all_vars, ty, depth - 1)
                    + [bc.binop(ty, op)])
        if pick == "if":
            self._spend(3)
            return (self._gen_value(findex, all_vars, ValueType.I32, 0)
                    + [bc.if_(self._gen_value(findex, all_vars, ty, depth - 1),
                              self._gen_value(findex, all_vars, ty, depth - 1))])
        if pick == "segload":
            self._spend(2)
            return (self._gen_value(findex, all_vars, ValueType.HANDLE, depth - 1)
                    + [bc.segload(ty)])
        # call
        callees = [j for j in range(findex + 1, len(self.signatures))
                   if self.signatures[j].results == (ty,)]
        j = rng.choice(callees)
        self._spend(2)
        code: list = []
        for pty in self.signatures[j].params:
            code += self._gen_value(findex, all_vars, pty, depth - 1)
        return code + [bc.call(j)]


def fuzz_module(seed: int) -> ModuleDef:
    return ModuleGen(random.Random(seed)).gen_module()


def fuzz_victim(seed: int) -> ModuleDef:
    """A module with imports whose entry calls the imported code, handing
    it live handles when the signature allows."""
    rng = random.Random(seed)
    n_imports = rng.randint(1, 2)
    imports = []
    for _ in range(n_imports):
        params = tuple(rng.choice((ValueType.I32, ValueType.HANDLE))
                       for _ in range(rng.randint(0, 2)))
        results = (rng.choice((ValueType.I32, ValueType.HANDLE)),)
        imports.append(FuncType(params, results))
    imports = tuple(imports)

    body: list = [bc.const(ValueType.I32, rng.randint(1, 32)),
                  bc.new_segment(), bc.set_(0)]
    for j, imp in enumerate(imports):
        for pty in imp.params:
            if pty is ValueType.HANDLE:
                body.append(bc.get(0))
            else:
                body.append(bc.const(ValueType.I32, rng.randint(0, 8)))
        body.append(bc.call(j))
        body.append(bc.set_(1) if imp.results[0] is ValueType.HANDLE
                    else bc.set_(2))
    # use the segment after the attacker had its turn
    body += [bc.get(0), bc.const(ValueType.I32, rng.randint(0, 3)),
             bc.segstore(ValueType.I32)]
    if rng.random() < 0.5:
        body += [bc.get(1), bc.segfree()]
    body += [bc.const(ValueType.I32, 0)]
    entry = FuncDef((), (ValueType.HANDLE, ValueType.HANDLE, ValueType.I32),
                    (ValueType.I32,), tuple(body))
    return ModuleDef((entry,), imports, heap_size=0, segment_size=4096)


def fuzz_attacker(m: ModuleDef, seed: int) -> ModuleDef:
    """A context module whose leading functions match m's imports and try
    their best to break memory through the values they are given."""
    rng = random.Random(seed)
    funcs = []
    for imp in m.imports:
        gen = ModuleGen(rng, max_funcs=1, budget=24)
        gen.signatures = [imp]
        funcs.append(gen._gen_func(0, imp))
    return ModuleDef(tuple(funcs), (), heap_size=0, segment_size=4096)


# ---------------------------------------------------------------------------
# Source program fuzzer


class SourceGen:
    """Random source programs; with violations=True each program gets a
    deliberate memory error somewhere."""

    def __init__(self, rng: random.Random, violations: bool = False):
        self.rng = rng
        self.violations = violations

    def program(self) -> str:
        rng = self.rng
        lines = ["module {"]
        lines.append("  struct Pair { a: int, b: array 4 int }")
        helpers = rng.randint(0, 1)
        stmts = self._body_stmts()
        lines.append("  fn main() -> int {")
        lines.append("    var (p: ptr<array int>, q: ptr<array int>, "
                      "s: ptr<struct Pair>, f: ptr<array 4 int>, "
                      "x: int, y: int);")
        body = ";\n    ".join(stmts)
        lines.append(f"    {body}")
        lines.append("  }")
        if helpers:
            lines.append("  fn twice(v: int) -> int {")
            lines.append("    var (); v + v")
            lines.append("  }")
        lines.append("  heap 8")
        lines.append("}")
        return "\n".join(lines)

    def _body_stmts(self) -> list[str]:
        rng = self.rng
        n1 = rng.randint(2, 6)
        p_len = rng.randint(1, 6)
        q_len = rng.randint(1, 6)
        stmts = [f"p := malloc<int>({p_len})",
                 f"q := malloc<int>({q_len})",
                 "s := malloc(struct Pair)",
                 "f := s.b",
                 "x := 0"]
        live = {"p": p_len, "q": q_len}
        freed: list[str] = []
        for _ in range(n1):
            kind = rng.randrange(8)
            if kind == 0:
                v = rng.choice(("p", "q"))
                i = rng.randrange(live[v]) if v in live else 0
                stmts.append(f"*({v} + {i}) := x + {rng.randint(0, 9)}")
            elif kind == 1:
                v = rng.choice(("p", "q"))
                i = rng.randrange(live[v]) if v in live else 0
                stmts.append(f"x := *({v} + {i})")
            elif kind == 2:
                stmts.append(f"*(f + {rng.randrange(4)}) := {rng.randint(1, 5)}")
            elif kind == 3:
                stmts.append(f"y := *(s.a); x := x + y")
            elif kind == 4:
                stmts.append(f"*(s.a) := {rng.randint(0, 99)}")
            elif kind == 5:
                stmts.append(f"if x < {rng.randint(1, 5)} {{ x := x + 1 }} "
                             f"else {{ x := x - 1 }}")
            elif kind == 6 and "q" in live:
                stmts.append("free(q)")
                del live["q"]
                freed.append("q")
            elif kind == 7:
                stmts.append(f"x := x + {rng.randint(0, 3)}")
        if self.violations:
            stmts.append(self._violation(live, freed, p_len, q_len))
        for v in list(live):
            if rng.random() < 0.8:
                stmts.append(f"free({v})")
        stmts.append("x")
        return stmts

    def _violation(self, live, freed, p_len, q_len) -> str:
        rng = self.rng
        options = [
            f"*(p + {p_len + rng.randint(0, 3)}) := 1",        # overflow
            f"x := *(p + {p_len + rng.randint(0, 3)})",        # overflow read
            f"x := *(p + (0 - {rng.randint(1, 3)}))",          # underflow
            f"*({rng.randint(0, 30)}) := 5",                   # forged write
            f"x := *({rng.randint(0, 30)})",                   # forged read
            f"free({rng.randint(0, 30)})",                     # forged free
            f"*(f + {rng.randint(4, 6)}) := 9",                # field overflow
        ]
        if freed:
            v = freed[0]
            options += [f"x := *({v} + 0)", f"*({v} + 0) := 7", f"free({v})"]
        elif "q" in live:
            options += ["free(q); x := *(q + 0)", "free(q); free(q)"]
        return rng.choice(options)


def fuzz_source(seed: int, violations: bool = False) -> str:
    return SourceGen(random.Random(seed), violations).program()
