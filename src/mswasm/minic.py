"""The source language: a C subset with ints, pointers, structs, arrays,
malloc/free, and no enforcement whatsoever.

Pointers at runtime carry provenance annotations (allocation base, length,
element type, allocation id) that the semantics itself ignores: every
in-heap read or write succeeds, invalid frees are dropped, and integers
can flow into pointer positions.  The annotations exist so that the trace
of memory events can be judged by the safety monitor after the fact.

Grammar (see parse_source):

    module   := "module" "{" (struct | import | fn)* "heap" NUM "}"
    struct   := "struct" NAME "{" NAME ":" wtype ("," NAME ":" wtype)* "}"
    import   := "import" NAME "(" [NAME ":" ty] ")" "->" ty ";"
    fn       := "fn" NAME "(" [NAME ":" ty] ")" "->" ty
                "{" "var" "(" [NAME ":" ty ("," NAME ":" ty)*] ")" ";" expr "}"
    ty       := "int" | "ptr" "<" wtype ">"
    wtype    := ty | "struct" NAME | "array" [NUM] ty
    expr     := assign (";" assign)*
    assign   := cmp [":=" assign]           (lhs must be a variable or deref)
    cmp      := add (("==" | "<") add)*
    add      := mul (("+" | "-") mul)*
    mul      := prefix (("*" | "/") prefix)*
    prefix   := "*" prefix | postfix
    postfix  := atom ("." NAME)*
    atom     := NUM | NAME | "(" expr ")"
              | "malloc" "<" ty ">" "(" expr ")" | "malloc" "(" wtype ")"
              | "free" "(" expr ")"
              | "let" NAME "=" NAME "(" [expr] ")" "in" expr
              | "if" expr "{" expr "}" "else" "{" expr "}"

The first function must be called main and take no parameter; it is the
entry point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .monitor import AAlloc, AFree, ARead, AWrite, SAFE, Safe, Violation, check_trace
from .tracerel import BijectionDelta


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class IntType:
    def __str__(self):
        return "int"


@dataclass(frozen=True)
class PtrType:
    wtype: object

    def __str__(self):
        return f"ptr<{self.wtype}>"


@dataclass(frozen=True)
class StructType:
    name: str

    def __str__(self):
        return f"struct {self.name}"


@dataclass(frozen=True)
class ArrayType:
    count: int | None
    elem: object

    def __str__(self):
        if self.count is None:
            return f"array {self.elem}"
        return f"array {self.count} {self.elem}"


INT = IntType()


def is_expr_type(t) -> bool:
    return isinstance(t, (IntType, PtrType))


def types_compatible(a, b) -> bool:
    """Structural equality, except array lengths unify with unknown."""
    if isinstance(a, ArrayType) and isinstance(b, ArrayType):
        if a.count is not None and b.count is not None and a.count != b.count:
            return False
        return types_compatible(a.elem, b.elem)
    if isinstance(a, PtrType) and isinstance(b, PtrType):
        return types_compatible(a.wtype, b.wtype)
    return a == b


class SrcTypeError(Exception):
    pass


class SrcParseError(Exception):
    pass


@dataclass
class StructDef:
    name: str
    fields: list[tuple[str, object]]  # (name, wtype); no struct-typed fields


@dataclass
class FnDef:
    name: str
    param: tuple[str, object] | None
    result: object
    locals: list[tuple[str, object]]
    body: object  # untyped expr, replaced by typed expr after checking


@dataclass
class ImportDef:
    name: str
    param: object | None  # param type
    result: object


@dataclass
class SrcModule:
    structs: dict[str, StructDef]
    imports: list[ImportDef]
    fns: list[FnDef]
    heap_size: int

    def struct_fields(self, name: str):
        return self.structs[name].fields


def cells_of(mod: SrcModule, w) -> int:
    """Heap footprint in cells (one value per cell)."""
    if isinstance(w, (IntType, PtrType)):
        return 1
    if isinstance(w, ArrayType):
        if w.count is None:
            raise SrcTypeError(f"array without length has no size: {w}")
        return w.count * cells_of(mod, w.elem)
    if isinstance(w, StructType):
        return sum(cells_of(mod, ft) for _, ft in mod.struct_fields(w.name))
    raise SrcTypeError(f"no size for {w}")


def field_cell_offset(mod: SrcModule, sname: str, fname: str) -> tuple[int, object]:
    off = 0
    for name, ft in mod.struct_fields(sname):
        if name == fname:
            return off, ft
        off += cells_of(mod, ft)
    raise SrcTypeError(f"struct {sname} has no field {fname}")


def struct_cell_shades(mod: SrcModule, sname: str) -> tuple[int, ...]:
    """One shade per cell: field k's cells all get shade k."""
    shades: list[int] = []
    for k, (_, ft) in enumerate(mod.struct_fields(sname)):
        shades.extend([k] * cells_of(mod, ft))
    return tuple(shades)


# ---------------------------------------------------------------------------
# Untyped AST


@dataclass
class Num:
    n: int


@dataclass
class Var:
    name: str


@dataclass
class Seq:
    a: object
    b: object


@dataclass
class BinOp:
    op: str
    a: object
    b: object


@dataclass
class AssignVar:
    name: str
    e: object


@dataclass
class AssignPtr:
    target: object
    e: object


@dataclass
class Deref:
    e: object


@dataclass
class FieldAcc:
    e: object
    fname: str


@dataclass
class If:
    c: object
    t: object
    f: object


@dataclass
class MallocArray:
    elem: object
    count: object


@dataclass
class MallocSingle:
    wtype: object


@dataclass
class Free:
    e: object


@dataclass
class LetCall:
    x: str
    fname: str
    arg: object | None
    body: object


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<op>:=|->|==|[-+*/<>(){},;:.=])
""", re.VERBOSE)

_KEYWORDS = {"module", "struct", "fn", "var", "heap", "int", "ptr", "array",
             "malloc", "free", "let", "in", "if", "else", "import"}


def _tokenize_src(text: str) -> list[tuple[str, str]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SrcParseError(f"bad character {text[pos]!r} at offset {pos}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        toks.append((m.lastgroup, m.group()))
    toks.append(("eof", ""))
    return toks


class _SrcParser:
    def __init__(self, text: str):
        self.toks = _tokenize_src(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def eat(self, text: str):
        kind, got = self.next()
        if got != text:
            raise SrcParseError(f"expected {text!r}, got {got!r}")

    def at(self, text: str) -> bool:
        return self.peek()[1] == text

    def name(self) -> str:
        kind, got = self.next()
        if kind != "name" or got in _KEYWORDS:
            raise SrcParseError(f"expected name, got {got!r}")
        return got

    def num(self) -> int:
        kind, got = self.next()
        if kind != "num":
            raise SrcParseError(f"expected number, got {got!r}")
        return int(got)

    # -- types --

    def ty(self):
        if self.at("int"):
            self.next()
            return INT
        if self.at("ptr"):
            self.next()
            self.eat("<")
            w = self.wtype()
            self.eat(">")
            return PtrType(w)
        raise SrcParseError(f"expected type, got {self.peek()[1]!r}")

    def wtype(self):
        if self.at("struct"):
            self.next()
            return StructType(self.name())
        if self.at("array"):
            self.next()
            count = None
            if self.peek()[0] == "num":
                count = self.num()
            return ArrayType(count, self.ty())
        return self.ty()

    # -- module --

    def module(self) -> SrcModule:
        self.eat("module")
        self.eat("{")
        structs: dict[str, StructDef] = {}
        imports: list[ImportDef] = []
        fns: list[FnDef] = []
        while not self.at("heap"):
            if self.at("struct"):
                self.next()
                sname = self.name()
                self.eat("{")
                fields = [self.field_decl()]
                while self.at(","):
                    self.next()
                    fields.append(self.field_decl())
                self.eat("}")
                if sname in structs:
                    raise SrcParseError(f"duplicate struct {sname}")
                structs[sname] = StructDef(sname, fields)
            elif self.at("import"):
                self.next()
                iname = self.name()
                self.eat("(")
                pty = None
                if not self.at(")"):
                    self.name()
                    self.eat(":")
                    pty = self.ty()
                self.eat(")")
                self.eat("->")
                rty = self.ty()
                self.eat(";")
                imports.append(ImportDef(iname, pty, rty))
            elif self.at("fn"):
                fns.append(self.fn())
            else:
                raise SrcParseError(f"expected item, got {self.peek()[1]!r}")
        self.eat("heap")
        n_hs = self.num()
        self.eat("}")
        if self.peek()[0] != "eof":
            raise SrcParseError(f"trailing input {self.peek()[1]!r}")
        return SrcModule(structs, imports, fns, n_hs)

    def field_decl(self):
        fname = self.name()
        self.eat(":")
        w = self.wtype()
        if isinstance(w, StructType):
            raise SrcParseError("struct-typed fields are not supported")
        if isinstance(w, ArrayType) and w.count is None:
            raise SrcParseError("array fields need a length")
        return (fname, w)

    def fn(self) -> FnDef:
        self.eat("fn")
        fname = self.name()
        self.eat("(")
        param = None
        if not self.at(")"):
            pname = self.name()
            self.eat(":")
            param = (pname, self.ty())
        self.eat(")")
        self.eat("->")
        result = self.ty()
        self.eat("{")
        self.eat("var")
        self.eat("(")
        locals_: list[tuple[str, object]] = []
        if not self.at(")"):
            locals_.append((self.name(), self._colon_ty()))
            while self.at(","):
                self.next()
                locals_.append((self.name(), self._colon_ty()))
        self.eat(")")
        self.eat(";")
        body = self.expr()
        self.eat("}")
        return FnDef(fname, param, result, locals_, body)

    def _colon_ty(self):
        self.eat(":")
        return self.ty()

    # -- expressions --

    def expr(self):
        e = self.assign()
        while self.at(";"):
            self.next()
            e = Seq(e, self.assign())
        return e

    def assign(self):
        lhs = self.cmp()
        if self.at(":="):
            self.next()
            rhs = self.assign()
            if isinstance(lhs, Var):
                return AssignVar(lhs.name, rhs)
            if isinstance(lhs, Deref):
                return AssignPtr(lhs.e, rhs)
            raise SrcParseError("assignment needs a variable or deref target")
        return lhs

    def cmp(self):
        e = self.add()
        while self.peek()[1] in ("==", "<"):
            op = self.next()[1]
            e = BinOp(op, e, self.add())
        return e

    def add(self):
        e = self.mul()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            e = BinOp(op, e, self.mul())
        return e

    def mul(self):
        e = self.prefix()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            e = BinOp(op, e, self.prefix())
        return e

    def prefix(self):
        if self.at("*"):
            self.next()
            return Deref(self.prefix())
        return self.postfix()

    def postfix(self):
        e = self.atom()
        while self.at("."):
            self.next()
            e = FieldAcc(e, self.name())
        return e

    def atom(self):
        kind, text = self.peek()
        if kind == "num":
            return Num(self.num())
        if text == "(":
            self.next()
            e = self.expr()
            self.eat(")")
            return e
        if text == "malloc":
            self.next()
            if self.at("<"):
                self.next()
                elem = self.ty()
                self.eat(">")
                self.eat("(")
                count = self.expr()
                self.eat(")")
                return MallocArray(elem, count)
            self.eat("(")
            w = self.wtype()
            self.eat(")")
            if isinstance(w, ArrayType):
                raise SrcParseError("single malloc cannot take an array type")
            return MallocSingle(w)
        if text == "free":
            self.next()
            self.eat("(")
            e = self.expr()
            self.eat(")")
            return Free(e)
        if text == "let":
            self.next()
            x = self.name()
            self.eat("=")
            fname = self.name()
            self.eat("(")
            arg = None
            if not self.at(")"):
                arg = self.expr()
            self.eat(")")
            self.eat("in")
            body = self.expr()
            return LetCall(x, fname, arg, body)
        if text == "if":
            self.next()
            c = self.expr()
            self.eat("{")
            t = self.expr()
            self.eat("}")
            self.eat("else")
            self.eat("{")
            f = self.expr()
            self.eat("}")
            return If(c, t, f)
        if kind == "name" and text not in _KEYWORDS:
            return Var(self.name())
        raise SrcParseError(f"expected expression, got {text!r}")


def parse_source(text: str) -> SrcModule:
    return _SrcParser(text).module()


# ---------------------------------------------------------------------------
# Typed AST: every node carries its type; implicit int-to-pointer uses
# become explicit coercion nodes so the compiler can see them.


@dataclass
class TNum:
    n: int
    ty: object


@dataclass
class TVar:
    name: str
    ty: object


@dataclass
class TSeq:
    a: object
    b: object
    ty: object


@dataclass
class TBinOp:
    op: str
    a: object
    b: object
    ty: object
    elem: object | None = None  # set for pointer arithmetic: element type


@dataclass
class TAssignVar:
    name: str
    e: object
    ty: object


@dataclass
class TAssignPtr:
    target: object
    e: object
    value_ty: object  # static type of the stored value
    ty: object


@dataclass
class TDeref:
    e: object
    ty: object


@dataclass
class TField:
    e: object
    fname: str
    sname: str
    cell_off: int
    fty: object  # declared field word type
    ty: object


@dataclass
class TIf:
    c: object
    t: object
    f: object
    ty: object


@dataclass
class TMallocArray:
    elem: object
    count: object
    ty: object


@dataclass
class TMallocSingle:
    wtype: object
    ty: object


@dataclass
class TFree:
    e: object
    ty: object


@dataclass
class TLetCall:
    x: str
    fname: str
    fn_index: int
    arg: object | None
    body: object
    x_ty: object
    ty: object


@dataclass
class TIntAsPtr:
    e: object
    ty: object  # the pointer type it is used at


@dataclass
class TypedFn:
    name: str
    param: tuple[str, object] | None
    result: object
    locals: list[tuple[str, object]]
    body: object
    index: int  # callable index: imports first, then main, then the rest


@dataclass
class TypedModule:
    mod: SrcModule
    fns: list[TypedFn]  # main first
    fn_indices: dict[str, int]


def _coerce(e_typed, actual, expected):
    """Accept ints where pointers are expected (and nothing else)."""
    if types_compatible(actual, expected):
        return e_typed
    if isinstance(actual, IntType) and isinstance(expected, PtrType):
        return TIntAsPtr(e_typed, expected)
    raise SrcTypeError(f"expected {expected}, got {actual}")


def _deref_elem(ty) -> object:
    """The type read through a pointer: array pointers read elements."""
    if not isinstance(ty, PtrType):
        raise SrcTypeError(f"cannot dereference {ty}")
    w = ty.wtype
    if isinstance(w, ArrayType):
        return w.elem
    if isinstance(w, StructType):
        raise SrcTypeError("cannot dereference a struct pointer; use a field")
    return w


class _Checker:
    def __init__(self, mod: SrcModule):
        self.mod = mod
        sigs: dict[str, tuple[object | None, object]] = {}
        indices: dict[str, int] = {}
        for i, imp in enumerate(mod.imports):
            sigs[imp.name] = (imp.param, imp.result)
            indices[imp.name] = i
        names = [f.name for f in mod.fns]
        if len(set(names)) != len(names):
            raise SrcTypeError("duplicate function names")
        order = sorted(mod.fns, key=lambda f: f.name != "main")
        if not order or order[0].name != "main":
            raise SrcTypeError("a main function is required")
        if order[0].param is not None:
            raise SrcTypeError("main takes no parameter")
        for j, f in enumerate(order):
            pty = f.param[1] if f.param else None
            if f.name in sigs:
                raise SrcTypeError(f"{f.name} defined and imported")
            sigs[f.name] = (pty, f.result)
            indices[f.name] = len(mod.imports) + j
        self.sigs = sigs
        self.indices = indices
        self.order = order

    def check_module(self) -> TypedModule:
        typed = []
        for f in self.order:
            env: dict[str, object] = {}
            if f.param:
                env[f.param[0]] = f.param[1]
            for name, ty in f.locals:
                if name in env:
                    raise SrcTypeError(f"duplicate variable {name}")
                env[name] = ty
            body, bty = self.check(f.body, env)
            body = _coerce(body, bty, f.result)
            typed.append(TypedFn(f.name, f.param, f.result, f.locals, body,
                                 self.indices[f.name]))
        return TypedModule(self.mod, typed, self.indices)

    def check(self, e, env) -> tuple[object, object]:
        if isinstance(e, Num):
            return TNum(e.n, INT), INT
        if isinstance(e, Var):
            if e.name not in env:
                raise SrcTypeError(f"unbound variable {e.name}")
            return TVar(e.name, env[e.name]), env[e.name]
        if isinstance(e, Seq):
            a, _ = self.check(e.a, env)
            b, bty = self.check(e.b, env)
            return TSeq(a, b, bty), bty
        if isinstance(e, BinOp):
            a, aty = self.check(e.a, env)
            b, bty = self.check(e.b, env)
            if e.op == "+" and isinstance(aty, PtrType) \
                    and isinstance(aty.wtype, ArrayType):
                b = _coerce(b, bty, INT)
                if not isinstance(bty, IntType):
                    raise SrcTypeError("pointer offset must be an int")
                return TBinOp("+", a, b, aty, elem=aty.wtype.elem), aty
            if not isinstance(aty, IntType) or not isinstance(bty, IntType):
                raise SrcTypeError(f"binop {e.op} needs ints, got {aty}, {bty}")
            return TBinOp(e.op, a, b, INT), INT
        if isinstance(e, AssignVar):
            if e.name not in env:
                raise SrcTypeError(f"unbound variable {e.name}")
            rhs, rty = self.check(e.e, env)
            rhs = _coerce(rhs, rty, env[e.name])
            return TAssignVar(e.name, rhs, INT), INT
        if isinstance(e, AssignPtr):
            tgt, tty = self.check(e.target, env)
            if isinstance(tty, IntType):
                # Int used as pointer: an int-typed forged access.
                tgt, tty = _coerce(tgt, tty, PtrType(INT)), PtrType(INT)
            elem = _deref_elem(tty)
            rhs, rty = self.check(e.e, env)
            rhs = _coerce(rhs, rty, elem)
            return TAssignPtr(tgt, rhs, elem, INT), INT
        if isinstance(e, Deref):
            inner, ity = self.check(e.e, env)
            if isinstance(ity, IntType):
                inner, ity = _coerce(inner, ity, PtrType(INT)), PtrType(INT)
            elem = _deref_elem(ity)
            if not is_expr_type(elem):
                raise SrcTypeError(f"cannot load a whole {elem}")
            return TDeref(inner, elem), elem
        if isinstance(e, FieldAcc):
            inner, ity = self.check(e.e, env)
            if not (isinstance(ity, PtrType) and isinstance(ity.wtype, StructType)):
                raise SrcTypeError(f"field access needs a struct pointer, got {ity}")
            sname = ity.wtype.name
            if sname not in self.mod.structs:
                raise SrcTypeError(f"unknown struct {sname}")
            off, fty = field_cell_offset(self.mod, sname, e.fname)
            return TField(inner, e.fname, sname, off, fty, PtrType(fty)), PtrType(fty)
        if isinstance(e, If):
            c, cty = self.check(e.c, env)
            if not isinstance(cty, IntType):
                raise SrcTypeError("condition must be an int")
            t, tty = self.check(e.t, env)
            f, fty = self.check(e.f, env)
            if types_compatible(tty, fty):
                ty = tty
            elif isinstance(tty, IntType) and isinstance(fty, PtrType):
                t, ty = _coerce(t, tty, fty), fty
            elif isinstance(fty, IntType) and isinstance(tty, PtrType):
                f, ty = _coerce(f, fty, tty), tty
            else:
                raise SrcTypeError(f"branch types differ: {tty} vs {fty}")
            return TIf(c, t, f, ty), ty
        if isinstance(e, MallocArray):
            count, cty = self.check(e.count, env)
            if not isinstance(cty, IntType):
                raise SrcTypeError("array length must be an int")
            ty = PtrType(ArrayType(None, e.elem))
            return TMallocArray(e.elem, count, ty), ty
        if isinstance(e, MallocSingle):
            w = e.wtype
            if isinstance(w, StructType) and w.name not in self.mod.structs:
                raise SrcTypeError(f"unknown struct {w.name}")
            cells_of(self.mod, w)  # must be sized
            ty = PtrType(w)
            return TMallocSingle(w, ty), ty
        if isinstance(e, Free):
            inner, ity = self.check(e.e, env)
            if not isinstance(ity, (PtrType, IntType)):
                raise SrcTypeError(f"free needs a pointer, got {ity}")
            if isinstance(ity, IntType):
                inner = _coerce(inner, ity, PtrType(INT))
            return TFree(inner, INT), INT
        if isinstance(e, LetCall):
            if e.fname not in self.sigs:
                raise SrcTypeError(f"unknown function {e.fname}")
            pty, rty = self.sigs[e.fname]
            if (pty is None) != (e.arg is None):
                raise SrcTypeError(f"arity mismatch calling {e.fname}")
            arg = None
            if e.arg is not None:
                arg, aty = self.check(e.arg, env)
                arg = _coerce(arg, aty, pty)
            env2 = dict(env)
            env2[e.x] = rty
            body, bty = self.check(e.body, env2)
            return TLetCall(e.x, e.fname, self.indices[e.fname], arg, body,
                            rty, bty), bty
        raise SrcTypeError(f"cannot type {e!r}")


def src_typecheck(mod: SrcModule) -> TypedModule:
    return _Checker(mod).check_module()


# ---------------------------------------------------------------------------
# Runtime values and events


@dataclass(frozen=True)
class SInt:
    n: int


@dataclass(frozen=True)
class SPtr:
    addr: int
    base: int
    length: int       # element count of the region the pointer refers to
    wtype: object     # element word type
    id: int


SrcValue = object


def value_addr(v) -> int:
    return v.n if isinstance(v, SInt) else v.addr


@dataclass(frozen=True)
class SrcAlloc:
    ptr: SPtr


@dataclass(frozen=True)
class SrcFree:
    v: SrcValue  # SPtr, or SInt for a forged free


@dataclass(frozen=True)
class SrcRead:
    ty: object
    v: SrcValue  # the accessing pointer; SInt marks a forged access


@dataclass(frozen=True)
class SrcWrite:
    ty: object
    v: SrcValue


class SrcHostError(Exception):
    """Raw access outside the heap: a host-level fault, not a memory-safety
    verdict."""


_MISSING = object()


# ---------------------------------------------------------------------------
# Interpreter: an explicit-continuation machine, so source recursion depth
# is not limited by the Python stack.


@dataclass
class SrcAllocator:
    free: list[tuple[int, int]] = field(default_factory=list)  # (start, cells)
    allocated: dict[int, tuple[int, int]] = field(default_factory=dict)
    next_id: int = 0

    def find_base(self, n: int, heap_len: int) -> int:
        for start, length in self.free:
            if n <= length:
                return start
        return heap_len

    def carve(self, base: int, n: int) -> None:
        for i, (start, length) in enumerate(self.free):
            if start <= base and base + n <= start + length:
                pieces = []
                if base > start:
                    pieces.append((start, base - start))
                if start + length > base + n:
                    pieces.append((base + n, start + length - (base + n)))
                self.free[i:i + 1] = pieces
                return

    def release(self, base: int, n: int) -> None:
        if n == 0:
            return
        self.free.append((base, n))
        self.free.sort()
        merged = [self.free[0]]
        for start, length in self.free[1:]:
            ls, ll = merged[-1]
            if ls + ll == start:
                merged[-1] = (ls, ll + length)
            else:
                merged.append((start, length))
        self.free = merged


@dataclass
class SrcRunResult:
    trace: list
    outcome: str          # "ok" | "budget" | "hosterror"
    result: SrcValue | None
    heap: list


def src_run(tm: TypedModule, budget: int = 1_000_000,
            strip_annotations: bool = False) -> SrcRunResult:
    """Run main to completion, collecting the memory-event trace.

    strip_annotations zeroes all pointer metadata at creation; the heap
    and control behaviour must be unaffected (annotations are inert).
    """
    if tm.mod.imports:
        raise SrcHostError("module has imports; cannot run")
    mod = tm.mod
    fns = {f.name: f for f in tm.fns}
    heap: list = [SInt(0)] * mod.heap_size
    allocator = SrcAllocator()
    if mod.heap_size > 0:
        allocator.free = [(0, mod.heap_size)]
    trace: list = []

    def annotate(addr, base, length, wtype, seg_id) -> SPtr:
        if strip_annotations:
            return SPtr(addr, 0, 0, INT, 0)
        return SPtr(addr, base, length, wtype, seg_id)

    def do_alloc(ncells: int, length: int, wtype) -> SPtr:
        if ncells < 0:
            # The allocator drops impossible requests; the pointer still
            # materializes, annotated with the bogus length.
            ptr = annotate(len(heap), len(heap), length, wtype, allocator.next_id)
            allocator.next_id += 1
            return ptr
        base = allocator.find_base(ncells, len(heap))
        if base == len(heap):
            heap.extend([SInt(0)] * ncells)
        else:
            allocator.carve(base, ncells)
            for j in range(ncells):
                heap[base + j] = SInt(0)
        seg_id = allocator.next_id
        allocator.next_id += 1
        allocator.allocated[seg_id] = (base, ncells)
        return annotate(base, base, length, wtype, seg_id)

    def do_free(addr: int) -> None:
        # Address-keyed and annotation-blind; invalid requests are dropped.
        for seg_id, (base, n) in list(allocator.allocated.items()):
            if base == addr:
                del allocator.allocated[seg_id]
                for j in range(n):
                    heap[base + j] = SInt(0)
                allocator.release(base, n)
                return

    def heap_read(addr: int):
        if not (0 <= addr < len(heap)):
            raise SrcHostError(f"read at {addr} outside heap of {len(heap)}")
        return heap[addr]

    def heap_write(addr: int, v) -> None:
        if not (0 <= addr < len(heap)):
            raise SrcHostError(f"write at {addr} outside heap of {len(heap)}")
        heap[addr] = v

    main = fns["main"]
    env = {name: SInt(0) for name, _ in main.locals}
    env_stack = [env]
    vals: list = []
    work: list = [("eval", main.body)]
    steps = 0

    def eval_node(node):
        work.append(("eval", node))

    outcome = "ok"
    try:
        while work:
            if steps >= budget:
                return SrcRunResult(trace, "budget", None, heap)
            steps += 1
            item = work.pop()
            tag = item[0]
            if tag == "eval":
                node = item[1]
                if isinstance(node, TNum):
                    vals.append(SInt(node.n))
                elif isinstance(node, TVar):
                    vals.append(env_stack[-1][node.name])
                elif isinstance(node, TIntAsPtr):
                    eval_node(node.e)
                elif isinstance(node, TSeq):
                    work.append(("seq", node.b))
                    eval_node(node.a)
                elif isinstance(node, TBinOp):
                    work.append(("bin", node))
                    eval_node(node.b)
                    eval_node(node.a)
                elif isinstance(node, TAssignVar):
                    work.append(("setvar", node.name))
                    eval_node(node.e)
                elif isinstance(node, TAssignPtr):
                    work.append(("write", node))
                    eval_node(node.e)
                    eval_node(node.target)
                elif isinstance(node, TDeref):
                    work.append(("read", node))
                    eval_node(node.e)
                elif isinstance(node, TField):
                    work.append(("field", node))
                    eval_node(node.e)
                elif isinstance(node, TIf):
                    work.append(("branch", node))
                    eval_node(node.c)
                elif isinstance(node, TMallocArray):
                    work.append(("alloca", node))
                    eval_node(node.count)
                elif isinstance(node, TMallocSingle):
                    n = cells_of(mod, node.wtype)
                    ptr = do_alloc(n, 1, node.wtype)
                    trace.append(SrcAlloc(ptr))
                    vals.append(ptr)
                elif isinstance(node, TFree):
                    work.append(("free",))
                    eval_node(node.e)
                elif isinstance(node, TLetCall):
                    if node.arg is None:
                        work.append(("enter", node, None))
                    else:
                        work.append(("enter", node, "arg"))
                        eval_node(node.arg)
                else:
                    raise AssertionError(f"cannot evaluate {node!r}")
            elif tag == "seq":
                vals.pop()
                eval_node(item[1])
            elif tag == "bin":
                node = item[1]
                b = vals.pop()
                a = vals.pop()
                if isinstance(a, SPtr):
                    # Arithmetic moves the address, never the metadata.
                    vals.append(SPtr(a.addr + value_addr(b), a.base, a.length,
                                     a.wtype, a.id))
                else:
                    x, y = a.n, value_addr(b)
                    op = node.op
                    if op == "+":
                        vals.append(SInt(x + y))
                    elif op == "-":
                        vals.append(SInt(x - y))
                    elif op == "*":
                        vals.append(SInt(x * y))
                    elif op == "/":
                        if y == 0:
                            raise SrcHostError("division by zero")
                        q = abs(x) // abs(y)
                        vals.append(SInt(-q if (x < 0) != (y < 0) else q))
                    elif op == "==":
                        vals.append(SInt(1 if x == y else 0))
                    elif op == "<":
                        vals.append(SInt(1 if x < y else 0))
                    else:
                        raise AssertionError(f"operator {op}")
            elif tag == "setvar":
                env_stack[-1][item[1]] = vals.pop()
                vals.append(SInt(0))
            elif tag == "write":
                node = item[1]
                v = vals.pop()
                target = vals.pop()
                trace.append(SrcWrite(node.value_ty, target))
                heap_write(value_addr(target), v)
                vals.append(SInt(0))
            elif tag == "read":
                node = item[1]
                target = vals.pop()
                trace.append(SrcRead(node.ty, target))
                vals.append(heap_read(value_addr(target)))
            elif tag == "field":
                node = item[1]
                v = vals.pop()
                if isinstance(v, SPtr):
                    addr = v.addr + node.cell_off
                    fty = node.fty
                    if isinstance(fty, ArrayType):
                        length, wtype = fty.count, fty.elem
                    else:
                        length, wtype = 1, fty
                    vals.append(annotate(addr, addr, length, wtype, v.id))
                else:
                    # Field offset on a forged pointer: still just arithmetic.
                    vals.append(SInt(v.n + node.cell_off))
            elif tag == "branch":
                node = item[1]
                c = vals.pop()
                eval_node(node.t if value_addr(c) != 0 else node.f)
            elif tag == "alloca":
                node = item[1]
                count = value_addr(vals.pop())
                ptr = do_alloc(count, count, node.elem)
                trace.append(SrcAlloc(ptr))
                vals.append(ptr)
            elif tag == "free":
                v = vals.pop()
                trace.append(SrcFree(v))
                do_free(value_addr(v))
                vals.append(SInt(0))
            elif tag == "enter":
                node, has_arg = item[1], item[2]
                callee = fns[node.fname]
                cenv: dict = {}
                if has_arg:
                    cenv[callee.param[0]] = vals.pop()
                for name, _ in callee.locals:
                    cenv[name] = SInt(0)
                env_stack.append(cenv)
                work.append(("leave", node))
                eval_node(callee.body)
            elif tag == "leave":
                node = item[1]
                retval = vals.pop()
                env_stack.pop()
                caller = env_stack[-1]
                shadowed = caller.get(node.x, _MISSING)
                caller[node.x] = retval
                work.append(("unbind", node.x, shadowed))
                eval_node(node.body)
            elif tag == "unbind":
                _, name, shadowed = item
                if shadowed is _MISSING:
                    del env_stack[-1][name]
                else:
                    env_stack[-1][name] = shadowed
            else:
                raise AssertionError(f"unknown work item {tag!r}")
    except SrcHostError:
        return SrcRunResult(trace, "hosterror", None, heap)

    return SrcRunResult(trace, outcome, vals[-1] if vals else None, heap)


# ---------------------------------------------------------------------------
# Source-side memory safety: relate the trace to monitor events.


@dataclass(frozen=True)
class SrcUnsafe:
    index: int   # first violating event in the source trace
    reason: str


def _alloc_footprint(mod: SrcModule, ptr: SPtr) -> tuple[int, tuple[int, ...]]:
    """Cell count and per-cell shades for an allocation event's pointer."""
    if isinstance(ptr.wtype, StructType):
        shades = struct_cell_shades(mod, ptr.wtype.name) * ptr.length
    else:
        shades = (0,) * (ptr.length * cells_of(mod, ptr.wtype))
    return len(shades), shades


def src_relate(mod: SrcModule, trace: list):
    """Abstract image of a source trace: (abs_events, sources, unsafe).
    unsafe is None, or SrcUnsafe at the first forged or out-of-provenance
    event, and then abs_events is the image of the events before it.

    abs_events[i] came from trace[sources[i]].  Pointers resolve through
    one record per allocation id, as handles do in tracerel."""
    delta = BijectionDelta()
    abs_events: list = []
    sources: list[int] = []
    for i, ev in enumerate(trace):
        if isinstance(ev, SrcAlloc):
            ptr = ev.ptr
            if ptr.length < 0:
                return abs_events, sources, SrcUnsafe(i, "allocation with negative length")
            ncells, shades = _alloc_footprint(mod, ptr)
            color = delta.bind_segment(ptr.id, ptr.base, ncells, shades)
            abs_events.append(AAlloc(ncells, ptr.base, color, shades))
            sources.append(i)
        elif isinstance(ev, (SrcRead, SrcWrite)):
            if isinstance(ev.v, SInt):
                return abs_events, sources, SrcUnsafe(i, "access through a raw integer")
            ptr = ev.v
            image = delta.resolve(ptr.id, ptr.base)
            if image is None:
                return abs_events, sources, SrcUnsafe(i, "pointer with unknown provenance")
            cls = ARead if isinstance(ev, SrcRead) else AWrite
            abs_events.append(cls(ptr.addr, *image))
            sources.append(i)
        elif isinstance(ev, SrcFree):
            if isinstance(ev.v, SInt):
                return abs_events, sources, SrcUnsafe(i, "free of a raw integer")
            ptr = ev.v
            if ptr.addr != ptr.base:
                return abs_events, sources, SrcUnsafe(i, "free not at allocation start")
            image = delta.resolve(ptr.id, ptr.base)
            if image is None:
                return abs_events, sources, SrcUnsafe(i, "free with unknown provenance")
            abs_events.append(AFree(ptr.base, image[0]))
            sources.append(i)
        else:
            raise TypeError(f"not a source event: {ev!r}")
    return abs_events, sources, None


def src_ms(mod: SrcModule, trace: list):
    """SAFE, or SrcUnsafe carrying the index of the first memory violation
    (a forged event, or the first event the monitor rejects)."""
    abs_events, sources, unsafe = src_relate(mod, trace)
    verdict = check_trace(abs_events)
    if isinstance(verdict, Violation):
        return SrcUnsafe(sources[verdict.index], verdict.kind)
    return unsafe or SAFE
