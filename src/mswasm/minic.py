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
    expr     := assign (";" assign)*         (one flat block, a TSeq)
    assign   := binary [":=" assign]        (lhs must be a variable or deref)
    binary   := unary (binop unary)*        (left-associative, by precedence:
                                             "*" "/" over "+" "-" over "==" "<")
    unary    := "*" unary | atom ("." NAME)*
    atom     := NUM | NAME | "(" expr ")"
              | "malloc" "<" ty ">" "(" expr ")" | "malloc" "(" wtype ")"
              | "free" "(" expr ")"
              | "let" NAME "=" NAME "(" [expr] ")" "in" expr
              | "if" expr "{" expr "}" "else" "{" expr "}"

parse_source builds the typed tree (TNum ... TIntAsPtr) directly: the
parser types each node as it builds it, so there is one tree.
src_typecheck is the identity; it stays only because the benchmark
(chainbench/bench.py) imports it.  A let may call a function defined
later in the text, so the parser makes two passes over the tokens.  The
first reads the structs, imports and function signatures.  It finds the
tokens that start an item (`fn`, `import`, `heap`, `struct NAME {`),
which no body holds, once per text, and ends each body where the next
item starts.  The second parses and types the bodies in text order, and
a body's closing "}" must be its last token.  A text with more than one
error reports the first of these, in this order:

  1. a parse error outside the bodies;
  2. two functions of one name, or a function both defined and imported;
  3. the first error in the bodies, parse or type, in text order: each
     check runs as soon as the tokens it needs have been read; a body
     without its closing "}" fails where the grammar does, and a token
     between that "}" and the next item is "expected item";
  4. no main function, or a main that takes a parameter.

Parse errors are SrcParseError and type errors SrcTypeError.

A block is one flat TSeq, so statement count adds no depth; a let's body
is the rest of its block.  The parser reads a block in one loop, which
keeps the operators waiting for their right side on a stack and calls
itself only for a parenthesis, if, let or malloc/free argument; it counts
the nesting levels as it goes, and a program nested past MAX_NESTING
levels (see _SrcParser) is a SrcParseError, so the parse and every later
tree walk recurse a bounded number of times.  src_run recurses not at
all: it turns each function into flat code in one walk with a work stack,
and runs the code with an explicit frame stack.

The function called main takes no parameter; it is the entry point.

Ints are i32: each binary operator on ints is the compiled code's i32
operator that I32_OPERATORS names, and src_run runs it by interp's own
function for it, so the two sides compute alike by construction.

Layout is where each value of a source type sits, in cells (src_run's
heap) and in bytes (the compiled segments); SrcModule.layout is the one
Layout of a module, which the parser, src_run, src_relate, the compiler
and the differential runner all read.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

from .bytecode import MAX_NESTING
from .interp import BINOPS
from .monitor import (
    AAlloc, AFree, ARead, AWrite, SAFE, Safe, ShadowMemory, Violation, monitor_step, other_event,
    same_event,
)
from .segmem import MemTrap, give, take
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
class ImportDef:
    name: str
    param: object | None  # param type
    result: object


@dataclass
class SrcModule:
    # name -> its fields, (name, wtype) each; no struct-typed field, no name twice
    structs: dict[str, list[tuple[str, object]]]
    imports: list[ImportDef]
    heap_size: int

    @cached_property
    def layout(self) -> Layout:
        """The module's one Layout, built at first use; not a field, so
        it is in neither equality nor repr."""
        return Layout(self)


class Field(NamedTuple):
    """Where a struct field sits."""

    offset: int   # in bytes
    size: int     # in bytes
    cell: int     # offset in cells
    type: object  # declared word type


class StructRec(NamedTuple):
    size: int     # in bytes, padded to the alignment
    align: int
    cells: int
    fields: dict[str, Field]  # in declaration order


class Layout:
    """Where each value of a module's source types sits: in cells, one
    int or pointer per cell, as src_run's heap holds it, and in bytes, as
    the compiled segments hold it.

    ints are 4 bytes at 4-byte alignment; pointers are 16-byte handles at
    16-byte alignment (so handle loads through compiled code are always
    aligned); arrays are dense; struct fields sit at padded offsets and the
    struct is padded to its strictest member.  A struct's record is built
    at its first use, and its per-cell tables (cell_bytes, shades) at
    theirs: a struct may have 2^30 cells, and parsing and compiling read
    only the record."""

    def __init__(self, mod: SrcModule):
        self.mod = mod
        self._structs: dict[str, StructRec] = {}
        self._cell_bytes: dict[str, tuple[int, ...]] = {}
        self._shades: dict[str, tuple[int, ...]] = {}

    def struct(self, sname: str) -> StructRec:
        rec = self._structs.get(sname)
        if rec is None:
            fields, off, cell, align = {}, 0, 0, 1
            for fname, ft in self.mod.structs[sname]:
                size, a, cells = self._place(ft)
                off = (off + a - 1) // a * a
                fields[fname] = Field(off, size, cell, ft)
                off, cell, align = off + size, cell + cells, max(align, a)
            rec = self._structs[sname] = StructRec(
                (off + align - 1) // align * align, align, cell, fields)
        return rec

    def _place(self, w) -> tuple[int, int, int]:
        """(bytes, alignment, cells) of a w."""
        if isinstance(w, IntType):
            return 4, 4, 1
        if isinstance(w, PtrType):
            return 16, 16, 1
        if isinstance(w, StructType):
            return self.struct(w.name)[:3]
        if isinstance(w, ArrayType) and w.count is not None:
            size, align, cells = self._place(w.elem)
            return w.count * size, align, w.count * cells
        raise ValueError(f"no size for {w}")

    def sizeof(self, w) -> int:
        return self._place(w)[0]

    def alignof(self, w) -> int:
        return self._place(w)[1]

    def cells(self, w) -> int:
        return self._place(w)[2]

    def field(self, sname: str, fname: str) -> Field:
        f = self.struct(sname).fields.get(fname)
        if f is None:
            raise SrcTypeError(f"struct {sname} has no field {fname}")
        return f

    def field_offsets(self, sname: str, fname: str) -> tuple[int, int]:
        """(o1, o2) for slicing: o1 bytes skipped at the front, o2 shaved
        off the bound, so the slice covers exactly the field."""
        f = self.field(sname, fname)
        return f.offset, self.struct(sname).size - f.size

    def cell_bytes(self, w) -> tuple[int, ...]:
        """The byte offset of each cell of a w, in cell order: the
        cell-level and byte-level views of the same layout.  A struct's
        is built once."""
        if isinstance(w, StructType):
            got = self._cell_bytes.get(w.name)
            if got is None:
                got = self._cell_bytes[w.name] = tuple(
                    f.offset + b for f in self.struct(w.name).fields.values()
                    for b in self.cell_bytes(f.type))
            return got
        if isinstance(w, ArrayType):
            size, inner = self.sizeof(w.elem), self.cell_bytes(w.elem)
            return tuple(i * size + b for i in range(w.count) for b in inner)
        return (0,)

    def shades(self, w) -> tuple[int, ...]:
        """One element's shades, one per cell: field k's cells all get
        shade k, and a w that is no struct is one shade.  A struct's is
        built once."""
        if not isinstance(w, StructType):
            return (0,)
        got = self._shades.get(w.name)
        if got is None:
            shades: list[int] = []
            for k, f in enumerate(self.struct(w.name).fields.values()):
                shades += [k] * self.cells(f.type)
            got = self._shades[w.name] = tuple(shades)
        return got


# ---------------------------------------------------------------------------
# Parser

# One match per token, after any whitespace and // comments; a character
# that starts no token matches up to the end; the end matches as "".
_TOKEN_RE = re.compile(r"(?:\s+|//[^\n]*)*"
                       r"([A-Za-z_]\w*|\d+|:=|->|==|[-+*/<>(){},;:.=]|[\s\S]+|\Z)")

_NAME_START = frozenset(string.ascii_letters + "_")
_OP_START = frozenset("-+*/<>(){},;:.=")

_KEYWORDS = {"module", "struct", "fn", "var", "heap", "int", "ptr", "array",
             "malloc", "free", "let", "in", "if", "else", "import"}

# Binary operators by precedence; all are left-associative.
_BINARY = {"==": 1, "<": 1, "+": 2, "-": 2, "*": 3, "/": 3}

# On ints each binary operator is the i32 operator of this name: the
# compiler emits it, and src_run calls interp.BINOPS["i32"][name].
I32_OPERATORS = {"+": "add", "-": "sub", "*": "mul", "/": "div_s", "==": "eq", "<": "lt_s"}


def _item_starts(toks: list[str]) -> list[int]:
    """The sorted positions of the tokens that start an item: each `fn`,
    `import` and `heap`, each `struct` whose next token but one is "{",
    and the end.  No function body holds any of them, so a body ends
    where the next one starts."""
    starts = [len(toks) - 1]
    for word in ("fn", "import", "heap", "struct"):
        i = -1
        try:
            while True:
                i = toks.index(word, i + 1)
                if word != "struct" or toks[i + 2:i + 3] == ["{"]:
                    starts.append(i)
        except ValueError:
            pass
    starts.sort()
    return starts


def _tokenize_src(text: str) -> list[str]:
    """Token strings, ending in "" for the end of the input.  A token's
    kind is its first character's: a digit, a name start, or an operator."""
    toks = _TOKEN_RE.findall(text)
    c = toks[-2][:1] if len(toks) > 1 else ""  # a bad character's match is toks[-2]
    if c and c not in _NAME_START and c not in _OP_START and not c.isdecimal():
        raise SrcParseError(f"bad character {c!r} at offset {len(text) - len(toks[-2])}")
    return toks


_TOO_DEEP = f"nesting deeper than {MAX_NESTING}"


def _number(t: str) -> int:
    if not t.isdecimal():
        raise SrcParseError(f"expected number, got {t!r}")
    try:
        return int(t)
    except ValueError:  # past Python's digit limit for int()
        raise SrcParseError(f"number of {len(t)} digits") from None


class _SrcParser:
    """Recursive descent over the token strings that types each node as it
    builds it.  An expression comes as (typed node, depth): each
    parenthesis, if, let, malloc/free argument, `*`, `.` field, `:=` and
    binary operator adds one level; a block adds none.  Depths are checked
    where they grow.  block() reads a block in one loop, with precedence
    climbing: operands are read in place, and the left sides of binary
    operators and of `:=` wait on one stack for their right side.  So the
    operand after k waiting left sides is k levels into the block, each of
    its `*`s one more, and a parenthesis, if, let or malloc/free argument
    is a block one level further in.  block() and ty() take their level
    and stop past MAX_NESTING before they read a token, so the descent
    stops there too.  A node's own parse checks run before its type checks.

    module() reads the declarations first and then the bodies (see the
    module docstring); while a body is read, `env` maps each variable in
    scope to its TVar, `n_slots` counts the body's frame slots so far, and
    `sigs` and `indices` give each callable's signature and index."""

    def __init__(self, text: str):
        self.toks = _tokenize_src(text)
        self.pos = 0

    def next(self) -> str:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def eat(self, *texts: str):
        for text in texts:
            got = self.next()
            if got != text:
                raise SrcParseError(f"expected {text!r}, got {got!r}")

    def at(self, text: str) -> bool:
        return self.toks[self.pos] == text

    def name(self) -> str:
        got = self.next()
        if not got or got[0] not in _NAME_START or got in _KEYWORDS:
            raise SrcParseError(f"expected name, got {got!r}")
        return got

    def ty(self, level: int = 0, word: bool = False):
        """A ty, or a wtype if word, `level` levels in."""
        if level > MAX_NESTING:
            raise SrcParseError(_TOO_DEEP)
        t = self.next()
        if t == "int":
            return INT
        if t == "ptr":
            self.eat("<")
            w = self.ty(level + 1, True)
            self.eat(">")
            return PtrType(w)
        if word and t == "struct":
            return StructType(self.name())
        if word and t == "array":
            count = _number(self.next()) if self.toks[self.pos].isdecimal() else None
            return ArrayType(count, self.ty(level + 1))
        raise SrcParseError(f"expected type, got {t!r}")

    # -- module --

    def module(self) -> TypedModule:
        """Pass 1 reads the declarations and steps over each body to the
        next item; then come the checks on function names, pass 2 over
        the bodies in text order, and the checks on main."""
        self.eat("module", "{")
        starts = _item_starts(self.toks)
        structs: dict[str, list[tuple[str, object]]] = {}
        imports: list[ImportDef] = []
        fns = []  # (name, param, result, locals, start and end of the body)
        while not self.at("heap"):
            if self.at("struct"):
                self.next()
                sname = self.name()
                self.eat("{")
                fields = self.listed(self.field_decl)
                self.eat("}")
                if sname in structs:
                    raise SrcParseError(f"duplicate struct {sname}")
                if len({fname for fname, _ in fields}) != len(fields):
                    raise SrcParseError(f"duplicate field name in struct {sname}")
                structs[sname] = fields
            elif self.at("import"):
                self.next()
                iname, param, rty = self.signature()
                self.eat(";")
                imports.append(ImportDef(iname, param and param[1], rty))
            elif self.at("fn"):
                self.next()
                fname, param, result = self.signature()
                self.eat("{", "var", "(")
                locals_ = [] if self.at(")") else self.listed(self.var_decl)
                self.eat(")", ";")
                end = starts[bisect_left(starts, self.pos)]
                fns.append((fname, param, result, locals_, self.pos, end))
                self.pos = end
            else:
                raise SrcParseError(f"expected item, got {self.toks[self.pos]!r}")
        self.eat("heap")
        n_hs = _number(self.next())
        self.eat("}")
        if self.toks[self.pos] != "":
            raise SrcParseError(f"trailing input {self.toks[self.pos]!r}")
        self.mod = SrcModule(structs, imports, n_hs)

        self.sigs = {imp.name: (imp.param, imp.result) for imp in imports}
        self.indices = {imp.name: i for i, imp in enumerate(imports)}
        if len({f[0] for f in fns}) != len(fns):
            raise SrcTypeError("duplicate function names")
        order = sorted(fns, key=lambda f: f[0] != "main")
        for j, (fname, param, result, *_) in enumerate(order):
            if fname in self.sigs:
                raise SrcTypeError(f"{fname} defined and imported")
            self.sigs[fname] = (param and param[1], result)
            self.indices[fname] = len(imports) + j

        typed = sorted((self.fn_body(*f) for f in fns), key=lambda f: f.index)
        if not typed or typed[0].name != "main":
            raise SrcTypeError("a main function is required")
        if typed[0].param is not None:
            raise SrcTypeError("main takes no parameter")
        return TypedModule(self.mod, typed)

    def fn_body(self, name, param, result, locals_, start, end) -> TypedFn:
        """Parse and type the body at start, which pass 1 skipped; its "}"
        is the last token before end, where the next item starts."""
        env: dict[str, TVar] = {}
        for var, ty in ([param] if param else []) + locals_:
            if var in env:
                raise SrcTypeError(f"duplicate variable {var}")
            env[var] = TVar(var, ty, len(env))
        self.env, self.n_slots, self.pos = env, len(env), start
        body, _ = self.block(0)
        self.eat("}")
        if self.pos != end:
            raise SrcParseError(f"expected item, got {self.toks[self.pos]!r}")
        return TypedFn(name, param, result, locals_, _coerce(body, body.ty, result),
                       self.indices[name], self.n_slots - len(env))

    def listed(self, item) -> list:
        """item ("," item)*"""
        out = [item()]
        while self.at(","):
            self.next()
            out.append(item())
        return out

    def signature(self):
        """NAME "(" [NAME ":" ty] ")" "->" ty, as (name, param, result)."""
        name = self.name()
        self.eat("(")
        param = None if self.at(")") else self.var_decl()
        self.eat(")", "->")
        return name, param, self.ty()

    def var_decl(self):
        name = self.name()
        self.eat(":")
        return name, self.ty()

    def field_decl(self):
        fname = self.name()
        self.eat(":")
        w = self.ty(0, True)
        if isinstance(w, StructType):
            raise SrcParseError("struct-typed fields are not supported")
        if isinstance(w, ArrayType) and w.count is None:
            raise SrcParseError("array fields need a length")
        return (fname, w)

    # -- expressions: each returns (typed node, depth) --

    def block(self, level: int):
        """assign (";" assign)* at pos, `level` levels in: one TSeq of the
        items, or the one item."""
        if level > MAX_NESTING:
            raise SrcParseError(_TOO_DEEP)
        toks, env, pos = self.toks, self.env, self.pos
        items, block_depth = [], 0
        # Waiting left sides, innermost last: (node, depth, binary operator,
        # its precedence) or (target, depth, ":=", -1).
        stack = []
        while True:
            stars = 0
            while toks[pos] == "*":
                pos, stars = pos + 1, stars + 1
            atom_level = level + len(stack) + stars
            if atom_level > MAX_NESTING:
                raise SrcParseError(_TOO_DEEP)
            t = toks[pos]
            e = env.get(t)
            if e is not None:
                depth, pos = 0, pos + 1
            elif t.isdecimal():
                e, depth, pos = TNum(_number(t), INT), 0, pos + 1
            elif t == "(":
                self.pos = pos + 1
                e, depth = self.block(atom_level + 1)
                pos = self.pos + 1
                if toks[pos - 1] != ")":
                    raise SrcParseError(f"expected ')', got {toks[pos - 1]!r}")
                if depth >= MAX_NESTING:
                    raise SrcParseError(_TOO_DEEP)
                depth += 1
            else:
                self.pos = pos
                e, depth = self.atom(t, atom_level)
                pos = self.pos
            while toks[pos] == ".":
                self.pos = pos + 1
                fname = self.name()
                pos += 2
                if depth >= MAX_NESTING:
                    raise SrcParseError(_TOO_DEEP)
                depth += 1
                ty = e.ty
                if not (isinstance(ty, PtrType) and isinstance(ty.wtype, StructType)):
                    raise SrcTypeError(f"field access needs a struct pointer, got {ty}")
                sname = ty.wtype.name
                if sname not in self.mod.structs:
                    raise SrcTypeError(f"unknown struct {sname}")
                f = self.mod.layout.field(sname, fname)
                e = TField(e, fname, sname, f.cell, f.type, PtrType(f.type))
            while stars:
                stars -= 1
                if depth >= MAX_NESTING:
                    raise SrcParseError(_TOO_DEEP)
                depth += 1
                ty = e.ty
                if ty is INT:  # an int used as a pointer: an int-typed forged access
                    ty = PtrType(INT)
                    e = TIntAsPtr(e, ty)
                e = TDeref(e, _deref_elem(ty))
            # Fold what binds at least as tightly as the next token: an
            # operator binds by its precedence, ":=" at 0 and the rest at -1.
            t = toks[pos]
            prec = _BINARY.get(t, 0 if t == ":=" else -1)
            while stack and stack[-1][3] >= prec:
                a, d, op, p = stack.pop()
                if d > depth:
                    depth = d
                if depth >= MAX_NESTING:
                    raise SrcParseError(_TOO_DEEP)
                depth += 1
                aty, bty = a.ty, e.ty
                if p < 0:
                    e = _coerce(e, bty, aty)
                    e = (TAssignVar(a.name, e, INT, a.slot) if type(a) is TVar
                         else TAssignPtr(a.e, e, aty, INT))
                elif aty is INT and bty is INT:
                    e = TBinOp(op, a, e, INT)
                elif op == "+" and isinstance(aty, PtrType) and isinstance(aty.wtype, ArrayType):
                    e = TBinOp("+", a, _coerce(e, bty, INT), aty, elem=aty.wtype.elem)
                else:
                    raise SrcTypeError(f"binop {op} needs ints, got {aty}, {bty}")
            pos += 1  # past the operator, ":=", ";" or the token that ends the block
            if prec > 0:
                stack.append((e, depth, t, prec))
            elif prec == 0:
                if type(e) is not TVar and type(e) is not TDeref:
                    raise SrcParseError("assignment needs a variable or deref target")
                stack.append((e, depth, t, -1))
            else:
                items.append(e)
                if depth > block_depth:
                    block_depth = depth
                if t != ";":
                    break
        self.pos = pos - 1
        return (e if len(items) == 1 else TSeq(items, e.ty)), block_depth

    def enclosed(self, open_: str, close: str, level: int):
        """open_ block close, the block one level in: (node, its depth + 1)."""
        self.eat(open_)
        e, depth = self.block(level + 1)
        self.eat(close)
        if depth >= MAX_NESTING:
            raise SrcParseError(_TOO_DEEP)
        return e, depth + 1

    def atom(self, t: str, level: int):
        """The atom t at pos, `level` levels in, other than those block() reads."""
        if t[:1] in _NAME_START and t not in _KEYWORDS:
            raise SrcTypeError(f"unbound variable {t}")
        self.pos += 1
        if t == "malloc":
            if self.at("<"):
                self.next()
                elem = self.ty(level)
                self.eat(">")
                count, depth = self.enclosed("(", ")", level)
                if not isinstance(count.ty, IntType):
                    raise SrcTypeError("array length must be an int")
                return TMallocArray(elem, count, PtrType(ArrayType(None, elem))), depth
            self.eat("(")
            w = self.ty(level, True)
            self.eat(")")
            if isinstance(w, ArrayType):
                raise SrcParseError("single malloc cannot take an array type")
            if isinstance(w, StructType) and w.name not in self.mod.structs:
                raise SrcTypeError(f"unknown struct {w.name}")
            return TMallocSingle(w, PtrType(w)), 0
        if t == "free":
            e, depth = self.enclosed("(", ")", level)
            if isinstance(e.ty, IntType):
                e = _coerce(e, e.ty, PtrType(INT))
            return TFree(e, INT), depth
        if t == "let":
            x = self.name()
            self.eat("=")
            fname = self.name()
            if fname not in self.sigs:
                raise SrcTypeError(f"unknown function {fname}")
            pty, rty = self.sigs[fname]
            self.eat("(")
            if (pty is None) != self.at(")"):
                raise SrcTypeError(f"arity mismatch calling {fname}")
            arg, depth = None, 0
            if pty is not None:
                arg, depth = self.block(level + 1)
                arg = _coerce(arg, arg.ty, pty)
            self.eat(")", "in")
            env, slot = self.env, self.n_slots
            self.env = {**env, x: TVar(x, rty, slot)}
            self.n_slots += 1
            body, d = self.block(level + 1)
            self.env = env
            depth = max(depth, d)
            if depth >= MAX_NESTING:
                raise SrcParseError(_TOO_DEEP)
            return (TLetCall(x, fname, self.indices[fname], arg, body, rty, body.ty, slot),
                    depth + 1)
        if t == "if":
            c, depth = self.block(level + 1)
            if not isinstance(c.ty, IntType):
                raise SrcTypeError("condition must be an int")
            then, dt = self.enclosed("{", "}", level)
            self.eat("else")
            else_, de = self.enclosed("{", "}", level)
            if depth >= MAX_NESTING:
                raise SrcParseError(_TOO_DEEP)
            depth = max(depth + 1, dt, de)
            tty, fty = then.ty, else_.ty
            if types_compatible(tty, fty):
                ty = tty
            elif isinstance(tty, IntType) and isinstance(fty, PtrType):
                then, ty = _coerce(then, tty, fty), fty
            elif isinstance(fty, IntType) and isinstance(tty, PtrType):
                else_, ty = _coerce(else_, fty, tty), tty
            else:
                raise SrcTypeError(f"branch types differ: {tty} vs {fty}")
            return TIf(c, then, else_, ty), depth
        raise SrcParseError(f"expected expression, got {t!r}")


def parse_source(text: str) -> TypedModule:
    """The typed module of a source text; SrcParseError or SrcTypeError
    for the first error, in the order the module docstring gives."""
    return _SrcParser(text).module()


# ---------------------------------------------------------------------------
# Typed AST: every node carries its type; implicit int-to-pointer uses
# become explicit coercion nodes so the compiler can see them.  Variable
# nodes carry the frame slot the parser resolved: the parameter's is 0,
# the declared locals' follow, and each let binds a fresh one, the next in
# text order.  It is the compiled local index and src_run's frame index.


@dataclass
class TNum:
    n: int
    ty: object


@dataclass
class TVar:
    name: str
    ty: object
    slot: int  # the variable's frame slot


@dataclass
class TSeq:
    items: list  # two or more, evaluated in order; the last gives the value
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
    slot: int  # the assigned variable's frame slot


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
    slot: int  # the frame slot that x binds, which holds the call's result


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
    n_lets: int  # TLetCall nodes in body: the let slots, after the declared ones


@dataclass
class TypedModule:
    mod: SrcModule
    fns: list[TypedFn]  # main first


def _coerce(e_typed, actual, expected):
    """Accept ints where pointers are expected (and nothing else)."""
    if actual is expected or types_compatible(actual, expected):
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


def src_typecheck(tm: TypedModule) -> TypedModule:
    """tm itself: parse_source already types the module.  It stays only
    because the benchmark (chainbench/bench.py) imports it."""
    return tm


# ---------------------------------------------------------------------------
# Runtime values and events


class SInt(NamedTuple):
    n: int


class SPtr(NamedTuple):
    addr: int
    base: int
    length: int       # element count of the region the pointer refers to
    wtype: object     # element word type
    id: int


SrcValue = object  # SInt or SPtr; field 0 is the int or the address

# _new(SInt, (n,)) is SInt(n) without NamedTuple's Python-level __new__;
# the interpreter builds a value on most ops.
_new = tuple.__new__
_ZERO = SInt(0)


# Trace events, built on the hot paths with _new(cls, fields); equality
# also compares the class, as for the monitor's events.
class SrcAlloc(NamedTuple):
    ptr: SPtr
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


class SrcFree(NamedTuple):
    v: SrcValue  # SPtr, or SInt for a forged free
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


class SrcRead(NamedTuple):
    ty: object
    v: SrcValue  # the accessing pointer; SInt marks a forged access
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


class SrcWrite(NamedTuple):
    ty: object
    v: SrcValue
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


class SrcHostError(Exception):
    """Raw access outside the heap: a host-level fault, not a memory-safety
    verdict."""


# ---------------------------------------------------------------------------
# Interpreter: each function's typed body becomes flat code at its first
# call, and one loop runs the code with an explicit frame stack, so source
# recursion depth is not limited by the Python stack.

# The most cells the heap may hold, declared or grown by malloc.  The
# compiled program's default 64 KiB of segment memory holds 16,384 ints,
# so the cap changes no verdict of a program that fits there; past it a
# run ends in "hosterror" before anything is allocated.
MAX_HEAP_CELLS = 1 << 20


@dataclass
class SrcRunResult:
    trace: list
    outcome: str          # "ok" | "trap" | "budget" | "hosterror"
    result: SrcValue | None
    heap: list


# Flat code is one list of ops in postfix order, each a tuple with its
# opcode first.  A value-less item of a block still pushes a zero, which
# the _DROP after it pops.  Jumps only go forward, so a call runs each op
# of its function's code at most once.  The opcodes are numbered in the
# order src_run tests them, the most frequent first.  A binary operator is
# one _BIN op, which carries the i32 function it runs on ints.
(_VAR, _LIT, _BIN, _DROP, _FIELD, _READ, _WRITE, _SET, _JZ, _JMP, _CALL, _RET,
 _FREE, _NEW, _NEWARR) = range(15)

# Work items of the code walk that are not nodes: tuples with a negative
# first element.  (_HOLE, fix) leaves room for a jump and appends its
# position to fix; (_LABEL, fix, i, opcode) fills hole fix[i] with a jump
# to here.
_HOLE, _LABEL = -1, -2


def _flat_code(mod: SrcModule, fn: TypedFn) -> tuple[list, int]:
    """fn's body as flat code ending in _RET, and its frame size: a slot
    for the parameter, each local, and each let, as the parser numbered
    them.  One walk with a work stack: the children of a node go on it in
    reverse, with the op that follows them below."""
    code: list = []
    work: list = [fn.body]
    while work:
        w = work.pop()
        t = type(w)
        if t is tuple:
            k = w[0]
            if k >= 0:
                code.append(w)
            elif k == _HOLE:
                w[1].append(len(code))
                code.append(None)
            else:
                _, fix, i, opcode = w
                code[fix[i]] = (opcode, len(code))
        elif t is TVar:
            code.append((_VAR, w.slot))
        elif t is TNum:
            code.append((_LIT, SInt(w.n)))
        elif t is TSeq:
            items = w.items
            for item in items[:0:-1]:
                work += (item, (_DROP,))
            work.append(items[0])
        elif t is TBinOp:
            work += ((_BIN, BINOPS["i32"][I32_OPERATORS[w.op]]), w.b, w.a)
        elif t is TAssignVar:
            work += ((_SET, w.slot), w.e)
        elif t is TAssignPtr:
            work += ((_WRITE, w.value_ty), w.e, w.target)
        elif t is TDeref:
            work += ((_READ, w.ty), w.e)
        elif t is TField:
            fty = w.fty
            length, wtype = (fty.count, fty.elem) if isinstance(fty, ArrayType) else (1, fty)
            work += ((_FIELD, w.cell_off, length, wtype), w.e)
        elif t is TIf:
            fix: list = []  # positions of the branch's two jumps
            work += ((_LABEL, fix, 1, _JMP), w.f, (_LABEL, fix, 0, _JZ), (_HOLE, fix),
                     w.t, (_HOLE, fix), w.c)
        elif t is TMallocArray:
            work += ((_NEWARR, w.elem), w.count)
        elif t is TMallocSingle:
            code.append((_NEW, mod.layout.cells(w.wtype), w.wtype))
        elif t is TFree:
            work += ((_FREE,), w.e)
        elif t is TLetCall:
            work += (w.body, (_CALL, w.fn_index, w.arg is not None, w.slot))
            if w.arg is not None:
                work.append(w.arg)
        elif t is TIntAsPtr:
            work.append(w.e)
        else:
            raise AssertionError(f"cannot compile {w!r}")
    code.append((_RET,))
    return code, (fn.param is not None) + len(fn.locals) + fn.n_lets


def src_run(tm: TypedModule, budget: int = 1_000_000) -> SrcRunResult:
    """Run main to completion, collecting the memory-event trace.

    Each function's body becomes flat code at its first call (see
    _flat_code).  One budget step is one op of that code.  A call, and
    the start of main, charges the callee's whole code at once, as one
    call runs each op at most once; a call past the budget ends the run
    in "budget" before it starts.  An operator on ints is the compiled
    code's: it runs interp's function for the i32 operator that
    I32_OPERATORS names, so +, -, * and / wrap to i32, and a division by
    zero or of int_min by -1 raises that function's MemTrap, which ends
    the run in "trap".  The run ends in "hosterror" at an access outside
    the heap (after its event), and at a heap of more than MAX_HEAP_CELLS
    cells, declared or grown by malloc, before anything is allocated.
    """
    if tm.mod.imports:
        raise SrcHostError("module has imports; cannot run")
    mod = tm.mod
    trace: list = []
    if mod.heap_size > MAX_HEAP_CELLS:
        return SrcRunResult(trace, "hosterror", None, [])
    heap: list = [_ZERO] * mod.heap_size
    # First fit over the free cells (segmem.take with alignment 1); when
    # nothing fits, the heap grows at its end.  by_base lists the cell
    # counts of the live allocations at each base, oldest first:
    # allocations of zero cells can share a base.
    free = [(0, mod.heap_size)] if mod.heap_size > 0 else []
    by_base: dict[int, list[int]] = {}
    next_id = 0

    def do_alloc(ncells: int, length: int, wtype) -> SPtr:
        nonlocal next_id
        seg_id = next_id
        next_id += 1
        if ncells < 0:
            # The allocator drops impossible requests; the pointer still
            # materializes, annotated with the bogus length.
            return _new(SPtr, (len(heap), len(heap), length, wtype, seg_id))
        base = take(free, ncells, 1)
        if base is None:
            base = len(heap)
            if base + ncells > MAX_HEAP_CELLS:
                raise SrcHostError(f"heap of {base + ncells} cells, "
                                   f"past the cap of {MAX_HEAP_CELLS}")
            heap.extend([_ZERO] * ncells)
        else:
            heap[base:base + ncells] = [_ZERO] * ncells
        by_base.setdefault(base, []).append(ncells)
        return _new(SPtr, (base, base, length, wtype, seg_id))

    def do_free(addr: int) -> None:
        # Address-keyed and annotation-blind; invalid requests are dropped.
        sizes = by_base.get(addr)
        if sizes is None:
            return
        n = sizes.pop(0)
        if not sizes:
            del by_base[addr]
        heap[addr:addr + n] = [_ZERO] * n
        give(free, addr, n)

    fns = tm.fns  # main first; a let's fn_index is its position here
    codes: list = [None] * len(fns)  # (flat code, frame size), at first call
    code, n_slots = codes[0] = _flat_code(mod, fns[0])
    steps = len(code)
    if steps > budget:
        return SrcRunResult(trace, "budget", None, heap)
    env = [_ZERO] * n_slots
    frames: list = []  # (code, pc, env, result slot) of each caller
    vals: list = []
    push, pop, emit = vals.append, vals.pop, trace.append
    pc = 0
    try:
        while True:
            op = code[pc]
            pc += 1
            k = op[0]
            if k == _VAR:
                push(env[op[1]])
            elif k == _LIT:
                push(op[1])
            elif k == _BIN:
                b = pop()
                a = pop()
                if type(a) is SPtr:
                    # Arithmetic moves the address, never the metadata.
                    push(_new(SPtr, (a[0] + b[0], a[1], a[2], a[3], a[4])))
                else:
                    push(_new(SInt, (op[1](a[0], b[0]),)))
            elif k == _DROP:
                pop()
            elif k == _FIELD:
                v = pop()
                a = v[0] + op[1]
                if type(v) is SInt:
                    # Field offset on a forged pointer: still just arithmetic.
                    push(_new(SInt, (a,)))
                else:
                    push(_new(SPtr, (a, a, op[2], op[3], v[4])))
            elif k == _READ:
                v = pop()
                emit(_new(SrcRead, (op[1], v)))
                a = v[0]
                if not 0 <= a < len(heap):
                    raise SrcHostError(f"read at {a} outside heap of {len(heap)}")
                push(heap[a])
            elif k == _WRITE:
                v = pop()
                target = pop()
                emit(_new(SrcWrite, (op[1], target)))
                a = target[0]
                if not 0 <= a < len(heap):
                    raise SrcHostError(f"write at {a} outside heap of {len(heap)}")
                heap[a] = v
                push(_ZERO)
            elif k == _SET:
                env[op[1]] = pop()
                push(_ZERO)
            elif k == _JZ:
                if pop()[0] == 0:
                    pc = op[1]
            elif k == _JMP:
                pc = op[1]
            elif k == _CALL:
                callee = codes[op[1]]
                if callee is None:
                    callee = codes[op[1]] = _flat_code(mod, fns[op[1]])
                steps += len(callee[0])
                if steps > budget:
                    return SrcRunResult(trace, "budget", None, heap)
                cenv = [_ZERO] * callee[1]
                if op[2]:
                    cenv[0] = pop()
                frames.append((code, pc, env, op[3]))
                code, pc, env = callee[0], 0, cenv
            elif k == _RET:
                if not frames:
                    break
                v = pop()
                code, pc, env, slot = frames.pop()
                env[slot] = v
            elif k == _FREE:
                v = pop()
                emit(_new(SrcFree, (v,)))
                do_free(v[0])
                push(_ZERO)
            elif k == _NEW:
                ptr = do_alloc(op[1], 1, op[2])
                emit(_new(SrcAlloc, (ptr,)))
                push(ptr)
            else:
                count = pop()[0]
                ptr = do_alloc(count, count, op[1])
                emit(_new(SrcAlloc, (ptr,)))
                push(ptr)
    except MemTrap:
        return SrcRunResult(trace, "trap", None, heap)
    except SrcHostError:
        return SrcRunResult(trace, "hosterror", None, heap)
    return SrcRunResult(trace, "ok", vals[-1], heap)


# ---------------------------------------------------------------------------
# Source-side memory safety: relate the trace to monitor events.


def src_relate(mod: SrcModule, trace: list, step):
    """Pass the abstract image of a source trace to step, one abstract
    event per source event, and return SAFE, or Violation(kind, i, i) at
    the first event i that is forged, has no image, or whose image step
    rejects: kind is one of the six reasons below, or the violation kind
    step returns (None accepts an event).  Pointers resolve through one
    record per allocation id, as handles do in tracerel."""
    delta, layout = BijectionDelta(), mod.layout
    for i, ev in enumerate(trace):
        if isinstance(ev, SrcAlloc):
            ptr = ev.ptr
            if ptr.length < 0:
                return Violation("allocation with negative length", i, i)
            ncells = ptr.length * layout.cells(ptr.wtype)
            shades = layout.shades(ptr.wtype) if ncells else ()
            color = delta.bind_segment(ptr.id, ptr.base, ncells, shades)
            kind = step(AAlloc(ncells, ptr.base, color, shades))
        elif isinstance(ev, (SrcRead, SrcWrite)):
            if isinstance(ev.v, SInt):
                return Violation("access through a raw integer", i, i)
            ptr = ev.v
            image = delta.resolve(ptr.id, ptr.base)
            if image is None:
                return Violation("pointer with unknown provenance", i, i)
            cls = ARead if isinstance(ev, SrcRead) else AWrite
            kind = step(cls(ptr.addr, *image))
        elif isinstance(ev, SrcFree):
            if isinstance(ev.v, SInt):
                return Violation("free of a raw integer", i, i)
            ptr = ev.v
            if ptr.addr != ptr.base:
                return Violation("free not at allocation start", i, i)
            image = delta.resolve(ptr.id, ptr.base)
            if image is None:
                return Violation("free with unknown provenance", i, i)
            kind = step(AFree(ptr.base, image[0]))
        else:
            raise TypeError(f"not a source event: {ev!r}")
        if kind is not None:
            return Violation(kind, i, i)
    return SAFE


def src_ms(mod: SrcModule, trace: list):
    """SAFE, or the Violation at the first memory violation (a forged event,
    or the first event the monitor rejects)."""
    return src_relate(mod, trace, partial(monitor_step, ShadowMemory()))
