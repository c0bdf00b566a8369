"""Module structure, instruction set, and the s-expression text format.

A module is a list of functions plus import signatures and declared sizes
for the two memories (flat heap and segment memory).  The text format is
s-expression based and round-trips: parse(print(m)) == m.

`if` bodies nest at most MAX_NESTING deep: parse_module raises ParseError
past it, and typecheck_module TypeError_ for modules built through the
API, so later walks of a body recurse a bounded number of times.  Source
programs (minic) have the same bound, so their compiled code is within it.
"""

from __future__ import annotations

import enum
import itertools
import re
import struct
from dataclasses import dataclass


class ValueType(enum.Enum):
    I32 = "i32"
    I64 = "i64"
    F32 = "f32"
    F64 = "f64"
    HANDLE = "handle"

    def __str__(self) -> str:
        return self.value


# Byte widths; HANDLE is a packed 16-byte record (see segmem).
SIZEOF = {
    ValueType.I32: 4,
    ValueType.I64: 8,
    ValueType.F32: 4,
    ValueType.F64: 8,
    ValueType.HANDLE: 16,
}

INT_OPS = ("add", "sub", "mul", "div_s", "and", "or", "xor", "eq", "lt_s")
FLOAT_OPS = ("add", "sub", "mul", "div", "eq", "lt")
# Operators whose result is an i32 truth value regardless of operand type.
COMPARISON_OPS = ("eq", "lt_s", "lt")

# How deep `if` bodies may nest here, and how deep a source program may
# nest (minic); each level costs a handful of Python frames per walk.
MAX_NESTING = 100


@dataclass(frozen=True)
class Instr:
    """One instruction: an opcode plus its immediates.

    Immediate layout per opcode:
      const    -> ty, literal (int or float)
      binop    -> ty, op (operator name)
      get/set  -> idx
      load/store/segload/segstore -> ty
      if       -> then_body, else_body (tuples of Instr)
      call     -> idx
      nop/trap/return/slice/new_segment/handle_add/segfree -> no immediates
    """

    op: str
    ty: ValueType | None = None
    literal: int | float | None = None
    operator: str | None = None
    idx: int | None = None
    then_body: tuple["Instr", ...] = ()
    else_body: tuple["Instr", ...] = ()


OPCODES = (
    "nop", "trap", "const", "binop", "get", "set", "load", "store",
    "if", "call", "return", "segload", "segstore", "slice",
    "new_segment", "handle_add", "segfree",
)


def nop() -> Instr:
    return Instr("nop")


def trap() -> Instr:
    return Instr("trap")


def const(ty: ValueType, literal: int | float) -> Instr:
    return Instr("const", ty=ty, literal=literal)


def binop(ty: ValueType, operator: str) -> Instr:
    return Instr("binop", ty=ty, operator=operator)


def get(idx: int) -> Instr:
    return Instr("get", idx=idx)


def set_(idx: int) -> Instr:
    return Instr("set", idx=idx)


def load(ty: ValueType) -> Instr:
    return Instr("load", ty=ty)


def store(ty: ValueType) -> Instr:
    return Instr("store", ty=ty)


def if_(then_body, else_body=()) -> Instr:
    return Instr("if", then_body=tuple(then_body), else_body=tuple(else_body))


def call(idx: int) -> Instr:
    return Instr("call", idx=idx)


def return_() -> Instr:
    return Instr("return")


def segload(ty: ValueType) -> Instr:
    return Instr("segload", ty=ty)


def segstore(ty: ValueType) -> Instr:
    return Instr("segstore", ty=ty)


def slice_() -> Instr:
    return Instr("slice")


def new_segment() -> Instr:
    return Instr("new_segment")


def handle_add() -> Instr:
    return Instr("handle_add")


def segfree() -> Instr:
    return Instr("segfree")


@dataclass(frozen=True)
class FuncType:
    params: tuple[ValueType, ...]
    results: tuple[ValueType, ...]

    def __str__(self) -> str:
        ps = " ".join(str(t) for t in self.params)
        rs = " ".join(str(t) for t in self.results)
        return f"[{ps}] -> [{rs}]"


@dataclass(frozen=True)
class FuncDef:
    params: tuple[ValueType, ...]
    locals: tuple[ValueType, ...]
    results: tuple[ValueType, ...]
    body: tuple[Instr, ...]

    @property
    def type(self) -> FuncType:
        return FuncType(self.params, self.results)


@dataclass(frozen=True)
class ModuleDef:
    funcs: tuple[FuncDef, ...]
    imports: tuple[FuncType, ...] = ()
    heap_size: int = 0
    segment_size: int = 0


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Parsing


_TYPE_NAMES = {t.value: t for t in ValueType}

_MEMORY_OPS = ("load", "store", "segload", "segstore")

# Every word that takes no immediate, and the one Instr it spells.
_WORDS = {
    "nop": nop(), "trap": trap(), "return": return_(), "slice": slice_(),
    "new_segment": new_segment(), "handle.add": handle_add(), "segfree": segfree(),
    **{f"{t.value}.{op}": Instr(op, ty=t) for t in ValueType for op in _MEMORY_OPS},
    **{f"{t.value}.{op}": binop(t, op) for t in ValueType if t is not ValueType.HANDLE
       for op in (FLOAT_OPS if t in (ValueType.F32, ValueType.F64) else INT_OPS)},
}

# Words that take one immediate: an index, or a literal.
_IMMEDIATE = frozenset(["get", "set", "call"] + [f"{t.value}.const" for t in ValueType])

# One match per token: whitespace and `;` comments are skipped in front of
# it, and the last match (or two) is the empty string at the end.
_TOKEN_RE = re.compile(r"(?:[ \t\r\n]+|;[^\n]*)*([()]|[^ \t\r\n();]+|\Z)")


def _parse_literal(ty: ValueType, text: str) -> int | float:
    """Raises ValueError on a malformed literal or an integer one outside
    Wasm's range for its type, OverflowError on an f32 one out of range.
    An i32 literal in [-2^31, 2^32) (i64: [-2^63, 2^64)) is read as Wasm
    reads it: the unsigned half wraps to the negative values."""
    if ty is ValueType.F32:
        return struct.unpack("<f", struct.pack("<f", float(text)))[0]
    if ty is ValueType.F64:
        return float(text)
    n, bits = int(text), SIZEOF[ty] * 8
    if not -(1 << bits - 1) <= n < 1 << bits:
        raise ValueError(text)
    return n - (1 << bits) if n >= 1 << bits - 1 else n


class _Parser:
    """Recursive descent over the token strings of one text.

    `instrs` maps each (word, immediate text) to the one Instr it spells,
    so a module shares its repeated instructions, as it shares those of
    _WORDS.  It lives as long as one parse_module call."""

    def __init__(self, text: str):
        self.text = text
        # Where both skip the same characters, str.split() finds _TOKEN_RE's tokens.
        if text.isascii() and not any(c in text for c in ";\x0b\x0c\x1c\x1d\x1e\x1f"):
            self.toks = text.replace("(", " ( ").replace(")", " ) ").split() + [""]
        else:
            self.toks = _TOKEN_RE.findall(text)
        self.pos = 0
        self.instrs: dict = {}

    def error(self, msg: str, i: int | None = None) -> ParseError:
        """A ParseError at token i (default: the current one).  Line and
        column are counted from the token's offset here, and only here."""
        i = self.pos if i is None else i
        if self.toks[i] == "":  # the end: blame the last token
            msg, i = "unexpected end of input", i - 1
        if i < 0:
            return ParseError(msg, 1, 1)
        off = next(itertools.islice(_TOKEN_RE.finditer(self.text), i, None)).start(1)
        return ParseError(msg, self.text.count("\n", 0, off) + 1,
                          off - self.text.rfind("\n", 0, off))

    def expect(self, want: str) -> None:
        t = self.toks[self.pos]
        if t != want:
            raise self.error(f"expected {want!r}, got {t!r}")
        self.pos += 1

    def atom(self) -> str:
        t = self.toks[self.pos]
        if t in ("(", ")", ""):
            raise self.error(f"expected 'atom', got {t!r}")
        self.pos += 1
        return t

    def at_open(self, head: str) -> bool:
        return self.toks[self.pos] == "(" and self.toks[self.pos + 1] == head

    def integer(self) -> int:
        text = self.atom()
        try:
            return int(text)
        except ValueError:
            raise self.error(f"expected integer, got {text!r}", self.pos - 1)

    def sized(self, head: str) -> int:
        """An optional (head N); 0 when absent."""
        if not self.at_open(head):
            return 0
        self.pos += 2
        n = self.integer()
        self.expect(")")
        return n

    def types(self, head: str) -> tuple[ValueType, ...]:
        """Zero or more (head ty*) groups, concatenated."""
        out: list[ValueType] = []
        while self.at_open(head):
            self.pos += 2
            while self.toks[self.pos] not in ("(", ")", ""):
                ty = _TYPE_NAMES.get(self.toks[self.pos])
                if ty is None:
                    raise self.error(f"unknown value type {self.toks[self.pos]!r}")
                out.append(ty)
                self.pos += 1
            self.expect(")")
        return tuple(out)

    def body(self, depth: int) -> tuple[Instr, ...]:
        """Instructions up to a `)`, the end, or a form other than `(if`;
        depth counts the enclosing ifs."""
        toks, instrs = self.toks, self.instrs
        out = []
        while True:
            t = toks[self.pos]
            ins = _WORDS.get(t)
            if ins is None:
                ins = instrs.get((t, toks[self.pos + 1])) if t in _IMMEDIATE else None
                if ins is not None:
                    self.pos += 2
                elif t == "(":
                    if toks[self.pos + 1] != "if":
                        break
                    ins = self.if_form(depth)
                elif t == ")" or t == "":
                    break
                else:
                    ins = self.instr(t)
            else:
                self.pos += 1
            out.append(ins)
        return tuple(out)

    def if_form(self, depth: int) -> Instr:
        if depth >= MAX_NESTING:
            raise self.error(f"if nested deeper than {MAX_NESTING}")
        self.pos += 2
        self.expect("(")
        self.expect("then")
        then_body = self.body(depth + 1)
        self.expect(")")
        else_body: tuple[Instr, ...] = ()
        if self.at_open("else"):
            self.pos += 2
            else_body = self.body(depth + 1)
            self.expect(")")
        self.expect(")")
        return Instr("if", then_body=then_body, else_body=else_body)

    def instr(self, word: str) -> Instr:
        """The instruction with an immediate spelled from the current
        token on, remembered in `instrs`; any other word is an error."""
        at = self.pos
        self.pos += 1
        if word in ("get", "set", "call"):
            key = (word, self.toks[self.pos])
            ins = self.instrs[key] = Instr(word, idx=self.integer())
            return ins
        ty_name, _, op = word.partition(".")
        ty = _TYPE_NAMES.get(ty_name)
        if op == "const" and ty is not None:
            if ty is ValueType.HANDLE:
                raise self.error("no handle literals", at)
            text = self.atom()
            try:
                ins = self.instrs[word, text] = const(ty, _parse_literal(ty, text))
            except (ValueError, OverflowError):
                kind = "float" if ty in (ValueType.F32, ValueType.F64) else "integer"
                raise self.error(f"bad {kind} literal {text!r}", self.pos - 1)
            return ins
        raise self.error(f"unknown instruction {word!r}", at)

    def func(self, head: str) -> FuncDef | FuncType:
        """(func ...) or, with no locals and body, (import ...)."""
        self.expect("(")
        self.expect(head)
        params = self.types("param")
        locals_ = self.types("local") if head == "func" else ()
        results = self.types("result")
        body = self.body(0) if head == "func" else ()
        self.expect(")")
        if head == "import":
            return FuncType(params, results)
        return FuncDef(params, locals_, results, body)


def parse_module(text: str) -> ModuleDef:
    """Parse the text format; raises ParseError on text it cannot read.

    A `get`, `set` or `call` index out of range is read as written: the
    module is well formed but invalid, and typecheck_module reports the
    index as `bad-index`, unless it follows an unconditional trap or
    return, where code is neither typed nor run."""
    p = _Parser(text)
    p.expect("(")
    p.expect("module")
    segment_size = p.sized("segment")
    heap_size = p.sized("heap")
    imports = []
    while p.at_open("import"):
        imports.append(p.func("import"))
    funcs = []
    while p.at_open("func"):
        funcs.append(p.func("func"))
    p.expect(")")
    extra = p.toks[p.pos]
    if extra != "":
        raise p.error(f"trailing input {extra!r}")
    return ModuleDef(tuple(funcs), tuple(imports), heap_size, segment_size)


# ---------------------------------------------------------------------------
# Printing


def _format_literal(ty: ValueType, lit) -> str:
    if ty in (ValueType.F32, ValueType.F64):
        return repr(float(lit))
    return str(int(lit))


def _instr_text(ins: Instr) -> str:
    op = ins.op
    if op == "get" or op == "set" or op == "call":
        return f"{op} {ins.idx}"
    if op == "const":
        return f"{ins.ty.value}.const {_format_literal(ins.ty, ins.literal)}"
    if op == "binop":
        return f"{ins.ty.value}.{ins.operator}"
    if op in _MEMORY_OPS:
        return f"{ins.ty.value}.{op}"
    return "handle.add" if op == "handle_add" else op


def _print_body(body: tuple[Instr, ...], indent: int, out: list[str],
                texts: dict[int, str]) -> None:
    """texts maps id(instr) to its line, for instructions a body shares."""
    pad = "  " * indent
    for ins in body:
        if ins.op == "if":
            out.append(f"{pad}(if")
            out.append(f"{pad}  (then")
            _print_body(ins.then_body, indent + 2, out, texts)
            out.append(f"{pad}  )")
            out.append(f"{pad}  (else")
            _print_body(ins.else_body, indent + 2, out, texts)
            out.append(f"{pad}  )")
            out.append(f"{pad})")
            continue
        text = texts.get(id(ins))
        if text is None:
            text = texts[id(ins)] = _instr_text(ins)
        out.append(pad + text)


def _types(head: str, types: tuple[ValueType, ...]) -> list[str]:
    return [f"({head} {' '.join(t.value for t in types)})"] if types else []


def print_module(m: ModuleDef) -> str:
    """Canonical text form; parse_module(print_module(m)) == m."""
    texts: dict[int, str] = {}
    out = ["(module"]
    out.append(f"  (segment {m.segment_size})")
    out.append(f"  (heap {m.heap_size})")
    for imp in m.imports:
        parts = ["  (import", *_types("param", imp.params), *_types("result", imp.results)]
        out.append(" ".join(parts) + ")")
    for f in m.funcs:
        out.append(" ".join(["  (func", *_types("param", f.params),
                             *_types("local", f.locals), *_types("result", f.results)]))
        _print_body(f.body, 2, out, texts)
        out.append("  )")
    out.append(")")
    return "\n".join(out) + "\n"
