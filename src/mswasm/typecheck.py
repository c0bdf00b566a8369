"""Stack typing for instructions, functions, and whole modules.

Stack types are lists of ValueType with the top of stack LAST.  Code after
an unconditional `trap` or `return` is unreachable and accepted without
typing.  The one non-standard restriction: flat-heap load/store may not
move handle-typed values, so handles can never be forged from raw bytes.
`if` bodies, reachable or not, may nest at most MAX_NESTING deep, as in
the text format, so a module built through the API is held to the same
bound and every later walk of it recurses a bounded number of times.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .bytecode import (
    COMPARISON_OPS,
    FLOAT_OPS,
    INT_OPS,
    MAX_NESTING,
    FuncDef,
    FuncType,
    Instr,
    ModuleDef,
    ValueType,
)

StackType = list[ValueType]

# Sentinel result of typing code that ends in trap/return: anything goes after.
UNREACHABLE = None

# Integer literals are signed values: -half <= n < half.  Keyed by the
# type's name, whose hash is cached, where an Enum member's is computed.
_INT_HALF = {"i32": 1 << 31, "i64": 1 << 63}
_F32 = struct.Struct("<f")


def _is_f32(x: float) -> bool:
    """x is an f32 value: NaN, an infinity, or a float f32 holds exactly."""
    try:
        return math.isnan(x) or _F32.unpack(_F32.pack(x))[0] == x
    except OverflowError:
        return False


class TypeError_(Exception):
    def __init__(self, kind: str, msg: str):
        super().__init__(f"{kind}: {msg}")
        self.kind = kind


@dataclass
class TypingContext:
    locals: list[ValueType]            # params ++ declared locals
    functions: list[FuncType]          # imports ++ defined funcs
    results: tuple[ValueType, ...]     # current function's result types


def type_instr(ctx: TypingContext, ins: Instr) -> tuple[StackType, StackType]:
    """The arrow type (consumed, produced) of a single instruction.

    `if`, `trap` and `return` have no fixed arrow: type_body types them
    itself, and here they are a `bad-opcode` alike.
    """
    op = ins.op
    if op == "nop":
        return [], []
    if op == "const":
        ty, lit = ins.ty, ins.literal
        if ty is ValueType.HANDLE:
            raise TypeError_("const-of-handle", "no handle literals")
        half = _INT_HALF.get(ty._value_)
        if type(lit) is not (int if half else float):
            raise TypeError_("literal-type", f"{ty.value}.const {lit!r}")
        if half and not -half <= lit < half or ty is ValueType.F32 and not _is_f32(lit):
            raise TypeError_("literal-range", f"{ty.value}.const {lit!r}")
        return [], [ty]
    if op == "binop":
        ty = ins.ty
        if ty is ValueType.HANDLE:
            raise TypeError_("binop-on-handle", "arithmetic on handle values")
        if ins.operator not in (FLOAT_OPS if ty in (ValueType.F32, ValueType.F64) else INT_OPS):
            raise TypeError_("bad-operator", f"{ty}.{ins.operator}")
        return [ty, ty], [ValueType.I32 if ins.operator in COMPARISON_OPS else ty]
    if op == "get":
        if not (0 <= ins.idx < len(ctx.locals)):
            raise TypeError_("bad-index", f"get {ins.idx}")
        return [], [ctx.locals[ins.idx]]
    if op == "set":
        if not (0 <= ins.idx < len(ctx.locals)):
            raise TypeError_("bad-index", f"set {ins.idx}")
        return [ctx.locals[ins.idx]], []
    if op == "load":
        if ins.ty is ValueType.HANDLE:
            raise TypeError_("handle-forging-load", "handle.load from flat heap")
        return [ValueType.I32], [ins.ty]
    if op == "store":
        if ins.ty is ValueType.HANDLE:
            raise TypeError_("handle-forging-store", "handle.store to flat heap")
        return [ValueType.I32, ins.ty], []
    if op == "call":
        if not (0 <= ins.idx < len(ctx.functions)):
            raise TypeError_("bad-index", f"call {ins.idx}")
        ft = ctx.functions[ins.idx]
        return list(ft.params), list(ft.results)
    if op == "segload":
        return [ValueType.HANDLE], [ins.ty]
    if op == "segstore":
        return [ValueType.HANDLE, ins.ty], []
    if op == "slice":
        # handle at the bottom: compiled field access pushes the handle
        # first, then the base offset, then the bound reduction.
        return [ValueType.HANDLE, ValueType.I32, ValueType.I32], [ValueType.HANDLE]
    if op == "new_segment":
        return [ValueType.I32], [ValueType.HANDLE]
    if op == "handle_add":
        return [ValueType.HANDLE, ValueType.I32], [ValueType.HANDLE]
    if op == "segfree":
        return [ValueType.HANDLE], []
    raise TypeError_("bad-opcode", op)


def _apply(stack: StackType, consumes: StackType, produces: StackType) -> StackType:
    if len(stack) < len(consumes):
        raise TypeError_("stack-underflow", f"need {consumes}, have {stack}")
    if consumes:
        got = stack[-len(consumes):]
        if got != consumes:
            raise TypeError_("type-mismatch", f"need {consumes}, have {got}")
        stack = stack[:-len(consumes)]
    return stack + produces


def _bound_nesting(body, depth: int) -> None:
    """Raise unless every `if` in body, which sits inside `depth` ifs,
    nests at most MAX_NESTING deep."""
    for ins in body:
        if ins.op == "if":
            if depth >= MAX_NESTING:
                raise TypeError_("nesting", f"if nested deeper than {MAX_NESTING}")
            _bound_nesting(ins.then_body, depth + 1)
            _bound_nesting(ins.else_body, depth + 1)


def type_body(ctx: TypingContext, body, stack: StackType, depth: int = 0,
              arrows: dict | None = None):
    """Thread a stack type through an instruction sequence that sits
    inside `depth` ifs.  arrows maps id(ins) to the arrow of each
    instruction of ctx's function typed so far, so each is typed once.

    Returns the final stack, or UNREACHABLE when the sequence ended in
    trap/return (in which case trailing instructions were not typed, only
    their nesting bounded).
    """
    arrows = {} if arrows is None else arrows
    stack = list(stack)
    for i, ins in enumerate(body):
        arrow = arrows.get(id(ins))
        if arrow is None:
            op = ins.op
            if op == "trap":
                break
            if op == "return":
                _apply(stack, list(ctx.results), [])
                break
            if op == "if":
                if depth >= MAX_NESTING:
                    raise TypeError_("nesting", f"if nested deeper than {MAX_NESTING}")
                stack = _apply(stack, [ValueType.I32], [])
                then_out = type_body(ctx, ins.then_body, stack, depth + 1, arrows)
                else_out = type_body(ctx, ins.else_body, stack, depth + 1, arrows)
                if UNREACHABLE not in (then_out, else_out) and then_out != else_out:
                    raise TypeError_("if-arm-mismatch",
                                     f"then gives {then_out}, else gives {else_out}")
                stack = else_out if then_out is UNREACHABLE else then_out
                if stack is UNREACHABLE:
                    break
                continue
            arrow = arrows[id(ins)] = type_instr(ctx, ins)
        consumes, produces = arrow
        n = len(consumes)
        if n:
            if stack[-n:] != consumes:
                _apply(stack, consumes, produces)  # raises the underflow or mismatch
            del stack[-n:]
        stack += produces
    else:
        return stack
    _bound_nesting(body[i + 1:], depth)
    return UNREACHABLE


def typecheck_func(functions: list[FuncType], f: FuncDef) -> None:
    ctx = TypingContext(list(f.params) + list(f.locals), functions, f.results)
    out = type_body(ctx, f.body, [])
    if out is not UNREACHABLE and out != list(f.results):
        raise TypeError_("result-mismatch",
                         f"body gives {out}, declared {list(f.results)}")


def typecheck_module(m: ModuleDef) -> None:
    """Check every function, whatever its type: whether a module can run
    (an entry function 0 without parameters, no imports) is judged by
    interp.init_state.  Raises TypeError_ for an ill-typed module."""
    functions = m.func_types()
    errors = []
    for i, f in enumerate(m.funcs):
        try:
            typecheck_func(functions, f)
        except TypeError_ as e:
            errors.append(f"func {len(m.imports) + i}: {e}")
    if errors:
        raise TypeError_("module", "; ".join(errors))

