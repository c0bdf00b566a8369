"""Stack typing for instruction sequences, functions, and whole modules.

Stack types are lists of ValueType with the top of stack LAST.  `type_body`
is the one typing loop: one if-chain arm per opcode checks the operand
types on top of the stack and pops and pushes them in place, as
`interp._steps` runs each opcode.  Code after an unconditional `trap` or
`return` is unreachable and accepted without typing.  The one
non-standard restriction: flat-heap load/store may not move handle-typed
values, so handles can never be forged from raw bytes.  `if` bodies,
reachable or not, may nest at most MAX_NESTING deep, as in the text
format, so a module built through the API is held to the same bound and
every later walk of it recurses a bounded number of times.
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
    ModuleDef,
    ValueType,
)

StackType = list[ValueType]

# Sentinel result of typing code that ends in trap/return: anything goes after.
UNREACHABLE = None

I32, HANDLE = ValueType.I32, ValueType.HANDLE

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
    functions: list[FuncType | FuncDef]  # imports ++ defined funcs
    results: tuple[ValueType, ...]     # current function's result types


def _reject(stack: StackType, need: StackType) -> None:
    """Raise the stack-underflow or type-mismatch of `need` on top of stack."""
    if len(stack) < len(need):
        raise TypeError_("stack-underflow", f"need {need}, have {stack}")
    raise TypeError_("type-mismatch", f"need {need}, have {stack[-len(need):]}")


def _bound_nesting(body, depth: int) -> None:
    """Raise unless every `if` in body, which sits inside `depth` ifs,
    nests at most MAX_NESTING deep."""
    for ins in body:
        if ins.op == "if":
            if depth >= MAX_NESTING:
                raise TypeError_("nesting", f"if nested deeper than {MAX_NESTING}")
            _bound_nesting(ins.then_body, depth + 1)
            _bound_nesting(ins.else_body, depth + 1)


def type_body(ctx: TypingContext, body, stack: StackType, depth: int = 0):
    """Thread a stack type through an instruction sequence that sits
    inside `depth` ifs.

    Returns the final stack, or UNREACHABLE when the sequence ended in
    trap/return (in which case trailing instructions were not typed, only
    their nesting bounded).
    """
    locs = ctx.locals
    stack = list(stack)
    for i, ins in enumerate(body):
        op = ins.op
        if op == "const":
            ty, lit = ins.ty, ins.literal
            if ty is HANDLE:
                raise TypeError_("const-of-handle", "no handle literals")
            half = _INT_HALF.get(ty._value_)
            if type(lit) is not (int if half else float):
                raise TypeError_("literal-type", f"{ty.value}.const {lit!r}")
            if half and not -half <= lit < half or ty is ValueType.F32 and not _is_f32(lit):
                raise TypeError_("literal-range", f"{ty.value}.const {lit!r}")
            stack.append(ty)
        elif op == "get":
            if not (0 <= ins.idx < len(locs)):
                raise TypeError_("bad-index", f"get {ins.idx}")
            stack.append(locs[ins.idx])
        elif op == "set":
            if not (0 <= ins.idx < len(locs)):
                raise TypeError_("bad-index", f"set {ins.idx}")
            ty = locs[ins.idx]
            if not stack or stack[-1] is not ty:
                _reject(stack, [ty])
            stack.pop()
        elif op == "binop":
            ty = ins.ty
            if ty is HANDLE:
                raise TypeError_("binop-on-handle", "arithmetic on handle values")
            if ins.operator not in (FLOAT_OPS if ty in (ValueType.F32, ValueType.F64) else INT_OPS):
                raise TypeError_("bad-operator", f"{ty}.{ins.operator}")
            if stack[-2:] != [ty, ty]:
                _reject(stack, [ty, ty])
            del stack[-1]
            stack[-1] = I32 if ins.operator in COMPARISON_OPS else ty
        elif op == "segload":
            if not stack or stack[-1] is not HANDLE:
                _reject(stack, [HANDLE])
            stack[-1] = ins.ty
        elif op == "new_segment":
            if not stack or stack[-1] is not I32:
                _reject(stack, [I32])
            stack[-1] = HANDLE
        elif op == "segstore":
            if stack[-2:] != [HANDLE, ins.ty]:
                _reject(stack, [HANDLE, ins.ty])
            del stack[-2:]
        elif op == "call":
            if not (0 <= ins.idx < len(ctx.functions)):
                raise TypeError_("bad-index", f"call {ins.idx}")
            f = ctx.functions[ins.idx]
            params = list(f.params)
            if stack[len(stack) - len(params):] != params:
                _reject(stack, params)
            del stack[len(stack) - len(params):]
            stack += f.results
        elif op == "if":
            if depth >= MAX_NESTING:
                raise TypeError_("nesting", f"if nested deeper than {MAX_NESTING}")
            if not stack or stack[-1] is not I32:
                _reject(stack, [I32])
            stack.pop()
            then_out = type_body(ctx, ins.then_body, stack, depth + 1)
            else_out = type_body(ctx, ins.else_body, stack, depth + 1)
            if UNREACHABLE not in (then_out, else_out) and then_out != else_out:
                raise TypeError_("if-arm-mismatch",
                                 f"then gives {then_out}, else gives {else_out}")
            stack = else_out if then_out is UNREACHABLE else then_out
            if stack is UNREACHABLE:
                break
        elif op == "slice":
            # handle at the bottom: compiled field access pushes the handle
            # first, then the base offset, then the bound reduction.
            if stack[-3:] != [HANDLE, I32, I32]:
                _reject(stack, [HANDLE, I32, I32])
            del stack[-2:]
        elif op == "handle_add":
            if stack[-2:] != [HANDLE, I32]:
                _reject(stack, [HANDLE, I32])
            del stack[-1]
        elif op == "segfree":
            if not stack or stack[-1] is not HANDLE:
                _reject(stack, [HANDLE])
            stack.pop()
        elif op == "load":
            if ins.ty is HANDLE:
                raise TypeError_("handle-forging-load", "handle.load from flat heap")
            if not stack or stack[-1] is not I32:
                _reject(stack, [I32])
            stack[-1] = ins.ty
        elif op == "store":
            if ins.ty is HANDLE:
                raise TypeError_("handle-forging-store", "handle.store to flat heap")
            if stack[-2:] != [I32, ins.ty]:
                _reject(stack, [I32, ins.ty])
            del stack[-2:]
        elif op == "return":
            results = list(ctx.results)
            if stack[len(stack) - len(results):] != results:
                _reject(stack, results)
            break
        elif op == "trap":
            break
        elif op == "nop":
            pass
        else:
            raise TypeError_("bad-opcode", op)
    else:
        return stack
    _bound_nesting(body[i + 1:], depth)
    return UNREACHABLE


def typecheck_module(m: ModuleDef) -> None:
    """Check every function, whatever its type: whether a module can run
    (an entry function 0 without parameters, no imports) is judged by
    interp.init_state.  Raises TypeError_ for an ill-typed module."""
    functions = [*m.imports, *m.funcs]
    errors = []
    for i, f in enumerate(m.funcs):
        try:
            ctx = TypingContext([*f.params, *f.locals], functions, f.results)
            out = type_body(ctx, f.body, [])
            if out is not UNREACHABLE and out != list(f.results):
                raise TypeError_("result-mismatch",
                                 f"body gives {out}, declared {list(f.results)}")
        except TypeError_ as e:
            errors.append(f"func {len(m.imports) + i}: {e}")
    if errors:
        raise TypeError_("module", "; ".join(errors))
