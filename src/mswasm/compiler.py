"""Type-directed compiler from the C subset to segment-memory bytecode.

Pointers become handles and all data lives in segment memory; the flat
heap is declared but never touched by generated code.  Struct field
access compiles to a slice whose two offsets come from the byte layout,
so the resulting handle covers exactly the field.  The layout lives in
minic, next to the source types, as SrcModule.layout; Layout is
re-exported here for the callers that import it from the compiler.

Since the bytecode has no drop instruction and no handle literals,
every compiled function carries three scratch locals: one to discard
i32s, one to discard handles, and one handle local that is never
written, whose zero-initialized (invalid) value stands in for integers
used at pointer type.

A source operator on ints compiles to the i32 operator that
minic.I32_OPERATORS names, the one src_run runs.

A function compiles in one walk into flat instruction lists: a block's
items one after another, each variable at the frame slot that the parser
gave it as its local index.  The walk recurses once per nesting level of
the source, which the parser bounds by MAX_NESTING.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import bytecode as bc
from .bytecode import FuncDef, FuncType, ModuleDef, ValueType
from .minic import (
    I32_OPERATORS,
    IntType,
    Layout,
    PtrType,
    SrcTypeError,
    TAssignPtr,
    TAssignVar,
    TBinOp,
    TDeref,
    TField,
    TFree,
    TIf,
    TIntAsPtr,
    TLetCall,
    TMallocArray,
    TMallocSingle,
    TNum,
    TSeq,
    TVar,
    TypedFn,
    TypedModule,
)

DEFAULT_SEGMENT_SIZE = 1 << 16

_SRC_BINOPS = {op: bc.binop(ValueType.I32, name) for op, name in I32_OPERATORS.items()}
_MUL = _SRC_BINOPS["*"]
_ZERO = bc.const(ValueType.I32, 0)
_i32 = partial(bc.const, ValueType.I32)


def compile_type(ty) -> ValueType:
    if isinstance(ty, IntType):
        return ValueType.I32
    if isinstance(ty, PtrType):
        return ValueType.HANDLE
    raise ValueError(f"not an expression type: {ty}")


@dataclass
class _FnCompiler:
    """One function's walk.  Each let has its own slot, so shadowing and
    type changes are safe; `slots` holds each slot's type, and a let's is
    set when the walk reaches it."""

    layout: Layout
    instrs: dict  # (constructor, argument) -> the Instr, for one module
    slots: list[ValueType | None]
    drop_i32: int
    drop_handle: int
    null_handle: int

    def ins(self, make, arg) -> bc.Instr:
        """make(arg), built once per module.  SrcTypeError for an i32
        constant that i32 cannot hold: a literal past 2^31 - 1, or the size
        of a struct of 2^31 bytes or more."""
        ins = self.instrs.get((make, arg))
        if ins is None:
            if make is _i32 and arg >= 1 << 31:
                raise SrcTypeError(f"constant {arg} does not fit in i32")
            ins = self.instrs[make, arg] = make(arg)
        return ins

    def emit(self, node, out: list) -> None:
        t = type(node)
        if t is TVar:
            out.append(self.ins(bc.get, node.slot))
        elif t is TNum:
            out.append(self.ins(_i32, node.n))
        elif t is TBinOp:
            self.emit(node.a, out)
            self.emit(node.b, out)
            if node.elem is not None:
                out += (self.ins(_i32, self.layout.sizeof(node.elem)), _MUL,
                        bc.handle_add())
            else:
                out.append(_SRC_BINOPS[node.op])
        elif t is TAssignVar:
            self.emit(node.e, out)
            out += (self.ins(bc.set_, node.slot), _ZERO)
        elif t is TSeq:
            items = node.items
            for item in items[:-1]:
                self.emit(item, out)
                # drop the value: there is no drop instruction
                drop = self.drop_handle if isinstance(item.ty, PtrType) else self.drop_i32
                out.append(self.ins(bc.set_, drop))
            self.emit(items[-1], out)
        elif t is TDeref:
            self.emit(node.e, out)
            out.append(self.ins(bc.segload, compile_type(node.ty)))
        elif t is TAssignPtr:
            self.emit(node.target, out)
            self.emit(node.e, out)
            out += (self.ins(bc.segstore, compile_type(node.value_ty)), _ZERO)
        elif t is TField:
            self.emit(node.e, out)
            o1, o2 = self.layout.field_offsets(node.sname, node.fname)
            out += (self.ins(_i32, o1), self.ins(_i32, o2), bc.slice_())
        elif t is TIf:
            self.emit(node.c, out)
            then_code: list = []
            else_code: list = []
            self.emit(node.t, then_code)
            self.emit(node.f, else_code)
            out.append(bc.if_(then_code, else_code))
        elif t is TLetCall:
            if node.arg is not None:
                self.emit(node.arg, out)
            self.slots[node.slot] = compile_type(node.x_ty)
            out += (self.ins(bc.call, node.fn_index), self.ins(bc.set_, node.slot))
            self.emit(node.body, out)
        elif t is TIntAsPtr:
            # Discard the i32 and put the never-written (invalid) handle
            # local in its place.
            self.emit(node.e, out)
            out += (self.ins(bc.set_, self.drop_i32), self.ins(bc.get, self.null_handle))
        elif t is TMallocArray:
            self.emit(node.count, out)
            out += (self.ins(_i32, self.layout.sizeof(node.elem)), _MUL, bc.new_segment())
        elif t is TMallocSingle:
            out += (self.ins(_i32, self.layout.sizeof(node.wtype)), bc.new_segment())
        elif t is TFree:
            self.emit(node.e, out)
            out += (bc.segfree(), _ZERO)
        else:
            raise ValueError(f"cannot compile {node!r}")


def compile_fn(layout: Layout, fn: TypedFn, instrs: dict) -> FuncDef:
    """Locals: the declared ones, the lets' slots, then the three scratch
    locals."""
    declared = ([fn.param] if fn.param else []) + fn.locals
    slots = [compile_type(ty) for _, ty in declared] + [None] * fn.n_lets
    base = len(slots)
    body: list = []
    _FnCompiler(layout, instrs, slots, base, base + 1, base + 2).emit(fn.body, body)
    slots += [ValueType.I32, ValueType.HANDLE, ValueType.HANDLE]
    n_params = fn.param is not None
    return FuncDef(tuple(slots[:n_params]), tuple(slots[n_params:]),
                   (compile_type(fn.result),), tuple(body))


def compile_module(tm: TypedModule,
                   segment_size: int = DEFAULT_SEGMENT_SIZE) -> ModuleDef:
    """One bytecode function per source function, main at the first
    defined-function index; imports are carried over positionally."""
    layout = tm.mod.layout
    imports = []
    for imp in tm.mod.imports:
        ps = (compile_type(imp.param),) if imp.param is not None else ()
        imports.append(FuncType(ps, (compile_type(imp.result),)))
    instrs: dict = {}
    funcs = [compile_fn(layout, f, instrs) for f in tm.fns]
    return ModuleDef(tuple(funcs), tuple(imports), tm.mod.heap_size, segment_size)
