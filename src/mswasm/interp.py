"""Small-step, trace-emitting interpreter.

`step` is the only semantics.  It fetches the next instruction of the
top frame, from an iterator over the function's own code, and runs the
handler that `_HANDLERS`, one table from opcode to a small function,
holds for it; a handler mutates the configuration and returns the event
it emits, or None for the silent instructions.  `run` drives `step` from
function 0 until the configuration is terminal or the step budget is
spent; it counts the steps and collects the trace, and decides nothing
about instructions itself.

Execution is deterministic: one rule applies per step.  Any failed
premise of an operation raises MemTrap, and `step` is the one place that
catches it: it emits a trap event and halts with no frames left.  Traces
collect the non-silent memory events (reads, writes, allocations, frees,
trap).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .baggy import BuddyMemory
from .bytecode import OPCODES, FuncDef, Instr, ModuleDef, ValueType
from .monitor import other_event, same_event
from .segmem import MAX_MEMORY, Handle, MemTrap, SegmentMemory, TrapKind

DEFAULT_BUDGET = 10_000_000

I32, I64, F32, F64, HANDLE = (ValueType.I32, ValueType.I64, ValueType.F32,
                              ValueType.F64, ValueType.HANDLE)

# Number layouts, keyed by the type's value string rather than by the
# member: Enum.__hash__ runs in Python, and these lookups sit on every
# memory access.
_NUM = {t._value_: struct.Struct(f) for t, f in
        ((I32, "<i"), (I64, "<q"), (F32, "<f"), (F64, "<d"))}
_F32 = _NUM[F32._value_]
_I32_HALF, _I32_MASK = 1 << 31, (1 << 32) - 1
_I64_HALF, _I64_MASK = 1 << 63, (1 << 64) - 1


class Value(NamedTuple):
    """A typed result of the entry function.  Operand stacks and locals
    hold the raw int, float or handle: validated code needs no run-time
    type tags."""

    ty: ValueType
    v: object  # int, float, or a backend handle

    def __repr__(self) -> str:
        return f"{self.ty}:{self.v!r}"


# -- events -----------------------------------------------------------
#
# Events are tuples, built on the hot paths with _new(cls, fields), which
# skips NamedTuple's Python-level __new__; equality also compares the
# class, as for the monitor's events.

_new = tuple.__new__


class SAllocEv(NamedTuple):
    handle: Handle
    kind = "salloc"
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


class SFreeEv(NamedTuple):
    handle: Handle
    kind = "sfree"
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


class ReadEv(NamedTuple):
    ty: ValueType
    handle: Handle
    kind = "read"
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


class WriteEv(NamedTuple):
    ty: ValueType
    handle: Handle
    kind = "write"
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


@dataclass(frozen=True)
class TrapEv:
    kind = "trap"


def event_to_json(ev) -> str:
    if isinstance(ev, TrapEv):
        return json.dumps({"ev": "trap"}, separators=(",", ":"))
    obj = {"ev": ev.kind}
    if isinstance(ev, (ReadEv, WriteEv)):
        obj["ty"] = str(ev.ty)
    h = ev.handle
    obj.update({"base": h.base, "offset": h.offset, "bound": h.bound,
                "valid": h.valid, "id": h.id})
    return json.dumps(obj, separators=(",", ":"))


def trace_to_jsonl(trace) -> str:
    return "".join(event_to_json(ev) + "\n" for ev in trace)


# -- backends ---------------------------------------------------------


# Each backend is a memory class, made with the segment size, with one
# call set: alloc(n), free(h), handle_add(h, delta), slice_handle(h, o1,
# o2), load(h, layout) and store(h, layout, v) for numbers (a struct
# layout from _NUM), load_handle(h) and store_handle(h, v) for handles,
# view(h), the handle as trace events show it, and NULL, the value of an
# unset handle local.  A failed check raises MemTrap, which `step` catches.
BACKENDS = {"tagged": SegmentMemory, "baggy": BuddyMemory}


# -- machine state ----------------------------------------------------


class InterpBug(AssertionError):
    """A stuck state outside a trap: impossible for well-typed modules."""


class InitError(Exception):
    pass


class LinkError(Exception):
    pass


@dataclass(slots=True)
class Frame:
    locals: list
    code: Iterator[Instr]    # the running block, over the function's own tuple
    outer: list              # the enclosing blocks' iterators, innermost last
    operands: list
    func: FuncDef


@dataclass(slots=True)
class Config:
    module: ModuleDef
    heap: bytearray
    backend: object
    frames: list[Frame]
    trapped: bool = False
    results: list[Value] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.trapped or not self.frames


def zero_value(ty: ValueType, backend):
    if ty is F32 or ty is F64:
        return 0.0
    if ty is HANDLE:
        return backend.NULL
    return 0


def _new_frame(m: ModuleDef, idx: int, args: list, backend) -> Frame:
    f = m.funcs[idx]
    locs = args + [zero_value(t, backend) for t in f.locals]
    return Frame(locs, iter(f.body), [], [], f)


def check_memory_size(what: str, n: int) -> None:
    """InitError unless a memory of n bytes is within [0, MAX_MEMORY]."""
    if not 0 <= n <= MAX_MEMORY:
        raise InitError(f"{what} size {n} outside [0, {MAX_MEMORY}]")


def init_state(m: ModuleDef, backend_name: str = "tagged",
               segment_size: int | None = None) -> Config:
    """Initial configuration: zeroed memories, empty allocator, one frame
    for function 0.  A segment or heap size outside [0, MAX_MEMORY] is an
    InitError, raised before any memory is made."""
    if m.imports:
        raise InitError("module has imports; link it first")
    if not m.funcs:
        raise InitError("no entry function")
    if m.funcs[0].params:
        raise InitError("entry function must take no parameters")
    size = m.segment_size if segment_size is None else segment_size
    check_memory_size("segment", size)
    check_memory_size("heap", m.heap_size)
    backend = BACKENDS[backend_name](size)
    return Config(m, bytearray(m.heap_size), backend,
                  [_new_frame(m, 0, [], backend)])


def _trap(config: Config) -> TrapEv:
    config.trapped = True
    config.frames.clear()
    return TrapEv()


# -- arithmetic -------------------------------------------------------


def _fit(ty: ValueType, r):
    """r as a value of ty: two's-complement wrap for the integer types,
    rounding to single precision for f32, where a result that rounds past
    the largest finite f32 is an infinity of its sign, as in Wasm."""
    if ty is I32:
        return ((r + _I32_HALF) & _I32_MASK) - _I32_HALF
    if ty is I64:
        return ((r + _I64_HALF) & _I64_MASK) - _I64_HALF
    if ty is F32:
        try:
            return _F32.unpack(_F32.pack(r))[0]
        except OverflowError:
            return math.copysign(math.inf, r)
    return r


def _div_s(ty: ValueType, a: int, b: int) -> int:
    if b == 0:
        raise MemTrap(TrapKind.ARITHMETIC, "division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    if q != _fit(ty, q):
        raise MemTrap(TrapKind.ARITHMETIC, "quotient overflow")
    return q


def _div(ty: ValueType, a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return _fit(ty, math.copysign(math.inf, a) * math.copysign(1.0, b))
    return _fit(ty, a / b)


def _eq(ty, a, b) -> int:
    return 1 if a == b else 0


def _lt(ty, a, b) -> int:
    return 1 if a < b else 0


# Operator -> f(ty, a, b).
_SHARED_OPS = {
    "add": lambda ty, a, b: _fit(ty, a + b),
    "sub": lambda ty, a, b: _fit(ty, a - b),
    "mul": lambda ty, a, b: _fit(ty, a * b),
    "eq": _eq,
}
_INT_OPS = {
    **_SHARED_OPS,
    "div_s": _div_s,
    "and": lambda ty, a, b: _fit(ty, a & b),
    "or": lambda ty, a, b: _fit(ty, a | b),
    "xor": lambda ty, a, b: _fit(ty, a ^ b),
    "lt_s": _lt,
}
_FLOAT_OPS = {**_SHARED_OPS, "div": _div, "lt": _lt}


# -- instructions: one handler per opcode ------------------------------
#
# A handler takes (config, top frame, instruction), the instruction
# already fetched, and returns the emitted event or None.  A failed
# premise raises MemTrap.


def _nop(config, frame, ins):
    return None


def _trap_ins(config, frame, ins):
    return _trap(config)


def _const(config, frame, ins):
    frame.operands.append(ins.literal)


def _binop(config, frame, ins):
    ops = frame.operands
    b = ops.pop()
    a = ops.pop()
    ty = ins.ty
    f = (_FLOAT_OPS if ty is F32 or ty is F64 else _INT_OPS).get(ins.operator)
    if f is None:
        raise InterpBug(f"operator {ty}.{ins.operator}")
    ops.append(f(ty, a, b))


def _get(config, frame, ins):
    frame.operands.append(frame.locals[ins.idx])


def _set(config, frame, ins):
    frame.locals[ins.idx] = frame.operands.pop()


def _load(config, frame, ins):
    assert ins.ty is not HANDLE, "handle load from flat heap"
    layout = _NUM[ins.ty._value_]
    n = frame.operands.pop()
    if not (0 <= n and n + layout.size <= len(config.heap)):
        raise MemTrap(TrapKind.HEAP, f"load at {n}")
    frame.operands.append(layout.unpack_from(config.heap, n)[0])


def _store(config, frame, ins):
    assert ins.ty is not HANDLE, "handle store to flat heap"
    layout = _NUM[ins.ty._value_]
    v = frame.operands.pop()
    n = frame.operands.pop()
    if not (0 <= n and n + layout.size <= len(config.heap)):
        raise MemTrap(TrapKind.HEAP, f"store at {n}")
    config.heap[n:n + layout.size] = layout.pack(v)


def _if(config, frame, ins):
    frame.outer.append(frame.code)
    frame.code = iter(ins.then_body if frame.operands.pop() != 0 else ins.else_body)


def _call(config, frame, ins):
    m = config.module
    ops = frame.operands
    first_arg = len(ops) - len(m.funcs[ins.idx].params)
    args = ops[first_arg:]
    del ops[first_arg:]
    config.frames.append(_new_frame(m, ins.idx, args, config.backend))


def _return(config, frame, ins):
    return _do_return(config, frame)


def _segload(config, frame, ins):
    backend = config.backend
    ops = frame.operands
    h = ops.pop()
    ty = ins.ty
    if ty is HANDLE:
        ops.append(backend.load_handle(h))
    else:
        ops.append(backend.load(h, _NUM[ty._value_]))
    return _new(ReadEv, (ty, backend.view(h)))


def _segstore(config, frame, ins):
    backend = config.backend
    ops = frame.operands
    v = ops.pop()
    h = ops.pop()
    ty = ins.ty
    if ty is HANDLE:
        backend.store_handle(h, v)
    else:
        backend.store(h, _NUM[ty._value_], v)
    return _new(WriteEv, (ty, backend.view(h)))


def _slice(config, frame, ins):
    ops = frame.operands
    o2 = ops.pop()
    o1 = ops.pop()
    h = ops.pop()
    ops.append(config.backend.slice_handle(h, o1, o2))


def _new_segment(config, frame, ins):
    backend = config.backend
    n = frame.operands.pop()
    h = backend.alloc(n)
    frame.operands.append(h)
    return _new(SAllocEv, (backend.view(h),))


def _handle_add(config, frame, ins):
    ops = frame.operands
    n = ops.pop()
    h = ops.pop()
    ops.append(config.backend.handle_add(h, n))


def _segfree(config, frame, ins):
    backend = config.backend
    h = frame.operands.pop()
    view = backend.view(h)
    backend.free(h)
    return _new(SFreeEv, (view,))


_HANDLERS = {
    "nop": _nop, "trap": _trap_ins, "const": _const, "binop": _binop,
    "get": _get, "set": _set, "load": _load, "store": _store, "if": _if,
    "call": _call, "return": _return, "segload": _segload,
    "segstore": _segstore, "slice": _slice, "new_segment": _new_segment,
    "handle_add": _handle_add, "segfree": _segfree,
}
assert _HANDLERS.keys() == set(OPCODES)


def step(config: Config):
    """Execute one instruction; returns the emitted event (None for the
    silent ones).  Mutates config.  This is the one catch of MemTrap:
    a trap of any kind becomes the trap event here."""
    if config.trapped or not config.frames:
        raise InterpBug("step on terminal configuration")
    frame = config.frames[-1]
    ins = next(frame.code, None)
    while ins is None:
        if not frame.outer:
            # Fell off the end: implicit return of the declared results.
            return _do_return(config, frame)
        frame.code = frame.outer.pop()  # an if arm ended: resume its block
        ins = next(frame.code, None)
    try:
        handler = _HANDLERS[ins.op]
    except KeyError:
        raise InterpBug(f"unknown opcode {ins.op}") from None
    try:
        return handler(config, frame, ins)
    except MemTrap:
        return _trap(config)


def _do_return(config: Config, frame: Frame):
    k = len(frame.func.results)
    results = frame.operands[len(frame.operands) - k:] if k else []
    config.frames.pop()
    if config.frames:
        config.frames[-1].operands.extend(results)
    else:
        config.results = list(map(Value, frame.func.results, results))
    return None


@dataclass
class RunResult:
    trace: list
    outcome: str            # "ok" | "trap" | "budget"
    config: Config
    steps: int              # instructions executed, by step()

    @property
    def results(self) -> list[Value]:
        return self.config.results


def run(m: ModuleDef, backend: str = "tagged", budget: int = DEFAULT_BUDGET,
        segment_size: int | None = None) -> RunResult:
    """Run a whole module from function 0, collecting its event trace:
    `step` until the configuration is terminal or `budget` steps ran."""
    config = init_state(m, backend, segment_size)
    frames = config.frames  # emptied in place when the run ends or traps
    trace: list = []
    append = trace.append
    steps = 0
    while frames:
        if steps >= budget:
            return RunResult(trace, "budget", config, steps)
        ev = step(config)
        steps += 1
        if ev is not None:
            append(ev)
    outcome = "trap" if config.trapped else "ok"
    return RunResult(trace, outcome, config, steps)


# -- linking ----------------------------------------------------------


def _rewrite_calls(body, remap) -> tuple[Instr, ...]:
    out = []
    for ins in body:
        if ins.op == "call":
            out.append(Instr("call", idx=remap(ins.idx)))
        elif ins.op == "if":
            out.append(Instr("if", then_body=_rewrite_calls(ins.then_body, remap),
                             else_body=_rewrite_calls(ins.else_body, remap)))
        else:
            out.append(ins)
    return tuple(out)


def link(m: ModuleDef, ctx: ModuleDef) -> ModuleDef:
    """Fill m's imports with ctx's functions (positionally, by type).

    The result is a whole module: m's own functions first (entry stays at
    index 0), then all of ctx's, with call indices rewritten.
    """
    if not ctx.is_whole:
        raise LinkError("context module must be whole")
    k = len(m.imports)
    if len(ctx.funcs) < k:
        raise LinkError(f"context exports {len(ctx.funcs)} functions, need {k}")
    for j in range(k):
        if ctx.funcs[j].type != m.imports[j]:
            raise LinkError(
                f"import {j}: expected {m.imports[j]}, got {ctx.funcs[j].type}")
    n = len(m.funcs)

    def remap_m(idx: int) -> int:
        return idx - k if idx >= k else n + idx

    def remap_ctx(idx: int) -> int:
        return n + idx

    funcs = [FuncDef(f.params, f.locals, f.results, _rewrite_calls(f.body, remap_m))
             for f in m.funcs]
    funcs += [FuncDef(f.params, f.locals, f.results, _rewrite_calls(f.body, remap_ctx))
              for f in ctx.funcs]
    return ModuleDef(tuple(funcs), (),
                     max(m.heap_size, ctx.heap_size),
                     max(m.segment_size, ctx.segment_size))
