"""Small-step, trace-emitting interpreter.

`_steps` is the one machine loop.  It fetches the next instruction of the
top frame, from an iterator over the function's own code, and runs it by
one if-chain with one arm per opcode: each opcode's reduction rule is
written there and nowhere else.  Only the `call` and `return` arms change
the top frame, so only they read it again.  `step` is that loop run for
one step; `run` runs it from function 0 until the configuration is
terminal or the step budget is spent, and collects the trace.

Execution is deterministic: one rule applies per step.  Any failed
premise of an operation raises MemTrap, and `_steps` is the one place
that catches it: it emits a trap event and halts with no frames left.
Traces collect the non-silent memory events (reads, writes, allocations,
frees, trap).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .baggy import BuddyMemory
from .bytecode import FuncDef, Instr, ModuleDef, ValueType
from .monitor import other_event, same_event
from .segmem import MAX_MEMORY, Handle, MemTrap, SegmentMemory, TrapKind

DEFAULT_BUDGET = 10_000_000

F32, F64, HANDLE = ValueType.F32, ValueType.F64, ValueType.HANDLE

# Number layouts, keyed by the type's value string rather than by the
# member: Enum.__hash__ runs in Python, and these lookups sit on every
# memory access.
_NUM = {t: struct.Struct(f) for t, f in
        (("i32", "<i"), ("i64", "<q"), ("f32", "<f"), ("f64", "<d"))}
_F32 = _NUM["f32"]


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
# unset handle local.  A failed check raises MemTrap, which the machine
# loop, `_steps`, catches.
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


def _new_frame(m: ModuleDef, idx: int, args: list, backend) -> Frame:
    """A frame for function idx; its locals are args, which it takes over."""
    f = m.funcs[idx]
    null = backend.NULL
    for t in f.locals:
        args.append(0.0 if t is F32 or t is F64 else null if t is HANDLE else 0)
    return Frame(args, iter(f.body), [], [], f)


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
    if not (0 <= size <= MAX_MEMORY and 0 <= m.heap_size <= MAX_MEMORY):
        check_memory_size("segment", size)
        check_memory_size("heap", m.heap_size)
    backend = BACKENDS[backend_name](size)
    return Config(m, bytearray(m.heap_size), backend, [_new_frame(m, 0, [], backend)])


_TRAP = TrapEv()


def _trap(config: Config) -> TrapEv:
    config.trapped = True
    config.frames.clear()
    return _TRAP


# -- arithmetic -------------------------------------------------------


def _fit(r: float) -> float:
    """r rounded to single precision, where a result that rounds past the
    largest finite f32 is an infinity of its sign, as in Wasm."""
    try:
        return _F32.unpack(_F32.pack(r))[0]
    except OverflowError:
        return math.copysign(math.inf, r)


def _eq(a, b) -> int:
    return 1 if a == b else 0


def _lt(a, b) -> int:
    return 1 if a < b else 0


def _int_ops(bits: int) -> dict:
    """Operator -> f(a, b) on `bits`-bit ints, wrapping as two's complement."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1

    def div_s(a, b):
        if b == 0:
            raise MemTrap(TrapKind.ARITHMETIC, "division by zero")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        if q != ((q + half) & mask) - half:
            raise MemTrap(TrapKind.ARITHMETIC, "quotient overflow")
        return q

    return {"add": lambda a, b: ((a + b + half) & mask) - half,
            "sub": lambda a, b: ((a - b + half) & mask) - half,
            "mul": lambda a, b: ((a * b + half) & mask) - half,
            "div_s": div_s,
            "and": lambda a, b: (((a & b) + half) & mask) - half,
            "or": lambda a, b: (((a | b) + half) & mask) - half,
            "xor": lambda a, b: (((a ^ b) + half) & mask) - half,
            "eq": _eq, "lt_s": _lt}


def _float_ops(fit) -> dict:
    """Operator -> f(a, b) on floats, each result passed through fit."""

    def div(a, b):
        if b == 0.0:
            if a == 0.0 or math.isnan(a):
                return math.nan
            return fit(math.copysign(math.inf, a) * math.copysign(1.0, b))
        return fit(a / b)

    return {"add": lambda a, b: fit(a + b), "sub": lambda a, b: fit(a - b),
            "mul": lambda a, b: fit(a * b), "div": div, "eq": _eq, "lt": _lt}


# Type name -> operator -> f(a, b), whose result is a value of the type; a
# failed premise raises MemTrap.  The source interpreter runs the "i32"
# operators as its integer operators.
BINOPS = {"i32": _int_ops(32), "i64": _int_ops(64),
          "f32": _float_ops(_fit), "f64": _float_ops(lambda r: r)}


def _steps(config: Config, budget: int, emit) -> int:
    """The machine loop: run up to `budget` steps of a non-terminal
    configuration, passing each event to `emit`, and return the steps run.

    Each opcode's rule is one arm of the if-chain below.  The top frame's
    running block, operands and locals live in local variables; only
    `call` and `return` change the top frame, so only they read it again.
    Ending an `if` arm resumes the enclosing block within the same step;
    ending a body is the implicit return, a step of its own.  This is the
    one catch of MemTrap: a trap of any kind becomes the trap event here,
    and the configuration halts with no frames left."""
    frames = config.frames
    module, heap, backend = config.module, config.heap, config.backend
    frame = frames[-1]
    code, ops, locs = frame.code, frame.operands, frame.locals
    n = 0
    try:
        while n < budget:
            for ins in code:
                break
            else:
                if frame.outer:  # an if arm ended: resume its block
                    code = frame.code = frame.outer.pop()
                    continue
                # Fell off the end: implicit return of the declared results.
                n += 1
                _do_return(config, frame)
                if not frames:
                    break
                frame = frames[-1]
                code, ops, locs = frame.code, frame.operands, frame.locals
                continue
            n += 1
            op = ins.op
            if op == "get":
                ops.append(locs[ins.idx])
            elif op == "const":
                ops.append(ins.literal)
            elif op == "set":
                locs[ins.idx] = ops.pop()
            elif op == "binop":
                try:
                    f = BINOPS[ins.ty._value_][ins.operator]
                except (AttributeError, KeyError):
                    raise InterpBug(f"operator {ins.ty}.{ins.operator}") from None
                b = ops.pop()
                ops[-1] = f(ops[-1], b)
            elif op == "handle_add":
                delta = ops.pop()
                ops[-1] = backend.handle_add(ops[-1], delta)
            elif op == "if":
                frame.outer.append(code)
                code = frame.code = iter(ins.then_body if ops.pop() else ins.else_body)
            elif op == "slice":
                o2 = ops.pop()
                o1 = ops.pop()
                ops[-1] = backend.slice_handle(ops[-1], o1, o2)
            elif op == "segload":
                h = ops.pop()
                ty = ins.ty
                if ty is HANDLE:
                    ops.append(backend.load_handle(h))
                else:
                    ops.append(backend.load(h, _NUM[ty._value_]))
                emit(_new(ReadEv, (ty, backend.view(h))))
            elif op == "segstore":
                v = ops.pop()
                h = ops.pop()
                ty = ins.ty
                if ty is HANDLE:
                    backend.store_handle(h, v)
                else:
                    backend.store(h, _NUM[ty._value_], v)
                emit(_new(WriteEv, (ty, backend.view(h))))
            elif op == "call":
                first_arg = len(ops) - len(module.funcs[ins.idx].params)
                args = ops[first_arg:]
                del ops[first_arg:]
                frame = _new_frame(module, ins.idx, args, backend)
                frames.append(frame)
                code, ops, locs = frame.code, frame.operands, frame.locals
            elif op == "return":
                _do_return(config, frame)
                if not frames:
                    break
                frame = frames[-1]
                code, ops, locs = frame.code, frame.operands, frame.locals
            elif op == "new_segment":
                h = backend.alloc(ops.pop())
                ops.append(h)
                emit(_new(SAllocEv, (backend.view(h),)))
            elif op == "segfree":
                h = ops.pop()
                view = backend.view(h)
                backend.free(h)
                emit(_new(SFreeEv, (view,)))
            elif op == "load":
                assert ins.ty is not HANDLE, "handle load from flat heap"
                layout = _NUM[ins.ty._value_]
                a = ops.pop()
                if not (0 <= a and a + layout.size <= len(heap)):
                    raise MemTrap(TrapKind.HEAP, f"load at {a}")
                ops.append(layout.unpack_from(heap, a)[0])
            elif op == "store":
                assert ins.ty is not HANDLE, "handle store to flat heap"
                layout = _NUM[ins.ty._value_]
                v = ops.pop()
                a = ops.pop()
                if not (0 <= a and a + layout.size <= len(heap)):
                    raise MemTrap(TrapKind.HEAP, f"store at {a}")
                heap[a:a + layout.size] = layout.pack(v)
            elif op == "trap":
                emit(_trap(config))
                break
            elif op == "nop":
                pass
            else:
                raise InterpBug(f"unknown opcode {op}")
    except MemTrap:
        emit(_trap(config))
    return n


def step(config: Config):
    """Execute one instruction; returns the emitted event (None for the
    silent ones).  Mutates config.  It is `_steps` run for one step."""
    if config.trapped or not config.frames:
        raise InterpBug("step on terminal configuration")
    out: list = []
    _steps(config, 1, out.append)
    return out[0] if out else None


def _do_return(config: Config, frame: Frame):
    results = frame.operands[len(frame.operands) - len(frame.func.results):]
    config.frames.pop()
    if config.frames:
        config.frames[-1].operands.extend(results)
    else:
        config.results = list(map(Value, frame.func.results, results))


@dataclass
class RunResult:
    trace: list
    outcome: str            # "ok" | "trap" | "budget"
    config: Config
    steps: int              # instructions executed, as step() counts them

    @property
    def results(self) -> list[Value]:
        return self.config.results


def run(m: ModuleDef, backend: str = "tagged", budget: int = DEFAULT_BUDGET,
        segment_size: int | None = None) -> RunResult:
    """Run a whole module from function 0, collecting its event trace,
    until the configuration is terminal or `budget` steps ran."""
    config = init_state(m, backend, segment_size)
    trace: list = []
    steps = _steps(config, budget, trace.append)
    outcome = "budget" if config.frames else "trap" if config.trapped else "ok"
    return RunResult(trace, outcome, config, steps)


# -- linking ----------------------------------------------------------


def _rewrite_calls(body, remap) -> tuple[Instr, ...]:
    """body with every call index remapped, or body itself if it has no call."""
    out = None
    for i, ins in enumerate(body):
        if ins.op == "call":
            ins = Instr("call", idx=remap(ins.idx))
        elif ins.op == "if":
            then_body = _rewrite_calls(ins.then_body, remap)
            else_body = _rewrite_calls(ins.else_body, remap)
            if then_body is ins.then_body and else_body is ins.else_body:
                continue
            ins = Instr("if", then_body=then_body, else_body=else_body)
        else:
            continue
        out = out or list(body)
        out[i] = ins
    return body if out is None else tuple(out)


def link(m: ModuleDef, ctx: ModuleDef) -> ModuleDef:
    """Fill m's imports with ctx's functions (positionally, by type).

    The result is a whole module: m's own functions first (entry stays at
    index 0), then all of ctx's, with call indices rewritten.  A function
    without a call, at any `if` depth, is the same FuncDef object as in m or ctx.
    """
    if ctx.imports:
        raise LinkError("context module must be whole")
    k = len(m.imports)
    if len(ctx.funcs) < k:
        raise LinkError(f"context exports {len(ctx.funcs)} functions, need {k}")
    for j, (want, f) in enumerate(zip(m.imports, ctx.funcs)):
        if f.params != want.params or f.results != want.results:
            raise LinkError(f"import {j}: expected {want}, got {f.type}")
    n = len(m.funcs)

    def remap_m(idx: int) -> int:
        return idx - k if idx >= k else n + idx

    funcs = []
    for fs, remap in ((m.funcs, remap_m), (ctx.funcs, lambda idx: n + idx)):
        for f in fs:
            body = _rewrite_calls(f.body, remap)
            funcs.append(f if body is f.body else FuncDef(f.params, f.locals, f.results, body))
    return ModuleDef(tuple(funcs), (), max(m.heap_size, ctx.heap_size),
                     max(m.segment_size, ctx.segment_size))
