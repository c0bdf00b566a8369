import sys
import tracemalloc
from dataclasses import replace

import pytest

from mswasm import bytecode as bc
from mswasm import interp
from mswasm.baggy import NULL_BAGGY, BaggyHandle
from mswasm.bytecode import OPCODES, FuncDef, FuncType, ModuleDef, ValueType, parse_module
from mswasm.conformance import fuzz_attacker, fuzz_victim
from mswasm.interp import (
    BACKENDS,
    Config,
    InitError,
    InterpBug,
    LinkError,
    ReadEv,
    RunResult,
    SAllocEv,
    SFreeEv,
    TrapEv,
    Value,
    WriteEv,
    init_state,
    link,
    run,
    step,
    trace_to_jsonl,
)
from mswasm.segmem import MAX_ID, Handle, TrapKind
from mswasm.typecheck import typecheck_module
from oracles import ref_link

I32, I64, F64, H = ValueType.I32, ValueType.I64, ValueType.F64, ValueType.HANDLE


def module(body, locals_=(), results=(I32,), segment=64, heap=0, funcs=()):
    entry = FuncDef((), tuple(locals_), tuple(results), tuple(body))
    return ModuleDef((entry,) + tuple(funcs), (), heap, segment)


def exec_instr(body, operands, locals_=(), segment=64, heap=0):
    """Drive a single frame whose operand stack of raw values is set up by
    hand (the only way to plant arbitrary handle values)."""
    m = module(body, locals_=locals_, results=(), segment=segment, heap=heap)
    config = init_state(m)
    config.frames[-1].operands = list(operands)
    events = []
    while not config.terminal:
        ev = step(config)
        if ev is not None:
            events.append(ev)
    return config, events


def test_new_segment_event_and_value():
    config, events = exec_instr([bc.const(I32, 8), bc.new_segment()], [])
    assert events == [SAllocEv(Handle(0, 0, 8, True, 0))]


def test_new_segment_past_the_last_segment_id_traps():
    """Zero-byte segments take no memory, so only the step budget bounds
    how many ids a run takes; the one past MAX_ID is an OOM trap."""
    config = init_state(module([bc.const(I32, 0), bc.new_segment()], results=()))
    config.backend.next_id = MAX_ID + 1
    events = []
    while not config.terminal:
        ev = step(config)
        if ev is not None:
            events.append(ev)
    assert events == [TrapEv()] and config.trapped


def test_handle_add_moves_offset_silently():
    h = Handle(0, 0, 8, True, 0)
    m = module([bc.handle_add()], results=())
    config = init_state(m)
    config.backend.alloc(8)
    config.frames[-1].operands = [h, 4]
    ev = step(config)
    assert ev is None
    assert config.frames[-1].operands[-1] == Handle(0, 4, 8, True, 0)


def test_handle_add_wraps_i32():
    h = Handle(0, 2**31 - 1, 8, True, 0)
    m = module([bc.handle_add()], results=())
    config = init_state(m)
    config.frames[-1].operands = [h, 1]
    step(config)
    assert config.frames[-1].operands[-1].offset == -(2**31)


def test_slice_example():
    h = Handle(100, 0, 64, True, 7)
    m = module([bc.slice_()], results=(), segment=256)
    config = init_state(m)
    config.frames[-1].operands = [h, 8, 16]
    step(config)
    assert config.frames[-1].operands[-1] == Handle(108, 0, 48, True, 7)


def test_slice_base_offset_at_bound_traps():
    h = Handle(0, 0, 64, True, 0)
    m = module([bc.slice_()], results=(), segment=64)
    config = init_state(m)
    config.backend.alloc(64)
    config.frames[-1].operands = [h, 64, 0]
    ev = step(config)
    assert isinstance(ev, TrapEv)
    assert config.frames == []  # halt leaves no operand stack at all


def test_segload_through_invalid_handle_traps():
    _, events = exec_instr(
        [bc.get(0), bc.segload(I32)], [], locals_=(H,))
    assert events == [TrapEv()]


def test_store_over_handle_bytes_then_reload_traps():
    # rewrite one word of a stored handle with its own bytes, tagged as
    # i32 data, reload the handle from memory, then use it: the reloaded
    # handle must be dead whichever of its four words was rewritten
    for word in range(4):
        def at_word():
            return [bc.get(0), bc.const(I32, 4 * word), bc.handle_add()]
        body = [
            bc.const(I32, 32), bc.new_segment(), bc.set_(0),   # outer segment
            bc.const(I32, 8), bc.new_segment(), bc.set_(1),    # inner segment
            bc.get(0), bc.get(1), bc.segstore(H),              # store inner at 0
            *at_word(), *at_word(), bc.segload(I32),           # same bytes,
            bc.segstore(I32),                                  # as data
            bc.get(0), bc.segload(H), bc.set_(1),              # reload
            bc.get(1), bc.segload(I32),                        # use: trap
        ]
        m = module(body, locals_=(H, H), results=(I32,))
        typecheck_module(m)
        res = run(m)
        assert res.outcome == "trap", word
        kinds = [e.kind for e in res.trace]
        assert kinds == ["salloc", "salloc", "write", "read", "write", "read",
                         "trap"], word


def test_handle_load_at_unaligned_address_traps():
    # 8-aligned but not 16-aligned
    body = [
        bc.const(I32, 32), bc.new_segment(), bc.set_(0),
        bc.get(0), bc.const(I32, 8), bc.handle_add(), bc.segload(H),
        bc.set_(0),
    ]
    m = module(body, locals_=(H,), results=())
    typecheck_module(m)
    res = run(m)
    assert res.outcome == "trap"
    assert res.trace[-1] == TrapEv()


def test_linear_load_near_end_traps():
    m = module([bc.const(I32, 62), bc.load(I32)], results=(I32,), heap=64)
    typecheck_module(m)
    assert run(m).outcome == "trap"


def test_linear_access_at_last_word_succeeds():
    # Wasm's rule: a 4-byte access at n is in bounds iff n + 4 <= len(heap)
    body = [bc.const(I32, 60), bc.const(I32, -5), bc.store(I32),
            bc.const(I32, 60), bc.load(I32)]
    m = module(body, results=(I32,), heap=64)
    typecheck_module(m)
    res = run(m)
    assert res.outcome == "ok" and res.results == [Value(I32, -5)]


def test_linear_access_one_past_last_word_traps():
    load = module([bc.const(I32, 61), bc.load(I32)], results=(I32,), heap=64)
    store = module([bc.const(I32, 61), bc.const(I32, 1), bc.store(I32),
                    bc.const(I32, 0)], results=(I32,), heap=64)
    for m in (load, store):
        typecheck_module(m)
        res = run(m)
        assert res.outcome == "trap" and res.trace == [TrapEv()]


def test_linear_store_and_load():
    body = [bc.const(I32, 8), bc.const(I32, 123), bc.store(I32),
            bc.const(I32, 8), bc.load(I32)]
    m = module(body, results=(I32,), heap=64)
    res = run(m)
    assert res.outcome == "ok" and res.results == [Value(I32, 123)]


def test_division_by_zero_traps():
    m = module([bc.const(I32, 1), bc.const(I32, 0), bc.binop(I32, "div_s")])
    assert run(m).outcome == "trap"


def test_div_overflow_traps():
    m = module([bc.const(I32, -(2**31)), bc.const(I32, -1),
                bc.binop(I32, "div_s")])
    assert run(m).outcome == "trap"


@pytest.mark.parametrize("body,kind", [
    ([bc.const(I32, 1), bc.const(I32, 0), bc.binop(I32, "div_s")], TrapKind.ARITHMETIC),
    ([bc.const(I64, -(2**63)), bc.const(I64, -1), bc.binop(I64, "div_s")],
     TrapKind.ARITHMETIC),
    ([bc.const(I32, 61), bc.load(I32)], TrapKind.HEAP),
    ([bc.const(I32, -1), bc.const(I32, 0), bc.store(I32)], TrapKind.HEAP),
])
def test_arithmetic_and_heap_traps_raise_memtrap_with_their_kind(body, kind, monkeypatch):
    """Operators and heap accesses raise; the machine loop is the one place
    that turns MemTrap into the trap event (the outcome tests above)."""
    kinds = []
    trap = interp._trap

    def record(config):
        kinds.append(sys.exc_info()[1].kind)
        return trap(config)

    monkeypatch.setattr(interp, "_trap", record)
    res = run(module(body, results=(), heap=64))
    assert res.outcome == "trap" and kinds == [kind]


def test_i32_wrapping():
    m = module([bc.const(I32, 2**31 - 1), bc.const(I32, 1),
                bc.binop(I32, "add")])
    assert run(m).results == [Value(I32, -(2**31))]


def test_run_alloc_store_load_free_trace_shape():
    src = """
    (module (segment 64) (heap 0)
      (func (local handle) (result i32)
        i32.const 8 new_segment set 0
        get 0 i32.const 5 i32.segstore
        get 0 i32.segload
        get 0 segfree))
    """
    res = run(parse_module(src))
    assert [e.kind for e in res.trace] == ["salloc", "write", "read", "sfree"]
    assert res.outcome == "ok"


def test_trap_instruction_trace():
    m = module([bc.trap()], results=())
    res = run(m)
    assert res.trace == [TrapEv()] and res.outcome == "trap"


def test_empty_main_empty_trace():
    m = module([bc.const(I32, 0)])
    res = run(m)
    assert res.trace == [] and res.outcome == "ok"


def test_trap_is_final():
    src = """
    (module (segment 64) (heap 0)
      (func (local handle) (result i32)
        get 0 segfree
        i32.const 8 new_segment set 0
        i32.const 0))
    """
    res = run(parse_module(src))
    assert res.outcome == "trap"
    assert res.trace == [TrapEv()]  # nothing after the trap


def test_handle_local_zero_init_is_invalid_null():
    m = module([bc.const(I32, 0)], locals_=(H,))
    config = init_state(m)
    assert config.frames[0].locals == [Handle(0, 0, 0, False, 0)]


def test_both_backends_have_the_one_call_set():
    calls = ("alloc", "free", "handle_add", "slice_handle", "load", "store",
             "load_handle", "store_handle", "view")
    for name, memory in BACKENDS.items():
        mem = memory(64)
        assert all(callable(getattr(mem, c, None)) for c in calls), name
    assert BACKENDS["tagged"].NULL == Handle(0, 0, 0, False, 0)
    assert BACKENDS["baggy"].NULL == NULL_BAGGY


@pytest.mark.parametrize("backend,segment", [
    ("tagged", Handle(0, 0, 8, True, 0)), ("baggy", BaggyHandle(0, 4, False))])
def test_results_are_typed_by_the_entry_functions_result_types(backend, segment):
    f64 = module([bc.const(F64, 2.5), bc.const(F64, 0.5), bc.binop(F64, "mul")],
                 results=(F64,))
    handle = module([bc.const(I32, 8), bc.new_segment()], results=(H,))
    for m in (f64, handle):
        typecheck_module(m)
    assert run(f64, backend).results == [Value(F64, 1.25)]
    assert run(handle, backend).results == [Value(H, segment)]


def test_init_rejects_imported_modules():
    m = ModuleDef((FuncDef((), (), (I32,), (bc.const(I32, 0),)),),
                  (FuncType((), (I32,)),), 0, 0)
    with pytest.raises(InitError):
        init_state(m)


@pytest.mark.parametrize("entry,message", [
    ((), "no entry function"),
    ((FuncDef((I32,), (), (), ()),), "entry function must take no parameters"),
])
def test_init_rejects_a_module_without_a_runnable_entry(entry, message):
    with pytest.raises(InitError, match=message):
        init_state(ModuleDef(entry, (), 0, 0))


def test_value_repr_names_type_and_payload():
    assert repr(Value(I32, 3)) == "i32:3"


def test_call_and_return_balance():
    src = """
    (module (segment 0) (heap 0)
      (func (result i32) i32.const 20 call 1)
      (func (param i32) (result i32) get 0 i32.const 1 i32.add return))
    """
    m = parse_module(src)
    typecheck_module(m)
    res = run(m)
    assert res.results == [Value(I32, 21)]


def test_early_return_skips_rest():
    src = """
    (module (segment 64) (heap 0)
      (func (local handle) (result i32)
        i32.const 9 return
        i32.const 1 new_segment set 0))
    """
    # unreachable tail would even be ill-typed without a polymorphic bottom
    m = parse_module(src)
    typecheck_module(m)
    res = run(m)
    assert res.results == [Value(I32, 9)] and res.trace == []


def test_budget_outcome():
    src = """
    (module (segment 0) (heap 0)
      (func (result i32) call 1)
      (func (result i32) call 1))
    """
    res = run(parse_module(src), budget=500)
    assert res.outcome == "budget"


def test_determinism_byte_identical():
    from mswasm.conformance import fuzz_module
    for seed in (3, 17, 99):
        m = fuzz_module(seed)
        traces = {trace_to_jsonl(run(m).trace) for _ in range(3)}
        assert len(traces) == 1


# -- linking ----------------------------------------------------------


def _victim():
    return parse_module("""
    (module (segment 64) (heap 0)
      (import (param i32) (result i32))
      (func (result i32) i32.const 4 call 0))
    """)


def test_link_identity_context():
    ctx = parse_module("""
    (module (segment 0) (heap 0)
      (func (param i32) (result i32) get 0))
    """)
    whole = link(_victim(), ctx)
    assert whole.imports == ()
    typecheck_module(whole)
    assert run(whole).results == [Value(I32, 4)]


def test_link_type_mismatch():
    ctx = parse_module("(module (segment 0) (heap 0)"
                       " (func (param i64) (result i32) i32.const 0))")
    with pytest.raises(LinkError) as e:
        link(_victim(), ctx)
    assert str(e.value) == "import 0: expected [i32] -> [i32], got [i64] -> [i32]"


@pytest.mark.parametrize("ctx,message", [
    (ModuleDef((), (FuncType((), ()),), 0, 0), "context module must be whole"),
    (ModuleDef((), (), 0, 0), "context exports 0 functions, need 1"),
])
def test_link_rejects_a_context_that_cannot_fill_the_imports(ctx, message):
    with pytest.raises(LinkError, match=message):
        link(_victim(), ctx)


def test_link_rewrites_context_internal_calls():
    ctx = parse_module("""
    (module (segment 0) (heap 0)
      (func (param i32) (result i32) get 0 call 1)
      (func (param i32) (result i32) get 0 i32.const 10 i32.add))
    """)
    whole = link(_victim(), ctx)
    typecheck_module(whole)
    assert run(whole).results == [Value(I32, 14)]


def test_linked_typechecks_iff_halves_do():
    from mswasm.typecheck import TypeError_
    bad_ctx = ModuleDef(
        (FuncDef((I32,), (), (I32,), (bc.get(0), bc.get(0),)),), (), 0, 0)
    with pytest.raises(TypeError_):
        typecheck_module(link(_victim(), bad_ctx))


# Calls inside nested ifs on both sides, a function with ifs but no call
# on both sides, and a context that exports two functions more than the
# victim imports.  Linked, the entry returns 8 through victim functions 3
# and 4.
NESTED_VICTIM = """
(module (segment 64) (heap 8)
  (import (param i32) (result i32))
  (import (result i32))
  (func (result i32)
    i32.const 1
    (if (then i32.const 0 (if (then i32.const 5 call 0) (else call 3)))
        (else call 1)))
  (func (result i32) i32.const 7 call 4)
  (func (param i32) (result i32) get 0 i32.const 1 i32.add)
  (func (result i32) i32.const 9 (if (then i32.const 2) (else i32.const 3))))
"""
NESTED_CONTEXT = """
(module (segment 128) (heap 0)
  (func (param i32) (result i32)
    get 0
    (if (then i32.const 1 (if (then i32.const 0 call 2) (else i32.const 4)))
        (else i32.const 0 call 2)))
  (func (result i32) i32.const 3 call 3)
  (func (param i32) (result i32) get 0 i32.const 100 i32.add)
  (func (param i32) (result i32) get 0 (if (then i32.const 1) (else i32.const 2))))
"""


def _holds_call(body) -> bool:
    return any(ins.op == "call" or ins.op == "if" and (
        _holds_call(ins.then_body) or _holds_call(ins.else_body)) for ins in body)


def _linked_or_message(linker, m, ctx):
    try:
        return linker(m, ctx)
    except LinkError as e:
        return f"LinkError: {e}"


def test_link_agrees_with_the_linker_that_rebuilt_every_function():
    """On fuzz_victim seeds 0-299 with their attackers, on the same victims
    with the attacker of the next seed, and on the nested pair, also with
    a context that declares the larger heap and the smaller segment, link
    gives what `oracles.ref_link` gives: an equal module or the same
    LinkError message.  A function without a call is the same FuncDef
    object in the linked module; one with a call is a new one."""
    pairs = [(fuzz_victim(s), fuzz_attacker(fuzz_victim(s), s * 31 + 1)) for s in range(300)]
    pairs += [(pairs[s][0], pairs[s + 1][1]) for s in range(299)]
    nested = parse_module(NESTED_VICTIM), parse_module(NESTED_CONTEXT)
    grown = nested[0], replace(nested[1], heap_size=16, segment_size=32)
    pairs += [nested, grown]
    outcomes = {"linked": 0, "kept": 0, "rebuilt": 0, "refused": 0}
    for m, ctx in pairs:
        got = _linked_or_message(link, m, ctx)
        assert got == _linked_or_message(ref_link, m, ctx)
        if isinstance(got, str):
            outcomes["refused"] += 1
            continue
        outcomes["linked"] += 1
        for f, linked in zip(m.funcs + ctx.funcs, got.funcs, strict=True):
            kept = linked is f
            assert kept is not _holds_call(f.body)
            outcomes["kept" if kept else "rebuilt"] += 1
    assert min(outcomes.values()) > 0, outcomes
    assert [(w.heap_size, w.segment_size) for w in (link(*nested), link(*grown))] \
        == [(8, 128), (16, 64)]
    typecheck_module(link(*nested))
    assert run(link(*nested)).results == [Value(I32, 8)]


# -- run is step in a loop ----------------------------------------------


def _drive_step(m, backend, budget):
    """run() written out as a loop over step() and Config.terminal."""
    config = init_state(m, backend)
    trace, steps = [], 0
    while not config.terminal:
        if steps >= budget:
            return RunResult(trace, "budget", config, steps)
        ev = step(config)
        steps += 1
        if ev is not None:
            trace.append(ev)
    return RunResult(trace, "trap" if config.trapped else "ok", config, steps)


def _shape(res):
    """What a run leaves: outcome, trace, results, steps, and the depth of
    each remaining frame's operand stack and of its enclosing blocks."""
    return (res.outcome, res.trace, res.results, res.steps,
            [(len(f.operands), len(f.outer)) for f in res.config.frames])


def test_run_is_step_in_a_loop():
    from fixtures import UNSAFE_SUITE, trim_copy_program, user_record_program
    from mswasm.compiler import compile_module
    from mswasm.conformance import fuzz_module
    from mswasm.minic import parse_source, src_typecheck

    sources = [trim_copy_program(8), trim_copy_program(12, dst_cap=8),
               user_record_program(3), user_record_program(32),
               *UNSAFE_SUITE.values()]
    modules = [compile_module(src_typecheck(parse_source(t))) for t in sources]
    modules += [fuzz_module(seed) for seed in range(40)]
    for m in modules:
        for backend in ("tagged", "baggy"):
            res = run(m, backend, budget=200_000)
            assert res.steps > 0
            assert _shape(res) == _shape(_drive_step(m, backend, 200_000))


# The entry stores through a moved handle and calls function 1 from inside
# an inner `if` arm; both arms end where their enclosing block ends too,
# and function 1 returns implicitly right after its arm ends.  Then the
# entry frees the segment and reads it again, which traps on tagged; on
# baggy a freed slot stays readable and the body returns implicitly.
ARMS_AND_CALLS = ModuleDef((
    FuncDef((), (H, I32), (I32,), (
        bc.const(I32, 16), bc.new_segment(), bc.set_(0),
        bc.const(I32, 1),
        bc.if_([bc.const(I32, 2),
                bc.if_([bc.get(0), bc.const(I32, 4), bc.handle_add(),
                        bc.const(I32, 7), bc.segstore(I32),
                        bc.const(I32, 3), bc.call(1), bc.set_(1)],
                       [bc.nop()])],
               [bc.nop()]),
        bc.get(0), bc.segfree(),
        bc.get(0), bc.segload(I32))),
    FuncDef((I32,), (), (I32,), (
        bc.get(0),
        bc.if_([bc.get(0), bc.const(I32, 1), bc.binop(I32, "sub")],
               [bc.const(I32, 0)]))),
), (), 0, 64)


def test_run_stops_exactly_where_step_stops():
    """For every budget up to a run's length and one past it, run leaves
    what the loop over step leaves, down to each frame's stacks: an arm
    that ended just before the budget is resumed by the next step, not by
    this one."""
    from mswasm.conformance import fuzz_module

    typecheck_module(ARMS_AND_CALLS)
    for m in [ARMS_AND_CALLS] + [fuzz_module(seed) for seed in range(30)]:
        for backend in ("tagged", "baggy"):
            n = run(m, backend).steps
            for k in range(n + 2):
                assert _shape(run(m, backend, budget=k)) == \
                    _shape(_drive_step(m, backend, k)), (backend, k)


@pytest.mark.parametrize("backend", ["tagged", "baggy"])
def test_step_on_a_terminal_configuration_is_an_interp_bug(backend):
    """ARMS_AND_CALLS ends in a trap on tagged and returns on baggy."""
    config = init_state(ARMS_AND_CALLS, backend)
    while not config.terminal:
        step(config)
    assert config.trapped == (backend == "tagged")
    with pytest.raises(InterpBug, match="step on terminal configuration"):
        step(config)


@pytest.mark.parametrize("backend", ["tagged", "baggy"])
@pytest.mark.parametrize("body", [
    [bc.Instr("bogus")],
    [bc.const(I32, 2), bc.const(I32, 3), bc.Instr("binop", ty=I32, operator="pow")],
    [bc.get(0), bc.get(0), bc.Instr("binop", ty=H, operator="add")],
    [bc.const(I32, 2), bc.const(I32, 3), bc.Instr("binop", operator="add")],
], ids=["unknown-opcode", "i32.pow", "handle.add", "untyped-add"])
def test_malformed_instructions_are_interp_bugs(backend, body):
    """Code that no typechecked module holds is a bug in its maker, never
    a trap or a result."""
    with pytest.raises(InterpBug):
        run(module(body, locals_=(H,), results=()), backend)


EVERY_OPCODE = """
(module (segment 64) (heap 8)
  (func (local handle i32)
    nop
    i32.const 8 new_segment set 0
    get 0 i32.const 4 handle.add i32.const 7 i32.segstore
    get 0 i32.const 0 i32.const 0 slice i32.const 4 handle.add i32.segload
    call 1 set 1
    i32.const 0 get 1 i32.store
    i32.const 0 i32.load
    (if (then get 0 segfree))
    trap)
  (func (param i32) (result i32) get 0 i32.const 1 i32.add return))
"""


def _ops(body):
    for ins in body:
        yield ins.op
        yield from _ops(ins.then_body)
        yield from _ops(ins.else_body)


@pytest.mark.parametrize("backend", ["tagged", "baggy"])
def test_every_opcode_has_a_rule_on_both_backends(backend):
    """Each instruction of EVERY_OPCODE runs once, and between them they
    use every opcode: the loop has an arm for each."""
    m = parse_module(EVERY_OPCODE)
    typecheck_module(m)
    ops = [op for f in m.funcs for op in _ops(f.body)]
    assert set(ops) == set(OPCODES)
    res = run(m, backend)
    assert res.outcome == "trap" and res.steps == len(ops)
    assert [e.kind for e in res.trace] == ["salloc", "write", "read", "sfree", "trap"]
    assert res.config.heap[:4] == (8).to_bytes(4, "little")  # 7 read, plus 1


def test_run_counts_steps_up_to_the_budget():
    src = """
    (module (segment 0) (heap 0)
      (func (result i32) call 1)
      (func (result i32) call 1))
    """
    res = run(parse_module(src), budget=500)
    assert res.outcome == "budget" and res.steps == 500
    assert run(module([bc.const(I32, 0)])).steps == 2  # const, fall off the end


@pytest.mark.parametrize("backend", ["tagged", "baggy"])
@pytest.mark.parametrize("nops", [10, 10_000])
def test_frame_memory_does_not_grow_with_callee_length(backend, nops):
    """Two functions that call each other, each a call and then `nops`
    nops: every call opens a frame, and a frame runs its function's code
    in place.  A frame that copied its callee's body peaked at 321 MB for
    10,000 nops."""
    tail = (bc.nop(),) * nops
    m = ModuleDef((FuncDef((), (), (), (bc.call(1),) + tail),
                   FuncDef((), (), (), (bc.call(0),) + tail)), (), 0, 64)
    tracemalloc.start()
    try:
        res = run(m, backend, budget=4_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # locals only: a failed assert would print res, with every frame's code
    outcome, depth = res.outcome, len(res.config.frames)
    assert (outcome, depth) == ("budget", 4_001)  # the entry frame, one per step
    assert peak < 4_000_000, peak


NULL_READ = """
(module (segment 64) (heap 0)
  (func (local handle handle) (result i32)
    i32.const 8 new_segment set 1
    get 1 i32.const 1234 i32.segstore
    get 0 i32.segload))
"""


@pytest.mark.parametrize("backend", ["tagged", "baggy"])
def test_null_handle_read_traps(backend):
    """A read through a handle local that was never set traps before it
    reaches memory.  On baggy, null's view (base 0, id 0) names the first
    slot, so a trace that showed the read would relate to that segment
    and be judged safe."""
    m = parse_module(NULL_READ)
    typecheck_module(m)
    res = run(m, backend)
    assert res.outcome == "trap" and res.results == []
    assert [type(e) for e in res.trace] == [SAllocEv, WriteEv, TrapEv]


@pytest.mark.parametrize("backend", ["tagged", "baggy"])
@pytest.mark.parametrize("use", ["get 0 i32.const 7 i32.segstore",
                                 "get 0 i64.segload set 2",
                                 "get 0 handle.segload set 1",
                                 "get 0 segfree"])
def test_null_handle_store_load_and_free_trap(backend, use):
    m = parse_module(f"""
    (module (segment 64) (heap 0)
      (func (local handle handle i64)
        i32.const 16 new_segment set 1
        {use}))
    """)
    typecheck_module(m)
    res = run(m, backend)
    assert res.outcome == "trap"
    assert [type(e) for e in res.trace] == [SAllocEv, TrapEv]


# -- float arithmetic at the edges ----------------------------------------

_FLT_MAX = 3.4028234663852886e38
_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("body,expect", [
    # past the largest finite f32: an infinity of the result's sign
    ("f32.const 3e38 f32.const 10.0 f32.mul", _INF),
    ("f32.const 3e38 f32.const 3e38 f32.add", _INF),
    ("f32.const 3e38 f32.const 0.001 f32.div", _INF),
    ("f32.const -3e38 f32.const 3e38 f32.sub", -_INF),
    ("f32.const -3e38 f32.const 10.0 f32.mul", -_INF),
    # a sum that rounds back to the largest finite f32 stays finite
    (f"f32.const {_FLT_MAX!r} f32.const 1e30 f32.add", _FLT_MAX),
    # division by zero
    ("f32.const 2.0 f32.const 0.0 f32.div", _INF),
    ("f32.const -2.0 f32.const 0.0 f32.div", -_INF),
    ("f32.const 2.0 f32.const -0.0 f32.div", -_INF),
    ("f32.const 0.0 f32.const 0.0 f32.div", _NAN),
    ("f64.const 2.0 f64.const 0.0 f64.div", _INF),
    ("f64.const -2.0 f64.const 0.0 f64.div", -_INF),
    ("f64.const 2.0 f64.const -0.0 f64.div", -_INF),
    ("f64.const 0.0 f64.const 0.0 f64.div", _NAN),
    ("f64.const 1e308 f64.const 10.0 f64.mul", _INF),
])
def test_float_overflow_and_division_by_zero_follow_wasm(body, expect):
    ty = body[:3]
    m = parse_module(f"(module (segment 0) (heap 0) (func (result {ty}) {body}))")
    typecheck_module(m)
    res = run(m)
    assert res.outcome == "ok"
    got = res.results[0].v
    if expect != expect:
        assert got != got
    else:
        assert got == expect
