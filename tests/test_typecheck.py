import re
from collections import Counter
from dataclasses import replace

import pytest

from mswasm import bytecode as bc
from mswasm.bytecode import OPCODES, FuncDef, FuncType, ModuleDef, ValueType, parse_module
from mswasm.interp import InitError, init_state
from mswasm.typecheck import (
    TypeError_,
    TypingContext,
    UNREACHABLE,
    type_body,
    typecheck_module,
)

from oracles import ref_typecheck_module

I32, I64, H = ValueType.I32, ValueType.I64, ValueType.HANDLE
F32, F64 = ValueType.F32, ValueType.F64


def ctx(locals_=(), functions=(), results=()):
    return TypingContext(list(locals_), list(functions), tuple(results))


def pin_arrow(ins, consumes, produces, c=None):
    """ins types the exact operand stack `consumes` to `produces`, leaves
    what lies below its operands alone, and finds a stack one operand
    short a stack-underflow."""
    c = c or ctx()
    assert type_body(c, [ins], consumes) == produces
    assert type_body(c, [ins], [F64, *consumes]) == [F64, *produces]
    if consumes:
        with pytest.raises(TypeError_) as e:
            type_body(c, [ins], consumes[1:])
        assert str(e.value) == f"stack-underflow: need {consumes}, have {consumes[1:]}"


def test_segload_arrow():
    pin_arrow(bc.segload(I32), [H], [I32])


def test_slice_arrow():
    # handle first (deepest), then the two offsets on top of it
    pin_arrow(bc.slice_(), [H, I32, I32], [H])


def test_new_segment_arrow():
    pin_arrow(bc.new_segment(), [I32], [H])


def test_handle_add_arrow():
    pin_arrow(bc.handle_add(), [H, I32], [H])


@pytest.mark.parametrize("ins,consumes,produces", [
    pytest.param(bc.nop(), [], [], id="nop"),
    pytest.param(bc.const(I64, -3), [], [I64], id="i64.const"),
    pytest.param(bc.get(1), [], [H], id="get"),
    pytest.param(bc.set_(1), [H], [], id="set"),
    pytest.param(bc.binop(I32, "mul"), [I32, I32], [I32], id="i32.mul"),
    pytest.param(bc.binop(F32, "div"), [F32, F32], [F32], id="f32.div"),
    pytest.param(bc.binop(F64, "sub"), [F64, F64], [F64], id="f64.sub"),
    pytest.param(bc.binop(F32, "lt"), [F32, F32], [I32], id="f32.lt"),
    pytest.param(bc.load(F64), [I32], [F64], id="f64.load"),
    pytest.param(bc.store(F32), [I32, F32], [], id="f32.store"),
    pytest.param(bc.call(0), [I32, H], [I32], id="call"),
    pytest.param(bc.call(1), [], [], id="call-nullary"),
    pytest.param(bc.segstore(H), [H, H], [], id="handle.segstore"),
    pytest.param(bc.segfree(), [H], [], id="segfree"),
])
def test_every_other_fixed_arrow(ins, consumes, produces):
    pin_arrow(ins, consumes, produces,
              ctx([I32, H], [FuncType((I32, H), (I32,)), FuncType((), ())]))


def test_load_of_handle_rejected():
    with pytest.raises(TypeError_) as e:
        type_body(ctx(), [bc.load(H)], [I32])
    assert str(e.value) == "handle-forging-load: handle.load from flat heap"


def test_store_of_handle_rejected():
    with pytest.raises(TypeError_) as e:
        type_body(ctx(), [bc.store(H)], [I32, H])
    assert str(e.value) == "handle-forging-store: handle.store to flat heap"


def test_const_of_handle_rejected():
    with pytest.raises(TypeError_) as e:
        type_body(ctx(), [bc.const(H, 0)], [])
    assert str(e.value) == "const-of-handle: no handle literals"


def test_binop_on_handle_rejected():
    with pytest.raises(TypeError_) as e:
        type_body(ctx(), [bc.binop(H, "add")], [H, H])
    assert str(e.value) == "binop-on-handle: arithmetic on handle values"


@pytest.mark.parametrize("ins,consumes,out", [
    (bc.trap(), [], UNREACHABLE),
    (bc.return_(), [I32], UNREACHABLE),
    (bc.if_([], []), [I32], []),
], ids=["trap", "return", "if"])
def test_type_body_types_trap_return_and_if(ins, consumes, out):
    """The rules without a fixed arrow: each is pinned by its result from
    the exact operand stack, and by the underflow of one operand short."""
    c = ctx(results=[I32])
    assert type_body(c, [ins], consumes) == out
    if consumes:
        with pytest.raises(TypeError_) as e:
            type_body(c, [ins], [])
        assert str(e.value) == f"stack-underflow: need {consumes}, have []"


def test_an_opcode_outside_the_instruction_set_is_a_bad_opcode():
    with pytest.raises(TypeError_) as e:
        type_body(ctx(), [bc.Instr("jump")], [I32])
    assert str(e.value) == "bad-opcode: jump"


@pytest.mark.parametrize("ty,literal", [
    (I32, 1 << 31), (I32, -(1 << 31) - 1), (I32, 99999999999),
    (I64, 1 << 63), (I64, -(1 << 63) - 1),
])
def test_api_built_integer_const_outside_its_type_is_rejected(ty, literal):
    with pytest.raises(TypeError_) as e:
        type_body(ctx(), [bc.const(ty, literal)], [])
    assert e.value.kind == "literal-range"
    m = ModuleDef((FuncDef((), (), (ty,), (bc.const(ty, literal),)),), (), 0, 0)
    with pytest.raises(TypeError_, match="literal-range"):
        typecheck_module(m)
    half = 1 << (31 if ty is I32 else 63)
    for edge in (-half, half - 1):
        assert type_body(ctx(), [bc.const(ty, edge)], []) == [ty]


@pytest.mark.parametrize("body,kind", [
    # interp.run raised OverflowError from struct.pack on the store
    ((bc.const(I32, 8), bc.new_segment(), bc.const(F32, 1e39), bc.segstore(F32)),
     "literal-range: f32.const 1e+39"),
    ((bc.const(F32, 0.1),), "literal-range: f32.const 0.1"),
    ((bc.const(I32, 1.5),), "literal-type: i32.const 1.5"),  # ran to i32:1.5
    ((bc.const(I32, True),), "literal-type: i32.const True"),  # ran to i32:True
    ((bc.const(I64, 2.0),), "literal-type: i64.const 2.0"),
    ((bc.const(F64, 1),), "literal-type: f64.const 1"),
])
def test_api_built_const_that_is_no_value_of_its_type_is_rejected(body, kind):
    m = ModuleDef((FuncDef((), (), (), body + (bc.return_(),)),), (), 0, 64)
    with pytest.raises(TypeError_, match=re.escape(kind)):
        typecheck_module(m)


def test_parsed_literals_are_values_of_their_types():
    m = parse_module(
        "(module (segment 0) (heap 0) (func"
        " i32.const 4294967295 i64.const -9223372036854775808"
        " f32.const 0.1 f32.const 3.4028234663852886e38 f32.const inf"
        " f32.const -inf f32.const nan f64.const 0.1 f64.const 1e308"
        " return))")
    typecheck_module(m)
    typecheck_module(parse_module(bc.print_module(m)))


def test_i64_const_under_new_segment_is_a_type_mismatch():
    m = parse_module("(module (segment 8) (heap 0)"
                     " (func (result handle) i64.const 1 new_segment))")
    with pytest.raises(TypeError_, match="type-mismatch"):
        typecheck_module(m)


@pytest.mark.parametrize("ins", [bc.get(5), bc.set_(5), bc.call(9)])
def test_api_built_index_out_of_range_is_a_bad_index(ins):
    """The typechecker is the one judge of indices: parse_module reads an
    index out of range as written, so the module's text fails the same
    check as the module built through the API."""
    body = (bc.const(I32, 0),) if ins.op == "set" else ()
    m = ModuleDef((FuncDef((), (I32,), (), body + (ins,)),), (), 0, 0)
    for module in (m, parse_module(bc.print_module(m))):
        with pytest.raises(TypeError_, match=f"bad-index: {ins.op} {ins.idx}"):
            typecheck_module(module)


def test_an_index_out_of_range_after_return_is_neither_typed_nor_run():
    """Code after an unconditional return is accepted without typing, so
    its indices are not judged; it never runs."""
    from mswasm.interp import Value, run

    m = parse_module("(module (segment 0) (heap 0)"
                     " (func (result i32) i32.const 7 return get 99 call 9))")
    typecheck_module(m)
    res = run(m)
    assert (res.outcome, res.results) == ("ok", [Value(I32, 7)])


def test_comparison_produces_i32():
    pin_arrow(bc.binop(I64, "lt_s"), [I64, I64], [I32])


def test_body_alloc_composition():
    out = type_body(ctx(), [bc.const(I32, 8), bc.new_segment()], [])
    assert out == [H]


def test_body_local_arith():
    out = type_body(ctx(locals_=[I32]), [bc.get(0), bc.const(I32, 1),
                                         bc.binop(I32, "add")], [])
    assert out == [I32]


def test_body_underflow():
    with pytest.raises(TypeError_) as e:
        type_body(ctx(), [bc.new_segment()], [])
    assert e.value.kind == "stack-underflow"


def test_if_arms_must_agree():
    body = [bc.const(I32, 1),
            bc.if_((bc.const(I32, 1),), (bc.const(I64, 2),))]
    with pytest.raises(TypeError_) as e:
        type_body(ctx(), body, [])
    assert e.value.kind == "if-arm-mismatch"


def test_code_after_trap_unchecked():
    out = type_body(ctx(), [bc.trap(), bc.new_segment(), bc.new_segment()], [])
    assert out is UNREACHABLE


def test_return_requires_result_types():
    c = ctx(results=(I32,))
    assert type_body(c, [bc.const(I32, 0), bc.return_()], []) is UNREACHABLE
    with pytest.raises(TypeError_):
        type_body(c, [bc.return_()], [])


def test_unreachable_if_arm_adopts_other():
    body = [bc.const(I32, 1), bc.if_((bc.trap(),), (bc.const(I32, 2),))]
    assert type_body(ctx(), body, []) == [I32]


def test_module_entry_must_be_paramless():
    """A function 0 that takes a parameter is well-typed code; init_state
    alone rejects the module as unrunnable."""
    m = ModuleDef((FuncDef((I32,), (), (I32,), (bc.get(0),)),), (), 0, 0)
    typecheck_module(m)
    with pytest.raises(InitError, match="entry function must take no parameters"):
        init_state(m)


def test_empty_module_has_no_entry():
    m = ModuleDef((), (), 0, 0)
    typecheck_module(m)
    with pytest.raises(InitError, match="no entry function"):
        init_state(m)


def test_store_handle_to_linear_memory_rejected_in_module():
    m = parse_module(
        "(module (segment 64) (heap 64)"
        " (func (local handle) (result i32)"
        "   i32.const 0 get 0 handle.store i32.const 0))")
    with pytest.raises(TypeError_):
        typecheck_module(m)


def test_compiled_corpus_is_well_typed():
    from mswasm.compiler import compile_module
    from mswasm.conformance import fuzz_source
    from mswasm.minic import parse_source, src_typecheck

    for seed in range(25):
        tm = src_typecheck(parse_source(fuzz_source(seed, violations=bool(seed % 2))))
        typecheck_module(compile_module(tm))


def test_call_types_threaded():
    callee = FuncType((I32,), (H,))
    out = type_body(ctx(functions=[callee]), [bc.const(I32, 3), bc.call(0)], [])
    assert out == [H]


def test_one_shared_instruction_is_typed_in_each_function():
    """A parse shares one `get 0` between two functions whose local 0 has
    different types: each function types it by its own locals."""
    m = parse_module("(module (segment 64) (heap 0)"
                     " (func (local i32) (result i32) get 0)"
                     " (func (local handle) get 0 segfree)"
                     " (func (local i32) (result i32) get 0))")
    shared = m.funcs[0].body[0]
    assert m.funcs[1].body[0] is shared and m.funcs[2].body[0] is shared
    typecheck_module(m)
    flipped = ModuleDef((m.funcs[1], m.funcs[0]), (), 0, 64)
    typecheck_module(flipped)


_ADD, _ONE = bc.binop(I32, "add"), bc.const(I32, 1)


@pytest.mark.parametrize("locals_,results,body,kind,msg", [
    # the second use of the one `i32.add` finds one operand
    ((), (I32,), (_ONE, _ONE, _ADD, _ADD), "stack-underflow",
     "need [<ValueType.I32: 'i32'>, <ValueType.I32: 'i32'>], have [<ValueType.I32: 'i32'>]"),
    ((H,), (I32,), (bc.get(0), _ONE, _ADD), "type-mismatch",
     "need [<ValueType.I32: 'i32'>, <ValueType.I32: 'i32'>], "
     "have [<ValueType.HANDLE: 'handle'>, <ValueType.I32: 'i32'>]"),
    ((), (I32,), (_ONE, bc.if_((_ONE,), ()), _ONE), "if-arm-mismatch",
     "then gives [<ValueType.I32: 'i32'>], else gives []"),
    ((), (I32,), (bc.const(F64, 1.5), bc.return_()), "type-mismatch",
     "need [<ValueType.I32: 'i32'>], have [<ValueType.F64: 'f64'>]"),
    ((), (I32,), (bc.return_(),), "stack-underflow",
     "need [<ValueType.I32: 'i32'>], have []"),
    ((I32,), (), (bc.get(0), bc.get(0), bc.segfree()), "type-mismatch",
     "need [<ValueType.HANDLE: 'handle'>], have [<ValueType.I32: 'i32'>]"),
    # API-built only: parse_module rejects the word `i32.pow` first
    ((), (I32,), (_ONE, _ONE, bc.Instr("binop", ty=I32, operator="pow")), "bad-operator",
     "i32.pow"),
])
def test_ill_typed_bodies_keep_their_kind_and_message(locals_, results, body, kind, msg):
    with pytest.raises(TypeError_) as e:
        type_body(ctx(locals_, results=results), body, [])
    assert (e.value.kind, str(e.value)) == (kind, f"{kind}: {msg}")
    with pytest.raises(TypeError_) as e:
        typecheck_module(ModuleDef((FuncDef((), tuple(locals_), tuple(results), body),), (), 0, 0))
    assert str(e.value) == f"module: func 0: {kind}: {msg}"


# One row per opcode that takes operands: the instruction, a wrongly typed
# stack, and the two messages the arrow-based typer gave, with each type
# written by its name (expanded by `_spelled`).  Locals are [i32] and the
# function returns [i32]; function 0 is [i32 handle] -> [i32].
_FAILURES = [
    (bc.set_(0), [H], "need [i32], have []", "need [i32], have [handle]"),
    (bc.binop(I32, "add"), [I32, I64],
     "need [i32, i32], have []", "need [i32, i32], have [i32, i64]"),
    (bc.load(F32), [H], "need [i32], have []", "need [i32], have [handle]"),
    (bc.store(I64), [I32, I32], "need [i32, i64], have []", "need [i32, i64], have [i32, i32]"),
    (bc.if_((), ()), [I64], "need [i32], have []", "need [i32], have [i64]"),
    (bc.call(0), [H, I32],
     "need [i32, handle], have []", "need [i32, handle], have [handle, i32]"),
    (bc.return_(), [F64], "need [i32], have []", "need [i32], have [f64]"),
    (bc.segload(I32), [I32], "need [handle], have []", "need [handle], have [i32]"),
    (bc.segstore(F64), [H, F32],
     "need [handle, f64], have []", "need [handle, f64], have [handle, f32]"),
    (bc.slice_(), [I32, I32, I32],
     "need [handle, i32, i32], have []", "need [handle, i32, i32], have [i32, i32, i32]"),
    (bc.new_segment(), [H], "need [i32], have []", "need [i32], have [handle]"),
    (bc.handle_add(), [I32, I32],
     "need [handle, i32], have []", "need [handle, i32], have [i32, i32]"),
    (bc.segfree(), [I32], "need [handle], have []", "need [handle], have [i32]"),
]


def _spelled(msg: str) -> str:
    """msg with each type name as a list of ValueTypes prints it."""
    return re.sub(r"\b(i32|i64|f32|f64|handle)\b",
                  lambda t: f"<ValueType.{t[1].upper()}: '{t[1]}'>", msg)


def test_failure_table_names_every_opcode_that_takes_operands():
    takes_none = {"nop", "trap", "const", "get"}
    assert sorted(ins.op for ins, *_ in _FAILURES) == sorted(set(OPCODES) - takes_none)


@pytest.mark.parametrize("ins,wrong,underflow,mismatch", _FAILURES,
                         ids=[ins.op for ins, *_ in _FAILURES])
def test_each_opcode_rejects_an_empty_and_a_wrongly_typed_stack(ins, wrong, underflow, mismatch):
    c = ctx([I32], [FuncType((I32, H), (I32,))], [I32])
    for stack, kind, msg in ([], "stack-underflow", underflow), (wrong, "type-mismatch", mismatch):
        with pytest.raises(TypeError_) as e:
            type_body(c, [ins], stack)
        assert (e.value.kind, str(e.value)) == (kind, f"{kind}: {_spelled(msg)}")


def _outcome(check, m):
    """None for a well-typed module, else the error's kind and message."""
    try:
        check(m)
    except TypeError_ as e:
        return e.kind, str(e)
    return None


def _one_edit_bodies(body):
    """Each body one deletion or one swap of neighbours away from body,
    at any depth of its ifs."""
    for i, ins in enumerate(body):
        yield body[:i] + body[i + 1:]
        if i + 1 < len(body):
            yield body[:i] + (body[i + 1], ins) + body[i + 2:]
        if ins.op == "if":
            for arm in ("then_body", "else_body"):
                for edited in _one_edit_bodies(getattr(ins, arm)):
                    yield body[:i] + (replace(ins, **{arm: edited}),) + body[i + 1:]


def _typer_corpus():
    """fuzz_module seeds 0-299; fuzz_victim seeds 0-99, alone and linked
    with their attackers as `mswasm fuzz --attacker` pairs them; and the
    compiled fuzz_source seeds 0-99."""
    from mswasm.compiler import compile_module
    from mswasm.conformance import fuzz_attacker, fuzz_module, fuzz_source, fuzz_victim
    from mswasm.interp import link
    from mswasm.minic import parse_source, src_typecheck

    yield from map(fuzz_module, range(300))
    for seed in range(100):
        victim = fuzz_victim(seed)
        yield victim
        yield link(victim, fuzz_attacker(victim, seed * 31 + 1))
    for seed in range(100):
        yield compile_module(src_typecheck(parse_source(fuzz_source(seed, violations=bool(seed % 2)))))


def test_typecheck_module_agrees_with_the_arrow_based_typer():
    """Each corpus module, and each module one edit of one body away from
    it, is well-typed for both typers or fails both with the same kind
    and message."""
    kinds = Counter()
    for m in _typer_corpus():
        for k, f in enumerate(m.funcs):
            for body in (f.body, *_one_edit_bodies(f.body)):
                mutant = replace(m, funcs=m.funcs[:k] + (replace(f, body=body),) + m.funcs[k + 1:])
                got = _outcome(typecheck_module, mutant)
                assert got == _outcome(ref_typecheck_module, mutant), bc.print_module(mutant)
                kinds.update(re.findall(r"func \d+: ([a-z-]+)", got[1]) if got else ["ok"])
    assert {"ok", "stack-underflow", "type-mismatch", "result-mismatch",
            "if-arm-mismatch"} <= set(kinds), kinds
