import re

import pytest

from mswasm import bytecode as bc
from mswasm.bytecode import FuncDef, FuncType, ModuleDef, ValueType, parse_module
from mswasm.interp import InitError, init_state
from mswasm.typecheck import (
    TypeError_,
    TypingContext,
    UNREACHABLE,
    type_body,
    type_instr,
    typecheck_module,
)

I32, I64, H = ValueType.I32, ValueType.I64, ValueType.HANDLE


def ctx(locals_=(), functions=(), results=()):
    return TypingContext(list(locals_), list(functions), tuple(results))


def test_segload_arrow():
    assert type_instr(ctx(), bc.segload(I32)) == ([H], [I32])


def test_slice_arrow():
    # handle first (deepest), then the two offsets on top of it
    assert type_instr(ctx(), bc.slice_()) == ([H, I32, I32], [H])


def test_new_segment_arrow():
    assert type_instr(ctx(), bc.new_segment()) == ([I32], [H])


def test_handle_add_arrow():
    assert type_instr(ctx(), bc.handle_add()) == ([H, I32], [H])


def test_load_of_handle_rejected():
    with pytest.raises(TypeError_) as e:
        type_instr(ctx(), bc.load(H))
    assert e.value.kind == "handle-forging-load"


def test_store_of_handle_rejected():
    with pytest.raises(TypeError_) as e:
        type_instr(ctx(), bc.store(H))
    assert e.value.kind == "handle-forging-store"


def test_const_of_handle_rejected():
    with pytest.raises(TypeError_):
        type_instr(ctx(), bc.const(H, 0))


def test_binop_on_handle_rejected():
    with pytest.raises(TypeError_) as e:
        type_instr(ctx(), bc.binop(H, "add"))
    assert e.value.kind == "binop-on-handle"


@pytest.mark.parametrize("ins", [bc.trap(), bc.return_(), bc.if_([], [])],
                         ids=["trap", "return", "if"])
def test_type_instr_leaves_trap_return_and_if_to_type_body(ins):
    """No fixed arrow: type_body types these itself."""
    with pytest.raises(TypeError_) as e:
        type_instr(ctx(results=[I32]), ins)
    assert e.value.kind == "bad-opcode"


@pytest.mark.parametrize("ty,literal", [
    (I32, 1 << 31), (I32, -(1 << 31) - 1), (I32, 99999999999),
    (I64, 1 << 63), (I64, -(1 << 63) - 1),
])
def test_api_built_integer_const_outside_its_type_is_rejected(ty, literal):
    with pytest.raises(TypeError_) as e:
        type_instr(ctx(), bc.const(ty, literal))
    assert e.value.kind == "literal-range"
    m = ModuleDef((FuncDef((), (), (ty,), (bc.const(ty, literal),)),), (), 0, 0)
    with pytest.raises(TypeError_, match="literal-range"):
        typecheck_module(m)
    half = 1 << (31 if ty is I32 else 63)
    for edge in (-half, half - 1):
        assert type_instr(ctx(), bc.const(ty, edge)) == ([], [ty])


F32, F64 = ValueType.F32, ValueType.F64


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
    assert type_instr(ctx(), bc.binop(I64, "lt_s")) == ([I64, I64], [I32])


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


F64 = ValueType.F64
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
