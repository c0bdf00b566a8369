import pytest

from mswasm import bytecode as bc
from mswasm.bytecode import ValueType
from mswasm.compiler import Layout, compile_module, compile_type
from mswasm.interp import SAllocEv, run
from mswasm.minic import (
    INT,
    ArrayType,
    PtrType,
    StructType,
    SrcTypeError,
    parse_source,
    src_run,
    src_typecheck,
)
from mswasm.typecheck import typecheck_module

I32, H = ValueType.I32, ValueType.HANDLE


def compile_text(text):
    return compile_module(src_typecheck(parse_source(text)))


def main_body(text):
    return list(compile_text(text).funcs[0].body)


USER = """
module {
  struct User { name: array 32 int, id: int }
  fn main() -> int {
    var (u: ptr<struct User>);
    u := malloc(struct User);
    0
  }
  heap 0
}
"""


def test_layout_sizes():
    tm = src_typecheck(parse_source(USER))
    layout = Layout(tm.mod)
    assert layout.sizeof(INT) == 4
    assert layout.sizeof(PtrType(INT)) == 16
    assert layout.sizeof(ArrayType(32, INT)) == 128
    assert layout.sizeof(StructType("User")) == 132


def test_field_offsets_cover_exactly_the_field():
    tm = src_typecheck(parse_source(USER))
    layout = Layout(tm.mod)
    assert layout.field_offsets("User", "name") == (0, 4)    # bound 132-4 = 128
    assert layout.field_offsets("User", "id") == (128, 128)  # bound 132-128 = 4


def test_field_offsets_id():
    tm = src_typecheck(parse_source(USER))
    layout = Layout(tm.mod)
    o1, o2 = layout.field_offsets("User", "id")
    assert o1 == 128
    assert layout.sizeof(StructType("User")) - o2 == 4  # sliced bound = field size


def test_pointer_fields_are_16_aligned():
    text = """
    module {
      struct Mix { a: int, p: ptr<int>, b: int }
      fn main() -> int { var (m: ptr<struct Mix>); m := malloc(struct Mix); 0 }
      heap 0
    }
    """
    tm = src_typecheck(parse_source(text))
    layout = Layout(tm.mod)
    o1, _ = layout.field_offsets("Mix", "p")
    assert o1 % 16 == 0
    assert layout.sizeof(StructType("Mix")) % 16 == 0


def test_ptr_arith_compiles_to_scaled_handle_add():
    body = main_body("""
    module {
      fn main() -> int {
        var (p: ptr<array int>, x: int);
        p := malloc<int>(4);
        x := *(p + 2);
        x
      }
      heap 0
    }""")
    i = body.index(bc.handle_add())
    assert body[i - 2:i] == [bc.const(I32, 4), bc.binop(I32, "mul")]
    assert body[i + 1] == bc.segload(I32)


def test_malloc_array_compiles_to_scaled_new_segment():
    body = main_body("""
    module {
      fn main() -> int { var (p: ptr<array int>); p := malloc<int>(10); 0 }
      heap 0
    }""")
    i = body.index(bc.new_segment())
    assert body[i - 3:i] == [bc.const(I32, 10), bc.const(I32, 4),
                             bc.binop(I32, "mul")]


@pytest.mark.parametrize("text", [
    """module {
      struct Big { a: array 536870912 int }
      fn main() -> int { var (b: ptr<struct Big>); b := malloc(struct Big); 0 }
      heap 0
    }""",
    "module { fn main() -> int { var (x: int); x := 99999999999; x } heap 0 }",
])
def test_a_constant_past_i32_is_a_source_type_error(text):
    """A struct of 2^31 bytes or more, or a literal past 2^31 - 1, has no
    i32 constant: the compiler says so rather than emit one that no store
    could take."""
    tm = src_typecheck(parse_source(text))
    with pytest.raises(SrcTypeError, match="does not fit in i32"):
        compile_module(tm)


def test_struct_field_compiles_to_slice():
    body = main_body("""
    module {
      struct User { name: array 32 int, id: int }
      fn main() -> int {
        var (u: ptr<struct User>, nm: ptr<array 32 int>);
        u := malloc(struct User);
        nm := u.name;
        0
      }
      heap 0
    }""")
    i = body.index(bc.slice_())
    assert body[i - 2:i] == [bc.const(I32, 0), bc.const(I32, 4)]


def test_deref_compiles_to_segload():
    body = main_body("""
    module {
      fn main() -> int {
        var (p: ptr<int>, x: int);
        p := malloc(int);
        x := *(p);
        x
      }
      heap 0
    }""")
    assert bc.segload(I32) in body


def test_free_compiles_to_segfree():
    body = main_body("""
    module {
      fn main() -> int { var (p: ptr<int>); p := malloc(int); free(p); 0 }
      heap 0
    }""")
    assert bc.segfree() in body


def test_int_as_pointer_coercion_sequence():
    m = compile_text("""
    module {
      fn main() -> int { var (p: ptr<int>); p := 0; 0 }
      heap 0
    }""")
    body = list(m.funcs[0].body)
    # the coerced zero is dropped and the never-written handle local read
    i = next(k for k, ins in enumerate(body) if ins.op == "get")
    assert body[i - 1].op == "set"
    typecheck_module(m)


def test_compiled_module_is_well_typed():
    m = compile_text(USER)
    typecheck_module(m)  # raises TypeError_ if not


def test_layout_cell_byte_agreement():
    """The interpreter's cell offsets and the compiled byte offsets name
    the same locations, field by field."""
    text = """
    module {
      struct Mix { a: int, p: ptr<int>, b: array 3 int }
      fn main() -> int { var (); 0 }
      heap 0
    }
    """
    layout = parse_source(text).mod.layout
    cells = layout.cell_bytes(StructType("Mix"))
    for fname in ("a", "p", "b"):
        f = layout.field("Mix", fname)
        o1, _ = layout.field_offsets("Mix", fname)
        assert cells[f.cell] == o1 == f.offset
    # the array's elements are 4 bytes apart, and the struct has 5 cells
    assert cells[2:] == (o1, o1 + 4, o1 + 8) and len(cells) == 5


def test_bound_tightness_at_runtime():
    """Every handle produced by a compiled field access has exactly the
    field's byte size as its bound."""
    text = """
    module {
      struct User { name: array 32 int, id: int }
      fn main() -> int {
        var (u: ptr<struct User>, nm: ptr<array 32 int>, idp: ptr<int>);
        u := malloc(struct User);
        nm := u.name;
        idp := u.id;
        *(idp) := 7;
        *(nm + 4) := 1;
        *(idp)
      }
      heap 0
    }
    """
    tm = src_typecheck(parse_source(text))
    m = compile_module(tm)
    res = run(m)
    assert res.outcome == "ok"
    writes = [e for e in res.trace if e.kind == "write"]
    name_write, id_write = writes[1], writes[0]
    assert id_write.handle.bound == 4
    assert name_write.handle.bound == 128


def test_every_fuzzed_program_compiles_well_typed():
    from mswasm.conformance import fuzz_source
    for seed in range(30):
        m = compile_text(fuzz_source(seed, violations=bool(seed % 2)))
        typecheck_module(m)


def test_generated_code_never_touches_linear_memory():
    from mswasm.conformance import fuzz_source

    def scan(body):
        for ins in body:
            assert ins.op not in ("load", "store")
            if ins.op == "if":
                scan(ins.then_body)
                scan(ins.else_body)

    for seed in range(20):
        m = compile_text(fuzz_source(seed, violations=False))
        for f in m.funcs:
            scan(f.body)


def test_identity_function_module():
    m = compile_text("""
    module {
      fn main() -> int { var (); let y = ident(3) in y }
      fn ident(x: int) -> int { var (); x }
      heap 0
    }""")
    typecheck_module(m)
    res = run(m)
    assert res.outcome == "ok"
    assert res.results[0].v == 3


@pytest.mark.parametrize("expr,quotient", [
    ("(0 - 7) / 2", -3), ("7 / (0 - 2)", -3), ("(0 - 7) / (0 - 2)", 3),
    ("7 / (2 - 2)", None),
])
def test_source_and_compiled_division_agree(expr, quotient):
    """Both truncate toward zero, as i32.div_s does, and both trap on a
    zero divisor."""
    tm = src_typecheck(parse_source(
        f"module {{ fn main() -> int {{ var (); {expr} }} heap 0 }}"))
    sres, tres = src_run(tm), run(compile_module(tm))
    if quotient is None:
        assert (sres.outcome, tres.outcome) == ("trap", "trap")
        assert sres.result is None and tres.results == []
    else:
        assert (sres.outcome, tres.outcome) == ("ok", "ok")
        assert sres.result.n == tres.results[0].v == quotient
