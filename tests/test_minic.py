import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import NESTED_CONSTRUCTS, nested_source, straight_line_source, with_frames
from mswasm.bytecode import MAX_NESTING
from mswasm.minic import (
    INT,
    ArrayType,
    PtrType,
    SAFE,
    Safe,
    SInt,
    SPtr,
    SrcAlloc,
    SrcFree,
    SrcParseError,
    SrcRead,
    SrcTypeError,
    SrcUnsafe,
    SrcWrite,
    StructType,
    TIntAsPtr,
    parse_source,
    src_ms,
    src_relate,
    src_run,
    src_typecheck,
)


def load(text):
    return src_typecheck(parse_source(text))


def run_text(text, **kw):
    return src_run(load(text), **kw)


SIMPLE = """
module {
  fn main() -> int {
    var (x: int);
    x := 1 + 2;
    x
  }
  heap 0
}
"""


def test_parse_and_run_simple():
    res = run_text(SIMPLE)
    assert res.outcome == "ok" and res.result == SInt(3)
    assert res.trace == []


def test_typecheck_int_fn():
    load("""
    module {
      fn main() -> int { var (); let y = f(1) in y }
      fn f(x: int) -> int { var (); x + 1 }
      heap 0
    }""")


def test_deref_of_int_is_well_typed():
    tm = load("""
    module { fn main() -> int { var (x: int); x := *(7); x } heap 8 }
    """)
    # the int-as-pointer use is explicit in the typed tree
    assert tm is not None


def test_unknown_function_rejected():
    with pytest.raises(SrcTypeError):
        load("module { fn main() -> int { var (); let y = g(1) in y } heap 0 }")


def test_main_required():
    with pytest.raises(SrcTypeError):
        load("module { fn f(x: int) -> int { var (); x } heap 0 }")


def test_branch_type_mismatch_rejected():
    with pytest.raises(SrcTypeError):
        load("""
        module {
          fn main() -> int {
            var (p: ptr<array int>);
            p := if 1 { malloc<int>(2) } else { malloc(struct Nope) };
            0
          }
          heap 0
        }""")


ALLOC_PROGRAM = """
module {
  fn main() -> int {
    var (p: ptr<array int>, x: int);
    p := malloc<int>(3);
    *(p + 1) := 9;
    x := *(p + 1);
    free(p);
    x
  }
  heap 0
}
"""


def test_malloc_array_event_shape():
    res = run_text(ALLOC_PROGRAM)
    assert res.result == SInt(9)
    alloc = res.trace[0]
    assert isinstance(alloc, SrcAlloc)
    assert alloc.ptr == SPtr(0, 0, 3, INT, 0)
    assert [type(e) for e in res.trace] == [SrcAlloc, SrcWrite, SrcRead, SrcFree]


def test_unsafe_write_succeeds_in_source():
    res = run_text("""
    module {
      fn main() -> int {
        var (p: ptr<array int>, q: ptr<array int>);
        p := malloc<int>(2);
        q := malloc<int>(2);
        *(p + 3) := 1;
        *(q + 1)
      }
      heap 0
    }""")
    # lands inside q's region: no trap, the write is simply performed
    assert res.outcome == "ok" and res.result == SInt(1)
    write = res.trace[2]
    assert isinstance(write, SrcWrite) and write.v.addr == 3


def test_forged_write_event_carries_raw_int():
    res = run_text("""
    module {
      fn main() -> int { var (x: int); *(3) := 1; *(3) } heap 8
    }""")
    ev = res.trace[0]
    assert isinstance(ev, SrcWrite) and ev.v == SInt(3)
    assert res.outcome == "ok"


def test_forged_access_outside_heap_is_host_error_after_event():
    res = run_text("module { fn main() -> int { var (); *(99) } heap 4 }")
    assert res.outcome == "hosterror"
    assert len(res.trace) == 1 and isinstance(res.trace[0], SrcRead)


def test_field_narrowing():
    res = run_text("""
    module {
      struct Pair { a: int, b: array 4 int }
      fn main() -> int {
        var (s: ptr<struct Pair>, f: ptr<array 4 int>);
        s := malloc(struct Pair);
        f := s.b;
        *(f + 2) := 5;
        *(f + 2)
      }
      heap 0
    }""")
    assert res.result == SInt(5)
    write = res.trace[1]
    # narrowed to the field: base = alloc base + 1 cell, four elements
    assert write.v.base == 1 and write.v.length == 4 and write.v.addr == 3


def test_double_free_events_both_recorded():
    res = run_text("""
    module {
      fn main() -> int {
        var (p: ptr<array int>);
        p := malloc<int>(2); free(p); free(p); 0
      }
      heap 0
    }""")
    frees = [e for e in res.trace if isinstance(e, SrcFree)]
    assert len(frees) == 2  # the dropped request still emits its event


def test_recursion_until_budget():
    res = run_text("""
    module {
      fn main() -> int { var (); let x = loop(0) in x }
      fn loop(n: int) -> int { var (); let x = loop(n) in x }
      heap 0
    }""", budget=5000)
    assert res.outcome == "budget"


def test_deep_recursion_is_fine():
    res = run_text("""
    module {
      fn main() -> int { var (); let x = down(3000) in x }
      fn down(n: int) -> int {
        var ();
        if n < 1 { 0 } else { let x = down(n - 1) in x + 1 }
      }
      heap 0
    }""")
    assert res.result == SInt(3000)


def test_let_scope_restored_after_body():
    res = run_text("""
    module {
      fn main() -> int {
        var (x: int);
        x := 5;
        (let x = f(1) in x) + x
      }
      fn f(v: int) -> int { var (); v + 10 }
      heap 0
    }""")
    assert res.result == SInt(16)  # 11 from the let body, then outer x = 5


# -- src_ms ------------------------------------------------------------


def test_src_ms_safe():
    tm = load(ALLOC_PROGRAM)
    res = src_run(tm)
    assert src_ms(tm.mod, res.trace) is SAFE


def test_src_ms_unsafe_overflow_index():
    tm = load("""
    module {
      fn main() -> int {
        var (p: ptr<array int>);
        p := malloc<int>(2);
        *(p + 5) := 1;
        0
      }
      heap 0
    }""")
    res = src_run(tm)
    verdict = src_ms(tm.mod, res.trace)
    assert isinstance(verdict, SrcUnsafe) and verdict.index == 1


def test_src_ms_forged_is_unsafe():
    tm = load("module { fn main() -> int { var (); *(2) } heap 8 }")
    res = src_run(tm)
    verdict = src_ms(tm.mod, res.trace)
    assert isinstance(verdict, SrcUnsafe) and verdict.index == 0


def test_src_ms_shade_violation():
    tm = load("""
    module {
      struct User { name: array 32 int, id: int }
      fn main() -> int {
        var (u: ptr<struct User>, nm: ptr<array 32 int>);
        u := malloc(struct User);
        nm := u.name;
        *(nm + 32) := 9;
        0
      }
      heap 0
    }""")
    res = src_run(tm)
    verdict = src_ms(tm.mod, res.trace)
    assert isinstance(verdict, SrcUnsafe)
    assert verdict.reason == "shade"


def test_src_ms_interior_free_unsafe():
    tm = load("""
    module {
      fn main() -> int {
        var (p: ptr<array int>);
        p := malloc<int>(4);
        free(p + 1);
        0
      }
      heap 0
    }""")
    res = src_run(tm)
    verdict = src_ms(tm.mod, res.trace)
    assert isinstance(verdict, SrcUnsafe)


def test_src_relate_struct_shading():
    tm = load("""
    module {
      struct Pair { a: int, b: array 4 int }
      fn main() -> int {
        var (s: ptr<struct Pair>);
        s := malloc(struct Pair);
        0
      }
      heap 0
    }""")
    res = src_run(tm)
    abs_events = []
    assert src_relate(tm.mod, res.trace, abs_events.append) is SAFE
    assert abs_events[0].shades == (0, 1, 1, 1, 1)


def test_src_ms_costs_one_record_per_allocation_not_one_per_cell():
    """A 2^20-cell int array and a 2^18-element struct array, each written
    at its last cell and freed: the verdicts take memory and time that do
    not grow with the allocations' sizes."""
    import time
    import tracemalloc

    mod = load("""
    module {
      struct Pair { a: int, b: array 4 int }
      fn main() -> int { var (); 0 }
      heap 0
    }""").mod
    ints = SPtr(0, 0, 1 << 20, INT, 0)
    pairs = SPtr(1 << 20, 1 << 20, 1 << 18, StructType("Pair"), 1)
    last_int = SPtr((1 << 20) - 1, (1 << 20) - 1, 1, INT, 0)
    last_b = SPtr((1 << 20) + 5 * (1 << 18) - 1, (1 << 20) + 5 * (1 << 18) - 1, 1, INT, 1)
    trace = [SrcAlloc(ints), SrcAlloc(pairs), SrcWrite(INT, last_int),
             SrcWrite(INT, last_b), SrcFree(ints), SrcFree(pairs)]
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        verdict = src_ms(mod, trace)
        stale = src_ms(mod, trace + [SrcRead(INT, last_int)])
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == SAFE
    assert stale == SrcUnsafe(6, "temporal-freed")
    assert peak < 1 << 20 and elapsed < 1.0


def test_prefix_monotone_first_unsafe_index():
    tm = load("""
    module {
      fn main() -> int {
        var (p: ptr<array int>, x: int);
        p := malloc<int>(2);
        x := *(p + 9);
        x := *(p + 0);
        x
      }
      heap 0
    }""")
    trace = src_run(tm).trace
    full = src_ms(tm.mod, trace)
    assert isinstance(full, SrcUnsafe)
    for k in range(full.index + 1, len(trace) + 1):
        v = src_ms(tm.mod, trace[:k])
        assert isinstance(v, SrcUnsafe) and v.index == full.index


# -- annotation inertness ----------------------------------------------


def _project(value):
    if isinstance(value, SInt):
        return ("int", value.n)
    return ("ptr", value.addr)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3000), st.booleans())
def test_annotations_are_inert(seed, violations):
    """Stripping pointer metadata changes neither the heap contents nor
    the result, only the events."""
    from mswasm.conformance import fuzz_source

    tm = load(fuzz_source(seed, violations=violations))
    full = src_run(tm)
    bare = src_run(tm, strip_annotations=True)
    assert full.outcome == bare.outcome
    assert [_project(v) for v in full.heap] == [_project(v) for v in bare.heap]
    if full.outcome == "ok":
        assert _project(full.result) == _project(bare.result)


# -- flat blocks and the nesting cap ------------------------------------


def test_a_block_is_one_flat_seq_and_a_let_body_is_the_rest_of_it():
    from mswasm.minic import TLetCall, TSeq

    tm = load("""
    module {
      fn main() -> int { var (x: int); x := 1; x := 2; let y = f() in x := y; x }
      fn f() -> int { var (); 3 }
      heap 0
    }""")
    body = tm.fns[0].body
    assert isinstance(body, TSeq) and len(body.items) == 3
    let = body.items[2]
    assert isinstance(let, TLetCall) and isinstance(let.body, TSeq) and len(let.body.items) == 2
    assert tm.fns[0].n_lets == 1
    assert src_run(tm).result == SInt(3)


@pytest.mark.parametrize("construct", NESTED_CONSTRUCTS)
def test_nesting_at_the_cap_passes_every_layer(construct):
    """Under the default recursion limit and 100 frames below the test:
    parse, both typechecks, src_run, compile, the text round trip and the
    differential run."""
    from mswasm.bytecode import parse_module, print_module
    from mswasm.compiler import compile_module
    from mswasm.conformance import diff_run
    from mswasm.typecheck import typecheck_module

    def chain(text):
        tm = load(text)
        src_run(tm)
        m = compile_module(tm)
        typecheck_module(m)
        assert parse_module(print_module(m)) == m
        return diff_run(tm, m)

    report = with_frames(100, chain, nested_source(construct, MAX_NESTING))
    assert report.related, report.reason


@pytest.mark.parametrize("construct", NESTED_CONSTRUCTS)
def test_nesting_past_the_cap_is_a_parse_error(construct):
    for n in (MAX_NESTING + 1, 20 * MAX_NESTING):
        with pytest.raises(SrcParseError, match=f"nesting deeper than {MAX_NESTING}"):
            parse_source(nested_source(construct, n))


def test_depth_counts_every_construct_on_the_longest_path():
    # 50 operators below 50 parentheses, an operator chain whose first
    # operand is 99 derefs deep, and a parenthesis around a block whose
    # deepest item is its last: each is 100 deep, one more is 101
    ok = ["(" * 50 + " + ".join(["1"] * 51) + ")" * 50,
          " + ".join(["*" * 99 + "x", "1"]),
          "(x; " + " + ".join(["1"] * 100) + ")"]
    bad = ["(" * 51 + " + ".join(["1"] * 51) + ")" * 51,
           " + ".join(["*" * 99 + "x", "1", "1"]),
           "(x; " + " + ".join(["1"] * 101) + ")"]
    shell = "module {{ fn main() -> int {{ var (x: int); {} }} heap 0 }}"
    for body in ok:
        parse_source(shell.format(body))
    for body in bad:
        with pytest.raises(SrcParseError, match="nesting deeper"):
            parse_source(shell.format(body))


def test_deep_straight_line_program_compiles_and_relates():
    """1,500 statements in one block: the frontend benchmark's deep
    program, which the tree walks could not handle when blocks nested."""
    from mswasm.compiler import compile_module
    from mswasm.conformance import diff_run
    from mswasm.typecheck import typecheck_module

    tm = load(straight_line_source(1500))
    m = compile_module(tm)
    typecheck_module(m)
    assert src_run(tm).result == SInt(sum(i % 7 for i in range(1500)))
    report = diff_run(tm, m)
    assert report.related and isinstance(report.src_verdict, Safe)


def test_a_field_past_2_to_the_30_cells_is_read_without_the_cell_tables():
    """The layout builds a struct's per-cell tables at their first use:
    parsing, compiling, running and judging a read of the field after an
    array of 2^30 ints reads the struct's record only."""
    import tracemalloc

    from mswasm.compiler import compile_module

    text = """module {
      struct Big { a: array 1073741824 int, n: int }
      fn main() -> int { var (b: ptr<struct Big>); *(b.n) }
      heap 0
    }"""
    tracemalloc.start()
    try:
        tm = parse_source(text)
        with pytest.raises(SrcTypeError, match="does not fit in i32"):
            compile_module(tm)
        res = src_run(tm)
        verdict = src_ms(tm.mod, res.trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    f = tm.mod.layout.field("Big", "n")
    assert (f.cell, f.offset, f.size) == (1 << 30, 1 << 32, 4)
    assert res.outcome == "hosterror" and verdict.reason == "access through a raw integer"
    assert peak < 1 << 20, peak


def test_bad_character_reports_its_offset():
    with pytest.raises(SrcParseError, match=r"bad character '!' at offset 9"):
        parse_source("module { ! heap 0 }")
    with pytest.raises(SrcParseError, match="bad character 'é' at offset 14"):
        parse_source("module { heap é }   \n")
    # inside a comment any character goes
    parse_source("module { // ! é\n fn main() -> int { var (); 0 } heap 0 }")


def test_a_struct_with_two_fields_of_one_name_is_a_parse_error():
    """A field name names one field: the second `a` could never be read,
    yet it would take cells and bytes."""
    with pytest.raises(SrcParseError, match="duplicate field name in struct D"):
        parse_source("module { struct D { a: int, a: array 2 int } "
                     "fn main() -> int { var (); 0 } heap 0 }")


# -- which error a text reports --------------------------------------------


def test_an_error_in_a_body_comes_before_one_in_a_later_body():
    """The bodies are read in text order, and each check runs as soon as
    its tokens are read, so a type error can come before a parse error."""
    bad_main = "fn main() -> int { var (); zz }"
    bad_f = "fn f() -> int { var (); ( }"
    with pytest.raises(SrcTypeError, match="unbound variable zz"):
        parse_source(f"module {{ {bad_main} {bad_f} heap 0 }}")
    with pytest.raises(SrcParseError, match="expected expression, got '}'"):
        parse_source(f"module {{ {bad_f} {bad_main} heap 0 }}")


def test_main_is_checked_after_the_bodies():
    """A missing main, or a main with a parameter, loses to any error in
    a body, so a body that does not parse stays a parse error."""
    with pytest.raises(SrcParseError, match="expected expression, got '}'"):
        parse_source("module { fn f() -> int { var (); ( } heap 0 }")
    with pytest.raises(SrcParseError, match="expected expression, got '}'"):
        parse_source("module { fn main(n: int) -> int { var (); ( } heap 0 }")
    with pytest.raises(SrcTypeError, match="unbound variable zz"):
        parse_source("module { fn main(n: int) -> int { var (); zz } heap 0 }")


@pytest.mark.parametrize("after", ["fn f() -> int { var (); 4 } heap 0 }",
                                   "import g() -> int; heap 0 }", "heap 0 }", ""])
def test_a_body_without_its_closing_brace_is_reported_where_the_next_item_starts(after):
    got = repr((after.split() or [""])[0])
    with pytest.raises(SrcParseError, match=f"expected '}}', got {got}"):
        parse_source("module { fn main() -> int { var (); if 1 { 2 } else { 3 } " + after)


def test_token_mutants_of_sources_end_in_a_module_or_a_source_error():
    """Every mutant of a fixed set ends in a typed module, a SrcParseError
    or a SrcTypeError; none raises anything else or reads the type of a
    node that has none."""
    import time

    from fixtures import token_mutants
    from mswasm.conformance import fuzz_source

    texts = [fuzz_source(seed, violations=v) for seed in range(40) for v in (False, True)]
    mutants = [m for i, t in enumerate(texts) for m in token_mutants(t, i, 20)]
    ends = {"ok": 0, SrcParseError: 0, SrcTypeError: 0}
    t0 = time.perf_counter()
    for text in mutants:
        try:
            src_typecheck(parse_source(text))
            ends["ok"] += 1
        except (SrcParseError, SrcTypeError) as e:
            ends[type(e)] += 1
    assert time.perf_counter() - t0 < 10.0
    assert len(mutants) == 1600 and all(ends.values()), ends


# -- the heap cap ---------------------------------------------------------


def test_a_heap_past_the_cap_is_a_host_error_before_it_is_allocated():
    import tracemalloc

    from mswasm.minic import MAX_HEAP_CELLS

    huge = 1 << 40
    programs = [
        f"module {{ fn main() -> int {{ var (p: ptr<array int>); p := malloc<int>({huge}); 0 }} heap 0 }}",
        f"module {{ struct S {{ a: array {huge} int }} fn main() -> int "
        f"{{ var (s: ptr<struct S>); s := malloc(struct S); 0 }} heap 4 }}",
        f"module {{ fn main() -> int {{ var (); 0 }} heap {huge} }}",
        f"module {{ fn main() -> int {{ var (); 0 }} heap {MAX_HEAP_CELLS + 1} }}",
    ]
    tms = [load(text) for text in programs]
    tracemalloc.start()
    try:
        results = [src_run(tm) for tm in tms]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for res in results:
        assert res.outcome == "hosterror" and res.trace == [] and res.result is None


def test_the_heap_grows_up_to_the_cap_and_not_past_it():
    from mswasm.minic import MAX_HEAP_CELLS

    res = run_text(f"""
    module {{
      fn main() -> int {{
        var (p: ptr<array int>, q: ptr<array int>);
        p := malloc<int>({MAX_HEAP_CELLS - 8});
        q := malloc<int>(8);
        free(q);
        q := malloc<int>(8);
        q := malloc<int>(1);
        0
      }}
      heap 0
    }}""")
    assert res.outcome == "hosterror" and len(res.heap) == MAX_HEAP_CELLS
    # the fourth allocation would grow the heap, and is not in the trace
    assert [type(e) for e in res.trace] == [SrcAlloc, SrcAlloc, SrcFree, SrcAlloc]


@pytest.mark.parametrize("construct", ["parens", "derefs", "assigns", "operators"])
def test_an_operand_is_read_in_place(construct):
    """A parenthesis costs the parser one Python frame, and `*`, `:=` and
    binary operators none: 100 levels parse with 750 frames taken."""
    with_frames(750, parse_source, nested_source(construct, MAX_NESTING))


@pytest.mark.parametrize("body,levels", [
    ("1 == 1 + 1 * zz", 3),        # three operators wait for zz
    ("x := y := 1 + zz", 3),       # two targets and one operator
    ("x := **zz", 3),              # one target and two derefs
    ("1 + (zz)", 2),               # one operator and the parenthesis
])
def test_a_level_is_counted_before_the_operand_in_it_is_read(body, levels):
    """zz, an unbound name, sits `levels` levels into the parentheses
    around it: at the cap it is a type error, one level past it the
    nesting error comes first."""
    shell = "module {{ fn main() -> int {{ var (x: int, y: int); {} }} heap 0 }}"
    k = MAX_NESTING - levels
    with pytest.raises(SrcTypeError, match="unbound variable zz"):
        parse_source(shell.format("(" * k + body + ")" * k))
    with pytest.raises(SrcParseError, match=f"nesting deeper than {MAX_NESTING}"):
        parse_source(shell.format("(" * (k + 1) + body + ")" * (k + 1)))
