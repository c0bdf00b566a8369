from functools import partial

import pytest

from mswasm.bytecode import FuncType, ValueType, print_module
from mswasm.compiler import Layout
from mswasm.conformance import (
    CrossBijection,
    diff_run,
    diff_run_source,
    enforce_check,
    fuzz_attacker,
    fuzz_module,
    fuzz_source,
    fuzz_victim,
    relate_events,
    relate_value,
)
from mswasm.compiler import compile_module
from mswasm.interp import ReadEv, SAllocEv, SFreeEv, TrapEv, Value, WriteEv, link, run
from mswasm.minic import (
    INT,
    Safe,
    SInt,
    SPtr,
    SrcAlloc,
    SrcFree,
    SrcRead,
    SrcWrite,
    parse_source,
    src_run,
    src_typecheck,
)
from mswasm.segmem import Handle
from mswasm.tracerel import check_ms
from mswasm.typecheck import typecheck_module

from fixtures import UNSAFE_SUITE

I32, H = ValueType.I32, ValueType.HANDLE

EMPTY_MOD = src_typecheck(parse_source(
    "module { fn main() -> int { var (); 0 } heap 0 }")).mod


def _checked(tm):
    """tm's compiled, typechecked module."""
    cm = compile_module(tm)
    typecheck_module(cm)
    return cm


def _delta_with_alloc(length=4, wtype=INT, tgt_base=0, tgt_id=0):
    delta = CrossBijection()
    layout = Layout(EMPTY_MOD)
    ptr = SPtr(0, 0, length, wtype, 0)
    h = Handle(tgt_base, 0, length * layout.sizeof(wtype), True, tgt_id)
    assert relate_events(layout, delta, SrcAlloc(ptr), SAllocEv(h))
    return layout, delta


def test_trace_events_are_equal_only_to_events_of_their_class():
    h, p = Handle(0, 0, 8, True, 0), SPtr(0, 0, 2, INT, 0)
    assert ReadEv(I32, h) == ReadEv(I32, h) != WriteEv(I32, h)
    assert SAllocEv(h) != SFreeEv(h)
    assert SrcRead(INT, p) == SrcRead(INT, p) != SrcWrite(INT, p)
    assert SrcAlloc(p) != SrcFree(p)
    assert len({ReadEv(I32, h), WriteEv(I32, h), SrcRead(INT, p), SrcWrite(INT, p)}) == 4


def test_relate_value_pointer_arithmetic():
    layout, delta = _delta_with_alloc(length=4)
    sv = SPtr(2, 0, 4, INT, 0)
    tv = Handle(0, 8, 16, True, 0)
    assert relate_value(layout, delta, sv, tv)


def test_relate_value_int_to_invalid_handle():
    layout, delta = _delta_with_alloc()
    assert relate_value(layout, delta, SInt(7), Handle(0, 0, 0, False, 0))
    assert relate_value(layout, delta, SInt(7), 7)
    assert not relate_value(layout, delta, SInt(7), 8)


def test_relate_value_rejects_corrupted_handle():
    layout, delta = _delta_with_alloc()
    sv = SPtr(0, 0, 4, INT, 0)
    assert not relate_value(layout, delta, sv, Handle(0, 0, 16, False, 0))


def test_relate_value_wrong_bound_rejected():
    layout, delta = _delta_with_alloc()
    sv = SPtr(0, 0, 4, INT, 0)
    assert not relate_value(layout, delta, sv, Handle(0, 0, 12, True, 0))


def test_relate_events_read_requires_type_match():
    layout, delta = _delta_with_alloc()
    sv = SPtr(0, 0, 4, INT, 0)
    h = Handle(0, 0, 16, True, 0)
    assert relate_events(layout, delta, SrcRead(INT, sv), ReadEv(I32, h))
    assert not relate_events(layout, delta, SrcRead(INT, sv),
                             ReadEv(ValueType.I64, h))


def test_forged_event_relates_to_trap():
    layout, delta = _delta_with_alloc()
    assert relate_events(layout, delta, SrcWrite(INT, SInt(3)), TrapEv())
    assert not relate_events(layout, delta, SrcWrite(INT, SInt(3)),
                             WriteEv(I32, Handle(0, 0, 16, True, 0)))


def test_alloc_pair_extends_delta_injectively():
    layout, delta = _delta_with_alloc(tgt_id=0)
    ptr2 = SPtr(10, 10, 2, INT, 1)
    h_same_tgt = Handle(32, 0, 8, True, 0)  # target id already bound
    assert not relate_events(layout, delta, SrcAlloc(ptr2), SAllocEv(h_same_tgt))
    h_fresh = Handle(32, 0, 8, True, 1)
    assert relate_events(layout, delta, SrcAlloc(ptr2), SAllocEv(h_fresh))


_SEG = Handle(0, 0, 16, True, 0)  # the segment of _delta_with_alloc()
_NEXT = SPtr(8, 8, 2, INT, 1)


@pytest.mark.parametrize("relate,sv,tv", [
    (relate_value, SPtr(0, 0, 4, INT, 9), _SEG),  # no allocation has id 9
    (relate_value, SPtr(9, 9, 1, INT, 0), Handle(0, 36, 4, True, 0)),  # based past its end
    (relate_events, SrcAlloc(_NEXT), ReadEv(I32, _SEG)),
    (relate_events, SrcAlloc(_NEXT), SAllocEv(Handle(32, 0, 8, False, 1))),
    (relate_events, SrcAlloc(_NEXT), SAllocEv(Handle(32, 4, 8, True, 1))),
    (relate_events, SrcAlloc(SPtr(8, 8, -2, INT, 1)), SAllocEv(Handle(32, 0, 0, True, 1))),
    (relate_events, ReadEv(I32, _SEG), ReadEv(I32, _SEG)),  # not a source event
], ids=["unknown-id", "based-outside", "alloc-vs-read", "alloc-invalid-handle",
        "alloc-offset", "alloc-negative-length", "not-a-source-event"])
def test_unrelated_pairs_are_rejected(relate, sv, tv):
    layout, delta = _delta_with_alloc()
    assert not relate(layout, delta, sv, tv)


def test_diff_safe_program_related():
    rep = diff_run_source("""
    module {
      fn main() -> int {
        var (p: ptr<array int>, x: int);
        p := malloc<int>(4);
        *(p + 1) := 3;
        x := *(p + 1);
        free(p);
        x
      }
      heap 0
    }""")
    assert rep.related and isinstance(rep.src_verdict, Safe)


def test_diff_overflow_trap_shape():
    rep = diff_run_source("""
    module {
      fn main() -> int {
        var (p: ptr<array int>);
        p := malloc<int>(2);
        *(p + 5) := 1;
        0
      }
      heap 0
    }""")
    assert rep.related
    assert rep.src_verdict.index == 1
    assert [e.kind for e in rep.tgt_trace] == ["salloc", "trap"]


def test_a_negative_malloc_is_unsafe_at_once_and_the_compiled_run_traps():
    rep = diff_run_source("""
    module {
      fn main() -> int { var (p: ptr<array int>); p := malloc<int>(0 - 1); 0 }
      heap 0
    }""")
    assert rep.related, rep.reason
    assert rep.src_verdict.index == 0
    assert rep.src_verdict.kind == "allocation with negative length"
    assert rep.tgt_trace == [TrapEv()]


def test_a_free_of_an_empty_allocation_relates_at_its_end():
    """p's zero cells and q's two both sit at base 0, in the source heap
    and in the segments, so p's base relates as the end of p's segment."""
    rep = diff_run_source("""
    module {
      fn main() -> int {
        var (p: ptr<array int>, q: ptr<array int>);
        p := malloc<int>(0);
        q := malloc<int>(2);
        free(p);
        *(q + 1) := 3;
        free(q);
        0
      }
      heap 0
    }""")
    assert rep.related, rep.reason
    assert isinstance(rep.src_verdict, Safe)
    assert [ev.ptr.base for ev in rep.src_trace[:2]] == [0, 0]
    assert [ev.kind for ev in rep.tgt_trace] == ["salloc", "salloc", "sfree", "write", "sfree"]


DIV_BY_ZERO = """module {
  fn main() -> int {
    var (x: int);
    x := 0;
    7 / x
  }
  heap 0
}
"""

DIV_BY_ZERO_AFTER_A_WRITE = """
module {
  struct S { a: int, b: int }
  fn main() -> int {
    var (s: ptr<struct S>, x: int);
    s := malloc(struct S);
    *(s.b) := 7;
    x := 0;
    *(s.b) / x
  }
  heap 0
}
"""


def test_source_division_by_zero_relates_to_the_compiled_trap():
    """A safe source that divides by zero ends in "trap" after k events;
    the compiled run relates to it event by event and then traps once."""
    rep = diff_run_source(DIV_BY_ZERO)
    assert rep.related, rep.reason
    assert isinstance(rep.src_verdict, Safe)
    assert rep.src_trace == [] and rep.tgt_trace == [TrapEv()]

    rep = diff_run_source(DIV_BY_ZERO_AFTER_A_WRITE)
    assert rep.related, rep.reason
    assert isinstance(rep.src_verdict, Safe)
    assert [type(e) for e in rep.src_trace] == [SrcAlloc, SrcWrite, SrcRead]
    assert [e.kind for e in rep.tgt_trace] == ["salloc", "write", "read", "trap"]


INT_MIN_DIV_MINUS_ONE = """module {
  fn main() -> int {
    var (x: int);
    x := 0 - 2147483647 - 1;
    x / (0 - 1)
  }
  heap 0
}
"""

STORE_OF_A_WRAPPED_SUM = """module {
  fn main() -> int {
    var (p: ptr<array int>);
    p := malloc<int>(1);
    *(p) := 2147483647 + 1;
    *(p)
  }
  heap 0
}
"""


def test_source_int_min_divided_by_minus_one_traps_as_compiled():
    """Source integers are i32: int_min / -1 ends in "trap", as i32.div_s
    does.  On unbounded ints the source returned 2^31 where the compiled
    run trapped, and the report was "trace lengths differ (0 vs 1)"."""
    tm = src_typecheck(parse_source(INT_MIN_DIV_MINUS_ONE))
    assert src_run(tm).outcome == "trap"
    rep = diff_run(tm, _checked(tm))
    assert rep.related, rep.reason
    assert rep.src_trace == [] and rep.tgt_trace == [TrapEv()]


def test_source_sum_wraps_to_i32_as_compiled():
    """2147483647 + 1 is int_min on both sides; the source used to return
    2147483648 while the compiled code returned int_min."""
    tm = src_typecheck(parse_source(STORE_OF_A_WRAPPED_SUM))
    assert src_run(tm).result == SInt(-(2**31))
    assert run(compile_module(tm)).results == [Value(ValueType.I32, -(2**31))]
    assert diff_run(tm, _checked(tm)).related


def _returning(expr: str, ty: str = "int"):
    return parse_source(f"module {{ fn main() -> {ty} {{ var (p: ptr<array int>); "
                        f"p := malloc<int>(2); {expr} }} heap 0 }}")


@pytest.mark.parametrize("ty, src, tgt, reason", [
    ("int", "1", "2", "results differ: SInt(n=1) vs 2"),
    ("ptr<array int>", "p + 1", "p + 0",
     "results differ: SPtr(addr=1, base=0, length=2, wtype=IntType(), id=0) vs "
     "Handle(base=0, offset=0, bound=8, valid=True, id=0)"),
], ids=["int", "pointer"])
def test_diff_run_compares_the_entry_results(ty, src, tgt, reason):
    """Related traces, both runs "ok", and entry results that do not relate:
    a divergence at the end of the traces.  Each program relates to its own
    compiled module."""
    tm = _returning(src, ty)
    assert diff_run(tm, _checked(tm)).related
    rep = diff_run(tm, _checked(_returning(tgt, ty)))
    assert not rep.related and isinstance(rep.src_verdict, Safe)
    assert (rep.index, rep.reason) == (1, reason)


def test_unsafe_suite_all_trap_shaped():
    for name, text in UNSAFE_SUITE.items():
        rep = diff_run_source(text)
        assert rep.related, (name, rep.index, rep.reason)
        assert not isinstance(rep.src_verdict, Safe), name
        k = rep.src_verdict.index
        assert len(rep.tgt_trace) == k + 1, name
        assert isinstance(rep.tgt_trace[-1], TrapEv), name


def test_enforce_check_on_unsafe_suite():
    for name, text in UNSAFE_SUITE.items():
        assert enforce_check(_checked(parse_source(text))), name


SAFE_AND_UNSAFE = {"safe": fuzz_source(0), "unsafe": UNSAFE_SUITE["uaf-read"]}


@pytest.mark.parametrize("name", list(SAFE_AND_UNSAFE))
def test_diff_run_judges_the_module_it_is_given(monkeypatch, name):
    """diff_run compiles and typechecks nothing: given the module, it
    reports what diff_run_source reports."""
    from mswasm import conformance

    text = SAFE_AND_UNSAFE[name]
    want = diff_run_source(text)
    tm = parse_source(text)
    cm = _checked(tm)

    def refuse(*args, **kwargs):
        raise AssertionError("diff_run compiled or typechecked the module")

    monkeypatch.setattr(conformance, "compile_module", refuse)
    monkeypatch.setattr(conformance, "typecheck_module", refuse)
    assert diff_run(tm, cm) == want
    assert want.related and isinstance(want.src_verdict, Safe) == (name == "safe")


def test_fuzz_attacker_deterministic_and_well_typed():
    victim = fuzz_victim(5)
    ctxs = [fuzz_attacker(victim, seed) for seed in range(3)]
    assert len({print_module(c) for c in ctxs}) == 3
    for ctx in ctxs:
        typecheck_module(ctx)
        assert fuzz_attacker(victim, 1) == fuzz_attacker(victim, 1)


def test_attacked_victim_stays_safe():
    victim = fuzz_victim(2)
    for seed in range(4):
        ctx = fuzz_attacker(victim, seed)
        whole = link(victim, ctx)
        typecheck_module(whole)
        res = run(whole)
        assert isinstance(check_ms(res.trace), Safe), seed


def test_double_segfree_context_traps_safely():
    from mswasm import bytecode as bc
    victim = fuzz_victim(11)
    # hand-build a context that frees its received handle twice
    sig = victim.imports[0]
    body = []
    handle_params = [i for i, t in enumerate(sig.params) if t is H]
    if handle_params:
        i = handle_params[0]
        body += [bc.get(i), bc.segfree(), bc.get(i), bc.segfree()]
    for ty in sig.results:
        body += ([bc.const(I32, 0)] if ty is I32
                 else [bc.const(I32, 1), bc.new_segment()])
    from mswasm.bytecode import FuncDef, ModuleDef
    funcs = [FuncDef(sig.params, (), sig.results, tuple(body))]
    for extra in victim.imports[1:]:
        fill = []
        for ty in extra.results:
            fill += ([bc.const(I32, 0)] if ty is I32
                     else [bc.const(I32, 1), bc.new_segment()])
        funcs.append(FuncDef(extra.params, (), extra.results, tuple(fill)))
    ctx = ModuleDef(tuple(funcs), (), 0, 4096)
    typecheck_module(ctx)
    whole = link(victim, ctx)
    typecheck_module(whole)
    res = run(whole)
    assert isinstance(check_ms(res.trace), Safe)


def test_source_fuzzer_deterministic():
    assert fuzz_source(7, True) == fuzz_source(7, True)
    assert fuzz_source(7, True) != fuzz_source(8, True)


def test_module_fuzzer_well_typed_and_bounded():
    for seed in range(30):
        m = fuzz_module(seed)
        typecheck_module(m)
        assert len(m.funcs) <= 4

        def count(body):
            n = 0
            for ins in body:
                n += 1
                if ins.op == "if":
                    n += count(ins.then_body) + count(ins.else_body)
            return n

        assert sum(count(f.body) for f in m.funcs) <= 120


# -- mutations diff_run must report ------------------------------------------

INTRA_OVERFLOW = """
module {
  struct S { a: array 2 int, b: int }
  fn main() -> int {
    var (s: ptr<struct S>);
    s := malloc(struct S);
    *(s.a + 2) := 1;
    0
  }
  heap 0
}
"""


def _no_field_slices(monkeypatch):
    monkeypatch.setattr(Layout, "field_offsets", lambda self, sname, fname: (0, 0))


def _run_compiled_on_baggy(monkeypatch):
    from mswasm import conformance
    monkeypatch.setattr(conformance, "run", partial(run, backend="baggy"))


def _short_compiled_budget(monkeypatch):
    from mswasm import conformance
    monkeypatch.setattr(conformance, "run", partial(run, budget=20))


def _short_source_budget(monkeypatch):
    from mswasm import conformance
    from mswasm.minic import src_run
    monkeypatch.setattr(conformance, "src_run", partial(src_run, budget=5))


def _monitor_rejects_the_target(monkeypatch):
    from mswasm import conformance
    from mswasm.monitor import Violation
    monkeypatch.setattr(conformance, "check_ms", lambda trace: Violation("shade", 0, 0))


# mutation -> (source text, the reason's prefix)
DIVERGENCES = {
    "source-budget": (_short_source_budget, fuzz_source(0), "source budget on a safe trace"),
    "compiled-budget": (_short_compiled_budget, fuzz_source(0), "trace lengths differ"),
    "no-field-slices": (_no_field_slices, fuzz_source(0), "events unrelated: "),
    "monitor-rejects": (_monitor_rejects_the_target, fuzz_source(0),
                        "target trace not monitor-safe"),
    "baggy-overflow": (_run_compiled_on_baggy, fuzz_source(3, violations=True),
                       "target trace has 9 events, want 7"),
    "no-field-slices-prefix": (_no_field_slices, fuzz_source(0, violations=True),
                               "prefix events unrelated: "),
    "no-field-slices-intra": (_no_field_slices, INTRA_OVERFLOW, "expected trap, got WriteEv"),
    "no-field-slices-trap": (_no_field_slices, DIV_BY_ZERO_AFTER_A_WRITE,
                             "prefix events unrelated: "),
}


@pytest.mark.parametrize("name", list(DIVERGENCES))
def test_diff_run_reports_a_broken_chain(monkeypatch, name):
    """Each of diff_run's divergence returns, reached by breaking one link
    of the chain; unbroken, every one of these programs relates."""
    mutate, text, reason = DIVERGENCES[name]
    assert diff_run_source(text).related
    mutate(monkeypatch)
    report = diff_run_source(text)
    assert report.related is False
    assert report.reason.startswith(reason), report.reason
