import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mswasm.bytecode import SIZEOF, ValueType, parse_module
from mswasm.interp import BACKENDS, ReadEv, SAllocEv, SFreeEv, TrapEv, WriteEv, run
from mswasm.monitor import SAFE, AAlloc, AFree, ARead, AWrite, Safe, Violation, check_trace
from mswasm.segmem import Handle
from mswasm.tracerel import (
    Unrelatable,
    check_ms,
    constant_shading,
    relate_trace,
)

from oracles import mutate_handle

I32 = ValueType.I32
I64 = ValueType.I64


def two_field(index, handle, size):
    return tuple(0 if i < 4 else 1 for i in range(size))


def by_byte(index, handle, size):
    return tuple(range(size))


def one_segment_reads(n):
    """One segment of n i64s and a read of each."""
    trace = [SAllocEv(Handle(0, 0, 8 * n, True, 0))]
    return trace + [ReadEv(I64, Handle(8 * k, 0, 8, True, 0)) for k in range(n)]


def test_alloc_write_expansion():
    h = Handle(0, 0, 8, True, 0)
    trace = [SAllocEv(h), WriteEv(I32, h)]
    abs_events, delta = relate_trace(trace)
    assert abs_events[0] == AAlloc(8, 0, 0, (0,))
    assert abs_events[1:] == [AWrite(0, 0, 0), AWrite(1, 0, 0),
                              AWrite(2, 0, 0), AWrite(3, 0, 0)]


def test_violation_names_the_byte_and_its_access():
    """After a good read, a 4-byte read whose third byte leaves its
    segment: the violation is that byte's abstract event, reported at the
    read's trace index."""
    h = Handle(0, 0, 8, True, 0)
    after = Handle(8, 0, 8, True, 1)
    trace = [SAllocEv(h), SAllocEv(after), ReadEv(I32, h),
             ReadEv(I32, Handle(0, 6, 8, True, 0))]
    abs_events, _ = relate_trace(trace)
    assert abs_events[8] == ARead(8, 0, 0)
    assert check_ms(trace) == Violation("spatial-color", 8, 3)


def test_first_offending_event_decides():
    """The check stops at the first event, in trace order, that has no
    image or that the monitor rejects: a stale read before an unknown id
    is a violation, and an unknown id before it is unrelatable."""
    h = Handle(0, 0, 8, True, 0)
    unknown = Handle(32, 0, 8, True, 9)
    trace = [SAllocEv(h), SFreeEv(h), ReadEv(I32, h), ReadEv(I32, unknown)]
    assert check_ms(trace) == Violation("temporal-freed", 2, 2)
    out = check_ms([SAllocEv(h), SFreeEv(h), ReadEv(I32, unknown), ReadEv(I32, h)])
    assert isinstance(out, Unrelatable) and out.index == 2


@pytest.mark.parametrize("n", [1_000, 16_000])
def test_verdicts_take_memory_that_does_not_grow_with_the_trace(n):
    """check_ms over one segment and n i64 reads, and src_ms over one
    allocation and n reads, peak under the same small bound for every n:
    neither keeps the abstract trace."""
    import tracemalloc

    from mswasm.minic import INT, SAFE, SPtr, SrcAlloc, SrcModule, SrcRead, src_ms

    trace = one_segment_reads(n)
    src_trace = [SrcAlloc(SPtr(0, 0, n, INT, 0))]
    src_trace += [SrcRead(INT, SPtr(k, 0, n, INT, 0)) for k in range(n)]
    mod = SrcModule({}, [], 0)
    peaks = []
    for check, args in ((check_ms, (trace,)), (src_ms, (mod, src_trace))):
        tracemalloc.start()
        try:
            verdict = check(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert verdict is SAFE
    assert max(peaks) < 8 << 10, peaks


def test_in_bounds_reads_take_no_per_byte_monitor_step(monkeypatch):
    """check_ms judges each read inside its live segment in one lookup: over
    one segment and 16,000 i64 reads the monitor steps no byte.  A read that
    leaves the segment is judged byte by byte and names its first bad one."""
    from mswasm import monitor

    stepped = []
    real_step = monitor.monitor_step
    monkeypatch.setattr(monitor, "monitor_step",
                        lambda shadow, ev: stepped.append(ev) or real_step(shadow, ev))
    n = 16_000
    trace = one_segment_reads(n)
    assert check_ms(trace) is SAFE and stepped == []
    over = check_ms(trace + [ReadEv(I64, Handle(8 * n - 4, 0, 8, True, 0))])
    assert over == Violation("temporal-unmapped", 1 + 8 * n + 4, n + 1)
    assert stepped == [ARead(8 * n - 4 + k, 0, 0) for k in range(5)]


@pytest.mark.parametrize("neighbour, kind", [(True, "spatial-color"), (False, "temporal-unmapped")])
def test_an_i64_read_over_its_segments_end_names_its_fifth_byte(neighbour, kind):
    """An i64 read whose window starts 4 bytes before its segment's end:
    its first four bytes are in, so the n-th abstract event it violates at
    is n + 4, the event of its fifth byte."""
    h = Handle(0, 0, 8, True, 0)
    trace = [SAllocEv(h)] + [SAllocEv(Handle(8, 0, 8, True, 1))] * neighbour
    n = len(trace)
    trace.append(ReadEv(I64, Handle(0, 4, 8, True, 0)))
    assert check_ms(trace) == Violation(kind, n + 4, n)
    abs_events, _ = relate_trace(trace)
    assert abs_events[n + 4] == ARead(8, 0, 0)
    assert check_trace(abs_events) == Violation(kind, n + 4, n + 4)


def test_a_shade_violation_names_the_byte_in_the_next_field():
    """Under a two-field shading, an i32 read from byte 2 through a handle
    of the first field is the first field's shade for bytes 2 and 3 and
    crosses into the second at its third byte: index 1 + 2."""
    trace = [SAllocEv(Handle(0, 0, 8, True, 0)), ReadEv(I32, Handle(0, 2, 8, True, 0))]
    assert check_ms(trace, shading=two_field) == Violation("shade", 3, 1)
    abs_events, _ = relate_trace(trace, shading=two_field)
    assert check_trace(abs_events) == Violation("shade", 3, 3)


def _image_verdict(trace, shading):
    """check_trace over relate_trace's per-byte image, with the trace index
    of the violating byte found by counting each event's image."""
    out = relate_trace(trace, shading)
    if isinstance(out, Unrelatable):
        verdict = check_trace(relate_trace(trace[:out.index], shading)[0])
        if verdict is SAFE:
            return out
    else:
        verdict = check_trace(out[0])
        if verdict is SAFE:
            return SAFE
    made = 0
    for i, ev in enumerate(trace):
        made += SIZEOF[ev.ty] if type(ev) in (ReadEv, WriteEv) else type(ev) is not TrapEv
        if made > verdict.index:
            return Violation(verdict.kind, verdict.index, i)
    raise AssertionError("no event made the violating one")


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_check_ms_is_the_monitor_over_the_per_byte_image(backend):
    """check_ms, which judges each access in one call, gives on every trace
    the verdict of check_trace over relate_trace's image: kind, abstract
    index and trace index, or the same Unrelatable.  The traces are of
    fuzz modules and of compiled fuzz sources, a quarter of their accesses
    go through `mutate_handle`, and three shadings are tried."""
    from mswasm.compiler import compile_module
    from mswasm.conformance import fuzz_module, fuzz_source
    from mswasm.minic import parse_source

    modules = [fuzz_module(seed) for seed in range(100)]
    modules += [compile_module(parse_source(fuzz_source(seed, violations=v)))
                for seed in range(40) for v in (False, True)]
    rng = random.Random(backend)
    for j, m in enumerate(modules):
        trace = [type(ev)(ev.ty, mutate_handle(rng, ev.handle))
                 if type(ev) in (ReadEv, WriteEv) and rng.random() < 0.25 else ev
                 for ev in run(m, backend).trace]
        for shading in (constant_shading, two_field, by_byte):
            assert check_ms(trace, shading) == _image_verdict(trace, shading), (j, shading)


def test_sliced_handle_reads_at_moved_base():
    h = Handle(0, 0, 8, True, 0)
    sliced = Handle(4, 0, 4, True, 0)
    abs_events, _ = relate_trace([SAllocEv(h), ReadEv(I32, sliced)])
    assert abs_events[1:] == [ARead(a, 0, 0) for a in (4, 5, 6, 7)]


def test_trap_relates_to_empty():
    assert check_ms([TrapEv()]) is not None
    assert isinstance(check_ms([TrapEv()]), Safe)


def test_unknown_id_is_unrelatable():
    h = Handle(0, 0, 8, True, 3)
    out = relate_trace([ReadEv(I32, h)])
    assert isinstance(out, Unrelatable) and out.index == 0


def test_read_after_free_violation():
    h = Handle(0, 0, 8, True, 0)
    trace = [SAllocEv(h), SFreeEv(h), ReadEv(I32, h)]
    verdict = check_ms(trace)
    assert isinstance(verdict, Violation)
    assert verdict.kind == "temporal-freed"
    assert verdict.at == 2


_SEG = Handle(0, 0, 8, True, 0)


@pytest.mark.parametrize("trace, kind", [
    ([SAllocEv(_SEG), SFreeEv(_SEG), SFreeEv(_SEG)], "double-free"),
    ([SAllocEv(_SEG), SFreeEv(Handle(4, 0, 4, True, 0))], "free-unmatched"),  # based 4 bytes in
    ([SAllocEv(_SEG), SAllocEv(Handle(4, 0, 8, True, 1))], "alloc-overlap"),
])
def test_an_alloc_or_free_the_monitor_rejects_is_a_violation(trace, kind):
    """relate hands each allocation and free to the monitor, and check_ms
    reports the one it rejects at that event."""
    n = len(trace) - 1
    assert check_ms(trace) == Violation(kind, n, n)


def test_zero_length_segment_free_is_relatable():
    h = Handle(16, 0, 0, True, 5)
    abs_events, _ = relate_trace([SAllocEv(h), SFreeEv(h)])
    assert abs_events == [AAlloc(0, 16, 0, ()), AFree(16, 0)]


def _live_segments_disjoint(delta):
    spans = sorted((base, base + size) for seg_id, (base, size, _, _)
                   in delta.segments.items() if seg_id in delta.live)
    return all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))


def test_delta_keys_cover_segment_and_are_bijective():
    """Every byte of every segment resolves through a handle sliced to
    start there: to that byte's address, the segment's color and the
    byte's shade."""
    h1 = Handle(0, 0, 8, True, 0)
    h2 = Handle(16, 0, 4, True, 1)

    for color, h in enumerate((h1, h2)):
        for j in range(h.bound):
            sliced = Handle(h.base + j, 0, h.bound - j, True, h.id)
            trace = [SAllocEv(h1), SAllocEv(h2), ReadEv(I32, sliced)]
            abs_events, delta = relate_trace(trace, shading=by_byte)
            assert abs_events[2:] == [ARead(h.base + j + k, color, j) for k in range(4)]
    assert abs_events[:2] == [AAlloc(8, 0, 0, tuple(range(8))),
                              AAlloc(4, 16, 1, tuple(range(4)))]
    assert _live_segments_disjoint(delta)
    for base, seg_id in ((8, 0), (20, 1), (15, 1), (16, 0)):  # past or before
        out = relate_trace([SAllocEv(h1), SAllocEv(h2),
                            ReadEv(I32, Handle(base, 0, 4, True, seg_id))])
        assert isinstance(out, Unrelatable) and out.index == 2


def test_reuse_same_base_extends_delta_monotonically():
    h1 = Handle(0, 0, 8, True, 0)
    h2 = Handle(0, 0, 8, True, 1)
    trace = [SAllocEv(h1), SFreeEv(h1), SAllocEv(h2), WriteEv(I32, h2)]
    abs_events, delta = relate_trace(trace)
    assert isinstance(check_ms(trace), Safe)
    old, new = delta.resolve(0, 0), delta.resolve(1, 0)
    assert old is not None and new is not None
    assert old[0] != new[0]  # never reused
    stale = check_ms(trace + [ReadEv(I32, h1)])
    assert isinstance(stale, Violation)
    assert stale.kind == "spatial-color" and stale.at == 4


def test_well_typed_fuzz_traces_are_safe():
    from mswasm.conformance import fuzz_module
    for seed in range(40):
        res = run(fuzz_module(seed))
        assert isinstance(check_ms(res.trace), Safe), seed


def test_shading_refinement():
    """Safe under a per-field shading implies safe under constant shading."""
    src = """
    (module (segment 64) (heap 0)
      (func (local handle) (result i32)
        i32.const 8 new_segment set 0
        get 0 i32.const 1 i32.segstore
        get 0 i32.const 0 i32.const 4 slice i32.segload))
    """
    res = run(parse_module(src))

    refined = check_ms(res.trace, shading=two_field)
    constant = check_ms(res.trace)
    assert isinstance(refined, Safe)
    assert isinstance(constant, Safe)


def test_refined_shading_catches_cross_field_access():
    src = """
    (module (segment 64) (heap 0)
      (func (local handle) (result i32)
        i32.const 8 new_segment set 0
        get 0 i32.const 4 i32.handle.add i32.segload))
    """
    # read of the second field through a handle based at the first
    src = src.replace("i32.handle.add", "handle.add")
    res = run(parse_module(src))

    refined = check_ms(res.trace, shading=two_field)
    assert isinstance(refined, Violation)
    assert refined.kind == "shade"
    assert isinstance(check_ms(res.trace), Safe)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5000))
def test_delta_injectivity_on_fuzz_traces(seed):
    """A fresh color per allocation, and no two live segments share an
    address."""
    from mswasm.conformance import fuzz_module
    out = relate_trace(run(fuzz_module(seed)).trace)
    if not isinstance(out, Unrelatable):
        abs_events, delta = out
        colors = [e.color for e in abs_events if isinstance(e, AAlloc)]
        assert colors == list(range(len(colors)))
        assert _live_segments_disjoint(delta)


# -- baggy traces: slot bases double as ids ------------------------------


def _baggy_trace(text):
    from mswasm.compiler import compile_module
    from mswasm.minic import parse_source, src_typecheck
    m = compile_module(src_typecheck(parse_source(text)))
    return run(m, backend="baggy").trace


REALLOC_SAME_SLOT = """
module {
  fn main() -> int {
    var (p: ptr<array int>, q: ptr<array int>);
    p := malloc<int>(2);
    free(p);
    q := malloc<int>(2);
    free(q);
    0
  }
  heap 0
}
"""


def test_baggy_slot_reuse_rebinds_freed_key():
    trace = _baggy_trace(REALLOC_SAME_SLOT)
    allocs = [e.handle for e in trace if isinstance(e, SAllocEv)]
    assert len(allocs) == 2 and allocs[0] == allocs[1]  # same (base, id)
    assert isinstance(check_ms(trace), Safe)


def test_baggy_read_after_free_is_temporal():
    from fixtures import UAF_READ
    verdict = check_ms(_baggy_trace(UAF_READ))
    assert isinstance(verdict, Violation)
    assert verdict.kind == "temporal-freed"


def test_allocation_over_live_key_is_unrelatable():
    h = Handle(0, 0, 8, True, 0)
    out = check_ms([SAllocEv(h), SAllocEv(h)])
    assert isinstance(out, Unrelatable) and out.index == 1


def test_a_segment_costs_one_record_not_one_per_byte():
    """Allocating a 2^26-byte segment, writing its last int and freeing it
    relates and checks in memory and time that do not grow with the
    segment's size; a read after the free is still caught."""
    import time
    import tracemalloc

    n = 1 << 26
    h = Handle(0, 0, n, True, 0)
    last = Handle(n - 4, 0, 4, True, 0)
    trace = [SAllocEv(h), WriteEv(I32, last), SFreeEv(h)]
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        verdict = check_ms(trace)
        stale = check_ms(trace + [ReadEv(I32, last)])
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(verdict, Safe)
    assert stale.kind == "temporal-freed" and stale.at == 3
    assert peak < 1 << 20 and elapsed < 1.0


@pytest.mark.parametrize("judge", [check_ms, relate_trace])
def test_an_item_that_is_no_trace_event_is_a_type_error(judge):
    h = Handle(0, 0, 8, True, 0)
    for trace in ([3], [SAllocEv(h), 3]):
        with pytest.raises(TypeError, match=r"^not a trace event: 3$"):
            judge(trace)
