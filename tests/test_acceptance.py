"""Acceptance suite: one test per exit criterion, each printing a PASS
line with its measured time (run with -s to watch).

Run:  pytest tests/test_acceptance.py -v -s
"""

import gc
import random
import time
from concurrent.futures import ThreadPoolExecutor

from mswasm.bytecode import parse_module, print_module
from mswasm.compiler import Layout, compile_module
from mswasm.conformance import (
    diff_run,
    enforce_check,
    fuzz_attacker,
    fuzz_module,
    fuzz_source,
    fuzz_victim,
)
from mswasm.interp import TrapEv, link, run, trace_to_jsonl
from mswasm.minic import Safe, parse_source, src_ms, src_run, src_typecheck
from mswasm.monitor import (
    SAFE,
    AAlloc,
    AFree,
    ARead,
    AWrite,
    ShadowMemory,
    Violation,
    check_trace,
    monitor_step,
)
from mswasm.segmem import SegmentMemory
from mswasm.tracerel import check_ms
from mswasm.typecheck import typecheck_module

from fixtures import (
    UAF_READ,
    UNSAFE_SUITE,
    straight_line_source,
    trim_copy_program,
    user_record_program,
)
from oracles import BruteMonitor, _AllocRecord, run_backend_differential


def report(criterion: str, elapsed: float, budget: float, detail: str = ""):
    assert elapsed < budget, f"{criterion}: {elapsed:.2f}s exceeds {budget}s"
    line = f"PASS {criterion} [{elapsed:.2f}s < {budget:g}s]"
    if detail:
        line += f" {detail}"
    print(line)


def _compile_text(text, segment_size=1 << 16):
    tm = src_typecheck(parse_source(text))
    m = compile_module(tm, segment_size=segment_size)
    typecheck_module(m)
    return tm, m


def test_criterion_1_buffer_copy_fixture():
    _, m_ok = _compile_text(trim_copy_program(1024))
    _, m_over = _compile_text(trim_copy_program(1025))
    t0 = time.perf_counter()
    # clean run at capacity
    res_ok = run(m_ok)
    assert res_ok.outcome == "ok"
    assert not any(isinstance(e, TrapEv) for e in res_ok.trace)
    # one element past capacity: the final write must be the only trap
    res_over = run(m_over)
    assert res_over.outcome == "trap"
    traps = [e for e in res_over.trace if isinstance(e, TrapEv)]
    assert len(traps) == 1 and isinstance(res_over.trace[-1], TrapEv)
    # exactly 1024 writes into the destination landed before the trap
    writes = [e for e in res_over.trace
              if e.kind == "write" and e.handle.id == 1]
    assert len(writes) == 1024
    report("criterion-1 buffer-copy fixture", time.perf_counter() - t0, 1.0)


def test_criterion_2_intra_object_fixture():
    t0 = time.perf_counter()
    tm, m = _compile_text(user_record_program(32))
    layout = Layout(tm.mod)
    id_off, _ = layout.field_offsets("User", "id")
    res = run(m)
    assert res.outcome == "trap"
    assert isinstance(res.trace[-1], TrapEv)
    # post-mortem: the id cell still holds 77, the overflow never landed
    seg = res.config.backend
    alloc_ev = res.trace[0]
    at = alloc_ev.handle.base + id_off
    id_bytes = bytes(seg.data[at:at + 4])
    assert id_bytes == (77).to_bytes(4, "little")
    report("criterion-2 intra-object fixture", time.perf_counter() - t0, 1.0)


def test_criterion_3_well_typed_modules_are_safe():
    t0 = time.perf_counter()
    failures = []
    for seed in range(1000):
        m = fuzz_module(seed)
        typecheck_module(m)
        res = run(m, budget=200_000)
        if not isinstance(check_ms(res.trace), Safe):
            failures.append(seed)
    assert failures == []
    report("criterion-3 robust-safety fuzz (1000 modules)",
           time.perf_counter() - t0, 60.0)


def test_criterion_4_robustness_under_linking():
    t0 = time.perf_counter()
    failures = []
    for vseed in range(200):
        victim = fuzz_victim(vseed)
        for aseed in range(5):
            ctx = fuzz_attacker(victim, vseed * 1000 + aseed)
            whole = link(victim, ctx)
            typecheck_module(whole)
            res = run(whole, budget=200_000)
            if not isinstance(check_ms(res.trace), Safe):
                failures.append((vseed, aseed))
    assert failures == []
    report("criterion-4 robustness (200 victims x 5 attackers)",
           time.perf_counter() - t0, 120.0)


def _safe_source_corpus(n: int):
    corpus = []
    seed = 0
    while len(corpus) < n:
        tm = src_typecheck(parse_source(fuzz_source(seed, violations=False)))
        verdict = src_ms(tm.mod, src_run(tm).trace)
        if isinstance(verdict, Safe):
            corpus.append(tm)
        seed += 1
    return corpus


def test_criterion_5_safety_preservation():
    t0 = time.perf_counter()
    corpus = _safe_source_corpus(200)
    for i, tm in enumerate(corpus):
        m = compile_module(tm)
        typecheck_module(m)
        rep = diff_run(tm, m)
        assert rep.related, (i, rep.index, rep.reason)
        assert isinstance(rep.src_verdict, Safe), i
        assert isinstance(check_ms(rep.tgt_trace), Safe), i
    report("criterion-5 preservation (200 safe programs)",
           time.perf_counter() - t0, 120.0)


def test_criterion_6_violations_trap():
    t0 = time.perf_counter()
    assert len(UNSAFE_SUITE) >= 12
    for name, text in UNSAFE_SUITE.items():
        rep = diff_run_text(text)
        assert rep.related, (name, rep.index, rep.reason)
        assert not isinstance(rep.src_verdict, Safe), name
        k = rep.src_verdict.index
        assert len(rep.tgt_trace) == k + 1, name
        assert isinstance(rep.tgt_trace[k], TrapEv), name
        traps = [e for e in rep.tgt_trace if isinstance(e, TrapEv)]
        assert len(traps) == 1, name
    report(f"criterion-6 trap shape ({len(UNSAFE_SUITE)} programs)",
           time.perf_counter() - t0, 10.0)


def diff_run_text(text):
    return diff_run(*_compile_text(text))


def test_criterion_7_unconditional_enforcement():
    t0 = time.perf_counter()
    corpus = [tm for tm in _safe_source_corpus(200)]
    corpus += [src_typecheck(parse_source(text)) for text in UNSAFE_SUITE.values()]
    for seed in range(500):
        corpus.append(src_typecheck(parse_source(
            fuzz_source(10_000 + seed, violations=bool(seed % 2)))))
    for i, tm in enumerate(corpus):
        m = compile_module(tm)
        typecheck_module(m)
        assert enforce_check(m), i
    report(f"criterion-7 enforcement ({len(corpus)} programs)",
           time.perf_counter() - t0, 120.0)


def _alphabet():
    events = []
    for a in range(4):
        for c in range(2):
            for s in range(2):
                events.append(ARead(a, c, s))
                events.append(AWrite(a, c, s))
    for a in range(4):
        for c in range(2):
            for shades in [(0,), (1,)]:
                events.append(AAlloc(1, a, c, shades))
            for shades in [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]:
                events.append(AAlloc(2, a, c, shades))
    for a in range(4):
        for c in range(2):
            events.append(AFree(a, c))
    return events


def test_criterion_8_monitor_vs_bruteforce_exhaustive():
    """All traces of <= 5 events over the bounded alphabet, explored as
    the reachable (monitor state, oracle state) transition graph: both
    checkers are deterministic state machines, so agreement on every
    reachable transition is agreement on every trace."""
    t0 = time.perf_counter()
    alphabet = _alphabet()
    seen: dict = {}
    transitions = 0

    def clone_records(bm):
        out = BruteMonitor(colors=set(bm.colors))
        out.records = [_AllocRecord(r.size, r.addr, r.color, r.shades, r.freed)
                       for r in bm.records]
        return out

    def dfs(shadow, bm, depth):
        nonlocal transitions
        key = (tuple(shadow.blocks.items()), tuple(shadow.ranges), bm.state_key())
        if seen.get(key, -1) >= depth:
            return
        seen[key] = depth
        if depth == 0:
            return
        for ev in alphabet:
            shadow2 = ShadowMemory(dict(shadow.blocks), list(shadow.ranges))
            kind_m = monitor_step(shadow2, ev)
            bm2 = clone_records(bm)
            kind_b = bm2.step_kind(ev)
            transitions += 1
            assert kind_m == kind_b, (shadow, bm.state_key(), ev, kind_m, kind_b)
            if kind_m is None:
                dfs(shadow2, bm2, depth - 1)

    dfs(ShadowMemory(), BruteMonitor(), 5)
    report("criterion-8 monitor oracle (exhaustive depth 5)",
           time.perf_counter() - t0, 60.0,
           detail=f"({transitions} transitions checked)")


def test_monitor_scales_linearly_with_frees():
    """2,000 rounds of alloc(16), write, free at distinct addresses: a
    free must not sweep the history or the shadow cells."""
    trace = []
    for r in range(2000):
        a = 16 * r
        trace += [AAlloc(16, a, r, (0,) * 16), AWrite(a, r, 0), AFree(a, r)]
    t0 = time.perf_counter()
    verdict = check_trace(trace)
    elapsed = time.perf_counter() - t0
    assert verdict == SAFE
    assert check_trace(trace + [ARead(0, 0, 0)]) == Violation("temporal-freed", 6000)
    report("monitor scaling (6000 events)", elapsed, 0.25)


def _compile_chain_s(text: str) -> float:
    """Seconds for text through the chain of `mswasm compile` and the
    parse of `mswasm run`, with the garbage collector paused as timeit
    does."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _, m = _compile_text(text)
        parse_module(print_module(m))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def test_compile_chain_grows_linearly():
    """1,600 statements in one block compile within 12x the time of 200
    (8x is linear).  Best of 3 each, interleaved; a sample of the small
    program averages 8 back-to-back runs, so both sides of a sample span
    about the same wall time on a host whose speed flips."""
    small, large = straight_line_source(200), straight_line_source(1600)
    t_small, t_large = [], []
    for _ in range(3):
        t_small.append(sum(_compile_chain_s(small) for _ in range(8)) / 8)
        t_large.append(_compile_chain_s(large))
    ratio = min(t_large) / min(t_small)
    report("linear compile chain (200 vs 1600 statements)", min(t_large),
           12 * min(t_small), detail=f"({ratio:.1f}x for 8x the statements)")


def test_criterion_9_backend_vs_naive_oracle():
    t0 = time.perf_counter()
    for seed in range(10_000):
        run_backend_differential(SegmentMemory(256), random.Random(seed), steps=12)
    report("criterion-9 backend oracle (10000 sequences)",
           time.perf_counter() - t0, 60.0)


def test_criterion_10_baggy_differentials():
    t0 = time.perf_counter()
    # the copy overflow exceeds slot + slack: the baggy backend traps too
    _, m_over = _compile_text(trim_copy_program(1025))
    assert run(m_over, backend="baggy").outcome == "trap"
    # use-after-free: tagged traps, baggy does not (temporal safety is
    # deliberately absent)
    _, m_uaf = _compile_text(UAF_READ)
    assert run(m_uaf, backend="tagged").outcome == "trap"
    assert run(m_uaf, backend="baggy").outcome == "ok"
    # handle strays: within half a slot is marked but usable again;
    # farther traps
    from mswasm.baggy import BuddyMemory
    from mswasm.segmem import MemTrap
    mem = BuddyMemory(256)
    h = mem.alloc(32)
    marked = mem.handle_add(h, -16)
    assert marked.marked
    assert mem.handle_add(marked, 16) == h
    try:
        mem.handle_add(h, 48 + 1)
        raise AssertionError("stray past slot/2 must trap")
    except MemTrap:
        pass
    report("criterion-10 baggy differentials", time.perf_counter() - t0, 10.0)


def test_criterion_11_determinism():
    t0 = time.perf_counter()
    fixtures = [trim_copy_program(64), trim_copy_program(80, dst_cap=64),
                user_record_program(32), UAF_READ]
    modules = [_compile_text(text)[1] for text in fixtures]

    def trace_of(m):
        return trace_to_jsonl(run(m).trace)

    sequential = [[trace_of(m) for m in modules] for _ in range(3)]
    assert sequential[0] == sequential[1] == sequential[2]
    for workers in (1, 8):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pooled = list(pool.map(trace_of, modules))
        assert pooled == sequential[0], f"workers={workers}"
    report("criterion-11 determinism (3 runs, pools 1 and 8)",
           time.perf_counter() - t0, 30.0)
