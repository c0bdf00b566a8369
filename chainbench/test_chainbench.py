"""The benchmark's own tests: the expected values of programs.py against
hand-worked ones on the smallest sizes, every output check against a wrong
answer, and a few tiny programs through the real chain.

    PYTHONPATH=src python -m pytest -q chainbench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import bench
import programs
import run
from mswasm.interp import TrapEv


def _case_program(case):
    return bench.Program("src", case.name, case)


def _ok_run(value, n_events):
    return SimpleNamespace(outcome="ok", trace=[object()] * n_events,
                           results=[SimpleNamespace(v=value)])


# -- expected values, worked by hand ----------------------------------------


def test_copy_checksum_by_hand():
    # sum of (i + 1) * (i * a + b)
    assert programs.copy_checksum(2, 1, 0) == 1 * 0 + 2 * 1
    assert programs.copy_checksum(3, 2, 5) == 1 * 5 + 2 * 7 + 3 * 9


def test_copy_event_counts_by_hand():
    # N = 1: main 0-5, fill step 6-9, fill end 10, reset 11, copy step
    # 12-17, copy end 18, resets 19-20, sum step 21-26, sum end 27-28
    assert programs.copy_events(1) == 29
    # N = 2 into CAP = 1: fill 6-14, reset 15, copy step 16-21, then the
    # reads of st.i, st.d, st.s and src[1] at 22-25 and the write at 26
    assert programs.copy_overflow_index(2, 1) == 26


def test_churn_expectations_by_hand():
    assert programs.churn_cells(3, 3, 0) == (1, 4, 7)
    assert programs.churn_cells(2, 3, 15) == (16, 3)
    assert programs.churn_frees(3) == 2          # round 0 is kept
    assert programs.churn_frees(13) == 10        # rounds 0, 6 and 12 are kept
    # main 3, one kept round 9, final reads 2
    assert programs.churn_events(1) == 14
    assert programs.churn_events(2) == 14 + 10


def test_frontend_evaluator_by_hand():
    gen = programs._FrontendGen(None, None)
    env, heap = {"x": -7}, {("f", "f0"): 3}
    assert gen.value(("/", ("v", "x"), ("n", 2)), env, heap) == -3
    assert gen.value(("+", ("f", "f0"), ("<", ("v", "x"), ("n", 0))), env, heap) == 4
    stmts = [("set", "x", ("n", 5)),
             ("if", ("==", ("v", "x"), ("n", 5)),
              [("setf", "f0", ("*", ("v", "x"), ("n", 3)))], [("set", "x", ("n", 0))])]
    gen.run(stmts, env, heap)
    assert env["x"] == 5 and heap[("f", "f0")] == 15


def test_deep_program_is_fixed():
    text, value = programs.deep_program()
    assert text.count(":=") == programs.DEEP_STMTS
    assert value == sum(i % 7 for i in range(programs.DEEP_STMTS))
    assert [c.text for c in programs.frontend_cases(1) if c.deep] == \
        [c.text for c in programs.frontend_cases(2) if c.deep]


def test_inputs_follow_the_seed():
    assert programs.copy_cases(4) == programs.copy_cases(4)
    assert programs.copy_cases(4) != programs.copy_cases(5)
    assert programs.frontend_cases(4) == programs.frontend_cases(4)


# -- each check rejects a wrong answer --------------------------------------


def test_wrong_checksum_is_rejected():
    case = replace(programs.copy_cases(1)[0], alloc_lengths=None)
    p = _case_program(case)
    chk = bench.Checks()
    bench.check_target_run(chk, p, _ok_run(case.value, case.src_events), "baggy")
    assert chk.failures == []
    bench.check_target_run(chk, p, _ok_run(case.value + 1, case.src_events), "baggy")
    assert len(chk.failures) == 1


def test_trap_at_wrong_index_is_rejected():
    case = programs.copy_cases(1)[-1]
    k = case.unsafe_at
    p = _case_program(case)
    for n_before, failures in ((k, 0), (k - 1, 3), (k + 1, 3)):
        chk = bench.Checks()
        trace = [object()] * n_before + [TrapEv()]
        bench.check_target_run(chk, p, SimpleNamespace(outcome="trap", trace=trace), "tagged")
        bench.check_source_verdict(chk, p, (True, False, n_before), [], trace)
        assert len(chk.failures) == failures  # index and shape, and the run


def test_second_trap_is_rejected():
    case = programs.copy_cases(1)[-1]
    k = case.unsafe_at
    trace = [object()] * (k - 1) + [TrapEv(), TrapEv()]
    chk = bench.Checks()
    bench.check_source_verdict(chk, _case_program(case), (True, False, k), [], trace)
    assert chk.failures


def test_unrelated_or_unsafe_verdicts_are_rejected():
    case = programs.copy_cases(1)[0]
    p = _case_program(case)
    for verdict in ((False, True, -1), (True, False, 3)):
        chk = bench.Checks()
        bench.check_source_verdict(chk, p, verdict, [object()] * case.src_events, [])
        assert chk.failures
    chk = bench.Checks()
    p = _case_program(programs.SourceCase("v", "", violating=True))
    bench.check_source_verdict(chk, p, (True, True, -1), [], [])
    assert chk.failures


def test_fuzz_module_judged_unsafe_is_rejected():
    p = bench.Program("mod", "m")
    chk = bench.Checks()
    bench.check_module_verdict(chk, p, SimpleNamespace(outcome="trap"), True)
    assert chk.failures == []
    bench.check_module_verdict(chk, p, SimpleNamespace(outcome="trap"), False)
    bench.check_module_verdict(chk, p, SimpleNamespace(outcome="budget"), True)
    assert len(chk.failures) == 2


# -- tiny programs through the real chain -----------------------------------


def _one_pass(cases, traced=False):
    progs = [_case_program(c) for c in cases]
    chk = bench.Checks()
    bench.reference_pass(progs, chk)
    errors = set()
    bench.run_pass(progs, bench.UNTRACED, chk, errors)
    if traced:
        tr = bench.Tracer()
        tr.begin_pass()
        tr.begin_pass()
        bench.run_pass(progs, tr, chk, errors)
        return chk, errors, tr
    return chk, errors, None


def test_small_copies_pass_every_check_traced_and_untraced():
    a, b = 3, 7
    cases = [programs.SourceCase("copy-4", programs.copy_program(4, 4, a, b),
                                 value=programs.copy_checksum(4, a, b),
                                 src_events=programs.copy_events(4),
                                 alloc_lengths=(1, 4, 4), frees=0),
             # 4 ints = 16 bytes, one whole baggy slot
             programs.SourceCase("copy-overflow", programs.copy_program(5, 4, a, b),
                                 unsafe_at=programs.copy_overflow_index(5, 4))]
    chk, errors, tr = _one_pass(cases, traced=True)
    assert chk.failures == [] and errors == set()
    times, counts = bench.per_layer(tr)
    assert counts[0]["minic.src_events"] == programs.copy_events(4) + \
        programs.copy_overflow_index(5, 4) + 1
    assert counts[0]["monitor.frees"] == 0
    assert set(run.LAYER_TIMES) <= set(times)


def test_small_churn_passes_every_check():
    case = programs.SourceCase("churn-60", programs.churn_program(60, 5, 3, 9),
                               value=sum(i + 10 for i in range(60)),
                               src_events=programs.churn_events(60),
                               alloc_lengths=(1,) + programs.churn_cells(60, 5, 3),
                               frees=programs.churn_frees(60))
    chk, errors, _ = _one_pass([case])
    assert chk.failures == [] and errors == set()


def _deep_pass():
    text, value = programs.deep_program()
    progs = [_case_program(programs.SourceCase("deep", text, value=value, deep=True))]
    chk = bench.Checks()
    bench.reference_pass(progs, chk)
    stats = bench.run_pass(progs, bench.UNTRACED, chk, set())
    return progs, chk, stats


def test_deep_program_counts_in_no_figure():
    progs, chk, stats = _deep_pass()
    assert stats.attempted == 4 and stats.failed in (0, 4)
    assert chk.failures == []
    assert bench.best_times([stats], progs) == {}
    assert progs[0].instrs == 0


def test_deep_program_once_it_compiles_moves_only_the_failure_count():
    # a deeper recursion limit stands in for an iterative front end
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        progs, chk, stats = _deep_pass()
    finally:
        sys.setrecursionlimit(limit)
    assert (stats.attempted, stats.failed) == (4, 0)
    assert chk.failures == []
    assert bench.best_times([stats], progs) == {}
    assert progs[0].instrs == 0


def test_step_count_stops_at_the_budget():
    case = programs.churn_cases(1)[0]
    p = _case_program(case)
    chk = bench.Checks()
    bench.reference_pass([p], chk)
    assert chk.failures == [] and p.steps["tagged"] > 0
    m = bench.compile_module(bench.src_typecheck(bench.parse_source(case.text)))
    assert bench.count_steps(m, "tagged", p.steps["tagged"]) == p.steps["tagged"]
    assert bench.count_steps(m, "tagged", p.steps["tagged"] - 1) is None


def test_fuzz_campaigns_are_the_same_size():
    mods, pairs, sources = programs.fuzz_seeds(3)
    assert len(mods) == len(pairs) == len(sources) == programs.FUZZ_PER_CAMPAIGN


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
