"""src_run against the tree walker it replaced, and the cross relation
against the formula it replaced, which walks the layout on every access
(both in oracles.py), on the fixtures, the source fuzz corpora and the
benchmark's source programs."""

import importlib.util
import sys
from pathlib import Path

import pytest

from fixtures import (
    I32_EDGES,
    NESTED_CONSTRUCTS,
    UAF_READ,
    UNSAFE_SUITE,
    nested_source,
    straight_line_source,
    trim_copy_program,
    user_record_program,
)
from oracles import RefCrossBijection, ref_relate_events, ref_relate_value, ref_src_run
from mswasm.bytecode import MAX_NESTING
from mswasm.compiler import Layout, compile_module
from mswasm.conformance import (
    CrossBijection, diff_run_source, fuzz_source, relate_events, relate_value)
from mswasm.interp import ReadEv, SFreeEv, WriteEv, run
from mswasm.minic import (
    SInt, SPtr, SrcFree, SrcRead, SrcWrite, parse_source, src_run, src_typecheck)


def _bench_programs():
    """chainbench/programs.py, which imports nothing from mswasm."""
    name = "chainbench_programs"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "chainbench" / "programs.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _corpus(group: str) -> list[str]:
    if group == "fixtures":
        texts = [trim_copy_program(3, 4), trim_copy_program(6, 4), user_record_program(5),
                 user_record_program(33), UAF_READ, straight_line_source(300)]
        texts += UNSAFE_SUITE.values()
        texts += [text for text, *_ in I32_EDGES.values()]
        texts += [nested_source(c, MAX_NESTING) for c in NESTED_CONSTRUCTS]
    elif group == "bench":
        programs = _bench_programs()
        texts = [case.text for seed in (1, 2, 3)
                 for cases in (programs.copy_cases, programs.churn_cases, programs.frontend_cases)
                 for case in cases(seed)]
    else:
        texts = [fuzz_source(seed, violations) for seed in range(200)
                 for violations in (False, True)]
    return list(dict.fromkeys(texts))


GROUPS = ("fixtures", "bench", "fuzz")


def _observed(res):
    """Everything a run yields, with each value's class in its repr."""
    return res.outcome, repr(res.result), repr(res.trace), repr(res.heap)


@pytest.mark.parametrize("group", GROUPS)
def test_src_run_matches_the_tree_walker(group):
    for text in _corpus(group):
        tm = src_typecheck(parse_source(text))
        assert _observed(src_run(tm)) == _observed(ref_src_run(tm)), text


@pytest.mark.parametrize("name", list(I32_EDGES))
def test_both_interpreters_compute_i32(name):
    """The outcome, result and cells written out by hand: ints wrap, /
    truncates toward zero, and x / 0 and int_min / -1 trap.  The compiled
    run relates to the source run, results included."""
    text, outcome, result, cells = I32_EDGES[name]
    want = (outcome, None if result is None else SInt(result), [SInt(c) for c in cells])
    tm = parse_source(text)
    for res in (src_run(tm), ref_src_run(tm)):
        assert (res.outcome, res.result, res.heap) == want
    assert diff_run_source(text).related


INFINITE = """
module {
  fn main() -> int { var (); let x = ping(0) in x }
  fn ping(n: int) -> int { var (p: ptr<array int>); p := malloc<int>(1); let y = pong(n + 1) in y }
  fn pong(n: int) -> int { var (); let y = ping(n) in y }
  heap 0
}"""


def test_infinite_recursion_ends_in_budget_on_both():
    tm = src_typecheck(parse_source(INFINITE))
    for budget in (1, 50, 5000, 100_000):
        new, ref = src_run(tm, budget=budget), ref_src_run(tm, budget=budget)
        assert new.outcome == ref.outcome == "budget"
        assert new.result is ref.result is None
        # both stop in the middle of the same unbounded trace
        n = min(len(new.trace), len(ref.trace))
        assert new.trace[:n] == ref.trace[:n]
    assert len(src_run(tm, budget=100_000).trace) > 1000


def _mutants(h):
    """h with one of base, offset, bound or id moved by one."""
    return [h._replace(**{f: getattr(h, f) + d})
            for f in ("base", "offset", "bound", "id") for d in (-1, 1)]


@pytest.mark.parametrize("group", GROUPS)
def test_relation_matches_the_layout_walk(group):
    related_accesses = 0
    for text in _corpus(group):
        tm = src_typecheck(parse_source(text))
        s_tr, t_tr = src_run(tm).trace, run(compile_module(tm)).trace
        layout, delta, ref_delta = Layout(tm.mod), CrossBijection(), RefCrossBijection()
        for se, te in zip(s_tr, t_tr):
            ok = relate_events(layout, delta, se, te)
            assert ok == ref_relate_events(layout, ref_delta, se, te), (text, se, te)
            if not (isinstance(se, (SrcRead, SrcWrite, SrcFree)) and isinstance(se.v, SPtr)
                    and isinstance(te, (ReadEv, WriteEv, SFreeEv))):
                continue
            related_accesses += ok
            for h in _mutants(te.handle):
                got = relate_value(layout, delta, se.v, h)
                assert got == ref_relate_value(layout, ref_delta, se.v, h), (text, se, h)
                assert not (ok and got), (text, se, h)
    assert related_accesses > 50
