#!/usr/bin/env python3
"""One SHA-256 over what the front end and the interpreters do on a fixed
corpus, to show that a change leaves behaviour where it was.

    python3 scripts/trace_digest.py [N]

The corpus is `fuzz_module` seeds 0..N-1, the victim/attacker pairs of
seeds 0..N-1, `fuzz_source` seeds 0..N-1 with and without violations,
and the benchmark's copy, churn and frontend programs of seeds 1-3 (not
the deep one).  N defaults to 200.  Every module runs on both backends at
budgets 1,000,000 and 37; the digest covers each source's typed tree
(`repr(tm.fns)`) and compiled module text, each run's outcome, steps,
results, JSONL trace, trace repr and `check_ms` verdict, each source's
`diff_run_source` report (related, index, reason and both traces), and
each source run's `src_ms` verdict, alone and with a forged read of a raw
integer appended.  It imports mswasm and
chainbench's `programs` from the checkout it lies in, so running it in
two checkouts compares their code.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "chainbench")]

import programs
from mswasm.bytecode import print_module
from mswasm.compiler import compile_module
from mswasm.conformance import (
    diff_run_source, fuzz_attacker, fuzz_module, fuzz_source, fuzz_victim)
from mswasm.interp import BACKENDS, link, run, trace_to_jsonl
from mswasm.minic import INT, SInt, SrcRead, parse_source, src_ms, src_run, src_typecheck
from mswasm.tracerel import check_ms

BUDGETS = (1_000_000, 37)
BENCH_SEEDS = (1, 2, 3)


def sources(n: int) -> list[str]:
    texts = [fuzz_source(s, violations=v) for s in range(n) for v in (False, True)]
    for seed in BENCH_SEEDS:
        for cases in (programs.copy_cases, programs.churn_cases, programs.frontend_cases):
            texts += [c.text for c in cases(seed) if not c.deep]
    return texts


def digest(n: int) -> str:
    h = hashlib.sha256()

    def add(*parts) -> None:
        for p in parts:
            h.update(str(p).encode())
            h.update(b"\0")

    texts = sources(n)
    modules = [fuzz_module(s) for s in range(n)]
    for s in range(n):
        victim = fuzz_victim(s)
        modules.append(link(victim, fuzz_attacker(victim, programs.fuzz_attacker_seed(s))))
    for t in texts:
        tm = src_typecheck(parse_source(t))
        modules.append(compile_module(tm))
        add(repr(tm.fns), print_module(modules[-1]))
    for m in modules:
        for backend in BACKENDS:
            for budget in BUDGETS:
                res = run(m, backend, budget)
                add(res.outcome, res.steps, repr(res.results),
                    trace_to_jsonl(res.trace), repr(res.trace), repr(check_ms(res.trace)))
    for t in texts:
        rep = diff_run_source(t)
        add(rep.related, rep.index, rep.reason, repr(rep.src_trace), repr(rep.tgt_trace))
        tm = src_typecheck(parse_source(t))
        trace = src_run(tm).trace
        add(repr(src_ms(tm.mod, trace)), repr(src_ms(tm.mod, trace + [SrcRead(INT, SInt(3))])))
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(int(sys.argv[1]) if len(sys.argv) > 1 else 200))
