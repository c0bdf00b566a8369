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
integer appended.

It also covers the front end's failure paths and the text round trip:
the exception class and message of `parse_source` on 20 token mutants of
each source (`tests/fixtures.token_mutants`), and for each compiled
module whether `parse_module(print_module(m)) == m`, and what
`parse_module` and then `typecheck_module` give on 10 line mutants of its
text (`code_mutants`): the exception class and message, and a
ParseError's line and column.

It imports mswasm, chainbench's `programs` and the tests' `fixtures`
from the checkout it lies in, so running it in two checkouts compares
their code.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "chainbench"), str(ROOT / "tests")]

import programs
from fixtures import token_mutants
from mswasm.bytecode import ParseError, parse_module, print_module
from mswasm.compiler import compile_module
from mswasm.conformance import (
    diff_run_source, fuzz_attacker, fuzz_module, fuzz_source, fuzz_victim)
from mswasm.interp import BACKENDS, link, run, trace_to_jsonl
from mswasm.minic import INT, SInt, SrcRead, parse_source, src_ms, src_run
from mswasm.tracerel import check_ms
from mswasm.typecheck import typecheck_module

BUDGETS = (1_000_000, 37)
BENCH_SEEDS = (1, 2, 3)
SOURCE_MUTANTS = 20
CODE_MUTANTS = 10

# Lines a module text's mutant may take in: ill-typed, malformed or out
# of range, and a `;` comment, a form feed and a non-ASCII letter, which
# only the regular-expression tokenizer of parse_module reads.
ODD_LINES = ("i64.add", "get 99", "call 9", "(if", ")", "(then", "(else", "return", "trap",
             "i32.const", "i32.const 4294967296", "f32.const 1e999", "handle.const 0",
             "handle.segload", "slice", "bogus", "; a comment", "\x0c", "\u00e9")


def sources(n: int) -> list[str]:
    texts = [fuzz_source(s, violations=v) for s in range(n) for v in (False, True)]
    for seed in BENCH_SEEDS:
        for cases in (programs.copy_cases, programs.churn_cases, programs.frontend_cases):
            texts += [c.text for c in cases(seed) if not c.deep]
    return texts


def code_mutants(text: str, seed: int, n: int) -> list[str]:
    """n mutants of a module text, each with one line deleted, doubled,
    swapped with the next one, or replaced by another line of the text or
    of ODD_LINES."""
    lines = text.split("\n")
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        t = list(lines)
        i = rng.randrange(len(t))
        kind = rng.randrange(4)
        if kind == 0:
            del t[i]
        elif kind == 1:
            t.insert(i, t[i])
        elif kind == 2 and i + 1 < len(t):
            t[i], t[i + 1] = t[i + 1], t[i]
        else:
            t[i] = rng.choice(ODD_LINES + tuple(lines))
        out.append("\n".join(t))
    return out


def outcome(f, *args) -> str:
    """What f(*args) raises, with a ParseError's line and column, or "ok"."""
    try:
        f(*args)
    except ParseError as e:
        return f"ParseError {e} {e.line} {e.col}"
    except Exception as e:
        return f"{type(e).__name__} {e}"
    return "ok"


def check_text(text: str) -> None:
    typecheck_module(parse_module(text))


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
    for j, t in enumerate(texts):
        tm = parse_source(t)
        modules.append(compile_module(tm))
        code = print_module(modules[-1])
        add(repr(tm.fns), code, parse_module(code) == modules[-1])
        for mutant in token_mutants(t, j, SOURCE_MUTANTS):
            add(outcome(parse_source, mutant))
        for mutant in code_mutants(code, j, CODE_MUTANTS):
            add(outcome(check_text, mutant))
    for m in modules:
        for backend in BACKENDS:
            for budget in BUDGETS:
                res = run(m, backend, budget)
                add(res.outcome, res.steps, repr(res.results),
                    trace_to_jsonl(res.trace), repr(res.trace), repr(check_ms(res.trace)))
    for t in texts:
        rep = diff_run_source(t)
        add(rep.related, rep.index, rep.reason, repr(rep.src_trace), repr(rep.tgt_trace))
        tm = parse_source(t)
        trace = src_run(tm).trace
        add(repr(src_ms(tm.mod, trace)), repr(src_ms(tm.mod, trace + [SrcRead(INT, SInt(3))])))
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(int(sys.argv[1]) if len(sys.argv) > 1 else 200))
