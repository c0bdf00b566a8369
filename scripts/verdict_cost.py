#!/usr/bin/env python3
"""What one judged module costs outside its steps, stage by stage: the
Python calls each stage makes, which only a change to the code moves, and
its best time.

    python3 scripts/verdict_cost.py [N] [SEED]

judges the fuzz workload's bytecode modules and victim/attacker pairs of
chainbench seed SEED (default 1) as `mswasm fuzz` and chainbench judge
them: `link` (pairs only), `typecheck_module`, then `run` on `tagged` at
the fuzz step budget, and `check_ms` on the run's trace.  `init_state` is
the set-up inside `run`, counted on its own too.  It prints one line per
stage:

    STAGE  MODULES  CALLS  CALLS/MODULE  BEST_US/MODULE

CALLS counts the Python function calls the stage makes over all its
modules, as `sys.setprofile` sees them; a built-in's call is no Python
call.  BEST_US/MODULE is the best of N (default 20) timed rounds over the
same modules, in microseconds per module, with the cyclic collector off.
Only the times move between two runs on one checkout.

It reads the programs through chainbench's `programs` and imports mswasm
from the checkout it lies in, so running it in two checkouts compares
their code.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "chainbench")]

import programs
from mswasm.conformance import fuzz_attacker, fuzz_module, fuzz_victim
from mswasm.interp import init_state, link, run
from mswasm.tracerel import check_ms
from mswasm.typecheck import typecheck_module

FUZZ_BUDGET = 1_000_000  # the step budget of `mswasm fuzz`, as chainbench runs it


def count_calls(fn, args_list) -> int:
    """Python function calls made by fn(*args) over args_list."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        for args in args_list:
            fn(*args)
    finally:
        sys.setprofile(None)
    return calls - len(args_list)  # fn's own frames


def best_us(fn, args_list, rounds: int) -> float:
    """Best time of fn(*args) over args_list in `rounds` rounds, in µs
    per call."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(rounds):
            t0 = time.perf_counter()
            for args in args_list:
                fn(*args)
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best / len(args_list) * 1e6


def main(argv: list[str]) -> int:
    rounds = int(argv[0]) if argv else 20
    seed = int(argv[1]) if len(argv) > 1 else 1
    mods, pairs, _ = programs.fuzz_seeds(seed)
    pair_args = []
    for s in pairs:
        victim = fuzz_victim(s)
        pair_args.append((victim, fuzz_attacker(victim, programs.fuzz_attacker_seed(s))))
    judged = [fuzz_module(s) for s in mods] + [link(v, a) for v, a in pair_args]
    for m in judged:
        typecheck_module(m)
    traces = [run(m, "tagged", FUZZ_BUDGET).trace for m in judged]
    stages = (
        ("link", link, pair_args),
        ("typecheck_module", typecheck_module, [(m,) for m in judged]),
        ("init_state", init_state, [(m, "tagged") for m in judged]),
        ("run", run, [(m, "tagged", FUZZ_BUDGET) for m in judged]),
        ("check_ms", check_ms, [(t,) for t in traces]),
    )
    print(f"{'stage':<17} {'modules':>7} {'calls':>7} {'calls/module':>12} {'best_us/module':>14}")
    for name, fn, args_list in stages:
        calls = count_calls(fn, args_list)
        us = best_us(fn, args_list, rounds)
        print(f"{name:<17} {len(args_list):>7} {calls:>7} {calls / len(args_list):>12.2f} {us:>14.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
