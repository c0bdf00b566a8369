"""Command-line front end.

Exit codes: 0 ok, 2 usage (also `run` or `check` on a module with imports,
and `diff` on a source with imports), 10 trap, 11 type error, 12 parse
error (also text nested past bytecode.MAX_NESTING), 13 monitor violation
(also `fuzz` and `fuzz --attacker` with a counterexample), 14 step budget
exhausted, 15 differential divergence (also `fuzz --source` with a
counterexample), 16 internal error (an interpreter bug, interp.InterpBug,
or memory exhausted, MemoryError).

A source text with more than one error exits with the code of the first
in the order the minic docstring gives: parse errors outside the function
bodies, then the function names, then the bodies in text order, then
main.  So a type error in one body (11) comes before a parse error in a
later body (12).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import bytecode, conformance, interp, minic, monitor, tracerel
from .compiler import compile_module
from .minic import Safe, SrcHostError, SrcParseError, SrcTypeError
from .typecheck import TypeError_, typecheck_module

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TRAP = 10
EXIT_TYPE = 11
EXIT_PARSE = 12
EXIT_VIOLATION = 13
EXIT_BUDGET = 14
EXIT_DIVERGED = 15
EXIT_INTERNAL = 16


def _load_module(path: str) -> bytecode.ModuleDef:
    return bytecode.parse_module(Path(path).read_text())


def cmd_parse(args) -> int:
    m = _load_module(args.file)
    sys.stdout.write(bytecode.print_module(m))
    return EXIT_OK


def cmd_typecheck(args) -> int:
    m = _load_module(args.file)
    typecheck_module(m)
    print("well-typed")
    return EXIT_OK


def cmd_run(args) -> int:
    m = _load_module(args.file)
    typecheck_module(m)
    res = interp.run(m, backend=args.backend, budget=args.budget,
                     segment_size=args.segment_size)
    jsonl = interp.trace_to_jsonl(res.trace)
    if args.trace:
        Path(args.trace).write_text(jsonl)
    else:
        sys.stdout.write(jsonl)
    if res.outcome == "trap":
        return EXIT_TRAP
    if res.outcome == "budget":
        return EXIT_BUDGET
    return EXIT_OK


def cmd_compile(args) -> int:
    interp.check_memory_size("segment", args.segment_size)
    tm = minic.parse_source(Path(args.file).read_text())
    m = compile_module(tm, segment_size=args.segment_size)
    typecheck_module(m)
    text = bytecode.print_module(m)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check(args) -> int:
    m = _load_module(args.file)
    typecheck_module(m)
    res = interp.run(m, budget=args.budget)
    verdict = tracerel.check_ms(res.trace)
    if isinstance(verdict, Safe):
        print(f"safe ({len(res.trace)} events, outcome {res.outcome})")
        return EXIT_OK
    print(f"violation: {verdict}", file=sys.stderr)
    return EXIT_VIOLATION


def cmd_monitor(args) -> int:
    events = monitor.parse_abs_trace(Path(args.file).read_text())
    verdict = monitor.check_trace(events)
    if isinstance(verdict, monitor.Safe):
        print(f"safe ({len(events)} events)")
        return EXIT_OK
    print(f"violation at event {verdict.index}: {verdict.kind}", file=sys.stderr)
    return EXIT_VIOLATION


def cmd_diff(args) -> int:
    text = Path(args.file).read_text()
    report = conformance.diff_run_source(text)
    payload = {
        "related": report.related,
        "src_verdict": "safe" if isinstance(report.src_verdict, Safe)
        else f"unsafe@{report.src_verdict.index}",
        "src_events": len(report.src_trace),
        "tgt_events": len(report.tgt_trace),
    }
    if report.diverged:
        payload.update({"index": report.index, "reason": report.reason})
    if args.json:
        print(json.dumps(payload))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")
    return EXIT_DIVERGED if report.diverged else EXIT_OK


def _save_counterexample(outdir: Path, name: str, bundle: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for key, value in bundle.items():
        (outdir / f"{name}.{key}").write_text(value)


def _fuzz_one_module(m, outdir: Path, name: str, budget: int) -> bool:
    """Typecheck, run and monitor one fuzzed module; on a violation save
    its bundle under `name` and return True."""
    typecheck_module(m)
    res = interp.run(m, budget=budget)
    verdict = tracerel.check_ms(res.trace)
    if isinstance(verdict, Safe):
        return False
    _save_counterexample(outdir, name, {
        "mswat": bytecode.print_module(m),
        "tgt_trace": interp.trace_to_jsonl(res.trace),
        "report": repr(verdict),
    })
    return True


def cmd_fuzz(args) -> int:
    failures = 0
    outdir = Path(args.out)
    t0 = time.perf_counter()
    for i in range(args.n):
        seed = args.seed + i
        if args.attacker:
            victim = conformance.fuzz_victim(seed)
            ctx = conformance.fuzz_attacker(victim, seed * 31 + 1)
            bad = _fuzz_one_module(interp.link(victim, ctx), outdir,
                                   f"attacker-{seed}", args.budget)
        elif args.source:
            text = conformance.fuzz_source(seed, violations=(i % 2 == 0))
            tm = minic.parse_source(text)
            m = compile_module(tm)
            typecheck_module(m)
            report = conformance.diff_run(tm, m)
            bad = report.diverged
            if bad:
                _save_counterexample(outdir, f"diff-{seed}", {
                    "src": text,
                    "mswat": bytecode.print_module(m),
                    "src_trace": "\n".join(repr(e) for e in report.src_trace),
                    "tgt_trace": interp.trace_to_jsonl(report.tgt_trace),
                    "report": f"{report.index}: {report.reason}",
                })
        else:
            bad = _fuzz_one_module(conformance.fuzz_module(seed), outdir,
                                   f"module-{seed}", args.budget)
        failures += bad
    dt = time.perf_counter() - t0
    print(f"{args.n} runs, {failures} counterexamples, {dt:.2f}s")
    if failures == 0:
        return EXIT_OK
    return EXIT_DIVERGED if args.source else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mswasm",
                                description="segment-memory bytecode toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("parse", help="parse and reprint a module")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("typecheck", help="typecheck a module")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_typecheck)

    sp = sub.add_parser("run", help="run a module, emitting its trace")
    sp.add_argument("file")
    sp.add_argument("--backend", choices=("tagged", "baggy"), default="tagged")
    sp.add_argument("--trace", help="write JSON-lines trace here")
    sp.add_argument("--budget", type=int, default=interp.DEFAULT_BUDGET)
    sp.add_argument("--segment-size", type=int, default=None)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("compile", help="compile a source program")
    sp.add_argument("file")
    sp.add_argument("-o", "--output")
    sp.add_argument("--segment-size", type=int, default=1 << 16)
    sp.set_defaults(fn=cmd_compile)

    sp = sub.add_parser("check", help="run + relate + monitor")
    sp.add_argument("file")
    sp.add_argument("--budget", type=int, default=interp.DEFAULT_BUDGET)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("monitor", help="check an abstract JSON-lines trace")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_monitor)

    sp = sub.add_parser("diff", help="differential source-vs-compiled run")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_diff)

    sp = sub.add_parser("fuzz", help="fuzz campaigns")
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--attacker", action="store_true",
                    help="victim+attacker linking campaign")
    sp.add_argument("--source", action="store_true",
                    help="source-program differential campaign")
    sp.add_argument("--budget", type=int, default=1_000_000)
    sp.add_argument("--out", default="counterexamples")
    sp.set_defaults(fn=cmd_fuzz)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (bytecode.ParseError, bytecode.ValidationError, SrcParseError,
            monitor.AbsTraceError, UnicodeDecodeError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (TypeError_, SrcTypeError) as e:
        print(f"type error: {e}", file=sys.stderr)
        return EXIT_TYPE
    except (interp.InitError, interp.LinkError, SrcHostError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except (interp.InterpBug, MemoryError) as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
