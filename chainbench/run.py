#!/usr/bin/env python3
"""Benchmark of the mswasm chain: front end, source interpreter, compiler,
both enforcement backends, relation and monitor, on four workloads.

    python3 chainbench/run.py                  # every workload, one after another
    python3 chainbench/run.py --workload copy --seed 1 --seconds 10 --trace 0

Run from any directory of a checkout; it imports mswasm from the
checkout's src/.  Each workload is measured in its own processes (see
bench.py): SETUP_RUNS set-ups, one of which goes on to the timed passes
while half the others run before it and half after.  It prints every
metric with its unit and sample count, writes the same as JSON under
chainbench/results/, and ends with one JSON line: the end-to-end metrics
with --trace 0, the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from programs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_RUNS = 7        # set-up is timed in this many processes; the median counts
RUN_LIMIT_S = 170.0   # one workload's processes together stay under this

# name -> unit; every workload reports each of these
END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "compiles_per_s": "1/s",
    "exec_steps_per_s.tagged": "steps/s",
    "exec_steps_per_s.baggy": "steps/s",
    "code_instrs": "instrs",
    "peak_rss_mb": "MB",
}

# Self time per traced pass (ms) of the layers every workload calls, and
# the counts and sizes per pass.  interp.link and conformance.generate run
# on fuzz alone; they are printed and written, but are not metrics here.
LAYER_TIMES = (
    "minic.parse_source_ms", "minic.src_typecheck_ms", "compiler.compile_module_ms",
    "typecheck.typecheck_module_ms", "bytecode.print_module_ms",
    "bytecode.parse_module_ms", "minic.src_run_ms", "minic.src_ms_ms",
    "interp.run_ms.tagged", "interp.run_ms.baggy", "conformance.relate_events_ms",
    "tracerel.relate_trace_ms", "monitor.check_trace_ms",
)
LAYER_COUNTS = {
    "interp.steps.tagged": "steps", "interp.steps.baggy": "steps",
    "interp.events": "events", "minic.src_events": "events",
    "tracerel.abs_events": "events", "monitor.frees": "events",
    "minic.src_bytes": "bytes", "bytecode.text_bytes": "bytes",
}
PER_LAYER = {name: "ms" for name in LAYER_TIMES} | LAYER_COUNTS


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, seconds: float, trace: bool,
           setup_only: bool, deadline: float) -> dict:
    """Runs bench.py in a fresh process and returns its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans", str(RESULTS / f"spans-{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:  # subprocess.run has killed and reaped it
        raise BenchError(f"{workload}: worker ran past {RUN_LIMIT_S:.0f} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The set-up probes go half before and half after the measuring
    process, so that their median spans the host's slow speed drift."""
    deadline = time.monotonic() + RUN_LIMIT_S

    def set_ups(n):
        return [worker(workload, seed, seconds, False, True, deadline) for _ in range(n)]

    before = [] if trace else set_ups((SETUP_RUNS - 1) // 2)
    res = worker(workload, seed, seconds, trace, False, deadline)
    after = [] if trace else set_ups(SETUP_RUNS - 1 - len(before))
    probes = before + after
    setups = [p["setup_s"] for p in before] + [res["setup_s"]] + [p["setup_s"] for p in after]
    res["correct"] = res["correct"] and all(p["correct"] for p in probes)
    res["setup_runs"] = setups
    m = res["metrics"]
    m["setup_s"] = {"value": statistics.median(setups), "samples": len(setups)}
    m["code_instrs"] = {"value": res["code_instrs"], "samples": 1}
    m["peak_rss_mb"] = {"value": res["peak_rss_mb"], "samples": 1}
    if trace:
        # every workload calls every one of these layers
        res["per_layer"] = {n: res["layers"][n] for n in LAYER_TIMES} \
            | {n: res["counts"][n] for n in LAYER_COUNTS}
    return res


def report(res: dict, seconds: float, trace: bool) -> dict:
    """Prints one workload's figures; returns its summary for the last line."""
    print(f"== {res['workload']} (seed {res['seed']}, {seconds:g} s, {res['passes']} passes"
          f"{' with spans' if trace else ''}): attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {res['correct']}")
    print(f"   n = operations behind a figure, each at its best of {res['passes']} passes; "
          f"set-ups for setup_s")
    for e in res["errors"]:
        print(f"   failing: {e}")
    for f in res["check_failures"]:
        print(f"   check failed: {f}")
    m = res["metrics"]
    for name, unit in END_TO_END.items():
        print(f"   {name:28s} {m[name]['value']:14.4f} {unit:8s} n={m[name]['samples']}")
    if "verdict_ms.tail" in m:
        t = m["verdict_ms.tail"]
        name = f"verdict_ms.p{t['percentile']}"
        print(f"   {name:28s} {t['value']:14.4f} ms       n={t['samples']}")
    if trace:
        print(f"   per traced pass, each call at its best of {res['passes']}; tracing "
              f"overhead {res['overhead_pct']:.1f}% (summed best operation times, "
              f"traced over untraced); {res['spans']} spans")
        extra = {n: v for n, v in res["layers"].items() if n not in PER_LAYER}
        for name, value in res["per_layer"].items():
            print(f"   {name:32s} {value:14.4f} {PER_LAYER[name]}")
        for name, value in sorted(extra.items()):
            print(f"   ({name:30s} {value:14.4f} ms)")
        if res["generate_ms"] is not None:
            print(f"   (conformance.generate_ms at set-up {res['generate_ms']:14.4f} ms)")
    chosen = PER_LAYER if trace else END_TO_END
    values = res["per_layer"] if trace else {n: m[n]["value"] for n in END_TO_END}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {n: {"value": values[n], "unit": u} for n, u in chosen.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mswasm" / "__init__.py").is_file():
        print(f"no mswasm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    RESULTS.mkdir(exist_ok=True)
    summaries, full = {}, {}
    try:
        for name in names:
            full[name] = run_workload(name, args.seed, args.seconds, trace)
            summaries[name] = report(full[name], args.seconds, trace)
    except BenchError as e:
        print(e, file=sys.stderr)
        return 1
    tag = args.workload if args.workload != "all" else "bench"
    out = RESULTS / f"{tag}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace, "workloads": full}, indent=1))
    print(f"results written to {out.relative_to(ROOT)}")
    print(json.dumps(summaries[names[0]] if len(names) == 1 else summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
