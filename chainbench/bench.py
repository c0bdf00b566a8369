"""One workload in one process: set-up, a warm-up pass, then whole passes
over the workload's fixed program list until the time is up.

    python3 chainbench/bench.py --workload copy --seed 1 --seconds 10 --trace 0

run.py starts this file once per measurement; mswasm must be importable
(run.py puts the checkout's src/ on PYTHONPATH).  The last line printed is
one JSON object with the pass figures.  With --trace 1 the passes alternate
between untraced and traced; the traced ones record a span around every
public mswasm call and give the per-layer figures.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import programs
from mswasm import conformance, interp
from mswasm.bytecode import ModuleDef, parse_module, print_module
from mswasm.compiler import Layout, compile_module
from mswasm.conformance import CrossBijection, diff_run_source, relate_events
from mswasm.interp import SAllocEv, SFreeEv, TrapEv
from mswasm.minic import Safe, SrcAlloc, SrcFree, parse_source, src_ms, src_run, src_typecheck
from mswasm.monitor import AFree, check_trace
from mswasm.tracerel import Unrelatable, check_ms, relate_trace
from mswasm.typecheck import typecheck_module

BACKENDS = ("tagged", "baggy")
FUZZ_BUDGET = 1_000_000  # the step budget of `mswasm fuzz`


# ---------------------------------------------------------------------------
# Spans


class Untraced:
    """Calls straight through; the timed passes use this."""

    traced = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass


UNTRACED = Untraced()


class Tracer:
    """Records a span around each call and per-pass counts, in memory.

    A span is [name, pass, program, parent, start_ns, end_ns]; parent is
    the index of the enclosing span, or -1.  Spans of one program in one
    pass share (pass, program).
    """

    traced = True
    FIELDS = ("name", "pass", "program", "parent", "start_ns", "end_ns")

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[dict[str, int]] = []
        self.program = ""
        self._stack: list[int] = []

    def begin_pass(self) -> None:
        self.counts.append({})

    def call(self, name, fn, *args):
        idx = len(self.spans)
        span = [name, len(self.counts) - 1, self.program,
                self._stack[-1] if self._stack else -1, 0, 0]
        self.spans.append(span)
        self._stack.append(idx)
        span[4] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[5] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name, n):
        counts = self.counts[-1]
        counts[name] = counts.get(name, 0) + n

    def _self_ns(self) -> list[int]:
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[5] - s[4]
        return [s[5] - s[4] - c for s, c in zip(self.spans, child)]

    def best_self_ms(self) -> dict[str, float]:
        """Span name -> self time of one traced pass, in ms, taking every
        call (k-th call of a name in a program) at its best over the
        traced passes.  Pass 0 is set-up and left out."""
        best: dict[tuple[str, str, int], int] = {}
        seen: dict[tuple[int, str, str], int] = {}
        for s, own in zip(self.spans, self._self_ns()):
            if s[1] == 0:
                continue
            k = seen[(s[1], s[2], s[0])] = seen.get((s[1], s[2], s[0]), -1) + 1
            key = (s[2], s[0], k)
            if own < best.get(key, own + 1):
                best[key] = own
        out: dict[str, float] = {}
        for (_, name, _), ns in best.items():
            out[name] = out.get(name, 0.0) + ns / 1e6
        return out

    def generate_ms(self) -> float | None:
        """Self time of the input generators at set-up (pass 0)."""
        own = [ns for s, ns in zip(self.spans, self._self_ns())
               if s[1] == 0 and s[0] == "conformance.generate"]
        return sum(own) / 1e6 if own else None

    def write(self, path: Path, passes: int = 2) -> None:
        """Writes the spans of the first passes (set-up and the first traced
        pass); the others only feed the figures, and fuzz makes about
        1,800 spans a pass."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [s for s in self.spans if s[1] < passes]
        path.write_text(json.dumps({"fields": self.FIELDS, "spans": spans},
                                   separators=(",", ":")))


# ---------------------------------------------------------------------------
# Programs and passes


@dataclass
class Program:
    kind: str                       # "src", "mod" (bytecode module) or "pair"
    name: str
    case: programs.SourceCase | None = None
    module: ModuleDef | None = None  # "mod": the module; "pair": the victim
    attacker: ModuleDef | None = None
    steps: dict[str, int] = field(default_factory=dict)  # per backend, per run
    instrs: int = 0
    verdict: tuple | None = None     # (related, safe, index) of diff_run


@dataclass
class PassStats:
    """One pass: operations attempted and failed, and the time of each
    operation that succeeded, keyed (program name, operation)."""

    attempted: int = 0
    failed: int = 0
    times: dict[tuple[str, str], float] = field(default_factory=dict)


class Checks:
    """Collects failed output checks; a run is correct when none failed."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, program: str, what: str) -> None:
        if not ok:
            self.failures.append(f"{program}: {what}")


def count_instrs(body) -> int:
    return sum(1 + count_instrs(i.then_body) + count_instrs(i.else_body) for i in body)


def module_instrs(m: ModuleDef) -> int:
    return sum(count_instrs(f.body) for f in m.funcs)


def count_steps(m: ModuleDef, backend: str, budget: int) -> int | None:
    """Steps of one run, by driving interp.step (RunResult has no count);
    None if the run would stop at the budget, as interp.run does."""
    config = interp.init_state(m, backend)
    n = 0
    while not config.terminal:
        if n >= budget:
            return None
        interp.step(config)
        n += 1
    return n


def n_traps(trace) -> int:
    return sum(isinstance(e, TrapEv) for e in trace)


def ends_in_one_trap(trace) -> bool:
    return bool(trace) and isinstance(trace[-1], TrapEv) and n_traps(trace) == 1


# -- ops: each takes the tracer (or Untraced) and calls mswasm through it --


def op_compile(tr, text: str) -> tuple[ModuleDef, ModuleDef]:
    """Text to well-typed module and through its text form: `mswasm
    compile` then the parse of `mswasm run`.  Returns (compiled, parsed)."""
    tr.count("minic.src_bytes", len(text))
    tm = tr.call("minic.src_typecheck", src_typecheck,
                 tr.call("minic.parse_source", parse_source, text))
    cm = tr.call("compiler.compile_module", compile_module, tm)
    tr.call("typecheck.typecheck_module", typecheck_module, cm)
    out = tr.call("bytecode.print_module", print_module, cm)
    tr.count("bytecode.text_bytes", len(out))
    return cm, tr.call("bytecode.parse_module", parse_module, out)


def op_run(tr, p: Program, m: ModuleDef, backend: str, budget: int = interp.DEFAULT_BUDGET):
    res = tr.call(f"interp.run.{backend}", interp.run, m, backend, budget)
    if tr.traced:
        tr.count(f"interp.steps.{backend}", p.steps[backend])
        tr.count("interp.events", len(res.trace))
    return res


def monitor_safe(tr, trace) -> bool:
    """check_ms, one layer at a time."""
    related = tr.call("tracerel.relate_trace", relate_trace, trace)
    if isinstance(related, Unrelatable):
        return False
    abs_events = related[0]
    tr.count("tracerel.abs_events", len(abs_events))
    tr.count("monitor.frees", sum(isinstance(e, AFree) for e in abs_events))
    return isinstance(tr.call("monitor.check_trace", check_trace, abs_events), Safe)


def _relate_prefix(layout, s_tr, t_tr, n: int) -> bool:
    delta = CrossBijection()
    return all(relate_events(layout, delta, s_tr[i], t_tr[i]) for i in range(n))


def op_verdict_source(tr, p: Program, text: str):
    """diff_run_source, or in a traced pass the same chain a call at a time.
    Returns ((related, safe, index), source trace, target trace, source
    result or None)."""
    if not tr.traced:
        rep = diff_run_source(text)
        safe = isinstance(rep.src_verdict, Safe)
        return ((rep.related, safe, -1 if safe else rep.src_verdict.index),
                rep.src_trace, rep.tgt_trace, None)
    tr.count("minic.src_bytes", len(text))
    tm = tr.call("minic.src_typecheck", src_typecheck,
                 tr.call("minic.parse_source", parse_source, text))
    layout = Layout(tm.mod)
    sres = tr.call("minic.src_run", src_run, tm)
    tr.count("minic.src_events", len(sres.trace))
    verdict = tr.call("minic.src_ms", src_ms, tm.mod, sres.trace)
    cm = tr.call("compiler.compile_module", compile_module, tm)
    tr.call("typecheck.typecheck_module", typecheck_module, cm)
    t_tr = op_run(tr, p, cm, "tagged").trace
    s_tr = sres.trace
    safe = isinstance(verdict, Safe)
    if safe:
        n = len(s_tr)
        related = sres.outcome == "ok" and len(t_tr) == n
    else:
        n = verdict.index
        related = len(t_tr) == n + 1 and isinstance(t_tr[n], TrapEv)
    related = related and tr.call("conformance.relate_events", _relate_prefix,
                                  layout, s_tr, t_tr, n)
    if related and safe:
        related = monitor_safe(tr, t_tr)
    return (related, safe, -1 if safe else n), s_tr, t_tr, sres.result


def op_verdict_module(tr, p: Program):
    """As `mswasm fuzz` judges a module: link (pairs), typecheck, run,
    check_ms.  Returns (linked module, tagged run, its time, monitor-safe)."""
    m = p.module
    if p.kind == "pair":
        m = tr.call("interp.link", interp.link, p.module, p.attacker)
    tr.call("typecheck.typecheck_module", typecheck_module, m)
    t0 = time.perf_counter()
    res = op_run(tr, p, m, "tagged", FUZZ_BUDGET)
    run_s = time.perf_counter() - t0
    safe = monitor_safe(tr, res.trace) if tr.traced \
        else isinstance(check_ms(res.trace), Safe)
    return m, res, run_s, safe


# -- checks against the expectations of programs.py --


def check_source_verdict(chk: Checks, p: Program, verdict, s_tr, t_tr) -> None:
    """For a Safe verdict, related includes a monitor-safe target trace."""
    c, (related, safe, index) = p.case, verdict
    chk.expect(related, p.name, "source and target traces are not related")
    if c.unsafe_at is not None:
        chk.expect(not safe and index == c.unsafe_at, p.name,
                   f"verdict at {index}, want the first overflowing write at {c.unsafe_at}")
        chk.expect(len(t_tr) == c.unsafe_at + 1 and ends_in_one_trap(t_tr), p.name,
                   "target trace is not the safe prefix plus one trap")
    elif c.violating:
        chk.expect(not safe and ends_in_one_trap(t_tr), p.name,
                   "planted violation not judged unsafe with exactly one trap")
    elif c.value is not None:
        chk.expect(safe, p.name, "safe program judged unsafe")
    if c.src_events is not None:
        chk.expect(len(s_tr) == c.src_events, p.name,
                   f"{len(s_tr)} source events, want {c.src_events}")
    if c.alloc_lengths is not None:
        lengths = tuple(e.ptr.length for e in s_tr if isinstance(e, SrcAlloc))
        frees = sum(isinstance(e, SrcFree) for e in s_tr)
        chk.expect(lengths == c.alloc_lengths and frees == c.frees, p.name,
                   "source allocations or frees differ from the rounds generated")


def check_target_run(chk: Checks, p: Program, res, backend: str) -> None:
    c, trace = p.case, res.trace
    where = f"{p.name} ({backend})"
    if c.unsafe_at is not None:
        chk.expect(res.outcome == "trap" and len(trace) == c.unsafe_at + 1
                   and ends_in_one_trap(trace), where,
                   f"want one trap at event {c.unsafe_at}, got {res.outcome} "
                   f"after {len(trace)} events")
    elif c.value is not None:
        got = res.results[0].v if res.outcome == "ok" and res.results else None
        chk.expect(got == c.value, where,
                   f"returned {got} ({res.outcome}), want {c.value}")
        if c.src_events is not None:
            chk.expect(len(trace) == c.src_events, where,
                       f"{len(trace)} events, want {c.src_events}")
    elif backend == "tagged" and p.verdict is not None:
        # fuzz source programs: the target traps exactly when the source
        # verdict is unsafe
        want = "ok" if p.verdict[1] else "trap"
        chk.expect(res.outcome == want and n_traps(trace) == (want == "trap"),
                   where, f"outcome {res.outcome}, want {want}")
    else:
        chk.expect(res.outcome in ("ok", "trap"), where, f"outcome {res.outcome}")
    if c.alloc_lengths is not None:
        allocs = [e.handle for e in trace if isinstance(e, SAllocEv)]
        frees = sum(isinstance(e, SFreeEv) for e in trace)
        chk.expect(len(allocs) == len(c.alloc_lengths) and frees == c.frees, where,
                   "allocations or frees differ from the rounds generated")
        if backend == "tagged":  # baggy reports whole slots
            chk.expect([h.bound for h in allocs[1:]] == [4 * n for n in c.alloc_lengths[1:]],
                       where, "allocation sizes differ from the rounds generated")


def check_module_verdict(chk: Checks, p: Program, res, safe: bool) -> None:
    chk.expect(res.outcome in ("ok", "trap"), p.name, f"tagged outcome {res.outcome}")
    chk.expect(safe, p.name, "well-typed module judged unsafe by the monitor")


# ---------------------------------------------------------------------------
# One pass over the program list


def _attempt(stats: PassStats, tr, p: Program, name: str, fn, *args):
    """One operation, as a span named name and timed; an exception counts
    it failed and is returned in place of the result."""
    stats.attempted += 1
    if tr.traced:
        tr.program = p.name
    t0 = time.perf_counter()
    try:
        out = tr.call(name, fn, tr, *args)
    except Exception as e:  # noqa: BLE001 - a failed operation is counted, not fatal
        stats.failed += 1
        return e
    stats.times[(p.name, name)] = time.perf_counter() - t0
    return out


def run_pass(progs: list[Program], tr, chk: Checks, errors: set[str]) -> PassStats:
    stats = PassStats()
    for p in progs:
        if p.kind == "src":
            # the deep program's time counts in no figure, traced or not
            _source_ops(p, UNTRACED if p.case.deep else tr, chk, stats, errors)
        else:
            _module_ops(p, tr, chk, stats, errors)
    return stats


def _failed(out, p: Program, errors: set[str]) -> bool:
    if isinstance(out, Exception):
        errors.add(f"{p.name}: {type(out).__name__}")
        return True
    return False


def _source_ops(p: Program, tr, chk: Checks, stats: PassStats, errors: set[str]) -> None:
    text = p.case.text
    compiled = _attempt(stats, tr, p, "op.compile", op_compile, text)
    out = _attempt(stats, tr, p, "op.verdict", op_verdict_source, p, text)
    if not _failed(out, p, errors):
        verdict, s_tr, t_tr, value = out
        check_source_verdict(chk, p, verdict, s_tr, t_tr)
        if tr.traced:
            chk.expect(verdict == p.verdict, p.name,
                       f"traced chain verdict {verdict} != diff_run {p.verdict}")
            if p.case.value is not None:
                chk.expect(getattr(value, "n", None) == p.case.value, p.name,
                           f"source interpreter returned {value}, want {p.case.value}")
        else:
            p.verdict = verdict
    if _failed(compiled, p, errors):
        stats.attempted += len(BACKENDS)  # no module to run
        stats.failed += len(BACKENDS)
        return
    cm, m = compiled
    chk.expect(m == cm, p.name, "parse_module(print_module(m)) != m")
    for backend in BACKENDS:
        res = _attempt(stats, tr, p, f"op.run.{backend}", op_run, p, m, backend)
        if not _failed(res, p, errors):
            check_target_run(chk, p, res, backend)


def _module_ops(p: Program, tr, chk: Checks, stats: PassStats, errors: set[str]) -> None:
    out = _attempt(stats, tr, p, "op.verdict", op_verdict_module, p)
    if _failed(out, p, errors):
        stats.attempted += 1  # no linked module to run on baggy
        stats.failed += 1
        return
    m, res, run_s, safe = out
    check_module_verdict(chk, p, res, safe)
    stats.times[(p.name, "verdict.run.tagged")] = run_s
    res = _attempt(stats, tr, p, "op.run.baggy", op_run, p, m, "baggy", FUZZ_BUDGET)
    if not _failed(res, p, errors):
        chk.expect(res.outcome in ("ok", "trap"), p.name, f"baggy outcome {res.outcome}")


# ---------------------------------------------------------------------------
# Set-up


def build_programs(workload: str, seed: int, tr) -> list[Program]:
    if workload == "copy":
        cases = programs.copy_cases(seed)
    elif workload == "churn":
        cases = programs.churn_cases(seed)
    elif workload == "frontend":
        cases = programs.frontend_cases(seed)
    else:
        return fuzz_programs(seed, tr)
    return [Program("src", c.name, c) for c in cases]


def fuzz_programs(seed: int, tr) -> list[Program]:
    mods, pairs, sources = programs.fuzz_seeds(seed)
    gen = conformance
    if tr.traced:
        tr.program = "generate"
    progs = [Program("mod", f"module-{s}",
                     module=tr.call("conformance.generate", gen.fuzz_module, s))
             for s in mods]
    for s in pairs:
        victim = tr.call("conformance.generate", gen.fuzz_victim, s)
        attacker = tr.call("conformance.generate", gen.fuzz_attacker, victim,
                           programs.fuzz_attacker_seed(s))
        progs.append(Program("pair", f"pair-{s}", module=victim, attacker=attacker))
    for j, s in enumerate(sources):
        violating = j % 2 == 0  # every other program, as `mswasm fuzz --source`
        text = tr.call("conformance.generate", gen.fuzz_source, s, violating)
        progs.append(Program("src", f"source-{s}",
                             programs.SourceCase(f"source-{s}", text, violating=violating)))
    return progs


def reference_pass(progs: list[Program], chk: Checks) -> None:
    """Untimed, after set-up: step counts per backend, code size, and the
    source interpreter's return value where the generator knows it.  The
    deep program counts in no figure, so it gets no steps and no size."""
    for p in progs:
        budget = FUZZ_BUDGET
        if p.kind == "src":
            if p.case.deep:
                p.steps = dict.fromkeys(BACKENDS, 0)
                continue
            tm = src_typecheck(parse_source(p.case.text))
            m = compile_module(tm)
            budget = interp.DEFAULT_BUDGET
            if p.case.value is not None:
                res = src_run(tm)
                got = getattr(res.result, "n", None)
                chk.expect(got == p.case.value, p.name,
                           f"source interpreter returned {got}, want {p.case.value}")
        else:
            m = interp.link(p.module, p.attacker) if p.kind == "pair" else p.module
        p.instrs = module_instrs(m)
        steps = {b: count_steps(m, b, budget) for b in BACKENDS}
        for b, n in steps.items():
            chk.expect(n is not None, f"{p.name} ({b})", f"ran past the budget of {budget} steps")
        p.steps = {b: n or 0 for b, n in steps.items()}


def setup(workload: str, seed: int, tr) -> tuple[list[Program], Checks]:
    """Inputs from the seed and one untimed warm-up pass.  In a traced run
    the generation of the fuzz inputs is traced as pass 0."""
    chk = Checks()
    if tr.traced:
        tr.begin_pass()
    progs = build_programs(workload, seed, tr)
    run_pass(progs, UNTRACED, chk, set())
    return progs, chk


# ---------------------------------------------------------------------------
# Figures
#
# Every figure is built from each operation's best time over the passes of
# the run: on a host whose speed flips every few milliseconds, with a share
# of fast time that drifts over tens of seconds, the best of many repeats of
# a short operation is steady where a median or mean is not (README.md).


def best_times(passes: list[PassStats], progs: list[Program]) -> dict[tuple[str, str], float]:
    skip = {p.name for p in progs if p.kind == "src" and p.case.deep}
    best: dict[tuple[str, str], float] = {}
    for s in passes:
        for key, t in s.times.items():
            if key[0] not in skip and t < best.get(key, float("inf")):
                best[key] = t
    return best


def end_to_end(passes: list[PassStats], progs: list[Program]) -> dict[str, dict]:
    """Fixed work over the summed best times, and the median over programs
    of the best verdict time (with a tail where there are programs enough)."""
    best = best_times(passes, progs)
    steps = {p.name: p.steps for p in progs}

    def ops(*names):
        return [(prog, t) for (prog, op), t in best.items() if op in names]

    verdicts = sorted(t * 1e3 for _, t in ops("op.verdict"))
    compiles = ops("op.compile")
    # samples: the operations a figure rests on, each at its best over the passes
    out = {
        "verdicts_per_s": {"value": len(verdicts) / (sum(verdicts) / 1e3),
                           "samples": len(verdicts)},
        "verdict_ms.p50": {"value": statistics.median(verdicts), "samples": len(verdicts)},
        "compiles_per_s": {"value": len(compiles) / sum(t for _, t in compiles),
                           "samples": len(compiles)},
    }
    for b, names in (("tagged", ("op.run.tagged", "verdict.run.tagged")),
                     ("baggy", ("op.run.baggy",))):
        runs = ops(*names)
        out[f"exec_steps_per_s.{b}"] = {
            "value": sum(steps[prog][b] for prog, _ in runs) / sum(t for _, t in runs),
            "samples": len(runs)}
    for q in (99, 90):  # the highest percentile with ten programs beyond it
        if len(verdicts) >= 40 and len(verdicts) * (100 - q) / 100 >= 10:
            out["verdict_ms.tail"] = {"value": statistics.quantiles(verdicts, n=100)[q - 1],
                                      "samples": len(verdicts), "percentile": q}
            break
    return out


def op_total(passes: list[PassStats], progs: list[Program]) -> float:
    """Summed best time of every operation: one pass at the fast speed."""
    return sum(t for (_, op), t in best_times(passes, progs).items() if op.startswith("op."))


def per_layer(tr: Tracer) -> tuple[dict[str, float], list[dict[str, int]]]:
    """Self time per traced pass for every span name, each call at its best
    over the traced passes, and the counts of each traced pass."""
    return {layer_metric(n): v for n, v in tr.best_self_ms().items()}, tr.counts[1:]


def layer_metric(span_name: str) -> str:
    """interp.run.tagged -> interp.run_ms.tagged, minic.src_ms -> minic.src_ms_ms."""
    for b in BACKENDS:
        if span_name.endswith("." + b):
            return f"{span_name[:-len(b) - 1]}_ms.{b}"
    return span_name + "_ms"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            setup_only: bool, spans_path: Path | None) -> dict:
    tr = Tracer() if trace else UNTRACED
    progs, chk = setup(workload, seed, tr)
    setup_s = time.perf_counter() - SETUP_START
    result = {"workload": workload, "seed": seed, "setup_s": setup_s}
    if setup_only:
        result["correct"] = not chk.failures
        return result
    reference_pass(progs, chk)
    errors: set[str] = set()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        untraced.append(run_pass(progs, UNTRACED, chk, errors))
        if trace:
            tr.begin_pass()
            traced.append(run_pass(progs, tr, chk, errors))
    every = untraced + traced
    result.update(
        attempted=sum(s.attempted for s in every),
        failed=sum(s.failed for s in every),
        passes=len(untraced),
        errors=sorted(errors),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        code_instrs=sum(p.instrs for p in progs),
        metrics=end_to_end(untraced, progs),
    )
    if trace:
        times, counts = per_layer(tr)
        chk.expect(all(c == counts[0] for c in counts), workload,
                   "per-layer counts differ between traced passes")
        plain, with_spans = op_total(untraced, progs), op_total(traced, progs)
        result.update(
            layers=times,
            counts=counts[0],
            generate_ms=tr.generate_ms(),
            spans=len(tr.spans),
            overhead_pct=100 * (with_spans / plain - 1),
        )
        if spans_path is not None:
            tr.write(spans_path)
    result["correct"] = not chk.failures
    result["check_failures"] = chk.failures[:20]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=programs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.setup_only, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
