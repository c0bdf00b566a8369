import json
import tracemalloc

import pytest

from fixtures import nested_ifs_module, straight_line_source
from mswasm import cli
from mswasm.cli import main
from mswasm.interp import InterpBug, run, trace_to_jsonl
from mswasm.segmem import MAX_MEMORY

OK_MODULE = """
(module (segment 64) (heap 0)
  (func (local handle) (result i32)
    i32.const 8 new_segment set 0
    get 0 i32.const 7 i32.segstore
    get 0 i32.segload
    get 0 segfree))
"""

TRAP_MODULE = """
(module (segment 64) (heap 0)
  (func (local handle) (result i32)
    get 0 i32.segload))
"""

SAFE_SOURCE = """
module {
  fn main() -> int {
    var (p: ptr<array int>, x: int);
    p := malloc<int>(2);
    *(p + 0) := 11;
    x := *(p + 0);
    free(p);
    x
  }
  heap 0
}
"""

OVERFLOW_SOURCE = """
module {
  fn main() -> int {
    var (p: ptr<array int>);
    p := malloc<int>(2);
    *(p + 9) := 1;
    0
  }
  heap 0
}
"""


@pytest.fixture
def ok_file(tmp_path):
    f = tmp_path / "ok.mswat"
    f.write_text(OK_MODULE)
    return str(f)


def test_parse_roundtrip(ok_file, capsys):
    assert main(["parse", ok_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(module")


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.mswat"
    f.write_text("(module (func")
    assert main(["parse", str(f)]) == 12


def test_an_input_file_that_cannot_be_read_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.mswat"
    assert main(["parse", str(missing)]) == 2
    assert capsys.readouterr().err == f"[Errno 2] No such file or directory: '{missing}'\n"


def test_typecheck_ok(ok_file):
    assert main(["typecheck", ok_file]) == 0


def test_typecheck_error_exit_code(tmp_path):
    f = tmp_path / "bad.mswat"
    f.write_text("(module (segment 0) (heap 0) (func (result i32) new_segment))")
    assert main(["typecheck", str(f)]) == 11


def test_run_ok_and_trace_file(ok_file, tmp_path):
    out = tmp_path / "t.jsonl"
    assert main(["run", ok_file, "--trace", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [l["ev"] for l in lines] == ["salloc", "write", "read", "sfree"]
    assert lines[0] == {"ev": "salloc", "base": 0, "offset": 0, "bound": 8,
                        "valid": True, "id": 0}


def test_run_trap_exit_code(tmp_path):
    f = tmp_path / "trap.mswat"
    f.write_text(TRAP_MODULE)
    assert main(["run", str(f)]) == 10


def test_run_budget_exit_code(tmp_path):
    f = tmp_path / "loop.mswat"
    f.write_text("(module (segment 0) (heap 0)"
                 " (func (result i32) call 1)"
                 " (func (result i32) call 1))")
    assert main(["run", str(f), "--budget", "100"]) == 14


def test_run_baggy_backend(ok_file):
    assert main(["run", ok_file, "--backend", "baggy"]) == 0


def test_check_safe(ok_file):
    assert main(["check", ok_file]) == 0


def test_check_of_a_run_that_breaks_safety_is_a_violation(tmp_path, capsys, monkeypatch):
    """A seeded defect: segfree leaves the segment allocated, so the read
    after it runs on instead of trapping, and the monitor rejects it."""
    from mswasm.segmem import SegmentMemory
    monkeypatch.setattr(SegmentMemory, "free", lambda self, h: None)
    f = tmp_path / "uaf.mswat"
    f.write_text("(module (segment 64) (heap 0)"
                 " (func (local handle) (result i32)"
                 " i32.const 8 new_segment set 0 get 0 segfree get 0 i32.segload))")
    assert main(["check", str(f)]) == cli.EXIT_VIOLATION == 13
    err = capsys.readouterr().err
    assert err.startswith("violation: ") and "temporal-freed" in err


def test_monitor_safe_and_violation(tmp_path):
    safe = tmp_path / "safe.jsonl"
    safe.write_text('{"ev":"alloc","n":2,"a":0,"c":0,"phi":[0,0]}\n'
                    '{"ev":"read","a":1,"c":0,"s":0}\n')
    assert main(["monitor", str(safe)]) == 0
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ev":"read","a":1,"c":0,"s":0}\n')
    assert main(["monitor", str(bad)]) == 13


MALFORMED_ABS_LINES = {
    "not-json": "not json",
    "not-an-object": "[1, 2]",
    "nested-past-recursion-limit": "[" * 100_000,
    "unknown-ev": '{"ev":"peek","a":0,"c":0,"s":0}',
    "missing-field": '{"ev":"read"}',
    "string-field": '{"ev":"write","a":"0","c":0,"s":0}',
    "boolean-field": '{"ev":"free","a":0,"c":true}',
    "negative-n": '{"ev":"alloc","n":-1,"a":0,"c":0,"phi":[]}',
    "phi-shorter-than-n": '{"ev":"alloc","n":4,"a":0,"c":0,"phi":[0]}',
    "float-shade": '{"ev":"alloc","n":1,"a":0,"c":0,"phi":[0.5]}',
}


@pytest.mark.parametrize("form", sorted(MALFORMED_ABS_LINES))
def test_monitor_malformed_trace_is_parse_error(tmp_path, capsys, form):
    f = tmp_path / "bad.jsonl"
    f.write_text('{"ev":"alloc","n":2,"a":0,"c":0,"phi":[0,0]}\n'
                 + MALFORMED_ABS_LINES[form] + "\n")
    assert main(["monitor", str(f)]) == 12
    assert "parse error" in capsys.readouterr().err


def test_undecodable_input_is_parse_error(tmp_path):
    f = tmp_path / "bad.bin"
    f.write_bytes(b"\xff\xfe{}\n")
    for cmd in ("monitor", "parse", "compile"):
        assert main([cmd, str(f)]) == 12


def test_compile_and_run(tmp_path):
    src = tmp_path / "p.uc"
    src.write_text(SAFE_SOURCE)
    out = tmp_path / "p.mswat"
    assert main(["compile", str(src), "-o", str(out)]) == 0
    assert main(["run", str(out)]) == 0
    assert main(["check", str(out)]) == 0


def test_compile_without_output_writes_the_module_text_to_stdout(tmp_path, capsys):
    src = tmp_path / "p.uc"
    src.write_text(SAFE_SOURCE)
    out = tmp_path / "p.mswat"
    assert main(["compile", str(src), "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["compile", str(src)]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_diff_of_a_source_division_by_zero_relates(tmp_path, capsys):
    """The source ends in a trap, as the compiled i32.div_s does; this was
    exit 15, "source hosterror on a safe trace"."""
    src = tmp_path / "div.uc"
    src.write_text("module {\n  fn main() -> int {\n    var (x: int);\n"
                   "    x := 0;\n    7 / x\n  }\n  heap 0\n}\n")
    assert main(["diff", str(src), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"related": True, "src_verdict": "safe",
                       "src_events": 0, "tgt_events": 1}


def test_compile_type_error_exit(tmp_path):
    src = tmp_path / "p.uc"
    src.write_text("module { fn main() -> int { var (); let y = n(1) in y } heap 0 }")
    assert main(["compile", str(src)]) == 11


@pytest.mark.parametrize("text,code", [
    # a type error in a body comes before a parse error in a later body
    ("module { fn main() -> int { var (); zz } fn f() -> int { var (); ( } heap 0 }", 11),
    # a missing main is checked after the bodies
    ("module { fn f() -> int { var (); ( } heap 0 }", 12),
])
def test_compile_reports_the_first_error_in_the_text(tmp_path, text, code):
    src = tmp_path / "p.uc"
    src.write_text(text)
    assert main(["compile", str(src)]) == code


def test_a_stray_brace_is_reported_where_the_grammar_fails(tmp_path, capsys):
    src = tmp_path / "p.uc"
    src.write_text("module { fn main() -> int { var (); if 1 2 } else { 3 } } heap 0 }")
    assert main(["compile", str(src)]) == 12
    assert capsys.readouterr().err == "parse error: expected '{', got '2'\n"


def test_diff_safe_and_unsafe(tmp_path, capsys):
    src = tmp_path / "p.uc"
    src.write_text(SAFE_SOURCE)
    assert main(["diff", str(src), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["related"] is True and payload["src_verdict"] == "safe"

    src.write_text(OVERFLOW_SOURCE)
    assert main(["diff", str(src), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["related"] is True
    assert payload["src_verdict"].startswith("unsafe@")


def test_diff_of_a_broken_chain_reports_where_and_why(tmp_path, capsys, monkeypatch):
    """A seeded defect: the compiled side runs on baggy, whose handles do
    not relate to the source's pointers."""
    from functools import partial

    from mswasm import conformance
    monkeypatch.setattr(conformance, "run", partial(run, backend="baggy"))
    src = tmp_path / "p.uc"
    src.write_text(OVERFLOW_SOURCE)
    assert main(["diff", str(src)]) == cli.EXIT_DIVERGED == 15
    lines = capsys.readouterr().out.splitlines()
    assert "index: 0" in lines
    assert any(line.startswith("reason: prefix events unrelated: ") for line in lines)
    assert main(["diff", str(src), "--json"]) == 15
    payload = json.loads(capsys.readouterr().out)
    assert payload["related"] is False and payload["index"] == 0
    assert payload["reason"].startswith("prefix events unrelated: ")


def test_fuzz_smoke(tmp_path, capsys):
    assert main(["fuzz", "--n", "20", "--seed", "3",
                 "--out", str(tmp_path / "cex")]) == 0
    assert "0 counterexamples" in capsys.readouterr().out


def test_fuzz_attacker_smoke(tmp_path):
    assert main(["fuzz", "--n", "6", "--seed", "0", "--attacker",
                 "--out", str(tmp_path / "cex")]) == 0


def test_fuzz_source_smoke(tmp_path):
    assert main(["fuzz", "--n", "10", "--seed", "0", "--source",
                 "--out", str(tmp_path / "cex")]) == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


@pytest.mark.parametrize("ins", ["get 99", "call 9"])
def test_an_index_out_of_range_parses_and_is_a_type_error(tmp_path, capsys, ins):
    """A module text with an index out of range is well formed, so `parse`
    reprints it; every command that typechecks it exits 11."""
    f = tmp_path / "bad.mswat"
    f.write_text(f"(module (segment 0) (heap 0) (func (result i32) {ins} i32.const 0))")
    assert main(["parse", str(f)]) == 0
    assert f" {ins}\n" in capsys.readouterr().out
    for cmd in ("typecheck", "run", "check"):
        assert main([cmd, str(f)]) == 11
        captured = capsys.readouterr()
        assert f"bad-index: {ins}" in captured.err and captured.out == ""


IMPORT_MODULE = """
(module (segment 0) (heap 0)
  (import (result i32))
  (func (result i32) call 0))
"""

IMPORT_SOURCE = """
module {
  import g() -> int;
  fn main() -> int { var (); let y = g() in y }
  heap 0
}
"""


@pytest.mark.parametrize("cmd", ["run", "check"])
def test_module_with_imports_is_a_usage_error(tmp_path, capsys, cmd):
    f = tmp_path / "imp.mswat"
    f.write_text(IMPORT_MODULE)
    assert main([cmd, str(f)]) == 2
    assert "imports" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("(module (segment 0) (heap 0) (func (param i32) (result i32) get 0))",
     "entry function must take no parameters"),
    ("(module (segment 0) (heap 0))", "no entry function"),
])
def test_a_well_typed_module_that_cannot_run_is_a_usage_error(tmp_path, capsys, text, message):
    """typecheck judges the code alone; run and check meet init_state."""
    f = tmp_path / "entry.mswat"
    f.write_text(text)
    assert main(["typecheck", str(f)]) == 0
    assert capsys.readouterr().out == "well-typed\n"
    for cmd in ("run", "check"):
        assert main([cmd, str(f)]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"


def test_fuzz_runs_one_campaign_at_a_time(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["fuzz", "--attacker", "--source", "--n", "1", "--out", str(tmp_path / "cex")])
    assert e.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "cex").exists()


def test_diff_of_source_with_imports_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "imp.uc"
    f.write_text(IMPORT_SOURCE)
    assert main(["diff", str(f)]) == 2
    assert "imports" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [InterpBug("step on terminal configuration"), MemoryError()])
def test_internal_error_is_exit_16_not_a_traceback(ok_file, capsys, monkeypatch, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_run", fail)
    assert main(["run", ok_file]) == cli.EXIT_INTERNAL == 16
    assert capsys.readouterr().err.startswith(f"internal error: {type(exc).__name__}")


def _shell(body: str) -> str:
    return f"module {{ fn main() -> int {{ var (x: int); {body} }} heap 0 }}"


TOO_DEEP_SOURCES = {
    "130-parentheses": _shell("(" * 130 + "1" + ")" * 130),
    "300-ifs": _shell("if 1 { " * 300 + "7" + " } else { 0 }" * 300),
    "1500-term-sum": _shell(" + ".join(["1"] * 1500)),
}


@pytest.mark.parametrize("name", sorted(TOO_DEEP_SOURCES))
@pytest.mark.parametrize("cmd", ["compile", "diff"])
def test_source_nested_past_the_cap_is_a_parse_error(tmp_path, capsys, name, cmd):
    f = tmp_path / "deep.uc"
    f.write_text(TOO_DEEP_SOURCES[name])
    assert main([cmd, str(f)]) == 12
    assert "nesting deeper than" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["parse", "typecheck"])
def test_600_nested_bytecode_ifs_are_a_parse_error(tmp_path, capsys, cmd):
    f = tmp_path / "deep.mswat"
    f.write_text(nested_ifs_module(600))
    assert main([cmd, str(f)]) == 12
    assert "if nested deeper than" in capsys.readouterr().err


def test_deep_straight_line_program_compiles_and_diffs(tmp_path, capsys):
    src = tmp_path / "deep.uc"
    src.write_text(straight_line_source(1500))
    out = tmp_path / "deep.mswat"
    assert main(["compile", str(src), "-o", str(out)]) == 0
    assert main(["diff", str(src), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["related"] is True


# (segment N, heap N, --segment-size) of modules whose memory is out of range
BAD_MEMORY_SIZES = {
    "segment -3": (-3, 0, None),
    "heap -3": (0, -3, None),
    "--segment-size -3": (64, 0, -3),
    "segment cap+1": (MAX_MEMORY + 1, 0, None),
    "heap cap+1": (0, MAX_MEMORY + 1, None),
    "--segment-size cap+1": (64, 0, MAX_MEMORY + 1),
    "segment 2^40": (1 << 40, 0, None),
    "heap 2^40": (0, 1 << 40, None),
    "--segment-size 2^40": (64, 0, 1 << 40),
}
MEMORY_COMMANDS = {"run-tagged": ["run", "--backend", "tagged"],
                   "run-baggy": ["run", "--backend", "baggy"],
                   "check": ["check"],      # no --segment-size
                   "compile": ["compile"]}  # a source and --segment-size only


@pytest.mark.parametrize("name,cmd", [
    (name, cmd) for name, (_, _, flag) in BAD_MEMORY_SIZES.items()
    for cmd in MEMORY_COMMANDS
    if cmd != ("check" if flag is not None else "compile")])
def test_memory_size_outside_the_cap_is_a_usage_error(tmp_path, capsys, name, cmd):
    segment, heap, flag = BAD_MEMORY_SIZES[name]
    f = tmp_path / "sized.mswat"
    if cmd == "compile":
        f.write_text(SAFE_SOURCE)
    else:
        f.write_text(f"(module (segment {segment}) (heap {heap})"
                     " (func (result i32) i32.const 0))")
    argv = MEMORY_COMMANDS[cmd] + [str(f)]
    if flag is not None:
        argv += ["--segment-size", str(flag)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    assert "outside [0, " in capsys.readouterr().err


@pytest.mark.parametrize("segment", [1 << 22, MAX_MEMORY])
def test_tagged_memory_is_made_as_segments_are_allocated(tmp_path, segment):
    """A module that allocates nothing costs no segment memory, whatever
    size it declares."""
    f = tmp_path / "big.mswat"
    f.write_text(f"(module (segment {segment}) (heap 0) (func (result i32) i32.const 0))")
    tracemalloc.start()
    try:
        code = main(["run", "--backend", "tagged", str(f)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20


def test_check_of_a_large_segment_takes_one_monitor_record(tmp_path, capsys):
    """`check` on a module that allocates, writes and frees a 2^24-byte
    segment: the monitor holds the segment as one record, so the verdict
    comes in seconds, not in time and memory per byte."""
    import time

    f = tmp_path / "large.mswat"
    f.write_text(f"""
    (module (segment {1 << 24}) (heap 0)
      (func (local handle) (result i32)
        i32.const {1 << 24} new_segment set 0
        get 0 i32.const {(1 << 24) - 4} handle.add i32.const 7 i32.segstore
        get 0 segfree
        i32.const 0))
    """)
    t0 = time.perf_counter()
    code = main(["check", str(f)])
    elapsed = time.perf_counter() - t0
    assert code == 0, capsys.readouterr().err
    assert "safe (3 events, outcome ok)" in capsys.readouterr().out
    assert elapsed < 5.0


STORE_BIG_SOURCE = """
module {
  fn main() -> int {
    var (p: ptr<array int>);
    p := malloc<int>(1);
    *(p + 0) := 99999999999;
    free(p);
    0
  }
  heap 0
}
"""

# (command, file suffix, text, exit code) for literals outside their type.
# A source literal may exceed i32 (a malloc count of 2^40 must reach the
# source heap's cap), so it is the compiler that rejects it.
OUT_OF_RANGE_LITERALS = {
    "i32-result": ("run", ".mswat", "(module (segment 0) (heap 0)"
                   " (func (result i32) i32.const 99999999999))", 12),
    "i32-store": ("run", ".mswat", "(module (segment 0) (heap 8) (func (result i32)"
                  " i32.const 0 i32.const 99999999999 i32.store i32.const 0))", 12),
    "i32-segstore": ("run", ".mswat", "(module (segment 64) (heap 0) (func (local handle)"
                     " (result i32) i32.const 4 new_segment set 0"
                     " get 0 i32.const 99999999999 i32.segstore i32.const 0))", 12),
    "i64-past-2^64": ("run", ".mswat", "(module (segment 0) (heap 0)"
                      " (func (result i64) i64.const 18446744073709551616))", 12),
    "source-store": ("diff", ".uc", STORE_BIG_SOURCE, 11),
    "source-compile": ("compile", ".uc", STORE_BIG_SOURCE, 11),
    "source-5000-digits": ("compile", ".uc", _shell("9" * 5000), 12),
    "struct-past-2^31-bytes": ("diff", ".uc", """
    module {
      struct Big { a: array 536870912 int }
      fn main() -> int { var (b: ptr<struct Big>); b := malloc(struct Big); 0 }
      heap 0
    }""", 11),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE_LITERALS))
def test_literals_outside_their_type_end_in_a_documented_exit_code(tmp_path, capsys, name):
    cmd, suffix, text, code = OUT_OF_RANGE_LITERALS[name]
    f = tmp_path / f"lit{suffix}"
    f.write_text(text)
    assert main([cmd, str(f)]) == code
    err = capsys.readouterr().err
    assert err.startswith("parse error" if code == 12 else "type error"), err


def test_f32_overflow_runs_to_infinity(tmp_path):
    f = tmp_path / "f32.mswat"
    f.write_text("(module (segment 0) (heap 0)"
                 " (func (result f32) f32.const 3e38 f32.const 10.0 f32.mul))")
    assert main(["run", str(f)]) == 0


def _bundles(outdir):
    return sorted(p.name for p in outdir.iterdir())


@pytest.mark.parametrize("campaign,prefix", [([], "module"), (["--attacker"], "attacker")])
def test_fuzz_counterexamples_exit_13_with_a_bundle_each(tmp_path, capsys, monkeypatch,
                                                         campaign, prefix):
    from mswasm import bytecode, tracerel
    from mswasm.monitor import Violation

    monkeypatch.setattr(tracerel, "check_ms", lambda trace: Violation("shade", 0, 0))
    out = tmp_path / "cex"
    assert main(["fuzz", "--n", "2", "--seed", "5", "--out", str(out)] + campaign) == 13
    assert "2 runs, 2 counterexamples" in capsys.readouterr().out
    assert _bundles(out) == [f"{prefix}-{s}.{part}" for s in (5, 6)
                             for part in ("mswat", "report", "tgt_trace")]
    for s in (5, 6):  # the bundle reproduces the run
        m = bytecode.parse_module((out / f"{prefix}-{s}.mswat").read_text())
        assert (out / f"{prefix}-{s}.tgt_trace").read_text() == \
            trace_to_jsonl(run(m, budget=1_000_000).trace)
        assert (out / f"{prefix}-{s}.report").read_text() == \
            "Violation(kind='shade', index=0, at=0)"


def test_fuzz_source_divergences_exit_15_with_a_bundle_each(tmp_path, capsys, monkeypatch):
    """Compiling field accesses without their slices is a real
    miscompilation: the source campaign reports it and saves what
    reproduces it."""
    from mswasm import bytecode
    from mswasm.compiler import Layout

    monkeypatch.setattr(Layout, "field_offsets", lambda self, sname, fname: (0, 0))
    out = tmp_path / "cex"
    assert main(["fuzz", "--source", "--n", "2", "--seed", "0", "--out", str(out)]) == 15
    assert "2 runs, 2 counterexamples" in capsys.readouterr().out
    assert _bundles(out) == [f"diff-{s}.{part}" for s in (0, 1)
                             for part in ("mswat", "report", "src", "src_trace", "tgt_trace")]
    for s in (0, 1):
        assert (out / f"diff-{s}.src").read_text() == \
            cli.conformance.fuzz_source(s, violations=(s % 2 == 0))
        m = bytecode.parse_module((out / f"diff-{s}.mswat").read_text())
        assert (out / f"diff-{s}.tgt_trace").read_text() == trace_to_jsonl(run(m).trace)
        assert (out / f"diff-{s}.src_trace").read_text().startswith("SrcAlloc(")
        assert (out / f"diff-{s}.tgt_trace").read_text().startswith('{"ev":"salloc"')
        assert "events unrelated" in (out / f"diff-{s}.report").read_text()
