import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mswasm import bytecode as bc
from fixtures import (
    UAF_READ,
    UNSAFE_SUITE,
    nested_ifs_module,
    trim_copy_program,
    user_record_program,
    with_frames,
)
from mswasm.bytecode import (
    MAX_NESTING,
    _TOKEN_RE,
    FuncDef,
    FuncType,
    ModuleDef,
    OPCODES,
    ParseError,
    ValueType,
    _Parser,
    parse_module,
    print_module,
)
from oracles import mutate_text, ref_tokenize

MINIMAL = "(module (segment 64) (heap 0) (func (result i32) i32.const 7 return))"


def test_minimal_module():
    m = parse_module(MINIMAL)
    assert len(m.funcs) == 1
    assert m.segment_size == 64 and m.heap_size == 0
    f = m.funcs[0]
    assert f.results == (ValueType.I32,)
    assert f.body == (bc.const(ValueType.I32, 7), bc.return_())


def test_alloc_module_parses():
    m = parse_module("(module (segment 64) (heap 0)"
                     " (func (result handle) i32.const 8 new_segment return))")
    assert m.funcs[0].body[1] == bc.new_segment()


def _parses_and_is_a_bad_index(ins: str) -> None:
    """The text is well formed, so parse_module reads it as written; the
    typechecker is the one judge of indices."""
    from mswasm.typecheck import TypeError_, typecheck_module

    m = parse_module(f"(module (segment 0) (heap 0) (func (result i32) {ins} i32.const 0))")
    assert parse_module(print_module(m)) == m
    with pytest.raises(TypeError_, match=f"bad-index: {ins}"):
        typecheck_module(m)


def test_call_index_out_of_range():
    _parses_and_is_a_bad_index("call 5")


def test_local_index_out_of_range():
    _parses_and_is_a_bad_index("get 0")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_module("(module (segment 64)\n (heap 0) (func bogus))")
    assert exc.value.line == 2


def test_roundtrip_minimal():
    m = parse_module(MINIMAL)
    assert parse_module(print_module(m)) == m


def test_empty_body_prints_as_func():
    m = ModuleDef((FuncDef((), (), (), ()),), (), 0, 0)
    text = print_module(m)
    assert "(func" in text
    assert parse_module(text) == m


NESTED_IF = """\
(module
  (segment 16)
  (heap 0)
  (func (param i32) (result i32)
    get 0
    (if
      (then
        get 0
        (if
          (then
            i32.const 1
          )
          (else
            i32.const 2
          )
        )
      )
      (else
        i32.const 3
      )
    )
  )
)
"""


def test_nested_if_golden():
    m = parse_module(NESTED_IF)
    assert print_module(m) == NESTED_IF
    assert parse_module(print_module(m)) == m


def test_imports_roundtrip():
    src = ("(module (segment 0) (heap 0)"
           " (import (param i32 handle) (result i32))"
           " (func (result i32) i32.const 1))")
    m = parse_module(src)
    assert m.imports == (FuncType((ValueType.I32, ValueType.HANDLE),
                                  (ValueType.I32,)),)
    assert parse_module(print_module(m)) == m


def test_every_instruction_roundtrips():
    """Every constructor in the instruction union must have a print and a
    parse case."""
    samples = {
        "nop": bc.nop(),
        "trap": bc.trap(),
        "const": bc.const(ValueType.I64, -3),
        "binop": bc.binop(ValueType.I32, "xor"),
        "get": bc.get(0),
        "set": bc.set_(1),
        "load": bc.load(ValueType.F64),
        "store": bc.store(ValueType.I32),
        "if": bc.if_((bc.nop(),), (bc.trap(),)),
        "call": bc.call(0),
        "return": bc.return_(),
        "segload": bc.segload(ValueType.HANDLE),
        "segstore": bc.segstore(ValueType.F32),
        "slice": bc.slice_(),
        "new_segment": bc.new_segment(),
        "handle_add": bc.handle_add(),
        "segfree": bc.segfree(),
    }
    assert set(samples) == set(OPCODES)
    body = tuple(samples.values())
    f = FuncDef((ValueType.I32,), (ValueType.I32,), (), body)
    m = ModuleDef((FuncDef((), (), (ValueType.I32,), (bc.const(ValueType.I32, 0),)), f),
                  (), 16, 64)
    assert parse_module(print_module(m)) == m


def test_float_literals():
    m = parse_module("(module (segment 0) (heap 0)"
                     " (func (result f64) f64.const -2.5e3))")
    assert m.funcs[0].body[0].literal == -2500.0
    assert parse_module(print_module(m)) == m
    with pytest.raises(ParseError, match="bad float literal '1e40'"):
        parse_module("(module (segment 0) (heap 0) (func (result f32) f32.const 1e40))")


def test_handle_const_is_not_parseable():
    with pytest.raises(ParseError):
        parse_module("(module (segment 0) (heap 0) (func handle.const 0))")


@pytest.mark.parametrize("ty,text,value", [
    ("i32", "4294967295", -1), ("i32", "2147483648", -(1 << 31)),
    ("i32", "2147483647", (1 << 31) - 1), ("i32", "-2147483648", -(1 << 31)),
    ("i64", "18446744073709551615", -1), ("i64", "-9223372036854775808", -(1 << 63)),
])
def test_integer_literals_take_wasms_range_and_wrap_the_unsigned_half(ty, text, value):
    m = parse_module(f"(module (segment 0) (heap 0) (func (result {ty}) {ty}.const {text}))")
    assert m.funcs[0].body[0].literal == value
    assert parse_module(print_module(m)) == m


@pytest.mark.parametrize("ty,text", [
    ("i32", "4294967296"), ("i32", "-2147483649"), ("i32", "99999999999"),
    ("i64", "18446744073709551616"), ("i64", "-9223372036854775809"),
])
def test_integer_literals_outside_wasms_range_are_parse_errors(ty, text):
    with pytest.raises(ParseError, match=f"bad integer literal '{text}'"):
        parse_module(f"(module (segment 0) (heap 0) (func (result {ty}) {ty}.const {text}))")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_roundtrip_fuzzed_modules(seed):
    from mswasm.conformance import fuzz_module

    m = fuzz_module(seed)
    assert parse_module(print_module(m)) == m


# -- shared instructions, the nesting cap, and the tokenizer ----------------


def test_float_zero_literals_keep_their_signs():
    m = parse_module("(module (segment 0) (heap 0) (func (result f64)"
                     " f64.const -0.0 f64.const 0.0 f64.add f64.const -0.0 f64.add))")
    a, b, _, c, _ = m.funcs[0].body
    assert math.copysign(1, a.literal) == -1 and math.copysign(1, b.literal) == 1
    assert a is c and a is not b
    assert "f64.const -0.0\n    f64.const 0.0\n" in print_module(m)
    assert parse_module(print_module(m)) == m


def test_one_instr_per_word_and_immediate_within_a_parse():
    text = "(module (segment 0) (heap 0) (func (local i32) (result i32) get 0 get 0 set 0 get 0))"
    first, second = parse_module(text), parse_module(text)
    body = first.funcs[0].body
    assert body[0] is body[1] is body[3] and body[2] is not body[0]
    assert second.funcs[0].body[0] is not body[0]  # the cache lives one call
    assert first == second


def test_if_nesting_at_the_cap_parses_typechecks_and_runs():
    from mswasm.interp import run
    from mswasm.typecheck import typecheck_module

    def chain(text):
        m = parse_module(text)
        typecheck_module(m)
        assert parse_module(print_module(m)) == m
        return run(m).results

    assert with_frames(100, chain, nested_ifs_module(MAX_NESTING))[0].v == 7


def test_if_nesting_past_the_cap_is_a_parse_error():
    text = nested_ifs_module(MAX_NESTING + 1)
    with pytest.raises(ParseError, match=f"if nested deeper than {MAX_NESTING}") as exc:
        parse_module(text)
    # blamed at the opening parenthesis of the innermost if
    innermost = [i for i in range(len(text)) if text.startswith("(if", i)][MAX_NESTING]
    assert (exc.value.line, exc.value.col) == (1, innermost + 1)
    with pytest.raises(ParseError):
        parse_module(nested_ifs_module(600))


def test_api_built_if_nesting_past_the_cap_is_a_type_error():
    from mswasm.typecheck import TypeError_, typecheck_module

    def nest(n):
        body = (bc.const(ValueType.I32, 7),)
        for _ in range(n):
            body = (bc.const(ValueType.I32, 1), bc.if_(body, (bc.const(ValueType.I32, 0),)))
        return ModuleDef((FuncDef((), (), (ValueType.I32,), body),), (), 0, 0)

    typecheck_module(nest(MAX_NESTING))
    for n in (MAX_NESTING + 1, 600):
        with pytest.raises(TypeError_, match="nesting: if nested deeper"):
            typecheck_module(nest(n))


@pytest.mark.parametrize("stop", [(bc.trap(),), (bc.const(ValueType.I32, 0), bc.return_()),
                                  (bc.const(ValueType.I32, 1),
                                   bc.if_((bc.trap(),), (bc.trap(),)))])
def test_unreachable_if_nesting_is_bounded_too(stop):
    """ifs after a trap, a return, or an if whose arms both stop are not
    typed, but they nest under the same cap, so printing a module that
    typechecks recurses a bounded number of times."""
    from mswasm.typecheck import TypeError_, typecheck_module

    def nest(n):
        body = (bc.const(ValueType.I32, 7),)
        for _ in range(n):
            body = (bc.const(ValueType.I32, 1), bc.if_(body, (bc.const(ValueType.I32, 0),)))
        return ModuleDef((FuncDef((), (), (ValueType.I32,), stop + body),), (), 0, 0)

    def chain(m):
        typecheck_module(m)
        return parse_module(print_module(m))

    m = nest(MAX_NESTING)
    assert with_frames(100, chain, m) == m
    for n in (MAX_NESTING + 1, 2000):
        with pytest.raises(TypeError_, match="nesting: if nested deeper"):
            typecheck_module(nest(n))
    # inside an arm, the unreachable tail sits one level deeper
    inner = nest(MAX_NESTING).funcs[0].body
    arm = ModuleDef((FuncDef((), (), (ValueType.I32,),
                             (bc.const(ValueType.I32, 1), bc.if_(inner, inner))),), (), 0, 0)
    with pytest.raises(TypeError_, match="nesting: if nested deeper"):
        typecheck_module(arm)


def _printed_corpus() -> list[str]:
    from mswasm.compiler import compile_module
    from mswasm.conformance import fuzz_module
    from mswasm.minic import parse_source, src_typecheck

    sources = [trim_copy_program(8), user_record_program(32), UAF_READ,
               *UNSAFE_SUITE.values()]
    return ([print_module(compile_module(src_typecheck(parse_source(s)))) for s in sources]
            + [print_module(fuzz_module(seed)) for seed in range(40)])


def _check_against_char_loop(text: str) -> None:
    """Same tokens as the reference, and a ParseError at the reference's
    line and column of the token it names."""
    ref = ref_tokenize(text)
    assert [t for t in _TOKEN_RE.findall(text) if t] == [t.text for t in ref]
    try:
        parse_module(text)
    except ParseError as e:
        at = {(t.line, t.col): t.text for t in ref}
        if str(e).endswith("unexpected end of input"):
            assert (e.line, e.col) == ((ref[-1].line, ref[-1].col) if ref else (1, 1))
        elif str(e).endswith("no handle literals"):
            assert at[e.line, e.col] == "handle.const"
        else:
            assert repr(at[e.line, e.col]) in str(e)


def test_tokenizer_matches_the_char_loop_reference():
    corpus = _printed_corpus()
    rng = random.Random(2208)
    for text in corpus:
        _check_against_char_loop(text)
        # the offset-to-position count agrees on sampled tokens too
        ref = ref_tokenize(text)
        for i in rng.sample(range(len(ref)), min(len(ref), 10)):
            e = _Parser(text).error("", i)
            assert (e.line, e.col) == (ref[i].line, ref[i].col)
    errors = 0
    for _ in range(200):
        mutant = mutate_text(rng, rng.choice(corpus))
        _check_against_char_loop(mutant)
        try:
            parse_module(mutant)
        except ParseError:
            errors += 1
    assert errors > 100  # the mutants exercise the error paths


# Characters the tokenizer must agree on: parentheses, `;` comments, word
# characters, the whitespace both skip and the whitespace only str.split()
# knows (\x0b \x0c \x1c \x85 \xa0), and a non-ASCII letter.
_TOKEN_ALPHABET = "();abcxyzAZ_019.- \t\r\n\x0b\x0c\x1c\x85\xa0é"


@functools.cache
def _small_printed_modules() -> tuple[str, ...]:
    from mswasm.conformance import fuzz_module

    return (print_module(fuzz_module(0)), print_module(fuzz_module(3)),
            "(module (segment 0) (heap 0) (func (result i32) i32.const 7))\n")


class _RegexParser(_Parser):
    """The parser on _TOKEN_RE's tokens alone."""

    def __init__(self, text: str):
        super().__init__(text)
        self.toks = _TOKEN_RE.findall(text)


def _parse_outcome(text: str) -> str:
    try:
        return repr(parse_module(text))
    except ParseError as e:
        return f"ParseError {e} at {e.line}:{e.col}"


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 3),
       st.lists(st.tuples(st.floats(0, 1), st.text(_TOKEN_ALPHABET, max_size=3)), max_size=4))
def test_split_tokens_are_the_regular_expressions(which, edits):
    """_Parser's tokens, split by str.split() where the text allows it, are
    _TOKEN_RE.findall's up to the "" that end them, and a parse gives the
    same module or the same error at the same line and column."""
    text = "".join(edit for _, edit in edits)  # which == 3: text of edits alone
    if which < 3:
        text = _small_printed_modules()[which]
        for at, edit in edits:  # each edit replaces one character
            i = int(at * len(text))
            text = text[:i] + edit + text[i + 1:]
    toks, ref = _Parser(text).toks, _TOKEN_RE.findall(text)
    assert toks[-1] == ""
    while ref and ref[-1] == "":
        ref.pop()
    assert toks[:len(ref)] == ref and set(toks[len(ref):]) == {""}
    fast = _parse_outcome(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bc, "_Parser", _RegexParser)
        assert _parse_outcome(text) == fast
