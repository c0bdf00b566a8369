"""Source-program fixtures shared by the unit and acceptance tests."""

import random
import sys


def trim_copy_program(n_in: int, dst_cap: int = 1024) -> str:
    """Copy n_in ints into a dst_cap-element buffer through a recursive
    loop; overflows dst when n_in > dst_cap."""
    return f"""
module {{
  struct St {{ s: ptr<array int>, d: ptr<array int>, i: int }}
  fn main() -> int {{
    var (src: ptr<array int>, dst: ptr<array int>, st: ptr<struct St>);
    src := malloc<int>({n_in});
    dst := malloc<int>({dst_cap});
    st := malloc(struct St);
    *(st.s) := src;
    *(st.d) := dst;
    *(st.i) := 0;
    let r = copy(st) in r
  }}
  fn copy(st: ptr<struct St>) -> int {{
    var (i: int);
    i := *(st.i);
    if i < {n_in} {{
      *(*(st.d) + i) := *(*(st.s) + i);
      *(st.i) := i + 1;
      let r = copy(st) in r
    }} else {{ 0 }}
  }}
  heap 0
}}
"""


def user_record_program(write_index: int) -> str:
    """A 32-slot name buffer next to an id field; writes name[write_index]
    after setting id to 77.  write_index >= 32 is an intra-object
    overflow that must not be able to reach the id."""
    return f"""
module {{
  struct User {{ name: array 32 int, id: int }}
  fn main() -> int {{
    var (u: ptr<struct User>, nm: ptr<array 32 int>);
    u := malloc(struct User);
    *(u.id) := 77;
    nm := u.name;
    *(nm + {write_index}) := 99;
    *(u.id)
  }}
  heap 0
}}
"""


UAF_READ = """
module {
  fn main() -> int {
    var (p: ptr<array int>, x: int);
    p := malloc<int>(2);
    *(p + 0) := 5;
    free(p);
    x := *(p + 0);
    x
  }
  heap 0
}
"""


# One program per violation class; each must compile to a run whose trace
# is the related safe prefix plus exactly one trap.
UNSAFE_SUITE = {
    "array-overflow-write": """
module {
  fn main() -> int {
    var (p: ptr<array int>);
    p := malloc<int>(2);
    *(p + 0) := 1;
    *(p + 5) := 1;
    0
  }
  heap 0
}
""",
    "array-underflow-read": """
module {
  fn main() -> int {
    var (p: ptr<array int>, x: int);
    p := malloc<int>(4);
    x := *(p + (0 - 1));
    x
  }
  heap 0
}
""",
    "uaf-read": UAF_READ,
    "uaf-write": """
module {
  fn main() -> int {
    var (p: ptr<array int>);
    p := malloc<int>(2);
    free(p);
    *(p + 0) := 9;
    0
  }
  heap 0
}
""",
    "double-free": """
module {
  fn main() -> int {
    var (p: ptr<array int>);
    p := malloc<int>(3);
    free(p);
    free(p);
    0
  }
  heap 0
}
""",
    "forged-read": """
module {
  fn main() -> int {
    var (x: int);
    x := *(4);
    x
  }
  heap 8
}
""",
    "forged-write": """
module {
  fn main() -> int {
    var (p: ptr<array int>);
    p := malloc<int>(2);
    *(3) := 1;
    0
  }
  heap 8
}
""",
    "forged-free": """
module {
  fn main() -> int {
    var (p: ptr<array int>);
    p := malloc<int>(2);
    free(7);
    0
  }
  heap 0
}
""",
    "struct-field-overflow": user_record_program(32),
    "dangling-after-realloc": """
module {
  fn main() -> int {
    var (p: ptr<array int>, q: ptr<array int>, x: int);
    p := malloc<int>(4);
    free(p);
    q := malloc<int>(4);
    *(q + 0) := 8;
    x := *(p + 0);
    x
  }
  heap 0
}
""",
    "negative-offset-deref": """
module {
  fn main() -> int {
    var (p: ptr<array int>);
    p := malloc<int>(4);
    *(p + (0 - 2)) := 1;
    0
  }
  heap 0
}
""",
    "zero-length-deref": """
module {
  fn main() -> int {
    var (p: ptr<array int>, x: int);
    p := malloc<int>(0);
    x := *(p + 0);
    x
  }
  heap 0
}
""",
    "stale-slice-after-free": """
module {
  struct Pair { a: int, b: int }
  fn main() -> int {
    var (s: ptr<struct Pair>, f: ptr<int>, x: int);
    s := malloc(struct Pair);
    f := s.a;
    *(f) := 3;
    free(s);
    x := *(f);
    x
  }
  heap 0
}
""",
}


# -- i32 arithmetic at its edges -------------------------------------------

def _i32_program(stmts: str) -> str:
    """stmts run with p six fresh cells, the whole heap, and m int_min."""
    return f"""
module {{
  fn main() -> int {{
    var (p: ptr<array int>, m: int);
    p := malloc<int>(6);
    m := 0 - 2147483647 - 1;
    {stmts}
  }}
  heap 0
}}
"""


# name -> (program, outcome, result or None, the heap's six cells at the end)
I32_EDGES = {
    "wrap": (_i32_program(
        "*(p) := 2147483647 + 1; *(p + 1) := m - 1; *(p + 2) := 65536 * 65536 + 7; "
        "*(p + 3) := m * (0 - 1); *(p + 4) := 2147483647 * 2147483647; *(p + 5) := m + m; "
        "*(p + 1)"),
        "ok", 2147483647, [-2147483648, 2147483647, 7, -2147483648, 1, 0]),
    "negative-truncation": (_i32_program(
        "*(p) := (0 - 7) / 2; *(p + 1) := 7 / (0 - 2); *(p + 2) := (0 - 7) / (0 - 2); "
        "*(p + 3) := m / 2; *(p + 4) := m / (0 - 2147483647); *(p + 5) := 2147483647 / m; "
        "(0 - 1) / 2"),
        "ok", 0, [-3, -3, 3, -1073741824, 1, 0]),
    "compare-extremes": (_i32_program(
        "*(p) := m < 2147483647; *(p + 1) := 2147483647 < m; *(p + 2) := m == 2147483647 + 1; "
        "*(p + 3) := m - 1 < m; *(p + 4) := m + 0 == m; *(p + 5) := 2147483647 + 1 < 0; "
        "m - 1 == 2147483647"),
        "ok", 1, [1, 0, 1, 0, 1, 1]),
    "division-by-zero": (_i32_program("*(p) := 7; *(p + 1) := 7 / (*(p) - 7); 0"),
                         "trap", None, [7, 0, 0, 0, 0, 0]),
    "int-min-by-minus-one": (_i32_program("*(p) := 0 - 1; *(p + 1) := m / *(p); 0"),
                             "trap", None, [-1, 0, 0, 0, 0, 0]),
}


# -- nesting: programs that nest one construct n levels deep ---------------

NESTED_CONSTRUCTS = ("parens", "ifs", "lets", "derefs", "assigns", "operators", "types")


def nested_source(construct: str, n: int) -> str:
    """A main whose body nests `construct` n levels deep (for "types", a
    local whose pointer type does)."""
    decls, extra = "x: int", ""
    body = {
        "parens": "(" * n + "1" + ")" * n,
        "ifs": "if 1 { " * n + "7" + " } else { 0 }" * n,
        "lets": "let y = f() in " * n + "y",
        "derefs": "*" * n + "x",
        "assigns": "x := " * n + "0",
        "operators": " + ".join(["1"] * (n + 1)),
        "types": "x := 5; x",
    }[construct]
    if construct == "lets":
        extra = "  fn f() -> int { var (); 3 }\n"
    if construct == "types":
        decls += ", p: " + "ptr<" * n + "int" + ">" * n
    return (f"module {{\n  fn main() -> int {{\n    var ({decls});\n    {body}\n  }}\n"
            f"{extra}  heap 0\n}}\n")


def straight_line_source(n: int) -> str:
    """A main of n statements `x := x + k`; the same text as the deep
    program of the frontend benchmark when n is 1,500."""
    body = ";\n    ".join(f"x := x + {i % 7}" for i in range(n))
    return (f"module {{\n  fn main() -> int {{\n    var (x: int);\n    {body};\n"
            f"    x\n  }}\n  heap 0\n}}\n")


# Tokens a mutant may take in place of one of its own: every keyword and
# operator of the source language, an unbound name and two numbers.
MUTANT_TOKENS = ("module", "struct", "fn", "var", "heap", "int", "ptr", "array", "malloc",
                 "free", "let", "in", "if", "else", "import", ":=", "->", "==", "-", "+",
                 "*", "/", "<", ">", "(", ")", "{", "}", ",", ";", ":", ".", "=", "zz", "0", "7")


def token_mutants(text: str, seed: int, n: int) -> list[str]:
    """n mutants of a source text, each with one token deleted, doubled,
    swapped with the next one, or replaced by another token of the text
    or of MUTANT_TOKENS."""
    from mswasm.minic import _tokenize_src

    toks = _tokenize_src(text)[:-1]
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        t = list(toks)
        i = rng.randrange(len(t))
        kind = rng.randrange(4)
        if kind == 0:
            del t[i]
        elif kind == 1:
            t.insert(i, t[i])
        elif kind == 2 and i + 1 < len(t):
            t[i], t[i + 1] = t[i + 1], t[i]
        else:
            t[i] = rng.choice(MUTANT_TOKENS + tuple(toks))
        out.append(" ".join(t))
    return out


def nested_ifs_module(n: int) -> str:
    """Module text whose entry nests n bytecode ifs and returns 7."""
    body = "i32.const 7"
    for _ in range(n):
        body = f"i32.const 1 (if (then {body}) (else i32.const 0))"
    return f"(module (segment 0) (heap 0) (func (result i32) {body}))\n"


def with_frames(n: int, fn, *args):
    """fn(*args) under the default recursion limit of 1000, called n
    Python frames deeper than here."""
    def descend(k: int):
        return fn(*args) if k == 0 else descend(k - 1)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return descend(n)
    finally:
        sys.setrecursionlimit(limit)
