"""Input programs of the benchmark's workloads, with the results each one
must produce.

Everything here is plain Python and imports nothing from mswasm: the
expected values are worked out from the program text as it is written, so
the checks in bench.py never compare mswasm against itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("copy", "churn", "fuzz", "frontend")

# Sizes of the copy sweep, and the overflowing copy: N = CAP + 1 ints into
# a CAP-int buffer.  CAP * 4 bytes is a power of two, so on baggy the
# buffer fills its slot exactly and the overflowing write traps too.
COPY_SIZES = (4, 8, 12)
COPY_OVERFLOW_CAP = 8
CHURN_ROUNDS = (6, 12, 24)
CHURN_WIDTH = 16       # allocation sizes run from 1 to CHURN_WIDTH ints
CHURN_KEEP = 6        # every CHURN_KEEP-th block is never freed
# Programs per campaign, the same for all three as in `mswasm fuzz`.  Half
# its default --n of 100: a pass then takes about 0.2 s, so a 20 s run
# takes each operation at its best of about 90 passes (README.md).
FUZZ_PER_CAMPAIGN = 50
FUZZ_STRIDE = 100_000  # seed s takes generator seeds [s * stride, ...)
FRONTEND_PROGRAMS = 8
FRONTEND_MAIN_STMTS = 12
FRONTEND_HELPERS = 3
FRONTEND_HELPER_STMTS = 7
DEEP_STMTS = 1500      # past the recursion limit of the tree walks


@dataclass(frozen=True)
class SourceCase:
    """A source program and what a correct chain must make of it.  None
    marks a property the generator does not know."""

    name: str
    text: str
    value: int | None = None          # what main returns
    unsafe_at: int | None = None      # source trace index of the first violation
    src_events: int | None = None     # length of the source trace
    alloc_lengths: tuple[int, ...] | None = None  # element count per allocation
    frees: int | None = None          # free events in the trace
    violating: bool = False           # a violation was planted (fuzz)
    deep: bool = False                # fails today: see DEEP_STMTS


def _seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# copy: fill N ints, copy them through a struct of pointers, checksum the copy


def copy_program(n: int, cap: int, a: int, b: int) -> str:
    return f"""module {{
  struct St {{ s: ptr<array int>, d: ptr<array int>, i: int, acc: int }}
  fn main() -> int {{
    var (st: ptr<struct St>, src: ptr<array int>, dst: ptr<array int>);
    st := malloc(struct St);
    src := malloc<int>({n});
    dst := malloc<int>({cap});
    *(st.s) := src;
    *(st.d) := dst;
    *(st.i) := 0;
    let f = fill(st) in
    *(st.i) := 0;
    let c = copy(st) in
    *(st.i) := 0;
    *(st.acc) := 0;
    let r = sum(st) in r
  }}
  fn fill(st: ptr<struct St>) -> int {{
    var (i: int);
    i := *(st.i);
    if i < {n} {{
      *(*(st.s) + i) := i * {a} + {b};
      *(st.i) := i + 1;
      let r = fill(st) in r
    }} else {{ 0 }}
  }}
  fn copy(st: ptr<struct St>) -> int {{
    var (i: int);
    i := *(st.i);
    if i < {n} {{
      *(*(st.d) + i) := *(*(st.s) + i);
      *(st.i) := i + 1;
      let r = copy(st) in r
    }} else {{ 0 }}
  }}
  fn sum(st: ptr<struct St>) -> int {{
    var (i: int);
    i := *(st.i);
    if i < {n} {{
      *(st.acc) := *(st.acc) + (i + 1) * *(*(st.d) + i);
      *(st.i) := i + 1;
      let r = sum(st) in r
    }} else {{ *(st.acc) }}
  }}
  heap 0
}}
"""


def copy_checksum(n: int, a: int, b: int) -> int:
    return sum((i + 1) * (i * a + b) for i in range(n))


def copy_events(n: int) -> int:
    """Source events of a copy that fits: 3 allocations and 3 writes in
    main, 4 per fill step, 6 per copy step, 6 per sum step, 2 resets of
    st.i and st.acc, and the reads that end each loop."""
    return 6 + (4 * n + 1) + 1 + (6 * n + 1) + 2 + (6 * n + 2)


def copy_overflow_index(n: int, cap: int) -> int:
    """Source trace index of the write dst[cap]: main's 6 events, the whole
    fill loop, the reset of st.i, cap full copy steps, then the reads of
    st.i, st.d, st.s and src[cap] that come before the write."""
    return 6 + (4 * n + 1) + 1 + 6 * cap + 4


def copy_cases(seed: int) -> list[SourceCase]:
    rng = _seeded("copy", seed)
    a, b = rng.randint(1, 4), rng.randint(0, 50)
    cases = [SourceCase(f"copy-{n}", copy_program(n, n, a, b),
                        value=copy_checksum(n, a, b), src_events=copy_events(n),
                        alloc_lengths=(1, n, n), frees=0)
             for n in COPY_SIZES]
    cap = COPY_OVERFLOW_CAP
    cases.append(SourceCase(f"copy-overflow-{cap + 1}",
                            copy_program(cap + 1, cap, a, b),
                            unsafe_at=copy_overflow_index(cap + 1, cap)))
    return cases


# ---------------------------------------------------------------------------
# churn: rounds of allocate, write, read back, free


def churn_program(rounds: int, mul: int, off: int, k: int) -> str:
    w, keep = CHURN_WIDTH, CHURN_KEEP
    return f"""module {{
  struct C {{ i: int, acc: int }}
  fn main() -> int {{
    var (st: ptr<struct C>);
    st := malloc(struct C);
    *(st.i) := 0;
    *(st.acc) := 0;
    let r = churn(st) in r
  }}
  fn churn(st: ptr<struct C>) -> int {{
    var (i: int, n: int, p: ptr<array int>);
    i := *(st.i);
    if i < {rounds} {{
      n := 1 + (i * {mul} + {off}) - ((i * {mul} + {off}) / {w}) * {w};
      p := malloc<int>(n);
      *(p + (n - 1)) := i + {k};
      *(p + 0) := *(p + (n - 1)) + 1;
      *(st.acc) := *(st.acc) + *(p + 0);
      if i - (i / {keep}) * {keep} == 0 {{ 0 }} else {{ free(p) }};
      *(st.i) := i + 1;
      let r = churn(st) in r
    }} else {{ *(st.acc) }}
  }}
  heap 0
}}
"""


def churn_cells(rounds: int, mul: int, off: int) -> tuple[int, ...]:
    return tuple(1 + (i * mul + off) % CHURN_WIDTH for i in range(rounds))


def churn_frees(rounds: int) -> int:
    return rounds - len(range(0, rounds, CHURN_KEEP))


def churn_events(rounds: int) -> int:
    """Source events: main's allocation and 2 writes; per round a read of
    st.i, the allocation, 3 writes, 3 reads and the free (kept blocks have
    none); then the final reads of st.i and st.acc."""
    return 3 + 9 * rounds + churn_frees(rounds) + 2


def churn_cases(seed: int) -> list[SourceCase]:
    rng = _seeded("churn", seed)
    mul, off, k = rng.choice((3, 5, 7, 9, 11, 13)), rng.randint(0, 31), rng.randint(1, 100)
    return [SourceCase(f"churn-{n}", churn_program(n, mul, off, k),
                       value=sum(i + k + 1 for i in range(n)),
                       src_events=churn_events(n),
                       alloc_lengths=(1,) + churn_cells(n, mul, off),
                       frees=churn_frees(n))
            for n in CHURN_ROUNDS]


# ---------------------------------------------------------------------------
# fuzz: seed ranges of the three campaigns of `mswasm fuzz`


def fuzz_seeds(seed: int) -> tuple[range, range, range]:
    """Generator seeds of the bytecode modules, the victim/attacker pairs
    and the source programs: the same count each, as `mswasm fuzz` runs
    every campaign with the same --n."""
    base = seed * FUZZ_STRIDE
    seeds = range(base, base + FUZZ_PER_CAMPAIGN)
    return seeds, seeds, seeds


def fuzz_attacker_seed(victim_seed: int) -> int:
    return victim_seed * 31 + 1  # as `mswasm fuzz --attacker` pairs them


# ---------------------------------------------------------------------------
# frontend: large straight-line programs, generated together with their value

_BOUND = 1_000_000     # keeps every intermediate value far inside i32
_FIELDS = ("f0", "f1", "f2", "f3")
_ARRAY_LEN = 8


def _trunc_div(x: int, y: int) -> int:
    q = abs(x) // abs(y)
    return -q if (x < 0) != (y < 0) else q


class _FrontendGen:
    """Writes statements in a small tree form, evaluates them as it goes
    and prints them as source text.

    Expressions: ("n", c), ("v", name), ("f", field) for *(s.field),
    ("e", j) for *(a + j), or (op, lhs, rhs).  Statements: ("set", x, e),
    ("setf", field, e), ("sete", j, e), ("if", c, then, else) and
    ("let", r, helper, e), whose scope is the rest of the body.
    """

    def __init__(self, shape: random.Random, vals: random.Random):
        self.shape = shape  # statement and operand kinds: the code's size
        self.vals = vals    # constants and names: the workload seed

    # -- evaluation --

    def value(self, e, env: dict, heap: dict) -> int:
        tag = e[0]
        if tag == "n":
            return e[1]
        if tag == "v":
            return env[e[1]]
        if tag in ("f", "e"):
            return heap[e]
        x, y = self.value(e[1], env, heap), self.value(e[2], env, heap)
        if tag == "+":
            return x + y
        if tag == "-":
            return x - y
        if tag == "*":
            return x * y
        if tag == "/":
            return _trunc_div(x, y)
        if tag == "<":
            return int(x < y)
        return int(x == y)

    # -- generation --

    def operand(self, names: list[str], heap: dict | None):
        vals = self.vals
        pick = self.shape.randrange(6 if heap is not None else 3)
        if pick == 0:
            return ("n", vals.randint(0, 99))
        if pick <= 2:
            return ("v", vals.choice(names))
        if pick <= 3:
            return ("f", vals.choice(_FIELDS))
        return ("e", vals.randrange(_ARRAY_LEN))

    def expr(self, names, env, heap):
        """A bounded expression over the operands, and its value."""
        vals = self.vals
        a = self.operand(names, heap)
        op = self.shape.choice(("+", "+", "-", "*", "/", "<", "=="))
        if op == "*":
            e = ("*", a, ("n", vals.randint(2, 9)))
        elif op == "/":
            e = ("/", a, ("n", vals.randint(1, 7)))
        else:
            e = (op, a, self.operand(names, heap))
        v = self.value(e, env, heap)
        if abs(v) > _BOUND:
            e = ("n", vals.randint(0, 99))
            v = e[1]
        return e, v

    def assign(self, names, env, heap, live: bool):
        """One assignment; it changes env/heap only when live."""
        vals = self.vals
        e, v = self.expr(names, env, heap)
        pick = self.shape.randrange(6 if heap is not None else 1)
        if pick <= 3:
            target = ("set", vals.choice(names), e)
        elif pick == 4:
            target = ("setf", vals.choice(_FIELDS), e)
        else:
            target = ("sete", vals.randrange(_ARRAY_LEN), e)
        if live:
            if target[0] == "set":
                env[target[1]] = v
            elif target[0] == "setf":
                heap[("f", target[1])] = v
            else:
                heap[("e", target[1])] = v
        return target

    def branch(self, names, env, heap, depth: int = 0):
        shape = self.shape
        c, cv = self.expr(names, env, heap)
        arms = []
        for taken in (cv != 0, cv == 0):
            arm = []
            for _ in range(shape.randint(1, 3)):
                if depth < 2 and shape.random() < 0.2:
                    arm.append(self.branch(names, env if taken else dict(env),
                                           heap if taken or heap is None
                                           else dict(heap), depth + 1))
                else:
                    arm.append(self.assign(names, env, heap, live=taken))
            arms.append(arm)
        return ("if", c, arms[0], arms[1])

    def body(self, n: int, names: list[str], env: dict, heap: dict | None,
             helpers: list | None = None) -> list:
        stmts = []
        for _ in range(n):
            r = self.shape.random()
            if helpers and r < 0.03:
                k = self.vals.randrange(len(helpers))
                e, v = self.expr(names, env, heap)
                name = f"r{len(env)}"
                env[name] = self.call(helpers[k], v)
                names.append(name)
                stmts.append(("let", name, f"h{k}", e))
            elif r < 0.2:
                stmts.append(self.branch(names, env, heap))
            else:
                stmts.append(self.assign(names, env, heap, live=True))
        return stmts

    def call(self, helper, arg: int) -> int:
        """Run a helper's statements on arg; it returns t0."""
        env = {"v": arg, "t0": 0, "t1": 0, "t2": 0}
        self.run(helper, env, None)
        return env["t0"]

    def run(self, stmts, env, heap) -> None:
        for s in stmts:
            if s[0] == "set":
                env[s[1]] = self.value(s[2], env, heap)
            elif s[0] == "setf":
                heap[("f", s[1])] = self.value(s[2], env, heap)
            elif s[0] == "sete":
                heap[("e", s[1])] = self.value(s[2], env, heap)
            elif s[0] == "if":
                self.run(s[2] if self.value(s[1], env, heap) else s[3], env, heap)


def _show_expr(e) -> str:
    tag = e[0]
    if tag == "n":
        return str(e[1])
    if tag == "v":
        return e[1]
    if tag == "f":
        return f"*(s.{e[1]})"
    if tag == "e":
        return f"*(a + {e[1]})"
    return f"({_show_expr(e[1])} {tag} {_show_expr(e[2])})"


def _show_stmt(s) -> str:
    tag = s[0]
    if tag == "set":
        return f"{s[1]} := {_show_expr(s[2])}"
    if tag == "setf":
        return f"*(s.{s[1]}) := {_show_expr(s[2])}"
    if tag == "sete":
        return f"*(a + {s[1]}) := {_show_expr(s[2])}"
    if tag == "if":
        return (f"if {_show_expr(s[1])} {{ {'; '.join(map(_show_stmt, s[2]))} }}"
                f" else {{ {'; '.join(map(_show_stmt, s[3]))} }}")
    return f"let {s[1]} = {s[2]}({_show_expr(s[3])}) in"


def _show_body(stmts: list, result: str) -> str:
    parts = []
    for s in stmts:
        text = _show_stmt(s)
        parts.append(text + ("\n    " if s[0] == "let" else ";\n    "))
    return "".join(parts) + result


def frontend_program(shape: random.Random, vals: random.Random) -> tuple[str, int]:
    gen = _FrontendGen(shape, vals)
    helpers, helper_text = [], []
    for k in range(FRONTEND_HELPERS):
        env = {"v": 0, "t0": 0, "t1": 0, "t2": 0}
        stmts = gen.body(FRONTEND_HELPER_STMTS, ["v", "t0", "t1", "t2"], env, None)
        helpers.append(stmts)
        helper_text.append(f"  fn h{k}(v: int) -> int {{\n    var (t0: int, t1: int, t2: int);\n"
                           f"    {_show_body(stmts, 't0')}\n  }}\n")
    xs = [f"x{i}" for i in range(6)]
    env = {x: 0 for x in xs}
    heap = {("f", f): 0 for f in _FIELDS} | {("e", j): 0 for j in range(_ARRAY_LEN)}
    stmts = gen.body(FRONTEND_MAIN_STMTS, list(xs), env, heap, helpers)
    value = env["x0"] + env["x1"]
    decls = ", ".join(f"{x}: int" for x in xs)
    main = (f"  fn main() -> int {{\n    var ({decls}, s: ptr<struct R>, a: ptr<array int>);\n"
            f"    s := malloc(struct R);\n    a := malloc<int>({_ARRAY_LEN});\n"
            f"    {_show_body(stmts, 'free(a); free(s); x0 + x1')}\n  }}\n")
    fields = ", ".join(f"{f}: int" for f in _FIELDS)
    text = (f"module {{\n  struct R {{ {fields} }}\n{main}{''.join(helper_text)}"
            f"  heap 0\n}}\n")
    return text, value


def deep_program() -> tuple[str, int]:
    """One function of DEEP_STMTS statements; the same for every seed."""
    body = ";\n    ".join(f"x := x + {i % 7}" for i in range(DEEP_STMTS))
    text = (f"module {{\n  fn main() -> int {{\n    var (x: int);\n    {body};\n"
            f"    x\n  }}\n  heap 0\n}}\n")
    return text, sum(i % 7 for i in range(DEEP_STMTS))


def frontend_cases(seed: int) -> list[SourceCase]:
    vals = _seeded("frontend", seed)
    cases = []
    for j in range(FRONTEND_PROGRAMS):
        # the shape is the same for every seed, so the work is too
        text, value = frontend_program(random.Random(f"frontend-shape:{j}"), vals)
        cases.append(SourceCase(f"frontend-{j}", text, value=value))
    text, value = deep_program()
    cases.append(SourceCase(f"frontend-deep-{DEEP_STMTS}", text, value=value, deep=True))
    return cases
