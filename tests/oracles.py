"""Independent reference implementations the real code is tested against.

These deliberately use different data structures from the production code:
the memory oracle keeps one byte-array per allocation id instead of a flat
store with a free list, the monitor oracle replays allocation interval
records instead of a shadow map, the baggy reference keeps handles as
packed 64-bit ints and places a slot at the least multiple of its size
that overlaps no live slot instead of decoding handles to tuples and
taking slots from a free list, and the
bytecode tokenizer walks the text a character at a time, counting lines
and columns as it goes, instead of matching one regular expression and
counting positions only for an error.  The source-interpreter reference
walks the typed tree with a work stack of tagged items, and keeps names in
one dict per frame, where `src_run` runs flat code over numbered slots; the
cross-relation reference walks the struct layout field by field on every
access (`ref_byte_of_cell`, with its own cell counts and padding), where
`relate_value` looks each cell's byte offset up in `Layout.cell_bytes`.
The free-list reference, `RefFreeList`, finds a fit and carves it in two
scans and sorts and re-merges the whole list on every release, where
`segmem.take` carves in its one scan and `segmem.give` inserts by
bisection and merges with two neighbours; the source-interpreter
reference allocates with it.  The typing reference, `ref_typecheck_module`,
is the arrow-based typer that the one typing loop `typecheck.type_body`
replaced: `ref_type_instr` gives each instruction its (consumes, produces)
arrow as two fresh lists, memoised per function by `id`, `ref_apply`
threads the stack type through it by slicing and concatenation, and the
callees' signatures are `FuncType`s built from the functions.  The
linking reference, `ref_link`, is the linker before it kept the functions
that hold no call: it rebuilds every FuncDef and every body, and checks
each import against a `FuncType` built from its filler.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from mswasm.bytecode import (
    COMPARISON_OPS, FLOAT_OPS, INT_OPS, MAX_NESTING, FuncDef, FuncType, Instr, ModuleDef,
    ValueType,
)

from mswasm.baggy import NULL_BAGGY, pack_baggy, unpack_baggy
from mswasm.compiler import Layout, compile_type
from mswasm.interp import LinkError, ReadEv, SAllocEv, SFreeEv, TrapEv, WriteEv
from mswasm.minic import (
    INT, ArrayType, SInt, SPtr, SrcAlloc, SrcFree, SrcHostError,
    SrcRead, SrcRunResult, SrcWrite, StructType, TAssignPtr, TAssignVar, TBinOp,
    TDeref, TField, TFree, TIf, TIntAsPtr, TLetCall, TMallocArray, TMallocSingle,
    TNum, TSeq, TVar, TypedModule,
)
from mswasm.monitor import AAlloc, AFree, ARead, AWrite, SAFE, Violation
from mswasm.segmem import Handle, MemTrap, TrapKind
from mswasm.typecheck import (
    _INT_HALF, UNREACHABLE, StackType, TypeError_, TypingContext, _bound_nesting, _is_f32,
)


@dataclass
class OracleSegment:
    base: int
    data: list[int]
    tags: list[int]
    live: bool = True


class NaiveMemoryOracle:
    """Map id -> byte array with explicit liveness; no free list, no
    coalescing, no flat store."""

    def __init__(self):
        self.segments: dict[int, OracleSegment] = {}

    def on_alloc(self, h: Handle, n: int) -> None:
        self.segments[h.id] = OracleSegment(h.base, [0] * n, [0] * n)

    def classify(self, h: Handle, size: int) -> str | None:
        """None if the access must succeed, else the expected trap kind."""
        if not h.valid:
            return "integrity"
        seg = self.segments.get(h.id)
        if seg is None or not seg.live:
            return "temporal"
        rel = h.base - seg.base
        if not (0 <= rel and rel + h.bound <= len(seg.data)):
            return "spatial"
        if not (0 <= h.offset and h.offset + size <= h.bound):
            return "spatial"
        return None

    def classify_handle(self, h: Handle) -> str | None:
        """As classify, for a 16-byte handle access, which must also be
        16-aligned."""
        kind = self.classify(h, 16)
        if kind is None and (h.base + h.offset) % 16 != 0:
            return "integrity"
        return kind

    def _span(self, h: Handle, size: int):
        seg = self.segments[h.id]
        start = (h.base - seg.base) + h.offset
        return seg, start, start + size

    def load(self, h: Handle, fmt: str):
        seg, lo, hi = self._span(h, struct.calcsize(fmt))
        return struct.unpack(fmt, bytes(seg.data[lo:hi]))[0]

    def load_handle(self, h: Handle) -> Handle:
        seg, lo, hi = self._span(h, 16)
        base, offset, bound, word = struct.unpack("<IiII", bytes(seg.data[lo:hi]))
        valid = all(t == 1 for t in seg.tags[lo:hi]) and word >= 1 << 31
        return Handle(base, offset, bound, valid, word % (1 << 31))

    def store(self, h: Handle, raw: bytes, tag: int) -> None:
        seg, lo, hi = self._span(h, len(raw))
        seg.data[lo:hi] = list(raw)
        seg.tags[lo:hi] = [tag] * len(raw)

    def classify_free(self, h: Handle) -> str | None:
        if not h.valid:
            return "integrity"
        seg = self.segments.get(h.id)
        if seg is None or not seg.live:
            return "temporal"
        if h.offset != 0 or h.base != seg.base:
            return "spatial"
        return None

    def free(self, h: Handle) -> None:
        self.segments[h.id].live = False


@dataclass
class _AllocRecord:
    size: int
    addr: int
    color: int
    shades: tuple[int, ...]
    freed: bool = False

    def covers(self, a: int) -> bool:
        return self.addr <= a < self.addr + self.size


@dataclass
class BruteMonitor:
    """Replays allocation interval records event by event."""

    records: list[_AllocRecord] = field(default_factory=list)
    colors: set[int] = field(default_factory=set)

    def step_kind(self, ev) -> str | None:
        if isinstance(ev, AAlloc):
            if ev.color in self.colors:
                return "color-reuse"
            for r in self.records:
                if r.freed or r.size == 0 or ev.size == 0:
                    continue
                if not (ev.addr + ev.size <= r.addr or r.addr + r.size <= ev.addr):
                    return "alloc-overlap"
            self.colors.add(ev.color)
            pattern = ev.shades  # one element's shades, repeated per byte
            self.records.append(_AllocRecord(ev.size, ev.addr, ev.color, tuple(
                pattern[j % len(pattern)] for j in range(ev.size))))
            return None
        if isinstance(ev, (ARead, AWrite)):
            covering = [r for r in self.records if r.covers(ev.addr)]
            live = [r for r in covering if not r.freed]
            if live:
                r = live[-1]
                if r.color != ev.color:
                    return "spatial-color"
                if r.shades[ev.addr - r.addr] != ev.shade:
                    return "shade"
                return None
            if covering:
                return "temporal-freed"
            return "temporal-unmapped"
        if isinstance(ev, AFree):
            matching = [r for r in self.records
                        if r.addr == ev.addr and r.color == ev.color]
            if not matching:
                return "free-unmatched"
            if matching[0].freed:
                return "double-free"
            matching[0].freed = True
            return None
        raise TypeError(f"not an abstract event: {ev!r}")

    def state_key(self):
        return tuple((r.size, r.addr, r.color, r.shades, r.freed)
                     for r in self.records)


def brute_check_trace(events):
    bm = BruteMonitor()
    for i, ev in enumerate(events):
        kind = bm.step_kind(ev)
        if kind is not None:
            return Violation(kind, i, i)
    return SAFE


# -- randomized backend-vs-oracle session -------------------------------


def mutate_handle(rng, h: Handle) -> Handle:
    r = rng.random()
    if r < 0.5:
        return Handle(h.base, rng.randint(-4, h.bound + 8), h.bound, h.valid, h.id)
    if r < 0.6:
        return Handle(h.base, h.offset, h.bound, False, h.id)
    if r < 0.7:
        return Handle(h.base + rng.randint(-8, 8), h.offset, h.bound, h.valid, h.id)
    return h


def handle_slot(rng, h: Handle) -> Handle:
    """Where a handle is loaded or stored: mostly a 16-aligned offset of
    h's window, sometimes mutated further."""
    h = Handle(h.base, 16 * rng.randrange(h.bound // 16 + 1), h.bound, h.valid, h.id)
    return mutate_handle(rng, h) if rng.random() < 0.3 else h


def _pack_handle(h: Handle) -> bytes:
    word = h.id % (1 << 31) + ((1 << 31) if h.valid else 0)
    return struct.pack("<IiII", h.base % (1 << 32), h.offset, h.bound % (1 << 32), word)


NUM_FORMATS = ("<B", "<h", "<i", "<q")
I32 = struct.Struct("<i")


def run_backend_differential(seg_mem, rng, steps: int) -> None:
    """Drive the real memory and the naive oracle with one random op
    sequence through the typed accesses the interpreter uses, asserting
    identical observables (values, trap/no-trap, trap kind, and after
    each store the data and tag bytes of the stored-to segment)."""
    oracle = NaiveMemoryOracle()
    handles: list[Handle] = []

    def attempt(expected, act):
        """(True, act's result) if it must succeed and does; (False, None)
        if it traps with the kind the oracle expects."""
        try:
            got = act()
        except MemTrap as e:
            assert e.kind.value == expected, (expected, e.kind)
            return False, None
        assert expected is None, expected
        return True, got

    def same_bytes(h):
        seg = oracle.segments[h.id]
        n = len(seg.data)
        assert seg_mem.data[seg.base:seg.base + n] == bytes(seg.data)
        assert seg_mem.tags[seg.base:seg.base + n] == bytes(seg.tags)

    for _ in range(steps):
        op = rng.randrange(8)
        if op == 0 or not handles:
            n = rng.choice((0, 1, 4, 8, 16, 24, 32, 40, 48))
            try:
                h = seg_mem.alloc(n)
                oracle.on_alloc(h, n)
                handles.append(h)
            except MemTrap as e:
                assert e.kind is TrapKind.OOM
        elif op == 1:
            h = mutate_handle(rng, rng.choice(handles))
            ok, _ = attempt(oracle.classify_free(h), lambda: seg_mem.free(h))
            if ok:
                oracle.free(h)
        elif op in (2, 3):
            h = mutate_handle(rng, rng.choice(handles))
            fmt = rng.choice(NUM_FORMATS)
            ok, got = attempt(oracle.classify(h, struct.calcsize(fmt)),
                              lambda: seg_mem.load(h, struct.Struct(fmt)))
            if ok:
                assert got == oracle.load(h, fmt), (h, fmt, got)
        elif op == 4:
            h = handle_slot(rng, rng.choice(handles))
            ok, got = attempt(oracle.classify_handle(h), lambda: seg_mem.load_handle(h))
            if ok:
                assert got == oracle.load_handle(h), (h, got)
        elif op == 5:
            h = handle_slot(rng, rng.choice(handles))  # often over a handle
            h = Handle(h.base, h.offset + rng.randrange(16), h.bound, h.valid, h.id)
            fmt = rng.choice(NUM_FORMATS)
            raw = bytes(rng.randrange(256) for _ in range(struct.calcsize(fmt)))
            v = struct.unpack(fmt, raw)[0]
            ok, _ = attempt(oracle.classify(h, len(raw)),
                            lambda: seg_mem.store(h, struct.Struct(fmt), v))
            if ok:
                oracle.store(h, raw, 0)
                same_bytes(h)
        elif op == 6:
            h = handle_slot(rng, rng.choice(handles))
            inner = mutate_handle(rng, rng.choice(handles))
            ok, _ = attempt(oracle.classify_handle(h),
                            lambda: seg_mem.store_handle(h, inner))
            if ok:
                oracle.store(h, _pack_handle(inner), 1)
                same_bytes(h)
        else:
            # Store a handle, rewrite one of its words with its own bytes
            # as i32 data, and load the handle back: only the tag bytes
            # can tell that the reloaded handle is dead.
            live = [h for h in handles
                    if h.bound >= 16 and oracle.segments[h.id].live]
            if not live:
                try:
                    live = [seg_mem.alloc(32)]
                except MemTrap:
                    continue
                oracle.on_alloc(live[0], 32)
                handles += live
            h = rng.choice(live)
            h = Handle(h.base, 16 * rng.randrange(h.bound // 16), h.bound, h.valid, h.id)
            inner = rng.choice(handles)
            raw = _pack_handle(inner)
            seg_mem.store_handle(h, inner)
            oracle.store(h, raw, 1)
            k = 4 * rng.randrange(4)
            word = Handle(h.base, h.offset + k, h.bound, h.valid, h.id)
            seg_mem.store(word, I32, I32.unpack_from(raw, k)[0])
            oracle.store(word, raw[k:k + 4], 0)
            same_bytes(h)
            assert seg_mem.load_handle(h) == oracle.load_handle(h)


# -- reference for the baggy backend: packed-int handles -----------------

_BAGGY_ADDR_MASK = (1 << 48) - 1
_BAGGY_MARK = 1 << 63
_BAGGY_UNUSED = 0x1FF << 54  # bits 54-62 of a packed handle carry nothing
_BAGGY_MIN_ORDER = 4


def ref_baggy_fields(packed: int) -> tuple[int, int, bool]:
    """(addr, order, marked) of a packed handle."""
    return (packed & _BAGGY_ADDR_MASK, (packed >> 48) & 0x3F,
            bool(packed & _BAGGY_MARK))


def ref_slot_base(packed: int) -> int:
    """Unmarked positions sit inside their slot; a marked one sits in the
    stray window below the slot ([base - size/2, base)) when its residue
    is at least size/2, else in the one above it."""
    addr, order, marked = ref_baggy_fields(packed)
    size = 1 << order
    aligned = addr & ~(size - 1)
    if not marked:
        return aligned
    if addr % size >= size // 2:
        return aligned + size
    return aligned - size


class RefBuddyMemory:
    """The baggy backend over 64-bit packed handles, with the plainest
    formulas: a slot goes at the least multiple of its size where it
    overlaps no live slot, and the store doubles until one fits."""

    def __init__(self, size: int, cap: int):
        size = max(16, 1 << (size - 1).bit_length())
        self.cap = cap
        self.data = bytearray(size)
        self.allocated: dict[int, int] = {}

    def _place(self, size: int) -> int:
        while True:
            for base in range(0, len(self.data) - size + 1, size):
                if all(base + size <= b or b + (1 << k) <= base
                       for b, k in self.allocated.items()):
                    return base
            if 2 * len(self.data) > self.cap:
                raise MemTrap(TrapKind.OOM)
            self.data.extend(bytes(len(self.data)))

    def alloc(self, n: int) -> int:
        if n < 0:
            raise MemTrap(TrapKind.OOM)
        order = _BAGGY_MIN_ORDER
        while (1 << order) < n:
            order += 1
        if (1 << order) > self.cap:
            raise MemTrap(TrapKind.OOM)
        base = self._place(1 << order)
        self.allocated[base] = order
        self.data[base:base + (1 << order)] = bytes(1 << order)
        return base | (order << 48)

    def free(self, packed: int) -> None:
        addr, order, marked = ref_baggy_fields(packed)
        if marked:
            raise MemTrap(TrapKind.INTEGRITY)
        if order < _BAGGY_MIN_ORDER:
            raise MemTrap(TrapKind.SPATIAL)  # the null handle
        base = ref_slot_base(packed)
        if addr != base:
            raise MemTrap(TrapKind.SPATIAL)
        if self.allocated.get(base) != order:
            raise MemTrap(TrapKind.TEMPORAL)
        del self.allocated[base]

    def handle_add(self, packed: int, delta: int) -> int:
        addr, order, _ = ref_baggy_fields(packed)
        base, size = ref_slot_base(packed), 1 << order
        addr += delta
        if base <= addr < base + size:
            marked = False
        elif (base - size // 2 <= addr < base
              or base + size <= addr < base + size + size // 2):
            marked = True
        else:
            raise MemTrap(TrapKind.SPATIAL)
        return (addr & _BAGGY_ADDR_MASK) | (order << 48) | (_BAGGY_MARK if marked else 0)

    def _check_use(self, packed: int, size: int) -> int:
        addr, order, marked = ref_baggy_fields(packed)
        if marked or order < _BAGGY_MIN_ORDER or addr + size > len(self.data):
            raise MemTrap(TrapKind.SPATIAL)
        return addr

    def load(self, packed: int, fmt: str):
        a = self._check_use(packed, struct.calcsize(fmt))
        return struct.unpack(fmt, bytes(self.data[a:a + struct.calcsize(fmt)]))[0]

    def store(self, packed: int, fmt: str, v) -> None:
        a = self._check_use(packed, struct.calcsize(fmt))
        self.data[a:a + struct.calcsize(fmt)] = struct.pack(fmt, v)

    def load_handle(self, packed: int) -> int:
        a = self._check_use(packed, 8)
        return int.from_bytes(self.data[a:a + 8], "little") & ~_BAGGY_UNUSED

    def store_handle(self, packed: int, v: int) -> None:
        a = self._check_use(packed, 8)
        self.data[a:a + 8] = v.to_bytes(8, "little")

    def view(self, packed: int) -> Handle:
        addr, order, marked = ref_baggy_fields(packed)
        base = ref_slot_base(packed)
        return Handle(base, addr - base, 1 << order, not marked, base & 0x7FFFFFFF)

    def free_ranges(self) -> list[tuple[int, int]]:
        """The gaps between the live slots, as (start, length) in address
        order."""
        gaps, at = [], 0
        for base, order in sorted(self.allocated.items()):
            if base > at:
                gaps.append((at, base - at))
            at = base + (1 << order)
        if len(self.data) > at:
            gaps.append((at, len(self.data) - at))
        return gaps


BAGGY_NUM_LAYOUTS = tuple(struct.Struct(f) for f in ("<i", "<q", "<f", "<d"))


def run_baggy_differential(mem, rng, steps: int) -> None:
    """Drive a BuddyMemory and RefBuddyMemory with one random sequence of
    allocs, frees, handle adds, slices, number and handle loads and
    stores, and decodes of random packed bytes, asserting after each op
    the same handle fields, views, loaded values, trap kinds, memory
    bytes, free ranges and allocated slots."""
    ref = RefBuddyMemory(len(mem.data), mem.cap)
    pool: list = []  # (handle, the reference's packed int)

    def keep(out):
        """Check a handle both sides made, (handle, packed), and pool it."""
        if out:
            h, packed = out
            assert (h.addr, h.order, h.marked) == ref_baggy_fields(packed), out
            assert mem.view(h) == ref.view(packed), out
            pool.append(out)

    def attempt(act, reference):
        """(act's result, reference's) if neither traps, else None once
        both trapped with the same kind."""
        try:
            want, want_kind = reference(), None
        except MemTrap as e:
            want, want_kind = None, e.kind
        try:
            got = act()
        except MemTrap as e:
            assert e.kind is want_kind, (want_kind, e.kind)
            return None
        assert want_kind is None, want_kind
        return got, want

    keep((NULL_BAGGY, 0))
    for _ in range(steps):
        op = rng.randrange(9)
        h, p = rng.choice(pool)
        reach = 1 << min(h.order, 10)  # deltas reaching past the stray windows
        if op == 0:
            n = rng.choice((0, 1, 15, 16, 17, 32, 48, 64, 100, 200, 500, 3000))
            keep(attempt(lambda: mem.alloc(n), lambda: ref.alloc(n)))
        elif op == 1:
            attempt(lambda: mem.free(h), lambda: ref.free(p))
        elif op == 2:
            d = rng.randint(-2 * reach, 2 * reach)
            keep(attempt(lambda: mem.handle_add(h, d), lambda: ref.handle_add(p, d)))
        elif op == 3:
            o1, o2 = rng.randint(-reach, 2 * reach), rng.randint(0, reach)
            keep(attempt(lambda: mem.slice_handle(h, o1, o2), lambda: ref.handle_add(p, o1)))
        elif op == 4:
            layout = rng.choice(BAGGY_NUM_LAYOUTS)
            out = attempt(lambda: mem.load(h, layout), lambda: ref.load(p, layout.format))
            if out:
                got, want = out
                assert got == want or (got != got and want != want), (got, want)
        elif op == 5:
            layout = rng.choice(BAGGY_NUM_LAYOUTS)
            v = layout.unpack(rng.randbytes(layout.size))[0]
            attempt(lambda: mem.store(h, layout, v), lambda: ref.store(p, layout.format, v))
        elif op == 6:
            keep(attempt(lambda: mem.load_handle(h), lambda: ref.load_handle(p)))
        elif op == 7:
            inner, inner_p = rng.choice(pool)
            attempt(lambda: mem.store_handle(h, inner),
                    lambda: ref.store_handle(p, inner_p))
        else:
            raw = rng.randbytes(8)
            packed = int.from_bytes(raw, "little") & ~_BAGGY_UNUSED
            got = unpack_baggy(raw)
            assert pack_baggy(got) == packed.to_bytes(8, "little")
            keep((got, packed))
        assert mem.data == ref.data
        assert mem.allocated == ref.allocated
        assert mem.free_ranges == ref.free_ranges()


# -- bytecode text: a character-loop tokenizer --------------------------


@dataclass
class RefToken:
    text: str  # "(", ")" or an atom
    line: int
    col: int


def ref_tokenize(text: str) -> list[RefToken]:
    """Tokens of the module text format with their 1-based line and
    column: space, tab, CR and LF separate, `;` starts a comment that runs
    to the end of the line, and parentheses are tokens of their own."""
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line, col = line + 1, 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            toks.append(RefToken(c, line, col))
            col += 1
            i += 1
        else:
            start, start_col = i, col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            toks.append(RefToken(text[start:i], line, start_col))
    return toks


def mutate_text(rng, text: str) -> str:
    """One to four byte-level edits (replace, insert, delete, truncate) of
    the UTF-8 bytes of text, read back as Latin-1 so that every byte
    value, separators and Unicode spaces included, reaches the tokenizer."""
    data = bytearray(text.encode())
    alphabet = b"() ;\n\t\r\x0b\x0c\x85\xa0.-0123456789aeifst"
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(4)
        at = rng.randrange(len(data) + 1)
        byte = rng.choice(alphabet) if rng.random() < 0.7 else rng.randrange(256)
        if op == 0 and at < len(data):
            data[at] = byte
        elif op == 1:
            data.insert(at, byte)
        elif op == 2 and at < len(data):
            del data[at]
        elif op == 3:
            del data[at:]
    return data.decode("latin-1")


# -- the free list by sort and merge -----------------------------------


@dataclass
class RefFreeList:
    """First fit over sorted free ranges, as segment memory and the source
    heap each kept it before they shared `segmem.take`/`give`: a fit and a
    carve are two scans, and a release appends, sorts the whole list and
    merges every pair of ranges that touch."""

    free: list[tuple[int, int]] = field(default_factory=list)

    def find_fit(self, n: int, align: int) -> int | None:
        for start, length in self.free:
            base = (start + align - 1) & ~(align - 1)
            if base + n <= start + length:
                return base
        return None

    def carve(self, base: int, n: int) -> None:
        for i, (start, length) in enumerate(self.free):
            if start <= base and base + n <= start + length:
                pieces = []
                if base > start:
                    pieces.append((start, base - start))
                if start + length > base + n:
                    pieces.append((base + n, start + length - (base + n)))
                self.free[i:i + 1] = pieces
                return
        raise AssertionError("carve outside free space")

    def release(self, base: int, n: int) -> None:
        if n == 0:
            return
        self.free.append((base, n))
        self.free.sort()
        merged = [self.free[0]]
        for start, length in self.free[1:]:
            last_start, last_len = merged[-1]
            if last_start + last_len == start:
                merged[-1] = (last_start, last_len + length)
            else:
                merged.append((start, length))
        self.free = merged


# -- the source interpreter as a tree walker ---------------------------

_MISSING = object()


def ref_i32(n: int) -> int:
    """n's low 32 bits as a two's-complement int."""
    n %= 1 << 32
    return n - (1 << 32) if n >= 1 << 31 else n


def ref_src_run(tm: TypedModule, budget: int = 1_000_000,
                strip_annotations: bool = False) -> SrcRunResult:
    """src_run as an explicit-continuation machine over the typed tree:
    one tagged work item per node and per continuation, one name-keyed
    dict per frame, and a free that scans every live allocation.  A budget
    step is one work item.  Int arithmetic is i32 by its own formula: a
    result reduced mod 2^32, and a floored quotient moved toward zero,
    where a zero divisor or a quotient past i32 ends the run in "trap"."""
    mod = tm.mod
    fns = {f.name: f for f in tm.fns}
    heap: list = [SInt(0)] * mod.heap_size
    allocator = RefFreeList([(0, mod.heap_size)] if mod.heap_size > 0 else [])
    allocated: dict[int, tuple[int, int]] = {}  # id -> (base, cells)
    next_id = 0
    trace: list = []

    def annotate(addr, base, length, wtype, seg_id) -> SPtr:
        if strip_annotations:
            return SPtr(addr, 0, 0, INT, 0)
        return SPtr(addr, base, length, wtype, seg_id)

    def do_alloc(ncells: int, length: int, wtype) -> SPtr:
        nonlocal next_id
        seg_id = next_id
        next_id += 1
        if ncells < 0:
            return annotate(len(heap), len(heap), length, wtype, seg_id)
        base = allocator.find_fit(ncells, 1)
        if base is None:
            base = len(heap)
            heap.extend([SInt(0)] * ncells)
        else:
            allocator.carve(base, ncells)
            for j in range(ncells):
                heap[base + j] = SInt(0)
        allocated[seg_id] = (base, ncells)
        return annotate(base, base, length, wtype, seg_id)

    def do_free(addr: int) -> None:
        for seg_id, (base, n) in list(allocated.items()):
            if base == addr:
                del allocated[seg_id]
                for j in range(n):
                    heap[base + j] = SInt(0)
                allocator.release(base, n)
                return

    def addr_of(v) -> int:
        return v.n if isinstance(v, SInt) else v.addr

    def heap_index(addr: int) -> int:
        if not (0 <= addr < len(heap)):
            raise SrcHostError(f"access at {addr} outside heap of {len(heap)}")
        return addr

    main = fns["main"]
    env_stack = [{name: SInt(0) for name, _ in main.locals}]
    vals: list = []
    work: list = [("eval", main.body)]
    steps = 0
    try:
        while work:
            if steps >= budget:
                return SrcRunResult(trace, "budget", None, heap)
            steps += 1
            item = work.pop()
            tag = item[0]
            if tag == "eval":
                node = item[1]
                t = type(node)
                if t is TNum:
                    vals.append(SInt(node.n))
                elif t is TVar:
                    vals.append(env_stack[-1][node.name])
                elif t is TIntAsPtr:
                    work.append(("eval", node.e))
                elif t is TSeq:
                    work.append(("seq", node.items, 1))
                    work.append(("eval", node.items[0]))
                elif t is TBinOp:
                    work += [("bin", node), ("eval", node.b), ("eval", node.a)]
                elif t is TAssignVar:
                    work += [("setvar", node.name), ("eval", node.e)]
                elif t is TAssignPtr:
                    work += [("write", node), ("eval", node.e), ("eval", node.target)]
                elif t is TDeref:
                    work += [("read", node), ("eval", node.e)]
                elif t is TField:
                    work += [("field", node), ("eval", node.e)]
                elif t is TIf:
                    work += [("branch", node), ("eval", node.c)]
                elif t is TMallocArray:
                    work += [("alloca", node), ("eval", node.count)]
                elif t is TMallocSingle:
                    ptr = do_alloc(ref_cells(mod, node.wtype), 1, node.wtype)
                    trace.append(SrcAlloc(ptr))
                    vals.append(ptr)
                elif t is TFree:
                    work += [("free",), ("eval", node.e)]
                elif t is TLetCall:
                    work.append(("enter", node, node.arg is not None))
                    if node.arg is not None:
                        work.append(("eval", node.arg))
                else:
                    raise AssertionError(f"cannot evaluate {node!r}")
            elif tag == "seq":
                _, items, i = item  # drop item i - 1's value, then item i
                vals.pop()
                if i + 1 < len(items):
                    work.append(("seq", items, i + 1))
                work.append(("eval", items[i]))
            elif tag == "bin":
                b = vals.pop()
                a = vals.pop()
                if isinstance(a, SPtr):
                    vals.append(SPtr(a.addr + addr_of(b), a.base, a.length, a.wtype, a.id))
                    continue
                x, y, op = a.n, addr_of(b), item[1].op
                if op == "/":
                    if y == 0:
                        return SrcRunResult(trace, "trap", None, heap)
                    r = x // y  # floored; truncate an inexact negative quotient
                    if r < 0 and r * y != x:
                        r += 1
                    if ref_i32(r) != r:  # int_min / -1
                        return SrcRunResult(trace, "trap", None, heap)
                else:
                    r = ref_i32({"+": x + y, "-": x - y, "*": x * y,
                                 "==": int(x == y), "<": int(x < y)}[op])
                vals.append(SInt(r))
            elif tag == "setvar":
                env_stack[-1][item[1]] = vals.pop()
                vals.append(SInt(0))
            elif tag == "write":
                v = vals.pop()
                target = vals.pop()
                trace.append(SrcWrite(item[1].value_ty, target))
                heap[heap_index(addr_of(target))] = v
                vals.append(SInt(0))
            elif tag == "read":
                target = vals.pop()
                trace.append(SrcRead(item[1].ty, target))
                vals.append(heap[heap_index(addr_of(target))])
            elif tag == "field":
                node = item[1]
                v = vals.pop()
                if isinstance(v, SPtr):
                    addr = v.addr + node.cell_off
                    fty = node.fty
                    if isinstance(fty, ArrayType):
                        vals.append(annotate(addr, addr, fty.count, fty.elem, v.id))
                    else:
                        vals.append(annotate(addr, addr, 1, fty, v.id))
                else:
                    vals.append(SInt(v.n + node.cell_off))
            elif tag == "branch":
                node = item[1]
                work.append(("eval", node.t if addr_of(vals.pop()) != 0 else node.f))
            elif tag == "alloca":
                count = addr_of(vals.pop())
                ptr = do_alloc(count, count, item[1].elem)
                trace.append(SrcAlloc(ptr))
                vals.append(ptr)
            elif tag == "free":
                v = vals.pop()
                trace.append(SrcFree(v))
                do_free(addr_of(v))
                vals.append(SInt(0))
            elif tag == "enter":
                node, has_arg = item[1], item[2]
                callee = fns[node.fname]
                cenv: dict = {}
                if has_arg:
                    cenv[callee.param[0]] = vals.pop()
                for name, _ in callee.locals:
                    cenv[name] = SInt(0)
                env_stack.append(cenv)
                work += [("leave", node), ("eval", callee.body)]
            elif tag == "leave":
                node = item[1]
                retval = vals.pop()
                env_stack.pop()
                caller = env_stack[-1]
                work += [("unbind", node.x, caller.get(node.x, _MISSING)),
                         ("eval", node.body)]
                caller[node.x] = retval
            elif tag == "unbind":
                _, name, shadowed = item
                if shadowed is _MISSING:
                    del env_stack[-1][name]
                else:
                    env_stack[-1][name] = shadowed
            else:
                raise AssertionError(f"unknown work item {tag!r}")
    except SrcHostError:
        return SrcRunResult(trace, "hosterror", None, heap)
    return SrcRunResult(trace, "ok", vals[-1] if vals else None, heap)


# -- the cross-language relation, walking the layout on every access ---


@dataclass
class RefAllocRec:
    src_base: int
    region: object     # word type covering the whole allocation
    total_cells: int
    tgt_base: int
    tgt_id: int


@dataclass
class RefCrossBijection:
    allocs: dict[int, RefAllocRec] = field(default_factory=dict)   # src id ->
    used_tgt_ids: set[int] = field(default_factory=set)


def ref_cells(mod, w) -> int:
    """Cells of a w: one per int or pointer in it."""
    if isinstance(w, StructType):
        return sum(ref_cells(mod, ft) for _, ft in mod.structs[w.name])
    if isinstance(w, ArrayType):
        return w.count * ref_cells(mod, w.elem)
    return 1


def ref_byte_of_cell(layout: Layout, w, cell: int) -> int:
    """Byte offset of the cell-th value slot inside a region of word type w."""
    if isinstance(w, StructType):
        off = byte = 0
        for _, ft in layout.mod.structs[w.name]:
            a = layout.alignof(ft)
            byte = (byte + a - 1) // a * a
            n = ref_cells(layout.mod, ft)
            if cell < off + n:
                return byte + ref_byte_of_cell(layout, ft, cell - off)
            off += n
            byte += layout.sizeof(ft)
        raise ValueError(f"cell {cell} outside struct {w.name}")
    if isinstance(w, ArrayType):
        per = ref_cells(layout.mod, w.elem)
        return (cell // per) * layout.sizeof(w.elem) \
            + ref_byte_of_cell(layout, w.elem, cell % per)
    if cell != 0:
        raise ValueError(f"cell {cell} in scalar {w}")
    return 0


def ref_relate_value(layout: Layout, delta: RefCrossBijection, sv, tv) -> bool:
    if isinstance(sv, SInt):
        if isinstance(tv, Handle):
            return not tv.valid
        return sv.n == tv
    if not isinstance(tv, Handle) or not tv.valid:
        return False
    rec = delta.allocs.get(sv.id)
    if rec is None:
        return False
    cell_delta = sv.addr - sv.base
    width = layout.sizeof(sv.wtype)
    base_cells = sv.base - rec.src_base
    if not (0 <= base_cells <= rec.total_cells):
        return False
    try:
        byte_base = rec.tgt_base + ref_byte_of_cell(layout, rec.region, base_cells) \
            if base_cells < rec.total_cells else rec.tgt_base \
            + layout.sizeof(rec.region)
    except ValueError:
        return False
    return (tv.id == rec.tgt_id
            and tv.base == byte_base
            and tv.bound == sv.length * width
            and tv.offset == cell_delta * width)


def ref_relate_events(layout: Layout, delta: RefCrossBijection, sev, tev) -> bool:
    if isinstance(sev, SrcAlloc):
        if not isinstance(tev, SAllocEv):
            return False
        ptr, h = sev.ptr, tev.handle
        if not h.valid or h.offset != 0 or ptr.length < 0:
            return False
        if ptr.id in delta.allocs or h.id in delta.used_tgt_ids:
            return False
        region = ArrayType(ptr.length, ptr.wtype)
        if h.bound != ptr.length * layout.sizeof(ptr.wtype):
            return False
        delta.allocs[ptr.id] = RefAllocRec(ptr.base, region, ref_cells(layout.mod, region),
                                           h.base, h.id)
        delta.used_tgt_ids.add(h.id)
        return True
    if isinstance(sev, (SrcRead, SrcWrite)):
        if isinstance(sev.v, SInt):
            return isinstance(tev, TrapEv)
        want = ReadEv if isinstance(sev, SrcRead) else WriteEv
        if not isinstance(tev, want) or compile_type(sev.ty) is not tev.ty:
            return False
        return tev.handle.valid and ref_relate_value(layout, delta, sev.v, tev.handle)
    if isinstance(sev, SrcFree):
        if isinstance(sev.v, SInt):
            return isinstance(tev, TrapEv)
        if not isinstance(tev, SFreeEv):
            return False
        return tev.handle.valid and ref_relate_value(layout, delta, sev.v, tev.handle)
    return False


# -- the arrow-based typer ---------------------------------------------------


def ref_type_instr(ctx: TypingContext, ins: Instr) -> tuple[StackType, StackType]:
    """The arrow type (consumed, produced) of a single instruction.

    `if`, `trap` and `return` have no fixed arrow: ref_type_body types them
    itself, and here they are a `bad-opcode` alike.
    """
    op = ins.op
    if op == "nop":
        return [], []
    if op == "const":
        ty, lit = ins.ty, ins.literal
        if ty is ValueType.HANDLE:
            raise TypeError_("const-of-handle", "no handle literals")
        half = _INT_HALF.get(ty._value_)
        if type(lit) is not (int if half else float):
            raise TypeError_("literal-type", f"{ty.value}.const {lit!r}")
        if half and not -half <= lit < half or ty is ValueType.F32 and not _is_f32(lit):
            raise TypeError_("literal-range", f"{ty.value}.const {lit!r}")
        return [], [ty]
    if op == "binop":
        ty = ins.ty
        if ty is ValueType.HANDLE:
            raise TypeError_("binop-on-handle", "arithmetic on handle values")
        if ins.operator not in (FLOAT_OPS if ty in (ValueType.F32, ValueType.F64) else INT_OPS):
            raise TypeError_("bad-operator", f"{ty}.{ins.operator}")
        return [ty, ty], [ValueType.I32 if ins.operator in COMPARISON_OPS else ty]
    if op == "get":
        if not (0 <= ins.idx < len(ctx.locals)):
            raise TypeError_("bad-index", f"get {ins.idx}")
        return [], [ctx.locals[ins.idx]]
    if op == "set":
        if not (0 <= ins.idx < len(ctx.locals)):
            raise TypeError_("bad-index", f"set {ins.idx}")
        return [ctx.locals[ins.idx]], []
    if op == "load":
        if ins.ty is ValueType.HANDLE:
            raise TypeError_("handle-forging-load", "handle.load from flat heap")
        return [ValueType.I32], [ins.ty]
    if op == "store":
        if ins.ty is ValueType.HANDLE:
            raise TypeError_("handle-forging-store", "handle.store to flat heap")
        return [ValueType.I32, ins.ty], []
    if op == "call":
        if not (0 <= ins.idx < len(ctx.functions)):
            raise TypeError_("bad-index", f"call {ins.idx}")
        ft = ctx.functions[ins.idx]
        return list(ft.params), list(ft.results)
    if op == "segload":
        return [ValueType.HANDLE], [ins.ty]
    if op == "segstore":
        return [ValueType.HANDLE, ins.ty], []
    if op == "slice":
        # handle at the bottom: compiled field access pushes the handle
        # first, then the base offset, then the bound reduction.
        return [ValueType.HANDLE, ValueType.I32, ValueType.I32], [ValueType.HANDLE]
    if op == "new_segment":
        return [ValueType.I32], [ValueType.HANDLE]
    if op == "handle_add":
        return [ValueType.HANDLE, ValueType.I32], [ValueType.HANDLE]
    if op == "segfree":
        return [ValueType.HANDLE], []
    raise TypeError_("bad-opcode", op)


def ref_apply(stack: StackType, consumes: StackType, produces: StackType) -> StackType:
    if len(stack) < len(consumes):
        raise TypeError_("stack-underflow", f"need {consumes}, have {stack}")
    if consumes:
        got = stack[-len(consumes):]
        if got != consumes:
            raise TypeError_("type-mismatch", f"need {consumes}, have {got}")
        stack = stack[:-len(consumes)]
    return stack + produces


def ref_type_body(ctx: TypingContext, body, stack: StackType, depth: int = 0,
                  arrows: dict | None = None):
    """Thread a stack type through an instruction sequence that sits
    inside `depth` ifs.  arrows maps id(ins) to the arrow of each
    instruction of ctx's function typed so far, so each is typed once.

    Returns the final stack, or UNREACHABLE when the sequence ended in
    trap/return (in which case trailing instructions were not typed, only
    their nesting bounded).
    """
    arrows = {} if arrows is None else arrows
    stack = list(stack)
    for i, ins in enumerate(body):
        arrow = arrows.get(id(ins))
        if arrow is None:
            op = ins.op
            if op == "trap":
                break
            if op == "return":
                ref_apply(stack, list(ctx.results), [])
                break
            if op == "if":
                if depth >= MAX_NESTING:
                    raise TypeError_("nesting", f"if nested deeper than {MAX_NESTING}")
                stack = ref_apply(stack, [ValueType.I32], [])
                then_out = ref_type_body(ctx, ins.then_body, stack, depth + 1, arrows)
                else_out = ref_type_body(ctx, ins.else_body, stack, depth + 1, arrows)
                if UNREACHABLE not in (then_out, else_out) and then_out != else_out:
                    raise TypeError_("if-arm-mismatch",
                                     f"then gives {then_out}, else gives {else_out}")
                stack = else_out if then_out is UNREACHABLE else then_out
                if stack is UNREACHABLE:
                    break
                continue
            arrow = arrows[id(ins)] = ref_type_instr(ctx, ins)
        consumes, produces = arrow
        n = len(consumes)
        if n:
            if stack[-n:] != consumes:
                ref_apply(stack, consumes, produces)  # raises the underflow or mismatch
            del stack[-n:]
        stack += produces
    else:
        return stack
    _bound_nesting(body[i + 1:], depth)
    return UNREACHABLE


def ref_typecheck_func(functions: list[FuncType], f: FuncDef) -> None:
    ctx = TypingContext(list(f.params) + list(f.locals), functions, f.results)
    out = ref_type_body(ctx, f.body, [])
    if out is not UNREACHABLE and out != list(f.results):
        raise TypeError_("result-mismatch",
                         f"body gives {out}, declared {list(f.results)}")


def ref_typecheck_module(m: ModuleDef) -> None:
    """Raises TypeError_ for an ill-typed module, as typecheck_module does."""
    functions = [t for t in m.imports] + [f.type for f in m.funcs]
    errors = []
    for i, f in enumerate(m.funcs):
        try:
            ref_typecheck_func(functions, f)
        except TypeError_ as e:
            errors.append(f"func {len(m.imports) + i}: {e}")
    if errors:
        raise TypeError_("module", "; ".join(errors))


# -- linking reference: the linker that rebuilt every function -------------


def ref_rewrite_calls(body, remap) -> tuple[Instr, ...]:
    out = []
    for ins in body:
        if ins.op == "call":
            out.append(Instr("call", idx=remap(ins.idx)))
        elif ins.op == "if":
            out.append(Instr("if", then_body=ref_rewrite_calls(ins.then_body, remap),
                             else_body=ref_rewrite_calls(ins.else_body, remap)))
        else:
            out.append(ins)
    return tuple(out)


def ref_link(m: ModuleDef, ctx: ModuleDef) -> ModuleDef:
    """Fill m's imports with ctx's functions (positionally, by type).

    The result is a whole module: m's own functions first (entry stays at
    index 0), then all of ctx's, with call indices rewritten.
    """
    if ctx.imports:  # `not ctx.is_whole`: ModuleDef.is_whole was `not self.imports`
        raise LinkError("context module must be whole")
    k = len(m.imports)
    if len(ctx.funcs) < k:
        raise LinkError(f"context exports {len(ctx.funcs)} functions, need {k}")
    for j in range(k):
        if ctx.funcs[j].type != m.imports[j]:
            raise LinkError(
                f"import {j}: expected {m.imports[j]}, got {ctx.funcs[j].type}")
    n = len(m.funcs)

    def remap_m(idx: int) -> int:
        return idx - k if idx >= k else n + idx

    def remap_ctx(idx: int) -> int:
        return n + idx

    funcs = [FuncDef(f.params, f.locals, f.results, ref_rewrite_calls(f.body, remap_m))
             for f in m.funcs]
    funcs += [FuncDef(f.params, f.locals, f.results, ref_rewrite_calls(f.body, remap_ctx))
              for f in ctx.funcs]
    return ModuleDef(tuple(funcs), (),
                     max(m.heap_size, ctx.heap_size),
                     max(m.segment_size, ctx.segment_size))
