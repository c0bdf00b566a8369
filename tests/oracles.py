"""Independent reference implementations the real code is tested against.

These deliberately use different data structures from the production code:
the memory oracle keeps one byte-array per allocation id instead of a flat
store with a free list, and the monitor oracle replays allocation interval
records instead of a shadow map.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from mswasm.monitor import AAlloc, AFree, ARead, AWrite, SAFE, Violation
from mswasm.segmem import Handle


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
            self.records.append(_AllocRecord(ev.size, ev.addr, ev.color,
                                             tuple(ev.shades)))
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
            return Violation(kind, i)
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


def run_backend_differential(seg_mem, rng, steps: int) -> None:
    """Drive the real memory and the naive oracle with one random op
    sequence through the typed accesses the interpreter uses, asserting
    identical observables (values, trap/no-trap, trap kind, and after
    each store the data and tag bytes of the stored-to segment)."""
    from mswasm.segmem import MemTrap, TrapKind

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
        op = rng.randrange(7)
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
        else:
            h = handle_slot(rng, rng.choice(handles))
            inner = mutate_handle(rng, rng.choice(handles))
            ok, _ = attempt(oracle.classify_handle(h),
                            lambda: seg_mem.store_handle(h, inner))
            if ok:
                oracle.store(h, _pack_handle(inner), 1)
                same_bytes(h)
