"""Tagged segment memory: per-byte data/handle tags, never-reused segment
ids, handle packing, and the one first-fit free list (`take`/`give`).

The free list is address-ordered first fit with immediate coalescing.
It has three users: segment memory takes segments with 16-byte
alignment; the source heap in `minic` takes cells with alignment 1 and
grows at its end when nothing fits; and the `baggy` backend takes each
power-of-two slot aligned to its own size and doubles its store when
nothing fits.  Freeing merges a range with its two neighbours only, so
the list never needs a sort.

Memory is two bytearrays of one length, which grows to the end of the
highest segment carved so far: `data` holds the bytes and `tags` holds
one tag per byte, 0 for data and 1 for a byte of a stored handle.
Every access is a pair of slices at one address: a number is read with
`struct.unpack_from` on `data`; a store writes `data[a:a+n]` and
`tags[a:a+n]`, with tags 0 for a number and 1 for a handle.  A handle
reads back valid only when all 16 of its tag bytes are 1 and its valid
bit is set, so a number stored over any byte of a handle kills it.

Access checks and their trap classification (checked in this order):
  integrity  -- the handle's valid flag is false
  temporal   -- the handle's id is not currently allocated
  spatial    -- the handle's window escapes its segment, or the offset
                is outside [0, bound - size]
Handle loads and stores then check 16-byte alignment (integrity).
"""

from __future__ import annotations

import bisect
import enum
import struct
from typing import NamedTuple

HANDLE_BYTES = 16
HANDLE_TAGS = b"\x01" * HANDLE_BYTES  # the tag bytes of a stored handle
ALIGN = 16
MAX_ID = (1 << 31) - 1
# The most bytes a module's segment memory or heap may declare, and the
# most the baggy backing store may grow to.
MAX_MEMORY = 1 << 26

_U32 = 0xFFFFFFFF
_I32_HALF = 1 << 31
_HANDLE_LAYOUT = struct.Struct("<IiII")
# _new(Handle, fields) skips NamedTuple's Python-level __new__.
_new = tuple.__new__


def wrap_i32(v: int) -> int:
    return ((v + _I32_HALF) & _U32) - _I32_HALF


class Handle(NamedTuple):
    """Fat pointer into segment memory.

    No invariant ties offset to bound: out-of-bounds handles are legal
    values and only trap when used.
    """

    base: int       # u32 byte address of the accessible window
    offset: int     # i32, may be negative or past the bound
    bound: int      # u32 window length in bytes
    valid: bool
    id: int         # 31-bit allocation identifier, never reused

    def moved(self, delta: int) -> "Handle":
        base, offset, bound, valid, seg_id = self
        return _new(Handle, (base, wrap_i32(offset + delta), bound, valid, seg_id))


NULL_HANDLE = Handle(0, 0, 0, False, 0)


class TrapKind(enum.Enum):
    SPATIAL = "spatial"
    TEMPORAL = "temporal"
    INTEGRITY = "integrity"
    OOM = "oom"
    ARITHMETIC = "arithmetic"  # i32/i64 div_s by zero or int_min / -1
    HEAP = "heap"              # flat-heap load or store out of range


class MemTrap(Exception):
    """Every trap: a failed premise of any operation, segment or not.
    The interpreter's machine loop, `interp._steps`, which `interp.step`
    runs for one step, is the one place that catches it."""

    def __init__(self, kind: TrapKind, msg: str = ""):
        super().__init__(f"{kind._value_}: {msg}" if msg else kind._value_)
        self.kind = kind


def pack_handle(h: Handle) -> bytes:
    """16-byte little-endian record; id in bits 0..30 of the last word,
    valid flag in bit 31."""
    word = (h.id & MAX_ID) | ((1 << 31) if h.valid else 0)
    return _HANDLE_LAYOUT.pack(h.base & _U32, wrap_i32(h.offset),
                               h.bound & _U32, word)


def unpack_handle(data, tags, at: int = 0) -> Handle:
    """Decode the 16-byte record at `at`; it is valid only if all its tag
    bytes are 1 and its valid bit is set.  Corruption shows up as
    valid=False, never as an error."""
    base, offset, bound, word = _HANDLE_LAYOUT.unpack_from(data, at)
    valid = word >> 31 == 1 and tags[at:at + HANDLE_BYTES] == HANDLE_TAGS
    return Handle(base, offset, bound, valid, word & MAX_ID)


# A free list is address-ordered and coalesced: its (start, length) ranges
# are non-empty, sorted by start, and no two overlap or touch.


def take(free: list[tuple[int, int]], n: int, align: int) -> int | None:
    """Carve n units from `free` at the lowest base that is a multiple of
    `align` (a power of two) and has room for them; the base, or None when
    no range has.  Taking zero units leaves `free` as it is: `give` merges
    neighbours only, so it would never join a split made there."""
    mask = align - 1
    for i, (start, length) in enumerate(free):
        base = (start + mask) & ~mask
        end = start + length
        if base + n <= end:
            if n:
                pieces = []
                if base > start:
                    pieces.append((start, base - start))
                if end > base + n:
                    pieces.append((base + n, end - base - n))
                free[i:i + 1] = pieces
            return base
    return None


def give(free: list[tuple[int, int]], base: int, n: int) -> None:
    """Return [base, base + n) to `free`, merging it with the neighbours
    it touches."""
    if n == 0:
        return
    i = bisect.bisect_left(free, (base, 0))
    end = base + n
    j = i
    if j < len(free) and free[j][0] == end:
        end += free[j][1]
        j += 1
    if i and free[i - 1][0] + free[i - 1][1] == base:
        i -= 1
        base = free[i][0]
    free[i:j] = [(base, end - base)]


class SegmentMemory:
    """The `tagged` backend: data and tag bytearrays plus the allocator.

    `free_ranges` (a free list, see `take`) and the live segments in
    `allocated` (id -> (base, size)) partition [0, size).  Ids are issued
    from `next_id` and never handed out twice.  `data` and `tags` start
    empty, so a module pays for the memory it allocates, not for the
    size it declares.  Bytes outside live segments are 0 (`free` clears
    them, and the arrays grow with zeros), so `alloc` writes none."""

    NULL = NULL_HANDLE

    def __init__(self, size: int):
        self.size = size
        self.data = bytearray()
        self.tags = bytearray()  # 0 = data, 1 = handle byte
        self.free_ranges: list[tuple[int, int]] = [(0, size)] if size > 0 else []
        self.allocated: dict[int, tuple[int, int]] = {}
        self.next_id = 0

    # -- allocation ---------------------------------------------------

    def alloc(self, n: int) -> Handle:
        if n < 0:
            raise MemTrap(TrapKind.OOM, f"negative size {n}")
        base = take(self.free_ranges, n, ALIGN)
        if base is None:
            raise MemTrap(TrapKind.OOM, f"no free range fits {n} bytes")
        seg_id = self.next_id
        if seg_id > MAX_ID:
            raise MemTrap(TrapKind.OOM, "segment id space exhausted")
        self.next_id += 1
        grow = base + n - len(self.data)
        if grow > 0:
            self.data.extend(bytes(grow))
            self.tags.extend(bytes(grow))
        self.allocated[seg_id] = (base, n)
        return _new(Handle, (base, 0, n, True, seg_id))

    def free(self, h: Handle) -> None:
        if not h.valid:
            raise MemTrap(TrapKind.INTEGRITY, "free via corrupted handle")
        rec = self.allocated.get(h.id)
        if rec is None:
            raise MemTrap(TrapKind.TEMPORAL, f"id {h.id} not allocated")
        base, n = rec
        if h.offset != 0 or h.base != base:
            raise MemTrap(TrapKind.SPATIAL, "free not at segment start")
        del self.allocated[h.id]
        self.data[base:base + n] = bytes(n)
        self.tags[base:base + n] = bytes(n)
        give(self.free_ranges, base, n)

    # -- access -------------------------------------------------------

    def _check_access(self, h: Handle, size: int) -> int:
        base, offset, bound, valid, seg_id = h
        if not valid:
            raise MemTrap(TrapKind.INTEGRITY, "access via corrupted handle")
        rec = self.allocated.get(seg_id)
        if rec is None:
            raise MemTrap(TrapKind.TEMPORAL, f"id {seg_id} not allocated")
        seg_base, seg_size = rec
        if not (seg_base <= base and base + bound <= seg_base + seg_size):
            raise MemTrap(TrapKind.SPATIAL, "window escapes segment")
        if not (0 <= offset and offset + size <= bound):
            raise MemTrap(TrapKind.SPATIAL,
                          f"offset {offset}+{size} outside bound {bound}")
        return base + offset

    def load(self, h: Handle, layout: struct.Struct):
        """The number with this layout at h."""
        a = self._check_access(h, layout.size)
        return layout.unpack_from(self.data, a)[0]

    def store(self, h: Handle, layout: struct.Struct, v) -> None:
        a = self._check_access(h, layout.size)
        layout.pack_into(self.data, a, v)
        layout.pack_into(self.tags, a, 0)  # zero packs to zero bytes in every layout

    def load_handle(self, h: Handle) -> Handle:
        a = self._check_access(h, HANDLE_BYTES)
        if a % ALIGN != 0:
            raise MemTrap(TrapKind.INTEGRITY, "misaligned handle load")
        return unpack_handle(self.data, self.tags, a)

    def store_handle(self, h: Handle, v: Handle) -> None:
        a = self._check_access(h, HANDLE_BYTES)
        if a % ALIGN != 0:
            raise MemTrap(TrapKind.INTEGRITY, "misaligned handle store")
        self.data[a:a + HANDLE_BYTES] = pack_handle(v)
        self.tags[a:a + HANDLE_BYTES] = HANDLE_TAGS

    def handle_add(self, h: Handle, delta: int) -> Handle:
        return h.moved(delta)

    def slice_handle(self, h: Handle, o1: int, o2: int) -> Handle:
        """Narrow the window: base grows by o1, bound shrinks by o2."""
        base, offset, bound, valid, seg_id = h
        if not (0 <= o1 < bound):
            raise MemTrap(TrapKind.SPATIAL, f"slice base offset {o1}")
        if not (0 <= o2 <= bound):
            raise MemTrap(TrapKind.SPATIAL, f"slice bound cut {o2}")
        return _new(Handle, (base + o1, offset, bound - o2, valid, seg_id))

    def view(self, h: Handle) -> Handle:
        """A handle as trace events show it: itself."""
        return h
