"""Power-of-two-slot enforcement backend: checks happen when handles are
modified, not when memory is accessed.

While a program runs, a handle is a decoded tuple `(addr, order, marked)`:
`addr` is an absolute byte position (48 bits) in one growable backing
store, `order` the log2 of its slot's size, and `marked` says that the
position has strayed outside its slot.  Only memory holds the packed
form, 8 bytes through `pack_baggy`/`unpack_baggy`: bits 0-47 the
position, bits 48-53 the order, bit 63 the mark (bits 54-62 are ignored
on load and stored back as zero).

Strays of up to half a slot are tolerated (marked, usable again once
moved back inside); farther strays trap.  Accesses through unmarked
handles are only checked against the backing store as a whole, so reads
past a slot's end into a neighbouring slot succeed, freed slots remain
readable, and stored handles are raw bytes: spatial protection is
slot-granular and temporal safety and handle integrity are deliberately
absent.  The null handle (order 0, which no allocation has) traps
spatial on load, store and free: its stray window is empty, so no
`handle_add` can move it into a slot.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from .segmem import MAX_MEMORY, Handle, MemTrap, TrapKind, give, take

MIN_ORDER = 4  # smallest slot is 16 bytes
_ADDR_MASK = (1 << 48) - 1
_MARK_BIT = 1 << 63
_PACKED = struct.Struct("<Q")

# _new(BaggyHandle, (addr, order, marked)) skips NamedTuple's Python-level
# __new__, as interp does for Value.
_new = tuple.__new__


def _marked_base(addr: int, size: int) -> int:
    """The owning slot's base for a marked position.

    Marked positions sit within half a slot of one end; which end is
    encoded by the position's residue: the below-slot stray window is
    [base - size/2, base) and the above-slot window is
    [base + size, base + 3*size/2), so residues >= size/2 mean below.
    """
    aligned = addr & -size
    return aligned + size if addr & (size - 1) >= size >> 1 else aligned - size


class BaggyHandle(NamedTuple):
    addr: int
    order: int
    marked: bool


NULL_BAGGY = BaggyHandle(0, 0, False)


class BuddyMemory:
    """The `baggy` backend: one growable byte store of power-of-two slots.

    A slot of 2**k bytes goes at the lowest free base that is a multiple
    of 2**k (`segmem.take`), the alignment all slot arithmetic needs;
    when none fits, the store doubles and its upper half is given to the
    free list.  `free_ranges` and the live slots in `allocated` (slot
    base -> order) partition [0, len(data)).
    """

    NULL = NULL_BAGGY

    def __init__(self, size: int = 1 << 16, cap: int = MAX_MEMORY):
        size = max(16, 1 << (size - 1).bit_length())
        self.cap = cap
        self.data = bytearray(size)
        self.free_ranges: list[tuple[int, int]] = [(0, size)]
        self.allocated: dict[int, int] = {}  # slot base -> order

    def alloc(self, n: int) -> BaggyHandle:
        if n < 0:
            raise MemTrap(TrapKind.OOM, f"negative size {n}")
        order = max(MIN_ORDER, (n - 1).bit_length())  # least 2**order >= n
        size = 1 << order
        if size > self.cap:
            raise MemTrap(TrapKind.OOM, f"{n} bytes above cap")
        base = take(self.free_ranges, size, size)
        while base is None:
            old = len(self.data)
            if old * 2 > self.cap:
                raise MemTrap(TrapKind.OOM, "backing store at cap")
            self.data.extend(bytes(old))
            give(self.free_ranges, old, old)
            base = take(self.free_ranges, size, size)
        self.allocated[base] = order
        self.data[base:base + size] = bytes(size)
        return _new(BaggyHandle, (base, order, False))

    def free(self, h: BaggyHandle) -> None:
        base, order, marked = h
        if marked:
            raise MemTrap(TrapKind.INTEGRITY, "free via marked handle")
        if order < MIN_ORDER:
            raise MemTrap(TrapKind.SPATIAL, "free via null handle")
        if base & ((1 << order) - 1):
            raise MemTrap(TrapKind.SPATIAL, "free not at slot start")
        if self.allocated.get(base) != order:
            raise MemTrap(TrapKind.TEMPORAL, "slot not allocated")
        del self.allocated[base]
        give(self.free_ranges, base, 1 << order)

    # -- handle-modifying checks ---------------------------------------

    def handle_add(self, h: BaggyHandle, delta: int) -> BaggyHandle:
        addr, order, marked = h
        size = 1 << order
        base = _marked_base(addr, size) if marked else addr & -size
        addr += delta
        if base <= addr < base + size:
            return _new(BaggyHandle, (addr & _ADDR_MASK, order, False))
        half = size >> 1
        if base - half <= addr < base + size + half:
            return _new(BaggyHandle, (addr & _ADDR_MASK, order, True))
        raise MemTrap(TrapKind.SPATIAL, "strayed too far from slot")

    def slice_handle(self, h: BaggyHandle, o1: int, o2: int) -> BaggyHandle:
        # Slot metadata cannot be narrowed; only the position moves.
        return self.handle_add(h, o1)

    # -- access: no slot check at all ----------------------------------

    def check_use(self, h: BaggyHandle, size: int) -> int:
        """The address of a `size`-byte access through h, which must be
        unmarked, not null and inside the store."""
        addr, order, marked = h
        if marked:
            raise MemTrap(TrapKind.SPATIAL, "access via marked handle")
        if order < MIN_ORDER:
            raise MemTrap(TrapKind.SPATIAL, "access via null handle")
        if addr + size > len(self.data):
            raise MemTrap(TrapKind.SPATIAL, "outside backing store")
        return addr

    def load(self, h: BaggyHandle, layout: struct.Struct):
        """The number with this layout at h."""
        return layout.unpack_from(self.data, self.check_use(h, layout.size))[0]

    def store(self, h: BaggyHandle, layout: struct.Struct, v) -> None:
        layout.pack_into(self.data, self.check_use(h, layout.size), v)

    def load_handle(self, h: BaggyHandle) -> BaggyHandle:
        return load_baggy(self.data, self.check_use(h, 8))

    def store_handle(self, h: BaggyHandle, v: BaggyHandle) -> None:
        store_baggy(self.data, self.check_use(h, 8), v)

    def view(self, h: BaggyHandle) -> Handle:
        """Present a slot-relative view for trace events; the slot base
        doubles as the id since this backend has no allocation ids."""
        addr, order, marked = h
        size = 1 << order
        base = _marked_base(addr, size) if marked else addr & -size
        return _new(Handle, (base, addr - base, size, not marked, base & 0x7FFFFFFF))


def load_baggy(data, at: int) -> BaggyHandle:
    """Decode the packed handle at `at`."""
    packed = _PACKED.unpack_from(data, at)[0]
    return _new(BaggyHandle, (packed & _ADDR_MASK, (packed >> 48) & 0x3F,
                              packed >= _MARK_BIT))


def store_baggy(data, at: int, h: BaggyHandle) -> None:
    """Write h's packed form at `at`."""
    addr, order, marked = h
    _PACKED.pack_into(data, at, addr | order << 48 | (_MARK_BIT if marked else 0))


def pack_baggy(h: BaggyHandle) -> bytes:
    raw = bytearray(8)
    store_baggy(raw, 0, h)
    return bytes(raw)


def unpack_baggy(raw: bytes) -> BaggyHandle:
    return load_baggy(raw, 0)
