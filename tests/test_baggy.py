import random

import pytest

from mswasm.baggy import BuddyMemory, pack_baggy, unpack_baggy
from mswasm.segmem import MemTrap


def test_alloc_rounds_to_power_of_two():
    mem = BuddyMemory(256)
    h = mem.alloc(24)
    assert 1 << h.order == 32 and h.order == 5


def test_alloc_exact_power_of_two():
    mem = BuddyMemory(256)
    assert mem.alloc(16).order == 4


def test_alloc_zero_gets_minimum_slot():
    mem = BuddyMemory(256)
    assert 1 << mem.alloc(0).order == 16


def test_within_slot_add_is_unmarked():
    mem = BuddyMemory(256)
    h = mem.alloc(32)
    h2 = mem.handle_add(h, 8)
    assert not h2.marked and h2.addr == h.addr + 8


def test_stray_below_marks_and_returns():
    mem = BuddyMemory(256)
    h = mem.alloc(32)
    out = mem.handle_add(h, -16)  # exactly half a slot below
    assert out.marked
    back = mem.handle_add(out, 16)
    assert not back.marked and back.addr == h.addr


def test_stray_far_traps():
    mem = BuddyMemory(256)
    h = mem.alloc(32)
    with pytest.raises(MemTrap):
        mem.handle_add(h, 64)  # two slots past the base


def test_one_past_end_is_marked_not_trapped():
    mem = BuddyMemory(256)
    h = mem.alloc(32)
    out = mem.handle_add(h, 32)
    assert out.marked
    assert mem.handle_add(out, -1).marked is False


def test_marked_handle_traps_on_use():
    mem = BuddyMemory(256)
    h = mem.handle_add(mem.alloc(32), 32)
    assert h.marked
    with pytest.raises(MemTrap):
        mem.check_use(h, 4)


def test_read_into_neighbour_slot_succeeds():
    """Accesses are only checked against the backing store: reading past
    a slot's end lands in the neighbour without trapping."""
    mem = BuddyMemory(256)
    a = mem.alloc(16)
    b = mem.alloc(16)
    at = mem.check_use(b, 16)
    mem.data[at:at + 16] = bytes([7] * 16)
    inside = mem.handle_add(a, 8)
    at = mem.check_use(inside, 16)
    got = bytes(mem.data[at:at + 16])  # 8 bytes of a, 8 bytes of b
    assert got[8:] == bytes([7] * 8)


def test_no_temporal_safety():
    mem = BuddyMemory(256)
    h = mem.alloc(16)
    at = mem.check_use(h, 16)
    mem.data[at:at + 16] = bytes(16)
    mem.free(h)
    at = mem.check_use(h, 4)  # stale access succeeds by design
    assert bytes(mem.data[at:at + 4]) == bytes(4)


def test_double_free_traps():
    mem = BuddyMemory(256)
    h = mem.alloc(16)
    mem.free(h)
    with pytest.raises(MemTrap):
        mem.free(h)


def test_free_of_marked_handle_traps():
    mem = BuddyMemory(256)
    h = mem.handle_add(mem.alloc(32), 32)
    with pytest.raises(MemTrap):
        mem.free(h)


def test_slice_keeps_slot_metadata():
    mem = BuddyMemory(256)
    h = mem.alloc(32)
    s = mem.slice_handle(h, 8, 4)
    assert s.order == h.order and s.addr == h.addr + 8
    assert mem.slice_handle(h, 0, 0) == h


def test_slice_beyond_slack_traps():
    mem = BuddyMemory(256)
    h = mem.alloc(32)
    with pytest.raises(MemTrap):
        mem.slice_handle(h, 96, 0)


def _assert_slots_and_free_ranges_tile_the_store(mem):
    """Every live slot's base is a multiple of its size, and the live
    slots and the free ranges cover the store exactly, with no overlap."""
    pieces = [(base, 1 << order) for base, order in mem.allocated.items()]
    for base, size in pieces:
        assert base % size == 0, (base, size)
    pieces += mem.free_ranges
    at = 0
    for base, size in sorted(pieces):
        assert base == at and size > 0, (base, size, sorted(pieces))
        at += size
    assert at == len(mem.data)


def test_freeing_every_slot_leaves_one_free_range():
    mem = BuddyMemory(64)
    hs = [mem.alloc(n) for n in (16, 16, 32, 100, 16, 64)]  # grows the store
    assert len(mem.data) > 64
    for i in (1, 4, 0, 5, 3, 2):
        mem.free(hs[i])
        _assert_slots_and_free_ranges_tile_the_store(mem)
    assert mem.allocated == {}
    assert mem.free_ranges == [(0, len(mem.data))]


def test_live_slots_are_aligned_and_tile_the_store_with_the_free_ranges():
    rng = random.Random(5)
    mem = BuddyMemory(64, cap=1 << 14)
    live = []
    for _ in range(300):
        if live and rng.random() < 0.45:
            mem.free(live.pop(rng.randrange(len(live))))
        else:
            live.append(mem.alloc(rng.choice((0, 1, 16, 17, 40, 64, 100, 300))))
        _assert_slots_and_free_ranges_tile_the_store(mem)


def test_a_slot_goes_at_the_lowest_free_base_aligned_to_its_size():
    """Placement is first fit over the free list, not a buddy system's
    smallest free block: after freeing the 32-byte slot at 0 and the
    16-byte slot at 48, a 16-byte slot goes at 0 (a buddy allocator
    splits nothing and takes 48), and a 32-byte slot then finds no
    aligned room and doubles the store (a buddy allocator takes 0)."""
    mem = BuddyMemory(64)
    first, _, third = mem.alloc(32), mem.alloc(16), mem.alloc(16)
    assert (first.addr, third.addr) == (0, 48)
    mem.free(first)
    mem.free(third)
    assert mem.alloc(16).addr == 0
    assert len(mem.data) == 64
    assert mem.alloc(32).addr == 64
    assert len(mem.data) == 128
    _assert_slots_and_free_ranges_tile_the_store(mem)


def test_backing_store_grows_on_demand():
    mem = BuddyMemory(64, cap=1 << 12)
    hs = [mem.alloc(64) for _ in range(8)]
    assert len(mem.data) >= 512
    with pytest.raises(MemTrap):
        mem.alloc(1 << 13)


def test_growth_stops_at_the_cap_with_an_oom_trap():
    mem = BuddyMemory(64, cap=128)
    mem.alloc(64)
    mem.alloc(64)  # doubles the store to the cap
    with pytest.raises(MemTrap, match="^oom: backing store at cap$"):
        mem.alloc(16)
    with pytest.raises(MemTrap, match="^oom: 129 bytes above cap$"):
        mem.alloc(129)
    assert len(mem.data) == 128


def test_packed_roundtrip():
    mem = BuddyMemory(256)
    h = mem.handle_add(mem.alloc(32), 32)
    assert unpack_baggy(pack_baggy(h)) == h


def test_strictly_weaker_than_tagged():
    """Anything the tagged backend allows, this backend allows too (on
    compiled programs the divergence is only ever extra permissiveness)."""
    from mswasm.conformance import fuzz_source
    from mswasm.compiler import compile_module
    from mswasm.minic import parse_source, src_typecheck
    from mswasm.interp import run

    for seed in range(15):
        tm = src_typecheck(parse_source(fuzz_source(seed, violations=False)))
        m = compile_module(tm)
        tagged = run(m, backend="tagged")
        baggy = run(m, backend="baggy")
        if tagged.outcome == "ok":
            assert baggy.outcome == "ok", seed
