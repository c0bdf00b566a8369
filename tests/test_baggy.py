import pytest

from mswasm.baggy import BuddyMemory, pack_baggy, unpack_baggy
from mswasm.segmem import MemTrap


def test_alloc_rounds_to_power_of_two():
    mem = BuddyMemory(256)
    h = mem.alloc(24)
    assert h.slot_size == 32 and h.order == 5


def test_alloc_exact_power_of_two():
    mem = BuddyMemory(256)
    assert mem.alloc(16).order == 4


def test_alloc_zero_gets_minimum_slot():
    mem = BuddyMemory(256)
    assert mem.alloc(0).slot_size == 16


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


def test_buddy_coalescing():
    mem = BuddyMemory(64)
    a = mem.alloc(16)
    b = mem.alloc(16)
    c = mem.alloc(32)
    mem.free(a)
    mem.free(b)
    mem.free(c)
    top = mem.size.bit_length() - 1
    assert mem.free_lists.get(top) == [0]
    assert all(not lst for k, lst in mem.free_lists.items() if k != top)


def test_free_lists_disjoint_and_aligned():
    mem = BuddyMemory(256)
    hs = [mem.alloc(n) for n in (16, 48, 16, 100)]
    mem.free(hs[1])
    mem.free(hs[3])
    seen = []
    for order, bases in mem.free_lists.items():
        for b in bases:
            assert b % (1 << order) == 0
            seen.append((b, 1 << order))
    for i, (b1, s1) in enumerate(seen):
        for b2, s2 in seen[i + 1:]:
            assert b1 + s1 <= b2 or b2 + s2 <= b1


def test_backing_store_grows_on_demand():
    mem = BuddyMemory(64, cap=1 << 12)
    hs = [mem.alloc(64) for _ in range(8)]
    assert mem.size >= 512
    with pytest.raises(MemTrap):
        mem.alloc(1 << 13)


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
