import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mswasm.segmem import (
    HANDLE_TAGS,
    MAX_ID,
    Handle,
    MemTrap,
    SegmentMemory,
    TrapKind,
    give,
    pack_handle,
    take,
    unpack_handle,
)

U8, I32, I64 = struct.Struct("<B"), struct.Struct("<i"), struct.Struct("<q")


def test_first_alloc_from_empty():
    mem = SegmentMemory(64)
    h = mem.alloc(8)
    assert h == Handle(0, 0, 8, True, 0)


def test_zero_length_alloc_traps_on_use():
    mem = SegmentMemory(64)
    h = mem.alloc(0)
    assert h.bound == 0 and h.valid
    with pytest.raises(MemTrap) as e:
        mem.load(h, U8)
    assert e.value.kind is TrapKind.SPATIAL


def test_free_then_realloc_same_base_new_id():
    mem = SegmentMemory(64)
    h1 = mem.alloc(8)
    h2 = mem.alloc(8)
    mem.free(h1)
    h3 = mem.alloc(8)
    assert h3.base == h1.base
    assert h3.id not in (h1.id, h2.id)


def test_alloc_bases_are_16_aligned():
    mem = SegmentMemory(256)
    bases = [mem.alloc(5).base for _ in range(4)]
    assert all(b % 16 == 0 for b in bases)
    assert bases == sorted(bases)


def test_free_restores_whole_memory():
    mem = SegmentMemory(64)
    h = mem.alloc(8)
    mem.free(h)
    assert mem.free_ranges == [(0, 64)]
    assert mem.allocated == {}


def test_double_free_traps():
    mem = SegmentMemory(64)
    h = mem.alloc(8)
    mem.free(h)
    with pytest.raises(MemTrap) as e:
        mem.free(h)
    assert e.value.kind is TrapKind.TEMPORAL


def test_free_of_corrupted_handle_traps():
    mem = SegmentMemory(64)
    h = mem.alloc(8)
    bad = Handle(h.base, h.offset, h.bound, False, h.id)
    with pytest.raises(MemTrap) as e:
        mem.free(bad)
    assert e.value.kind is TrapKind.INTEGRITY


def test_fresh_segment_reads_zero_data_bytes():
    mem = SegmentMemory(64)
    h = mem.alloc(8)
    assert mem.load(h, I32) == 0
    assert mem.data[h.base:h.base + 8] == bytes(8) == mem.tags[h.base:h.base + 8]


def test_out_of_bounds_read_traps_spatial():
    mem = SegmentMemory(64)
    h = mem.alloc(8)
    with pytest.raises(MemTrap) as e:
        mem.load(Handle(h.base, 5, 8, True, h.id), I32)
    assert e.value.kind is TrapKind.SPATIAL


def test_boundary_access_succeeds():
    # offset + size == bound is the last legal access
    mem = SegmentMemory(64)
    h = mem.alloc(8)
    mem.store(Handle(h.base, 4, 8, True, h.id), I32, -7)
    assert mem.load(Handle(h.base, 4, 8, True, h.id), I32) == -7


def test_read_after_free_traps_temporal():
    mem = SegmentMemory(64)
    h = mem.alloc(8)
    mem.free(h)
    with pytest.raises(MemTrap) as e:
        mem.load(h, U8)
    assert e.value.kind is TrapKind.TEMPORAL


def test_freed_bytes_are_zeroed():
    mem = SegmentMemory(64)
    h = mem.alloc(8)
    mem.store(h, I64, 0x0807060504030201)
    mem.free(h)
    h2 = mem.alloc(8)
    assert mem.load(h2, I64) == 0
    assert mem.data[h2.base:h2.base + 8] == bytes(8)


def test_window_escaping_segment_traps():
    # a slice may move the window past the allocation; use must trap
    mem = SegmentMemory(64)
    h = mem.alloc(16)
    sliced = mem.slice_handle(h, 12, 0)  # window [12, 28) of a 16-byte segment
    assert sliced.bound == 16
    with pytest.raises(MemTrap) as e:
        mem.load(sliced, I64)
    assert e.value.kind is TrapKind.SPATIAL


def test_slice_premises():
    mem = SegmentMemory(64)
    h = mem.alloc(64)
    with pytest.raises(MemTrap):
        mem.slice_handle(h, 64, 0)  # base offset must stay below the bound
    with pytest.raises(MemTrap):
        mem.slice_handle(h, -1, 0)
    with pytest.raises(MemTrap):
        mem.slice_handle(h, 0, 65)  # cannot cut more than the whole bound
    s = mem.slice_handle(h, 8, 16)
    assert (s.base, s.offset, s.bound, s.id) == (h.base + 8, 0, 48, h.id)


def test_oom_when_nothing_fits():
    mem = SegmentMemory(32)
    mem.alloc(20)
    with pytest.raises(MemTrap) as e:
        mem.alloc(16)
    assert e.value.kind is TrapKind.OOM


def test_segment_id_exhaustion_is_an_oom_trap():
    mem = SegmentMemory(32)
    mem.next_id = MAX_ID + 1
    with pytest.raises(MemTrap, match="segment id space exhausted") as e:
        mem.alloc(0)
    assert e.value.kind is TrapKind.OOM


# -- handle packing ---------------------------------------------------


def test_pack_layout():
    raw = pack_handle(Handle(0, 0, 8, True, 0))
    assert raw[0:8] == bytes(8)
    assert raw[8:12] == bytes([8, 0, 0, 0])        # bound, little endian
    assert raw[12:16] == bytes([0, 0, 0, 0x80])    # id 0 with valid bit 31


def test_pack_negative_offset():
    raw = pack_handle(Handle(4, -4, 8, False, 3))
    assert raw[4:8] == b"\xfc\xff\xff\xff"
    assert raw[12:16] == bytes([3, 0, 0, 0])


@given(st.integers(0, 2**32 - 1), st.integers(-2**31, 2**31 - 1),
       st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 2**31 - 1))
def test_pack_unpack_roundtrip(base, offset, bound, valid, seg_id):
    h = Handle(base, offset, bound, valid, seg_id)
    assert unpack_handle(pack_handle(h), HANDLE_TAGS) == h


def test_flipped_tag_invalidates():
    h = Handle(0, 0, 8, True, 0)
    for j in range(16):
        tags = bytearray(HANDLE_TAGS)
        tags[j] = 0
        assert unpack_handle(pack_handle(h), tags).valid is False
    assert unpack_handle(pack_handle(h), HANDLE_TAGS).valid is True


def test_all_zero_data_bytes_decode_invalid():
    assert unpack_handle(bytes(16), bytes(16)).valid is False


# -- differential against the naive oracle ----------------------------


def test_backend_matches_naive_oracle():
    from oracles import run_backend_differential
    for seed in range(60):
        run_backend_differential(SegmentMemory(256), random.Random(seed), steps=40)


def assert_coalesced(free):
    """Ranges are non-empty, sorted, disjoint, and no two touch."""
    assert all(length > 0 for _, length in free)
    assert all(s1 + n1 < s2 for (s1, n1), (s2, _) in zip(free, free[1:]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 48), min_size=0, max_size=10))
@example([5, 0])  # a zero-byte alloc at an unaligned free start
def test_alloc_free_restores_partition(sizes):
    """Allocating then freeing everything restores one free range, and the
    free list stays coalesced after every operation."""
    mem = SegmentMemory(1024)
    hs = []
    for n in sizes:
        hs.append(mem.alloc(n))
        assert_coalesced(mem.free_ranges)
    for h in hs:
        mem.free(h)
        assert_coalesced(mem.free_ranges)
    assert mem.free_ranges == ([(0, 1024)] if 1024 else [])
    assert mem.allocated == {}


@pytest.mark.parametrize("align", [16, 1])
def test_take_give_match_the_sort_and_merge_reference(align):
    """take/give hand out the same bases as the sort-and-merge first fit.
    With alignment 16 nothing fitting is out of memory, as in segment
    memory; with alignment 1 the heap grows at its end, as in src_run."""
    from oracles import RefFreeList

    for seed in range(300):
        rng = random.Random(seed)
        size = rng.choice((0, 16, 64, 256))
        free = [(0, size)] if size else []
        ref = RefFreeList(list(free))
        end = size
        live = []
        for _ in range(40):
            if live and rng.random() < 0.4:
                base, n = live.pop(rng.randrange(len(live)))
                give(free, base, n)
                ref.release(base, n)
            else:
                n = rng.choice((0, rng.randrange(1, 8), rng.randrange(1, 80)))
                want = ref.find_fit(n, align)
                if want is not None:
                    ref.carve(want, n)
                got = take(free, n, align)
                assert got == want, (seed, n)
                if got is None and align == 1:
                    got, end = end, end + n
                if got is not None:
                    live.append((got, n))
            assert_coalesced(free)


def test_tag_alloc_soundness_invariant():
    """No valid handle with an unissued id is ever decodable from tagged
    segment bytes."""
    rng = random.Random(7)
    mem = SegmentMemory(256)
    live = [mem.alloc(32), mem.alloc(48)]
    for _ in range(200):
        h = rng.choice(live)
        if rng.random() < 0.5:
            inner = rng.choice(live)
            off = rng.randrange(0, h.bound - 15) // 16 * 16
            try:
                mem.store_handle(Handle(h.base, off, h.bound, True, h.id), inner)
            except MemTrap:
                pass
        else:
            off = rng.randrange(0, h.bound)
            try:
                mem.store(Handle(h.base, off, h.bound, True, h.id), U8,
                          rng.randrange(256))
            except MemTrap:
                pass
        for base in range(0, len(mem.data) - 15, 16):  # bytes past data are unwritten
            decoded = unpack_handle(mem.data, mem.tags, base)
            if decoded.valid:
                assert decoded.id < mem.next_id
