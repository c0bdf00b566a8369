from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from mswasm.monitor import (
    AAlloc,
    AFree,
    ARead,
    AWrite,
    SAFE,
    Safe,
    ShadowMemory,
    Violation,
    abs_event_from_json,
    abs_event_to_json,
    check_trace,
    monitor_access,
    monitor_step,
    parse_abs_trace,
)

from oracles import BruteMonitor, brute_check_trace


def alloc(n, a, c, shades=None):
    return AAlloc(n, a, c, tuple(shades) if shades else (0,) * n)


def test_in_bounds_read_ok():
    t = [alloc(4, 0, 0), ARead(2, 0, 0)]
    assert check_trace(t) is SAFE


def test_read_after_free_is_temporal():
    t = [alloc(4, 0, 0), AFree(0, 0), ARead(0, 0, 0)]
    v = check_trace(t)
    assert v == Violation("temporal-freed", 2, 2)


def test_shade_mismatch():
    t = [alloc(8, 0, 0, [0, 0, 0, 0, 1, 1, 1, 1]), ARead(5, 0, 0)]
    assert check_trace(t) == Violation("shade", 1, 1)


def test_alloc_overlap():
    t = [alloc(4, 0, 0), alloc(4, 2, 1)]
    assert check_trace(t) == Violation("alloc-overlap", 1, 1)


def test_double_free():
    t = [alloc(4, 0, 0), AFree(0, 0), AFree(0, 0)]
    assert check_trace(t) == Violation("double-free", 2, 2)


def test_color_reuse_rejected():
    t = [alloc(1, 0, 0), alloc(1, 4, 0)]
    assert check_trace(t) == Violation("color-reuse", 1, 1)


def test_unmapped_read():
    assert check_trace([ARead(0, 0, 0)]) == Violation("temporal-unmapped", 0, 0)


def test_wrong_color_read():
    t = [alloc(4, 0, 0), ARead(1, 9, 0)]
    assert check_trace(t) == Violation("spatial-color", 1, 1)


def test_free_reallocate_same_cells():
    t = [alloc(4, 0, 0), AFree(0, 0), alloc(4, 0, 1), AWrite(0, 1, 0)]
    assert check_trace(t) is SAFE


def test_empty_trace_safe():
    assert check_trace([]) is SAFE


def test_free_sweeps_by_color_equals_range_sweep():
    """Freeing frees all cells of the color; since colors are unique per
    allocation this matches freeing exactly the allocated range."""
    t = [alloc(4, 0, 0), alloc(4, 8, 1), AFree(0, 0)]
    shadow = ShadowMemory()
    for ev in t:
        assert monitor_step(shadow, ev) is None
    for a in range(4):
        assert monitor_step(shadow, ARead(a, 0, 0)) == "temporal-freed"
    for a in range(8, 12):
        assert monitor_step(shadow, ARead(a, 1, 0)) is None
        assert monitor_step(shadow, AWrite(a, 1, 0)) is None


# -- properties --------------------------------------------------------

_EVENTS = st.one_of(
    st.builds(lambda a, c, s: ARead(a, c, s),
              st.integers(0, 7), st.integers(0, 2), st.integers(0, 1)),
    st.builds(lambda a, c, s: AWrite(a, c, s),
              st.integers(0, 7), st.integers(0, 2), st.integers(0, 1)),
    st.builds(lambda n, a, c, s: AAlloc(n, a, c, tuple([s] * n)),
              st.integers(0, 3), st.integers(0, 7), st.integers(0, 2),
              st.integers(0, 1)),
    st.builds(lambda a, c: AFree(a, c), st.integers(0, 7), st.integers(0, 2)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_EVENTS, max_size=8))
def test_matches_interval_oracle(trace):
    assert check_trace(trace) == brute_check_trace(trace)


@settings(max_examples=200, deadline=None)
@given(st.lists(_EVENTS, max_size=8))
def test_prefix_closure(trace):
    if check_trace(trace) is SAFE:
        for k in range(len(trace)):
            assert check_trace(trace[:k]) is SAFE


@settings(max_examples=200, deadline=None)
@given(st.lists(_EVENTS, max_size=8), st.permutations(list(range(3))))
def test_color_renaming_invariance(trace, perm):
    def rename(ev):
        if isinstance(ev, AAlloc):
            return AAlloc(ev.size, ev.addr, perm[ev.color], ev.shades)
        if isinstance(ev, AFree):
            return AFree(ev.addr, perm[ev.color])
        return type(ev)(ev.addr, perm[ev.color], ev.shade)

    v1 = check_trace(trace)
    v2 = check_trace([rename(e) for e in trace])
    if v1 is SAFE:
        assert v2 is SAFE
    else:
        assert isinstance(v2, Violation)
        assert v2.index == v1.index and v2.kind == v1.kind


@settings(max_examples=100, deadline=None)
@given(st.lists(_EVENTS, max_size=6))
def test_json_roundtrip(trace):
    text = "\n".join(abs_event_to_json(e) for e in trace)
    assert parse_abs_trace(text) == trace


def test_json_forms():
    ev = abs_event_from_json('{"ev":"alloc","n":2,"a":0,"c":0,"phi":[0,1]}')
    assert ev == AAlloc(2, 0, 0, (0, 1))
    assert abs_event_from_json('{"ev":"read","a":5,"c":0,"s":1}') == ARead(5, 0, 1)


def test_shades_are_one_elements_pattern():
    """Offset j of an allocation has shades[j % len(shades)], so a
    two-field element repeated twice is (0, 1), and its JSON form spells
    out one shade per location, which reads back to the same verdicts."""
    pattern = AAlloc(4, 8, 0, (0, 1))
    reads = [ARead(8 + j, 0, j % 2) for j in range(4)]
    assert check_trace([pattern] + reads) is SAFE
    assert check_trace([pattern, ARead(9, 0, 0)]) == Violation("shade", 1, 1)
    line = abs_event_to_json(pattern)
    assert line == '{"ev":"alloc","n":4,"a":8,"c":0,"phi":[0,1,0,1]}'
    assert abs_event_to_json(abs_event_from_json(line)) == line
    assert check_trace([abs_event_from_json(line)] + reads) is SAFE


@pytest.mark.parametrize("ev", [AAlloc(4, 0, 0, (0, 0, 0)), AAlloc(0, 0, 0, (0,)),
                                AAlloc(2, 0, 0, ()), AAlloc(-2, 0, 0, (0,))])
def test_alloc_whose_shades_are_no_pattern_for_its_size_is_rejected(ev):
    with pytest.raises(TypeError, match="not an abstract event"):
        monitor_step(ShadowMemory(), ev)


@pytest.mark.parametrize("judge", [lambda ev: monitor_step(ShadowMemory(), ev), abs_event_to_json],
                         ids=["monitor_step", "abs_event_to_json"])
def test_what_is_no_abstract_event_is_a_type_error(judge):
    with pytest.raises(TypeError, match="not an abstract event"):
        judge((0, 0, 0))


def test_events_compare_by_type_and_hash():
    assert ARead(1, 0, 0) != AWrite(1, 0, 0)
    assert not ARead(1, 0, 0) == AWrite(1, 0, 0)
    assert ARead(1, 0, 0) == ARead(1, 0, 0)
    assert ARead(1, 0, 0) != (1, 0, 0) and (1, 0, 0) != ARead(1, 0, 0)
    events = {ARead(1, 0, 0), AWrite(1, 0, 0), AFree(1, 0), alloc(1, 1, 0),
              ARead(1, 0, 0), alloc(1, 1, 0)}
    assert len(events) == 4
    assert hash(alloc(2, 0, 3, [0, 1])) == hash(AAlloc(2, 0, 3, (0, 1)))


# -- one call per access ------------------------------------------------


@st.composite
def _shadow_and_access(draw):
    """A random alloc/free history, then one target block with a pattern of
    1, 2, 4 or 16 shades or one per byte, and an access of 1, 4, 8 or 16
    bytes: inside the target, across its start or its end, past it, in it
    after its free, or far from every block.  The history's events may be
    rejected, which leaves both monitors as they were."""
    history = []
    for color in range(draw(st.integers(0, 4))):
        size = draw(st.integers(0, 3)) * 4
        history.append(AAlloc(size, draw(st.integers(0, 48)), draw(st.integers(0, color)),
                              tuple(draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))
                                    if size else ())))
        if draw(st.booleans()):
            history.append(AFree(history[-1].addr, draw(st.integers(0, color))))
    plen = draw(st.sampled_from([1, 2, 4, 16, None]))  # None: one shade per byte
    size = draw(st.integers(1, 40)) if plen is None else plen * draw(st.integers(1, 3))
    shades = tuple(draw(st.lists(st.integers(0, 1), min_size=plen or size,
                                 max_size=plen or size)))
    target = AAlloc(size, 64 + draw(st.integers(0, 8)), 5, shades)
    history.append(target)
    width = draw(st.sampled_from([1, 4, 8, 16]))
    where = draw(st.sampled_from(["inside", "start", "end", "past", "freed", "unmapped"]))
    j = {"inside": lambda: draw(st.integers(0, max(size - width, 0))),
         "start": lambda: -draw(st.integers(1, width)),
         "end": lambda: size - draw(st.integers(1, min(width, size))),
         "past": lambda: size + draw(st.integers(0, 8)),
         "freed": lambda: draw(st.integers(0, size - 1)),
         "unmapped": lambda: 200 + draw(st.integers(0, 8))}[where]()
    if where == "freed":
        history.append(AFree(target.addr, 5))
    color = draw(st.sampled_from([5, 5, 5, 0, 9]))
    shade = shades[j % len(shades)] if draw(st.booleans()) else draw(st.integers(0, 1))
    return history, draw(st.sampled_from([ARead, AWrite])), target.addr + j, width, color, shade


@settings(max_examples=400, deadline=None)
@given(_shadow_and_access())
def test_an_access_is_judged_as_its_bytes_are(case):
    """monitor_access gives the verdict and first rejected byte of folding
    monitor_step over the access's byte events, agrees with the interval
    oracle, and leaves the shadow as it was."""
    import copy

    history, cls, addr, width, color, shade = case
    shadow, brute = ShadowMemory(), BruteMonitor()
    for ev in history:
        assert monitor_step(shadow, ev) == brute.step_kind(ev)
    before = copy.deepcopy(shadow)
    got = monitor_access(shadow, cls, addr, width, color, shade)
    assert shadow == before
    byte_events = [cls(addr + k, color, shade) for k in range(width)]
    for judge in (lambda ev: monitor_step(shadow, ev), brute.step_kind):
        kinds = [judge(ev) for ev in byte_events]
        assert got == next(((kind, k) for k, kind in enumerate(kinds) if kind), None)


# -- long traces against the oracle ------------------------------------


def _long_valid_trace(rng, length):
    """Consumable events only: allocations at random free places of a
    small address space (so later ones overlap freed ones), frees, and
    reads and writes of live cells.  Returns the trace and, per prefix,
    (live blocks, freed blocks, next color) to build a bad event from."""
    live, freed, trace, states = {}, [], [], []
    used = {}  # addr -> color of the live block covering it
    color = 0
    while len(trace) < length:
        if len(states) == len(trace):  # the state before trace[len(trace)]
            states.append((dict(live), list(freed), color))
        r = rng.random()
        if r < 0.3 or not live:
            n = rng.randrange(0, 9)
            a = rng.randrange(0, 96)
            if any(a + j in used for j in range(n)):
                continue
            shades = tuple(rng.randrange(2) for _ in range(n))
            trace.append(AAlloc(n, a, color, shades))
            live[color] = (a, shades)
            for j in range(n):
                used[a + j] = color
            color += 1
        elif r < 0.5:
            c = rng.choice(sorted(live))
            a, shades = live.pop(c)
            for j in range(len(shades)):
                del used[a + j]
            freed.append((c, a, shades))
            trace.append(AFree(a, c))
        else:
            c = rng.choice(sorted(live))
            a, shades = live[c]
            if not shades:
                continue
            j = rng.randrange(len(shades))
            cls = ARead if rng.random() < 0.5 else AWrite
            trace.append(cls(a + j, c, shades[j]))
    return trace, states


def _bad_event(rng, state):
    """An event likely to be rejected: double free, stale read, wrong
    color or shade, overlapping or color-reusing allocation, unmatched
    free, or an unmapped read."""
    live, freed, color = state
    pick = rng.randrange(8)
    if pick == 0 and freed:
        c, a, _ = rng.choice(freed)
        return AFree(a, c)
    if pick == 1 and freed:
        c, a, shades = rng.choice(freed)
        return ARead(a + rng.randrange(max(len(shades), 1)), c, 0)
    if pick == 2 and live:
        c, (a, shades) = rng.choice(sorted(live.items()))
        return AWrite(a, c + 1, shades[0] if shades else 0)
    if pick == 3 and live:
        c, (a, shades) = rng.choice(sorted(live.items()))
        return ARead(a, c, 1 - shades[0] if shades else 0)
    if pick == 4 and live:
        c, (a, shades) = rng.choice(sorted(live.items()))
        return AAlloc(4, a, color, (0,) * 4)
    if pick == 5 and color:
        return AAlloc(1, 200, rng.randrange(color), (0,))
    if pick == 6:
        return AFree(rng.randrange(0, 96), rng.randrange(color + 1))
    return ARead(rng.randrange(0, 128), rng.randrange(color + 1), 0)


def test_long_traces_match_oracle():
    """Seeded traces of 300-2,000 events, far past the exhaustive depth:
    the whole valid trace, and its prefixes cut at random points and
    ended by a bad event, are judged as the oracle judges them."""
    import random
    kinds = set()
    for seed in range(12):
        rng = random.Random(seed)
        trace, states = _long_valid_trace(rng, rng.randrange(300, 2001))
        assert any(isinstance(e, AFree) for e in trace)
        assert check_trace(trace) == brute_check_trace(trace) == SAFE
        for _ in range(6):
            k = rng.randrange(len(trace) // 2, len(trace))
            cut = trace[:k] + [_bad_event(rng, states[k])]
            verdict = check_trace(cut)
            assert verdict == brute_check_trace(cut), (seed, k, cut[-1])
            if verdict != SAFE:
                kinds.add(verdict.kind)
    assert kinds == {"double-free", "temporal-freed", "spatial-color", "shade",
                     "alloc-overlap", "color-reuse", "free-unmatched",
                     "temporal-unmapped"}
