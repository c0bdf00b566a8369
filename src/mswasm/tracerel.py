"""Builds the abstract-event image of an execution trace.

The relation keeps one record per segment id: the segment's base, size,
colour and shades (one element's pattern, as `monitor.AAlloc` takes it),
and whether it is live.  An allocation event binds its id to a fresh
colour; reads and writes then expand to one abstract event per byte.  A
handle, sliced or not, resolves through its id: it must be based inside
its segment (at the base itself for an empty segment), its bytes sit at
`h.base + h.offset`, and they take the colour of the segment and the
shade of the byte at `h.base`.  Abstract addresses are the segment
addresses themselves: colours already disambiguate reuse, so the identity
embedding is the simplest witness.  The source relation
(`minic.src_relate`) resolves pointers through the same records.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bytecode import SIZEOF
from .interp import ReadEv, SAllocEv, SFreeEv, TrapEv, WriteEv
from .monitor import AAlloc, AFree, ARead, AWrite, SAFE, Safe, Violation, check_trace

_new = tuple.__new__
_WIDTH = {t._value_: n for t, n in SIZEOF.items()}


def constant_shading(index: int, handle, size: int) -> tuple[int, ...]:
    """Every location the same shade: enough for flat segment memory.  A
    shading gives one element's pattern, empty iff `size` is 0."""
    return (0,) if size else ()


@dataclass(frozen=True)
class Unrelatable:
    index: int      # offending event's position in the concrete trace
    reason: str


class BijectionDelta:
    """Segment id -> (base, size, colour, shades), one record per segment,
    plus the ids whose segment is live.  Colours are fresh per allocation,
    so the image is injective.

    An id names one segment at a time.  A freed segment's record stays, so
    a stale handle still relates to the freed colour, until the id is
    allocated again: the baggy backend has no ids and names a segment by
    its slot base, which a later allocation reuses.
    """

    def __init__(self):
        self.segments: dict[int, tuple[int, int, int, tuple[int, ...]]] = {}
        self.live: set[int] = set()
        self.next_color = 0

    def bind_segment(self, seg_id: int, base: int, size: int,
                     shades: tuple[int, ...]) -> int:
        """Bind seg_id to a new live segment with a fresh colour, and
        return the colour."""
        color = self.next_color
        self.next_color += 1
        self.segments[seg_id] = (base, size, color, shades)
        self.live.add(seg_id)
        return color

    def resolve(self, seg_id: int, base: int) -> tuple[int, int] | None:
        """(colour, shade) of a handle or pointer based at `base` in
        segment seg_id, or None if it is not based inside that segment."""
        seg = self.segments.get(seg_id)
        if seg is None:
            return None
        seg_base, size, color, shades = seg
        j = base - seg_base
        if 0 <= j < size or j == size == 0:  # an empty segment: its base only
            return color, shades[j % len(shades)] if size else 0
        return None


def relate_trace(trace, shading=constant_shading):
    """Returns (abs_events, sources, delta) or Unrelatable.

    abs_events[i] came from trace[sources[i]]; a read or write of a
    multi-byte value contributes several abstract events with the same
    source index.
    """
    delta = BijectionDelta()
    abs_events: list = []
    sources: list[int] = []
    for i, ev in enumerate(trace):
        cls = type(ev)
        if cls is TrapEv:
            continue  # relates to the empty trace
        h = ev.handle
        if cls is SAllocEv:
            if h.id in delta.live:
                return Unrelatable(i, f"base {h.base} id {h.id} overlaps a live segment")
            shades = tuple(shading(i, h, h.bound))
            color = delta.bind_segment(h.id, h.base, h.bound, shades)
            abs_events.append(AAlloc(h.bound, h.base, color, shades))
            sources.append(i)
            continue
        image = delta.resolve(h.id, h.base)
        if image is None:
            return Unrelatable(i, f"no image for base {h.base} id {h.id}")
        color, shade = image
        if cls is ReadEv or cls is WriteEv:
            addr = h.base + h.offset
            width = _WIDTH[ev.ty._value_]
            acls = ARead if cls is ReadEv else AWrite
            abs_events.extend([_new(acls, (a, color, shade))
                               for a in range(addr, addr + width)])
            sources.extend([i] * width)
        elif cls is SFreeEv:
            delta.live.discard(h.id)
            abs_events.append(AFree(h.base, color))
            sources.append(i)
        else:
            raise TypeError(f"not a trace event: {ev!r}")
    return abs_events, sources, delta


@dataclass(frozen=True)
class TraceViolation:
    violation: Violation
    trace_index: int  # index of the concrete event it came from


def check_ms(trace, shading=constant_shading):
    """Safety of the related abstract trace: SAFE, TraceViolation, or
    Unrelatable."""
    related = relate_trace(trace, shading)
    if isinstance(related, Unrelatable):
        return related
    abs_events, sources, _ = related
    verdict = check_trace(abs_events)
    if isinstance(verdict, Safe):
        return SAFE
    return TraceViolation(verdict, sources[verdict.index])
