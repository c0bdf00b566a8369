"""Relates an execution trace to abstract events and judges it in one pass.

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

`relate` hands each allocation and free to a `step` callback and each
read or write, whole, to an `access` callback, and stops at the first
event in trace order that has no image or whose image a callback rejects,
at an index that counts the image's events.  `check_ms` binds them to the
monitor, so a verdict keeps no abstract trace and judges each access
once; `relate_trace` collects the image as a list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .bytecode import SIZEOF
from .interp import ReadEv, SAllocEv, SFreeEv, TrapEv, WriteEv
from .monitor import (
    AAlloc, AFree, ARead, AWrite, SAFE, ShadowMemory, Violation, monitor_access, monitor_step)

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


def relate(trace, step, access, delta: BijectionDelta, shading=constant_shading):
    """Pass trace's abstract image to the callbacks, extending delta: each
    allocation or free to step, which returns None or a violation kind, and
    each read or write to access(cls, addr, width, colour, shade), which
    returns None or (kind, k) for its k-th byte, as `monitor_access` does.
    Returns SAFE, Unrelatable, or Violation(kind, n, i) when the n-th
    abstract event, made from trace[i], is rejected."""
    n = 0  # abstract events made so far
    for i, ev in enumerate(trace):
        cls = type(ev)
        if cls is TrapEv:
            continue  # relates to the empty trace
        if cls is not SAllocEv and cls is not ReadEv and cls is not WriteEv and cls is not SFreeEv:
            raise TypeError(f"not a trace event: {ev!r}")
        h = ev.handle
        if cls is SAllocEv:
            if h.id in delta.live:
                return Unrelatable(i, f"base {h.base} id {h.id} overlaps a live segment")
            shades = tuple(shading(i, h, h.bound))
            color = delta.bind_segment(h.id, h.base, h.bound, shades)
            kind = step(_new(AAlloc, (h.bound, h.base, color, shades)))
        else:
            image = delta.resolve(h.id, h.base)
            if image is None:
                return Unrelatable(i, f"no image for base {h.base} id {h.id}")
            color, shade = image
            if cls is ReadEv or cls is WriteEv:
                width = _WIDTH[ev.ty._value_]
                bad = access(ARead if cls is ReadEv else AWrite, h.base + h.offset,
                             width, color, shade)
                if bad is not None:
                    return Violation(bad[0], n + bad[1], i)
                n += width
                continue
            delta.live.discard(h.id)
            kind = step(_new(AFree, (h.base, color)))
        if kind is not None:
            return Violation(kind, n, i)
        n += 1
    return SAFE


def relate_trace(trace, shading=constant_shading):
    """(abs_events, delta): the whole abstract image as a list and the
    bijection that made it; or Unrelatable."""
    abs_events: list = []
    append = abs_events.append

    def expand(cls, addr, width, color, shade):
        for a in range(addr, addr + width):
            append(_new(cls, (a, color, shade)))

    delta = BijectionDelta()
    out = relate(trace, append, expand, delta, shading)
    return out if isinstance(out, Unrelatable) else (abs_events, delta)


def check_ms(trace, shading=constant_shading):
    """Safety of the related abstract trace: SAFE, a monitor Violation, or
    Unrelatable, whichever the first offending event gives."""
    shadow = ShadowMemory()
    return relate(trace, partial(monitor_step, shadow), partial(monitor_access, shadow),
                  BijectionDelta(), shading)
