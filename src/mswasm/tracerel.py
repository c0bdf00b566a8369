"""Builds the abstract-event image of an execution trace.

Each allocation event binds its bytes in a bijection from (segment byte
address, segment id) pairs to colored abstract addresses; reads and writes
then expand to one abstract event per byte, all colored and shaded from
the handle's base address.  Abstract addresses are the segment addresses
themselves: colors already disambiguate reuse, so the identity embedding
is the simplest witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bytecode import SIZEOF
from .interp import ReadEv, SAllocEv, SFreeEv, TrapEv, WriteEv
from .monitor import AAlloc, AFree, ARead, AWrite, SAFE, Safe, Violation, check_trace


def constant_shading(index: int, handle, size: int) -> tuple[int, ...]:
    """Every location the same shade: enough for flat segment memory."""
    return (0,) * size


@dataclass(frozen=True)
class Unrelatable:
    index: int      # offending event's position in the concrete trace
    reason: str


@dataclass
class BijectionDelta:
    """(base address, id) <-> (abstract address, color, shade); grows as
    allocations are related and is injective in both directions.

    A key stays bound after its segment is freed, so a stale handle still
    relates to the freed color.  Allocating again at the key rebinds it to
    the new color: the baggy backend has no ids and names a segment by
    its slot base, which a later allocation reuses.
    """

    fwd: dict[tuple[int, int], tuple[int, int, int]] = field(default_factory=dict)
    rev: dict[tuple[int, int, int], tuple[int, int]] = field(default_factory=dict)
    next_color: int = 0
    live: set[int] = field(default_factory=set)  # colors not yet freed

    def bind_segment(self, h, shades) -> int | None:
        """Bind every byte of the new segment h (an empty one: its base) to
        a fresh color, at the same abstract address (the identity
        embedding).  Returns the color, or None if one of the bytes still
        belongs to a live segment."""
        color = self.next_color
        self.next_color += 1
        fwd, rev = self.fwd, self.rev
        for j in range(h.bound or 1):
            key = (h.base + j, h.id)
            if key in fwd:
                old = fwd[key]
                if old[1] in self.live:
                    return None
                del rev[old]
            val = (h.base + j, color, shades[j] if h.bound else 0)
            fwd[key] = val
            rev[val] = key
        self.live.add(color)
        return color


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
        if isinstance(ev, TrapEv):
            continue  # relates to the empty trace
        h = ev.handle
        if isinstance(ev, SAllocEv):
            shades = shading(i, h, h.bound)
            color = delta.bind_segment(h, shades)
            if color is None:
                return Unrelatable(i, f"base {h.base} id {h.id} overlaps a live segment")
            abs_events.append(AAlloc(h.bound, h.base, color, tuple(shades)))
            sources.append(i)
        elif isinstance(ev, (ReadEv, WriteEv)):
            entry = delta.fwd.get((h.base, h.id))
            if entry is None:
                return Unrelatable(i, f"no image for base {h.base} id {h.id}")
            base_addr, color, shade = entry
            addr = base_addr + h.offset
            width = SIZEOF[ev.ty]
            cls = ARead if isinstance(ev, ReadEv) else AWrite
            for j in range(width):
                abs_events.append(cls(addr + j, color, shade))
                sources.append(i)
        elif isinstance(ev, SFreeEv):
            entry = delta.fwd.get((h.base, h.id))
            if entry is None:
                return Unrelatable(i, f"no image for base {h.base} id {h.id}")
            base_addr, color, _ = entry
            delta.live.discard(color)
            abs_events.append(AFree(base_addr, color))
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
