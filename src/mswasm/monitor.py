"""Language-independent memory-safety monitor over abstract event traces.

The state is one record per allocation.  `blocks` maps each colour
(provenance) issued so far, in allocation order, to the base, size,
shades and liveness of its allocation, and `ranges` holds the sorted
(base, end) ranges of the live non-empty blocks, which never overlap.
Shades are one element's pattern: offset j has shades[j % len(shades)].
Colours are never reused, so an access whose own live block covers it is
one lookup, and any other is a violation that one newest-first scan of
the blocks names.  An allocation or a free is one bisect into `ranges`,
so no event costs in proportion to a region's size.  The monitor consumes
events one at a time and reports the first one that cannot be consumed:
the relaters (`tracerel.relate`, `minic.src_relate`) call `monitor_step`
on each abstract event as they make it, so a verdict keeps no abstract
trace, and `check_trace` folds it over a list of events.  A read or write
is one abstract event per byte, and indices count them; `monitor_access`
judges a whole access in one call, with the kind and byte `monitor_step`
would give, so `tracerel.check_ms` judges each compiled access once.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple


# Events are tuples built cheaply, but two events are equal only when they
# also have the same type, as dataclasses are: ARead(1, 0, 0) != AWrite(1, 0, 0).
# The trace events of `interp` and `minic` take the same equality:
#     __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__
def same_event(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def other_event(self, other) -> bool:
    return not same_event(self, other)


class ARead(NamedTuple):
    addr: int
    color: int
    shade: int
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


class AWrite(NamedTuple):
    addr: int
    color: int
    shade: int
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


class AAlloc(NamedTuple):
    size: int
    addr: int
    color: int
    shades: tuple[int, ...]  # one element's pattern: byte/cell j has shades[j % len]
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


class AFree(NamedTuple):
    addr: int
    color: int
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


@dataclass(frozen=True)
class Violation:  # the unsafe verdict of check_trace, tracerel.check_ms and minic.src_ms
    kind: str   # spatial-color | shade | temporal-freed | temporal-unmapped | alloc-overlap
                # | double-free | color-reuse | free-unmatched, or a minic.src_relate reason
    index: int  # the rejected abstract event's position
    at: int     # the position of the judged trace's event that it came from


@dataclass
class ShadowMemory:
    blocks: dict[int, tuple] = field(default_factory=dict)  # color -> (base, size, shades, live)
    ranges: list[tuple[int, int]] = field(default_factory=list)  # live (base, end), sorted


def monitor_step(shadow: ShadowMemory, ev) -> str | None:
    """Consume one event, mutating shadow.  Returns a violation kind, or
    None on success."""
    cls, blocks = type(ev), shadow.blocks
    if cls is ARead or cls is AWrite:
        block = blocks.get(ev.color)
        if block is not None:
            base, size, shades, live = block
            j = ev.addr - base
            if live and 0 <= j < size:
                return None if shades[j % len(shades)] == ev.shade else "shade"
        for base, size, _, live in reversed(blocks.values()):  # the newest covering block
            if base <= ev.addr < base + size:
                return "spatial-color" if live else "temporal-freed"
        return "temporal-unmapped"

    if cls is AAlloc:
        size, addr, color, shades = ev
        if not (shades and size > 0 and size % len(shades) == 0 or size == 0 and not shades):
            raise TypeError(f"not an abstract event: {ev!r} (shades is no pattern for size)")
        if color in blocks:
            return "color-reuse"
        if size:
            ranges, end = shadow.ranges, addr + size
            i = bisect_left(ranges, (addr,))
            if (i and ranges[i - 1][1] > addr) or (i < len(ranges) and ranges[i][0] < end):
                return "alloc-overlap"
            ranges.insert(i, (addr, end))
        blocks[color] = (addr, size, shades, True)
        return None

    if cls is AFree:
        block = blocks.get(ev.color)
        if block is None or block[0] != ev.addr:
            return "free-unmatched"
        if not block[3]:
            return "double-free"
        blocks[ev.color] = block[:3] + (False,)
        if block[1]:
            del shadow.ranges[bisect_left(shadow.ranges, (ev.addr,))]
        return None

    raise TypeError(f"not an abstract event: {ev!r}")


def monitor_access(shadow: ShadowMemory, cls, addr: int, width: int, color: int, shade: int):
    """(kind, k) for the first of the `width` bytes from addr, read (cls
    ARead) or written (AWrite) at one colour and shade, that `monitor_step`
    rejects, or None.  Reads and writes leave the shadow as it is, so an
    access inside its colour's live block whose shades agree is one lookup."""
    block = shadow.blocks.get(color)
    if block is not None:
        base, size, shades, live = block
        j, n = addr - base, len(shades)
        if live and 0 <= j and j + width <= size and (
                shades[0] == shade if n == 1
                else all(shades[(j + k) % n] == shade for k in range(width))):
            return None
    for k in range(width):
        kind = monitor_step(shadow, tuple.__new__(cls, (addr + k, color, shade)))
        if kind is not None:
            return kind, k


@dataclass(frozen=True)
class Safe:
    pass


SAFE = Safe()


def check_trace(events: list):
    """Fold the monitor over a trace from the empty shadow memory.
    Returns SAFE, or Violation(kind, i, i) for the first event i rejected."""
    shadow = ShadowMemory()
    for i, ev in enumerate(events):
        kind = monitor_step(shadow, ev)
        if kind is not None:
            return Violation(kind, i, i)
    return SAFE


# -- JSON-lines form ---------------------------------------------------


class AbsTraceError(ValueError):
    """A line of an abstract trace that is not an abstract event."""


_JSON_EVENTS = {"read": ARead, "write": AWrite, "alloc": AAlloc, "free": AFree}
_JSON_TAGS = {cls: tag for tag, cls in _JSON_EVENTS.items()}
_JSON_FIELDS = {"read": ("a", "c", "s"), "write": ("a", "c", "s"),
                "alloc": ("n", "a", "c"), "free": ("a", "c")}


def abs_event_to_json(ev) -> str:
    tag = _JSON_TAGS.get(type(ev))
    if tag is None:
        raise TypeError(f"not an abstract event: {ev!r}")
    obj = {"ev": tag, **dict(zip(_JSON_FIELDS[tag], ev))}
    if tag == "alloc":  # the pattern repeated to one shade per location
        obj["phi"] = list(ev.shades) * (ev.size // max(len(ev.shades), 1))
    return json.dumps(obj, separators=(",", ":"))


def abs_event_from_json(line: str):
    """The event on one JSON line; AbsTraceError if the line is not one."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as e:
        raise AbsTraceError(f"not JSON: {line[:40]!r}") from e
    tag = obj.get("ev") if isinstance(obj, dict) else None
    if not isinstance(tag, str) or tag not in _JSON_FIELDS:
        raise AbsTraceError(f"unknown abstract event {tag!r}")
    values = [obj.get(k) for k in _JSON_FIELDS[tag]]
    if not all(type(v) is int for v in values):  # bool is not int here
        raise AbsTraceError(f"{tag} needs integer fields {_JSON_FIELDS[tag]}")
    if tag != "alloc":
        return _JSON_EVENTS[tag](*values)
    phi = obj.get("phi")
    if values[0] < 0 or not isinstance(phi, list) or len(phi) != values[0] \
            or not all(type(s) is int for s in phi):
        raise AbsTraceError("alloc needs n >= 0 and n integer shades in phi")
    return AAlloc(*values, tuple(phi))


def parse_abs_trace(text: str) -> list:
    return [abs_event_from_json(line) for line in text.splitlines() if line.strip()]
