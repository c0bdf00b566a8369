"""Language-independent memory-safety monitor over abstract event traces.

The state is a coloured shadow memory in two maps.  `cells` maps each
address ever allocated to the colour (provenance) of the last allocation
that covered it and the shade naming its sub-region within that
allocation.  `blocks` maps each colour issued so far to the base address
of its allocation and whether it is still live.  Colours are never
reused, so a cell is freed exactly when its colour is: a free flips one
flag instead of sweeping the cells, and a read, write, free, double-free
or unmatched-free check is O(1) and an allocation O(size).  The monitor
consumes events one at a time and reports the first one that cannot be
consumed.
"""

from __future__ import annotations

import json
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
    shades: tuple[int, ...]  # one per byte/cell of the region
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


class AFree(NamedTuple):
    addr: int
    color: int
    __eq__, __ne__, __hash__ = same_event, other_event, tuple.__hash__


@dataclass(frozen=True)
class Violation:
    kind: str   # spatial-color | shade | temporal-freed | temporal-unmapped
                # | alloc-overlap | double-free | color-reuse | free-unmatched
    index: int
    detail: str = ""


@dataclass
class ShadowMemory:
    cells: dict[int, tuple[int, int]] = field(default_factory=dict)   # addr -> (color, shade)
    blocks: dict[int, tuple[int, bool]] = field(default_factory=dict)  # color -> (base, live)


def monitor_step(shadow: ShadowMemory, ev) -> str | None:
    """Consume one event, mutating shadow.  Returns a violation kind, or
    None on success."""
    cls, cells, blocks = type(ev), shadow.cells, shadow.blocks
    if cls is ARead or cls is AWrite:
        cell = cells.get(ev.addr)
        if cell is None:
            return "temporal-unmapped"
        color, shade = cell
        if not blocks[color][1]:
            return "temporal-freed"
        if color != ev.color:
            return "spatial-color"
        if shade != ev.shade:
            return "shade"
        return None

    if cls is AAlloc:
        addr, color, shades = ev.addr, ev.color, ev.shades
        if color in blocks:
            return "color-reuse"
        for a in range(addr, addr + ev.size):
            cell = cells.get(a)
            if cell is not None and blocks[cell[0]][1]:
                return "alloc-overlap"
        blocks[color] = (addr, True)
        for j in range(ev.size):
            cells[addr + j] = (color, shades[j])
        return None

    if cls is AFree:
        block = blocks.get(ev.color)
        if block is None or block[0] != ev.addr:
            return "free-unmatched"
        if not block[1]:
            return "double-free"
        blocks[ev.color] = (ev.addr, False)
        return None

    raise TypeError(f"not an abstract event: {ev!r}")


@dataclass(frozen=True)
class Safe:
    pass


SAFE = Safe()


def check_trace(events: list):
    """Fold the monitor over a trace from the empty shadow memory.
    Returns SAFE or the first Violation."""
    shadow = ShadowMemory()
    for i, ev in enumerate(events):
        kind = monitor_step(shadow, ev)
        if kind is not None:
            return Violation(kind, i)
    return SAFE


# -- JSON-lines form ---------------------------------------------------


class AbsTraceError(ValueError):
    """A line of an abstract trace that is not an abstract event."""


_JSON_FIELDS = {"read": ("a", "c", "s"), "write": ("a", "c", "s"),
                "alloc": ("n", "a", "c"), "free": ("a", "c")}


def abs_event_to_json(ev) -> str:
    if isinstance(ev, ARead):
        obj = {"ev": "read", "a": ev.addr, "c": ev.color, "s": ev.shade}
    elif isinstance(ev, AWrite):
        obj = {"ev": "write", "a": ev.addr, "c": ev.color, "s": ev.shade}
    elif isinstance(ev, AAlloc):
        obj = {"ev": "alloc", "n": ev.size, "a": ev.addr, "c": ev.color,
               "phi": list(ev.shades)}
    elif isinstance(ev, AFree):
        obj = {"ev": "free", "a": ev.addr, "c": ev.color}
    else:
        raise TypeError(f"not an abstract event: {ev!r}")
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
    if tag == "read":
        return ARead(*values)
    if tag == "write":
        return AWrite(*values)
    if tag == "free":
        return AFree(*values)
    phi = obj.get("phi")
    if values[0] < 0 or not isinstance(phi, list) or len(phi) != values[0] \
            or not all(type(s) is int for s in phi):
        raise AbsTraceError("alloc needs n >= 0 and n integer shades in phi")
    return AAlloc(*values, tuple(phi))


def parse_abs_trace(text: str) -> list:
    return [abs_event_from_json(line) for line in text.splitlines() if line.strip()]
