"""Language-independent memory-safety monitor over abstract event traces.

State is a colored shadow memory: a partial map from addresses to cells
that are allocated or freed, each carrying the color (provenance) of the
allocation that created them and a shade naming the sub-region within it.
The monitor consumes events one at a time and reports the first one that
cannot be consumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

ALLOCATED = "A"
FREED = "F"


@dataclass(frozen=True)
class ShadowCell:
    state: str  # ALLOCATED | FREED
    color: int
    shade: int


@dataclass(frozen=True)
class ARead:
    addr: int
    color: int
    shade: int


@dataclass(frozen=True)
class AWrite:
    addr: int
    color: int
    shade: int


@dataclass(frozen=True)
class AAlloc:
    size: int
    addr: int
    color: int
    shades: tuple[int, ...]  # one per byte/cell of the region


@dataclass(frozen=True)
class AFree:
    addr: int
    color: int


@dataclass(frozen=True)
class Violation:
    kind: str   # spatial-color | shade | temporal-freed | temporal-unmapped
                # | alloc-overlap | double-free | color-reuse | free-unmatched
    index: int
    detail: str = ""


@dataclass
class ShadowMemory:
    cells: dict[int, ShadowCell]
    issued: set[int]

    @classmethod
    def empty(cls) -> "ShadowMemory":
        return cls({}, set())


def monitor_step(shadow: ShadowMemory, history: list, ev) -> str | None:
    """Consume one event, mutating shadow.  Returns a violation kind, or
    None on success.  History is the list of previously consumed events
    (needed to validate frees)."""
    if isinstance(ev, (ARead, AWrite)):
        cell = shadow.cells.get(ev.addr)
        if cell is None:
            return "temporal-unmapped"
        if cell.state == FREED:
            return "temporal-freed"
        if cell.color != ev.color:
            return "spatial-color"
        if cell.shade != ev.shade:
            return "shade"
        return None

    if isinstance(ev, AAlloc):
        if ev.color in shadow.issued:
            return "color-reuse"
        for j in range(ev.size):
            cell = shadow.cells.get(ev.addr + j)
            if cell is not None and cell.state == ALLOCATED:
                return "alloc-overlap"
        shadow.issued.add(ev.color)
        for j in range(ev.size):
            shadow.cells[ev.addr + j] = ShadowCell(ALLOCATED, ev.color, ev.shades[j])
        return None

    if isinstance(ev, AFree):
        matched = False
        for past in history:
            if isinstance(past, AAlloc) and past.addr == ev.addr and past.color == ev.color:
                matched = True
            elif matched and isinstance(past, AFree) \
                    and past.addr == ev.addr and past.color == ev.color:
                return "double-free"
        if not matched:
            return "free-unmatched"
        # Flip everything of this color; colors are allocation-unique, so
        # this sweeps exactly the allocated range.
        for a, cell in list(shadow.cells.items()):
            if cell.color == ev.color and cell.state == ALLOCATED:
                shadow.cells[a] = ShadowCell(FREED, cell.color, cell.shade)
        return None

    raise TypeError(f"not an abstract event: {ev!r}")


@dataclass(frozen=True)
class Safe:
    pass


SAFE = Safe()


def check_trace(events: list):
    """Fold the monitor over a trace from the empty shadow memory.
    Returns SAFE or the first Violation."""
    shadow = ShadowMemory.empty()
    history: list = []
    for i, ev in enumerate(events):
        kind = monitor_step(shadow, history, ev)
        if kind is not None:
            return Violation(kind, i)
        history.append(ev)
    return SAFE


# -- JSON-lines form ---------------------------------------------------


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
    obj = json.loads(line)
    tag = obj["ev"]
    if tag == "read":
        return ARead(obj["a"], obj["c"], obj["s"])
    if tag == "write":
        return AWrite(obj["a"], obj["c"], obj["s"])
    if tag == "alloc":
        return AAlloc(obj["n"], obj["a"], obj["c"], tuple(obj["phi"]))
    if tag == "free":
        return AFree(obj["a"], obj["c"])
    raise ValueError(f"unknown abstract event {tag!r}")


def parse_abs_trace(text: str) -> list:
    return [abs_event_from_json(line) for line in text.splitlines() if line.strip()]
