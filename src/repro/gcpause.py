"""Pause the cyclic garbage collector over allocation-heavy phases.

Compiling and the search each build a heap that lives until the phase
ends (the IR; the states and their constraints), and almost none of it is
cyclic garbage.  With the collector on, every generation-2 collection
during the phase scans all of it and frees next to nothing.  :func:`gc_paused` turns the
collector off for the phase; reference counting still frees everything
that is not part of a cycle.

Pauses are process-wide and counted across threads: the first to enter
disables the collector (only if it was enabled), the last to leave
re-enables it (only if a pause disabled it, so a caller who turned it off
keeps it off).  A pause that ends while another is still open runs a
young-generation collection, so overlapping service workers or portfolio
threads cannot keep young cyclic garbage alive indefinitely.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["collector_stats", "gc_paused"]

_lock = threading.Lock()
_depth = 0  # open pauses in this process, across threads
_owned = False  # whether the first open pause disabled the collector


def _reset_in_child() -> None:
    # Only the forking thread lives on in the child, and nothing forks from
    # inside a paused phase (the pool forks after its paused seed search),
    # so no pause is open in the child: drop the parent's other threads' ones.
    global _lock, _depth, _owned
    _lock = threading.Lock()
    if _depth and _owned:
        gc.enable()
    _depth, _owned = 0, False


os.register_at_fork(after_in_child=_reset_in_child)


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run the body with the cyclic collector off (usable as a decorator)."""
    global _depth, _owned
    with _lock:
        if _depth == 0:
            _owned = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            others_open = _depth > 0
            if not others_open and _owned:
                gc.enable()
        if others_open:
            gc.collect(1)


def collector_stats() -> list[dict[str, int]]:
    """The interpreter's per-generation collector counters."""
    return gc.get_stats()
