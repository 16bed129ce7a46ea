"""Pure helpers of the benchmark: span self time, the per-layer ledger,
percentiles, metric names and counter deltas.

Nothing here imports ``repro``: the orchestrator (``run.py``) and the tests
use these helpers without the program on the path.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from typing import Iterable, Mapping, NamedTuple, Optional

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_name(name: str) -> str:
    """A metric or workload name: a letter or digit, then at most 63 of
    ``[A-Za-z0-9_.-]``."""
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


# -- spans ---------------------------------------------------------------------


class Span(NamedTuple):
    """One timed call into a layer's public entry point."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]  # the enclosing span on the same thread
    job: Optional[int]     # index of the operation the span belongs to
    worker: bool           # recorded off the client thread (a service worker)


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    A span's children are the spans it called on its own thread.  A
    worker-thread span with no caller is also a child of every client span
    with no caller of the same operation, clipped to their overlap: the
    client blocks in ``submit``/``wait`` while the worker runs the job.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    client_roots: dict[int, list[Span]] = defaultdict(list)
    worker_roots: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
        elif span.job is not None:
            (worker_roots if span.worker else client_roots)[span.job].append(span)
    for job, roots in client_roots.items():
        for root in roots:
            children[root.id].extend(worker_roots.get(job, ()))
    out = {}
    for span in spans:
        inner = covered(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
        )
        out[span.id] = (span.end - span.start) - inner
    return out


def layer_seconds(spans: Iterable[Span],
                  layer_of: Mapping[str, str]) -> dict[str, float]:
    """Self seconds per layer; span names missing from ``layer_of`` are
    their own layer."""
    spans = list(spans)
    own = self_times(spans)
    ledger: dict[str, float] = {}
    for span in spans:
        layer = layer_of.get(span.name, span.name)
        ledger[layer] = ledger.get(layer, 0.0) + own[span.id]
    return ledger


def inclusive_seconds(spans: Iterable[Span], name: str) -> float:
    """Total duration of the outermost spans called ``name``."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}

    def nested(span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == name:
                return True
            parent = by_id[parent].parent
        return False

    return sum(s.end - s.start for s in spans
               if s.name == name and not nested(s))


# -- percentiles ---------------------------------------------------------------

def _rank(n: int, p: float) -> int:
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``."""
    return n - _rank(n, p)


def reportable(n: int, p: float) -> bool:
    """A percentile of ``n`` samples is reported only with at least ten
    samples beyond it."""
    return samples_beyond(n, p) >= 10


# -- counters ------------------------------------------------------------------

# Benchmark counter -> the ``esd-metrics-v1`` counters it sums.  The
# ``esd_exec_*`` and ``esd_search_*`` counters are charged inside search
# phases only; the solver and static ones cover the whole operation.
COUNTERS: dict[str, tuple[str, ...]] = {
    "symbex.instructions": ("esd_search_instructions_total",),
    "search.states_explored": ("esd_search_states_explored_total",),
    "search.states_pruned": ("esd_search_states_pruned_total",),
    "symbex.forks": ("esd_exec_forks_total",),
    "symbex.states_created": ("esd_exec_states_created_total",),
    "concurrency.sched_forks": ("esd_exec_sched_forks_total",),
    "solver.queries": ("esd_solver_queries_total",),
    "solver.search_nodes": ("esd_solver_search_nodes_total",),
    "solver.fastpath_hits": ("esd_solver_fastpath_hits_total",),
    "solver.cache_lookups": ("esd_solver_cache_lookups_total",),
    "solver.cache_hits": (
        "esd_solver_cache_exact_hits_total",
        "esd_solver_cache_unsat_superset_hits_total",
        "esd_solver_cache_sat_subset_hits_total",
        "esd_solver_cache_unknown_hits_total",
    ),
    "analysis.distance_builds": ("esd_static_distance_builds_total",),
    "analysis.goal_computes": ("esd_static_goal_computes_total",),
    "analysis.cache_hits": ("esd_static_cache_hits_total",),
}


def bench_counters(delta: Mapping[str, float]) -> dict[str, int]:
    """Fold a ``counters_delta`` result into the benchmark's counters."""
    return {name: int(sum(delta.get(source, 0) for source in sources))
            for name, sources in COUNTERS.items()}


def add_counters(total: dict[str, int], more: Mapping[str, int]) -> dict[str, int]:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value
    return total


def counter_mismatches(a: Mapping[str, int], b: Mapping[str, int]) -> list[str]:
    """Names of the counters that differ between two readings."""
    return sorted(name for name in set(a) | set(b)
                  if a.get(name, 0) != b.get(name, 0))
