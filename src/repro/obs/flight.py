"""Search flight recorder: one compact record per search decision.

PR 8's tracer answers *where the time went* (spans over phases and search
quanta); it cannot answer *why the search did what it did* -- why a state
was picked ahead of its siblings, which layer killed a path (weakest-
precondition refutation, the step limit, a solver-refuted branch, the
distance-INF abandonment in the searcher), or what each pick cost in
instructions and solver queries.  The :class:`FlightRecorder` captures
exactly that: the exploration loop appends one compact record per state
transition -- pick (queue, combined proximity score, current function,
instruction/solver-query deltas for the batch), enqueue (parent/child
lineage), drop (path abandonment), and termination (goal / bug / exited /
infeasible, with the killing layer when the executor named one) -- into a
bounded in-memory buffer.

Design rules, shared with :mod:`repro.obs.trace`:

* **Zero overhead when off.**  The search reaches the recorder only
  through a :class:`~repro.obs.observer.SearchObserver`, whose gate the
  engine hoists; the disabled loop pays one boolean test per pick.
* **Observation only.**  The recorder never adds constraints, never
  consumes RNG draws, and never mutates states, so a recorded synthesis
  produces byte-identical artifacts to an unrecorded one (pinned by
  tests and ``benchmarks/bench_obs.py``).
* **Bounded.**  At most ``max_records`` records are kept; overflow
  increments ``dropped`` while the aggregate counters (picks, ends by
  reason, kills by layer) stay exact, so :mod:`repro.obs.explain` can
  still attribute the search even from a truncated log.

The export is a versioned ``esd-searchlog-v1`` document, content-addressed
in the :class:`~repro.store.ArtifactStore` (kind ``"searchlog"``) next to
the job's trace, and consumed by ``repro explain``.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Mapping, Optional

from ..schema import SchemaVersionError, check_schema_version

__all__ = [
    "FLIGHT_FORMAT",
    "FLIGHT_SCHEMA_VERSION",
    "DEFAULT_MAX_RECORDS",
    "KILL_SUBSYSTEM",
    "FlightRecorder",
    "check_flight_document",
    "load_flight",
]

FLIGHT_FORMAT = "esd-searchlog-v1"
FLIGHT_SCHEMA_VERSION = 1

# Generous for the pinned workloads (hundreds to low-thousands of picks)
# while bounding a runaway search to tens of MB of small dicts.
DEFAULT_MAX_RECORDS = 200_000

# Killing layer -> subsystem that paid for (or saved) the work.  The keys
# are the ``state.meta['killed']`` tags the executor writes plus the
# searcher-side abandonment reason; ``explain`` folds unlabelled
# infeasible ends into ``solver`` (a feasibility probe refuted the path).
KILL_SUBSYSTEM: dict[str, str] = {
    "wp-dead": "wp",
    "step-limit": "budget",
    "no-runnable-thread": "schedule",
    "distance-inf": "distance",
    "path-constraint": "solver",
}


class FlightRecorder:
    """Bounded append-only log of search decisions, written through a
    :class:`~repro.obs.observer.SearchObserver`.  All methods are no-ops
    when ``enabled`` is False."""

    __slots__ = (
        "enabled", "max_records", "dropped", "high_water", "reason",
        "picks", "adds", "drops", "ends", "kills", "totals",
        "_records", "_lock",
    )

    def __init__(self, enabled: bool = True, *,
                 max_records: int = DEFAULT_MAX_RECORDS) -> None:
        self.enabled = enabled
        self.max_records = max_records
        self.dropped = 0          # records lost to the buffer bound
        self.high_water = 0       # max buffered records ever held
        self.reason = ""          # final search outcome, set by done()
        # Aggregate counters: exact even when the buffer overflows.
        self.picks = 0
        self.adds = 0
        self.drops = 0
        self.ends: dict[str, int] = {}   # termination reason -> count
        self.kills: dict[str, int] = {}  # killing layer -> count
        # Whole-run stats the recorder cannot observe itself; the search
        # owner fills these after the run (engine stats, solver counters).
        self.totals: dict[str, Any] = {}
        self._records: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording (engine/executor facing)

    def _append(self, record: dict[str, Any]) -> None:
        with self._lock:
            if len(self._records) < self.max_records:
                self._records.append(record)
                if len(self._records) > self.high_water:
                    self.high_water = len(self._records)
            else:
                self.dropped += 1

    def pick(self, sid: int, *, queue: int, score: float, strategy: str,
             function: str, instructions: int, solver_queries: int,
             static_answers: int) -> None:
        """One state selection plus what its batch cost.

        Recorded *after* the batch ran so the instruction and solver-query
        deltas are known; ``queue``/``score`` come from the searcher's
        account of why this state won (:meth:`Searcher.pick_info`).
        """
        if not self.enabled:
            return
        self.picks += 1
        record: dict[str, Any] = {
            "k": "pick", "sid": sid, "q": queue, "score": score,
            "fn": function, "in": instructions,
        }
        if strategy:
            record["strategy"] = strategy
        if solver_queries:
            record["sq"] = solver_queries
        if static_answers:
            record["sa"] = static_answers
        self._append(record)

    def add(self, sid: int, parent: int) -> None:
        """A successor state was enqueued (lineage edge parent -> child)."""
        if not self.enabled:
            return
        self.adds += 1
        self._append({"k": "add", "sid": sid, "parent": parent})

    def drop(self, sid: int, parent: int, why: str) -> None:
        """The searcher abandoned a successor instead of enqueueing it."""
        if not self.enabled:
            return
        self.drops += 1
        self.kills[why] = self.kills.get(why, 0) + 1
        self._append({"k": "drop", "sid": sid, "parent": parent, "why": why})

    def end(self, sid: int, parent: int, reason: str, *, why: str = "",
            function: str = "", line: int = 0) -> None:
        """A state terminated: ``reason`` is goal/bug/exited/infeasible/
        duplicate, ``why`` names the killing layer when one labelled the
        state."""
        if not self.enabled:
            return
        self.ends[reason] = self.ends.get(reason, 0) + 1
        if why:
            self.kills[why] = self.kills.get(why, 0) + 1
        record: dict[str, Any] = {
            "k": "end", "sid": sid, "parent": parent, "reason": reason,
        }
        if why:
            record["why"] = why
        if function:
            record["fn"] = function
        if line:
            record["line"] = line
        self._append(record)

    def mark(self, name: str, detail: str = "") -> None:
        """An instantaneous annotation (e.g. the executor's bug marks)."""
        if not self.enabled:
            return
        record: dict[str, Any] = {"k": "mark", "name": name}
        if detail:
            record["detail"] = detail
        self._append(record)

    def done(self, reason: str) -> None:
        """The search returned; ``reason`` is the outcome reason."""
        if not self.enabled:
            return
        self.reason = reason
        self._append({"k": "done", "reason": reason})

    # ------------------------------------------------------------------
    # Reading

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def records(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._records)

    def counts(self) -> dict[str, Any]:
        """Exact aggregate counters (valid even when the buffer dropped
        records); this is the flight summary the daemon streams."""
        with self._lock:
            buffered = len(self._records)
        return {
            "picks": self.picks,
            "adds": self.adds,
            "drops": self.drops,
            "ends": dict(sorted(self.ends.items())),
            "kills": dict(sorted(self.kills.items())),
            "records": buffered,
            "dropped": self.dropped,
            "high_water": self.high_water,
            "reason": self.reason,
        }

    def to_document(self, meta: Optional[Mapping[str, Any]] = None,
                    totals: Optional[Mapping[str, Any]] = None) -> dict[str, Any]:
        """Export as an ``esd-searchlog-v1`` document.

        ``totals`` carries whole-run stats the recorder cannot see itself
        (engine SearchStats, solver query counts, static-prune counters),
        merged over any :attr:`totals` the search owner already filled;
        ``explain`` uses them for subsystem attribution and the explored-
        state denominator.
        """
        merged = dict(self.totals)
        if totals:
            merged.update(totals)
        return {
            "format": FLIGHT_FORMAT,
            "schema_version": FLIGHT_SCHEMA_VERSION,
            "meta": dict(meta) if meta else {},
            "counts": self.counts(),
            "totals": merged,
            "records": self.records(),
        }


def check_flight_document(data: dict[str, Any]) -> dict[str, Any]:
    """Validate the shape of an ``esd-searchlog-v1`` document, return it."""
    if data.get("format") != FLIGHT_FORMAT:
        raise SchemaVersionError(
            f"not a search flight log: format {data.get('format')!r} "
            f"(expected {FLIGHT_FORMAT!r})"
        )
    check_schema_version(data, FLIGHT_SCHEMA_VERSION, "search flight log")
    for key in ("counts", "records"):
        if key not in data:
            raise ValueError(f"search flight log: missing {key!r}")
    if not isinstance(data["records"], list):
        raise ValueError("search flight log: 'records' must be a list")
    for record in data["records"]:
        if not isinstance(record, dict) or "k" not in record:
            raise ValueError(f"search flight log: malformed record {record!r}")
    return data


def load_flight(path: str | Path) -> dict[str, Any]:
    """Read and validate a flight log from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return check_flight_document(json.load(fh))
