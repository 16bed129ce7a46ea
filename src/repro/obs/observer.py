"""One observer per search: progress events, trace quanta, flight records.

The exploration loop reports each decision once, through the calls the
flight recorder logs (``start``, ``pick``, ``add``/``drop``, ``end``,
``done``).  :class:`SearchObserver` derives the other views from those
calls: ``search.quantum`` spans and :class:`SynthesisEvent` progress
events, from which the job service builds job events and SSE frames.  It
also owns the phase/job spans around a search and the executor's bug
marks, so a search stack threads one telemetry argument instead of three.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .flight import FlightRecorder
from .trace import _NULL_CONTEXT, Span, Tracer

# Picks per 'progress' event and per ``search.quantum`` span.
PROGRESS_INTERVAL = 4096


@dataclass(slots=True)
class SynthesisEvent:
    """A structured progress event from a search.

    ``kind`` is one of ``'start'``, ``'progress'`` (every
    :data:`PROGRESS_INTERVAL` picks), ``'bug'`` (a non-goal bug state was
    recorded), ``'checkpoint'`` (``detail`` holds the path) and ``'done'``
    (``reason`` holds the outcome reason).  ``worker`` and ``shard``
    attribute it to one worker of a parallel run (``-1`` otherwise).
    """

    kind: str
    picks: int = 0
    instructions: int = 0
    states: int = 0
    pending: int = 0
    seconds: float = 0.0
    reason: str = ""
    detail: str = ""
    worker: int = -1
    shard: int = -1


EventCallback = Callable[[SynthesisEvent], None]


class SearchObserver:
    """Composes an optional tracer, flight recorder and event callback (a
    disabled tracer or recorder counts as absent).  Build one per search
    call: it holds the running search's quantum span."""

    __slots__ = ("tracer", "flight", "on_event", "every", "_bracketed",
                 "_searcher", "_stats", "_started", "_quantum", "_picks")

    def __init__(self, *, tracer: Optional[Tracer] = None,
                 flight: Optional[FlightRecorder] = None,
                 on_event: Optional[EventCallback] = None) -> None:
        self.tracer = tracer if tracer is not None and tracer.enabled else None
        self.flight = flight if flight is not None and flight.enabled else None
        self.on_event = on_event
        # The engine's hoisted per-pick gate: report every pick while
        # tracing or recording, every PROGRESS_INTERVAL-th while only
        # events are watched, none when nothing observes.
        self.every = (1 if self.tracer is not None or self.flight is not None
                      else PROGRESS_INTERVAL if on_event is not None else 0)
        self._bracketed = True
        self._searcher: Any = None
        self._stats: Any = None
        self._started = 0.0
        self._quantum: Optional[Span] = None
        self._picks = 0

    def nested(self) -> "SearchObserver":
        """The view for a search nested in a larger run (the pool's seed
        search): quanta, 'progress' and 'bug' pass on; 'start'/'done' and
        flight records are the enclosing run's."""
        view = SearchObserver(tracer=self.tracer, on_event=self.on_event)
        view._bracketed = False
        return view

    def phase(self, name: str, kind: str = "phase",
              attrs: Optional[dict[str, Any]] = None):
        """``with observer.phase(...) as span``: a phase or job span (None,
        and a shared no-op, when not tracing)."""
        if self.tracer is None:
            return _NULL_CONTEXT
        return self.tracer.span(name, kind, attrs)

    def emit(self, kind: str, **fields: Any) -> None:
        if self.on_event is not None:
            self.on_event(SynthesisEvent(kind, **fields))

    def bug(self, kind: str, line: int, tid: int) -> None:
        """The executor found a bug: an instant mark in trace and log."""
        if self.tracer is not None:
            self.tracer.mark(f"bug:{kind}", "bug", {"line": line, "tid": tid})
        if self.flight is not None:
            self.flight.mark(f"bug:{kind}", f"line={line} tid={tid}")

    def record_totals(self, outcome: Any, setup: Any) -> None:
        """Stamp a finished search's whole-run stats into the flight log
        (``repro explain``'s attribution denominator and subsystem spend)."""
        if self.flight is None:
            return
        solver_stats = setup.executor.solver.stats
        prune = setup.executor.prune_stats
        self.flight.totals.update({
            "states_explored": outcome.stats.states_explored,
            "picks": outcome.stats.picks,
            "instructions": outcome.stats.instructions,
            "search_seconds": round(outcome.stats.seconds, 6),
            "static_seconds": round(setup.static_seconds, 6),
            "states_pruned": int(getattr(setup.searcher, "pruned", 0) or 0),
            "solver_queries": solver_stats.queries,
            "static_answers": solver_stats.static_answers,
            "wp_checks": prune.checks,
            "wp_branch_prunes": prune.branch_prunes,
            "wp_probes_avoided": prune.probes_avoided,
            "wp_state_kills": prune.state_kills,
            "states_merged": setup.executor.stats.states_merged,
        })

    # -- engine-facing: one call per search decision -------------------------

    def start(self, searcher: Any, stats: Any) -> None:
        """A search over ``searcher`` begins; ``stats`` are its live
        :class:`~repro.search.SearchStats`."""
        self._searcher = searcher
        self._stats = stats
        self._started = time.monotonic()
        if self._bracketed:
            self._progress("start")

    def pick(self, state: Any, instructions: int, function: str,
             solver_queries: int, static_answers: int) -> None:
        """A picked state ran a batch.  Called before the batch is charged
        to the search's counters: a 'progress' event counts the work done
        before this pick."""
        if self.flight is not None:
            queue, score, strategy = self._searcher.pick_info()
            self.flight.pick(
                state.sid, queue=queue, score=score, strategy=strategy,
                function=function, instructions=instructions,
                solver_queries=solver_queries, static_answers=static_answers,
            )
        if self.tracer is not None:
            if self._quantum is None:
                self._quantum = self.tracer.begin("search.quantum",
                                                  "search-quantum")
                self._picks = 0
            self._picks += 1
            if self._picks >= PROGRESS_INTERVAL:
                self._close_quantum()
        if self._stats.picks % PROGRESS_INTERVAL == 0:
            self._progress("progress")

    def add(self, state: Any) -> None:
        if self.flight is not None:
            self.flight.add(state.sid, state.parent_sid)

    def drop(self, state: Any, why: str) -> None:
        if self.flight is not None:
            self.flight.drop(state.sid, state.parent_sid, why)

    def end(self, state: Any, reason: str) -> None:
        """A state terminated: goal, bug, exited, infeasible, or duplicate
        (the schedule policy had already reached an identical state)."""
        if self.flight is not None:
            why = ""
            line = 0
            if reason == "infeasible":
                # The executor tags the layer that killed the state (wp-dead,
                # step-limit, no-runnable-thread); untagged infeasibility
                # means a feasibility probe refuted the path constraints.
                why = str(state.meta.get("killed", "") or "path-constraint")
            elif reason == "bug" and state.bug is not None:
                why = f"bug:{state.bug.kind.value}"
                line = state.bug.line
            self.flight.end(state.sid, state.parent_sid, reason, why=why,
                            line=line)
        if reason == "bug" and self.on_event is not None:
            self._progress("bug", detail=state.bug.summary() if state.bug else "")

    def done(self, goal_state: Any, reason: str) -> None:
        if self._quantum is not None:
            self._close_quantum()
        if self.flight is not None:
            if goal_state is not None:
                self.end(goal_state, "goal")
            self.flight.done(reason)
        if self._bracketed:
            self._progress("done", reason=reason)
        self._searcher = self._stats = None

    def _close_quantum(self) -> None:
        assert self.tracer is not None
        self.tracer.finish(self._quantum, {"picks": self._picks,
                                           "pending": len(self._searcher)})
        self._quantum = None

    def _progress(self, kind: str, reason: str = "", detail: str = "") -> None:
        if self.on_event is None:
            return
        stats = self._stats
        self.on_event(SynthesisEvent(
            kind, stats.picks, stats.instructions, stats.states_explored,
            len(self._searcher), time.monotonic() - self._started,
            reason, detail,
        ))


# Observes nothing: the phase spans of callers given no observer.
UNOBSERVED = SearchObserver()
