"""The exploration loop: a searcher picks states, the executor steps them.

This mirrors the paper's section 3.3: forked states sit in a (strategy-
specific) container; at every step one state is chosen, one instruction is
executed in it, and any successors are returned to the container.  The
engine is shared by ESD and by the KC baselines -- only the state-selection
strategy differs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..obs.flight import FlightRecorder
from ..obs.trace import Tracer
from ..symbex.executor import Executor
from ..symbex.state import ExecutionState

GoalPredicate = Callable[[ExecutionState], bool]


@dataclass(slots=True)
class SynthesisEvent:
    """A structured progress event emitted by :func:`explore`.

    ``kind`` is one of ``'start'`` (search begins), ``'progress'`` (periodic,
    every ``event_interval`` picks), ``'bug'`` (a non-goal bug state was
    recorded), ``'checkpoint'`` (a frontier checkpoint was written; ``detail``
    holds the path), and ``'done'`` (the search returned; ``reason`` holds the
    outcome reason).

    ``worker`` and ``shard`` attribute the event to one worker process of a
    :class:`~repro.distrib.ParallelExplorer` run; both are ``-1`` for events
    from a serial search (or from the parallel master itself).
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
StopPredicate = Callable[[], bool]


class Searcher:
    """Strategy interface: a mutable container of pending states."""

    # States abandoned instead of enqueued (ESD's path abandonment).  On
    # the base class so the engine can observe the before/after delta of
    # an ``add`` uniformly; strategies without pruning leave it at 0.
    pruned: int = 0

    def add(self, state: ExecutionState) -> None:
        raise NotImplementedError

    def pick(self) -> ExecutionState:
        """Remove and return the next state to execute."""
        raise NotImplementedError

    def pick_info(self) -> tuple[int, float, str]:
        """(queue, score, strategy) describing the most recent :meth:`pick`.

        Flight-recorder attribution: strategies that rank states report
        which virtual queue won and at what priority; the default says
        only which strategy picked.  Only consulted while recording.
        """
        return (-1, 0.0, type(self).__name__)

    def __len__(self) -> int:
        raise NotImplementedError

    def block_hook(self) -> Optional[Callable[[ExecutionState, str, str], None]]:
        """``hook(state, function, block)`` for strategies that track which
        blocks states pass through (ESD's intermediate goals), else None.
        The engine hands it to the executor, which calls it whenever a live
        state's running thread enters a new block."""
        return None

    # -- frontier export (sharded exploration) --------------------------------

    def drain(self) -> list[ExecutionState]:
        """Remove and return every pending state (in pick order)."""
        states = []
        while len(self):
            states.append(self.pick())
        return states

    def export_frontier(self) -> list[tuple[float, ExecutionState]]:
        """Drain the frontier as ``(score, state)`` pairs, best first.

        The score orders states for proximity-band sharding; strategies
        without a numeric priority fall back to pick order.  The searcher is
        empty afterwards -- re-``add`` the states to keep exploring locally.
        """
        return [(float(i), s) for i, s in enumerate(self.drain())]


@dataclass(slots=True)
class SearchBudget:
    max_instructions: int = 2_000_000
    max_states: int = 200_000
    max_seconds: float = 120.0
    # How many instructions a picked state may run before being re-queued
    # (it is returned early when it forks or terminates).  1 reproduces the
    # paper's pick-one-instruction loop exactly; larger batches only change
    # the interleaving of state selection, not which paths exist, and avoid
    # re-sorting the queues after every instruction.
    batch_instructions: int = 64


@dataclass(slots=True)
class SearchStats:
    instructions: int = 0
    picks: int = 0
    states_explored: int = 0
    bugs_seen: int = 0
    paths_completed: int = 0
    paths_infeasible: int = 0
    seconds: float = 0.0


@dataclass(slots=True)
class SearchOutcome:
    """Result of one exploration run."""

    goal_state: Optional[ExecutionState]
    reason: str  # 'goal' | 'exhausted' | 'budget' | 'cancelled'
    stats: SearchStats
    other_bugs: list[ExecutionState] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.goal_state is not None


def explore(
    executor: Executor,
    searcher: Searcher,
    initial: ExecutionState,
    is_goal: GoalPredicate,
    budget: Optional[SearchBudget] = None,
    *,
    on_event: Optional[EventCallback] = None,
    event_interval: int = 4096,
    should_stop: Optional[StopPredicate] = None,
    tracer: Optional[Tracer] = None,
    flight: Optional[FlightRecorder] = None,
) -> SearchOutcome:
    """Run the search until the goal is found or a budget is exhausted.

    ``is_goal`` is evaluated on every successor state (terminated or not).
    Terminated non-goal states are dropped; bug states that do not match the
    goal are collected as ``other_bugs`` -- "ESD has discovered a different
    bug ... records the information ... and resumes the search" (section 4.1).

    ``on_event`` receives :class:`SynthesisEvent` observations ('start',
    periodic 'progress' every ``event_interval`` picks, 'bug', and a final
    'done' carrying the outcome reason).  ``should_stop`` is polled once per
    pick; when it returns True the search returns with reason 'cancelled'
    (portfolio synthesis cancels the losing variants this way).
    """
    return explore_frontier(
        executor, searcher, [initial], is_goal, budget,
        on_event=on_event, event_interval=event_interval,
        should_stop=should_stop, tracer=tracer, flight=flight,
    )


def explore_frontier(
    executor: Executor,
    searcher: Searcher,
    frontier: list[ExecutionState],
    is_goal: GoalPredicate,
    budget: Optional[SearchBudget] = None,
    *,
    on_event: Optional[EventCallback] = None,
    event_interval: int = 4096,
    should_stop: Optional[StopPredicate] = None,
    count_frontier: bool = True,
    tracer: Optional[Tracer] = None,
    flight: Optional[FlightRecorder] = None,
) -> SearchOutcome:
    """:func:`explore` generalized to start from a whole frontier.

    This is the sharded-exploration entry point: a worker seeds its searcher
    with its shard (``frontier``) and keeps calling ``explore_frontier`` with
    an empty frontier to continue across work quanta -- the searcher's
    pending states persist between calls.

    ``count_frontier=False`` excludes the seeded states from
    ``states_explored``: states migrating between shards (or resuming from a
    checkpoint) were already counted where they were created, so a sharded
    run's totals match the serial run's.

    Budget accounting charges *distinct* instruction executions: retries of a
    blocking sync instruction after a wake (``executor.stats.replayed``) and
    pure scheduling decisions are not re-charged, so the instruction count is
    a measure of forward progress that serial and sharded runs agree on.
    """
    budget = budget or SearchBudget()
    stats = SearchStats()
    other_bugs: list[ExecutionState] = []
    deadline = time.monotonic() + budget.max_seconds
    started = time.monotonic()
    states_seen = len(frontier) if count_frontier else 0
    # Search-quantum spans: when tracing, picks are grouped into spans of
    # ``event_interval`` picks each (the same granularity as 'progress'
    # events and the pool's work quanta), so a trace shows where search
    # time went without recording a span per pick.  ``traced`` is hoisted
    # so the disabled path costs one boolean test per pick.
    traced = tracer is not None and tracer.enabled
    quantum_span = None
    quantum_picks = 0
    quantum_size = max(event_interval, 1)
    # Flight recording mirrors the tracer's hoisted gate: the disabled
    # loop pays one boolean test per pick and allocates nothing.
    recording = flight is not None and flight.enabled
    solver_stats = executor.solver.stats

    def record_end(succ: ExecutionState, reason: str) -> None:
        """One termination record, attributed to the killing layer."""
        if flight is None:
            return
        why = ""
        line = 0
        if reason == "infeasible":
            # The executor tags the layer that killed the state (wp-dead,
            # step-limit, no-runnable-thread); untagged infeasibility means
            # a feasibility probe refuted the path constraints.
            why = str(succ.meta.get("killed", "") or "path-constraint")
        elif reason == "bug" and succ.bug is not None:
            why = f"bug:{succ.bug.kind.value}"
            line = succ.bug.line
        flight.end(succ.sid, succ.parent_sid, reason, why=why, line=line)

    add = searcher.add

    def enqueue(succ: ExecutionState, fresh: bool) -> None:
        """Add ``succ`` to the searcher; when recording, log the lineage
        edge of a ``fresh`` state or the searcher's abandonment of it."""
        if not recording or flight is None:
            add(succ)
            return
        pruned_before = searcher.pruned
        add(succ)
        if searcher.pruned > pruned_before:
            flight.drop(succ.sid, succ.parent_sid, "distance-inf")
        elif fresh:
            flight.add(succ.sid, succ.parent_sid)

    def emit(kind: str, reason: str = "", detail: str = "") -> None:
        if on_event is not None:
            on_event(SynthesisEvent(
                kind=kind,
                picks=stats.picks,
                instructions=stats.instructions,
                states=states_seen,
                pending=len(searcher),
                seconds=time.monotonic() - started,
                reason=reason,
                detail=detail,
            ))

    def finish(goal_state: Optional[ExecutionState], reason: str) -> SearchOutcome:
        nonlocal quantum_span
        stats.states_explored = states_seen
        stats.seconds = time.monotonic() - started
        if quantum_span is not None and tracer is not None:
            tracer.finish(quantum_span, {"picks": quantum_picks,
                                         "pending": len(searcher)})
            quantum_span = None
        if recording and flight is not None:
            if goal_state is not None:
                record_end(goal_state, "goal")
            flight.done(reason)
        emit("done", reason=reason)
        return SearchOutcome(goal_state, reason, stats, other_bugs)

    emit("start")
    for state in frontier:
        if is_goal(state):
            return finish(state, "goal")
        enqueue(state, fresh=True)

    # Hoisted for the pick loop.  Budget accounting charges distinct
    # instruction executions: ``instructions - replayed`` (replay retries
    # excluded).
    executor.on_block_entry = searcher.block_hook()
    run = executor.run
    pick = searcher.pick
    exec_stats = executor.stats
    monotonic = time.monotonic
    batch_size = max(budget.batch_instructions, 1)
    max_instructions = budget.max_instructions
    max_states = budget.max_states
    progress_every = max(event_interval, 1) if on_event is not None else 0
    # Predefined so the per-pick assignments stay inside the recording
    # branch (mypy-clean without paying for them when off).
    solver_base = 0
    static_base = 0
    picked_fn = ""

    while len(searcher):
        if should_stop is not None and should_stop():
            return finish(None, "cancelled")
        if stats.instructions >= max_instructions or states_seen >= max_states:
            return finish(None, "budget")
        if stats.picks % 256 == 0 and monotonic() > deadline:
            return finish(None, "budget")

        state = pick()
        stats.picks += 1
        if traced and tracer is not None:
            if quantum_span is None:
                quantum_span = tracer.begin("search.quantum", "search-quantum")
                quantum_picks = 0
            quantum_picks += 1
            if quantum_picks >= quantum_size:
                tracer.finish(quantum_span, {"picks": quantum_picks,
                                             "pending": len(searcher)})
                quantum_span = None
        if progress_every and stats.picks % progress_every == 0:
            emit("progress")
        # Run the picked state for a batch: stop at a fork, termination, or
        # the batch limit, whichever comes first.
        batch_base = exec_stats.instructions - exec_stats.replayed
        if recording:
            solver_base = solver_stats.queries
            static_base = solver_stats.static_answers
            picked_thread = state.threads.get(state.current_tid)
            picked_fn = (picked_thread.frames[-1].function
                         if picked_thread is not None and picked_thread.frames
                         else "")
        successors = run(state, batch_size)
        ran = exec_stats.instructions - exec_stats.replayed - batch_base
        stats.instructions += ran
        if recording and flight is not None:
            queue, score, strategy = searcher.pick_info()
            flight.pick(
                state.sid, queue=queue, score=score, strategy=strategy,
                function=picked_fn, instructions=ran,
                solver_queries=solver_stats.queries - solver_base,
                static_answers=solver_stats.static_answers - static_base,
            )

        for succ in successors:
            if is_goal(succ):
                return finish(succ, "goal")
            status = succ.status
            if status == "running":
                if succ is not state:
                    states_seen += 1
                enqueue(succ, fresh=succ is not state)
                continue
            if status == "bug":
                stats.bugs_seen += 1
                other_bugs.append(succ)
            elif status == "exited":
                stats.paths_completed += 1
            else:
                stats.paths_infeasible += 1
            if recording:
                record_end(succ, status)
            if status == "bug" and on_event is not None:
                emit("bug", detail=succ.bug.summary() if succ.bug else "")

    return finish(None, "exhausted")
