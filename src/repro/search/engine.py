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

from ..obs.observer import SearchObserver
from ..symbex.executor import Executor
from ..symbex.state import ExecutionState

GoalPredicate = Callable[[ExecutionState], bool]
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
    observer: Optional[SearchObserver] = None,
    should_stop: Optional[StopPredicate] = None,
) -> SearchOutcome:
    """Run the search until the goal is found or a budget is exhausted.

    ``is_goal`` is evaluated on every successor state (terminated or not).
    Terminated non-goal states are dropped; bug states that do not match the
    goal are collected as ``other_bugs`` -- "ESD has discovered a different
    bug ... records the information ... and resumes the search" (section 4.1).

    ``observer`` (a :class:`~repro.obs.SearchObserver`) is told about every
    search decision and turns them into progress events, trace quanta and
    flight records.  ``should_stop`` is polled once per pick; when it
    returns True the search returns with reason 'cancelled' (portfolio
    synthesis cancels the losing variants this way).
    """
    return explore_frontier(
        executor, searcher, [initial], is_goal, budget,
        observer=observer, should_stop=should_stop,
    )


def explore_frontier(
    executor: Executor,
    searcher: Searcher,
    frontier: list[ExecutionState],
    is_goal: GoalPredicate,
    budget: Optional[SearchBudget] = None,
    *,
    observer: Optional[SearchObserver] = None,
    should_stop: Optional[StopPredicate] = None,
    count_frontier: bool = True,
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
    stats = SearchStats(states_explored=len(frontier) if count_frontier else 0)
    other_bugs: list[ExecutionState] = []
    started = time.monotonic()
    deadline = started + budget.max_seconds
    # The observer's gate is hoisted: ``every`` is how often a pick is
    # reported (0 when nothing observes), so an unobserved loop pays one
    # boolean test per pick and allocates nothing.
    if observer is not None and not observer.every:
        observer = None
    every = 0
    recording = False
    if observer is not None:
        every = observer.every
        recording = observer.flight is not None
        observer.start(searcher, stats)
    solver_stats = executor.solver.stats
    add = searcher.add

    def enqueue(succ: ExecutionState, fresh: bool) -> None:
        """Add ``succ`` to the searcher; when recording, report the lineage
        edge of a ``fresh`` state or the searcher's abandonment of it."""
        if not recording or observer is None:
            add(succ)
            return
        pruned_before = searcher.pruned
        add(succ)
        if searcher.pruned > pruned_before:
            observer.drop(succ, "distance-inf")
        elif fresh:
            observer.add(succ)

    def finish(goal_state: Optional[ExecutionState], reason: str) -> SearchOutcome:
        stats.seconds = time.monotonic() - started
        if observer is not None:
            observer.done(goal_state, reason)
        return SearchOutcome(goal_state, reason, stats, other_bugs)

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
    # Predefined so the per-pick assignments stay inside the recording
    # branch (mypy-clean without paying for them when off).
    solver_base = 0
    static_base = 0
    picked_fn = ""

    while len(searcher):
        if should_stop is not None and should_stop():
            return finish(None, "cancelled")
        if (stats.instructions >= max_instructions
                or stats.states_explored >= max_states):
            return finish(None, "budget")
        if stats.picks % 256 == 0 and monotonic() > deadline:
            return finish(None, "budget")

        state = pick()
        stats.picks += 1
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
        if every and stats.picks % every == 0 and observer is not None:
            observer.pick(state, ran, picked_fn,
                          solver_stats.queries - solver_base,
                          solver_stats.static_answers - static_base)
        stats.instructions += ran

        for succ in successors:
            if is_goal(succ):
                return finish(succ, "goal")
            status = succ.status
            if status == "running":
                if succ is not state:
                    stats.states_explored += 1
                enqueue(succ, fresh=succ is not state)
                continue
            if status == "bug":
                stats.bugs_seen += 1
                other_bugs.append(succ)
            elif status == "exited":
                stats.paths_completed += 1
            elif status == "infeasible":
                stats.paths_infeasible += 1
            # else 'duplicate': the schedule policy already reached an
            # identical state (counted in ExecStats.states_merged).
            if observer is not None:
                observer.end(succ, status)

    return finish(None, "exhausted")
