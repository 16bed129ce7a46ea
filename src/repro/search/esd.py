"""ESD's proximity-guided search (paper sections 3.3-3.4).

Each execution state has *n* distances: to the intermediate goals
G1..Gn-1 discovered statically and to the final goal Gn = B.  The searcher
keeps n "virtual" priority queues -- the queue entries are just tokens
pointing at shared states -- ordered by the Algorithm-1 proximity estimate.
Each pick chooses a queue uniformly at random and takes its closest state,
"progressively advancing states toward the nearest intermediate goal".

Two further focusing techniques from the paper are implemented here:

* *path abandonment*: a state whose distance to the final goal is infinite
  (it can statically never reach B -- the dynamic generalization of critical
  edges) is dropped instead of enqueued;
* *schedule distance*: for concurrency-bug synthesis, states carry a
  near/far schedule distance (section 4.1); the queue priority is a weighted
  combination "with a heavy bias toward schedule distance", so low-schedule-
  distance states are selected preferentially.

For the ablation benchmarks both techniques (and the intermediate-goal
queues) can be disabled independently.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..analysis.distance import INF, DistanceSource
from ..ir import InstrRef
from ..symbex.state import ExecutionState
from .engine import Searcher

# The weight that makes schedule distance dominate path distance.  Path
# distances are bounded by ~RECURSION_COST * call depth; 10^7 dwarfs that.
SCHEDULE_WEIGHT = 10_000_000.0

# Weight of one unachieved intermediate goal.  This realizes the paper's
# "divide a big search into several small searches": states that have
# already passed through more anchor blocks outrank states that have not,
# so the search proceeds goal to goal instead of re-exploring phase 0.
PHASE_WEIGHT = 100_000.0


@dataclass(frozen=True, slots=True)
class GoalSpec:
    """One search goal: a disjunctive set of target locations.

    For a deadlock involving several threads the final goal's alternatives
    are each thread's blocked lock statement; for intermediate goals they are
    the alternative defining blocks.
    """

    refs: tuple[InstrRef, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.refs:
            raise ValueError("a goal needs at least one target location")


class ProximityGuidedSearcher(Searcher):
    """The ESD state-selection strategy."""

    def __init__(
        self,
        distances: DistanceSource,
        goals: list[GoalSpec],
        final_goal: GoalSpec,
        seed: int = 0,
        prune_unreachable: bool = True,
        use_schedule_distance: bool = True,
    ) -> None:
        if not goals or goals[-1] is not final_goal:
            goals = list(goals) + [final_goal]
        self.distances = distances
        self.goals = goals
        self.final_goal = final_goal
        self.prune_unreachable = prune_unreachable
        self.use_schedule_distance = use_schedule_distance
        self._rng = random.Random(seed)
        self._queues: list[list[tuple[float, int, dict]]] = [[] for _ in goals]
        self._tokens: dict[int, dict] = {}
        self._seq = itertools.count()
        self._live = 0
        self.pruned = 0
        # The most recent pick's (queue, priority), for flight-recorder
        # attribution via :meth:`pick_info`.  Two attribute writes per
        # pick -- noise next to the RNG draw and heap pop.
        self._last_queue: list[tuple[float, int, dict]] = []
        self._last_priority = 0.0
        # Map (function, block) -> intermediate-goal indices, used to mark a
        # goal *achieved* the moment a state's pc enters one of its blocks.
        # Achieved goals stop attracting that state's lineage: without this,
        # the goal queue keeps picking states that circle a loop around an
        # already-executed definition instead of advancing to the next goal.
        self._goal_blocks: dict[tuple[str, str], list[int]] = {}
        for index, goal in enumerate(self.goals[:-1]):
            for ref in goal.refs:
                self._goal_blocks.setdefault(
                    (ref.function, ref.block), []
                ).append(index)

    # -- distance ------------------------------------------------------------

    def state_distance(self, state: ExecutionState, goal: GoalSpec) -> float:
        """Min Algorithm-1 distance over the state's live threads and the
        goal's alternative locations."""
        return self._distance(_call_stacks(state), goal)

    def _distance(self, stacks: list[list[InstrRef]], goal: GoalSpec) -> float:
        best = INF
        distance = self.distances.state_distance
        for frames in stacks:
            for ref in goal.refs:
                d = distance(frames, ref)
                if d < best:
                    best = d
                    if best == 0:
                        return 0.0
        return best

    def _priority(self, state: ExecutionState, distance: float) -> float:
        achieved: frozenset = state.meta.get("goals_done", frozenset())  # type: ignore[assignment]
        missing = len(self.goals) - 1 - len(achieved)
        priority = max(missing, 0) * PHASE_WEIGHT + distance
        if self.use_schedule_distance:
            priority += state.schedule_distance * SCHEDULE_WEIGHT
        return priority

    # -- Searcher interface ------------------------------------------------------

    def block_hook(self) -> Optional[Callable[[ExecutionState, str, str], None]]:
        return self._enter_block if self._goal_blocks else None

    def _enter_block(self, state: ExecutionState, function: str, block: str) -> None:
        """Block-entry observation: mark intermediate goals achieved."""
        hits = self._goal_blocks.get((function, block))
        if not hits:
            return
        achieved: frozenset = state.meta.get("goals_done", frozenset())  # type: ignore[assignment]
        updated = achieved.union(hits)
        if updated != achieved:
            state.meta["goals_done"] = updated

    def add(self, state: ExecutionState) -> None:
        self._insert(state, may_prune=True)

    def _insert(self, state: ExecutionState, may_prune: bool) -> None:
        stacks = _call_stacks(state)
        final_distance = self._distance(stacks, self.final_goal)
        if may_prune and self.prune_unreachable and final_distance == INF:
            self.pruned += 1
            return
        token = {"state": state, "live": True}
        old = self._tokens.get(state.sid)
        if old is not None and old["live"]:
            old["live"] = False
            self._live -= 1
        self._tokens[state.sid] = token
        achieved: frozenset = state.meta.get("goals_done", frozenset())  # type: ignore[assignment]
        pushed = False
        for index, goal in enumerate(self.goals):
            if goal is not self.final_goal and index in achieved:
                continue
            distance = (
                final_distance if goal is self.final_goal
                else self._distance(stacks, goal)
            )
            if distance == INF:
                continue
            heapq.heappush(
                self._queues[index],
                (self._priority(state, distance), next(self._seq), token),
            )
            pushed = True
        if not pushed:
            # Unreachable but pruning disabled: park on the final queue.
            heapq.heappush(
                self._queues[-1], (float("inf"), next(self._seq), token)
            )
        self._live += 1

    def pick(self) -> ExecutionState:
        while True:
            candidates = [q for q in self._queues if q]
            if not candidates:
                raise IndexError("pick from an empty searcher")
            queue = self._rng.choice(candidates)
            priority, _, token = heapq.heappop(queue)
            if token["live"]:
                token["live"] = False
                self._live -= 1
                self._last_queue = queue
                self._last_priority = priority
                return token["state"]

    def pick_info(self) -> tuple[int, float, str]:
        """Which virtual queue won the last pick and at what priority.

        The queue index is resolved lazily (only the flight recorder asks)
        against the goal list: index ``i`` is goal ``Gi+1``'s queue, the
        last index the final goal's.
        """
        queue_index = next(
            (i for i, q in enumerate(self._queues) if q is self._last_queue),
            -1,
        )
        return (queue_index, self._last_priority, "proximity")

    def drain(self) -> list[ExecutionState]:
        """Remove every pending state without consuming RNG draws.

        Sharded exploration drains the frontier to serialize it; going
        through :meth:`pick` would advance the queue-selection RNG and pop
        heaps, perturbing a continuation that re-adds the same states.
        States come back in insertion order (token order), which is
        deterministic.
        """
        states = [
            token["state"] for token in self._tokens.values() if token["live"]
        ]
        for token in self._tokens.values():
            token["live"] = False
        self._tokens.clear()
        for queue in self._queues:
            queue.clear()
        self._live = 0
        return states

    def export_frontier(self) -> list[tuple[float, ExecutionState]]:
        """Drain as ``(proximity score, state)`` pairs, best (lowest) first.

        The score is the same combined priority the queues order by
        (phase progress + path distance + schedule-distance bias) against
        the final goal, so proximity-band sharding sees the search's own
        notion of "close".
        """
        scored = [
            (self._priority(state, self.state_distance(state, self.final_goal)),
             state)
            for state in self.drain()
        ]
        scored.sort(key=lambda pair: pair[0])
        return scored

    def boost(self, state: ExecutionState) -> None:
        """Re-prioritize a pending state whose schedule distance changed
        (the deadlock policy 'switches to' snapshot states this way).

        The state was *live* when boost was called, so it must stay live:
        re-adding it through the pruning path of :meth:`add` would silently
        drop it if its final-goal distance turned infinite after a schedule
        change (losing a state the policy just promoted, and leaving
        ``_live`` claiming one fewer state than the queues hold).  Instead
        the re-insert parks unreachable states on the final queue at
        infinite priority, exactly like ``add`` does when pruning is
        disabled.
        """
        token = self._tokens.get(state.sid)
        if token is not None and token["live"]:
            token["live"] = False
            self._live -= 1
            self._insert(state, may_prune=False)

    def __len__(self) -> int:
        return self._live


def _call_stacks(state: ExecutionState) -> list[list[InstrRef]]:
    """Innermost-first call stacks of the state's live threads."""
    return [thread.call_stack() for thread in state.live_threads()
            if thread.frames]
