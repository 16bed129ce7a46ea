"""Deadlock schedule synthesis (paper section 4.1).

The strategy: help each thread "find" its outer lock as quickly as possible.

* Whenever a thread acquires a *free* mutex M, fork a snapshot state in which
  the thread is preempted just before the acquisition and another thread runs
  instead.  The continuing state remembers the snapshot in its map
  ``KS: mutex -> state`` (``state.snapshots``).  Snapshots are dropped when M
  is unlocked -- a free mutex cannot participate in a deadlock.
* If the thread just acquired its *inner lock* (the lock statement its final
  call stack in the bug report blocks on), preempt it and mark the state's
  schedule distance "near": M stays locked, creating the conditions for some
  other thread to request M as its outer lock.
* If a thread requests M while another thread T2 holds it *as T2's inner
  lock*, M could be the requester's outer lock: "switch to" the snapshot
  taken before T2 acquired M by setting every snapshot in KS near and the
  current state far.  The searcher's heavy schedule-distance bias makes the
  snapshots run next.

Thread identity in the report does not transfer to the synthesized run, so
inner locks are matched by *location* (the lock statement's InstrRef), which
is exactly what the report's call stacks give us.

The search is stateful, as in SPIN: at each fork point, when another thread
could run, the policy looks the state's exact key
(:meth:`~repro.symbex.state.ExecutionState.state_key`) up in a visited set
kept for the search.  A state already seen at the same fork point ends as a
``duplicate`` and forks nothing -- its earlier copy forked every
alternative, so nothing reachable is lost and found/exhausted verdicts are
unchanged.  This is what lets patch validation (section 8) run out of
states quickly: different interleavings of dependent lock operations reach
the same few global states over and over.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..ir import Instr, InstrRef
from ..symbex.executor import Executor
from ..symbex.policy import SchedulerPolicy
from ..symbex.state import AddrKey, ExecutionState

NEAR = 0.0
FAR = 1.0

BoostFn = Callable[[ExecutionState], None]


class DeadlockSchedulePolicy(SchedulerPolicy):
    """ESD's preemption strategy for reproducing reported deadlocks."""

    def __init__(
        self,
        inner_lock_refs: frozenset[InstrRef],
        boost: Optional[BoostFn] = None,
        fork_at_unlock: bool = True,
        skip_release_refs: frozenset[InstrRef] = frozenset(),
    ) -> None:
        self.inner_lock_refs = inner_lock_refs
        self.boost = boost or (lambda state: None)
        self.fork_at_unlock = fork_at_unlock
        # Unlock sites the static lockset analysis proved leave *no* lock
        # held afterwards: a preemption there cannot contribute to a
        # deadlock (there is no nested window to interleave into), so the
        # release fork is skipped.  Empty set = fork everywhere (legacy).
        self.skip_release_refs = skip_release_refs
        self.snapshots_taken = 0
        self.activations = 0
        self.releases_skipped = 0
        # (fork point, state key) pairs this search has reached.  A policy
        # serves one search (or one shard of a pooled search: each worker
        # builds its own, and checkpoints do not carry it -- a resumed or
        # stolen state may then be explored twice, never lost).
        self.visited: set[tuple] = set()

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _other_runnable(state: ExecutionState) -> list[int]:
        return [t for t in state.runnable_tids() if t != state.current_tid]

    def _fork_preempted(
        self, executor: Executor, state: ExecutionState, others: list[int],
        before_instruction: bool = True,
    ) -> list[ExecutionState]:
        """One state per thread in ``others``: identical to ``state``
        except that thread runs next.

        ``before_instruction`` means the hook fired before the current
        instruction's semantics completed; the fork has not executed it.
        """
        forks = []
        for tid in others:
            snap = state.fork()
            executor.stats.states_created += 1
            if before_instruction:
                snap.uncount_instruction()
            snap.switch_to(tid)
            forks.append(snap)
        return forks

    def _revisited(
        self, executor: Executor, state: ExecutionState, point: str,
        others: list[int],
    ) -> bool:
        """Record ``state`` at fork point ``point``; True, with the state
        ended as a duplicate, if the search already reached it there.

        Only checked when another thread could run (``others``; otherwise
        nothing forks), and only when this policy schedules alone: a
        chained race policy forks on what its global detector has seen so
        far, so a state's future would depend on when it is reached.
        """
        if not others or executor.policy is not self:
            return False
        visited = self.visited
        size = len(visited)
        visited.add((point, state.state_key()))
        if len(visited) != size:
            return False
        state.status = "duplicate"
        executor.stats.states_merged += 1
        return True

    # -- hooks ------------------------------------------------------------

    def fork_before_acquire(
        self, executor: Executor, state: ExecutionState, key: AddrKey,
        instr: Instr, ref: InstrRef,
    ) -> list[ExecutionState]:
        others = self._other_runnable(state)
        if self._revisited(executor, state, "acquire", others):
            return []
        # One snapshot per (thread, mutex) hold episode: a woken thread
        # re-trying the same acquisition is the same "encounter" and must not
        # fork again, or contended locks spin off unbounded siblings.
        flag = f"snapfork:{key}"
        forked: frozenset = state.meta.get(flag, frozenset())  # type: ignore[assignment]
        forks: list[ExecutionState] = []
        if state.current_tid not in forked:
            state.meta[flag] = forked | {state.current_tid}
            forks = self._fork_preempted(executor, state, others)
            if forks:
                state.snapshots[key] = forks[0]
                self.snapshots_taken += 1
        # Remember where this mutex is being acquired: at contention time we
        # ask "was M acquired at its holder's inner-lock statement?".
        state.meta[f"acq:{key}"] = ref
        return forks

    def after_acquire(
        self, executor: Executor, state: ExecutionState, key: AddrKey,
        instr: Instr, ref: InstrRef,
    ) -> list[ExecutionState]:
        if ref in self.inner_lock_refs:
            others = self._other_runnable(state)
            if others:
                state.schedule_distance = NEAR
                state.switch_to(others[0])
        return []

    def on_contention(
        self, executor: Executor, state: ExecutionState, key: AddrKey,
        holder: int, instr: Instr, ref: InstrRef,
    ) -> list[ExecutionState]:
        acquired_at = state.meta.get(f"acq:{key}")
        if acquired_at in self.inner_lock_refs:
            # M is the holder's inner lock, so it may be the requester's
            # outer lock: roll "back" by boosting every snapshot in KS.
            for snapshot in state.snapshots.values():
                snapshot.schedule_distance = NEAR
                self.boost(snapshot)
                self.activations += 1
            state.schedule_distance = FAR
        return []

    def fork_before_release(
        self, executor: Executor, state: ExecutionState, key: AddrKey,
        instr: Instr, ref: InstrRef,
    ) -> list[ExecutionState]:
        if not self.fork_at_unlock:
            return []
        if ref in self.skip_release_refs:
            self.releases_skipped += 1
            return []
        others = self._other_runnable(state)
        if self._revisited(executor, state, "release", others):
            return []
        return self._fork_preempted(executor, state, others)

    def on_release(
        self, executor: Executor, state: ExecutionState, key: AddrKey,
        instr: Instr, ref: InstrRef,
    ) -> None:
        # A free mutex cannot be part of a deadlock: drop its snapshot and
        # re-arm the snapshot fork for the next acquisition episode.
        state.snapshots.pop(key, None)
        state.meta.pop(f"acq:{key}", None)
        state.meta.pop(f"snapfork:{key}", None)

    def on_thread_event(
        self, executor: Executor, state: ExecutionState, kind: str, tid: int,
        instr: Instr,
    ) -> list[ExecutionState]:
        if kind == "create":
            # A new thread is a new scheduling opportunity.  The create
            # itself already completed, so the fork keeps its count.
            others = self._other_runnable(state)
            if self._revisited(executor, state, "create", others):
                return []
            return self._fork_preempted(executor, state, others,
                                        before_instruction=False)
        return []
