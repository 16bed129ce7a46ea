"""Execution playback (paper section 5.2).

Two modes, as in the paper:

* **strict** -- "one single thread runs at a time, and all instructions
  execute in the exact same order as during synthesis": the replayer follows
  the recorded context-switch segments literally.
* **happens-before** -- threads are context-switched "only when this is
  necessary to satisfy the happens-before relations in the execution file":
  the replayer gates each thread at its next synchronization operation until
  that operation is the earliest unconsumed event of the recorded order.
  After the operation the thread runs on to its next sync instruction, as
  it usually did during synthesis (not after a thread create; see
  :func:`_play_happens_before`).

Both run the program concretely (inputs come from the execution file), so
playback is deterministic and repeatable -- attach the debugger, replay,
inspect, replay again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import ir
from ..core.execfile import ExecutionFile
from ..symbex import BugInfo, ConcreteEnv, ExecConfig, Executor
from ..symbex.state import RUNNABLE, ExecutionState, ThreadState


class PlaybackDivergence(Exception):
    """The program did not follow the synthesized execution (e.g. it was
    recompiled/patched since synthesis)."""


@dataclass(slots=True)
class PlaybackResult:
    state: ExecutionState
    bug_reproduced: bool
    bug: Optional[BugInfo]
    steps: int
    output: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return self.state.exit_code


def play_back(
    module: ir.Module,
    execution: ExecutionFile,
    mode: str = "strict",
    max_steps: int = 10_000_000,
) -> PlaybackResult:
    """Replay a synthesized execution file against the program."""
    if mode == "strict":
        return _play_strict(module, execution, max_steps)
    if mode == "happens-before":
        return _play_happens_before(module, execution, max_steps)
    raise ValueError(f"unknown playback mode {mode!r}")


def _make_executor(module: ir.Module, execution: ExecutionFile) -> Executor:
    return Executor(
        module,
        env=ConcreteEnv(execution.inputs),
        config=ExecConfig(),
    )


def _check_reproduced(execution: ExecutionFile, state: ExecutionState) -> bool:
    if state.status != "bug" or state.bug is None:
        return False
    if execution.bug_kind and state.bug.kind.value != execution.bug_kind:
        return False
    if execution.bug_ref and repr(state.bug.ref) != execution.bug_ref:
        return False
    return True


# ---------------------------------------------------------------------------
# Strict serial replay
# ---------------------------------------------------------------------------


def _play_strict(
    module: ir.Module, execution: ExecutionFile, max_steps: int
) -> PlaybackResult:
    executor = _make_executor(module, execution)
    state = executor.initial_state()
    total = 0
    for segment in execution.strict_schedule:
        if state.terminated:
            break
        if segment.tid not in state.threads:
            raise PlaybackDivergence(
                f"schedule names thread {segment.tid}, which does not exist yet"
            )
        state.current_tid = segment.tid
        executed = 0
        while executed < segment.instrs and not state.terminated:
            thread = state.threads.get(segment.tid)
            if thread is None or thread.status != RUNNABLE:
                raise PlaybackDivergence(
                    f"thread {segment.tid} cannot run at instruction {executed} "
                    f"of its segment (status: {thread.status if thread else 'gone'})"
                )
            state.current_tid = segment.tid
            before = state.steps
            successors = executor.step(state)
            if len(successors) != 1:
                raise PlaybackDivergence("playback execution forked")
            state = successors[0]
            executed += state.steps - before
            total += 1
            if total > max_steps:
                raise PlaybackDivergence("playback exceeded step budget")
    # Let termination (exit or deadlock detection) fire if it has not yet.
    guard = 0
    while not state.terminated:
        successors = executor.step(state)
        if len(successors) != 1:
            raise PlaybackDivergence("playback execution forked at the end")
        state = successors[0]
        guard += 1
        if guard > max_steps:
            raise PlaybackDivergence("program did not terminate after schedule")
    return PlaybackResult(
        state=state,
        bug_reproduced=_check_reproduced(execution, state),
        bug=state.bug,
        steps=state.steps,
        output=list(state.output),
    )


# ---------------------------------------------------------------------------
# Happens-before replay
# ---------------------------------------------------------------------------

# Instructions before which the deadlock schedule policy may switch threads.
_SYNC_INSTRS = (ir.MutexLock, ir.MutexUnlock, ir.CondWait, ir.CondSignal,
                ir.ThreadCreate, ir.ThreadJoin)


def _at_preemption_point(module: ir.Module, thread: ThreadState) -> bool:
    """True if ``thread`` cannot run, or its next instruction is a sync
    instruction or the return that ends the thread."""
    if thread.status != RUNNABLE or not thread.frames:
        return True
    instr = module.instruction(thread.pc)
    return isinstance(instr, _SYNC_INSTRS) or (
        isinstance(instr, ir.Ret) and len(thread.frames) == 1
    )


def _play_happens_before(
    module: ir.Module, execution: ExecutionFile, max_steps: int
) -> PlaybackResult:
    executor = _make_executor(module, execution)
    state = executor.initial_state()
    events = execution.happens_before
    total = 0

    def step(state: ExecutionState, tid: int) -> ExecutionState:
        nonlocal total
        state.current_tid = tid
        successors = executor.step(state)
        if len(successors) != 1:
            raise PlaybackDivergence("playback execution forked")
        total += 1
        if total > max_steps:
            raise PlaybackDivergence("playback exceeded step budget")
        return successors[0]

    for position, event in enumerate(events):
        if state.terminated:
            break
        thread = state.threads.get(event.tid)
        if thread is None:
            raise PlaybackDivergence(
                f"event #{position} names unknown thread {event.tid}"
            )
        if thread.status == "exited":
            raise PlaybackDivergence(
                f"event #{position}: thread {event.tid} already exited"
            )
        # Run the event's thread until it logs its next sync operation.
        logged = len(state.sync_log)
        while len(state.sync_log) == logged and not state.terminated:
            current = state.threads.get(event.tid)
            if current is None or current.status != RUNNABLE:
                raise PlaybackDivergence(
                    f"event #{position}: thread {event.tid} is "
                    f"{current.status if current else 'gone'}, expected runnable"
                )
            state = step(state, event.tid)
        if state.terminated and len(state.sync_log) == logged:
            break
        produced = state.sync_log[-1]
        if produced.tid != event.tid or produced.op != event.op:
            raise PlaybackDivergence(
                f"event #{position}: expected {event.op} by thread {event.tid}, "
                f"got {produced.op} by thread {produced.tid}"
            )
        # During synthesis a thread usually ran on from a sync operation
        # to its next sync instruction before another thread ran, reads of
        # shared data included (hawknl's nl_shutdown reads sock_open before
        # nl_close clears it), so replay that stretch now.  The deadlock
        # policy breaks the rule in two places the file does not record:
        # it forks right after a create, where the child may run first (so
        # a create is not run on), and it switches threads right after a
        # reported inner lock is acquired (not followed here).
        if produced.op != "create":
            while not state.terminated and not _at_preemption_point(
                module, state.threads[event.tid]
            ):
                state = step(state, event.tid)

    guard = 0
    while not state.terminated:
        successors = executor.step(state)
        if len(successors) != 1:
            raise PlaybackDivergence("playback execution forked at the end")
        state = successors[0]
        guard += 1
        if guard > max_steps:
            raise PlaybackDivergence("program did not terminate after all events")
    return PlaybackResult(
        state=state,
        bug_reproduced=_check_reproduced(execution, state),
        bug=state.bug,
        steps=state.steps,
        output=list(state.output),
    )
