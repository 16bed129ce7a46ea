"""Goal extraction: from a coredump to search goals <B, C> (paper §3.1).

For each thread in the bug report the goal is a tuple ``<B, C>``: the basic
block (here: exact instruction) where the failure was detected, plus a
condition on program state that held when the bug manifested.  The extraction
is bug-class specific:

* **crash** -- B is the faulting instruction from the dump; C is the bug kind
  plus fault details (e.g. the dereferenced pointer was NULL, the assert
  condition was false).  A state matches when it crashes at B with the same
  kind.
* **deadlock** -- B (per deadlocked thread) is the lock statement the thread
  blocked on; C is the circular wait.  A state matches when it deadlocks
  with threads blocked at exactly those lock statements.
* **race** -- B is where the *inconsistency* was detected (not where the race
  occurred), handled like a crash; the common-stack-prefix gate function for
  the race scheduler is derived here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import ir
from ..concurrency import common_stack_prefix
from ..coredump import BugReport, Coredump
from ..ir import InstrRef
from ..symbex.bugs import BugKind
from ..symbex.state import BLOCKED, ExecutionState

# Crash kinds considered "the same manifestation" for goal matching: a dump
# showing a null dereference matches a synthesized null or wild dereference
# at the same instruction, etc.
_EQUIVALENT_KINDS: dict[BugKind, frozenset[BugKind]] = {
    BugKind.NULL_DEREF: frozenset({BugKind.NULL_DEREF, BugKind.WILD_POINTER}),
    BugKind.WILD_POINTER: frozenset({BugKind.NULL_DEREF, BugKind.WILD_POINTER}),
    BugKind.OUT_OF_BOUNDS: frozenset({BugKind.OUT_OF_BOUNDS}),
    BugKind.USE_AFTER_FREE: frozenset({BugKind.USE_AFTER_FREE}),
    BugKind.INVALID_FREE: frozenset({BugKind.INVALID_FREE, BugKind.DOUBLE_FREE}),
    BugKind.DOUBLE_FREE: frozenset({BugKind.INVALID_FREE, BugKind.DOUBLE_FREE}),
    BugKind.DIV_BY_ZERO: frozenset({BugKind.DIV_BY_ZERO}),
    BugKind.ASSERT_FAIL: frozenset({BugKind.ASSERT_FAIL}),
    BugKind.ABORT: frozenset({BugKind.ABORT}),
    BugKind.INVALID_UNLOCK: frozenset({BugKind.INVALID_UNLOCK}),
}


class GoalError(Exception):
    """The coredump does not contain enough information for this bug type."""


@dataclass(slots=True)
class SynthesisGoal:
    """The executable form of <B, C>: target locations plus a matcher."""

    bug_class: str  # 'crash' | 'deadlock' | 'race'
    targets: tuple[InstrRef, ...]  # B, per thread for deadlocks
    kinds: frozenset[BugKind] = frozenset()
    fault_value: Optional[int] = None
    inner_lock_refs: frozenset[InstrRef] = frozenset()
    gate_function: Optional[str] = None
    description: str = ""
    # Reported per-thread stacks (outermost-first function names), used by
    # heuristics and diagnostics.
    report_stacks: list[list[str]] = field(default_factory=list)

    def matches(self, state: ExecutionState) -> bool:
        if state.status != "bug" or state.bug is None:
            return False
        if self.bug_class == "deadlock":
            return self._matches_deadlock(state)
        return self._matches_crash(state)

    def _matches_crash(self, state: ExecutionState) -> bool:
        bug = state.bug
        assert bug is not None
        if self.kinds and bug.kind not in self.kinds:
            return False
        return bug.ref in self.targets

    def _matches_deadlock(self, state: ExecutionState) -> bool:
        bug = state.bug
        assert bug is not None
        if bug.kind is not BugKind.DEADLOCK:
            return False
        blocked = {
            thread.pc
            for thread in state.threads.values()
            if thread.status == BLOCKED
            and thread.blocked_on is not None
            and thread.blocked_on[0] in ("mutex", "cond")
        }
        return set(self.targets) <= blocked


def extract_goal(module: ir.Module, report: BugReport) -> SynthesisGoal:
    """Compute the synthesis goal from a bug report (``repro synth`` step 1)."""
    dump = report.coredump
    if dump.corrupted:
        # The ghttpd case: reconstruct the smashed call stack from the call
        # graph before extracting anything (paper section 8's automated
        # stack reconstruction).
        from ..coredump import repair_stack

        dump = repair_stack(dump, module)
    if report.bug_type == "deadlock":
        return _deadlock_goal(module, dump)
    if report.bug_type in ("crash", "race"):
        return _crash_goal(module, dump, report.bug_type)
    # Bug classes the core does not know may be registered as plugins with
    # their own goal extractor (lazy import: the registry layers above core).
    from ..api.registry import find_bug_class

    plugin = find_bug_class(report.bug_type)
    if plugin is not None and plugin.extract is not None:
        return plugin.extract(module, report)
    raise GoalError(f"unknown bug type {report.bug_type!r}")


def _crash_goal(module: ir.Module, dump: Coredump, bug_class: str) -> SynthesisGoal:
    if dump.fault_ref is None:
        raise GoalError("coredump has no faulting instruction")
    _check_ref(module, dump.fault_ref)
    kinds = (
        _EQUIVALENT_KINDS.get(dump.bug_kind, frozenset({dump.bug_kind}))
        if dump.bug_kind is not None else frozenset()
    )
    stacks = [t.functions_outermost_first() for t in dump.threads]
    gate = None
    if bug_class == "race" and len(stacks) > 1:
        prefix = common_stack_prefix(
            [t.functions_outermost_first() for t in dump.threads if t.tid != 0]
            or stacks
        )
        gate = prefix[-1] if prefix else None
    return SynthesisGoal(
        bug_class=bug_class,
        targets=(dump.fault_ref,),
        kinds=kinds,
        fault_value=dump.fault_value,
        gate_function=gate,
        description=f"{dump.bug_kind.value if dump.bug_kind else 'crash'}"
        f" at {dump.fault_ref} (line {dump.fault_line})",
        report_stacks=stacks,
    )


def _deadlock_goal(module: ir.Module, dump: Coredump) -> SynthesisGoal:
    """B per thread: the sync statement in the last frame of each blocked
    thread's call stack (the thread's *inner lock*)."""
    targets: list[InstrRef] = []
    for thread in dump.blocked_threads():
        if thread.blocked_kind not in ("mutex", "cond"):
            continue
        top = thread.top
        if top is None:
            continue
        ref = _sync_ref_at(module, top.ref)
        if ref is not None:
            targets.append(ref)
    if not targets:
        raise GoalError("no blocked threads with sync frames in the coredump")
    stacks = [t.functions_outermost_first() for t in dump.threads]
    return SynthesisGoal(
        bug_class="deadlock",
        targets=tuple(sorted(set(targets))),
        kinds=frozenset({BugKind.DEADLOCK}),
        inner_lock_refs=frozenset(targets),
        description="deadlock with threads blocked at "
        + ", ".join(str(t) for t in sorted(set(targets))),
        report_stacks=stacks,
    )


def _sync_ref_at(module: ir.Module, ref: InstrRef) -> Optional[InstrRef]:
    """The blocked thread's top frame points at (or just past) the blocking
    sync instruction; normalize to the sync instruction itself."""
    func = module.functions.get(ref.function)
    if func is None:
        return None
    block = func.blocks.get(ref.block)
    if block is None:
        return None
    for index in (ref.index, ref.index - 1):
        if 0 <= index <= len(block.instrs):
            instr = block.instruction_at(index)
            if isinstance(instr, (ir.MutexLock, ir.CondWait)):
                return InstrRef(ref.function, ref.block, index)
    return None


def _check_ref(module: ir.Module, ref: InstrRef) -> None:
    func = module.functions.get(ref.function)
    if func is None or ref.block not in func.blocks:
        raise GoalError(f"coredump references unknown location {ref}")
