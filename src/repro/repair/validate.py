"""Patch validation (repair step 3) -- the paper's own criterion.

Section 8: "if ESD can no longer synthesize an execution that triggers the
bug, then the patch can be considered successful."  A validated patch must

1. defeat re-synthesis: running ESD with the *original* bug report against
   the patched module explores every state and finds no execution (the
   goal is unreachable), or the goal is gone from the program entirely; a
   search that ends on its budget validates nothing;
2. not reproduce the bug concretely: the failing execution's recorded inputs
   no longer manifest the reported bug kind;
3. preserve every passing execution: replaying each passing execution's
   inputs on the patched module yields the identical observable behavior
   (output, exit code, termination status) as the original module.  Where
   the recorded strict schedule still fits -- the patch did not perturb the
   instruction stream on that path -- the execution file itself is also
   replayed byte-for-byte and reported as ``identical``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .. import ir
from ..coredump import BugReport
from ..core.execfile import ExecutionFile
from ..core.goals import GoalError
from ..core.synthesis import ESDConfig, esd_synthesize
from ..playback import PlaybackDivergence, play_back
from ..search import SearchBudget
from .holes import Behavior, concrete_behavior


def validation_config(base: Optional[ESDConfig] = None) -> ESDConfig:
    """The re-synthesis budget for validation runs.

    Smaller than a cold synthesis budget: a correct patch makes the search
    exhaust the (now tiny) reachable space quickly, and a wrong patch is
    usually refuted quickly too.
    """
    if base is not None:
        return ESDConfig.from_dict(base.to_dict())
    return ESDConfig(budget=SearchBudget(
        max_instructions=2_000_000, max_states=100_000, max_seconds=45.0,
    ))


@dataclass(slots=True)
class PassingReplay:
    """Outcome of re-checking one passing execution on the patched module."""

    index: int
    preserved: bool  # observable behavior identical to the original module
    identical: bool  # the recorded execution file replayed byte-for-byte
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "preserved": self.preserved,
            "identical": self.identical,
            "detail": self.detail,
        }


@dataclass(slots=True)
class ValidationResult:
    ok: bool = False
    resynthesis_found: bool = False
    resynthesis_reason: str = ""
    failing_clean: bool = False
    passing: list[PassingReplay] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passing_preserved(self) -> bool:
        return all(r.preserved for r in self.passing)

    @property
    def identical_replays(self) -> int:
        return sum(1 for r in self.passing if r.identical)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "resynthesis_found": self.resynthesis_found,
            "resynthesis_reason": self.resynthesis_reason,
            "failing_clean": self.failing_clean,
            "passing": [r.to_dict() for r in self.passing],
            "identical_replays": self.identical_replays,
            "seconds": round(self.seconds, 6),
        }


def validate_patch(
    original: ir.Module,
    patched: ir.Module,
    report: BugReport,
    passing: Sequence[ExecutionFile],
    *,
    failing: Optional[ExecutionFile] = None,
    config: Optional[ESDConfig] = None,
    expected: Optional[Sequence[Behavior]] = None,
    should_stop=None,
) -> ValidationResult:
    """Run the three validation checks; cheap concrete checks first.

    ``expected`` optionally supplies the passing executions' reference
    behaviors on the original module (same order as ``passing``), saving one
    concrete re-execution per passing run when the caller already has them.
    """
    started = time.monotonic()
    result = ValidationResult()

    # (2) concrete failing rerun -- must terminate cleanly.  Any bug counts
    # as unclean, not just the reported kind: a patch that turns a deadlock
    # into a crash on the very inputs it was meant to fix is no fix.
    result.failing_clean = True
    if failing is not None:
        try:
            behavior = concrete_behavior(patched, failing.inputs)
        except RuntimeError:
            behavior = Behavior(status="bug", exit_code=0, output=(),
                                bug_kind="nontermination")
        if behavior.status == "bug":
            result.failing_clean = False

    # (3) passing preservation.
    for index, execution in enumerate(passing):
        reference = (expected[index] if expected is not None
                     and index < len(expected) else None)
        result.passing.append(
            _check_passing(original, patched, index, execution, reference)
        )

    if not result.failing_clean or not result.passing_preserved:
        result.seconds = time.monotonic() - started
        return result

    # (1) the expensive check last: ESD against the patched module.
    try:
        synthesis = esd_synthesize(
            patched, report, validation_config(config),
            should_stop=should_stop,
        )
        result.resynthesis_found = synthesis.found
        result.resynthesis_reason = synthesis.reason
    except GoalError as exc:
        # The reported goal location no longer exists in the patched program
        # (e.g. the faulting statement was deleted): nothing to synthesize.
        result.resynthesis_found = False
        result.resynthesis_reason = f"goal-unmappable: {exc}"

    # Only a search that ran out of states proves the bug unreachable; one
    # that ran out of budget (or was cancelled) proves nothing.
    result.ok = (
        not result.resynthesis_found
        and (result.resynthesis_reason == "exhausted"
             or result.resynthesis_reason.startswith("goal-unmappable: "))
        and result.failing_clean
        and result.passing_preserved
    )
    result.seconds = time.monotonic() - started
    return result


def _check_passing(
    original: ir.Module,
    patched: ir.Module,
    index: int,
    execution: ExecutionFile,
    expected: Optional[Behavior] = None,
) -> PassingReplay:
    try:
        if expected is None:
            expected = concrete_behavior(original, execution.inputs)
        actual = concrete_behavior(patched, execution.inputs)
    except RuntimeError as exc:
        return PassingReplay(index, preserved=False, identical=False,
                             detail=str(exc))
    preserved = actual.matches(expected) and actual.status != "bug"
    detail = ""
    if not preserved:
        detail = (
            f"expected {expected.status}/{expected.exit_code} "
            f"{list(expected.output)}, got {actual.status}/"
            f"{actual.exit_code} {list(actual.output)}"
        )
    identical = False
    if preserved:
        try:
            replay = play_back(patched, execution, mode="strict")
            identical = (
                replay.state.status == expected.status
                and tuple(replay.output) == expected.output
                and replay.exit_code == expected.exit_code
            )
        except PlaybackDivergence:
            identical = False  # the patch moved this path; behavior still holds
    return PassingReplay(index, preserved=preserved, identical=identical,
                         detail=detail)
