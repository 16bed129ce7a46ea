"""The repair pipeline: localize -> synthesize patch -> validate.

``repair()`` is the engine behind :meth:`repro.api.ReproSession.repair`, the
service's ``repair`` job kind, and the ``repro repair`` CLI verb.  Given a
bug report it

1. synthesizes the failing execution with ESD (or accepts one);
2. synthesizes passing executions (clean symbolic terminations) or accepts
   replayable known-good ones;
3. ranks suspect statements from the coverage spectra
   (:mod:`repro.repair.localize`);
4. instantiates patch templates at the top suspects
   (:mod:`repro.repair.templates`), solving symbolic holes against
   "failing run terminates cleanly and passing runs keep their behavior"
   (:mod:`repro.repair.holes`);
5. validates the first surviving candidate with the paper's criterion
   (:mod:`repro.repair.validate`) and returns it as a serializable
   :class:`Patch`.

A :class:`Patch` stores the *edit*, not the module: it can be re-applied to
a freshly compiled module (``apply_to``), which is what makes the stored
artifact durable across daemon restarts.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .. import ir
from ..coredump import BugReport
from ..core.execfile import ExecutionFile
from ..core.synthesis import ESDConfig, StaticAnalysisCache, esd_synthesize
from ..obs.observer import UNOBSERVED, SearchObserver
from ..schema import (
    SchemaVersionError,
    canonical_json_bytes,
    check_schema_version,
    content_digest,
)
from ..solver import Solver
from .holes import (
    concrete_behavior,
    explore_with_holes,
    solve_hole_bindings,
)
from .localize import Localization, localize, synthesize_passing_executions
from .templates import PatchCandidate, TemplateError, candidates_for
from .validate import ValidationResult, validate_patch

PATCH_FORMAT = "esd-patch-v1"
PATCH_SCHEMA_VERSION = 1


@dataclass(slots=True)
class RepairConfig:
    """Knobs for the repair search."""

    # How many ranked suspects to attempt patches at, and how many candidate
    # edits to try in total before giving up.
    max_suspects: int = 5
    max_candidates: int = 48
    # Passing executions: how many to synthesize when none are supplied.
    passing_count: int = 4
    formula: str = "ochiai"
    site_boost: float = 0.5
    # Static crash-site slicing: suspects inside the backward slice from
    # the coredump's crash line get a ranking prior (``slice_boost``) and
    # template instantiation visits slice members first -- statements the
    # slice proves irrelevant to the crash are only tried as a fallback.
    use_slicing: bool = True
    slice_boost: float = 0.25
    # Hole-constraint exploration caps (per candidate, per execution).
    hole_max_states: int = 512
    hole_max_instructions: int = 400_000
    combo_cap: int = 64
    # Budget for ESD runs (failing synthesis when needed, re-synthesis in
    # validation).  None uses ESDConfig defaults / validation defaults.
    esd: Optional[ESDConfig] = None

    def to_dict(self) -> dict:
        return {
            "max_suspects": self.max_suspects,
            "max_candidates": self.max_candidates,
            "passing_count": self.passing_count,
            "formula": self.formula,
            "site_boost": self.site_boost,
            "use_slicing": self.use_slicing,
            "slice_boost": self.slice_boost,
            "hole_max_states": self.hole_max_states,
            "hole_max_instructions": self.hole_max_instructions,
            "combo_cap": self.combo_cap,
            "esd": self.esd.to_dict() if self.esd else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RepairConfig":
        esd = data.get("esd")
        return cls(
            max_suspects=data.get("max_suspects", 5),
            max_candidates=data.get("max_candidates", 48),
            passing_count=data.get("passing_count", 4),
            formula=data.get("formula", "ochiai"),
            site_boost=data.get("site_boost", 0.5),
            use_slicing=data.get("use_slicing", True),
            slice_boost=data.get("slice_boost", 0.25),
            hole_max_states=data.get("hole_max_states", 512),
            hole_max_instructions=data.get("hole_max_instructions", 400_000),
            combo_cap=data.get("combo_cap", 64),
            esd=ESDConfig.from_dict(esd) if esd else None,
        )


@dataclass(slots=True)
class Patch:
    """A validated (or at least synthesized) patch, as durable data."""

    program: str
    candidate: PatchCandidate
    bindings: dict[str, int] = field(default_factory=dict)
    suspect_rank: int = 0
    suspect_score: float = 0.0
    validation: Optional[ValidationResult] = None
    # The concrete patched module; rebuilt on demand after deserialization.
    module: Optional[ir.Module] = None

    @property
    def verified(self) -> bool:
        return self.validation is not None and self.validation.ok

    @property
    def description(self) -> str:
        text = self.candidate.description
        if self.bindings:
            values = ", ".join(
                f"?{name} = {value}" for name, value in
                sorted(self.bindings.items())
            )
            text += f" [{values}]"
        return text

    def apply_to(self, module: ir.Module) -> ir.Module:
        """A patched clone of ``module`` (holes concretized)."""
        patched = clone_module(module)
        self.candidate.apply(patched, bindings=self.bindings)
        return patched

    def to_dict(self) -> dict:
        return {
            "format": PATCH_FORMAT,
            "schema_version": PATCH_SCHEMA_VERSION,
            "program": self.program,
            "candidate": self.candidate.to_dict(),
            "bindings": dict(self.bindings),
            "suspect_rank": self.suspect_rank,
            "suspect_score": round(self.suspect_score, 6),
            "verified": self.verified,
            "validation": self.validation.to_dict() if self.validation else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Patch":
        if data.get("format") != PATCH_FORMAT:
            raise SchemaVersionError(
                f"not a patch: format {data.get('format')!r} "
                f"(expected {PATCH_FORMAT!r})"
            )
        check_schema_version(data, PATCH_SCHEMA_VERSION, "patch")
        patch = cls(
            program=data["program"],
            candidate=PatchCandidate.from_dict(data["candidate"]),
            bindings=dict(data.get("bindings", {})),
            suspect_rank=data.get("suspect_rank", 0),
            suspect_score=data.get("suspect_score", 0.0),
        )
        validation = data.get("validation")
        if validation is not None:
            from .validate import PassingReplay

            result = ValidationResult()
            result.ok = validation.get("ok", False)
            result.resynthesis_found = validation.get("resynthesis_found", False)
            result.resynthesis_reason = validation.get("resynthesis_reason", "")
            result.failing_clean = validation.get("failing_clean", False)
            result.passing = [
                PassingReplay(
                    index=replay["index"],
                    preserved=replay.get("preserved", False),
                    identical=replay.get("identical", False),
                    detail=replay.get("detail", ""),
                )
                for replay in validation.get("passing", [])
            ]
            result.seconds = validation.get("seconds", 0.0)
            patch.validation = result
        return patch

    def canonical_dict(self) -> dict:
        """The content-addressable form: volatile wall-clock timing is
        zeroed (it lives in the job record instead), so re-synthesizing the
        identical patch yields the identical digest -- the same rule the
        execution-file artifacts follow."""
        data = self.to_dict()
        if data.get("validation"):
            data["validation"]["seconds"] = 0.0
        return data

    def canonical_bytes(self) -> bytes:
        return canonical_json_bytes(self.canonical_dict())

    def digest(self) -> str:
        """Content address of the patch document (timing excluded)."""
        return content_digest(self.canonical_bytes())


@dataclass(slots=True)
class RepairResult:
    """Everything one repair run produced."""

    reason: str  # 'patched' | 'no-failing-execution' | 'no-patch' | 'cancelled'
    patch: Optional[Patch] = None
    localization: Optional[Localization] = None
    failing_execution: Optional[ExecutionFile] = None
    passing_executions: list[ExecutionFile] = field(default_factory=list)
    candidates_tried: int = 0
    candidates_validated: int = 0
    synthesis_seconds: float = 0.0
    seconds: float = 0.0

    @property
    def found(self) -> bool:
        return self.patch is not None and self.patch.verified

    def summary(self) -> dict:
        return {
            "reason": self.reason,
            "found": self.found,
            "description": self.patch.description if self.patch else None,
            "template": self.patch.candidate.kind if self.patch else None,
            "bindings": dict(self.patch.bindings) if self.patch else None,
            "suspects": [
                s.to_dict() for s in (
                    self.localization.top(5) if self.localization else []
                )
            ],
            "passing_executions": len(self.passing_executions),
            "candidates_tried": self.candidates_tried,
            "candidates_validated": self.candidates_validated,
            "identical_replays": (
                self.patch.validation.identical_replays
                if self.patch and self.patch.validation else 0
            ),
            "seconds": round(self.seconds, 6),
        }


def clone_module(module: ir.Module) -> ir.Module:
    """An independent deep copy candidates can mutate freely."""
    return copy.deepcopy(module)


def repair(
    module: ir.Module,
    report: BugReport,
    *,
    config: Optional[RepairConfig] = None,
    failing: Optional[ExecutionFile] = None,
    passing: Optional[Sequence[ExecutionFile]] = None,
    statics: Optional[StaticAnalysisCache] = None,
    solver: Optional[Solver] = None,
    observer: Optional[SearchObserver] = None,
    should_stop=None,
) -> RepairResult:
    """Run the full localize -> patch -> validate pipeline for one report.

    ``observer`` sees the failing-execution synthesis and one 'progress'
    event per pipeline step."""
    config = config or RepairConfig()
    observer = observer or UNOBSERVED
    started = time.monotonic()

    def emit(detail: str) -> None:
        observer.emit("progress", detail=f"repair: {detail}",
                      seconds=time.monotonic() - started)

    def cancelled() -> bool:
        return should_stop is not None and should_stop()

    # 1. The failing execution (ESD's artifact) -------------------------------
    synthesis_seconds = 0.0
    if failing is None:
        emit("synthesizing the failing execution")
        synthesis = esd_synthesize(
            module, report, config.esd, statics=statics, solver=solver,
            should_stop=should_stop, observer=observer,
        )
        synthesis_seconds = synthesis.total_seconds
        if not synthesis.found:
            return RepairResult(
                reason=("cancelled" if synthesis.reason == "cancelled"
                        else "no-failing-execution"),
                synthesis_seconds=synthesis_seconds,
                seconds=time.monotonic() - started,
            )
        failing = synthesis.execution_file

    # 2. Passing executions ---------------------------------------------------
    passing = list(passing) if passing is not None else []
    if not passing:
        emit("synthesizing passing executions")
        passing = synthesize_passing_executions(
            module, count=config.passing_count, solver=solver,
        )

    # 3. Localization ---------------------------------------------------------
    crash_slice = None
    if config.use_slicing:
        if statics is not None and statics.module is module:
            crash_slice = statics.crash_slice(report)
        else:
            from ..analysis.slice import slice_for_report

            crash_slice = slice_for_report(module, report)
        if crash_slice is not None and not crash_slice.usable:
            crash_slice = None
    emit("localizing from coverage spectra")
    localization = localize(
        module, [failing], passing,
        formula=config.formula, site_boost=config.site_boost,
        slice_lines=crash_slice.lines if crash_slice is not None else None,
        slice_boost=config.slice_boost,
    )

    result = RepairResult(
        reason="no-patch",
        localization=localization,
        failing_execution=failing,
        passing_executions=list(passing),
        synthesis_seconds=synthesis_seconds,
    )

    # Expected behavior of every passing run on the *original* module, the
    # preservation reference (computed once).  A run whose reference cannot
    # be established (non-terminating under concrete scheduling) is dropped
    # alone -- the remaining runs still constrain every candidate.
    usable, expected = [], []
    for execution in passing:
        try:
            expected.append(concrete_behavior(module, execution.inputs))
            usable.append(execution)
        except RuntimeError:
            continue
    passing = usable
    result.passing_executions = list(passing)

    # 4./5. Candidate search --------------------------------------------------
    # In-slice-first: statements the crash slice proves relevant are tried
    # before out-of-slice fallbacks, regardless of raw spectrum score.  The
    # rank recorded on the patch stays the localization rank (1-based over
    # the full ranking), not the visit order.
    ranked = list(localization.suspects)
    if crash_slice is not None:
        ranked = ([s for s in ranked if s.in_slice]
                  + [s for s in ranked if not s.in_slice])
    hole_solver = solver or Solver()
    seen: set[str] = set()
    for suspect in ranked[:config.max_suspects]:
        rank = localization.rank_of(suspect.function, suspect.line) or 0
        if cancelled():
            result.reason = "cancelled"
            break
        if result.candidates_tried >= config.max_candidates:
            break
        for candidate in candidates_for(module, suspect, report.bug_type):
            if cancelled():
                result.reason = "cancelled"
                break
            if result.candidates_tried >= config.max_candidates:
                break
            # The same edit can be generated from two suspects on one line
            # (or two lines of one function); try it once.
            key = canonical_json_bytes(
                [candidate.kind, candidate.function, candidate.params]
            ).decode()
            if key in seen:
                continue
            seen.add(key)
            result.candidates_tried += 1
            patch = _try_candidate(
                module, report, candidate, failing, passing, expected,
                hole_solver, config, should_stop, emit,
            )
            if patch is None:
                continue
            result.candidates_validated += 1
            patch.suspect_rank = rank
            patch.suspect_score = suspect.score
            result.patch = patch
            result.reason = "patched"
            result.seconds = time.monotonic() - started
            emit(f"validated patch: {patch.description}")
            return result
        if result.reason == "cancelled":
            break

    result.seconds = time.monotonic() - started
    return result


def _try_candidate(
    module: ir.Module,
    report: BugReport,
    candidate: PatchCandidate,
    failing: ExecutionFile,
    passing: Sequence[ExecutionFile],
    expected,
    hole_solver: Solver,
    config: RepairConfig,
    should_stop,
    emit,
) -> Optional[Patch]:
    emit(f"trying {candidate.kind} at "
         f"{candidate.function}:{candidate.line}")
    bindings: dict[str, int] = {}
    try:
        if candidate.holes:
            holey = clone_module(module)
            candidate.apply(holey)
            bindings = _solve_candidate_holes(
                holey, candidate, failing, passing, expected,
                hole_solver, config,
            )
            if bindings is None:
                return None
        patched = clone_module(module)
        candidate.apply(patched, bindings=bindings)
    except TemplateError:
        return None

    # Cheap screen before paying for ESD re-synthesis: the failing inputs
    # must terminate without *any* bug (a patch that trades the reported
    # deadlock for a crash is no fix), every passing run must keep its
    # observable behavior.
    try:
        behavior = concrete_behavior(patched, failing.inputs)
        if behavior.status == "bug":
            return None
        for execution, reference in zip(passing, expected):
            actual = concrete_behavior(patched, execution.inputs)
            if actual.status == "bug" or not actual.matches(reference):
                return None
    except RuntimeError:
        return None  # the candidate made a run non-terminating

    validation = validate_patch(
        module, patched, report, passing,
        failing=failing, config=config.esd, expected=expected,
        should_stop=should_stop,
    )
    if not validation.ok:
        return None
    return Patch(
        program=module.name,
        candidate=candidate,
        bindings=bindings,
        validation=validation,
        module=patched,
    )


def _solve_candidate_holes(
    holey: ir.Module,
    candidate: PatchCandidate,
    failing: ExecutionFile,
    passing: Sequence[ExecutionFile],
    expected,
    solver: Solver,
    config: RepairConfig,
) -> Optional[dict[str, int]]:
    caps = {
        "max_states": config.hole_max_states,
        "max_instructions": config.hole_max_instructions,
    }
    failing_paths = explore_with_holes(
        holey, failing.inputs, solver, **caps
    )
    clean = [p for p in failing_paths if p.behavior.status == "exited"]
    if not clean:
        return None
    preserved = []
    for execution, reference in zip(passing, expected):
        paths = explore_with_holes(holey, execution.inputs, solver, **caps)
        preserved.append([
            p for p in paths
            if p.behavior.status != "bug" and p.behavior.matches(reference)
        ])
    return solve_hole_bindings(
        list(candidate.holes), clean, preserved, solver,
        combo_cap=config.combo_cap,
    )
