"""The :class:`ReproSession` facade: ESD as a service (paper section 8).

The paper's usage model is a stream of bug reports against one program:
each report is synthesized, played back, and triaged against earlier bugs.
Since the job-service redesign, a session is a thin *single-tenant facade*
over :class:`~repro.service.ReproService`: it registers its module as one
service program context and delegates synthesis to the service's engine,
so the artifacts every call shares -- the static-analysis cache
(inter-procedural CFG, distance tables, intermediate goals) and the shared
solver with its structural counterexample cache -- live in the service
layer and behave identically whether reached through this facade, a
``synthesize_batch``, or a queued job.

    session = ReproSession.from_source(minic_source)
    result = session.synthesize(report)          # static phase runs here...
    more = session.synthesize_batch(reports)     # ...and is reused here
    playback = session.play_back(result.execution_file)
    outcome = session.triage(another_report)     # duplicate detection

    job = session.submit(report)                 # async: queue on the service
    record = session.wait(job.job_id)            # ... and await the job

``synthesize_portfolio`` runs several :class:`~repro.core.ESDConfig`
variants (seeds, strategies, focusing ablations) concurrently and cancels
the losers as soon as one variant finds the bug.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    from ..distrib import ExplorationCheckpoint
    from ..repair import Localization, RepairConfig, RepairResult

from .. import ir
from ..coredump import BugReport
from ..core.execfile import ExecutionFile
from ..core.synthesis import ESDConfig, StaticStats, SynthesisResult
from ..core.triage import TriageDatabase
from ..lang import compile_source
from ..obs import FlightRecorder, SearchObserver, Tracer
from ..playback import PlaybackResult, play_back
from ..schema import atomic_write_text
from ..search import EventCallback
from ..service import JobRecord, ReproService
from ..solver import CacheStats, SolverStats
from . import registry

Variants = Union[Sequence[ESDConfig], Mapping[str, ESDConfig]]


@dataclass(slots=True)
class BatchResult:
    """Results of one ``synthesize_batch`` call, in report order."""

    results: list[SynthesisResult]

    def __iter__(self) -> Iterator[SynthesisResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def found_count(self) -> int:
        return sum(1 for r in self.results if r.found)

    @property
    def static_seconds(self) -> float:
        """Total static-phase time across the batch; with a warm session
        cache this stays near the single-report cost."""
        return sum(r.static_seconds for r in self.results)

    @property
    def search_seconds(self) -> float:
        return sum(r.search_seconds for r in self.results)

    @property
    def total_seconds(self) -> float:
        return self.static_seconds + self.search_seconds


@dataclass(slots=True)
class PortfolioResult:
    """Outcome of a first-win portfolio run."""

    winner: Optional[SynthesisResult]
    winner_name: Optional[str]
    results: dict[str, SynthesisResult]
    wall_seconds: float
    # Variants that raised instead of returning a result (absent from
    # ``results``); only populated when a winner emerged anyway, since with
    # no winner the first error is re-raised.
    errors: dict[str, BaseException] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.winner is not None

    @property
    def cancelled(self) -> tuple[str, ...]:
        """Variants stopped by first-win cancellation."""
        return tuple(
            name for name, r in self.results.items() if r.reason == "cancelled"
        )

    @property
    def total_instructions(self) -> int:
        """Merged work across all variants (winners, losers, cancelled)."""
        return sum(r.instructions for r in self.results.values())

    @property
    def total_states_explored(self) -> int:
        return sum(r.states_explored for r in self.results.values())


@dataclass(slots=True)
class TriageOutcome:
    """One report pushed through synthesize-then-deduplicate."""

    bug_id: Optional[int]
    is_new: bool
    result: SynthesisResult

    @property
    def synthesized(self) -> bool:
        return self.result.found


class ReproSession:
    """One program, many reports: the single-tenant facade over the
    job service's synthesis engine."""

    def __init__(
        self,
        module: ir.Module,
        *,
        config: Optional[ESDConfig] = None,
        on_progress: Optional[EventCallback] = None,
        workers: Optional[int] = None,
        service: Optional[ReproService] = None,
        source: Optional[str] = None,
        trace: bool = False,
        flight: bool = False,
    ) -> None:
        self.module = module
        self.config = config or ESDConfig()
        self.on_progress = on_progress
        # Default worker count for synthesize(): explicit argument, else the
        # REPRO_WORKERS environment variable (how the CI matrix runs the
        # whole test suite through the parallel pool), else serial.
        if workers is None:
            workers = int(os.environ.get("REPRO_WORKERS", "1") or 1)
        self.default_workers = max(1, workers)
        # The session's backing service: private and in-memory by default
        # (no disk artifacts), or a shared daemon-grade service passed in.
        # A private service is owned: close() stops its scheduler threads
        # (they only start if submit() is used).
        self._owns_service = service is None
        self.service = service or ReproService(default_config=self.config)
        self.program = self.service.register_module(module, source=source)
        # Shared-artifact views, same names as before the redesign: one
        # static cache and one solver/counterexample cache per program,
        # shared by batch, portfolio, and every queued job on this module.
        self.statics = self.program.statics
        self.solver_cache = self.program.solver_cache
        self.solver = self.program.solver
        self.triage_db = TriageDatabase()
        # Observability (``trace=True``): a session-rooted span tracer that
        # every synthesize/batch/portfolio call reports into.  The tracer
        # is attached to the session's solver -- safe because the session
        # is single-tenant over its program -- so slow queries appear as
        # solver-query spans.  Timing lives only in the trace document;
        # synthesized artifacts stay byte-identical with tracing on or off.
        self.tracer = Tracer(enabled=trace)
        self._session_span = (
            self.tracer.begin("session", "session", {"module": module.name})
            if trace else None
        )
        if trace:
            self.solver.tracer = self.tracer
        # Flight recording (``flight=True``): a session-lifetime search
        # flight recorder every synthesize() call reports into.  Like the
        # tracer it only observes -- recorded synthesis stays byte-identical
        # to unrecorded -- and the log exports via :meth:`flight_document`.
        self.flight = FlightRecorder(enabled=flight)

    @classmethod
    def from_source(
        cls,
        source: str,
        name: str = "main",
        *,
        config: Optional[ESDConfig] = None,
        on_progress: Optional[EventCallback] = None,
        service: Optional[ReproService] = None,
    ) -> "ReproSession":
        """A session over MiniC source.  The source text travels into the
        service program context, so queued jobs from this session are
        recoverable and dedupe against wire submissions of the same
        program."""
        return cls(compile_source(source, name), config=config,
                   on_progress=on_progress, service=service, source=source)

    def close(self) -> None:
        """Release the backing service's scheduler threads.

        Only needed after :meth:`submit` (inline synthesis never starts
        them), and only when the session owns its service -- a shared
        service passed into the constructor is left running."""
        if self._owns_service:
            self.service.shutdown(graceful=False, timeout=10.0)

    def __enter__(self) -> "ReproSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def static_stats(self) -> StaticStats:
        """Build/hit counters for the shared static-phase cache."""
        return self.statics.stats

    @property
    def solver_stats(self) -> SolverStats:
        """Query/hit/fast-path counters for the session's shared solver."""
        return self.solver.stats

    @property
    def solver_cache_stats(self) -> CacheStats:
        """Counters for the structural counterexample cache (all hit kinds)."""
        return self.solver_cache.stats

    # -- synthesis -----------------------------------------------------------

    def synthesize(
        self,
        report: BugReport,
        config: Optional[ESDConfig] = None,
        *,
        on_progress: Optional[EventCallback] = None,
        should_stop=None,
        workers: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: float = 5.0,
        handle_signals: bool = False,
    ) -> SynthesisResult:
        """Synthesize one report, reusing the session's static artifacts
        and its shared solver/counterexample cache.

        ``workers > 1`` routes the search phase through the parallel
        exploration pool (:class:`~repro.distrib.ParallelExplorer`): the
        frontier is sharded by proximity-score bands across worker
        processes with work-stealing and first-win cancellation.  Omitted,
        the session default applies (constructor ``workers`` argument or
        the ``REPRO_WORKERS`` environment variable).  ``checkpoint_path``
        writes periodic frontier checkpoints there (implies the pool even
        with one worker) for :meth:`resume`; ``handle_signals`` makes the
        pool catch SIGTERM/SIGINT and write a final checkpoint before
        returning (reason ``'interrupted'``).

        ``should_stop`` callers (the portfolio path runs variants on
        threads) always get the serial engine: forking a process pool from
        a multi-threaded parent is not safe.
        """
        workers = workers if workers is not None else self.default_workers
        return self.service.synthesize(
            self.program,
            report,
            config or self.config,
            should_stop=should_stop,
            workers=workers,
            checkpoint_path=checkpoint_path,
            checkpoint_interval=checkpoint_interval,
            handle_signals=handle_signals,
            observer=self._observer(on_progress),
        )

    def _observer(self, on_progress: Optional[EventCallback]
                  ) -> Optional[SearchObserver]:
        """One call's observer over the session's tracer, flight recorder
        and progress callback; None when nothing observes."""
        on_event = on_progress or self.on_progress
        if not (self.tracer.enabled or self.flight.enabled or on_event):
            return None
        return SearchObserver(tracer=self.tracer, flight=self.flight,
                              on_event=on_event)

    # -- async jobs ----------------------------------------------------------

    def submit(
        self,
        report: BugReport,
        config: Optional[ESDConfig] = None,
        *,
        priority: int = 0,
        kind: str = "synth",
        repair_config=None,
    ) -> JobRecord:
        """Queue the report as an asynchronous job on the backing service.

        Returns the :class:`~repro.api.jobs.JobRecord` immediately; poll it
        via :meth:`job` or block with :meth:`wait`.  Identical submissions
        dedupe to one job via the spec's store digest.  ``kind='repair'``
        queues the automated-repair pipeline (needs a session built from
        source); ``repair_config`` may be a
        :class:`~repro.repair.RepairConfig` or its dict form."""
        if repair_config is not None and not isinstance(repair_config, dict):
            repair_config = repair_config.to_dict()
        return self.service.submit_report(
            self.program, report, config or self.config, priority=priority,
            kind=kind, repair_config=repair_config,
        )

    def job(self, job_id: str) -> JobRecord:
        return self.service.job(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        return self.service.wait(job_id, timeout=timeout)

    def resume(
        self,
        checkpoint: "ExplorationCheckpoint",
        *,
        workers: Optional[int] = None,
        on_progress: Optional[EventCallback] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: float = 5.0,
        handle_signals: bool = False,
    ) -> SynthesisResult:
        """Continue a checkpointed synthesis (see :meth:`from_checkpoint`).

        The resumed leg gets a fresh budget allowance from the checkpoint's
        config; reported totals accumulate across legs.  ``checkpoint_path``
        keeps checkpointing the resumed run (pass the same path to make the
        file a rolling checkpoint)."""
        from ..distrib import ParallelExplorer

        if checkpoint.module is not self.module:
            raise ValueError(
                "checkpoint was not made for this session's module; "
                "use ReproSession.from_checkpoint(checkpoint)"
            )
        pool = ParallelExplorer(
            self.module,
            checkpoint.report,
            checkpoint.config,
            workers=workers if workers is not None else checkpoint.workers,
            statics=self.statics,
            solver=self.solver,
            observer=self._observer(on_progress),
            checkpoint_path=checkpoint_path,
            checkpoint_interval=checkpoint_interval,
            handle_signals=handle_signals,
        )
        return pool.resume(checkpoint)

    @classmethod
    def from_checkpoint(
        cls,
        checkpoint: "ExplorationCheckpoint",
        *,
        on_progress: Optional[EventCallback] = None,
    ) -> "ReproSession":
        """A session over the module embedded in an exploration checkpoint."""
        return cls(checkpoint.module, config=checkpoint.config,
                   on_progress=on_progress)

    def synthesize_batch(
        self,
        reports: Sequence[BugReport],
        config: Optional[ESDConfig] = None,
        *,
        on_progress: Optional[EventCallback] = None,
        workers: Optional[int] = None,
    ) -> BatchResult:
        """Synthesize a stream of reports; static analysis is amortized
        across the whole batch.  ``workers`` routes every report through
        the parallel exploration pool."""
        return BatchResult([
            self.synthesize(report, config, on_progress=on_progress,
                            workers=workers)
            for report in reports
        ])

    def synthesize_portfolio(
        self,
        report: BugReport,
        variants: Variants,
        *,
        max_workers: Optional[int] = None,
        on_progress: Optional[EventCallback] = None,
    ) -> PortfolioResult:
        """Run several config variants concurrently; first win cancels the
        rest.

        ``variants`` is a mapping of name -> :class:`ESDConfig` or a plain
        sequence of configs (named ``v0``, ``v1``, ...).  The winner is the
        first variant to return a found result; every other variant is
        cancelled cooperatively and reports reason ``'cancelled'``.

        Unknown strategy names raise before any variant starts.  If a
        variant raises mid-run and no winner emerges, the others are
        cancelled and the first error re-raised; errored variants are
        absent from ``results``.
        """
        named = self._named_variants(variants)
        # Fail fast on config typos: a bad strategy name must not cost the
        # other variants their full search budgets.
        for _, variant in named:
            registry.get_searcher(variant.strategy)
        cancel = threading.Event()
        results: dict[str, SynthesisResult] = {}
        errors: dict[str, BaseException] = {}
        winner: Optional[SynthesisResult] = None
        winner_name: Optional[str] = None
        started = time.monotonic()

        def run(name: str, variant: ESDConfig):
            try:
                return name, self.synthesize(
                    report, variant,
                    on_progress=on_progress,
                    should_stop=cancel.is_set,
                ), None
            except BaseException as exc:  # noqa: BLE001 -- re-raised below
                return name, None, exc

        with ThreadPoolExecutor(max_workers=max_workers or len(named)) as pool:
            futures = [pool.submit(run, name, cfg) for name, cfg in named]
            for future in as_completed(futures):
                name, result, exc = future.result()
                if exc is not None:
                    # Cancel the surviving variants so the error surfaces
                    # promptly instead of after their full budgets.
                    errors[name] = exc
                    cancel.set()
                    continue
                results[name] = result
                if result.found and winner is None:
                    winner, winner_name = result, name
                    cancel.set()
        if winner is None and errors:
            raise next(iter(errors.values()))
        # Report in variant order, not completion order.
        ordered = {name: results[name] for name, _ in named if name in results}
        return PortfolioResult(
            winner=winner,
            winner_name=winner_name,
            results=ordered,
            wall_seconds=time.monotonic() - started,
            errors=errors,
        )

    @staticmethod
    def _named_variants(variants: Variants) -> list[tuple[str, ESDConfig]]:
        if isinstance(variants, Mapping):
            named = list(variants.items())
        else:
            named = [(f"v{i}", cfg) for i, cfg in enumerate(variants)]
        if not named:
            raise ValueError("portfolio needs at least one variant")
        return named

    # -- playback & triage ---------------------------------------------------

    def play_back(
        self,
        execution: ExecutionFile,
        mode: str = "strict",
        max_steps: int = 10_000_000,
    ) -> PlaybackResult:
        """Deterministically replay a synthesized execution."""
        with self.tracer.span("phase:replay", "phase", {"mode": mode}):
            return play_back(self.module, execution, mode=mode,
                             max_steps=max_steps)

    # -- observability -------------------------------------------------------

    def trace_document(self, meta: Optional[dict] = None) -> dict:
        """The session's spans as an ``esd-trace-v1`` document.

        Valid whenever the session was built with ``trace=True``; spans
        still open (including the root session span) are exported with
        their current duration and the tracer keeps recording, so this
        can be called repeatedly as the session accumulates work.
        """
        base = {"module": self.module.name}
        if meta:
            base.update(meta)
        return self.tracer.to_document(meta=base)

    def save_trace(self, path, meta: Optional[dict] = None) -> dict:
        """Write :meth:`trace_document` to ``path`` as JSON; returns it."""
        import json as _json

        doc = self.trace_document(meta=meta)
        atomic_write_text(path, _json.dumps(doc, indent=2) + "\n")
        return doc

    def flight_document(self, meta: Optional[dict] = None) -> dict:
        """The session's search log as an ``esd-searchlog-v1`` document.

        Valid whenever the session was built with ``flight=True``; the
        recorder keeps appending across synthesize() calls, so this can
        be exported repeatedly as the session accumulates searches.
        """
        base = {"module": self.module.name}
        if meta:
            base.update(meta)
        return self.flight.to_document(meta=base)

    def save_flight(self, path, meta: Optional[dict] = None) -> dict:
        """Write :meth:`flight_document` to ``path`` as JSON; returns it."""
        import json as _json

        doc = self.flight_document(meta=meta)
        atomic_write_text(path, _json.dumps(doc, indent=2) + "\n")
        return doc

    def metrics(self) -> dict:
        """The backing service's unified ``esd-metrics-v1`` snapshot.

        Covers this session's program (solver, cache, static, executor
        counters) plus any other programs registered on a shared service.
        """
        return self.service.metrics_snapshot()

    def triage(
        self,
        report: BugReport,
        config: Optional[ESDConfig] = None,
    ) -> TriageOutcome:
        """Synthesize a report and deduplicate it against the session's
        triage database (identical synthesized executions = same bug)."""
        result = self.synthesize(report, config)
        if not result.found:
            return TriageOutcome(bug_id=None, is_new=False, result=result)
        assert result.execution_file is not None
        bug_id, is_new = self.triage_db.submit(result.execution_file)
        return TriageOutcome(bug_id=bug_id, is_new=is_new, result=result)

    # -- repair --------------------------------------------------------------

    def localize(
        self,
        report: BugReport,
        *,
        failing: Optional[ExecutionFile] = None,
        passing: Optional[Sequence[ExecutionFile]] = None,
        passing_count: int = 4,
        formula: str = "ochiai",
        config: Optional[ESDConfig] = None,
    ) -> "Localization":
        """Rank suspect statements for a report (repair step 1 standalone).

        The failing execution is synthesized from the report unless given;
        passing executions are synthesized from clean symbolic terminations
        unless given.  Both reuse the session's shared static artifacts and
        solver."""
        from ..repair import (
            LocalizationError,
            localize as run_localize,
            synthesize_passing_executions,
        )

        if failing is None:
            result = self.synthesize(report, config, workers=1)
            if not result.found:
                raise LocalizationError(
                    f"cannot localize: synthesis found no failing execution "
                    f"({result.reason})"
                )
            failing = result.execution_file
        if passing is None:
            passing = synthesize_passing_executions(
                self.module, count=passing_count, solver=self.solver,
            )
        return run_localize(self.module, [failing], passing, formula=formula)

    def repair(
        self,
        report: BugReport,
        *,
        config: Optional["RepairConfig"] = None,
        failing: Optional[ExecutionFile] = None,
        passing: Optional[Sequence[ExecutionFile]] = None,
        on_progress: Optional[EventCallback] = None,
        should_stop=None,
    ) -> "RepairResult":
        """The full localize -> patch -> validate pipeline for one report,
        on the session's shared static artifacts and solver.  Returns a
        :class:`~repro.repair.RepairResult` whose ``patch`` (when found) is
        a serializable, re-applicable edit validated by the paper's
        criterion."""
        from ..repair import RepairConfig as _RepairConfig, repair as run_repair

        if config is None:
            config = _RepairConfig()
        if config.esd is None:
            # Inherit the session's synthesis budget for the failing-execution
            # synthesis and the validation re-synthesis -- on a private copy,
            # never by mutating the caller's config object.
            config = _RepairConfig.from_dict(config.to_dict())
            config.esd = self.config
        return run_repair(
            self.module,
            report,
            config=config,
            failing=failing,
            passing=passing,
            statics=self.statics,
            solver=self.solver,
            observer=self._observer(on_progress),
            should_stop=should_stop,
        )
