"""ReproService: the job-oriented synthesis service.

Where :class:`~repro.api.ReproSession` is one caller synthesizing inline,
``ReproService`` is the multi-tenant layer behind the ``repro serve``
daemon: callers submit :class:`~repro.api.jobs.JobSpec` documents and get
back job ids; a bounded pool of scheduler threads drains a priority queue;
every artifact a job produces lands in a content-addressed
:class:`~repro.store.ArtifactStore` under its digest.

The scaling properties the session API established carry over wholesale,
because jobs on the same program share one :class:`ServiceProgram` context:
the compiled module, the :class:`~repro.core.StaticAnalysisCache`, and the
session-style shared solver + structural counterexample cache.  N
concurrent jobs against one module perform static analysis exactly once
and share solver learnings, just like a ``synthesize_batch`` -- that is
what makes the service the cheap path for heavy report streams.

Lifecycle and durability:

* duplicate submissions dedupe on the spec's store digest -- the identical
  spec maps to the identical job;
* ``cancel`` flips a queued job straight to ``CANCELLED`` and stops a
  running one cooperatively at the next search pick;
* ``shutdown(graceful=True)`` (what SIGTERM to ``repro serve`` triggers)
  interrupts running jobs, snapshots each one's frontier into a checkpoint
  artifact, and re-queues the job -- a restarted service ``recover()``s the
  queue from the store and resumes from the checkpoint instead of redoing
  the work.

Queued jobs always run the serial search engine: scheduler threads must
not fork a process pool out of a multi-threaded daemon.  (The inline
:meth:`synthesize` path used by ``ReproSession`` still routes through
:class:`~repro.distrib.ParallelExplorer` when the caller asks for
``workers > 1``.)
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .. import ir
from ..api.jobs import (
    CANCELLED,
    EXHAUSTED,
    FAILED,
    FOUND,
    QUEUED,
    RUNNING_STATES,
    SEARCHING,
    STATIC,
    JobError,
    JobRecord,
    JobSpec,
    ResultNotReadyError,
    UnknownJobError,
)
from ..coredump import BugReport
from ..core.synthesis import (
    ESDConfig,
    StaticAnalysisCache,
    SynthesisResult,
    build_search_setup,
    esd_synthesize,
    search_from_setup,
)
from ..gcpause import collector_stats
from ..lang import compile_source
from ..obs import (
    DEFAULT_TIME_BUCKETS,
    FlightRecorder,
    MetricsRegistry,
    SearchObserver,
    Tracer,
)
from ..schema import canonical_json_bytes, content_digest
from ..search import StopPredicate
from ..solver import CounterexampleCache, Solver
from ..store import ArtifactStore
from ..symbex.executor import ExecStats

__all__ = ["ReproService", "ServiceProgram", "ServiceStats"]


class ServiceProgram:
    """One registered program and the artifacts concurrent jobs share."""

    def __init__(self, key: str, module: ir.Module,
                 source: Optional[str] = None,
                 lang: str = "esd") -> None:
        self.key = key
        self.module = module
        self.source = source
        self.lang = lang
        self.statics = StaticAnalysisCache(module)
        # One reentrant solver + locked structural counterexample cache per
        # program, shared by every job and inline call on it (PR 2's
        # session-style sharing, promoted to the service layer).
        self.solver_cache = CounterexampleCache()
        self.solver = Solver(cache=self.solver_cache)
        # Cumulative executor counters across every serial run on this
        # program (each run builds a throwaway Executor; the service folds
        # its stats in here so the metrics registry has a durable source).
        self.exec_totals = ExecStats()
        self.prune_totals: dict[str, int] = {}
        self._totals_lock = threading.Lock()

    @property
    def static_stats(self):
        return self.statics.stats

    def absorb_executor(self, executor) -> None:
        """Fold a finished run's executor counters into this program's
        cumulative totals (counters only ever grow -- interval readings
        come from snapshot deltas, never from resets)."""
        with self._totals_lock:
            for f in dataclasses.fields(self.exec_totals):
                setattr(self.exec_totals, f.name,
                        getattr(self.exec_totals, f.name)
                        + getattr(executor.stats, f.name))
            prune = getattr(executor, "prune_stats", None)
            if prune is not None:
                for name, value in prune.to_dict().items():
                    if isinstance(value, (int, float)):
                        self.prune_totals[name] = (
                            self.prune_totals.get(name, 0) + value
                        )


@dataclass(slots=True)
class ServiceStats:
    """Aggregate scheduling counters (`repro serve` reports these)."""

    submitted: int = 0
    deduped: int = 0
    completed: int = 0
    cancelled: int = 0
    failed: int = 0
    interrupted: int = 0
    recovered: int = 0

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "deduped": self.deduped,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "failed": self.failed,
            "interrupted": self.interrupted,
            "recovered": self.recovered,
        }


@dataclass(slots=True)
class _Work:
    """Runtime payload behind one queued job."""

    spec: Optional[JobSpec] = None
    program: Optional[ServiceProgram] = None  # pre-resolved (facade submits)
    report: Optional[BugReport] = None
    config: Optional[ESDConfig] = None
    seq: int = 0


def _result_summary(result: SynthesisResult) -> dict:
    return {
        "found": result.found,
        "reason": result.reason,
        "static_seconds": result.static_seconds,
        "search_seconds": result.search_seconds,
        "instructions": result.instructions,
        "states_explored": result.states_explored,
        "other_bugs": result.other_bugs,
        "intermediate_goal_count": result.intermediate_goal_count,
    }


class ReproService:
    """Job queue + bounded scheduler over shared per-program artifacts."""

    def __init__(
        self,
        *,
        store: Optional[ArtifactStore] = None,
        store_root=None,
        max_workers: int = 2,
        default_config: Optional[ESDConfig] = None,
        recover: bool = True,
        trace_jobs: bool = False,
        record_flight: bool = False,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        # Not `store or ...`: an empty ArtifactStore has len() == 0 and
        # would be replaced by a fresh in-memory one.
        self.store = store if store is not None else ArtifactStore(store_root)
        self.max_workers = max_workers
        self.default_config = default_config or ESDConfig()
        self.stats = ServiceStats()
        self.trace_jobs = trace_jobs
        self.record_flight = record_flight
        self._started = time.time()
        # Thread name -> last time the scheduler loop was seen alive, for
        # the /healthz per-worker heartbeat ages.
        self._heartbeats: dict[str, float] = {}
        # Cumulative buffer-pressure counters folded in from finished
        # jobs' tracers/recorders (the esd_obs_* metric families).
        self._obs_totals: dict[str, int] = {
            "trace_dropped_spans": 0,
            "trace_span_high_water": 0,
            "flight_dropped_records": 0,
            "flight_record_high_water": 0,
        }

        self._lock = threading.RLock()
        self._cv = threading.Condition(self._lock)
        self._records: dict[str, JobRecord] = {}
        self._work: dict[str, _Work] = {}
        self._by_digest: dict[str, str] = {}
        self._queue: list[tuple[int, int, str]] = []  # (-priority, seq, id)
        self._cancels: dict[str, threading.Event] = {}
        self._programs: dict[str, ServiceProgram] = {}
        self._module_keys: dict[int, str] = {}  # id(module) -> key
        self._threads: list[threading.Thread] = []
        self._seq = 0
        self._closed = False
        self._stop = threading.Event()       # scheduler threads exit
        self._interrupt = threading.Event()  # graceful drain: checkpoint+requeue
        self._busy = 0                       # scheduler threads inside _execute
        self.registry = self._build_registry()
        if recover and self.store.persistent:
            self.recover()

    # -- program registry ------------------------------------------------------

    def register_module(self, module: ir.Module,
                        source: Optional[str] = None,
                        lang: str = "esd") -> ServiceProgram:
        """Register an already-compiled module (the session facade's path).

        With ``source`` given, the context is keyed by the source digest and
        therefore shared with wire jobs submitting the same program text.
        """
        with self._lock:
            key = self._module_keys.get(id(module))
            if key is None:
                if source is not None:
                    key = self._source_key(source, module.name, lang)
                else:
                    key = f"module:{module.name}#{len(self._programs)}"
            program = self._programs.get(key)
            if program is None:
                program = ServiceProgram(key, module, source, lang=lang)
                self._programs[key] = program
            self._module_keys[id(module)] = key
            return program

    def program_for_source(self, source: str, name: str = "main",
                           lang: str = "esd") -> ServiceProgram:
        """Compile-once program context for source text (MiniC or, with
        ``lang='python'``, the real-Python frontend)."""
        key = self._source_key(source, name, lang)
        with self._lock:
            program = self._programs.get(key)
            if program is None:
                if lang == "python":
                    from ..frontend import compile_python_source

                    module = compile_python_source(source, name)
                else:
                    module = compile_source(source, name)
                program = ServiceProgram(key, module, source, lang=lang)
                self._programs[key] = program
                self._module_keys[id(program.module)] = key
            return program

    def program_for_workload(self, name: str) -> ServiceProgram:
        from ..workloads import ALL, get  # lazy: workloads pull in baselines

        if name not in ALL:
            raise JobError(
                f"unknown workload {name!r}; available: "
                f"{', '.join(sorted(ALL))}"
            )
        workload = get(name)
        key = f"workload:{name}"
        with self._lock:
            program = self._programs.get(key)
            if program is None:
                program = ServiceProgram(key, workload.compile(),
                                         workload.source,
                                         lang=workload.lang)
                self._programs[key] = program
                self._module_keys[id(program.module)] = key
            return program

    def programs(self) -> dict[str, ServiceProgram]:
        with self._lock:
            return dict(self._programs)

    @staticmethod
    def _source_key(source: str, name: str, lang: str = "esd") -> str:
        return "src:" + content_digest(
            canonical_json_bytes([name, source, lang])
        )[:16]

    def _program_for_work(self, work: _Work) -> ServiceProgram:
        if work.program is not None:
            return work.program
        spec = work.spec
        assert spec is not None
        if spec.workload is not None:
            return self.program_for_workload(spec.workload)
        return self.program_for_source(spec.source, spec.program_name,
                                       lang=spec.lang)

    # -- observability ---------------------------------------------------------

    def _build_registry(self) -> MetricsRegistry:
        """The service-wide metrics surface (``/metrics``, ``repro stats``).

        Scheduling counters and per-program pipeline stats are *bound*, not
        copied: the registry samples the live dataclasses at snapshot time
        and sums across programs, so readings are always cumulative.
        Interval measurements subtract two snapshots (``counters_delta``) --
        nothing here is ever reset.
        """
        registry = MetricsRegistry()
        registry.bind_stats("esd_service_jobs", lambda: self.stats,
                            help_="service job lifecycle counters")

        def programs() -> list[ServiceProgram]:
            with self._lock:
                return list(self._programs.values())

        registry.bind_stats(
            "esd_solver", lambda: [p.solver.stats for p in programs()],
            help_="solver query counters across programs")
        registry.bind_stats(
            "esd_solver_cache",
            lambda: [p.solver_cache.stats for p in programs()],
            help_="counterexample cache counters across programs")
        registry.bind_stats(
            "esd_static", lambda: [p.static_stats for p in programs()],
            help_="static analysis cache counters across programs")
        registry.bind_stats(
            "esd_exec", lambda: [p.exec_totals for p in programs()],
            help_="symbolic executor counters across programs")
        registry.bind_stats(
            "esd_wp", lambda: [p.prune_totals for p in programs()],
            help_="weakest-precondition pruning counters across programs")

        def obs_dropped() -> dict[str, int]:
            with self._lock:
                return {
                    "trace_dropped_spans":
                        self._obs_totals["trace_dropped_spans"],
                    "flight_dropped_records":
                        self._obs_totals["flight_dropped_records"],
                }

        registry.bind_stats(
            "esd_obs", obs_dropped,
            help_="observability buffer pressure across finished jobs")
        registry.bind_stats(
            "esd_gc", collector_stats, label="generation",
            help_="cyclic garbage collector counters per generation")

        def queue_depth() -> float:
            with self._lock:
                return float(sum(1 for r in self._records.values()
                                 if r.state == QUEUED))

        def in_flight() -> float:
            with self._lock:
                return float(sum(1 for r in self._records.values()
                                 if r.state in RUNNING_STATES))

        def workers_alive() -> float:
            with self._lock:
                return float(sum(1 for t in self._threads if t.is_alive()))

        def cache_hit_rate() -> float:
            lookups = hits = 0
            for p in programs():
                stats = p.solver_cache.stats
                lookups += stats.lookups
                hits += stats.hits
            return hits / lookups if lookups else 0.0

        registry.gauge("esd_service_queue_depth",
                       "jobs waiting in the priority queue", fn=queue_depth)
        registry.gauge("esd_service_jobs_inflight",
                       "jobs currently in a running state", fn=in_flight)
        registry.gauge("esd_service_workers_alive",
                       "live scheduler threads", fn=workers_alive)
        registry.gauge("esd_service_workers_busy",
                       "scheduler threads executing a job",
                       fn=lambda: float(self._busy))
        registry.gauge("esd_service_programs",
                       "registered program contexts",
                       fn=lambda: float(len(self.programs())))
        registry.gauge("esd_solver_cache_hit_rate",
                       "counterexample cache hit rate across programs",
                       fn=cache_hit_rate)

        def obs_high_water(key: str) -> Callable[[], float]:
            def read() -> float:
                with self._lock:
                    return float(self._obs_totals[key])
            return read

        registry.gauge("esd_obs_trace_span_high_water",
                       "max spans ever buffered by one job's tracer",
                       fn=obs_high_water("trace_span_high_water"))
        registry.gauge("esd_obs_flight_record_high_water",
                       "max records ever buffered by one job's recorder",
                       fn=obs_high_water("flight_record_high_water"))
        registry.histogram("esd_job_seconds",
                           "wall-clock seconds per completed job",
                           buckets=DEFAULT_TIME_BUCKETS)
        return registry

    def metrics_snapshot(self) -> dict:
        """Point-in-time ``esd-metrics-v1`` document for every metric."""
        return self.registry.snapshot(meta={"component": "service"})

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        return self.registry.to_prometheus()

    def health(self) -> dict:
        """Liveness + load summary (the daemon's enriched ``/healthz``)."""
        from .. import __version__
        from ..api.jobs import JOBRECORD_FORMAT, JOBSPEC_FORMAT
        from ..obs import FLIGHT_FORMAT, METRICS_FORMAT, TRACE_FORMAT

        now = time.time()
        with self._lock:
            states: dict[str, int] = {}
            for record in self._records.values():
                states[record.state] = states.get(record.state, 0) + 1
            queue_depth = states.get(QUEUED, 0)
            in_flight = sum(states.get(s, 0) for s in RUNNING_STATES)
            alive = sum(1 for t in self._threads if t.is_alive())
            busy = self._busy
            programs = len(self._programs)
            cache_lookups = cache_hits = 0
            for p in self._programs.values():
                cache_lookups += p.solver_cache.stats.lookups
                cache_hits += p.solver_cache.stats.hits
            heartbeats = {
                name: round(now - seen, 3)
                for name, seen in sorted(self._heartbeats.items())
            }
            obs = dict(self._obs_totals)
        return {
            "ok": True,
            "version": __version__,
            "uptime_seconds": round(now - self._started, 3),
            "schemas": {
                "jobspec": JOBSPEC_FORMAT,
                "jobrecord": JOBRECORD_FORMAT,
                "trace": TRACE_FORMAT,
                "metrics": METRICS_FORMAT,
                "searchlog": FLIGHT_FORMAT,
            },
            "jobs": states,
            "queue_depth": queue_depth,
            "in_flight": in_flight,
            "workers": {"alive": alive, "busy": busy,
                        "max": self.max_workers,
                        "heartbeat_age_seconds": heartbeats},
            "programs": programs,
            "solver_cache": {
                "lookups": cache_lookups,
                "hits": cache_hits,
                "hit_rate": (cache_hits / cache_lookups
                             if cache_lookups else 0.0),
            },
            "obs": obs,
            "stats": self.stats.to_dict(),
        }

    # -- submission ------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Queue a wire-form job; identical specs dedupe to one job."""
        spec.validate()
        digest = spec.digest()
        work = _Work(spec=spec, config=spec.config, report=spec.report)
        return self._enqueue(digest, spec.priority, work,
                             spec_bytes=spec.canonical_bytes())

    def submit_report(
        self,
        program: ServiceProgram,
        report: BugReport,
        config: Optional[ESDConfig] = None,
        *,
        priority: int = 0,
        kind: str = "synth",
        repair_config: Optional[dict] = None,
    ) -> JobRecord:
        """Queue a job against an already-registered program (the session
        facade's async path).  When the program has source text the job is
        stored as a full recoverable spec; otherwise it is ephemeral."""
        if kind != "synth" and program.source is None:
            raise JobError(
                f"{kind!r} jobs need a program with source text "
                f"(module-only registrations cannot be re-run)"
            )
        if program.source is not None:
            spec = JobSpec(report=report, source=program.source,
                           program_name=program.module.name,
                           lang=program.lang,
                           config=config, priority=priority,
                           kind=kind, repair_config=repair_config)
            record = self.submit(spec)
            with self._lock:
                # Pin the already-registered context so the job skips the
                # source-digest lookup.  A dedup hit on a record recovered
                # from a persistent store has no live work entry (terminal
                # jobs never re-run) -- nothing to pin then.
                work = self._work.get(record.job_id)
                if work is not None:
                    work.program = program
            return record
        payload = canonical_json_bytes({
            "program_key": program.key,
            "report": report.to_dict(),
            "config": config.to_dict() if config else None,
            "priority": priority,
        })
        work = _Work(program=program, report=report, config=config)
        return self._enqueue(content_digest(payload), priority, work,
                             ephemeral=True)

    def _enqueue(self, digest: str, priority: int, work: _Work, *,
                 spec_bytes: Optional[bytes] = None,
                 ephemeral: bool = False) -> JobRecord:
        with self._cv:
            if self._closed:
                raise JobError("service is shut down")
            existing_id = self._by_digest.get(digest)
            if existing_id is not None:
                existing = self._records[existing_id]
                if existing.state not in (CANCELLED, FAILED):
                    existing.deduped = True
                    self.stats.deduped += 1
                    return existing
            self._seq += 1
            job_id = f"j{self._seq:05d}-{digest[:8]}"
            record = JobRecord(job_id, digest, priority=priority,
                               created_at=time.time(), ephemeral=ephemeral)
            if spec_bytes is not None:
                record.artifacts["spec"] = self.store.put_bytes(
                    spec_bytes, kind="jobspec"
                )
            record.add_event("state", state=QUEUED)
            work.seq = self._seq
            self._records[job_id] = record
            self._work[job_id] = work
            self._by_digest[digest] = job_id
            heapq.heappush(self._queue, (-priority, self._seq, job_id))
            self.stats.submitted += 1
            self._persist(record)
            self._ensure_workers()
            self._cv.notify_all()
            return record

    # -- queries ---------------------------------------------------------------

    def job(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise UnknownJobError(job_id)
            return record

    def jobs(self) -> list[JobRecord]:
        with self._lock:
            return sorted(self._records.values(),
                          key=lambda r: r.created_at)

    def describe(self, job_id: str) -> dict:
        """A point-in-time JSON view of one record (what the daemon serves)."""
        with self._lock:
            return self.job(job_id).to_dict()

    def describe_all(self) -> list[dict]:
        """JSON views of every record, serialized under the lock so a
        scheduler thread cannot mutate a record mid-serialization."""
        with self._lock:
            return [record.to_dict() for record in self.jobs()]

    def events(self, job_id: str, since: int = 0) -> list[dict]:
        with self._lock:
            return [e.to_dict() for e in self.job(job_id).events
                    if e.seq > since]

    def result(self, job_id: str) -> JobRecord:
        """The terminal record; raises while the job is still in flight."""
        with self._lock:
            record = self.job(job_id)
            if not record.terminal:
                raise ResultNotReadyError(
                    f"job {job_id} is {record.state}, not finished"
                )
            return record

    def fetch_artifact(self, job_id: str, kind: str = "execution") -> bytes:
        with self._lock:
            record = self.job(job_id)
            digest = record.artifacts.get(kind)
        if digest is None:
            raise ResultNotReadyError(
                f"job {job_id} has no {kind!r} artifact yet "
                f"(state {record.state})"
            )
        return self.store.get_bytes(digest)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until the job reaches a terminal state (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while True:
                record = self.job(job_id)
                if record.terminal:
                    return record
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return record
                self._cv.wait(remaining if remaining is not None else 0.5)

    def gc(self) -> list[str]:
        """Sweep store objects not referenced by any job record."""
        with self._lock:
            live = {digest for record in self._records.values()
                    for digest in record.artifacts.values()}
        return self.store.gc(live)

    # -- cancellation and shutdown ---------------------------------------------

    def cancel(self, job_id: str) -> JobRecord:
        with self._cv:
            record = self.job(job_id)
            if record.terminal:
                return record
            if record.state == QUEUED:
                record.transition(CANCELLED, reason="cancelled",
                                  detail="cancelled while queued")
                self.stats.cancelled += 1
                self._prune(job_id)
                self._persist(record)
                self._cv.notify_all()
            else:
                # Running: cooperative stop at the next search pick.
                self._cancels.setdefault(job_id, threading.Event()).set()
            return record

    def shutdown(self, graceful: bool = True, timeout: float = 30.0) -> None:
        """Stop scheduling.  ``graceful`` interrupts running jobs, writes
        their frontier checkpoints, and re-queues them as resumable; the
        queue itself survives in the store for :meth:`recover`."""
        with self._cv:
            self._closed = True
            self._stop.set()
            if graceful:
                self._interrupt.set()
            else:
                for job_id, record in self._records.items():
                    if record.state in RUNNING_STATES:
                        self._cancels.setdefault(
                            job_id, threading.Event()
                        ).set()
            self._cv.notify_all()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.1, deadline - time.monotonic()))

    def recover(self) -> int:
        """Reload job records from a persistent store and re-queue every
        non-terminal job.  Jobs that were RUNNING when the process died
        (hard kill, no checkpoint) restart from scratch."""
        recovered = 0
        with self._cv:
            for job_id, data in self.store.load_jobs().items():
                if job_id in self._records:
                    continue
                record = JobRecord.from_dict(data)
                self._records[record.job_id] = record
                if record.state not in (CANCELLED, FAILED):
                    self._by_digest[record.spec_digest] = record.job_id
                try:
                    seq = int(record.job_id[1:].split("-", 1)[0])
                except ValueError:
                    seq = 0
                self._seq = max(self._seq, seq)
                if record.state in RUNNING_STATES:
                    record.interruptions += 1
                    record.transition(QUEUED,
                                      detail="recovered after hard stop")
                    self._persist(record)
                if record.state != QUEUED:
                    continue
                if "spec" not in record.artifacts:
                    record.transition(
                        FAILED,
                        detail="ephemeral job cannot be recovered",
                    )
                    record.error = "ephemeral job cannot be recovered"
                    self._persist(record)
                    continue
                spec = JobSpec.from_dict(
                    self.store.get_json(record.artifacts["spec"])
                )
                self._work[job_id] = _Work(spec=spec, report=spec.report,
                                           config=spec.config, seq=seq)
                heapq.heappush(self._queue, (-record.priority, seq, job_id))
                recovered += 1
                self.stats.recovered += 1
            if self._queue:
                self._ensure_workers()
                self._cv.notify_all()
        return recovered

    # -- the scheduler ---------------------------------------------------------

    def _ensure_workers(self) -> None:
        # Called under the lock.
        alive = [t for t in self._threads if t.is_alive()]
        self._threads = alive
        while len(self._threads) < self.max_workers:
            thread = threading.Thread(
                target=self._scheduler_loop, daemon=True,
                name=f"repro-service-{len(self._threads)}",
            )
            self._threads.append(thread)
            thread.start()

    def _pop_runnable(self) -> Optional[str]:
        # Called under the lock; skips entries whose record left QUEUED
        # (cancelled while queued, or re-submitted stale heap entries).
        while self._queue:
            _, _, job_id = heapq.heappop(self._queue)
            record = self._records.get(job_id)
            if record is not None and record.state == QUEUED:
                return job_id
        return None

    def _scheduler_loop(self) -> None:
        worker = threading.current_thread().name
        while True:
            with self._cv:
                self._heartbeats[worker] = time.time()
                job_id = None
                while not self._stop.is_set():
                    job_id = self._pop_runnable()
                    if job_id is not None:
                        break
                    # Every queue/state change notifies; the timeout is a
                    # safety net, not the wake mechanism.
                    self._cv.wait(5.0)
                    self._heartbeats[worker] = time.time()
                if job_id is None:
                    return
                record = self._records[job_id]
                record.transition(STATIC)
                cancel = self._cancels.setdefault(job_id, threading.Event())
                self._persist(record)
                self._busy += 1
            try:
                self._execute(job_id, record, cancel)
            except Exception:  # noqa: BLE001 -- job must record the failure
                with self._cv:
                    record.error = traceback.format_exc(limit=20)
                    record.transition(FAILED, detail="internal error")
                    self.stats.failed += 1
                    self._prune(job_id)
                    self._persist(record)
                    self._cv.notify_all()
            finally:
                with self._lock:
                    self._busy -= 1
                    self._heartbeats[worker] = time.time()

    def _execute(self, job_id: str, record: JobRecord,
                 cancel: threading.Event) -> None:
        start = time.perf_counter()
        try:
            self._execute_job(job_id, record, cancel)
        finally:
            self.registry.histogram("esd_job_seconds").observe(
                time.perf_counter() - start
            )

    def _execute_job(self, job_id: str, record: JobRecord,
                     cancel: threading.Event) -> None:
        work = self._work[job_id]
        program = self._program_for_work(work)
        report = work.report
        if report is None:
            # Workload job without an embedded report: generate the
            # deterministic coredump server-side.
            from ..workloads import get

            report = get(work.spec.workload).make_report()
            work.report = report
        config = self._job_config(work.config)

        if work.spec is not None and work.spec.kind == "repair":
            self._execute_repair(job_id, record, cancel, work, program,
                                 report, config)
            return

        def on_progress(event) -> None:
            if event.kind in ("progress", "bug"):
                with self._lock:
                    record.add_event("progress", detail=event.kind,
                                     instructions=event.instructions)

        def should_stop() -> bool:
            return cancel.is_set() or self._interrupt.is_set()

        # Per-job observer: jobs on one program share a solver, so the
        # solver itself is never instrumented here (a shared tracer would
        # mix concurrent jobs' queries); the tracer and flight recorder see
        # only this job's phases and search loop.
        observer = SearchObserver(
            tracer=Tracer() if self.trace_jobs else None,
            flight=FlightRecorder() if self.record_flight else None,
            on_event=on_progress,
        )
        with observer.phase(f"job:{job_id}", "job",
                            {"program": program.key,
                             "bug_type": report.bug_type}) as job_span:
            setup = build_search_setup(
                program.module, report, config,
                statics=program.statics, solver=program.solver,
                observer=observer,
            )
            # Job bookkeeping (checkpoint restore, state persist) is timed
            # under its own span so the trace attributes the gap between
            # phase:static and phase:search instead of leaving it dark.
            with observer.phase("job.admit", "span") as admit_span:
                frontier, prior = self._restore_frontier(record)
                with self._cv:
                    record.transition(SEARCHING,
                                      detail=f"resuming {len(frontier)} "
                                             f"frontier state(s)"
                                      if frontier else "")
                    self._persist(record)
                if admit_span is not None:
                    admit_span.attrs["resumed"] = frontier is not None
            result = search_from_setup(
                program.module, setup, config,
                frontier=frontier, count_frontier=frontier is None,
                should_stop=should_stop, observer=observer,
            )
            if job_span is not None:
                job_span.attrs.update(found=result.found,
                                      reason=result.reason,
                                      instructions=result.instructions,
                                      states=result.states_explored)
        program.absorb_executor(setup.executor)
        trace_digest = None
        if observer.tracer is not None:
            trace_digest = self.store.put_bytes(
                canonical_json_bytes(observer.tracer.to_document(
                    meta={"job_id": job_id, "program": program.key}
                )),
                kind="trace",
            )
        flight = observer.flight
        flight_digest = None
        flight_counts = None
        if flight is not None:
            flight_digest = self.store.put_bytes(
                canonical_json_bytes(flight.to_document(
                    meta={"job_id": job_id, "program": program.key,
                          "bug_type": report.bug_type}
                )),
                kind="searchlog",
            )
            flight_counts = flight.counts()
        self._absorb_obs(observer)
        if prior is not None:
            result.instructions += prior.instructions
            result.states_explored += prior.states_explored
            result.search_seconds += prior.search_seconds
            result.static_seconds += prior.static_seconds
            if result.execution_file is not None:
                result.execution_file.instructions_explored = (
                    result.instructions
                )

        with self._cv:
            record.result = _result_summary(result)
            if trace_digest is not None:
                record.artifacts["trace"] = trace_digest
            if flight_digest is not None and flight_counts is not None:
                record.artifacts["flight"] = flight_digest
                ends = flight_counts["ends"]
                record.add_event(
                    "flight",
                    detail=(f"picks={flight_counts['picks']} "
                            f"adds={flight_counts['adds']} "
                            f"drops={flight_counts['drops']} "
                            f"ends={sum(ends.values())} "
                            f"reason={flight_counts['reason'] or '?'}"),
                )
            if result.found:
                record.artifacts["execution"] = self.store.put_bytes(
                    result.execution_file.canonical_bytes(), kind="execution"
                )
                record.transition(FOUND, reason="goal")
                self.stats.completed += 1
            elif result.reason == "cancelled":
                if self._interrupt.is_set() and not cancel.is_set():
                    digest = self._checkpoint_job(program, report, config,
                                                  setup, result)
                    if digest is not None:
                        record.artifacts["checkpoint"] = digest
                        record.add_event("checkpoint", detail=digest)
                    record.interruptions += 1
                    record.transition(QUEUED,
                                      detail="interrupted; resumable")
                    self.stats.interrupted += 1
                else:
                    record.transition(CANCELLED, reason="cancelled",
                                      detail="cancelled mid-search")
                    self.stats.cancelled += 1
            else:
                record.transition(EXHAUSTED, reason=result.reason)
                self.stats.completed += 1
            if record.terminal:
                # A long-lived daemon must not pin every finished job's
                # report/source payload and cancel event forever; the
                # JobRecord alone serves status queries.
                self._prune(job_id)
            self._persist(record)
            self._cv.notify_all()

    def _restore_frontier(self, record: JobRecord):
        """``(frontier, checkpoint)`` of an interrupted job being resumed,
        or ``(None, None)`` for a fresh job."""
        digest = record.artifacts.get("checkpoint")
        if digest is None:
            return None, None
        from ..distrib import ExplorationCheckpoint
        from ..distrib.snapshot import restore_states

        prior = ExplorationCheckpoint.from_dict(self.store.get_json(digest))
        return restore_states(prior.frontier), prior

    def _execute_repair(self, job_id: str, record: JobRecord,
                        cancel: threading.Event, work: _Work,
                        program: ServiceProgram, report: BugReport,
                        config: ESDConfig) -> None:
        """Run a ``repair`` job: localize -> patch -> validate, with the
        validated patch stored content-addressed next to the failing
        execution it was synthesized from."""
        from ..repair import RepairConfig, repair

        spec = work.spec
        repair_config = (RepairConfig.from_dict(spec.repair_config)
                         if spec.repair_config else RepairConfig())
        if repair_config.esd is None:
            repair_config.esd = config

        with self._cv:
            record.transition(SEARCHING, detail="repair: localize + patch")
            self._persist(record)

        def on_progress(event) -> None:
            if event.kind in ("progress", "bug"):
                with self._lock:
                    record.add_event("progress", detail=event.detail or event.kind,
                                     instructions=event.instructions)

        def should_stop() -> bool:
            return cancel.is_set() or self._interrupt.is_set()

        result = repair(
            program.module, report, config=repair_config,
            statics=program.statics, solver=program.solver,
            observer=SearchObserver(on_event=on_progress),
            should_stop=should_stop,
        )

        with self._cv:
            record.result = {"kind": "repair", **result.summary()}
            if result.failing_execution is not None:
                record.artifacts["execution"] = self.store.put_bytes(
                    result.failing_execution.canonical_bytes(),
                    kind="execution",
                )
            if result.found:
                # Canonical byte form: two jobs synthesizing the identical
                # patch share one stored object (timing lives in `result`).
                record.artifacts["patch"] = self.store.put_bytes(
                    result.patch.canonical_bytes(), kind="patch"
                )
                record.transition(FOUND, reason="patched")
                self.stats.completed += 1
            elif result.reason == "cancelled":
                if self._interrupt.is_set() and not cancel.is_set():
                    # Graceful drain: repair has no frontier checkpoint --
                    # requeue the job whole; a restarted daemon redoes it.
                    record.interruptions += 1
                    record.transition(QUEUED,
                                      detail="interrupted; repair restarts")
                    self.stats.interrupted += 1
                else:
                    record.transition(CANCELLED, reason="cancelled",
                                      detail="cancelled mid-repair")
                    self.stats.cancelled += 1
            else:
                # 'no-patch' / 'no-failing-execution': the pipeline completed
                # without a validated patch.
                record.transition(EXHAUSTED, reason=result.reason)
                self.stats.completed += 1
            if record.terminal:
                self._prune(job_id)
            self._persist(record)
            self._cv.notify_all()

    def _job_config(self, config: Optional[ESDConfig]) -> ESDConfig:
        # Every job gets a private config copy: SearchBudget is mutable and
        # must not be shared across concurrently running jobs.
        template = config or self.default_config
        return ESDConfig.from_dict(template.to_dict())

    def _checkpoint_job(self, program: ServiceProgram, report: BugReport,
                        config: ESDConfig, setup,
                        result: SynthesisResult) -> Optional[str]:
        from ..distrib import ExplorationCheckpoint
        from ..distrib.snapshot import snapshot_states

        scored = setup.searcher.export_frontier()
        if not scored:
            return None
        checkpoint = ExplorationCheckpoint(
            module=program.module,
            report=report,
            config=config,
            frontier=snapshot_states([state for _, state in scored]),
            scores=[score for score, _ in scored],
            instructions=result.instructions,
            states_explored=result.states_explored,
            search_seconds=result.search_seconds,
            static_seconds=result.static_seconds,
            workers=1,
        )
        return self.store.put_json(checkpoint.to_dict(), kind="checkpoint")

    def _prune(self, job_id: str) -> None:
        """Drop a terminal job's runtime payloads (called under the lock)."""
        self._work.pop(job_id, None)
        self._cancels.pop(job_id, None)

    def _persist(self, record: JobRecord) -> None:
        self.store.save_job(record.job_id, record.to_dict())

    def _absorb_obs(self, observer: Optional[SearchObserver]) -> None:
        """Fold a finished job's observer buffer pressure into the
        cumulative ``esd_obs_*`` sources (dropped counts sum; high-water
        marks keep the max across jobs)."""
        if observer is None:
            return
        tracer, flight = observer.tracer, observer.flight
        totals = self._obs_totals
        with self._lock:
            if tracer is not None:
                totals["trace_dropped_spans"] += tracer.dropped
                totals["trace_span_high_water"] = max(
                    totals["trace_span_high_water"], tracer.high_water)
            if flight is not None:
                totals["flight_dropped_records"] += flight.dropped
                totals["flight_record_high_water"] = max(
                    totals["flight_record_high_water"], flight.high_water)

    # -- the inline path (ReproSession's engine) -------------------------------

    def synthesize(
        self,
        program: ServiceProgram,
        report: BugReport,
        config: Optional[ESDConfig] = None,
        *,
        should_stop: Optional[StopPredicate] = None,
        workers: int = 1,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: float = 5.0,
        handle_signals: bool = False,
        observer: Optional[SearchObserver] = None,
    ) -> SynthesisResult:
        """Synchronous synthesis on the caller's thread against the shared
        program context -- the engine behind ``ReproSession.synthesize``.

        ``workers > 1`` (or a ``checkpoint_path``) routes the search through
        :class:`~repro.distrib.ParallelExplorer`; ``should_stop`` callers
        (portfolio variants on threads) always get the serial engine, since
        forking a pool from a multi-threaded parent is not safe.  The
        observer's flight recorder covers the serial engine only -- a pool
        run's picks happen in the worker processes.
        """
        config = config or self.default_config
        use_pool = workers > 1 or checkpoint_path is not None
        if use_pool and should_stop is None:
            from ..distrib import (
                DistribUnsupportedError,
                ParallelExplorer,
                parallel_supported,
            )

            if checkpoint_path is not None and not parallel_supported():
                raise DistribUnsupportedError(
                    "checkpointing requires the parallel exploration pool, "
                    "which needs the fork start method (unavailable here)"
                )
            if parallel_supported():
                pool = ParallelExplorer(
                    program.module,
                    report,
                    config,
                    workers=workers,
                    statics=program.statics,
                    solver=program.solver,
                    observer=observer,
                    checkpoint_path=checkpoint_path,
                    checkpoint_interval=checkpoint_interval,
                    handle_signals=handle_signals,
                )
                return pool.run()
        # Module-global call (not a direct-import binding) so tests can
        # stub the serial engine; the sink folds the finished run's
        # executor counters into the program's totals (the registry's
        # ``esd_exec_*`` source) before the executor is dropped.
        result = esd_synthesize(
            program.module, report, config,
            statics=program.statics, solver=program.solver,
            should_stop=should_stop, observer=observer,
            executor_sink=program.absorb_executor,
        )
        self._absorb_obs(observer)
        return result
