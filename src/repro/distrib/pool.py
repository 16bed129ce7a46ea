"""The parallel exploration pool: sharded work-stealing path search.

:class:`ParallelExplorer` scales the dynamic phase of synthesis across
worker processes:

1. **Seed.**  The master runs the ordinary serial search just long enough
   to grow a frontier worth sharding (a few states per worker).  Trivial
   searches finish right here and never pay for a single fork.
2. **Shard by proximity-score bands.**  The frontier is sorted by the
   searcher's own proximity priority and grouped into bands of ``workers``
   consecutive (equal-proximity) states; each band deals one state to each
   shard.  Every shard therefore spans the whole proximity range -- no
   worker monopolizes the near-goal states, and every worker always has
   promising work.
3. **Explore in quanta.**  Each worker process owns a full search stack
   (executor, searcher, scheduler policy, solver with its own
   counterexample cache) and advances its shard ``quantum`` instructions at
   a time, reporting stats -- and newly learned solver-cache entries -- at
   every quantum boundary.
4. **Steal when drained.**  A worker whose queue runs dry is re-fed from
   the richest idle sibling: the victim exports a stride of its scored
   frontier through the snapshot layer and the master routes it to the
   thief.  Solver-cache deltas ride along at these boundaries, so shards
   share refutations and witnesses.
5. **First win cancels the rest.**  The first worker to reach the goal
   wins; a shared event cancels the siblings cooperatively, and the goal
   state travels back as a snapshot to be solved into an execution file.

Checkpointing (``checkpoint_path``) periodically collects every worker's
frontier -- again through the snapshot layer -- into an
:class:`~repro.distrib.checkpoint.ExplorationCheckpoint`; :meth:`resume`
continues a killed or budget-exhausted run from that file.

Workers are created with the ``fork`` start method: the compiled module,
the warm static-analysis cache, and each worker's initial shard are
inherited by the child for free (no pickling), and fork keeps Python's
string-hash seed -- which the solver cache's structural digests depend on
-- identical across the pool, making cache deltas meaningful cross-process.
Platforms without ``fork`` get :class:`DistribUnsupportedError`; callers
fall back to the serial path.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

from .. import ir
from ..coredump import BugReport
from ..core.execfile import execution_file_from_state
from ..core.synthesis import (
    ESDConfig,
    SearchSetup,
    StaticAnalysisCache,
    SynthesisResult,
    build_search_setup,
)
from ..gcpause import gc_paused
from ..obs.observer import UNOBSERVED, SearchObserver
from ..obs.trace import Tracer
from ..search import SearchBudget, StopPredicate, explore_frontier
from ..solver import Solver
from ..symbex.state import ExecutionState
from .checkpoint import ExplorationCheckpoint
from .snapshot import restore_states, snapshot_states, verify_roundtrip

__all__ = [
    "DistribUnsupportedError",
    "ParallelExplorer",
    "parallel_supported",
]


class DistribUnsupportedError(RuntimeError):
    """This platform cannot run the parallel pool (no fork start method)."""


def parallel_supported() -> bool:
    """Whether :class:`ParallelExplorer` can run here (fork available)."""
    return "fork" in multiprocessing.get_all_start_methods()


# Solver telemetry fields workers report as per-quantum deltas.
_SOLVER_FIELDS = (
    "queries", "cache_hits", "unsat_superset_hits", "sat_subset_hits",
    "unknown_hits", "sat", "unsat", "unknown", "search_nodes",
    "fastpath_hits", "fastpath_misses",
)


def _solver_snapshot(stats) -> dict:
    return {name: getattr(stats, name) for name in _SOLVER_FIELDS}


def _solver_delta(stats, base: dict) -> dict:
    return {name: getattr(stats, name) - base[name] for name in _SOLVER_FIELDS}


@dataclass(slots=True)
class _Totals:
    """Cumulative counters across seed phase, quanta, and resumed legs."""

    instructions: int = 0
    states: int = 0
    picks: int = 0
    bugs: int = 0
    completed: int = 0
    infeasible: int = 0
    prior_seconds: float = 0.0  # search seconds from resumed legs


@dataclass(slots=True)
class _WorkerHandle:
    proc: multiprocessing.Process
    conn: object
    shard: int
    busy: bool = False  # a command is outstanding
    pending: int = 0  # last reported queue length
    exhausted: bool = False  # reported an empty queue and has no seeds
    dead: bool = False
    seeds: list = field(default_factory=list)  # snapshot payloads to deliver
    seed_scores: list = field(default_factory=list)
    deltas: list = field(default_factory=list)  # cache entries from siblings
    thief: Optional[int] = None  # shard awaiting this worker's stolen states


class ParallelExplorer:
    """Sharded work-stealing exploration with checkpoint/resume.

    Mirrors :func:`~repro.core.synthesis.esd_synthesize`'s contract --
    same inputs, same :class:`SynthesisResult` -- but runs the search phase
    on ``workers`` processes.  ``statics`` and ``solver`` integrate with a
    :class:`~repro.api.ReproSession`'s shared artifacts exactly like the
    serial driver; worker caches are forked from (and their learnings
    merged back into) the session's counterexample cache.
    """

    def __init__(
        self,
        module: ir.Module,
        report: BugReport,
        config: Optional[ESDConfig] = None,
        *,
        workers: int = 2,
        statics: Optional[StaticAnalysisCache] = None,
        solver: Optional[Solver] = None,
        observer: Optional[SearchObserver] = None,
        should_stop: Optional[StopPredicate] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: float = 5.0,
        quantum: int = 8192,
        steal_batch: int = 8,
        seed_states_per_worker: int = 4,
        verify_snapshots: bool = False,
        source_path: str = "",
        handle_signals: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.module = module
        self.report = report
        self.config = config or ESDConfig()
        self.workers = workers
        self.statics = statics or StaticAnalysisCache(module)
        self.solver = solver or Solver()
        self.should_stop = should_stop
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval = checkpoint_interval
        self.quantum = quantum
        self.steal_batch = steal_batch
        self.seed_states_per_worker = seed_states_per_worker
        self.verify_snapshots = verify_snapshots
        self.source_path = source_path
        self.handle_signals = handle_signals
        self.checkpoints_written = 0
        self.steals = 0
        self._shutdown_requested = threading.Event()
        # Observability: the master reports its own events and spans to
        # ``observer``; the static phase and seed search report through its
        # nested view (their start/done is the pool's).  Worker tracers ship
        # their spans in quantum-status and steal payloads (the same
        # boundaries the solver-cache delta merge uses); the master ingests
        # them under its phase:search span.  Flight recording covers the
        # serial engine only: a pool run's picks happen in the workers.
        self.observer = observer or UNOBSERVED
        self._nested = self.observer.nested()
        self._search_span_id = 0

    # -- public entry points -------------------------------------------------

    def run(self) -> SynthesisResult:
        """Synthesize from scratch (seed, shard, explore)."""
        return self._run(resume=None)

    def resume(self, checkpoint: ExplorationCheckpoint) -> SynthesisResult:
        """Continue a checkpointed synthesis.

        The resumed leg gets a fresh wall-clock/instruction allowance from
        ``config.budget`` (a budget-exhausted run would otherwise exhaust
        again immediately), while reported totals accumulate across legs.
        """
        return self._run(resume=checkpoint)

    def request_shutdown(self) -> None:
        """Ask the running search to wind down gracefully: cancel the
        workers, write a final checkpoint (when ``checkpoint_path`` is
        set), and return with reason ``'interrupted'``.  Signal-handler
        safe."""
        self._shutdown_requested.set()

    # -- master --------------------------------------------------------------

    def _run(self, resume: Optional[ExplorationCheckpoint]) -> SynthesisResult:
        """Graceful-shutdown wrapper: with ``handle_signals``, SIGTERM and
        SIGINT during the run become :meth:`request_shutdown` instead of
        killing the process mid-search, so the final checkpoint makes the
        interrupted job resumable."""
        with self.observer.phase(f"synth:{self.module.name}", "job",
                                 {"bug_type": self.report.bug_type,
                                  "workers": self.workers,
                                  "resumed": resume is not None}):
            if not (self.handle_signals
                    and threading.current_thread() is threading.main_thread()):
                return self._run_impl(resume)
            previous = {}

            def on_signal(signum, frame):  # noqa: ARG001 -- signal API
                self.request_shutdown()

            for sig in (signal.SIGTERM, signal.SIGINT):
                previous[sig] = signal.signal(sig, on_signal)
            try:
                return self._run_impl(resume)
            finally:
                for sig, old in previous.items():
                    signal.signal(sig, old)

    def _run_impl(
        self, resume: Optional[ExplorationCheckpoint]
    ) -> SynthesisResult:
        if not parallel_supported():
            raise DistribUnsupportedError(
                "parallel exploration requires the fork start method"
            )
        setup = build_search_setup(
            self.module, self.report, self.config,
            statics=self.statics, solver=self.solver, observer=self._nested,
        )
        started = time.monotonic()
        self._errors: list[tuple[int, str]] = []
        with self.observer.phase("phase:search") as span:
            self._search_span_id = span.span_id if span is not None else 0
            goal_state, reason, totals, static_seconds = self._search(
                resume, setup, started)
            if goal_state is None and self._errors:
                # Do not let a worker crash masquerade as a genuine
                # negative ("exhausted"/"budget") answer.
                reason = "error"
            if span is not None:
                span.attrs.update(reason=reason, steals=self.steals,
                                  instructions=totals.instructions,
                                  states=totals.states)
        if reason == "error":
            shard, trace = self._errors[0]
            raise RuntimeError(
                f"parallel exploration worker {shard} crashed "
                f"({len(self._errors)} worker error(s) total):\n{trace}"
            )
        return self._result(goal_state, reason, setup, totals,
                            static_seconds, started)

    def _search(self, resume: Optional[ExplorationCheckpoint],
                setup: SearchSetup, started: float):
        """Seed (or restore), shard and explore; returns ``(goal_state,
        reason, totals, static_seconds)``."""
        budget = self.config.budget
        totals = _Totals()
        static_seconds = setup.static_seconds
        deadline = started + budget.max_seconds

        self._emit("start", totals, (), started)
        if resume is not None:
            totals.instructions = resume.instructions
            totals.states = resume.states_explored
            totals.picks = resume.picks
            totals.bugs = resume.bugs_seen
            totals.completed = resume.paths_completed
            totals.infeasible = resume.paths_infeasible
            totals.prior_seconds = resume.search_seconds
            static_seconds += resume.static_seconds
            scored = list(zip(resume.scores, restore_states(resume.frontier)))
            # Checkpoints concatenate per-shard runs (plus in-flight steal
            # seeds); restore the partitioner's best-first precondition.
            scored.sort(key=lambda pair: pair[0])
            if not scored:
                return None, "exhausted", totals, static_seconds
        else:
            seeded = self._seed(setup, budget, totals)
            if seeded is not None:  # search ended during seeding
                outcome_state, reason = seeded
                if reason == "interrupted" and self.checkpoint_path:
                    # Shut down before sharding: the seed searcher's
                    # frontier is the whole resumable state.
                    scored = setup.searcher.export_frontier()
                    self._write_checkpoint(
                        {0: ([score for score, _ in scored],
                             [state for _, state in scored])},
                        (), setup, totals, static_seconds, started,
                    )
                return outcome_state, reason, totals, static_seconds
            scored = setup.searcher.export_frontier()
            if self.verify_snapshots:
                for _, state in scored[: self.workers]:
                    verify_roundtrip(state)

        # The leg-local budget: what this run() call may still spend.
        leg = _Totals()
        leg_budget_instructions = budget.max_instructions
        leg_budget_states = budget.max_states

        n_workers = max(1, min(self.workers, len(scored)))
        shards = self._band_partition(scored, n_workers)
        handles = self._spawn(shards, setup)

        goal_state: Optional[ExecutionState] = None
        reason = "exhausted"
        cancel_sent = False
        last_checkpoint = time.monotonic()
        collecting: Optional[dict[int, tuple[list, list]]] = None
        final_collect = False

        try:
            while True:
                if goal_state is None and not cancel_sent:
                    if self._shutdown_requested.is_set():
                        # Graceful shutdown: stop the workers and (with a
                        # checkpoint path) collect one final resumable
                        # frontier before returning.
                        reason, cancel_sent = "interrupted", True
                        self._cancel.set()
                        if self.checkpoint_path:
                            final_collect = True
                            if collecting is None:
                                collecting = {}
                    elif self.should_stop is not None and self.should_stop():
                        reason, cancel_sent = "cancelled", True
                        self._cancel.set()
                    elif (leg.instructions >= leg_budget_instructions
                          or leg.states >= leg_budget_states
                          or time.monotonic() > deadline):
                        reason, cancel_sent = "budget", True
                        self._cancel.set()
                        if self.checkpoint_path:
                            final_collect = True
                            if collecting is None:
                                collecting = {}

                alive = [h for h in handles if not h.dead]
                if not alive:
                    break
                stopping = goal_state is not None or cancel_sent
                if not stopping:
                    # Hand new quanta / steal requests to every idle worker.
                    if not self._schedule(alive, budget, deadline, leg,
                                          leg_budget_instructions,
                                          leg_budget_states, collecting):
                        reason = "exhausted"
                        break
                elif collecting is not None and final_collect:
                    # Winding down with a final checkpoint: idle workers
                    # only get export requests, never new quanta.
                    for h in alive:
                        if (not h.busy and h.shard not in collecting
                                and not h.exhausted):
                            self._send(h, ("export", None))

                busy = [h for h in alive if h.busy]
                if not busy:
                    if stopping:
                        break
                    reason = "exhausted"
                    break
                ready = multiprocessing.connection.wait(
                    [h.conn for h in busy], timeout=1.0
                )
                if not ready:
                    for h in busy:
                        if not h.proc.is_alive():
                            self._mark_dead(h, handles)
                    continue
                for conn in ready:
                    handle = next(h for h in busy if h.conn is conn)
                    try:
                        op, payload = conn.recv()
                    except (EOFError, OSError):
                        self._mark_dead(handle, handles)
                        continue
                    handle.busy = False
                    if op == "error":
                        self._errors.append((handle.shard, payload))
                        self._mark_dead(handle, handles)
                    elif op == "status":
                        found = self._absorb_status(
                            handle, payload, handles, totals, leg
                        )
                        self._emit("progress", totals, handles, started,
                                   worker=handle.shard)
                        if found is not None and goal_state is None:
                            goal_state = found
                            reason = "goal"
                            cancel_sent = True
                            self._cancel.set()
                    elif op == "stolen":
                        self._route_steal(handle, payload, handles)
                    elif op == "frontier":
                        if collecting is not None:
                            collecting[handle.shard] = (
                                payload["scores"],
                                restore_states(payload["payload"]),
                            )
                        handle.pending = payload["pending"]
                # Periodic checkpoint: start a collection round when due.
                if (self.checkpoint_path and collecting is None
                        and goal_state is None and not cancel_sent
                        and time.monotonic() - last_checkpoint
                        >= self.checkpoint_interval):
                    collecting = {}
                if collecting is not None:
                    done = all(
                        h.dead or h.exhausted or h.shard in collecting
                        for h in handles
                    )
                    if done:
                        self._write_checkpoint(collecting, handles, setup,
                                               totals, static_seconds, started)
                        last_checkpoint = time.monotonic()
                        collecting = None
                        if final_collect:
                            break
        finally:
            self._shutdown(handles)
        return goal_state, reason, totals, static_seconds

    # -- seed phase ----------------------------------------------------------

    @gc_paused()
    def _seed(self, setup: SearchSetup, budget: SearchBudget, totals: _Totals):
        """Grow the frontier serially until it is worth sharding.

        Returns ``(goal_state_or_None, reason)`` when the search *finished*
        during seeding (goal found, exhausted, budget, cancelled), or None
        when a frontier is ready to shard.
        """
        target = self.workers * self.seed_states_per_worker
        searcher = setup.searcher

        def stop() -> bool:
            if self._shutdown_requested.is_set():
                return True
            if self.should_stop is not None and self.should_stop():
                return True
            return len(searcher) >= target

        outcome = explore_frontier(
            setup.executor, searcher, [setup.executor.initial_state()],
            setup.goal.matches, budget, should_stop=stop,
            observer=self._nested,
        )
        totals.instructions += outcome.stats.instructions
        totals.states += outcome.stats.states_explored
        totals.picks += outcome.stats.picks
        totals.bugs += outcome.stats.bugs_seen
        totals.completed += outcome.stats.paths_completed
        totals.infeasible += outcome.stats.paths_infeasible
        if outcome.reason != "cancelled":
            return outcome.goal_state, outcome.reason
        if self._shutdown_requested.is_set():
            return None, "interrupted"
        if self.should_stop is not None and self.should_stop():
            return None, "cancelled"
        return None

    # -- sharding ------------------------------------------------------------

    @staticmethod
    def _band_partition(scored, n_workers: int) -> list[list[ExecutionState]]:
        """Deal the score-sorted frontier band by band across shards.

        ``scored`` is best-first; each consecutive group of ``n_workers``
        states (one proximity band) contributes one state to every shard,
        so all shards span the full proximity range.
        """
        shards: list[list[ExecutionState]] = [[] for _ in range(n_workers)]
        for index, (_, state) in enumerate(scored):
            shards[index % n_workers].append(state)
        return shards

    def _spawn(self, shards, setup: SearchSetup) -> list[_WorkerHandle]:
        ctx = multiprocessing.get_context("fork")
        self._cancel = ctx.Event()
        handles = []
        master_ends = []
        for shard_id, shard in enumerate(shards):
            parent_conn, child_conn = ctx.Pipe()
            master_ends.append(parent_conn)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, list(master_ends), shard_id, self.module,
                      self.report, self.config, self.statics,
                      self.solver.cache, self._cancel, shard,
                      self.observer.tracer is not None),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            handles.append(_WorkerHandle(
                proc=proc, conn=parent_conn, shard=shard_id,
                pending=len(shard),
            ))
        self._handles = handles
        return handles

    # -- master bookkeeping ----------------------------------------------------

    def _send(self, handle: _WorkerHandle, message) -> None:
        try:
            handle.conn.send(message)
            handle.busy = True
        except (OSError, ValueError):
            self._mark_dead(handle, self._handles)

    def _mark_dead(self, handle: _WorkerHandle, handles) -> None:
        """Retire a worker, re-homing any frontier it was owed."""
        handle.dead = True
        handle.busy = False
        survivor = next(
            (h for h in handles if h is not handle and not h.dead), None
        )
        if survivor is not None and handle.seeds:
            survivor.seeds.extend(handle.seeds)
            survivor.seed_scores.extend(handle.seed_scores)
            survivor.exhausted = False
        handle.seeds = []
        handle.seed_scores = []

    def _send_run(self, handle, budget, deadline, leg,
                  max_instructions: int, max_states: int) -> None:
        params = {
            "max_instructions": min(self.quantum,
                                    max(1, max_instructions - leg.instructions)),
            "max_states": max(1, max_states - leg.states),
            "max_seconds": max(0.1, min(5.0, deadline - time.monotonic())),
            "deltas": handle.deltas,
            "seeds": handle.seeds,
            "seed_scores": handle.seed_scores,
        }
        self._send(handle, ("run", params))
        if handle.dead:
            return  # _mark_dead already re-homed the undelivered seeds
        handle.deltas = []
        handle.seeds = []
        handle.seed_scores = []

    def _schedule(self, alive, budget, deadline, leg,
                  max_instructions, max_states, collecting) -> bool:
        """Hand out work to idle workers.  Returns False when the whole pool
        is exhausted (nothing pending anywhere, no seeds in flight)."""
        for handle in alive:
            if handle.busy:
                continue
            if collecting is not None and handle.shard not in collecting \
                    and not handle.exhausted:
                self._send(handle, ("export", None))
                continue
            if handle.pending > 0 or handle.seeds:
                handle.exhausted = False
                self._send_run(handle, budget, deadline, leg,
                               max_instructions, max_states)
                continue
            # Starved: steal from the richest idle sibling.
            victims = sorted(
                (h for h in alive if h is not handle and not h.busy
                 and h.pending > 1),
                key=lambda h: h.pending, reverse=True,
            )
            if victims:
                victim = victims[0]
                count = max(1, min(self.steal_batch, victim.pending // 2))
                victim.thief = handle.shard
                self._send(victim, ("steal", count))
                self.steals += 1
            else:
                handle.exhausted = True
        return any(
            h.busy or h.pending > 0 or h.seeds
            for h in alive
        )

    def _absorb_status(self, handle, payload, handles, totals: _Totals,
                       leg: _Totals) -> Optional[ExecutionState]:
        for tally in (totals, leg):
            tally.instructions += payload["instructions"]
            tally.states += payload["new_states"]
            tally.picks += payload["picks"]
            tally.bugs += payload["bugs"]
            tally.completed += payload["completed"]
            tally.infeasible += payload["infeasible"]
        handle.pending = payload["pending"]
        if handle.pending > 0 or handle.seeds:
            handle.exhausted = False
        delta = payload["delta"]
        if delta:
            # Learned constraints flow through the session cache to every
            # sibling shard at the next quantum boundary.
            self.solver.cache.merge_delta(delta)
            for other in handles:
                if other is not handle and not other.dead:
                    other.deltas.extend(delta)
        solver_delta = payload["solver"]
        for name, value in solver_delta.items():
            setattr(self.solver.stats, name,
                    getattr(self.solver.stats, name) + value)
        self._ingest_spans(handle, payload)
        if payload["goal"] is not None:
            return restore_states(payload["goal"])[0]
        return None

    def _ingest_spans(self, handle, payload) -> None:
        """Adopt a worker's drained spans under the master's search span."""
        spans = payload.get("spans")
        tracer = self.observer.tracer
        if spans and tracer is not None:
            tracer.ingest(spans, worker=handle.shard,
                          parent_id=self._search_span_id)

    def _route_steal(self, victim, payload, handles) -> None:
        victim.pending = payload["pending"]
        self._ingest_spans(victim, payload)
        thief_id, victim.thief = victim.thief, None
        if not payload["payload"]["states"]:
            return
        thief = next((h for h in handles if h.shard == thief_id), None)
        if thief is None or thief.dead:
            # The thief died while the steal was in flight: the victim
            # already gave these states up, so hand them right back rather
            # than dropping part of the frontier.
            thief = victim
        thief.seeds.append(payload["payload"])
        thief.seed_scores.append(payload["scores"])
        thief.exhausted = False

    def _write_checkpoint(self, collected, handles, setup, totals: _Totals,
                          static_seconds: float, started: float) -> None:
        states: list[ExecutionState] = []
        scores: list[float] = []
        for shard_id in sorted(collected):
            shard_scores, shard_states = collected[shard_id]
            scores.extend(shard_scores)
            states.extend(shard_states)
        # Undelivered stolen seeds are part of the frontier too.
        for handle in handles:
            for payload, payload_scores in zip(handle.seeds,
                                               handle.seed_scores):
                restored = restore_states(payload)
                states.extend(restored)
                scores.extend(payload_scores)
        checkpoint = ExplorationCheckpoint(
            module=self.module,
            report=self.report,
            config=self.config,
            frontier=snapshot_states(states),
            scores=scores,
            instructions=totals.instructions,
            states_explored=totals.states,
            picks=totals.picks,
            bugs_seen=totals.bugs,
            paths_completed=totals.completed,
            paths_infeasible=totals.infeasible,
            search_seconds=totals.prior_seconds
            + (time.monotonic() - started),
            static_seconds=static_seconds,
            workers=self.workers,
            source_path=self.source_path,
        )
        checkpoint.save(self.checkpoint_path)
        self.checkpoints_written += 1
        self._emit("checkpoint", totals, handles, started,
                   detail=str(self.checkpoint_path))

    def _shutdown(self, handles) -> None:
        self._cancel.set()
        for handle in handles:
            if handle.dead:
                continue
            # Drain an outstanding reply so the worker is parked on recv().
            if handle.busy and handle.conn.poll(2.0):
                try:
                    handle.conn.recv()
                except (EOFError, OSError):
                    handle.dead = True
            try:
                handle.conn.send(("stop", None))
            except (OSError, ValueError):
                pass
        for handle in handles:
            handle.proc.join(timeout=2.0)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass

    def _emit(self, kind: str, totals: _Totals, handles, started: float,
              *, worker: int = -1, reason: str = "", detail: str = "") -> None:
        self.observer.emit(
            kind,
            picks=totals.picks,
            instructions=totals.instructions,
            states=totals.states,
            pending=sum(h.pending for h in handles if not h.dead),
            seconds=totals.prior_seconds + (time.monotonic() - started),
            reason=reason,
            detail=detail,
            worker=worker,
            shard=worker,
        )

    def _result(self, goal_state, reason, setup, totals: _Totals,
                static_seconds: float, started: float) -> SynthesisResult:
        search_seconds = totals.prior_seconds + (time.monotonic() - started)
        execution_file = None
        if goal_state is not None:
            with self.observer.phase("phase:solve"):
                execution_file = execution_file_from_state(
                    self.module.name, goal_state, self.solver,
                    synthesis_seconds=static_seconds + search_seconds,
                    instructions_explored=totals.instructions,
                )
        self._emit("done", totals, (), started, reason=reason)
        return SynthesisResult(
            found=goal_state is not None,
            reason=reason,
            goal=setup.goal,
            execution_file=execution_file,
            goal_state=goal_state,
            static_seconds=static_seconds,
            search_seconds=search_seconds,
            instructions=totals.instructions,
            states_explored=totals.states,
            other_bugs=totals.bugs,
            intermediate_goal_count=setup.intermediate_count,
        )


# -- worker process -----------------------------------------------------------


def _worker_main(conn, master_ends, shard_id: int, module, report, config,
                 statics, cache, cancel, shard, trace: bool = False) -> None:
    """One shard's lifetime: build a search stack, serve commands.

    Runs in a forked child.  ``module``, ``statics``, ``cache``, and
    ``shard`` (the initial states) are inherited from the master's address
    space at fork time -- no serialization on the way in.  Everything going
    *back* (stolen states, checkpoints, the goal state) crosses through the
    snapshot layer.

    ``master_ends`` are the master's ends of this worker's pipe and of
    every earlier worker's, which the fork copied into this process.  They
    are closed first: while any process holds the master's end open,
    ``conn.recv()`` never sees EOF, and a worker whose master was killed
    would wait forever.
    """
    for end in master_ends:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        try:
            _worker_loop(conn, shard_id, module, report, config, statics,
                         cache, cancel, shard, trace)
        except Exception:  # noqa: BLE001 -- reported to the master
            # A crashed worker must not masquerade as an exhausted shard:
            # ship the traceback so the master can surface (or raise) it.
            try:
                conn.send(("error", traceback.format_exc()))
            except (OSError, ValueError):
                pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
        # A forked child must never run the master's atexit/cleanup handlers.
        os._exit(0)


def _worker_loop(conn, shard_id: int, module, report, config, statics,
                 cache, cancel, shard, trace: bool = False) -> None:
    cache.enable_delta_log()
    cache.drain_delta()  # discard anything journaled before the fork
    solver = Solver(cache=cache)
    # Per-worker tracer: spans accumulate locally and travel to the master
    # inside quantum-status and steal payloads (drained, so each payload
    # carries only the spans since the previous boundary).  The worker's
    # static setup is deliberately *not* traced -- every worker rebuilds the
    # same warm setup, and counting it per worker would double-bill the
    # static phase the master already recorded.
    tracer = Tracer() if trace else None
    observer = SearchObserver(tracer=tracer) if tracer is not None else None
    if tracer is not None:
        solver.tracer = tracer
    setup = build_search_setup(
        module, report, config, statics=statics, solver=solver,
        seed_offset=shard_id + 1,
    )
    searcher = setup.searcher
    executor = setup.executor
    executor.observer = observer
    solver_base = _solver_snapshot(solver.stats)
    # The shard goes into the searcher now, not with the first quantum: an
    # export or steal that arrives before any quantum (a shutdown right
    # after sharding) must see it.  A shard never holds a goal state: the
    # search that dealt it would have stopped there.
    for state in shard:
        searcher.add(state)
    seeds: list[ExecutionState] = []
    while True:
        try:
            op, arg = conn.recv()
        except (EOFError, OSError):
            break
        if op == "stop":
            break
        if op == "run":
            if arg["deltas"]:
                cache.merge_delta(arg["deltas"])
            for payload in arg["seeds"]:
                seeds.extend(restore_states(payload))
            quantum_budget = SearchBudget(
                max_instructions=arg["max_instructions"],
                max_states=arg["max_states"],
                max_seconds=arg["max_seconds"],
                batch_instructions=config.budget.batch_instructions,
            )
            with gc_paused():
                outcome = explore_frontier(
                    executor, searcher, seeds, setup.goal.matches,
                    quantum_budget, observer=observer,
                    should_stop=cancel.is_set, count_frontier=False,
                )
            seeds = []
            goal_payload = None
            if outcome.goal_state is not None:
                goal_payload = snapshot_states([outcome.goal_state])
            conn.send(("status", {
                "reason": outcome.reason,
                "goal": goal_payload,
                "pending": len(searcher),
                "instructions": outcome.stats.instructions,
                "new_states": outcome.stats.states_explored,
                "picks": outcome.stats.picks,
                "bugs": outcome.stats.bugs_seen,
                "completed": outcome.stats.paths_completed,
                "infeasible": outcome.stats.paths_infeasible,
                "delta": cache.drain_delta(),
                "solver": _solver_delta(solver.stats, solver_base),
                "spans": tracer.drain() if tracer is not None else None,
            }))
            solver_base = _solver_snapshot(solver.stats)
        elif op == "steal":
            scored = searcher.export_frontier()
            # Give away a stride of the scored frontier: the thief gets
            # states across the whole proximity range, the victim keeps
            # an interleaved (equally representative) remainder.
            stolen = scored[1::2][:arg]
            stolen_ids = {id(state) for _, state in stolen}
            for score, state in scored:
                if id(state) not in stolen_ids:
                    searcher.add(state)
            conn.send(("stolen", {
                "payload": snapshot_states([s for _, s in stolen]),
                "scores": [score for score, _ in stolen],
                "pending": len(searcher),
                "spans": tracer.drain() if tracer is not None else None,
            }))
        elif op == "export":
            scored = searcher.export_frontier()
            for _, state in scored:
                searcher.add(state)
            conn.send(("frontier", {
                "payload": snapshot_states([s for _, s in scored]),
                "scores": [score for score, _ in scored],
                "pending": len(searcher),
            }))
