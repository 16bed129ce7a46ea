"""The ESD synthesis driver: bug report in, execution file out.

Pipeline (paper sections 2-4):

1. extract the goal <B, C> from the coredump;
2. static phase: build the inter-procedural CFG and distance tables, find
   critical edges and intermediate goals;
3. dynamic phase: proximity-guided multi-threaded symbolic execution with the
   bug-class-specific scheduling strategy (deadlock snapshots / race
   preemptions);
4. solve the winning state's constraints and emit the execution file.

The static phase (step 2) depends only on the module and the goal targets,
not on the individual report, so a stream of reports against one program can
share it.  :class:`StaticAnalysisCache` holds those artifacts -- the
:class:`~repro.analysis.DistanceCalculator` and the intermediate-goal specs
keyed by goal target -- and :func:`esd_synthesize` accepts one via
``statics=``; :class:`repro.api.ReproSession` keeps a cache per module and
threads it through every call, which is how batch synthesis amortizes static
analysis (paper section 8's service usage model).

Searchers and bug-class schedule policies are no longer hard-wired here:
they are looked up by name in :mod:`repro.api.registry`, so a new bug class
or search strategy is a plugin registration away.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from .. import ir
from ..analysis import (
    DistanceCalculator,
    DistanceSource,
    GoalGatedDistances,
    collect_global_definitions,
    find_intermediate_goals,
)
from ..concurrency import ChainedPolicy
from ..coredump import BugReport
from ..gcpause import gc_paused
from ..obs.observer import UNOBSERVED, SearchObserver
from ..search import GoalSpec, SearchBudget, StopPredicate, explore_frontier
from ..solver import Solver
from ..symbex import ExecConfig, Executor, SchedulerPolicy, SymbolicEnv
from ..symbex.state import ExecutionState
from .execfile import ExecutionFile, execution_file_from_state
from .goals import SynthesisGoal, extract_goal


@dataclass(slots=True)
class ESDConfig:
    """Knobs for synthesis; the ablation benchmarks flip the ESD-specific
    focusing techniques off one at a time."""

    budget: SearchBudget = field(default_factory=lambda: SearchBudget(
        max_instructions=20_000_000, max_states=500_000, max_seconds=180.0,
    ))
    seed: int = 0
    string_size: int = 8
    max_args: int = 4
    # State-selection strategy, looked up in repro.api.registry ('esd' is the
    # paper's proximity-guided search; 'dfs'/'bfs'/'random-path' are the KC
    # baselines; plugins may register more).
    strategy: str = "esd"
    # Focusing techniques (paper section 3.3/3.4):
    use_intermediate_goals: bool = True
    prune_unreachable: bool = True
    use_schedule_distance: bool = True
    # Schedule synthesis:
    fork_at_unlock: bool = True
    with_race_detection: bool = False
    # Static pruning (abstract interpretation + lockset analysis): answer
    # provably-infeasible branch/bounds/divisor probes without the solver
    # and fork unlock preemptions only inside statically-nested lock
    # windows.  Off by default: it is the technique bench_static.py
    # measures, and the byte-identical-artifact invariant is asserted
    # there rather than assumed everywhere.
    use_static_pruning: bool = False

    def to_dict(self) -> dict:
        """JSON form (used by exploration checkpoints)."""
        return {
            "budget": {
                "max_instructions": self.budget.max_instructions,
                "max_states": self.budget.max_states,
                "max_seconds": self.budget.max_seconds,
                "batch_instructions": self.budget.batch_instructions,
            },
            "seed": self.seed,
            "string_size": self.string_size,
            "max_args": self.max_args,
            "strategy": self.strategy,
            "use_intermediate_goals": self.use_intermediate_goals,
            "prune_unreachable": self.prune_unreachable,
            "use_schedule_distance": self.use_schedule_distance,
            "fork_at_unlock": self.fork_at_unlock,
            "with_race_detection": self.with_race_detection,
            "use_static_pruning": self.use_static_pruning,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ESDConfig":
        budget = data.get("budget", {})
        return cls(
            budget=SearchBudget(
                max_instructions=budget.get("max_instructions", 20_000_000),
                max_states=budget.get("max_states", 500_000),
                max_seconds=budget.get("max_seconds", 180.0),
                batch_instructions=budget.get("batch_instructions", 64),
            ),
            seed=data.get("seed", 0),
            string_size=data.get("string_size", 8),
            max_args=data.get("max_args", 4),
            strategy=data.get("strategy", "esd"),
            use_intermediate_goals=data.get("use_intermediate_goals", True),
            prune_unreachable=data.get("prune_unreachable", True),
            use_schedule_distance=data.get("use_schedule_distance", True),
            fork_at_unlock=data.get("fork_at_unlock", True),
            with_race_detection=data.get("with_race_detection", False),
            use_static_pruning=data.get("use_static_pruning", False),
        )


@dataclass(slots=True)
class StaticStats:
    """Counters for the static-phase cache (the test spy for amortization)."""

    distance_builds: int = 0
    goal_computes: int = 0
    cache_hits: int = 0
    # Static-pipeline artifacts (PR 6): each counts *builds*, so a stream
    # of reports against one module should leave them at 1.
    absint_builds: int = 0
    lock_builds: int = 0
    slice_builds: int = 0
    # Goal-directed reachability artifacts (PR 7).  Summaries are
    # per-module (1 per module); reach/wp are per distinct goal target set.
    summary_builds: int = 0
    reach_builds: int = 0
    wp_builds: int = 0


class StaticAnalysisCache:
    """Per-module static-phase artifacts, built once and reused.

    Thread-safe: portfolio synthesis runs several variants concurrently
    against one cache.
    """

    def __init__(self, module: ir.Module) -> None:
        self.module = module
        self.stats = StaticStats()
        self._lock = threading.RLock()
        self._distances: Optional[DistanceCalculator] = None
        self._goal_specs: dict[tuple, tuple[GoalSpec, ...]] = {}
        self._warmed: set = set()
        self._absint = None
        self._concurrency = None
        self._slices: dict[tuple, object] = {}
        self._summaries = None
        self._reach: dict[tuple, object] = {}
        self._wp: dict[tuple, object] = {}

    def distances(self) -> DistanceCalculator:
        with self._lock:
            if self._distances is None:
                self._distances = DistanceCalculator(self.module)
                self.stats.distance_builds += 1
            return self._distances

    def absint_facts(self):
        """Abstract-interpretation facts (built once per module).

        Returns :class:`repro.analysis.absint.ModuleFacts`; consult its
        ``pruning_sound`` property before feeding it to an executor.
        """
        from ..analysis.absint import ModuleFacts, analyze_module

        with self._lock:
            if self._absint is None:
                self._absint = analyze_module(self.module)
                self.stats.absint_builds += 1
            facts: ModuleFacts = self._absint
            return facts

    def concurrency_facts(self):
        """Lockset / lock-order facts (:class:`repro.analysis.locks.ConcurrencyFacts`)."""
        from ..analysis.locks import ConcurrencyFacts, analyze_locks

        with self._lock:
            if self._concurrency is None:
                self._concurrency = analyze_locks(self.module)
                self.stats.lock_builds += 1
            facts: ConcurrencyFacts = self._concurrency
            return facts

    def crash_slice(self, report: BugReport):
        """The backward slice from this report's crash site, memoized by
        criterion (distinct reports against one module often share one)."""
        from ..analysis.slice import slice_for_report

        key = (
            repr(report.coredump.fault_ref),
            report.coredump.fault_line,
            tuple(
                (t.top.function, t.top.line)
                for t in report.coredump.blocked_threads()
                if t.top is not None
            ),
        )
        with self._lock:
            if key not in self._slices:
                self._slices[key] = slice_for_report(self.module, report)
                self.stats.slice_builds += 1
            return self._slices[key]

    def summaries(self):
        """Compositional function summaries (:class:`repro.analysis.summaries.ModuleSummaries`)."""
        from ..analysis.summaries import ModuleSummaries, summarize_module

        with self._lock:
            if self._summaries is None:
                self._summaries = summarize_module(self.module)
                self.stats.summary_builds += 1
            summaries: ModuleSummaries = self._summaries
            return summaries

    def reachability(self, targets: tuple):
        """Goal-directed may-reach set for one goal target tuple
        (:class:`repro.analysis.reach.GoalReach`), memoized per target set."""
        from ..analysis.reach import GoalReach, compute_reach

        facts = self.absint_facts()
        with self._lock:
            cached = self._reach.get(targets)
            if cached is None:
                cached = compute_reach(self.module, list(targets), facts)
                self._reach[targets] = cached
                self.stats.reach_builds += 1
            reach: GoalReach = cached
            return reach

    def necessary_conditions(self, targets: tuple):
        """Backward necessary preconditions for one goal target tuple
        (:class:`repro.analysis.wp.NecessaryConditions`), memoized per set."""
        from ..analysis.wp import NecessaryConditions, compute_necessary_conditions

        facts = self.absint_facts()
        summaries = self.summaries()
        reach = self.reachability(targets)
        with self._lock:
            cached = self._wp.get(targets)
            if cached is None:
                cached = compute_necessary_conditions(
                    self.module, list(targets), facts, summaries, reach
                )
                self._wp[targets] = cached
                self.stats.wp_builds += 1
            conditions: NecessaryConditions = cached
            return conditions

    def intermediate_goal_specs(
        self, goal: SynthesisGoal, solver: Solver, *, static_eval: bool = False
    ) -> tuple[GoalSpec, ...]:
        """The disjunctive intermediate-goal specs for a goal's targets,
        computed once per distinct target set and flag value.

        ``static_eval`` lets the derivation answer pinned-constant
        feasibility probes from the abstract interpreter's constant domain
        instead of the solver, and filter out defining blocks the
        interpreter proved unreachable -- the filter can shrink the spec
        set, so the memo key includes the flag.
        """
        key = (goal.targets, static_eval)
        with self._lock:
            cached = self._goal_specs.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                return cached
            specs: list[GoalSpec] = []
            seen: set[tuple] = set()
            # One module pass shared by every target; not kept afterwards
            # (the specs are what the memo holds).
            global_defs = collect_global_definitions(self.module)
            for target in goal.targets:
                for ig in find_intermediate_goals(
                    self.module, target, solver, static_eval=static_eval,
                    global_defs=global_defs,
                ):
                    if ig.alternatives not in seen:
                        seen.add(ig.alternatives)
                        specs.append(GoalSpec(ig.alternatives, f"ig:{ig.variable}"))
            result = tuple(specs)
            self._goal_specs[key] = result
            self.stats.goal_computes += 1
            return result

    def warm(self, specs: Iterable[GoalSpec]) -> None:
        """Build the per-goal distance tables up front so search-phase timing
        is pure search; repeat calls for the same refs are no-ops.

        The lock is held across the builds: a concurrent caller must not see
        a ref marked warm before its table exists, or its static/search time
        split would be wrong (the table would be built lazily mid-search).
        """
        distances = self.distances()
        with self._lock:
            for spec in specs:
                for ref in spec.refs:
                    if ref in self._warmed:
                        continue
                    distances.instruction_distance(ref, ref)
                    self._warmed.add(ref)


@dataclass(slots=True)
class SynthesisResult:
    found: bool
    reason: str
    goal: SynthesisGoal
    execution_file: Optional[ExecutionFile]
    goal_state: Optional[ExecutionState]
    static_seconds: float
    search_seconds: float
    instructions: int
    states_explored: int
    other_bugs: int
    intermediate_goal_count: int = 0
    # States the searcher dropped at INF distance (goal-gated proximity).
    states_pruned: int = 0
    # The executor's necessary-precondition counters (None when the
    # goal-directed layer was off or unsound for this module).
    static_prune: Optional[object] = None

    @property
    def total_seconds(self) -> float:
        return self.static_seconds + self.search_seconds


@dataclass(slots=True)
class SearchSetup:
    """Everything the dynamic phase needs, built once per (module, report,
    config) triple.  :func:`esd_synthesize` uses it inline; the parallel
    exploration pool builds one per worker process."""

    goal: "SynthesisGoal"
    executor: Executor
    searcher: object
    policy: SchedulerPolicy
    intermediate_count: int
    static_seconds: float


def build_search_setup(
    module: ir.Module,
    report: BugReport,
    config: Optional[ESDConfig] = None,
    *,
    statics: Optional[StaticAnalysisCache] = None,
    solver: Optional[Solver] = None,
    seed_offset: int = 0,
    observer: Optional[SearchObserver] = None,
) -> SearchSetup:
    """Run the static phase and wire up executor/searcher/policy.

    ``seed_offset`` perturbs the searcher's RNG seed (each parallel worker
    gets a distinct stream so sibling shards do not mirror each other's
    queue choices).  ``observer`` (a :class:`repro.obs.SearchObserver`)
    wraps the call in a ``phase:static`` span and is attached to the
    executor for its bug marks; it only observes, so timing stays in the
    trace and observed runs stay byte-identical to unobserved ones.
    """
    config = config or ESDConfig()
    observer = observer or UNOBSERVED
    if statics is None:
        statics = StaticAnalysisCache(module)
    elif statics.module is not module:
        raise ValueError(
            f"statics cache was built for module {statics.module.name!r}, "
            f"not {module.name!r}; a recompiled (e.g. patched) program needs "
            f"a fresh cache/session"
        )
    with observer.phase("phase:static"):
        # Resolve the strategy before paying for the static phase, so a typo'd
        # name fails fast (lazy import: the registry layers above core).
        from ..api.registry import get_searcher

        searcher_factory = get_searcher(config.strategy)
        goal = extract_goal(module, report)

        static_started = time.monotonic()
        distances = statics.distances()
        if solver is None:
            solver = Solver()
        intermediate: list[GoalSpec] = []
        if config.use_intermediate_goals:
            intermediate = list(
                statics.intermediate_goal_specs(
                    goal, solver, static_eval=config.use_static_pruning
                )
            )
        final = GoalSpec(goal.targets, "final")
        statics.warm(intermediate + [final])
        absint = None
        wp_conditions = None
        search_distances: DistanceSource = distances
        if config.use_static_pruning:
            facts = statics.absint_facts()
            if facts.pruning_sound:
                absint = facts
                # Goal-directed layer: gate the proximity heuristic with the
                # pruned reach set (states that provably cannot reach the goal
                # score INF and are dropped) and hand the executor the
                # necessary preconditions so refuted branch directions skip
                # their feasibility probes.
                reach = statics.reachability(goal.targets)
                search_distances = GoalGatedDistances(distances, reach.blocks)
                wp_conditions = statics.necessary_conditions(goal.targets)
        static_seconds = time.monotonic() - static_started

        policy = _build_policy(module, goal, config, report.bug_type)
        executor = Executor(
            module,
            solver=solver,
            env=SymbolicEnv(config.string_size, config.max_args),
            policy=policy,
            config=ExecConfig(string_size=config.string_size, max_args=config.max_args),
            absint=absint,
            wp=wp_conditions,
        )
        if seed_offset:
            config = replace(config, seed=config.seed + seed_offset)
        searcher = searcher_factory(search_distances, intermediate, final, config)
        _wire_boost(policy, searcher)
    executor.observer = observer
    return SearchSetup(
        goal=goal,
        executor=executor,
        searcher=searcher,
        policy=policy,
        intermediate_count=len(intermediate),
        static_seconds=static_seconds,
    )


def esd_synthesize(
    module: ir.Module,
    report: BugReport,
    config: Optional[ESDConfig] = None,
    *,
    statics: Optional[StaticAnalysisCache] = None,
    solver: Optional[Solver] = None,
    should_stop: Optional[StopPredicate] = None,
    observer: Optional[SearchObserver] = None,
    executor_sink: Optional[Callable[[Executor], None]] = None,
) -> SynthesisResult:
    """Synthesize an execution reproducing the reported bug.

    ``statics`` shares static-phase artifacts across calls (see
    :class:`StaticAnalysisCache`); ``solver`` shares a solver -- and with it
    the structural counterexample cache -- across calls, the way
    :class:`~repro.api.ReproSession` amortizes solves over a stream of
    reports (the solver is reentrant, so portfolio variants may share one
    concurrently); ``should_stop`` cancels the search cooperatively
    (outcome reason ``'cancelled'``); ``observer`` sees the search's
    progress events and flight records and, when tracing, wraps the whole
    call in a ``job`` span containing the ``phase:*`` spans of the static,
    search, and solve phases; ``executor_sink`` receives the run's
    executor once the search ends (found or not), so callers tracking
    cumulative ``ExecStats`` across runs can fold in this run's counters
    before the executor is dropped.
    """
    config = config or ESDConfig()
    observer = observer or UNOBSERVED
    with observer.phase(f"synth:{module.name}", "job",
                        {"bug_type": report.bug_type}) as job:
        setup = build_search_setup(
            module, report, config, statics=statics, solver=solver,
            observer=observer,
        )
        try:
            result = search_from_setup(
                module, setup, config, should_stop=should_stop,
                observer=observer,
            )
        finally:
            if executor_sink is not None:
                executor_sink(setup.executor)
        if job is not None:
            job.attrs.update(found=result.found, reason=result.reason,
                             instructions=result.instructions,
                             states=result.states_explored)
        return result


@gc_paused()
def search_from_setup(
    module: ir.Module,
    setup: SearchSetup,
    config: Optional[ESDConfig] = None,
    *,
    frontier: Optional[list[ExecutionState]] = None,
    count_frontier: bool = True,
    should_stop: Optional[StopPredicate] = None,
    observer: Optional[SearchObserver] = None,
) -> SynthesisResult:
    """The dynamic phase alone: explore from a prepared
    :class:`SearchSetup` and package the outcome.

    This is the seam the job service schedules through -- it runs
    :func:`build_search_setup` while a job is in its STATIC state and this
    function while it is SEARCHING, on the same shared caches
    :func:`esd_synthesize` uses inline.  ``frontier`` overrides the start
    states (a checkpoint's restored frontier instead of the initial state);
    ``count_frontier=False`` keeps resumed totals from double-counting
    states that were already counted in the leg that snapshotted them.
    """
    config = config or ESDConfig()
    observer = observer or UNOBSERVED
    states = (frontier if frontier is not None
              else [setup.executor.initial_state()])
    with observer.phase("phase:search"):
        outcome = explore_frontier(
            setup.executor,
            setup.searcher,
            states,
            setup.goal.matches,
            config.budget,
            observer=observer,
            should_stop=should_stop,
            count_frontier=count_frontier,
        )
    observer.record_totals(outcome, setup)
    executor = setup.executor
    execution_file = None
    if outcome.goal_state is not None:
        with observer.phase("phase:solve"):
            execution_file = execution_file_from_state(
                module.name,
                outcome.goal_state,
                executor.solver,
                synthesis_seconds=setup.static_seconds + outcome.stats.seconds,
                instructions_explored=outcome.stats.instructions,
            )
    return SynthesisResult(
        found=outcome.found,
        reason=outcome.reason,
        goal=setup.goal,
        execution_file=execution_file,
        goal_state=outcome.goal_state,
        static_seconds=setup.static_seconds,
        search_seconds=outcome.stats.seconds,
        instructions=outcome.stats.instructions,
        states_explored=outcome.stats.states_explored,
        other_bugs=len(outcome.other_bugs),
        intermediate_goal_count=setup.intermediate_count,
        states_pruned=int(getattr(setup.searcher, "pruned", 0) or 0),
        static_prune=executor.prune_stats if executor.wp is not None else None,
    )


def _build_policy(
    module: ir.Module, goal: SynthesisGoal, config: ESDConfig, bug_type: str
) -> SchedulerPolicy:
    from ..api.registry import get_bug_class  # lazy: registry layers above core

    # Keyed by the report's bug type, not goal.bug_class: a plugin whose goal
    # extractor reuses a built-in goal shape (so goal.bug_class says 'crash')
    # must still get its own schedule policies.
    policies = get_bug_class(bug_type).build_policies(module, goal, config)
    if not policies:
        return SchedulerPolicy()
    if len(policies) == 1:
        return policies[0]
    return ChainedPolicy(*policies)


def _wire_boost(policy: SchedulerPolicy, searcher) -> None:
    """Connect policies that re-prioritize snapshot states (deadlock's
    'switch to' move) to searchers that support it."""
    boost = getattr(searcher, "boost", None)
    if boost is None:
        return
    subs = policy.policies if isinstance(policy, ChainedPolicy) else [policy]
    for sub in subs:
        if hasattr(sub, "boost"):
            sub.boost = boost
