"""Counters and spans around the program's public entry points.

Everything is installed from the benchmark's own files by rebinding names:
the program under ``src/`` is not modified.  Two modes:

* counting (both legs): every solver, counterexample cache and static
  cache the process creates is bound into one ``MetricsRegistry``, and each
  search phase adds its instruction/state counts and its executor's
  counters; an operation's counters are the ``counters_delta`` of two
  snapshots.  These wrappers run once per search phase or constructed
  object, read no clock and change no argument, so they cannot perturb the
  search.
* tracing (the traced leg only): additionally, each entry point in
  ``FUNCTIONS``/``METHODS`` records a span (name, start, end, parent span,
  operation).  Spans stay in memory until the leg ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Callable, Optional

from ledger import Span, bench_counters

from repro.core.synthesis import StaticAnalysisCache
from repro.obs import MetricsRegistry, counters_delta, unified_registry
from repro.search import Searcher
from repro.solver import CounterexampleCache, Solver

# (span name, defining module, function).  The function is rebound in every
# ``repro`` module that imported it by name.
FUNCTIONS = [
    ("compile_source", "repro.lang.compiler", "compile_source"),
    ("compile_python_source", "repro.frontend.compiler", "compile_python_source"),
    ("build_search_setup", "repro.core.synthesis", "build_search_setup"),
    ("search_from_setup", "repro.core.synthesis", "search_from_setup"),
    ("play_back", "repro.playback.replay", "play_back"),
    ("synthesize_passing_executions", "repro.repair.localize",
     "synthesize_passing_executions"),
    ("localize", "repro.repair.localize", "localize"),
    ("validate_patch", "repro.repair.validate", "validate_patch"),
]

# (span name, defining module, class, method).
METHODS = [
    ("ReproSession.synthesize", "repro.api.session", "ReproSession", "synthesize"),
    ("ReproSession.repair", "repro.api.session", "ReproSession", "repair"),
    ("Solver.check", "repro.solver.solver", "Solver", "check"),
    ("Solver.model", "repro.solver.solver", "Solver", "model"),
    ("ArtifactStore.put_bytes", "repro.store.artifacts", "ArtifactStore",
     "put_bytes"),
    ("ReproService.submit", "repro.service.service", "ReproService", "submit"),
    ("ReproService.wait", "repro.service.service", "ReproService", "wait"),
]

# Every searcher class's add/pick is a span of its own.
SEARCHER_METHODS = ("add", "pick")

# Modules whose by-name imports of a wrapped function must be rebound.
_IMPORTS = ("repro", "repro.api.session", "repro.service.service",
            "repro.repair", "repro.repair.patcher", "repro.playback",
            "repro.frontend", "repro.lang", "repro.workloads.base")


def _rebind(original: Callable, replacement: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _searcher_classes() -> list[type]:
    found, todo = [], [Searcher]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Probes:
    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.job: Optional[int] = None
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._solver_stats: list = []
        self._cache_stats: list = []
        self._static_stats: list = []
        self.registry = MetricsRegistry()
        self.registry.bind_stats("esd_solver", lambda: list(self._solver_stats))
        self.registry.bind_stats("esd_solver_cache",
                                 lambda: list(self._cache_stats))
        self.registry.bind_stats("esd_static", lambda: list(self._static_stats))
        self._before: Optional[dict] = None

    # -- installation ----------------------------------------------------------

    def install(self) -> "Probes":
        for module in _IMPORTS:
            importlib.import_module(module)
        self._track(Solver, self._solver_stats)
        self._track(CounterexampleCache, self._cache_stats)
        self._track(StaticAnalysisCache, self._static_stats)
        synthesis = sys.modules["repro.core.synthesis"]
        search = synthesis.search_from_setup
        _rebind(search, self._counted_search(search))
        if self.trace:
            for span_name, module, attr in FUNCTIONS:
                original = getattr(importlib.import_module(module), attr)
                _rebind(original, self._span(span_name, original))
            for span_name, module, cls_name, attr in METHODS:
                cls = getattr(importlib.import_module(module), cls_name)
                setattr(cls, attr, self._span(span_name, getattr(cls, attr)))
            for cls in _searcher_classes():
                for attr in SEARCHER_METHODS:
                    if attr in vars(cls):
                        setattr(cls, attr,
                                self._span(f"searcher.{attr}", vars(cls)[attr]))
        return self

    @staticmethod
    def _track(cls: type, sink: list) -> None:
        init = cls.__init__

        @functools.wraps(init)
        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            sink.append(self.stats)

        cls.__init__ = tracked

    def _counted_search(self, search: Callable) -> Callable:
        registry = self.registry

        @functools.wraps(search)
        def counted(module, setup, *args, **kwargs):
            executor = unified_registry(executor=setup.executor)
            before = executor.snapshot()
            result = search(module, setup, *args, **kwargs)
            delta = counters_delta(executor.snapshot(), before)
            for name, value in delta.items():
                if name.startswith("esd_exec_"):
                    registry.counter(name).inc(value)
            registry.counter("esd_search_instructions_total").inc(
                result.instructions)
            registry.counter("esd_search_states_explored_total").inc(
                result.states_explored)
            registry.counter("esd_search_states_pruned_total").inc(
                result.states_pruned)
            return result

        return counted

    def _span(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        ids = self._ids
        local = self._local
        client = self._client
        clock = time.perf_counter
        probes = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            job = probes.job
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, job,
                                  threading.get_ident() != client))

        return traced

    # -- per-operation readings ------------------------------------------------

    def begin_op(self, index: int) -> None:
        self.job = index
        self._before = self.registry.snapshot()

    def end_op(self) -> dict[str, int]:
        """The operation's counters (snapshot delta since ``begin_op``)."""
        delta = counters_delta(self.registry.snapshot(), self._before)
        self.job = None
        self._before = None
        return bench_counters(delta)

    def take_spans(self) -> list[Span]:
        spans = list(self.spans)
        self.spans.clear()
        return spans
