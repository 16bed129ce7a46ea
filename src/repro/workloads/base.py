"""Workload framework: the evaluation programs and their bug reports.

Each workload bundles a MiniC program with a known bug, the concrete inputs
and (for concurrency bugs) the scripted schedule of the "end-user run" that
manifests it, and the machinery to produce the coredump ESD starts from.
The trigger is used exactly once, to generate the dump -- synthesis never
sees it, preserving the paper's zero-tracing premise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .. import ir
from ..baselines import Directive, ForcedSchedulePolicy
from ..coredump import BugReport, Coredump, coredump_from_state, corrupt_stack
from ..gcpause import gc_paused
from ..lang import compile_source
from ..symbex import BugKind, ConcreteEnv, ExecConfig, Executor, RecordedInputs

DirectiveFactory = Callable[[ir.Module], list[Directive]]


@dataclass
class Workload:
    name: str
    source: str
    bug_type: str  # 'crash' | 'deadlock' | 'race'
    expected_kind: BugKind
    description: str
    trigger_inputs: RecordedInputs = field(default_factory=RecordedInputs)
    directives: Optional[DirectiveFactory] = None
    corrupt_dump: bool = False  # the ghttpd scenario
    paper_seconds: Optional[float] = None  # Table 1's reported synthesis time
    lang: str = "esd"  # 'esd' (MiniC) | 'python' (repro.frontend)
    _module: Optional[ir.Module] = None

    def compile(self) -> ir.Module:
        if self._module is None:
            if self.lang == "python":
                from ..frontend import compile_python_source

                self._module = compile_python_source(self.source, self.name)
            else:
                self._module = compile_source(self.source, self.name)
        return self._module

    @property
    def kloc(self) -> float:
        return len(self.source.splitlines()) / 1000.0

    def trigger(self) -> tuple[ir.Module, "object"]:
        """Run the program once with the known trigger, returning the
        terminal bug state (the end-user's unlucky execution)."""
        module = self.compile()
        policy = (
            ForcedSchedulePolicy(self.directives(module))
            if self.directives is not None else None
        )
        executor = Executor(
            module,
            env=ConcreteEnv(self.trigger_inputs),
            policy=policy,
            config=ExecConfig(),
        )
        with gc_paused():
            state = executor.run_to_completion(executor.initial_state())
        if state.status != "bug" or state.bug is None:
            raise RuntimeError(
                f"workload {self.name}: trigger did not manifest the bug "
                f"(status {state.status})"
            )
        if state.bug.kind is not self.expected_kind:
            raise RuntimeError(
                f"workload {self.name}: trigger produced {state.bug.kind}, "
                f"expected {self.expected_kind}"
            )
        return module, state

    def make_coredump(self) -> Coredump:
        module, state = self.trigger()
        dump = coredump_from_state(module, state)
        if self.corrupt_dump:
            dump = corrupt_stack(dump)
        return dump

    def make_report(self) -> BugReport:
        return BugReport(
            self.make_coredump(),
            self.bug_type,
            description=self.description,
        )
