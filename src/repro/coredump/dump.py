"""Coredumps and bug reports.

The coredump is ESD's only runtime input (paper section 2): per-thread call
stacks, the faulting instruction, fault values, and -- for hangs -- what each
thread is blocked on.  Our dumps are captured from a concrete VM run of the
buggy input/schedule (the "end-user execution"); crucially, the inputs and
the schedule that produced the dump are *not* part of it, mirroring the
paper's zero-tracing premise.

Dumps serialize to plain dicts (JSON-able) so they can be written next to a
bug report, passed to ``repro synth``, or corrupted/repaired for the ghttpd
scenario (section 7.1: "whose coredump contained a corrupt call stack").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import ir
from ..ir import InstrRef
from ..schema import check_schema_version
from ..symbex.bugs import BugKind
from ..symbex.state import BLOCKED, ExecutionState

COREDUMP_SCHEMA_VERSION = 1
BUGREPORT_SCHEMA_VERSION = 1


@dataclass(slots=True)
class StackFrame:
    function: str
    ref: InstrRef
    line: int

    def to_dict(self) -> dict:
        return {"function": self.function, "ref": repr(self.ref), "line": self.line}

    @classmethod
    def from_dict(cls, data: dict) -> "StackFrame":
        return cls(data["function"], InstrRef.parse(data["ref"]), data["line"])


@dataclass(slots=True)
class ThreadDump:
    tid: int
    frames: list[StackFrame]  # innermost first, like a gdb backtrace
    status: str
    blocked_kind: Optional[str] = None  # 'mutex' | 'cond' | 'join'
    blocked_resource: Optional[str] = None

    @property
    def top(self) -> Optional[StackFrame]:
        return self.frames[0] if self.frames else None

    def functions_outermost_first(self) -> list[str]:
        return [frame.function for frame in reversed(self.frames)]

    def to_dict(self) -> dict:
        return {
            "tid": self.tid,
            "frames": [f.to_dict() for f in self.frames],
            "status": self.status,
            "blocked_kind": self.blocked_kind,
            "blocked_resource": self.blocked_resource,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ThreadDump":
        return cls(
            tid=data["tid"],
            frames=[StackFrame.from_dict(f) for f in data["frames"]],
            status=data["status"],
            blocked_kind=data.get("blocked_kind"),
            blocked_resource=data.get("blocked_resource"),
        )


@dataclass(slots=True)
class Coredump:
    program: str
    manifestation: str  # 'crash' | 'hang'
    threads: list[ThreadDump]
    faulting_tid: Optional[int] = None
    bug_kind: Optional[BugKind] = None
    fault_ref: Optional[InstrRef] = None
    fault_line: int = 0
    fault_value: Optional[int] = None
    fault_message: str = ""
    corrupted: bool = False

    def thread(self, tid: int) -> ThreadDump:
        for thread in self.threads:
            if thread.tid == tid:
                return thread
        raise KeyError(f"no thread {tid} in coredump")

    def blocked_threads(self) -> list[ThreadDump]:
        return [t for t in self.threads if t.status == BLOCKED]

    def to_dict(self) -> dict:
        return {
            "schema_version": COREDUMP_SCHEMA_VERSION,
            "program": self.program,
            "manifestation": self.manifestation,
            "threads": [t.to_dict() for t in self.threads],
            "faulting_tid": self.faulting_tid,
            "bug_kind": self.bug_kind.value if self.bug_kind else None,
            "fault_ref": repr(self.fault_ref) if self.fault_ref else None,
            "fault_line": self.fault_line,
            "fault_value": self.fault_value,
            "fault_message": self.fault_message,
            "corrupted": self.corrupted,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Coredump":
        check_schema_version(data, COREDUMP_SCHEMA_VERSION, "coredump")
        kind = data.get("bug_kind")
        return cls(
            program=data["program"],
            manifestation=data["manifestation"],
            threads=[ThreadDump.from_dict(t) for t in data["threads"]],
            faulting_tid=data.get("faulting_tid"),
            bug_kind=BugKind(kind) if kind else None,
            fault_ref=InstrRef.parse(data["fault_ref"]) if data.get("fault_ref") else None,
            fault_line=data.get("fault_line", 0),
            fault_value=data.get("fault_value"),
            fault_message=data.get("fault_message", ""),
            corrupted=data.get("corrupted", False),
        )


@dataclass(slots=True)
class BugReport:
    """What a developer receives: the coredump plus a bug-type hint, the two
    inputs of ``repro synth`` (section 8's usage model)."""

    coredump: Coredump
    bug_type: str  # 'crash' | 'deadlock' | 'race'
    description: str = ""
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": BUGREPORT_SCHEMA_VERSION,
            "coredump": self.coredump.to_dict(),
            "bug_type": self.bug_type,
            "description": self.description,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BugReport":
        check_schema_version(data, BUGREPORT_SCHEMA_VERSION, "bug report")
        return cls(
            coredump=Coredump.from_dict(data["coredump"]),
            bug_type=data["bug_type"],
            description=data.get("description", ""),
            metadata=dict(data.get("metadata", {})),
        )


def coredump_from_state(module: ir.Module, state: ExecutionState) -> Coredump:
    """Capture a coredump from a terminal bug state of a concrete run."""
    if state.status != "bug" or state.bug is None:
        raise ValueError("coredump requires a state that hit a bug")
    bug = state.bug
    threads: list[ThreadDump] = []
    for thread in state.threads.values():
        if thread.status == "exited":
            continue
        frames = [
            StackFrame(ref.function, ref, module.instruction(ref).line
                       if _valid_ref(module, ref) else 0)
            for ref in thread.call_stack()
        ]
        blocked_kind = None
        blocked_resource = None
        if thread.status == BLOCKED and thread.blocked_on:
            blocked_kind = thread.blocked_on[0]
            blocked_resource = f"{thread.blocked_on[0]}@{thread.blocked_on[1]}"
        threads.append(
            ThreadDump(thread.tid, frames, thread.status, blocked_kind, blocked_resource)
        )
    return Coredump(
        program=module.name,
        manifestation="hang" if bug.kind.is_hang else "crash",
        threads=threads,
        faulting_tid=bug.tid,
        bug_kind=bug.kind,
        fault_ref=bug.ref,
        fault_line=bug.line,
        fault_value=bug.fault_value,
        fault_message=bug.message,
    )


def _valid_ref(module: ir.Module, ref: InstrRef) -> bool:
    func = module.functions.get(ref.function)
    if func is None:
        return False
    block = func.blocks.get(ref.block)
    return block is not None and ref.index <= len(block.instrs)


def corrupt_stack(dump: Coredump, tid: Optional[int] = None) -> Coredump:
    """Simulate the ghttpd scenario: the faulting thread's call stack is
    smashed by the overflow and only the innermost frame survives (garbled)."""
    target = tid if tid is not None else dump.faulting_tid
    corrupted = Coredump.from_dict(dump.to_dict())
    corrupted.corrupted = True
    for thread in corrupted.threads:
        if thread.tid == target:
            thread.frames = thread.frames[:1]
    return corrupted


def repair_stack(dump: Coredump, module: ir.Module) -> Coredump:
    """Reconstruct a corrupted call stack (the paper repaired ghttpd's by
    hand with gdb; this is the automated variant they describe as future
    work).  Strategy: walk the call graph backward from the faulting frame's
    function to main, choosing the shortest caller chain; resume points are
    the call sites."""
    from ..analysis.cfg import build_call_graph

    if not dump.corrupted or dump.faulting_tid is None:
        return dump
    graph = build_call_graph(module)
    repaired = Coredump.from_dict(dump.to_dict())
    repaired.corrupted = False
    thread = repaired.thread(dump.faulting_tid)
    if not thread.frames:
        return repaired
    chain = _caller_chain(graph, thread.frames[0].function)
    frames = [thread.frames[0]]
    for caller, callee in chain:
        site = _first_call_site(graph, caller, callee)
        if site is None:
            break
        resume = InstrRef(site.function, site.block, site.index + 1)
        line = module.instruction(site).line
        frames.append(StackFrame(caller, resume, line))
    thread.frames = frames
    return repaired


def _caller_chain(graph, target: str) -> list[tuple[str, str]]:
    """Shortest (caller, callee) chain from main down to ``target``,
    returned innermost-first: [(caller_of_target, target), ..., ('main', x)]."""
    from collections import deque

    if target == "main":
        return []
    parents: dict[str, str] = {}
    queue = deque(["main"])
    seen = {"main"}
    while queue:
        name = queue.popleft()
        for callee in graph.callees.get(name, ()):
            if callee not in seen:
                seen.add(callee)
                parents[callee] = name
                queue.append(callee)
    if target not in parents:
        return []
    chain: list[tuple[str, str]] = []
    node = target
    while node != "main":
        parent = parents[node]
        chain.append((parent, node))
        node = parent
    return chain


def _first_call_site(graph, caller: str, callee: str):
    for (func, _), sites in graph.sites_by_block.items():
        if func != caller:
            continue
        for site in sites:
            if callee in site.targets:
                return site.ref
    return None
