"""The synthesized-execution file (paper section 5.1).

Contains everything playback needs: concrete values for all program inputs
(solved from the path constraints) and the thread schedule, in both forms the
paper describes -- happens-before relations between synchronization
operations (allowing parallel playback) and the strict serial schedule (the
exact context-switch points, for serial single-stepping).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..ir import InstrRef
from ..solver import Solver
from ..symbex.env import RecordedInputs
from ..schema import canonical_json_bytes, check_schema_version
from ..symbex.state import ExecutionState, Segment

EXECFILE_SCHEMA_VERSION = 1


@dataclass(slots=True)
class HappensBefore:
    """One serialized sync operation; the file stores the total order, and
    playback enforces the per-resource partial order it induces."""

    seq: int
    tid: int
    op: str
    addr: Optional[tuple] = None
    ref: str = ""

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "tid": self.tid,
            "op": self.op,
            "addr": list(self.addr) if self.addr is not None else None,
            "ref": self.ref,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HappensBefore":
        addr = data.get("addr")
        return cls(
            seq=data["seq"],
            tid=data["tid"],
            op=data["op"],
            addr=tuple(addr) if addr is not None else None,
            ref=data.get("ref", ""),
        )


@dataclass(slots=True)
class ExecutionFile:
    program: str
    inputs: RecordedInputs
    strict_schedule: list[Segment] = field(default_factory=list)
    happens_before: list[HappensBefore] = field(default_factory=list)
    bug_summary: str = ""
    bug_kind: str = ""
    bug_ref: str = ""
    synthesis_seconds: float = 0.0
    instructions_explored: int = 0

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "esd-execution-file-v1",
            "schema_version": EXECFILE_SCHEMA_VERSION,
            "program": self.program,
            "inputs": self.inputs.to_dict(),
            "strict_schedule": [[s.tid, s.instrs] for s in self.strict_schedule],
            "happens_before": [h.to_dict() for h in self.happens_before],
            "bug_summary": self.bug_summary,
            "bug_kind": self.bug_kind,
            "bug_ref": self.bug_ref,
            "synthesis_seconds": self.synthesis_seconds,
            "instructions_explored": self.instructions_explored,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionFile":
        check_schema_version(data, EXECFILE_SCHEMA_VERSION, "execution file")
        return cls(
            program=data["program"],
            inputs=RecordedInputs.from_dict(data["inputs"]),
            strict_schedule=[Segment(t, n) for t, n in data.get("strict_schedule", [])],
            happens_before=[
                HappensBefore.from_dict(h) for h in data.get("happens_before", [])
            ],
            bug_summary=data.get("bug_summary", ""),
            bug_kind=data.get("bug_kind", ""),
            bug_ref=data.get("bug_ref", ""),
            synthesis_seconds=data.get("synthesis_seconds", 0.0),
            instructions_explored=data.get("instructions_explored", 0),
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExecutionFile":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def canonical_dict(self) -> dict:
        """The content-addressable form: volatile search provenance --
        wall-clock timing and instructions explored -- is zeroed (it lives
        in the job record instead), so re-synthesizing the same execution
        yields the same digest no matter how much exploration (or static
        pruning) it took to find."""
        data = self.to_dict()
        data["synthesis_seconds"] = 0.0
        data["instructions_explored"] = 0
        return data

    def canonical_bytes(self) -> bytes:
        """Deterministic byte serialization for the artifact store: two
        identical synthesized executions are one stored object."""
        return canonical_json_bytes(self.canonical_dict())

    # -- identity (for bug triage/dedup, paper section 8) -----------------------

    def fingerprint(self) -> tuple:
        """Two synthesized executions with the same fingerprint correspond to
        the same bug (automated dedup)."""
        return (
            self.program,
            self.bug_kind,
            self.bug_ref,
            tuple(self.inputs.stdin),
            tuple(sorted(self.inputs.env.items())),
            tuple(self.inputs.args),
            tuple((s.tid, s.instrs) for s in self.strict_schedule),
        )


def concretize_inputs(state: ExecutionState, solver: Solver) -> RecordedInputs:
    """Solve the goal state's path constraints and produce concrete values
    for every input the execution introduced (paper: "solves the constraints
    ... and computes all the inputs required").

    Unconstrained input variables default to their domain minimum (0), which
    for strings means "empty from here on".
    """
    model = solver.model(state.constraints, state.path)
    if model is None:
        raise ValueError("goal state constraints are unsatisfiable")

    def value_of(var) -> int:
        return model.get(var.name, var.lo)

    inputs = RecordedInputs()
    for event in state.input_events:
        if event.kind == "stdin":
            inputs.stdin.append(value_of(event.variables[0]))
        elif event.kind == "env":
            inputs.env[event.key] = _string_from(event.variables, value_of)
        elif event.kind == "arg":
            index = int(event.key)
            while len(inputs.args) < index:
                inputs.args.append("")
            text = _string_from(event.variables, value_of)
            if index == 0:
                continue  # argv[0] is the program name
            inputs.args[index - 1] = text
        elif event.kind == "argc":
            inputs.argc = value_of(event.variables[0])
        elif event.kind == "buffer":
            inputs.buffers[event.key] = [value_of(v) for v in event.variables]
    return inputs


def _string_from(variables, value_of) -> str:
    chars = []
    for var in variables:
        value = value_of(var) & 0xFF
        if value == 0:
            break
        chars.append(chr(value))
    return "".join(chars)


def execution_file_from_state(
    module_name: str,
    state: ExecutionState,
    solver: Solver,
    synthesis_seconds: float = 0.0,
    instructions_explored: int = 0,
) -> ExecutionFile:
    """Build the playback file from a goal state (synthesis step 6)."""
    inputs = concretize_inputs(state, solver)
    happens_before = [
        HappensBefore(e.seq, e.tid, e.op, e.addr, repr(e.ref))
        for e in state.sync_log
    ]
    bug_kind = state.bug.kind.value if state.bug else ""
    bug_ref = repr(state.bug.ref) if state.bug else ""
    return ExecutionFile(
        program=module_name,
        inputs=inputs,
        strict_schedule=state.finish_segments(),
        happens_before=happens_before,
        bug_summary=state.bug.summary() if state.bug else "",
        bug_kind=bug_kind,
        bug_ref=bug_ref,
        synthesis_seconds=synthesis_seconds,
        instructions_explored=instructions_explored,
    )
