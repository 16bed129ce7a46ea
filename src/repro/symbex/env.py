"""Environment models: where program inputs come from.

During synthesis the environment is *symbolic*: ``getchar``/``getenv``/argv
return fresh unconstrained symbolic values (paper section 3.3), recorded as
:class:`~repro.symbex.state.InputEvent` so the final model can be turned into
concrete playback inputs.  During playback the environment is *concrete*: it
serves exactly the values stored in the synthesized execution file.

Reading the same environment variable or argv slot twice returns the same
buffer, keeping symbolic I/O consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..solver.expr import Atom, Var, make_var
from .memory import Pointer
from .state import ExecutionState, InputEvent


class InputProvider:
    """Interface between the executor's intrinsics and the input source."""

    def getchar(self, state: ExecutionState) -> Atom:
        raise NotImplementedError

    def getenv(self, state: ExecutionState, name: str) -> Pointer:
        raise NotImplementedError

    def argc(self, state: ExecutionState) -> Atom:
        raise NotImplementedError

    def arg(self, state: ExecutionState, index: int) -> Pointer:
        raise NotImplementedError

    def read_input(self, state: ExecutionState, name: str, size: int) -> Pointer:
        raise NotImplementedError


class SymbolicEnv(InputProvider):
    """Fresh symbolic values for every input, with finite byte domains.

    ``string_size`` bounds env/argv strings (``size - 1`` symbolic characters
    plus a forced NUL), the practical analogue of Klee's fixed-size symbolic
    buffers.
    """

    def __init__(self, string_size: int = 8, max_args: int = 4) -> None:
        if string_size < 1:
            raise ValueError("string_size must be at least 1")
        self.string_size = string_size
        self.max_args = max_args

    def getchar(self, state: ExecutionState) -> Atom:
        index = len(state.env.stdin_vars)
        var = make_var(f"stdin{index}", 0, 255)
        state.env.stdin_vars.append(var)
        state.log_input(InputEvent("stdin", str(index), [var]))
        return var

    def _symbolic_string(
        self, state: ExecutionState, label: str, size: int, nul_terminated: bool
    ) -> tuple[Pointer, list[Var]]:
        variables: list[Var] = []
        cells: list = []
        payload = size - 1 if nul_terminated else size
        for i in range(payload):
            var = make_var(f"{label}.{i}", 0, 255)
            variables.append(var)
            cells.append(var)
        if nul_terminated:
            cells.append(0)
        obj = state.new_object(len(cells), "heap", label, init=cells)
        return Pointer(obj.obj_id, 0), variables

    def getenv(self, state: ExecutionState, name: str) -> Pointer:
        cached = state.env.env_buffers.get(name)
        if cached is not None:
            return cached
        pointer, variables = self._symbolic_string(
            state, f"env.{name}", self.string_size, nul_terminated=True
        )
        state.env.env_buffers[name] = pointer
        state.log_input(InputEvent("env", name, variables))
        return pointer

    def argc(self, state: ExecutionState) -> Atom:
        if state.env.argc_var is None:
            var = make_var("argc", 1, self.max_args)
            state.env.argc_var = var
            state.log_input(InputEvent("argc", "argc", [var]))
        return state.env.argc_var

    def arg(self, state: ExecutionState, index: int) -> Pointer:
        cached = state.env.arg_buffers.get(index)
        if cached is not None:
            return cached
        pointer, variables = self._symbolic_string(
            state, f"arg{index}", self.string_size, nul_terminated=True
        )
        state.env.arg_buffers[index] = pointer
        state.log_input(InputEvent("arg", str(index), variables))
        return pointer

    def read_input(self, state: ExecutionState, name: str, size: int) -> Pointer:
        cached = state.env.buffers.get(name)
        if cached is not None:
            return cached
        pointer, variables = self._symbolic_string(
            state, f"buf.{name}", size, nul_terminated=False
        )
        state.env.buffers[name] = pointer
        state.log_input(InputEvent("buffer", name, variables))
        return pointer


@dataclass(slots=True)
class RecordedInputs:
    """Concrete inputs extracted from a synthesized execution file (or chosen
    by a test/stress driver)."""

    stdin: list[int] = field(default_factory=list)
    env: dict[str, str] = field(default_factory=dict)
    args: list[str] = field(default_factory=list)
    argc: Optional[int] = None
    buffers: dict[str, list[int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "stdin": list(self.stdin),
            "env": dict(self.env),
            "args": list(self.args),
            "argc": self.argc,
            "buffers": {k: list(v) for k, v in self.buffers.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RecordedInputs":
        return cls(
            stdin=list(data.get("stdin", [])),
            env=dict(data.get("env", {})),
            args=list(data.get("args", [])),
            argc=data.get("argc"),
            buffers={k: list(v) for k, v in data.get("buffers", {}).items()},
        )


class ConcreteEnv(InputProvider):
    """Serves recorded inputs; used by playback and by the stress baseline.

    Missing entries fall back to zero / empty string, matching how the
    synthesizer concretizes unconstrained symbolic inputs.
    """

    def __init__(self, inputs: RecordedInputs, default_buffer_size: int = 8) -> None:
        self.inputs = inputs
        self.default_buffer_size = default_buffer_size

    def getchar(self, state: ExecutionState) -> Atom:
        cursor = int(state.meta.get("stdin_pos", 0))  # type: ignore[arg-type]
        state.meta["stdin_pos"] = cursor + 1
        if cursor < len(self.inputs.stdin):
            return self.inputs.stdin[cursor]
        return 0

    def _concrete_string(self, state: ExecutionState, label: str, text: str) -> Pointer:
        cells: list = [ord(ch) & 0xFF for ch in text] + [0]
        obj = state.new_object(len(cells), "heap", label, init=cells)
        return Pointer(obj.obj_id, 0)

    def getenv(self, state: ExecutionState, name: str) -> Pointer:
        cached = state.env.env_buffers.get(name)
        if cached is not None:
            return cached
        pointer = self._concrete_string(
            state, f"env.{name}", self.inputs.env.get(name, "")
        )
        state.env.env_buffers[name] = pointer
        return pointer

    def argc(self, state: ExecutionState) -> Atom:
        if self.inputs.argc is not None:
            return self.inputs.argc
        return len(self.inputs.args) + 1

    def arg(self, state: ExecutionState, index: int) -> Pointer:
        cached = state.env.arg_buffers.get(index)
        if cached is not None:
            return cached
        if index == 0:
            text = "prog"
        elif 1 <= index <= len(self.inputs.args):
            text = self.inputs.args[index - 1]
        else:
            text = ""
        pointer = self._concrete_string(state, f"arg{index}", text)
        state.env.arg_buffers[index] = pointer
        return pointer

    def read_input(self, state: ExecutionState, name: str, size: int) -> Pointer:
        cached = state.env.buffers.get(name)
        if cached is not None:
            return cached
        recorded = self.inputs.buffers.get(name, [])
        cells: list = [recorded[i] if i < len(recorded) else 0 for i in range(size)]
        obj = state.new_object(size, "heap", f"buf.{name}", init=cells)
        pointer = Pointer(obj.obj_id, 0)
        state.env.buffers[name] = pointer
        return pointer
