"""IR containers: basic blocks, functions, globals, modules.

A :class:`Module` is the unit ESD analyzes and executes -- the analogue of the
LLVM bitcode file the paper compiles each program to.  Program locations are
identified by :class:`InstrRef` (function, block label, instruction index),
which is the representation used for goals, critical edges, and schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .instructions import Instr, Terminator
from .values import Value


@dataclass(frozen=True, slots=True, order=True)
class InstrRef:
    """A stable reference to one instruction.

    ``index == len(block.instrs)`` refers to the block's terminator.
    """

    function: str
    block: str
    index: int

    def __repr__(self) -> str:
        return f"{self.function}:{self.block}:{self.index}"

    @classmethod
    def parse(cls, text: str) -> "InstrRef":
        function, block, index = text.rsplit(":", 2)
        return cls(function, block, int(index))


class BasicBlock:
    """A labelled straight-line instruction sequence plus one terminator."""

    __slots__ = ("label", "instrs", "terminator")

    def __init__(self, label: str) -> None:
        self.label = label
        self.instrs: list[Instr] = []
        self.terminator: Optional[Terminator] = None

    def append(self, instr: Instr) -> None:
        if self.terminator is not None:
            raise ValueError(f"block {self.label} already terminated")
        if isinstance(instr, Terminator):
            self.terminator = instr
        else:
            self.instrs.append(instr)

    @property
    def terminated(self) -> bool:
        return self.terminator is not None

    def instruction_at(self, index: int) -> Instr:
        """Instruction at ``index``; the terminator sits at ``len(instrs)``."""
        if index == len(self.instrs):
            assert self.terminator is not None
            return self.terminator
        return self.instrs[index]

    def __len__(self) -> int:
        """Number of instructions including the terminator."""
        return len(self.instrs) + (1 if self.terminator is not None else 0)

    def __repr__(self) -> str:
        return f"<block {self.label} ({len(self)} instrs)>"


class Function:
    """A function: parameter names plus an ordered collection of blocks."""

    def __init__(self, name: str, params: Optional[list[str]] = None) -> None:
        self.name = name
        self.params: list[str] = list(params or [])
        self.blocks: dict[str, BasicBlock] = {}
        self.entry: str = "entry"

    def block(self, label: str) -> BasicBlock:
        """Get or create the block with this label."""
        existing = self.blocks.get(label)
        if existing is not None:
            return existing
        block = BasicBlock(label)
        self.blocks[label] = block
        return block

    def instruction(self, ref: InstrRef) -> Instr:
        if ref.function != self.name:
            raise KeyError(f"{ref} is not in function {self.name}")
        return self.blocks[ref.block].instruction_at(ref.index)

    def iter_instructions(self) -> Iterator[tuple[InstrRef, Instr]]:
        for label, block in self.blocks.items():
            for index, instr in enumerate(block.instrs):
                yield InstrRef(self.name, label, index), instr
            if block.terminator is not None:
                yield InstrRef(self.name, label, len(block.instrs)), block.terminator

    @property
    def size(self) -> int:
        """Total instruction count (including terminators)."""
        return sum(len(block) for block in self.blocks.values())

    def __repr__(self) -> str:
        return f"<function {self.name}({', '.join(self.params)})>"


@dataclass(slots=True)
class GlobalVar:
    """A module-level memory object of ``size`` cells.

    ``init`` supplies initial cell values (shorter than ``size`` means the
    tail is zero-filled).  String literals become NUL-terminated globals.
    """

    name: str
    size: int
    init: list[int] = field(default_factory=list)
    is_mutex: bool = False
    is_cond: bool = False


class Module:
    """A whole program: functions + globals + source metadata."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalVar] = {}
        self.source_lines: list[str] = []
        self._string_counter = 0

    def function(self, name: str, params: Optional[list[str]] = None) -> Function:
        """Get or create a function."""
        existing = self.functions.get(name)
        if existing is not None:
            return existing
        func = Function(name, params)
        self.functions[name] = func
        return func

    def add_global(self, var: GlobalVar) -> GlobalVar:
        if var.name in self.globals:
            raise ValueError(f"duplicate global {var.name}")
        self.globals[var.name] = var
        return var

    def intern_string(self, text: str) -> str:
        """Create (or reuse) a NUL-terminated global holding ``text``.

        Returns the global's name.
        """
        cells = [ord(ch) for ch in text] + [0]
        for var in self.globals.values():
            if var.init == cells and var.name.startswith(".str"):
                return var.name
        name = f".str{self._string_counter}"
        self._string_counter += 1
        self.add_global(GlobalVar(name, len(cells), cells))
        return name

    def instruction(self, ref: InstrRef) -> Instr:
        return self.functions[ref.function].instruction(ref)

    def source_line(self, line: int) -> str:
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1]
        return ""

    @property
    def size(self) -> int:
        return sum(func.size for func in self.functions.values())

    def __repr__(self) -> str:
        return (
            f"<module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals, {self.size} instrs>"
        )

