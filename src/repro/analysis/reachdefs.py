"""Reaching definitions of named variables (paper section 3.2).

The MiniC compiler makes every named variable memory-resident with a
dedicated address register (``x.addr`` for locals) or a global reference, so
definitions are syntactically recognizable: a ``Store`` whose address operand
is a variable's base address defines that variable.

Locals get a classic intra-procedural forward dataflow (GEN/KILL per block,
union-confluence).  Globals get a flow-insensitive whole-module set (any
store anywhere, plus the static initializer), which matches the paper's
"intra- and inter-procedural data flow analysis" at the precision our
intermediate-goal search needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .. import ir
from ..ir import InstrRef
from .cfg import CFG

# A named variable: ('local', function, name) or ('global', name).
VarId = Union[tuple[str, str, str], tuple[str, str]]


@dataclass(frozen=True, slots=True)
class Definition:
    var: VarId
    ref: InstrRef
    value: ir.Value  # the stored IR operand (Const means statically known)

    @property
    def constant(self) -> Optional[int]:
        return self.value.value if isinstance(self.value, ir.Const) else None


def local_address_regs(func: ir.Function) -> dict[str, str]:
    """Map address-register name -> variable name for this function's locals."""
    regs: dict[str, str] = {}
    for _, instr in func.iter_instructions():
        if isinstance(instr, ir.Alloc) and not instr.heap and instr.name:
            if isinstance(instr.dst, ir.Reg):
                regs[instr.dst.name] = instr.name
    return regs


def store_target(
    instr: ir.Instr, func: ir.Function, addr_regs: dict[str, str]
) -> Optional[VarId]:
    """The named variable a store defines, if statically identifiable."""
    if not isinstance(instr, ir.Store):
        return None
    addr = instr.addr
    if isinstance(addr, ir.GlobalRef):
        return ("global", addr.name)
    if isinstance(addr, ir.Reg) and addr.name in addr_regs:
        return ("local", func.name, addr_regs[addr.name])
    return None


class ReachingDefs:
    """Per-function reaching definitions for local scalars (the global sets
    are module-wide: :func:`collect_global_definitions`)."""

    def __init__(self, module: ir.Module, func_name: str) -> None:
        self.module = module
        self.func = module.functions[func_name]
        self.cfg = CFG(self.func)
        self.addr_regs = local_address_regs(self.func)
        self._block_defs: dict[str, list[Definition]] = {}
        self._in: dict[str, frozenset[Definition]] = {}
        self._analyze()

    def _analyze(self) -> None:
        gen: dict[str, dict[VarId, Definition]] = {}
        for label, block in self.func.blocks.items():
            defs: list[Definition] = []
            last: dict[VarId, Definition] = {}
            for index, instr in enumerate(block.instrs):
                var = store_target(instr, self.func, self.addr_regs)
                if var is not None and var[0] == "local":
                    d = Definition(var, InstrRef(self.func.name, label, index), instr.value)
                    defs.append(d)
                    last[var] = d
            self._block_defs[label] = defs
            gen[label] = last

        in_sets: dict[str, set[Definition]] = {label: set() for label in self.func.blocks}
        out_sets: dict[str, set[Definition]] = {}
        for label in self.func.blocks:
            out_sets[label] = self._transfer(in_sets[label], gen[label], label)

        changed = True
        while changed:
            changed = False
            for label in self.func.blocks:
                merged: set[Definition] = set()
                for pred in self.cfg.preds[label]:
                    merged |= out_sets[pred]
                if merged != in_sets[label]:
                    in_sets[label] = merged
                    out_sets[label] = self._transfer(merged, gen[label], label)
                    changed = True
        self._in = {label: frozenset(s) for label, s in in_sets.items()}

    def _transfer(
        self, incoming: set[Definition], gen: dict[VarId, Definition], label: str
    ) -> set[Definition]:
        killed_vars = set(gen)
        out = {d for d in incoming if d.var not in killed_vars}
        out |= set(gen.values())
        return out

    def reaching_at(self, ref: InstrRef) -> dict[VarId, set[Definition]]:
        """Definitions of local variables reaching (just before) ``ref``."""
        live: dict[VarId, set[Definition]] = {}
        for d in self._in[ref.block]:
            live.setdefault(d.var, set()).add(d)
        for d in self._block_defs[ref.block]:
            if d.ref.index >= ref.index:
                break
            live[d.var] = {d}
        return live


def collect_global_definitions(module: ir.Module) -> dict[str, set[Definition]]:
    """Global name -> every store to it anywhere in the module (one pass;
    a store is never a terminator)."""
    result: dict[str, set[Definition]] = {}
    for func in module.functions.values():
        for label, block in func.blocks.items():
            for index, instr in enumerate(block.instrs):
                if isinstance(instr, ir.Store) and isinstance(instr.addr, ir.GlobalRef):
                    name = instr.addr.name
                    result.setdefault(name, set()).add(Definition(
                        ("global", name), InstrRef(func.name, label, index),
                        instr.value))
    return result
