"""Reconstruct a branch condition as a symbolic expression over named
variables.

Used by the intermediate-goal analysis (paper section 3.2): given the
register a ``CondBr`` tests, walk the register def-use chain back to loads of
named variables and constants, producing a solver expression plus the map
from named variables to solver variables.  Conditions that depend on calls,
array cells, or multiply-defined registers are not reconstructible and the
caller skips them (losing precision, never soundness -- intermediate goals
are hints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import ir
from ..solver.expr import Atom, Var, binop, make_var, unop
from .reachdefs import VarId, local_address_regs

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


@dataclass(slots=True)
class ReconstructedCondition:
    expr: Atom
    variables: dict[VarId, Var]


class _Bail(Exception):
    pass


def reconstruct_condition(
    module: ir.Module, func_name: str, reg: str
) -> Optional[ReconstructedCondition]:
    builder = _Builder(module.functions[func_name], func_name)
    try:
        expr = builder.build_reg(reg)
    except _Bail:
        return None
    return ReconstructedCondition(expr, builder.variables)


class _Builder:
    """The def-use walk.  A class rather than nested recursive closures:
    those form function/cell reference cycles only the cyclic GC frees."""

    def __init__(self, func: ir.Function, func_name: str) -> None:
        self.func_name = func_name
        self.defs: dict[str, list[ir.Instr]] = {}
        for _, instr in func.iter_instructions():
            name = instr.defined
            if name is not None:
                self.defs.setdefault(name, []).append(instr)
        self.addr_regs = local_address_regs(func)
        self.variables: dict[VarId, Var] = {}

    def var_for(self, var_id: VarId) -> Var:
        existing = self.variables.get(var_id)
        if existing is None:
            label = ".".join(var_id)
            existing = make_var(f"$rc.{label}", INT32_MIN, INT32_MAX)
            self.variables[var_id] = existing
        return existing

    def build_value(self, value: ir.Value) -> Atom:
        if isinstance(value, ir.Const):
            return value.value
        if isinstance(value, ir.Reg):
            return self.build_reg(value.name)
        raise _Bail

    def build_reg(self, name: str) -> Atom:
        instrs = self.defs.get(name)
        if instrs is None or len(instrs) != 1:
            raise _Bail  # undefined or multiply-defined (e.g. short-circuit temps)
        instr = instrs[0]
        if isinstance(instr, ir.Assign):
            return self.build_value(instr.src)
        if isinstance(instr, ir.BinOp):
            return binop(instr.op, self.build_value(instr.lhs),
                         self.build_value(instr.rhs))
        if isinstance(instr, ir.UnOp):
            return unop(instr.op, self.build_value(instr.value))
        if isinstance(instr, ir.Load):
            addr = instr.addr
            if isinstance(addr, ir.GlobalRef):
                return self.var_for(("global", addr.name))
            if isinstance(addr, ir.Reg) and addr.name in self.addr_regs:
                return self.var_for(("local", self.func_name,
                                     self.addr_regs[addr.name]))
        raise _Bail
