"""Structural validation of IR modules.

The verifier catches frontend and generator bugs early: unterminated blocks,
dangling branch targets, calls to missing functions, registers that are never
defined, and malformed operators.  It is run by the MiniC compiler and by the
BPF program generator on everything they emit.
"""

from __future__ import annotations

from .instructions import (
    BINARY_OPS,
    INTRINSICS,
    UNARY_OPS,
    BinOp,
    Call,
    CondBr,
    Instr,
    Intrinsic,
    UnOp,
)
from .module import Function, Module
from .values import FuncRef, GlobalRef, Reg


class VerificationError(Exception):
    """Raised when a module is structurally invalid."""


def verify_module(module: Module) -> None:
    """Raise :class:`VerificationError` on the first structural problem."""
    if "main" not in module.functions:
        raise VerificationError("module has no main function")
    for func in module.functions.values():
        _verify_function(module, func)


def _verify_function(module: Module, func: Function) -> None:
    if func.entry not in func.blocks:
        raise VerificationError(f"{func.name}: missing entry block {func.entry!r}")

    defined: set[str | None] = set(func.params)
    for block in func.blocks.values():
        defined.update(instr.defined for instr in block.instrs)
        if block.terminator is not None:
            defined.add(block.terminator.defined)

    for label, block in func.blocks.items():
        where = f"{func.name}:{label}"
        term = block.terminator
        if term is None:
            raise VerificationError(f"{where}: block is not terminated")
        for target in term.successors():
            if target not in func.blocks:
                raise VerificationError(f"{where}: branch to unknown block {target!r}")
        if isinstance(term, CondBr) and term.then_target == term.else_target:
            raise VerificationError(f"{where}: condbr with identical targets")
        for index, instr in enumerate(block.instrs + [term]):
            problem = _instr_problem(module, instr, defined)
            if problem is not None:
                raise VerificationError(f"{where}:{index}: {problem}")


def _instr_problem(module: Module, instr: Instr, defined: set[str | None]) -> str | None:
    """What is wrong with one instruction, or None."""
    if isinstance(instr, BinOp) and instr.op not in BINARY_OPS:
        return f"unknown binary op {instr.op!r}"
    if isinstance(instr, UnOp) and instr.op not in UNARY_OPS:
        return f"unknown unary op {instr.op!r}"
    if isinstance(instr, Intrinsic) and instr.name not in INTRINSICS:
        return f"unknown intrinsic {instr.name!r}"
    if isinstance(instr, Call) and isinstance(instr.callee, FuncRef):
        callee = module.functions.get(instr.callee.name)
        if callee is None:
            return f"call to unknown function {instr.callee.name!r}"
        if len(instr.args) != len(callee.params):
            return (f"call to {callee.name} with {len(instr.args)} args, "
                    f"expected {len(callee.params)}")
    operands = instr.operands()
    for op in operands:
        if isinstance(op, Reg) and op.name not in defined:
            return f"use of undefined register %{op.name}"
    for op in operands:
        if isinstance(op, GlobalRef) and op.name not in module.globals:
            return f"unknown global @{op.name}"
        if isinstance(op, FuncRef) and op.name not in module.functions:
            return f"unknown function &{op.name}"
    return None
