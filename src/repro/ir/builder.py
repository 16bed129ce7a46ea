"""Block plumbing shared by the MiniC compiler and the Python frontend.

Both lower to the same pre-mem2reg IR shape.  :class:`IRBuilder` holds what
they share: emitting into the current block, per-function temporaries and
labels, and the lowering of ``if``, ``while`` and booleans in value
position.  Each compiler keeps its own symbol rules, statements and
expressions.
"""

from __future__ import annotations

from typing import Generic, Optional, TypeVar

from .instructions import Assign, Br, Instr, Ret
from .module import BasicBlock, Function
from .values import Const, Reg

StmtT = TypeVar("StmtT")
ExprT = TypeVar("ExprT")


class IRBuilder(Generic[StmtT, ExprT]):
    """Emits IR for one function at a time; subclasses supply the three
    hooks below."""

    def __init__(self) -> None:
        self._func: Optional[Function] = None
        self._block: Optional[BasicBlock] = None
        self._temp_counter = 0
        self._label_counter = 0

    # -- hooks -----------------------------------------------------------------

    def _compile_statement(self, stmt: StmtT) -> None:
        raise NotImplementedError

    def _compile_condition(self, cond: ExprT, then_label: str,
                           else_label: str) -> None:
        """Branch to ``then_label`` or ``else_label`` on ``cond``."""
        raise NotImplementedError

    def _compile_loop_body(self, body: list[StmtT], break_label: str,
                           continue_label: str) -> None:
        """Compile ``body`` with its break/continue targets in scope."""
        raise NotImplementedError

    # -- plumbing --------------------------------------------------------------

    def _begin_function(self, func: Function) -> None:
        """Emit into ``func``'s entry block from now on; temporaries and
        labels are numbered per function."""
        self._func = func
        self._temp_counter = 0
        self._label_counter = 0
        self._block = func.block("entry")

    def _end_function(self, line: int) -> None:
        """Fall off the end of the function: ``return 0``."""
        if self._is_open():
            self._emit(Ret(Const(0), line=line))
        self._func = None

    def _emit(self, instr: Instr) -> None:
        assert self._block is not None
        if self._block.terminated:
            # Unreachable code after return/break; park it in a fresh block.
            self._block = self._new_block("dead")
        self._block.append(instr)

    def _temp(self) -> Reg:
        self._temp_counter += 1
        return Reg(f"t{self._temp_counter}")

    def _new_label(self, hint: str) -> str:
        self._label_counter += 1
        return f"{hint}{self._label_counter}"

    def _new_block(self, hint: str) -> BasicBlock:
        assert self._func is not None
        return self._func.block(self._new_label(hint))

    def _switch_to(self, block: BasicBlock) -> None:
        self._block = block

    def _is_open(self) -> bool:
        """Whether the current block still falls through (no terminator)."""
        return self._block is not None and not self._block.terminated

    def _branch_if_open(self, label: str, line: int) -> None:
        if self._is_open():
            self._emit(Br(label, line=line))

    # -- control flow ------------------------------------------------------------

    def _compile_body(self, stmts: list[StmtT]) -> None:
        for stmt in stmts:
            self._compile_statement(stmt)

    def _lower_if(self, cond: ExprT, then_body: list[StmtT],
                  else_body: list[StmtT], line: int) -> None:
        then_block = self._new_block("if.then")
        end_block = self._new_block("if.end")
        else_block = self._new_block("if.else") if else_body else end_block
        self._compile_condition(cond, then_block.label, else_block.label)

        self._switch_to(then_block)
        self._compile_body(then_body)
        self._branch_if_open(end_block.label, line)

        if else_body:
            self._switch_to(else_block)
            self._compile_body(else_body)
            self._branch_if_open(end_block.label, line)

        self._switch_to(end_block)

    def _lower_while(self, cond: ExprT, body: list[StmtT], line: int) -> None:
        head = self._new_block("while.head")
        body_block = self._new_block("while.body")
        end = self._new_block("while.end")
        self._emit(Br(head.label, line=line))
        self._switch_to(head)
        self._compile_condition(cond, body_block.label, end.label)
        self._switch_to(body_block)
        self._compile_loop_body(body, end.label, head.label)
        self._branch_if_open(head.label, line)
        self._switch_to(end)

    def _lower_bool_value(self, cond: ExprT, result: Reg, line: int) -> Reg:
        """A boolean condition in value position: branch on it and set
        ``result`` to 1 or 0."""
        true_block = self._new_block("sc.true")
        false_block = self._new_block("sc.false")
        end_block = self._new_block("sc.end")
        self._compile_condition(cond, true_block.label, false_block.label)
        for block, value in ((true_block, 1), (false_block, 0)):
            self._switch_to(block)
            self._emit(Assign(result, Const(value), line=line))
            self._emit(Br(end_block.label, line=line))
        self._switch_to(end_block)
        return result
