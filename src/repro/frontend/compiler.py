"""Real-Python frontend: compile a practical subset of Python to the ESD IR.

The frontend parses actual Python with the stdlib ``ast`` module and lowers
it with the same pre-mem2reg discipline as the MiniC compiler
(``repro.lang.compiler``): every variable is memory-resident (one ``alloca``
per local, ``Load``/``Store`` per access), expression temporaries are fresh
virtual registers, and boolean contexts compile to short-circuit control
flow.  Everything downstream -- the symbolic executor, the static analyses,
the proximity-guided search, playback, localization and the repair grammar
-- runs unchanged on compiled Python.

Supported subset (see README "Python frontend" for the full table):

* module-level: ``import threading/os/sys``, integer/bool constant globals,
  fixed-size integer list globals (``[c] * N`` or literals),
  ``lock = threading.Lock()``, function definitions, an ignored
  ``if __name__ == "__main__":`` block;
* functions: positional parameters, locals, ``global``, ``if``/``elif``/
  ``else``, ``while``, ``for i in range(...)`` (constant step),
  ``break``/``continue``/``return``, ``assert``, ``pass``, calls,
  ``with lock:``, augmented assignment;
* expressions: int/bool constants, ``+ - * // % << >> & | ^``, unary
  ``- ~ not``, comparisons (including chains over re-evaluable operands),
  ``and``/``or`` in test position (and in value position when every operand
  is boolean-valued), list subscripts with Python negative-index semantics
  where the length is statically known, ``len``, ``print``, ``os.getenv``,
  ``sys.exit``, ``lock.acquire()/release()``, ``threading.Thread(target=f,
  args=(x,))`` + ``t.start()/t.join()``;
* semantics fidelity: ``//`` and ``%`` are floor division (the IR's native
  ``/``/``%`` are C-truncating, so the frontend emits the adjustment
  sequence), chained comparisons evaluate middle operands once, ``range``
  loop variables keep their last body value after the loop.

Documented subset limits (not silent divergences -- each is either rejected
or stated in README): integers wrap at 32 bits (integer literals outside the
32-bit range are rejected), negative indexing of
unknown-length buffers (parameters, ``os.getenv`` results) traps as an
out-of-bounds access, a missing environment variable reads as a zero-filled
buffer rather than ``None``, and reading a local before assignment yields 0
instead of ``UnboundLocalError``.

Anything else raises :class:`UnsupportedPythonError` naming the node and
its exact source position -- the frontend never miscompiles.
"""

from __future__ import annotations

import ast as pyast
from dataclasses import dataclass
from typing import Optional

from .. import ir
from ..ir.builder import IRBuilder
from ..ir.values import INT_MAX, INT_MIN
from .errors import PythonCompileError, UnsupportedPythonError

_ALLOWED_IMPORTS = {"threading", "os", "sys"}

_BINOP_MAP = {
    pyast.Add: "+",
    pyast.Sub: "-",
    pyast.Mult: "*",
    pyast.LShift: "<<",
    pyast.RShift: ">>",
    pyast.BitAnd: "&",
    pyast.BitOr: "|",
    pyast.BitXor: "^",
}

_CMP_MAP = {
    pyast.Eq: "==",
    pyast.NotEq: "!=",
    pyast.Lt: "<",
    pyast.LtE: "<=",
    pyast.Gt: ">",
    pyast.GtE: ">=",
}


@dataclass(slots=True)
class _Symbol:
    name: str
    kind: str  # 'scalar' | 'array' | 'mutex'
    address: ir.Value  # Reg holding the alloca address, or GlobalRef
    size: Optional[int] = None  # element count when statically known


@dataclass(slots=True)
class _PendingThread:
    target: str  # module-level function name
    arg_slot: ir.Reg  # alloca holding the (already evaluated) argument


def compile_python_source(source: str, name: str = "module") -> ir.Module:
    """Compile Python ``source`` into a verified IR module.

    The program must define a zero-argument ``main`` function (the process
    entry point, mirroring C).  Constructs outside the supported subset
    raise :class:`UnsupportedPythonError` with the node name and position.
    """
    try:
        tree = pyast.parse(source)
    except SyntaxError as exc:
        raise PythonCompileError(
            f"syntax error: {exc.msg}", exc.lineno or 0, (exc.offset or 1) - 1
        ) from exc
    module = _PyCompiler(tree, source, name).compile()
    ir.verify_module(module)
    return module


class _PyCompiler(IRBuilder[pyast.stmt, pyast.expr]):
    def __init__(self, tree: pyast.Module, source: str, name: str) -> None:
        super().__init__()
        self._tree = tree
        self._module = ir.Module(name)
        self._module.source_lines = source.splitlines()
        self._globals: dict[str, _Symbol] = {}
        self._imports: set[str] = set()
        self._func_defs: dict[str, pyast.FunctionDef] = {}
        # Per-function state:
        self._locals: dict[str, _Symbol] = {}
        self._global_decls: set[str] = set()
        self._threads: dict[str, _PendingThread] = {}
        # (break_label, continue_label, with_depth at loop entry)
        self._loop_stack: list[tuple[str, str, int]] = []
        self._with_stack: list[ir.Value] = []  # held lock addresses

    # -- top level -----------------------------------------------------------

    def compile(self) -> ir.Module:
        body = list(self._tree.body)
        for stmt in body:
            if isinstance(stmt, pyast.FunctionDef):
                self._scan_function_def(stmt)
        for stmt in body:
            self._compile_module_stmt(stmt)
        if "main" not in self._module.functions:
            raise PythonCompileError("program must define a main() function")
        return self._module

    def _scan_function_def(self, node: pyast.FunctionDef) -> None:
        if node.name in self._func_defs:
            raise PythonCompileError(
                f"duplicate function {node.name!r}", node.lineno, node.col_offset
            )
        args = node.args
        if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
            raise UnsupportedPythonError.for_node(
                node, "only plain positional parameters are supported"
            )
        if args.defaults or args.kw_defaults:
            raise UnsupportedPythonError.for_node(
                node, "parameter defaults are not supported"
            )
        if node.decorator_list:
            raise UnsupportedPythonError.for_node(
                node, "decorators are not supported"
            )
        self._func_defs[node.name] = node

    def _compile_module_stmt(self, stmt: pyast.stmt) -> None:
        if isinstance(stmt, pyast.FunctionDef):
            self._compile_function(stmt)
            return
        if isinstance(stmt, pyast.Import):
            for alias in stmt.names:
                if alias.name not in _ALLOWED_IMPORTS or alias.asname:
                    raise UnsupportedPythonError.for_node(
                        stmt,
                        f"cannot import {alias.name!r}; only plain "
                        f"'import {'/'.join(sorted(_ALLOWED_IMPORTS))}'",
                    )
                self._imports.add(alias.name)
            return
        if isinstance(stmt, pyast.ImportFrom):
            raise UnsupportedPythonError.for_node(
                stmt, "use 'import threading' style imports"
            )
        if isinstance(stmt, pyast.Assign):
            self._compile_global_assign(stmt)
            return
        if isinstance(stmt, pyast.Expr) and isinstance(stmt.value, pyast.Constant) \
                and isinstance(stmt.value.value, str):
            return  # module docstring
        if isinstance(stmt, pyast.If) and self._is_main_guard(stmt.test):
            return  # the CPython-side driver block; the IR entry is main()
        raise UnsupportedPythonError.for_node(
            stmt, "not supported at module level"
        )

    @staticmethod
    def _is_main_guard(test: pyast.expr) -> bool:
        return (
            isinstance(test, pyast.Compare)
            and isinstance(test.left, pyast.Name)
            and test.left.id == "__name__"
            and len(test.ops) == 1
            and isinstance(test.ops[0], pyast.Eq)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], pyast.Constant)
            and test.comparators[0].value == "__main__"
        )

    def _compile_global_assign(self, stmt: pyast.Assign) -> None:
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], pyast.Name):
            raise UnsupportedPythonError.for_node(
                stmt, "module-level assignment must bind a single name"
            )
        name = stmt.targets[0].id
        if name in self._globals or name in self._func_defs:
            raise PythonCompileError(
                f"duplicate global {name!r}", stmt.lineno, stmt.col_offset
            )
        value = stmt.value
        if self._is_lock_call(value):
            self._module.add_global(ir.GlobalVar(name, 1, is_mutex=True))
            self._globals[name] = _Symbol(name, "mutex", ir.GlobalRef(name))
            return
        cells = self._constant_list(value)
        if cells is not None:
            self._module.add_global(ir.GlobalVar(name, len(cells), list(cells)))
            self._globals[name] = _Symbol(
                name, "array", ir.GlobalRef(name), len(cells)
            )
            return
        const = self._constant_int(value)
        if const is not None:
            self._module.add_global(ir.GlobalVar(name, 1, [const]))
            self._globals[name] = _Symbol(name, "scalar", ir.GlobalRef(name))
            return
        raise UnsupportedPythonError.for_node(
            value,
            "module-level values must be int/bool constants, constant lists, "
            "or threading.Lock()",
        )

    def _is_lock_call(self, node: pyast.expr) -> bool:
        return (
            isinstance(node, pyast.Call)
            and not node.args and not node.keywords
            and isinstance(node.func, pyast.Attribute)
            and node.func.attr == "Lock"
            and isinstance(node.func.value, pyast.Name)
            and node.func.value.id == "threading"
        )

    def _constant_int(self, node: pyast.expr) -> Optional[int]:
        """The value of an int/bool literal, possibly negated; literals the
        IR's 32-bit integers cannot hold are rejected, not wrapped."""
        value = _literal_int(node)
        if value is not None and not INT_MIN <= value <= INT_MAX:
            raise PythonCompileError(
                f"integer literal {value} does not fit in 32 bits",
                node.lineno, node.col_offset,
            )
        return value

    def _constant_list(self, node: pyast.expr) -> Optional[list[int]]:
        """``[c1, c2, ...]`` or ``[c] * N`` with compile-time constants."""
        if isinstance(node, pyast.List):
            cells = [self._constant_int(e) for e in node.elts]
            if any(c is None for c in cells):
                return None
            return [c for c in cells if c is not None]
        if isinstance(node, pyast.BinOp) and isinstance(node.op, pyast.Mult):
            for lst, count in ((node.left, node.right), (node.right, node.left)):
                if isinstance(lst, pyast.List) and len(lst.elts) == 1:
                    fill = self._constant_int(lst.elts[0])
                    n = self._constant_int(count)
                    if fill is not None and n is not None and n > 0:
                        return [fill] * n
        return None

    # -- functions -----------------------------------------------------------

    def _compile_function(self, node: pyast.FunctionDef) -> None:
        params = [a.arg for a in node.args.args]
        self._begin_function(self._module.function(node.name, params))
        self._locals = {}
        self._global_decls = set()
        self._threads = {}
        self._loop_stack = []
        self._with_stack = []

        assigned = self._scan_locals(node)
        for param in params:
            if param in self._globals:
                # Shadowing a module global with a parameter is legal Python
                # but a reliable source of reader confusion; keep it out of
                # the subset rather than risk misreading intent.
                raise UnsupportedPythonError.for_node(
                    node, f"parameter {param!r} shadows a module-level name"
                )
            symbol = self._declare_local(param, node.lineno)
            self._emit(ir.Store(symbol.address, ir.Reg(param), line=node.lineno))
        for name in assigned:
            if name not in self._locals:
                self._declare_local(name, node.lineno)

        body = node.body
        if body and isinstance(body[0], pyast.Expr) \
                and isinstance(body[0].value, pyast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]  # docstring
        self._compile_body(body)
        self._end_function(node.lineno)

    def _scan_locals(self, node: pyast.FunctionDef) -> list[str]:
        """Python scoping: a name assigned anywhere in the function (and not
        declared ``global``) is local to the whole function."""
        declared_global: set[str] = set()
        assigned: list[str] = []

        def note(name: str) -> None:
            if name not in declared_global and name not in assigned:
                assigned.append(name)

        for stmt in pyast.walk(node):
            if isinstance(stmt, pyast.Global):
                declared_global.update(stmt.names)
        self._global_decls = declared_global
        for stmt in pyast.walk(node):
            if isinstance(stmt, pyast.Assign):
                for target in stmt.targets:
                    if isinstance(target, pyast.Name):
                        note(target.id)
            elif isinstance(stmt, pyast.AugAssign):
                if isinstance(stmt.target, pyast.Name):
                    note(stmt.target.id)
            elif isinstance(stmt, pyast.For):
                if isinstance(stmt.target, pyast.Name):
                    note(stmt.target.id)
        params = {a.arg for a in node.args.args}
        return [n for n in assigned if n not in params]

    # -- symbols -------------------------------------------------------------

    def _declare_local(self, name: str, line: int) -> _Symbol:
        addr = ir.Reg(f"{name}.addr")
        self._emit(ir.Alloc(addr, ir.Const(1), heap=False, name=name, line=line))
        symbol = _Symbol(name, "scalar", addr)
        self._locals[name] = symbol
        return symbol

    def _lookup(self, name: str, node: pyast.AST) -> _Symbol:
        symbol = self._locals.get(name)
        if symbol is None:
            symbol = self._globals.get(name)
        if symbol is None:
            raise PythonCompileError(
                f"undefined variable {name!r}",
                getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
            )
        return symbol

    def _unwind_withs(self, depth: int, line: int) -> None:
        """Release ``with`` locks entered past ``depth`` (for early exits)."""
        for lock_addr in reversed(self._with_stack[depth:]):
            self._emit(ir.MutexUnlock(lock_addr, line=line))

    # -- statements ----------------------------------------------------------

    def _compile_statement(self, stmt: pyast.stmt) -> None:
        if isinstance(stmt, pyast.Assign):
            self._compile_assign(stmt)
        elif isinstance(stmt, pyast.AugAssign):
            self._compile_aug_assign(stmt)
        elif isinstance(stmt, pyast.Global):
            for name in stmt.names:
                if name not in self._globals:
                    raise PythonCompileError(
                        f"global declaration for unknown module name {name!r}",
                        stmt.lineno, stmt.col_offset,
                    )
        elif isinstance(stmt, pyast.Expr):
            self._compile_expr_stmt(stmt)
        elif isinstance(stmt, pyast.If):
            self._lower_if(stmt.test, stmt.body, stmt.orelse, stmt.lineno)
        elif isinstance(stmt, pyast.While):
            self._compile_while(stmt)
        elif isinstance(stmt, pyast.For):
            self._compile_for(stmt)
        elif isinstance(stmt, pyast.With):
            self._compile_with(stmt)
        elif isinstance(stmt, pyast.Assert):
            self._compile_assert(stmt)
        elif isinstance(stmt, pyast.Return):
            value = (
                self._compile_test_value(stmt.value)
                if stmt.value is not None and not self._is_none(stmt.value)
                else ir.Const(0)
            )
            self._unwind_withs(0, stmt.lineno)
            self._emit(ir.Ret(value, line=stmt.lineno))
        elif isinstance(stmt, pyast.Break):
            if not self._loop_stack:
                raise PythonCompileError(
                    "break outside loop", stmt.lineno, stmt.col_offset
                )
            break_label, _, depth = self._loop_stack[-1]
            self._unwind_withs(depth, stmt.lineno)
            self._emit(ir.Br(break_label, line=stmt.lineno))
        elif isinstance(stmt, pyast.Continue):
            if not self._loop_stack:
                raise PythonCompileError(
                    "continue outside loop", stmt.lineno, stmt.col_offset
                )
            _, continue_label, depth = self._loop_stack[-1]
            self._unwind_withs(depth, stmt.lineno)
            self._emit(ir.Br(continue_label, line=stmt.lineno))
        elif isinstance(stmt, pyast.Pass):
            pass
        else:
            raise UnsupportedPythonError.for_node(stmt)

    @staticmethod
    def _is_none(node: pyast.expr) -> bool:
        return isinstance(node, pyast.Constant) and node.value is None

    def _compile_assign(self, stmt: pyast.Assign) -> None:
        if len(stmt.targets) != 1:
            raise UnsupportedPythonError.for_node(
                stmt, "chained assignment is not supported"
            )
        target = stmt.targets[0]
        if isinstance(target, pyast.Name):
            self._compile_assign_name(target, stmt.value, stmt)
            return
        if isinstance(target, pyast.Subscript):
            value = self._compile_test_value(stmt.value)
            addr = self._subscript_address(target)
            self._emit(ir.Store(addr, value, line=stmt.lineno))
            return
        raise UnsupportedPythonError.for_node(
            target, "assignment target must be a name or a list subscript"
        )

    def _compile_assign_name(
        self, target: pyast.Name, value: pyast.expr, stmt: pyast.stmt
    ) -> None:
        name = target.id
        if self._is_thread_call(value):
            self._compile_thread_create(name, value, stmt)
            return
        if self._is_lock_call(value):
            raise UnsupportedPythonError.for_node(
                value, "locks must be created at module level"
            )
        symbol = self._assign_symbol(name, stmt)
        created = self._compile_list_create(name, value)
        if created is not None:
            base, size = created
            self._emit(ir.Store(symbol.address, base, line=stmt.lineno))
            symbol.size = size
            return
        compiled = self._compile_test_value(value)
        self._emit(ir.Store(symbol.address, compiled, line=stmt.lineno))
        # Propagate static list lengths through pointer copies.
        symbol.size = None
        if isinstance(value, pyast.Name):
            src = self._locals.get(value.id) or self._globals.get(value.id)
            if src is not None:
                symbol.size = src.size

    def _assign_symbol(self, name: str, stmt: pyast.stmt) -> _Symbol:
        if name in self._locals:
            return self._locals[name]
        symbol = self._globals.get(name)
        if symbol is None:
            raise PythonCompileError(
                f"assignment to undeclared name {name!r}",
                stmt.lineno, stmt.col_offset,
            )
        if name not in self._global_decls:
            raise PythonCompileError(
                f"assignment to module-level {name!r} without a global "
                "declaration", stmt.lineno, stmt.col_offset,
            )
        if symbol.kind != "scalar":
            raise UnsupportedPythonError.for_node(
                stmt, f"cannot rebind module-level {symbol.kind} {name!r}"
            )
        return symbol

    def _compile_list_create(
        self, name: str, value: pyast.expr
    ) -> Optional[tuple[ir.Value, int]]:
        """``xs = [e1, ...]`` / ``xs = [fill] * N``: a fresh fixed-size
        stack array per evaluation (matching Python's fresh-list semantics);
        returns (base address, length)."""
        elements: Optional[list[pyast.expr]] = None
        fill: Optional[pyast.expr] = None
        count = 0
        if isinstance(value, pyast.List):
            elements = value.elts
            count = len(elements)
        elif isinstance(value, pyast.BinOp) and isinstance(value.op, pyast.Mult):
            for lst, n_node in ((value.left, value.right),
                                (value.right, value.left)):
                if isinstance(lst, pyast.List) and len(lst.elts) == 1:
                    n = self._constant_int(n_node)
                    if n is None:
                        raise UnsupportedPythonError.for_node(
                            value, "list replication count must be a constant"
                        )
                    if n <= 0:
                        raise UnsupportedPythonError.for_node(
                            value, "list replication count must be positive"
                        )
                    fill = lst.elts[0]
                    count = n
                    break
            else:
                return None
        else:
            return None
        if count == 0:
            raise UnsupportedPythonError.for_node(
                value, "empty lists are not supported"
            )
        line = value.lineno
        self._label_counter += 1
        base = ir.Reg(f"{name}.data{self._label_counter}")
        self._emit(ir.Alloc(base, ir.Const(count), heap=False,
                            name=f"{name}.data", line=line))
        if elements is not None:
            values = [self._compile_test_value(e) for e in elements]
        else:
            assert fill is not None
            values = [self._compile_test_value(fill)] * count
        for offset, cell in enumerate(values):
            addr = self._temp()
            self._emit(ir.Gep(addr, base, ir.Const(offset), line=line))
            self._emit(ir.Store(addr, cell, line=line))
        return base, count

    def _compile_aug_assign(self, stmt: pyast.AugAssign) -> None:
        op = _BINOP_MAP.get(type(stmt.op))
        floor = isinstance(stmt.op, (pyast.FloorDiv, pyast.Mod))
        if op is None and not floor:
            raise UnsupportedPythonError.for_node(
                stmt, f"augmented {type(stmt.op).__name__} is not supported"
            )
        if isinstance(stmt.target, pyast.Name):
            symbol = self._assign_symbol(stmt.target.id, stmt)
            addr: ir.Value = symbol.address
        elif isinstance(stmt.target, pyast.Subscript):
            addr = self._subscript_address(stmt.target)
        else:
            raise UnsupportedPythonError.for_node(stmt.target)
        current = self._temp()
        self._emit(ir.Load(current, addr, line=stmt.lineno))
        rhs = self._compile_test_value(stmt.value)
        if floor:
            quotient, remainder = self._emit_floor_divmod(
                current, rhs, stmt.lineno
            )
            result = quotient if isinstance(stmt.op, pyast.FloorDiv) else remainder
        else:
            result = self._temp()
            self._emit(ir.BinOp(result, op, current, rhs, line=stmt.lineno))
        self._emit(ir.Store(addr, result, line=stmt.lineno))

    def _compile_expr_stmt(self, stmt: pyast.Expr) -> None:
        value = stmt.value
        if isinstance(value, pyast.Constant) and isinstance(value.value, str):
            return  # stray docstring
        if not isinstance(value, pyast.Call):
            raise UnsupportedPythonError.for_node(
                value, "expression statements must be calls"
            )
        self._compile_call(value, want_value=False)

    def _compile_assert(self, stmt: pyast.Assert) -> None:
        cond = self._compile_test_value(stmt.test)
        if stmt.msg is not None:
            if not (isinstance(stmt.msg, pyast.Constant)
                    and isinstance(stmt.msg.value, str)):
                raise UnsupportedPythonError.for_node(
                    stmt.msg, "assert message must be a string literal"
                )
            message = stmt.msg.value
        else:
            message = self._module.source_line(stmt.lineno).strip() \
                or f"assert at line {stmt.lineno}"
        self._emit(ir.Assert(cond, message, line=stmt.lineno))

    def _compile_while(self, stmt: pyast.While) -> None:
        if stmt.orelse:
            raise UnsupportedPythonError.for_node(
                stmt, "while/else is not supported"
            )
        self._lower_while(stmt.test, stmt.body, stmt.lineno)

    def _compile_loop_body(self, body: list[pyast.stmt], break_label: str,
                           continue_label: str) -> None:
        self._loop_stack.append(
            (break_label, continue_label, len(self._with_stack))
        )
        self._compile_body(body)
        self._loop_stack.pop()

    def _compile_for(self, stmt: pyast.For) -> None:
        if stmt.orelse:
            raise UnsupportedPythonError.for_node(
                stmt, "for/else is not supported"
            )
        if not isinstance(stmt.target, pyast.Name):
            raise UnsupportedPythonError.for_node(
                stmt.target, "loop target must be a single name"
            )
        call = stmt.iter
        if not (isinstance(call, pyast.Call) and isinstance(call.func, pyast.Name)
                and call.func.id == "range" and not call.keywords
                and 1 <= len(call.args) <= 3):
            raise UnsupportedPythonError.for_node(
                stmt.iter, "for loops must iterate over range(...)"
            )
        line = stmt.lineno
        if len(call.args) == 1:
            start: ir.Value = ir.Const(0)
            stop_expr = call.args[0]
            step = 1
        else:
            start = self._compile_test_value(call.args[0])
            stop_expr = call.args[1]
            step = 1
            if len(call.args) == 3:
                const_step = self._constant_int(call.args[2])
                if const_step is None or const_step == 0:
                    raise UnsupportedPythonError.for_node(
                        call.args[2],
                        "range step must be a non-zero integer constant",
                    )
                step = const_step
        stop = self._compile_test_value(stop_expr)
        # Pin the (once-evaluated) bound in a register that survives blocks.
        self._label_counter += 1
        loop_id = self._label_counter
        stop_reg = ir.Reg(f"{stmt.target.id}.stop{loop_id}")
        self._emit(ir.Assign(stop_reg, stop, line=line))
        # Hidden iterator slot: the loop variable itself only ever holds
        # values the body observed, so it keeps its last value after the
        # loop exactly like Python.
        iter_addr = ir.Reg(f"{stmt.target.id}.iter{loop_id}.addr")
        self._emit(ir.Alloc(iter_addr, ir.Const(1), heap=False,
                            name=f"{stmt.target.id}.iter", line=line))
        self._emit(ir.Store(iter_addr, start, line=line))
        target = self._locals.get(stmt.target.id)
        if target is None:
            target = self._assign_symbol(stmt.target.id, stmt)
        target.size = None

        head = self._new_block("for.head")
        body = self._new_block("for.body")
        step_block = self._new_block("for.step")
        end = self._new_block("for.end")
        self._emit(ir.Br(head.label, line=line))
        self._switch_to(head)
        current = self._temp()
        self._emit(ir.Load(current, iter_addr, line=line))
        in_range = self._temp()
        cmp_op = "<" if step > 0 else ">"
        self._emit(ir.BinOp(in_range, cmp_op, current, stop_reg, line=line))
        self._emit(ir.CondBr(in_range, body.label, end.label, line=line))
        self._switch_to(body)
        visible = self._temp()
        self._emit(ir.Load(visible, iter_addr, line=line))
        self._emit(ir.Store(target.address, visible, line=line))
        self._compile_loop_body(stmt.body, end.label, step_block.label)
        self._branch_if_open(step_block.label, line)
        self._switch_to(step_block)
        bumped_src = self._temp()
        self._emit(ir.Load(bumped_src, iter_addr, line=line))
        bumped = self._temp()
        self._emit(ir.BinOp(bumped, "+", bumped_src, ir.Const(step), line=line))
        self._emit(ir.Store(iter_addr, bumped, line=line))
        self._emit(ir.Br(head.label, line=line))
        self._switch_to(end)

    def _compile_with(self, stmt: pyast.With) -> None:
        if len(stmt.items) != 1:
            raise UnsupportedPythonError.for_node(
                stmt, "one context manager per with statement"
            )
        item = stmt.items[0]
        if item.optional_vars is not None:
            raise UnsupportedPythonError.for_node(
                stmt, "with ... as is not supported"
            )
        if not isinstance(item.context_expr, pyast.Name):
            raise UnsupportedPythonError.for_node(
                item.context_expr, "with expects a module-level lock name"
            )
        symbol = self._lookup(item.context_expr.id, item.context_expr)
        if symbol.kind != "mutex":
            raise UnsupportedPythonError.for_node(
                item.context_expr,
                f"with expects a threading.Lock, not {symbol.kind}",
            )
        self._emit(ir.MutexLock(symbol.address, line=stmt.lineno))
        self._with_stack.append(symbol.address)
        self._compile_body(stmt.body)
        self._with_stack.pop()
        if self._is_open():
            self._emit(ir.MutexUnlock(symbol.address, line=stmt.lineno))

    # -- conditions ----------------------------------------------------------

    def _compile_condition(
        self, test: pyast.expr, then_label: str, else_label: str
    ) -> None:
        """Boolean context with short-circuiting, like the MiniC frontend.
        Branching on an int tests ``!= 0`` which is exactly Python's
        truthiness for the subset's only value type."""
        if isinstance(test, pyast.BoolOp):
            values = test.values
            if isinstance(test.op, pyast.And):
                for value in values[:-1]:
                    middle = self._new_block("and.rhs")
                    self._compile_condition(value, middle.label, else_label)
                    self._switch_to(middle)
                self._compile_condition(values[-1], then_label, else_label)
                return
            for value in values[:-1]:
                middle = self._new_block("or.rhs")
                self._compile_condition(value, then_label, middle.label)
                self._switch_to(middle)
            self._compile_condition(values[-1], then_label, else_label)
            return
        if isinstance(test, pyast.UnaryOp) and isinstance(test.op, pyast.Not):
            self._compile_condition(test.operand, else_label, then_label)
            return
        if isinstance(test, pyast.Compare) and len(test.ops) > 1:
            self._compile_chained_compare_condition(test, then_label, else_label)
            return
        value = self._compile_expr(test)
        self._emit(ir.CondBr(value, then_label, else_label, line=test.lineno))

    def _compile_chained_compare_condition(
        self, test: pyast.Compare, then_label: str, else_label: str
    ) -> None:
        """``a < b < c`` desugars to ``a < b and b < c``.  Middle operands
        must be re-evaluable (names or constants) so the desugaring cannot
        duplicate side effects."""
        for middle_operand in test.comparators[:-1]:
            if not isinstance(middle_operand, (pyast.Name, pyast.Constant)):
                raise UnsupportedPythonError.for_node(
                    middle_operand,
                    "chained comparison operands must be names or constants",
                )
        operands = [test.left, *test.comparators]
        for i, op in enumerate(test.ops):
            last = i == len(test.ops) - 1
            target = then_label if last else self._new_label("chain")
            pair = pyast.Compare(
                left=operands[i], ops=[op], comparators=[operands[i + 1]],
                lineno=test.lineno, col_offset=test.col_offset,
            )
            if last:
                value = self._compile_expr(pair)
                self._emit(
                    ir.CondBr(value, then_label, else_label, line=test.lineno)
                )
            else:
                assert self._func is not None
                middle = self._func.block(target)
                value = self._compile_expr(pair)
                self._emit(
                    ir.CondBr(value, middle.label, else_label, line=test.lineno)
                )
                self._switch_to(middle)

    def _compile_test_value(self, expr: pyast.expr) -> ir.Value:
        """An expression in value position.  Boolean operators are lowered
        through control flow to 0/1, which is only faithful when every
        operand is itself boolean-valued (Python's ``and``/``or`` return an
        *operand*, not a bool) -- anything else is rejected."""
        if isinstance(expr, pyast.BoolOp):
            if not self._all_boolean_valued(expr):
                raise UnsupportedPythonError.for_node(
                    expr,
                    "and/or in value position requires boolean operands; "
                    "Python would return an operand value here",
                )
            return self._compile_short_circuit_value(expr)
        if isinstance(expr, pyast.Compare) and len(expr.ops) > 1:
            return self._compile_short_circuit_value(expr)
        return self._compile_expr(expr)

    def _all_boolean_valued(self, expr: pyast.expr) -> bool:
        if isinstance(expr, pyast.BoolOp):
            return all(self._all_boolean_valued(v) for v in expr.values)
        if isinstance(expr, pyast.UnaryOp):
            return isinstance(expr.op, pyast.Not)
        if isinstance(expr, pyast.Compare):
            return True
        return isinstance(expr, pyast.Constant) and isinstance(expr.value, bool)

    def _compile_short_circuit_value(self, expr: pyast.expr) -> ir.Value:
        self._label_counter += 1
        result = ir.Reg(f"sc{self._label_counter}.{self._temp_counter}")
        return self._lower_bool_value(expr, result, expr.lineno)

    # -- expressions ---------------------------------------------------------

    def _compile_expr(self, expr: pyast.expr) -> ir.Value:
        if isinstance(expr, pyast.Constant):
            value = self._constant_int(expr)
            if value is not None:
                return ir.Const(value)
            raise UnsupportedPythonError.for_node(
                expr, f"{type(expr.value).__name__} literals are not supported"
            )
        if isinstance(expr, pyast.Name):
            return self._compile_name(expr)
        if isinstance(expr, pyast.UnaryOp):
            return self._compile_unary(expr)
        if isinstance(expr, pyast.BinOp):
            return self._compile_binop(expr)
        if isinstance(expr, pyast.Compare):
            return self._compile_compare(expr)
        if isinstance(expr, pyast.BoolOp):
            return self._compile_test_value(expr)
        if isinstance(expr, pyast.Subscript):
            addr = self._subscript_address(expr)
            dst = self._temp()
            self._emit(ir.Load(dst, addr, line=expr.lineno))
            return dst
        if isinstance(expr, pyast.Call):
            return self._compile_call(expr, want_value=True)
        raise UnsupportedPythonError.for_node(expr)

    def _compile_name(self, expr: pyast.Name) -> ir.Value:
        name = expr.id
        if name in self._func_defs and name not in self._locals:
            return ir.FuncRef(name)
        if name in self._imports:
            raise UnsupportedPythonError.for_node(
                expr, f"module {name!r} cannot be used as a value"
            )
        symbol = self._lookup(name, expr)
        if symbol.kind in ("array", "mutex"):
            return symbol.address  # arrays decay; locks are opaque
        dst = self._temp()
        self._emit(ir.Load(dst, symbol.address, line=expr.lineno))
        return dst

    def _compile_unary(self, expr: pyast.UnaryOp) -> ir.Value:
        if isinstance(expr.op, pyast.Not):
            operand = self._compile_expr(expr.operand)
            dst = self._temp()
            self._emit(ir.UnOp(dst, "!", operand, line=expr.lineno))
            return dst
        if isinstance(expr.op, pyast.USub):
            literal = self._constant_int(expr)
            if literal is not None:
                return ir.Const(literal)
            operand = self._compile_expr(expr.operand)
            if isinstance(operand, ir.Const):
                return ir.Const(-operand.value)
            dst = self._temp()
            self._emit(ir.UnOp(dst, "-", operand, line=expr.lineno))
            return dst
        if isinstance(expr.op, pyast.Invert):
            operand = self._compile_expr(expr.operand)
            dst = self._temp()
            self._emit(ir.UnOp(dst, "~", operand, line=expr.lineno))
            return dst
        if isinstance(expr.op, pyast.UAdd):
            return self._compile_expr(expr.operand)
        raise UnsupportedPythonError.for_node(expr)

    def _compile_binop(self, expr: pyast.BinOp) -> ir.Value:
        if isinstance(expr.op, (pyast.FloorDiv, pyast.Mod)):
            lhs = self._compile_expr(expr.left)
            rhs = self._compile_expr(expr.right)
            quotient, remainder = self._emit_floor_divmod(lhs, rhs, expr.lineno)
            return quotient if isinstance(expr.op, pyast.FloorDiv) else remainder
        if isinstance(expr.op, pyast.Div):
            raise UnsupportedPythonError.for_node(
                expr, "true division yields floats; use // for integers"
            )
        op = _BINOP_MAP.get(type(expr.op))
        if op is None:
            raise UnsupportedPythonError.for_node(
                expr, f"operator {type(expr.op).__name__} is not supported"
            )
        lhs = self._compile_expr(expr.left)
        rhs = self._compile_expr(expr.right)
        dst = self._temp()
        self._emit(ir.BinOp(dst, op, lhs, rhs, line=expr.lineno))
        return dst

    def _emit_floor_divmod(
        self, lhs: ir.Value, rhs: ir.Value, line: int
    ) -> tuple[ir.Reg, ir.Reg]:
        """Python ``//`` and ``%`` floor toward negative infinity; the IR's
        ``/`` and ``%`` truncate toward zero (C semantics).  Adjust by one
        when the truncated remainder is non-zero and disagrees in sign with
        the divisor.  Division by zero traps first, like both languages."""
        trunc_q = self._temp()
        self._emit(ir.BinOp(trunc_q, "/", lhs, rhs, line=line))
        trunc_r = self._temp()
        self._emit(ir.BinOp(trunc_r, "%", lhs, rhs, line=line))
        r_nonzero = self._temp()
        self._emit(ir.BinOp(r_nonzero, "!=", trunc_r, ir.Const(0), line=line))
        r_negative = self._temp()
        self._emit(ir.BinOp(r_negative, "<", trunc_r, ir.Const(0), line=line))
        d_negative = self._temp()
        self._emit(ir.BinOp(d_negative, "<", rhs, ir.Const(0), line=line))
        signs_differ = self._temp()
        self._emit(ir.BinOp(signs_differ, "^", r_negative, d_negative, line=line))
        adjust = self._temp()
        self._emit(ir.BinOp(adjust, "&", r_nonzero, signs_differ, line=line))
        floor_q = self._temp()
        self._emit(ir.BinOp(floor_q, "-", trunc_q, adjust, line=line))
        correction = self._temp()
        self._emit(ir.BinOp(correction, "*", adjust, rhs, line=line))
        floor_r = self._temp()
        self._emit(ir.BinOp(floor_r, "+", trunc_r, correction, line=line))
        return floor_q, floor_r

    def _compile_compare(self, expr: pyast.Compare) -> ir.Value:
        if len(expr.ops) > 1:
            return self._compile_test_value(expr)
        op_type = type(expr.ops[0])
        op = _CMP_MAP.get(op_type)
        if op is None:
            raise UnsupportedPythonError.for_node(
                expr, f"comparison {op_type.__name__} is not supported"
            )
        lhs = self._compile_compare_operand(expr.left)
        rhs = self._compile_compare_operand(expr.comparators[0])
        dst = self._temp()
        self._emit(ir.BinOp(dst, op, lhs, rhs, line=expr.lineno))
        return dst

    def _compile_compare_operand(self, expr: pyast.expr) -> ir.Value:
        # Buffer cells hold character codes, so a one-character literal in a
        # comparison means its code point: s[0] == 'W'.
        if isinstance(expr, pyast.Constant) and isinstance(expr.value, str):
            if len(expr.value) != 1:
                raise UnsupportedPythonError.for_node(
                    expr,
                    "only one-character string literals compare "
                    "(as character codes)",
                )
            return ir.Const(ord(expr.value))
        return self._compile_expr(expr)

    # -- subscripts ----------------------------------------------------------

    def _subscript_address(self, expr: pyast.Subscript) -> ir.Value:
        if not isinstance(expr.value, pyast.Name):
            raise UnsupportedPythonError.for_node(
                expr.value, "subscript base must be a simple name"
            )
        if isinstance(expr.slice, pyast.Slice):
            raise UnsupportedPythonError.for_node(
                expr.slice, "slicing is not supported"
            )
        symbol = self._lookup(expr.value.id, expr.value)
        if symbol.kind == "mutex":
            raise UnsupportedPythonError.for_node(expr, "cannot index a lock")
        if symbol.kind == "array":
            base: ir.Value = symbol.address
        else:
            base = self._temp()
            self._emit(ir.Load(base, symbol.address, line=expr.lineno))
        index = self._compile_expr(expr.slice)
        index = self._normalize_index(index, symbol.size, expr.lineno)
        addr = self._temp()
        self._emit(ir.Gep(addr, base, index, line=expr.lineno))
        return addr

    def _normalize_index(
        self, index: ir.Value, size: Optional[int], line: int
    ) -> ir.Value:
        """Python wraps negative indices: xs[-1] is xs[len(xs)-1].  Emitted
        only when the length is statically known; unknown-length buffers
        (parameters, getenv results) trap negatives as out-of-bounds, which
        is the documented subset limit."""
        if size is None:
            return index
        if isinstance(index, ir.Const):
            if index.value < 0:
                return ir.Const(size + index.value)
            return index
        negative = self._temp()
        self._emit(ir.BinOp(negative, "<", index, ir.Const(0), line=line))
        wrap = self._temp()
        self._emit(ir.BinOp(wrap, "*", negative, ir.Const(size), line=line))
        adjusted = self._temp()
        self._emit(ir.BinOp(adjusted, "+", index, wrap, line=line))
        return adjusted

    # -- calls ---------------------------------------------------------------

    def _is_thread_call(self, node: pyast.expr) -> bool:
        return (
            isinstance(node, pyast.Call)
            and isinstance(node.func, pyast.Attribute)
            and node.func.attr == "Thread"
            and isinstance(node.func.value, pyast.Name)
            and node.func.value.id == "threading"
        )

    def _compile_thread_create(
        self, name: str, call: pyast.Call, stmt: pyast.stmt
    ) -> None:
        if call.args:
            raise UnsupportedPythonError.for_node(
                call, "Thread takes keyword arguments: target=, args="
            )
        target_name: Optional[str] = None
        arg_expr: Optional[pyast.expr] = None
        for kw in call.keywords:
            if kw.arg == "target" and isinstance(kw.value, pyast.Name):
                target_name = kw.value.id
            elif kw.arg == "args" and isinstance(kw.value, pyast.Tuple):
                if len(kw.value.elts) != 1:
                    raise UnsupportedPythonError.for_node(
                        kw.value, "thread args must be a one-element tuple"
                    )
                arg_expr = kw.value.elts[0]
            else:
                raise UnsupportedPythonError.for_node(
                    call, f"unsupported Thread keyword {kw.arg!r}"
                )
        if target_name is None or target_name not in self._func_defs:
            raise UnsupportedPythonError.for_node(
                call, "Thread target must name a module-level function"
            )
        if arg_expr is None:
            raise UnsupportedPythonError.for_node(
                call, "Thread requires args=(value,)"
            )
        params = self._func_defs[target_name].args.args
        if len(params) != 1:
            raise PythonCompileError(
                f"thread target {target_name!r} must take exactly one "
                f"parameter, it takes {len(params)}",
                call.lineno, call.col_offset,
            )
        symbol = self._assign_symbol(name, stmt)
        # Python evaluates the argument at construction; stash it in a
        # dedicated slot until t.start() spawns the thread.
        line = stmt.lineno
        value = self._compile_test_value(arg_expr)
        self._label_counter += 1
        arg_slot = ir.Reg(f"{name}.arg{self._label_counter}.addr")
        self._emit(ir.Alloc(arg_slot, ir.Const(1), heap=False,
                            name=f"{name}.arg", line=line))
        self._emit(ir.Store(arg_slot, value, line=line))
        self._emit(ir.Store(symbol.address, ir.Const(0), line=line))
        self._threads[name] = _PendingThread(target_name, arg_slot)
        symbol.size = None

    def _compile_call(self, call: pyast.Call, want_value: bool) -> ir.Value:
        if call.keywords:
            raise UnsupportedPythonError.for_node(
                call, "keyword arguments are not supported"
            )
        func = call.func
        if isinstance(func, pyast.Name):
            return self._compile_name_call(func.id, call, want_value)
        if isinstance(func, pyast.Attribute):
            return self._compile_attribute_call(func, call)
        raise UnsupportedPythonError.for_node(
            func, "call target must be a name or attribute"
        )

    def _compile_name_call(
        self, name: str, call: pyast.Call, want_value: bool
    ) -> ir.Value:
        line = call.lineno
        if name == "print":
            if len(call.args) != 1:
                raise UnsupportedPythonError.for_node(
                    call, "print takes exactly one argument"
                )
            arg = call.args[0]
            if isinstance(arg, pyast.Constant) and isinstance(arg.value, str):
                ref = ir.GlobalRef(self._module.intern_string(arg.value))
                dst = self._temp()
                self._emit(ir.Intrinsic(dst, "print_str", [ref], line=line))
                return ir.Const(0)
            value = self._compile_test_value(arg)
            dst = self._temp()
            self._emit(ir.Intrinsic(dst, "print_int", [value], line=line))
            return ir.Const(0)
        if name == "len":
            if len(call.args) != 1 or not isinstance(call.args[0], pyast.Name):
                raise UnsupportedPythonError.for_node(
                    call, "len takes one list name"
                )
            symbol = self._lookup(call.args[0].id, call.args[0])
            if symbol.size is None:
                raise UnsupportedPythonError.for_node(
                    call,
                    f"len({call.args[0].id}) is not statically known "
                    "(parameter or buffer)",
                )
            return ir.Const(symbol.size)
        if name == "range":
            raise UnsupportedPythonError.for_node(
                call, "range is only supported as a for-loop iterable"
            )
        if name in self._func_defs and name not in self._locals:
            want = len(self._func_defs[name].args.args)
            if len(call.args) != want:
                raise PythonCompileError(
                    f"{name}() takes {want} arguments, got {len(call.args)}",
                    line, call.col_offset,
                )
            args = [self._compile_test_value(a) for a in call.args]
            dst = self._temp()
            self._emit(ir.Call(dst, ir.FuncRef(name), args, line=line))
            return dst
        raise UnsupportedPythonError.for_node(
            call, f"call to unknown function {name!r}"
        )

    def _compile_attribute_call(
        self, func: pyast.Attribute, call: pyast.Call
    ) -> ir.Value:
        line = call.lineno
        if not isinstance(func.value, pyast.Name):
            raise UnsupportedPythonError.for_node(func)
        owner = func.value.id
        method = func.attr
        if owner == "os" and method == "getenv":
            if len(call.args) != 1 or not (
                isinstance(call.args[0], pyast.Constant)
                and isinstance(call.args[0].value, str)
            ):
                raise UnsupportedPythonError.for_node(
                    call, "os.getenv takes a string literal name"
                )
            ref = ir.GlobalRef(self._module.intern_string(call.args[0].value))
            dst = self._temp()
            self._emit(ir.Intrinsic(dst, "getenv", [ref], line=line))
            return dst
        if owner == "sys" and method == "exit":
            if len(call.args) > 1:
                raise UnsupportedPythonError.for_node(call)
            code = (
                self._compile_test_value(call.args[0])
                if call.args else ir.Const(0)
            )
            dst = self._temp()
            self._emit(ir.Intrinsic(dst, "exit", [code], line=line))
            return ir.Const(0)
        if owner in self._imports:
            raise UnsupportedPythonError.for_node(
                call, f"{owner}.{method} is not supported"
            )
        # Methods on program values: lock.acquire/release, thread.start/join.
        symbol = self._locals.get(owner) or self._globals.get(owner)
        if symbol is not None and symbol.kind == "mutex":
            if call.args:
                raise UnsupportedPythonError.for_node(
                    call, f"{method} takes no arguments"
                )
            if method == "acquire":
                self._emit(ir.MutexLock(symbol.address, line=line))
                return ir.Const(0)
            if method == "release":
                self._emit(ir.MutexUnlock(symbol.address, line=line))
                return ir.Const(0)
            raise UnsupportedPythonError.for_node(
                call, f"lock method {method!r} is not supported"
            )
        if owner in self._threads:
            pending = self._threads[owner]
            thread_symbol = self._locals[owner]
            if call.args:
                raise UnsupportedPythonError.for_node(
                    call, f"{method} takes no arguments"
                )
            if method == "start":
                arg = self._temp()
                self._emit(ir.Load(arg, pending.arg_slot, line=line))
                tid = self._temp()
                self._emit(ir.ThreadCreate(
                    tid, ir.FuncRef(pending.target), arg, line=line
                ))
                self._emit(ir.Store(thread_symbol.address, tid, line=line))
                return ir.Const(0)
            if method == "join":
                tid = self._temp()
                self._emit(ir.Load(tid, thread_symbol.address, line=line))
                dst = self._temp()
                self._emit(ir.ThreadJoin(dst, tid, line=line))
                return ir.Const(0)
            raise UnsupportedPythonError.for_node(
                call, f"thread method {method!r} is not supported"
            )
        raise UnsupportedPythonError.for_node(
            call, f"method call {owner}.{method} is not supported"
        )


def _literal_int(node: pyast.expr) -> Optional[int]:
    """An int/bool literal's value, through any unary minuses."""
    if isinstance(node, pyast.Constant):
        if isinstance(node.value, bool):
            return int(node.value)
        return node.value if isinstance(node.value, int) else None
    if isinstance(node, pyast.UnaryOp) and isinstance(node.op, pyast.USub):
        inner = _literal_int(node.operand)
        return -inner if inner is not None else None
    return None
