"""MiniC to IR compiler.

Compilation strategy (pre-mem2reg LLVM style, which is what ESD's analyses
want to see):

* every named variable is memory-resident -- globals become module globals,
  locals become one ``alloca`` each at function entry whose address lives in a
  dedicated register ``<name>.addr``.  Each read compiles to a ``Load``, each
  write to a ``Store``.  This gives the reaching-definition analysis a
  syntactic handle on variable definitions and makes ``&x`` trivial;
* expression temporaries use fresh virtual registers (``%t0``, ``%t1``, ...);
  registers are frame-lived, so values may flow across basic blocks without
  phi nodes;
* ``&&``/``||`` compile to short-circuit control flow;
* arrays decay to their base address; ``mutex``/``cond`` variables evaluate
  to their address (they are opaque objects, only ever passed to sync ops).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .. import ir
from ..gcpause import gc_paused
from ..ir.builder import IRBuilder
from ..ir.values import INT_MAX, INT_MIN
from . import ast
from .parser import parse
from .prelude import needed_prelude

_BUILTIN_ARITIES = {
    "getchar": 0, "argc": 0, "abort": 0,
    "getenv": 1, "arg": 1, "print_int": 1,
    "print_str": 1, "exit": 1, "assume": 1, "assert": 1, "malloc": 1,
    "free": 1, "lock": 1, "unlock": 1, "signal": 1, "broadcast": 1,
    "join": 1,
    "read_input": 2, "spawn": 2,
    "wait": 2,
}


# Builtins that compile to one instruction without a result.
_VOID_BUILTINS = {
    "free": ir.Free, "lock": ir.MutexLock, "unlock": ir.MutexUnlock,
    "wait": ir.CondWait, "signal": ir.CondSignal,
    "broadcast": partial(ir.CondSignal, broadcast=True),
}


class CompileError(Exception):
    def __init__(self, message: str, line: int, col: int = 0) -> None:
        where = f"line {line}:{col}" if col else f"line {line}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.col = col


def _in_range(value: int, node: ast.Node) -> int:
    """A literal's value; one the IR's 32-bit integers cannot hold is an error."""
    if not INT_MIN <= value <= INT_MAX:
        raise CompileError(f"integer literal {value} does not fit in 32 bits",
                           node.line, node.col)
    return value


@dataclass(slots=True)
class _Symbol:
    name: str
    kind: str  # 'scalar' | 'array' | 'mutex' | 'cond'
    address: ir.Value  # Reg holding the alloca address, or GlobalRef
    size: int = 1


@gc_paused()
def compile_source(source: str, name: str = "module", prelude: bool = True) -> ir.Module:
    """Parse and compile MiniC ``source`` into a verified IR module.

    With ``prelude`` (the default), referenced library functions (strlen,
    strcpy, atoi, ...) are appended as ordinary MiniC functions; user-defined
    versions take precedence.  The prelude is appended *after* the user code
    so user source-line numbers are unchanged.
    """
    if prelude:
        extra = needed_prelude(source)
        if extra:
            source = source.rstrip("\n") + "\n" + extra
    program = parse(source)
    module = _Compiler(program, name).compile()
    ir.verify_module(module)
    return module


class _Compiler(IRBuilder[ast.Stmt, ast.Expr]):
    def __init__(self, program: ast.Program, name: str) -> None:
        super().__init__()
        self._program = program
        self._module = ir.Module(name)
        self._module.source_lines = program.source.splitlines()
        self._globals: dict[str, _Symbol] = {}
        # Name -> parameters; the first definition of a name wins.
        self._func_params = {f.name: f.params for f in reversed(program.functions)}
        # Per-function state:
        self._locals: dict[str, _Symbol] = {}
        self._loop_stack: list[tuple[str, str]] = []  # (break, continue) labels

    # -- top level -----------------------------------------------------------

    def compile(self) -> ir.Module:
        for decl in self._program.globals:
            self._compile_global(decl)
        for func in self._program.functions:
            self._compile_function(func)
        return self._module

    def _compile_global(self, decl: ast.VarDecl) -> None:
        if decl.name in self._globals or decl.name in self._func_params:
            raise CompileError(f"duplicate global {decl.name!r}", decl.line, decl.col)
        if decl.kind in ("mutex", "cond"):
            var = ir.GlobalVar(
                decl.name, 1,
                is_mutex=decl.kind == "mutex", is_cond=decl.kind == "cond",
            )
            self._module.add_global(var)
            self._globals[decl.name] = _Symbol(
                decl.name, decl.kind, ir.GlobalRef(decl.name)
            )
            return
        if decl.kind == "array":
            init = [_in_range(value, decl) for value in decl.init_list or []]
            if len(init) > _in_range(decl.array_size, decl):
                raise CompileError("too many initializers", decl.line, decl.col)
            self._module.add_global(ir.GlobalVar(decl.name, decl.array_size, init))
            self._globals[decl.name] = _Symbol(
                decl.name, "array", ir.GlobalRef(decl.name), decl.array_size
            )
            return
        init_cells: list[int] = []
        if decl.init is not None:
            value = decl.init
            negate = isinstance(value, ast.Unary) and value.op == "-"
            if negate:
                value = value.operand
            if not isinstance(value, ast.IntLit):
                raise CompileError(
                    "global initializers must be integer constants", decl.line, decl.col)
            init_cells = [_in_range(-value.value if negate else value.value, value)]
        self._module.add_global(ir.GlobalVar(decl.name, 1, init_cells))
        self._globals[decl.name] = _Symbol(decl.name, "scalar", ir.GlobalRef(decl.name))

    def _compile_function(self, func_def: ast.FuncDef) -> None:
        if func_def.name in self._module.functions:
            raise CompileError(f"duplicate function {func_def.name!r}", func_def.line, func_def.col)
        self._begin_function(self._module.function(func_def.name, func_def.params))
        self._locals = {}
        self._loop_stack = []

        # Spill parameters into allocas so they behave like any other local.
        for param in func_def.params:
            symbol = self._declare_local(param, "scalar", 1, func_def.line,
                                 func_def.col)
            self._emit(
                ir.Store(symbol.address, ir.Reg(param), line=func_def.line)
            )

        self._compile_body(func_def.body)
        self._end_function(func_def.line)

    # -- symbols ---------------------------------------------------------------

    def _declare_local(self, name: str, kind: str, size: int, line: int,
                       col: int = 0) -> _Symbol:
        if name in self._locals:
            raise CompileError(f"redeclaration of {name!r}", line, col)
        addr = ir.Reg(f"{name}.addr")
        self._emit(ir.Alloc(addr, ir.Const(size), heap=False, name=name, line=line))
        symbol = _Symbol(name, kind, addr, size)
        self._locals[name] = symbol
        return symbol

    def _lookup(self, name: str, line: int, col: int = 0) -> _Symbol:
        symbol = self._locals.get(name) or self._globals.get(name)
        if symbol is None:
            raise CompileError(f"undefined variable {name!r}", line, col)
        return symbol

    # -- statements --------------------------------------------------------------

    def _compile_statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            self._compile_local_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._compile_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._compile_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt.cond, stmt.then_body, stmt.else_body, stmt.line)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt.cond, stmt.body, stmt.line)
        elif isinstance(stmt, ast.For):
            self._compile_for(stmt)
        elif isinstance(stmt, ast.Return):
            value = (
                self._compile_expr(stmt.value) if stmt.value is not None
                else ir.Const(0)
            )
            self._emit(ir.Ret(value, line=stmt.line))
        elif isinstance(stmt, ast.Break):
            if not self._loop_stack:
                raise CompileError("break outside loop", stmt.line, stmt.col)
            self._emit(ir.Br(self._loop_stack[-1][0], line=stmt.line))
        elif isinstance(stmt, ast.Continue):
            if not self._loop_stack:
                raise CompileError("continue outside loop", stmt.line, stmt.col)
            self._emit(ir.Br(self._loop_stack[-1][1], line=stmt.line))
        else:  # pragma: no cover - parser produces no other nodes
            raise CompileError(f"unsupported statement {stmt!r}", stmt.line, stmt.col)

    def _compile_local_decl(self, decl: ast.VarDecl) -> None:
        if decl.kind in ("mutex", "cond"):
            raise CompileError("mutex/cond must be declared at global scope", decl.line, decl.col)
        size = _in_range(decl.array_size, decl) if decl.kind == "array" else 1
        kind = "array" if decl.kind == "array" else "scalar"
        symbol = self._declare_local(decl.name, kind, size, decl.line,
                                     decl.col)
        if decl.init_list is not None:
            for offset, value in enumerate(decl.init_list):
                _in_range(value, decl)
                addr = self._temp()
                self._emit(
                    ir.Gep(addr, symbol.address, ir.Const(offset), line=decl.line)
                )
                self._emit(ir.Store(addr, ir.Const(value), line=decl.line))
        if decl.init is not None:
            value = self._compile_expr(decl.init)
            self._emit(ir.Store(symbol.address, value, line=decl.line))

    def _compile_assign(self, stmt: ast.Assign) -> None:
        value = self._compile_expr(stmt.value)
        addr = self._compile_lvalue(stmt.target)
        self._emit(ir.Store(addr, value, line=stmt.line))

    def _compile_loop_body(self, body: list[ast.Stmt], break_label: str,
                           continue_label: str) -> None:
        self._loop_stack.append((break_label, continue_label))
        self._compile_body(body)
        self._loop_stack.pop()

    def _compile_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._compile_statement(stmt.init)
        head = self._new_block("for.head")
        body = self._new_block("for.body")
        step = self._new_block("for.step")
        end = self._new_block("for.end")
        self._emit(ir.Br(head.label, line=stmt.line))
        self._switch_to(head)
        if stmt.cond is not None:
            self._compile_condition(stmt.cond, body.label, end.label)
        else:
            self._emit(ir.Br(body.label, line=stmt.line))
        self._switch_to(body)
        self._compile_loop_body(stmt.body, end.label, step.label)
        self._branch_if_open(step.label, stmt.line)
        self._switch_to(step)
        if stmt.step is not None:
            self._compile_statement(stmt.step)
        self._emit(ir.Br(head.label, line=stmt.line))
        self._switch_to(end)

    def _compile_condition(self, cond: ast.Expr, then_label: str, else_label: str) -> None:
        """Compile a boolean context with short-circuiting into branches."""
        if isinstance(cond, ast.Binary) and cond.op == "&&":
            middle = self._new_block("and.rhs")
            self._compile_condition(cond.lhs, middle.label, else_label)
            self._switch_to(middle)
            self._compile_condition(cond.rhs, then_label, else_label)
            return
        if isinstance(cond, ast.Binary) and cond.op == "||":
            middle = self._new_block("or.rhs")
            self._compile_condition(cond.lhs, then_label, middle.label)
            self._switch_to(middle)
            self._compile_condition(cond.rhs, then_label, else_label)
            return
        if isinstance(cond, ast.Unary) and cond.op == "!":
            self._compile_condition(cond.operand, else_label, then_label)
            return
        value = self._compile_expr(cond)
        self._emit(ir.CondBr(value, then_label, else_label, line=cond.line))

    # -- expressions --------------------------------------------------------------

    def _compile_lvalue(self, expr: ast.Expr) -> ir.Value:
        """Compile an expression to the *address* being assigned."""
        if isinstance(expr, ast.Ident):
            symbol = self._lookup(expr.name, expr.line, expr.col)
            if symbol.kind != "scalar":
                raise CompileError(f"cannot assign to {symbol.kind} {expr.name!r}", expr.line, expr.col)
            return symbol.address
        if isinstance(expr, ast.Index):
            base = self._compile_expr(expr.base)
            index = self._compile_expr(expr.index)
            addr = self._temp()
            self._emit(ir.Gep(addr, base, index, line=expr.line))
            return addr
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return self._compile_expr(expr.operand)
        raise CompileError("expression is not assignable", expr.line, expr.col)

    def _compile_expr(self, expr: ast.Expr) -> ir.Value:
        if isinstance(expr, ast.IntLit):
            return ir.Const(_in_range(expr.value, expr))
        if isinstance(expr, ast.StrLit):
            return ir.GlobalRef(self._module.intern_string(expr.value))
        if isinstance(expr, ast.Ident):
            return self._compile_ident(expr)
        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr)
        if isinstance(expr, ast.Index):
            addr = self._compile_lvalue(expr)
            dst = self._temp()
            self._emit(ir.Load(dst, addr, line=expr.line))
            return dst
        if isinstance(expr, ast.CallExpr):
            return self._compile_call(expr)
        raise CompileError(f"unsupported expression {expr!r}", expr.line, expr.col)

    def _compile_ident(self, expr: ast.Ident) -> ir.Value:
        if expr.name in self._func_params and expr.name not in self._locals:
            return ir.FuncRef(expr.name)
        symbol = self._lookup(expr.name, expr.line, expr.col)
        if symbol.kind in ("array", "mutex", "cond"):
            return symbol.address  # arrays decay; sync objects are opaque
        dst = self._temp()
        self._emit(ir.Load(dst, symbol.address, line=expr.line))
        return dst

    def _compile_unary(self, expr: ast.Unary) -> ir.Value:
        if expr.op == "&":
            if isinstance(expr.operand, ast.Ident):
                name = expr.operand.name
                if name in self._func_params and name not in self._locals:
                    return ir.FuncRef(name)
                return self._lookup(name, expr.line, expr.col).address
            if isinstance(expr.operand, ast.Index):
                base = self._compile_expr(expr.operand.base)
                index = self._compile_expr(expr.operand.index)
                addr = self._temp()
                self._emit(ir.Gep(addr, base, index, line=expr.line))
                return addr
            raise CompileError("cannot take address of expression", expr.line, expr.col)
        if expr.op == "-" and isinstance(expr.operand, ast.IntLit):
            # C spells INT_MIN as -2147483648: the literal alone is too big.
            return ir.Const(_in_range(-expr.operand.value, expr.operand))
        if expr.op == "*":
            ptr = self._compile_expr(expr.operand)
            dst = self._temp()
            self._emit(ir.Load(dst, ptr, line=expr.line))
            return dst
        operand = self._compile_expr(expr.operand)
        if expr.op == "-" and isinstance(operand, ir.Const):
            return ir.Const(-operand.value)
        dst = self._temp()
        self._emit(ir.UnOp(dst, expr.op, operand, line=expr.line))
        return dst

    def _compile_binary(self, expr: ast.Binary) -> ir.Value:
        if expr.op in ("&&", "||"):
            return self._compile_short_circuit(expr)
        lhs = self._compile_expr(expr.lhs)
        rhs = self._compile_expr(expr.rhs)
        dst = self._temp()
        self._emit(ir.BinOp(dst, expr.op, lhs, rhs, line=expr.line))
        return dst

    def _compile_short_circuit(self, expr: ast.Binary) -> ir.Value:
        """Compile ``a && b`` / ``a || b`` in value position via control flow."""
        result = ir.Reg(f"sc{self._label_counter}.{self._temp_counter}")
        self._temp_counter += 1
        return self._lower_bool_value(expr, result, expr.line)

    # -- calls --------------------------------------------------------------------

    def _compile_call(self, expr: ast.CallExpr) -> ir.Value:
        callee = expr.callee
        if isinstance(callee, ast.Ident):
            name = callee.name
            if name in _BUILTIN_ARITIES and name not in self._func_params:
                return self._compile_builtin(name, expr)
            if name in self._func_params and name not in self._locals:
                args = [self._compile_expr(arg) for arg in expr.args]
                want = len(self._func_params[name])
                if len(args) != want:
                    raise CompileError(
                        f"{name}() takes {want} args, got {len(args)}", expr.line, expr.col)
                dst = self._temp()
                self._emit(ir.Call(dst, ir.FuncRef(name), args, line=expr.line))
                return dst
        # Indirect call through a function-pointer value.
        target = self._compile_expr(callee)
        args = [self._compile_expr(arg) for arg in expr.args]
        dst = self._temp()
        self._emit(ir.Call(dst, target, args, line=expr.line))
        return dst

    def _compile_builtin(self, name: str, expr: ast.CallExpr) -> ir.Value:
        arity = _BUILTIN_ARITIES[name]
        if len(expr.args) != arity:
            raise CompileError(
                f"{name}() takes {arity} args, got {len(expr.args)}", expr.line, expr.col)
        line = expr.line
        args = [self._compile_expr(arg) for arg in expr.args]

        if name == "assert":
            message = self._module.source_line(line).strip() or f"assert at line {line}"
            self._emit(ir.Assert(args[0], message, line=line))
            return ir.Const(0)
        if name == "malloc":
            dst = self._temp()
            self._emit(ir.Alloc(dst, args[0], heap=True, name="malloc", line=line))
            return dst
        if name in _VOID_BUILTINS:
            self._emit(_VOID_BUILTINS[name](*args, line=line))
            return ir.Const(0)
        if name == "spawn":
            dst = self._temp()
            self._emit(ir.ThreadCreate(dst, args[0], args[1], line=line))
            return dst
        if name == "join":
            dst = self._temp()
            self._emit(ir.ThreadJoin(dst, args[0], line=line))
            return dst

        dst = self._temp()
        self._emit(ir.Intrinsic(dst, name, args, line=line))
        return dst
