"""Symbolic expression DAG.

During symbolic execution (paper section 3.3), program inputs are
*unconstrained symbolic values*; operations on them build expressions, and
branch decisions accumulate constraints over those expressions.

Expressions here are hash-consed: structurally identical expressions are the
same Python object, so equality/hashing is identity, path conditions
deduplicate for free, and the solver cache can key on expression ids.  Smart
constructors constant-fold eagerly, so an expression containing no variables
is always reduced to a plain Python int before an :class:`Expr` is built.

Semantics are C-like signed 32-bit integers.  Comparison and logical
operators yield 0/1.  Division/modulo truncate toward zero (the executor
forks on a possibly-zero symbolic divisor before the expression is built).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Iterator, Optional, Union

from ..ir.values import wrap32

Atom = Union[int, "Expr"]

_COMMUTATIVE = frozenset({"+", "*", "&", "|", "^", "==", "!="})


def _c_div(a: int, b: int) -> int:
    """C division: truncation toward zero."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _c_mod(a: int, b: int) -> int:
    """C modulo: sign follows the dividend."""
    return a - _c_div(a, b) * b


_FOLDERS = {
    "+": lambda a, b: wrap32(a + b),
    "-": lambda a, b: wrap32(a - b),
    "*": lambda a, b: wrap32(a * b),
    "/": lambda a, b: wrap32(_c_div(a, b)),
    "%": lambda a, b: wrap32(_c_mod(a, b)),
    "&": lambda a, b: wrap32(a & b),
    "|": lambda a, b: wrap32(a | b),
    "^": lambda a, b: wrap32(a ^ b),
    "<<": lambda a, b: wrap32(a << (b & 31)),
    ">>": lambda a, b: wrap32(a >> (b & 31)),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}

_UNARY_FOLDERS = {
    "-": lambda a: wrap32(-a),
    "!": lambda a: int(not a),
    "~": lambda a: wrap32(~a),
}

_NEGATED_CMP = {
    "==": "!=", "!=": "==",
    "<": ">=", ">=": "<",
    ">": "<=", "<=": ">",
}


# uid allocation must be atomic: concurrent portfolio threads build
# expressions through the shared intern table, whose keys embed child uids
# -- a duplicated uid would silently alias two structurally different
# expressions.  ``next()`` on an itertools.count is a single C call.
_uid_counter = itertools.count(1)


class Expr:
    """Base class for symbolic expressions.  Instances are interned."""

    __slots__ = ("uid", "_vars", "_skey")

    def variables(self) -> frozenset["Var"]:
        return self._vars  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return self is other


class Var(Expr):
    """A symbolic input with an inclusive integer domain ``[lo, hi]``.

    Domains come from the input's type: bytes of stdin/env/argv strings are
    ``[0, 255]``, generic int inputs get a configurable range.  Finite domains
    are what makes the solver complete over this constraint class (the
    analogue of the paper's "symbolic execution cannot invert SHA-2" limit).
    """

    __slots__ = ("name", "lo", "hi")

    def __init__(self, name: str, lo: int, hi: int) -> None:
        if lo > hi:
            raise ValueError(f"empty domain for {name}: [{lo}, {hi}]")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.uid = next(_uid_counter)
        self._vars = None  # no stored {self}: that would be a reference cycle
        self._skey: Optional[int] = None

    def variables(self) -> frozenset["Var"]:
        return frozenset((self,))

    def __repr__(self) -> str:
        return self.name


class BinExpr(Expr):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Atom, rhs: Atom) -> None:
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.uid = next(_uid_counter)
        vars_: frozenset[Var] = frozenset()
        if isinstance(lhs, Expr):
            vars_ |= lhs.variables()
        if isinstance(rhs, Expr):
            vars_ |= rhs.variables()
        self._vars = vars_
        self._skey: Optional[int] = None

    def __repr__(self) -> str:
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


class UnExpr(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr) -> None:
        self.op = op
        self.operand = operand
        self.uid = next(_uid_counter)
        self._vars = operand.variables()
        self._skey: Optional[int] = None

    def __repr__(self) -> str:
        return f"{self.op}({self.operand!r})"


# Intern table: (op, lhs key, rhs key) -> Expr.  Var objects are unique by
# construction (fresh input names), so only compound nodes are interned.
# The table is a bounded LRU: a long-lived service process (batch/portfolio
# synthesis over many reports) builds expressions forever, and an unbounded
# table would pin every one of them.  Evicting an entry is always safe --
# a structurally identical expression built later just becomes a fresh
# object with a fresh uid, and the solver keys its caches on *structural*
# digests (:func:`struct_key`), not uids, so cache effectiveness survives
# eviction.
_INTERN_LIMIT = 1 << 17
_interned: "OrderedDict[tuple, Expr]" = OrderedDict()


def set_intern_limit(limit: int) -> None:
    """Bound the intern table to ``limit`` entries (evicts oldest now)."""
    global _INTERN_LIMIT
    if limit < 1:
        raise ValueError("intern limit must be positive")
    _INTERN_LIMIT = limit
    while len(_interned) > _INTERN_LIMIT:
        _interned.popitem(last=False)


def intern_table_size() -> int:
    return len(_interned)


def _key(atom: Atom) -> object:
    return atom.uid if isinstance(atom, Expr) else ("c", atom)


# CPython's hash(-1) == hash(-2), so hashing raw integers into a digest
# would make the constants -1 and -2 (or domain bounds differing the same
# way) collide *systematically* -- and a digest collision in the solver
# cache is a wrong SAT/UNSAT answer.  Shifting into the positive range
# [0, 2**61-1) keeps integer hashing injective for every value 32-bit
# program arithmetic can produce.
_HASH_SHIFT = 1 << 32


def _int_digest(value: int) -> int:
    return value + _HASH_SHIFT


def struct_key(atom: Atom) -> int:
    """A canonical structural digest of an expression (or constant).

    Structurally identical expressions -- even ones built by different
    sessions, from a recompiled module, or after intern-table eviction --
    get equal digests, so solver caches keyed on ``struct_key`` survive
    expression re-construction (uids do not).  Variables hash by
    ``(name, lo, hi)``: two symbolic inputs with the same name and domain
    denote the same value stream across runs of one program.

    Digests are memoized on the node; computation is iterative so deep
    path-condition expressions cannot overflow the recursion limit.
    """
    if not isinstance(atom, Expr):
        return hash(("c", _int_digest(atom)))
    cached = atom._skey
    if cached is not None:
        return cached
    stack = [atom]
    while stack:
        node = stack[-1]
        if node._skey is not None:
            stack.pop()
            continue
        if isinstance(node, Var):
            node._skey = hash(
                ("v", node.name, _int_digest(node.lo), _int_digest(node.hi))
            )
            stack.pop()
        elif isinstance(node, BinExpr):
            lhs, rhs = node.lhs, node.rhs
            if isinstance(lhs, Expr) and lhs._skey is None:
                stack.append(lhs)
                continue
            if isinstance(rhs, Expr) and rhs._skey is None:
                stack.append(rhs)
                continue
            lk = lhs._skey if isinstance(lhs, Expr) else hash(("c", _int_digest(lhs)))
            rk = rhs._skey if isinstance(rhs, Expr) else hash(("c", _int_digest(rhs)))
            node._skey = hash(("b", node.op, lk, rk))
            stack.pop()
        else:
            operand = node.operand  # type: ignore[attr-defined]
            if operand._skey is None:
                stack.append(operand)
                continue
            node._skey = hash(("u", node.op, operand._skey))
            stack.pop()
    return atom._skey  # type: ignore[return-value]


def make_var(name: str, lo: int = -(2**31), hi: int = 2**31 - 1) -> Var:
    return Var(name, lo, hi)


def binop(op: str, lhs: Atom, rhs: Atom) -> Atom:
    """Build ``lhs op rhs``, folding and simplifying."""
    if isinstance(lhs, int) and isinstance(rhs, int):
        return _FOLDERS[op](lhs, rhs)

    simplified = _simplify_binop(op, lhs, rhs)
    if simplified is not None:
        return simplified

    if op in _COMMUTATIVE and isinstance(lhs, int):
        lhs, rhs = rhs, lhs  # canonical form: constant on the right

    key = (op, _key(lhs), _key(rhs))
    cached = _interned.get(key)
    if cached is not None:
        _touch(key)
        return cached
    expr = BinExpr(op, lhs, rhs)
    _intern(key, expr)
    return expr


def unop(op: str, operand: Atom) -> Atom:
    if isinstance(operand, int):
        return _UNARY_FOLDERS[op](operand)
    if op == "-":
        return binop("-", 0, operand)
    if op == "!":
        # !(a cmp b) -> negated comparison; !!x stays as (x == 0) == 0 form.
        if isinstance(operand, BinExpr) and operand.op in _NEGATED_CMP:
            return binop(_NEGATED_CMP[operand.op], operand.lhs, operand.rhs)
        return binop("==", operand, 0)
    key = (op, _key(operand), None)
    cached = _interned.get(key)
    if cached is not None:
        _touch(key)
        return cached
    expr = UnExpr(op, operand)
    _intern(key, expr)
    return expr


def rebuild_binop(op: str, lhs: Atom, rhs: Atom) -> Expr:
    """Reconstruct a binary node *exactly*, without folding or simplifying.

    Snapshot deserialization rebuilds expression DAGs node for node; the
    encoded structure already went through :func:`binop`'s folding when it
    was first built, so re-simplifying could produce a structurally
    different (if equivalent) tree and break round-trip fidelity checks.
    The node is still interned, so decoded DAGs share subexpressions with
    live ones.
    """
    key = (op, _key(lhs), _key(rhs))
    cached = _interned.get(key)
    if isinstance(cached, BinExpr):
        _touch(key)
        return cached
    expr = BinExpr(op, lhs, rhs)
    _intern(key, expr)
    return expr


def rebuild_unop(op: str, operand: Expr) -> Expr:
    """Reconstruct a unary node exactly (see :func:`rebuild_binop`)."""
    key = (op, _key(operand), None)
    cached = _interned.get(key)
    if isinstance(cached, UnExpr):
        _touch(key)
        return cached
    expr = UnExpr(op, operand)
    _intern(key, expr)
    return expr


def _touch(key: tuple) -> None:
    # Lock-free recency bump: a concurrent portfolio thread may evict the
    # key between our get() and here; losing the bump for an entry that is
    # gone anyway is fine, raising out of binop() is not.
    try:
        _interned.move_to_end(key)
    except KeyError:
        pass


def _intern(key: tuple, expr: Expr) -> None:
    while len(_interned) >= _INTERN_LIMIT:
        try:
            _interned.popitem(last=False)
        except KeyError:  # another thread emptied it under us
            break
    _interned[key] = expr


def _simplify_binop(op: str, lhs: Atom, rhs: Atom) -> Optional[Atom]:
    """Local algebraic simplifications.  Returns None when nothing applies."""
    if op == "+":
        if rhs == 0:
            return lhs
        if lhs == 0:
            return rhs
    elif op == "-":
        if rhs == 0:
            return lhs
        if lhs is rhs:
            return 0
    elif op == "*":
        if rhs == 1:
            return lhs
        if lhs == 1:
            return rhs
        if rhs == 0 or lhs == 0:
            return 0
    elif op == "/":
        if rhs == 1:
            return lhs
    elif op in ("&&", "||"):
        lhs_known = lhs if isinstance(lhs, int) else None
        rhs_known = rhs if isinstance(rhs, int) else None
        if op == "&&":
            if lhs_known == 0 or rhs_known == 0:
                return 0
            if lhs_known is not None and lhs_known != 0:
                return truthy(rhs)
            if rhs_known is not None and rhs_known != 0:
                return truthy(lhs)
        else:
            if (lhs_known is not None and lhs_known != 0) or (
                rhs_known is not None and rhs_known != 0
            ):
                return 1
            if lhs_known == 0:
                return truthy(rhs)
            if rhs_known == 0:
                return truthy(lhs)
    elif op in ("==", "!=", "<=", ">="):
        if lhs is rhs and isinstance(lhs, Expr):
            return int(op in ("==", "<=", ">="))
    elif op in ("<", ">"):
        if lhs is rhs and isinstance(lhs, Expr):
            return 0
    return None


def truthy(atom: Atom) -> Atom:
    """Normalize to 0/1: ``atom != 0``."""
    if isinstance(atom, int):
        return int(atom != 0)
    if isinstance(atom, BinExpr) and atom.op in _NEGATED_CMP:
        return atom  # comparisons are already 0/1
    if isinstance(atom, BinExpr) and atom.op in ("&&", "||"):
        return atom
    if isinstance(atom, UnExpr) and atom.op == "!":
        return atom
    return binop("!=", atom, 0)


def negate(atom: Atom) -> Atom:
    """Logical negation: ``atom == 0``."""
    return unop("!", atom) if isinstance(atom, Expr) else int(not atom)


def evaluate(atom: Atom, model: dict[str, int]) -> int:
    """Evaluate under a complete assignment of the variables involved."""
    if isinstance(atom, int):
        return atom
    result = _eval_cache_walk(atom, model, {})
    return result


def _eval_cache_walk(expr: Expr, model: dict[str, int], cache: dict[int, int]) -> int:
    cached = cache.get(expr.uid)
    if cached is not None:
        return cached
    if isinstance(expr, Var):
        value = model[expr.name]
    elif isinstance(expr, BinExpr):
        lhs = (
            _eval_cache_walk(expr.lhs, model, cache)
            if isinstance(expr.lhs, Expr) else expr.lhs
        )
        rhs = (
            _eval_cache_walk(expr.rhs, model, cache)
            if isinstance(expr.rhs, Expr) else expr.rhs
        )
        if expr.op in ("/", "%") and rhs == 0:
            raise ZeroDivisionError("symbolic division by zero under model")
        value = _FOLDERS[expr.op](lhs, rhs)
    elif isinstance(expr, UnExpr):
        value = _UNARY_FOLDERS[expr.op](_eval_cache_walk(expr.operand, model, cache))
    else:  # pragma: no cover
        raise TypeError(f"unknown expression node {expr!r}")
    cache[expr.uid] = value
    return value


def holds_under(atoms: "list[Atom]", model: dict[str, int]) -> bool:
    """Do all ``atoms`` evaluate truthy under ``model``?

    Variables absent from the model default to their domain minimum (the
    same default the executor uses when concretizing).  One evaluation
    cache is shared across all atoms, so a path condition's common
    subexpressions are evaluated once.  Division by zero under the model
    counts as "does not hold" (the assignment is no witness).

    This is the solver's model-reuse fast path: most branch-feasibility
    queries during symbolic execution are answered by evaluating the
    state's last satisfying assignment instead of running a full interval
    search.
    """
    exprs: list[Expr] = []
    for atom in atoms:
        if isinstance(atom, int):
            if atom == 0:
                return False
        else:
            exprs.append(atom)
    if not exprs:
        return True
    missing = {
        var.name: var.lo
        for expr in exprs
        for var in expr.variables()
        if var.name not in model
    }
    full = {**model, **missing} if missing else model
    cache: dict[int, int] = {}
    try:
        return all(_eval_cache_walk(expr, full, cache) != 0 for expr in exprs)
    except ZeroDivisionError:
        return False


def walk(atom: Atom) -> Iterator[Expr]:
    """Yield every node of an expression once (post-order)."""
    if not isinstance(atom, Expr):
        return
    seen: set[int] = set()
    stack = [atom]
    while stack:
        node = stack.pop()
        if node.uid in seen:
            continue
        seen.add(node.uid)
        if isinstance(node, BinExpr):
            if isinstance(node.lhs, Expr):
                stack.append(node.lhs)
            if isinstance(node.rhs, Expr):
                stack.append(node.rhs)
        elif isinstance(node, UnExpr):
            stack.append(node.operand)
        yield node
