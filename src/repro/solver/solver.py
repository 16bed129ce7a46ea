"""Constraint solver: interval propagation + branch-and-prune search.

This is the stand-in for the STP solver Klee uses.  Constraints are symbolic
expressions required to be *truthy* (non-zero).  The solver:

1. folds away concrete constraints,
2. narrows variable domains by HC4-style forward/backward interval
   propagation until a fixpoint (a branch probe starts from the fixpoint
   its path condition stores, and a branch that fixpoint decides needs
   no probe: :meth:`Solver.decide`),
3. searches: enumerate small domains / bisect large ones, propagating after
   every decision, and
4. verifies every model by direct evaluation before reporting SAT (so a
   propagation bug can cost time but never soundness).

Results are cached in a Klee-style :class:`~repro.solver.cache.
CounterexampleCache` keyed by *structural* digests of the constraints
(:func:`~repro.solver.expr.struct_key`), so structurally identical queries
hit even when the expressions were rebuilt by another state, session, or
module compilation.  The cache also answers supersets of known-UNSAT sets
and subsets of known-SAT sets without solving, and remembers (bounded)
budget-exhausting queries so re-checks do not re-burn the search budget.
Because variable domains are finite, the search is complete given enough
budget; budget exhaustion reports UNKNOWN, which callers treat as "possibly
feasible" (search keeps going, never drops paths).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from . import intervals as iv
from .cache import SAT_SUBSET, UNKNOWN_HIT, UNSAT_SUPERSET, CounterexampleCache
from .expr import Atom, BinExpr, Expr, UnExpr, Var, evaluate, struct_key
from .intervals import Interval, IntervalEvaluator
from .solver_types import Result, Solution

if TYPE_CHECKING:
    from ..symbex.state import PathCondition


class _Conflict(Exception):
    """A domain became empty during propagation."""


class _BudgetExhausted(Exception):
    """The search budget ran out."""


_MIRROR = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}


@dataclass(slots=True)
class SolverStats:
    """Telemetry counters for one solver.

    Incremented without locking: when portfolio variants share a solver
    across threads, concurrent increments can occasionally be lost, so
    treat the numbers as near-exact telemetry, not an exact ledger (the
    shared :class:`CounterexampleCache` keeps its own locked counters).
    Solver *answers* are unaffected -- per-query search state lives in
    :class:`_SearchCtx` and the cache is locked.
    """

    queries: int = 0
    cache_hits: int = 0  # total component-level hits, all kinds
    unsat_superset_hits: int = 0
    sat_subset_hits: int = 0
    unknown_hits: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    search_nodes: int = 0
    # Model-reuse fast path (driven by Executor._feasible): branch
    # feasibility answered by one concrete evaluation of the state's last
    # satisfying assignment, no solve at all.
    fastpath_hits: int = 0
    fastpath_misses: int = 0
    # Feasibility probes answered by the abstract interpreter's cached
    # facts (the executor's static-pruning hooks): the probe never reaches
    # the solver at all -- not even a witness evaluation runs.
    static_answers: int = 0
    # Branch directions refuted by goal-directed necessary preconditions
    # (:mod:`repro.analysis.wp`): the direction may well be feasible, but
    # no execution down it can reach the goal, so its probe is skipped.
    wp_refuted: int = 0
    # Branches decided by :meth:`Solver.decide` on the interval the path
    # stores for the condition's variable: neither side is probed.
    interval_answers: int = 0


@dataclass(slots=True)
class _SearchCtx:
    """Per-query mutable search state.

    Kept off the solver instance so one solver (with its shared caches) is
    reentrant: portfolio synthesis runs several variants concurrently
    against the session's single solver.
    """

    budget: int
    changed: bool = False


class Solver:
    """A reusable solver instance with a counterexample cache.

    ``enumeration_limit`` bounds how many values of one variable are tried
    before bisection takes over; ``max_nodes`` bounds total search nodes per
    query.  ``cache`` shares one :class:`CounterexampleCache` across several
    solvers (a :class:`~repro.api.ReproSession` does this per module);
    omitted, the solver gets a private one.  ``structural_keys=False``
    reverts to uid-based cache keys and ``subset_reasoning=False`` disables
    the UNSAT-superset/SAT-subset answers -- both exist for the
    ``bench_solver`` baseline and ablations, not for production use.
    """

    def __init__(
        self,
        enumeration_limit: int = 1024,
        max_nodes: int = 200_000,
        *,
        cache: Optional[CounterexampleCache] = None,
        structural_keys: bool = True,
        subset_reasoning: bool = True,
    ) -> None:
        self.enumeration_limit = enumeration_limit
        self.max_nodes = max_nodes
        self.structural_keys = structural_keys
        self.subset_reasoning = subset_reasoning
        self.stats = SolverStats()
        # `cache or ...` would discard an *empty* shared cache (it has len()).
        self.cache = cache if cache is not None else CounterexampleCache()
        # Observability hooks (repro.obs), both optional and attached by the
        # owner after construction: ``tracer`` records slow queries as
        # solver-query spans, ``latency`` is a histogram fed every query
        # duration.  The disabled path is two attribute loads and two `is
        # None` tests -- no obs code runs, nothing is allocated.
        self.tracer = None
        self.latency = None

    # -- public API -----------------------------------------------------------

    def check(
        self, constraints: Iterable[Atom],
        path: Optional["PathCondition"] = None, *, split: bool = False,
    ) -> Solution:
        """Decide satisfiability of the conjunction of ``constraints``.

        Constraints are first partitioned into *independent* groups (connected
        components of the shares-a-variable relation, Klee's independent-
        constraint optimization); each component is solved and cached
        separately.  Long path conditions over many unrelated inputs then
        cost one small solve for the component the newest constraint touches,
        with everything else answered from cache.

        With ``path``, ``constraints`` is already one component: the path's
        constraints over the variables of its last element, closed over
        shared variables, then that last element (a branch probe).  A cache
        miss then starts from the fixpoint stored in ``path.var_index``
        instead of the declared ranges (:meth:`_path_root`).  ``split``
        partitions the path's own constraints as without a path.
        """
        tracer = self.tracer
        if (tracer is not None and tracer.enabled) or self.latency is not None:
            start = time.perf_counter()
            solution = self._check_impl(constraints, path, split)
            end = time.perf_counter()
            if self.latency is not None:
                self.latency.observe(end - start)
            # Threshold checked here, not in record(): fast queries (the
            # vast majority) then cost two clock reads and one compare --
            # no attrs dict, no method call.
            if (tracer is not None and tracer.enabled
                    and end - start >= tracer.min_record_seconds):
                tracer.record("solver.check", "solver-query", start, end,
                              {"result": solution.result.value})
            return solution
        return self._check_impl(constraints, path, split)

    def _check_impl(
        self, constraints: Iterable[Atom], path: Optional["PathCondition"], split: bool,
    ) -> Solution:
        self.stats.queries += 1
        exprs: list[Expr] = []
        for atom in constraints:
            if isinstance(atom, int):
                if atom == 0:
                    return Solution(Result.UNSAT)
                continue
            exprs.append(atom)
        if not exprs:
            return Solution(Result.SAT)

        merged_model: dict[str, int] = {}
        worst = Result.SAT
        components = ([exprs] if path is not None and not split
                      else _independent_components(exprs))
        for component in components:
            solution = self._check_component(component, path)
            if solution.result is Result.UNSAT:
                self.stats.unsat += 1
                return Solution(Result.UNSAT)
            if solution.result is Result.UNKNOWN:
                worst = Result.UNKNOWN
            merged_model.update(solution.model)
        if worst is Result.SAT:
            self.stats.sat += 1
            return Solution(Result.SAT, merged_model)
        self.stats.unknown += 1
        return Solution(Result.UNKNOWN)

    def _check_component(
        self, exprs: list[Expr], path: Optional["PathCondition"],
    ) -> Solution:
        if self.structural_keys:
            key = frozenset(struct_key(e) for e in exprs)
        else:
            key = frozenset(e.uid for e in exprs)
        hit = self.cache.lookup(key, self.max_nodes, self.subset_reasoning)
        if hit is not None:
            kind, cached = hit
            if kind == SAT_SUBSET:
                # The stored model solved a *superset*, so it may assign
                # variables outside this component; those extraneous values
                # must not leak into check()'s merged model, where they
                # would clobber a sibling component's assignment.  The
                # restriction still covers every variable of ``exprs``, and
                # re-verification guards against structural-digest
                # collisions: reject the hit rather than report a model the
                # expressions themselves refute.
                names = {v.name for e in exprs for v in e.variables()}
                model = {n: v for n, v in cached.model.items() if n in names}
                if not self._verify(exprs, model):
                    cached = None
                else:
                    cached = Solution(Result.SAT, model)
            if cached is not None:
                self.cache.record_hit(kind)
                self._count_hit(kind)
                return cached
        solution = self._solve(exprs, path)
        if solution.result is Result.UNKNOWN:
            self.cache.insert_unknown(key, self.max_nodes)
        else:
            self.cache.insert(key, solution)
        return solution

    def _count_hit(self, kind: str) -> None:
        self.stats.cache_hits += 1
        if kind == UNSAT_SUPERSET:
            self.stats.unsat_superset_hits += 1
        elif kind == SAT_SUBSET:
            self.stats.sat_subset_hits += 1
        elif kind == UNKNOWN_HIT:
            self.stats.unknown_hits += 1

    def feasible(self, constraints: Iterable[Atom]) -> bool:
        """May these constraints hold?  UNKNOWN counts as feasible (sound for
        path search: we never drop a path we cannot refute)."""
        return self.check(constraints).maybe_sat

    def model(self, constraints: Iterable[Atom],
              path: Optional["PathCondition"] = None) -> Optional[dict[str, int]]:
        """A model; with the constraints' ``path``, a miss starts from its fixpoint."""
        solution = self.check(constraints, path, split=True)
        return dict(solution.model) if solution.is_sat else None

    def decide(self, cond: Expr, path: "PathCondition") -> Optional[bool]:
        """Does ``path`` imply ``cond`` (True) or its negation (False)?

        Judged on the interval ``path.var_index`` stores for ``cond``'s one
        variable, with the constraints over it added since folded in: the
        root :meth:`_path_root` builds, on which the solver's first step,
        forward evaluation, refutes the other side.  ``None`` if no miss
        has folded the variable, or the fold needs another one.
        """
        names = cond.variables()
        if len(names) != 1:
            return None
        (var,) = names
        entry = path.var_index.get(var.name)
        if entry is None or entry[1] is None:
            return None
        constraints, interval, folded = entry
        domains = {var.name: interval}
        if folded < len(constraints):
            pending = constraints[folded:]
            if any(len(c.variables()) != 1 for c in pending):
                return None
            try:
                settled = self._settle(list(pending), None, path.var_index, domains,
                                       20 * (len(constraints) + 1), _SearchCtx(0))
            except _Conflict:
                return None
            # A narrowing re-queues every constraint over the variable: one
            # over another variable would read that one's declared range.
            if not settled or domains[var.name] != interval and any(
                    len(c.variables()) != 1 for c in constraints[:folded]):
                return None
            path.var_index[var.name] = (constraints, domains[var.name],
                                        len(constraints))
        result = IntervalEvaluator(domains).eval(cond)
        if result.lo > 0 or result.hi < 0:
            return True
        return False if result == iv.FALSE else None

    # -- core ---------------------------------------------------------------

    def _solve(
        self, exprs: list[Expr], path: Optional["PathCondition"] = None,
    ) -> Solution:
        ctx = _SearchCtx(budget=self.max_nodes)
        try:
            model = self._search(exprs, None, ctx, path)
        except _BudgetExhausted:
            return Solution(Result.UNKNOWN)
        if model is None:
            return Solution(Result.UNSAT)
        return Solution(Result.SAT, model)

    def _search(
        self, exprs: list[Expr], domains: Optional[dict[str, Interval]],
        ctx: _SearchCtx, path: Optional["PathCondition"] = None,
    ) -> Optional[dict[str, int]]:
        """Search below ``domains``; ``None`` stands for the root."""
        ctx.budget -= 1
        self.stats.search_nodes += 1
        if ctx.budget <= 0:
            raise _BudgetExhausted
        try:
            if domains is None:
                domains = self._root(exprs, ctx, path)
            else:
                domains = self._propagate(exprs, domains, ctx)
        except _Conflict:
            return None

        open_vars = [
            (len(interval), name)
            for name, interval in domains.items()
            if not interval.singleton
        ]
        if not open_vars:
            model = {name: interval.lo for name, interval in domains.items()}
            return model if self._verify(exprs, model) else None

        open_vars.sort()
        size, name = open_vars[0]
        interval = domains[name]
        if size <= self.enumeration_limit:
            for value in self._ordered_values(name, interval, exprs):
                child = dict(domains)
                child[name] = Interval(value, value)
                model = self._search(exprs, child, ctx)
                if model is not None:
                    return model
            return None
        mid = (interval.lo + interval.hi) // 2
        for half in (Interval(interval.lo, mid), Interval(mid + 1, interval.hi)):
            child = dict(domains)
            child[name] = half
            model = self._search(exprs, child, ctx)
            if model is not None:
                return model
        return None

    def _ordered_values(
        self, name: str, interval: Interval, exprs: list[Expr]
    ) -> Iterable[int]:
        """Try equality hints first, then sweep the domain in order."""
        hints: list[int] = []
        for expr in exprs:
            if (
                isinstance(expr, BinExpr)
                and expr.op == "=="
                and isinstance(expr.lhs, Var)
                and expr.lhs.name == name
                and isinstance(expr.rhs, int)
                and expr.rhs in interval
            ):
                hints.append(expr.rhs)
        seen = set(hints)
        yield from hints
        for value in range(interval.lo, interval.hi + 1):
            if value not in seen:
                yield value

    def _verify(self, exprs: list[Expr], model: dict[str, int]) -> bool:
        # KeyError: a digest-collision subset hit can hand us a model that
        # lacks one of the query's variables -- that is a rejection, not a
        # crash.
        try:
            return all(evaluate(expr, model) != 0 for expr in exprs)
        except (ZeroDivisionError, KeyError):
            return False

    # -- propagation ------------------------------------------------------------

    def _root(
        self, exprs: list[Expr], ctx: _SearchCtx,
        path: Optional["PathCondition"],
    ) -> dict[str, Interval]:
        """The search root: ``exprs`` propagated from the declared ranges,
        or from ``path``'s stored fixpoint when one converges in bound."""
        declared: dict[str, Interval] = {}
        for expr in exprs:
            for var in expr.variables():
                declared.setdefault(var.name, Interval(var.lo, var.hi))
        if path is not None:
            root = self._path_root(exprs, declared, path, ctx)
            if root is not None:
                return root
        return self._propagate(exprs, declared, ctx)

    def _path_root(
        self, exprs: list[Expr], declared: dict[str, Interval],
        path: "PathCondition", ctx: _SearchCtx,
    ) -> Optional[dict[str, Interval]]:
        """The fixpoint of ``exprs`` reached from ``path``'s stored one.

        First the path constraints over these variables that are not folded
        in yet are propagated into the stored intervals, which are updated;
        then the probe, ``exprs[-1]``, is propagated on a copy.  Both run to
        a fixpoint of the same monotone narrowing operators ``_propagate``
        applies, so the root equals the one ``_propagate`` reaches from the
        declared ranges, and the search below it is the same.  ``None``
        when a worklist does not settle within ``_propagate``'s bound of 20
        rounds; the caller then starts from the declared ranges.
        """
        var_index = path.var_index
        domains: dict[str, Interval] = {}
        pending: list[Expr] = []
        queued: set[int] = set()
        for name, declared_iv in declared.items():
            entry = var_index.get(name)
            if entry is None:  # only the probe mentions it
                domains[name] = declared_iv
                continue
            constraints, interval, folded = entry
            domains[name] = declared_iv if interval is None else interval
            for constraint in constraints[folded:]:
                if constraint.uid not in queued:
                    queued.add(constraint.uid)
                    pending.append(constraint)
        limit = 20 * len(exprs)
        if pending:
            if not self._settle(pending, None, var_index, domains, limit, ctx):
                return None
            for name, interval in domains.items():
                entry = var_index.get(name)
                if entry is not None:  # every constraint over it is in now
                    var_index[name] = (entry[0], interval, len(entry[0]))
        probe = exprs[-1]
        root = dict(domains)
        if not self._settle([probe], probe, var_index, root, limit, ctx):
            return None
        return root

    def _settle(
        self, seed: list[Expr], probe: Optional[Expr], var_index: dict,
        domains: dict[str, Interval], limit: int, ctx: _SearchCtx,
    ) -> bool:
        """Propagate ``seed`` into ``domains`` (AC-3 style): a constraint
        that narrows a domain queues again every constraint sharing one of
        its variables, the ``probe`` among them.  False after ``limit``
        steps without a fixpoint; raises :class:`_Conflict` on an empty
        domain."""
        queue = deque(seed)
        queued = {expr.uid for expr in seed}
        probe_names = ({v.name for v in probe.variables()}
                       if probe is not None else ())
        while queue:
            limit -= 1
            if limit < 0:
                return False
            expr = queue.popleft()
            queued.discard(expr.uid)
            evaluator = IntervalEvaluator(domains)
            result = evaluator.eval(expr)
            if result.singleton and result.lo == 0:
                raise _Conflict
            ctx.changed = False
            self._narrow_truthy(expr, domains, evaluator, ctx)
            if not ctx.changed:
                continue
            for var in expr.variables():
                entry = var_index.get(var.name)
                neighbours = entry[0] if entry is not None else ()
                if var.name in probe_names:
                    neighbours += (probe,)
                for other in neighbours:
                    if other.uid not in queued:
                        queued.add(other.uid)
                        queue.append(other)
        return True

    def _propagate(
        self, exprs: list[Expr], domains: dict[str, Interval], ctx: _SearchCtx
    ) -> dict[str, Interval]:
        domains = dict(domains)
        for _ in range(20):  # fixpoint almost always reached in 2-3 rounds
            ctx.changed = False
            evaluator = IntervalEvaluator(domains)
            for expr in exprs:
                result = evaluator.eval(expr)
                if result.singleton and result.lo == 0:
                    raise _Conflict
                self._narrow_truthy(expr, domains, evaluator, ctx)
            if not ctx.changed:
                break
        return domains

    def _update(
        self, var: Var, required: Interval, domains: dict[str, Interval],
        ctx: _SearchCtx,
    ) -> None:
        current = domains.get(var.name, Interval(var.lo, var.hi))
        narrowed = current.intersect(required)
        if narrowed.empty:
            raise _Conflict
        if narrowed != current:
            domains[var.name] = narrowed
            ctx.changed = True

    def _narrow_truthy(
        self, atom: Atom, domains: dict[str, Interval], ev: IntervalEvaluator,
        ctx: _SearchCtx,
    ) -> None:
        """Require ``atom != 0`` and push implied bounds down."""
        if isinstance(atom, int):
            if atom == 0:
                raise _Conflict
            return
        if isinstance(atom, Var):
            # v != 0: can only trim an endpoint.
            self._trim_value(atom, 0, domains, ctx)
            return
        if isinstance(atom, UnExpr) and atom.op == "!":
            self._narrow_falsy(atom.operand, domains, ev, ctx)
            return
        if isinstance(atom, BinExpr):
            if atom.op == "&&":
                self._narrow_truthy(atom.lhs, domains, ev, ctx)
                self._narrow_truthy(atom.rhs, domains, ev, ctx)
                return
            if atom.op == "||":
                lhs_iv = ev.eval(atom.lhs)
                rhs_iv = ev.eval(atom.rhs)
                if lhs_iv.singleton and lhs_iv.lo == 0:
                    self._narrow_truthy(atom.rhs, domains, ev, ctx)
                elif rhs_iv.singleton and rhs_iv.lo == 0:
                    self._narrow_truthy(atom.lhs, domains, ev, ctx)
                return
            if atom.op in _MIRROR:
                self._narrow_compare(atom.op, atom.lhs, atom.rhs, domains, ev, ctx)
                return
        # Generic non-boolean expression: nothing useful to push down.

    def _narrow_falsy(
        self, atom: Atom, domains: dict[str, Interval], ev: IntervalEvaluator,
        ctx: _SearchCtx,
    ) -> None:
        """Require ``atom == 0``."""
        if isinstance(atom, int):
            if atom != 0:
                raise _Conflict
            return
        if isinstance(atom, Var):
            self._update(atom, iv.FALSE, domains, ctx)
            return
        if isinstance(atom, UnExpr) and atom.op == "!":
            self._narrow_truthy(atom.operand, domains, ev, ctx)
            return
        if isinstance(atom, BinExpr):
            if atom.op == "||":
                self._narrow_falsy(atom.lhs, domains, ev, ctx)
                self._narrow_falsy(atom.rhs, domains, ev, ctx)
                return
            if atom.op == "&&":
                lhs_iv = ev.eval(atom.lhs)
                rhs_iv = ev.eval(atom.rhs)
                if lhs_iv.lo > 0 or lhs_iv.hi < 0:
                    self._narrow_falsy(atom.rhs, domains, ev, ctx)
                elif rhs_iv.lo > 0 or rhs_iv.hi < 0:
                    self._narrow_falsy(atom.lhs, domains, ev, ctx)
                return
            if atom.op in _MIRROR:
                negated = {
                    "==": "!=", "!=": "==", "<": ">=",
                    ">=": "<", ">": "<=", "<=": ">",
                }[atom.op]
                self._narrow_compare(negated, atom.lhs, atom.rhs, domains, ev, ctx)
                return

    def _narrow_compare(
        self, op: str, lhs: Atom, rhs: Atom, domains: dict[str, Interval],
        ev: IntervalEvaluator, ctx: _SearchCtx,
    ) -> None:
        lhs_iv = ev.eval(lhs)
        rhs_iv = ev.eval(rhs)
        if op == "==":
            meet = lhs_iv.intersect(rhs_iv)
            if meet.empty:
                raise _Conflict
            self._narrow_term(lhs, meet, domains, ev, ctx)
            self._narrow_term(rhs, meet, domains, ev, ctx)
        elif op == "!=":
            if lhs_iv.singleton and rhs_iv.singleton and lhs_iv.lo == rhs_iv.lo:
                raise _Conflict
            if rhs_iv.singleton and isinstance(lhs, Var):
                self._trim_value(lhs, rhs_iv.lo, domains, ctx)
            if lhs_iv.singleton and isinstance(rhs, Var):
                self._trim_value(rhs, lhs_iv.lo, domains, ctx)
        elif op == "<":
            self._narrow_term(lhs, Interval(iv.LO_MIN, rhs_iv.hi - 1), domains, ev, ctx)
            self._narrow_term(rhs, Interval(lhs_iv.lo + 1, iv.HI_MAX), domains, ev, ctx)
        elif op == "<=":
            self._narrow_term(lhs, Interval(iv.LO_MIN, rhs_iv.hi), domains, ev, ctx)
            self._narrow_term(rhs, Interval(lhs_iv.lo, iv.HI_MAX), domains, ev, ctx)
        elif op == ">":
            self._narrow_compare("<", rhs, lhs, domains, ev, ctx)
        elif op == ">=":
            self._narrow_compare("<=", rhs, lhs, domains, ev, ctx)

    def _trim_value(
        self, var: Var, value: int, domains: dict[str, Interval], ctx: _SearchCtx
    ) -> None:
        """Remove ``value`` from a variable's domain if it sits on an endpoint."""
        current = domains.get(var.name, Interval(var.lo, var.hi))
        if current.singleton and current.lo == value:
            raise _Conflict
        if current.lo == value:
            domains[var.name] = Interval(current.lo + 1, current.hi)
            ctx.changed = True
        elif current.hi == value:
            domains[var.name] = Interval(current.lo, current.hi - 1)
            ctx.changed = True

    def _narrow_term(
        self, atom: Atom, required: Interval, domains: dict[str, Interval],
        ev: IntervalEvaluator, ctx: _SearchCtx,
    ) -> None:
        """Push ``atom ∈ required`` down through arithmetic structure."""
        if isinstance(atom, int):
            if atom not in required:
                raise _Conflict
            return
        if isinstance(atom, Var):
            self._update(atom, required, domains, ctx)
            return
        if isinstance(atom, BinExpr):
            lhs_iv = ev.eval(atom.lhs)
            rhs_iv = ev.eval(atom.rhs)
            if atom.op == "+":
                self._narrow_term(atom.lhs, iv.sub(required, rhs_iv), domains, ev, ctx)
                self._narrow_term(atom.rhs, iv.sub(required, lhs_iv), domains, ev, ctx)
            elif atom.op == "-":
                self._narrow_term(atom.lhs, iv.add(required, rhs_iv), domains, ev, ctx)
                self._narrow_term(
                    atom.rhs, iv.sub(lhs_iv, required), domains, ev, ctx
                )
            elif atom.op == "*":
                if rhs_iv.singleton and rhs_iv.lo != 0:
                    self._narrow_term(
                        atom.lhs, _div_exact(required, rhs_iv.lo), domains, ev, ctx
                    )
                elif lhs_iv.singleton and lhs_iv.lo != 0:
                    self._narrow_term(
                        atom.rhs, _div_exact(required, lhs_iv.lo), domains, ev, ctx
                    )
        elif isinstance(atom, UnExpr) and atom.op == "-":
            self._narrow_term(
                atom.operand, Interval(-required.hi, -required.lo), domains, ev, ctx
            )
        # Other operators: no backward rule; forward evaluation still prunes.


def _independent_components(exprs: list[Expr]) -> list[list[Expr]]:
    """Partition constraints into connected components of shared variables."""
    parent: dict[str, str] = {}

    def find(name: str) -> str:
        root = name
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:
            parent[name], name = root, parent[name]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    expr_vars: list[list[str]] = []
    for expr in exprs:
        names = [v.name for v in expr.variables()]
        expr_vars.append(names)
        for name in names:
            parent.setdefault(name, name)
        for other in names[1:]:
            union(names[0], other)

    groups: dict[str, list[Expr]] = {}
    constants: list[Expr] = []
    for expr, names in zip(exprs, expr_vars):
        if not names:
            constants.append(expr)
            continue
        groups.setdefault(find(names[0]), []).append(expr)
    components = list(groups.values())
    if constants:
        components.append(constants)
    return components


def _div_exact(required: Interval, c: int) -> Interval:
    """Solutions x of ``c * x ∈ required`` (c != 0)."""
    import math

    if c > 0:
        lo = math.ceil(required.lo / c)
        hi = math.floor(required.hi / c)
    else:
        lo = math.ceil(required.hi / c)
        hi = math.floor(required.lo / c)
    return Interval(lo, hi)
