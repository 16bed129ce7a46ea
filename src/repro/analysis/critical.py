"""Critical edges and intermediate goals (paper section 3.2).

A *critical edge* is a CFG edge that must be traversed on every path to the
goal.  ESD finds them by walking backward from the goal block: at each step
it takes the unique predecessor; if that predecessor branches and only one of
its outgoing edges can lead to the goal, the edge is critical.  The walk
stops at the first block with multiple predecessors (the paper notes its
prototype explores a single predecessor chain).

An *intermediate goal* is a basic block that must execute for a critical
edge to be traversable: a block containing a reaching definition that can
give the branch condition its required value.  Where several definitions
qualify, the alternatives form a disjunctive goal set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import ir
from ..ir import InstrRef
from ..solver import Solver
from ..solver.expr import Atom, Var, binop, negate, truthy
from .absint import analyze_module, decide_pinned
from .cfg import CFG
from .reachdefs import Definition, ReachingDefs, VarId, collect_global_definitions
from .reconstruct import reconstruct_condition


@dataclass(frozen=True, slots=True)
class CriticalEdge:
    """The branch at ``branch`` must take ``required_target``."""

    branch: InstrRef
    required_target: str
    other_target: str
    # True if the required target is the then-edge (condition must be true).
    condition_value: bool


@dataclass(frozen=True, slots=True)
class IntermediateGoal:
    """A disjunctive set of blocks, one of which must execute (a "must have"
    anchor for the guided search)."""

    alternatives: tuple[InstrRef, ...]
    variable: str
    edge: CriticalEdge


def find_critical_edges(module: ir.Module, goal: InstrRef) -> list[CriticalEdge]:
    """Walk the unique-predecessor chain backward from the goal block.

    Every block on the chain lies on *every* path to the goal (each chain
    node's only way in is the next chain node, so no path can splice into
    the middle).  Consequently, when a chain node ends in a conditional
    branch, the edge that stays on the chain must eventually be taken: even
    if the other side can loop back toward the goal, it re-enters the chain
    above this block and must branch here again.  That "must eventually
    evaluate this way" is exactly the property the intermediate-goal
    derivation needs.
    """
    func = module.functions[goal.function]
    cfg = CFG(func)
    edges: list[CriticalEdge] = []
    visited = {goal.block}
    node = goal.block
    while True:
        preds = [p for p in cfg.preds.get(node, []) if p != node]
        if len(preds) != 1:
            break  # paper: the walk explores a single-predecessor chain only
        pred = preds[0]
        if pred in visited:
            break
        visited.add(pred)
        block = func.blocks[pred]
        term = block.terminator
        if isinstance(term, ir.CondBr):
            condition_value = term.then_target == node
            other = term.else_target if condition_value else term.then_target
            edges.append(
                CriticalEdge(
                    branch=InstrRef(goal.function, pred, len(block.instrs)),
                    required_target=node,
                    other_target=other,
                    condition_value=condition_value,
                )
            )
        node = pred
    return edges


def find_intermediate_goals(
    module: ir.Module,
    goal: InstrRef,
    solver: Solver | None = None,
    max_depth: int = 3,
    *,
    static_eval: bool = False,
    global_defs: dict[str, set[Definition]] | None = None,
) -> list[IntermediateGoal]:
    """Intermediate goals for ``goal``, derived *recursively*.

    Level 0 finds the blocks whose definitions can satisfy the critical
    edges guarding the goal.  Each such block is itself a "must execute"
    target, so its own critical edges are analyzed in turn (e.g. a deadlock
    guarded by ``gate == 1``, where ``gate = 1`` executes only under
    ``flag0 == 1 && flag1 == 1``, yields goals for the flag definitions
    too).  This realizes the paper's "break down the search for a path to
    the final goal into smaller searches for sub-paths from one
    intermediate goal to the next" across procedure boundaries.

    With ``static_eval`` on, pinned-constant feasibility probes that the
    abstract interpreter's constant domain can decide are answered without
    the solver (counted in ``solver.stats.static_answers``), and -- when
    the facts are ``pruning_sound`` -- definitions in blocks the abstract
    interpreter proved unreachable are not offered as alternatives (a
    store that can never execute can never satisfy the edge).  The pinned
    decision procedure only answers when its verdict is provably the
    solver's; the dead-definition filter can shrink the goal set, which is
    why callers memoize per flag value.

    ``global_defs`` (:func:`collect_global_definitions` of ``module``) lets
    callers share one module pass across targets.
    """
    solver = solver or Solver()
    if global_defs is None:
        global_defs = collect_global_definitions(module)
    goals: list[IntermediateGoal] = []
    seen_targets: set[InstrRef] = {goal}
    seen_alternatives: set[tuple[InstrRef, ...]] = set()
    frontier = [goal]
    for _ in range(max_depth):
        next_frontier: list[InstrRef] = []
        for target in frontier:
            for ig in _direct_intermediate_goals(
                module, target, solver, global_defs, static_eval
            ):
                if ig.alternatives in seen_alternatives:
                    continue
                seen_alternatives.add(ig.alternatives)
                goals.append(ig)
                # Single-alternative goals are unconditional "must execute"
                # blocks: recurse into what guards them.  (Disjunctive sets
                # are not must-blocks individually, so recursion stops.)
                if len(ig.alternatives) == 1:
                    ref = ig.alternatives[0]
                    if ref not in seen_targets:
                        seen_targets.add(ref)
                        next_frontier.append(ref)
        if not next_frontier:
            break
        frontier = next_frontier
    return goals


def _direct_intermediate_goals(
    module: ir.Module,
    goal: InstrRef,
    solver: Solver,
    global_defs: dict[str, set[Definition]],
    static_eval: bool = False,
) -> list[IntermediateGoal]:
    """Blocks containing reaching definitions that can satisfy each critical
    edge's branch condition.

    For each variable in a reconstructible branch condition: a definition
    storing a constant qualifies if the condition is satisfiable with that
    constant substituted (checked with the solver); a definition storing a
    non-constant value cannot be excluded statically and also qualifies.  If
    the variable's *initial value* already satisfies the condition, no goal
    is emitted for it (nothing must execute).
    """
    edges = find_critical_edges(module, goal)
    goals: list[IntermediateGoal] = []
    reachdefs = ReachingDefs(module, goal.function)
    dead_blocks: dict[str, frozenset[str]] = {}
    if static_eval:
        facts = analyze_module(module)
        if facts.pruning_sound:
            dead_blocks = dict(facts.unreachable)

    for edge in edges:
        block = module.functions[goal.function].blocks[edge.branch.block]
        term = block.terminator
        assert isinstance(term, ir.CondBr)
        if not isinstance(term.cond, ir.Reg):
            continue
        recon = reconstruct_condition(module, goal.function, term.cond.name)
        if recon is None:
            continue
        required = truthy(recon.expr) if edge.condition_value else negate(recon.expr)
        if isinstance(required, int):
            continue

        local_defs = reachdefs.reaching_at(edge.branch)
        for var_id, var in recon.variables.items():
            if var_id[0] == "global":
                defs = global_defs.get(var_id[1], set())
                initial = _global_initial(module, var_id[1])
            else:
                defs = local_defs.get(var_id, set())
                initial = 0
            if initial is not None and _pinned_feasible(
                solver, required, var, initial, static_eval
            ):
                continue  # no store needed for this variable
            alternatives = _qualifying_blocks(
                solver, required, var, defs, static_eval, dead_blocks
            )
            if alternatives:
                goals.append(
                    IntermediateGoal(tuple(sorted(alternatives)), _var_label(var_id), edge)
                )
    return goals


def _qualifying_blocks(
    solver: Solver,
    required: Atom,
    var: Var,
    defs: set[Definition],
    static_eval: bool = False,
    dead_blocks: dict[str, frozenset[str]] | None = None,
) -> set[InstrRef]:
    blocks: set[InstrRef] = set()
    for definition in defs:
        if dead_blocks and definition.ref.block in dead_blocks.get(
            definition.ref.function, frozenset()
        ):
            continue  # the defining block provably never executes
        constant = definition.constant
        if constant is None:
            qualifies = True  # statically unknown value: cannot exclude
        else:
            qualifies = _pinned_feasible(solver, required, var, constant, static_eval)
        if qualifies:
            blocks.add(InstrRef(definition.ref.function, definition.ref.block, 0))
    return blocks


def _pinned_feasible(
    solver: Solver,
    required: Atom,
    var: Var,
    value: int,
    static_eval: bool,
) -> bool:
    """``feasible([required, var == value])``, answered by the abstract
    interpreter's constant domain when that is provably equivalent."""
    if static_eval:
        verdict = decide_pinned(required, var, value)
        if verdict is not None:
            solver.stats.static_answers += 1
            return verdict
    return solver.feasible([required, binop("==", var, value)])


def _global_initial(module: ir.Module, name: str) -> int | None:
    var = module.globals.get(name)
    if var is None or var.size != 1:
        return None
    return var.init[0] if var.init else 0


def _var_label(var_id: VarId) -> str:
    return var_id[-1]
