"""Proximity heuristic: estimated instructions to reach a goal (Algorithm 1).

``distance(I, G)`` estimates the fewest instructions from instruction ``I``
to goal ``G``: shortest acyclic path within the procedure, where each call
along the path costs the callee's shortest entry-to-return path (function
``dist2ret``), recursion costs a fixed ``RECURSION_COST`` (the paper uses
1000), and unresolved indirect calls cost the average over possible targets.
When the goal is not in the current procedure, the estimate walks the call
stack: return from the current frame (``dist2ret``), resume in the caller,
and so on (Algorithm 1 lines 3-6).

The paper's listing is "(Simplified)"; one thing it leaves implicit is that
the goal may live in a *callee* of the current procedure.  We compute block
tables with call-descent edges (entering a call costs 1 plus the callee's
entry-to-goal distance), which generalizes the listing and is required for
any program whose failure point is below ``main``.

Everything is cached: per-function suffix cost arrays, entry-to-return
costs, and per-goal block tables ("we speed up the computation of the
distance to the goal during synthesis by caching computed distances",
section 6.2).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import FrozenSet, Optional, Protocol

from .. import ir
from ..ir import InstrRef
from .cfg import CFG, CallGraph, build_call_graph

INF = float("inf")
RECURSION_COST = 1000
SYSCALL_COST = 1  # intrinsics model environment calls

# The per-call-stack memo in state_distance is keyed by every distinct call
# stack a search explores; a calculator that lives for a whole ReproSession
# (thousands of reports) would otherwise grow it without bound.  When full
# it is simply dropped -- entries are cheap to recompute from the persistent
# goal tables.
STATE_CACHE_LIMIT = 200_000


class DistanceSource(Protocol):
    """What a searcher needs from a distance provider -- satisfied both by
    :class:`DistanceCalculator` and by goal-gated wrappers around it."""

    def instruction_distance(self, ref: InstrRef, goal: InstrRef) -> float:
        ...

    def state_distance(self, frames: list[InstrRef], goal: InstrRef) -> float:
        ...


class _StackWalk:
    """Algorithm 1's walk over a call stack, memoized per (stack, goal).

    Subclasses supply the per-frame ``instruction_distance`` and the
    ``dist2ret`` cost of returning from a frame.
    """

    __slots__ = ("_state_cache",)

    def __init__(self) -> None:
        self._state_cache: dict[tuple, float] = {}

    def instruction_distance(self, ref: InstrRef, goal: InstrRef) -> float:
        raise NotImplementedError

    def dist2ret(self, ref: InstrRef) -> float:
        raise NotImplementedError

    def state_distance(self, frames: list[InstrRef], goal: InstrRef) -> float:
        """Algorithm 1: distance for a call stack (innermost ref first)."""
        if not frames:
            return INF
        key = (tuple(frames), goal)
        cached = self._state_cache.get(key)
        if cached is not None:
            return cached
        best = self.instruction_distance(frames[0], goal)
        acc = self.dist2ret(frames[0]) + 1
        for resume in frames[1:]:
            if acc == INF:
                break
            best = min(best, acc + self.instruction_distance(resume, goal))
            acc += self.dist2ret(resume) + 1
        if len(self._state_cache) >= STATE_CACHE_LIMIT:
            self._state_cache.clear()
        self._state_cache[key] = best
        return best


@dataclass(slots=True)
class _BlockInfo:
    # suffix[i] = cost of executing instructions [i, end] of the block,
    # counting each call as 1 + its callee cost.
    suffix: list[int]
    # (index, cost-contribution-of-this-call, possible callees)
    calls: list[tuple[int, int, tuple[str, ...]]]


class DistanceCalculator(_StackWalk):
    """All distance queries for one module."""

    def __init__(self, module: ir.Module) -> None:
        super().__init__()
        self.module = module
        self.callgraph: CallGraph = build_call_graph(module)
        self.cfgs: dict[str, CFG] = {
            name: CFG(func) for name, func in module.functions.items()
        }
        self._func_cost: dict[str, float] = {}
        self._block_info: dict[tuple[str, str], _BlockInfo] = {}
        self._ret_tables: dict[str, dict[str, float]] = {}
        self._goal_tables: dict[InstrRef, "_GoalTable"] = {}
        self._sites_into: Optional[dict[str, list[tuple[tuple[str, str], float]]]] = None

    # ------------------------------------------------------------------
    # Per-instruction call costs
    # ------------------------------------------------------------------

    def call_cost(self, name: str) -> float:
        """Shortest entry-to-return instruction count of a function, with
        recursive call edges weighted RECURSION_COST (paper section 3.4)."""
        cached = self._func_cost.get(name)
        if cached is not None:
            return cached
        self._compute_func_costs(name, in_progress=set())
        return self._func_cost[name]

    def _compute_func_costs(self, name: str, in_progress: set[str]) -> float:
        cached = self._func_cost.get(name)
        if cached is not None:
            return cached
        if name in in_progress:
            return RECURSION_COST
        if name not in self.module.functions:
            return SYSCALL_COST
        in_progress.add(name)
        func = self.module.functions[name]
        # Dijkstra over blocks toward any Ret, with call costs resolved
        # recursively (cycles in the call graph cost RECURSION_COST).
        block_cost: dict[str, float] = {}
        ret_blocks: list[str] = []
        for label, block in func.blocks.items():
            cost = 0.0
            for instr in list(block.instrs) + [block.terminator]:
                cost += self._instr_cost(instr, in_progress)
            block_cost[label] = cost
            if isinstance(block.terminator, ir.Ret):
                ret_blocks.append(label)
        dist = _dijkstra_to_targets(self.cfgs[name], block_cost, ret_blocks)
        entry_cost = dist.get(func.entry, INF)
        in_progress.discard(name)
        self._func_cost[name] = entry_cost
        return entry_cost

    def _instr_cost(self, instr: ir.Instr, in_progress: set[str]) -> float:
        if isinstance(instr, ir.Call):
            if isinstance(instr.callee, ir.FuncRef):
                return 1 + self._compute_func_costs(instr.callee.name, in_progress)
            targets = self.callgraph.address_taken.get(len(instr.args), ())
            if not targets:
                return 1 + SYSCALL_COST
            costs = [self._compute_func_costs(t, in_progress) for t in targets]
            finite = [c for c in costs if c != INF]
            return 1 + (sum(finite) / len(finite) if finite else RECURSION_COST)
        return 1

    # ------------------------------------------------------------------
    # Block info (suffix costs, call sites)
    # ------------------------------------------------------------------

    def _info(self, func: str, label: str) -> _BlockInfo:
        key = (func, label)
        cached = self._block_info.get(key)
        if cached is not None:
            return cached
        block = self.module.functions[func].blocks[label]
        instrs = list(block.instrs) + [block.terminator]
        suffix = [0] * (len(instrs) + 1)
        calls: list[tuple[int, int, tuple[str, ...]]] = []
        for i in range(len(instrs) - 1, -1, -1):
            instr = instrs[i]
            cost = self._instr_cost(instr, set())
            if isinstance(instr, ir.Call):
                if isinstance(instr.callee, ir.FuncRef):
                    targets: tuple[str, ...] = (instr.callee.name,)
                else:
                    targets = self.callgraph.address_taken.get(len(instr.args), ())
                calls.append((i, int(cost), targets))
            elif isinstance(instr, ir.ThreadCreate):
                # Spawning a thread is a descent point: the new thread starts
                # at the routine's entry (the spawn itself costs 1).
                if isinstance(instr.func, ir.FuncRef):
                    targets = (instr.func.name,)
                else:
                    targets = self.callgraph.address_taken.get(1, ())
                calls.append((i, int(cost), targets))
            suffix[i] = suffix[i + 1] + int(cost)
        calls.reverse()
        info = _BlockInfo(suffix, calls)
        self._block_info[key] = info
        return info

    def _call_sites_into(self) -> dict[str, list[tuple[tuple[str, str], float]]]:
        """callee -> [(caller block, cost from the block's start to the
        call site)], built on the first goal table and shared by all."""
        if self._sites_into is None:
            index: dict[str, list[tuple[tuple[str, str], float]]] = {}
            for key, sites in self.callgraph.sites_by_block.items():
                suffix = self._info(*key).suffix
                for site in sites:
                    prefix = float(suffix[0] - suffix[site.ref.index])
                    for target in site.targets:
                        index.setdefault(target, []).append((key, prefix))
            self._sites_into = index
        return self._sites_into

    # ------------------------------------------------------------------
    # dist2ret
    # ------------------------------------------------------------------

    def _ret_table(self, func: str) -> dict[str, float]:
        cached = self._ret_tables.get(func)
        if cached is not None:
            return cached
        function = self.module.functions[func]
        block_cost: dict[str, float] = {}
        ret_blocks: list[str] = []
        for label, block in function.blocks.items():
            block_cost[label] = float(self._info(func, label).suffix[0])
            if isinstance(block.terminator, ir.Ret):
                ret_blocks.append(label)
        table = _dijkstra_to_targets(self.cfgs[func], block_cost, ret_blocks)
        self._ret_tables[func] = table
        return table

    def dist2ret(self, ref: InstrRef) -> float:
        """Fewest instructions from ``ref`` to returning from its function."""
        info = self._info(ref.function, ref.block)
        block = self.module.functions[ref.function].blocks[ref.block]
        own = float(info.suffix[ref.index])
        if isinstance(block.terminator, ir.Ret):
            return own
        table = self._ret_table(ref.function)
        best = INF
        for succ in block.terminator.successors():
            best = min(best, table.get(succ, INF))
        return own + best if best != INF else INF

    # ------------------------------------------------------------------
    # distance to a goal
    # ------------------------------------------------------------------

    def _goal_table(self, goal: InstrRef) -> "_GoalTable":
        cached = self._goal_tables.get(goal)
        if cached is not None:
            return cached
        table = _GoalTable(self, goal)
        self._goal_tables[goal] = table
        return table

    def instruction_distance(self, ref: InstrRef, goal: InstrRef) -> float:
        """Distance from executing at ``ref`` to reaching ``goal``, allowing
        descent into callees but not returns (Algorithm 1's ``distance``)."""
        return self._goal_table(goal).from_position(self, ref)


class _GoalTable:
    """Per-goal distances with call-descent, computed by a global Dijkstra
    running backward from the goal over (function, block) nodes.  The
    calculator that caches the table is passed in, not kept: a table
    holding it would make every calculator a reference cycle."""

    def __init__(self, calc: DistanceCalculator, goal: InstrRef) -> None:
        self.goal = goal
        # block_dist[(func, label)] = min cost from the *start* of the block
        # to the goal.
        self.block_dist: dict[tuple[str, str], float] = {}
        # rows[(func, label)][i] = distance from position i of the block,
        # built on the block's first query (see _row).
        self.rows: dict[tuple[str, str], list[float]] = {}
        self._unreachable: dict[int, list[float]] = {}
        self._compute(calc)

    def _compute(self, calc: DistanceCalculator) -> None:
        module = calc.module
        dist = self.block_dist
        goal = self.goal
        # Worklist Bellman-Ford: all edge weights are positive, the graph is
        # small, and cross-function descent edges make Dijkstra's one-pass
        # property awkward, so iterate to fixpoint (the fixpoint does not
        # depend on the order nodes are relaxed in).
        seed_key = (goal.function, goal.block)
        seed_suffix = calc._info(goal.function, goal.block).suffix
        dist[seed_key] = float(seed_suffix[0] - seed_suffix[goal.index])
        worklist = [seed_key]
        entry_of = {
            name: (name, func.entry) for name, func in module.functions.items()
        }
        sites_into = calc._call_sites_into()
        while worklist:
            key = worklist.pop()
            func, label = key
            base = dist.get(key, INF)
            if base == INF:
                continue
            cfg = calc.cfgs[func]
            # Intra-procedural relaxation of predecessors.
            for pred in cfg.preds.get(label, ()):  # pred -> label edge
                cost = float(calc._info(func, pred).suffix[0]) + base
                pkey = (func, pred)
                if cost < dist.get(pkey, INF):
                    dist[pkey] = cost
                    worklist.append(pkey)
            # Descent relaxation: if this is a function entry, every caller
            # block containing a call site gets a shortcut.
            if entry_of.get(func) == key:
                for ckey, prefix in sites_into.get(func, ()):
                    cost = prefix + 1 + base
                    if cost < dist.get(ckey, INF):
                        dist[ckey] = cost
                        worklist.append(ckey)

    def from_position(self, calc: DistanceCalculator, ref: InstrRef) -> float:
        key = (ref.function, ref.block)
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = self._row(calc, key)
        return row[ref.index]

    def _row(self, calc: DistanceCalculator, key: tuple[str, str]) -> list[float]:
        """Distances from every position of one block.

        A path from position ``i`` leaves the block at some ``j >= i`` (a
        call or spawn site, or the goal itself) for ``suffix[i] - suffix[j]
        + rest_j``, or falls into a successor, so the distance is
        ``suffix[i] + min(tail_best[i], exit_best)`` with ``tail_best[i]``
        the least ``rest_j - suffix[j]`` over ``j >= i`` and ``exit_best``
        the least successor ``block_dist``.  The regrouping is
        exact: suffix entries and block_dist values are integer-valued
        floats (``_info`` stores ``int(cost)``), so no sum rounds and each
        distance is bit-for-bit the per-call-site minimum.
        """
        func, label = key
        functions = calc.module.functions
        block_dist = self.block_dist
        info = calc._info(func, label)
        suffix = info.suffix
        events = [INF] * len(suffix)
        goal = self.goal
        if key == (goal.function, goal.block):
            events[goal.index] = float(-suffix[goal.index])
        for index, _cost, targets in info.calls:
            for target in targets:
                entry_dist = (
                    block_dist.get((target, functions[target].entry), INF)
                    if target in functions else INF
                )
                events[index] = min(events[index], 1 + entry_dist - suffix[index])
        terminator = functions[func].blocks[label].terminator
        exit_best = INF
        if terminator is not None:
            for succ in terminator.successors():
                exit_best = min(exit_best, block_dist.get((func, succ), INF))
        if min(min(events), exit_best) == INF:
            # No position reaches the goal (most queried blocks, on large
            # programs): share one all-INF row per length.
            return self._unreachable.setdefault(len(suffix), [INF] * len(suffix))
        row = [INF] * len(suffix)
        tail_best = INF
        for i in range(len(suffix) - 1, -1, -1):
            tail_best = min(tail_best, events[i])
            row[i] = suffix[i] + min(tail_best, exit_best)
        return row


class GoalGatedDistances(_StackWalk):
    """A :class:`DistanceSource` that scores provably-dead positions INF.

    Wraps the syntactic :class:`DistanceCalculator` with a goal-directed
    reach set (:class:`repro.analysis.reach.GoalReach`): a frame positioned
    in a ``(function, block)`` node outside the set cannot reach the goal
    without first returning, so its per-frame distance is ``INF``.  The
    Algorithm-1 stack walk is unchanged -- outer frames still contribute
    through their own (gated) positions, and ``dist2ret`` stays ungated
    because returning is exactly the escape the reach set does not cover.

    The searcher then drops states whose *every* frame is outside the set
    (their distance is INF), which is the proximity-heuristic face of the
    same soundness argument the executor's necessary-condition check uses.
    """

    __slots__ = ("base", "reach_blocks")

    def __init__(
        self,
        base: DistanceCalculator,
        reach_blocks: FrozenSet[tuple[str, str]],
    ) -> None:
        super().__init__()
        self.base = base
        self.reach_blocks = reach_blocks

    def instruction_distance(self, ref: InstrRef, goal: InstrRef) -> float:
        if (ref.function, ref.block) not in self.reach_blocks:
            return INF
        return self.base.instruction_distance(ref, goal)

    def dist2ret(self, ref: InstrRef) -> float:
        return self.base.dist2ret(ref)


def _dijkstra_to_targets(
    cfg: CFG, block_cost: dict[str, float], targets: list[str]
) -> dict[str, float]:
    """Min cost from the start of each block to finishing any target block,
    where finishing a block costs ``block_cost`` and edges are CFG successors.
    """
    dist: dict[str, float] = {}
    heap: list[tuple[float, str]] = []
    for label in targets:
        cost = block_cost[label]
        dist[label] = cost
        heapq.heappush(heap, (cost, label))
    while heap:
        cost, label = heapq.heappop(heap)
        if cost > dist.get(label, INF):
            continue
        for pred in cfg.preds.get(label, ()):
            candidate = block_cost[pred] + cost
            if candidate < dist.get(pred, INF):
                dist[pred] = candidate
                heapq.heappush(heap, (candidate, pred))
    return dist
