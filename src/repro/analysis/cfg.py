"""Control-flow graphs and the call graph (paper section 3.2).

The CFG is per-function and block-granular.  The call graph resolves direct
calls exactly and approximates indirect calls with an address-taken analysis:
any function whose address escapes (a ``FuncRef`` used outside a direct call)
is a possible target of any indirect call with a matching arity -- the
paper's "resolves as many function pointers as possible ... may lose
precision" compromise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .. import ir


class CFG:
    """Successor/predecessor maps for one function."""

    def __init__(self, func: ir.Function) -> None:
        self.function = func
        self.succs: dict[str, tuple[str, ...]] = {}
        self.preds: dict[str, list[str]] = {label: [] for label in func.blocks}
        for label, block in func.blocks.items():
            targets = block.terminator.successors() if block.terminator else ()
            self.succs[label] = targets
            for target in targets:
                self.preds[target].append(label)

    def reachable_from_entry(self) -> set[str]:
        return self._reach(self.function.entry, self.succs)

    def blocks_reaching(self, target: str) -> set[str]:
        """All blocks with an intra-procedural path to ``target`` (inclusive)."""
        preds_as_succs = {label: tuple(p) for label, p in self.preds.items()}
        return self._reach(target, preds_as_succs)

    @staticmethod
    def _reach(start: str, edges: dict[str, tuple[str, ...]]) -> set[str]:
        seen = {start}
        queue = deque([start])
        while queue:
            label = queue.popleft()
            for nxt in edges.get(label, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen


@dataclass(slots=True)
class CallSite:
    """A call instruction and its possible targets."""

    ref: ir.InstrRef
    targets: tuple[str, ...]
    direct: bool


@dataclass(slots=True)
class CallGraph:
    callees: dict[str, set[str]] = field(default_factory=dict)
    callers: dict[str, set[str]] = field(default_factory=dict)
    # (func, block) -> [(index, targets, direct)]
    sites_by_block: dict[tuple[str, str], list[CallSite]] = field(default_factory=dict)
    address_taken: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def call_sites(self, func: str, label: str) -> list[CallSite]:
        return self.sites_by_block.get((func, label), [])


def address_taken_functions(module: ir.Module) -> dict[int, tuple[str, ...]]:
    """Functions whose address escapes, grouped by arity."""
    taken: set[str] = set()
    for func in module.functions.values():
        for block in func.blocks.values():
            instrs = block.instrs
            if block.terminator is not None:
                instrs = [*instrs, block.terminator]
            for instr in instrs:
                if isinstance(instr, ir.Call):
                    # A FuncRef used as the callee is a direct call, not an
                    # escape; a FuncRef passed as an argument escapes.
                    operands = instr.args
                elif isinstance(instr, ir.ThreadCreate):
                    # The start routine is "called"; its argument may escape.
                    operands = (instr.arg,)
                else:
                    operands = instr.operands()
                for op in operands:
                    if isinstance(op, ir.FuncRef):
                        taken.add(op.name)
    by_arity: dict[int, list[str]] = {}
    for name in sorted(taken):
        arity = len(module.functions[name].params)
        by_arity.setdefault(arity, []).append(name)
    return {arity: tuple(names) for arity, names in by_arity.items()}


def build_call_graph(module: ir.Module) -> CallGraph:
    graph = CallGraph()
    for name in module.functions:
        graph.callees[name] = set()
        graph.callers[name] = set()
    graph.address_taken = address_taken_functions(module)

    # Call and thread-create sites are never terminators.
    for func in module.functions.values():
        for label, block in func.blocks.items():
            for index, instr in enumerate(block.instrs):
                if isinstance(instr, ir.Call):
                    callee, arity = instr.callee, len(instr.args)
                elif isinstance(instr, ir.ThreadCreate):
                    callee, arity = instr.func, 1
                else:
                    continue
                direct = isinstance(callee, ir.FuncRef)
                targets = ((callee.name,) if direct
                           else graph.address_taken.get(arity, ()))
                site = CallSite(ir.InstrRef(func.name, label, index), targets, direct)
                graph.sites_by_block.setdefault((func.name, label), []).append(site)
                for target in targets:
                    if target in module.functions:
                        graph.callees[func.name].add(target)
                        graph.callers[target].add(func.name)
    return graph


def reachable_functions(module: ir.Module, graph: CallGraph, root: str = "main") -> set[str]:
    """Functions reachable from ``root`` through the call graph (plus thread
    start routines, which the call graph already includes as callees)."""
    seen = {root}
    queue = deque([root])
    while queue:
        name = queue.popleft()
        for callee in graph.callees.get(name, ()):
            if callee not in seen:
                seen.add(callee)
                queue.append(callee)
    return seen
