"""One decoded form per module, shared by every executor of it, and the
static phase's instruction walks.

A module is decoded once however many executors run it; a deep copy (a
repair candidate) decodes afresh, so an edit to the copy shows in its runs
and never in the original's.  The walks in ``analysis.cfg`` and
``analysis.reachdefs`` iterate blocks directly and must find exactly what
a walk over ``Function.iter_instructions`` finds.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import ReproSession, ir
from repro.analysis.cfg import address_taken_functions, build_call_graph
from repro.analysis.reachdefs import (
    Definition,
    collect_global_definitions,
    local_address_regs,
    store_target,
)
from repro.bpf import BPFParams, generate
from repro.core import ESDConfig
from repro.lang import compile_source
from repro.repair import PatchCandidate, clone_module
from repro.repair.holes import concrete_behavior
from repro.symbex import ConcreteEnv, Executor, RecordedInputs
from repro.symbex.executor import _GlobalOperand, _Late, _module_code
from repro.symbex.memory import Pointer
from repro.workloads import ALL, get

PINS = json.loads(
    (Path(__file__).parent / "assets" / "artifact_pins.json").read_text())

BRANCHY = """
int g;
int h;
int pick(int x) {
    if (x < 5) { return 1; }
    return 2;
}
int main() {
    g = 3;
    h = g + 1;
    print_int(pick(g));
    print_int(h);
    return 0;
}
"""


def _run(module: ir.Module) -> list[str]:
    behavior = concrete_behavior(module, RecordedInputs())
    assert behavior.status == "exited"
    return list(behavior.output)


def test_two_executors_of_one_module_share_the_block_tuples():
    module = compile_source(BRANCHY, "branchy")
    first = Executor(module, env=ConcreteEnv(RecordedInputs()))
    second = Executor(module, env=ConcreteEnv(RecordedInputs()))
    state = first.run_to_completion(first.initial_state())
    assert state.status == "exited"
    for name in module.functions:
        code = first._function_code(name)
        assert second._function_code(name) is code
        for label, entries in code.items():
            assert second._function_code(name)[label] is entries
    # Both executors read one table, filled by the first run.
    assert first._decoded is second._decoded is _module_code(module)
    assert set(first._decoded.functions) == set(module.functions)


def test_a_cloned_module_decodes_afresh_and_runs_its_patch():
    module = compile_source(BRANCHY, "branchy")
    assert _run(module) == ["1", "4"]
    decoded = _module_code(module)
    assert set(decoded.functions) == {"main", "pick"}

    branch = next(ref for ref, instr in module.functions["pick"].iter_instructions()
                  if isinstance(instr, ir.CondBr))
    candidate = PatchCandidate(
        kind="branch-flip", function="pick", line=0,
        params={"ref": str(branch), "value": 0}, description="flip")
    patched = clone_module(module)
    assert _module_code(patched) is not decoded
    assert not _module_code(patched).functions
    candidate.apply(patched)

    assert _run(patched) == ["2", "4"]
    # The original's decoded code is untouched by the patch.
    assert _module_code(module) is decoded
    assert _run(module) == ["1", "4"]


def test_a_thread_portfolio_on_one_module_gives_the_pinned_artifact():
    workload = get("ls4")
    # A fresh compile: the report's trigger run decodes the workload's own
    # module, so the portfolio's threads are the first to decode this one.
    module = compile_source(workload.source, workload.name)
    assert not _module_code(module).functions
    session = ReproSession(module, workers=1)
    outcome = session.synthesize_portfolio(
        workload.make_report(), {"a": ESDConfig(), "b": ESDConfig()})
    assert outcome.winner is not None and outcome.winner.found
    for result in outcome.results.values():
        if result.found:
            digest = hashlib.sha256(
                result.execution_file.canonical_bytes()).hexdigest()
            assert digest == PINS["ls4"]["sha256"]


def test_threads_decoding_one_module_at_once_all_keep_one_table():
    module = compile_source(get("ls4").source, "ls4")
    barrier = threading.Barrier(4)
    seen: list[dict] = []

    def decode() -> None:
        executor = Executor(module)
        barrier.wait(5)
        seen.append({name: executor._function_code(name)
                     for name in module.functions})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decode) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 4
    for name, code in _module_code(module).functions.items():
        assert all(tables[name] is code for tables in seen), name


def test_a_global_operand_is_interned_and_follows_the_globals_map():
    module = compile_source(BRANCHY, "branchy")
    executor = Executor(module, env=ConcreteEnv(RecordedInputs()))
    executor.run_to_completion(executor.initial_state())
    decoded = executor._decoded
    operands = {id(op): op
                for code in decoded.functions.values()
                for entries in code.values()
                for entry in entries
                for op in entry[2:] if isinstance(op, _Late)}
    # g is read and written at four sites, h at two: one operand each.
    assert sorted(op.name for op in operands.values()) == ["g", "h"]
    g = decoded.globals["g"]
    assert isinstance(g, _GlobalOperand)

    one = SimpleNamespace(globals={"g": 4, "h": 5})
    two = SimpleNamespace(globals={"g": 9, "h": 1})
    assert g.resolve(one) == Pointer(4, 0)
    assert g.resolve(two) == Pointer(9, 0)
    assert g.resolve(one) == Pointer(4, 0)
    # Runs on either side of another run still see their own globals.
    assert _run(module) == ["1", "4"]
    assert g.resolve(two) == Pointer(9, 0)


# -- the static phase's walks, against iter_instructions references -----------


def _reference_address_taken(module: ir.Module) -> dict[int, tuple[str, ...]]:
    taken: set[str] = set()
    for func in module.functions.values():
        for _, instr in func.iter_instructions():
            operands = instr.operands()
            if isinstance(instr, ir.Call):
                operands = tuple(instr.args)
            if isinstance(instr, ir.ThreadCreate):
                operands = (instr.arg,)
            for op in operands:
                if isinstance(op, ir.FuncRef):
                    taken.add(op.name)
    by_arity: dict[int, list[str]] = {}
    for name in sorted(taken):
        by_arity.setdefault(len(module.functions[name].params), []).append(name)
    return {arity: tuple(names) for arity, names in by_arity.items()}


def _reference_call_sites(module: ir.Module, taken) -> list[tuple]:
    sites = []
    for func in module.functions.values():
        for ref, instr in func.iter_instructions():
            if isinstance(instr, ir.Call):
                if isinstance(instr.callee, ir.FuncRef):
                    sites.append((ref, (instr.callee.name,), True))
                else:
                    sites.append((ref, taken.get(len(instr.args), ()), False))
            elif isinstance(instr, ir.ThreadCreate):
                if isinstance(instr.func, ir.FuncRef):
                    sites.append((ref, (instr.func.name,), True))
                else:
                    sites.append((ref, taken.get(1, ()), False))
    return sites


def _reference_global_definitions(module: ir.Module) -> dict[str, set[Definition]]:
    result: dict[str, set[Definition]] = {}
    for func in module.functions.values():
        addr_regs = local_address_regs(func)
        for ref, instr in func.iter_instructions():
            var = store_target(instr, func, addr_regs)
            if var is not None and var[0] == "global":
                result.setdefault(var[1], set()).add(
                    Definition(var, ref, instr.value))
    return result


def _wide_static(seed: int) -> ir.Module:
    return generate(BPFParams(num_inputs=128, num_branches=2048,
                              num_input_branches=2048, num_threads=2,
                              num_locks=2, seed=seed)).workload.compile()


# No registered workload takes a function's address: this one does, in a
# store, a call argument, a return (a terminator) and an indirect spawn.
FNPTR = """
int total;
int f(int x) { return x; }
int g(int x) { return x + 1; }
int h(int x) { total = x; return 0; }
int *pick() { return &g; }
int apply(int *fn, int x) { return fn(x); }
void w(int x) { total = total + x; return; }
int main() {
    int *p = &f;
    int *q = pick();
    int *t = &w;
    join(spawn(t, 2));
    total = apply(&h, 1) + p(3) + q(4);
    return total;
}
"""

WALKED = sorted(ALL) + ["bpf-2048-12", "bpf-2048-15", "fnptr"]


@pytest.mark.parametrize("name", WALKED)
def test_block_walks_match_the_instruction_walks(name):
    if name.startswith("bpf-2048-"):
        module = _wide_static(int(name.rsplit("-", 1)[1]))
    elif name == "fnptr":
        module = compile_source(FNPTR, name)
        assert address_taken_functions(module) == {1: ("f", "g", "h", "w")}
    else:
        module = get(name).compile()
    taken = _reference_address_taken(module)
    assert address_taken_functions(module) == taken

    graph = build_call_graph(module)
    sites = [(site.ref, site.targets, site.direct)
             for func in module.functions.values()
             for label in func.blocks
             for site in graph.call_sites(func.name, label)]
    assert sites == _reference_call_sites(module, taken)
    assert graph.address_taken == taken

    assert collect_global_definitions(module) == _reference_global_definitions(module)
