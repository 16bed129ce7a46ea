"""Unit tests for the static analyses: CFG, call graph, reaching defs,
critical edges, intermediate goals, and the distance heuristic."""

import pytest

from repro import ir
from repro.analysis import (
    CFG,
    INF,
    DistanceCalculator,
    ReachingDefs,
    build_call_graph,
    collect_global_definitions,
    find_critical_edges,
    find_intermediate_goals,
    reachable_functions,
    reconstruct_condition,
)
from repro.ir import InstrRef
from repro.lang import compile_source


def first_ref(module, func, predicate):
    """InstrRef of the first instruction in ``func`` matching ``predicate``."""
    for ref, instr in module.functions[func].iter_instructions():
        if predicate(instr):
            return ref
    raise AssertionError("no instruction matched")


LISTING1 = """
int idx = 0;
int mode = 0;
mutex M1;
mutex M2;

void critical_section(int unused) {
    lock(M1);
    lock(M2);
    if (mode == 1 && idx == 1) {
        unlock(M1);
        lock(M1);
    }
    unlock(M2);
    unlock(M1);
}

int main() {
    if (getchar() == 'm') {
        idx = idx + 1;
    }
    int *env = getenv("mode");
    if (env[0] == 'Y') {
        mode = 1;
    } else {
        mode = 2;
    }
    int t1 = spawn(critical_section, 0);
    int t2 = spawn(critical_section, 0);
    join(t1);
    join(t2);
    return 0;
}
"""


class TestCFG:
    def test_linear_function_single_block(self):
        module = compile_source("int main() { int x = 1; return x; }")
        cfg = CFG(module.functions["main"])
        assert cfg.succs["entry"] == ()

    def test_if_produces_diamond(self):
        module = compile_source(
            "int main() { int x = 1; if (x) { x = 2; } else { x = 3; } return x; }"
        )
        cfg = CFG(module.functions["main"])
        assert len(cfg.succs["entry"]) == 2

    def test_preds_inverse_of_succs(self):
        module = compile_source(
            "int main() { for (int i = 0; i < 3; i = i + 1) { } return 0; }"
        )
        cfg = CFG(module.functions["main"])
        for label, succs in cfg.succs.items():
            for succ in succs:
                assert label in cfg.preds[succ]

    def test_reachability_from_entry(self):
        module = compile_source("int main() { return 1; return 2; }")
        cfg = CFG(module.functions["main"])
        reachable = cfg.reachable_from_entry()
        assert "entry" in reachable
        # The parked dead block is not reachable.
        assert any(label not in reachable for label in cfg.succs) or len(cfg.succs) == 1

    def test_blocks_reaching(self):
        module = compile_source(
            "int main() { int x = getchar(); if (x) { return 1; } return 0; }"
        )
        func = module.functions["main"]
        cfg = CFG(func)
        then_label = next(l for l in func.blocks if l.startswith("if.then"))
        reaching = cfg.blocks_reaching(then_label)
        assert "entry" in reaching
        end_label = next(l for l in func.blocks if l.startswith("if.end"))
        assert end_label not in reaching


class TestCallGraph:
    def test_direct_calls(self):
        module = compile_source(
            "int f() { return 1; }\nint g() { return f(); }\nint main() { return g(); }"
        )
        graph = build_call_graph(module)
        assert "f" in graph.callees["g"]
        assert "g" in graph.callers["f"]

    def test_thread_create_is_call_edge(self):
        module = compile_source(
            "void w(int x) { return; }\nint main() { join(spawn(w, 1)); return 0; }"
        )
        graph = build_call_graph(module)
        assert "w" in graph.callees["main"]

    def test_indirect_call_targets_address_taken(self):
        module = compile_source(
            "int f(int x) { return x; }\n"
            "int g(int x) { return x + 1; }\n"
            "int main() { int *p = &f; return p(3); }"
        )
        graph = build_call_graph(module)
        # f's address is taken, so it is a target; g's never escapes.
        assert graph.address_taken.get(1) == ("f",)
        assert "f" in graph.callees["main"]
        assert "g" not in graph.callees["main"]

    def test_reachable_functions(self):
        module = compile_source(
            "int used() { return 1; }\n"
            "int unused() { return 2; }\n"
            "int main() { return used(); }"
        )
        graph = build_call_graph(module)
        reachable = reachable_functions(module, graph)
        assert "used" in reachable
        assert "unused" not in reachable


class TestReachingDefs:
    def test_local_defs_tracked(self):
        module = compile_source(
            """
            int main() {
                int x = 1;
                if (getchar()) {
                    x = 2;
                }
                if (x == 2) { return 1; }
                return 0;
            }
            """
        )
        func = module.functions["main"]
        rd = ReachingDefs(module, "main")
        # At the second branch, both x=1 and x=2 reach.
        branch_ref = None
        for ref, instr in func.iter_instructions():
            if isinstance(instr, ir.CondBr) and ref.block.startswith("if.end"):
                branch_ref = ref
        assert branch_ref is not None
        live = rd.reaching_at(branch_ref)
        defs = live[("local", "main", "x")]
        constants = {d.constant for d in defs}
        assert constants == {1, 2}

    def test_kill_within_block(self):
        module = compile_source(
            "int main() { int x = 1; x = 2; if (x) { return 1; } return 0; }"
        )
        rd = ReachingDefs(module, "main")
        func = module.functions["main"]
        branch_ref = next(
            ref for ref, instr in func.iter_instructions() if isinstance(instr, ir.CondBr)
        )
        live = rd.reaching_at(branch_ref)
        defs = live[("local", "main", "x")]
        assert {d.constant for d in defs} == {2}

    def test_global_defs_collected_module_wide(self):
        module = compile_source(
            """
            int g = 0;
            void setter(int v) { g = v; }
            int main() { g = 1; setter(2); return g; }
            """
        )
        defs = collect_global_definitions(module)
        assert len(defs["g"]) == 2
        functions = {d.ref.function for d in defs["g"]}
        assert functions == {"main", "setter"}


class TestReconstruct:
    def test_simple_comparison(self):
        module = compile_source(
            "int flag = 0;\nint main() { if (flag == 3) { return 1; } return 0; }"
        )
        func = module.functions["main"]
        branch = next(
            instr for _, instr in func.iter_instructions() if isinstance(instr, ir.CondBr)
        )
        recon = reconstruct_condition(module, "main", branch.cond.name)
        assert recon is not None
        assert ("global", "flag") in recon.variables

    def test_unreconstructible_call_result(self):
        module = compile_source(
            "int main() { if (getchar() == 3) { return 1; } return 0; }"
        )
        func = module.functions["main"]
        branch = next(
            instr for _, instr in func.iter_instructions() if isinstance(instr, ir.CondBr)
        )
        recon = reconstruct_condition(module, "main", branch.cond.name)
        assert recon is None


class TestCriticalEdges:
    def test_guarded_goal_has_critical_edge(self):
        module = compile_source(
            """
            int flag = 0;
            int main() {
                if (flag == 1) {
                    abort();
                }
                return 0;
            }
            """
        )
        goal = first_ref(module, "main", lambda i: isinstance(i, ir.Intrinsic) and i.name == "abort")
        edges = find_critical_edges(module, goal)
        assert len(edges) == 1
        assert edges[0].condition_value is True

    def test_else_branch_critical_edge(self):
        module = compile_source(
            """
            int flag = 0;
            int main() {
                if (flag == 1) {
                    return 0;
                } else {
                    abort();
                }
                return 0;
            }
            """
        )
        goal = first_ref(module, "main", lambda i: isinstance(i, ir.Intrinsic) and i.name == "abort")
        edges = find_critical_edges(module, goal)
        assert len(edges) == 1
        assert edges[0].condition_value is False

    def test_merge_point_stops_walk(self):
        module = compile_source(
            """
            int main() {
                int x = getchar();
                if (x) { x = 1; }
                abort();
                return 0;
            }
            """
        )
        goal = first_ref(module, "main", lambda i: isinstance(i, ir.Intrinsic) and i.name == "abort")
        edges = find_critical_edges(module, goal)
        assert edges == []  # goal block has 2 predecessors: no chain to walk

    def test_listing1_critical_edges(self):
        module = compile_source(LISTING1, "listing1")
        func = module.functions["critical_section"]
        # Goal: the lock(M1) inside the if (the second lock(M1), line 12).
        locks = [
            ref for ref, instr in func.iter_instructions()
            if isinstance(instr, ir.MutexLock)
        ]
        goal = locks[-1]
        edges = find_critical_edges(module, goal)
        # Both conjuncts (mode == 1, idx == 1) must hold: two critical edges.
        assert len(edges) == 2
        assert all(edge.condition_value for edge in edges)


class TestIntermediateGoals:
    def test_listing1_intermediate_goals(self):
        module = compile_source(LISTING1, "listing1")
        func = module.functions["critical_section"]
        locks = [
            ref for ref, instr in func.iter_instructions()
            if isinstance(instr, ir.MutexLock)
        ]
        goal = locks[-1]
        goals = find_intermediate_goals(module, goal)
        by_var = {g.variable: g for g in goals}
        assert set(by_var) == {"mode", "idx"}
        # mode == 1: only the 'mode = 1' store qualifies (the paper's point:
        # mode = 2 is statically excluded).
        mode_goal = by_var["mode"]
        assert len(mode_goal.alternatives) == 1
        mode_block = mode_goal.alternatives[0]
        stores = [
            instr for ref, instr in module.functions["main"].iter_instructions()
            if isinstance(instr, ir.Store) and ref.block == mode_block.block
        ]
        assert any(
            isinstance(s.value, ir.Const) and s.value.value == 1 for s in stores
        )
        # idx: the idx = idx + 1 store is not statically decidable, so its
        # block is the (only) alternative.
        idx_goal = by_var["idx"]
        assert len(idx_goal.alternatives) == 1

    def test_satisfied_by_initializer_needs_no_goal(self):
        module = compile_source(
            """
            int flag = 1;
            int main() {
                flag = 0;
                if (flag == 1) { abort(); }
                return 0;
            }
            """
        )
        goal = first_ref(
            module, "main",
            lambda i: isinstance(i, ir.Intrinsic) and i.name == "abort",
        )
        goals = find_intermediate_goals(module, goal)
        # The initializer already satisfies flag == 1, so no block *must* run.
        assert goals == []


class TestDistance:
    def test_same_block_distance(self):
        module = compile_source("int main() { int a = 1; int b = 2; abort(); return 0; }")
        calc = DistanceCalculator(module)
        goal = first_ref(module, "main", lambda i: isinstance(i, ir.Intrinsic))
        entry = InstrRef("main", "entry", 0)
        d = calc.instruction_distance(entry, goal)
        assert d == goal.index

    def test_distance_through_branch_takes_shortest(self):
        module = compile_source(
            """
            int main() {
                int x = getchar();
                if (x) {
                    x = x + 1;
                    x = x + 2;
                    x = x + 3;
                }
                abort();
                return 0;
            }
            """
        )
        calc = DistanceCalculator(module)
        goal = first_ref(module, "main", lambda i: isinstance(i, ir.Intrinsic) and i.name == "abort")
        entry = InstrRef("main", "entry", 0)
        d_long = calc.instruction_distance(InstrRef("main", "entry", 0), goal)
        then_label = next(
            l for l in module.functions["main"].blocks if l.startswith("if.then")
        )
        d_then = calc.instruction_distance(InstrRef("main", then_label, 0), goal)
        assert d_long < INF
        assert d_then < INF

    def test_goal_inside_callee_reachable(self):
        module = compile_source(
            """
            void helper(int x) { abort(); }
            int main() { helper(1); return 0; }
            """
        )
        calc = DistanceCalculator(module)
        goal = first_ref(module, "helper", lambda i: isinstance(i, ir.Intrinsic))
        d = calc.instruction_distance(InstrRef("main", "entry", 0), goal)
        assert d < INF

    def test_unreachable_goal_is_infinite(self):
        module = compile_source(
            """
            void never(int x) { abort(); }
            int main() { return 0; }
            """
        )
        calc = DistanceCalculator(module)
        goal = first_ref(module, "never", lambda i: isinstance(i, ir.Intrinsic))
        d = calc.instruction_distance(InstrRef("main", "entry", 0), goal)
        assert d == INF

    def test_dist2ret_simple(self):
        module = compile_source("int main() { int x = 1; return x; }")
        calc = DistanceCalculator(module)
        d = calc.dist2ret(InstrRef("main", "entry", 0))
        assert 1 <= d < INF

    def test_call_cost_includes_callee(self):
        module = compile_source(
            """
            int long_helper(int x) {
                int s = 0;
                s = s + 1; s = s + 2; s = s + 3; s = s + 4;
                return s;
            }
            int short_path(int x) { return x; }
            int main() { return long_helper(1) + short_path(2); }
            """
        )
        calc = DistanceCalculator(module)
        assert calc.call_cost("long_helper") > calc.call_cost("short_path")

    def test_recursion_costs_fixed_weight(self):
        module = compile_source(
            """
            int rec(int n) {
                if (n == 0) { return 0; }
                return rec(n - 1);
            }
            int main() { return rec(5); }
            """
        )
        calc = DistanceCalculator(module)
        cost = calc.call_cost("rec")
        assert cost < INF

    def test_state_distance_through_return(self):
        # Goal is in main *after* a call to helper; a state inside helper
        # reaches it by returning (Algorithm 1 lines 3-6).
        module = compile_source(
            """
            int helper(int x) { return x + 1; }
            int main() {
                int y = helper(1);
                abort();
                return y;
            }
            """
        )
        calc = DistanceCalculator(module)
        goal = first_ref(module, "main", lambda i: isinstance(i, ir.Intrinsic))
        # Simulate a state inside helper whose caller resumes before abort.
        callsite = first_ref(module, "main", lambda i: isinstance(i, ir.Call))
        resume = InstrRef("main", callsite.block, callsite.index + 1)
        frames = [InstrRef("helper", "entry", 0), resume]
        d = calc.state_distance(frames, goal)
        assert d < INF
        # From inside helper without the stack, the goal is unreachable.
        assert calc.instruction_distance(frames[0], goal) == INF

    def test_state_distance_cached(self):
        module = compile_source(
            "int main() { abort(); return 0; }"
        )
        calc = DistanceCalculator(module)
        goal = first_ref(module, "main", lambda i: isinstance(i, ir.Intrinsic))
        frames = [InstrRef("main", "entry", 0)]
        first = calc.state_distance(frames, goal)
        second = calc.state_distance(frames, goal)
        assert first == second

    def test_listing1_distance_decreases_along_path(self):
        module = compile_source(LISTING1, "listing1")
        calc = DistanceCalculator(module)
        func = module.functions["critical_section"]
        locks = [
            ref for ref, instr in func.iter_instructions()
            if isinstance(instr, ir.MutexLock)
        ]
        goal = locks[-1]
        d_main = calc.state_distance([InstrRef("main", "entry", 0)], goal)
        d_cs = calc.state_distance([InstrRef("critical_section", "entry", 0)], goal)
        assert d_cs < d_main < INF


def _per_site_distance(calc, goal, ref):
    """Reference for ``instruction_distance``: the per-call-site loop that
    scans every call site of the block on each query."""
    table = calc._goal_table(goal)
    info = calc._info(ref.function, ref.block)
    best = INF
    if (ref.function, ref.block) == (goal.function, goal.block) and ref.index <= goal.index:
        best = float(info.suffix[ref.index] - info.suffix[goal.index])
    for index, _cost, targets in info.calls:
        if index < ref.index:
            continue
        prefix = float(info.suffix[ref.index] - info.suffix[index])
        for target in targets:
            entry_dist = table.block_dist.get(
                (target, calc.module.functions[target].entry)
                if target in calc.module.functions else ("", ""),
                INF,
            )
            best = min(best, prefix + 1 + entry_dist)
    block = calc.module.functions[ref.function].blocks[ref.block]
    if block.terminator is not None:
        tail = float(info.suffix[ref.index])
        for succ in block.terminator.successors():
            best = min(best, tail + table.block_dist.get((ref.function, succ), INF))
    return best


def _bpf64():
    from repro.bpf import BPFParams, generate

    return generate(BPFParams(num_inputs=8, num_branches=64,
                              num_input_branches=64, seed=3)).workload


def _block_equation(calc, table, key):
    """The right-hand side of the shortest-path equation ``block_dist`` must
    satisfy at ``key``, read straight off the CFG and the call graph."""
    func, label = key
    goal = table.goal
    functions = calc.module.functions
    suffix = calc._info(func, label).suffix
    best = INF
    if key == (goal.function, goal.block):
        best = float(suffix[0] - suffix[goal.index])
    for succ in functions[func].blocks[label].terminator.successors():
        best = min(best, suffix[0] + table.block_dist.get((func, succ), INF))
    for site in calc.callgraph.call_sites(func, label):
        for target in site.targets:
            if target in functions:
                entry = table.block_dist.get((target, functions[target].entry), INF)
                best = min(best, suffix[0] - suffix[site.ref.index] + 1 + entry)
    return best


def _module_and_goals(name):
    """A workload's module plus its final and intermediate goal refs."""
    from repro.core.goals import extract_goal
    from repro.workloads import get

    workload = _bpf64() if name == "bpf-64" else get(name)
    module = workload.compile()
    targets = extract_goal(module, workload.make_report()).targets
    goals = set(targets)
    for target in targets:
        for ig in find_intermediate_goals(module, target):
            goals.update(ig.alternatives)
    return module, sorted(goals)


DIFFERENTIAL_PROGRAMS = ["listing1", "ghttpd", "ls4", "bpf-64"]


class TestDistanceRows:
    """The goal table's per-block rows answer every position exactly as the
    per-call-site loop does, for final and intermediate goals."""

    @pytest.mark.parametrize("name", DIFFERENTIAL_PROGRAMS)
    def test_rows_match_per_site_loop(self, name):
        module, goals = _module_and_goals(name)
        calc = DistanceCalculator(module)
        after_last_call = before_goal = after_goal = 0
        for goal in goals:
            for func in module.functions.values():
                for label, block in func.blocks.items():
                    calls = calc._info(func.name, label).calls
                    in_goal_block = (func.name, label) == (goal.function, goal.block)
                    for index in range(len(block.instrs) + 1):
                        ref = InstrRef(func.name, label, index)
                        got = calc.instruction_distance(ref, goal)
                        assert got == _per_site_distance(calc, goal, ref), (ref, goal)
                        if calls and index > calls[-1][0]:
                            after_last_call += 1
                        if in_goal_block:
                            before_goal += index < goal.index
                            after_goal += index > goal.index
        assert after_last_call and before_goal and after_goal

    @pytest.mark.parametrize("name", DIFFERENTIAL_PROGRAMS)
    def test_block_dist_solves_shortest_path_equations(self, name):
        # The callee -> call-site index must relax exactly the descent edges
        # the call graph has: every block's table entry equals the minimum
        # over its goal, successor and call-descent terms.
        module, goals = _module_and_goals(name)
        calc = DistanceCalculator(module)
        for goal in goals:
            table = calc._goal_table(goal)
            for func in module.functions.values():
                for label in func.blocks:
                    key = (func.name, label)
                    assert table.block_dist.get(key, INF) == \
                        _block_equation(calc, table, key), (key, goal)


class TestStaticPassCount:
    def test_global_definitions_collected_once_per_module(self, monkeypatch):
        import repro.analysis.critical as critical
        import repro.core.synthesis as synthesis
        from repro import ReproSession
        from repro.analysis import reachdefs

        calls = []

        def counting(module):
            calls.append(module)
            return reachdefs.collect_global_definitions(module)

        for namespace in (critical, synthesis):
            monkeypatch.setattr(namespace, "collect_global_definitions", counting)
        workload = _bpf64()
        module = workload.compile()
        result = ReproSession(module, workers=1).synthesize(workload.make_report())
        assert result.found
        assert calls == [module]
