"""Branch probes that start from a path's stored interval fixpoint.

``Solver.check(component, path)`` folds the path's constraints into the
intervals ``path.var_index`` stores and propagates only the probe from
there.  Its answer and
model must equal a from-scratch solve of the same component, which starts
from the declared ranges.  Seeded generators build path-shaped constraint
sequences, and every branch is probed both ways on both routes.
``Solver.decide`` answers a one-variable branch on the stored fixpoint
without a probe; its decisions must match both probes of the path route.
"""

from __future__ import annotations

import random

import pytest

from repro.distrib.snapshot import restore_states, snapshot_states
from repro.lang import compile_source
from repro.solver import (
    Result, Solver, binop, evaluate, holds_under, make_var, negate,
)
from repro.symbex import Executor
from repro.symbex.state import ExecutionState

I32_MIN, I32_MAX = -(2**31), 2**31 - 1

# Small domains and 32-bit corners.
DOMAINS = [
    (0, 3), (-5, 5), (0, 255),
    (I32_MIN, I32_MAX), (I32_MAX - 7, I32_MAX), (I32_MIN, I32_MIN + 7),
]
# Both routes use the same small node budget: UNKNOWN must agree too.
MAX_NODES = 300
SEEDS = range(40)
STEPS = 8


def _constant(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([0, 1, -1, lo, hi, lo + 1, hi - 1, rng.randint(lo, hi)])


def _term(rng: random.Random, variables):
    var = rng.choice(variables)
    kind = rng.randrange(6)
    if kind == 0:
        return var
    if kind == 1:
        return binop("+", var, rng.choice([1, 2, 7, -3, 1 << 20]))
    if kind == 2:
        return binop("-", var, rng.choice([1, 5, -2, 1 << 30]))
    if kind == 3:
        return binop("*", var, rng.choice([2, 3, -1, -4, 65536]))
    other = rng.choice(variables)
    return binop("+" if kind == 4 else "-", var, other)


def _comparison(rng: random.Random, variables):
    op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
    lhs = _term(rng, variables)
    if rng.random() < 0.7:
        var = rng.choice(variables)
        rhs = _constant(rng, var.lo, var.hi)
    else:
        rhs = _term(rng, variables)
    return binop(op, lhs, rhs)


def _condition(rng: random.Random, variables):
    roll = rng.random()
    if roll < 0.6:
        return _comparison(rng, variables)
    if roll < 0.75:
        return negate(_comparison(rng, variables))
    op = "&&" if roll < 0.88 else "||"
    return binop(op, _comparison(rng, variables), _comparison(rng, variables))


def _variables(rng: random.Random, seed: int):
    count = rng.randint(1, 3)
    return [make_var(f"v{seed}_{i}", *rng.choice(DOMAINS)) for i in range(count)]


def _probe(state: ExecutionState, condition):
    """Check ``condition`` on ``state`` on both routes; returns the path
    route's solution after asserting it equals the from-scratch one."""
    component = state.related_constraints(condition) + [condition]
    got = Solver(max_nodes=MAX_NODES).check(component, state.path)
    want = Solver(max_nodes=MAX_NODES).check(component)
    assert got.result is want.result, (component, got, want)
    assert got.model == want.model, (component, got, want)
    return got


def _branch(rng: random.Random, state: ExecutionState, variables) -> None:
    """Probe one generated branch both ways, then follow a feasible side
    (none when an UNKNOWN earlier let an infeasible path through)."""
    condition = _condition(rng, variables)
    if isinstance(condition, int):
        return
    sides = [condition, negate(condition)]
    feasible = [side for side in sides if _probe(state, side).maybe_sat]
    if feasible:
        state.add_constraint(rng.choice(feasible))


@pytest.mark.parametrize("seed", SEEDS)
def test_path_route_matches_a_from_scratch_solve(seed):
    rng = random.Random(seed)
    variables = _variables(rng, seed)
    states = [ExecutionState()]
    for _ in range(2 * STEPS):
        state = rng.choice(states)
        if rng.random() < 0.3:
            states.append(state.fork())  # both sides now share one path
        _branch(rng, state, variables)


def test_probes_fold_the_path_into_its_stored_intervals():
    x = make_var("fold_x", 0, 255)
    state = ExecutionState()
    state.add_constraint(binop(">", x, 10))
    state.add_constraint(binop("<", x, 20))
    assert state.path.var_index["fold_x"][1:] == (None, 0)
    assert _probe(state, binop("==", x, 15)).is_sat
    _, interval, folded = state.path.var_index["fold_x"]
    assert (interval.lo, interval.hi, folded) == (11, 19, 2)
    assert _probe(state, binop("==", x, 25)).result is Result.UNSAT


def test_forks_do_not_see_each_others_intervals():
    x = make_var("fork_x", 0, 255)
    parent = ExecutionState()
    parent.add_constraint(binop(">", x, 10))
    assert _probe(parent, binop("!=", x, 50)).is_sat  # folds x > 10
    child = parent.fork()
    # The first writer copies the path; the second changes the shared
    # original in place.  Both start from the fold of x > 10.
    parent.add_constraint(binop("<", x, 100))
    child.add_constraint(binop(">=", x, 100))
    assert _probe(child, binop("==", x, 150)).is_sat
    assert _probe(parent, binop("==", x, 150)).result is Result.UNSAT
    assert _probe(parent, binop("==", x, 50)).is_sat
    assert _probe(child, binop("==", x, 50)).result is Result.UNSAT
    parent_x = parent.path.var_index["fork_x"][1]
    child_x = child.path.var_index["fork_x"][1]
    assert (parent_x.lo, parent_x.hi) == (11, 99)
    assert (child_x.lo, child_x.hi) == (100, 255)


@pytest.mark.parametrize("seed", range(8))
def test_a_restored_state_gives_the_same_answers(seed):
    rng = random.Random(1000 + seed)
    variables = _variables(rng, 1000 + seed)
    state = ExecutionState()
    for _ in range(STEPS):
        _branch(rng, state, variables)
    (restored,) = restore_states(snapshot_states([state]))
    assert all(interval is None
               for _, interval, _ in restored.path.var_index.values())
    # The solver names variables by name, so one condition probes both.
    for _ in range(STEPS):
        condition = _condition(rng, variables)
        if isinstance(condition, int):
            continue
        for side in (condition, negate(condition)):
            live = _probe(state, side)
            again = _probe(restored, side)
            assert (live.result, live.model) == (again.result, again.model)
    # Where the restored path has folded again, the fixpoints agree.
    for name, (_, interval, folded) in restored.path.var_index.items():
        if interval is not None:
            assert state.path.var_index[name][1:] == (interval, folded)


# -- branches decided on the stored interval (Solver.decide) ------------------

COMPARISONS = ["<", "<=", ">", ">=", "==", "!="]


def _single_variable_condition(rng: random.Random, var):
    """A branch over ``var`` alone: a comparison with a corner or random
    constant, ``var + c == d``, a hole at an endpoint, or a negation."""
    roll = rng.randrange(5)
    constant = _constant(rng, var.lo, var.hi)
    if roll == 0:
        return binop(rng.choice(COMPARISONS), var, constant)
    if roll == 1:
        shifted = binop("+", var, rng.choice([1, 7, -3, 1 << 20, I32_MAX]))
        return binop("==", shifted, rng.choice([constant, I32_MAX, I32_MIN]))
    if roll == 2:
        hole = rng.choice([var.lo, var.hi, var.lo + 1, var.hi - 1])
        return binop("!=", var, hole)
    if roll == 3:
        return negate(binop(rng.choice(COMPARISONS), var, constant))
    return binop(rng.choice(COMPARISONS), var, rng.choice([I32_MIN, I32_MAX, 0]))


def _decide_and_probe(rng: random.Random, state: ExecutionState, var):
    """Decide one generated branch, probe both of its sides through
    ``Solver.check(related + [probe], path)``, and follow a feasible side.
    Returns ``(decision, same-side answer, opposite answer, witness
    takes the decided side)`` for a decided branch, else ``None``."""
    condition = _single_variable_condition(rng, var)
    if isinstance(condition, int):
        return None
    decision = Solver().decide(condition, state.path)
    sides = [condition, negate(condition)]
    related = state.related_constraints(condition)
    answers = [Solver(max_nodes=MAX_NODES).check(related + [side], state.path)
               for side in sides]
    witness = state.last_model
    feasible = [(side, answer) for side, answer in zip(sides, answers)
                if answer.maybe_sat]
    if feasible:
        side, answer = rng.choice(feasible)
        state.add_constraint(side)
        if answer.is_sat:
            state.last_model = dict(answer.model)
    if decision is None:
        return None
    same, opposite = answers if decision else answers[::-1]
    taken = sides[0] if decision else sides[1]
    on_side = witness is not None and holds_under([taken], witness)
    return decision, same, opposite, on_side


def test_decisions_match_both_probes_on_the_path_route():
    decided = with_witness = 0
    for seed in range(120):
        rng = random.Random(5000 + seed)
        var = make_var(f"d{seed}", *rng.choice(DOMAINS))
        states = [ExecutionState()]
        for _ in range(3 * STEPS):
            state = rng.choice(states)
            if rng.random() < 0.2:
                states.append(state.fork())  # both sides share one path
            outcome = _decide_and_probe(rng, state, var)
            if outcome is None:
                continue
            decision, same, opposite, on_side = outcome
            decided += 1
            # The solver refutes the other side at its first step.
            assert opposite.result is Result.UNSAT, (seed, decision)
            # With a witness on the decided side (the executor's guard),
            # that side is satisfiable too.
            if on_side:
                with_witness += 1
                assert same.is_sat, (seed, decision)
    assert with_witness > 100 and decided >= with_witness


def test_decide_needs_a_folded_interval_over_one_variable():
    x = make_var("dec_x", 0, 255)
    y = make_var("dec_y", 0, 255)
    state = ExecutionState()
    state.add_constraint(binop(">", x, 10))
    solver = Solver()
    assert solver.decide(binop(">", x, 5), state.path) is None  # not folded
    assert _probe(state, binop("<", x, 100)).is_sat  # a miss folds x > 10
    assert solver.decide(binop(">", x, 5), state.path) is True
    assert solver.decide(binop("<", x, 11), state.path) is False
    assert solver.decide(binop("==", x, 50), state.path) is None
    assert solver.decide(binop("<", binop("+", x, y), 5), state.path) is None
    # A pending constraint over x alone is folded in and stored.
    state.add_constraint(binop("!=", x, 11))
    assert solver.decide(binop(">", x, 11), state.path) is True
    _, interval, folded = state.path.var_index["dec_x"]
    assert (interval.lo, interval.hi, folded) == (12, 255, 2)
    # One that also mentions y is left to the probe's fold.
    state.add_constraint(binop("<", x, y))
    assert solver.decide(binop(">", x, 11), state.path) is None
    assert state.path.var_index["dec_x"][2] == 2


def test_wrapping_probe_gets_the_same_answer_on_both_routes():
    # Under wrap32, y = 2**30 makes y*2 negative, yet the solver's
    # saturating intervals refute ``y*2 < 0``.  Both routes share that
    # arithmetic, so a wrap-sound fix moves them together.
    y = make_var("wrap_y", 0, I32_MAX)
    probe = binop("<", binop("*", y, 2), 0)
    assert evaluate(probe, {"wrap_y": 2**30}) == 1
    state = ExecutionState()
    state.add_constraint(binop(">=", y, 0))
    assert _probe(state, binop("!=", y, 5)).is_sat  # folds y >= 0
    related = state.related_constraints(probe)
    assert Solver().check(related + [probe], state.path).result is Result.UNSAT
    assert Solver().check(related + [probe]).result is Result.UNSAT
    assert Solver().decide(probe, state.path) is False


def _final_states(executor):
    pending, done = [executor.initial_state()], []
    while pending:
        for succ in executor.step(pending.pop()):
            (done if succ.terminated else pending).append(succ)
    return done


def test_a_decided_branch_leaves_the_state_the_probes_leave():
    source = """
    int main() {
        int c = getchar();
        if (c > 100) {
            if (c > 50) {
                if (c < 20) { print_int(1); }
                if (c != 99) { print_int(2); }
            }
        } else {
            if (c >= 40) { print_int(3); }
            if (c > 100) { print_int(4); }
        }
        return 0;
    }
    """
    module = compile_source(source, "decide")
    decided = Executor(module)
    probed = Executor(module)
    probed.solver.decide = lambda cond, path: None
    got, want = _final_states(decided), _final_states(probed)
    assert decided.solver.stats.interval_answers > 0
    assert probed.solver.stats.interval_answers == 0
    assert [(s.status, s.output, [repr(c) for c in s.constraints], s.last_model)
            for s in got] == [
        (s.status, s.output, [repr(c) for c in s.constraints], s.last_model)
        for s in want]
    assert decided.solver.stats.queries < probed.solver.stats.queries
