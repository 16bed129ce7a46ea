"""Branch probes that start from a path's stored interval fixpoint.

``Solver.check(component, path)`` folds the path's constraints into the
intervals ``path.var_index`` stores and propagates only the probe from
there.  Its answer and
model must equal a from-scratch solve of the same component, which starts
from the declared ranges.  Seeded generators build path-shaped constraint
sequences, and every branch is probed both ways on both routes.
"""

from __future__ import annotations

import random

import pytest

from repro.distrib.snapshot import restore_states, snapshot_states
from repro.solver import Result, Solver, binop, make_var, negate
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
