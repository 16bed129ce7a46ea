"""The deadlock policy's visited-state set.

``DeadlockSchedulePolicy`` ends a state as a ``duplicate`` when the search
already reached an identical one at the same fork point.  That is sound
only if the key is exact and complete, and cheap only if its components
are cached on the copy-on-write objects states share.  These tests pin
the three things that can go wrong: a slot silently left out of the key,
a cached component gone stale, and a verdict that moves.
"""

from __future__ import annotations

import pytest

from repro import ReproSession
from repro.concurrency import DeadlockSchedulePolicy
from repro.core import ESDConfig
from repro.core.synthesis import esd_synthesize
from repro.corpus.mutations import enumerate_mutations
from repro.corpus.runner import default_programs, run_mutant
from repro.lang import compile_source
from repro.obs.explain import explain_flight, render_explain
from repro.repair.validate import validation_config
from repro.solver.expr import Var
from repro.symbex import Executor
from repro.symbex.memory import MemObject, Pointer
from repro.symbex.state import (
    KEY_IGNORED,
    EnvState,
    ExecutionState,
    Frame,
    MutexRec,
    PathCondition,
    ThreadState,
)
from repro.workloads import get

NESTED = """
mutex M;
int g = 0;

int inner(int x) {
    lock(M);
    g = g + x;
    unlock(M);
    return x;
}

void worker(int a) {
    inner(a);
    inner(a + 1);
}

int main() {
    int t = spawn(worker, 1);
    inner(2);
    join(t);
    return g;
}
"""


def clear_keys(state: ExecutionState) -> None:
    """Forget every cached key component reachable from ``state``."""
    state.address_space.key = None
    for obj in state.address_space.objects.values():
        obj.key = None
    for thread in state.threads.values():
        thread.key = None
        for frame in thread.frames:
            frame.key = None
    state.path.key = None


def fresh_key(state: ExecutionState) -> tuple:
    clear_keys(state)
    return state.state_key()


def nested_state(executor=None) -> ExecutionState:
    """A state with two threads: the running one two frames deep inside
    ``inner`` holding M, and main blocked on its join."""
    executor = executor or Executor(compile_source(NESTED, "nested"))
    state = executor.initial_state()
    while not (len(state.threads) == 2 and state.mutexes
               and len(state.thread.frames) == 2
               and state.mutexes[next(iter(state.mutexes))].owner
               == state.current_tid and state.current_tid != 0):
        (state,) = executor.step(state)
    return state


def _main(state: ExecutionState) -> ThreadState:
    return state.threads[0]


def _var(name: str) -> Var:
    return Var(name, 0, 1)


def _first_obj(state: ExecutionState) -> MemObject:
    return next(iter(state.address_space.objects.values()))


def _mutex(state: ExecutionState) -> MutexRec:
    return next(iter(state.mutexes.values()))


# One perturbation per keyed slot: each must change the state's key.
PERTURB = {
    ExecutionState: {
        "address_space": lambda s: s.new_object(1, "heap"),
        "threads": lambda s: s.threads.pop(0),
        "current_tid": lambda s: setattr(s, "current_tid", 0),
        "next_tid": lambda s: setattr(s, "next_tid", s.next_tid + 1),
        "next_obj": lambda s: setattr(s, "next_obj", s.next_obj + 1),
        "path": lambda s: s.add_constraint(_var("p")),
        "mutexes": lambda s: s.mutexes.__setitem__((999, 0), MutexRec()),
        "condvars": lambda s: s.condvars.__setitem__((999, 0), [0]),
        "_env": lambda s: s.env.stdin_vars.append(_var("in")),
        "meta": lambda s: s.meta.__setitem__("flag", 1),
    },
    ThreadState: {
        "tid": lambda t: setattr(t, "tid", 77),
        "frames": lambda t: t.frames.append(Frame("inner")),
        "status": lambda t: setattr(t, "status", "exited"),
        "blocked_on": lambda t: setattr(t, "blocked_on", ("mutex", (1, 0))),
        "reacquire_mutex": lambda t: setattr(t, "reacquire_mutex", (1, 0)),
        "replaying": lambda t: setattr(t, "replaying", not t.replaying),
    },
    Frame: {
        "function": lambda f: setattr(f, "function", "elsewhere"),
        "block": lambda f: setattr(f, "block", "elsewhere"),
        "index": lambda f: setattr(f, "index", f.index + 1),
        "regs": lambda f: f.regs.__setitem__("%new", 1),
        "ret_dst": lambda f: setattr(f, "ret_dst", "%elsewhere"),
        "allocas": lambda f: f.allocas.append(999),
    },
    MemObject: {
        "obj_id": lambda o: setattr(o, "obj_id", 999),
        "name": lambda o: setattr(o, "name", "elsewhere"),
        "kind": lambda o: setattr(o, "kind", "elsewhere"),
        "cells": lambda o: o.cells.append(7),
        "freed": lambda o: setattr(o, "freed", not o.freed),
    },
    MutexRec: {
        "owner": lambda m: setattr(m, "owner", 99),
        "waiters": lambda m: m.waiters.append(99),
    },
    EnvState: {
        "stdin_vars": lambda e: e.stdin_vars.append(_var("in")),
        "env_buffers": lambda e: e.env_buffers.__setitem__("X", Pointer(1)),
        "arg_buffers": lambda e: e.arg_buffers.__setitem__(0, Pointer(1)),
        "argc_var": lambda e: setattr(e, "argc_var", _var("argc")),
        "buffers": lambda e: e.buffers.__setitem__("b", Pointer(1)),
    },
    PathCondition: {
        "constraints": lambda p: p.constraints.append(_var("c")),
    },
}

# Where each class's perturbation applies in a nested_state().
TARGETS = {
    ExecutionState: [("state", lambda s: s)],
    ThreadState: [("running thread", lambda s: s.thread),
                  ("waiting thread", _main)],
    Frame: [("running top frame", lambda s: s.thread.frames[-1]),
            ("running lower frame", lambda s: s.thread.frames[0]),
            ("waiting thread's frame", lambda s: _main(s).frames[-1])],
    MemObject: [("memory object", _first_obj)],
    MutexRec: [("mutex", _mutex)],
    EnvState: [("environment", lambda s: s.env)],
    PathCondition: [("path condition", lambda s: s.path)],
}


def _slots(cls: type) -> set[str]:
    return {slot for klass in cls.__mro__
            for slot in getattr(klass, "__slots__", ())}


@pytest.mark.parametrize("cls", list(KEY_IGNORED), ids=lambda c: c.__name__)
def test_every_slot_is_keyed_or_ignored(cls):
    keyed = set(PERTURB[cls])
    ignored = KEY_IGNORED[cls]
    assert not keyed & ignored
    assert _slots(cls) == keyed | ignored, (
        "a new slot must join the state key or KEY_IGNORED")


@pytest.mark.parametrize(
    "cls,slot",
    [(cls, slot) for cls in PERTURB for slot in PERTURB[cls]],
    ids=lambda v: v.__name__ if isinstance(v, type) else v,
)
def test_keyed_slot_changes_the_key(cls, slot):
    for where, target in TARGETS[cls]:
        state = nested_state()
        before = state.state_key()
        PERTURB[cls][slot](target(state))
        assert fresh_key(state) != before, f"{slot} of the {where}"


def test_ignored_slots_leave_the_key_alone():
    state = nested_state()
    before = state.state_key()
    state.steps += 5
    state.schedule_distance = 0.0
    state.preemptions += 1
    state.log_output("noise")
    state.thread.instr_count += 3
    state.last_model = {"x": 1}
    assert fresh_key(state) == before


def test_a_returned_to_frame_drops_its_cached_key():
    # The worker's frame is cached while it sits below inner's; the return
    # changes it in place, and the second call pushes it below again.
    executor = Executor(compile_source(NESTED, "nested"))
    state = nested_state(executor)
    state.state_key()
    worker = state.thread
    while len(worker.frames) == 2:
        (state,) = executor.step(state)
    while len(state.thread.frames) < 2:
        (state,) = executor.step(state)
    assert state.thread is worker
    assert state.state_key() == fresh_key(state)


def test_equal_states_have_equal_keys():
    state = nested_state()
    child = state.fork()
    assert child.state_key() == state.state_key()
    assert hash(child.state_key()) == hash(state.state_key())


@pytest.fixture
def checked_keys(monkeypatch):
    """At every visited-set check, compare the key from the caches with
    one computed from scratch."""
    checks = []
    revisited = DeadlockSchedulePolicy._revisited

    def checking(self, executor, state, point, others):
        if executor.policy is self and others:
            cached = state.state_key()
            assert cached == fresh_key(state), (
                f"stale cached key at {point} in state {state.sid}")
            checks.append(point)
        return revisited(self, executor, state, point, others)

    monkeypatch.setattr(DeadlockSchedulePolicy, "_revisited", checking)
    return checks


@pytest.mark.parametrize("name", ["hawknl", "minidb", "pyrlock", "listing1"])
def test_cached_keys_are_never_stale(name, checked_keys):
    workload = get(name)
    module = workload.compile()
    report = workload.make_report()
    for seed in range(30):
        session = ReproSession(module, config=ESDConfig(seed=seed), workers=1)
        assert session.synthesize(report).found, seed
    assert checked_keys


@pytest.mark.parametrize("name", ["pyrlock", "minidb", "hawknl", "listing1"])
def test_buggy_programs_are_still_found(name):
    workload = get(name)
    session = ReproSession(workload.compile(), workers=1)
    assert session.synthesize(workload.make_report()).found


def test_patched_pyrlock_validation_exhausts_in_few_instructions():
    workload = get("pyrlock")
    report = workload.make_report()
    session = ReproSession(workload.compile(), workers=1)
    result = session.repair(report)
    candidate = result.patch.candidate
    assert (candidate.kind, candidate.function, candidate.line) == (
        "unlock-hoist", "rl_enter", 14)
    assert result.patch.validation.resynthesis_reason == "exhausted"

    executors = []
    synthesis = esd_synthesize(result.patch.module, report,
                               validation_config(session.config),
                               executor_sink=executors.append)
    assert synthesis.reason == "exhausted"
    assert synthesis.instructions <= 10_000
    assert executors[0].stats.states_merged > 0


def test_lock_swap_mutants_keep_their_verdicts():
    # Verdicts of the stateless search, recorded before the visited set.
    expected = {
        "rl_enter:if.end2:0": ("manifested", True, True,
                               {"kind": "unlock-hoist",
                                "function": "rl_enter", "line": 20}),
    }
    seen = {}
    for program in default_programs():
        base = program.compile()
        for mutation in enumerate_mutations(base):
            if mutation.kind != "lock-swap":
                continue
            outcome = run_mutant(program, base, mutation, "m",
                                 with_repair=True)
            seen[str(mutation.ref)] = (outcome.status, outcome.reproduced,
                                       outcome.repaired, outcome.patch)
    assert seen == expected


def test_duplicates_are_reported_apart_from_infeasible_paths():
    workload = get("minidb")
    session = ReproSession(workload.compile(), workers=1, flight=True)
    session.synthesize(workload.make_report())
    merged = session.program.exec_totals.states_merged
    assert merged > 0

    report = explain_flight(session.flight_document())
    assert report["states"]["ends"]["duplicate"] == merged
    assert report["totals"]["states_merged"] == merged
    assert f"merged: {merged}" in render_explain(report)
    metrics = session.metrics()["metrics"]
    assert metrics["esd_exec_states_merged_total"]["value"] == merged


def test_chained_race_policy_keeps_the_search_stateless():
    workload = get("listing1")
    session = ReproSession(workload.compile(), workers=1,
                           config=ESDConfig(with_race_detection=True))
    assert session.synthesize(workload.make_report()).found
    assert session.program.exec_totals.states_merged == 0

