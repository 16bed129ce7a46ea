"""Snapshot layer: ExecutionState serialization round-trips faithfully.

The satellite requirement: serialize/deserialize mid-exploration states --
symbolic memory, mutex records, multi-thread states -- and continued
exploration from a restored frontier must be identical to the
never-snapshotted run.
"""

import json

import pytest

from repro.core import ESDConfig, build_search_setup, execution_file_from_state
from repro.distrib.snapshot import (
    SNAPSHOT_FORMAT,
    SnapshotError,
    restore_states,
    snapshot_states,
    verify_roundtrip,
)
from repro.search import SearchBudget, explore, explore_frontier
from repro.solver.expr import Var
from repro.workloads import get


def _mid_exploration_frontier(name: str, instructions: int = 800,
                              config: ESDConfig = None):
    """Run a real synthesis partway and hand back its live frontier."""
    workload = get(name)
    module = workload.compile()
    report = workload.make_report()
    setup = build_search_setup(module, report, config or ESDConfig())
    budget = SearchBudget(max_instructions=instructions, max_seconds=60.0)
    outcome = explore(
        setup.executor, setup.searcher, setup.executor.initial_state(),
        setup.goal.matches, budget,
    )
    assert outcome.reason == "budget", "partial run must stop on budget"
    states = setup.searcher.drain()
    assert states, "partial run must leave a frontier"
    return states


class TestRoundTripFidelity:
    def test_single_threaded_symbolic_states(self):
        # ghttpd frontiers carry symbolic buffers, path constraints, and a
        # last-model witness.
        for state in _mid_exploration_frontier("ghttpd"):
            verify_roundtrip(state)

    def test_multi_threaded_states_with_mutexes(self):
        # minidb/hawknl frontiers carry several threads, held/contended
        # mutex records, sync logs, segments, and deadlock-policy snapshot
        # maps (states nested inside states).
        for name in ("minidb", "hawknl"):
            states = _mid_exploration_frontier(name)
            assert any(len(s.threads) > 1 for s in states)
            assert any(s.mutexes for s in states)
            for state in states:
                verify_roundtrip(state)

    def test_blocked_threads_and_replay_flags_survive(self):
        states = _mid_exploration_frontier("hawknl", instructions=1000)
        blocked = [
            s for s in states
            for t in s.threads.values() if t.status == "blocked"
        ]
        assert blocked, "expected some frontier states with blocked threads"
        for state in blocked:
            restored = restore_states(snapshot_states([state]))[0]
            for tid, thread in state.threads.items():
                twin = restored.threads[tid]
                assert twin.status == thread.status
                assert twin.blocked_on == thread.blocked_on
                assert twin.replaying == thread.replaying

    def test_race_policy_metadata_survives(self):
        # The race scheduler stores a dict of per-cell lockset records
        # (frozen dataclasses) in state.meta; a race-bug synthesis through
        # the pool must be able to snapshot it.
        config = ESDConfig(with_race_detection=True)
        states = _mid_exploration_frontier("hawknl", instructions=1500,
                                           config=config)
        with_table = [s for s in states if isinstance(s.meta.get("eraser"), dict)]
        assert with_table, "race detection must populate the lockset table"
        for state in with_table:
            verify_roundtrip(state)
            restored = restore_states(snapshot_states([state]))[0]
            assert restored.meta["eraser"] == state.meta["eraser"]

    def test_payload_is_pure_json(self):
        states = _mid_exploration_frontier("minidb")
        payload = snapshot_states(states)
        blob = json.dumps(payload)  # raises if anything non-JSON leaked in
        reloaded = json.loads(blob)
        assert reloaded["format"] == SNAPSHOT_FORMAT
        restored = restore_states(reloaded)
        assert len(restored) == len(states)
        # Re-encoding the restored batch reproduces the document exactly.
        assert snapshot_states(restored) == payload

    def test_restored_siblings_share_variables(self):
        states = _mid_exploration_frontier("hawknl", instructions=1000)
        assert len(states) >= 2
        restored = restore_states(snapshot_states(states))
        vars_by_name = {}
        for state in restored:
            for constraint in state.constraints:
                for var in constraint.variables():
                    vars_by_name.setdefault(var.name, set()).add(id(var))
        shared = [ids for ids in vars_by_name.values() if len(ids) > 0]
        assert shared
        # One Var object per (name, domain) across the whole batch.
        assert all(len(ids) == 1 for ids in vars_by_name.values())


class TestContinuedExploration:
    def test_identical_continuation_vs_uninterrupted(self):
        """Snapshot mid-search, restore into a *fresh* stack, continue: the
        outcome must match the never-snapshotted run exactly.

        Uses the deterministic BFS strategy so pick order is a pure
        function of the frontier (no RNG to carry across the snapshot).
        """
        config = ESDConfig(strategy="bfs")
        workload = get("minidb")
        module = workload.compile()
        report = workload.make_report()

        # Uninterrupted reference run.
        ref = build_search_setup(module, report, config)
        ref_outcome = explore(
            ref.executor, ref.searcher, ref.executor.initial_state(),
            ref.goal.matches, SearchBudget(max_seconds=120.0),
        )
        assert ref_outcome.reason == "goal"

        # Interrupted run: stop partway, snapshot, restore, continue.
        part1 = build_search_setup(module, report, config)
        cut = 1024
        first = explore(
            part1.executor, part1.searcher, part1.executor.initial_state(),
            part1.goal.matches,
            SearchBudget(max_instructions=cut, max_seconds=120.0),
        )
        assert first.reason == "budget"
        payload = snapshot_states(part1.searcher.drain())

        part2 = build_search_setup(module, report, config)
        second = explore_frontier(
            part2.executor, part2.searcher, restore_states(payload),
            part2.goal.matches, SearchBudget(max_seconds=120.0),
            count_frontier=False,
        )
        assert second.reason == "goal"

        # Same goal, same manifestation...
        assert second.goal_state.bug.ref == ref_outcome.goal_state.bug.ref
        # ...same remaining work (the continuation neither redid nor skipped
        # exploration)...
        assert (first.stats.instructions + second.stats.instructions
                == ref_outcome.stats.instructions)
        # ...and the same synthesized artifact.
        ref_file = execution_file_from_state(
            module.name, ref_outcome.goal_state, ref.executor.solver
        )
        cont_file = execution_file_from_state(
            module.name, second.goal_state, part2.executor.solver
        )
        assert cont_file.fingerprint() == ref_file.fingerprint()


class TestFormatContract:
    def test_unknown_format_rejected(self):
        with pytest.raises(SnapshotError, match="unsupported snapshot format"):
            restore_states({"format": "bogus-v9", "exprs": [], "states": []})

    def test_unserializable_meta_is_an_explicit_error(self):
        states = _mid_exploration_frontier("ghttpd", instructions=200)
        states[0].meta["rogue"] = object()
        with pytest.raises(SnapshotError, match="meta value"):
            snapshot_states([states[0]])

    def test_variables_keep_domains(self):
        states = _mid_exploration_frontier("ghttpd")
        restored = restore_states(snapshot_states(states))
        for state in restored:
            for constraint in state.constraints:
                for var in constraint.variables():
                    assert isinstance(var, Var)
                    assert (var.lo, var.hi) == (0, 255)
