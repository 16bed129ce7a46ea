"""End-to-end pipeline tests: buggy run -> coredump -> esd_synthesize ->
deterministic playback.  This is the paper's full workflow (sections 2-5)."""

import pytest

from repro import ir
from repro.baselines import Directive, ForcedSchedulePolicy
from repro.coredump import BugReport, coredump_from_state
from repro.core import (
    ESDConfig,
    TriageDatabase,
    esd_synthesize,
    extract_goal,
)
from repro.lang import compile_source
from repro.playback import play_back
from repro.search import SearchBudget
from repro.symbex import BugKind, ConcreteEnv, Executor, RecordedInputs


def lock_refs(module, function):
    return [
        ref for ref, instr in module.functions[function].iter_instructions()
        if isinstance(instr, ir.MutexLock)
    ]


def unlock_refs(module, function):
    return [
        ref for ref, instr in module.functions[function].iter_instructions()
        if isinstance(instr, ir.MutexUnlock)
    ]


ABBA = """
mutex A;
mutex B;

void worker(int unused) {
    lock(B);
    lock(A);
    unlock(A);
    unlock(B);
}

int main() {
    int t = spawn(worker, 0);
    lock(A);
    lock(B);
    unlock(B);
    unlock(A);
    join(t);
    return 0;
}
"""

# ABBA, but the worker takes its locks only if it reads ``flag`` before
# main sets it: the deadlock needs a switch right after the spawn.
ABBA_AFTER_SPAWN = """
int flag = 0;
mutex A;
mutex B;

void worker(int unused) {
    if (flag == 0) {
        lock(B);
        lock(A);
        unlock(A);
        unlock(B);
    }
}

int main() {
    int t = spawn(worker, 0);
    flag = 1;
    lock(A);
    lock(B);
    unlock(B);
    unlock(A);
    join(t);
    return 0;
}
"""

CRASH = """
int parse_mode(int *s) {
    if (s[0] == 'x' && s[1] == 'y') {
        int *p = 0;
        return *p;
    }
    return 0;
}

int main() {
    int *m = getenv("MODE");
    return parse_mode(m);
}
"""


def make_abba_report():
    """Manifest the ABBA deadlock once with a scripted schedule and capture
    the coredump (the 'end-user run' ESD never observes)."""
    module = compile_source(ABBA, "abba")
    main_locks = lock_refs(module, "main")
    policy = ForcedSchedulePolicy([Directive(main_locks[0], 0, 1)])
    executor = Executor(module, env=ConcreteEnv(RecordedInputs()), policy=policy)
    state = executor.run_to_completion(executor.initial_state())
    assert state.status == "bug"
    assert state.bug.kind is BugKind.DEADLOCK
    dump = coredump_from_state(module, state)
    return module, BugReport(dump, "deadlock")


def make_abba_after_spawn_report():
    """The worker runs right after the spawn and again after taking B."""
    module = compile_source(ABBA_AFTER_SPAWN, "abba_after_spawn")
    spawn = next(
        ref for ref, instr in module.functions["main"].iter_instructions()
        if isinstance(instr, ir.ThreadCreate)
    )
    # A create directive names the instruction after the spawn.
    after_spawn = ir.InstrRef(spawn.function, spawn.block, spawn.index + 1)
    policy = ForcedSchedulePolicy([
        Directive(after_spawn, 0, 1),
        Directive(lock_refs(module, "worker")[0], 1, 0),
    ])
    executor = Executor(module, env=ConcreteEnv(RecordedInputs()), policy=policy)
    state = executor.run_to_completion(executor.initial_state())
    assert state.status == "bug"
    assert state.bug.kind is BugKind.DEADLOCK
    dump = coredump_from_state(module, state)
    return module, BugReport(dump, "deadlock")


def make_crash_report():
    module = compile_source(CRASH, "crash")
    executor = Executor(
        module, env=ConcreteEnv(RecordedInputs(env={"MODE": "xy"}))
    )
    state = executor.run_to_completion(executor.initial_state())
    assert state.status == "bug"
    assert state.bug.kind is BugKind.NULL_DEREF
    dump = coredump_from_state(module, state)
    return module, BugReport(dump, "crash")


@pytest.fixture(scope="module")
def abba_synthesis():
    module, report = make_abba_report()
    result = esd_synthesize(
        module, report,
        ESDConfig(budget=SearchBudget(max_seconds=60)),
    )
    return module, report, result


@pytest.fixture(scope="module")
def crash_synthesis():
    module, report = make_crash_report()
    result = esd_synthesize(
        module, report,
        ESDConfig(budget=SearchBudget(max_seconds=60)),
    )
    return module, report, result


class TestCoredump:
    def test_deadlock_dump_has_blocked_threads(self):
        _, report = make_abba_report()
        dump = report.coredump
        assert dump.manifestation == "hang"
        blocked = dump.blocked_threads()
        assert len(blocked) >= 2
        assert all(t.blocked_kind == "mutex" for t in blocked[:2])

    def test_crash_dump_records_fault(self):
        _, report = make_crash_report()
        dump = report.coredump
        assert dump.manifestation == "crash"
        assert dump.bug_kind is BugKind.NULL_DEREF
        assert dump.fault_ref is not None
        assert dump.fault_ref.function == "parse_mode"

    def test_dump_round_trips_through_dict(self):
        _, report = make_abba_report()
        data = report.to_dict()
        restored = BugReport.from_dict(data)
        assert restored.coredump.to_dict() == report.coredump.to_dict()

    def test_goal_extraction_deadlock(self):
        module, report = make_abba_report()
        goal = extract_goal(module, report)
        assert goal.bug_class == "deadlock"
        assert len(goal.targets) == 2
        for ref in goal.targets:
            assert isinstance(module.instruction(ref), ir.MutexLock)

    def test_goal_extraction_crash(self):
        module, report = make_crash_report()
        goal = extract_goal(module, report)
        assert goal.bug_class == "crash"
        assert goal.targets == (report.coredump.fault_ref,)


class TestSynthesis:
    def test_deadlock_synthesized(self, abba_synthesis):
        _, _, result = abba_synthesis
        assert result.found, f"synthesis failed: {result.reason}"
        assert result.execution_file is not None
        assert result.execution_file.bug_kind == "deadlock"

    def test_crash_synthesized_with_inputs(self, crash_synthesis):
        _, _, result = crash_synthesis
        assert result.found, f"synthesis failed: {result.reason}"
        env = result.execution_file.inputs.env
        assert env.get("MODE", "").startswith("xy")

    def test_execution_file_round_trips(self, abba_synthesis, tmp_path):
        _, _, result = abba_synthesis
        path = tmp_path / "exec.json"
        result.execution_file.save(path)
        from repro.core import ExecutionFile

        loaded = ExecutionFile.load(path)
        assert loaded.fingerprint() == result.execution_file.fingerprint()

    def test_synthesis_reports_timings(self, abba_synthesis):
        _, _, result = abba_synthesis
        assert result.total_seconds > 0
        assert result.instructions > 0


class TestPlayback:
    def test_strict_playback_reproduces_deadlock(self, abba_synthesis):
        module, _, result = abba_synthesis
        playback = play_back(module, result.execution_file, mode="strict")
        assert playback.bug_reproduced
        assert playback.bug.kind is BugKind.DEADLOCK

    def test_happens_before_playback_reproduces_deadlock(self, abba_synthesis):
        module, _, result = abba_synthesis
        playback = play_back(module, result.execution_file, mode="happens-before")
        assert playback.bug_reproduced
        assert playback.bug.kind is BugKind.DEADLOCK

    def test_happens_before_playback_leaves_a_spawn_to_the_child(self):
        """The deadlock needs the worker to read ``flag`` before main's
        store right after the spawn: happens-before playback must not run
        main on past the spawn before the worker's first event."""
        module, report = make_abba_after_spawn_report()
        result = esd_synthesize(
            module, report, ESDConfig(budget=SearchBudget(max_seconds=60))
        )
        assert result.found
        for mode in ("strict", "happens-before"):
            playback = play_back(module, result.execution_file, mode=mode)
            assert playback.bug_reproduced, mode
            assert playback.bug.kind is BugKind.DEADLOCK

    def test_strict_playback_reproduces_crash(self, crash_synthesis):
        module, _, result = crash_synthesis
        playback = play_back(module, result.execution_file, mode="strict")
        assert playback.bug_reproduced
        assert playback.bug.kind in (BugKind.NULL_DEREF, BugKind.WILD_POINTER)

    def test_playback_is_repeatable(self, abba_synthesis):
        module, _, result = abba_synthesis
        first = play_back(module, result.execution_file, mode="strict")
        second = play_back(module, result.execution_file, mode="strict")
        assert first.bug_reproduced and second.bug_reproduced
        assert first.steps == second.steps

    def test_patched_program_no_longer_reaches_bug(self):
        """Paper section 5.2: after fixing the bug, re-run ESD; if no path is
        found, the patch is good.  Fix ABBA by ordering the locks."""
        fixed = ABBA.replace(
            "void worker(int unused) {\n    lock(B);\n    lock(A);",
            "void worker(int unused) {\n    lock(A);\n    lock(B);",
        ).replace(
            "    unlock(A);\n    unlock(B);\n}",
            "    unlock(B);\n    unlock(A);\n}",
        )
        module, report = make_abba_report()
        fixed_module = compile_source(fixed, "abba")
        result = esd_synthesize(
            fixed_module, report,
            ESDConfig(budget=SearchBudget(max_seconds=20)),
        )
        assert not result.found


class TestTriage:
    def test_same_bug_deduplicated(self, abba_synthesis):
        module, report, result = abba_synthesis
        database = TriageDatabase()
        bug_id, is_new = database.submit(result.execution_file)
        assert is_new
        # A second report of the same bug synthesizes the same execution.
        second = esd_synthesize(
            module, report, ESDConfig(budget=SearchBudget(max_seconds=60))
        )
        second_id, second_new = database.submit(second.execution_file)
        assert not second_new
        assert second_id == bug_id

    def test_different_bugs_get_different_ids(self, abba_synthesis, crash_synthesis):
        _, _, abba_result = abba_synthesis
        _, _, crash_result = crash_synthesis
        database = TriageDatabase()
        id_a, _ = database.submit(abba_result.execution_file)
        id_b, _ = database.submit(crash_result.execution_file)
        assert id_a != id_b
