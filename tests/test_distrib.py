"""Parallel exploration pool: sharding, stealing, checkpoints, resume.

Also covers the satellites that ride on this layer: replay-consistent
budget accounting, cross-worker solver-cache delta sync, and the CLI's
``--workers`` / ``--checkpoint`` / ``resume`` / ``--json`` surfaces.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import ReproSession
from repro.cli import repro_main
from repro.core import ESDConfig, ExecutionFile, build_search_setup
from repro.distrib import (
    ExplorationCheckpoint,
    ParallelExplorer,
    parallel_supported,
)
from repro.obs import SearchObserver
from repro.search import SearchBudget, explore
from repro.solver import CounterexampleCache, Result, Solution
from repro.workloads import get
from repro.workloads.ghttpd import hard_workload

pytestmark = pytest.mark.skipif(
    not parallel_supported(), reason="parallel pool requires fork"
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def hard():
    """A small ghttpd-hard variant: enough plateau to shard, fast enough
    for the test suite."""
    workload = hard_workload(4)
    return workload.compile(), workload.make_report(), workload


class TestParallelSynthesis:
    def test_two_workers_reproduce_the_serial_artifact(self):
        workload = get("ghttpd")
        module = workload.compile()
        report = workload.make_report()
        serial = ReproSession(module).synthesize(report)
        assert serial.found
        parallel = ParallelExplorer(
            module, report, ESDConfig(), workers=2, verify_snapshots=True
        ).run()
        assert parallel.found and parallel.reason == "goal"
        assert (parallel.execution_file.fingerprint()
                == serial.execution_file.fingerprint())

    def test_sharded_search_on_a_plateau_workload(self, hard):
        module, report, _ = hard
        events = []
        pool = ParallelExplorer(module, report, ESDConfig(), workers=2,
                                observer=SearchObserver(on_event=events.append))
        result = pool.run()
        assert result.found and result.reason == "goal"
        kinds = [e.kind for e in events]
        assert kinds[0] == "start" and kinds[-1] == "done"
        # The seed search's own start/done stay inside the pool's bracket.
        assert kinds.count("start") == kinds.count("done") == 1
        # Worker/shard attribution on the quantum progress events.
        assert any(e.kind == "progress" and e.worker >= 0 for e in events)
        assert result.instructions > 0 and result.states_explored > 0

    def test_parallel_deadlock_synthesis_plays_back(self):
        workload = get("minidb")
        module = workload.compile()
        session = ReproSession(module)
        result = session.synthesize(workload.make_report(), workers=2)
        assert result.found
        playback = session.play_back(result.execution_file)
        assert playback.bug_reproduced

    def test_session_workers_default_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        session = ReproSession(get("ghttpd").compile())
        assert session.default_workers == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert ReproSession(get("ghttpd").compile()).default_workers == 1


class TestCheckpointResume:
    def test_budget_exhausted_run_resumes_to_the_same_artifact(
        self, hard, tmp_path
    ):
        module, report, workload = hard
        serial = ReproSession(module).synthesize(report)
        assert serial.found

        ckpt = tmp_path / "frontier.json"
        config = ESDConfig()
        # Exhausts mid-search: the pool overshoots by up to a quantum per
        # worker, and the search reaches the goal after ~32,000.
        config.budget.max_instructions = 10_000
        first = ParallelExplorer(
            module, report, config, workers=2,
            checkpoint_path=str(ckpt), checkpoint_interval=0.05,
        ).run()
        assert not first.found and first.reason == "budget"
        assert ckpt.exists()

        checkpoint = ExplorationCheckpoint.load(ckpt)
        assert checkpoint.pending > 0
        assert checkpoint.instructions == first.instructions
        # Give the resumed leg room to finish (what the CLI's
        # `repro resume --max-instructions` does).
        checkpoint.config.budget.max_instructions = 20_000_000
        session = ReproSession.from_checkpoint(checkpoint)
        resumed = session.resume(checkpoint)
        assert resumed.found and resumed.reason == "goal"
        # Totals accumulate across legs.
        assert resumed.instructions > first.instructions
        assert (resumed.execution_file.fingerprint()
                == serial.execution_file.fingerprint())

    def test_checkpoint_document_roundtrip(self, hard, tmp_path):
        module, report, workload = hard
        ckpt = tmp_path / "ck.json"
        config = ESDConfig()
        config.budget.max_instructions = 25_000
        ParallelExplorer(module, report, config, workers=1,
                         checkpoint_path=str(ckpt),
                         checkpoint_interval=0.05).run()
        loaded = ExplorationCheckpoint.load(ckpt)
        assert loaded.module.name == module.name
        assert loaded.report.bug_type == report.bug_type
        assert loaded.config.budget.max_instructions == 25_000
        assert loaded.workers == 1
        assert loaded.pending == len(loaded.scores)

    def test_kill_minus_nine_then_cli_resume(self, hard, tmp_path):
        """The acceptance scenario: `repro synth --checkpoint` killed
        mid-synthesis completes via `repro resume` with the same artifact
        as an uninterrupted run."""
        module, report, workload = hard
        program = tmp_path / "prog.minic"
        program.write_text(workload.source)
        dump = tmp_path / "report.json"
        dump.write_text(json.dumps(report.to_dict()))
        ckpt = tmp_path / "ck.json"
        out = tmp_path / "resumed.json"

        serial = ReproSession(module).synthesize(report)
        assert serial.found

        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "synth", str(dump), str(program),
             "-o", str(tmp_path / "never.json"), "--workers", "2",
             "--checkpoint", str(ckpt), "--checkpoint-interval", "0.05",
             # Slow the search down so the kill lands mid-synthesis.
             "--max-instructions", "100000000"],
            env=env, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 20.0
        while not ckpt.exists() and time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        if proc.poll() is None:
            # Checkpoint exists and the search is still running: kill -9.
            assert ckpt.exists()
            workers = _child_pids(proc.pid)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            if PROC_FS:
                # The pool workers notice their dead master and exit.
                assert workers
                deadline = time.monotonic() + 5.0
                while (any(_alive(pid) for pid in workers)
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                assert not [pid for pid in workers if _alive(pid)]
            assert repro_main(["resume", str(ckpt), "-o", str(out)]) == 0
            resumed = ExecutionFile.load(out)
        else:
            # The search won the race against the first checkpoint write;
            # the uninterrupted artifact still must match.
            assert proc.returncode == 0
            resumed = ExecutionFile.load(tmp_path / "never.json")
        # The CLI names the program after the source file; compare the
        # artifact minus that label (inputs, schedule, bug identity).
        assert (resumed.fingerprint()[1:]
                == serial.execution_file.fingerprint()[1:])


PROC_FS = Path("/proc/self/stat").exists()


def _proc_stat(pid: int) -> list[str]:
    """The ``/proc/PID/stat`` fields after the command name, or []."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return []
    return stat.rsplit(")", 1)[1].split()


def _child_pids(parent: int) -> list[int]:
    if not PROC_FS:
        return []
    return [int(entry) for entry in os.listdir("/proc") if entry.isdigit()
            and _proc_stat(int(entry))[1:2] == [str(parent)]]


def _alive(pid: int) -> bool:
    """Running or sleeping; an exited process may linger as a zombie
    until something reaps it."""
    state = _proc_stat(pid)[:1]
    return bool(state) and state != ["Z"]


class TestBudgetAccounting:
    def test_replayed_sync_instructions_charged_once(self):
        """Satellite fix: a woken thread re-executes the blocking lock/wait/
        join instruction; the engine's budget must charge it once."""
        workload = get("minidb")  # its deadlock search wakes blocked threads
        module = workload.compile()
        setup = build_search_setup(module, workload.make_report(), ESDConfig())
        outcome = explore(
            setup.executor, setup.searcher, setup.executor.initial_state(),
            setup.goal.matches, SearchBudget(max_seconds=120.0),
        )
        stats = setup.executor.stats
        assert stats.replayed > 0, "deadlock search must hit lock retries"
        assert outcome.stats.instructions == stats.instructions - stats.replayed

    def test_serial_and_sharded_budget_use_the_same_coin(self, hard):
        module, report, _ = hard
        config = ESDConfig()
        # Both must stop on budget: the pool overshoots by up to a quantum
        # per worker, and the search reaches the goal after ~32,000.
        config.budget.max_instructions = 10_000
        serial = ReproSession(module).synthesize(report, config)
        parallel = ParallelExplorer(module, report, config, workers=2).run()
        # Both runs spend (approximately, for the pool: quantum granularity)
        # the same budget currency -- distinct instruction executions.
        assert serial.reason == "budget"
        assert parallel.reason == "budget"
        assert parallel.instructions <= 10_000 + 2 * 8192


class TestCacheDeltaSync:
    def test_drain_and_merge(self):
        source = CounterexampleCache()
        source.enable_delta_log()
        key_sat = frozenset({11, 22})
        key_unsat = frozenset({33, 44})
        source.insert(key_sat, Solution(Result.SAT, {"x": 5}))
        source.insert(key_unsat, Solution(Result.UNSAT))
        delta = source.drain_delta()
        assert len(delta) == 2
        assert source.drain_delta() == []  # drained

        sink = CounterexampleCache()
        assert sink.merge_delta(delta) == 2
        assert sink.stats.merged == 2
        hit = sink.lookup(key_sat, max_nodes=1000)
        assert hit is not None and hit[0] == "exact"
        assert hit[1].model == {"x": 5}
        hit = sink.lookup(key_unsat, max_nodes=1000)
        assert hit is not None and hit[1].result is Result.UNSAT

    def test_merged_entries_are_not_rejournaled(self):
        source = CounterexampleCache()
        source.enable_delta_log()
        source.insert(frozenset({1}), Solution(Result.UNSAT))
        delta = source.drain_delta()

        sink = CounterexampleCache()
        sink.enable_delta_log()
        sink.merge_delta(delta)
        assert sink.drain_delta() == []  # no echo back to the sender

    def test_duplicate_merge_is_idempotent(self):
        cache = CounterexampleCache()
        entry = ((5, 6), "unsat", None)
        assert cache.merge_delta([entry]) == 1
        assert cache.merge_delta([entry]) == 0


class TestCliJson:
    def test_triage_json_output(self, tmp_path, capsys):
        workload = get("tac")
        program = tmp_path / "prog.minic"
        program.write_text(workload.source)
        dump = tmp_path / "report.json"
        dump.write_text(json.dumps(workload.make_report().to_dict()))
        assert repro_main(
            ["triage", str(program), str(dump), str(dump), "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["distinct_bugs"] == 1
        assert data["failures"] == 0
        assert [r["new"] for r in data["reports"]] == [True, False]
        assert data["reports"][0]["bug_id"] == data["reports"][1]["bug_id"]

    def test_bench_json_output(self, capsys):
        assert repro_main(
            ["bench", "--workload", "ls1", "--reports", "2", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "ls1" and data["all_found"]
        assert data["session"]["distance_builds"] == 1
        metrics = data["metrics"]["metrics"]
        assert metrics["esd_solver_queries_total"]["value"] > 0

    def test_synth_workers_flag(self, tmp_path, capsys):
        workload = get("ghttpd")
        program = tmp_path / "prog.minic"
        program.write_text(workload.source)
        dump = tmp_path / "report.json"
        dump.write_text(json.dumps(workload.make_report().to_dict()))
        out = tmp_path / "exec.json"
        assert repro_main(
            ["synth", str(dump), str(program), "-o", str(out), "--workers", "2"]
        ) == 0
        assert ExecutionFile.load(out).bug_kind == "buffer-overflow"


class TestGracefulShutdown:
    def test_request_shutdown_checkpoints_and_reports_interrupted(
            self, hard, tmp_path):
        """Satellite: a graceful shutdown request (what the SIGTERM handler
        issues) stops the pool with reason 'interrupted' and writes a final
        resumable checkpoint."""
        workload = hard_workload(6)
        module, report = workload.compile(), workload.make_report()
        ckpt = tmp_path / "final.json"
        config = ESDConfig()
        config.budget.max_instructions = 100_000_000
        config.budget.max_seconds = 300.0
        pool = ParallelExplorer(module, report, config, workers=2,
                                checkpoint_path=str(ckpt),
                                checkpoint_interval=3600.0)
        import threading

        # The pooled search takes ~0.5 s; a request at 0.15 s lands
        # mid-search.
        timer = threading.Timer(0.15, pool.request_shutdown)
        timer.start()
        try:
            result = pool.run()
        finally:
            timer.cancel()
        if result.found:
            pytest.skip("search won before the shutdown request landed")
        assert result.reason == "interrupted"
        assert ckpt.exists()
        loaded = ExplorationCheckpoint.load(ckpt)
        assert loaded.pending > 0
        # The checkpoint resumes to the same artifact as an uninterrupted run.
        session = ReproSession.from_checkpoint(loaded)
        resumed = session.resume(loaded)
        assert resumed.found
        serial = ReproSession(module).synthesize(report)
        assert (resumed.execution_file.fingerprint()
                == serial.execution_file.fingerprint())

    def test_shutdown_before_the_first_quantum_keeps_the_shards(
            self, tmp_path):
        """A shutdown request that lands after sharding, before any worker
        ran a quantum, checkpoints the workers' whole shards -- not an
        empty frontier that resumes to 'exhausted'."""
        workload = hard_workload(6)
        module, report = workload.compile(), workload.make_report()
        ckpt = tmp_path / "final.json"

        class ShutdownAfterSharding(ParallelExplorer):
            dealt = 0

            def _spawn(self, shards, setup):
                handles = super()._spawn(shards, setup)
                self.dealt = sum(len(shard) for shard in shards)
                self.request_shutdown()
                return handles

        pool = ShutdownAfterSharding(module, report, ESDConfig(), workers=2,
                                     checkpoint_path=str(ckpt),
                                     checkpoint_interval=3600.0)
        result = pool.run()
        assert result.reason == "interrupted"
        loaded = ExplorationCheckpoint.load(ckpt)
        assert loaded.pending == pool.dealt > 0
        resumed = ReproSession.from_checkpoint(loaded).resume(loaded)
        assert resumed.found
