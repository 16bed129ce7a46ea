"""Tests for the ReproSession service API, the strategy/bug-class registry,
the unified `repro` CLI, and the indexed triage database."""

import json
import time

import pytest

import repro.core.synthesis as synthesis_mod
from repro.api import (
    ReproSession,
    UnknownBugClassError,
    UnknownStrategyError,
    registry,
)
from repro.cli import repro_main
from repro.core import ESDConfig, GoalError, TriageDatabase, esd_synthesize
from repro.core.goals import extract_goal
from repro.search import DFSSearcher, SearchBudget, SynthesisEvent
from repro.workloads import get


@pytest.fixture()
def tac():
    return get("tac")


@pytest.fixture()
def session(tac):
    return ReproSession(
        tac.compile(), config=ESDConfig(budget=SearchBudget(max_seconds=30))
    )


class TestCachedStatics:
    def test_second_synthesize_skips_static_rebuild(self, session, tac):
        first = session.synthesize(tac.make_report())
        second = session.synthesize(tac.make_report())
        assert first.found and second.found
        stats = session.static_stats
        assert stats.distance_builds == 1
        assert stats.goal_computes == 1
        assert stats.cache_hits == 1

    def test_distance_calculator_constructed_once_across_batch(
        self, session, tac, monkeypatch
    ):
        constructions = []
        real = synthesis_mod.DistanceCalculator

        class Spy(real):
            def __init__(self, module):
                constructions.append(module.name)
                super().__init__(module)

        monkeypatch.setattr(synthesis_mod, "DistanceCalculator", Spy)
        # The spy must see the batch's (lazy) build: fresh session.
        spied = ReproSession(tac.compile())
        batch = spied.synthesize_batch([tac.make_report() for _ in range(3)])
        assert batch.found_count == 3
        assert constructions == [tac.name]

    def test_one_shot_api_rebuilds_statics_every_call(self, tac, monkeypatch):
        constructions = []
        real = synthesis_mod.DistanceCalculator

        class Spy(real):
            def __init__(self, module):
                constructions.append(module.name)
                super().__init__(module)

        monkeypatch.setattr(synthesis_mod, "DistanceCalculator", Spy)
        module = tac.compile()
        for _ in range(2):
            assert esd_synthesize(module, tac.make_report()).found
        assert len(constructions) == 2


class TestBatch:
    def test_batch_synthesizes_all_reports(self, session, tac):
        reports = [tac.make_report() for _ in range(3)]
        batch = session.synthesize_batch(reports)
        assert len(batch) == 3
        assert batch.found_count == 3
        assert all(result.found for result in batch)
        # Warm calls pay (almost) nothing for the static phase.
        statics = [result.static_seconds for result in batch]
        assert sum(statics[1:]) < statics[0] + 0.05
        assert batch.total_seconds == pytest.approx(
            batch.static_seconds + batch.search_seconds
        )


class TestPortfolio:
    def test_first_win_returns_winner_and_merged_stats(self, session, tac):
        report = tac.make_report()
        variants = {
            "esd-seed0": ESDConfig(budget=SearchBudget(max_seconds=30)),
            "esd-seed1": ESDConfig(seed=1, budget=SearchBudget(max_seconds=30)),
            "dfs": ESDConfig(strategy="dfs", budget=SearchBudget(max_seconds=30)),
        }
        started = time.monotonic()
        portfolio = session.synthesize_portfolio(report, variants)
        wall = time.monotonic() - started
        assert portfolio.found
        assert portfolio.winner_name in variants
        assert portfolio.winner is portfolio.results[portfolio.winner_name]
        assert set(portfolio.results) == set(variants)
        # Every variant either finished or was cancelled by the winner.
        for result in portfolio.results.values():
            assert result.reason in ("goal", "cancelled", "budget", "exhausted")
        assert portfolio.total_instructions >= portfolio.winner.instructions
        assert wall < 25, "first-win cancellation did not bound the run"

    def test_cancellation_reason_propagates(self, session, tac):
        # A pre-set stop predicate cancels before the first pick.
        result = session.synthesize(
            tac.make_report(), should_stop=lambda: True
        )
        assert not result.found
        assert result.reason == "cancelled"

    def test_empty_variant_list_rejected(self, session, tac):
        with pytest.raises(ValueError):
            session.synthesize_portfolio(tac.make_report(), [])

    def test_unknown_variant_strategy_fails_fast(self, session, tac):
        # A typo'd strategy must raise before the good variant burns its
        # (long) budget.
        started = time.monotonic()
        with pytest.raises(UnknownStrategyError):
            session.synthesize_portfolio(tac.make_report(), {
                "good": ESDConfig(budget=SearchBudget(max_seconds=120)),
                "typo": ESDConfig(strategy="typpo"),
            })
        assert time.monotonic() - started < 10

    def test_variant_error_cancels_the_rest(self, session, tac, monkeypatch):
        # A mid-run failure in one variant cancels the others instead of
        # letting them run out their budgets behind the pool shutdown.
        import repro.service.service as service_mod

        real = service_mod.esd_synthesize
        def flaky(module, report, config=None, **kwargs):
            if config is not None and config.seed == 7:
                raise RuntimeError("variant blew up")
            return real(module, report, config, **kwargs)

        monkeypatch.setattr(service_mod, "esd_synthesize", flaky)
        report = tac.make_report()
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="variant blew up"):
            bad_only = {"boom": ESDConfig(seed=7)}
            session.synthesize_portfolio(report, bad_only)
        assert time.monotonic() - started < 10

    def test_variant_error_recorded_when_another_wins(self, session, tac,
                                                      monkeypatch):
        import repro.service.service as service_mod

        real = service_mod.esd_synthesize
        def flaky(module, report, config=None, **kwargs):
            if config is not None and config.seed == 7:
                raise RuntimeError("variant blew up")
            return real(module, report, config, **kwargs)

        monkeypatch.setattr(service_mod, "esd_synthesize", flaky)
        portfolio = session.synthesize_portfolio(tac.make_report(), {
            "good": ESDConfig(),
            "boom": ESDConfig(seed=7),
        })
        assert portfolio.found and portfolio.winner_name == "good"
        assert "boom" not in portfolio.results
        assert isinstance(portfolio.errors.get("boom"), RuntimeError)

    def test_sequence_variants_get_positional_names(self, session, tac):
        portfolio = session.synthesize_portfolio(
            tac.make_report(),
            [ESDConfig(), ESDConfig(seed=1)],
        )
        assert set(portfolio.results) == {"v0", "v1"}


class TestEvents:
    def test_on_progress_receives_structured_events(self, session, tac):
        events: list[SynthesisEvent] = []
        result = session.synthesize(tac.make_report(), on_progress=events.append)
        assert result.found
        kinds = [event.kind for event in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "done"
        assert events[-1].reason == "goal"
        assert events[-1].instructions == result.instructions

    def test_session_level_observer(self, tac):
        events = []
        watched = ReproSession(tac.compile(), on_progress=events.append)
        watched.synthesize(tac.make_report())
        assert any(event.kind == "done" for event in events)


class TestRegistry:
    def test_lookup_known_strategies(self):
        for name in ("esd", "dfs", "bfs", "random-path"):
            assert callable(registry.get_searcher(name))
        assert "esd" in registry.available_searchers()

    def test_unknown_strategy_raises_with_available_names(self):
        with pytest.raises(UnknownStrategyError, match="esd"):
            registry.get_searcher("does-not-exist")

    def test_unknown_bug_class_raises(self):
        with pytest.raises(UnknownBugClassError, match="crash"):
            registry.get_bug_class("does-not-exist")

    def test_unknown_strategy_surfaces_through_synthesize(self, session, tac):
        with pytest.raises(UnknownStrategyError):
            session.synthesize(
                tac.make_report(), ESDConfig(strategy="no-such-strategy")
            )

    def test_custom_searcher_is_used(self, session, tac, monkeypatch):
        calls = []
        monkeypatch.setitem(
            registry._searchers,
            "test-dfs",
            lambda d, i, f, c: calls.append("built") or DFSSearcher(),
        )
        result = session.synthesize(
            tac.make_report(),
            ESDConfig(strategy="test-dfs", budget=SearchBudget(max_seconds=30)),
        )
        assert calls == ["built"]
        assert result.found

    def test_plugin_bug_class_extends_extract_goal(self, tac, monkeypatch):
        module = tac.compile()
        report = tac.make_report()
        policy_calls = []

        def extract(mod, rep):
            rep = type(rep)(rep.coredump, "crash", description=rep.description)
            return extract_goal(mod, rep)

        def build_policies(m, g, c):
            policy_calls.append(g.bug_class)
            return []

        plugin = registry.BugClassPlugin(
            "test-hang", build_policies, extract=extract
        )
        monkeypatch.setitem(registry._bug_classes, "test-hang", plugin)
        report.bug_type = "test-hang"
        goal = extract_goal(module, report)
        assert goal.bug_class == "crash"

        # Synthesis must use the *plugin's* policies (keyed by the report's
        # bug type) even though the extracted goal reuses the crash shape.
        result = esd_synthesize(module, report)
        assert result.found
        assert policy_calls == ["crash"]

        report.bug_type = "really-unknown"
        with pytest.raises(GoalError):
            extract_goal(module, report)


class TestTriage:
    def test_session_triage_deduplicates(self, session, tac):
        first = session.triage(tac.make_report())
        second = session.triage(tac.make_report())
        assert first.synthesized and second.synthesized
        assert first.is_new and not second.is_new
        assert first.bug_id == second.bug_id
        assert len(session.triage_db) == 1

    def test_database_indexed_submit(self, session, tac):
        execution = session.synthesize(tac.make_report()).execution_file
        database = TriageDatabase()
        bug_id, is_new = database.submit(execution)
        assert is_new
        dup_id, dup_new = database.submit(execution)
        assert (dup_id, dup_new) == (bug_id, False)
        assert database.entries[0].duplicates == 1
        assert database._index[execution.fingerprint()] is database.entries[0]

    def test_merge_combines_shards(self, session, tac):
        paste = get("paste")
        paste_session = ReproSession(paste.compile())
        tac_exec = session.synthesize(tac.make_report()).execution_file
        paste_exec = paste_session.synthesize(paste.make_report()).execution_file

        shard_a = TriageDatabase()
        shard_a.submit(tac_exec)
        shard_a.submit(tac_exec)  # one duplicate recorded in the shard
        shard_b = TriageDatabase()
        shard_b.submit(tac_exec)
        shard_b.submit(paste_exec)

        mapping = shard_a.merge(shard_b)
        assert len(shard_a) == 2
        # tac collided: its shard-b report folds into shard-a's entry.
        assert shard_a.entries[0].duplicates == 2
        assert mapping[shard_b.entries[0].bug_id] == shard_a.entries[0].bug_id
        # paste was new: fresh local id, duplicate count preserved.
        assert shard_a.entries[1].execution is paste_exec
        # Merged entries stay indexed for later O(1) submits.
        dup_id, is_new = shard_a.submit(paste_exec)
        assert (dup_id, is_new) == (shard_a.entries[1].bug_id, False)

    def test_constructed_from_entries_rebuilds_index(self, session, tac):
        execution = session.synthesize(tac.make_report()).execution_file
        original = TriageDatabase()
        original.submit(execution)
        rebuilt = TriageDatabase(entries=list(original.entries))
        bug_id, is_new = rebuilt.submit(execution)
        assert not is_new
        assert bug_id == original.entries[0].bug_id
        new_id, _ = rebuilt.submit(
            type(execution).from_dict(
                {**execution.to_dict(), "bug_ref": "elsewhere"}
            )
        )
        assert new_id == bug_id + 1


class TestReproCli:
    @pytest.fixture()
    def tac_files(self, tmp_path, tac):
        program = tmp_path / "tac.minic"
        program.write_text(tac.source)
        dump = tmp_path / "report.json"
        dump.write_text(json.dumps(tac.make_report().to_dict()))
        return program, dump, tmp_path / "execution.json"

    def test_synth_play_round_trip(self, tac_files, capsys):
        program, dump, output = tac_files
        assert repro_main(
            ["synth", str(dump), str(program), "--crash", "-o", str(output)]
        ) == 0
        assert output.exists()
        data = json.loads(output.read_text())
        assert data["format"] == "esd-execution-file-v1"
        out = capsys.readouterr().out
        assert "synthesized execution" in out

        assert repro_main(["play", str(program), str(output)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_synth_respects_instruction_budget_default(self, tac_files,
                                                       monkeypatch):
        # Regression: the old CLI rebuilt SearchBudget(max_seconds=...),
        # silently dropping the 20M-instruction default to 2M.
        program, dump, output = tac_files
        seen = {}
        real = synthesis_mod.esd_synthesize

        def spy(module, report, config=None, **kwargs):
            seen["budget"] = config.budget
            return real(module, report, config, **kwargs)

        monkeypatch.setattr(synthesis_mod, "esd_synthesize", spy)
        monkeypatch.setattr("repro.service.service.esd_synthesize", spy)
        # The spy observes the serial driver; pin the worker default so a
        # REPRO_WORKERS test matrix does not route around it.
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert repro_main(
            ["synth", str(dump), str(program), "--crash",
             "--max-seconds", "15", "-o", str(output)]
        ) == 0
        assert seen["budget"].max_instructions == 20_000_000
        assert seen["budget"].max_seconds == 15.0

    def test_synth_progress_and_strategy_flags(self, tac_files, capsys):
        program, dump, output = tac_files
        assert repro_main(
            ["synth", str(dump), str(program), "--crash", "-o", str(output),
             "--strategy", "random-path", "--progress"]
        ) == 0
        err = capsys.readouterr().err
        assert "[start]" in err and "[done]" in err

    def test_triage_subcommand_deduplicates(self, tac_files, tmp_path, tac,
                                            capsys):
        program, dump, _ = tac_files
        second = tmp_path / "report2.json"
        second.write_text(json.dumps(tac.make_report().to_dict()))
        assert repro_main(
            ["triage", str(program), str(dump), str(second)]
        ) == 0
        out = capsys.readouterr().out
        assert "bug #1 (NEW" in out
        assert "bug #1 (duplicate" in out
        assert "1 distinct bug(s) from 2 report(s)" in out

    def test_bench_subcommand(self, capsys):
        assert repro_main(["bench", "--workload", "tac", "--reports", "3"]) == 0
        out = capsys.readouterr().out
        assert "amortization" in out

    def test_unknown_workload_bench(self, capsys):
        assert repro_main(["bench", "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestEngineStats:
    def test_budget_exit_reports_states_explored(self, tac):
        # Regression: budget exits left stats.states_explored at 0.
        result = esd_synthesize(
            tac.compile(),
            tac.make_report(),
            ESDConfig(budget=SearchBudget(max_instructions=10, max_seconds=30)),
        )
        assert not result.found
        assert result.reason == "budget"
        assert result.states_explored >= 1
