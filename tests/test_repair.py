"""The automated repair subsystem: coverage spectra, fault localization,
constraint-based patch synthesis, and the paper-section-8 validation
criterion (promoted from examples/triage_and_patch.py into CI assertions)."""

import json

import pytest

from repro import ReproSession, compile_source
from repro.core import ESDConfig, esd_synthesize
from repro.ir import Hole, InstrRef
from repro.playback import collect_coverage, play_back
from repro.repair import (
    LocalizationError,
    Patch,
    PatchCandidate,
    RepairConfig,
    candidates_for,
    clone_module,
    concrete_behavior,
    explore_with_holes,
    localize,
    module_holes,
    repair,
    substitute_holes,
    synthesize_passing_executions,
    validate_patch,
)
from repro.search import SearchBudget
from repro.solver import Solver
from repro.symbex.executor import hole_var
from repro.workloads import TAC, get


def fast_config() -> ESDConfig:
    return ESDConfig(budget=SearchBudget(
        max_instructions=5_000_000, max_states=200_000, max_seconds=60.0,
    ))


@pytest.fixture(scope="module")
def tac_module():
    return get("tac").compile()


@pytest.fixture(scope="module")
def tac_report():
    return get("tac").make_report()


@pytest.fixture(scope="module")
def tac_failing(tac_module, tac_report):
    result = esd_synthesize(tac_module, tac_report, fast_config())
    assert result.found
    return result.execution_file


@pytest.fixture(scope="module")
def tac_passing(tac_module):
    return synthesize_passing_executions(tac_module, count=4)


@pytest.fixture(scope="module")
def tac_repair_result(tac_module):
    return repair(tac_module, get("tac").make_report(),
                  config=RepairConfig(esd=fast_config()))


# ---------------------------------------------------------------------------
# Coverage spectra (repro play --coverage's engine)
# ---------------------------------------------------------------------------


class TestCoverage:
    def test_failing_execution_ends_at_the_crash_site(
        self, tac_module, tac_failing
    ):
        coverage = collect_coverage(tac_module, tac_failing)
        assert coverage.status == "bug"
        assert coverage.bug_kind == "buffer-overflow"
        # The backward-scan loop (line 29 of the tac source) is both covered
        # and the end site.
        assert ("main", 29) in coverage.lines
        assert ("main", 29) in coverage.end_sites
        # The scan re-executes the loop condition: more than one hit.
        assert coverage.lines[("main", 29)] > 1

    def test_passing_execution_has_no_end_sites(self, tac_module, tac_passing):
        coverage = collect_coverage(tac_module, tac_passing[0])
        assert coverage.status == "exited"
        assert coverage.end_sites == ()

    def test_json_shape(self, tac_module, tac_failing):
        data = collect_coverage(tac_module, tac_failing).to_dict()
        assert data["format"] == "esd-coverage-v1"
        assert data["schema_version"] == 1
        assert "main" in data["functions"]
        hits = data["functions"]["main"]
        assert all(isinstance(v, int) for v in hits.values())
        assert data["end_sites"] == [{"function": "main", "line": 29}]


class TestPassingSynthesis:
    def test_distinct_clean_terminations(self, tac_module, tac_passing):
        assert len(tac_passing) >= 2
        fingerprints = {p.fingerprint() for p in tac_passing}
        assert len(fingerprints) == len(tac_passing)
        for execution in tac_passing:
            replay = play_back(tac_module, execution)
            assert replay.state.status == "exited"


# ---------------------------------------------------------------------------
# Localization: the ground-truth faulty statement ranks in the top 3
# ---------------------------------------------------------------------------


def _localization_for(name: str, passing_count: int = 4):
    workload = get(name)
    module = workload.compile()
    result = esd_synthesize(module, workload.make_report(), fast_config())
    assert result.found
    passing = synthesize_passing_executions(module, count=passing_count)
    assert passing, f"no passing executions synthesized for {name}"
    return module, localize(module, [result.execution_file], passing)


class TestLocalization:
    def test_tac_ground_truth_in_top3(self):
        # Ground truth: the unbounded backward scan `while (buf[i] != 10)`.
        _, ranking = _localization_for("tac")
        assert ranking.best_rank([("main", 29)]) <= 3

    def test_listing1_ground_truth_in_top3(self):
        # Ground truth: the unlock/relock window inside the if (paper
        # Listing 1 lines 11-12; our source lines 11 and 12).
        _, ranking = _localization_for("listing1")
        assert ranking.best_rank(
            [("critical_section", 11), ("critical_section", 12)]
        ) <= 3

    def test_mkdir_ground_truth_in_top3(self):
        # Ground truth: the error path dereferencing the NULL parse_mode
        # result (`print_int(mode_bits[3])`).
        _, ranking = _localization_for("mkdir")
        assert ranking.best_rank([("main", 67)]) <= 3

    def test_paste_ground_truth_in_top3(self):
        # Ground truth: the invalid `free(delims)` of the static fallback.
        _, ranking = _localization_for("paste")
        assert ranking.best_rank([("main", 72)]) <= 3

    def test_tarantula_formula(self, tac_module, tac_failing, tac_passing):
        ranking = localize(tac_module, [tac_failing], tac_passing,
                           formula="tarantula")
        assert ranking.formula == "tarantula"
        assert ranking.best_rank([("main", 29)]) <= 3

    def test_needs_a_failing_spectrum(self, tac_module, tac_passing):
        with pytest.raises(LocalizationError):
            localize(tac_module, [], tac_passing)

    def test_unknown_formula_rejected(self, tac_module, tac_failing):
        with pytest.raises(LocalizationError):
            localize(tac_module, [tac_failing], [], formula="dstar")


# ---------------------------------------------------------------------------
# Symbolic holes
# ---------------------------------------------------------------------------


class TestHoles:
    def test_one_hole_is_one_solver_variable(self):
        hole = Hole("t-shared", 0, 9)
        assert hole_var(hole) is hole_var(Hole("t-shared", 0, 9))
        assert hole_var(hole) is not hole_var(Hole("t-other", 0, 9))

    def test_substitute_holes_concretizes(self):
        from repro import ir as _ir
        from repro.symbex import RecordedInputs

        module = compile_source(
            "int main() { int x = getchar(); return x + 3; }", "m"
        )
        # Plant a hole by hand in place of the constant operand.
        planted = False
        for block in module.functions["main"].blocks.values():
            for instr in block.instrs:
                if isinstance(instr, _ir.BinOp) and instr.rhs == _ir.Const(3):
                    instr.rhs = Hole("t-sub", -10, 10)
                    planted = True
        assert planted
        assert [h.name for h in module_holes(module)] == ["t-sub"]
        substitute_holes(module, {"t-sub": 7})
        assert module_holes(module) == []
        behavior = concrete_behavior(module, RecordedInputs(stdin=[2]))
        assert behavior.exit_code == 9  # 2 + 7

    def test_explore_with_holes_partitions_on_the_hole(self):
        source = """
        int main() {
            int x = getchar();
            if (x < 5) { return 1; }
            return 0;
        }
        """
        module = compile_source(source, "m")
        from repro import ir as _ir

        # Replace the comparison constant with a hole; stdin is concrete.
        for block in module.functions["main"].blocks.values():
            for instr in block.instrs:
                if isinstance(instr, _ir.BinOp) and instr.op == "<":
                    instr.rhs = Hole("t-fence", 0, 20)
        from repro.symbex import RecordedInputs

        paths = explore_with_holes(
            module, RecordedInputs(stdin=[7]), Solver()
        )
        exits = sorted(p.behavior.exit_code for p in paths)
        assert exits == [0, 1]  # 7 < fence both ways


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


class TestTemplates:
    def test_bounds_guard_leads_for_tac_crash(self, tac_module, tac_failing,
                                              tac_passing):
        ranking = localize(tac_module, [tac_failing], tac_passing)
        suspect = ranking.top(1)[0]
        candidates = candidates_for(tac_module, suspect, "crash")
        assert candidates
        assert candidates[0].kind == "bounds-guard"
        assert candidates[0].holes

    def test_unlock_hoist_generated_for_minidb(self):
        module = get("minidb").compile()
        ranking_suspect = type("S", (), {})()
        ranking_suspect.function = "rl_enter"
        ranking_suspect.line = 34
        candidates = candidates_for(module, ranking_suspect, "deadlock")
        hoists = [c for c in candidates if c.kind == "unlock-hoist"]
        assert hoists
        patched = clone_module(module)
        hoists[0].apply(patched)
        # The release-path block now unlocks rl_master before lock(rl_real).
        from repro import ir as _ir

        ref = InstrRef.parse(hoists[0].params["ref"])
        block = patched.functions["rl_enter"].blocks[ref.block]
        kinds = [type(i).__name__ for i in block.instrs]
        assert kinds.index("MutexUnlock") < kinds.index("MutexLock")
        assert isinstance(block.instrs[0], _ir.MutexUnlock)

    def test_line_drop_keeps_instruction_refs_stable(self):
        module = get("mkdir").compile()
        sizes = {
            name: func.size for name, func in module.functions.items()
        }
        suspect = type("S", (), {})()
        suspect.function = "main"
        suspect.line = 67
        candidates = [c for c in candidates_for(module, suspect, "crash")
                      if c.kind == "line-drop"]
        assert candidates
        patched = clone_module(module)
        candidates[0].apply(patched)
        assert {n: f.size for n, f in patched.functions.items()} == sizes

    def test_candidate_round_trip(self, tac_module, tac_failing, tac_passing):
        ranking = localize(tac_module, [tac_failing], tac_passing)
        candidate = candidates_for(tac_module, ranking.top(1)[0], "crash")[0]
        again = PatchCandidate.from_dict(
            json.loads(json.dumps(candidate.to_dict()))
        )
        assert again.to_dict() == candidate.to_dict()
        patched = clone_module(tac_module)
        again.apply(patched, bindings={again.holes[0].name: 0})


# ---------------------------------------------------------------------------
# End-to-end repair (the acceptance workloads)
# ---------------------------------------------------------------------------


def _repair(name: str, **overrides):
    workload = get(name)
    module = workload.compile()
    config = RepairConfig(esd=fast_config(), **overrides)
    return module, repair(module, workload.make_report(), config=config)


class TestRepairEndToEnd:
    def test_tac_bounds_guard_patch_validates(self, tac_module,
                                              tac_repair_result):
        module, result = tac_module, tac_repair_result
        assert result.found
        patch = result.patch
        assert patch.candidate.kind == "bounds-guard"
        assert patch.suspect_rank <= 3
        assert patch.bindings  # the fence came from the solver
        validation = patch.validation
        assert validation.ok and not validation.resynthesis_found
        assert validation.passing_preserved
        # Every synthesized passing execution replayed byte-identically.
        assert validation.identical_replays == len(validation.passing)
        # And independently: ESD really cannot synthesize the report
        # against the re-applied patch.
        patched = patch.apply_to(module)
        again = esd_synthesize(patched, get("tac").make_report(),
                               fast_config())
        assert not again.found

    def test_listing1_deadlock_window_patch_validates(self):
        _, result = _repair("listing1")
        assert result.found
        assert result.patch.suspect_rank <= 3
        assert result.patch.validation.ok
        assert result.patch.candidate.kind in ("branch-flip", "unlock-hoist")

    def test_paste_coreutils_patch_validates(self):
        _, result = _repair("paste")
        assert result.found
        assert result.patch.suspect_rank <= 3
        validation = result.patch.validation
        assert validation.ok and validation.passing_preserved

    def test_repair_result_summary_shape(self, tac_repair_result):
        summary = tac_repair_result.summary()
        assert summary["found"] is True
        assert summary["template"] == "bounds-guard"
        assert summary["candidates_tried"] >= 1
        assert summary["suspects"]

    def test_session_repair_and_localize(self):
        workload = get("tac")
        shared = RepairConfig()
        with ReproSession.from_source(workload.source, "tac",
                                      config=fast_config()) as session:
            ranking = session.localize(workload.make_report())
            assert ranking.best_rank([("main", 29)]) <= 3
            result = session.repair(workload.make_report(), config=shared)
            assert result.found
        # The session fills in its ESD budget on a private copy, never by
        # mutating the caller's config object.
        assert shared.esd is None


# ---------------------------------------------------------------------------
# Patch artifact
# ---------------------------------------------------------------------------


class TestPatchArtifact:
    def test_round_trip_and_reapply(self, tac_repair_result):
        result = tac_repair_result
        patch = result.patch
        data = json.loads(json.dumps(patch.to_dict()))
        assert data["format"] == "esd-patch-v1"
        assert data["verified"] is True
        again = Patch.from_dict(data)
        assert again.digest() == patch.digest()
        patched = again.apply_to(compile_source(get("tac").source, "tac"))
        behavior = concrete_behavior(patched,
                                     result.failing_execution.inputs)
        assert behavior.status != "bug"

    def test_digest_ignores_wall_clock_timing(self, tac_repair_result):
        patch = tac_repair_result.patch
        before = patch.digest()
        original_seconds = patch.validation.seconds
        patch.validation.seconds = original_seconds + 123.0
        try:
            assert patch.digest() == before
        finally:
            patch.validation.seconds = original_seconds

    def test_foreign_document_rejected(self):
        from repro.schema import SchemaVersionError

        with pytest.raises(SchemaVersionError, match="not a patch"):
            Patch.from_dict({"format": "something-else"})


# ---------------------------------------------------------------------------
# The paper's patch-verification loop (section 8), promoted from
# examples/triage_and_patch.py into CI-asserted behavior.
# ---------------------------------------------------------------------------


class TestPaperPatchVerification:
    def test_cosmetic_patch_is_still_synthesizable(self, tac_report):
        cosmetic = TAC.source.replace(
            'int *buf = read_input("file", 12);',
            'int *buf = read_input("file", 12);\n    // FIXME: band-aid\n',
        )
        result = ReproSession.from_source(
            cosmetic, "tac", config=fast_config()
        ).synthesize(tac_report)
        assert result.found  # the path to the bug still exists

    def test_correct_patch_defeats_synthesis(self, tac_report):
        fixed = TAC.source.replace(
            "while (buf[i] != 10) {",
            "while (i >= 0 && buf[i] != 10) {",
        )
        result = ReproSession.from_source(
            fixed, "tac", config=fast_config()
        ).synthesize(tac_report)
        assert not result.found  # paper: "the patch can be considered successful"

    def test_validate_patch_applies_the_same_criterion(
        self, tac_module, tac_report, tac_failing, tac_passing
    ):
        cosmetic = compile_source(TAC.source.replace(
            'int *buf = read_input("file", 12);',
            'int *buf = read_input("file", 12);\n    // FIXME: band-aid\n',
        ), "tac")
        rejected = validate_patch(
            tac_module, cosmetic, tac_report, tac_passing,
            failing=tac_failing, config=fast_config(),
        )
        assert not rejected.ok
        assert not rejected.failing_clean or rejected.resynthesis_found

        fixed = compile_source(TAC.source.replace(
            "while (buf[i] != 10) {",
            "while (i >= 0 && buf[i] != 10) {",
        ), "tac")
        accepted = validate_patch(
            tac_module, fixed, tac_report, tac_passing,
            failing=tac_failing, config=fast_config(),
        )
        assert accepted.ok
        assert accepted.passing_preserved

    def test_a_search_out_of_budget_validates_nothing(self):
        # The unpatched ls4 still has its bug; a budget too small to find it
        # proves nothing about the (absent) patch.
        workload = get("ls4")
        module = workload.compile()
        result = validate_patch(
            module, module, workload.make_report(), [],
            config=ESDConfig(budget=SearchBudget(
                max_instructions=2000, max_states=100, max_seconds=5.0)),
        )
        assert not result.resynthesis_found
        assert result.resynthesis_reason == "budget"
        assert not result.ok


# ---------------------------------------------------------------------------
# Triage database repair outcomes + the service's repair job kind
# ---------------------------------------------------------------------------


class TestRepairIntegration:
    def test_triage_records_repair_outcome(self, tac_module, tac_report):
        session = ReproSession(tac_module, config=fast_config())
        outcome = session.triage(tac_report)
        assert outcome.synthesized
        entry = session.triage_db.record_repair(
            outcome.bug_id, "ee" * 32, verified=True
        )
        assert entry.patched
        assert session.triage_db.patched_count == 1

    def test_repair_job_through_the_service(self):
        workload = get("tac")
        config = fast_config()
        with ReproSession.from_source(workload.source, "tac",
                                      config=config) as session:
            job = session.submit(
                workload.make_report(), kind="repair",
                repair_config=RepairConfig(passing_count=3, esd=config),
            )
            record = session.wait(job.job_id, timeout=120)
            assert record.state == "FOUND"
            assert record.reason == "patched"
            assert "patch" in record.artifacts
            assert "execution" in record.artifacts
            assert record.result["kind"] == "repair"
            patch = Patch.from_dict(json.loads(
                session.service.fetch_artifact(job.job_id, kind="patch")
            ))
            assert patch.verified
            assert patch.candidate.kind == "bounds-guard"

    def test_repair_job_needs_source(self, tac_module, tac_report):
        from repro.api.jobs import JobError

        with ReproSession(tac_module, config=fast_config()) as session:
            with pytest.raises(JobError, match="source"):
                session.submit(tac_report, kind="repair")
