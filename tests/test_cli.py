"""Tests for the ``repro`` command-line front end."""

import json

import pytest

from repro.cli import repro_main
from repro.workloads import get


@pytest.fixture()
def tac_files(tmp_path):
    workload = get("tac")
    program = tmp_path / "tac.minic"
    program.write_text(workload.source)
    report = workload.make_report()
    dump = tmp_path / "report.json"
    dump.write_text(json.dumps(report.to_dict()))
    return program, dump, tmp_path / "execution.json"


class TestEsdSynth:
    def test_synthesizes_and_writes_execution(self, tac_files, capsys):
        program, dump, output = tac_files
        code = repro_main(["synth", str(dump), str(program), "--crash", "-o", str(output)])
        assert code == 0
        assert output.exists()
        data = json.loads(output.read_text())
        assert data["format"] == "esd-execution-file-v1"
        assert data["bug_kind"] == "buffer-overflow"
        out = capsys.readouterr().out
        assert "synthesized execution" in out

    def test_bug_type_from_report_when_flag_omitted(self, tac_files):
        program, dump, output = tac_files
        code = repro_main(["synth", str(dump), str(program), "-o", str(output)])
        assert code == 0

    def test_failure_exit_code(self, tmp_path, capsys):
        # A report pointing at a patched program: no path exists.
        workload = get("tac")
        report = workload.make_report()
        fixed = workload.source.replace(
            "while (buf[i] != 10) {",
            "while (i >= 0 && buf[i] != 10) {",
        )
        program = tmp_path / "tac.minic"
        program.write_text(fixed)
        dump = tmp_path / "report.json"
        dump.write_text(json.dumps(report.to_dict()))
        code = repro_main(
            ["synth", str(dump), str(program), "--crash", "--max-seconds", "10",
             "-o", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "no execution found" in capsys.readouterr().err


class TestEsdPlay:
    def test_playback_reproduces(self, tac_files, capsys):
        program, dump, output = tac_files
        assert repro_main(["synth", str(dump), str(program), "--crash", "-o", str(output)]) == 0
        code = repro_main(["play", str(program), str(output)])
        assert code == 0
        assert "reproduced" in capsys.readouterr().out

    def test_happens_before_mode(self, tac_files):
        program, dump, output = tac_files
        assert repro_main(["synth", str(dump), str(program), "--crash", "-o", str(output)]) == 0
        assert repro_main(["play", str(program), str(output), "--mode", "happens-before"]) == 0


class TestTriageDb:
    def test_triage_db_accumulates_across_invocations(self, tmp_path, capsys):
        from repro.cli import repro_main
        from repro.core import TriageDatabase

        workload = get("tac")
        program = tmp_path / "tac.minic"
        program.write_text(workload.source)
        dump = tmp_path / "report.json"
        dump.write_text(json.dumps(workload.make_report().to_dict()))
        db = tmp_path / "triage.json"

        code = repro_main(["triage", str(program), str(dump),
                           "--db", str(db), "--json"])
        assert code == 0
        first = json.loads(capsys.readouterr().out)
        assert first["distinct_bugs"] == 1
        assert first["preloaded_bugs"] == 0
        bug_id = first["reports"][0]["bug_id"]
        assert first["reports"][0]["new"] is True
        assert db.exists()

        # Second invocation: the persisted database makes the same report a
        # duplicate of the existing bug instead of bug #1 of a fresh run.
        code = repro_main(["triage", str(program), str(dump),
                           "--db", str(db), "--json"])
        assert code == 0
        second = json.loads(capsys.readouterr().out)
        assert second["preloaded_bugs"] == 1
        assert second["distinct_bugs"] == 1
        assert second["reports"][0]["bug_id"] == bug_id
        assert second["reports"][0]["new"] is False

        loaded = TriageDatabase.load(db)
        assert len(loaded) == 1
        assert loaded.entries[0].duplicates == 1

    def test_triage_rejects_foreign_db(self, tmp_path, capsys):
        from repro.cli import repro_main

        workload = get("tac")
        program = tmp_path / "tac.minic"
        program.write_text(workload.source)
        dump = tmp_path / "report.json"
        dump.write_text(json.dumps(workload.make_report().to_dict()))
        db = tmp_path / "not-a-db.json"
        db.write_text(json.dumps({"format": "something-else"}))
        code = repro_main(["triage", str(program), str(dump),
                           "--db", str(db)])
        assert code == 1
        assert "cannot load triage db" in capsys.readouterr().err


class TestPlayCoverage:
    def test_emits_per_line_hit_counts_to_stdout(self, tac_files, capsys):
        from repro.cli import repro_main

        program, dump, output = tac_files
        assert repro_main(["synth", str(dump), str(program),
                           "-o", str(output)]) == 0
        capsys.readouterr()
        code = repro_main(["play", str(program), str(output), "--coverage"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["format"] == "esd-coverage-v1"
        assert data["status"] == "bug"
        # The unbounded backward scan (line 29) is hit and is the end site.
        assert data["functions"]["main"]["29"] >= 1
        assert data["end_sites"] == [{"function": "main", "line": 29}]

    def test_writes_coverage_file(self, tac_files, tmp_path):
        from repro.cli import repro_main

        program, dump, output = tac_files
        assert repro_main(["synth", str(dump), str(program),
                           "-o", str(output)]) == 0
        cov = tmp_path / "coverage.json"
        assert repro_main(["play", str(program), str(output),
                           "--coverage", str(cov)]) == 0
        data = json.loads(cov.read_text())
        assert "main" in data["functions"]


class TestRepairCommand:
    def test_writes_validated_patch(self, tac_files, capsys):
        from repro.cli import repro_main

        program, dump, _ = tac_files
        patch_path = program.parent / "patch.json"
        code = repro_main(["repair", str(dump), str(program),
                           "-o", str(patch_path), "--max-seconds", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PATCHED" in out
        assert "top suspects" in out
        data = json.loads(patch_path.read_text())
        assert data["format"] == "esd-patch-v1"
        assert data["verified"] is True

    def test_json_output(self, tac_files, capsys):
        from repro.cli import repro_main

        program, dump, _ = tac_files
        patch_path = program.parent / "patch.json"
        code = repro_main(["repair", str(dump), str(program),
                           "-o", str(patch_path), "--json",
                           "--max-seconds", "60"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["found"] is True
        assert data["patch"]["candidate"]["kind"] == "bounds-guard"
        assert data["localization"]["suspects"]

    def test_unrepairable_report_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import repro_main

        # A report against the already-fixed program: synthesis finds no
        # failing execution, so there is nothing to repair.
        workload = get("tac")
        fixed = workload.source.replace(
            "while (buf[i] != 10) {",
            "while (i >= 0 && buf[i] != 10) {",
        )
        program = tmp_path / "tac.minic"
        program.write_text(fixed)
        dump = tmp_path / "report.json"
        dump.write_text(json.dumps(workload.make_report().to_dict()))
        code = repro_main(["repair", str(dump), str(program),
                           "--max-seconds", "15"])
        assert code == 1
        assert "no validated patch" in capsys.readouterr().err


class TestGracefulInterrupt:
    def test_sigterm_writes_final_checkpoint_and_resume_completes(
            self, tmp_path):
        """Satellite: SIGTERM to `repro synth --checkpoint` exits cleanly
        with a final checkpoint (reason 'interrupted') instead of dying
        mid-search; `repro resume` finishes the job."""
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        from repro.cli import repro_main
        from repro.core import ExecutionFile
        from repro.distrib import parallel_supported

        if not parallel_supported():
            pytest.skip("parallel pool requires fork")

        # ls4 at search seed 2: a ~10 s guided search, so the signal lands
        # mid-search (ghttpd-hard now takes a fraction of a second).
        workload = get("ls4")
        program = tmp_path / "ls4.minic"
        program.write_text(workload.source)
        dump = tmp_path / "report.json"
        dump.write_text(json.dumps(workload.make_report().to_dict()))
        ckpt = tmp_path / "ck.json"
        out = tmp_path / "resumed.json"

        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=repo_src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "synth", str(dump), str(program),
             "-o", str(tmp_path / "never.json"), "--workers", "2",
             "--checkpoint", str(ckpt), "--checkpoint-interval", "0.05",
             "--max-instructions", "100000000", "--seed", "2"],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        deadline = time.monotonic() + 20.0
        while not ckpt.exists() and time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        if proc.poll() is not None:
            # The search finished before the first checkpoint: nothing to
            # interrupt, and the artifact is already correct.
            assert proc.returncode == 0
            return
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
        stderr = proc.stderr.read()
        assert code == 1
        assert "interrupted" in stderr
        assert "repro resume" in stderr  # the hint names the next command
        assert ckpt.exists()
        assert repro_main(["resume", str(ckpt), "-o", str(out)]) == 0
        assert ExecutionFile.load(out).bug_kind == "null-dereference"


class TestPythonFrontendCLI:
    """`.py` programs flow through every program-taking verb: the
    extension selects the frontend, `--lang` overrides it."""

    @pytest.fixture()
    def pytally_files(self, tmp_path):
        from repro.cli import repro_main  # noqa: F401  (import check)

        workload = get("pytally")
        program = tmp_path / "pytally.py"
        program.write_text(workload.source)
        dump = tmp_path / "report.json"
        dump.write_text(json.dumps(workload.make_report().to_dict()))
        return program, dump, tmp_path / "execution.json"

    def test_synth_and_play_py_by_extension(self, pytally_files, capsys):
        from repro.cli import repro_main

        program, dump, output = pytally_files
        assert repro_main(["synth", str(dump), str(program),
                           "-o", str(output)]) == 0
        assert json.loads(output.read_text())["bug_kind"] == "buffer-overflow"
        assert repro_main(["play", str(program), str(output)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_lang_flag_overrides_extension(self, pytally_files, capsys):
        from repro.cli import repro_main

        program, dump, output = pytally_files
        # Forcing the MiniC frontend on Python text is a polite input
        # error (exit 1 + message), not a traceback.
        assert repro_main(["synth", str(dump), str(program),
                           "--lang", "esd", "-o", str(output)]) == 1
        renamed = program.with_suffix(".txt")
        renamed.write_text(program.read_text())
        assert repro_main(["synth", str(dump), str(renamed),
                           "--lang", "python", "-o", str(output)]) == 0

    def test_lint_py_program(self, pytally_files, capsys):
        from repro.cli import repro_main

        program, _, _ = pytally_files
        assert repro_main(["lint", str(program)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_frontend_error_is_polite(self, tmp_path, capsys):
        from repro.cli import repro_main

        bad = tmp_path / "bad.py"
        bad.write_text("def main():\n    return {1: 2}\n")
        assert repro_main(["lint", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "Dict" in err

    def test_python_workload_flows_through_lint(self, capsys):
        from repro.cli import repro_main

        # The static lint sees the seeded deadlock in the Python workload:
        # findings mean exit 1, and lock-order-inversion is among them.
        assert repro_main(["lint", "--workload", "pyrlock"]) == 1
        assert "lock-order-inversion" in capsys.readouterr().out
