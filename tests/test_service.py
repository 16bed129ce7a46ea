"""ReproService: job lifecycle, dedup, cancellation, shared statics,
graceful shutdown with resumable checkpoints, and the acceptance
invariants (artifact byte-identity with the inline session; one static
pass for N concurrent jobs on one module)."""

import threading
import time

import pytest

from repro.api import ReproSession
from repro.api.jobs import (
    CANCELLED,
    FAILED,
    FOUND,
    QUEUED,
    SEARCHING,
    JobSpec,
    ResultNotReadyError,
    UnknownJobError,
)
from repro.core import ESDConfig
from repro.service import ReproService
from repro.store import ArtifactStore
from repro.workloads import TABLE1, get
from repro.workloads.ghttpd import hard_workload


def wide_config(max_seconds=300.0):
    """A budget that will not expire under a slow CI box."""
    config = ESDConfig()
    config.budget.max_seconds = max_seconds
    config.budget.max_instructions = 100_000_000
    return config


@pytest.fixture()
def service():
    svc = ReproService(max_workers=2)
    yield svc
    svc.shutdown(graceful=False, timeout=10.0)


@pytest.fixture(scope="module")
def hard():
    workload = hard_workload(6)
    return workload


def submit_hard(service, workload, description="hard"):
    report = workload.make_report()
    report.description = description
    return service.submit(JobSpec(
        report=report, source=workload.source, program_name=workload.name,
        config=wide_config(),
    ))


def wait_for_state(service, job_id, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.job(job_id).state == state:
            return True
        time.sleep(0.02)
    return False


class TestJobLifecycle:
    def test_workload_job_runs_to_found(self, service):
        record = service.submit(JobSpec(workload="tac"))
        final = service.wait(record.job_id, timeout=120)
        assert final.state == FOUND
        assert final.result["found"] is True
        assert "execution" in final.artifacts
        assert "spec" in final.artifacts
        kinds = [e.kind for e in final.events]
        states = [e.state for e in final.events if e.kind == "state"]
        assert states == [QUEUED, "STATIC", "SEARCHING", FOUND]
        assert kinds[0] == "state"

    def test_unknown_job_raises(self, service):
        with pytest.raises(UnknownJobError):
            service.job("j99999-deadbeef")

    def test_duplicate_spec_dedupes_to_one_job(self, service):
        spec = JobSpec(workload="tac")
        first = service.submit(spec)
        second = service.submit(JobSpec(workload="tac"))
        assert second.job_id == first.job_id
        assert second.deduped
        assert service.stats.deduped == 1
        # The dedup key is the spec's store digest.
        assert first.spec_digest == spec.digest()
        assert first.artifacts["spec"] == spec.digest()

    def test_distinct_specs_get_distinct_jobs(self, service):
        a = service.submit(JobSpec(workload="tac", priority=1))
        b = service.submit(JobSpec(workload="tac"))  # different priority
        assert a.job_id != b.job_id

    def test_cancel_while_queued(self, hard):
        service = ReproService(max_workers=1)
        try:
            blocker = submit_hard(service, hard, "blocker")
            assert wait_for_state(service, blocker.job_id, SEARCHING)
            queued = service.submit(JobSpec(workload="tac"))
            assert service.job(queued.job_id).state == QUEUED
            cancelled = service.cancel(queued.job_id)
            assert cancelled.state == CANCELLED
            # It never ran: no STATIC/SEARCHING transitions.
            states = [e.state for e in cancelled.events if e.kind == "state"]
            assert states == [QUEUED, CANCELLED]
            service.cancel(blocker.job_id)
            assert service.wait(blocker.job_id, timeout=30).state == CANCELLED
        finally:
            service.shutdown(graceful=False, timeout=10.0)

    def test_cancel_mid_search(self, service, hard):
        record = submit_hard(service, hard, "cancel-me")
        assert wait_for_state(service, record.job_id, SEARCHING)
        service.cancel(record.job_id)
        final = service.wait(record.job_id, timeout=30)
        assert final.state == CANCELLED
        assert final.reason == "cancelled"
        assert final.result["reason"] == "cancelled"

    def test_artifact_fetch_before_completion(self, service, hard):
        record = submit_hard(service, hard, "fetch-early")
        assert wait_for_state(service, record.job_id, SEARCHING)
        with pytest.raises(ResultNotReadyError, match="no 'execution'"):
            service.fetch_artifact(record.job_id)
        with pytest.raises(ResultNotReadyError, match="not finished"):
            service.result(record.job_id)
        service.cancel(record.job_id)
        service.wait(record.job_id, timeout=30)

    def test_priority_orders_the_queue(self, hard):
        service = ReproService(max_workers=1)
        try:
            blocker = submit_hard(service, hard, "blocker")
            assert wait_for_state(service, blocker.job_id, SEARCHING)
            low = service.submit(JobSpec(workload="tac", priority=0))
            high = service.submit(JobSpec(workload="mkdir", priority=5))
            service.cancel(blocker.job_id)
            low_final = service.wait(low.job_id, timeout=120)
            high_final = service.wait(high.job_id, timeout=120)
            assert low_final.state == FOUND and high_final.state == FOUND
            assert high_final.started_at <= low_final.started_at
        finally:
            service.shutdown(graceful=False, timeout=10.0)

    def test_wait_timeout_returns_live_record(self, service, hard):
        record = submit_hard(service, hard, "slow")
        live = service.wait(record.job_id, timeout=0.2)
        assert not live.terminal
        service.cancel(record.job_id)
        service.wait(record.job_id, timeout=30)

    def test_bad_program_fails_the_job(self, service):
        report = get("tac").make_report()
        record = service.submit(JobSpec(
            report=report, source="int main( { syntax error",
            program_name="broken",
        ))
        final = service.wait(record.job_id, timeout=30)
        assert final.state == FAILED
        assert final.error

    def test_session_submit_is_an_async_job(self):
        workload = get("tac")
        session = ReproSession.from_source(workload.source, workload.name)
        record = session.submit(workload.make_report())
        final = session.wait(record.job_id, timeout=120)
        assert final.state == FOUND
        assert not final.ephemeral  # source known: recoverable spec

    def test_session_submit_without_source_is_ephemeral(self):
        workload = get("tac")
        session = ReproSession(workload.compile())
        record = session.submit(workload.make_report())
        final = session.wait(record.job_id, timeout=120)
        assert final.state == FOUND
        assert final.ephemeral


class TestAcceptance:
    @pytest.mark.parametrize("name", [w.name for w in TABLE1])
    def test_job_artifact_byte_identical_to_inline_session(self, name):
        """Acceptance: for every e2e workload, the artifact a submitted job
        stores is byte-identical to a direct ReproSession.synthesize()."""
        workload = get(name)
        report = workload.make_report()
        direct = ReproSession(workload.compile(), workers=1).synthesize(report)
        assert direct.found

        service = ReproService(max_workers=1)
        try:
            record = service.submit(JobSpec(workload=name, report=report))
            final = service.wait(record.job_id, timeout=240)
            assert final.state == FOUND
            fetched = service.fetch_artifact(record.job_id)
        finally:
            service.shutdown(graceful=False, timeout=10.0)
        assert fetched == direct.execution_file.canonical_bytes()

    def test_concurrent_jobs_share_one_static_pass(self):
        """Acceptance: N>=4 concurrent jobs on one module, exactly one
        static-analysis pass (distance build) across the service."""
        service = ReproService(max_workers=4)
        try:
            records = []
            for i in range(4):
                report = get("tac").make_report()
                report.description = f"concurrent {i}"
                records.append(service.submit(JobSpec(
                    workload="tac", report=report,
                )))
            assert len({r.job_id for r in records}) == 4
            for record in records:
                assert service.wait(record.job_id, timeout=240).state == FOUND
            program = service.programs()["workload:tac"]
            assert program.static_stats.distance_builds == 1
            assert service.stats.completed == 4
        finally:
            service.shutdown(graceful=False, timeout=10.0)


class TestGracefulShutdownAndRecovery:
    def test_interrupted_job_is_resumable_not_failed(self, tmp_path, hard):
        root = tmp_path / "store"
        service = ReproService(store=ArtifactStore(root), max_workers=1)
        record = submit_hard(service, hard, "interrupt-me")
        assert wait_for_state(service, record.job_id, SEARCHING)
        time.sleep(0.3)  # let the frontier grow past the trivial stage
        service.shutdown(graceful=True, timeout=30.0)
        stopped = service.job(record.job_id)
        assert stopped.state == QUEUED  # resumable, NOT failed
        assert stopped.interruptions == 1
        assert "checkpoint" in stopped.artifacts

        # A fresh service over the same store recovers the queue and
        # resumes from the checkpoint to completion.
        revived = ReproService(store=ArtifactStore(root), max_workers=1)
        try:
            assert revived.stats.recovered == 1
            final = revived.wait(record.job_id, timeout=240)
            assert final.state == FOUND
            # The resumed totals include the interrupted leg's work.
            assert final.result["instructions"] > 0
            fetched = revived.fetch_artifact(record.job_id)
            assert b"esd-execution-file-v1" in fetched
        finally:
            revived.shutdown(graceful=False, timeout=10.0)

    def test_submit_after_shutdown_rejected(self):
        service = ReproService(max_workers=1)
        service.shutdown()
        from repro.api.jobs import JobError

        with pytest.raises(JobError, match="shut down"):
            service.submit(JobSpec(workload="tac"))

    def test_gc_keeps_referenced_artifacts(self, tmp_path):
        service = ReproService(store=ArtifactStore(tmp_path / "s"),
                               max_workers=1)
        try:
            record = service.submit(JobSpec(workload="tac"))
            final = service.wait(record.job_id, timeout=120)
            assert final.state == FOUND
            stray = service.store.put_bytes(b"stray-bytes")
            removed = service.gc()
            assert removed == [stray]
            assert service.fetch_artifact(record.job_id)  # still there
        finally:
            service.shutdown(graceful=False, timeout=10.0)


class TestProgramSharing:
    def test_same_source_shares_a_program_context(self, service):
        workload = get("tac")
        a = service.program_for_source(workload.source, workload.name)
        b = service.program_for_source(workload.source, workload.name)
        assert a is b

    def test_session_from_source_shares_with_wire_jobs(self):
        workload = get("tac")
        service = ReproService(max_workers=1)
        try:
            session = ReproSession.from_source(
                workload.source, workload.name, service=service
            )
            program = service.program_for_source(workload.source,
                                                 workload.name)
            assert session.program is program
        finally:
            service.shutdown(graceful=False, timeout=10.0)


class TestReviewRegressions:
    def test_resubmit_after_recovery_dedupes_without_crash(self, tmp_path):
        """A submission that dedupes onto a record recovered from the store
        (which has no live work entry) must return it, not crash."""
        workload = get("tac")
        report = workload.make_report()
        root = tmp_path / "store"
        first = ReproService(store=ArtifactStore(root), max_workers=1)
        session = ReproSession.from_source(workload.source, workload.name,
                                           service=first)
        record = session.submit(report)
        assert first.wait(record.job_id, timeout=120).state == FOUND
        first.shutdown(graceful=False, timeout=10.0)

        revived = ReproService(store=ArtifactStore(root), max_workers=1)
        try:
            session2 = ReproSession.from_source(workload.source,
                                                workload.name,
                                                service=revived)
            again = session2.submit(report)
            assert again.job_id == record.job_id
            assert again.state == FOUND
            assert revived.fetch_artifact(again.job_id)
        finally:
            revived.shutdown(graceful=False, timeout=10.0)

    def test_session_close_stops_owned_service_threads(self):
        workload = get("tac")
        with ReproSession.from_source(workload.source,
                                      workload.name) as session:
            record = session.submit(workload.make_report())
            assert session.wait(record.job_id, timeout=120).state == FOUND
        # close() ran on exit: the owned service rejects new submissions.
        from repro.api.jobs import JobError

        with pytest.raises(JobError, match="shut down"):
            session.service.submit(JobSpec(workload="tac"))

    def test_terminal_jobs_release_runtime_payloads(self, service):
        record = service.submit(JobSpec(workload="tac"))
        assert service.wait(record.job_id, timeout=120).state == FOUND
        # The record stays for status queries; the heavy runtime payload
        # (spec with source/report) and the cancel event do not.
        assert record.job_id not in service._work
        assert record.job_id not in service._cancels
        assert service.job(record.job_id).state == FOUND

    def test_progress_event_folding_keeps_seq_moving(self):
        from repro.api.jobs import MAX_PROGRESS_EVENTS, JobRecord

        record = JobRecord("j00001-ab", "f" * 64)
        for i in range(MAX_PROGRESS_EVENTS + 50):
            record.add_event("progress", instructions=i)
        assert len(record.events) <= MAX_PROGRESS_EVENTS
        # A `since=<last seen>` poller must keep seeing folded updates.
        seen = record.events[-1].seq
        record.add_event("progress", instructions=10_000)
        assert record.events[-1].seq > seen
        assert record.events[-1].instructions == 10_000


class TestPythonLangJobs:
    """Source jobs carry a `lang` field: the service compiles `.py` text
    through repro.frontend, and Python workloads resolve by name."""

    def test_python_source_job_runs_to_found(self, service):
        workload = get("pyledger")
        record = service.submit(JobSpec(
            report=workload.make_report(),
            source=workload.source,
            program_name="pyledger",
            lang="python",
            config=wide_config(),
        ))
        final = service.wait(record.job_id, timeout=120)
        assert final.state == FOUND
        assert final.result["found"] is True

    def test_python_workload_job_by_name(self, service):
        record = service.submit(JobSpec(workload="pytally",
                                        config=wide_config()))
        final = service.wait(record.job_id, timeout=120)
        assert final.state == FOUND

    def test_lang_round_trips_through_wire_form(self):
        workload = get("pytally")
        spec = JobSpec(report=workload.make_report(),
                       source=workload.source,
                       program_name="pytally", lang="python")
        restored = JobSpec.from_dict(spec.to_dict())
        assert restored.lang == "python"
        assert restored.digest() == spec.digest()

    def test_lang_changes_the_dedup_digest(self):
        workload = get("pytally")
        report = workload.make_report()
        python_spec = JobSpec(report=report, source=workload.source,
                              program_name="pytally", lang="python")
        esd_spec = JobSpec(report=report, source=workload.source,
                           program_name="pytally", lang="esd")
        assert python_spec.digest() != esd_spec.digest()

    def test_unknown_lang_rejected(self):
        from repro.api.jobs import SpecError

        workload = get("pytally")
        spec = JobSpec(report=workload.make_report(),
                       source=workload.source, lang="fortran")
        with pytest.raises(SpecError, match="fortran"):
            spec.validate()
