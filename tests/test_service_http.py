"""The `repro serve` wire surface: HTTP endpoints, error mapping, the
spool-directory mode, and the CLI client commands against a live daemon."""

import json
import time

import pytest

from repro.api import ReproSession
from repro.api.jobs import CANCELLED, FOUND, SEARCHING, JobSpec
from repro.cli import repro_main
from repro.core import ESDConfig, ExecutionFile
from repro.service import ReproService
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.daemon import ServiceDaemon, _SpoolWatcher
from repro.workloads import get
from repro.workloads.ghttpd import hard_workload


@pytest.fixture(scope="module")
def daemon():
    service = ReproService(max_workers=2)
    daemon = ServiceDaemon(service, port=0)  # ephemeral port
    daemon.start()
    yield daemon
    daemon.stop(graceful=False)


@pytest.fixture(scope="module")
def client(daemon):
    return ServiceClient(daemon.url)


def hard_spec(description="http-hard"):
    # Two-instruction search batches: ghttpd-hard6 then takes seconds to
    # search, so the job is still searching when the test asks for results.
    workload = hard_workload(6)
    report = workload.make_report()
    report.description = description
    config = ESDConfig()
    config.budget.batch_instructions = 2
    config.budget.max_seconds = 300.0
    config.budget.max_instructions = 100_000_000
    return JobSpec(report=report, source=workload.source,
                   program_name=workload.name, config=config)


def wait_for_state(client, job_id, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.job(job_id)["state"] == state:
            return True
        time.sleep(0.02)
    return False


class TestWireApi:
    def test_healthz(self, client):
        health = client.health()
        assert health["ok"] is True
        assert "stats" in health

    def test_submit_poll_fetch_playback_byte_identity(self, client):
        """The CI smoke in test form: submit over HTTP, poll to FOUND,
        fetch the artifact, play it back -- and the bytes match a direct
        in-process synthesis."""
        workload = get("tac")
        report = workload.make_report()
        record = client.submit(JobSpec(workload="tac", report=report))
        final = client.wait(record["job_id"], timeout=120)
        assert final["state"] == FOUND
        fetched = client.fetch_job_artifact(record["job_id"])

        direct = ReproSession(workload.compile(), workers=1).synthesize(report)
        assert fetched == direct.execution_file.canonical_bytes()

        execution = ExecutionFile.from_dict(json.loads(fetched))
        playback = ReproSession(workload.compile()).play_back(execution)
        assert playback.bug_reproduced

    def test_events_endpoint_with_since(self, client):
        record = client.submit(JobSpec(workload="mkdir"))
        client.wait(record["job_id"], timeout=120)
        events = client.events(record["job_id"])
        states = [e["state"] for e in events if e["kind"] == "state"]
        assert states[0] == "QUEUED" and states[-1] == FOUND
        later = client.events(record["job_id"], since=events[0]["seq"])
        assert all(e["seq"] > events[0]["seq"] for e in later)

    def test_dedup_over_http(self, client):
        first = client.submit(JobSpec(workload="mkfifo"))
        second = client.submit(JobSpec(workload="mkfifo"))
        assert second["job_id"] == first["job_id"]

    def test_result_409_before_completion_then_cancel(self, client):
        record = client.submit(hard_spec("result-409"))
        assert wait_for_state(client, record["job_id"], SEARCHING)
        with pytest.raises(ServiceClientError) as err:
            client.result(record["job_id"])
        assert err.value.status == 409
        with pytest.raises(ServiceClientError) as err:
            client.fetch_job_artifact(record["job_id"])
        assert err.value.status == 409
        cancelled = client.cancel(record["job_id"])
        final = client.wait(record["job_id"], timeout=30)
        assert final["state"] == CANCELLED
        assert cancelled["job_id"] == record["job_id"]

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.job("j99999-cafebabe")
        assert err.value.status == 404

    def test_unknown_artifact_404(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.fetch_artifact("0" * 64)
        assert err.value.status == 404

    def test_malformed_spec_400(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.submit({"format": "esd-jobspec-v1", "schema_version": 1,
                           "program": {}})
        assert err.value.status == 400

    def test_unknown_schema_version_400(self, client):
        spec = JobSpec(workload="tac").to_dict()
        spec["schema_version"] = 99
        with pytest.raises(ServiceClientError) as err:
            client.submit(spec)
        assert err.value.status == 400

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceClientError) as err:
            client._json("GET", "/v2/nope")
        assert err.value.status == 404

    def test_job_listing(self, client):
        record = client.submit(JobSpec(workload="tac"))
        jobs = client.jobs()
        assert any(j["job_id"] == record["job_id"] for j in jobs)


class TestSpoolMode:
    def test_spool_roundtrip(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        service = ReproService(max_workers=1)
        daemon = ServiceDaemon(service, port=0, spool_dir=spool)
        daemon.start()
        try:
            (spool / "bug-1.json").write_text(
                json.dumps(JobSpec(workload="tac").to_dict())
            )
            deadline = time.monotonic() + 120
            result_path = spool / "bug-1.result.json"
            while not result_path.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert result_path.exists(), "spool job never produced a result"
            record = json.loads(result_path.read_text())
            assert record["state"] == FOUND
            assert (spool / "bug-1.json.submitted").exists()
            assert not (spool / "bug-1.json").exists()
        finally:
            daemon.stop(graceful=False)

    def test_spool_rejects_malformed_spec(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        service = ReproService(max_workers=1)
        daemon = ServiceDaemon(service, port=0, spool_dir=spool)
        daemon.start()
        try:
            (spool / "broken.json").write_text("{not json")
            deadline = time.monotonic() + 30
            error_path = spool / "broken.error.json"
            while not error_path.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert error_path.exists()
            assert "error" in json.loads(error_path.read_text())
            assert (spool / "broken.json.rejected").exists()
        finally:
            daemon.stop(graceful=False)

    def test_spool_waits_for_a_half_written_spec(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        service = ReproService(max_workers=1)
        watcher = _SpoolWatcher(service, spool)
        try:
            text = json.dumps(JobSpec(workload="tac").to_dict())
            path = spool / "bug-1.json"
            path.write_text(text[: len(text) // 2])
            watcher._scan_once()
            assert path.exists(), "a half-written spec was taken"
            assert not (spool / "bug-1.json.rejected").exists()

            path.write_text(text)
            watcher._scan_once()
            assert (spool / "bug-1.json.submitted").exists()
            assert not (spool / "bug-1.error.json").exists()
        finally:
            service.shutdown(graceful=False)

    def test_spool_rejects_a_spec_unreadable_twice_unchanged(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        service = ReproService(max_workers=1)
        watcher = _SpoolWatcher(service, spool)
        try:
            (spool / "broken.json").write_text("{not json")
            watcher._scan_once()
            assert (spool / "broken.json").exists()
            watcher._scan_once()
            assert (spool / "broken.json.rejected").exists()
            assert (spool / "broken.error.json").exists()
        finally:
            service.shutdown(graceful=False)


class TestCliClientCommands:
    def test_submit_status_fetch_play(self, daemon, tmp_path, capsys):
        workload = get("tac")
        program = tmp_path / "tac.minic"
        program.write_text(workload.source)
        dump = tmp_path / "report.json"
        dump.write_text(json.dumps(workload.make_report().to_dict()))
        out = tmp_path / "fetched.json"

        code = repro_main([
            "submit", str(dump), str(program), "--url", daemon.url,
            "--wait", "--json",
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["state"] == FOUND

        assert repro_main(["status", record["job_id"], "--url",
                           daemon.url]) == 0
        assert "FOUND" in capsys.readouterr().out

        assert repro_main(["status", "--url", daemon.url]) == 0
        assert record["job_id"] in capsys.readouterr().out

        assert repro_main(["fetch", record["job_id"], "--url", daemon.url,
                           "-o", str(out)]) == 0
        capsys.readouterr()
        assert repro_main(["play", str(program), str(out)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_submit_workload_by_name(self, daemon, capsys):
        code = repro_main([
            "submit", "--workload", "mknod", "--url", daemon.url,
            "--wait", "--json",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["state"] == FOUND

    def test_submit_needs_a_program(self, daemon, capsys):
        assert repro_main(["submit", "--url", daemon.url]) == 2
        assert "coredump and a program" in capsys.readouterr().err

    def test_client_error_paths_exit_nonzero(self, daemon, tmp_path, capsys):
        assert repro_main(["fetch", "j00000-nope", "--url",
                           daemon.url]) == 1
        assert "404" in capsys.readouterr().err
        assert repro_main(["status", "j00000-nope", "--url",
                           daemon.url]) == 1

    def test_unreachable_service(self, capsys, tmp_path):
        assert repro_main(["status", "--url",
                           "http://127.0.0.1:1"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestSpoolDedup:
    def test_identical_spool_files_each_get_a_result(self, tmp_path):
        """Two spec files with identical content dedupe to one job, but
        both promised .result.json files must be written."""
        spool = tmp_path / "spool"
        spool.mkdir()
        service = ReproService(max_workers=1)
        daemon = ServiceDaemon(service, port=0, spool_dir=spool)
        daemon.start()
        try:
            spec = json.dumps(JobSpec(workload="tac").to_dict())
            (spool / "first.json").write_text(spec)
            (spool / "second.json").write_text(spec)
            deadline = time.monotonic() + 120
            wanted = [spool / "first.result.json",
                      spool / "second.result.json"]
            while (not all(p.exists() for p in wanted)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert all(p.exists() for p in wanted)
            first = json.loads(wanted[0].read_text())
            second = json.loads(wanted[1].read_text())
            assert first["job_id"] == second["job_id"]  # deduped
            assert first["state"] == FOUND
        finally:
            daemon.stop(graceful=False)

    def test_spool_result_survives_daemon_restart(self, tmp_path, monkeypatch):
        """A spec already renamed to .submitted whose result was never
        written is re-adopted by a restarted daemon (dedupe onto the
        recovered job) and still gets its .result.json.

        Deterministic by construction: the first daemon's search is gated
        on the service's own graceful-shutdown interrupt, so the stop is
        guaranteed to land mid-search regardless of machine speed -- no
        heavyweight workload racing a wall-clock poll."""
        import threading

        from repro.service import service as service_module
        from repro.store import ArtifactStore

        spool = tmp_path / "spool"
        spool.mkdir()
        root = tmp_path / "store"
        spec = json.dumps(JobSpec(workload="tac").to_dict())
        (spool / "slow.json").write_text(spec)

        service = ReproService(store=ArtifactStore(root), max_workers=1)
        real_search = service_module.search_from_setup
        search_entered = threading.Event()

        def gated_search(module, setup, config, **kwargs):
            # First (and only) search of the first daemon: report in, then
            # hold until shutdown(graceful=True) raises the interrupt flag.
            # The engine then observes should_stop() on its very first pick
            # and the job re-queues as resumable.
            if not search_entered.is_set():
                search_entered.set()
                service._interrupt.wait(timeout=60)
            return real_search(module, setup, config, **kwargs)

        monkeypatch.setattr(service_module, "search_from_setup", gated_search)
        daemon = ServiceDaemon(service, port=0, spool_dir=spool)
        daemon.start()
        assert search_entered.wait(timeout=60), "job never reached the search"
        deadline = time.monotonic() + 30
        while (not (spool / "slow.json.submitted").exists()
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert (spool / "slow.json.submitted").exists()
        daemon.stop(graceful=True)  # mid-search: job re-queues as resumable
        assert not (spool / "slow.result.json").exists()

        monkeypatch.setattr(service_module, "search_from_setup", real_search)
        revived = ReproService(store=ArtifactStore(root), max_workers=1)
        daemon2 = ServiceDaemon(revived, port=0, spool_dir=spool)
        daemon2.start()
        try:
            deadline = time.monotonic() + 120
            result = spool / "slow.result.json"
            while not result.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert result.exists(), "restarted daemon never wrote the result"
            assert json.loads(result.read_text())["state"] == FOUND
        finally:
            daemon2.stop(graceful=False)
