"""The telemetry subsystem: span tracer, metrics registry, exports, and
the two invariants everything else depends on -- the disabled path is
free on the hot loop, and tracing never changes synthesized artifacts."""

import dataclasses
import gc
import json
import os
import time
import tracemalloc

import pytest

import repro.obs.trace as trace_mod
from repro.api import ReproSession
from repro.api.jobs import FOUND, JobSpec
from repro.cli import repro_main
from repro.core import ESDConfig
from repro.distrib import ParallelExplorer, parallel_supported
from repro.gcpause import collector_stats
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    SearchObserver,
    Tracer,
    check_metrics_document,
    check_trace_document,
    chrome_trace,
    counters_delta,
    load_trace,
    phase_summary,
    unified_registry,
)
from repro.obs.trace import _NULL_CONTEXT
from repro.schema import SchemaVersionError
from repro.service import ReproService
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.solver import Solver
from repro.workloads import get
from repro.workloads.ghttpd import hard_workload

OBS_DIR = os.path.dirname(trace_mod.__file__)


def instant_tracer(**kwargs):
    """A tracer that keeps every record(), however short."""
    tracer = Tracer(**kwargs)
    tracer.min_record_seconds = 0.0
    return tracer


# ---------------------------------------------------------------------------
# Span tree mechanics


class TestSpanTree:
    def test_nesting_and_parent_attribution(self):
        tracer = Tracer()
        outer = tracer.begin("session", "session")
        inner = tracer.begin("job:1", "job")
        assert inner.parent_id == outer.span_id
        leaf = tracer.begin("phase:search", "phase")
        assert leaf.parent_id == inner.span_id
        tracer.finish(leaf)
        sibling = tracer.begin("phase:solve", "phase")
        # After finishing a child, new spans attach to its parent again.
        assert sibling.parent_id == inner.span_id
        tracer.finish(sibling)
        tracer.finish(inner, {"found": True})
        tracer.finish(outer)
        assert inner.attrs["found"] is True
        assert all(not s.open for s in tracer.spans())

    def test_span_context_manager(self):
        tracer = Tracer()
        with tracer.span("session", "session") as outer:
            with tracer.span("phase:static", "phase") as inner:
                assert inner.parent_id == outer.span_id
                assert tracer.current_span_id() == inner.span_id
        assert tracer.current_span_id() == 0
        assert len(tracer) == 2

    def test_record_filters_below_threshold(self):
        tracer = Tracer()
        tracer.min_record_seconds = 0.5
        now = time.perf_counter()
        tracer.record("solver.check", "solver-query", now, now + 0.001)
        assert len(tracer) == 0
        tracer.record("solver.check", "solver-query", now, now + 1.0)
        assert len(tracer) == 1

    def test_mark_records_instant_event(self):
        tracer = Tracer()  # default threshold would drop a 0-length span
        tracer.mark("bug", "bug", {"kind": "buffer-overflow"})
        (span,) = list(tracer.spans())
        assert span.kind == "bug" and span.attrs["kind"] == "buffer-overflow"
        assert span.duration() == 0.0

    def test_max_spans_drop_counter(self):
        tracer = instant_tracer(max_spans=2)
        for i in range(5):
            tracer.finish(tracer.begin(f"s{i}"))
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert tracer.to_document()["dropped"] == 3

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin("x") is None
        tracer.finish(None)  # must accept the None begin() returned
        tracer.record("q", "solver-query", 0.0, 10.0)
        tracer.mark("bug")
        assert len(tracer) == 0
        # span() hands back one shared no-op context manager: nothing is
        # allocated per call on the disabled path.
        assert tracer.span("a") is _NULL_CONTEXT
        assert tracer.span("b") is tracer.span("c")
        with tracer.span("d") as span:
            assert span is None


# ---------------------------------------------------------------------------
# Trace document, Chrome export, phase attribution


class TestTraceDocument:
    def build(self):
        tracer = instant_tracer()
        with tracer.span("session", "session"):
            with tracer.span("job:j1", "job"):
                with tracer.span("phase:search", "phase"):
                    now = time.perf_counter()
                    tracer.record("solver.check", "solver-query",
                                  now, now + 0.001, {"result": "sat"})
        return tracer

    def test_document_round_trip(self, tmp_path):
        doc = self.build().to_document(meta={"program": "demo"})
        check_trace_document(doc)
        assert doc["format"] == "esd-trace-v1"
        assert doc["meta"]["program"] == "demo"
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        loaded = load_trace(str(path))
        assert loaded["spans"] == doc["spans"]

    def test_open_spans_exported_clamped(self):
        tracer = Tracer()
        tracer.begin("session", "session")
        doc = tracer.to_document()
        (entry,) = doc["spans"]
        assert entry["open"] is True
        assert entry["end"] >= entry["start"]
        check_trace_document(doc)

    def test_rejects_wrong_format_and_bad_spans(self):
        with pytest.raises(SchemaVersionError):
            check_trace_document({"format": "esd-metrics-v1",
                                  "schema_version": 1, "spans": []})
        base = {"format": "esd-trace-v1", "schema_version": 1}
        bad_time = dict(base, spans=[{"id": 1, "parent": 0, "name": "x",
                                      "kind": "span", "start": 2.0, "end": 1.0}])
        with pytest.raises(ValueError):
            check_trace_document(bad_time)
        dup = dict(base, spans=[
            {"id": 1, "parent": 0, "name": "x", "kind": "span",
             "start": 0.0, "end": 1.0},
            {"id": 1, "parent": 0, "name": "y", "kind": "span",
             "start": 0.0, "end": 1.0},
        ])
        with pytest.raises(ValueError):
            check_trace_document(dup)

    def test_chrome_trace_events(self):
        doc = self.build().to_document()
        chrome = chrome_trace(doc)
        events = chrome["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == len(doc["spans"])
        assert meta and all(e["name"] == "thread_name" for e in meta)
        by_name = {e["name"]: e for e in complete}
        query = by_name["solver.check"]
        assert query["cat"] == "solver-query"
        assert query["dur"] == pytest.approx(1000.0, rel=0.05)  # microseconds
        assert query["args"]["result"] == "sat"

    def test_phase_summary_attribution(self):
        tracer = instant_tracer()
        epoch = tracer.epoch
        job = tracer.begin("job:j1", "job")
        job.start, job.end = 0.0, 10.0
        for name, t0, t1 in (("phase:static", 0.0, 2.0),
                             ("phase:search", 2.0, 8.0),
                             ("phase:solve", 8.0, 9.5)):
            tracer.record(name, "phase", epoch + t0, epoch + t1)
        tracer.finish(job)
        summary = phase_summary(tracer.to_document())
        assert summary["jobs"] == 1
        assert summary["total_seconds"] == pytest.approx(10.0)
        assert summary["phase_seconds"]["search"] == pytest.approx(6.0)
        assert summary["coverage"] == pytest.approx(0.95)


# ---------------------------------------------------------------------------
# Cross-process transport (pool workers -> master)


class TestDrainIngest:
    def test_drain_returns_only_closed_spans(self):
        tracer = instant_tracer()
        open_span = tracer.begin("job", "job")
        tracer.finish(tracer.begin("phase:search", "phase"))
        shipped = tracer.drain()
        assert [s["name"] for s in shipped] == ["phase:search"]
        assert len(tracer) == 1  # the open job span stays buffered
        tracer.finish(open_span)

    def test_ingest_remaps_ids_and_reparents(self):
        worker = instant_tracer()
        parent = worker.begin("search.quantum", "search-quantum")
        now = time.perf_counter()
        worker.record("solver.check", "solver-query", now, now + 0.002)
        worker.finish(parent)

        master = instant_tracer()
        home = master.begin("phase:search", "phase")
        adopted = master.ingest(worker.drain(), worker=3,
                                parent_id=home.span_id)
        master.finish(home)
        assert adopted == 2
        spans = {s.name: s for s in master.spans()}
        quantum = spans["search.quantum"]
        query = spans["solver.check"]
        # Roots re-home under the master's phase span; the worker-local
        # parent/child edge survives the id remap.
        assert quantum.parent_id == home.span_id
        assert query.parent_id == quantum.span_id
        assert quantum.worker == 3 and query.worker == 3
        assert query.duration() == pytest.approx(0.002, rel=0.2)
        check_trace_document(master.to_document())


# ---------------------------------------------------------------------------
# Metrics registry


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("esd_jobs_total").inc()
        reg.counter("esd_jobs_total").inc(2)  # get-or-create: same object
        reg.gauge("esd_queue_depth").set(4)
        reg.gauge("esd_live", fn=lambda: 7.0)
        hist = reg.histogram("esd_job_seconds")
        hist.observe(0.0004)
        hist.observe(3.0)
        snap = check_metrics_document(reg.snapshot(meta={"tool": "test"}))
        metrics = snap["metrics"]
        assert metrics["esd_jobs_total"] == {"type": "counter", "value": 3}
        assert metrics["esd_queue_depth"]["value"] == 4
        assert metrics["esd_live"]["value"] == 7.0
        h = metrics["esd_job_seconds"]
        assert h["count"] == 2 and h["sum"] == pytest.approx(3.0004)
        assert h["buckets"] == list(DEFAULT_TIME_BUCKETS)
        assert sum(h["counts"]) == 2

    def test_cross_type_name_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("esd_thing")
        with pytest.raises(ValueError):
            reg.gauge("esd_thing")
        with pytest.raises(ValueError):
            reg.histogram("esd_thing")

    def test_bind_stats_sums_instances_and_handles_dicts(self):
        @dataclasses.dataclass
        class FakeStats:
            queries: int = 0
            label: str = "ignored"  # non-numeric fields are skipped

        a, b = FakeStats(queries=3), FakeStats(queries=4)
        reg = MetricsRegistry()
        reg.bind_stats("esd_fake", lambda: [a, b])
        reg.bind_stats("esd_totals", lambda: {"steps": 5, "ok": True})
        metrics = reg.snapshot()["metrics"]
        assert metrics["esd_fake_queries_total"]["value"] == 7
        assert metrics["esd_totals_steps_total"]["value"] == 5
        assert "esd_totals_ok_total" not in metrics  # bools are not counters
        a.queries += 10  # sampled, not copied: next snapshot sees the bump
        assert reg.snapshot()["metrics"]["esd_fake_queries_total"]["value"] == 17

    def test_labeled_bind_stats_keeps_instances_apart(self):
        reg = MetricsRegistry()
        reg.bind_stats("esd_fake", lambda: [{"runs": 3}, {"runs": 4}],
                       help_="fake runs", label="generation")
        metrics = reg.snapshot()["metrics"]
        assert metrics['esd_fake_runs_total{generation="0"}']["value"] == 3
        assert metrics['esd_fake_runs_total{generation="1"}']["value"] == 4
        text = reg.to_prometheus()
        assert text.count("# TYPE esd_fake_runs_total counter") == 1
        assert 'esd_fake_runs_total{generation="1"} 4' in text

    def test_collector_counters_are_sampled_per_generation(self):
        reg = MetricsRegistry()
        reg.bind_stats("esd_gc", collector_stats, label="generation",
                       help_="cyclic garbage collector counters")
        before = reg.snapshot()
        gc.collect()
        delta = counters_delta(reg.snapshot(), before)
        assert delta['esd_gc_collections_total{generation="2"}'] >= 1
        assert 'esd_gc_collected_total{generation="0"}' in delta
        text = reg.to_prometheus()
        assert "# TYPE esd_gc_collections_total counter" in text
        assert "# TYPE esd_gc_collected_total counter" in text

    def test_counters_delta_is_the_interval_api(self):
        solver = Solver()
        reg = unified_registry(solver=solver)
        before = reg.snapshot()
        solver.check([1])
        solver.check([0])
        delta = counters_delta(reg.snapshot(), before)
        assert delta["esd_solver_queries_total"] == 2
        # Deltas ignore gauges/histograms and tolerate counters that are
        # new since the old snapshot.
        assert "esd_solver_cache_hit_rate" not in delta
        assert counters_delta(reg.snapshot(), before)[
            "esd_solver_queries_total"] == 2  # reading never resets anything

    def test_prometheus_rendition(self):
        reg = MetricsRegistry()
        reg.counter("esd_jobs_total", "jobs ever submitted").inc(2)
        reg.gauge("esd_queue_depth").set(1)
        hist = reg.histogram("esd_job_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = reg.to_prometheus()
        assert "# HELP esd_jobs_total jobs ever submitted" in text
        assert "# TYPE esd_jobs_total counter" in text
        assert "esd_jobs_total 2" in text
        assert "esd_queue_depth 1" in text
        # Histogram buckets are cumulative and end at +Inf == count.
        assert 'esd_job_seconds_bucket{le="0.1"} 1' in text
        assert 'esd_job_seconds_bucket{le="1"} 2' in text
        assert 'esd_job_seconds_bucket{le="+Inf"} 3' in text
        assert "esd_job_seconds_count 3" in text

    def test_rejects_wrong_format(self):
        with pytest.raises(SchemaVersionError):
            check_metrics_document({"format": "esd-trace-v1",
                                    "schema_version": 1, "metrics": {}})


# ---------------------------------------------------------------------------
# Session-level tracing: correctness gates from the issue


# Table 1 workloads with deterministic serial artifacts.
IDENTITY_WORKLOADS = ("tac", "paste", "mknod", "mkdir", "mkfifo", "minidb")


class TestSessionTracing:
    def test_traced_synth_emits_valid_trace_with_phase_coverage(self):
        workload = get("paste")
        session = ReproSession(workload.compile(), workers=1, trace=True)
        result = session.synthesize(workload.make_report())
        assert result.found
        doc = session.trace_document()
        check_trace_document(doc)
        kinds = {entry["kind"] for entry in doc["spans"]}
        assert {"session", "job", "phase"} <= kinds
        summary = phase_summary(doc)
        assert summary["jobs"] == 1
        # Acceptance gate: phase spans account for >= 95% of job wall-clock.
        assert summary["coverage"] >= 0.95
        assert {"static", "search", "solve"} <= set(summary["phase_seconds"])

    @pytest.mark.parametrize("name", IDENTITY_WORKLOADS)
    def test_artifacts_byte_identical_traced_vs_untraced(self, name):
        workload = get(name)
        report = workload.make_report()
        # workers=1 pins the serial engine regardless of REPRO_WORKERS:
        # pool first-win nondeterminism is not what this test measures.
        plain = ReproSession(workload.compile(), workers=1).synthesize(report)
        traced_session = ReproSession(workload.compile(), workers=1, trace=True)
        traced = traced_session.synthesize(report)
        assert plain.found and traced.found
        assert (plain.execution_file.canonical_bytes()
                == traced.execution_file.canonical_bytes())
        check_trace_document(traced_session.trace_document())

    def test_untraced_synth_allocates_nothing_in_obs(self):
        """The disabled path on the hot loop: zero allocations attributed
        to the obs package across a whole untraced synthesis."""
        workload = get("mkdir")
        session = ReproSession(workload.compile(), workers=1)  # tracer off
        report = workload.make_report()
        tracemalloc.start()
        try:
            result = session.synthesize(report)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert result.found
        obs_allocs = [
            stat for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename.startswith(OBS_DIR)
        ]
        assert obs_allocs == []

    def test_save_trace_and_metrics_surface(self, tmp_path):
        workload = get("tac")
        session = ReproSession(workload.compile(), workers=1, trace=True)
        assert session.synthesize(workload.make_report()).found
        path = tmp_path / "trace.json"
        session.save_trace(path)
        assert load_trace(str(path))["meta"]["module"] == workload.name
        snap = check_metrics_document(session.metrics())
        assert snap["metrics"]["esd_solver_queries_total"]["value"] > 0


pool_required = pytest.mark.skipif(not parallel_supported(),
                                   reason="parallel pool requires fork")


@pool_required
class TestPoolTracing:
    def test_worker_spans_merge_into_master_trace(self):
        workload = hard_workload(4)
        tracer = Tracer()
        pool = ParallelExplorer(workload.compile(), workload.make_report(),
                                ESDConfig(), workers=2,
                                observer=SearchObserver(tracer=tracer))
        assert pool.run().found
        doc = tracer.to_document()
        check_trace_document(doc)
        workers = {entry.get("worker", -1) for entry in doc["spans"]}
        assert any(w >= 0 for w in workers)  # worker-attributed spans arrived
        kinds = {entry["kind"] for entry in doc["spans"]}
        assert {"job", "phase", "search-quantum"} <= kinds
        # Worker spans re-parented under this trace: every parent reference
        # resolves inside the document.
        ids = {entry["id"] for entry in doc["spans"]}
        roots = [e for e in doc["spans"] if e["parent"] == 0]
        assert all(e["parent"] in ids for e in doc["spans"]
                   if e["parent"] != 0)
        assert len(roots) == 1  # single job root, nothing left dangling


# ---------------------------------------------------------------------------
# Service: /metrics, /healthz, per-job traces under concurrency


@pytest.fixture(scope="module")
def traced_daemon():
    service = ReproService(max_workers=2, trace_jobs=True)
    daemon = ServiceDaemon(service, port=0)
    daemon.start()
    yield daemon
    daemon.stop(graceful=False)


@pytest.fixture(scope="module")
def traced_client(traced_daemon):
    return ServiceClient(traced_daemon.url)


class TestServiceObservability:
    def test_metrics_and_healthz_under_concurrent_jobs(self, traced_client):
        client = traced_client
        jobs = [client.submit(JobSpec(workload=name))["job_id"]
                for name in ("tac", "mkdir", "paste")]
        for job_id in jobs:
            assert client.wait(job_id, timeout=120)["state"] == FOUND

        snap = check_metrics_document(client.metrics())
        metrics = snap["metrics"]
        assert metrics["esd_service_jobs_submitted_total"]["value"] >= 3
        assert metrics["esd_solver_queries_total"]["value"] > 0
        assert metrics["esd_job_seconds"]["count"] >= 3

        text = client.metrics_text()
        for family in ("esd_service_jobs_submitted_total",
                       "esd_service_queue_depth",
                       "esd_solver_queries_total",
                       "esd_job_seconds_bucket",
                       'esd_gc_collections_total{generation="2"}',
                       'esd_gc_collected_total{generation="0"}'):
            assert family in text

        health = client.health()
        assert health["ok"] is True
        assert health["jobs"].get("FOUND", 0) >= 3
        assert health["workers"]["max"] == 2
        assert health["jobs_total"] == sum(health["jobs"].values())

    def test_per_job_trace_artifact(self, traced_client):
        client = traced_client
        job_id = client.submit(JobSpec(workload="mkfifo"))["job_id"]
        record = client.wait(job_id, timeout=120)
        assert record["state"] == FOUND
        assert "trace" in record["artifacts"]
        raw = client.fetch_job_artifact(job_id, kind="trace")
        doc = check_trace_document(json.loads(raw))
        assert doc["meta"]["job_id"] == job_id
        assert phase_summary(doc)["jobs"] == 1


# ---------------------------------------------------------------------------
# CLI verbs and bench schema


class TestCliObservability:
    @pytest.fixture()
    def traced_synth(self, tmp_path):
        workload = get("tac")
        program = tmp_path / "tac.minic"
        program.write_text(workload.source)
        dump = tmp_path / "report.json"
        dump.write_text(json.dumps(workload.make_report().to_dict()))
        trace_path = tmp_path / "trace.json"
        code = repro_main(["synth", str(dump), str(program), "--crash",
                           "-o", str(tmp_path / "exec.json"),
                           "--workers", "1", "--trace", str(trace_path)])
        assert code == 0
        return trace_path, tmp_path

    def test_synth_trace_flag_writes_valid_trace(self, traced_synth):
        trace_path, _ = traced_synth
        doc = load_trace(str(trace_path))
        assert phase_summary(doc)["jobs"] >= 1

    def test_trace_verb_summary_and_chrome(self, traced_synth, capsys):
        trace_path, tmp_path = traced_synth
        assert repro_main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "span(s)" in out and "search" in out

        assert repro_main(["trace", str(trace_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["coverage"] > 0

        chrome_path = tmp_path / "chrome.json"
        assert repro_main(["trace", str(trace_path),
                           "--chrome", str(chrome_path)]) == 0
        chrome = json.loads(chrome_path.read_text())
        assert chrome["traceEvents"]

    def test_trace_verb_rejects_non_trace_file(self, tmp_path, capsys):
        bogus = tmp_path / "not_a_trace.json"
        bogus.write_text(json.dumps({"format": "esd-execution-file-v1"}))
        assert repro_main(["trace", str(bogus)]) == 1
        assert "not a trace" in capsys.readouterr().err

    def test_stats_verb_against_live_daemon(self, traced_daemon, capsys):
        url = traced_daemon.url
        assert repro_main(["stats", "--url", url]) == 0
        assert "esd_solver_queries_total" in capsys.readouterr().out

        assert repro_main(["stats", "--url", url, "--json"]) == 0
        snap = check_metrics_document(json.loads(capsys.readouterr().out))
        assert snap["meta"]["component"] == "service"

        assert repro_main(["stats", "--url", url, "--prometheus"]) == 0
        assert "# TYPE esd_job_seconds histogram" in capsys.readouterr().out

    def test_bench_json_carries_metrics_snapshot(self, capsys):
        assert repro_main(["bench", "--workload", "tac", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        snap = check_metrics_document(data["metrics"])
        queries = snap["metrics"]["esd_solver_queries_total"]["value"]
        assert queries > 0
