"""The ``repro serve`` daemon: ReproService over stdlib HTTP + a spool dir.

Wire API (all JSON; no dependencies beyond :mod:`http.server`)::

    GET  /healthz                   liveness, queue depth, worker states
    GET  /metrics                   Prometheus text exposition (0.0.4)
    GET  /v1/metrics                esd-metrics-v1 JSON snapshot
    POST /v1/jobs                   submit a JobSpec document
    GET  /v1/jobs                   list job records
    GET  /v1/jobs/<id>              one job record
    GET  /v1/jobs/<id>/events       lifecycle/progress events (?since=SEQ)
    GET  /v1/jobs/<id>/stream       live server-sent events (?since=SEQ)
    GET  /v1/jobs/<id>/result       terminal record (409 while in flight)
    POST /v1/jobs/<id>/cancel       cancel queued or running
    GET  /v1/artifacts/<digest>     raw artifact bytes by store digest

``/stream`` wire format (SSE, ``text/event-stream``): each job event is
one frame -- an ``event:`` line naming the event kind (``state``,
``progress``, ``flight``, ...), a ``data:`` line carrying the event
record as compact JSON (including its ``seq``), and a blank line.
``?since=SEQ`` starts past already-seen events, exactly as on
``/events``; ``?heartbeat=SECS`` (default 10) bounds the quiet interval
with ``: heartbeat`` comment frames so client read timeouts never fire
mid-job.  The stream always terminates with an ``event: done`` frame
whose data is the terminal job record, then the connection closes
(``Connection: close`` delimits the stream; there is no Content-Length).
``repro status JOB --follow`` and :meth:`ServiceClient.stream` consume
exactly this.

Spool mode watches a directory for ``*.json`` job-spec files -- the
scriptable, no-HTTP integration path: drop ``fix-1042.json`` in, the file
is submitted and renamed to ``fix-1042.json.submitted``, and the terminal
record appears as ``fix-1042.result.json`` next to it.

:class:`ServiceDaemon` owns the HTTP thread and the spool watcher;
``stop()`` (what the CLI's SIGTERM/SIGINT handlers call) shuts the listener
down and drains the service gracefully -- in-flight jobs checkpoint their
frontiers and re-queue as resumable, never FAILED.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..api.jobs import (
    TERMINAL_STATES,
    JobError,
    JobSpec,
    ResultNotReadyError,
    SpecError,
    UnknownJobError,
)
from ..schema import SchemaVersionError, atomic_write_text
from ..store import UnknownArtifactError
from .service import ReproService

__all__ = ["ServiceDaemon"]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"

    # -- plumbing -------------------------------------------------------------

    @property
    def service(self) -> ReproService:
        return self.server.repro_service

    def log_message(self, fmt, *args):  # noqa: D102 -- quiet by default
        if self.server.repro_verbose:
            super().log_message(fmt, *args)

    def _send_json(self, payload, status: int = 200) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length) if length else b""
        try:
            data = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, ValueError) as exc:
            raise SpecError(f"request body is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SpecError("request body must be a JSON object")
        return data

    # -- routing --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 -- http.server naming
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def _route(self, method: str) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        try:
            self._dispatch(method, parts, query)
        except UnknownJobError as exc:
            self._send_error_json(404, str(exc))
        except UnknownArtifactError as exc:
            self._send_error_json(404, str(exc))
        except ResultNotReadyError as exc:
            self._send_error_json(409, str(exc))
        except (SpecError, SchemaVersionError) as exc:
            self._send_error_json(400, str(exc))
        except JobError as exc:
            self._send_error_json(503, str(exc))
        except BrokenPipeError:  # client went away mid-reply
            pass
        except Exception as exc:  # noqa: BLE001 -- daemon must not die
            self._send_error_json(500, f"internal error: {exc}")

    def _dispatch(self, method: str, parts: list[str], query: dict) -> None:
        if method == "GET" and parts == ["healthz"]:
            payload = self.service.health()
            payload["jobs_total"] = sum(payload["jobs"].values())
            self._send_json(payload)
            return
        if method == "GET" and parts == ["metrics"]:
            body = self.service.prometheus_text().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if method == "GET" and parts == ["v1", "metrics"]:
            self._send_json(self.service.metrics_snapshot())
            return
        if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "jobs":
            self._dispatch_jobs(method, parts[2:], query)
            return
        if (method == "GET" and len(parts) == 3 and parts[0] == "v1"
                and parts[1] == "artifacts"):
            data = self.service.store.get_bytes(parts[2])
            kind = self.service.store.kind(parts[2])
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.send_header("X-Repro-Artifact-Kind", kind)
            self.end_headers()
            self.wfile.write(data)
            return
        self._send_error_json(404, f"no route {method} {self.path}")

    def _dispatch_jobs(self, method: str, rest: list[str],
                       query: dict) -> None:
        service = self.service
        if not rest:
            if method == "POST":
                spec = JobSpec.from_dict(self._read_body())
                record = service.submit(spec)
                # describe(): serialize under the service lock -- a
                # scheduler thread may already be mutating the record.
                self._send_json({"job": service.describe(record.job_id)},
                                status=202)
            elif method == "GET":
                self._send_json({"jobs": service.describe_all()})
            else:
                self._send_error_json(405, "method not allowed")
            return
        job_id = rest[0]
        action = rest[1] if len(rest) > 1 else None
        if method == "GET" and action is None:
            self._send_json(service.describe(job_id))
        elif method == "GET" and action == "events":
            since = int(query.get("since", ["0"])[0])
            self._send_json({"events": service.events(job_id, since=since)})
        elif method == "GET" and action == "stream":
            since = int(query.get("since", ["0"])[0])
            heartbeat = float(query.get("heartbeat", ["10"])[0])
            self._stream_events(job_id, since, heartbeat)
        elif method == "GET" and action == "result":
            self._send_json(service.result(job_id).to_dict())
        elif method == "POST" and action == "cancel":
            service.cancel(job_id)
            self._send_json(service.describe(job_id))
        else:
            self._send_error_json(404, f"no route {method} {self.path}")

    # -- server-sent events ----------------------------------------------------

    def _write_sse(self, event: str, data: dict) -> None:
        payload = json.dumps(data, separators=(",", ":"))
        self.wfile.write(f"event: {event}\ndata: {payload}\n\n".encode("utf-8"))
        self.wfile.flush()

    def _stream_events(self, job_id: str, since: int,
                       heartbeat: float) -> None:
        """``GET /v1/jobs/<id>/stream``: the ``?since=`` event feed as a
        live ``text/event-stream``.

        Each job event becomes one SSE frame (``event:`` is the job-event
        kind, ``data:`` the JSON event); comment frames (``: heartbeat``)
        keep idle connections alive, and a final ``done`` frame carrying
        the job record ends the stream when the job turns terminal.  SSE
        has no Content-Length, so the response closes the connection to
        delimit the stream (``Connection: close``).
        """
        service = self.service
        service.describe(job_id)  # 404s before headers go out
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        poll = min(0.2, heartbeat)
        last_write = time.monotonic()
        try:
            while True:
                events = service.events(job_id, since=since)
                for event in events:
                    since = max(since, int(event.get("seq", since)))
                    self._write_sse(event.get("kind") or "message", event)
                record = service.describe(job_id)
                if record["state"] in TERMINAL_STATES:
                    self._write_sse("done", record)
                    return
                if events:
                    last_write = time.monotonic()
                elif time.monotonic() - last_write >= heartbeat:
                    self.wfile.write(b": heartbeat\n\n")
                    self.wfile.flush()
                    last_write = time.monotonic()
                time.sleep(poll)
        except (BrokenPipeError, ConnectionResetError):
            pass  # follower went away; nothing to clean up


class _SpoolWatcher(threading.Thread):
    """Polls a directory for job-spec files; writes terminal records back."""

    def __init__(self, service: ReproService, directory: Path,
                 interval: float = 0.25) -> None:
        super().__init__(daemon=True, name="repro-spool")
        self.service = service
        self.directory = Path(directory)
        self.interval = interval
        # Not `_stop`: that name is a threading.Thread internal.
        self._stop_spool = threading.Event()
        # job_id -> pending .result.json paths.  A list: two spec files
        # with identical content dedupe to one job, and each file's
        # promised result must still be written.
        self._pending: dict[str, list[Path]] = {}
        # Spec name -> (size, mtime) of the last scan's failed read: a spec
        # that does not parse may still be being written.
        self._unreadable: dict[str, tuple[int, int]] = {}

    def stop(self) -> None:
        self._stop_spool.set()

    def run(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        self._recover_submitted()
        while not self._stop_spool.is_set():
            self._scan_once()
            self._flush_results()
            self._stop_spool.wait(self.interval)
        # One final flush so jobs that finished during shutdown still get
        # their result files.
        self._flush_results()

    def _recover_submitted(self) -> None:
        """Re-adopt ``.submitted`` files whose result was never written: a
        restarted daemon must still honor the drop-a-spec-get-a-result
        contract.  Re-submitting the spec dedupes onto the recovered job
        (or its terminal record), so no work is redone."""
        for path in sorted(self.directory.glob("*.json.submitted")):
            stem = path.name[: -len(".json.submitted")]
            if (self.directory / (stem + ".result.json")).exists():
                continue
            try:
                spec = JobSpec.from_dict(json.loads(path.read_text()))
                record = self.service.submit(spec)
            except (OSError, ValueError, JobError, SchemaVersionError):
                continue  # was rejected before; leave the error file story
            self._pending.setdefault(record.job_id, []).append(
                self.directory / (stem + ".result.json")
            )

    def _scan_once(self) -> None:
        """Submit every spec file in the directory.

        A spec that fails to parse is left alone: it may be half written.
        It is rejected only when two scans in a row fail to read it at the
        same size and mtime.
        """
        unreadable: dict[str, tuple[int, int]] = {}
        for path in sorted(self.directory.glob("*.json")):
            name = path.name
            if name.endswith(".result.json") or name.endswith(".error.json"):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # gone since the listing
            try:
                spec = JobSpec.from_dict(json.loads(path.read_text()))
            except (OSError, ValueError, JobError, SchemaVersionError) as exc:
                seen = (stat.st_size, stat.st_mtime_ns)
                if self._unreadable.get(name) == seen:
                    self._reject(path, exc)
                else:
                    unreadable[name] = seen
                continue
            try:
                record = self.service.submit(spec)
            except (ValueError, JobError, SchemaVersionError) as exc:
                self._reject(path, exc)
                continue
            path.rename(path.with_name(name + ".submitted"))
            self._pending.setdefault(record.job_id, []).append(
                self.directory / (path.stem + ".result.json")
            )
        self._unreadable = unreadable

    def _reject(self, path: Path, exc: Exception) -> None:
        path.rename(path.with_name(path.name + ".rejected"))
        error_path = self.directory / (path.stem + ".error.json")
        # Atomic, like results: a client polling for the file must never
        # read it half-written.
        atomic_write_text(error_path, json.dumps({
            "file": path.name, "error": str(exc),
        }, indent=2))

    def _flush_results(self) -> None:
        for job_id, targets in list(self._pending.items()):
            record = self.service.describe(job_id)
            if record["state"] not in TERMINAL_STATES:
                continue
            for target in targets:
                atomic_write_text(target, json.dumps(record, indent=2))
            del self._pending[job_id]


class ServiceDaemon:
    """The HTTP listener + optional spool watcher around one service."""

    def __init__(
        self,
        service: ReproService,
        host: str = "127.0.0.1",
        port: int = 8377,
        *,
        spool_dir=None,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.repro_service = service
        self.httpd.repro_verbose = verbose
        self.spool = (
            _SpoolWatcher(service, Path(spool_dir))
            if spool_dir is not None else None
        )
        self._http_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True, name="repro-http",
        )
        self._http_thread.start()
        if self.spool is not None:
            self.spool.start()

    def request_stop(self) -> None:
        """Signal-handler safe: ask :meth:`run` to wind down."""
        self._stop.set()

    def stop(self, graceful: bool = True) -> None:
        """Stop listening and drain the service (graceful = checkpoint and
        re-queue in-flight jobs instead of failing them)."""
        self._stop.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        if self.spool is not None:
            self.spool.stop()
        self.service.shutdown(graceful=graceful)
        if self.spool is not None:
            self.spool.join(timeout=5.0)
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)

    def run(self) -> None:
        """Serve until :meth:`request_stop` (the CLI wires SIGTERM/SIGINT
        to it), then shut down gracefully."""
        self.start()
        while not self._stop.is_set():
            self._stop.wait(0.2)
        self.stop(graceful=True)
