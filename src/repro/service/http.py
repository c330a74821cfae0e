"""HTTP front end of the design service (stdlib ``http.server``).

A thin JSON API over :class:`~repro.service.scheduler.JobScheduler` and
:class:`~repro.service.store.ArtifactStore`.  The API is versioned
under ``/v1``:

========  ==================================  =============================
method    path                                semantics
========  ==================================  =============================
GET       ``/v1/healthz``                     liveness + package version
GET       ``/v1/readyz``                      readiness (pool warm, store
                                              writable, not draining)
GET       ``/v1/metrics``                     Prometheus text exposition
GET       ``/v1/events``                      flight recorder as SSE
POST      ``/v1/jobs``                        submit a design request
GET       ``/v1/jobs``                        list known jobs
GET       ``/v1/jobs/<id>``                   one job's status/summary
GET       ``/v1/jobs/<id>/trace``             merged worker span tree
DELETE    ``/v1/jobs/<id>``                   cancel a queued/running job
GET       ``/v1/artifacts/<digest>``          entry manifest
GET       ``/v1/artifacts/<digest>/<name>``   one artifact's bytes
========  ==================================  =============================

Every request is a span in a distributed trace: an incoming W3C
``traceparent`` header is continued (the client's trace id is kept), a
missing or invalid one starts a fresh trace, and every response --
success or error -- carries ``traceparent`` and ``X-Repro-Trace-Id``
response headers.  ``POST /v1/jobs`` threads the trace id through the
scheduler into the pool worker, so the job document, the worker's span
tree (``GET /v1/jobs/<id>/trace``) and every structured log line share
the request's trace id.

A path outside ``/v1`` answers 404.  Job documents are stamped with
``schema_version`` (:data:`~repro.service.scheduler.JOB_SCHEMA_VERSION`)
and the stored ``result.json`` carries the structured design report
(:data:`~repro.flow.reporting.REPORT_SCHEMA_VERSION`).

``POST /v1/jobs`` accepts ``{"specification": <benchmark name | Verilog
source>, "name": ..., "options": {flow knobs}, "priority": int,
"timeout": seconds}`` and answers with the job record -- immediately
``done`` (``cache_hit: true``) when the artifact store already holds
the digest.  When the scheduler's admission queue is full the response
is **429** with a ``Retry-After`` header (backlog-derived estimate in
seconds); clients should back off and resubmit -- the request was not
admitted.  A draining or stopped service answers 503.  Artifact reads
are integrity-verified against the entry manifest before a single byte
is served.

The server is a ``ThreadingHTTPServer``: many clients poll and fetch
concurrently while the scheduler's process pool does the heavy work.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import repro
from repro import obs
from repro.obs import log as obs_log
from repro.obs.export import Exposition
from repro.obs.tracing import continue_trace
from repro.service.digest import UncacheableConfigurationError
from repro.service.scheduler import (
    DEFAULT_RETAIN_JOBS,
    DONE,
    JobScheduler,
    QueueFullError,
)
from repro.service.store import (
    ARTIFACT_SQD,
    SERVABLE_ARTIFACTS,
    ArtifactStore,
)
from repro.service.telemetry import (
    HttpMetrics,
    TelemetrySampler,
    route_pattern,
)

#: Default TCP port of ``repro serve`` (pass 0 for an ephemeral port).
DEFAULT_PORT = 8724

#: Path prefix of the current (and only) stable API version.
API_PREFIX = "/v1"

_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")
_JOB_PATH_RE = re.compile(r"^/v1/jobs/([A-Za-z0-9-]+)$")
_JOB_TRACE_PATH_RE = re.compile(r"^/v1/jobs/([A-Za-z0-9-]+)/trace$")
_ARTIFACT_PATH_RE = re.compile(
    r"^/v1/artifacts/([0-9a-f]{64})(?:/([A-Za-z0-9._-]+))?$"
)

_LOG = obs_log.get_logger("service.http")

#: Seconds between flight-recorder polls while streaming ``/v1/events``.
_SSE_POLL_SECONDS = 0.2

#: Idle seconds between SSE keepalive comments.
_SSE_KEEPALIVE_SECONDS = 5.0

#: Retained events replayed to a new ``/v1/events`` subscriber by
#: default (override with ``?replay=N``).
_SSE_DEFAULT_REPLAY = 16

_CONTENT_TYPES = {
    ".sqd": "application/xml; charset=utf-8",
    ".json": "application/json; charset=utf-8",
    ".v": "text/plain; charset=utf-8",
}

#: Upper bound on accepted request bodies (a Verilog file is tiny).
_MAX_BODY_BYTES = 8 * 1024 * 1024


def _resolve_specification(specification: str) -> tuple[str, str | None]:
    """(verilog text, name hint) from a request's specification field.

    Inline Verilog passes through; anything else is resolved as a
    benchmark name.  File paths are deliberately *not* resolved here --
    the HTTP server must not read arbitrary server-side files on a
    client's behalf.
    """
    if "\n" in specification or "module" in specification:
        return specification, None
    from repro.networks import BENCHMARK_NAMES, benchmark_verilog

    if specification in BENCHMARK_NAMES:
        return benchmark_verilog(specification), specification
    raise ValueError(
        f"'{specification}' is neither Verilog source nor a benchmark "
        f"(known: {', '.join(sorted(BENCHMARK_NAMES))})"
    )


def _configuration_from_options(options: dict):
    """A FlowConfiguration from a request's ``options`` object."""
    from repro.defects.model import SidbDefect, SurfaceDefects
    from repro.flow.design_flow import FlowConfiguration
    from repro.tech.design_rules import DesignRules

    options = dict(options)
    defects = options.pop("defects", None)
    if defects is not None:
        options["defects"] = SurfaceDefects(
            SidbDefect.from_dict(record) for record in defects
        )
    rules = options.pop("design_rules", None)
    if rules is not None:
        options["design_rules"] = DesignRules(**rules)
    return FlowConfiguration(**options)


class _ServiceHandler(BaseHTTPRequestHandler):
    server_version = "repro-service"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> "DesignService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        if self.service.verbose:
            super().log_message(format, *args)

    # --- per-request tracing / logging / metrics -----------------------
    def send_response(self, code: int, message: str | None = None) -> None:
        # Stamp the request's trace on *every* response -- success,
        # error, and the stdlib's own send_error() path all funnel
        # through here before end_headers().
        super().send_response(code, message)
        self._status = code
        trace = getattr(self, "_trace", None)
        if trace is not None:
            self.send_header("traceparent", trace.to_traceparent())
            self.send_header("X-Repro-Trace-Id", trace.trace_id)

    def _handle(self, method: str, inner) -> None:
        """Run one request with trace context, timing, logs, metrics."""
        self._trace = continue_trace(self.headers.get("traceparent"))
        self._status = 0
        started = time.monotonic()
        route = route_pattern(self.path)
        with obs_log.bind(trace_id=self._trace.trace_id):
            try:
                inner()
            finally:
                elapsed = time.monotonic() - started
                status = self._status or 500
                self.service.http_metrics.record(
                    method, route, status, elapsed
                )
                _LOG.info(
                    "request",
                    method=method,
                    path=self.path.split("?", 1)[0],
                    route=route,
                    status=status,
                    duration_seconds=round(elapsed, 6),
                )

    # --- helpers -------------------------------------------------------
    def _route(self) -> str:
        """The request path without query string or trailing slash.

        Every route lives under ``/v1``; any other path falls through
        to the 404 branch.
        """
        return self.path.split("?", 1)[0].rstrip("/") or "/"

    def _send_json(
        self,
        document: dict,
        status: int = 200,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(document, indent=1, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self,
        status: int,
        message: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send_json({"error": message}, status=status, headers=headers)

    def _send_job_404(self, job_id: str) -> None:
        if self.service.scheduler.evicted(job_id):
            self._send_error_json(
                404,
                f"job {job_id!r} has been evicted from the retained "
                f"history (bounded retention)",
            )
        else:
            self._send_error_json(404, f"no job {job_id!r}")

    def _read_body(self) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if not 0 < length <= _MAX_BODY_BYTES:
            self._send_error_json(400, "missing or oversized request body")
            return None
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_error_json(400, "request body is not valid JSON")
            return None

    def _job_document(self, job) -> dict:
        document = job.to_dict()
        if job.status == DONE:
            prefix = f"{API_PREFIX}/artifacts/{job.digest}"
            document["artifacts"] = {
                "manifest": prefix,
                "sqd": f"{prefix}/{ARTIFACT_SQD}",
            }
        return document

    # --- GET -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._handle("GET", self._do_get)

    def _do_get(self) -> None:
        path = self._route()
        if path == "/v1/healthz":
            self._send_json(
                {
                    "status": "ok",
                    "version": repro.package_version(),
                    "scheduler": self.service.scheduler.stats(),
                    "store": self.service.store.stats(),
                }
            )
        elif path == "/v1/readyz":
            self._get_readyz()
        elif path == "/v1/metrics":
            text = self.service.metrics_prometheus()
            body = text.encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif path == "/v1/events":
            self._get_events()
        elif path == "/v1/jobs":
            self._send_json(
                {
                    "jobs": [
                        self._job_document(job)
                        for job in self.service.scheduler.jobs()
                    ]
                }
            )
        elif match := _JOB_TRACE_PATH_RE.match(path):
            self._get_job_trace(match.group(1))
        elif match := _JOB_PATH_RE.match(path):
            job = self.service.scheduler.job(match.group(1))
            if job is None:
                self._send_job_404(match.group(1))
            else:
                self._send_json(self._job_document(job))
        elif match := _ARTIFACT_PATH_RE.match(path):
            self._get_artifact(match.group(1), match.group(2))
        else:
            self._send_error_json(404, f"unknown path {path!r}")

    def _query(self) -> dict[str, list[str]]:
        return parse_qs(urlsplit(self.path).query)

    def _get_readyz(self) -> None:
        """Readiness, as distinct from liveness: a live service that is
        draining, shutting down, or cannot persist artifacts must be
        taken out of load-balancer rotation while ``/healthz`` stays
        green for the process supervisor."""
        stats = self.service.scheduler.stats()
        store_writable = os.access(self.service.store.root, os.W_OK)
        reasons = []
        if self.service.closing:
            reasons.append("service is shutting down")
        if stats["draining"]:
            reasons.append("scheduler is draining")
        if not store_writable:
            reasons.append("artifact store is not writable")
        document = {
            "ready": not reasons,
            "reasons": reasons,
            "pool": {
                "workers": stats["workers"],
                "workers_alive": stats["workers_alive"],
                # Workers spawn lazily on first dispatch, so an idle
                # empty pool is still "warm enough" to be ready.
                "warm": stats["workers_alive"] > 0
                or stats["inflight"] == 0,
            },
            "store_writable": store_writable,
        }
        self._send_json(document, status=200 if not reasons else 503)

    def _get_job_trace(self, job_id: str) -> None:
        """The merged worker span tree captured for one job."""
        scheduler = self.service.scheduler
        job = scheduler.job(job_id)
        if job is None:
            self._send_job_404(job_id)
            return
        if not job.finished:
            self._send_error_json(
                409,
                f"job {job_id!r} is {job.status}; its trace is available "
                f"once it finishes",
            )
            return
        span = scheduler.job_trace(job_id)
        if span is None:
            if job.cache_hit:
                message = (
                    f"job {job_id!r} was a cache hit; nothing executed, "
                    f"no trace captured"
                )
            else:
                message = (
                    f"no trace captured for job {job_id!r} (the worker "
                    f"did not ship a span)"
                )
            self._send_error_json(404, message)
            return
        fmt = self._query().get("format", ["json"])[0]
        if fmt == "chrome":
            body = obs.to_chrome_trace(span).encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "application/json; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif fmt == "json":
            self._send_json(
                {
                    "job_id": job.id,
                    "trace_id": job.trace_id,
                    "status": job.status,
                    "span": span.to_dict(),
                }
            )
        else:
            self._send_error_json(
                400, f"unknown trace format {fmt!r} (know: json, chrome)"
            )

    def _get_events(self) -> None:
        """Stream the flight recorder as server-sent events.

        ``?replay=N`` replays up to N retained events first (default
        16), ``?max_events=N`` closes the stream after N events, and
        ``?timeout_seconds=S`` closes it after S seconds.  The response
        is ``Connection: close`` -- an event stream has no
        Content-Length, so under HTTP/1.1 the connection cannot be
        reused.
        """
        query = self._query()
        try:
            replay = int(query.get("replay", [str(_SSE_DEFAULT_REPLAY)])[0])
            max_events = (
                int(query["max_events"][0]) if "max_events" in query else None
            )
            timeout_seconds = (
                float(query["timeout_seconds"][0])
                if "timeout_seconds" in query
                else None
            )
        except ValueError:
            self._send_error_json(
                400,
                "replay/max_events must be integers, timeout_seconds "
                "a number",
            )
            return
        ring = obs.event_ring()
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True

        cursor = max(0, ring.sequence - max(0, replay))
        deadline = (
            time.monotonic() + timeout_seconds
            if timeout_seconds is not None
            else None
        )
        sent = 0
        last_write = time.monotonic()
        try:
            while True:
                events, cursor = ring.since(cursor)
                for event in events:
                    payload = json.dumps(
                        {
                            "name": event.name,
                            "timestamp": event.timestamp,
                            "attributes": event.attributes,
                        },
                        sort_keys=True,
                        default=str,
                    )
                    self.wfile.write(
                        f"event: {event.name}\ndata: {payload}\n\n".encode(
                            "utf-8"
                        )
                    )
                    last_write = time.monotonic()
                    sent += 1
                    if max_events is not None and sent >= max_events:
                        self.wfile.flush()
                        return
                self.wfile.flush()
                now = time.monotonic()
                if self.service.closing:
                    return
                if deadline is not None and now >= deadline:
                    return
                if now - last_write >= _SSE_KEEPALIVE_SECONDS:
                    # Comment line: ignored by EventSource parsers but
                    # keeps intermediaries from timing the stream out.
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    last_write = now
                time.sleep(_SSE_POLL_SECONDS)
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # subscriber went away

    def _get_artifact(self, digest: str, name: str | None) -> None:
        store = self.service.store
        if name is None:
            manifest = store.manifest(digest)
            if manifest is None:
                self._send_error_json(404, f"no artifact entry {digest}")
            else:
                self._send_json(manifest)
            return
        if name not in SERVABLE_ARTIFACTS:
            self._send_error_json(
                404,
                f"unknown artifact {name!r} "
                f"(know: {', '.join(SERVABLE_ARTIFACTS)})",
            )
            return
        data = store.read_artifact(digest, name)
        if data is None:
            self._send_error_json(
                404, f"artifact {name!r} not stored for {digest}"
            )
            return
        content_type = _CONTENT_TYPES.get(
            Path(name).suffix, "application/octet-stream"
        )
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    # --- POST ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST", self._do_post)

    def _do_post(self) -> None:
        path = self._route()
        if path != "/v1/jobs":
            self._send_error_json(404, f"unknown path {path!r}")
            return
        body = self._read_body()
        if body is None:
            return
        specification = body.get("specification")
        if not isinstance(specification, str) or not specification:
            self._send_error_json(
                400, "'specification' (benchmark name or Verilog) required"
            )
            return
        try:
            verilog, name_hint = _resolve_specification(specification)
            configuration = _configuration_from_options(
                body.get("options") or {}
            )
            job = self.service.scheduler.submit(
                verilog,
                name=body.get("name") or name_hint,
                configuration=configuration,
                priority=int(body.get("priority", 0)),
                timeout=body.get("timeout"),
                trace_id=self._trace.trace_id,
            )
        except (
            ValueError,
            TypeError,
            UncacheableConfigurationError,
        ) as error:
            self._send_error_json(400, str(error))
            return
        except QueueFullError as error:
            # Before RuntimeError: QueueFullError subclasses it.  429
            # tells the client the request was *not* admitted and when
            # a queue slot should open up.
            self._send_error_json(
                429,
                str(error),
                headers={
                    "Retry-After": str(
                        max(1, round(error.retry_after_seconds))
                    )
                },
            )
            return
        except RuntimeError as error:
            self._send_error_json(503, str(error))
            return
        self._send_json({"job": self._job_document(job)}, status=202)

    # --- DELETE --------------------------------------------------------
    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE", self._do_delete)

    def _do_delete(self) -> None:
        path = self._route()
        match = _JOB_PATH_RE.match(path)
        if not match:
            self._send_error_json(404, f"unknown path {path!r}")
            return
        job_id = match.group(1)
        if self.service.scheduler.job(job_id) is None:
            self._send_job_404(job_id)
            return
        cancelled = self.service.scheduler.cancel(job_id)
        job = self.service.scheduler.job(job_id)
        self._send_json(
            {"cancelled": cancelled, "job": self._job_document(job)}
        )


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class DesignService:
    """The assembled service: store + scheduler + HTTP server.

    ``port=0`` binds an ephemeral port (tests, smoke checks); the bound
    address is available as :attr:`url` after construction.  Use as a
    context manager or call :meth:`close` to tear everything down.
    """

    def __init__(
        self,
        store: ArtifactStore | str | Path | None = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = 2,
        default_timeout: float | None = None,
        verbose: bool = False,
        *,
        max_queued: int | None = None,
        retain_jobs: int = DEFAULT_RETAIN_JOBS,
    ) -> None:
        if isinstance(store, (str, Path)):
            store = ArtifactStore(store)
        self.store = store if store is not None else ArtifactStore()
        self.scheduler = JobScheduler(
            self.store,
            workers=workers,
            default_timeout=default_timeout,
            max_queued=max_queued,
            retain_jobs=retain_jobs,
        )
        self.verbose = verbose
        #: Per-endpoint request/error counters and latency summaries.
        self.http_metrics = HttpMetrics()
        #: Background gauge sampler over the scheduler.
        self.sampler = TelemetrySampler(self.scheduler)
        self.sampler.start()
        self._closing = False
        self._httpd = _Server((host, port), _ServiceHandler)
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._serve_thread: threading.Thread | None = None
        _LOG.info("service.started", url=self.url, workers=workers)
        obs.record_event("service.started", url=self.url)

    @property
    def closing(self) -> bool:
        """True once :meth:`close` is past its drain phase; streaming
        handlers (``/v1/events``) exit promptly when they see it."""
        return self._closing

    def metrics_prometheus(self) -> str:
        """The combined ``/v1/metrics`` payload: scheduler span
        telemetry, HTTP request metrics, and sampled runtime gauges in
        one strict-parser-clean exposition."""
        exposition = Exposition()
        self.scheduler.render_telemetry_into(exposition)
        self.http_metrics.render_into(exposition)
        self.sampler.render_into(exposition)
        return exposition.render()

    @property
    def address(self) -> tuple[str, int]:
        """The actually bound (host, port)."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "DesignService":
        """Serve in a background thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._serve_thread = self._thread
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` loop)."""
        self._serve_thread = threading.current_thread()
        try:
            self._httpd.serve_forever()
        finally:
            self._serve_thread = None

    def close(
        self, *, drain: bool = False, drain_timeout: float | None = None
    ) -> None:
        """Shut down the HTTP server and the scheduler.

        With ``drain=True`` the scheduler drains first -- admissions
        answer 503 while already-admitted jobs finish (up to
        ``drain_timeout`` seconds) -- and the HTTP server keeps serving
        status polls until the drain completes, then shuts down.
        """
        if drain:
            self.scheduler.close(drain=True, drain_timeout=drain_timeout)
        self._closing = True
        self.sampler.stop()
        _LOG.info("service.stopping", url=self.url)
        obs.record_event("service.stopping")
        # ``socketserver.shutdown()`` blocks on an event that only the
        # serve loop's exit sets, so it deadlocks unless some *other*
        # thread is (or is about to be) inside ``serve_forever``.  When
        # the loop never ran, or ran on this very thread and has
        # already unwound (the ``repro serve`` SIGTERM path delivers a
        # _DrainSignal that can abort it at any point, even before the
        # socketserver loop arms), closing the socket is all there is
        # to do.
        serving = self._serve_thread
        if serving is not None and serving is not threading.current_thread():
            self._httpd.shutdown()
        self._serve_thread = None
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.scheduler.close()

    def __enter__(self) -> "DesignService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
