"""Live runtime telemetry for the design service.

Two collectors that complement the scheduler's span-based telemetry:

* :class:`HttpMetrics` -- per-endpoint request/error counters and
  latency summaries, recorded by the HTTP handler on every response.
  Paths are normalized to bounded-cardinality route labels first
  (``/v1/jobs/j-1b2c.../result`` becomes ``/v1/jobs/:id/result``) so a
  crawler cannot explode the label space.
* :class:`TelemetrySampler` -- a background thread that snapshots the
  scheduler's queue/pool state (queue depth, in-flight jobs, worker
  liveness/utilization, respawn count, drain flag) into gauges on a
  fixed interval, so ``/v1/metrics`` reflects *current* load rather
  than only cumulative counters.

Both render through :class:`repro.obs.export.Exposition`, which keeps
the combined ``/v1/metrics`` payload strict-parser clean.
"""

from __future__ import annotations

import re
import threading

from repro.obs.export import Exposition
from repro.obs.metrics import DEFAULT_QUANTILES, Histogram

#: Default interval between scheduler samples, seconds.
DEFAULT_SAMPLE_INTERVAL = 1.0

_JOB_ID_SEGMENT = re.compile(r"^j-[0-9a-f]+$")
_HEX_SEGMENT = re.compile(r"^[0-9a-f]{16,}$")


def route_pattern(path: str) -> str:
    """A request path as a bounded-cardinality route label.

    Job-id segments (``j-<hex>``) and long hex segments (artifact
    digests) collapse to ``:id``; query strings are dropped; trailing
    slashes are ignored.  Unknown paths keep their literal segments --
    they all fold into the 404 counter anyway.
    """
    path = path.split("?", 1)[0]
    segments = [s for s in path.split("/") if s]
    normalized = [
        ":id"
        if _JOB_ID_SEGMENT.match(segment) or _HEX_SEGMENT.match(segment)
        else segment
        for segment in segments
    ]
    return "/" + "/".join(normalized)


class HttpMetrics:
    """Request counters and latency summaries, keyed by route."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``(method, route, status)`` -> request count.
        self._requests: dict[tuple[str, str, int], int] = {}
        #: ``(method, route)`` -> 5xx count.
        self._errors: dict[tuple[str, str], int] = {}
        #: route -> latency histogram (seconds).
        self._latency: dict[str, Histogram] = {}

    def record(
        self, method: str, route: str, status: int, seconds: float
    ) -> None:
        """Record one completed request."""
        with self._lock:
            key = (method, route, int(status))
            self._requests[key] = self._requests.get(key, 0) + 1
            if status >= 500:
                err_key = (method, route)
                self._errors[err_key] = self._errors.get(err_key, 0) + 1
            histogram = self._latency.get(route)
            if histogram is None:
                histogram = self._latency[route] = Histogram()
            histogram.observe(seconds)

    def snapshot(self) -> dict:
        """JSON-ready counters (tests and ``/healthz`` debugging)."""
        with self._lock:
            return {
                "requests": {
                    f"{method} {route} {status}": count
                    for (method, route, status), count in sorted(
                        self._requests.items()
                    )
                },
                "errors": {
                    f"{method} {route}": count
                    for (method, route), count in sorted(
                        self._errors.items()
                    )
                },
            }

    def render_into(
        self, exposition: Exposition, prefix: str = "repro_service"
    ) -> None:
        """Emit the HTTP metric families into ``exposition``."""
        with self._lock:
            requests = dict(self._requests)
            errors = dict(self._errors)
            latency = {
                route: histogram
                for route, histogram in self._latency.items()
            }
            requests_metric = f"{prefix}_http_requests_total"
            exposition.family(
                requests_metric,
                "counter",
                "HTTP requests served, by method, route and status.",
            )
            for method, route, status in sorted(requests):
                exposition.sample(
                    requests_metric,
                    requests[(method, route, status)],
                    method=method,
                    route=route,
                    status=str(status),
                )
            errors_metric = f"{prefix}_http_errors_total"
            exposition.family(
                errors_metric,
                "counter",
                "HTTP 5xx responses, by method and route.",
            )
            for method, route in sorted(errors):
                exposition.sample(
                    errors_metric,
                    errors[(method, route)],
                    method=method,
                    route=route,
                )
            latency_metric = f"{prefix}_http_request_seconds"
            exposition.family(
                latency_metric,
                "summary",
                "HTTP request handling latency in seconds, by route.",
            )
            for route in sorted(latency):
                histogram = latency[route]
                quantiles = histogram.quantiles(DEFAULT_QUANTILES)
                for q, value in quantiles.items():
                    exposition.sample(
                        latency_metric, value, route=route,
                        quantile=f"{q:g}",
                    )
                exposition.sample(
                    f"{latency_metric}_sum", histogram.sum, route=route
                )
                exposition.sample(
                    f"{latency_metric}_count", histogram.count, route=route
                )


#: HELP text per sampler gauge (also fixes the render order contract).
_GAUGE_HELP = {
    "queue_depth": "Jobs waiting in the admission queue.",
    "inflight_jobs": "Jobs dispatched to the pool and not yet final.",
    "workers_alive": "Live worker processes in the pool.",
    "workers_busy": "Worker processes currently running a job.",
    "worker_utilization": "Busy workers over pool size (0..1).",
    "workers_respawned": "Workers respawned after a crash or timeout.",
    "uptime_seconds": "Seconds since the scheduler started.",
    "draining": "1 while the scheduler drains, else 0.",
}


class TelemetrySampler:
    """Background thread publishing scheduler state as gauges.

    One synchronous :meth:`sample` runs at :meth:`start` so the gauges
    are populated before the first scrape; the thread then re-samples
    every ``interval`` seconds until :meth:`stop`.  Sampling failures
    are swallowed (the scheduler may be mid-shutdown) -- stale gauges
    beat a dead service thread.
    """

    def __init__(
        self, scheduler, interval: float = DEFAULT_SAMPLE_INTERVAL
    ) -> None:
        self.scheduler = scheduler
        self.interval = interval
        self.samples = 0
        self._gauges: dict[str, float] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self.sample()
        self._thread = threading.Thread(
            target=self._run, name="repro-service-telemetry", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample()
            except Exception:  # pragma: no cover - shutdown race
                pass

    def sample(self) -> None:
        """Take one snapshot of the scheduler into the gauge set."""
        stats = self.scheduler.stats()
        pool_size = max(1, int(stats.get("workers") or 1))
        busy = float(stats.get("workers_busy", 0))
        with self._lock:
            self.samples += 1
            gauges = self._gauges
            gauges["queue_depth"] = float(stats.get("queued", 0))
            gauges["inflight_jobs"] = float(
                stats.get("inflight", stats.get("running", 0))
            )
            gauges["workers_alive"] = float(stats.get("workers_alive", 0))
            gauges["workers_busy"] = busy
            gauges["worker_utilization"] = busy / pool_size
            gauges["workers_respawned"] = float(
                stats.get("workers_respawned", 0)
            )
            gauges["uptime_seconds"] = float(
                stats.get("uptime_seconds", 0.0)
            )
            gauges["draining"] = 1.0 if stats.get("draining") else 0.0

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 1.0)
            self._thread = None

    def gauges(self) -> dict[str, float]:
        """The latest sampled gauge values."""
        with self._lock:
            return dict(self._gauges)

    def render_into(
        self, exposition: Exposition, prefix: str = "repro_service"
    ) -> None:
        """Emit one single-sample gauge family per sampled value."""
        with self._lock:
            gauges = dict(self._gauges)
        for name, help_text in _GAUGE_HELP.items():
            if name not in gauges:
                continue
            metric = f"{prefix}_{name}"
            exposition.family(metric, "gauge", help_text)
            exposition.sample(metric, gauges[name])
