"""CI smoke test of the design service.

Spins up a :class:`repro.api.DesignService` on an ephemeral port with a
throwaway artifact store, then exercises the whole client surface over
real HTTP against the ``/v1`` API: health check, job submission, status
polling, artifact fetch, cache-hit resubmission (asserting
byte-identical ``.sqd``), metrics scrape, a 404 for the old
unversioned paths, and shutdown.  The observability surface is
exercised along the way: ``/v1/readyz``, W3C ``traceparent``
continuation into the job document and the ``/v1/jobs/<id>/trace``
worker span tree, and a concurrent ``/v1/events`` server-sent-events
subscriber that must see the job's lifecycle events live.  A second
phase runs a 2-worker pool with ``max_queued=2`` to exercise admission
control (submit until 429 with a ``Retry-After`` header) and graceful
drain (admitted jobs finalize as done/cancelled, never as a crash).  Exits non-zero on the
first failed expectation.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

import json
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

from repro import api


def _request(url, payload=None, extra_headers=None):
    data = None
    headers = dict(extra_headers or {})
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    try:
        with urllib.request.urlopen(
            urllib.request.Request(url, data=data, headers=headers),
            timeout=30,
        ) as response:
            body = response.read()
            status = response.status
            content_type = response.headers.get_content_type()
            response_headers = dict(response.headers)
    except urllib.error.HTTPError as error:
        body = error.read()
        status = error.code
        content_type = error.headers.get_content_type()
        response_headers = dict(error.headers)
    if content_type == "application/json":
        return status, json.loads(body), response_headers
    return status, body, response_headers


class _EventTail(threading.Thread):
    """Background ``/v1/events`` subscriber collecting event names.

    Reads the SSE stream live, stops once ``stop_on`` arrives (or the
    server closes the stream), and surfaces any reader error to the
    main thread via :attr:`error`.
    """

    def __init__(self, base_url, stop_on="job.finished"):
        super().__init__(name="smoke-sse", daemon=True)
        # A small replay window bridges the instant between the HTTP
        # connect and the server arming its ring cursor, so an event
        # recorded in that gap is still delivered.
        self.url = base_url + "/v1/events?replay=4&timeout_seconds=60"
        self.stop_on = stop_on
        self.names = []
        self.error = None
        self.ready = threading.Event()

    def run(self):
        try:
            with urllib.request.urlopen(self.url, timeout=90) as response:
                assert (
                    response.headers.get_content_type() == "text/event-stream"
                ), response.headers.get_content_type()
                self.ready.set()
                for raw in response:
                    line = raw.decode("utf-8").rstrip("\n")
                    if line.startswith("event: "):
                        name = line[len("event: "):]
                        self.names.append(name)
                        if name == self.stop_on:
                            return
        except Exception as error:  # noqa: BLE001 -- reported by main()
            self.error = error
        finally:
            self.ready.set()


def _smoke_backpressure_and_drain() -> None:
    """429 on a full admission queue, then a clean graceful drain."""
    store_root = tempfile.mkdtemp(prefix="repro-smoke-pool-")
    service = api.DesignService(
        store=store_root, port=0, workers=2, max_queued=2
    )
    service.start()
    url = service.url
    print(f"pool service on {url} (2 workers, max_queued=2)")

    # Fill both workers and the 2-deep admission queue with slow,
    # distinct designs, then overflow it.
    admitted = []
    rejected = None
    for index in range(8):
        status, doc, headers = _request(
            url + "/v1/jobs",
            payload={"specification": "clpl", "name": f"pool-{index}"},
        )
        if status == 202:
            admitted.append(doc["job"])
        elif status == 429:
            rejected = (doc, headers)
            break
        else:
            raise AssertionError(f"unexpected status {status}: {doc}")
    assert rejected is not None, "queue never filled (no 429)"
    doc, headers = rejected
    assert "Retry-After" in headers, headers
    assert int(headers["Retry-After"]) >= 1, headers
    print(
        f"backpressure ok: {len(admitted)} admitted, then 429 with "
        f"Retry-After: {headers['Retry-After']}s"
    )

    service.close(drain=True, drain_timeout=60.0)
    statuses = {}
    for job in admitted:
        record = service.scheduler.job(job["id"])
        assert record is not None, job["id"]
        statuses[record.id] = record.status
        error = record.error or {}
        assert error.get("kind") != "crash", (record.id, record.error)
    assert all(s in ("done", "cancelled") for s in statuses.values()), (
        statuses
    )
    print(f"drain ok: {sorted(statuses.values())}")


def main() -> int:
    store_root = tempfile.mkdtemp(prefix="repro-smoke-")
    with api.DesignService(store=store_root, port=0, workers=1) as service:
        service.start()
        url = service.url
        print(f"service on {url} (store: {store_root})")

        status, health, headers = _request(url + "/v1/healthz")
        assert status == 200 and health["status"] == "ok", health
        assert health["version"] == api.package_version(), health
        assert api.parse_traceparent(headers.get("traceparent", "")), headers
        assert "X-Repro-Trace-Id" in headers, headers
        print(f"healthz ok (version {health['version']}, trace headers on)")

        status, ready, _ = _request(url + "/v1/readyz")
        assert status == 200 and ready["ready"] is True, ready
        assert ready["store_writable"] is True, ready
        print("readyz ok")

        # Subscribe to the live event stream *before* submitting, so
        # the job's lifecycle events must arrive over SSE as they
        # happen.
        tail = _EventTail(url)
        tail.start()
        assert tail.ready.wait(timeout=10), "SSE stream never connected"
        assert tail.error is None, tail.error

        client_trace = api.new_trace_context()
        status, doc, headers = _request(
            url + "/v1/jobs",
            payload={"specification": "xor2"},
            extra_headers={"traceparent": client_trace.to_traceparent()},
        )
        assert status == 202, (status, doc)
        job = doc["job"]
        assert job["schema_version"] == 1, job
        assert job["trace_id"] == client_trace.trace_id, job
        echoed = api.parse_traceparent(headers.get("traceparent", ""))
        assert echoed and echoed.trace_id == client_trace.trace_id, headers
        print(f"submitted {job['id']} (trace {job['trace_id']})")

        deadline = time.time() + 120
        while job["status"] not in ("done", "failed", "cancelled"):
            assert time.time() < deadline, "job did not finish in 120 s"
            time.sleep(0.2)
            _, job, _ = _request(f"{url}/v1/jobs/{job['id']}")
        assert job["status"] == "done", job
        print(f"finished: {job['summary']}")

        tail.join(timeout=30)
        assert tail.error is None, tail.error
        assert "job.submitted" in tail.names, tail.names
        assert "job.finished" in tail.names, tail.names
        print(f"events stream ok ({len(tail.names)} live events)")

        status, trace_doc, _ = _request(f"{url}/v1/jobs/{job['id']}/trace")
        assert status == 200, (status, trace_doc)
        assert trace_doc["trace_id"] == client_trace.trace_id, trace_doc
        span = trace_doc["span"]
        assert span["attributes"]["trace_id"] == client_trace.trace_id, span
        status, chrome, _ = _request(
            f"{url}/v1/jobs/{job['id']}/trace?format=chrome"
        )
        assert status == 200 and "traceEvents" in chrome, chrome
        print(f"job trace ok (root span {span['name']!r}, chrome export)")

        assert job["artifacts"]["sqd"].startswith("/v1/"), job["artifacts"]
        _, sqd_first, _ = _request(url + job["artifacts"]["sqd"])
        assert sqd_first.startswith(b"<?xml"), sqd_first[:40]
        print(f"fetched design.sqd ({len(sqd_first)} bytes)")

        status, doc, _ = _request(
            url + "/v1/jobs", payload={"specification": "xor2"}
        )
        rejob = doc["job"]
        assert rejob["status"] == "done" and rejob["cache_hit"], rejob
        _, sqd_second, _ = _request(url + rejob["artifacts"]["sqd"])
        assert sqd_second == sqd_first, "cache hit returned different bytes"
        status, miss, _ = _request(f"{url}/v1/jobs/{rejob['id']}/trace")
        assert status == 404 and "cache hit" in miss["error"], miss
        print("resubmission served from cache, byte-identical .sqd")

        status, metrics, _ = _request(url + "/v1/metrics")
        assert status == 200
        text = metrics.decode("utf-8")
        assert "repro_service_service_jobs_done_total" in text, text[:400]
        assert "# HELP repro_service_http_requests_total" in text, text[:400]
        assert "repro_service_queue_depth" in text, text[:400]
        print("metrics scrape ok (spans + http + gauges)")

        # Every route lives under /v1; the old unversioned paths 404.
        for path in ("/healthz", f"/jobs/{job['id']}"):
            status, _, headers = _request(url + path)
            assert status == 404, (path, status)
            assert "Deprecation" not in headers, headers
        print("unversioned paths answer 404")

    _smoke_backpressure_and_drain()
    print("service smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
