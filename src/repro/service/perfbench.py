"""Service benchmarks: artifact-cache speedup and worker-pool load.

Cold-vs-warm benchmark of the design-service artifact cache.

Measures one benchmark circuit three ways:

* **cold** -- a full flow run through ``api.design(cache=...)`` on an
  empty store (the miss path: run + persist);
* **warm memo** -- the same call again against the same process-wide
  store (the in-memory memo path that ``api.design`` and the job
  scheduler's dedup hit);
* **warm disk** -- hydration through a *fresh* :class:`ArtifactStore`
  instance (the cross-process path: manifest verification + JSON
  deserialization, no flow work).

The gated contract (``benchmarks/bench_service_cache.py`` and
``scripts/bench_perf.py``) is :data:`MEMO_SPEEDUP_LIMIT` -- a warm memo
hit must be at least 100x faster than the cold run, with byte-identical
``.sqd`` output.  ``warm_throughput_per_second`` reports sustained warm
requests per second for the EXPERIMENTS table.

:func:`run_service_load_benchmark` measures the warm worker pool: the
wall time of a :data:`BURST_JOBS`-job burst of distinct designs through
the persistent pool.  It also drives an HTTP saturation curve (:data:`SATURATION_CLIENTS` concurrent clients against
a live :class:`~repro.service.http.DesignService`) recording p50/p99
latency and throughput per level.
"""

from __future__ import annotations

import http.client
import json
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from repro.networks import benchmark_verilog
from repro.service.digest import design_digest
from repro.service.store import ArtifactStore

#: The measured circuit: large enough that a cold run dwarfs every
#: fixed cost, small enough for a CI budget.
CACHE_BENCHMARK = "mux21"

#: Minimum cold/warm-memo ratio gated by CI.
MEMO_SPEEDUP_LIMIT = 100.0

#: Warm requests timed for the throughput figure.
THROUGHPUT_REQUESTS = 200


def run_service_cache_benchmark(
    benchmark: str = CACHE_BENCHMARK,
    repeats: int = 3,
    throughput_requests: int = THROUGHPUT_REQUESTS,
) -> dict:
    """Time cold, warm-memo and warm-disk paths; return the record."""
    from repro import api

    verilog = benchmark_verilog(benchmark)
    digest = design_digest(verilog, benchmark)

    cold_seconds = []
    memo_seconds = []
    disk_seconds = []
    sqd_identical = True
    for _ in range(repeats):
        root = tempfile.mkdtemp(prefix="repro-bench-cache-")
        store = ArtifactStore(root)

        start = time.perf_counter()
        cold = api.design(verilog, name=benchmark, cache=store)
        cold_seconds.append(time.perf_counter() - start)

        start = time.perf_counter()
        warm = api.design(verilog, name=benchmark, cache=store)
        memo_seconds.append(time.perf_counter() - start)
        sqd_identical &= warm.from_cache and warm.to_sqd() == cold.to_sqd()

        fresh = ArtifactStore(root)
        start = time.perf_counter()
        hydrated = fresh.load_result(digest)
        disk_seconds.append(time.perf_counter() - start)
        sqd_identical &= (
            hydrated is not None and hydrated.to_sqd() == cold.to_sqd()
        )

        start = time.perf_counter()
        for _ in range(throughput_requests):
            api.design(verilog, name=benchmark, cache=store)
        throughput = throughput_requests / (time.perf_counter() - start)

    cold_best = min(cold_seconds)
    memo_best = min(memo_seconds)
    disk_best = min(disk_seconds)
    return {
        "benchmark": benchmark,
        "repeats": repeats,
        "digest": digest,
        "cold_seconds": cold_best,
        "warm_memo_seconds": memo_best,
        "warm_disk_seconds": disk_best,
        "memo_speedup": cold_best / memo_best if memo_best else float("inf"),
        "disk_speedup": cold_best / disk_best if disk_best else float("inf"),
        "warm_throughput_per_second": throughput,
        "sqd_identical": sqd_identical,
    }


#: The load-benchmark circuit: small, so fixed per-job costs (the
#: thing the warm pool removes) dominate -- exactly the regime the
#: pool exists for.
LOAD_BENCHMARK = "xor2"

#: Jobs in the timed submission burst.
BURST_JOBS = 50

#: Pool size for the load benchmark.
POOL_WORKERS = 2

#: Concurrent HTTP clients per saturation level.
SATURATION_CLIENTS = (1, 4, 16, 64)

#: Total requests per saturation level (divisible by every level).
SATURATION_REQUESTS = 192


def _run_burst(verilog: str, jobs: int, workers: int) -> dict:
    """Wall-clock one burst of distinct jobs through the warm pool.

    Pool boot itself is excluded via a warm-up job per worker (it is a
    one-time service-lifetime cost).
    """
    from repro.service.scheduler import DONE, JobScheduler

    root = tempfile.mkdtemp(prefix="repro-bench-load-")
    with JobScheduler(ArtifactStore(root), workers=workers) as scheduler:
        warmup = [
            scheduler.submit(verilog, name=f"warmup-{index}")
            for index in range(workers)
        ]
        for job in warmup:
            job.wait()

        start = time.perf_counter()
        burst = [
            scheduler.submit(verilog, name=f"burst-{index}")
            for index in range(jobs)
        ]
        for job in burst:
            job.wait()
        wall = time.perf_counter() - start

        completed = sum(job.status == DONE for job in burst)
        pids = {job.worker_pid for job in burst if job.worker_pid}
    return {
        "jobs": jobs,
        "completed": completed,
        "wall_seconds": wall,
        "jobs_per_second": jobs / wall if wall else float("inf"),
        "distinct_worker_pids": len(pids),
    }


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def _measure_saturation(
    verilog: str,
    levels: tuple[int, ...],
    total_requests: int,
    workers: int,
) -> list[dict]:
    """p50/p99 latency + throughput of ``POST /v1/jobs`` under load.

    Requests are warm (the digest is already in the store), so the
    curve isolates the serving stack -- HTTP, admission, dedup, job
    table -- rather than flow compute.
    """
    from repro.service.http import DesignService

    root = tempfile.mkdtemp(prefix="repro-bench-sat-")
    results = []
    with DesignService(store=root, port=0, workers=workers) as service:
        service.start()
        body = json.dumps(
            {"specification": verilog, "name": "saturation"}
        ).encode("utf-8")

        def post() -> float:
            request = urllib.request.Request(
                f"{service.url}/v1/jobs",
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            # Retry transient connection drops (the threaded stdlib
            # server resets the odd connection under heavy client
            # concurrency) with exponential backoff; the measured
            # latency is the successful attempt's.
            for attempt in range(6):
                start = time.perf_counter()
                try:
                    with urllib.request.urlopen(
                        request, timeout=60
                    ) as response:
                        response.read()
                    return time.perf_counter() - start
                except (OSError, http.client.HTTPException):
                    if attempt == 5:
                        raise
                    time.sleep(0.05 * 2**attempt)
            raise AssertionError("unreachable")

        post()  # prime: one cold run, everything after is a cache hit
        for clients in levels:
            per_client = total_requests // clients
            latencies: list[list[float]] = [[] for _ in range(clients)]
            dropped = [0] * clients

            def drive(slot: int) -> None:
                for _ in range(per_client):
                    try:
                        latencies[slot].append(post())
                    except (OSError, http.client.HTTPException):
                        # Recorded, never silently absorbed into the
                        # curve -- a drop past all retries means the
                        # box is genuinely past saturation.
                        dropped[slot] += 1

            threads = [
                threading.Thread(target=drive, args=(slot,))
                for slot in range(clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            flat = [sample for slot in latencies for sample in slot]
            results.append(
                {
                    "clients": clients,
                    "requests": len(flat),
                    "dropped": sum(dropped),
                    "p50_ms": _percentile(flat, 0.50) * 1000.0,
                    "p99_ms": _percentile(flat, 0.99) * 1000.0,
                    "throughput_per_second": len(flat) / wall,
                }
            )
    return results


def run_service_load_benchmark(
    benchmark: str = LOAD_BENCHMARK,
    burst_jobs: int = BURST_JOBS,
    workers: int = POOL_WORKERS,
    saturation_levels: tuple[int, ...] = SATURATION_CLIENTS,
    saturation_requests: int = SATURATION_REQUESTS,
) -> dict:
    """Warm-pool burst + HTTP saturation curve."""
    verilog = benchmark_verilog(benchmark)

    warm = _run_burst(verilog, burst_jobs, workers)
    saturation = _measure_saturation(
        verilog, saturation_levels, saturation_requests, workers
    )
    return {
        "benchmark": benchmark,
        "burst_jobs": burst_jobs,
        "workers": workers,
        "warm_wall_seconds": warm["wall_seconds"],
        "warm_jobs_per_second": warm["jobs_per_second"],
        "warm_completed": warm["completed"],
        "warm_distinct_worker_pids": warm["distinct_worker_pids"],
        "saturation": saturation,
    }


def write_benchmark_json(record: dict, path: str | Path) -> Path:
    """Write the cache record where the harness expects it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path
