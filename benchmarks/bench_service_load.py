"""Design-service load: warm worker pool burst + HTTP saturation.

Drives a 50-job burst of distinct ``xor2`` designs through the
persistent warm pool and records its wall time.  Then saturates a live
:class:`~repro.service.http.DesignService` with concurrent HTTP
clients, recording p50/p99 submission latency and throughput per
level.  Merges a ``"load"`` record into
``benchmarks/artifacts/BENCH_service.json``.
"""

import json
from pathlib import Path

from conftest import print_header
from repro.service.perfbench import (
    run_service_load_benchmark,
    write_benchmark_json,
)

ARTIFACT = Path(__file__).parent / "artifacts" / "BENCH_service.json"


def test_service_load(benchmark):
    record = benchmark.pedantic(
        run_service_load_benchmark, rounds=1, iterations=1
    )
    merged = (
        json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    )
    merged["load"] = record
    write_benchmark_json(merged, ARTIFACT)

    print_header(
        f"Design-service load on {record['benchmark']} "
        f"({record['burst_jobs']} jobs, {record['workers']} workers)"
    )
    print(
        f"  warm pool : {record['warm_wall_seconds']:8.2f} s "
        f"({record['warm_jobs_per_second']:.0f} jobs/s, "
        f"{record['warm_distinct_worker_pids']} worker pids)"
    )
    for level in record["saturation"]:
        print(
            f"  {level['clients']:>3} clients: "
            f"p50 {level['p50_ms']:7.1f} ms  "
            f"p99 {level['p99_ms']:7.1f} ms  "
            f"{level['throughput_per_second']:6.0f} req/s"
        )
    print(f"  artifact: {ARTIFACT}")

    assert record["warm_completed"] == record["burst_jobs"]
