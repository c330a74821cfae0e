#!/usr/bin/env python
"""Tier-2 performance smoke check (CI gate).

Runs the SimAnneal scaling benchmark with a small budget, writes
``benchmarks/artifacts/BENCH_simanneal.json`` and exits non-zero when
the process-parallel annealer diverges from the batch kernel.  Also
measures the observability layer's overhead on the ``par_check`` flow
(``benchmarks/artifacts/BENCH_obs.json``) and fails when the
disabled-mode no-op path costs more than 2% of the flow, and the
design service's cache + warm-worker-pool load benchmarks
(``benchmarks/artifacts/BENCH_service.json``), failing when a warm
memo hit is less than 100x faster than a cold run or the warm pool
drops burst jobs, and the learned-guidance flywheel
(``benchmarks/artifacts/BENCH_learn.json``), failing when the
surrogate's held-out AUC drops below 0.85, ranked screening beats the
unguided scan by less than 1.5x, or a library sweep with collection
enabled changes any verdict.

Usage::

    PYTHONPATH=src python scripts/bench_perf.py [--full]

``--full`` runs the complete budget of the pytest benchmarks (slower,
same artifact shapes).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.learn.perfbench import (  # noqa: E402
    AUC_FLOOR,
    SPEEDUP_FLOOR,
    run_learn_benchmark,
)
from repro.obs.perfbench import (  # noqa: E402
    DISABLED_OVERHEAD_LIMIT,
    run_learn_hook_overhead_benchmark,
    run_overhead_benchmark,
    run_worker_overhead_benchmark,
    write_benchmark_json as write_obs_json,
)
from repro.service.perfbench import (  # noqa: E402
    MEMO_SPEEDUP_LIMIT,
    run_service_cache_benchmark,
    run_service_load_benchmark,
    write_benchmark_json as write_service_json,
)
from repro.sidb.perfbench import (  # noqa: E402
    GATE_SIZE,
    QUICKEXACT_GATE_SIZE,
    run_quickexact_benchmark,
    run_scaling_benchmark,
    write_benchmark_json,
)
from repro.timing.perfbench import (  # noqa: E402
    STA_FLOW_FRACTION_LIMIT,
    run_quick_timing_benchmark,
    run_timing_benchmark,
    write_benchmark_json as write_timing_json,
)
from repro.sidb.simanneal import SimAnnealParameters  # noqa: E402

ARTIFACT = REPO / "benchmarks" / "artifacts" / "BENCH_simanneal.json"
OBS_ARTIFACT = REPO / "benchmarks" / "artifacts" / "BENCH_obs.json"
SERVICE_ARTIFACT = REPO / "benchmarks" / "artifacts" / "BENCH_service.json"
QUICKEXACT_ARTIFACT = (
    REPO / "benchmarks" / "artifacts" / "BENCH_quickexact.json"
)
TIMING_ARTIFACT = REPO / "benchmarks" / "artifacts" / "BENCH_timing.json"
LEARN_ARTIFACT = REPO / "benchmarks" / "artifacts" / "BENCH_learn.json"

#: Minimum QuickExact-over-ExGS speedup at the gate size.
QUICKEXACT_SPEEDUP_LIMIT = 10.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true",
        help="full benchmark budget (200 sweeps, 3 repeats)",
    )
    arguments = parser.parse_args()

    if arguments.full:
        record = run_scaling_benchmark()
    else:
        record = run_scaling_benchmark(
            sizes=(12, GATE_SIZE),
            schedule=SimAnnealParameters(instances=16, sweeps=100, seed=7),
            repeats=2,
        )
    path = write_benchmark_json(record, ARTIFACT)

    failures = []
    for point in record["points"]:
        print(
            f"  {point['num_sites']:>3} sites: "
            f"batch {point['batch_seconds']:.3f}s  "
            f"parallel {point['parallel_seconds']:.3f}s"
        )
        if not point["parallel_matches_batch"]:
            failures.append(
                f"parallel diverged from batch at {point['num_sites']} sites"
            )
    print(f"  artifact: {path}")

    obs_record = run_overhead_benchmark()
    worker_record = run_worker_overhead_benchmark()
    learn_hook_record = run_learn_hook_overhead_benchmark()
    obs_record["workers2"] = worker_record
    obs_record["learn_hooks"] = learn_hook_record
    obs_path = write_obs_json(obs_record, OBS_ARTIFACT)
    print(
        f"  obs overhead on {obs_record['benchmark']}: "
        f"stub {obs_record['stub_seconds']:.3f}s  "
        f"disabled {obs_record['disabled_seconds']:.3f}s "
        f"({obs_record['disabled_overhead'] * 100:+.2f}%)  "
        f"enabled {obs_record['enabled_seconds']:.3f}s "
        f"({obs_record['enabled_overhead'] * 100:+.2f}%)"
    )
    print(
        f"  obs overhead on {worker_record['benchmark']}: "
        f"stub {worker_record['stub_seconds']:.3f}s  "
        f"disabled {worker_record['disabled_seconds']:.3f}s "
        f"({worker_record['disabled_overhead'] * 100:+.2f}%)"
    )
    print(
        f"  obs overhead on {learn_hook_record['benchmark']}: "
        f"stub {learn_hook_record['stub_seconds']:.3f}s  "
        f"disabled {learn_hook_record['disabled_seconds']:.3f}s "
        f"({learn_hook_record['disabled_overhead'] * 100:+.2f}%)"
    )
    print(f"  artifact: {obs_path}")
    if obs_record["disabled_overhead"] >= DISABLED_OVERHEAD_LIMIT:
        failures.append(
            f"disabled-mode observability overhead "
            f"{obs_record['disabled_overhead'] * 100:.2f}% exceeds "
            f"{DISABLED_OVERHEAD_LIMIT * 100:.0f}%"
        )
    if worker_record["disabled_overhead"] >= DISABLED_OVERHEAD_LIMIT:
        failures.append(
            f"disabled-mode observability overhead with workers=2 is "
            f"{worker_record['disabled_overhead'] * 100:.2f}% (limit "
            f"{DISABLED_OVERHEAD_LIMIT * 100:.0f}%)"
        )
    if learn_hook_record["disabled_overhead"] >= DISABLED_OVERHEAD_LIMIT:
        failures.append(
            f"disabled-mode learn-hook overhead "
            f"{learn_hook_record['disabled_overhead'] * 100:.2f}% exceeds "
            f"{DISABLED_OVERHEAD_LIMIT * 100:.0f}%"
        )

    if arguments.full:
        quickexact_record = run_quickexact_benchmark()
    else:
        quickexact_record = run_quickexact_benchmark(
            sizes=(12, 16, QUICKEXACT_GATE_SIZE, 24, 30, 32), repeats=2
        )
    quickexact_path = write_benchmark_json(
        quickexact_record, QUICKEXACT_ARTIFACT
    )
    for point in quickexact_record["points"]:
        speedup = point.get("speedup_quickexact_over_exgs")
        print(
            f"  {point['num_sites']:>3} sites: "
            f"quickexact {point['quickexact_seconds']:.3f}s  "
            f"enumerated {point['enumerated_fraction']:.2%}"
            + (f"  vs exgs {speedup:.1f}x" if speedup is not None else "")
        )
        if point.get("results_identical") is False:
            failures.append(
                f"QuickExact diverged from ExGS at "
                f"{point['num_sites']} sites"
            )
        if (
            point["num_sites"] == QUICKEXACT_GATE_SIZE
            and speedup is not None
            and speedup < QUICKEXACT_SPEEDUP_LIMIT
        ):
            failures.append(
                f"QuickExact only {speedup:.1f}x over ExGS at "
                f"{QUICKEXACT_GATE_SIZE} sites "
                f"(limit {QUICKEXACT_SPEEDUP_LIMIT:.0f}x)"
            )
    print(f"  artifact: {quickexact_path}")

    service_record = run_service_cache_benchmark()
    load_record = run_service_load_benchmark()
    service_record["load"] = load_record
    service_path = write_service_json(service_record, SERVICE_ARTIFACT)
    print(
        f"  service cache on {service_record['benchmark']}: "
        f"cold {service_record['cold_seconds']:.3f}s  "
        f"warm-memo {service_record['warm_memo_seconds'] * 1000:.3f}ms "
        f"({service_record['memo_speedup']:.0f}x)  "
        f"warm-disk {service_record['warm_disk_seconds'] * 1000:.3f}ms "
        f"({service_record['disk_speedup']:.0f}x)  "
        f"{service_record['warm_throughput_per_second']:.0f} warm req/s"
    )
    print(
        f"  service pool on {load_record['benchmark']} "
        f"({load_record['burst_jobs']} jobs, "
        f"{load_record['workers']} workers): "
        f"warm {load_record['warm_wall_seconds']:.2f}s "
        f"({load_record['warm_jobs_per_second']:.0f} jobs/s)"
    )
    for level in load_record["saturation"]:
        print(
            f"    {level['clients']:>3} clients: "
            f"p50 {level['p50_ms']:.1f}ms  p99 {level['p99_ms']:.1f}ms  "
            f"{level['throughput_per_second']:.0f} req/s"
        )
    print(f"  artifact: {service_path}")
    if not service_record["sqd_identical"]:
        failures.append("service cache returned different .sqd bytes")
    if service_record["memo_speedup"] < MEMO_SPEEDUP_LIMIT:
        failures.append(
            f"service warm memo hit only "
            f"{service_record['memo_speedup']:.0f}x faster than cold "
            f"(limit {MEMO_SPEEDUP_LIMIT:.0f}x)"
        )
    if load_record["warm_completed"] < load_record["burst_jobs"]:
        failures.append(
            f"warm pool completed only {load_record['warm_completed']}/"
            f"{load_record['burst_jobs']} burst jobs"
        )

    if arguments.full:
        timing_record = run_timing_benchmark()
    else:
        timing_record = run_quick_timing_benchmark()
    timing_path = write_timing_json(timing_record, TIMING_ARTIFACT)
    analyzed = [r for r in timing_record["rows"] if "error" not in r]
    print(
        f"  timing STA on {len(analyzed)} designs x "
        f"{len(timing_record['schemes'])} schemes: "
        f"{timing_record['total_sta_seconds'] * 1000:.1f}ms total "
        f"({timing_record['sta_flow_fraction']:.2%} of flow time)"
    )
    print(f"  artifact: {timing_path}")
    if timing_record["sta_flow_fraction"] >= STA_FLOW_FRACTION_LIMIT:
        failures.append(
            f"STA cost {timing_record['sta_flow_fraction']:.1%} of flow "
            f"time (limit {STA_FLOW_FRACTION_LIMIT:.0%})"
        )
    for row in analyzed:
        native = row["schemes"].get("columnar-rows", {})
        if native.get("wns_phases") != 0:
            failures.append(
                f"{row['name']}: native columnar-rows slack "
                f"{native.get('wns_phases')} (expected fully pipelined, 0)"
            )

    learn_record = run_learn_benchmark()
    learn_path = write_obs_json(learn_record, LEARN_ARTIFACT)
    print(
        f"  learn on {learn_record['benchmark']}: "
        f"AUC {learn_record['auc']:.4f}  "
        f"unguided {learn_record['unguided_seconds']:.2f}s  "
        f"guided {learn_record['guided_seconds']:.2f}s "
        f"({learn_record['guided_evaluations']} evals)  "
        f"speedup {learn_record['speedup']:.1f}x  "
        f"verdicts equal {learn_record['verdict_equality']}"
    )
    print(f"  artifact: {learn_path}")
    if learn_record["auc"] < AUC_FLOOR:
        failures.append(
            f"surrogate held-out AUC {learn_record['auc']:.4f} below "
            f"{AUC_FLOOR}"
        )
    if learn_record["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"guided screening only {learn_record['speedup']:.2f}x over "
            f"the unguided scan (limit {SPEEDUP_FLOOR}x)"
        )
    if not learn_record["verdict_equality"]:
        failures.append(
            "library sweep verdicts changed with learn collection enabled"
        )

    # Trend tracking: log this run and gate against the rolling best.
    sys.path.insert(0, str(REPO / "scripts"))
    import bench_trend  # noqa: E402

    trend_record = bench_trend.append_history()
    print(
        f"  trend: appended {sorted(trend_record['metrics'])} to "
        f"{bench_trend.HISTORY.relative_to(REPO)}"
    )
    trend_warnings: list[str] = []
    failures.extend(bench_trend.check_history(warnings=trend_warnings))
    for warning in trend_warnings:
        print(f"WARN (unconfirmed, not gating): {warning}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
