"""SimAnneal scaling: batch kernel vs process-parallel driver.

Times ground-state searches on BDL wires of 12-30 SiDBs under one
instances/sweeps budget, prints the scaling table and writes the record
to ``benchmarks/artifacts/BENCH_simanneal.json``.  The process-parallel
driver must agree with the single-process batch run.
"""

from pathlib import Path

from conftest import print_header
from repro.sidb.perfbench import (
    SCALING_SIZES,
    run_scaling_benchmark,
    write_benchmark_json,
)

ARTIFACT = Path(__file__).parent / "artifacts" / "BENCH_simanneal.json"


def test_simanneal_scaling(benchmark):
    record = benchmark.pedantic(
        run_scaling_benchmark, rounds=1, iterations=1
    )
    write_benchmark_json(record, ARTIFACT)

    print_header(
        "SimAnneal scaling on BDL wires "
        "(16 instances x 200 sweeps, seed 7)"
    )
    print(f"{'sites':>6} {'batch':>9} {'parallel':>9}")
    for point in record["points"]:
        print(
            f"{point['num_sites']:>6} "
            f"{point['batch_seconds']:>8.3f}s "
            f"{point['parallel_seconds']:>8.3f}s"
        )
    print(f"  artifact: {ARTIFACT}")

    by_size = {p["num_sites"]: p for p in record["points"]}
    assert set(by_size) == set(SCALING_SIZES)
    for point in record["points"]:
        assert point["parallel_matches_batch"], (
            f"parallel run diverged from batch at {point['num_sites']} sites"
        )
