"""Shared core of the SimAnneal scaling benchmarks.

Builds parameterized BDL-wire layouts and times the two execution
paths of the annealer -- the vectorized batch kernel in one process
and the process-parallel driver -- under an identical instances/sweeps
budget.  Both the pytest benchmark
(``benchmarks/bench_simanneal_scaling.py``) and the CI perf smoke
(``scripts/bench_perf.py``) run this module and write its record to
``BENCH_simanneal.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.coords.lattice import LatticeSite
from repro.sidb.charge import SidbLayout
from repro.sidb.parallel import parallel_simanneal
from repro.sidb.simanneal import SimAnneal, SimAnnealParameters

#: System sizes of the scaling sweep (number of SiDBs).
SCALING_SIZES = (12, 18, 24, 30)

#: The size whose batch wall time ``scripts/bench_trend.py`` tracks.
GATE_SIZE = 24


def scaling_layout(num_sites: int) -> SidbLayout:
    """A BDL wire with ``num_sites`` dots (the paper's workhorse).

    Dimers are spaced like the canonical Bestagon wire segments: two
    dots two columns apart, six columns between dimers.
    """
    sites = []
    column = 0
    for _ in range((num_sites + 1) // 2):
        sites.append(LatticeSite(column, 0, 0))
        sites.append(LatticeSite(column + 2, 0, 0))
        column += 6
    return SidbLayout(sites[:num_sites])


def _time(function, repeats: int) -> tuple[float, object]:
    function()  # warm-up: geometry cache, allocator, imports
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_point(
    num_sites: int,
    schedule: SimAnnealParameters | None = None,
    repeats: int = 3,
    workers: int = 2,
) -> dict:
    """Time batch vs process-parallel annealing at one system size.

    Returns a record with best-of-``repeats`` wall times and the ground
    energies both paths found.  Both share the seed/instances/sweeps
    budget; the parallel path runs the batch kernel split over
    ``workers`` processes.
    """
    schedule = schedule or SimAnnealParameters(
        instances=16, sweeps=200, seed=7
    )
    layout = scaling_layout(num_sites)

    batch_time, batch_result = _time(
        lambda: SimAnneal(layout, schedule=schedule).run(), repeats
    )
    parallel_time, parallel_result = _time(
        lambda: parallel_simanneal(
            layout, schedule=schedule, workers=workers
        ),
        repeats,
    )
    return {
        "num_sites": num_sites,
        "instances": schedule.instances,
        "sweeps": schedule.sweeps,
        "seed": schedule.seed,
        "workers": workers,
        "batch_seconds": batch_time,
        "parallel_seconds": parallel_time,
        "batch_energy": batch_result.ground_energy,
        "parallel_energy": parallel_result.ground_energy,
        "parallel_matches_batch": bool(
            parallel_result.ground_energy == batch_result.ground_energy
            and len(parallel_result.ground_states)
            == len(batch_result.ground_states)
        ),
    }


def run_scaling_benchmark(
    sizes: tuple[int, ...] = SCALING_SIZES,
    schedule: SimAnnealParameters | None = None,
    repeats: int = 3,
    workers: int = 2,
) -> dict:
    """The full scaling sweep; returns the ``BENCH_simanneal`` record."""
    points = [
        measure_point(n, schedule=schedule, repeats=repeats, workers=workers)
        for n in sizes
    ]
    return {
        "benchmark": "simanneal_scaling",
        "description": (
            "Wall time of SimAnneal ground-state search on BDL wires: "
            "vectorized batch kernel vs process-parallel batch (same "
            "instances/sweeps budget)."
        ),
        "points": points,
    }


def write_benchmark_json(record: dict, path: str | Path) -> Path:
    """Write the scaling record where the harness expects it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


#: System sizes of the exact-engine sweep.  ExGS is only timed up to
#: :data:`QUICKEXACT_EXGS_CEILING` (2^n enumeration beyond that would
#: dominate the whole benchmark run); QuickExact covers the full range.
QUICKEXACT_SIZES = (10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32)
QUICKEXACT_EXGS_CEILING = 22

#: The size at which the QuickExact-over-ExGS speedup is asserted.
QUICKEXACT_GATE_SIZE = 20


def measure_quickexact_point(num_sites: int, repeats: int = 3) -> dict:
    """Time ExGS vs QuickExact at one BDL-wire size.

    Both engines share one prebuilt :class:`EnergyModel`, so the timing
    isolates the search itself.  ExGS runs only up to
    :data:`QUICKEXACT_EXGS_CEILING` sites; beyond, the record carries
    QuickExact alone (there is nothing exact left to race).
    """
    from repro.sidb.energy import EnergyModel
    from repro.sidb.exhaustive import exhaustive_ground_state
    from repro.sidb.quickexact import quickexact_ground_state

    layout = scaling_layout(num_sites)
    model = EnergyModel(layout)

    quickexact_time, quickexact_result = _time(
        lambda: quickexact_ground_state(layout, model=model), repeats
    )
    stats = quickexact_result.stats
    point = {
        "num_sites": num_sites,
        "search_space": stats.search_space,
        "quickexact_seconds": quickexact_time,
        "quickexact_energy": quickexact_result.ground_energy,
        "degeneracy": quickexact_result.degeneracy,
        "nodes_visited": stats.nodes_visited,
        "configurations_enumerated": stats.configurations_enumerated,
        "enumerated_fraction": stats.enumerated_fraction,
        "cut_histogram": stats.cut_histogram(),
    }
    if num_sites <= QUICKEXACT_EXGS_CEILING:
        exgs_time, exgs_result = _time(
            lambda: exhaustive_ground_state(layout, model=model), repeats
        )
        point["exgs_seconds"] = exgs_time
        point["speedup_quickexact_over_exgs"] = exgs_time / quickexact_time
        point["results_identical"] = bool(
            exgs_result.ground_energy == quickexact_result.ground_energy
            and {tuple(s) for s in exgs_result.ground_states}
            == {tuple(s) for s in quickexact_result.ground_states}
        )
    return point


def run_quickexact_benchmark(
    sizes: tuple[int, ...] = QUICKEXACT_SIZES, repeats: int = 3
) -> dict:
    """The exact-engine race; returns the ``BENCH_quickexact`` record."""
    points = [measure_quickexact_point(n, repeats=repeats) for n in sizes]
    return {
        "benchmark": "quickexact_vs_exgs",
        "description": (
            "Wall time of exact ground-state search on BDL wires: "
            "brute-force ExGS enumeration vs the pruned QuickExact "
            "engine (witness bounds + branch-and-bound over batched "
            "frontiers + vectorized leaves), with nodes-visited pruning "
            "telemetry."
        ),
        "points": points,
    }
