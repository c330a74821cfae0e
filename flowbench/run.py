"""Layered flow benchmark of the Bestagon design flow.

Usage, from the repository root::

    python3 flowbench/run.py --workload table1_synth --seed 1 --seconds 30 --trace 0

One process, one worker, closed loop.  ``--trace 0`` times whole passes
with tracing off and reports the end-to-end metrics.  ``--trace 1`` runs
one untraced pass and one traced layer-by-layer replay, checks that the
replay reproduced the flow byte for byte, prints a Markdown dashboard
and reports the per-layer metrics.  Every item's output is
checked outside the timed region, and its layout size and output digest
are printed so that runs of two commits can be diffed.  The last line
of standard output is the JSON result.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = BENCH / ".state"

#: Fresh-process set-ups measured per run; their median is ``setup_s``.
SETUP_REPEATS = 7

#: Untraced passes per run at the least, whatever ``--seconds`` says: the
#: median of three rejects one pass an item spent in a slow spell.
MIN_PASSES = 3

#: What a fresh ``repro synth`` / ``repro validate`` process does before
#: its first item: import the program, build the inputs, make cold caches.
SETUP_CODE = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
from workloads import WORKLOADS
from repro.gatelib.library import BestagonLibrary
from repro.synthesis.database import NpnDatabase
workload = WORKLOADS[{workload!r}]()
workload.inputs()
workload.start_pass()
NpnDatabase()
BestagonLibrary()
"""

#: name -> unit of the end-to-end metrics.
END_TO_END = {
    "setup_s": "s",
    "wall_cal": "cal",
    "cpu_cal": "cal",
    "slowest_cal": "cal",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "area_tiles": "tiles",
    "sidbs": "count",
    "patterns_ok": "count",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str) -> float:
    """Median wall time of fresh-interpreter set-ups of the workload."""
    code = SETUP_CODE.format(
        bench=str(BENCH), src=str(ROOT / "src"), workload=workload
    )
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def repeat_within(seconds: float, run_one) -> list:
    """Run passes while the next one should end within ``seconds``.

    ``run_one(index)`` returns a pass.  At least :data:`MIN_PASSES` run, so
    a workload whose pass takes a third of the budget still reports a
    median of three.  Only pass times count, so the output checks between
    passes do not shorten the measurement.
    """
    runs, spent = [], 0.0
    while True:
        runs.append(run_one(len(runs)))
        spent += runs[-1].wall_s
        if len(runs) >= MIN_PASSES and spent + spent / len(runs) > seconds:
            return runs


def median_pass(runs) -> dict[str, float]:
    """Wall, CPU and slowest-item time of a median pass, in calibration loops.

    Every item's wall (CPU) time is divided by the median wall (CPU) time
    of the calibration loops of its pass, and its median over the passes
    is taken, so a slow spell of the machine that hits one item in one
    pass does not move the result.  The pass adds these medians up.
    """
    columns = list(zip(*(run.items for run in runs)))
    wall = [
        statistics.median(
            item.seconds / run.calibration[0] for run, item in zip(runs, column)
        )
        for column in columns
    ]
    cpu = [
        statistics.median(
            item.cpu_seconds / run.calibration[1] for run, item in zip(runs, column)
        )
        for column in columns
    ]
    return {"wall_cal": sum(wall), "cpu_cal": sum(cpu), "slowest_cal": max(wall)}


def describe(workload, run) -> tuple[list[str], dict]:
    """Check every item of a pass; (per-item lines, deterministic counts)."""
    from checks import check_flow_output, check_tile_report, sha256, tile_digest

    lines, counts = [], {"area_tiles": 0, "sidbs": 0, "patterns_ok": 0}
    for item in run.items:
        if item.output is None:
            errors, patterns, shape, digest = [], 0, "-", "-"
        elif workload.kind == "flow":
            errors, patterns = check_flow_output(item.output)
            digest = sha256(item.output.sqd)
            counts["area_tiles"] += item.output.area_tiles
            counts["sidbs"] += item.output.num_sidbs
            layout = item.output.layout
            shape = f"{layout.width}x{layout.height}"
        else:
            errors = check_tile_report(item.output)
            patterns = sum(p.correct for p in item.output.patterns)
            digest = tile_digest(item.output)
            # Each Bestagon tile is one hexagonal tile of a layout.
            counts["area_tiles"] += 1
            counts["sidbs"] += workload.library.design(item.name).num_sidbs
            shape = f"{patterns}/{len(item.output.patterns)}"
        counts["patterns_ok"] += patterns
        counts[f"item.{item.name}"] = f"{shape} {digest}"
        item.errors.extend(errors)
        status = "ok" if not item.errors else "FAILED: " + "; ".join(item.errors)
        lines.append(f"item {item.name} {shape} sha256={digest} {status}")
    return lines, counts


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from checks import check_determinism, source_fingerprint
    from layers import PER_LAYER, dashboard, per_layer_metrics
    from workloads import WORKLOADS, run_pass

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    inputs = workload.inputs()
    problems: list[str] = []
    seen: list[dict] = []  # deterministic counts of every untraced pass
    tally = {"attempted": 0, "failed": 0}

    def checked_pass(index: int, traced: bool):
        run = run_pass(workload, inputs, f"{args.seed}:{index}:{traced}", traced)
        lines, counts = describe(workload, run)
        label = f"pass {index}{' traced' if traced else ''}"
        print("\n".join(f"{label} {line}" for line in lines))
        print(f"{label} wall_s={run.wall_s:.4f} cpu_s={run.cpu_s:.4f}", flush=True)
        tally["attempted"] += len(run.items)
        tally["failed"] += sum(1 for item in run.items if item.errors)
        if not traced:
            seen.append(counts)
        return run, counts

    if args.trace:
        (plain, expected), (traced, replayed) = (
            checked_pass(0, False), checked_pass(0, True)
        )
        for name in sorted(set(expected) | set(replayed)):
            if expected.get(name) != replayed.get(name):
                problems.append(
                    f"replay differs from design_sidb_circuit: {name} is "
                    f"{replayed.get(name)}, flow gave {expected.get(name)}"
                )
        metrics, rows = per_layer_metrics(traced, plain)
        print(dashboard(args.workload, workload.kind, rows, metrics))
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        counts = {
            **expected,
            **{
                name: metrics[name]
                for name, unit in units.items()
                if unit in ("count", "bytes", "share")
            },
        }
    else:
        setup_s = measure_setup(args.workload)

        def timed_pass(index: int):
            run = checked_pass(index, False)[0]
            # Checked: keep only the times, so that memory does not grow
            # with the number of passes and ``peak_rss_mb`` measures one.
            for item in run.items:
                item.output = None
            return run

        runs = repeat_within(args.seconds, timed_pass)
        loop_s = statistics.median(run.calibration[0] for run in runs)
        print(
            f"{len(runs)} passes: median pass wall_s="
            f"{statistics.median(run.wall_s for run in runs):.4f}, "
            f"calibration loop median {loop_s * 1000:.3f} ms"
        )
        counts = seen[0]
        metrics = {
            "setup_s": setup_s,
            **median_pass(runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": 1 - tally["failed"] / tally["attempted"],
            "area_tiles": counts["area_tiles"],
            "sidbs": counts["sidbs"],
            "patterns_ok": counts["patterns_ok"],
        }
        units = END_TO_END

    # Every untraced pass, in whatever item order, must agree.
    for name in sorted(set().union(*seen)):
        values = {str(pass_counts.get(name)) for pass_counts in seen}
        if len(values) > 1:
            problems.append(f"nondeterminism: {name} differs between passes: {sorted(values)}")
    problems += check_determinism(
        STATE, f"{args.workload}.trace{args.trace}", source_fingerprint(ROOT),
        args.seed, counts,
    )
    for problem in problems:
        print(problem, file=sys.stderr)
        print(problem)
    print(json.dumps({
        "correct": not problems and tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
