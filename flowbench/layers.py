"""Per-layer metrics and the results dashboard, from one traced replay pass.

Every replayed layer call sits in a benchmark-owned span (see
``workloads.py``).  A layer's *self time* is its span's wall time minus
the ``sat.solve`` spans the program opened inside it: that time belongs
to the ``sat`` layer and is reported per flow step.  Whatever the layer
spans do not cover (library/database construction between calls, the
loop itself) is reported as ``trace.unattributed_s``.
"""

from __future__ import annotations

#: Benchmark-owned span -> the per-layer self-time metric it feeds.
LAYER_TIME = {
    "parse_verilog": "networks.parse_s",
    "cut_rewrite": "synthesis.rewrite_s",
    "map_to_bestagon": "synthesis.map_s",
    "ExactPhysicalDesign.run": "physical_design.place_route_s",
    "check_layout_against_network": "verification.verify_s",
    "check_layout": "layout.drc_s",
    "merge_into_supertiles": "layout.supertiles_s",
    "apply_library": "gatelib.apply_s",
    "write_sqd": "sqd.write_s",
    "BestagonLibrary.validate": "sidb.validate_s",
}

#: Layer spans whose SAT work is reported as its own flow step.
SAT_STEP = {
    "cut_rewrite": "rewrite",
    "ExactPhysicalDesign.run": "place_route",
    "check_layout_against_network": "verify",
}

SAT_COUNTERS = ("conflicts", "propagations", "decisions")

#: name -> (unit, better) of every per-layer metric, in report order.
PER_LAYER = {
    "networks.parse_s": ("s", "lower"),
    "synthesis.rewrite_s": ("s", "lower"),
    "synthesis.npn_lookups": ("count", "lower"),
    "synthesis.exact_calls": ("count", "lower"),
    "synthesis.exact_proven_share": ("share", "higher"),
    "synthesis.map_s": ("s", "lower"),
    "synthesis.mapped_nodes": ("count", "lower"),
    **{
        f"sat.{metric}.{step}": (unit, better)
        for metric, unit, better in (
            ("solve_s", "s", "lower"),
            ("solves", "count", "lower"),
            ("conflicts", "count", "lower"),
            ("propagations", "count", "lower"),
            ("decisions", "count", "lower"),
            ("props_per_s", "1/s", "higher"),
        )
        for step in SAT_STEP.values()
    },
    "physical_design.place_route_s": ("s", "lower"),
    "physical_design.candidates": ("count", "lower"),
    "physical_design.unsat_candidates": ("count", "lower"),
    "physical_design.budget_timeouts": ("count", "lower"),
    "physical_design.cnf_clauses": ("count", "lower"),
    "physical_design.proof_s": ("s", "lower"),
    "physical_design.winner_share": ("share", "higher"),
    "verification.verify_s": ("s", "lower"),
    "verification.conflicts": ("count", "lower"),
    "layout.drc_s": ("s", "lower"),
    "layout.supertiles_s": ("s", "lower"),
    "gatelib.apply_s": ("s", "lower"),
    "sqd.write_s": ("s", "lower"),
    "sqd.bytes": ("bytes", "lower"),
    "sidb.validate_s": ("s", "lower"),
    "sidb.quickexact_nodes": ("count", "lower"),
    "sidb.quickexact_configs": ("count", "lower"),
    "sidb.enumerated_share": ("share", "lower"),
    "sidb.simanneal_sweeps": ("count", "lower"),
    "sidb.geometry_hits": ("count", "higher"),
    "sidb.geometry_misses": ("count", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def item_layers(item_span) -> dict[str, float]:
    """Self time, SAT work and physics counts of one item's layer spans."""
    row: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        row[name] = row.get(name, 0.0) + value

    for layer in item_span.children:
        if layer.name not in LAYER_TIME:
            raise ValueError(f"span {layer.name!r} is not a known layer")
        sat = [span for span in layer.walk() if span.name == "sat.solve"]
        sat_wall = sum(s.wall_seconds for s in sat)
        add(LAYER_TIME[layer.name], layer.wall_seconds - sat_wall)
        step = SAT_STEP.get(layer.name)
        if step is not None:
            add(f"sat.solve_s.{step}", sat_wall)
            add(f"sat.solves.{step}", len(sat))
            for counter in SAT_COUNTERS:
                add(f"sat.{counter}.{step}", sum(s.total(f"sat.{counter}") for s in sat))
        for run in layer.find_all("quickexact.run"):
            add("sidb.quickexact_nodes", run.total("quickexact.nodes"))
            add("sidb.quickexact_configs", run.total("quickexact.configs"))
            add("sidb.search_space", 2 ** int(run.attributes["sites"]))
            add("sidb.quickexact_runs", 1)
        for run in layer.find_all("simanneal.run"):
            add("sidb.simanneal_sweeps", run.total("sweeps"))
            add("sidb.simanneal_runs", 1)
    return row


def item_counts(item) -> dict[str, float]:
    """Counts from the objects the replayed layer calls returned."""
    output = item.output
    replay = getattr(output, "replay", None)
    if replay is None:
        return {}
    attempts = replay.exact.attempts
    return {
        "synthesis.npn_lookups": replay.database.lookups,
        "synthesis.exact_calls": replay.database.synthesis_calls,
        # Proven-optimal recipes; the database keeps no public count.
        "synthesis.exact_proven": sum(replay.database._exact.values()),
        "synthesis.replacements": replay.rewrite.replacements,
        "synthesis.mapped_nodes": replay.mapped_nodes,
        "physical_design.candidates": len(attempts),
        "physical_design.unsat_candidates": sum(a.outcome == "unsat" for a in attempts),
        "physical_design.budget_timeouts": sum(a.outcome == "timeout" for a in attempts),
        "physical_design.cnf_clauses": replay.exact.sat_clauses,
        "physical_design.proof_s": sum(a.seconds for a in attempts if a.outcome == "unsat"),
        "verification.conflicts": output.equivalence.conflicts,
        "sqd.bytes": len(output.sqd),
    }


def per_layer_metrics(traced, untraced) -> tuple[dict[str, float], list[dict]]:
    """(per-layer metrics of the pass, one dashboard row per item)."""
    spans = {span.attributes["item"]: span for span in traced.trace.children}
    rows, totals = [], {name: 0.0 for name in PER_LAYER}
    extra: dict[str, float] = {}
    for item in traced.items:
        row = {**item_layers(spans[item.name]), **item_counts(item)}
        rows.append({"item": item, **row})
        for name, value in row.items():
            if name in totals:
                totals[name] += value
            else:
                extra[name] = extra.get(name, 0.0) + value
    for step in SAT_STEP.values():
        wall = totals[f"sat.solve_s.{step}"]
        props = totals[f"sat.propagations.{step}"]
        totals[f"sat.props_per_s.{step}"] = props / wall if wall else 0.0
    calls = totals["synthesis.exact_calls"]
    totals["synthesis.exact_proven_share"] = extra.get("synthesis.exact_proven", 0.0) / calls if calls else 0.0
    candidates = totals["physical_design.candidates"]
    totals["physical_design.winner_share"] = len(traced.items) / candidates if candidates else 0.0
    space = extra.get("sidb.search_space", 0.0)
    totals["sidb.enumerated_share"] = totals["sidb.quickexact_configs"] / space if space else 0.0
    totals["sidb.geometry_hits"] = traced.geometry["hits"]
    totals["sidb.geometry_misses"] = traced.geometry["misses"]
    attributed = sum(
        value for name, value in totals.items()
        if name in LAYER_TIME.values() or name.startswith("sat.solve_s.")
    )
    totals["trace.pass_s"] = traced.wall_s
    totals["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    totals["trace.unattributed_s"] = traced.wall_s - attributed
    return totals, rows


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}"


def _status(item) -> str:
    return "**PASS**" if not item.errors else "FAIL: " + "; ".join(item.errors)


def dashboard(workload: str, kind: str, rows: list[dict], totals: dict) -> str:
    """Markdown results dashboard: one row per design or tile."""
    get = lambda row, name: row.get(name, 0.0)  # noqa: E731
    lines = [f"## Results dashboard: {workload} (traced replay)", ""]
    if kind == "flow":
        lines += [
            "| Design | W x H | parse ms | rewrite s (lookups/exact/replaced) | map ms (nodes)"
            " | P&R s (cands/unsat) | SAT s (props) | verify s (conflicts)"
            " | DRC+supertiles ms | library ms (SiDBs) | sqd ms (bytes) | Status |",
            "|" + "---|" * 12,
        ]
        for row in rows:
            item = row["item"]
            if item.output is None:
                lines.append(f"| {item.name} |" + " - |" * 10 + f" {_status(item)} |")
                continue
            layout = item.output.layout
            sat_s = sum(get(row, f"sat.solve_s.{s}") for s in SAT_STEP.values())
            props = sum(get(row, f"sat.propagations.{s}") for s in SAT_STEP.values())
            lines.append(
                f"| {item.name} | {layout.width} x {layout.height}"
                f" | {_ms(get(row, 'networks.parse_s'))}"
                f" | {get(row, 'synthesis.rewrite_s'):.3f}"
                f" ({get(row, 'synthesis.npn_lookups'):.0f}/{get(row, 'synthesis.exact_calls'):.0f}"
                f"/{get(row, 'synthesis.replacements'):.0f})"
                f" | {_ms(get(row, 'synthesis.map_s'))} ({get(row, 'synthesis.mapped_nodes'):.0f})"
                f" | {get(row, 'physical_design.place_route_s'):.3f}"
                f" ({get(row, 'physical_design.candidates'):.0f}/{get(row, 'physical_design.unsat_candidates'):.0f})"
                f" | {sat_s:.3f} ({props:.0f})"
                f" | {get(row, 'verification.verify_s'):.3f} ({get(row, 'verification.conflicts'):.0f})"
                f" | {_ms(get(row, 'layout.drc_s') + get(row, 'layout.supertiles_s'))}"
                f" | {_ms(get(row, 'gatelib.apply_s'))} ({item.output.num_sidbs})"
                f" | {_ms(get(row, 'sqd.write_s'))} ({get(row, 'sqd.bytes'):.0f})"
                f" | {_status(item)} |"
            )
    else:
        lines += [
            "| Tile | patterns on QuickExact / SimAnneal | validate s | QuickExact nodes"
            " | anneal sweeps | patterns ok | Status |",
            "|" + "---|" * 7,
        ]
        for row in rows:
            item = row["item"]
            if item.output is None:
                lines.append(f"| {item.name} |" + " - |" * 5 + f" {_status(item)} |")
                continue
            report = item.output
            engine = f"{get(row, 'sidb.quickexact_runs'):.0f} / {get(row, 'sidb.simanneal_runs'):.0f}"
            correct = sum(p.correct for p in report.patterns)
            verdict = "operational" if report.operational else "partial"
            status = verdict if not item.errors else _status(item)
            lines.append(
                f"| {item.name} | {engine} | {get(row, 'sidb.validate_s'):.3f}"
                f" | {get(row, 'sidb.quickexact_nodes'):.0f}"
                f" | {get(row, 'sidb.simanneal_sweeps'):.0f}"
                f" | {correct}/{len(report.patterns)} | {status} |"
            )
    lines += [
        "",
        f"Traced pass {totals['trace.pass_s']:.3f} s; tracing overhead"
        f" {totals['trace.overhead_s']:+.3f} s against the untraced pass;"
        f" {totals['trace.unattributed_s']:.3f} s not inside any layer span.",
    ]
    return "\n".join(lines)
