"""The benchmark's workloads: their inputs, timed passes and traced replays.

A *pass* runs every item of a workload once, closed loop and serially
(``workers=1``): the next item starts when the previous one finished.
Each pass starts with cold program caches, as a fresh ``repro synth`` or
``repro validate`` process would.  The seed only shuffles the item order
within a pass; outputs must not depend on it.

Untraced passes call the program exactly as the CLI does.  Traced passes
*replay* the same work by calling each layer's public function in turn,
with spans owned by this benchmark around every call (named in
``layers.LAYER_TIME``); the program's own ``sat.*``/``quickexact.*``/``simanneal.*``
counters land inside them.
"""

from __future__ import annotations

import random
import statistics
import time
import traceback
from dataclasses import dataclass, field

from repro import obs
from repro.flow.design_flow import FlowConfiguration, design_sidb_circuit
from repro.gatelib.apply import apply_library
from repro.gatelib.library import BestagonLibrary
from repro.layout.drc import check_layout
from repro.layout.gate_layout import GateLevelLayout
from repro.layout.supertile import merge_into_supertiles
from repro.networks.benchmarks import benchmark_verilog
from repro.networks.verilog import parse_verilog
from repro.networks.xag import Xag
from repro.physical_design.exact import ExactPhysicalDesign, ExactStatistics
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import clear_geometry_cache, geometry_cache_stats
from repro.sqd.sqd import write_sqd
from repro.synthesis.database import NpnDatabase
from repro.synthesis.mapping import map_to_bestagon
from repro.synthesis.rewrite import RewriteStatistics, cut_rewrite
from repro.verification.equivalence import (
    EquivalenceResult,
    check_layout_against_network,
)


@dataclass
class Replay:
    """What the traced replay of one flow item returned, layer by layer."""

    database: NpnDatabase
    rewrite: RewriteStatistics
    exact: ExactStatistics
    mapped_nodes: int


@dataclass
class FlowOutput:
    """The parts of a flow result the checks read (flow or replay)."""

    engine: str
    specification: Xag
    layout: GateLevelLayout
    sidb_layout: SidbLayout
    sqd: str
    equivalence: EquivalenceResult
    drc_violations: list
    replay: Replay | None = None

    @property
    def area_tiles(self) -> int:
        return self.layout.num_tiles

    @property
    def num_sidbs(self) -> int:
        return len(self.sidb_layout)


@dataclass
class ItemRun:
    """One item of one pass: its time, its output, and why it failed."""

    name: str
    seconds: float
    cpu_seconds: float
    #: A :class:`FlowOutput`, a tile's ``OperationalReport``, or ``None``
    #: when the item raised.
    output: object = None
    #: Empty when the item passed every check; otherwise the reasons.
    errors: list[str] = field(default_factory=list)


@dataclass
class PassRun:
    wall_s: float
    cpu_s: float
    items: list[ItemRun]
    trace: obs.Span | None = None
    geometry: dict[str, int] = field(default_factory=dict)
    #: Median (wall, CPU) seconds of the pass's :func:`calibration_loop`
    #: runs; untraced passes only.
    calibration: tuple[float, float] | None = None


def _timed(name: str, call, *args) -> ItemRun:
    """Run one item; an item that raises fails, and the pass goes on."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        output, errors = call(*args), []
    except Exception as error:
        traceback.print_exc()
        output, errors = None, [f"raised {type(error).__name__}: {error}"]
    return ItemRun(
        name, time.perf_counter() - wall, time.process_time() - cpu,
        output, errors,
    )


class FlowWorkload:
    """Verilog benchmarks through the whole flow at the CLI defaults."""

    kind = "flow"

    def __init__(self, names: tuple[str, ...]) -> None:
        self.names = names

    def inputs(self) -> list[tuple[str, str]]:
        return [(name, benchmark_verilog(name)) for name in self.names]

    def start_pass(self) -> None:
        # ``FlowConfiguration(database=None, library=None)`` already gives
        # every design a new NpnDatabase and BestagonLibrary.
        clear_geometry_cache()

    def run(self, item: tuple[str, str]) -> ItemRun:
        return _timed(item[0], self._flow, *item)

    def replay(self, item: tuple[str, str]) -> ItemRun:
        with obs.span("item", item=item[0]):
            return _timed(item[0], self._replay, *item)

    @staticmethod
    def _flow(name: str, verilog: str) -> FlowOutput:
        result = design_sidb_circuit(verilog, name, FlowConfiguration(trace=False))
        return FlowOutput(
            result.engine_used, result.specification, result.layout,
            result.sidb_layout, result.sqd, result.equivalence,
            result.drc_violations,
        )

    @staticmethod
    def _replay(name: str, verilog: str) -> FlowOutput:
        """The flow of :func:`design_sidb_circuit`, one layer call at a time.

        Exact P&R only: every item of the flow workloads places exactly,
        and a replay that cannot shows up as a failed item.
        """
        config = FlowConfiguration(trace=False)
        with obs.span("parse_verilog"):
            xag = parse_verilog(verilog, name)
        database, rewrite = NpnDatabase(), RewriteStatistics()
        with obs.span("cut_rewrite"):
            optimized = cut_rewrite(xag, database, statistics=rewrite)
        with obs.span("map_to_bestagon"):
            mapped = map_to_bestagon(optimized)
        exact = ExactStatistics()
        with obs.span("ExactPhysicalDesign.run"):
            layout = ExactPhysicalDesign(
                max_width=config.exact_max_width,
                extra_rows=config.exact_extra_rows,
                conflict_limit=config.exact_conflict_limit,
                clocking=config.clocking,
                time_limit_seconds=config.exact_time_limit_seconds,
                defects=config.defects,
            ).run(mapped, exact)
        with obs.span("check_layout_against_network"):
            equivalence = check_layout_against_network(
                xag, layout, config.verify_conflict_limit
            )
        with obs.span("check_layout"):
            violations = check_layout(layout)
        with obs.span("merge_into_supertiles"):
            merge_into_supertiles(layout, config.design_rules)
        library = BestagonLibrary()
        with obs.span("apply_library"):
            sidb_layout = apply_library(layout, library)
        with obs.span("write_sqd"):
            sqd = write_sqd(sidb_layout, name, config.defects)
        return FlowOutput(
            "exact", xag, layout, sidb_layout, sqd, equivalence,
            violations, Replay(database, rewrite, exact, mapped.num_nodes),
        )


class PhysicsWorkload:
    """Figure 5: ground-state validation of every Bestagon tile."""

    kind = "physics"

    def inputs(self) -> list[str]:
        return BestagonLibrary().names()

    def start_pass(self) -> None:
        # A new library forgets its validation results.
        self.library = BestagonLibrary()
        clear_geometry_cache()

    def run(self, name: str) -> ItemRun:
        return _timed(name, self.library.validate, name)

    def replay(self, name: str) -> ItemRun:
        with obs.span("item", item=name):
            with obs.span("BestagonLibrary.validate"):
                return _timed(name, self.library.validate, name)


#: Table-1 rows that place exactly within the default conflict budget.
TABLE1_EXACT = (
    "xor2", "xnor2", "par_gen", "mux21", "par_check", "xor5_r1",
    "xor5_majority", "t", "t_5", "c17", "majority",
)

WORKLOADS = {
    "table1_synth": lambda: FlowWorkload(TABLE1_EXACT),
    "pnr_newtag": lambda: FlowWorkload(("newtag",)),
    "tile_physics": PhysicsWorkload,
}


def calibration_loop() -> tuple[float, float]:
    """(wall, CPU) seconds of a fixed pure-Python loop, about 12 ms.

    The shared machine's speed drifts by a quarter and more over minutes,
    and the loop slows with it.  An item's time divided by the loop's
    median time in its pass drifts far less: the benchmark's run times
    are in these units.  The loop is the benchmark's own code, the same
    on every commit, so a change to the program moves the item and not
    the loop.  It makes only two objects the garbage collector tracks, so
    it never starts a collection, whose time would grow with the
    program's heap.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    table, total = {}, 0
    for index in range(40000):
        key = (index * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + index
        total ^= key
    sorted(table)
    return time.perf_counter() - wall, time.process_time() - cpu


def run_pass(workload, inputs: list, order_seed: str, traced: bool) -> PassRun:
    """Run every input once, in an order shuffled by ``order_seed``.

    An untraced pass runs :func:`calibration_loop` before every item and
    after the last, so its median samples the machine's speed over the
    whole pass; the pass's times leave the loops out.
    """
    order = list(inputs)
    random.Random(order_seed).shuffle(order)
    call = workload.replay if traced else workload.run
    loops = []
    with obs.capture("pass", enable=traced) as captured:
        wall, cpu = time.perf_counter(), time.process_time()
        workload.start_pass()
        items = []
        for item in order:
            if not traced:
                loops.append(calibration_loop())
            items.append(call(item))
        if not traced:
            loops.append(calibration_loop())
        wall = time.perf_counter() - wall - sum(loop[0] for loop in loops)
        cpu = time.process_time() - cpu - sum(loop[1] for loop in loops)
    items.sort(key=lambda item: item.name)
    calibration = None
    if loops:
        calibration = (
            statistics.median(loop[0] for loop in loops),
            statistics.median(loop[1] for loop in loops),
        )
    return PassRun(
        wall, cpu, items, captured.span, geometry_cache_stats(), calibration
    )
