"""Operational check of SiDB gate designs (the Figure 1c / 5 procedure).

A gate design is *operational* when, for every input combination, the
simulated ground state of the design-plus-input-stimuli exhibits the
expected logic value on every output BDL pair.

Input stimuli follow the paper's refinement of Huff et al.'s method:
instead of representing logic 1 by the presence of a perturber and
logic 0 by its absence, *both* states place a perturber -- at a closer
location for 1 and a farther one for 0 -- which "constitutes a more
realistic representation of the repulsion exerted by upstream input
logic wires" (Section 4.1).  A design therefore specifies, per input,
one SiDB set for logic 0 and one for logic 1.

Each input pattern is an independent ground-state simulation.  The
check resolves every pattern's engine up front: the patterns SimAnneal
handles are annealed together, one lockstep batch per site count
(:func:`repro.sidb.simanneal.anneal_lockstep`), and every other pattern
is its own task.  The tasks optionally fan out over worker processes
(``workers > 1``) with bit-identical results.  Per-pattern layouts share
their pairwise geometry through the :mod:`repro.sidb.energy` cache, so a
parameter sweep only pays the O(n^2) distance matrix once per distinct
site set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.coords.lattice import LatticeSite
from repro.learn import hooks as _learn_hooks
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair, read_bdl_pair
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import EnergyModel
from repro.sidb.exhaustive import exhaustive_ground_state
from repro.sidb.parallel import PatternTask, run_tasks
from repro.sidb.quickexact import quickexact_ground_state
from repro.sidb.simanneal import (
    SimAnneal,
    SimAnnealParameters,
    anneal_lockstep,
)
from repro.tech.parameters import EXACT_ENGINES, SiDBSimulationParameters

#: Ground-state engine selectors accepted by the operational checks:
#: ``"auto"`` picks the configured exact engine up to its ceiling and
#: falls back to SimAnneal beyond it; ``"exact"`` forces the configured
#: exact engine regardless of size; ``"exhaustive"``, ``"quickexact"``
#: and ``"simanneal"`` name a specific solver.
ENGINES = ("auto", "exact", "exhaustive", "quickexact", "simanneal")

#: Largest systems ``engine="auto"`` still solves exactly, per exact
#: engine.  The pruned engine pushes the crossover from 18 to 30 sites;
#: SimAnneal takes over beyond.
QUICKEXACT_AUTO_MAX_SITES = 30
EXGS_AUTO_MAX_SITES = 18


def resolve_exact_engine(
    exact_engine: str | None, parameters: SiDBSimulationParameters
) -> str:
    """The exact solver to use: explicit choice, else the parameters'."""
    resolved = (
        exact_engine if exact_engine is not None else parameters.exact_engine
    )
    if resolved not in EXACT_ENGINES:
        raise ValueError(
            f"unknown exact engine {resolved!r}; know {EXACT_ENGINES}"
        )
    return resolved


@dataclass(frozen=True)
class GateFunctionSpec:
    """What a dot-accurate gate design must compute.

    ``outputs[k]`` is the truth table of output pair ``k`` over the gate
    inputs (in input order).
    """

    outputs: tuple[TruthTable, ...]

    @property
    def num_inputs(self) -> int:
        return self.outputs[0].num_vars if self.outputs else 0


@dataclass
class PatternResult:
    """Simulation outcome for one input combination."""

    pattern: int
    expected: tuple[bool, ...]
    observed: tuple[bool | None, ...]
    ground_energy: float
    correct: bool


@dataclass
class OperationalReport:
    """Aggregated operational-domain result of a gate design."""

    operational: bool
    patterns: list[PatternResult] = field(default_factory=list)

    def truth_table_observed(self) -> list[tuple[bool | None, ...]]:
        return [p.observed for p in self.patterns]


def simulate_patterns(tasks: tuple[PatternTask, ...]) -> list[PatternResult]:
    """Ground-state simulation of patterns that one solver handles.

    Patterns on SimAnneal (which then share a schedule and a site count)
    anneal in one lockstep batch, with results identical to annealing
    each alone.  Module-level so :func:`repro.sidb.parallel.run_tasks`
    can ship it to a ``ProcessPoolExecutor`` by reference.
    """
    layouts = [task.build_layout() for task in tasks]
    first = tasks[0]
    solver = _solver(
        first.engine, first.exact_engine, first.parameters, len(layouts[0])
    )
    if solver == "simanneal":
        annealers = [
            SimAnneal(
                layout,
                task.parameters,
                task.schedule,
                model=_defect_model(layout, task.parameters, task.defects),
            )
            for task, layout in zip(tasks, layouts)
        ]
        results = [
            annealer.collect_result(finalists)
            for annealer, finalists in zip(
                annealers, anneal_lockstep(annealers)
            )
        ]
    else:
        results = [
            _ground_state(
                layout,
                task.parameters,
                solver,
                task.schedule,
                task.defects,
                task.exact_engine,
            )
            for task, layout in zip(tasks, layouts)
        ]
    return [
        _pattern_result(task, layout, result)
        for task, layout, result in zip(tasks, layouts, results)
    ]


def _pattern_result(
    task: PatternTask, layout: SidbLayout, result
) -> PatternResult:
    """Read the outputs of one pattern's ground state(s)."""
    if result.ground_states:
        occupation = result.occupation()
        observed = tuple(
            read_bdl_pair(layout, occupation, pair)
            for pair in task.output_pairs
        )
    else:
        observed = tuple(None for _ in task.output_pairs)
    correct = all(
        obs is not None and obs == exp
        for obs, exp in zip(observed, task.expected)
    )
    # Degenerate ground states must agree on the outputs.
    if correct and len(result.ground_states) > 1:
        for other in result.ground_states[1:]:
            other_observed = tuple(
                read_bdl_pair(layout, other, pair)
                for pair in task.output_pairs
            )
            if other_observed != observed:
                correct = False
                break
    return PatternResult(
        pattern=task.pattern,
        expected=task.expected,
        observed=observed,
        ground_energy=result.ground_energy,
        correct=correct,
    )


def check_operational(
    body_sites: list[LatticeSite],
    input_stimuli: list[tuple[list[LatticeSite], list[LatticeSite]]],
    output_pairs: list[BdlPair],
    spec: GateFunctionSpec,
    parameters: SiDBSimulationParameters | None = None,
    engine: str = "auto",
    schedule: SimAnnealParameters | None = None,
    workers: int = 1,
    defects=None,
    exact_engine: str | None = None,
) -> OperationalReport:
    """Simulate a gate design over all input patterns.

    ``input_stimuli[i]`` is the pair (sites_for_0, sites_for_1) of input
    ``i`` -- the far/close perturber sets.  ``engine`` selects the ground
    state finder (see :data:`ENGINES`); with the default ``"auto"`` the
    exact solver named by ``exact_engine`` (or, when ``None``, by
    ``parameters.exact_engine`` -- ``"quickexact"`` unless overridden)
    handles systems up to its ceiling and SimAnneal handles the rest.
    ``workers > 1`` fans the per-pattern simulations out over processes;
    results are bit-identical to the serial default.  ``defects``
    optionally lists charged surface defects
    (:class:`~repro.defects.model.SidbDefect`) folded into every
    pattern's energy model as fixed point charges; with none the check
    is bit-identical to the pristine-surface result.
    """
    parameters = parameters or SiDBSimulationParameters()
    num_inputs = len(input_stimuli)
    if spec.num_inputs != num_inputs:
        raise ValueError("spec arity does not match the number of inputs")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    exact_engine = resolve_exact_engine(exact_engine, parameters)

    stimuli_spec = tuple(
        (tuple(sites0), tuple(sites1)) for sites0, sites1 in input_stimuli
    )
    tasks = [
        PatternTask(
            pattern=pattern,
            body_sites=tuple(body_sites),
            input_stimuli=stimuli_spec,
            output_pairs=tuple(output_pairs),
            expected=tuple(
                table.get_bit(pattern) for table in spec.outputs
            ),
            parameters=parameters,
            engine=engine,
            schedule=schedule,
            defects=tuple(defects) if defects else (),
            exact_engine=exact_engine,
        )
        for pattern in range(1 << num_inputs)
    ]
    # Each pattern's solver is fixed up front.  SimAnneal patterns of
    # equal site count anneal as one lockstep batch; every other pattern
    # is a task of its own.
    groups: dict[object, list[PatternTask]] = {}
    for task in tasks:
        size = len(task.build_layout())
        solver = _solver(engine, exact_engine, parameters, size)
        key = ("simanneal", size) if solver == "simanneal" else task.pattern
        groups.setdefault(key, []).append(replace(task, engine=solver))
    results = sorted(
        (
            result
            for batch in run_tasks(
                simulate_patterns,
                [tuple(group) for group in groups.values()],
                workers,
                label="operational.patterns",
            )
            for result in batch
        ),
        key=lambda result: result.pattern,
    )
    # Learn-hook: contribute this physics-labeled geometry as a
    # training example.  Disabled path is one attribute check; the
    # hook never influences the verdict below.
    if _learn_hooks.COLLECTOR is not None:
        _learn_hooks.record_operational(
            body_sites,
            input_stimuli,
            output_pairs,
            spec.outputs,
            parameters,
            tuple(defects) if defects else (),
            correct=sum(1 for result in results if result.correct),
            total=len(results),
        )
    return OperationalReport(
        operational=all(result.correct for result in results),
        patterns=results,
    )


def _solver(
    engine: str,
    exact_engine: str | None,
    parameters: SiDBSimulationParameters,
    num_sites: int,
) -> str:
    """The solver (``quickexact``, ``exhaustive`` or ``simanneal``) that
    ``engine`` picks for a system of ``num_sites`` sites."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if engine not in ("exact", "auto"):
        return engine
    exact_engine = resolve_exact_engine(exact_engine, parameters)
    ceiling = (
        QUICKEXACT_AUTO_MAX_SITES
        if exact_engine == "quickexact"
        else EXGS_AUTO_MAX_SITES
    )
    if engine == "exact" or num_sites <= ceiling:
        return "quickexact" if exact_engine == "quickexact" else "exhaustive"
    return "simanneal"


def _defect_model(
    layout: SidbLayout, parameters: SiDBSimulationParameters, defects
) -> EnergyModel | None:
    """The energy model with charged defects folded in, else ``None``
    (each solver then builds the pristine model itself)."""
    return EnergyModel(layout, parameters, defects) if defects else None


def _ground_state(
    layout: SidbLayout,
    parameters: SiDBSimulationParameters,
    engine: str,
    schedule: SimAnnealParameters | None,
    defects=(),
    exact_engine: str | None = None,
):
    """Ground state of one layout on the solver ``engine`` picks."""
    solver = _solver(engine, exact_engine, parameters, len(layout))
    model = _defect_model(layout, parameters, defects)
    if solver == "quickexact":
        return quickexact_ground_state(layout, parameters, model=model)
    if solver == "exhaustive":
        return exhaustive_ground_state(layout, parameters, model=model)
    return SimAnneal(layout, parameters, schedule, model=model).run()
