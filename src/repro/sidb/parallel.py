"""Process-parallel execution of SiDB simulations.

Every ground-state simulation of an operational-domain sweep is
independent of every other one -- across input patterns and across
parameter grid points -- so the sweep is embarrassingly parallel.  This
module provides the plumbing: picklable task records, an ordered
``ProcessPoolExecutor`` map that degrades to a plain loop for
``workers <= 1`` (the default, keeping CI deterministic and fork-free),
and a process-parallel driver for the annealer itself.

A task need not be a single simulation: the operational check ships
the SimAnneal patterns of equal site count as one task, which anneals
them in one lockstep batch (:func:`repro.sidb.simanneal.anneal_lockstep`),
so serial and parallel runs take the same path.

Because the annealer derives per-instance random streams from
``SeedSequence(seed).spawn(instances)`` (see
:mod:`repro.sidb.simanneal`), splitting instances across worker
processes -- or batching patterns together -- yields *bit-identical*
results to a single-process, one-pattern run; the merge in
:meth:`SimAnneal.collect_result` is order-invariant.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro import obs
from repro.coords.lattice import LatticeSite
from repro.obs import Span
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.sidb.charge import SidbLayout
from repro.sidb.simanneal import SimAnneal, SimAnnealParameters
from repro.tech.parameters import SiDBSimulationParameters

T = TypeVar("T")
R = TypeVar("R")

#: Input stimuli in transport form: per input, (sites_for_0, sites_for_1).
StimuliSpec = tuple[tuple[tuple[LatticeSite, ...], tuple[LatticeSite, ...]], ...]


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request.

    ``None`` or ``0`` selects the machine's CPU count; negative values
    are rejected; anything else passes through.  ``1`` means serial.
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def workers_from_env(default: int = 1) -> int:
    """Worker count from the ``REPRO_WORKERS`` environment variable.

    Scripts and benchmarks read their fan-out width from this knob; a
    non-integer value gets a clear error instead of a bare traceback.
    """
    value = os.environ.get("REPRO_WORKERS", "")
    if not value:
        return default
    try:
        workers = int(value)
    except ValueError:
        raise SystemExit(
            f"REPRO_WORKERS must be an integer, got {value!r}"
        ) from None
    return resolve_workers(workers)


def _captured_call(function: Callable[[T], R], task: T) -> tuple[R, dict | None, int]:
    """Run one task under span capture; ships the trace back picklable.

    Runs in the worker process (or inline for serial execution): the
    task's whole span tree lands under one ``parallel.task`` root that
    travels back to the parent as a plain dictionary.
    """
    with obs.capture("parallel.task", enable=True) as cap:
        result = function(task)
    span_dict = cap.span.to_dict() if cap.span is not None else None
    return result, span_dict, os.getpid()


def run_tasks(
    function: Callable[[T], R],
    tasks: Sequence[T],
    workers: int = 1,
    chunksize: int = 1,
    label: str = "parallel.tasks",
) -> list[R]:
    """Apply ``function`` to ``tasks``, preserving order.

    ``workers <= 1`` runs a plain loop in-process; otherwise the tasks
    fan out over a :class:`ProcessPoolExecutor`.  ``function`` must be a
    module-level callable and the tasks picklable records.  The result
    list is always in task order, so serial and parallel execution are
    interchangeable bit-for-bit (given deterministic tasks).

    When recording is enabled the fan-out traces itself: every task --
    serial or in a worker process -- runs under a captured
    ``parallel.task`` span (workers ship theirs back with the result),
    and all of them merge as children of one ``parallel`` span with
    ``index``/``worker`` attribution.  The merged tree's *structure*
    depends only on the tasks, never on the worker count.  Each
    completed task also ticks ``obs.progress(label, ...)``.
    """
    workers = resolve_workers(workers)
    serial = workers <= 1 or len(tasks) <= 1
    total = len(tasks)
    if not obs.enabled():
        results: list[R] = []
        if serial:
            for index, task in enumerate(tasks):
                results.append(function(task))
                obs.progress(label, index + 1, total)
            return results
        with ProcessPoolExecutor(max_workers=min(workers, total)) as pool:
            for result in pool.map(function, tasks, chunksize=chunksize):
                results.append(result)
                obs.progress(label, len(results), total)
        return results

    with obs.span("parallel", label=label, tasks=total) as parent:
        results = []
        if serial:
            for index, task in enumerate(tasks):
                result, _, pid = _captured_call(function, task)
                results.append(result)
                # The captured span attached itself to the live tree as
                # ``parent``'s newest child; attribute it in place.
                child = parent.children[-1]
                child.set("index", index)
                child.set("worker", pid)
                obs.progress(label, index + 1, total)
            return results
        call = functools.partial(_captured_call, function)
        with ProcessPoolExecutor(max_workers=min(workers, total)) as pool:
            for index, (result, span_dict, pid) in enumerate(
                pool.map(call, tasks, chunksize=chunksize)
            ):
                results.append(result)
                if span_dict is not None:
                    child = Span.from_dict(span_dict)
                    child.set("index", index)
                    child.set("worker", pid)
                    parent.children.append(child)
                obs.progress(label, index + 1, total)
        return results


# --- picklable task records ----------------------------------------------


@dataclass(frozen=True)
class PatternTask:
    """One input pattern of an operational check, ready to ship.

    ``defects`` carries the fixed charged defects (as picklable
    :class:`~repro.defects.model.SidbDefect` records) to fold into the
    pattern's energy model; empty on pristine surfaces.
    """

    pattern: int
    body_sites: tuple[LatticeSite, ...]
    input_stimuli: StimuliSpec
    output_pairs: tuple[BdlPair, ...]
    expected: tuple[bool, ...]
    parameters: SiDBSimulationParameters
    engine: str
    schedule: SimAnnealParameters | None
    defects: tuple = ()
    #: Exact solver the engine dispatch should use; ``None`` defers to
    #: ``parameters.exact_engine``.
    exact_engine: str | None = None

    def build_layout(self) -> SidbLayout:
        """Body plus the pattern's chosen far/close input perturbers."""
        layout = SidbLayout(self.body_sites)
        for bit, (sites0, sites1) in enumerate(self.input_stimuli):
            chosen = sites1 if (self.pattern >> bit) & 1 else sites0
            layout.extend(chosen)
        return layout


@dataclass(frozen=True)
class DomainPointTask:
    """One parameter grid point of an operational-domain sweep."""

    x: float
    y: float
    body_sites: tuple[LatticeSite, ...]
    input_stimuli: StimuliSpec
    output_pairs: tuple[BdlPair, ...]
    outputs: tuple[TruthTable, ...]
    parameters: SiDBSimulationParameters
    engine: str
    schedule: SimAnnealParameters | None
    exact_engine: str | None = None


@dataclass(frozen=True)
class AnnealTask:
    """A slice of annealing instances for one worker process."""

    sites: tuple[LatticeSite, ...]
    parameters: SiDBSimulationParameters
    schedule: SimAnnealParameters
    instance_indices: tuple[int, ...]


def _anneal_worker(task: AnnealTask) -> list[tuple[list[int], float]]:
    """Run a slice of instances; returns picklable finalists."""
    engine = SimAnneal(SidbLayout(task.sites), task.parameters, task.schedule)
    return [
        (occupation.tolist(), energy)
        for occupation, energy in engine.run_instances(
            list(task.instance_indices)
        )
    ]


def parallel_simanneal(
    layout: SidbLayout,
    parameters: SiDBSimulationParameters | None = None,
    schedule: SimAnnealParameters | None = None,
    workers: int = 2,
):
    """Anneal with the instances split across worker processes.

    Bit-identical to ``SimAnneal(layout, parameters, schedule).run()``
    thanks to order-independent per-instance seeding.
    """
    import numpy as np

    schedule = schedule or SimAnnealParameters()
    parameters = parameters or SiDBSimulationParameters()
    workers = min(resolve_workers(workers), max(1, schedule.instances))
    engine = SimAnneal(layout, parameters, schedule)
    if workers <= 1 or len(layout) == 0:
        return engine.run()
    sites = tuple(layout.sites())
    slices = [
        tuple(range(start, schedule.instances, workers))
        for start in range(workers)
    ]
    tasks = [
        AnnealTask(sites, parameters, schedule, indices)
        for indices in slices
        if indices
    ]
    finalists = []
    for batch in run_tasks(
        _anneal_worker, tasks, workers, label="simanneal.instances"
    ):
        finalists.extend(
            (np.asarray(occupation, dtype=np.int8), energy)
            for occupation, energy in batch
        )
    return engine.collect_result(finalists)
