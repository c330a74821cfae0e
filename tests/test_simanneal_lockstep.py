"""The lockstep anneal kernel: systems annealed together stay independent.

``anneal_lockstep`` runs the instances of several equal-size systems as
one batch, and ``check_operational`` sends the SimAnneal patterns of
equal site count through it as one task.  A row's trajectory depends
only on its own seed and system, so every result must equal the
one-system run -- serially, across worker processes and in the trace.
"""

import numpy as np
import pytest

from repro import obs
from repro.coords.lattice import LatticeSite
from repro.defects.model import DefectType, SidbDefect
from repro.networks.truth_table import TruthTable
from repro.sidb.bdl import BdlPair
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import EnergyModel
from repro.sidb.operational import GateFunctionSpec, check_operational
from repro.sidb.perfbench import scaling_layout
from repro.sidb.simanneal import (
    SimAnneal,
    SimAnnealParameters,
    _lockstep_kernel,
    anneal_lockstep,
)

S = LatticeSite.from_row

SCHEDULE = SimAnnealParameters(instances=8, sweeps=60, seed=5)


@pytest.fixture(autouse=True)
def clean_recorder():
    was_enabled = obs.enabled()
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    if was_enabled:
        obs.enable()


def _random_layout(seed: int, num_sites: int) -> SidbLayout:
    rng = np.random.default_rng(seed)
    coords = set()
    while len(coords) < num_sites:
        coords.add((int(rng.integers(0, 16)), int(rng.integers(0, 30))))
    return SidbLayout(S(c, r) for c, r in sorted(coords))


def _two_input_gate():
    """A small 2-input design whose patterns have two site counts.

    Input 1 places two perturbers for logic 1 and one for logic 0, so
    the check anneals two lockstep groups of two patterns each.
    """
    body = [S(0, 0), S(0, 2), S(6, 0), S(6, 2), S(3, 7), S(3, 9),
            S(3, 14), S(3, 16)]
    stimuli = [
        ([S(0, -8)], [S(0, -4)]),
        ([S(6, -8)], [S(6, -4), S(10, -10)]),
    ]
    pairs = [BdlPair(S(3, 14), S(3, 16))]
    return body, stimuli, pairs, GateFunctionSpec((TruthTable(2, 0b1000),))


def _pattern_tuples(report):
    return [
        (p.pattern, p.expected, p.observed, p.ground_energy, p.correct)
        for p in report.patterns
    ]


def _same_finalists(first, second) -> bool:
    return len(first) == len(second) and all(
        np.array_equal(a, b) and energy_a == energy_b
        for (a, energy_a), (b, energy_b) in zip(first, second)
    )


def _equal_size_layouts() -> list[SidbLayout]:
    return [scaling_layout(14), _random_layout(3, 14), _random_layout(8, 14)]


class TestLockstep:
    @pytest.mark.parametrize("indices", [list(range(8)), [1, 4, 6]])
    def test_kernel_candidates_alone_and_beside_others(self, indices):
        layouts = _equal_size_layouts()
        engines = [
            SimAnneal(layout, schedule=SCHEDULE) for layout in layouts
        ]
        # One system carries a charged defect: its rows get their own
        # on-site term.
        defect = SidbDefect(S(20, 10), DefectType.DB)
        engines.append(SimAnneal(
            layouts[0],
            schedule=SCHEDULE,
            model=EnergyModel(layouts[0], defects=(defect,)),
        ))
        all_seeds = engines[0].instance_seeds()
        seeds = [all_seeds[k] for k in indices]
        models = [engine.model for engine in engines]
        together, accepted, passes = _lockstep_kernel(models, SCHEDULE, seeds)
        for system, model in enumerate(models):
            alone, alone_accepted, alone_passes = _lockstep_kernel(
                [model], SCHEDULE, seeds
            )
            assert len(together[system]) == len(indices)
            for a, b in zip(alone[0], together[system]):
                assert np.array_equal(a, b)
            assert alone_accepted[0] == accepted[system]
            assert alone_passes[0] == passes[system]

    @pytest.mark.parametrize("subset", [None, [1, 4, 6]])
    def test_alone_and_beside_others_identical(self, subset):
        layouts = _equal_size_layouts()
        alone = [
            SimAnneal(layout, schedule=SCHEDULE).run_instances(subset)
            for layout in layouts
        ]
        together = anneal_lockstep(
            [SimAnneal(layout, schedule=SCHEDULE) for layout in layouts],
            subset,
        )
        assert len(together) == len(layouts)
        for single, batched in zip(alone, together):
            assert single
            assert _same_finalists(single, batched)

    def test_engines_must_match(self):
        other_schedule = SimAnnealParameters(instances=8, sweeps=60, seed=6)
        with pytest.raises(ValueError, match="site count"):
            anneal_lockstep([
                SimAnneal(scaling_layout(10), schedule=SCHEDULE),
                SimAnneal(scaling_layout(12), schedule=SCHEDULE),
            ])
        with pytest.raises(ValueError, match="schedule"):
            anneal_lockstep([
                SimAnneal(scaling_layout(10), schedule=SCHEDULE),
                SimAnneal(scaling_layout(10), schedule=other_schedule),
            ])

    def test_check_operational_workers_identical(self):
        body, stimuli, pairs, spec = _two_input_gate()
        kwargs = dict(engine="simanneal", schedule=SCHEDULE)
        serial = check_operational(body, stimuli, pairs, spec, **kwargs)
        parallel = check_operational(
            body, stimuli, pairs, spec, workers=2, **kwargs
        )
        assert [p.pattern for p in serial.patterns] == [0, 1, 2, 3]
        assert _pattern_tuples(serial) == _pattern_tuples(parallel)

    def test_check_operational_matches_one_anneal_per_pattern(self):
        body, stimuli, pairs, spec = _two_input_gate()
        report = check_operational(
            body, stimuli, pairs, spec, engine="simanneal", schedule=SCHEDULE
        )
        for result in report.patterns:
            layout = SidbLayout(body)
            for bit, (far, close) in enumerate(stimuli):
                layout.extend(close if (result.pattern >> bit) & 1 else far)
            alone = SimAnneal(layout, schedule=SCHEDULE).run()
            assert result.ground_energy == alone.ground_energy

    def test_trace_has_one_run_span_per_pattern(self):
        body, stimuli, pairs, spec = _two_input_gate()
        obs.enable()
        with obs.span("root") as root:
            check_operational(
                body, stimuli, pairs, spec, engine="simanneal",
                schedule=SCHEDULE,
            )
        runs = root.find_all("simanneal.run")
        assert len(runs) == 4
        for run in runs:
            assert run.total("sweeps") == SCHEDULE.instances * SCHEDULE.sweeps
            assert run.counters["finalists"] > 0
        batches = root.find_all("simanneal.lockstep")
        assert [batch.attributes["batch_shape"][0] for batch in batches] == [
            2 * SCHEDULE.instances, 2 * SCHEDULE.instances
        ]
