"""*SimAnneal*: simulated-annealing ground-state finder (SiQAD port).

The engine of [Ng TNANO'20] used by the paper to validate the Bestagon
gates (Figures 1c and 5): multiple annealing instances explore the
occupation space with single-electron add/remove and hop moves under a
geometric cooling schedule; the best *population-stable* configurations
encountered are reported.  The exhaustive engine certifies its results
on small systems (see the cross-validation tests).

One lockstep kernel (:func:`anneal_lockstep`) advances every instance
of one or more equal-size systems together as NumPy arrays -- occupation
matrix ``(systems * instances, n)``, incremental local-potential matrix,
vectorized Metropolis accept/reject -- an order of magnitude faster than
a per-move loop (QuickSim / "The Need for Speed" style).  Each row uses
its own system's interaction matrix and on-site term, so the input
patterns of an operational check anneal in one batch and pay the
kernel's per-step overhead once, not once per pattern.
:meth:`SimAnneal.run` is the one-system call of the same kernel.

Per-instance random streams are derived with
``numpy.random.SeedSequence(seed).spawn(instances)``, so instance *k*'s
trajectory depends only on ``(seed, k)`` and its own system -- never on
which other instances or systems share the batch or the process.  The
streams are drawn a block of sweeps at a time, which gives the same
numbers as one draw for the whole run in a fraction of the memory.  So
results are reproducible and identical whether the instances run alone,
beside other systems, or split across worker processes
(:func:`repro.sidb.parallel.parallel_simanneal`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import EnergyModel
from repro.sidb.exhaustive import GroundStateResult
from repro.sidb.stability import (
    POPULATION_TOLERANCE,
    is_metastable,
    is_population_stable,
)
from repro.tech.parameters import SiDBSimulationParameters

#: Configurations within this energy window of the minimum are reported
#: as degenerate ground states (matches the exhaustive engine).
ENERGY_TOLERANCE = 1e-9

#: Vectorized resolution rounds per sweep in the batch engine.  Each
#: round finalizes every instance's proposal prefix up to (and
#: including) its first Metropolis-accepted move; rejected proposals
#: are final the moment they are evaluated.  Cold sweeps resolve in one
#: or two rounds; hot sweeps are cut off after this many accepted moves
#: per instance, which bounds the kernel's wall time without hurting
#: solution quality (the exhaustive cross-validation gates this).
MAX_SPECULATIVE_PASSES = 6

#: Sweeps whose random numbers are drawn per generator call.  Blocks
#: keep the draw-derived arrays small -- for all 300 sweeps of a
#: 4-pattern batch of the 52-site half adder they would take about
#: 38 MB -- without changing the stream: numbers come off each
#: generator in the same order.
_DRAW_BLOCK_SWEEPS = 32

#: Sweep interval between ``obs.progress`` ticks in the batch kernel --
#: frequent enough for a live display, sparse enough to stay invisible
#: in the kernel's per-sweep cost.
PROGRESS_EVERY_SWEEPS = 50


@dataclass
class SimAnnealParameters:
    """Annealing schedule parameters (SiQAD-like defaults)."""

    instances: int = 16
    sweeps: int = 300
    initial_temperature: float = 0.25  # eV-scale effective temperature
    final_temperature: float = 0.002
    hop_fraction: float = 0.6
    seed: int = 0


class SimAnneal:
    """Simulated-annealing ground-state search."""

    def __init__(
        self,
        layout: SidbLayout,
        parameters: SiDBSimulationParameters | None = None,
        schedule: SimAnnealParameters | None = None,
        model: EnergyModel | None = None,
    ) -> None:
        self.layout = layout
        self.model = model or EnergyModel(layout, parameters)
        self.schedule = schedule or SimAnnealParameters()

    # --- public API -------------------------------------------------------
    def run(self, instance_subset: list[int] | None = None) -> GroundStateResult:
        """Anneal; returns the best stable configuration(s) found.

        ``instance_subset`` restricts the run to the given instance
        indices (used by the process-parallel driver); each instance's
        trajectory is independent of the subset it runs in.
        """
        finalists = self.run_instances(instance_subset)
        return self.collect_result(finalists)

    def run_instances(
        self, instance_subset: list[int] | None = None
    ) -> list[tuple[np.ndarray, float]]:
        """Run annealing instances; returns (occupation, energy) finalists.

        Every finalist is greedy-descended to the bottom of its basin
        and carries an *exactly recomputed* energy (no accumulated
        floating-point drift).
        """
        return anneal_lockstep([self], instance_subset)[0]

    def collect_result(
        self, finalists: list[tuple[np.ndarray, float]]
    ) -> GroundStateResult:
        """Merge finalists into a result with degenerate-state collection.

        All distinct metastable configurations within
        :data:`ENERGY_TOLERANCE` of the best energy are reported, so
        degeneracy-agreement checks fire for this engine exactly as they
        do for the exhaustive one.  Deterministic regardless of the
        order finalists arrive in (one batch or process-parallel).
        """
        n = len(self.layout)
        result = GroundStateResult(self.layout, total_count=1 << n)
        if n == 0:
            result.ground_states = [np.zeros(0, dtype=np.int8)]
            result.ground_energy = 0.0
            result.valid_count = 1
            return result
        if not finalists:
            return result

        best_energy = min(energy for _, energy in finalists)
        tied: dict[bytes, np.ndarray] = {}
        for occupation, energy in finalists:
            if energy > best_energy + ENERGY_TOLERANCE:
                continue
            key = occupation.astype(np.int8).tobytes()
            if key in tied:
                continue
            if not is_metastable(self.model, occupation):
                continue
            tied[key] = occupation.astype(np.int8)
        if not tied:
            return result
        result.ground_states = [tied[key] for key in sorted(tied)]
        result.ground_energy = min(
            self.model.energy(state) for state in result.ground_states
        )
        result.valid_count = len(result.ground_states)
        return result

    def instance_seeds(self) -> list[np.random.SeedSequence]:
        """Independent per-instance seed sequences (order-invariant)."""
        return np.random.SeedSequence(self.schedule.seed).spawn(
            self.schedule.instances
        )

    def _finalists(
        self, candidates: list[np.ndarray]
    ) -> list[tuple[np.ndarray, float]]:
        """Greedy-descended, population-stable candidates with energies."""
        finalists: list[tuple[np.ndarray, float]] = []
        for candidate in candidates:
            descended = self._greedy_descent(candidate)
            if not is_population_stable(self.model, descended):
                continue
            energy = self.model.energy(descended)
            finalists.append((descended, energy))
            obs.observe("simanneal.energy", energy)
        return finalists

    # --- deterministic polishing ------------------------------------------
    def _greedy_descent(self, occupation: np.ndarray) -> np.ndarray:
        """Apply strictly improving flips/hops until none remain."""
        model = self.model
        mu = model.parameters.mu_minus
        matrix = model.potential_matrix
        occupation = occupation.copy()
        potentials = model.local_potentials(occupation)
        improved = True
        while improved:
            improved = False
            # Population moves.
            for site in range(len(occupation)):
                if occupation[site]:
                    delta = -(potentials[site] + mu)
                else:
                    delta = potentials[site] + mu
                if delta < -1e-12:
                    if occupation[site]:
                        occupation[site] = 0
                        potentials -= matrix[site]
                    else:
                        occupation[site] = 1
                        potentials += matrix[site]
                    improved = True
            # Hop moves.
            occupied = np.flatnonzero(occupation)
            empty = np.flatnonzero(occupation == 0)
            for source in occupied:
                for target in empty:
                    delta = (
                        potentials[target]
                        - potentials[source]
                        - matrix[source, target]
                    )
                    if delta < -1e-12:
                        occupation[source] = 0
                        occupation[target] = 1
                        potentials -= matrix[source]
                        potentials += matrix[target]
                        improved = True
                        break
                if improved:
                    break
        return occupation

    def is_result_metastable(self, result: GroundStateResult) -> bool:
        return bool(result.ground_states) and is_metastable(
            self.model, result.occupation()
        )


# --- the lockstep kernel ----------------------------------------------------


def anneal_lockstep(
    engines: Sequence[SimAnneal], instance_subset: list[int] | None = None
) -> list[list[tuple[np.ndarray, float]]]:
    """Anneal several equal-size systems in one lockstep batch.

    Returns each engine's (occupation, energy) finalists, exactly as
    ``engine.run_instances(instance_subset)`` alone would: a row's
    trajectory depends only on its own instance seed and system.  The
    engines must share one schedule and one site count.  Each engine
    still gets its own ``simanneal.run`` span and counters.
    """
    first = engines[0]
    schedule = first.schedule
    n = len(first.layout)
    for engine in engines[1:]:
        if len(engine.layout) != n or engine.schedule != schedule:
            raise ValueError(
                "lockstep engines need one site count and one schedule"
            )
    indices = (
        list(range(schedule.instances))
        if instance_subset is None
        else sorted(instance_subset)
    )
    if n == 0 or not indices:
        return [[] for _ in engines]
    width = len(indices)
    proposals = schedule.sweeps * width * n
    with obs.span("simanneal.lockstep") as batch_span:
        batch_span.set("batch_shape", [len(engines) * width, n])
        seeds = first.instance_seeds()
        candidates, accepted, passes = _lockstep_kernel(
            [engine.model for engine in engines],
            schedule,
            [seeds[k] for k in indices],
        )
        results = []
        for system, engine in enumerate(engines):
            with obs.span("simanneal.run") as span:
                span.set("batch_shape", [width, n])
                span.add("sweeps", schedule.sweeps * width)
                span.add("moves.proposed", proposals)
                span.add("moves.accepted", int(accepted[system]))
                span.add("kernel.passes", int(passes[system]))
                if proposals:
                    span.set(
                        "acceptance_rate",
                        round(int(accepted[system]) / proposals, 4),
                    )
                finalists = engine._finalists(candidates[system])
                span.add("finalists", len(finalists))
            results.append(finalists)
    return results


def _lockstep_kernel(
    models: list[EnergyModel],
    schedule: SimAnnealParameters,
    seeds: list[np.random.SeedSequence],
) -> tuple[list[list[np.ndarray]], np.ndarray, np.ndarray]:
    """All (system, instance) rows advance together as (rows, n) arrays.

    Rows are system-major: row ``s * len(seeds) + k`` is the instance
    seeded by ``seeds[k]`` of ``models[s]``.  Every system uses the same
    per-instance random streams, so the draws are shared; interaction
    matrix, on-site term and hop interactions are the row's own.

    The kernel is *speculative*: a whole sweep's worth of proposals
    (one per site, per row) is evaluated against the current state in a
    handful of vectorized passes.  Rejected proposals are final on first
    evaluation (the state they saw is the state the sequential chain
    would have seen); after each accepted move only the row's remaining
    proposals are re-evaluated.  A row that accepts nothing in a pass is
    frozen for the rest of the sweep -- its remaining proposals would
    evaluate to the same rejections -- so every pass after the first
    only evaluates the rows that just moved.  Because annealing is
    rejection-dominated once the system cools, most sweeps resolve in
    one or two passes instead of ``n`` sequential steps -- this is
    where the order-of-magnitude win over a per-move loop comes from.

    Moves use a "reservoir" endpoint: every proposal draws a site pair
    ``(a, b)`` and becomes a hop ``a -> b`` when ``a`` is occupied and
    ``b`` empty, an electron *removal* at ``a`` when both are occupied,
    and an electron *addition* at ``a`` when ``a`` is empty -- i.e. an
    electron moves between two endpoints ``s -> t`` where either
    endpoint may be the reservoir.  All moves then share one delta
    formula ``w[t] - w[s] - M[s, t]`` (``w`` = local potential + mu on
    real sites, 0 on the reservoir) and one update path.

    Returns the per-system candidate lists, and per system the number
    of accepted moves and of kernel passes that evaluated its rows
    (both equal to what a one-system batch would count).
    """
    count = len(models)
    n = models[0].num_sites
    generators = [np.random.default_rng(seed) for seed in seeds]
    width = len(generators)
    batch = count * width
    sweeps = schedule.sweeps
    owner = np.repeat(np.arange(count), width)

    matrices = np.stack([model.potential_matrix for model in models])
    # On-site term: mu on pristine surfaces, mu plus the fixed defect
    # potential per site when charged defects are present.  The
    # incremental w updates below stay valid either way because the
    # external contribution is state-independent.
    onsite = np.stack([
        np.full(n, model.parameters.mu_minus)
        if model.external_potential is None
        else model.parameters.mu_minus + model.external_potential
        for model in models
    ])[owner]

    def local_potentials(occupied: np.ndarray) -> np.ndarray:
        """w of every row, computed from scratch."""
        stacked = occupied.astype(float).reshape(count, width, n)
        return np.matmul(stacked, matrices).reshape(batch, n) + onsite

    # State, flat: site i of row r sits at r * n + i, and one shared
    # reservoir slot sits at the end (its occupation is scratch, its w
    # stays 0).  `influence[f]` is the interaction row of flat slot f --
    # row r's system's M[i], zero for the reservoir -- so a move s -> t
    # updates the row's w by influence[t] - influence[s].
    reservoir = batch * n
    row_base = (np.arange(batch) * n)[:, None]
    influence = np.zeros((batch * n + 1, n))
    influence[:-1] = matrices[owner].reshape(batch * n, n)
    slot_index = np.arange(n)[None, :]

    flat_occupation = np.zeros(batch * n + 1, dtype=bool)
    occupation = flat_occupation[:-1].reshape(batch, n)
    occupation[:] = np.tile(
        np.stack([(g.random(n) < 0.5) for g in generators]), (count, 1)
    )
    flat_w = np.zeros(batch * n + 1)
    w = flat_w[:-1].reshape(batch, n)
    w[:] = local_potentials(occupation)

    best = np.zeros((batch, n), dtype=bool)
    best_energy = np.full(batch, np.inf)
    have_best = np.zeros(batch, dtype=bool)
    accepted = np.zeros(count, dtype=np.int64)
    passes = np.zeros(count, dtype=np.int64)
    bounds = np.arange(count + 1) * width

    temperature = schedule.initial_temperature
    cooling = (
        schedule.final_temperature / schedule.initial_temperature
    ) ** (1.0 / max(1, sweeps - 1))

    for block_start in range(0, sweeps, _DRAW_BLOCK_SWEEPS):
        block = min(_DRAW_BLOCK_SWEEPS, sweeps - block_start)
        # Per instance, (block, n) triples of (site a, site b,
        # Metropolis uniform), shared by every system's rows.
        draws = np.stack([g.random((block, n, 3)) for g in generators])
        site_a = np.minimum((draws[..., 0] * n).astype(np.intp), n - 1)
        site_b = np.minimum((draws[..., 1] * n).astype(np.intp), n - 1)
        # The hop interaction M[a, b] only matters when the move is an
        # a->b hop; for add/remove one endpoint is the reservoir.  It is
        # state-independent, so gather it up front.
        pair = site_a * n + site_b
        hop_block = np.concatenate(
            [matrix.ravel().take(pair) for matrix in matrices]
        )
        # Metropolis in threshold form: accept u < exp(-delta/T) is
        # exactly delta < -T*ln(u) -- one comparison, no per-pass exp.
        # u == 0.0 maps to +inf (always accept), same as the exp form.
        with np.errstate(divide="ignore"):
            log_accept_block = np.tile(-np.log(draws[..., 2]), (count, 1, 1))
        flat_a_block = row_base[:, None, :] + np.tile(site_a, (count, 1, 1))
        flat_b_block = row_base[:, None, :] + np.tile(site_b, (count, 1, 1))

        for step in range(block):
            sweep = block_start + step
            flat_a_all = flat_a_block[:, step]
            flat_b_all = flat_b_block[:, step]
            hop_all = hop_block[:, step]
            # A proposal slot is consumed once it is final: its
            # threshold drops to -inf, so it can never be accepted again.
            threshold_all = temperature * log_accept_block[:, step]

            # Speculative resolution: `rows` are the rows still to
            # evaluate -- all of them in the first pass, then the ones
            # that just moved.  A row moves at most once per pass, and
            # only a row that moved is evaluated again, so `moves`
            # counts the passes in which each row moved.
            rows = None
            moves = np.zeros(batch, dtype=np.int64)
            flat_a, flat_b = flat_a_all, flat_b_all
            hop_interaction, threshold = hop_all, threshold_all
            for _ in range(MAX_SPECULATIVE_PASSES):
                if rows is not None:
                    flat_a, flat_b = flat_a_all[rows], flat_b_all[rows]
                    hop_interaction = hop_all[rows]
                    threshold = threshold_all[rows]
                occ_a = flat_occupation.take(flat_a)
                occ_b = flat_occupation.take(flat_b)
                source = np.where(occ_a, flat_a, reservoir)
                target = np.where(
                    occ_a, np.where(occ_b, reservoir, flat_b), flat_a
                )
                delta = (
                    flat_w.take(target)
                    - flat_w.take(source)
                    - (occ_a & ~occ_b) * hop_interaction
                )
                accept = delta < threshold
                moved = np.flatnonzero(accept.any(axis=1))
                if moved.size == 0:
                    break
                slots = accept[moved].argmax(axis=1)
                move_source = source[moved, slots]
                move_target = target[moved, slots]
                if rows is not None:
                    moved = rows[moved]
                flat_occupation[move_source] = False
                flat_occupation[move_target] = True
                w[moved] += influence[move_target] - influence[move_source]
                # Everything up to the accepted slot is final: the slots
                # before it were rejected under the very state they
                # would have seen sequentially.  Later slots are
                # re-evaluated next round.
                threshold_all[moved] = np.where(
                    slot_index <= slots[:, None], -np.inf, threshold_all[moved]
                )
                moves[moved] += 1
                rows = moved
            # A system's rows were evaluated in one pass more than its
            # busiest row moved in, up to the pass limit.
            system_moves = moves.reshape(count, width)
            accepted += system_moves.sum(axis=1)
            passes += np.minimum(
                system_moves.max(axis=1) + 1, MAX_SPECULATIVE_PASSES
            )

            # End of sweep: refresh w exactly (cancels any incremental
            # drift) and test population stability of every row at once.
            w[:] = local_potentials(occupation)
            stable = ~(
                (occupation & (w > POPULATION_TOLERANCE))
                | (~occupation & (w < -POPULATION_TOLERANCE))
            ).any(axis=1)
            # Record exact best energies.  A row that did not move kept
            # the state whose energy the previous sweep already scored.
            if sweep:
                stable &= moves > 0
            stable_rows = np.flatnonzero(stable)
            if stable_rows.size:
                cuts = np.searchsorted(stable_rows, bounds)
                for system, model in enumerate(models):
                    system_rows = stable_rows[cuts[system]:cuts[system + 1]]
                    if system_rows.size == 0:
                        continue
                    energies = model.batched_energies(occupation[system_rows])
                    better = energies < best_energy[system_rows] - 1e-12
                    improved = system_rows[better]
                    best[improved] = occupation[improved]
                    best_energy[improved] = energies[better]
                    have_best[improved] = True
            temperature *= cooling
            if (sweep + 1) % PROGRESS_EVERY_SWEEPS == 0 or sweep + 1 == sweeps:
                obs.progress(
                    "simanneal.sweeps", sweep + 1, sweeps, instances=batch
                )

    # Rows that never visited a stable state fall back to greedy-
    # repairing their final configuration.
    final = np.where(have_best[:, None], best, occupation)
    candidates = [
        [row.astype(np.int8) for row in final[s * width:(s + 1) * width]]
        for s in range(count)
    ]
    return candidates, accepted, passes
