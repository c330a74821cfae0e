"""QuickExact-style pruned exact ground-state search.

The exhaustive engine (:mod:`repro.sidb.exhaustive`) enumerates all
2^N occupation vectors, which caps exact simulation at ~24 sites.
"The Need for Speed: Efficient Exact Simulation of Silicon Dangling
Bond Logic" (Drewniok, Walter, Wille) shows that physically informed
search-space pruning finds the very same ground states orders of
magnitude faster.  This module implements that idea on top of the
repo's :class:`~repro.sidb.energy.EnergyModel`:

* **Negative-charge witness bounds.**  Sites are decided one by one
  (negative or neutral).  Because every pairwise interaction
  ``V_ij >= 0``, the local potential of site *i* over all completions
  of a partial assignment is bracketed by ``base_i`` (contributions of
  the already-decided negatives) and ``base_i + rem_i`` (``rem_i`` =
  total potential the still-undecided sites could add).  A decided
  *negative* site that violates ``v_i + mu <= 0`` even at its minimum
  potential, or a decided *neutral* site that violates
  ``v_i + mu >= 0`` even at its maximum, witnesses that **no**
  completion of the subtree is population stable -- the subtree is cut
  without losing a single stable configuration.

* **Branch-and-bound energy pruning.**  Each partial assignment
  carries an energy lower bound -- the decided part's exact energy plus
  ``min(0, mu + ext_j + base_j)`` per undecided site, valid because
  cross-terms among undecided negatives are repulsive -- and subtrees
  provably above the incumbent (the best metastable energy found so
  far, plus the degeneracy tolerance) are skipped.  Disable with
  ``energy_pruning=False`` to enumerate *every* stable configuration
  (then ``valid_count`` matches ExGS exactly).

* **Batched frontiers.**  The depth-first search expands a whole batch
  of equal-depth partial assignments per step and applies the cuts to
  it in a few array operations; survivors are pushed in chunks so the
  leaves are still reached in depth-first preorder, and the first
  batched dive seeds a tight incumbent by itself.  Once only
  ``_LEAF_BITS`` sites remain undecided, all 2^_LEAF_BITS completions
  of many leaves are evaluated as one numpy block -- the same
  formulation as the exhaustive engine, with the completion patterns
  and their potentials computed once per search.

Candidate energies are *recomputed* through the shared
:meth:`~repro.sidb.energy.EnergyModel.batched_energies` before they are
compared or reported, so the returned ground energy and degenerate
state set are bit-identical to the exhaustive engine's (the
incrementally maintained decomposition is only used for pruning, with
a small slack guarding against last-ulp drift).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.sidb.charge import SidbLayout
from repro.sidb.energy import EnergyModel
from repro.sidb.exhaustive import GroundStateResult
from repro.sidb.stability import (
    POPULATION_TOLERANCE,
    batched_configuration_stable,
)
from repro.tech.parameters import SiDBSimulationParameters

#: Hard site ceiling of the pruned engine.  Beyond this even the pruned
#: prefix tree can degenerate; the automatic engine selection hands
#: larger systems to SimAnneal.
MAX_QUICKEXACT_SITES = 32

#: Undecided-site count at which a partial assignment becomes a leaf:
#: its 2^_LEAF_BITS completions are enumerated as one numpy block.
#: Small leaves give the witness cuts a deep prefix to prune.
_LEAF_BITS = 4

#: log2 of the configurations one batch holds.  Every batched array --
#: a frontier expansion (two children per parent), a block of leaves
#: with all their completions, one configuration-stability call --
#: stays at about 2^_BATCH_BITS * n elements.
_BATCH_BITS = 10

#: Most partial assignments expanded as one frontier.
_FRONTIER_BATCH = 1 << (_BATCH_BITS - 1)

#: Slack added wherever the search's decomposed (incrementally
#: maintained) energies are compared against exactly recomputed ones;
#: covers last-ulp differences between the two summation orders.
_DECOMPOSITION_SLACK = 1e-12


@dataclass
class QuickExactStatistics:
    """Pruning telemetry of one QuickExact search.

    ``nodes_visited`` counts interior partial assignments explored,
    ``configurations_enumerated`` the full occupation vectors the
    vectorized leaves evaluated; their relation to ``search_space``
    (2^N) is the engine's whole speed story.  The ``cut_*`` counters
    attribute every pruned subtree to the bound that fired.
    """

    num_sites: int = 0
    search_space: int = 0
    nodes_visited: int = 0
    leaves_evaluated: int = 0
    configurations_enumerated: int = 0
    cut_witness_occupied: int = 0
    cut_witness_empty: int = 0
    cut_energy_bound: int = 0
    incumbent_energy: float = float("inf")

    @property
    def enumerated_fraction(self) -> float:
        """Leaf configurations evaluated as a fraction of 2^N."""
        if not self.search_space:
            return 0.0
        return self.configurations_enumerated / self.search_space

    def cut_histogram(self) -> dict[str, int]:
        """Pruned-subtree attribution by the bound that cut it."""
        return {
            "witness_occupied": self.cut_witness_occupied,
            "witness_empty": self.cut_witness_empty,
            "energy_bound": self.cut_energy_bound,
        }


def _site_order(layout: SidbLayout) -> np.ndarray:
    """Spatial (x, then y) visiting order of the sites.

    Deciding sites in spatial order keeps the decided prefix
    geometrically contiguous, so a decided site's strongest interaction
    partners are decided soon after it -- which is what makes the
    witness bounds tight early in the recursion.
    """
    positions = np.asarray(
        [site.position_nm for site in layout.sites()], dtype=float
    )
    if positions.size == 0:
        return np.zeros(0, dtype=np.intp)
    return np.lexsort((positions[:, 1], positions[:, 0]))


def quickexact_ground_state(
    layout: SidbLayout,
    parameters: SiDBSimulationParameters | None = None,
    require_configuration_stability: bool = True,
    energy_tolerance: float = 1e-9,
    model: EnergyModel | None = None,
    energy_pruning: bool = True,
    incumbent: float | None = None,
) -> GroundStateResult:
    """Exact ground state(s) of an SiDB layout via pruned search.

    Drop-in replacement for :func:`~repro.sidb.exhaustive.
    exhaustive_ground_state` with the site ceiling raised from 24 to
    :data:`MAX_QUICKEXACT_SITES`: same ground energy, same degenerate
    state set (in an order of its own), computed from the same
    :class:`EnergyModel` arithmetic.  ``valid_count`` counts the
    (meta)stable configurations the pruned search enumerated -- equal
    to the exhaustive count when ``energy_pruning=False`` (the witness
    cuts alone never skip a stable configuration), a lower bound
    otherwise (only configurations inside the energy window are
    checked for configuration stability).

    ``incumbent`` optionally injects a known upper bound on the ground
    energy (e.g. from a previous simulation of a related layout);
    ``None`` leaves it to the search, whose first leaves seed it.  The
    result's ``stats`` field carries a :class:`QuickExactStatistics`
    record with node/cut attribution.
    """
    n = len(layout)
    if n > MAX_QUICKEXACT_SITES:
        raise ValueError(
            f"{n} sites exceed the QuickExact limit of "
            f"{MAX_QUICKEXACT_SITES}"
        )
    model = model or EnergyModel(layout, parameters)
    stats = QuickExactStatistics(num_sites=n, search_space=1 << n)
    result = GroundStateResult(layout, total_count=1 << n, stats=stats)
    if n == 0:
        result.ground_states = [np.zeros(0, dtype=np.int8)]
        result.ground_energy = 0.0
        result.valid_count = 1
        return result

    with obs.span("quickexact.run") as span:
        span.set("sites", n)
        incumbent_energy = (
            float("inf") if incumbent is None else float(incumbent)
        )
        stats.incumbent_energy = incumbent_energy

        search = _QuickExactSearch(
            model=model,
            order=_site_order(layout),
            require_configuration_stability=require_configuration_stability,
            energy_tolerance=energy_tolerance,
            energy_pruning=energy_pruning,
            incumbent_energy=incumbent_energy,
            stats=stats,
        )
        search.run()

        result.valid_count = search.valid_count
        result.ground_energy = search.best_energy
        result.ground_states = search.ground_states()
        span.add("quickexact.nodes", stats.nodes_visited)
        span.add("quickexact.leaves", stats.leaves_evaluated)
        span.add("quickexact.configs", stats.configurations_enumerated)
        span.add("quickexact.cut.witness_occupied", stats.cut_witness_occupied)
        span.add("quickexact.cut.witness_empty", stats.cut_witness_empty)
        span.add("quickexact.cut.energy_bound", stats.cut_energy_bound)
        span.set("enumerated_fraction", round(stats.enumerated_fraction, 6))
    return result


class _QuickExactSearch:
    """One pruned depth-first search over frontiers of partial assignments.

    A frontier is a batch of partial assignments of equal depth, held
    as three arrays: decided occupations ``(K, depth)``, local
    potentials of the decided negatives ``base`` ``(K, n)`` and decided
    energies ``(K,)``.  Expanding a frontier makes both children of
    every node (interleaved ``[likelier, other]`` per parent), applies
    the cuts to the whole batch at once and pushes the survivors, split
    into chunks, on a stack in reverse -- so leaves are reached in the
    preorder of the equivalent one-node-at-a-time recursion.
    """

    def __init__(
        self,
        model: EnergyModel,
        order: np.ndarray,
        require_configuration_stability: bool,
        energy_tolerance: float,
        energy_pruning: bool,
        incumbent_energy: float,
        stats: QuickExactStatistics,
    ) -> None:
        self.model = model
        self.order = order
        self.require_configuration_stability = require_configuration_stability
        self.tolerance = energy_tolerance
        self.energy_pruning = energy_pruning
        self.incumbent_energy = incumbent_energy
        self.stats = stats

        n = model.num_sites
        self.n = n
        # Permuted-space views of the model: Vp[i, j] couples the i-th
        # and j-th *visited* sites; c = mu + external potential is the
        # full on-site term, so w = base + c is exactly v + mu.
        self.matrix = model.potential_matrix[np.ix_(order, order)].copy()
        onsite = np.full(n, model.parameters.mu_minus)
        if model.external_potential is not None:
            onsite = onsite + model.external_potential[order]
        self.onsite = onsite
        self.external = (
            model.external_potential[order]
            if model.external_potential is not None
            else None
        )
        # rem[k] = potential the still-undecided sites k.. could add.
        self.rem = np.zeros((n + 1, n))
        self.rem[:n] = np.cumsum(self.matrix[::-1], axis=0)[::-1]

        # Every leaf sits at the same depth, so the completions and
        # their potential contributions are computed once per search.
        self.leaf_depth = max(0, n - _LEAF_BITS)
        m = n - self.leaf_depth
        bits = np.arange(1 << m)[:, None] >> np.arange(m)
        self.suffix_occupied = bits & 1 > 0
        self.suffix_sign = np.where(self.suffix_occupied, 1.0, -1.0)
        self.suffix_float = self.suffix_occupied.astype(float)
        self.suffix_potentials = (
            self.suffix_float @ self.matrix[self.leaf_depth:, :]
        )
        self.suffix_pair_energy = 0.5 * np.einsum(
            "ki,ij,kj->k",
            self.suffix_float,
            self.matrix[self.leaf_depth:, self.leaf_depth:],
            self.suffix_float,
        )

        self.valid_count = 0
        self.best_energy = float("inf")
        #: (original-order int8 config, exact energy) candidates.
        self.candidates: list[tuple[np.ndarray, float]] = []

    # --- result assembly --------------------------------------------------
    def ground_states(self) -> list[np.ndarray]:
        """Degenerate ground set from the collected candidates."""
        if not self.candidates:
            return []
        floor = self.best_energy + self.tolerance
        return [
            config
            for config, energy in self.candidates
            if energy <= floor
        ]

    # --- search -----------------------------------------------------------
    def run(self) -> None:
        stack = [
            (
                np.zeros((1, 0), dtype=np.int8),
                np.zeros((1, self.n)),
                np.zeros(1),
            )
        ]
        while stack:
            occupation, base, energy = stack.pop()
            depth = occupation.shape[1]
            if depth == self.leaf_depth:
                # Each leaf spans 2^m completions; keep a batch at
                # 2^_BATCH_BITS configurations.
                step = 1 << max(0, _BATCH_BITS - (self.n - depth))
                for start in range(0, len(energy), step):
                    chunk = slice(start, start + step)
                    self._evaluate_leaves(
                        occupation[chunk], base[chunk], energy[chunk]
                    )
                continue
            occupation, base, energy = self._expand(occupation, base, energy)
            for start in reversed(range(0, len(energy), _FRONTIER_BATCH)):
                chunk = slice(start, start + _FRONTIER_BATCH)
                stack.append((occupation[chunk], base[chunk], energy[chunk]))

    def _expand(
        self, occupation: np.ndarray, base: np.ndarray, energy: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both children of every node, minus the hopeless ones.

        Children come out interleaved per parent, the likelier
        ground-state value first, so the incumbent tightens as early
        as possible.
        """
        count, site = occupation.shape
        decided = site + 1
        onsite = self.onsite[:decided]
        stats = self.stats
        stats.nodes_visited += 2 * count
        occupied = occupation > 0
        # The negative child adds the site's column to every potential;
        # the neutral child keeps the parent's.
        negative_base = base + self.matrix[site]
        negative_energy = energy + self.onsite[site] + base[:, site]

        # Witness bounds.  Assigning a negative only *raises* decided
        # potentials (base), so only the occupied-side criterion can
        # newly fail; assigning a neutral only *lowers* the attainable
        # maximum (base + rem), so only the empty-side criterion can.
        minimum_w = negative_base[:, :decided] + onsite
        cut_negative = (minimum_w[:, site] > POPULATION_TOLERANCE) | np.any(
            occupied & (minimum_w[:, :site] > POPULATION_TOLERANCE), axis=1
        )
        maximum_w = base[:, :decided] + self.rem[decided, :decided] + onsite
        cut_neutral = (maximum_w[:, site] < -POPULATION_TOLERANCE) | np.any(
            ~occupied & (maximum_w[:, :site] < -POPULATION_TOLERANCE), axis=1
        )
        stats.cut_witness_occupied += int(cut_negative.sum())
        stats.cut_witness_empty += int(cut_neutral.sum())
        keep_negative = ~cut_negative
        keep_neutral = ~cut_neutral
        # Branch-and-bound: undecided negatives each contribute at
        # least min(0, mu + ext + base); cross-terms among them are
        # repulsive and only add energy.
        if self.energy_pruning and self.incumbent_energy < float("inf"):
            ceiling = (
                self.incumbent_energy + self.tolerance + _DECOMPOSITION_SLACK
            )
            undecided = self.onsite[decided:]
            for keep, child_base, child_energy in (
                (keep_negative, negative_base, negative_energy),
                (keep_neutral, base, energy),
            ):
                floor = np.minimum(
                    0.0, undecided + child_base[:, decided:]
                ).sum(axis=1)
                cut = keep & (child_energy + floor > ceiling)
                stats.cut_energy_bound += int(cut.sum())
                keep &= ~cut

        first = self.onsite[site] + base[:, site] <= 0.0
        keep = np.empty((count, 2), dtype=bool)
        keep[:, 0] = np.where(first, keep_negative, keep_neutral)
        keep[:, 1] = np.where(first, keep_neutral, keep_negative)
        kept = np.flatnonzero(keep)
        parent = kept >> 1
        is_negative = (kept & 1 == 0) == first[parent]
        child_occupation = np.empty((kept.size, decided), dtype=np.int8)
        child_occupation[:, :site] = occupation[parent]
        child_occupation[:, site] = is_negative
        child_base = base[parent]
        child_base[is_negative] = negative_base[parent[is_negative]]
        child_energy = energy[parent]
        child_energy[is_negative] = negative_energy[parent[is_negative]]
        return child_occupation, child_base, child_energy

    def _evaluate_leaves(
        self, occupation: np.ndarray, base: np.ndarray, energy: np.ndarray
    ) -> None:
        n = self.n
        depth = self.leaf_depth
        leaves = len(energy)
        width = len(self.suffix_float)
        stats = self.stats
        stats.leaves_evaluated += leaves
        stats.configurations_enumerated += leaves * width
        # Population stability of every completion of every leaf, all n
        # sites at once: occupied sites need w = v + mu <= 0, empty ones
        # w >= 0, so with the empty sites' w negated both read
        # "<= tolerance".
        w = base[:, None, :] + self.suffix_potentials[None, :, :]
        w += self.onsite
        w[:, :, :depth] *= np.where(occupation > 0, 1.0, -1.0)[:, None, :]
        w[:, :, depth:] *= self.suffix_sign
        stable = w.max(axis=2) <= POPULATION_TOLERANCE
        leaf, suffix = np.nonzero(stable)
        if not leaf.size:
            return
        potentials = base[leaf] + self.suffix_potentials[suffix]
        occupied = np.empty((leaf.size, n), dtype=bool)
        occupied[:, :depth] = occupation[leaf] > 0
        occupied[:, depth:] = self.suffix_occupied[suffix]

        # Decomposed energies of the stable configurations: decided
        # part + on-site/decided coupling of the suffix + suffix pairs.
        suffix_onsite = self.onsite[depth:] + base[leaf, depth:]
        energies = (
            energy[leaf]
            + np.einsum("kj,kj->k", self.suffix_float[suffix], suffix_onsite)
            + self.suffix_pair_energy[suffix]
        )
        window = self.best_energy + self.tolerance + _DECOMPOSITION_SLACK
        picked = np.arange(leaf.size)
        if self.energy_pruning:
            # Nothing above the window can join the degenerate set, so
            # the O(n^2) configuration check only sees the rest.
            picked = picked[energies <= window]
            picked = self._count_valid(picked, potentials, occupied)
        else:
            # Count every valid configuration first (then valid_count
            # equals the exhaustive engine's), window afterwards.
            picked = self._count_valid(picked, potentials, occupied)
            picked = picked[energies[picked] <= window]
        if not picked.size:
            return
        occupied, leaf = occupied[picked], leaf[picked]

        # Exact recomputation (identical arithmetic to the exhaustive
        # engine) for everything that could join the degenerate set,
        # fed in leaf order, then by exact energy within a leaf.
        originals = np.empty((leaf.size, n), dtype=np.int8)
        originals[:, self.order] = occupied
        exact = self.model.batched_energies(originals)
        for position in np.lexsort((exact, leaf)):
            value = float(exact[position])
            if value > self.best_energy + self.tolerance:
                continue
            if value < self.best_energy - self.tolerance:
                self.best_energy = value
                self.candidates = [(originals[position].copy(), value)]
            else:
                self.best_energy = min(self.best_energy, value)
                self.candidates.append((originals[position].copy(), value))
        if self.best_energy < self.incumbent_energy:
            self.incumbent_energy = self.best_energy
            self.stats.incumbent_energy = self.best_energy

    def _count_valid(
        self, picked: np.ndarray, potentials: np.ndarray, occupied: np.ndarray
    ) -> np.ndarray:
        """The configuration-stable ``picked`` rows, counted as valid.

        The check materializes n x n hop energies per configuration, so
        it runs in slices of 2^_BATCH_BITS / n configurations.
        """
        if self.require_configuration_stability and picked.size:
            externals = 0.0 if self.external is None else self.external
            step = max(1, (1 << _BATCH_BITS) // self.n)
            picked = np.concatenate([
                chunk[
                    batched_configuration_stable(
                        potentials[chunk] + externals,
                        occupied[chunk],
                        self.matrix,
                    )
                ]
                for chunk in np.split(picked, range(step, picked.size, step))
            ])
        self.valid_count += int(picked.size)
        return picked
