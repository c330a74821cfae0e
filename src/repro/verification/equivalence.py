"""SAT-based equivalence checking (flow step 5, after [Walter DAC'20])."""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.layout.gate_layout import GateLevelLayout
from repro.networks.logic_network import LogicNetwork
from repro.networks.xag import Xag
from repro.sat import Cnf, Solver, SolverResult
from repro.verification.extract import extract_network
from repro.verification.miter import build_miter, network_from_xag


@dataclass
class EquivalenceResult:
    """Tri-state outcome of an equivalence check.

    ``equivalent`` is only ``True`` on a completed UNSAT proof;
    ``undecided`` is ``True`` when the solver gave up (conflict budget
    or deadline) -- in that state there is *no* counterexample and the
    check is inconclusive, **not** a refutation.
    """

    equivalent: bool
    counterexample: list[bool] | None = None
    conflicts: int = 0
    undecided: bool = False

    def __bool__(self) -> bool:
        return self.equivalent

    @property
    def verdict(self) -> str:
        if self.undecided:
            return "undecided"
        return "equivalent" if self.equivalent else "not_equivalent"


def check_equivalence(
    golden: LogicNetwork | Xag,
    candidate: LogicNetwork | Xag,
    pi_permutation: list[int] | None = None,
    po_permutation: list[int] | None = None,
    conflict_limit: int | None = None,
) -> EquivalenceResult:
    """Prove or refute functional equivalence of two representations.

    ``conflict_limit`` bounds the solver; an inconclusive run yields an
    *undecided* result rather than a fabricated counterexample.
    """
    golden_net = network_from_xag(golden) if isinstance(golden, Xag) else golden
    candidate_net = (
        network_from_xag(candidate) if isinstance(candidate, Xag) else candidate
    )
    cnf = Cnf()
    shared, differences = build_miter(
        cnf, golden_net, candidate_net, pi_permutation, po_permutation
    )
    cnf.add_clause(differences)
    solver = Solver(cnf)
    solver.max_conflicts = conflict_limit
    with obs.span("verify.miter") as span:
        span.set("sat.variables", cnf.num_vars)
        span.set("sat.clauses", cnf.num_clauses)
        outcome = solver.solve()
        span.set("verdict", outcome.value)
    if outcome is SolverResult.UNSAT:
        return EquivalenceResult(True, conflicts=solver.conflicts)
    if outcome is SolverResult.UNKNOWN:
        return EquivalenceResult(
            False, None, solver.conflicts, undecided=True
        )
    counterexample = [solver.model_value(v) for v in shared]
    return EquivalenceResult(False, counterexample, solver.conflicts)


def match_pins(
    spec_names: list[str | None], layout_names: list[str | None]
) -> list[int] | None:
    """Spec-pin-index -> layout-pin-index mapping by name, if possible.

    Possible when both sides name the same set of distinct pins.
    """
    if None in spec_names or None in layout_names:
        return None
    if len(set(spec_names)) != len(spec_names):
        return None
    if sorted(spec_names) != sorted(layout_names):
        return None
    positions = {name: i for i, name in enumerate(layout_names)}
    return [positions[name] for name in spec_names]


def check_layout_against_network(
    specification: LogicNetwork | Xag,
    layout: GateLevelLayout,
    conflict_limit: int | None = None,
) -> EquivalenceResult:
    """Flow step 5: verify a gate-level layout against its specification.

    The layout is re-extracted from pure tile geometry; PI/PO
    correspondence is established by pin labels where available and
    positionally (left-to-right) otherwise.  An exhausted
    ``conflict_limit`` surfaces as an *undecided* result.
    """
    extracted = extract_network(layout)
    spec_net = (
        network_from_xag(specification)
        if isinstance(specification, Xag)
        else specification
    )

    spec_pi_names = [spec_net.node_name(pi) for pi in spec_net.pis()]
    layout_pi_names = [extracted.node_name(pi) for pi in extracted.pis()]
    pi_permutation = match_pins(spec_pi_names, layout_pi_names)

    spec_po_names = [spec_net.node_name(po) for po in spec_net.pos()]
    layout_po_names = [extracted.node_name(po) for po in extracted.pos()]
    po_permutation = match_pins(spec_po_names, layout_po_names)

    return check_equivalence(
        spec_net, extracted, pi_permutation, po_permutation, conflict_limit
    )
