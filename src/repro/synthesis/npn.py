"""NPN canonicalization of small Boolean functions.

Two functions are NPN-equivalent if one can be obtained from the other by
Negating inputs, Permuting inputs and/or Negating the output.  The exact
NPN database of flow step 2 stores one optimal XAG per NPN class; this
module computes the canonical representative of a function together with
the transform that maps the class representative back onto the function.

Exhaustive canonicalization (all ``2^n * n! * 2`` transforms) is exact and
fast for the n <= 4 cuts used by rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from repro.networks.truth_table import TruthTable


@dataclass(frozen=True)
class NpnTransform:
    """A transform ``f(x) = out_neg XOR canon(perm/neg applied to x)``.

    ``permutation[i]`` is the original variable feeding canonical input
    ``i``; ``input_negations`` bit ``i`` tells whether canonical input
    ``i`` is the negation of that variable.
    """

    permutation: tuple[int, ...]
    input_negations: int
    output_negation: bool

    @property
    def num_vars(self) -> int:
        return len(self.permutation)


def npn_canonical(table: TruthTable) -> tuple[TruthTable, NpnTransform]:
    """Canonical NPN representative and the transform recovering ``table``.

    Returns ``(canon, t)`` such that applying ``t`` to ``canon``
    reproduces ``table``; see :func:`apply_npn_transform`.  The canon is
    the smallest truth table over all transforms; ties go to the first
    transform in permutation -> input negation -> output negation order.
    """
    n = table.num_vars
    mask = (1 << (1 << n)) - 1
    projections = [TruthTable.variable(var, n).bits for var in range(n)]
    best_bits = -1
    best_transform: NpnTransform | None = None
    for permutation in permutations(range(n)):
        permuted = table.permute_inputs(permutation).bits
        for negations in range(1 << n):
            candidate = permuted
            for var in range(n):
                if (negations >> var) & 1:
                    high = candidate & projections[var]
                    shift = 1 << var
                    candidate = (high >> shift) | ((candidate ^ high) << shift)
            for output_negation in (False, True):
                final = candidate ^ mask if output_negation else candidate
                if best_transform is None or final < best_bits:
                    best_bits = final
                    best_transform = NpnTransform(
                        permutation, negations, output_negation
                    )
    assert best_transform is not None
    return TruthTable(n, best_bits), best_transform


def apply_npn_transform(
    canon: TruthTable, transform: NpnTransform
) -> TruthTable:
    """Invert a canonicalization: rebuild the original function.

    ``npn_canonical`` found ``canon = out_neg( perm/neg( f ) )``; this
    function computes ``f`` back from ``canon``.
    """
    table = ~canon if transform.output_negation else canon
    # Undo input negations (they commute with nothing after permutation,
    # so undo them first), then undo the permutation.
    for var in range(table.num_vars):
        if (transform.input_negations >> var) & 1:
            table = table.flip_input(var)
    inverse = [0] * transform.num_vars
    for new_var, old_var in enumerate(transform.permutation):
        inverse[old_var] = new_var
    return table.permute_inputs(inverse)


def transform_leaves(
    transform: NpnTransform, leaves: list, negate, make_not
):
    """Map structural leaves through an NPN transform.

    Given the leaves (signals) of the *original* function in variable
    order, produce the leaf signals to feed the canonical implementation:
    canonical input ``i`` is (possibly negated) original variable
    ``permutation[i]``.  ``make_not`` negates a signal.
    """
    del negate  # kept for API symmetry; negation handled via make_not
    mapped = []
    for canonical_input in range(transform.num_vars):
        leaf = leaves[transform.permutation[canonical_input]]
        if (transform.input_negations >> canonical_input) & 1:
            leaf = make_not(leaf)
        mapped.append(leaf)
    return mapped
