"""Reduced ordered binary decision diagrams (ROBDDs).

An independent, canonical-form verification engine: two functions are
equivalent iff their ROBDD nodes coincide, which cross-checks the SAT
miter of :mod:`repro.verification.equivalence` through a completely
different algorithm (the tests exercise both on the same instances).

Classic implementation with a unique table, ITE-based apply with
memoization, complement-free nodes and support for counting satisfying
assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.networks.logic_network import GateType, LogicNetwork
from repro.networks.xag import Xag, XagNodeKind, is_complemented, signal_node
from repro.verification.equivalence import match_pins


class Bdd:
    """A shared ROBDD manager over a fixed number of variables."""

    ZERO = 0
    ONE = 1

    def __init__(self, num_vars: int) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        # node id -> (level, low, high); terminals use level = num_vars.
        self._nodes: list[tuple[int, int, int]] = [
            (num_vars, 0, 0),
            (num_vars, 1, 1),
        ]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}

    # --- construction ------------------------------------------------
    def variable(self, index: int) -> int:
        """The BDD of projection variable ``index``."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable {index} out of range")
        return self._make(index, self.ZERO, self.ONE)

    def constant(self, value: bool) -> int:
        return self.ONE if value else self.ZERO

    def _make(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def _level(self, node: int) -> int:
        return self._nodes[node][0]

    def _cofactors(self, node: int, level: int) -> tuple[int, int]:
        node_level, low, high = self._nodes[node]
        if node_level == level:
            return low, high
        return node, node

    # --- core ITE operator -------------------------------------------
    def ite(self, condition: int, then: int, otherwise: int) -> int:
        """If-then-else; all Boolean connectives reduce to this."""
        if condition == self.ONE:
            return then
        if condition == self.ZERO:
            return otherwise
        if then == otherwise:
            return then
        if then == self.ONE and otherwise == self.ZERO:
            return condition
        key = (condition, then, otherwise)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(
            self._level(condition), self._level(then), self._level(otherwise)
        )
        c0, c1 = self._cofactors(condition, level)
        t0, t1 = self._cofactors(then, level)
        e0, e1 = self._cofactors(otherwise, level)
        low = self.ite(c0, t0, e0)
        high = self.ite(c1, t1, e1)
        result = self._make(level, low, high)
        self._ite_cache[key] = result
        return result

    # --- Boolean connectives --------------------------------------------
    def apply_not(self, node: int) -> int:
        return self.ite(node, self.ZERO, self.ONE)

    def apply_and(self, a: int, b: int) -> int:
        return self.ite(a, b, self.ZERO)

    def apply_or(self, a: int, b: int) -> int:
        return self.ite(a, self.ONE, b)

    def apply_xor(self, a: int, b: int) -> int:
        return self.ite(a, self.apply_not(b), b)

    # --- queries -------------------------------------------------------
    def evaluate(self, node: int, assignment: list[bool]) -> bool:
        while node not in (self.ZERO, self.ONE):
            level, low, high = self._nodes[node]
            node = high if assignment[level] else low
        return node == self.ONE

    def count_satisfying(self, node: int) -> int:
        """Number of satisfying assignments over all variables."""
        cache: dict[int, int] = {}

        def count(n: int) -> int:
            if n == self.ZERO:
                return 0
            if n == self.ONE:
                return 1 << self.num_vars
            if n in cache:
                return cache[n]
            level, low, high = self._nodes[n]
            # Each branch fixes one variable at `level`.
            total = (count(low) + count(high)) // 2
            cache[n] = total
            return total

        return count(node)

    def size(self, node: int) -> int:
        """Number of distinct internal nodes reachable from ``node``."""
        seen: set[int] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in (self.ZERO, self.ONE) or current in seen:
                continue
            seen.add(current)
            _, low, high = self._nodes[current]
            stack.extend((low, high))
        return len(seen)


# --- building BDDs from networks ------------------------------------------
def bdd_from_xag(xag: Xag) -> tuple[Bdd, list[int]]:
    """BDDs of all POs of an XAG (shared manager)."""
    manager = Bdd(xag.num_pis)
    values: dict[int, int] = {0: manager.ZERO}
    for position, pi in enumerate(xag.pis()):
        values[pi] = manager.variable(position)
    for node in xag.gates():
        f0, f1 = xag.fanins(node)
        a = values[signal_node(f0)]
        if is_complemented(f0):
            a = manager.apply_not(a)
        b = values[signal_node(f1)]
        if is_complemented(f1):
            b = manager.apply_not(b)
        if xag.kind(node) is XagNodeKind.AND:
            values[node] = manager.apply_and(a, b)
        else:
            values[node] = manager.apply_xor(a, b)
    outputs = []
    for po in xag.pos():
        value = values[signal_node(po)]
        if is_complemented(po):
            value = manager.apply_not(value)
        outputs.append(value)
    return manager, outputs


def bdd_from_network(network: LogicNetwork) -> tuple[Bdd, list[int]]:
    """BDDs of all POs of a technology network (shared manager)."""
    manager = Bdd(network.num_pis)
    position = {pi: i for i, pi in enumerate(network.pis())}
    values: dict[int, int] = {}
    for node in network.nodes():
        gate_type = network.gate_type(node)
        fanins = [values[f] for f in network.fanins(node)]
        if gate_type is GateType.PI:
            values[node] = manager.variable(position[node])
        elif gate_type is GateType.CONST0:
            values[node] = manager.ZERO
        elif gate_type is GateType.CONST1:
            values[node] = manager.ONE
        elif gate_type in (GateType.BUF, GateType.FANOUT, GateType.PO):
            values[node] = fanins[0]
        elif gate_type is GateType.INV:
            values[node] = manager.apply_not(fanins[0])
        elif gate_type is GateType.AND2:
            values[node] = manager.apply_and(*fanins)
        elif gate_type is GateType.NAND2:
            values[node] = manager.apply_not(manager.apply_and(*fanins))
        elif gate_type is GateType.OR2:
            values[node] = manager.apply_or(*fanins)
        elif gate_type is GateType.NOR2:
            values[node] = manager.apply_not(manager.apply_or(*fanins))
        elif gate_type is GateType.XOR2:
            values[node] = manager.apply_xor(*fanins)
        elif gate_type is GateType.XNOR2:
            values[node] = manager.apply_not(manager.apply_xor(*fanins))
        else:
            raise ValueError(f"cannot build BDD for {gate_type}")
    return manager, [values[po] for po in network.pos()]


def _pin_names(thing: Xag | LogicNetwork) -> tuple[list, list]:
    """PI and PO names in pin order (``None`` where a pin is unnamed)."""
    if isinstance(thing, Xag):
        return (
            [thing.pi_name(pi) for pi in thing.pis()],
            [thing.po_name(index) for index in range(thing.num_pos)],
        )
    return (
        [thing.node_name(pi) for pi in thing.pis()],
        [thing.node_name(po) for po in thing.pos()],
    )


def bdd_equivalent(
    golden: Xag | LogicNetwork, candidate: Xag | LogicNetwork
) -> bool:
    """Canonical-form equivalence check (cross-check for the SAT miter).

    Builds both representations in one shared manager so equal functions
    hash to the same node.  PIs and POs are paired by name when both
    sides name the same pins (an extracted layout lists them in
    placement order), and by position otherwise.
    """
    golden_pis = golden.num_pis
    if golden_pis != candidate.num_pis:
        return False

    def build(thing) -> tuple[Bdd, list[int]]:
        if isinstance(thing, Xag):
            return bdd_from_xag(thing)
        return bdd_from_network(thing)

    manager_a, outputs_a = build(golden)
    manager_b, outputs_b = build(candidate)
    if len(outputs_a) != len(outputs_b):
        return False
    golden_pi_names, golden_po_names = _pin_names(golden)
    candidate_pi_names, candidate_po_names = _pin_names(candidate)
    identity = list(range(golden_pis))
    # Candidate variable -> golden variable, and golden PO -> candidate PO.
    variable_of = [0] * golden_pis
    for golden_index, candidate_index in enumerate(
        match_pins(golden_pi_names, candidate_pi_names) or identity
    ):
        variable_of[candidate_index] = golden_index
    po_pairing = match_pins(golden_po_names, candidate_po_names) or list(
        range(len(outputs_a))
    )
    # Different managers: rebuild both in a fresh shared manager, over
    # the golden side's variable order.
    shared = Bdd(golden_pis)

    def rebuild(
        manager: Bdd, node: int, cache: dict[int, int], variables: list[int]
    ) -> int:
        if node == manager.ZERO:
            return shared.ZERO
        if node == manager.ONE:
            return shared.ONE
        if node in cache:
            return cache[node]
        level, low, high = manager._nodes[node]
        result = shared.ite(
            shared.variable(variables[level]),
            rebuild(manager, high, cache, variables),
            rebuild(manager, low, cache, variables),
        )
        cache[node] = result
        return result

    cache_a: dict[int, int] = {}
    cache_b: dict[int, int] = {}
    rebuilt_a = [
        rebuild(manager_a, node, cache_a, identity) for node in outputs_a
    ]
    rebuilt_b = [
        rebuild(manager_b, node, cache_b, variable_of) for node in outputs_b
    ]
    return rebuilt_a == [rebuilt_b[index] for index in po_pairing]
