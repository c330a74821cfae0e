"""Tests for layout extraction, miters and equivalence checking."""

import pytest

from repro.coords.hexagonal import HexCoord, HexDirection
from repro.layout.gate_layout import (
    GateLevelLayout,
    TileContent,
    TileKind,
    cross_tile,
    wire_tile,
)
from repro.flow.design_flow import design_sidb_circuit
from repro.networks import benchmark_network, benchmark_verilog
from repro.networks.logic_network import GateType, LogicNetwork
from repro.networks.truth_table import TruthTable
from repro.networks.xag import Xag
from repro.synthesis import NpnDatabase, cut_rewrite, map_to_bestagon
from repro.physical_design import ExactPhysicalDesign
from repro.verification import (
    ExtractionError,
    bdd_equivalent,
    check_equivalence,
    check_layout_against_network,
    extract_network,
)
from repro.verification.miter import network_from_xag

NW, NE = HexDirection.NORTH_WEST, HexDirection.NORTH_EAST
SW, SE = HexDirection.SOUTH_WEST, HexDirection.SOUTH_EAST

_DB = NpnDatabase()


def xor_layout():
    """Hand-built 2x3 layout computing a XOR b."""
    layout = GateLevelLayout(2, 3, name="xor2")
    layout.place(
        HexCoord(0, 0),
        TileContent(TileKind.GATE, GateType.PI, (0,), (), (SE,), label="a"),
    )
    layout.place(
        HexCoord(1, 0),
        TileContent(TileKind.GATE, GateType.PI, (1,), (), (SW,), label="b"),
    )
    layout.place(
        HexCoord(0, 1),
        TileContent(
            TileKind.GATE, GateType.XOR2, (2,), (NW, NE), (SE,)
        ),
    )
    layout.place(
        HexCoord(1, 2),
        TileContent(TileKind.GATE, GateType.PO, (3,), (NW,), (), label="f"),
    )
    return layout


class TestExtraction:
    def test_extracts_xor(self):
        network = extract_network(xor_layout())
        assert network.num_pis == 2 and network.num_pos == 1
        assert network.simulate()[0] == TruthTable(2, 0b0110)

    def test_pin_labels_preserved(self):
        network = extract_network(xor_layout())
        names = {network.node_name(pi) for pi in network.pis()}
        assert names == {"a", "b"}
        assert network.node_name(network.pos()[0]) == "f"

    def test_crossing_swaps_signals(self):
        layout = GateLevelLayout(2, 3, name="swap")
        layout.place(
            HexCoord(0, 0),
            TileContent(TileKind.GATE, GateType.PI, (0,), (), (SE,), label="a"),
        )
        layout.place(
            HexCoord(1, 0),
            TileContent(TileKind.GATE, GateType.PI, (1,), (), (SW,), label="b"),
        )
        layout.place(HexCoord(0, 1), cross_tile(0, 1))
        layout.place(
            HexCoord(0, 2),
            TileContent(TileKind.GATE, GateType.PO, (2,), (NE,), (), label="x"),
        )
        layout.place(
            HexCoord(1, 2),
            TileContent(TileKind.GATE, GateType.PO, (3,), (NW,), (), label="y"),
        )
        network = extract_network(layout)
        # Output x (left) must carry input a (which crossed NW->SE...
        # i.e. left PO gets the NE input's signal and vice versa).
        assert network.evaluate([True, False]) == [False, True]

    def test_dangling_signal_rejected(self):
        layout = GateLevelLayout(2, 2)
        layout.place(
            HexCoord(0, 0),
            TileContent(TileKind.GATE, GateType.PI, (0,), (), (SE,)),
        )
        with pytest.raises(ExtractionError):
            extract_network(layout)

    def test_missing_driver_rejected(self):
        layout = GateLevelLayout(2, 2)
        layout.place(HexCoord(0, 1), wire_tile(0, NW, SW))
        with pytest.raises(ExtractionError):
            extract_network(layout)


class TestMiter:
    def test_network_from_xag_equivalent(self):
        xag = benchmark_network("cm82a_5")
        network = network_from_xag(xag)
        assert network.simulate() == xag.simulate()

    def test_equivalent_networks_proved(self):
        a = benchmark_network("xor5_r1")
        b = benchmark_network("xor5_majority")
        assert check_equivalence(a, b).equivalent

    def test_inequivalent_networks_counterexample(self):
        a = benchmark_network("xor2")
        b = benchmark_network("xnor2")
        result = check_equivalence(a, b)
        assert not result.equivalent
        assert result.counterexample is not None
        inputs = result.counterexample
        assert a.evaluate(inputs) != b.evaluate(inputs)

    def test_pi_permutation_respected(self):
        # f(a, b) = a & ~b vs g(x, y) = y & ~x are equivalent under swap.
        f = Xag()
        a, b = f.create_pi("a"), f.create_pi("b")
        f.create_po(f.create_and(a, b ^ 1))
        g = Xag()
        x, y = g.create_pi("x"), g.create_pi("y")
        g.create_po(g.create_and(y, x ^ 1))
        assert not check_equivalence(f, g).equivalent
        assert check_equivalence(f, g, pi_permutation=[1, 0]).equivalent


class TestUndecidedEquivalence:
    def test_conflict_limit_yields_undecided_not_counterexample(self):
        # An exhausted budget is inconclusive: it must NOT fall through
        # to model extraction and fabricate a bogus counterexample.
        a = benchmark_network("par_check")
        b = map_to_bestagon(cut_rewrite(benchmark_network("par_check"), _DB))
        result = check_equivalence(a, b, conflict_limit=1)
        assert result.undecided
        assert not result.equivalent
        assert result.counterexample is None
        assert not bool(result)
        assert result.verdict == "undecided"

    def test_full_budget_still_decides(self):
        a = benchmark_network("par_check")
        b = map_to_bestagon(cut_rewrite(benchmark_network("par_check"), _DB))
        result = check_equivalence(a, b)
        assert result.equivalent and not result.undecided
        assert result.verdict == "equivalent"
        refuted = check_equivalence(
            benchmark_network("xor2"), benchmark_network("xnor2")
        )
        assert refuted.verdict == "not_equivalent"
        assert refuted.counterexample is not None

    def test_layout_check_plumbs_conflict_limit(self):
        xag = benchmark_network("mux21")
        layout = ExactPhysicalDesign().run(
            map_to_bestagon(cut_rewrite(xag, _DB))
        )
        limited = check_layout_against_network(xag, layout, conflict_limit=1)
        assert limited.undecided and limited.counterexample is None
        full = check_layout_against_network(xag, layout)
        assert full.equivalent and not full.undecided


class TestLayoutEquivalence:
    def test_hand_layout_verifies(self):
        xag = benchmark_network("xor2")
        assert check_layout_against_network(xag, xor_layout()).equivalent

    def test_wrong_function_refuted(self):
        xag = benchmark_network("xnor2")
        result = check_layout_against_network(xag, xor_layout())
        assert not result.equivalent

    @pytest.mark.parametrize("name", ["par_check", "t", "1bitAdderAOIG"])
    def test_flow_layouts_verify(self, name):
        xag = benchmark_network(name)
        layout = ExactPhysicalDesign().run(
            map_to_bestagon(cut_rewrite(xag, _DB))
        )
        assert check_layout_against_network(xag, layout).equivalent


#: Table-1 rows that place exactly at the flow's default conflict budget.
_TABLE1_EXACT = (
    "xor2", "xnor2", "par_gen", "mux21", "par_check", "xor5_r1",
    "xor5_majority", "t", "t_5", "c17", "majority",
)


def _with_inverted_output(network, output):
    """``network`` with an inverter in front of its ``output``-th PO."""
    inverted = LogicNetwork(network.name)
    new_id = {}
    po = network.pos()[output]
    for node in network.nodes():
        fanins = [new_id[fanin] for fanin in network.fanins(node)]
        if node == po:
            fanins = [inverted.add_node(GateType.INV, fanins)]
        new_id[node] = inverted.add_node(
            network.gate_type(node), fanins, network.node_name(node)
        )
    return inverted


class TestBddPinPairing:
    """``bdd_equivalent`` pairs pins by name, like the SAT miter."""

    @pytest.mark.parametrize("name", ["mux21", "c17"])
    def test_extracted_layout_is_equivalent(self, name):
        result = design_sidb_circuit(benchmark_verilog(name), name)
        spec = result.specification
        extracted = extract_network(result.layout)
        assert bdd_equivalent(spec, extracted)
        for output in range(len(extracted.pos())):
            assert not bdd_equivalent(
                spec, _with_inverted_output(extracted, output)
            )

    def test_unnamed_pins_pair_by_position(self):
        a = LogicNetwork("a")
        x, y = a.add_pi(), a.add_pi()
        a.add_po(a.add_node(GateType.AND2, [x, y]))
        b = LogicNetwork("b")
        x, y = b.add_pi(), b.add_pi()
        b.add_po(b.add_node(GateType.OR2, [x, y]))
        assert bdd_equivalent(a, a)
        assert not bdd_equivalent(a, b)


class TestTable1CrossCheck:
    """The SAT miter and the BDD canonical form agree on Table 1."""

    @pytest.mark.parametrize("name", _TABLE1_EXACT)
    def test_sat_miter_and_bdd_agree(self, name):
        result = design_sidb_circuit(benchmark_verilog(name), name)
        spec, layout = result.specification, result.layout
        assert check_layout_against_network(spec, layout).equivalent
        assert bdd_equivalent(spec, extract_network(layout))
