"""Tests for NPN canonicalization, cuts, exact synthesis, the database,
rewriting and technology mapping."""

import json
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.networks import benchmark_network, benchmark_verilog
from repro.networks.logic_network import GateType
from repro.networks.simulation import exhaustive_equivalent
from repro.networks.truth_table import TruthTable
from repro.networks.xag import Xag
from repro.synthesis.cuts import Cut, cone_nodes, cut_function, enumerate_cuts
from repro.networks.verilog import parse_verilog
from repro.synthesis import database as database_module
from repro.synthesis.database import (
    CONFLICT_LIMIT,
    DATA_PATH,
    MAX_GATES,
    NpnDatabase,
    load_table,
    shannon_recipe,
)
from repro.synthesis.exact import SynthesisSpec, exact_xag_synthesis
from repro.synthesis.fanout import fanout_tree_depth, insert_fanout_trees
from repro.synthesis.mapping import MappingStatistics, map_to_bestagon
from repro.synthesis.npn import NpnTransform, apply_npn_transform, npn_canonical
from repro.synthesis.rewrite import RewriteStatistics, cut_rewrite


def tables(n):
    return st.builds(TruthTable, st.just(n), st.integers(0, (1 << (1 << n)) - 1))


class TestNpn:
    @settings(deadline=None)
    @given(st.integers(1, 3).flatmap(tables))
    def test_roundtrip(self, table):
        canon, transform = npn_canonical(table)
        assert apply_npn_transform(canon, transform) == table

    @settings(deadline=None, max_examples=30)
    @given(tables(3), st.permutations(range(3)), st.integers(0, 7), st.booleans())
    def test_npn_equivalent_functions_share_canon(self, table, perm, negs, out):
        transformed = table.permute_inputs(list(perm))
        for var in range(3):
            if negs >> var & 1:
                transformed = transformed.flip_input(var)
        if out:
            transformed = ~transformed
        assert npn_canonical(table)[0] == npn_canonical(transformed)[0]

    def test_and_class_members(self):
        and2 = TruthTable(2, 0b1000)
        nor2 = TruthTable(2, 0b0001)
        assert npn_canonical(and2)[0] == npn_canonical(nor2)[0]

    def test_xor_not_in_and_class(self):
        assert npn_canonical(TruthTable(2, 0b0110))[0] != npn_canonical(
            TruthTable(2, 0b1000)
        )[0]


def _reference_npn_canonical(table):
    """Canonicalization as first written: one transform at a time.

    Kept as the oracle of :func:`npn_canonical`'s result *and* tie-break
    (the transform decides the structure rewriting builds).
    """
    best = best_transform = None
    n = table.num_vars
    for permutation in permutations(range(n)):
        for negations in range(1 << n):
            candidate = table.permute_inputs(list(permutation))
            for var in range(n):
                if (negations >> var) & 1:
                    candidate = candidate.flip_input(var)
            for output_negation in (False, True):
                final = ~candidate if output_negation else candidate
                if best is None or final.bits < best.bits:
                    best = final
                    best_transform = NpnTransform(
                        permutation, negations, output_negation
                    )
    return best, best_transform


class TestNpnReference:
    def test_all_small_functions_match_reference(self):
        for n in (0, 1, 2, 3):
            for bits in range(1 << (1 << n)):
                table = TruthTable(n, bits)
                assert npn_canonical(table) == _reference_npn_canonical(table)

    def test_random_four_input_functions_match_reference(self):
        rng = random.Random(13)
        for _ in range(500):
            table = TruthTable(4, rng.getrandbits(16))
            assert npn_canonical(table) == _reference_npn_canonical(table)


class TestCuts:
    def test_trivial_cut_always_present(self):
        xag = benchmark_network("c17")
        cuts = enumerate_cuts(xag)
        for node, node_cuts in cuts.items():
            assert Cut(node, (node,)) in node_cuts

    def test_cut_functions_match_simulation(self):
        xag = benchmark_network("mux21")
        cuts = enumerate_cuts(xag, k=3)
        pis = set(xag.pis())
        for node, node_cuts in cuts.items():
            if not xag.is_gate(node):
                continue
            for cut in node_cuts:
                if set(cut.leaves) <= pis and len(cut.leaves) == xag.num_pis:
                    # Full-input cut: local function equals global function
                    # of the node up to PI ordering.
                    table = cut_function(xag, cut)
                    assert table.num_vars == xag.num_pis

    def test_cone_nodes_contains_root(self):
        xag = benchmark_network("par_check")
        cuts = enumerate_cuts(xag)
        for node, node_cuts in cuts.items():
            if xag.is_gate(node):
                for cut in node_cuts:
                    assert node in cone_nodes(xag, cut)

    def test_dominated_cuts_pruned(self):
        xag = benchmark_network("c17")
        cuts = enumerate_cuts(xag)
        for node_cuts in cuts.values():
            leaf_sets = [set(c.leaves) for c in node_cuts]
            for i, a in enumerate(leaf_sets):
                for j, b in enumerate(leaf_sets):
                    if i != j:
                        assert not (a < b)


class TestExactSynthesis:
    @pytest.mark.parametrize("bits", range(16))
    def test_all_two_variable_functions(self, bits):
        table = TruthTable(2, bits)
        recipe = exact_xag_synthesis(SynthesisSpec(table, max_gates=3))
        assert recipe is not None
        assert recipe.simulate() == table

    def test_xor3_needs_two_gates(self):
        recipe = exact_xag_synthesis(
            SynthesisSpec(TruthTable(3, 0b10010110), max_gates=4)
        )
        assert recipe is not None and recipe.size == 2

    def test_maj3_needs_four_gates(self):
        recipe = exact_xag_synthesis(
            SynthesisSpec(TruthTable(3, 0b11101000), max_gates=6)
        )
        assert recipe is not None and recipe.size == 4

    def test_projection_is_free(self):
        recipe = exact_xag_synthesis(
            SynthesisSpec(TruthTable.variable(1, 3))
        )
        assert recipe is not None and recipe.size == 0

    def test_constant_is_free(self):
        recipe = exact_xag_synthesis(
            SynthesisSpec(TruthTable.constant(True, 2))
        )
        assert recipe is not None and recipe.size == 0
        assert recipe.simulate() == TruthTable.constant(True, 2)


class TestDatabase:
    def test_shannon_fallback_correct(self):
        table = TruthTable(4, 0b1101_0110_0010_1001)
        recipe = shannon_recipe(table)
        assert recipe.simulate() == table

    def test_lookup_caches(self):
        db = NpnDatabase()
        db.lookup(TruthTable(2, 0b1000))
        calls = db.synthesis_calls
        db.lookup(TruthTable(2, 0b0001))  # same NPN class
        assert db.synthesis_calls == calls

    def test_implement_builds_correct_logic(self):
        db = NpnDatabase()
        table = TruthTable(3, 0b11101000)
        xag = Xag()
        leaves = [xag.create_pi() for _ in range(3)]
        xag.create_po(db.implement(xag, table, leaves))
        assert xag.simulate()[0] == table

    def test_implementation_size_optimal_for_and(self):
        db = NpnDatabase()
        assert db.implementation_size(TruthTable(2, 0b1000)) == 1


#: Table-1 rows that place exactly at the flow's default conflict budget.
_TABLE1_EXACT = (
    "xor2", "xnor2", "par_gen", "mux21", "par_check", "xor5_r1",
    "xor5_majority", "t", "t_5", "c17", "majority",
)


@pytest.fixture(scope="module")
def table1_rewrite_databases():
    """One fresh database per Table-1 row, after rewriting that row."""
    databases = {}
    for name in _TABLE1_EXACT:
        databases[name] = NpnDatabase()
        cut_rewrite(parse_verilog(benchmark_verilog(name), name), databases[name])
    return databases


class TestShippedDatabase:
    def test_table1_rewrites_run_no_synthesis(self, table1_rewrite_databases):
        for db in table1_rewrite_databases.values():
            assert db.synthesis_calls == 0
            assert db.lookups > 0

    def test_table1_classes_match_fresh_exact_synthesis(
        self, table1_rewrite_databases
    ):
        used = set()
        for db in table1_rewrite_databases.values():
            used |= db._verified
        assert len(used) == 16
        shipped = NpnDatabase()
        for key in sorted(used):
            canon = TruthTable(*key)
            fresh = exact_xag_synthesis(
                SynthesisSpec(
                    canon, max_gates=MAX_GATES, conflict_limit=CONFLICT_LIMIT
                )
            )
            assert fresh is not None and shipped._exact[key], key
            assert fresh == shipped.canonical_recipe(canon), key

    def test_instances_own_their_tables(self):
        first, second = NpnDatabase(), NpnDatabase()
        assert first._recipes == second._recipes
        assert first._recipes is not second._recipes
        first._recipes.clear()
        first._exact.clear()
        assert len(second._recipes) == len(second._exact) == 240

    def test_unsound_recipe_rejected_on_first_use(self):
        db = NpnDatabase()
        and_class, xor_class = (2, 1), (2, 6)
        db._recipes[and_class] = db._recipes[xor_class]
        with pytest.raises(AssertionError, match="unsound"):
            db.implementation_size(TruthTable(2, 0b1000))

    def test_miss_path_synthesizes_the_shipped_recipe(self):
        db = NpnDatabase()
        key = (3, 0x17)  # majority
        shipped = db._recipes.pop(key)
        assert db.canonical_recipe(TruthTable(*key)) == shipped
        assert db.synthesis_calls == 1 and db._exact[key]

    def test_lookup_memoizes_canonicalization(self, monkeypatch):
        calls = []

        def counting(table):
            calls.append(table)
            return npn_canonical(table)

        monkeypatch.setattr(database_module, "npn_canonical", counting)
        db = NpnDatabase()
        table = TruthTable(3, 0b11101000)
        for _ in range(3):
            db.implementation_size(table)
        assert db.lookups == 3 and len(calls) == 1

    def test_missing_table_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_table(tmp_path / "npn_database.json")

    def test_stale_header_raises(self, tmp_path):
        document = json.loads(DATA_PATH.read_text(encoding="utf-8"))
        for field, value in (("version", 0), ("settings", {"max_gates": 8})):
            stale = dict(document, **{field: value})
            path = tmp_path / f"{field}.json"
            path.write_text(json.dumps(stale), encoding="utf-8")
            with pytest.raises(ValueError, match=field):
                load_table(path)


class TestRewrite:
    @pytest.mark.parametrize(
        "name", ["xor2", "mux21", "par_check", "c17", "majority", "t_5"]
    )
    def test_preserves_function(self, name):
        xag = benchmark_network(name)
        rewritten = cut_rewrite(xag, NpnDatabase())
        assert exhaustive_equivalent(xag, rewritten)

    def test_never_increases_size(self):
        for name in ("c17", "majority", "cm82a_5"):
            xag = benchmark_network(name)
            stats = RewriteStatistics()
            rewritten = cut_rewrite(xag, NpnDatabase(), statistics=stats)
            assert rewritten.num_gates <= xag.num_gates
            assert stats.gates_after <= stats.gates_before

    def test_reduces_redundant_structure(self):
        # maj5 built by naive threshold expansion shrinks significantly.
        xag = benchmark_network("majority_5_r1")
        rewritten = cut_rewrite(xag, NpnDatabase())
        assert rewritten.num_gates < xag.num_gates


class TestMapping:
    @pytest.mark.parametrize(
        "name", ["xor2", "mux21", "par_check", "c17", "majority", "newtag"]
    )
    def test_mapped_network_equivalent(self, name):
        xag = benchmark_network(name)
        network = map_to_bestagon(xag)
        assert exhaustive_equivalent(xag, network)

    @pytest.mark.parametrize("name", ["c17", "t_5", "clpl"])
    def test_fanout_discipline_satisfied(self, name):
        network = map_to_bestagon(benchmark_network(name))
        assert network.check_fanout_discipline() == []

    def test_all_gates_two_input_library_types(self):
        network = map_to_bestagon(benchmark_network("cm82a_5"))
        allowed = {
            GateType.PI, GateType.PO, GateType.BUF, GateType.INV,
            GateType.FANOUT, GateType.AND2, GateType.NAND2, GateType.OR2,
            GateType.NOR2, GateType.XOR2, GateType.XNOR2,
        }
        for node in network.nodes():
            assert network.gate_type(node) in allowed

    def test_inverter_absorption_nand(self):
        # ~(a & b) should map to a NAND, not AND + INV.
        xag = Xag()
        a, b = xag.create_pi(), xag.create_pi()
        xag.create_po(xag.create_nand(a, b))
        stats = MappingStatistics()
        network = map_to_bestagon(xag, stats)
        assert network.count_type(GateType.NAND2) == 1
        assert network.count_type(GateType.INV) == 0

    def test_inverter_absorption_nor(self):
        # ~a & ~b should map to a single NOR.
        xag = Xag()
        a, b = xag.create_pi(), xag.create_pi()
        xag.create_po(xag.create_and(a ^ 1, b ^ 1))
        network = map_to_bestagon(xag)
        assert network.count_type(GateType.NOR2) == 1
        assert network.count_type(GateType.INV) == 0

    def test_xor_never_needs_inverters(self):
        xag = Xag()
        a, b = xag.create_pi(), xag.create_pi()
        f = xag.create_xor(a ^ 1, b)
        xag.create_po(xag.create_xor(f, b ^ 1) ^ 1)
        network = map_to_bestagon(xag)
        assert network.count_type(GateType.INV) == 0


class TestFanoutTrees:
    def test_depth_formula(self):
        assert fanout_tree_depth(1) == 0
        assert fanout_tree_depth(2) == 1
        assert fanout_tree_depth(3) == 2
        assert fanout_tree_depth(4) == 2

    def test_high_fanout_split(self):
        from repro.networks.logic_network import LogicNetwork

        network = LogicNetwork()
        a = network.add_pi()
        for _ in range(5):
            network.add_po(network.add_node(GateType.INV, [a]))
        # PI drives 5 inverters -> needs a fanout tree.
        rebuilt = insert_fanout_trees(network)
        assert rebuilt.check_fanout_discipline() == []
        assert rebuilt.count_type(GateType.FANOUT) == 4
        assert exhaustive_equivalent(network, rebuilt)

    def test_chain_variant_deeper(self):
        from repro.networks.logic_network import LogicNetwork

        def build():
            network = LogicNetwork()
            a = network.add_pi()
            for _ in range(6):
                network.add_po(network.add_node(GateType.BUF, [a]))
            return network

        balanced = insert_fanout_trees(build(), balanced=True)
        chain = insert_fanout_trees(build(), balanced=False)
        assert chain.depth() >= balanced.depth()
