"""Tests for Verilog, BENCH, DOT and SQD I/O."""

import xml.etree.ElementTree as ET
from xml.dom import minidom

import pytest

from repro.coords.lattice import LatticeSite
from repro.defects.model import DefectType, SidbDefect, SurfaceDefects
from repro.flow.design_flow import FlowConfiguration, design_sidb_circuit
from repro.networks import BENCHMARK_NAMES, benchmark_network, benchmark_verilog
from repro.networks.bench_format import BenchError, parse_bench, write_bench
from repro.networks.dot import network_to_dot, xag_to_dot
from repro.networks.simulation import exhaustive_equivalent
from repro.networks.verilog import VerilogError, parse_verilog, write_verilog
from repro.networks.xag import Xag
from repro.sidb.charge import SidbLayout
from repro.sqd.sqd import read_sqd, write_sqd
from repro.synthesis.mapping import map_to_bestagon


class TestVerilogParser:
    def test_assign_expressions(self):
        xag = parse_verilog(
            """
            module m (a, b, c, f);
              input a, b, c;
              output f;
              wire w;
              assign w = a & ~b;
              assign f = w | (b ^ c);
            endmodule
            """
        )
        assert xag.num_pis == 3 and xag.num_pos == 1
        reference = Xag()
        a, b, c = (reference.create_pi() for _ in range(3))
        w = reference.create_and(a, reference.create_not(b))
        reference.create_po(reference.create_or(w, reference.create_xor(b, c)))
        assert exhaustive_equivalent(xag, reference)

    def test_ternary_operator(self):
        xag = parse_verilog(
            "module m (s, a, b, f); input s, a, b; output f;\n"
            "assign f = s ? a : b; endmodule"
        )
        assert xag.evaluate([True, True, False]) == [True]
        assert xag.evaluate([False, True, False]) == [False]

    def test_gate_primitives(self):
        xag = parse_verilog(
            "module m (a, b, f); input a, b; output f;\n"
            "nand g1 (f, a, b); endmodule"
        )
        assert xag.evaluate([True, True]) == [False]
        assert xag.evaluate([True, False]) == [True]

    def test_comments_stripped(self):
        xag = parse_verilog(
            "// comment\nmodule m (a, f); /* block */ input a; output f;\n"
            "assign f = ~a; endmodule"
        )
        assert xag.evaluate([False]) == [True]

    def test_undefined_net_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog(
                "module m (a, f); input a; output f; assign f = ghost; endmodule"
            )

    def test_double_assignment_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog(
                "module m (a, f); input a; output f;\n"
                "assign f = a; assign f = ~a; endmodule"
            )

    def test_assign_to_input_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog(
                "module m (a, f); input a; output f;\n"
                "assign a = f; endmodule"
            )

    def test_combinational_cycle_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog(
                "module m (a, f); input a; output f; wire x, y;\n"
                "assign x = y & a; assign y = x; assign f = y; endmodule"
            )

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_roundtrip_all_benchmarks(self, name):
        xag = benchmark_network(name)
        parsed = parse_verilog(write_verilog(xag))
        assert exhaustive_equivalent(xag, parsed)


class TestBench:
    def test_parse_simple(self):
        xag = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = NAND(a, b)\n"
        )
        assert xag.evaluate([True, True]) == [False]

    def test_comments_and_blank_lines(self):
        xag = parse_bench("# header\n\nINPUT(a)\nOUTPUT(f)\nf = NOT(a)\n")
        assert xag.evaluate([False]) == [True]

    def test_unknown_operator_rejected(self):
        with pytest.raises(BenchError):
            parse_bench("INPUT(a)\nOUTPUT(f)\nf = FROB(a, a)\n")

    @pytest.mark.parametrize("name", ["c17", "mux21", "cm82a_5"])
    def test_roundtrip(self, name):
        xag = benchmark_network(name)
        parsed = parse_bench(write_bench(xag))
        assert exhaustive_equivalent(xag, parsed)


class TestDot:
    def test_xag_dot_contains_nodes(self):
        xag = benchmark_network("xor2")
        dot = xag_to_dot(xag)
        assert "digraph" in dot and "XOR" in dot

    def test_network_dot(self):
        network = map_to_bestagon(benchmark_network("mux21"))
        dot = network_to_dot(network)
        assert "digraph" in dot and "->" in dot


class TestSqd:
    def test_roundtrip(self):
        layout = SidbLayout(
            [LatticeSite(0, 0, 0), LatticeSite(3, 1, 1), LatticeSite(7, 2, 0)]
        )
        parsed = read_sqd(write_sqd(layout, "test"))
        assert sorted(parsed.sites()) == sorted(layout.sites())

    def test_physloc_in_angstroms(self):
        layout = SidbLayout([LatticeSite(1, 0, 0)])
        text = write_sqd(layout)
        assert 'x="3.840000"' in text

    def test_missing_latcoord_rejected(self):
        with pytest.raises(ValueError):
            read_sqd("<siqad><design><layer><dbdot/></layer></design></siqad>")

    def test_invalid_xml_character_in_name_rejected(self):
        with pytest.raises(ValueError, match="not valid XML"):
            write_sqd(SidbLayout([LatticeSite(0, 0, 0)]), "bad\x01name")


def _minidom_write_sqd(layout, design_name="layout", defects=None):
    """The ElementTree + minidom pretty-print writer the direct one replaced.

    Kept as the byte-for-byte oracle of :func:`write_sqd` for names
    without tab, newline or CR.  The direct writer escapes those as
    character references, which Python 3.11's ``minidom`` leaves raw, so
    such names are pinned by a round-trip test instead.
    """
    root = ET.Element("siqad")
    program = ET.SubElement(root, "program")
    ET.SubElement(program, "file_purpose").text = "save"
    ET.SubElement(program, "name").text = "repro-bestagon"
    ET.SubElement(program, "version").text = "1.0.0"
    gui = ET.SubElement(root, "gui")
    ET.SubElement(gui, "zoom").text = "1"
    design = ET.SubElement(root, "design", {"name": design_name})
    ET.SubElement(
        design, "layer_prop",
        {"name": "Lattice", "type": "Lattice", "role": "Design"},
    )
    db_layer = ET.SubElement(design, "layer", {"type": "DB", "name": "Surface"})
    for site in layout.sites():
        dbdot = ET.SubElement(db_layer, "dbdot")
        ET.SubElement(dbdot, "layer_id").text = "2"
        ET.SubElement(
            dbdot, "latcoord",
            {"n": str(site.n), "m": str(site.m), "l": str(site.l)},
        )
        x_nm, y_nm = site.position_nm
        ET.SubElement(
            dbdot, "physloc",
            {"x": f"{x_nm * 10:.6f}", "y": f"{y_nm * 10:.6f}"},
        )
    if defects:
        defect_layer = ET.SubElement(
            design, "layer", {"type": "Defects", "name": "Defects"}
        )
        for defect in defects:
            element = ET.SubElement(defect_layer, "defect")
            ET.SubElement(element, "layer_id").text = "3"
            coords = ET.SubElement(element, "incl_coords")
            ET.SubElement(
                coords, "latcoord",
                {
                    "n": str(defect.site.n),
                    "m": str(defect.site.m),
                    "l": str(defect.site.l),
                },
            )
            ET.SubElement(element, "defect_type").text = defect.kind.value
            ET.SubElement(element, "charge").text = str(defect.charge)
    raw = ET.tostring(root, encoding="unicode")
    return minidom.parseString(raw).toprettyxml(indent="  ")


#: Table-1 rows that place exactly at the flow's default conflict budget.
_TABLE1_EXACT = (
    "xor2", "xnor2", "par_gen", "mux21", "par_check", "xor5_r1",
    "xor5_majority", "t", "t_5", "c17", "majority",
)


@pytest.fixture(scope="module")
def table1_layouts():
    config = FlowConfiguration(verify=False, trace=False)
    return {
        name: design_sidb_circuit(benchmark_verilog(name), name, config)
        for name in _TABLE1_EXACT
    }


class TestSqdWriterOracle:
    @pytest.mark.parametrize("name", _TABLE1_EXACT)
    def test_table1_layouts_byte_identical(self, table1_layouts, name):
        result = table1_layouts[name]
        assert result.sqd == _minidom_write_sqd(result.sidb_layout, name)

    def test_defects_layer_byte_identical(self, table1_layouts):
        layout = table1_layouts["mux21"].sidb_layout
        defects = SurfaceDefects()
        for offset, kind in enumerate(DefectType):
            defects.add(SidbDefect(LatticeSite(100 + 3 * offset, 7, 1), kind))
        defects.add(SidbDefect(LatticeSite(-4, 2, 0), DefectType.DB, charge=-1))
        for given in (defects, SurfaceDefects(), None):
            assert write_sqd(layout, "mux21", given) == _minidom_write_sqd(
                layout, "mux21", given
            )

    @pytest.mark.parametrize(
        "design_name",
        ["a & b < c > d \" e ' f", "ünïcode ✓ 𝄞", "", "&amp;", "{name}"],
    )
    def test_escaped_names_byte_identical(self, design_name):
        layout = SidbLayout([LatticeSite(0, 0, 0), LatticeSite(3, 1, 1)])
        assert write_sqd(layout, design_name) == _minidom_write_sqd(
            layout, design_name
        )

    def test_whitespace_controls_in_name_round_trip(self):
        name = "line\nbreak\ttab\rreturn"
        text = write_sqd(SidbLayout([LatticeSite(0, 0, 0)]), name)
        assert '<design name="line&#10;break&#9;tab&#13;return">' in text
        assert ET.fromstring(text).find("design").get("name") == name

    def test_empty_layout_byte_identical(self):
        assert write_sqd(SidbLayout(), "empty") == _minidom_write_sqd(
            SidbLayout(), "empty"
        )
