"""SiQAD ``.sqd`` design-file writer and reader.

The paper's flow ends by "generat[ing] a design file from the SiDB layout
for physical simulation and/or fabrication" (step 8); SiQAD's XML format
is the interchange format of the SiDB community.  We emit the ``DB``
layer with both lattice coordinates (``latcoord n m l``) and physical
locations in angstroms (``physloc``), which SiQAD and fiction can read.

Surface defects ride along in a dedicated ``Defects`` layer (one
``<defect>`` per record with its lattice coordinate, type and charge),
mirroring how SiQAD annotates fabrication imperfections; pristine
layouts serialize byte-identically to the defect-free writer.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from repro.coords.lattice import LatticeSite
from repro.defects.model import DefectType, SidbDefect, SurfaceDefects
from repro.sidb.charge import SidbLayout

_PROGRAM_NAME = "repro-bestagon"
_PROGRAM_VERSION = "1.0.0"

#: Version of the ``.sqd`` serialization itself.  Part of the design-
#: service cache digest: bump it whenever :func:`write_sqd` changes its
#: output bytes, so cached artifacts are re-generated rather than served
#: with a stale layout encoding.  Independent of the ``<version>`` the
#: document header carries.
SQD_WRITER_VERSION = "2"


#: Characters XML 1.0 forbids in a document.
_NOT_XML_CHAR = re.compile(
    "[^\u0009\u000a\u000d\u0020-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"
)


def _escape(text: str) -> str:
    """Escape ``& < " >``, and tab, newline and CR as character references.

    A raw tab, newline or CR inside an attribute value is normalized to
    a space by every XML reader; as ``&#9;``/``&#10;``/``&#13;`` it
    reads back as itself.
    """
    return (
        text.replace("&", "&amp;").replace("<", "&lt;")
        .replace('"', "&quot;").replace(">", "&gt;")
        .replace("\t", "&#9;").replace("\n", "&#10;").replace("\r", "&#13;")
    )


def _latcoord(site: LatticeSite) -> str:
    return f'<latcoord n="{site.n}" m="{site.m}" l="{site.l}"/>'


_HEADER = f"""\
<?xml version="1.0" ?>
<siqad>
  <program>
    <file_purpose>save</file_purpose>
    <name>{_PROGRAM_NAME}</name>
    <version>{_PROGRAM_VERSION}</version>
  </program>
  <gui>
    <zoom>1</zoom>
  </gui>
  <design name="{{name}}">
    <layer_prop name="Lattice" type="Lattice" role="Design"/>"""

_DBDOT = """\
      <dbdot>
        <layer_id>2</layer_id>
        {latcoord}
        <physloc x="{x:.6f}" y="{y:.6f}"/>
      </dbdot>"""

_DEFECT = """\
      <defect>
        <layer_id>3</layer_id>
        <incl_coords>
          {latcoord}
        </incl_coords>
        <defect_type>{kind}</defect_type>
        <charge>{charge}</charge>
      </defect>"""


def write_sqd(
    layout: SidbLayout,
    design_name: str = "layout",
    defects: SurfaceDefects | None = None,
) -> str:
    """Serialize an SiDB layout as a SiQAD .sqd XML document.

    The document is indented two spaces per level, one element per line,
    a leaf element's text inline.
    """
    if _NOT_XML_CHAR.search(design_name):
        raise ValueError(f"design name {design_name!r} is not valid XML text")
    lines = [_HEADER.format(name=_escape(design_name))]
    sites = layout.sites()
    if not sites:
        lines.append('    <layer type="DB" name="Surface"/>')
    else:
        lines.append('    <layer type="DB" name="Surface">')
        for site in sites:
            x_nm, y_nm = site.position_nm
            lines.append(_DBDOT.format(
                latcoord=_latcoord(site), x=x_nm * 10, y=y_nm * 10
            ))
        lines.append("    </layer>")
    if defects:
        lines.append('    <layer type="Defects" name="Defects">')
        for defect in defects:
            lines.append(_DEFECT.format(
                latcoord=_latcoord(defect.site),
                kind=_escape(defect.kind.value),
                charge=defect.charge,
            ))
        lines.append("    </layer>")
    lines.append("  </design>\n</siqad>\n")
    return "\n".join(lines)


def read_sqd(text: str) -> SidbLayout:
    """Parse a SiQAD .sqd XML document into an SiDB layout."""
    root = ET.fromstring(text)
    layout = SidbLayout()
    for dbdot in root.iter("dbdot"):
        latcoord = dbdot.find("latcoord")
        if latcoord is None:
            raise ValueError("dbdot without latcoord")
        site = LatticeSite(
            int(latcoord.get("n", "0")),
            int(latcoord.get("m", "0")),
            int(latcoord.get("l", "0")),
        )
        layout.add(site)
    return layout


def read_sqd_defects(text: str) -> SurfaceDefects:
    """Parse the ``Defects`` layer of a SiQAD .sqd XML document."""
    root = ET.fromstring(text)
    defects = SurfaceDefects()
    for element in root.iter("defect"):
        latcoord = element.find("incl_coords/latcoord")
        if latcoord is None:
            raise ValueError("defect without incl_coords/latcoord")
        site = LatticeSite(
            int(latcoord.get("n", "0")),
            int(latcoord.get("m", "0")),
            int(latcoord.get("l", "0")),
        )
        kind_text = element.findtext("defect_type", DefectType.DB.value)
        charge_text = element.findtext("charge")
        defects.add(
            SidbDefect(
                site,
                DefectType(kind_text),
                charge=None if charge_text is None else int(charge_text),
            )
        )
    return defects


def save_sqd(
    layout: SidbLayout,
    path: str,
    design_name: str = "layout",
    defects: SurfaceDefects | None = None,
) -> None:
    """Write a .sqd file to disk."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_sqd(layout, design_name, defects))


def load_sqd(path: str) -> SidbLayout:
    """Read a .sqd file from disk."""
    with open(path, encoding="utf-8") as handle:
        return read_sqd(handle.read())
