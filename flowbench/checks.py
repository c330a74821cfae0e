"""Output checks of the benchmark, all run outside the timed passes.

* The flow's own verdicts: equivalence proven, DRC clean.
* An independent oracle: the placed layout is re-extracted and compared
  with its specification by BDD (not by the SAT miter the flow uses) and
  by exhaustive simulation; the ``.sqd`` is read back and must hold the
  same SiDBs.
* Determinism: the deterministic counts of a run are recorded per
  workload and source tree, and any later run (another seed, another
  process) must repeat them exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.networks.logic_network import GateType, LogicNetwork
from repro.sqd.sqd import read_sqd
from repro.verification.bdd import bdd_equivalent
from repro.verification.extract import extract_network


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _in_pin_order(network: LogicNetwork, pis: list, pos: list) -> LogicNetwork:
    """``network`` rebuilt with its PIs and POs in the given name order."""
    by_name = {network.node_name(node): node for node in network.pis() + network.pos()}
    rebuilt = LogicNetwork(network.name)
    mapping = {by_name[name]: rebuilt.add_pi(name) for name in pis}
    for node in network.nodes():
        gate_type = network.gate_type(node)
        if gate_type not in (GateType.PI, GateType.PO):
            mapping[node] = rebuilt.add_node(
                gate_type,
                [mapping[fanin] for fanin in network.fanins(node)],
                network.node_name(node),
            )
    for name in pos:
        rebuilt.add_po(mapping[network.fanins(by_name[name])[0]], name)
    return rebuilt


def check_flow_output(output) -> tuple[list[str], int]:
    """(errors, input patterns on which the layout computes its spec)."""
    errors = []
    if output.engine != "exact":
        errors.append(f"placed by the {output.engine} engine")
    if output.equivalence.verdict != "equivalent":
        errors.append(f"verdict {output.equivalence.verdict}")
    if output.drc_violations:
        errors.append(f"{len(output.drc_violations)} DRC violations")
    spec = output.specification
    pis = [spec.pi_name(pi) for pi in spec.pis()]
    pos = [spec.po_name(index) for index in range(spec.num_pos)]
    extracted = extract_network(output.layout)
    names = {extracted.node_name(n) for n in extracted.pis() + extracted.pos()}
    if names != set(pis + pos) or len(names) != len(pis) + len(pos):
        return errors + ["layout pins do not match the specification"], 0
    layout = _in_pin_order(extracted, pis, pos)
    if not bdd_equivalent(spec, layout):
        errors.append("BDD oracle: layout differs from specification")
    patterns_ok = _agreeing_patterns(spec.simulate(), layout.simulate(), len(pis))
    if patterns_ok != 1 << len(pis):
        errors.append(f"simulation: {patterns_ok} of {1 << len(pis)} patterns")
    sites = list(read_sqd(output.sqd).sites())
    if sites != list(output.sidb_layout.sites()):
        errors.append(
            f".sqd round trip: {len(sites)} SiDBs read, "
            f"{output.num_sidbs} written"
        )
    return errors, patterns_ok


def _agreeing_patterns(spec_tables, layout_tables, num_pis: int) -> int:
    """Input patterns on which every output table agrees."""
    ok = 0
    for pattern in range(1 << num_pis):
        if all(
            a.get_bit(pattern) == b.get_bit(pattern)
            for a, b in zip(spec_tables, layout_tables)
        ):
            ok += 1
    return ok


def check_tile_report(report) -> list[str]:
    """A tile report is consistent: every pattern simulated, verdict = all ok."""
    errors = []
    if report.operational != all(p.correct for p in report.patterns):
        errors.append("operational verdict disagrees with its patterns")
    if sorted(p.pattern for p in report.patterns) != list(range(len(report.patterns))):
        errors.append("input patterns missing")
    return errors


def tile_digest(report) -> str:
    """Fingerprint of a tile's observed truth table and verdicts."""
    rows = [(p.pattern, p.observed, p.correct) for p in report.patterns]
    return sha256(repr(rows))[:16]


def source_fingerprint(root: Path) -> str:
    """Digest of the program and benchmark sources a record belongs to."""
    digest = hashlib.sha256()
    for directory in (root / "src", Path(__file__).resolve().parent):
        for path in sorted(directory.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts and ".state" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def check_determinism(
    state: Path, key: str, fingerprint: str, seed: int, counts: dict
) -> list[str]:
    """Compare ``counts`` with the record of an earlier run; report drift.

    The first run of a source tree writes the record; later runs compare
    against it and never overwrite it, so drift is always reported
    against the first run.
    """
    path = state / f"{key}.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = None
    if record is None or record.get("fingerprint") != fingerprint:
        state.mkdir(parents=True, exist_ok=True)
        temporary = path.with_suffix(f".{os.getpid()}.tmp")
        temporary.write_text(
            json.dumps({"fingerprint": fingerprint, "seed": seed, "counts": counts})
        )
        os.replace(temporary, path)
        return []
    drift = []
    for name in sorted(set(record["counts"]) | set(counts)):
        before, now = record["counts"].get(name), counts.get(name)
        if before != now:
            drift.append(
                f"nondeterminism: {name} was {before} (seed {record['seed']}), "
                f"now {now} (seed {seed})"
            )
    return drift
