"""QuickExact's *ordered* ground-state list is pinned.

``check_operational`` reads a tile's output from ``ground_states[0]``,
so the engine must return its degenerate ground states in a fixed
order, not merely as a fixed set.  The golden
(``tests/golden/quickexact_library.json``) stores, for every input
pattern of every library tile of at most 32 sites, ``repr`` of the
ground energy and the sha256 of the concatenated ground-state bytes in
the order the engine returned them.  Regenerate it only after an
intentional change of the search order with::

    PYTHONPATH=src python tests/test_quickexact_order.py --regenerate
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.coords.lattice import LatticeSite
from repro.gatelib.library import BestagonLibrary
from repro.sidb import quickexact
from repro.sidb.charge import SidbLayout
from repro.sidb.parallel import PatternTask
from repro.sidb.perfbench import scaling_layout
from repro.sidb.quickexact import MAX_QUICKEXACT_SITES, quickexact_ground_state
from repro.tech.parameters import SiDBSimulationParameters

GOLDEN = Path(__file__).parent / "golden" / "quickexact_library.json"
BESTAGON = SiDBSimulationParameters.bestagon()


def _digest(result) -> dict:
    states = b"".join(
        np.ascontiguousarray(state, dtype=np.int8).tobytes()
        for state in result.ground_states
    )
    return {
        "ground_energy": repr(float(result.ground_energy)),
        "states": len(result.ground_states),
        "states_sha256": hashlib.sha256(states).hexdigest(),
    }


def _library_layouts():
    """``(key, layout)`` for every pattern of every tile <= 32 sites."""
    library = BestagonLibrary()
    for name in library.names():
        design = library.design(name)
        body = tuple(design.sites) + tuple(design.output_perturbers)
        stimuli = tuple(
            (tuple(far), tuple(close)) for far, close in design.input_stimuli
        )
        for pattern in range(1 << len(design.input_stimuli)):
            layout = PatternTask(
                pattern=pattern,
                body_sites=body,
                input_stimuli=stimuli,
                output_pairs=tuple(design.output_pairs),
                expected=(),
                parameters=BESTAGON,
                engine="auto",
                schedule=None,
            ).build_layout()
            if len(layout) <= MAX_QUICKEXACT_SITES:
                yield f"{name}/{pattern}", layout


def _library_table() -> dict:
    return {
        key: _digest(quickexact_ground_state(layout, BESTAGON))
        for key, layout in _library_layouts()
    }


def _random_layout(seed: int, num_sites: int) -> SidbLayout:
    rng = np.random.default_rng(seed)
    coords = set()
    while len(coords) < num_sites:
        coords.add((int(rng.integers(0, 16)), int(rng.integers(0, 30))))
    return SidbLayout(LatticeSite.from_row(c, r) for c, r in coords)


def _ordered(result) -> tuple:
    return (
        result.ground_energy,
        [tuple(int(x) for x in state) for state in result.ground_states],
    )


def test_library_ground_states_match_golden():
    golden = json.loads(GOLDEN.read_text())
    table = _library_table()
    assert sorted(table) == sorted(golden)
    mismatched = [key for key in golden if table[key] != golden[key]]
    assert mismatched == []


@pytest.mark.parametrize(
    "layout",
    [scaling_layout(22), _random_layout(3, 18), _random_layout(11, 18)],
    ids=["wire22", "random18_s3", "random18_s11"],
)
def test_batch_and_leaf_size_keep_the_order(layout, monkeypatch):
    reference = _ordered(quickexact_ground_state(layout, BESTAGON))
    for batch in (1, 3):
        for leaf_bits in (1, 6):
            monkeypatch.setattr(quickexact, "_FRONTIER_BATCH", batch)
            monkeypatch.setattr(quickexact, "_LEAF_BITS", leaf_bits)
            result = quickexact_ground_state(layout, BESTAGON)
            assert _ordered(result) == reference, (batch, leaf_bits)


def _regenerate() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_library_table(), indent=1) + "\n")
    print(f"regenerated {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
