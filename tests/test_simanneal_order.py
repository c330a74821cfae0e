"""SimAnneal's results on the library tiles it validates are pinned.

``engine="auto"`` sends every tile pattern of more than
``QUICKEXACT_AUTO_MAX_SITES`` sites to SimAnneal, and
``check_operational`` reads the tile's output from ``ground_states[0]``.
The golden (``tests/golden/simanneal_library.json``) stores, for every
input pattern of those tiles at the default schedule, ``repr`` of the
ground energy and the sha256 of the concatenated ground-state bytes in
the order the engine returned them.  It was written by one anneal per
pattern; the test replays it the way the operational check runs, with
all patterns of a tile in one lockstep batch.  Regenerate it only after
an intentional change of the annealing trajectory with::

    PYTHONPATH=src python tests/test_simanneal_order.py --regenerate
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.gatelib.library import BestagonLibrary
from repro.sidb.operational import QUICKEXACT_AUTO_MAX_SITES
from repro.sidb.parallel import PatternTask
from repro.sidb.simanneal import SimAnneal, anneal_lockstep
from repro.tech.parameters import SiDBSimulationParameters

GOLDEN = Path(__file__).parent / "golden" / "simanneal_library.json"
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


def _annealed_tiles():
    """``(name, [layout per pattern])`` for every tile SimAnneal validates."""
    library = BestagonLibrary()
    for name in library.names():
        design = library.design(name)
        body = tuple(design.sites) + tuple(design.output_perturbers)
        stimuli = tuple(
            (tuple(far), tuple(close)) for far, close in design.input_stimuli
        )
        layouts = [
            PatternTask(
                pattern=pattern,
                body_sites=body,
                input_stimuli=stimuli,
                output_pairs=tuple(design.output_pairs),
                expected=(),
                parameters=BESTAGON,
                engine="auto",
                schedule=None,
            ).build_layout()
            for pattern in range(1 << len(design.input_stimuli))
        ]
        if any(len(layout) > QUICKEXACT_AUTO_MAX_SITES for layout in layouts):
            yield name, layouts


def _library_table() -> dict:
    table = {}
    for name, layouts in _annealed_tiles():
        engines = [SimAnneal(layout, BESTAGON) for layout in layouts]
        for pattern, (engine, finalists) in enumerate(
            zip(engines, anneal_lockstep(engines))
        ):
            table[f"{name}/{pattern}"] = _digest(
                engine.collect_result(finalists)
            )
    return table


def test_library_ground_states_match_golden():
    golden = json.loads(GOLDEN.read_text())
    table = _library_table()
    assert sorted(table) == sorted(golden)
    mismatched = [key for key in golden if table[key] != golden[key]]
    assert mismatched == []


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
