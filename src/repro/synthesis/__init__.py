"""Logic synthesis: flow steps 2 (cut rewriting) and 3 (technology mapping).

* :mod:`repro.synthesis.cuts` -- k-feasible cut enumeration,
* :mod:`repro.synthesis.npn` -- NPN canonicalization of small functions,
* :mod:`repro.synthesis.exact` -- SAT-based exact XAG synthesis,
* :mod:`repro.synthesis.database` -- the exact NPN database [Riener'19],
  shipped precomputed as ``npn_database.json``,
* :mod:`repro.synthesis.rewrite` -- cut-based XAG rewriting,
* :mod:`repro.synthesis.mapping` -- technology mapping onto the Bestagon
  gate set [Calvino'22], including inverter minimization,
* :mod:`repro.synthesis.fanout` -- fan-out tree insertion (Bestagon
  fan-out tiles are 1-in-2-out).
"""

from repro.synthesis.cuts import enumerate_cuts, Cut
from repro.synthesis.npn import npn_canonical, NpnTransform
from repro.synthesis.exact import exact_xag_synthesis, SynthesisSpec
from repro.synthesis.database import NpnDatabase
from repro.synthesis.rewrite import cut_rewrite
from repro.synthesis.mapping import map_to_bestagon
from repro.synthesis.fanout import insert_fanout_trees

__all__ = [
    "Cut",
    "enumerate_cuts",
    "npn_canonical",
    "NpnTransform",
    "exact_xag_synthesis",
    "SynthesisSpec",
    "NpnDatabase",
    "cut_rewrite",
    "map_to_bestagon",
    "insert_fanout_trees",
]
