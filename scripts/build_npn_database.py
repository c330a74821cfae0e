"""Build or check the shipped exact NPN database.

    PYTHONPATH=src python scripts/build_npn_database.py --check
    [REPRO_WORKERS=N] PYTHONPATH=src python scripts/build_npn_database.py --write

``--write`` synthesizes every NPN class of 2, 3 and 4 inputs with
``repro.synthesis.database.synthesize_recipe`` (SAT exact synthesis at the
module's ``MAX_GATES``/``CONFLICT_LIMIT``, Shannon fallback when the
conflict budget runs out) and rewrites
``src/repro/synthesis/npn_database.json``.  A serial build takes about an
hour; each budget-bounded 4-input class takes 20-30 s.  Classes are
synthesized independently (fanned out over ``REPRO_WORKERS`` processes)
and written in key order, so the table does not depend on the worker
count.  Importing ``repro.synthesis.database`` loads the current table,
so it must be present (git restores the committed one).

``--check`` is the fast CI mode.  It asserts that the key set is exactly
the NPN classes of 2-4 inputs (by orbit enumeration), that every recipe
simulates to its class, that every non-exact recipe is the Shannon
fallback, and that the header matches ``NPN_DATABASE_VERSION`` and the
module's synthesis settings.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import permutations

from repro.networks.truth_table import TruthTable
from repro.sidb.parallel import run_tasks, workers_from_env
from repro.synthesis.database import (
    CONFLICT_LIMIT,
    DATA_PATH,
    MAX_GATES,
    NPN_DATABASE_VERSION,
    dump_table,
    load_table,
    shannon_recipe,
    synthesize_recipe,
)

#: Cut sizes the table covers (rewriting enumerates cuts of 2-4 leaves).
NUM_VARS = (2, 3, 4)
WORKERS = workers_from_env()


def npn_classes(num_vars: int) -> list[int]:
    """Canonical (smallest) truth tables of all NPN classes, ascending."""
    mask = (1 << (1 << num_vars)) - 1
    seen = bytearray(mask + 1)
    classes = []
    for bits in range(mask + 1):
        if seen[bits]:
            continue
        orbit = set()
        table = TruthTable(num_vars, bits)
        for permutation in permutations(range(num_vars)):
            permuted = table.permute_inputs(permutation)
            for negations in range(1 << num_vars):
                candidate = permuted
                for var in range(num_vars):
                    if (negations >> var) & 1:
                        candidate = candidate.flip_input(var)
                orbit.add(candidate.bits)
                orbit.add(candidate.bits ^ mask)
        for member in orbit:
            seen[member] = 1
        classes.append(min(orbit))
    return classes


def all_keys() -> list[tuple[int, int]]:
    return [(n, bits) for n in NUM_VARS for bits in npn_classes(n)]


def _synthesize(key: tuple[int, int]):
    num_vars, bits = key
    started = time.perf_counter()
    recipe, exact = synthesize_recipe(TruthTable(num_vars, bits))
    print(
        f"  ({num_vars}, {bits:#x}): {recipe.size} gates, "
        f"{'exact' if exact else 'shannon'}, "
        f"{time.perf_counter() - started:.1f} s",
        file=sys.stderr,
        flush=True,
    )
    return recipe, exact


def write() -> None:
    keys = all_keys()
    print(f"synthesizing {len(keys)} NPN classes on {WORKERS} worker(s)",
          file=sys.stderr)
    started = time.perf_counter()
    results = run_tasks(_synthesize, keys, workers=WORKERS)
    recipes = {key: recipe for key, (recipe, _) in zip(keys, results)}
    exact = {key: proven for key, (_, proven) in zip(keys, results)}
    DATA_PATH.write_text(dump_table(recipes, exact), encoding="utf-8")
    proven = sum(exact.values())
    print(
        f"wrote {DATA_PATH.name}: {len(keys)} classes, {proven} proven, "
        f"{len(keys) - proven} Shannon, "
        f"{time.perf_counter() - started:.0f} s",
        file=sys.stderr,
    )


def check() -> None:
    recipes, exact = load_table()  # raises on a wrong version or settings
    expected = all_keys()
    if sorted(recipes) != expected:
        missing = sorted(set(expected) - set(recipes))
        extra = sorted(set(recipes) - set(expected))
        raise SystemExit(
            f"{DATA_PATH.name}: key set is not the NPN classes of "
            f"{NUM_VARS} inputs (missing {missing}, extra {extra})"
        )
    for (num_vars, bits), recipe in recipes.items():
        canon = TruthTable(num_vars, bits)
        if recipe.simulate() != canon:
            raise SystemExit(f"recipe for ({num_vars}, {bits:#x}) is unsound")
        if not exact[num_vars, bits] and recipe != shannon_recipe(canon):
            raise SystemExit(
                f"non-exact recipe for ({num_vars}, {bits:#x}) is not the "
                "Shannon fallback"
            )
    proven = sum(exact.values())
    print(
        f"{DATA_PATH.name} v{NPN_DATABASE_VERSION}: "
        f"{len(recipes)} classes ({proven} proven, {len(recipes) - proven} "
        f"Shannon), max_gates={MAX_GATES}, conflict_limit={CONFLICT_LIMIT}: ok"
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="validate the shipped table (fast)")
    mode.add_argument("--write", action="store_true",
                      help="regenerate the table (about an hour serially)")
    args = parser.parse_args(argv)
    if args.write:
        write()
    else:
        check()


if __name__ == "__main__":
    main()
