#!/usr/bin/env python3
"""Quickstart: route a well-nested communication set power-optimally.

Builds a random well-nested workload, schedules it with the paper's CSA,
verifies every delivery against ground truth, and prints the quantities
the paper's three theorems are about.

Run:  python examples/quickstart.py [seed]
"""

import sys

import numpy as np

from repro import (
    PADRScheduler,
    check_round_optimality,
    random_well_nested,
    verify_schedule,
    width,
)
from repro.viz.ascii import render_leaf_roles, render_schedule_timeline


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42
    rng = np.random.default_rng(seed)

    n_leaves = 32
    cset = random_well_nested(n_pairs=8, n_leaves=n_leaves, rng=rng)
    w = width(cset)

    print(f"workload: {len(cset)} communications on a {n_leaves}-leaf CST, width {w}")
    print(render_leaf_roles(cset, n_leaves))
    print()

    # the paper's algorithm: distributed, counters-and-ranks only
    schedule = PADRScheduler().schedule(cset, n_leaves=n_leaves)

    # Theorem 4: every payload reached exactly its matching destination
    verify_schedule(schedule, cset).raise_if_failed()
    print("Theorem 4: all deliveries correct (verified by crossbar tracing)")

    # Theorem 5: exactly `width` rounds
    check_round_optimality(schedule, cset, require_optimal=True)
    print(f"Theorem 5: {schedule.n_rounds} rounds == width {w} (optimal)")

    # Theorem 8: constant configuration changes per switch
    print(
        f"Theorem 8: max configuration changes on any switch = "
        f"{schedule.power.max_switch_changes} "
        f"(total energy {schedule.power.total_units} units)"
    )
    print()
    print(render_schedule_timeline(schedule))
    return 0


if __name__ == "__main__":
    sys.exit(main())
