#!/usr/bin/env python3
"""Segmentable-bus emulation — the workload class the paper motivates.

The paper (§1) notes that well-nested sets are a superset of the
communications required by the *segmentable bus*, a fundamental
reconfigurable architecture: the bus splits into segments and the PE at
the left end of each segment broadcasts to its segment.

This example emulates a sequence of segmentation steps of a 64-PE bus on
the CST (each step is one well-nested set of width 1), schedules each step
with the CSA, and shows the PADR payoff across steps: switches only
reconfigure where the segment boundaries moved.

Run:  python examples/segmentable_bus.py
"""

import sys

from repro import PADRScheduler, segmentable_bus, verify_schedule
from repro.cst.network import CSTNetwork


def main() -> int:
    n = 64
    # a program's segmentation evolves step by step (e.g. parallel prefix)
    steps = [
        [0, 16, 32, 48, 64],          # 4 coarse segments
        [0, 8, 16, 24, 32, 40, 48, 56, 64],  # split each in half
        [0, 8, 16, 32, 48, 56, 64],   # merge the middle back
        [0, 32, 64],                  # final coarse pass
    ]

    total_power = 0
    for i, bounds in enumerate(steps):
        cset = segmentable_bus(bounds)
        schedule = PADRScheduler().schedule(cset, n_leaves=n)
        verify_schedule(schedule, cset).raise_if_failed()
        total_power += schedule.power.total_units
        print(
            f"step {i}: {len(bounds) - 1:2d} segments -> "
            f"{schedule.n_rounds} round(s), "
            f"{schedule.power.total_units:3d} power units, "
            f"max changes/switch {schedule.power.max_switch_changes}"
        )

    print(f"\ntotal energy over {len(steps)} segmentation steps: {total_power} units")
    print("every step is width 1: a segmentable bus never needs multiple rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
