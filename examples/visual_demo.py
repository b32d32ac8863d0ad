#!/usr/bin/env python3
"""Visual walk-through of the CSA on the paper's Figure 2 example.

Prints the leaf roles, the Phase-1 counters on the tree, every round's
crossbar configuration, the timeline, and the per-switch change profile —
the whole paper in one terminal screenful.

Run:  python examples/visual_demo.py
"""

import sys

from repro import PADRScheduler, paper_figure2_set, width
from repro.core.phase1 import phase1_states
from repro.cst.topology import CSTTopology
from repro.viz.ascii import (
    render_change_profile,
    render_leaf_roles,
    render_round_configuration,
    render_schedule_timeline,
    render_tree,
)


def main() -> int:
    n = 16
    cset = paper_figure2_set(n)
    print("the paper's Figure 2 communication set:")
    print(render_leaf_roles(cset, n))

    print("\nPhase 1 — stored counters [M | S_L-M | D_L | S_R | D_R-M]:")
    states = phase1_states(cset, n)
    topo = CSTTopology.of(n)
    print(
        render_tree(
            topo, lambda v: "|".join(str(x) for x in states[v].as_tuple())
        )
    )

    schedule = PADRScheduler().schedule(cset, n_leaves=n)
    print(f"\nPhase 2 — {schedule.n_rounds} rounds for width {width(cset)}:")
    for r in range(schedule.n_rounds):
        print()
        print(render_round_configuration(schedule, r))

    print("\ntimeline:")
    print(render_schedule_timeline(schedule))

    print("\nper-switch configuration changes (Theorem 8):")
    print(render_change_profile(schedule))
    print(f"\n{schedule.power.summary()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
