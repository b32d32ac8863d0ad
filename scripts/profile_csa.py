#!/usr/bin/env python3
"""Profile one end-to-end PADR schedule under cProfile.

Prints the top-20 entries so hot spots in the wave engine / CONFIGURE /
commit path are visible without any external tooling.  This is the harness
that guided the fast-path work; keep using it before and after touching
anything on the hot path.

Usage::

    PYTHONPATH=src python scripts/profile_csa.py
    PYTHONPATH=src python scripts/profile_csa.py --n 16384 --width 64
    PYTHONPATH=src python scripts/profile_csa.py --engine auto
    PYTHONPATH=src python scripts/profile_csa.py --sort tottime
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

import numpy as np

from repro.comms.generators import random_well_nested
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.cst.network import CSTNetwork


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--n", type=int, default=4096, help="tree size in leaves (default 4096)"
    )
    parser.add_argument(
        "--width",
        type=int,
        default=24,
        help="communication pairs to route (default 24; width ≤ pairs)",
    )
    parser.add_argument(
        "--engine",
        default="fast",
        choices=["auto", "fast", "reference"],
        help="wave engine backend to profile (default fast)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=sorted(pstats.Stats.sort_arg_dict_default),
        help="pstats sort order (default cumulative)",
    )
    parser.add_argument(
        "--reps", type=int, default=10, help="schedule() calls to profile (default 10)"
    )
    args = parser.parse_args()

    rng = np.random.default_rng(7)
    cset = random_well_nested(args.width, args.n, rng)
    sched = PADRScheduler(
        config=SchedulerConfig(validate_input=False, engine=args.engine)
    )
    networks = [CSTNetwork.of_size(args.n) for _ in range(args.reps)]

    def workload() -> None:
        for net in networks:
            sched.schedule(cset, network=net)

    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(20)
    return 0


if __name__ == "__main__":
    sys.exit(main())
