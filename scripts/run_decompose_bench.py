#!/usr/bin/env python3
"""Benchmark well-nested decomposition of arbitrary communication sets.

Drives random arbitrary (non-well-nested) sets through the unified
``decompose="auto"`` door and records what the lowering costs: batch
count against the certified crossing-clique lower bound and the greedy
``max_crossing_degree + 1`` upper bound, rounds against the single-batch
width optimum, and the round/power overhead the decomposition pays.

The full sweep records its rows under a top-level ``"decompose"`` key of
``results/BENCH_scaling.json``; every other key is preserved.  The smoke
gate writes nothing, so a CI run never replaces the full sweep's rows.

Usage::

    PYTHONPATH=src python scripts/run_decompose_bench.py           # full sweep
    PYTHONPATH=src python scripts/run_decompose_bench.py --smoke   # CI gate

The smoke gate schedules random arbitrary sets at n=256 and fails
unless every run delivers all pairs exactly once, keeps the batch count
within [lower bound, greedy bound], and (sanity) a well-nested control
input passes through as a single batch at the width optimum.  The
overhead ratio vs the w-round optimum is always reported.

It also gates the general path's two replays.  Every smoke set's payload
with a supplied ``CSTNetwork.of_size(256)`` (switch objects, hop-by-hop
tracing) must equal its payload without one (dict crossbar state), and
the replay without a network must be at least ``SPEED_FLOOR`` times as
fast: best of 5, alternating, networks built outside the timer.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

import numpy as np

from bench_results import RESULTS, record
from repro.comms.decompose import decompose, max_crossing_degree
from repro.comms.generators import random_arbitrary, random_well_nested
from repro.core.base import execute_round_plan
from repro.core.config import SchedulerConfig
from repro.cst.network import CSTNetwork
from repro.io import result_to_dict

N_LEAVES = 256
FULL_PAIRS = (8, 16, 32, 48)
FULL_SEEDS = (0, 1, 2, 3)
SMOKE_RUNS = ((12, 11), (24, 12), (32, 13), (48, 14))  # (pairs, seed)
#: the replay without a network must be at least this many times as fast.
SPEED_FLOOR = 2.0
SPEED_REPEATS = 5


def greedy_bound(cset) -> int:
    """``max_crossing_degree + 1`` per populated orientation, summed."""
    bound = 0
    for subset in (cset.right_oriented_subset(), cset.left_oriented_subset()):
        if len(subset):
            bound += max_crossing_degree(subset.comms) + 1
    return bound


def arbitrary_set(pairs: int, seed: int):
    return random_arbitrary(pairs, N_LEAVES, np.random.default_rng(seed))


def run_one(pairs: int, seed: int, *, alpha: float = 0.0) -> dict:
    """Schedule one random arbitrary set through the auto door; gate it."""
    cset = arbitrary_set(pairs, seed)
    config = SchedulerConfig(decompose="auto", recfg_alpha=alpha)
    result = config.build().schedule(cset, n_leaves=N_LEAVES)

    failures = []
    delivered = result.delivered
    if len(delivered) != len(cset) or set(delivered) != set(cset.comms):
        failures.append(
            f"pairs={pairs} seed={seed}: delivered {len(delivered)}/{len(cset)}"
        )
    bound = greedy_bound(cset)
    summary = result.summary()
    if not summary["batch_lower_bound"] <= summary["batches"] <= bound:
        failures.append(
            f"pairs={pairs} seed={seed}: {summary['batches']} batches outside "
            f"[{summary['batch_lower_bound']}, greedy {bound}]"
        )

    row = {
        "pairs": pairs,
        "seed": seed,
        "alpha": alpha,
        "batches": summary["batches"],
        "batch_lower_bound": summary["batch_lower_bound"],
        "greedy_bound": bound,
        "rounds": summary["rounds"],
        "optimum_rounds": summary["optimum_rounds"],
        "round_overhead": summary["round_overhead"],
        "overhead_ratio": summary["overhead_ratio"],
        "merged_rounds": summary["merged_rounds"],
        "power_units": summary["power_units"],
        "reconfig_changes": summary["reconfig_changes"],
        "failures": failures,
    }
    print(
        f"pairs={pairs} seed={seed} alpha={alpha}: "
        f"{row['batches']} batches (lb {row['batch_lower_bound']}, "
        f"greedy {bound}), {row['rounds']} rounds vs optimum "
        f"{row['optimum_rounds']} (x{row['overhead_ratio']}, "
        f"{row['merged_rounds']} merged)"
    )
    return row


def well_nested_control(seed: int = 5) -> list[str]:
    """A well-nested input must pass through as one batch at the optimum."""
    rng = np.random.default_rng(seed)
    cset = random_well_nested(24, N_LEAVES, rng)
    result = SchedulerConfig(decompose="auto").build().schedule(
        cset, n_leaves=N_LEAVES
    )
    failures = []
    dec = decompose(cset)
    if dec.n_batches != 1:
        failures.append(f"well-nested control decomposed into {dec.n_batches} batches")
    if hasattr(result, "summary"):  # general path taken — must still be optimal
        s = result.summary()
        if s["batches"] != 1 or s["round_overhead"] != 0:
            failures.append(f"well-nested control paid overhead: {s}")
    elif set(result.delivered) != set(cset.comms):
        failures.append("well-nested control lost pairs on the direct path")
    return failures


def network_checks(csets: list) -> list[str]:
    """The general path with and without a supplied network: equal
    payloads, and the dict replay at least ``SPEED_FLOOR`` times as fast.

    The speed check times the replay itself, ``execute_round_plan`` on
    each set's packed plan.  The decomposition and the per-batch kernel
    runs around it are the same work on both paths.
    """
    scheduler = SchedulerConfig(decompose="auto").build()
    failures = []
    plans = []
    for cset in csets:
        result = scheduler.schedule(cset, n_leaves=N_LEAVES)
        network = CSTNetwork.of_size(N_LEAVES)
        on_network = scheduler.schedule(cset, network=network)
        if result_to_dict(on_network) != result_to_dict(result):
            failures.append(
                f"{len(cset)} pairs: the payload on a supplied network differs "
                "from the payload without one"
            )
        combined = getattr(result, "combined", result)
        plans.append([list(r.performed) for r in combined.rounds])
    best_dicts = best_network = float("inf")
    for _ in range(SPEED_REPEATS):
        networks = [CSTNetwork.of_size(N_LEAVES) for _ in csets]
        start = perf_counter()
        for cset, plan in zip(csets, plans):
            execute_round_plan(cset, N_LEAVES, plan, "smoke")
        best_dicts = min(best_dicts, perf_counter() - start)
        start = perf_counter()
        for cset, plan, network in zip(csets, plans, networks):
            execute_round_plan(cset, N_LEAVES, plan, "smoke", network=network)
        best_network = min(best_network, perf_counter() - start)
    speedup = best_network / best_dicts
    print(
        f"plan replay over {len(csets)} sets, best of {SPEED_REPEATS}: "
        f"{best_dicts * 1e3:.2f} ms on dict crossbar state, "
        f"{best_network * 1e3:.2f} ms on supplied networks (x{speedup:.1f})"
    )
    if speedup < SPEED_FLOOR:
        failures.append(
            f"the replay without a network is only x{speedup:.2f} as fast as "
            f"the supplied-network replay (floor x{SPEED_FLOOR})"
        )
    return failures


def record_rows(rows: list[dict]) -> None:
    decompose_block = {
        "mode": "full",
        "n_leaves": N_LEAVES,
        "rows": [{k: v for k, v in row.items() if k != "failures"} for row in rows],
    }
    record({"decompose": decompose_block})
    print(f"wrote decompose full rows to {RESULTS}")


def run_smoke() -> int:
    rows = [run_one(pairs, seed) for pairs, seed in SMOKE_RUNS]
    failures = [f for row in rows for f in row["failures"]]
    failures += well_nested_control()
    failures += network_checks([arbitrary_set(p, seed) for p, seed in SMOKE_RUNS])
    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        worst = max(row["overhead_ratio"] for row in rows)
        print(
            f"decompose smoke ok: {len(rows)} arbitrary sets at n={N_LEAVES} "
            f"delivered exactly once within the greedy bound "
            f"(worst overhead x{worst})"
        )
    return 1 if failures else 0


def run_full(alphas: tuple[float, ...] = (0.0, 2.0)) -> int:
    rows = [
        run_one(pairs, seed, alpha=alpha)
        for alpha in alphas
        for pairs in FULL_PAIRS
        for seed in FULL_SEEDS
    ]
    failures = [f for row in rows for f in row["failures"]]
    record_rows(rows)
    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="run the CI gate")
    args = ap.parse_args(argv)
    return run_smoke() if args.smoke else run_full()


if __name__ == "__main__":
    sys.exit(main())
