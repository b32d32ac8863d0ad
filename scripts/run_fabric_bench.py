#!/usr/bin/env python3
"""Benchmark the multi-tree fabric: shard scaling on a skewed tenant mix.

Drives the streaming service over a :class:`~repro.fabric.FabricController`
with a skewed four-tenant workload (one hot tenant, a long tail — the
shape that makes sharding interesting) and measures settled-requests/
second as the forest grows 1 → 8 trees.  Every configuration must settle
*all* requests; the smoke gate additionally runs with live per-shard
parity (each payload re-checked against a direct in-process PADR run)
and reports the cross-shard ratio of a fabric-spanning global set.

Results append to ``results/BENCH_scaling.json`` under a top-level
``"fabric"`` key; the ``"service"`` / ``"streaming"`` / ``"columnar"`` /
``"rows"`` keys are untouched.

Usage::

    PYTHONPATH=src python scripts/run_fabric_bench.py            # full 1/2/4/8
    PYTHONPATH=src python scripts/run_fabric_bench.py --smoke    # CI gate
    PYTHONPATH=src python scripts/run_fabric_bench.py --enforce  # + 2x gate

The throughput-scaling assertion (4 shards >= 2x one shard) needs real
cores: it is gated on ``os.cpu_count() >= 4`` (or ``--enforce``), and
otherwise reported but not asserted — the recorded row always carries
the cpu count so readers can judge the number.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from bench_results import RESULTS, record
from repro.comms.generators import random_well_nested
from repro.fabric import FabricController
from repro.service import (
    StreamRequest,
    StreamingSchedulerService,
    TenantQuota,
    mixed_workloads,
)

LEAF_WIDTH = 256
FULL_TREES = [1, 2, 4, 8]
FULL_COUNT = 96
SMOKE_COUNT = 32

#: the skewed four-tenant mix: tenant-0 takes half the stream.
TENANT_WEIGHTS = (("tenant-0", 10), ("tenant-1", 5), ("tenant-2", 3), ("tenant-3", 2))


def skewed_arrivals(count: int, *, seed: int) -> list[StreamRequest]:
    """``count`` mixed workloads at n=256 on a weighted tenant cycle."""
    csets = mixed_workloads(LEAF_WIDTH, count, seed=seed)
    cycle = [t for t, w in TENANT_WEIGHTS for _ in range(w)]
    return [
        StreamRequest(
            cset=cset,
            n_leaves=LEAF_WIDTH,
            deadline=100_000,
            tenant=cycle[i % len(cycle)],
        )
        for i, cset in enumerate(csets)
    ]


def run_fabric(trees: int, count: int, *, parity: bool, seed: int = 7) -> dict:
    """One timed configuration; returns the recorded row."""
    with FabricController(trees, LEAF_WIDTH) as fabric:
        service = StreamingSchedulerService(
            fabric=fabric,
            parity_check=parity,
            default_quota=TenantQuota(rate=10_000.0, burst=10_000.0),
            max_queue=count + 8,
            max_inflight=64,
        )
        # pay the per-shard fork cost outside the timed region: one tiny
        # warm-up request per tenant (different seed — no cache overlap).
        for req in skewed_arrivals(len(TENANT_WEIGHTS), seed=seed + 1):
            service.submit(req)
        service.run()

        arrivals = skewed_arrivals(count, seed=seed)
        for req in arrivals:
            service.submit(req)
        t0 = time.perf_counter()
        report = service.run()
        elapsed = time.perf_counter() - t0

        settled = report.n_done
        if settled < count:
            raise SystemExit(
                f"trees={trees}: only {settled}/{count} settled DONE — "
                f"{report.summary()}"
            )

        # the aggregation surface: a global set spanning the whole forest.
        rng = np.random.default_rng(seed)
        global_set = random_well_nested(32, trees * LEAF_WIDTH, rng)
        fs = fabric.schedule_global(global_set)

        return {
            "trees": trees,
            "leaf_width": LEAF_WIDTH,
            "requests": count,
            "cpu_count": os.cpu_count(),
            "parity_checked": parity,
            "elapsed_s": round(elapsed, 6),
            "requests_per_s": round(count / elapsed, 3) if elapsed else None,
            "shard_load": list(fabric.shard_load),
            "rebalances": fabric.rebalances,
            "cross_shard_ratio": round(fs.cross_ratio, 4),
            "cross_rounds": fs.cross_rounds,
            "total_rounds": fs.total_rounds,
        }


def run_full(args: argparse.Namespace) -> int:
    rows = []
    base_rps = None
    for trees in FULL_TREES:
        row = run_fabric(trees, args.count, parity=not args.no_parity)
        if base_rps is None:
            base_rps = row["requests_per_s"]
        row["speedup_vs_1"] = (
            round(row["requests_per_s"] / base_rps, 3) if base_rps else None
        )
        rows.append(row)
        print(
            f"trees={trees}: {row['elapsed_s']:.3f}s "
            f"({row['requests_per_s']} req/s, {row['speedup_vs_1']}x vs 1), "
            f"load {row['shard_load']}, "
            f"cross-shard ratio {row['cross_shard_ratio']}"
        )

    fabric = {
        "requests_per_run": args.count,
        "leaf_width": LEAF_WIDTH,
        "tenants": [t for t, _ in TENANT_WEIGHTS],
        "tenant_weights": [w for _, w in TENANT_WEIGHTS],
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }
    record({"fabric": fabric})
    print(f"wrote fabric trajectory to {RESULTS}")
    return 0


def run_smoke(args: argparse.Namespace) -> int:
    """The CI fabric gate: all-done + per-shard parity + reported ratio,
    with the 2x scaling assertion only where the hardware can show it."""
    one = run_fabric(1, SMOKE_COUNT, parity=True)
    four = run_fabric(4, SMOKE_COUNT, parity=True)

    failures = []
    loaded = sum(1 for load in four["shard_load"] if load)
    if loaded < 2:
        failures.append(f"4-tree fabric only loaded {loaded} shard(s): skew routing broken")
    print(
        f"smoke: 1-tree {one['requests_per_s']} req/s, "
        f"4-tree {four['requests_per_s']} req/s, "
        f"load {four['shard_load']}, "
        f"cross-shard ratio {four['cross_shard_ratio']} "
        f"({four['cross_rounds']} cross rounds of {four['total_rounds']})"
    )

    speedup = (
        four["requests_per_s"] / one["requests_per_s"]
        if one["requests_per_s"]
        else None
    )
    enforce = args.enforce or (os.cpu_count() or 1) >= 4
    if enforce:
        if speedup is None or speedup < 2:
            failures.append(
                f"4-shard throughput {speedup and round(speedup, 2)}x < 2x vs "
                f"1 shard ({os.cpu_count()} cpus)"
            )
    else:
        print(
            f"2x scaling gate skipped: {os.cpu_count()} cpu(s) available "
            f"(needs >= 4; use --enforce to assert anyway); "
            f"measured {speedup and round(speedup, 2)}x"
        )

    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print("fabric smoke ok: all settled, per-shard parity green")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="run the CI gate")
    ap.add_argument("--count", type=int, default=FULL_COUNT)
    ap.add_argument("--no-parity", action="store_true")
    ap.add_argument(
        "--enforce",
        action="store_true",
        help="assert the 2x scaling gate even on < 4 cpus",
    )
    args = ap.parse_args(argv)
    return run_smoke(args) if args.smoke else run_full(args)


if __name__ == "__main__":
    sys.exit(main())
