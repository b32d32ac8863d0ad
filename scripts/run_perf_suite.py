#!/usr/bin/env python3
"""Time the PADR scheduler end-to-end across tree sizes.

Records into ``results/BENCH_scaling.json`` — one row per tree size with the
wall-clock time of a full ``PADRScheduler.schedule`` call (Phase 1 +
Phase-2 rounds + commits + transfers) on a sparse random well-nested set,
plus the logical (paper-model) and physical (simulator-walked) control
message counts, so the frontier-pruning savings are tracked alongside the
timing trajectory.

Each row also embeds a metrics-registry snapshot (``"metrics"``) from a
separate, *instrumented* run of the same workload — aggregate counters
and summary gauges only, per-switch families folded to max/total so the
file stays small.  The timed run stays uninstrumented, so the wall-clock
trajectory measures the same hot path as before.

Usage::

    PYTHONPATH=src python scripts/run_perf_suite.py            # full sweep
    PYTHONPATH=src python scripts/run_perf_suite.py --smoke    # CI subset
    PYTHONPATH=src python scripts/run_perf_suite.py --smoke \
        --baseline results/BENCH_scaling.json                  # regression gate
    PYTHONPATH=src python scripts/run_perf_suite.py \
        --columnar-smoke                                       # columnar CI gate

The full sweep replaces the ``"rows"``, ``"columnar"`` and
``"door_scaling"`` blocks through the one merging writer
(``scripts/bench_results.py``), so every other suite's block survives.
``--smoke`` never writes: its rows are a subset measured with fewer
repetitions, and the baseline it gates against is the full sweep's.

The full sweep also records a ``"columnar"`` trajectory — fast vs
columnar single-schedule times plus same-shape batched throughput — next
to the per-size ``"rows"``.
``--columnar-smoke`` is the CI gate: schedules must be bit-identical
between ``engine="fast"`` and the columnar kernel (``engine="auto"``) on
mixed workloads, and the
columnar path must clear a hardware-tolerant speedup floor.

The full sweep also records ``"door_scaling"``: one fixed 24-pair set per
tree size from 2^10 to 2^20 through every door — a direct schedule on a
fresh caller-supplied network and without one, a batch-service cache
hit and miss, the streaming service and the fabric — best of 3, with
the host's ``cpu_count``.  ``--smoke`` gates one ratio from it at
n = 2^16: a direct run on a fresh supplied network may cost at most
``DOOR_GATE_RATIO``× the run without one, with the previous network
released inside the timed call, as ``direct_unique`` releases it.

With ``--baseline`` each measured size is compared against the checked-in
baseline row; a wall-time regression worse than ``--tolerance`` (default
2.0×) fails the run with exit code 1.  Counts (logical/physical messages)
must match the baseline exactly — they are deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from bench_results import RESULTS, record

from repro.comms.generators import random_well_nested
from repro.comms.width import width
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.cst.network import CSTNetwork
from repro.cst.topology import CSTTopology

#: full trajectory (2^6 .. 2^14) and the CI smoke subset.
FULL_SIZES = [2**k for k in range(6, 15)]
SMOKE_SIZES = [2**6, 2**8, 2**10]

#: sparse workload — fixed pair count keeps w ≪ n across the sweep.
PAIRS = 24
SEED = 7

#: same-shape batch width for the batched-throughput trajectory.
BATCH_B = 16

#: columnar smoke gate: parity size, perf sizes, required speedup.  The
#: 256-leaf floor covers the sizes ``engine="auto"`` now hands to the
#: kernel as well as the large-tree one.
SMOKE_PARITY_N = 256
SMOKE_PERF_NS = (256, 4096)
SMOKE_MIN_SPEEDUP = 1.5

#: door_scaling: tree sizes, and the smoke gate's size and ratio bound.
DOOR_SIZES = [2**k for k in range(10, 21, 2)]
DOOR_GATE_N = 2**16
DOOR_GATE_RATIO = 2.0


def registry_snapshot(cset, n: int) -> dict:
    """Metrics from one instrumented (untimed) run, folded for archival.

    Per-switch counter families collapse to their max (the Theorem-8
    quantity) and total; nondeterministic spans are dropped so snapshots
    stay diffable across hosts.
    """
    from repro.obs import Instrumentation, MetricsRegistry
    from repro.obs.registry import parse_key

    obs = Instrumentation(MetricsRegistry(), run="csa")
    PADRScheduler(validate_input=False, obs=obs).schedule(
        cset, network=CSTNetwork.of_size(n)
    )
    snap = obs.metrics.snapshot()
    counters: dict[str, int] = {}
    per_switch: dict[str, list[int]] = {}
    for key, value in snap["counters"].items():
        name, labels = parse_key(key)
        if "switch" in labels:
            per_switch.setdefault(name, []).append(value)
        else:
            counters[name] = value
    for name, values in per_switch.items():
        counters[f"{name}.max_switch"] = max(values)
        counters[f"{name}.total"] = sum(values)
        counters[f"{name}.switches"] = len(values)
    gauges = {parse_key(k)[0]: v for k, v in snap["gauges"].items()}
    return {"counters": counters, "gauges": gauges}


def workload(n: int):
    rng = np.random.default_rng(SEED)
    return random_well_nested(PAIRS, n, rng)


def measure(n: int, reps: int) -> dict:
    cset = workload(n)
    w = width(cset, CSTTopology.of(n))
    cfg = SchedulerConfig(validate_input=False)
    sched = PADRScheduler(config=cfg)
    best = float("inf")
    schedule = None
    for _ in range(reps):
        net = CSTNetwork.of_size(n)
        t0 = time.perf_counter()
        schedule = sched.schedule(cset, network=net)
        best = min(best, time.perf_counter() - t0)
    assert schedule is not None
    return {
        "n": n,
        "w": w,
        "engine": cfg.engine_cls().__name__,
        "wall_s": round(best, 6),
        "physical_messages": schedule.physical_messages,
        "logical_messages": schedule.control_messages,
        "metrics": registry_snapshot(cset, n),
    }


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_columnar(n: int, reps: int) -> dict:
    """One row of the ``"columnar"`` trajectory: fast vs columnar on the
    same workload, single-schedule (with and without a simulated network)
    and batched throughput over ``BATCH_B`` same-shape sets."""
    from repro.core.columnar import schedule_batch

    cset = workload(n)
    fast_cfg = SchedulerConfig(validate_input=False, engine="fast")
    col_cfg = SchedulerConfig(validate_input=False, engine="auto")
    fast = PADRScheduler(config=fast_cfg)
    col = PADRScheduler(config=col_cfg)

    fast_s = _best_of(lambda: fast.schedule(cset, n_leaves=n), reps)
    col_s = _best_of(lambda: col.schedule(cset, n_leaves=n), reps)

    def timed_net(sched):
        net = CSTNetwork.of_size(n)
        t0 = time.perf_counter()
        sched.schedule(cset, network=net)
        return time.perf_counter() - t0

    net_fast_s = min(timed_net(fast) for _ in range(reps))
    net_col_s = min(timed_net(col) for _ in range(reps))

    csets = [cset] * BATCH_B
    solo_s = _best_of(
        lambda: [fast.schedule(c, n_leaves=n) for c in csets], max(1, reps - 1)
    )
    batch_s = _best_of(
        lambda: schedule_batch(csets, n_leaves=n, config=col_cfg), max(1, reps - 1)
    )
    return {
        "n": n,
        "single": {
            "fast_s": round(fast_s, 6),
            "columnar_s": round(col_s, 6),
            "speedup": round(fast_s / col_s, 3),
        },
        "single_with_network": {
            "fast_s": round(net_fast_s, 6),
            "columnar_s": round(net_col_s, 6),
            "speedup": round(net_fast_s / net_col_s, 3),
        },
        "batched": {
            "batch_size": BATCH_B,
            "solo_fast_s_per_schedule": round(solo_s / BATCH_B, 6),
            "batched_s_per_schedule": round(batch_s / BATCH_B, 6),
            "throughput_speedup": round(solo_s / batch_s, 3),
        },
    }


def _direct_rows(n: int, cset, reps: int) -> dict:
    """A direct schedule without a network and on a fresh supplied one.

    Each network is built before the timer.  The scheduler's
    ``last_network`` holds the previous run's network until the next
    call, so every timed run also releases one network, as a client
    handing in a fresh network per request pays.
    """
    sched = PADRScheduler()
    direct = _best_of(lambda: sched.schedule(cset, n_leaves=n), reps)

    def fresh_network() -> float:
        net = CSTNetwork.of_size(n)
        t0 = time.perf_counter()
        sched.schedule(cset, network=net)
        return time.perf_counter() - t0

    fresh_network()  # leaves a network behind for the first timed run
    with_network = min(fresh_network() for _ in range(reps))
    return {"direct_network_ms": with_network * 1e3, "direct_ms": direct * 1e3}


def measure_doors(n: int, reps: int = 3) -> dict:
    """One ``door_scaling`` row: every door on 24-pair sets at ``n`` leaves.

    Service rows time one ``submit`` + ``drain`` (or one streamed
    request); hits repeat a cached set, the other rows take a fresh set
    per repetition.
    """
    from repro.fabric import FabricController
    from repro.service import (
        SchedulerService,
        StreamRequest,
        StreamingSchedulerService,
        TenantQuota,
    )

    rng = np.random.default_rng([SEED, n])
    cset = random_well_nested(PAIRS, n, rng)
    fresh = iter([random_well_nested(PAIRS, n, rng) for _ in range(3 * reps + 2)])
    row: dict = {"n": n, **_direct_rows(n, cset, reps)}

    def drained(door, cs) -> float:
        t0 = time.perf_counter()
        door.submit(cs, n_leaves=n)
        door.drain()
        return time.perf_counter() - t0

    with SchedulerService(workers=1, parity_check=False) as svc:
        drained(svc, cset)
        row["batch_hit_ms"] = min(drained(svc, cset) for _ in range(reps)) * 1e3
        row["batch_miss_ms"] = min(drained(svc, next(fresh)) for _ in range(reps)) * 1e3

    stream = StreamingSchedulerService(
        default_quota=TenantQuota(rate=10_000.0, burst=10_000.0)
    )

    def streamed(cs) -> float:
        t0 = time.perf_counter()
        stream.run([StreamRequest(cset=cs, n_leaves=n, deadline=100_000)])
        return time.perf_counter() - t0

    streamed(next(fresh))
    row["stream_ms"] = min(streamed(next(fresh)) for _ in range(reps)) * 1e3

    with FabricController(2, n, parallel=False) as fabric:
        door = SchedulerService(fabric=fabric)
        drained(door, next(fresh))
        row["fabric_ms"] = min(drained(door, next(fresh)) for _ in range(reps)) * 1e3
    return {k: round(v, 4) if isinstance(v, float) else v for k, v in row.items()}


def measure_door_block() -> dict:
    """The ``door_scaling`` block: :func:`measure_doors` at every size."""
    rows = []
    for n in DOOR_SIZES:
        row = measure_doors(n)
        rows.append(row)
        print(
            f"n={n:>8}  door ms: direct {row['direct_ms']:.2f}  "
            f"+network {row['direct_network_ms']:.2f}  "
            f"hit {row['batch_hit_ms']:.2f}  miss {row['batch_miss_ms']:.2f}  "
            f"stream {row['stream_ms']:.2f}  fabric {row['fabric_ms']:.2f}"
        )
    return {
        "workload": {"pairs": PAIRS, "seed": SEED, "generator": "random_well_nested"},
        "cpu_count": os.cpu_count(),
        "repeats": "best of 3",
        "rows": rows,
    }


def door_gate() -> int:
    """The smoke gate on ``door_scaling``: at ``DOOR_GATE_N`` a fresh
    supplied network costs at most ``DOOR_GATE_RATIO``× no network."""
    n = DOOR_GATE_N
    cset = random_well_nested(PAIRS, n, np.random.default_rng([SEED, n]))
    times = _direct_rows(n, cset, 3)
    ratio = times["direct_network_ms"] / times["direct_ms"]
    ok = ratio <= DOOR_GATE_RATIO
    print(
        f"door:   n={n}  fresh network {times['direct_network_ms']:.2f} ms  "
        f"no network {times['direct_ms']:.2f} ms  ratio {ratio:.2f}x "
        f"(bound {DOOR_GATE_RATIO}x)  {'ok' if ok else 'TOO SLOW'}"
    )
    return 0 if ok else 1


def columnar_smoke() -> int:
    """CI gate for the columnar kernel: exact parity + a perf floor.

    Parity: at ``SMOKE_PARITY_N`` leaves every mixed workload must
    serialize bit-identically under ``engine="fast"`` and the columnar
    kernel (``engine="auto"``).
    Perf: at every size in ``SMOKE_PERF_NS`` the columnar single-schedule
    path must be at least ``SMOKE_MIN_SPEEDUP``× the fast path on the
    suite's sparse ``workload(n)`` — well under the ~3× (n=256) and ~10×
    (n=4096) measured on a 2-vCPU dev box, so shared CI hardware passes
    while a real kernel regression still trips the gate.
    """
    from repro.io import schedule_to_dict
    from repro.service import mixed_workloads

    failures = 0
    n = SMOKE_PARITY_N
    fast = PADRScheduler(config=SchedulerConfig(validate_input=False, engine="fast"))
    col = PADRScheduler(
        config=SchedulerConfig(validate_input=False, engine="auto")
    )
    for i, cset in enumerate(mixed_workloads(n, 12, seed=SEED)):
        a = schedule_to_dict(fast.schedule(cset, n_leaves=n))
        b = schedule_to_dict(col.schedule(cset, n_leaves=n))
        if a != b:
            print(f"PARITY MISMATCH: workload {i} at n={n}", file=sys.stderr)
            failures += 1
    print(f"parity: 12 mixed workloads at n={n} bit-identical"
          if not failures else f"parity: {failures} mismatches")

    for n in SMOKE_PERF_NS:
        cset = workload(n)
        fast_s = _best_of(lambda: fast.schedule(cset, n_leaves=n), 3)
        col_s = _best_of(lambda: col.schedule(cset, n_leaves=n), 3)
        speedup = fast_s / col_s
        status = "ok" if speedup >= SMOKE_MIN_SPEEDUP else "TOO SLOW"
        print(
            f"perf:   n={n}  fast {fast_s * 1e3:.2f} ms  columnar "
            f"{col_s * 1e3:.2f} ms  speedup {speedup:.2f}x "
            f"(floor {SMOKE_MIN_SPEEDUP}x)  {status}"
        )
        if speedup < SMOKE_MIN_SPEEDUP:
            failures += 1
    return 1 if failures else 0


def check_baseline(rows: list[dict], baseline_path: Path, tolerance: float) -> int:
    try:
        baseline = {r["n"]: r for r in json.loads(baseline_path.read_text())["rows"]}
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
        return 1
    failures = 0
    for row in rows:
        base = baseline.get(row["n"])
        if base is None:
            print(f"n={row['n']}: no baseline row, skipping")
            continue
        ratio = row["wall_s"] / base["wall_s"] if base["wall_s"] else float("inf")
        status = "ok"
        if ratio > tolerance:
            status = f"REGRESSION (> {tolerance:.1f}x)"
            failures += 1
        for key in ("logical_messages", "physical_messages"):
            if row[key] != base[key]:
                status = f"COUNT MISMATCH ({key}: {row[key]} vs {base[key]})"
                failures += 1
        # registry snapshots are deterministic too (timings are excluded).
        if "metrics" in base and row["metrics"]["counters"] != base["metrics"]["counters"]:
            status = "METRICS MISMATCH"
            failures += 1
        print(
            f"n={row['n']:>6}  wall {row['wall_s'] * 1e3:8.2f} ms  "
            f"baseline {base['wall_s'] * 1e3:8.2f} ms  ratio {ratio:5.2f}x  {status}"
        )
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"measure only the CI subset {SMOKE_SIZES} with fewer repetitions",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="compare against this BENCH_scaling.json (writes nothing)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="max wall-time ratio vs baseline before failing (default 2.0)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=RESULTS,
        help="the results file to merge the sweep's blocks into "
        "(ignored with --smoke or --baseline)",
    )
    parser.add_argument(
        "--columnar-smoke",
        action="store_true",
        help="run only the columnar CI gate: bit-identical parity at "
        f"n={SMOKE_PARITY_N} and >= {SMOKE_MIN_SPEEDUP}x vs the fast path "
        f"at n={' and '.join(map(str, SMOKE_PERF_NS))}; exit 1 on failure",
    )
    args = parser.parse_args()

    if args.columnar_smoke:
        return columnar_smoke()

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    reps = 3 if args.smoke else 5
    rows = []
    for n in sizes:
        row = measure(n, reps)
        rows.append(row)
        print(
            f"n={n:>6}  w={row['w']:>3}  engine {row['engine']:<18}  "
            f"wall {row['wall_s'] * 1e3:8.2f} ms  "
            f"physical {row['physical_messages']:>8}  "
            f"logical {row['logical_messages']:>8}"
        )

    gate = door_gate() if args.smoke else 0
    if args.baseline is not None:
        return check_baseline(rows, args.baseline, args.tolerance) or gate
    if args.smoke:
        return gate  # a subset at fewer repetitions: the file keeps the full sweep

    # the columnar trajectory rides only on the full sweep; smoke runs
    # keep CI fast (the gate has its own --columnar-smoke entry point).
    columnar_rows = []
    for n in sizes:
        crow = measure_columnar(n, reps)
        columnar_rows.append(crow)
        print(
            f"n={n:>6}  columnar single {crow['single']['speedup']:5.2f}x  "
            f"w/net {crow['single_with_network']['speedup']:5.2f}x  "
            f"batched x{crow['batched']['batch_size']} "
            f"{crow['batched']['throughput_speedup']:5.2f}x"
        )

    workload_block = {"pairs": PAIRS, "seed": SEED, "generator": "random_well_nested"}
    record(
        {
            "format": "cst-padr/perf-scaling",
            "version": 2,
            "workload": workload_block,
            "rows": rows,
            "columnar": {
                "workload": {**workload_block, "batch_size": BATCH_B},
                "rows": columnar_rows,
            },
            "door_scaling": measure_door_block(),
        },
        args.output,
    )
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
