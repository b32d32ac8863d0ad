#!/usr/bin/env python3
"""Benchmark the scheduling service layer against direct scheduling.

Measures, per tree size, the wall-clock throughput (requests/second) of

* ``direct``     — a plain ``PADRScheduler().schedule`` loop, one process,
                   no cache: the pre-service baseline;
* ``service``    — the ``SchedulerService`` inline path (admission +
                   canonicalisation + cache on a cold start);
* ``pooled``     — the service over a multiprocessing pool;
* ``resubmit``   — the same batch submitted again: every request is a
                   cache hit, measuring the canonical cache's speedup.

All service-path results are parity-checked against the direct scheduler
(bit-identical at the serialized level) while being timed — the benchmark
refuses to report fast-but-wrong numbers.  Results append to
``results/BENCH_scaling.json`` under a top-level ``"service"`` key (the
``"rows"`` trajectory consumed by ``run_perf_suite.py --baseline`` is
untouched).

Usage::

    PYTHONPATH=src python scripts/run_service_bench.py                 # full
    PYTHONPATH=src python scripts/run_service_bench.py --smoke         # CI gate
    PYTHONPATH=src python scripts/run_service_bench.py --stream-smoke  # CI gate
    PYTHONPATH=src python scripts/run_service_bench.py --enforce       # + 3x gate

The ``--smoke`` gate asserts the hardware-independent service contract:
64 mixed workloads at n=256, every request settles DONE, resubmission
cache hit-rate >= 50%, bit-identical parity throughout, and cache-hit
serving >= 20x faster than direct scheduling.  The pooled >= 3x speedup
at n=1024 is hardware-dependent (it needs >= 4 real cores); it is
asserted when ``os.cpu_count() >= 4`` or ``--enforce`` is given, and
otherwise reported but not gated — the recorded row always includes the
cpu count so readers can judge the number.

The ``--stream-smoke`` gate drives the *streaming* service through an
overload burst at n=256 with live parity checking and asserts the
admission contract: the machine reaches SOFT_RED or RED, sheds only
LOW-priority work (every NORMAL/HIGH request settles DONE), returns to
GREEN once the burst drains, and p99 latency stays under the tick
budget.  It records the p50/p99 trajectory under a ``"streaming"`` key
in ``results/BENCH_scaling.json`` (the ``"service"`` / ``"columnar"`` /
``"rows"`` keys are untouched).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.core.csa import PADRScheduler
from repro.io import schedule_to_dict
from repro.service import SchedulerService, mixed_workloads

RESULTS = Path(__file__).resolve().parent.parent / "results" / "BENCH_scaling.json"

FULL_SIZES = [256, 1024]
SMOKE_COUNT = 64
SMOKE_LEAVES = 256


def _time(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def bench_size(n_leaves: int, count: int, workers: int, parity: bool) -> dict:
    batch = mixed_workloads(n_leaves, count, seed=7)

    direct = PADRScheduler()
    direct_s, direct_schedules = _time(
        lambda: [direct.schedule(cs, n_leaves=n_leaves) for cs in batch]
    )

    # the timed service runs keep the in-band parity re-run OFF (it would
    # add one full direct schedule per request to the timed region);
    # parity is still asserted below, once, against the direct run above.
    with SchedulerService(workers=1, parity_check=False) as inline_svc:
        inline_s, inline_report = _time(lambda: inline_svc(batch, n_leaves=n_leaves))
        resubmit_s, resubmit_report = _time(
            lambda: inline_svc(batch, n_leaves=n_leaves)
        )

    with SchedulerService(workers=workers, parity_check=False) as pool_svc:
        # one untimed drain pays the fork cost outside the timed region
        pool_svc(batch[:1], n_leaves=n_leaves)
        pool_svc.cache.clear()
        pooled_s, pooled_report = _time(lambda: pool_svc(batch, n_leaves=n_leaves))

    for name, report in (
        ("service", inline_report),
        ("resubmit", resubmit_report),
        ("pooled", pooled_report),
    ):
        if report.n_done != count:
            raise SystemExit(
                f"n={n_leaves} {name}: only {report.n_done}/{count} done — "
                f"{report.summary()}"
            )

    if parity:
        expected = [schedule_to_dict(s) for s in direct_schedules]
        for name, report in (
            ("service", inline_report),
            ("resubmit", resubmit_report),
            ("pooled", pooled_report),
        ):
            got = [report.results[t].payload for t in sorted(report.schedules())]
            if got != expected:
                raise SystemExit(
                    f"n={n_leaves} {name}: schedules diverge from direct "
                    "scheduling — refusing to report timings"
                )

    return {
        "n": n_leaves,
        "requests": count,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "parity_checked": parity,
        "direct_s": round(direct_s, 6),
        "service_s": round(inline_s, 6),
        "pooled_s": round(pooled_s, 6),
        "resubmit_s": round(resubmit_s, 6),
        "pooled_speedup": round(direct_s / pooled_s, 3) if pooled_s else None,
        "cache_speedup": round(direct_s / resubmit_s, 3) if resubmit_s else None,
        "first_pass_hit_rate": round(inline_report.hit_rate, 3),
        "resubmit_hit_rate": round(resubmit_report.hit_rate, 3),
    }


def run_full(args: argparse.Namespace) -> int:
    workers = args.workers or min(4, os.cpu_count() or 1)
    rows = []
    for n in FULL_SIZES:
        row = bench_size(n, args.count, workers, parity=not args.no_parity)
        rows.append(row)
        print(
            f"n={row['n']:5d}: direct {row['direct_s']:.3f}s, "
            f"service {row['service_s']:.3f}s, "
            f"pooled({workers}w) {row['pooled_s']:.3f}s "
            f"[{row['pooled_speedup']}x], "
            f"resubmit {row['resubmit_s']:.4f}s [{row['cache_speedup']}x cached]"
        )

    payload = json.loads(RESULTS.read_text()) if RESULTS.exists() else {}
    payload["service"] = {
        "requests_per_batch": args.count,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }
    RESULTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote service trajectory to {RESULTS}")

    failures = []
    big = rows[-1]
    if big["cache_speedup"] is not None and big["cache_speedup"] < 20:
        failures.append(
            f"cache-hit resubmission speedup {big['cache_speedup']}x < 20x at "
            f"n={big['n']}"
        )
    enforce_pool = args.enforce or (os.cpu_count() or 1) >= 4
    if enforce_pool and big["pooled_speedup"] is not None and big["pooled_speedup"] < 3:
        failures.append(
            f"pooled speedup {big['pooled_speedup']}x < 3x at n={big['n']} "
            f"({workers} workers, {os.cpu_count()} cpus)"
        )
    elif not enforce_pool:
        print(
            f"pooled >=3x gate skipped: {os.cpu_count()} cpu(s) available "
            f"(needs >= 4; use --enforce to assert anyway)"
        )
    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


def run_smoke(args: argparse.Namespace) -> int:
    """The CI service gate: hardware-independent contract only."""
    workers = args.workers or 2
    batch = mixed_workloads(SMOKE_LEAVES, SMOKE_COUNT, seed=7)

    with SchedulerService(workers=workers, parity_check=True) as service:
        first = service(batch, n_leaves=SMOKE_LEAVES)
        second = service(batch, n_leaves=SMOKE_LEAVES)

    direct = PADRScheduler()
    direct_s, direct_schedules = _time(
        lambda: [direct.schedule(cs, n_leaves=SMOKE_LEAVES) for cs in batch]
    )
    with SchedulerService(workers=1, parity_check=False) as warm:
        warm(batch, n_leaves=SMOKE_LEAVES)
        cached_s, cached_report = _time(lambda: warm(batch, n_leaves=SMOKE_LEAVES))

    failures = []
    if first.n_done != SMOKE_COUNT:
        failures.append(f"first pass: {first.summary()}")
    if second.n_done != SMOKE_COUNT:
        failures.append(f"resubmission: {second.summary()}")
    if second.hit_rate < 0.5:
        failures.append(f"resubmission hit-rate {second.hit_rate:.0%} < 50%")
    # explicit bit-identical parity, independent of the in-service check
    second_by_order = [second.results[t] for t in sorted(second.schedules())]
    expected = [schedule_to_dict(s) for s in direct_schedules]
    got = [r.payload for r in second_by_order]
    if expected != got:
        failures.append("serialized schedules diverge from direct scheduling")
    speedup = direct_s / cached_s if cached_s else float("inf")
    if speedup < 20:
        failures.append(f"cache-hit speedup {speedup:.1f}x < 20x")

    print(
        f"service smoke: {SMOKE_COUNT} workloads, n={SMOKE_LEAVES}, "
        f"workers={workers}"
    )
    print(f"  first:  {first.summary()}")
    print(f"  second: {second.summary()} (hit-rate {second.hit_rate:.0%})")
    print(
        f"  direct {direct_s:.3f}s vs cached {cached_s:.4f}s "
        f"({speedup:.0f}x), parity bit-identical: {expected == got}"
    )
    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


STREAM_LEAVES = 256
STREAM_ARRIVALS = 120
STREAM_DEADLINE = 96
STREAM_P99_BUDGET = 64


def run_stream_smoke(args: argparse.Namespace) -> int:
    """The CI streaming gate: the overload-burst admission contract."""
    from repro.service import (
        AdmissionState,
        Priority,
        StreamRequest,
        StreamStatus,
        StreamingSchedulerService,
        TenantQuota,
    )

    priorities = [Priority.LOW, Priority.NORMAL, Priority.HIGH]
    csets = mixed_workloads(STREAM_LEAVES, 15, seed=7)
    # the burst: released over a few ticks so late arrivals meet the
    # pressure the early ones built — queue pressure, not quota, must
    # drive the state machine, so quotas are deliberately generous.
    arrivals = [
        StreamRequest(
            cset=csets[i % len(csets)],
            n_leaves=STREAM_LEAVES,
            release_time=i // 12,
            deadline=STREAM_DEADLINE,
            priority=priorities[i % 3],
            tenant=f"tenant-{i % 2}",
        )
        for i in range(STREAM_ARRIVALS)
    ]
    service = StreamingSchedulerService(
        max_queue=80,
        max_inflight=4,
        default_quota=TenantQuota(rate=64.0, burst=float(STREAM_ARRIVALS)),
        parity_check=True,  # live bit-identical assertion on every settle
    )
    elapsed, report = _time(lambda: service.run(arrivals))

    failures = []
    if len(report.results) != STREAM_ARRIVALS:
        failures.append(
            f"accounting hole: {len(report.results)}/{STREAM_ARRIVALS} "
            "requests settled"
        )
    if not (
        service.admission.reached(AdmissionState.SOFT_RED)
        or service.admission.reached(AdmissionState.RED)
    ):
        failures.append("burst never pushed admission past YELLOW")
    if report.n_shed == 0:
        failures.append("burst shed nothing — the drill is vacuous, retune it")
    if service.state is not AdmissionState.GREEN:
        failures.append(f"did not recover to GREEN (final {service.state.name})")
    dropped_above_low = {
        prio: n
        for status in (StreamStatus.SHED, StreamStatus.EXPIRED, StreamStatus.REJECTED)
        for prio, n in report.by_priority(status).items()
        if prio != "LOW"
    }
    if dropped_above_low:
        failures.append(f"non-LOW work dropped: {dropped_above_low}")
    done = report.by_priority(StreamStatus.DONE)
    for prio in ("NORMAL", "HIGH"):
        expected = sum(1 for r in arrivals if r.priority.name == prio)
        if done.get(prio, 0) != expected:
            failures.append(
                f"{prio}: {done.get(prio, 0)}/{expected} delivered"
            )
    if report.p99_ticks > STREAM_P99_BUDGET:
        failures.append(
            f"p99 {report.p99_ticks:.0f} ticks > budget {STREAM_P99_BUDGET}"
        )

    print(
        f"stream smoke: {STREAM_ARRIVALS} burst arrivals, n={STREAM_LEAVES}, "
        f"inflight=4, queue=80, parity=on ({elapsed:.2f}s wall)"
    )
    print(f"  {report.summary()}")
    trajectory = [(0, "GREEN"), *report.trajectory]
    print(
        "  trajectory: "
        + " -> ".join(f"{state}@t{tick}" for tick, state in trajectory)
    )
    print(f"  shed by priority: {report.by_priority(StreamStatus.SHED) or '{}'}")

    payload = json.loads(RESULTS.read_text()) if RESULTS.exists() else {}
    payload["streaming"] = {
        "n": STREAM_LEAVES,
        "arrivals": STREAM_ARRIVALS,
        "max_inflight": 4,
        "max_queue": 80,
        "deadline_ticks": STREAM_DEADLINE,
        "cpu_count": os.cpu_count(),
        "wall_s": round(elapsed, 3),
        "p50_ticks": report.p50_ticks,
        "p99_ticks": report.p99_ticks,
        "ticks": report.ticks,
        "done": report.n_done,
        "shed": report.n_shed,
        "expired": report.n_expired,
        "cached": report.n_cached,
        "trajectory": [[tick, state] for tick, state in trajectory],
    }
    RESULTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote streaming trajectory to {RESULTS}")

    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true", help="CI service gate")
    parser.add_argument(
        "--stream-smoke",
        action="store_true",
        help="CI streaming gate: overload-burst admission contract",
    )
    parser.add_argument("--count", type=int, default=64, help="requests per batch")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--enforce",
        action="store_true",
        help="assert the pooled >=3x gate even on < 4 cpus",
    )
    parser.add_argument("--no-parity", action="store_true")
    args = parser.parse_args(argv)
    if args.stream_smoke:
        return run_stream_smoke(args)
    return run_smoke(args) if args.smoke else run_full(args)


if __name__ == "__main__":
    sys.exit(main())
