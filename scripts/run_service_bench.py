#!/usr/bin/env python3
"""Benchmark the scheduling service layer against direct scheduling.

Measures, per tree size, the wall-clock time of

* ``direct``     — a plain ``PADRScheduler().schedule`` loop, one process,
                   no cache: the pre-service baseline;
* ``service``    — the ``SchedulerService`` in-process path (admission +
                   canonicalisation + cache on a cold start);
* ``resubmit``   — the same batch submitted again: every request is a
                   cache hit, measuring the canonical cache's speedup.

and, per drain mix, the ms per request of the same drains run three ways:
``inline`` (a ``workers=1`` service: no pool), ``pool`` (``workers=2``,
every wave pinned to the pool) and ``dispatch`` (``workers=2``, each wave
sent where the executor's measured cost rule says).  The mixes are
full-miss drains of 16 at four sizes, ``batch_repeat``-like Zipf drains of
16 and ``general_fabric``-like drains of 2 arbitrary sets on a 2-tree
fabric (``parallel=False`` / pinned / dispatched).  The modes take turns
drain by drain and every payload is compared with direct scheduling.

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
    PYTHONPATH=src python scripts/run_service_bench.py --enforce       # + dispatch gate

The ``--smoke`` gate asserts the hardware-independent service contract:
64 mixed workloads at n=256, every request settles DONE, resubmission
cache hit-rate >= 50%, bit-identical parity throughout, and cache-hit
serving >= 20x faster than direct scheduling.  Its dispatch gate counts
waves, not time: on >= 2 usable CPUs a full-miss n=8192 1024-pair drain
of 16 goes to the pool and a lone 1-pair request runs in-process; on one
CPU both run in-process; both byte-identical to direct scheduling.  The full
run's ``--enforce`` gate asserts that at every dispatch row the
dispatched figure is within 1.25x of the faster of in-process and pool;
it is timing-dependent, so it is otherwise reported but not gated — the
recorded rows carry the cpu count so readers can judge the numbers.

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
import itertools
import json
import os
import sys
import time

import numpy as np

from bench_results import RESULTS, record
from repro.comms.dyck import random_dyck_word
from repro.comms.generators import from_dyck_word, random_arbitrary, random_well_nested
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.fabric import FabricController
from repro.io import result_to_dict, schedule_to_dict
from repro.obs import Instrumentation, MetricsRegistry
from repro.service import SchedulerService, mixed_workloads
from repro.service.pipeline import pin_dispatch, usable_cpus

FULL_SIZES = [256, 1024]
SMOKE_COUNT = 64
SMOKE_LEAVES = 256

#: full-miss dispatch rows: (leaves, pairs) of every request in a drain of 16
MISS_ROWS = ((256, 16), (1024, 64), (4096, 64), (16384, 256))
MISS_DRAIN = 16
#: (n_leaves, pairs) of the smoke dispatch gate's full-miss drains
HEAVY_DRAIN = (8192, 1024)
#: timed drains per mode: full-miss rows, and the batch_repeat-like and
#: general_fabric-like mixes (a row's figure is the mean over its drains;
#: fewer than this moved a row by 15-20% between runs on a 2-vCPU host)
DISPATCH_REPS = 30
MIX_DRAINS = 600
MODES = ("inline", "pool", "dispatch")
#: --enforce: the dispatched figure may exceed the faster side by this much
DISPATCH_SLACK = 1.25


def _time(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def bench_size(n_leaves: int, count: int, parity: bool) -> dict:
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

    for name, report in (("service", inline_report), ("resubmit", resubmit_report)):
        if report.n_done != count:
            raise SystemExit(
                f"n={n_leaves} {name}: only {report.n_done}/{count} done — "
                f"{report.summary()}"
            )

    if parity:
        expected = [schedule_to_dict(s) for s in direct_schedules]
        for name, report in (("service", inline_report), ("resubmit", resubmit_report)):
            got = [report.results[t].payload for t in sorted(report.schedules())]
            if got != expected:
                raise SystemExit(
                    f"n={n_leaves} {name}: schedules diverge from direct "
                    "scheduling — refusing to report timings"
                )

    return {
        "n": n_leaves,
        "requests": count,
        "cpu_count": os.cpu_count(),
        "parity_checked": parity,
        "direct_s": round(direct_s, 6),
        "service_s": round(inline_s, 6),
        "resubmit_s": round(resubmit_s, 6),
        "cache_speedup": round(direct_s / resubmit_s, 3) if resubmit_s else None,
        "first_pass_hit_rate": round(inline_report.hit_rate, 3),
        "resubmit_hit_rate": round(resubmit_report.hit_rate, 3),
    }


# -- in-process vs pool vs dispatched -------------------------------------------


def _door(mode: str, workers: int, obs, fabric: bool) -> SchedulerService:
    """One door per mode: no pool, a pinned pool, or the dispatch rule."""
    if fabric:
        config = SchedulerConfig(decompose="auto")
        fab = FabricController(2, 256, config=config, parallel=mode != "inline", obs=obs)
        if mode == "pool":
            pin_dispatch(fab, True)
        return SchedulerService(config=config, fabric=fab, obs=obs)
    svc = SchedulerService(workers=1 if mode == "inline" else workers, obs=obs)
    if mode == "pool":
        pin_dispatch(svc, True)
    return svc


def _close(door: SchedulerService) -> None:
    door.close()
    if door.fabric is not None:
        door.fabric.close()


def _expected(drain: list, config: SchedulerConfig) -> list[str]:
    direct = config.build()
    return [json.dumps(result_to_dict(direct.schedule(c, n_leaves=n))) for n, c in drain]


def _dispatch_counts(obs: Instrumentation) -> dict[str, int]:
    """Waves the rule sent each way so far (``service.`` and ``fabric.`` doors)."""
    counters = obs.metrics.snapshot()["counters"]
    return {
        side: sum(
            v for k, v in counters.items() if k.split("{")[0].endswith(f".dispatch.{side}")
        )
        for side in ("inline", "pooled")
    }


def bench_dispatch(
    name: str, drains: list, warm: list, workers: int, *, fabric: bool = False, **row
) -> dict:
    """ms/request of the same drains in-process, on a pinned pool and dispatched.

    ``drains`` and ``warm`` are lists of drains, each a list of
    ``(n_leaves, cset)``.  Each mode runs the ``warm`` drains untimed
    (forking its pool and, dispatched, taking the rule's first
    measurements), then the modes take turns drain by drain, cycling
    through all six orders: a drain right after a pooled one runs slower,
    so each mode must follow each other mode equally often.  Every payload must equal direct scheduling's, byte for
    byte, or the row is refused.
    """
    config = SchedulerConfig(decompose="auto") if fabric else SchedulerConfig()
    # every door counts into its own registry, so all pay the same metrics cost
    obs = {m: Instrumentation(MetricsRegistry(), run="bench") for m in MODES}
    doors = {m: _door(m, workers, obs[m], fabric) for m in MODES}
    expected = [_expected(drain, config) for drain in drains]
    seconds = dict.fromkeys(MODES, 0.0)
    try:
        for drain in warm:
            for door in doors.values():
                _run_drain(door, drain)
        before = _dispatch_counts(obs["dispatch"])
        orders = itertools.cycle(itertools.permutations(MODES))
        for i, drain in enumerate(drains):
            for mode in next(orders):
                t0 = time.perf_counter()
                payloads = _run_drain(doors[mode], drain)
                seconds[mode] += time.perf_counter() - t0
                if payloads != expected[i]:
                    raise SystemExit(
                        f"{name} {mode}: payloads diverge from direct scheduling — "
                        "refusing to report timings"
                    )
        after = _dispatch_counts(obs["dispatch"])
    finally:
        for door in doors.values():
            _close(door)
    requests = sum(len(d) for d in drains)
    ms = {m: round(seconds[m] * 1e3 / requests, 4) for m in MODES}
    return {
        "name": name,
        **row,
        "drains": len(drains),
        "requests": requests,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "inline_ms_per_req": ms["inline"],
        "pool_ms_per_req": ms["pool"],
        "dispatch_ms_per_req": ms["dispatch"],
        "dispatch_over_best": round(ms["dispatch"] / min(ms["inline"], ms["pool"]), 3),
        "dispatched_waves": {k: after[k] - before[k] for k in after},
        "parity_checked": True,
    }


def _run_drain(door: SchedulerService, drain: list) -> list[str]:
    tickets = [door.submit(c, n_leaves=n) for n, c in drain]
    report = door.drain()
    return [json.dumps(report.results[t.id].payload) for t in tickets]


def miss_drains(n: int, pairs: int, count: int, seed: int) -> list:
    rng = np.random.default_rng([seed, n, pairs])
    return [
        [(n, random_well_nested(pairs, n, rng)) for _ in range(MISS_DRAIN)]
        for _ in range(count)
    ]


def repeat_drains(count: int, seed: int) -> list:
    """Drains of 16 from a Zipf(1.1) catalogue, ~3 in 4 served from cache:
    the five n=256 mixed families first, then 16-pair sets (1 in 10 at
    n=1024), every eighth entry a placement of one 24-pair Dyck word at
    n=4096 (a same-shape group)."""
    rng = np.random.default_rng([seed, 1])
    word = random_dyck_word(24, np.random.default_rng(0))
    catalogue: list = [(256, c) for c in mixed_workloads(256, 5)]
    while len(catalogue) < 1200:
        if len(catalogue) % 8 == 7:
            spots = np.sort(rng.choice(4096, len(word), replace=False)).tolist()
            catalogue.append((4096, from_dyck_word(word, spots)))
        else:
            n = 1024 if len(catalogue) % 10 == 9 else 256
            catalogue.append((n, random_well_nested(16, n, rng)))
    weights = np.arange(1, len(catalogue) + 1, dtype=float) ** -1.1
    draws = rng.choice(len(catalogue), size=(count, 16), p=weights / weights.sum())
    return [[catalogue[k] for k in row] for row in draws.tolist()]


def fabric_drains(count: int, seed: int) -> list:
    """Drains of 2 unique arbitrary sets (4/8/16 pairs, n=256), 1 in 10 well-nested."""
    rng = np.random.default_rng([seed, 3])
    sets = [
        (random_well_nested if j % 10 == 9 else random_arbitrary)((4, 8, 16)[j % 3], 256, rng)
        for j in range(2 * count)
    ]
    return [[(256, sets[j]), (256, sets[j + 1])] for j in range(0, len(sets), 2)]


def dispatch_rows(workers: int, reps: int) -> list[dict]:
    rows = []
    # warm-up: enough drains for the rule to measure both sides (a fork,
    # then WaveCost.MEASURED samples each; fabric waves are two-shard half
    # the time)
    for n, pairs in MISS_ROWS:
        drains = miss_drains(n, pairs, reps + 8, seed=11)
        rows.append(
            bench_dispatch(
                "full_miss", drains[8:], drains[:8], workers, n=n, pairs=pairs,
                drain=MISS_DRAIN,
            )
        )
    drains = repeat_drains(MIX_DRAINS + 16, seed=12)
    rows.append(bench_dispatch("batch_repeat_like", drains[16:], drains[:16], workers, drain=16))
    drains = fabric_drains(MIX_DRAINS + 16, seed=13)
    rows.append(
        bench_dispatch(
            "general_fabric_like", drains[16:], drains[:16], workers, fabric=True,
            drain=2, trees=2,
        )
    )
    return rows


def run_full(args: argparse.Namespace) -> int:
    workers = args.workers or 2
    rows = []
    for n in FULL_SIZES:
        row = bench_size(n, args.count, parity=not args.no_parity)
        rows.append(row)
        print(
            f"n={row['n']:5d}: direct {row['direct_s']:.3f}s, "
            f"service {row['service_s']:.3f}s, "
            f"resubmit {row['resubmit_s']:.4f}s [{row['cache_speedup']}x cached]"
        )
    dispatch = dispatch_rows(workers, DISPATCH_REPS)
    for row in dispatch:
        where = f" n={row['n']} pairs={row['pairs']}" if "n" in row else ""
        print(
            f"{row['name']}{where}: ms/req inline {row['inline_ms_per_req']}, "
            f"pool {row['pool_ms_per_req']}, dispatch {row['dispatch_ms_per_req']} "
            f"[{row['dispatch_over_best']}x the faster side], "
            f"waves {row['dispatched_waves']}"
        )

    service = {
        "requests_per_batch": args.count,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "rows": rows,
        "dispatch": dispatch,
    }
    record({"service": service})
    print(f"wrote service trajectory to {RESULTS}")

    failures = []
    big = rows[-1]
    if big["cache_speedup"] is not None and big["cache_speedup"] < 20:
        failures.append(
            f"cache-hit resubmission speedup {big['cache_speedup']}x < 20x at "
            f"n={big['n']}"
        )
    slow = [r for r in dispatch if r["dispatch_over_best"] > DISPATCH_SLACK]
    if args.enforce:
        failures += [
            f"{r['name']} {r.get('n', '')}: dispatched {r['dispatch_ms_per_req']} ms/req "
            f"> {DISPATCH_SLACK}x the faster side"
            for r in slow
        ]
    elif slow:
        print(
            f"dispatch gate not enforced (timing-dependent; use --enforce): "
            f"{len(slow)} row(s) above {DISPATCH_SLACK}x the faster side"
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
    # best of 5 per side, the sides taking turns: a single sample of a
    # ~2 ms cached pass, or two sides timed in different host states,
    # swings the ratio by a third on a shared 2-vCPU host
    direct_s = cached_s = float("inf")
    with SchedulerService(workers=1, parity_check=False) as warm:
        warm(batch, n_leaves=SMOKE_LEAVES)
        for _ in range(5):
            seconds, direct_schedules = _time(
                lambda: [direct.schedule(cs, n_leaves=SMOKE_LEAVES) for cs in batch]
            )
            direct_s = min(direct_s, seconds)
            seconds, _ = _time(lambda: warm(batch, n_leaves=SMOKE_LEAVES))
            cached_s = min(cached_s, seconds)

    failures = smoke_dispatch(workers)
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
    print(f"  dispatch gate: {usable_cpus()} usable cpu(s)")
    print(f"  first:  {first.summary()}")
    print(f"  second: {second.summary()} (hit-rate {second.hit_rate:.0%})")
    print(
        f"  direct {direct_s:.3f}s vs cached {cached_s:.4f}s "
        f"({speedup:.0f}x), parity bit-identical: {expected == got}"
    )
    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


def smoke_dispatch(workers: int) -> list[str]:
    """The dispatch gate: it counts waves, not time.

    Warm full-miss drains first give the rule its measurements: pooled
    ones until the pool side has its samples (the first forks the pool and
    gives none), then pinned in-process ones until that side has its
    samples (a wave that ran a full garbage collection gives none); at
    most six run on each side.  Then, on >= 2 usable CPUs, a full-miss
    drain of 16 at ``HEAVY_DRAIN`` must go to the pool and a lone 1-pair
    request run in-process; on one CPU both run in-process.  Every payload
    must equal direct scheduling's, byte for byte.

    The heavy shape is one whose pinned pool run beats in-process on a
    2-vCPU host: the pool pays back its round trip only on drains with
    enough kernel work per byte shipped back.
    """
    n, pairs = HEAVY_DRAIN
    heavy = miss_drains(n, pairs, 13, seed=5)
    lone = [(n, random_well_nested(1, n, np.random.default_rng(5)))]
    want = {"pooled": 1, "inline": 1} if usable_cpus() >= 2 else {"pooled": 0, "inline": 2}
    obs = Instrumentation(MetricsRegistry(), run="smoke")
    failures = []
    with SchedulerService(workers=max(2, workers), obs=obs) as svc:
        cost = svc._executor.cost  # the rule's measurements, read-only here
        if usable_cpus() >= 2:  # on one CPU the rule never pools
            for side, drains in ((True, heavy[:6]), (False, heavy[6:12])):
                pin_dispatch(svc, side)
                samples = cost.overhead_samples if side else cost.inline_samples
                for drain in drains:
                    _run_drain(svc, drain)
                    if len(samples) >= cost.MEASURED:
                        break
            pin_dispatch(svc, None)
        before = _dispatch_counts(obs)
        for drain in (heavy[12], lone):
            if _run_drain(svc, drain) != _expected(drain, SchedulerConfig()):
                failures.append("dispatched payloads diverge from direct scheduling")
        after = _dispatch_counts(obs)
    got = {side: after[side] - before[side] for side in after}
    print(f"  dispatch: heavy drain + lone request -> {got} (want {want})")
    if got != want:
        failures.append(f"dispatch sent waves {got}, want {want}")
    return failures


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

    streaming = {
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
    record({"streaming": streaming})
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
        help="assert the dispatched figure within 1.25x of the faster side",
    )
    parser.add_argument("--no-parity", action="store_true")
    args = parser.parse_args(argv)
    if args.stream_smoke:
        return run_stream_smoke(args)
    return run_smoke(args) if args.smoke else run_full(args)


if __name__ == "__main__":
    sys.exit(main())
