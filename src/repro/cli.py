"""Command-line interface: demos and experiment runners.

Usage (installed as ``cst-padr``, also ``python -m repro``):

.. code-block:: text

    cst-padr demo                 # schedule the paper's Figure 2 set, verbose
    cst-padr compare --width 16   # scheduler comparison on a width-16 chain
    cst-padr random --pairs 32 --leaves 128 --seed 7
    cst-padr sweep --max-width 64 # Theorem 5/8 sweep table
    cst-padr experiment <id>      # any registered experiment (see --list)
    cst-padr trace --width 3      # structured event trace of a CSA run
    cst-padr trace --width 8 --jsonl run.jsonl   # JSON-lines trace, CSA + Roy
    cst-padr metrics --width 8    # metrics-registry snapshot of a run
    cst-padr chaos --leaves 64    # seeded fault-injection campaign
    cst-padr batch --count 64 --leaves 256 --workers 2   # service-layer batch
    cst-padr serve --count 96 --leaves 64 --burst        # streaming service demo
    cst-padr schedule --decompose auto --arbitrary --pairs 24 --leaves 128
                                  # arbitrary set via well-nested decomposition

All output is plain text; the same tables the benchmarks assert on.
``trace --jsonl`` and ``metrics`` are the observability layer's entry
points (see docs/observability.md for the schema).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np

from repro.analysis.comparison import compare_schedulers, format_table
from repro.baselines import (
    GreedyScheduler,
    RandomOrderScheduler,
    RoyIDScheduler,
    SequentialScheduler,
)
from repro.comms.generators import crossing_chain, paper_figure2_set, random_well_nested
from repro.comms.width import width
from repro.core.csa import PADRScheduler
from repro.cst.power import PowerPolicy
from repro.viz.ascii import (
    render_change_profile,
    render_leaf_roles,
    render_round_configuration,
    render_schedule_timeline,
)

__all__ = ["main"]


def _all_schedulers():
    return [
        PADRScheduler(),
        RoyIDScheduler(),
        GreedyScheduler("outermost"),
        GreedyScheduler("innermost"),
        RandomOrderScheduler(seed=1),
        SequentialScheduler(),
    ]


def _cmd_demo(args: argparse.Namespace) -> int:
    cset = paper_figure2_set()
    n = 16
    print("The paper's Figure 2 well-nested set on a 16-leaf CST")
    print(render_leaf_roles(cset, n))
    print()
    schedule = PADRScheduler().schedule(cset, n_leaves=n)
    print(f"CSA: width={width(cset)}, rounds={schedule.n_rounds}, "
          f"{schedule.power.summary()}")
    print()
    for r in range(schedule.n_rounds):
        print(render_round_configuration(schedule, r))
        print()
    print("timeline:")
    print(render_schedule_timeline(schedule))
    print()
    print("per-switch configuration changes (Theorem 8 view):")
    print(render_change_profile(schedule))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cset = crossing_chain(args.width)
    comparison = compare_schedulers(cset, _all_schedulers())
    print(f"crossing chain, width={args.width}, {len(cset)} communications")
    print(format_table(comparison.rows()))
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    cset = random_well_nested(args.pairs, args.leaves, rng)
    comparison = compare_schedulers(cset, _all_schedulers(), args.leaves)
    print(
        f"random well-nested set: pairs={args.pairs}, leaves={args.leaves}, "
        f"seed={args.seed}, width={comparison.width}"
    )
    print(format_table(comparison.rows()))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows = []
    w = 2
    while w <= args.max_width:
        cset = crossing_chain(w)
        csa = PADRScheduler().schedule(cset)
        roy = RoyIDScheduler().schedule(cset, policy=PowerPolicy.rebuild())
        rows.append(
            {
                "width": w,
                "csa_rounds": csa.n_rounds,
                "csa_max_changes": csa.power.max_switch_changes,
                "csa_max_units": csa.power.max_switch_units,
                "roy_rounds": roy.n_rounds,
                "roy_max_units": roy.power.max_switch_units,
            }
        )
        w *= 2
    print("Theorem 5 + Theorem 8 sweep (crossing chains):")
    print(format_table(rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.jsonl is not None:
        return _cmd_trace_jsonl(args)

    from repro.cst.events import EventLog
    from repro.cst.network import CSTNetwork

    cset = crossing_chain(args.width)
    n = cset.min_leaves()
    log = EventLog()
    network = CSTNetwork.of_size(n, event_log=log)
    schedule = PADRScheduler().schedule(cset, network=network)
    print(
        f"traced CSA run: width {args.width}, {schedule.n_rounds} rounds, "
        f"{len(log)} events"
    )
    print(log.render(changed_only=args.changed_only))
    print()
    print("summary:", log.summary())
    return 0


def _observed_workload(args: argparse.Namespace):
    """The workload an observability subcommand runs: random or chain."""
    if getattr(args, "pairs", None):
        rng = np.random.default_rng(args.seed)
        return random_well_nested(args.pairs, args.leaves, rng)
    return crossing_chain(args.width)


def _cmd_trace_jsonl(args: argparse.Namespace) -> int:
    """Structured JSON-lines trace: the CSA live-instrumented, plus the
    Roy baseline under its per-round-rebuild discipline — one file holding
    the Theorem-8 O(1)-vs-Θ(w) evidence (see docs/observability.md)."""
    from repro.obs import Instrumentation, MetricsRegistry, TraceExporter
    from repro.obs.trace import export_schedule

    cset = _observed_workload(args)
    registry = MetricsRegistry()
    trace = TraceExporter()

    obs = Instrumentation(registry, trace, run="csa")
    PADRScheduler(obs=obs).schedule(cset)

    roy = RoyIDScheduler().schedule(cset, policy=PowerPolicy.rebuild())
    export_schedule(trace, roy, run="roy-rebuild")
    from repro.obs import observe_schedule

    observe_schedule(registry, roy, run="roy-rebuild")

    if args.jsonl == "-":
        n_events = trace.to_jsonl(sys.stdout)
        report = sys.stderr
    else:
        n_events = trace.to_jsonl(args.jsonl)
        report = sys.stdout
    for run, entry in trace.summary().items():
        print(
            f"{run}: rounds={entry.get('rounds')} "
            f"total_power_units={entry.get('total_power_units')} "
            f"max_switch_changes={entry.get('max_switch_changes')}",
            file=report,
        )
    print(f"wrote {n_events} events to {args.jsonl}", file=report)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run a workload with the metrics registry attached and dump the
    snapshot (counters / gauges / histograms / spans)."""
    import json

    from repro.obs import Instrumentation, MetricsRegistry

    cset = _observed_workload(args)
    obs = Instrumentation(MetricsRegistry(), run="csa")
    schedule = PADRScheduler(obs=obs).schedule(cset)
    snapshot = obs.metrics.snapshot()

    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(
        f"metrics for one CSA run: {len(cset)} comms, "
        f"{schedule.n_leaves} leaves, {schedule.n_rounds} rounds"
    )
    for section in ("counters", "gauges"):
        if snapshot[section]:
            print(f"\n{section}:")
            for key, value in snapshot[section].items():
                print(f"  {key:<45s} {value}")
    if snapshot["histograms"]:
        print("\nhistograms:")
        for key, h in snapshot["histograms"].items():
            print(
                f"  {key:<45s} count={h['count']} sum={h['sum']:g} "
                f"min={h['min']:g} max={h['max']:g}"
            )
    if snapshot["spans"]:
        print("\nspans (wall-clock, nondeterministic):")
        for key, s in snapshot["spans"].items():
            print(f"  {key:<45s} count={s['count']} total={s['total_s'] * 1e3:.2f} ms")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded fault-injection campaign against the resilient scheduler."""
    from repro.obs import Instrumentation, MetricsRegistry
    from repro.recovery import run_campaign

    obs = Instrumentation(MetricsRegistry(), run="chaos")
    result = run_campaign(
        n_leaves=args.leaves,
        widths=tuple(args.widths),
        models=tuple(args.models),
        trials=args.trials,
        seed=args.seed,
        obs=obs,
    )
    print(
        f"chaos campaign: {args.leaves} leaves, seed={args.seed}, "
        f"{len(result.trials)} faulted trials"
    )
    print(format_table(result.rows()))
    controls = ", ".join(
        f"w={w}:{'ok' if ok else 'MISMATCH'}"
        for w, ok in sorted(result.control_parity.items())
    )
    print(f"healthy-control parity: {controls}")
    print(f"delivered/undelivered partitions sound: {result.all_partitions_ok}")
    if args.json:
        import json

        print(json.dumps(obs.metrics.snapshot(), indent=2, sort_keys=True))
    if not (result.all_partitions_ok and result.all_controls_ok):
        return 1
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    """Schedule one communication set end-to-end under the selected
    decompose mode.  Arbitrary (crossing / mixed-orientation) sets are
    admitted under ``--decompose auto`` and lowered through well-nested
    decomposition; the report accounts rounds and power against the
    single-batch w-round optimum.  Exit 2 means the input was rejected
    (the ``strict``/``never`` door), exit 1 an incomplete delivery."""
    from repro.comms.generators import random_arbitrary
    from repro.core.config import SchedulerConfig
    from repro.core.plan import GeneralSchedule
    from repro.exceptions import ReproError
    from repro.io import load_workloads

    n_leaves: int | None = args.leaves
    if args.workload is not None:
        suite = load_workloads(args.workload)
        name = args.name if args.name is not None else sorted(suite)[0] if suite else None
        if name is None or name not in suite:
            print(
                f"workload {name!r} not in {args.workload} "
                f"(available: {', '.join(sorted(suite)) or 'none'})"
            )
            return 2
        cset = suite[name]
        n_leaves = None  # size from the set itself
        label = f"workload {name!r} from {args.workload}"
    else:
        rng = np.random.default_rng(args.seed)
        if args.arbitrary:
            cset = random_arbitrary(args.pairs, args.leaves, rng)
            label = "random arbitrary set"
        else:
            cset = random_well_nested(args.pairs, args.leaves, rng)
            label = "random well-nested set"
        label += f" (pairs={args.pairs}, leaves={args.leaves}, seed={args.seed})"

    config = SchedulerConfig(decompose=args.decompose, recfg_alpha=args.alpha)
    try:
        result = config.build().schedule(cset, n_leaves=n_leaves)
    except ReproError as exc:
        print(f"rejected under decompose={args.decompose!r}: {exc}")
        return 2

    stats = result.stats()
    print(f"{label}: {len(cset)} pairs, decompose={args.decompose}")
    if isinstance(result, GeneralSchedule):
        print(
            f"  batches: {result.n_batches} "
            f"(crossing-clique lower bound {result.lower_bound}), "
            f"orientations {'/'.join(result.batch_orientations)}"
        )
        print(
            f"  rounds: {result.rounds_used} vs single-batch optimum "
            f"{result.optimum_rounds} (overhead x{result.overhead_ratio:.2f}, "
            f"{result.merged_rounds} merged by packing at "
            f"alpha={result.alpha:g})"
        )
        print(
            f"  power: {result.power_units} units "
            f"({result.reconfig_changes} crossbar changes)"
        )
    else:
        print(
            f"  rounds={stats.n_rounds} (width optimum {stats.width}), "
            f"power={stats.total_power_units} units, "
            f"max per-switch changes={stats.max_switch_config_changes}"
        )
    complete = set(result.delivered) == set(cset.comms) and not result.undelivered
    print(f"  delivered: {len(result.delivered)}/{len(cset)} "
          f"({'complete' if complete else 'INCOMPLETE'})")
    return 0 if complete else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    """Schedule a batch of mixed workloads through the service layer,
    twice — the resubmission shows the canonical cache doing its job —
    with parity against the direct scheduler asserted throughout."""
    from repro.core.config import SchedulerConfig
    from repro.obs import Instrumentation, MetricsRegistry
    from repro.service import SchedulerService, arbitrary_workloads, mixed_workloads

    obs = Instrumentation(MetricsRegistry(), run="service")
    batch = mixed_workloads(args.leaves, args.count, seed=args.seed)
    if args.decompose == "auto":
        # the auto door's demo: a quarter of the batch is arbitrary sets
        batch += arbitrary_workloads(
            args.leaves, max(1, args.count // 4), seed=args.seed
        )
    with SchedulerService(
        config=SchedulerConfig(decompose=args.decompose),
        workers=args.workers,
        cache_size=args.cache_size,
        parity_check=not args.no_parity,
        obs=obs,
    ) as service:
        first = service(batch, n_leaves=args.leaves)
        second = service(batch, n_leaves=args.leaves)
    print(
        f"service batch: {len(batch)} workloads on {args.leaves} leaves, "
        f"workers={args.workers}, decompose={args.decompose}, "
        f"parity={'off' if args.no_parity else 'on'}"
    )
    print(f"  first submission:  {first.summary()}")
    print(f"  resubmission:      {second.summary()}")
    print(
        f"  cache: {service.cache.hits} hits / {service.cache.misses} misses "
        f"({service.cache.hit_rate:.0%}), {service.cache.evictions} evictions, "
        f"resubmission hit-rate {second.hit_rate:.0%}"
    )
    if args.json:
        import json

        print(json.dumps(obs.metrics.snapshot(), indent=2, sort_keys=True))
    ok = (
        first.n_done == len(batch)
        and second.n_done == len(batch)
        and second.hit_rate >= 0.5
    )
    return 0 if ok else 1


def _synthetic_arrivals(args: argparse.Namespace):
    """The serve demo's arrival stream: mixed workloads cycled through
    LOW/NORMAL/HIGH priorities across two tenants.  With ``--burst`` the
    whole stream is front-loaded into the first few ticks (the overload
    drill); otherwise arrivals pace out one per tick."""
    from repro.service import (
        Priority,
        StreamRequest,
        arbitrary_workloads,
        mixed_workloads,
    )

    csets = mixed_workloads(args.leaves, min(args.count, 15), seed=args.seed)
    if getattr(args, "decompose", "strict") == "auto":
        csets += arbitrary_workloads(args.leaves, 5, seed=args.seed)
    priorities = [Priority.LOW, Priority.NORMAL, Priority.HIGH]
    arrivals = []
    for i in range(args.count):
        release = (i // (args.count // 4 + 1)) if args.burst else i
        arrivals.append(
            StreamRequest(
                cset=csets[i % len(csets)],
                n_leaves=args.leaves,
                release_time=release,
                deadline=args.deadline,
                priority=priorities[i % 3],
                tenant=f"tenant-{i % 2}",
            )
        )
    return arrivals


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the streaming scheduler service over a continuous arrival
    stream (synthetic, or replayed from a JSON file of stream-request
    records) on an asyncio event loop, and report the admission story:
    state trajectory, shed/defer accounting, p50/p99 latency."""
    import asyncio
    import json

    from repro.core.config import SchedulerConfig
    from repro.io import stream_request_from_dict
    from repro.obs import Instrumentation, MetricsRegistry
    from repro.service import StreamStatus, StreamingSchedulerService, TenantQuota

    if args.arrivals is not None:
        with open(args.arrivals) as fh:
            arrivals = [stream_request_from_dict(d) for d in json.load(fh)]
    else:
        arrivals = _synthetic_arrivals(args)

    obs = Instrumentation(MetricsRegistry(), run="stream")
    service = StreamingSchedulerService(
        config=SchedulerConfig(decompose=args.decompose),
        max_queue=args.max_queue,
        max_inflight=args.max_inflight,
        batch_window=args.batch_window,
        default_quota=TenantQuota(rate=args.quota_rate, burst=args.quota_burst),
        parity_check=not args.no_parity,
        obs=obs,
    )
    report = asyncio.run(service.aserve(arrivals))

    print(
        f"streaming service: {len(arrivals)} arrivals on {args.leaves} leaves, "
        f"inflight={args.max_inflight}, queue={args.max_queue}, "
        f"parity={'off' if args.no_parity else 'on'}"
    )
    print(f"  {report.summary()}")
    trajectory = " -> ".join(
        f"{state}@t{tick}" for tick, state in report.trajectory
    ) or "GREEN throughout"
    print(f"  admission trajectory: {trajectory}")
    for status in (StreamStatus.SHED, StreamStatus.EXPIRED, StreamStatus.REJECTED):
        per_prio = report.by_priority(status)
        if per_prio:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(per_prio.items()))
            print(f"  {status.value} by priority: {detail}")
    if args.json:
        print(json.dumps(obs.metrics.snapshot(), indent=2, sort_keys=True))
    shed_above_low = {
        k: v for k, v in report.by_priority(StreamStatus.SHED).items() if k != "LOW"
    }
    return 0 if not shed_above_low else 1


def _cmd_canary(args: argparse.Namespace) -> int:
    """Record (or load) an arrival trace, replay it under the baseline and
    a candidate engine with the SLO burn-rate engine attached, and print
    the promotion decision.  Exit 0 promotes, 1 refuses."""
    from repro.core.config import SchedulerConfig
    from repro.io import load_arrivals, save_arrivals
    from repro.slo import DrillSpec, default_slos, promotion_gate, record_workload, replay

    if args.trace and os.path.exists(args.trace) and not args.record:
        arrivals = load_arrivals(args.trace)
        print(f"replaying {len(arrivals)} recorded arrival(s) from {args.trace}")
    else:
        arrivals = record_workload(
            n_leaves=args.leaves,
            count=args.count,
            seed=args.seed,
            deadline=args.deadline,
        )
        if args.trace:
            save_arrivals(args.trace, arrivals)
            print(f"recorded {len(arrivals)} arrival(s) to {args.trace}")

    specs = default_slos(
        latency_budget=args.latency_budget, detection_sla=args.detection_sla
    )
    drills = (
        ()
        if args.no_drill
        else (
            DrillSpec(
                tick=args.drill_tick,
                model=args.drill_model,
                detection_sla=args.detection_sla,
                seed=args.seed,
            ),
        )
    )
    baseline = replay(
        arrivals,
        label="baseline",
        config=SchedulerConfig(),
        specs=specs,
        max_inflight=args.max_inflight,
    )
    candidate = replay(
        arrivals,
        label=f"candidate-{args.engine}",
        config=SchedulerConfig(engine=args.engine),
        specs=specs,
        drills=drills,
        max_inflight=args.max_inflight,
    )
    decision = promotion_gate(baseline, candidate)

    print(f"baseline:  {baseline.report.summary()}")
    print(f"candidate: {candidate.report.summary()}")
    for alert in candidate.alerts:
        print(f"  ALERT [{alert.severity.upper()}] tick {alert.tick}: {alert.message}")
    for record in candidate.drills:
        print(
            f"  drill t{record.spec.tick} ({record.spec.model}): "
            f"detected={record.detected} in {record.detection_ticks} tick(s), "
            f"rerouted in {record.reroute_ticks} tick(s)"
        )
    print(decision.summary())
    return 0 if decision.promote else 1


def _cmd_fabric(args: argparse.Namespace) -> int:
    """``fabric plan``: profile an arrival trace and print the sized
    design.  ``fabric serve``: run the streaming service sharded across
    a live fabric and report per-shard load and the admission story."""
    import asyncio
    import json

    from repro.fabric import CapacityPlanner, FabricController, WorkloadProfile
    from repro.io import fabric_plan_to_dict, load_arrivals
    from repro.obs import Instrumentation, MetricsRegistry
    from repro.service import StreamingSchedulerService

    if args.fabric_command == "plan":
        if args.trace:
            profile = WorkloadProfile.from_trace(args.trace)
            print(f"profiled {profile.n_requests} arrival(s) from {args.trace}")
        else:
            from repro.slo import record_workload

            profile = WorkloadProfile.from_arrivals(
                record_workload(
                    n_leaves=args.leaves, count=args.count, seed=args.seed
                )
            )
            print(f"profiled {profile.n_requests} synthetic arrival(s)")
        print(
            f"  peak {profile.peak_arrivals}/tick, widest request "
            f"{profile.max_leaves} leaves, {len(profile.tenants)} tenant(s)"
        )
        planner = CapacityPlanner(
            shard_capacity=args.shard_capacity, max_trees=args.max_trees
        )
        plan = planner.plan(profile)
        print(f"  {plan.summary()}")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(fabric_plan_to_dict(plan), fh, indent=2, sort_keys=True)
            print(f"  plan written to {args.out}")
        return 0

    # fabric serve
    arrivals = (
        load_arrivals(args.arrivals)
        if args.arrivals
        else _synthetic_arrivals(args)
    )
    from repro.core.config import SchedulerConfig

    fabric_config = SchedulerConfig(decompose=args.decompose)
    obs = Instrumentation(MetricsRegistry(), run="fabric")
    with FabricController(
        args.trees,
        args.leaves,
        config=fabric_config,
        parallel=not args.inline,
        obs=obs,
    ) as fabric:
        service = StreamingSchedulerService(
            config=fabric_config,
            max_queue=args.max_queue,
            max_inflight=args.max_inflight,
            parity_check=not args.no_parity,
            fabric=fabric,
            obs=obs,
        )
        report = asyncio.run(service.aserve(arrivals))
        stats = fabric.stats()

    print(
        f"fabric service: {len(arrivals)} arrivals over "
        f"{args.trees} tree(s) x {args.leaves} leaves, "
        f"parity={'off' if args.no_parity else 'on'}"
    )
    print(f"  {report.summary()}")
    print(
        f"  shard load: {stats['shard_load']} "
        f"({stats['rebalances']} rebalance(s))"
    )
    if args.json:
        print(json.dumps(obs.metrics.snapshot(), indent=2, sort_keys=True))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import REGISTRY, run_experiment

    if args.list or args.id is None:
        print("available experiments:")
        for eid in sorted(REGISTRY):
            print(f"  {eid:15s} {REGISTRY[eid].title}")
        return 0
    try:
        rows = run_experiment(args.id)
    except KeyError as exc:
        print(exc.args[0])
        return 2
    print(f"{args.id}: {REGISTRY[args.id].title}")
    print(format_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cst-padr",
        description="Power-aware routing on the Circuit Switched Tree (IPPS 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="schedule the paper's Figure 2 set, verbosely")

    p = sub.add_parser("compare", help="scheduler comparison on a width-stress chain")
    p.add_argument("--width", type=int, default=16)

    p = sub.add_parser("random", help="scheduler comparison on a random well-nested set")
    p.add_argument("--pairs", type=int, default=32)
    p.add_argument("--leaves", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep", help="Theorem 5/8 width sweep")
    p.add_argument("--max-width", type=int, default=64)

    p = sub.add_parser("experiment", help="run a registered experiment by id")
    p.add_argument("id", nargs="?", default=None)
    p.add_argument("--list", action="store_true", help="list experiment ids")

    p = sub.add_parser("trace", help="dump a structured event trace of a CSA run")
    p.add_argument("--width", type=int, default=3)
    p.add_argument(
        "--changed-only", action="store_true", help="hide no-op switch commits"
    )
    p.add_argument(
        "--jsonl",
        metavar="PATH",
        default=None,
        help="write a JSON-lines trace (CSA + Roy baseline) to PATH, or - for stdout",
    )
    _add_workload_options(p)

    p = sub.add_parser(
        "metrics", help="run a workload and dump the metrics-registry snapshot"
    )
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--json", action="store_true", help="emit the snapshot as JSON")
    _add_workload_options(p)

    p = sub.add_parser(
        "chaos", help="seeded fault-injection campaign (detection/delivery table)"
    )
    p.add_argument("--leaves", type=int, default=64)
    p.add_argument(
        "--widths", type=int, nargs="+", default=[2, 4, 8], metavar="W"
    )
    p.add_argument(
        "--models",
        nargs="+",
        default=["dead", "stuck", "misroute"],
        choices=["dead", "stuck", "misroute"],
        metavar="MODEL",
    )
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--json", action="store_true", help="also dump the recovery metrics snapshot"
    )

    p = sub.add_parser(
        "schedule",
        help="schedule one set end-to-end (arbitrary sets with --decompose auto)",
    )
    p.add_argument("--pairs", type=int, default=24)
    p.add_argument("--leaves", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--arbitrary",
        action="store_true",
        help="draw a uniformly random pairing (crossings and both orientations)",
    )
    p.add_argument(
        "--alpha",
        type=float,
        default=0.0,
        help="reconfiguration weight when packing decomposed batches "
        "(0 minimises rounds)",
    )
    p.add_argument(
        "--workload",
        metavar="PATH",
        default=None,
        help="schedule a set from a saved workload suite instead of generating one",
    )
    p.add_argument(
        "--name", default=None, help="workload name inside --workload (default: first)"
    )
    _add_decompose_option(p)

    p = sub.add_parser(
        "batch", help="batch-schedule mixed workloads through the service layer"
    )
    _add_decompose_option(p)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--leaves", type=int, default=256)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-size", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--no-parity",
        action="store_true",
        help="skip the per-request parity check against the direct scheduler",
    )
    p.add_argument(
        "--json", action="store_true", help="also dump the service metrics snapshot"
    )

    p = sub.add_parser(
        "canary",
        help="record/replay a workload and gate an engine promotion on SLOs",
    )
    p.add_argument("--engine", default="fast", choices=["auto", "fast", "reference"])
    p.add_argument("--count", type=int, default=120)
    p.add_argument("--leaves", type=int, default=256)
    p.add_argument("--deadline", type=int, default=96)
    p.add_argument("--max-inflight", type=int, default=8)
    p.add_argument("--latency-budget", type=int, default=48)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="arrival-trace file: replayed if it exists, else recorded there",
    )
    p.add_argument(
        "--record",
        action="store_true",
        help="re-record the trace even if --trace exists",
    )
    p.add_argument("--drill-tick", type=int, default=4)
    p.add_argument(
        "--drill-model", default="dead", choices=["dead", "stuck", "misroute"]
    )
    p.add_argument("--detection-sla", type=int, default=4)
    p.add_argument(
        "--no-drill", action="store_true", help="skip the in-service chaos drill"
    )

    p = sub.add_parser(
        "serve", help="run the streaming service over a continuous arrival stream"
    )
    _add_decompose_option(p)
    p.add_argument("--count", type=int, default=96)
    p.add_argument("--leaves", type=int, default=64)
    p.add_argument("--deadline", type=int, default=64)
    p.add_argument("--max-queue", type=int, default=256)
    p.add_argument("--max-inflight", type=int, default=8)
    p.add_argument("--batch-window", type=int, default=0)
    p.add_argument("--quota-rate", type=float, default=16.0)
    p.add_argument("--quota-burst", type=float, default=64.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--burst",
        action="store_true",
        help="front-load all arrivals into a few ticks (overload drill)",
    )
    p.add_argument(
        "--arrivals",
        metavar="PATH",
        default=None,
        help="replay a JSON array of stream-request records instead of synthetic load",
    )
    p.add_argument(
        "--no-parity",
        action="store_true",
        help="skip the per-request parity check against the direct scheduler",
    )
    p.add_argument(
        "--json", action="store_true", help="also dump the streaming metrics snapshot"
    )

    p = sub.add_parser(
        "fabric",
        help="size a multi-tree fabric from a trace, or serve sharded across one",
    )
    fab_sub = p.add_subparsers(dest="fabric_command", required=True)
    fp = fab_sub.add_parser(
        "plan", help="pick (tree_count, leaf_width) from a recorded arrival trace"
    )
    fp.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="arrival-trace file (cst-padr canary --trace records one); "
        "omitted, a synthetic trace is profiled",
    )
    fp.add_argument("--count", type=int, default=96)
    fp.add_argument("--leaves", type=int, default=64)
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument("--shard-capacity", type=int, default=16)
    fp.add_argument("--max-trees", type=int, default=64)
    fp.add_argument(
        "--out", metavar="PATH", default=None, help="write the plan as JSON"
    )
    fs = fab_sub.add_parser(
        "serve", help="run the streaming service sharded across a fabric"
    )
    _add_decompose_option(fs)
    fs.add_argument("--trees", type=int, default=4)
    fs.add_argument("--count", type=int, default=96)
    fs.add_argument("--leaves", type=int, default=64)
    fs.add_argument("--deadline", type=int, default=64)
    fs.add_argument("--max-queue", type=int, default=256)
    fs.add_argument("--max-inflight", type=int, default=8)
    fs.add_argument("--seed", type=int, default=0)
    fs.add_argument(
        "--burst",
        action="store_true",
        help="front-load all arrivals into a few ticks (overload drill)",
    )
    fs.add_argument(
        "--arrivals",
        metavar="PATH",
        default=None,
        help="replay a saved arrival trace instead of synthetic load",
    )
    fs.add_argument(
        "--inline",
        action="store_true",
        help="run every shard in-process (no worker processes)",
    )
    fs.add_argument(
        "--no-parity",
        action="store_true",
        help="skip the per-request parity check against the direct scheduler",
    )
    fs.add_argument(
        "--json", action="store_true", help="also dump the fabric metrics snapshot"
    )

    return parser


def _add_decompose_option(p: argparse.ArgumentParser) -> None:
    """The shared decompose-mode switch: strict keeps the historical
    well-nested-only door, auto admits arbitrary sets via well-nested
    decomposition, never pre-rejects them explicitly."""
    p.add_argument(
        "--decompose",
        choices=("strict", "auto", "never"),
        default="strict",
        help="how non-well-nested sets are handled (default: strict)",
    )


def _add_workload_options(p: argparse.ArgumentParser) -> None:
    """Random-workload selection shared by the observability subcommands;
    with ``--pairs`` the run uses a random well-nested set instead of the
    crossing chain selected by ``--width``."""
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--leaves", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "compare": _cmd_compare,
        "random": _cmd_random,
        "sweep": _cmd_sweep,
        "experiment": _cmd_experiment,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "chaos": _cmd_chaos,
        "schedule": _cmd_schedule,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "canary": _cmd_canary,
        "fabric": _cmd_fabric,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
