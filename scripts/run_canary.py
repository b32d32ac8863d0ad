#!/usr/bin/env python3
"""The canary promotion gate: record, replay, alert, decide.

Records a production-like streaming workload (arrival trace + tenant mix,
persisted through ``repro.io`` so the exact bytes are replayable), then
replays it three times through the streaming service with the SLO
burn-rate engine attached:

* **baseline**  — the current default ``SchedulerConfig``;
* **candidate** — a different engine configuration, with an in-service
  chaos drill armed mid-burst (a candidate must detect faults *while
  serving*, within its detection SLA);
* **regression** — the candidate deliberately throttled to one
  execution slot, simulating a slow build: the latency/availability
  SLOs must burn and the gate must refuse it.

The gate passes only if the candidate replay is bit-identically equal to
the baseline per request, raised zero SLO burn alerts, met the chaos
drill's detection/reroute SLAs and stayed within the p50/p99 regression
bounds — while the throttled replay is *refused* with at least one
detected burn alert (an alert pipeline that cannot see a real regression
is worse than none).  The full run records its results under the
``"slo"`` key of ``results/BENCH_scaling.json`` (other keys untouched);
``--smoke`` writes nothing.

The baseline runs the default engine (``"auto"``, the columnar kernel);
the candidate is ``"fast"``, the per-switch walk.  ``"reference"`` is no
candidate: the naive oracle walks every link, so its payloads report
more ``physical_messages`` and can never pass the byte-parity check.

Usage::

    PYTHONPATH=src python scripts/run_canary.py            # full
    PYTHONPATH=src python scripts/run_canary.py --smoke    # CI gate
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

import bench_results
from repro.core.config import SchedulerConfig
from repro.io import load_arrivals, save_arrivals
from repro.slo import (
    DrillSpec,
    default_slos,
    promotion_gate,
    record_workload,
    replay,
)

CANARY_LEAVES = 256
CANARY_ARRIVALS = 120
CANARY_DEADLINE = 96
LATENCY_BUDGET = 48  # ticks: the latency SLO's per-request bound
DETECTION_SLA = 4
REROUTE_SLA = 8
DRILL_TICK = 4
MAX_QUEUE = 200
MAX_INFLIGHT = 8
CANDIDATES = ("fast",)  # the engines gated against the "auto" baseline


def run_canary(args: argparse.Namespace) -> int:
    count = CANARY_ARRIVALS if args.smoke else args.count
    t0 = time.perf_counter()

    # 1. record the workload and round-trip it through the trace format —
    #    what replays is what the file holds, not what memory held.
    recorded = record_workload(
        n_leaves=CANARY_LEAVES, count=count, seed=7, deadline=CANARY_DEADLINE
    )
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "canary_trace.json"
        save_arrivals(trace_path, recorded)
        arrivals = load_arrivals(trace_path)
    specs = default_slos(
        latency_budget=LATENCY_BUDGET, detection_sla=DETECTION_SLA
    )

    def run_one(label, config, *, inflight=MAX_INFLIGHT, drills=()):
        return replay(
            arrivals,
            label=label,
            config=config,
            specs=specs,
            drills=drills,
            max_queue=MAX_QUEUE,
            max_inflight=inflight,
            parity_check=True,
        )

    failures: list[str] = []

    # 2. the baseline replay (today's config) must itself be burn-free —
    #    a gate whose reference is on fire gates nothing.
    baseline = run_one("baseline", SchedulerConfig())
    print(f"baseline:   {baseline.report.summary()}")
    if baseline.alerts:
        failures.append(
            f"baseline replay raised {len(baseline.alerts)} SLO alert(s): "
            f"{baseline.alerts[0].message}"
        )

    # 3. healthy candidates: different engine, chaos drill armed mid-burst.
    gates = {}
    candidate_runs = {}
    for engine in CANDIDATES:
        candidate = run_one(
            f"candidate-{engine}",
            SchedulerConfig(engine=engine),
            drills=(
                DrillSpec(
                    tick=DRILL_TICK,
                    model="dead",
                    detection_sla=DETECTION_SLA,
                    reroute_sla=REROUTE_SLA,
                    seed=7,
                ),
            ),
        )
        candidate_runs[engine] = candidate
        decision = promotion_gate(baseline, candidate)
        gates[engine] = decision
        print(f"candidate:  {candidate.report.summary()}")
        for record in candidate.drills:
            print(
                f"  drill t{record.spec.tick} ({record.spec.model}): "
                f"victim {record.victim_id}, switch {record.fault_switch}, "
                f"detected={record.detected} in {record.detection_ticks} "
                f"tick(s) (SLA {record.spec.detection_sla}), rerouted in "
                f"{record.reroute_ticks} tick(s) (SLA {record.spec.reroute_sla})"
            )
        print(f"  {decision.summary()}")
        if not decision.promote:
            failures.append(f"healthy candidate refused: {decision.summary()}")
        if candidate.alerts:
            failures.append(
                f"candidate-{engine} raised {len(candidate.alerts)} alert(s)"
            )
        if not candidate.drills:
            failures.append(f"candidate-{engine}: chaos drill never ran")
        for record in candidate.drills:
            if not record.met_detection_sla:
                failures.append(
                    f"candidate-{engine}: drill missed detection SLA "
                    f"({record.detection_ticks} > {record.spec.detection_sla})"
                )
            if not record.met_reroute_sla:
                failures.append(
                    f"candidate-{engine}: drill missed reroute SLA "
                    f"({record.reroute_ticks} > {record.spec.reroute_sla})"
                )

    # 4. the injected regression: same candidate engine, execution budget
    #    throttled to one slot — queueing delay blows the latency SLO and
    #    the deadline tail the availability SLO.  The gate must refuse it
    #    on a *detected* burn alert.
    regression = run_one(
        "regression-throttled", SchedulerConfig(engine="fast"), inflight=1
    )
    reg_decision = promotion_gate(baseline, regression)
    print(f"regression: {regression.report.summary()}")
    if regression.alerts:
        first = regression.alerts[0]
        print(
            f"  first burn alert: tick {first.tick} {first.slo}/{first.window} "
            f"({first.severity.upper()}) — {first.message}"
        )
    print(f"  {reg_decision.summary()}")
    if not regression.alerts:
        failures.append(
            "throttled regression raised no burn alert — the alert engine "
            "cannot see a real regression"
        )
    if reg_decision.promote:
        failures.append("gate PROMOTED the throttled regression")

    elapsed = time.perf_counter() - t0

    # 5. archive the evidence (p50/p99 trajectories, alerts, drills, gates).
    slo = {
        "n": CANARY_LEAVES,
        "arrivals": count,
        "deadline_ticks": CANARY_DEADLINE,
        "latency_budget_ticks": LATENCY_BUDGET,
        "max_inflight": MAX_INFLIGHT,
        "max_queue": MAX_QUEUE,
        "cpu_count": os.cpu_count(),
        "wall_s": round(elapsed, 3),
        "baseline": baseline.to_dict(),
        "candidates": {
            engine: run.to_dict() for engine, run in candidate_runs.items()
        },
        "regression": regression.to_dict(),
        "gates": {engine: g.to_dict() for engine, g in gates.items()},
        "regression_gate": reg_decision.to_dict(),
    }
    if args.smoke:
        print(f"smoke run ({elapsed:.2f}s wall); results file untouched")
    else:
        bench_results.record({"slo": slo})
        print(f"wrote slo trajectory to {bench_results.RESULTS} ({elapsed:.2f}s wall)")

    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI gate (fewer arrivals, writes nothing)"
    )
    parser.add_argument(
        "--count", type=int, default=240, help="arrivals in full mode"
    )
    return run_canary(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
