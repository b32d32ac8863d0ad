"""Metric definitions and the statistics the end-to-end benchmark reports.

``BENCHMARK.json`` at the repository root mirrors :data:`END_TO_END` and
:data:`PER_LAYER` (``test_e2e.py`` keeps the two in step).  Everything
else the benchmark prints — ``error_rate`` and the layer metrics that are
zero on the workloads that bypass their layer — is listed in
:data:`REPORT_ONLY` and :data:`TRACE_REPORT` and documented in
``README.md``.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # share of the parent's median; None = no bound


#: Latency objective for ``slo_attain``.
SLO_MS = 250.0

#: The bound of the schedule-quality metrics.  They are computed on a fixed
#: quality panel (see ``workloads.py``), so every run of one commit gives
#: the same value to the last digit whatever its seed, and a change of one
#: round, power unit or configuration change moves them by far more than
#: this: the bound is exact.  It is not zero so that a spread of exactly
#: zero lies strictly inside it.
EXACT = 1e-9

#: Timing bounds are 10%, except where the measured ten-seed spread
#: (IQR/median) comes near 10%: p99 gets 0.25, as does set-up time, which
#: must have the largest bound.  ``slo_attain`` spreads 1-3% on
#: ``stream_open`` and gets 0.05.  ``README.md`` gives the spreads.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_rps", "1/s", "higher", 0.10),
    Metric("latency_p50_ms", "ms", "lower", 0.10),
    Metric("latency_p99_ms", "ms", "lower", 0.25),
    Metric("slo_attain", "share", "higher", 0.05),
    Metric("rounds_per_width", "ratio", "lower", EXACT),
    Metric("power_units_per_comm", "units", "lower", EXACT),
    Metric("max_switch_changes", "count", "lower", EXACT),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)
EXACT_METRICS = tuple(m.name for m in END_TO_END if m.bound == EXACT)

#: Printed with the end-to-end metrics but not in ``BENCHMARK.json``:
#: ``error_rate`` is zero on every closed loop, and a relative bound on a
#: zero median means nothing; the result line's ``attempted``/``failed``
#: carry it.
REPORT_ONLY: tuple[Metric, ...] = (
    Metric("error_rate", "share", "lower"),
)

#: Layer metrics in ``BENCHMARK.json``: each is measured on every workload,
#: and each time among them is non-zero on every workload.
PER_LAYER: tuple[Metric, ...] = (
    Metric("comms.validate.self_ms", "ms/req", "lower"),
    Metric("comms.decompose.batches_per_request", "count", "lower"),
    Metric("comms.decompose.batch_gap", "ratio", "lower"),
    Metric("service.cache.hit_rate", "share", "higher"),
    Metric("service.dedup.follower_share", "share", "higher"),
    Metric("service.shape_batch.share", "share", "higher"),
    Metric("service.stream.queue_wait_p99_ticks", "ticks", "lower"),
    Metric("service.admission.red_ticks", "count", "lower"),
    Metric("service.shed", "count", "lower"),
    Metric("io.ipc_bytes_per_request", "B", "lower"),
    Metric("ipc.overhead_share", "share", "lower"),
    Metric("core.schedule.self_ms", "ms/req", "lower"),
    Metric("core.phase1.self_ms", "ms/req", "lower"),
    Metric("core.phase2.self_ms", "ms/req", "lower"),
    Metric("core.columnar.share", "share", "higher"),
    Metric("core.rounds_per_request", "count", "lower"),
    Metric("core.frontier_ratio", "ratio", "lower"),
    Metric("core.wave.ns_per_message", "ns", "lower"),
    Metric("core.wave.fixed_us", "us", "lower"),
    Metric("core.wave.fit_r2", "ratio", "higher"),
    Metric("core.plan.merged_rounds_share", "share", "higher"),
    Metric("cst.network_build.self_ms", "ms/req", "lower"),
    Metric("fabric.shard_imbalance", "ratio", "lower"),
    Metric("host.cpu_util", "share", "higher"),
    Metric("layer.comms.share", "share", "lower"),
    Metric("layer.service.share", "share", "lower"),
    Metric("layer.io.share", "share", "lower"),
    Metric("layer.core.share", "share", "lower"),
    Metric("layer.cst.share", "share", "lower"),
    Metric("layer.fabric.share", "share", "lower"),
)

#: Layer metrics printed by ``--trace`` beside :data:`PER_LAYER`.  They are
#: self times of layers some workloads bypass entirely (a constant zero
#: there), so ``BENCHMARK.json`` carries their layer's share instead.
TRACE_REPORT: tuple[Metric, ...] = (
    Metric("comms.decompose.self_ms", "ms/req", "lower"),
    Metric("service.signature.self_ms", "ms/req", "lower"),
    Metric("service.cache.self_ms", "ms/req", "lower"),
    Metric("service.drain.self_ms", "ms/req", "lower"),
    Metric("service.execute_wait.self_ms", "ms/req", "lower"),
    Metric("service.stream.step.self_ms", "ms/req", "lower"),
    Metric("io.encode.self_ms", "ms/req", "lower"),
    Metric("io.decode.self_ms", "ms/req", "lower"),
    Metric("io.pickle.self_ms", "ms/req", "lower"),
    Metric("ipc.overhead_ms_per_request", "ms", "lower"),
    Metric("core.batch_kernel.self_ms", "ms/req", "lower"),
    Metric("core.plan.self_ms", "ms/req", "lower"),
    Metric("cst.write_back.self_ms", "ms/req", "lower"),
    Metric("fabric.execute.self_ms", "ms/req", "lower"),
    Metric("loadgen.lag_p99_ms", "ms", "lower"),
    Metric("tracing.overhead_p50_ms", "ms", "lower"),
    Metric("tracing.overhead_share", "share", "lower"),
)

UNITS = {m.name: m.unit for m in (*END_TO_END, *REPORT_ONLY, *PER_LAYER, *TRACE_REPORT)}
UNITS["host.speed_factor"] = "ratio"

#: CPU time of the probe kernel on the reference host (a 2-vCPU VM,
#: CPython 3.11) in its fast state.
PROBE_REF_S = 0.00425
#: Timed work between two host-speed probes.
PROBE_EVERY_S = 0.05
#: Probes in the open loop's trailing median.
PROBE_WINDOW = 5
#: Set-up time grows as the probe to this power: the least-squares slope of
#: log set-up time on log probe over 36 set-ups of three workloads on the
#: reference host (correlation 0.83-0.89).  Set-up is mostly process start
#: and imports, which slow down less than pure interpreter work.
SETUP_SPEED_EXPONENT = 0.6


def _probe_kernel(n: int = 30_000) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) & 15
    return acc


def host_speed(runs: int = 1) -> float:
    """How much slower this host runs now than the reference host (>1 = slower).

    The probe is a fixed pure-Python kernel that no change to the program
    can speed up.  It is timed in *thread CPU time*, not wall time: a slow
    phase of the host itself lengthens both, but time the probe spends
    waiting for a core or for the GIL — because the program left threads or
    worker processes busy — is not CPU time, so such a cost stays in the
    program's timings instead of being scaled away.  (A busy process on the
    sibling hyperthread of the probe's core does slow the probe.)
    """
    start = time.thread_time()
    for _ in range(runs):
        _probe_kernel()
    return (time.thread_time() - start) / runs / PROBE_REF_S


class HostSpeed:
    """Host-speed probes taken between the timed intervals of one loop.

    On a shared virtual machine the interpreter's speed swings between
    levels up to 2x apart, each held for a few seconds.  One probe is taken
    before the first interval and one after every :data:`PROBE_EVERY_S` of
    timed work; probes run between intervals, never inside one.  A closed
    loop scales each interval after the loop by :meth:`centred`; the open
    loop needs the factor while it runs and uses :meth:`trailing`.
    """

    def __init__(self) -> None:
        #: (intervals timed before the probe, factor)
        self.probes: list[tuple[int, float]] = []
        self._intervals = 0
        self._since_s = 0.0
        self.probe()

    def probe(self) -> None:
        self.probes.append((self._intervals, host_speed()))
        self._since_s = 0.0

    def after(self, work_s: float) -> None:
        """Count one timed interval of ``work_s`` seconds; probe when one is due."""
        self._intervals += 1
        self._since_s += work_s
        if self._since_s >= PROBE_EVERY_S:
            self.probe()

    def trailing(self) -> float:
        """The median of the last :data:`PROBE_WINDOW` probes."""
        return statistics.median(v for _, v in self.probes[-PROBE_WINDOW:])

    def centred(self) -> list[float]:
        """One factor per interval: the median of the two probes before it
        and the two after it (fewer at the ends of the loop).

        Probes on both sides follow a change of level better than a
        trailing window, and the median ignores a single probe's spike.
        """
        if self.probes[-1][0] < self._intervals:
            self.probe()  # the probe after the last interval
        values = [v for _, v in self.probes]
        out: list[float] = []
        before = 0  # index of the last probe taken before interval i
        for i in range(self._intervals):
            while self.probes[before + 1][0] <= i:
                before += 1
            out.append(statistics.median(values[max(0, before - 1) : before + 3]))
        return out


def percentile_supported(n_samples: int, q: float) -> bool:
    """Whether ``n_samples`` support the ``q`` percentile.

    The rule: report a percentile only when at least ten samples lie beyond
    it, i.e. ``n * (1 - q) >= 10``.  The median needs 20 samples, p99 needs
    1000.  Rounded so that float error in ``1 - q`` cannot flip the answer.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile fraction must be in (0, 1), got {q}")
    return round(n_samples * (1.0 - q), 9) >= 10


def tail_percentile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q`` percentile, or ``None`` when the sample is too small.

    Nearest rank (the value at rank ``ceil(q * n)``) always returns an
    observed sample.  See :func:`percentile_supported` for the size rule.
    """
    if not percentile_supported(len(samples), q):
        return None
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(round(q * len(ordered), 9))))
    return float(ordered[rank - 1])


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and the interquartile range as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method), the same definition the acceptance check uses.
    """
    vals = [float(v) for v in values]
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    rel = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else math.inf)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": rel}


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares ``y = intercept + slope * x``; returns ``(slope, intercept, r2)``."""
    n = len(xs)
    if n < 2:
        return 0.0, (ys[0] if ys else 0.0), 0.0
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0:
        return 0.0, my, 0.0
    slope = sxy / sxx
    intercept = my - slope * mx
    r2 = (sxy * sxy) / (sxx * syy) if syy else 1.0
    return slope, intercept, r2
