"""The four end-to-end workloads: seeded inputs, set-up, the measured loops
and the quality panel.

Each workload is generated from ``--seed`` before timing starts, and the
program receives only the generated sets.  The amount of work is fixed: a
closed loop's ``COUNT`` samples, the open loop's ``DURATION_S`` of
arrivals (``--smoke`` scales both down).  The same seed therefore always
gives the same inputs; a faster program finishes sooner.

Closed loops time one sample (a request or a drain) at a time; outputs
are checked between samples, after the sample's timer has stopped.  The
open loop times each request from the moment it was due.  Every timed
interval is divided by the host's speed factor at its time
(:class:`metrics.HostSpeed`), so timings read as on the reference host.

After the timed loop each workload sends its *quality panel* — a fixed
set of inputs, the same for every seed — through the same door, untimed.
The schedule-quality metrics are computed on the panel's outputs, so two
commits compare on them exactly, whatever seeds their runs used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Sequence

import numpy as np

from repro.comms.dyck import random_dyck_word
from repro.comms.generators import from_dyck_word, random_arbitrary, random_well_nested
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.cst.network import CSTNetwork
from repro.exceptions import ReproError
from repro.fabric.controller import FabricController
from repro.io import result_to_dict
from repro.service.admission import AdmissionState, AdmissionThresholds, Priority
from repro.service.service import RequestStatus, SchedulerService
from repro.service.streaming import (
    StreamingSchedulerService,
    StreamRequest,
    StreamStatus,
)
from repro.service.tenants import TenantQuota
from repro.service.workloads import mixed_workloads

from metrics import SLO_MS, HostSpeed

#: The quality panel is drawn from this seed, whatever ``--seed`` is.
PANEL_SEED = 0


@dataclass
class Measurement:
    """Numbers from one measured loop.

    ``samples_ms`` and ``timed_s`` are on the reference host's clock (each
    timed interval divided by the speed factor of its time, listed in
    ``speed``).  ``timed_s`` is the sum of the closed loop's samples, or the
    open loop from its first due arrival to its last settled request.
    ``raw_s`` is the same timed work as measured, and ``loop_s`` the wall
    of the whole loop, checks and probes included.
    """

    samples_ms: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    raw_s: float = 0.0
    loop_s: float = 0.0
    attempted: int = 0
    done: int = 0  # DONE and passed its output check
    failed: int = 0  # FAILED / EXPIRED / REJECTED / unsettled / failed a check
    shed: int = 0
    within_slo: int = 0
    lag_ms: list[float] = field(default_factory=list)
    counts: dict[str, Any] = field(default_factory=dict)
    _closed: list[tuple[float, int]] = field(default_factory=list)  # (elapsed, done)

    def closed_sample(self, elapsed: float, requests: int, done: int) -> None:
        self._closed.append((elapsed, done))
        self.raw_s += elapsed
        self.attempted += requests
        self.done += done
        self.failed += requests - done

    def finish_closed(self, speed: HostSpeed, loop_start: float) -> None:
        """Scale a closed loop's samples by the probes around each of them."""
        self.loop_s = perf_counter() - loop_start
        self.speed = speed.centred()
        for (elapsed, done), factor in zip(self._closed, self.speed):
            ms = elapsed / factor * 1e3
            self.samples_ms.append(ms)
            self.timed_s += ms / 1e3
            if ms <= SLO_MS:
                self.within_slo += done

    def throughput(self) -> float:
        """DONE requests per timed second."""
        return self.done / self.timed_s if self.timed_s else 0.0


class Workload:
    """Seeded inputs + set-up + one measured loop over them + the panel."""

    name = ""
    index = 0  # separates the workloads' random streams
    COUNT = 1000  # closed loops: samples at full size
    mean_ratio = False  # general sets: rounds_per_width is a mean ratio
    why = ""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.count = max(1, math.ceil(self.COUNT * scale))

    def rng(self, stream: int) -> np.random.Generator:
        """Stream 0 feeds the measured inputs, stream 1 the warm-up."""
        return np.random.default_rng([self.seed, self.index, stream])

    def panel_rng(self) -> np.random.Generator:
        """The quality panel's stream: the same for every seed."""
        return np.random.default_rng([PANEL_SEED, self.index, 2])

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def attach(self, timer: Any) -> None:
        """Route the in-process scheduler's waves to ``timer`` (traced run)."""

    def run(self, checker: Any, tracer: Any) -> Measurement:
        raise NotImplementedError

    def run_panel(self, checker: Any) -> None:
        """Send the quality panel through the workload's door and check it."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def fingerprint(self) -> list:
        """The generated inputs in plain form (tests compare seeds with it)."""
        raise NotImplementedError


def _comms(cset) -> list[tuple[int, int]]:
    return [(c.src, c.dst) for c in cset]


def _random_family(n: int, rng: np.random.Generator):
    """The randomised member of :func:`mixed_workloads`' family cycle."""
    return random_well_nested(n // 4, n, rng)


def _zipf_draws(k: int, total: int, s: float, rng: np.random.Generator) -> np.ndarray:
    """``total`` Zipf(``s``) draws over ranks ``0..k-1``, conditioned on their counts.

    Every rank appears its expected number of times (fractions rounded by
    systematic sampling), in random order: the popularity mix, and with it
    the cache's work, cannot drift from seed to seed, while which request
    comes when still does.
    """
    weights = np.arange(1, k + 1, dtype=float) ** -s
    expected = total * weights / weights.sum()
    counts = np.floor(expected).astype(np.int64)
    short = total - int(counts.sum())
    cumulative = np.cumsum(expected - counts)
    picks = np.searchsorted(cumulative, rng.random() + np.arange(short), side="right")
    np.add.at(counts, np.minimum(picks, k - 1), 1)
    draws = np.repeat(np.arange(k), counts)
    rng.shuffle(draws)
    return draws


def _stratified(pattern: Sequence, count: int, rng: np.random.Generator) -> list:
    """``count`` labels drawn as shuffled copies of ``pattern``.

    Every block of ``len(pattern)`` consecutive labels holds the pattern's
    exact mix, so the mix cannot drift from seed to seed.
    """
    out: list = []
    while len(out) < count:
        out.extend(pattern[i] for i in rng.permutation(len(pattern)))
    return out[:count]


def _drain_panel(service: SchedulerService, panel: list, size: int, checker: Any) -> None:
    """Drain ``(n, cset)`` panel entries through a batch service, ``size`` at a time.

    The cache is emptied first: a cache hit relabels whichever placement the
    timed run stored, and that depends on the seed.
    """
    service.cache.clear()
    for lo in range(0, len(panel), size):
        chunk = panel[lo : lo + size]
        tickets = [service.submit(cset, n_leaves=n) for n, cset in chunk]
        report = service.drain()
        for j, (ticket, (_, cset)) in enumerate(zip(tickets, chunk)):
            result = report.results[ticket.id]
            payload = result.payload if result.status is RequestStatus.DONE else None
            checker.check(payload, cset, ("panel", lo + j))


# -- direct_unique ------------------------------------------------------------


class DirectUnique(Workload):
    """Closed loop, one client, ``Scheduler.schedule`` on unique sets."""

    name = "direct_unique"
    index = 0
    why = (
        "Unique well-nested sets at n=1024/4096/16384, sparse and dense, half "
        "with a network attached: the core path (Phase 1/2, columnar choice, "
        "write-back), no cache or IPC"
    )
    SIZES = (1024, 4096, 16384)
    PANEL = 24  # two periods of spec()

    @classmethod
    def spec(cls, i: int) -> tuple[int, int, bool]:
        """Request ``i``: (leaves, pairs, network attached).  Period 12."""
        n = cls.SIZES[i % 3]
        dense = (i // 3) % 2 == 1
        return n, (n // 64 if dense else 24), (i // 6) % 2 == 1

    def _make(self, rng: np.random.Generator, count: int) -> list:
        out = []
        for i in range(count):
            n, pairs, network = self.spec(i)
            out.append((n, random_well_nested(pairs, n, rng), network))
        return out

    def generate(self) -> None:
        self.inputs = self._make(self.rng(0), self.count)
        self.warm = self._make(self.rng(1), 12)
        self.panel = self._make(self.panel_rng(), self.PANEL)

    def setup(self) -> None:
        self.scheduler = PADRScheduler(config=SchedulerConfig())
        for n, cset, network in self.warm:
            net = CSTNetwork.of_size(n) if network else None
            self.scheduler.schedule(cset, n_leaves=n, network=net)

    def attach(self, timer: Any) -> None:
        self.scheduler.obs = timer

    def run(self, checker: Any, tracer: Any) -> Measurement:
        m = Measurement()
        scheduler = self.scheduler
        loop_start = perf_counter()
        speed = HostSpeed()
        for i, (n, cset, network) in enumerate(self.inputs):
            net = CSTNetwork.of_size(n) if network else None  # built before the timer
            if tracer is not None:
                tracer.begin(i)
            start = perf_counter()
            try:
                result = scheduler.schedule(cset, n_leaves=n, network=net)
            except ReproError as exc:
                result = None
                checker.note_failure(i, f"schedule raised {exc!r}")
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end()
            ok = result is not None and checker.check(result_to_dict(result), cset, i)
            m.closed_sample(elapsed, 1, int(ok))
            speed.after(elapsed)
        m.finish_closed(speed, loop_start)
        return m

    def run_panel(self, checker: Any) -> None:
        for i, (n, cset, network) in enumerate(self.panel):
            net = CSTNetwork.of_size(n) if network else None
            try:
                payload = result_to_dict(self.scheduler.schedule(cset, n_leaves=n, network=net))
            except ReproError:
                payload = None
            checker.check(payload, cset, ("panel", i))

    def fingerprint(self) -> list:
        return [(n, _comms(c), net) for n, c, net in self.inputs]


# -- batch_repeat -------------------------------------------------------------


class BatchRepeat(Workload):
    """Closed loop, one client, 16-request drains over a Zipf catalogue."""

    name = "batch_repeat"
    index = 1
    why = (
        "16-request drains on a 2-worker pool from a Zipf(1.1) catalogue, ~75% "
        "served from cache, 1 in 8 at n=4096 sharing one Dyck shape: signature, "
        "cache, dedup, shape-grouping, IPC"
    )
    DRAIN = 16
    ZIPF = 1.1
    TAIL = 1740  # long-tail entries; sized for ~75% of requests served from cache
    #: the one Dyck word every n=4096 entry places; fixed across seeds,
    #: because its width sets the cost of every n=4096 miss
    SLICE_WORD = random_dyck_word(24, np.random.default_rng(0))

    def _slice_entry(self, rng: np.random.Generator) -> tuple[int, Any]:
        positions = np.sort(rng.choice(4096, len(self.SLICE_WORD), replace=False))
        return 4096, from_dyck_word(self.SLICE_WORD, positions.tolist())

    def _tail_entry(self, i: int, rng: np.random.Generator) -> tuple[int, Any]:
        n = 1024 if i % 10 == 9 else 256
        return n, random_well_nested(16, n, rng)

    def _catalogue(self, rng: np.random.Generator) -> list:
        """Popularity-ordered entries; every eighth rank is an n=4096 placement.

        The five mixed_workloads families at n=256 take the hottest ranks, so
        after their first miss they are served from the cache; they are the
        same for every seed, since these hot sets carry most of the delivered
        communications.  The long tail, where the misses come from, is small
        random sets (16 pairs), one in ten at n=1024 and the rest at n=256: a
        miss costs about as much as the service's own per-request work, so
        the cache and service path weigh on the drain next to the core.
        (The n=1024 families cost up to 40 ms a miss; their handful of first
        misses would make up the slowest one percent of drains.)
        """
        base = [(256, c) for c in mixed_workloads(256, 5)]
        base += [self._tail_entry(i, rng) for i in range(self.TAIL)]
        slices = [self._slice_entry(rng) for _ in range(len(base) // 7)]
        catalogue: list = []
        b = s = 0
        while b < len(base) or s < len(slices):
            if (len(catalogue) % 8 == 7 and s < len(slices)) or b == len(base):
                catalogue.append(slices[s])
                s += 1
            else:
                catalogue.append(base[b])
                b += 1
        return catalogue

    def generate(self) -> None:
        rng = self.rng(0)
        self.catalogue = self._catalogue(rng)
        draws = _zipf_draws(len(self.catalogue), self.count * self.DRAIN, self.ZIPF, rng)
        self.draws = draws.reshape(self.count, self.DRAIN)
        warm_rng = self.rng(1)
        self.warm = [(n, _random_family(n, warm_rng)) for n in (256, 1024) * 3]
        self.warm += [self._slice_entry(warm_rng) for _ in range(4)]
        # two drains in the catalogue's mix: the families, tail sets, slices
        panel_rng = self.panel_rng()
        self.panel = [(256, c) for c in mixed_workloads(256, 5)]
        self.panel += [self._tail_entry(i, panel_rng) for i in range(23)]
        self.panel += [self._slice_entry(panel_rng) for _ in range(4)]

    def setup(self) -> None:
        self.service = SchedulerService(workers=2)
        for n, cset in self.warm:
            self.service.submit(cset, n_leaves=n)
        self.service.drain()  # spawns the pool
        self.service.cache.clear()

    def run(self, checker: Any, tracer: Any) -> Measurement:
        m = Measurement()
        svc, catalogue = self.service, self.catalogue
        misses0 = svc.cache.misses
        cached = 0
        loop_start = perf_counter()
        speed = HostSpeed()
        for d, draw in enumerate(self.draws.tolist()):
            if tracer is not None:
                tracer.begin(d)
            start = perf_counter()
            tickets = [svc.submit(catalogue[k][1], n_leaves=catalogue[k][0]) for k in draw]
            report = svc.drain()
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end()
            done = 0
            for ticket, k in zip(tickets, draw):
                result = report.results[ticket.id]
                if result.status is not RequestStatus.DONE:
                    checker.note_failure(k, f"{result.status.value}: {result.error}")
                elif checker.check(result.payload, catalogue[k][1], k, repeatable=True):
                    done += 1
                    cached += result.from_cache
            m.closed_sample(elapsed, len(draw), done)
            speed.after(elapsed)
        m.finish_closed(speed, loop_start)
        m.counts = {"cached": cached, "misses": svc.cache.misses - misses0}
        return m

    def run_panel(self, checker: Any) -> None:
        _drain_panel(self.service, self.panel, self.DRAIN, checker)

    def close(self) -> None:
        self.service.close()

    def fingerprint(self) -> list:
        return [[(n, _comms(c)) for n, c in self.catalogue], self.draws.tolist()]


# -- stream_open --------------------------------------------------------------


class StreamOpen(Workload):
    """Open loop: Poisson arrivals with four bursts into the streaming service.

    The loop runs on a *reference-speed clock*: it starts at 0 when the
    first arrival is due, and each pass of the loop — submitting every
    arrival now due, then one ``step()`` — advances it by the pass's
    measured time divided by the host's speed factor.  When a pass ends
    before the next 10 ms tick is due, the clock moves on to that tick, as a
    sleeping loop would; a late tick starts at once.  The service runs
    inline in this process, so the clock is the wall clock of the reference
    host.  Capacity is ``max_inflight`` requests per tick with ticks as long
    as their work, so the program's speed sets it.
    """

    name = "stream_open"
    index = 2
    why = (
        "Open loop: Poisson 300/s with four 0.2 s bursts at 2000/s into a "
        "16-in-flight service, 4 weighted tenants, 3 priorities, 50% repeats: "
        "admission, DRR fairness, shedding"
    )
    DURATION_S = 14.0
    TICK_S = 0.010
    MAX_INFLIGHT = 16
    #: Calibrated once on the reference host at the commit that defined the
    #: benchmark, then frozen: the service settles about 600 requests/s of
    #: this mix, so the steady phase runs at half capacity and the bursts at
    #: over three times it.
    STEADY_RPS = 300.0
    BURST_RPS = 2000.0
    BURST_S = 0.2
    BURSTS = 4
    TENANTS = (("t0", 4), ("t1", 2), ("t2", 1), ("t3", 1))  # (name, DRR weight)
    PRIORITIES = (Priority.HIGH,) + (Priority.NORMAL,) * 6 + (Priority.LOW,) * 3
    CATALOGUE = 48
    #: Every burst lifts the backlog through YELLOW (LOW deferred) into
    #: SOFT_RED (LOW shed at the door); RED is unreachable.  Deferred work
    #: counts towards the pressure that defers it, so two traps are kept
    #: clear.  In RED only HIGH work is dequeued, and the deferred NORMAL
    #: backlog can leave only by expiring.  And LOW work stays deferred
    #: until the backlog falls below the YELLOW exit bound (0.145: 148
    #: requests), so a deferred LOW backlog above it would be held until it
    #: expires.  LOW work is dequeued last, so it piles up in any backlog: a
    #: burst leaves 60-66 LOW requests deferred (with YELLOW at 0.10 and
    #: 1600/s bursts the pile reached 82 of a 97-request exit bound).  A cooldown
    #: of one tick keeps the YELLOW phase after a burst, in which new LOW
    #: arrivals are deferred too, to a tick or two.
    MAX_QUEUE = 1024
    THRESHOLDS = AdmissionThresholds(
        yellow_enter=0.15, soft_red_enter=0.16, red_enter=1.0, hysteresis=0.005, cooldown=1
    )
    DEADLINE_TICKS = 512

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.duration = self.DURATION_S * scale

    def bursts(self) -> list[tuple[float, float]]:
        """Four bursts, centred in the four quarters of the run.

        Together they bring under 30% of the arrivals, so the median
        latency sits inside the steady distribution rather than on the edge
        between it and the burst backlog.  With two bursts the deferred LOW
        requests were about 1.5% of all and formed a cliff in the latency
        distribution right at p99, which then jumped by 20% between runs;
        four put about 4% in the slow tail and average p99 over more
        episodes.
        """
        length = self.BURST_S * self.scale
        starts = ((k + 0.5) / self.BURSTS * self.duration for k in range(self.BURSTS))
        return [(t, t + length) for t in starts]

    def _arrival_times(self, rng: np.random.Generator) -> list[float]:
        """A Poisson process conditioned on its mean count per phase.

        Given its count, a Poisson process's arrival times are independent
        and uniform over the phase; fixing the count at the mean removes the
        count's seed-to-seed variance from the burst peaks.
        """
        bursts = self.bursts()
        edges = sorted({0.0, self.duration, *(t for b in bursts for t in b)})
        times: list[float] = []
        for a, b in zip(edges, edges[1:]):
            burst = any(lo <= a < hi for lo, hi in bursts)
            rate = self.BURST_RPS if burst else self.STEADY_RPS
            k = round(rate * (b - a))
            times.extend(np.sort(rng.uniform(a, b, size=k)).tolist())
        return times

    @staticmethod
    def _fresh(rng: np.random.Generator) -> tuple[int, Any]:
        return 256, random_well_nested(16, 256, rng)

    def generate(self) -> None:
        rng = self.rng(0)
        # the fixed mixed_workloads families at both sizes, then random
        # members at n=256 (the n=1024 random member costs ~10x more and
        # would make the cost mix depend on the seed)
        families = [(n, c) for n in (256, 1024) for c in mixed_workloads(n, 4)]
        self.catalogue = families + [
            (256, _random_family(256, rng)) for _ in range(self.CATALOGUE - len(families))
        ]
        times = self._arrival_times(rng)
        tenants = _stratified([t for t, w in self.TENANTS for _ in range(w)], len(times), rng)
        priorities = _stratified(self.PRIORITIES, len(times), rng)
        repeats = _stratified(range(len(self.catalogue)), len(times) // 2, rng)
        self.arrivals = []
        for i, due in enumerate(times):
            if i % 2:  # every other arrival repeats a catalogue entry
                key: Any = repeats[i // 2]
                n, cset = self.catalogue[key]
            else:
                key = ("unique", i)
                n, cset = self._fresh(rng)
            self.arrivals.append((due, n, cset, tenants[i], priorities[i], key))
        warm_rng = self.rng(1)
        self.warm = [self._fresh(warm_rng) for _ in range(16)]
        panel_rng = self.panel_rng()
        self.panel = families + [self._fresh(panel_rng) for _ in range(8)]
        self.panel += [(256, _random_family(256, panel_rng)) for _ in range(8)]

    def setup(self) -> None:
        quotas = {
            name: TenantQuota(rate=64.0, burst=256.0, weight=weight)
            for name, weight in self.TENANTS
        }
        self.service = StreamingSchedulerService(
            max_inflight=self.MAX_INFLIGHT,
            max_queue=self.MAX_QUEUE,
            thresholds=self.THRESHOLDS,
            quotas=quotas,
        )
        for n, cset in self.warm:
            self.service.submit(StreamRequest(cset=cset, n_leaves=n))
        while self.service.backlog:
            self.service.step()
        self.service.cache.clear()

    def attach(self, timer: Any) -> None:
        from repro.service import worker

        worker._worker_scheduler.obs = timer  # the inline executor's scheduler

    def run(self, checker: Any, tracer: Any) -> Measurement:
        m = Measurement()
        svc, arrivals, tick = self.service, self.arrivals, self.TICK_S
        misses0 = svc.cache.misses
        arrival_of: dict[int, int] = {}
        settled_at: dict[int, float] = {}
        red_ticks = 0
        limit = 3 * self.duration + 30.0  # a runaway backlog must not hang the run
        clock = 0.0
        i, total = 0, len(arrivals)
        loop_start = perf_counter()
        speed = HostSpeed()
        if tracer is not None:
            tracer.begin(0)
        while True:
            tick_start = clock
            start = perf_counter()
            while i < total and arrivals[i][0] <= clock:
                due, n, cset, tenant, priority, _ = arrivals[i]
                m.lag_ms.append((clock - due) * 1e3)
                ticket = svc.submit(StreamRequest(
                    cset=cset, n_leaves=n, release_time=svc.now,
                    deadline=self.DEADLINE_TICKS, priority=priority, tenant=tenant,
                ))
                arrival_of[ticket.id] = i
                i += 1
            if (i >= total and svc.backlog == 0) or clock > limit:
                break
            settled = svc.step()
            elapsed = perf_counter() - start
            speed.after(elapsed)
            factor = speed.trailing()
            clock += elapsed / factor
            m.raw_s += elapsed
            m.speed.append(factor)
            for result in settled:
                settled_at[result.request_id] = clock
            red_ticks += svc.state is AdmissionState.RED
            clock = max(clock, tick_start + tick)  # idle until the next tick is due
        m.timed_s = clock
        m.loop_s = perf_counter() - loop_start
        if tracer is not None:
            tracer.end()

        m.attempted = total
        cached = 0
        wait_ticks = []
        for rid, i in arrival_of.items():
            due, n, cset, _, _, key = arrivals[i]
            result = svc.results.get(rid)
            if result is None:
                m.failed += 1
                checker.note_failure(key, "never settled")
            elif result.status is StreamStatus.SHED:
                m.shed += 1
            elif result.status is not StreamStatus.DONE:
                m.failed += 1
                checker.note_failure(key, f"{result.status.value}: {result.error}")
            elif checker.check(result.payload, cset, key, repeatable=True):
                latency = (settled_at[rid] - due) * 1e3
                m.samples_ms.append(latency)
                m.done += 1
                m.within_slo += latency <= SLO_MS
                cached += result.from_cache
                wait_ticks.append(result.latency_ticks)
            else:
                m.failed += 1
        m.counts = {
            "cached": cached,
            "misses": svc.cache.misses - misses0,
            "wait_ticks": wait_ticks,
            "red_ticks": red_ticks,
        }
        return m

    def run_panel(self, checker: Any) -> None:
        svc = self.service
        svc.cache.clear()  # as in _drain_panel
        tickets = [
            svc.submit(StreamRequest(
                cset=cset, n_leaves=n, release_time=svc.now, deadline=self.DEADLINE_TICKS,
                priority=Priority.HIGH, tenant=self.TENANTS[0][0],
            ))
            for n, cset in self.panel
        ]
        while svc.backlog:
            svc.step()
        for j, (ticket, (_, cset)) in enumerate(zip(tickets, self.panel)):
            result = svc.results.get(ticket.id)
            done = result is not None and result.status is StreamStatus.DONE
            checker.check(result.payload if done else None, cset, ("panel", j))

    def fingerprint(self) -> list:
        return [(d, n, _comms(c), t, p.name, k) for d, n, c, t, p, k in self.arrivals]


# -- general_fabric -----------------------------------------------------------


class GeneralFabric(Workload):
    """Closed loop, one client, 2-request drains of arbitrary sets on a fabric."""

    name = "general_fabric"
    index = 3
    mean_ratio = True
    why = (
        "2-request drains of unique arbitrary sets (4/8/16 pairs, n=256, 1 in 10 "
        "well-nested) through a 2-tree fabric: decompose, plan packing, fabric "
        "IPC; the cache never hits"
    )
    #: Two requests per drain, one per tree on average: a drain of four takes
    #: ~20 ms, and the 1000 drains a p99 needs would then take 20 s.
    DRAIN = 2
    PAIRS = (4, 8, 16)
    PANEL = 30  # three rounds of the 1-in-10 well-nested control

    def _make(self, rng: np.random.Generator, count: int) -> list:
        out = []
        for j in range(count):
            make = random_well_nested if j % 10 == 9 else random_arbitrary
            out.append(make(self.PAIRS[j % 3], 256, rng))
        return out

    def generate(self) -> None:
        self.inputs = self._make(self.rng(0), self.count * self.DRAIN)
        self.warm = self._make(self.rng(1), 64)
        self.panel = [(256, c) for c in self._make(self.panel_rng(), self.PANEL)]

    def setup(self) -> None:
        self.config = SchedulerConfig(decompose="auto")
        self.fabric = FabricController(2, 256, config=self.config)
        self.service = SchedulerService(fabric=self.fabric, config=self.config)
        # warm until every shard has spawned its worker
        for j in range(0, len(self.warm), self.DRAIN):
            for cset in self.warm[j : j + self.DRAIN]:
                self.service.submit(cset, n_leaves=256)
            self.service.drain()
            if all(self.fabric.shard_load):
                break
        self.service.cache.clear()

    def run(self, checker: Any, tracer: Any) -> Measurement:
        m = Measurement()
        svc, inputs = self.service, self.inputs
        load0 = list(self.fabric.shard_load)
        loop_start = perf_counter()
        speed = HostSpeed()
        for d in range(self.count):
            batch = inputs[d * self.DRAIN : (d + 1) * self.DRAIN]
            if tracer is not None:
                tracer.begin(d)
            start = perf_counter()
            tickets = [svc.submit(cset, n_leaves=256) for cset in batch]
            report = svc.drain()
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end()
            done = 0
            for j, (ticket, cset) in enumerate(zip(tickets, batch)):
                key = d * self.DRAIN + j
                result = report.results[ticket.id]
                if result.status is not RequestStatus.DONE:
                    checker.note_failure(key, f"{result.status.value}: {result.error}")
                else:
                    done += checker.check(result.payload, cset, key)
            m.closed_sample(elapsed, len(batch), done)
            speed.after(elapsed)
        m.finish_closed(speed, loop_start)
        load =[a - b for a, b in zip(self.fabric.shard_load, load0)]
        m.counts = {"cached": 0, "misses": m.attempted, "shard_load": load}
        return m

    def run_panel(self, checker: Any) -> None:
        _drain_panel(self.service, self.panel, self.DRAIN, checker)

    def close(self) -> None:
        self.fabric.close()

    def fingerprint(self) -> list:
        return [_comms(c) for c in self.inputs]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (DirectUnique, BatchRepeat, StreamOpen, GeneralFabric)
}
