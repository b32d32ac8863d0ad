"""Glue between the measured system and the registry/trace exporter.

:class:`Instrumentation` bundles a :class:`~repro.obs.registry.MetricsRegistry`
and an optional :class:`~repro.obs.trace.TraceExporter` under one run label
and owns *all* knowledge of metric names and trace schemas — the scheduler
and engine only call its methods (guarded by ``if obs is not None``), so
the hot path carries no observability logic of its own.

Metric name map (logical plane unless noted):

=============================  ===============================================
``csa.rounds``                 Phase-2 rounds completed
``csa.phase1.runs``            Phase-1 upward waves actually executed
``csa.phase1.cache_hits``      Phase-1 reuses (stream scheduling)
``engine.waves``               wave invocations (up + down)
``ctrl.messages`` / ``.words`` logical control traffic (paper's model)
``phys.messages`` / ``.words`` physical traffic (simulator plane)
``phys.pruned_links``          logical − physical per wave (simulator plane)
``phys.pruned_subtrees``       dead subtrees skipped by the fast path
``power.units{switch=v}``      per-switch power units
``power.units.total``          total power bill
``config.changes{switch=v}``   per-switch configuration changes (Theorem 8)
``round.writers`` (histogram)  writers per round
``round.power_units`` (hist.)  power delta per round
``stream.steps``               stream steps scheduled
``stream.step_power_units``    per-step power (histogram)
``recovery.probe_rounds``      fault-localisation probe circuits committed
``recovery.detections``        detection passes that localised ≥1 switch
``recovery.fault_switches``    switches localised as faulty (cumulative)
``recovery.attempts``          resilient schedule attempts (success + retry)
``recovery.backoff_rounds``    idle rounds paid as retry backoff
``recovery.delivered``         communications delivered by resilient runs
``recovery.undelivered``       communications given up as blocked/unverified
``recovery.quarantined``       quarantined switches at run end (gauge)
``recovery.delivery_rate``     per-run delivered fraction (histogram)
``service.submitted``          batch requests admitted past the queue bound
``service.rejected``           batch requests refused at admission
``service.done``               batch requests settled with a schedule
``service.expired``            batch requests that out-waited their deadline
``service.failed``             batch requests out of retry budget / permanent
``service.retries``            transient worker failures retried with backoff
``service.cache.hits``         schedule-cache lookups served from memory
``service.cache.misses``       schedule-cache lookups that missed
``service.cache.evictions``    payloads S3-FIFO dropped at capacity
``service.cache.size``         live cache entries (gauge)
``stream.chaos_drills``        drill victims requeued for healthy reroute
``slo.good`` / ``slo.bad``     per-objective good/bad events
``slo.burn_rate``              burn per objective+window (gauge; -1 = inf)
``slo.alerts``                 rising-edge burn alerts (page/ticket)
``slo.budget_remaining``       lifetime error budget left (gauge)
``chaos.drills``               in-service chaos drills executed
``chaos.detected``             drill faults localised by the recovery pass
``chaos.missed``               drill faults that escaped localisation
``chaos.detection_ticks``      ticks to localise a drill fault (histogram)
``chaos.reroute_ticks``        ticks to reroute the victim DONE (histogram)
``csa.schedule`` (span)        wall-clock of one ``schedule()`` call
``csa.phase1`` (span)          wall-clock of Phase 1
``service.drain`` (span)       wall-clock of one service drain
=============================  ===============================================
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceExporter

__all__ = [
    "Instrumentation",
    "observe_schedule",
    "per_switch_counters_from",
    "per_switch_changes_from",
]


class Instrumentation:
    """One run's hooks: a registry (required) + a trace exporter (optional).

    ``run`` labels every metric and trace event, so several runs (e.g. the
    CSA and the Roy baseline) can share one registry/trace and stay
    distinguishable — that is how ``cst-padr trace`` builds its Theorem-8
    comparison file.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        trace: TraceExporter | None = None,
        *,
        run: str = "run",
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace
        self.run = run

    def labelled(self, run: str) -> "Instrumentation":
        """A view over the same sinks under a different run label."""
        return Instrumentation(self.metrics, self.trace, run=run)

    # -- scheduler lifecycle -------------------------------------------------

    def run_start(self, *, scheduler: str, n_leaves: int, n_comms: int) -> None:
        if self.trace is not None:
            self.trace.emit(
                "run_start",
                run=self.run,
                scheduler=scheduler,
                n_leaves=n_leaves,
                n_comms=n_comms,
                wave_depth=n_leaves.bit_length() - 1,
            )

    def phase1(
        self,
        *,
        live_switches: int,
        logical_messages: int,
        physical_messages: int,
        cached: bool,
    ) -> None:
        m = self.metrics
        r = self.run
        if cached:
            m.inc("csa.phase1.cache_hits", run=r)
        else:
            m.inc("csa.phase1.runs", run=r)
        if self.trace is not None:
            self.trace.emit(
                "phase1",
                run=r,
                live_switches=live_switches,
                logical_messages=logical_messages,
                physical_messages=physical_messages,
                cached=cached,
            )

    def round(
        self,
        *,
        index: int,
        writers: int,
        performed: int,
        staged_switches: int,
        config_changes: int,
        power_units: int,
        logical_messages: int,
        physical_messages: int,
        pruned_subtrees: int,
    ) -> None:
        m = self.metrics
        r = self.run
        m.inc("csa.rounds", run=r)
        m.observe("round.writers", writers, run=r)
        m.observe("round.power_units", power_units, run=r)
        m.inc("phys.pruned_subtrees", pruned_subtrees, run=r)
        if self.trace is not None:
            self.trace.emit(
                "round",
                run=r,
                round=index,
                writers=writers,
                performed=performed,
                staged_switches=staged_switches,
                config_changes=config_changes,
                power_units=power_units,
                logical_messages=logical_messages,
                physical_messages=physical_messages,
                pruned_links=logical_messages - physical_messages,
                pruned_subtrees=pruned_subtrees,
            )

    def run_end(self, schedule: Any) -> None:
        """Fold a finished schedule's report into the registry (+ trace)."""
        observe_schedule(self.metrics, schedule, run=self.run)
        if self.trace is not None:
            power = schedule.power
            self.trace.emit(
                "run_end",
                run=self.run,
                rounds=schedule.n_rounds,
                total_power_units=power.total_units,
                max_switch_units=power.max_switch_units,
                max_switch_changes=power.max_switch_changes,
                per_switch_changes={
                    str(v): c for v, c in sorted(power.per_switch_changes.items())
                },
                per_switch_units={
                    str(v): u for v, u in sorted(power.per_switch_units.items())
                },
                logical_messages=schedule.control_messages,
                logical_words=schedule.control_words,
                physical_messages=schedule.physical_messages,
            )

    # -- fault recovery ------------------------------------------------------

    def recovery_probe_round(self) -> None:
        """One committed probe circuit (detector)."""
        self.metrics.inc("recovery.probe_rounds", run=self.run)

    def recovery_detection(self, *, switches: int, probe_rounds: int) -> None:
        """One :meth:`FaultDetector.detect` pass finished."""
        m = self.metrics
        r = self.run
        if switches:
            m.inc("recovery.detections", run=r)
            m.inc("recovery.fault_switches", switches, run=r)
        if self.trace is not None:
            self.trace.emit(
                "recovery_detection",
                run=r,
                switches=switches,
                probe_rounds=probe_rounds,
            )

    def recovery_attempt(
        self, *, index: int, scheduled: int, verified_ok: bool
    ) -> None:
        """One iteration of the resilient schedule/verify loop."""
        self.metrics.inc("recovery.attempts", run=self.run)
        if self.trace is not None:
            self.trace.emit(
                "recovery_attempt",
                run=self.run,
                attempt=index,
                scheduled=scheduled,
                verified_ok=verified_ok,
            )

    def recovery_result(
        self,
        *,
        delivered: int,
        undelivered: int,
        quarantined: int,
        attempts: int,
        backoff_rounds: int,
    ) -> None:
        """Final tally of one resilient run."""
        m = self.metrics
        r = self.run
        m.inc("recovery.delivered", delivered, run=r)
        m.inc("recovery.undelivered", undelivered, run=r)
        m.inc("recovery.backoff_rounds", backoff_rounds, run=r)
        m.set("recovery.quarantined", quarantined, run=r)
        total = delivered + undelivered
        m.observe(
            "recovery.delivery_rate",
            delivered / total if total else 1.0,
            run=r,
        )
        if self.trace is not None:
            self.trace.emit(
                "recovery_result",
                run=r,
                delivered=delivered,
                undelivered=undelivered,
                quarantined=quarantined,
                attempts=attempts,
                backoff_rounds=backoff_rounds,
            )

    # -- engine / meter hook factories ---------------------------------------

    def wave_hook(self):
        """Per-wave sink for :class:`~repro.cst.engine.EngineTrace`."""
        m = self.metrics
        r = self.run
        waves = m.counter("engine.waves", run=r)
        msgs = m.counter("ctrl.messages", run=r)
        words = m.counter("ctrl.words", run=r)
        pmsgs = m.counter("phys.messages", run=r)
        pwords = m.counter("phys.words", run=r)
        pruned = m.counter("phys.pruned_links", run=r)

        def on_wave(
            messages: int, n_words: int, physical_messages: int, physical_words: int
        ) -> None:
            waves.inc()
            msgs.inc(messages)
            words.inc(n_words)
            pmsgs.inc(physical_messages)
            pwords.inc(physical_words)
            pruned.inc(messages - physical_messages)

        return on_wave

    def charge_hook(self):
        """Per-charge sink for :class:`~repro.cst.power.PowerMeter`."""
        m = self.metrics
        r = self.run

        def on_charge(switch_id: int, cost: int) -> None:
            m.inc("power.units", cost, run=r, switch=switch_id)

        return on_charge

    def change_hook(self):
        """Per-configuration-change sink for the power meter."""
        m = self.metrics
        r = self.run

        def on_change(switch_id: int) -> None:
            m.inc("config.changes", run=r, switch=switch_id)

        return on_change

    def attach(self, network: Any) -> None:
        """Wire the live meter hooks onto a network before a run."""
        network.meter.on_charge = self.charge_hook()
        network.meter.on_change = self.change_hook()


def observe_schedule(
    metrics: MetricsRegistry, schedule: Any, *, run: str = "run"
) -> None:
    """Ingest a finished schedule's totals into a registry.

    This is the after-the-fact path (baselines, replayed schedules):
    per-switch power/change counters, traffic totals and round counts land
    under the same names the live hooks use, so analysis code consumes one
    format regardless of how the run was measured.  Live-instrumented runs
    get this automatically from :meth:`Instrumentation.run_end` — their
    per-switch counters are *set* here from the authoritative power report
    rather than incremented twice.
    """
    power = schedule.power
    metrics.set("power.units.total", power.total_units, run=run)
    metrics.set("rounds", schedule.n_rounds, run=run)
    metrics.set("ctrl.messages.total", schedule.control_messages, run=run)
    metrics.set("ctrl.words.total", schedule.control_words, run=run)
    metrics.set("phys.messages.total", schedule.physical_messages, run=run)
    for v, units in power.per_switch_units.items():
        c = metrics.counter("power.units", run=run, switch=v)
        c.value = units
    for v, changes in power.per_switch_changes.items():
        c = metrics.counter("config.changes", run=run, switch=v)
        c.value = changes


def per_switch_counters_from(
    metrics_snapshot: Mapping[str, Any],
    name: str,
    *,
    run: str | None = None,
) -> dict[int, int]:
    """Extract a ``name{switch=v}`` counter family from a snapshot.

    Accepts either a full ``snapshot()`` dict or its ``counters`` section.
    With ``run`` given, only that run's counters are considered.
    """
    from repro.obs.registry import parse_key

    counters = metrics_snapshot.get("counters", metrics_snapshot)
    out: dict[int, int] = {}
    for key, value in counters.items():
        base, labels = parse_key(key)
        if base != name or "switch" not in labels:
            continue
        if run is not None and labels.get("run") != run:
            continue
        out[int(labels["switch"])] = value
    return out


def per_switch_changes_from(
    metrics_snapshot: Mapping[str, Any], *, run: str | None = None
) -> dict[int, int]:
    """``config.changes{switch=v}`` counters from a snapshot (Theorem 8)."""
    return per_switch_counters_from(metrics_snapshot, "config.changes", run=run)
