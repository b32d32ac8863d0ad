""":class:`StreamingSchedulerService` — the batch service grown into a
long-running online scheduler with adaptive admission control.

The paper schedules one *fixed* well-nested set in w rounds; the batch
``SchedulerService`` (PR 4) settles one submitted batch and stops.  This
module serves **continuous arrival**: requests carry a ``release_time``,
a latency ``deadline``, a ``priority`` and a ``tenant`` id, and the
service runs tick after tick, draining what is eligible, deferring what
pressure says must wait, and shedding only what the policy table allows
it to shed (LOW priority, nothing else — see
:mod:`repro.service.admission`).

The moving parts, all on one deterministic logical tick clock:

* **admission** — per-tenant token buckets throttle at the door, the
  backlog bound rejects outright overflow, and the four-state
  GREEN/YELLOW/SOFT_RED/RED controller (fed from the service's own
  queue/expiry/failure signals every tick) decides admit/defer/shed per
  priority class;
* **fairness** — ready work queues per tenant; each tick's execution
  budget is dealt by deficit round-robin weighted by tenant quota, so a
  hog cannot starve anyone (:mod:`repro.service.tenants`);
* **the drain path** — the request pipeline the batch service also runs
  (:mod:`repro.service.pipeline`): signature cache, intra-tick dedup and
  same-shape columnar batching, with this service's own ``batch_window``
  holdback between grouping and execution — a lone columnar-eligible
  miss waits at most ``batch_window`` ticks for shape peers and never
  past its deadline slack (the latency budget);
* **parity** — every delivered payload is, optionally live-asserted,
  bit-identical at the serialized level to a direct ``PADRScheduler``
  run; the streaming CI gate runs with it on.

Every submitted request settles in **exactly one** terminal status —
DONE, SHED, REJECTED, EXPIRED or FAILED — and the report accounts for
all of them plus p50/p99 latency in ticks (property-tested: nothing is
ever silently dropped).

The service is synchronous at its core (``submit`` / ``step`` /
``run``), which keeps every test deterministic; :meth:`aserve` wraps the
same loop as an ``asyncio`` coroutine that yields control every tick, so
it embeds in an event loop alongside real arrival sources.
"""

from __future__ import annotations

import asyncio
import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.comms.communication import CommunicationSet
from repro.core.config import SchedulerConfig
from repro.core.schedule import Schedule
from repro.exceptions import ReproError, SchedulingError
from repro.obs.instrument import Instrumentation
from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionState,
    AdmissionThresholds,
    LoadSample,
    Priority,
)
from repro.service.cache import CanonicalKey, canonical_signature
from repro.service.pipeline import RequestPipeline, SettledPayload, work_request
from repro.service.tenants import TenantQuota, TenantRegistry
from repro.util.stats import percentile

__all__ = [
    "StreamReport",
    "StreamRequest",
    "StreamResult",
    "StreamStatus",
    "StreamTicket",
    "StreamingSchedulerService",
]


class StreamStatus(enum.Enum):
    """Terminal fates; every submitted request reaches exactly one."""

    DONE = "done"
    SHED = "shed"          # admission dropped it (LOW priority only)
    REJECTED = "rejected"  # invalid, over backlog bound, or over quota
    EXPIRED = "expired"    # out-waited its deadline in the queue
    FAILED = "failed"      # permanent error or retry budget exhausted


@dataclass(frozen=True, slots=True)
class StreamRequest:
    """One online scheduling request.

    ``release_time`` is the logical tick the request becomes available
    (the arrival process); ``deadline`` is the latency SLO in ticks
    *after release* — a request still queued ``deadline`` ticks past its
    release expires.  ``priority`` feeds the admission policy table and
    ``tenant`` the quota/fairness machinery.
    """

    cset: CommunicationSet
    n_leaves: int | None = None
    release_time: int = 0
    deadline: int = 64
    priority: Priority = Priority.NORMAL
    tenant: str = "default"


@dataclass(frozen=True, slots=True)
class StreamTicket:
    """The submit receipt: door decisions are data, not exceptions."""

    id: int
    accepted: bool
    decision: AdmissionDecision | None = None
    reason: str | None = None


@dataclass(frozen=True, slots=True)
class StreamResult(SettledPayload):
    """The settled fate of one streaming request."""

    request_id: int
    status: StreamStatus
    tenant: str
    priority: Priority
    from_cache: bool = False
    attempts: int = 0
    latency_ticks: int = 0
    payload: dict[str, Any] | None = None
    error: str | None = None
    signature: str | None = None


@dataclass(frozen=True, slots=True)
class StreamReport:
    """One serving window's complete accounting."""

    results: dict[int, StreamResult]
    ticks: int
    trajectory: tuple[tuple[int, str], ...]
    final_state: str

    def _count(self, status: StreamStatus) -> int:
        return sum(1 for r in self.results.values() if r.status is status)

    @property
    def n_done(self) -> int:
        return self._count(StreamStatus.DONE)

    @property
    def n_shed(self) -> int:
        return self._count(StreamStatus.SHED)

    @property
    def n_rejected(self) -> int:
        return self._count(StreamStatus.REJECTED)

    @property
    def n_expired(self) -> int:
        return self._count(StreamStatus.EXPIRED)

    @property
    def n_failed(self) -> int:
        return self._count(StreamStatus.FAILED)

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.results.values() if r.from_cache)

    def latencies(self) -> list[int]:
        """DONE-request latencies (ticks from release to settlement)."""
        return sorted(
            r.latency_ticks
            for r in self.results.values()
            if r.status is StreamStatus.DONE
        )

    @property
    def p50_ticks(self) -> float:
        return percentile(self.latencies(), 0.50)

    @property
    def p99_ticks(self) -> float:
        return percentile(self.latencies(), 0.99)

    def by_priority(self, status: StreamStatus) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.results.values():
            if r.status is status:
                out[r.priority.name] = out.get(r.priority.name, 0) + 1
        return out

    def schedules(self) -> dict[int, Schedule]:
        return {
            rid: r.schedule  # type: ignore[misc]
            for rid, r in self.results.items()
            if r.status is StreamStatus.DONE and r.payload is not None
        }

    def summary(self) -> str:
        return (
            f"stream: {self.n_done} done ({self.n_cached} cached), "
            f"{self.n_shed} shed, {self.n_rejected} rejected, "
            f"{self.n_expired} expired, {self.n_failed} failed over "
            f"{self.ticks} tick(s); p50={self.p50_ticks:.0f} "
            f"p99={self.p99_ticks:.0f} ticks, final state {self.final_state}"
        )


@dataclass(slots=True)
class _Live:
    """A request alive inside the service (queued, deferred or retrying)."""

    request_id: int
    request: StreamRequest
    key: CanonicalKey
    release_tick: int
    deadline_tick: int
    attempts: int = 0
    eligible_tick: int = 0
    last_error: str | None = None

    @property
    def cset(self) -> CommunicationSet:
        return self.request.cset

    @property
    def priority(self) -> Priority:
        return self.request.priority

    @property
    def tenant(self) -> str:
        return self.request.tenant


class StreamingSchedulerService(RequestPipeline):
    """Online scheduling over one CST fabric, many tenants, load-aware.

    Parameters
    ----------
    config:
        the :class:`~repro.core.config.SchedulerConfig` all work runs
        under (one config per service instance, as in the batch layer).
    thresholds:
        the admission machine's entry/exit bounds
        (:class:`~repro.service.admission.AdmissionThresholds`).
    default_quota / quotas:
        the token-bucket/weight contract unknown tenants get, and
        explicit per-tenant overrides (``{"tenant": TenantQuota(...)}``).
    max_queue:
        total backlog bound across all tenants; beyond it submits are
        REJECTED regardless of priority (the last-resort door).
    max_inflight:
        per-tick execution budget (requests settled per tick at most).
    batch_window:
        how many ticks a columnar-eligible request may be held back
        waiting for same-shape peers to accumulate into one
        ``schedule_batch`` group.  ``0`` executes immediately.
    max_retries / parity_check / obs:
        as in the batch :class:`~repro.service.service.SchedulerService`.
    on_tick:
        optional observer called at the end of every :meth:`step` as
        ``on_tick(service, settled, now)`` — the attachment point for
        the SLO burn-rate engine (:mod:`repro.slo`), which samples the
        tick's settlements, backlog and admission state without the
        service importing the operations layer.
    chaos:
        optional in-service chaos drill controller (duck-typed; see
        :class:`repro.slo.drill.ChaosDrillController`).  When armed, it
        may intercept one solo leader per tick, execute it against a
        deliberately faulted fabric to measure detection, and have the
        victim requeued for a healthy re-execution — the drill delays
        the victim by a tick or two but never changes its payload, so
        parity and the no-silent-drop accounting hold.
    fabric:
        optional :class:`~repro.fabric.FabricController`.  When given,
        step 4 of the drain executes on the fabric's forest of CSTs
        instead of inline: each request is routed to the shard its
        *tenant* hashes to, so one tenant's stream stays on one tree
        (cache locality, per-tenant isolation), and requests wider than
        the fabric's ``leaf_width`` are rejected at the door.  The
        service does not own the fabric — close it separately.
    """

    def __init__(
        self,
        *,
        config: SchedulerConfig | None = None,
        thresholds: AdmissionThresholds | None = None,
        default_quota: TenantQuota | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        cache_size: int = 256,
        max_queue: int = 256,
        max_inflight: int = 16,
        batch_window: int = 0,
        max_retries: int = 3,
        parity_check: bool = False,
        obs: "Instrumentation | None" = None,
        on_tick: "Callable[[StreamingSchedulerService, list[StreamResult], int], None] | None" = None,
        chaos: Any = None,
        fabric: Any = None,
    ) -> None:
        if max_queue < 1:
            raise SchedulingError(f"max_queue must be >= 1, got {max_queue}")
        if max_inflight < 1:
            raise SchedulingError(f"max_inflight must be >= 1, got {max_inflight}")
        if batch_window < 0:
            raise SchedulingError(f"batch_window must be >= 0, got {batch_window}")
        super().__init__(
            config=config,
            cache_size=cache_size,
            max_retries=max_retries,
            parity_check=parity_check,
            fabric=fabric,
            obs=obs,
            run="stream",
        )
        self.max_queue = max_queue
        self.max_inflight = max_inflight
        self.batch_window = batch_window
        self.on_tick = on_tick
        self.chaos = chaos
        metrics, run = self.cache.metrics, self.cache.run
        self.admission = AdmissionController(
            thresholds, metrics=metrics, run=run
        )
        self.tenants = TenantRegistry(
            default_quota=default_quota, metrics=metrics, run=run
        )
        for name, quota in (quotas or {}).items():
            self.tenants.register(name, quota)
        self.results: dict[int, StreamResult] = {}
        self._next_id = 0
        self._tick = 0
        # per-tick deltas feeding the admission controller's LoadSample
        self._expired_delta = 0
        self._failed_delta = 0
        self._retries_delta = 0
        # per-tick door deltas feeding the SLO engine's TickSample
        self._submitted_delta = 0
        self._shed_delta = 0
        #: the most recent per-tick LoadSample (None before the first
        #: step) — the SLO layer reads it instead of re-deriving load.
        self.last_load: LoadSample | None = None

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> int:
        return self._tick

    @property
    def backlog(self) -> int:
        return self.tenants.backlog()

    @property
    def state(self) -> AdmissionState:
        return self.admission.state

    # -- submission ----------------------------------------------------------

    def submit(self, request: StreamRequest) -> StreamTicket:
        """Admit, defer, shed or reject one request at the current tick.

        The full door sequence: input validation → backlog bound →
        tenant token bucket → admission state machine.  Whatever the
        outcome, the request is accounted for: non-accepted submits get
        a terminal result immediately.
        """
        rid = self._next_id
        self._next_id += 1
        self._inc("stream.submitted")
        self._submitted_delta += 1
        req = request

        try:
            key = canonical_signature(
                req.cset, req.n_leaves, config=self.config
            )
        except ReproError as exc:
            return self._reject(rid, req, str(exc))
        if self.fabric is not None and key.n_leaves > self.fabric.leaf_width:
            return self._reject(
                rid,
                req,
                f"request needs {key.n_leaves} leaves but fabric trees "
                f"have {self.fabric.leaf_width}",
            )
        if req.deadline < 1:
            return self._reject(rid, req, f"deadline must be >= 1, got {req.deadline}")

        if self.backlog >= self.max_queue:
            return self._reject(rid, req, f"backlog full ({self.max_queue})")

        if not self.tenants.try_consume(req.tenant, self._tick):
            return self._reject(rid, req, f"tenant {req.tenant!r} over quota")

        decision = self.admission.decide(req.priority)
        if decision is AdmissionDecision.SHED:
            self._inc("stream.shed")
            self._shed_delta += 1
            self.results[rid] = StreamResult(
                request_id=rid,
                status=StreamStatus.SHED,
                tenant=req.tenant,
                priority=req.priority,
                error=f"shed in {self.admission.state.name}",
                signature=key.dyck,
            )
            return StreamTicket(
                id=rid,
                accepted=False,
                decision=decision,
                reason=f"shed in {self.admission.state.name}",
            )

        release = max(self._tick, req.release_time)
        self.tenants.enqueue(
            req.tenant,
            _Live(
                request_id=rid,
                request=req,
                key=key,
                release_tick=release,
                deadline_tick=release + req.deadline,
                eligible_tick=release,
            ),
        )
        self._gauge("stream.queue.depth", self.backlog)
        return StreamTicket(id=rid, accepted=True, decision=decision)

    def _reject(self, rid: int, req: StreamRequest, reason: str) -> StreamTicket:
        self._inc("stream.rejected")
        self.results[rid] = StreamResult(
            request_id=rid,
            status=StreamStatus.REJECTED,
            tenant=req.tenant,
            priority=req.priority,
            error=reason,
        )
        return StreamTicket(id=rid, accepted=False, reason=reason)

    # -- the tick loop -------------------------------------------------------

    def step(self) -> list[StreamResult]:
        """Advance one logical tick: expire, select fairly, batch, execute.

        Returns the results settled this tick (also recorded in
        ``self.results``).  The admission controller is sampled at the
        end of every tick from the service's own signals, so state
        transitions are driven by measured load, never by guesses.
        """
        self._tick += 1
        now = self._tick
        settled: list[StreamResult] = []

        settled.extend(self._expire(now))

        budget = self.max_inflight
        selected = self.tenants.fair_select(
            budget,
            skip=lambda live: (
                live.eligible_tick > now or self.admission.defers(live.priority)
            ),
        )

        if selected:
            settled.extend(self._drain(selected, now))

        self._sample_admission()
        if self.chaos is not None:
            self.chaos.on_settled(settled, now)
        if self.on_tick is not None:
            self.on_tick(self, settled, now)
        self._submitted_delta = 0
        self._shed_delta = 0
        if self.fabric is not None:
            self.fabric.maybe_rebalance()
        self._gauge("stream.queue.depth", self.backlog)
        return settled

    def run(
        self,
        arrivals: Iterable[StreamRequest] = (),
        *,
        max_ticks: int = 10_000,
        drain: bool = True,
    ) -> StreamReport:
        """Drive the arrival process to completion and return the report.

        ``arrivals`` is any iterable of :class:`StreamRequest`, submitted
        when the clock reaches each request's ``release_time`` (requests
        must be ordered by it).  With ``drain=True`` the loop keeps
        ticking until the backlog empties *and* the admission machine has
        walked back to GREEN — the operational definition of "recovered"
        (or until ``max_ticks`` passes — the runaway bound raises, it
        never silently truncates accounting).
        """
        for _ in self._serve(arrivals, max_ticks=max_ticks, drain=drain):
            pass
        return self.report()

    async def aserve(
        self,
        arrivals: Iterable[StreamRequest] = (),
        *,
        max_ticks: int = 10_000,
        drain: bool = True,
    ) -> StreamReport:
        """The same serving loop as :meth:`run`, yielding to the event loop
        every tick — the embedding point for real asyncio arrival sources."""
        for _ in self._serve(arrivals, max_ticks=max_ticks, drain=drain):
            await asyncio.sleep(0)
        return self.report()

    def _serve(
        self,
        arrivals: Iterable[StreamRequest],
        *,
        max_ticks: int,
        drain: bool,
    ):
        pending = sorted(arrivals, key=lambda r: r.release_time)
        i = 0
        ticks = 0
        while True:
            while i < len(pending) and pending[i].release_time <= self._tick:
                self.submit(pending[i])
                i += 1
            exhausted = i >= len(pending)
            settled = self.backlog == 0 and self.state is AdmissionState.GREEN
            if exhausted and (not drain or settled):
                break
            self.step()
            ticks += 1
            if ticks > max_ticks:
                raise SchedulingError(
                    f"stream did not settle within {max_ticks} ticks "
                    f"({self.backlog} still queued)"
                )
            yield ticks

    def report(self) -> StreamReport:
        return StreamReport(
            results=dict(self.results),
            ticks=self._tick,
            trajectory=tuple(self.admission.state_trajectory()),
            final_state=self.admission.state.name,
        )

    # -- internals: expiry ---------------------------------------------------

    def _expire(self, now: int) -> list[StreamResult]:
        # Boundary contract (locked by tests): a request is alive AT its
        # deadline_tick — served exactly then it settles DONE with
        # latency == deadline; it expires strictly after, at
        # deadline_tick + 1.  The dequeue slack (deadline_tick - now) and
        # the batch-window holdback use the same convention.
        expired: list[StreamResult] = []
        for tenant in self.tenants:
            keep = []
            for live in tenant.queue:
                if live.deadline_tick < now:
                    self._inc("stream.expired")
                    self._expired_delta += 1
                    expired.append(
                        self._record(
                            live,
                            StreamStatus.EXPIRED,
                            now,
                            error=live.last_error or "deadline exceeded",
                        )
                    )
                else:
                    keep.append(live)
            if len(keep) != len(tenant.queue):
                tenant.queue.clear()
                tenant.queue.extend(keep)
        return expired

    # -- internals: the drain path -------------------------------------------

    def _drain(self, selected: list[_Live], now: int) -> list[StreamResult]:
        # 1-2. cache hits settle without touching the execution budget;
        #      the misses dedup to one leader per placed key.
        hits, leaders, followers = self._lookup(selected)
        settled = [
            self._settle(live, payload, now, from_cache=True)
            for live, payload in hits
        ]

        # 3. same-shape grouping, then the latency-budget holdback: a lone
        #    columnar-eligible leader may wait up to batch_window ticks for
        #    shape peers, but never into its deadline slack.
        solos, lone, groups = self._group(leaders.values())
        held: list[_Live] = []
        for live in lone:
            waited = now - live.release_tick
            # same boundary convention as _expire: the request is alive
            # at deadline_tick, so slack counts the ticks it can still
            # wait and remain servable.
            slack = live.deadline_tick - now
            if (
                self.batch_window > 0
                and waited < self.batch_window
                and slack > self.batch_window
            ):
                # hold for peers; followers of a held leader hold with it.
                held.append(live)
                held.extend(followers.pop(live.key.cache_key, []))
                self._inc("stream.batch_held")
            else:
                solos.append(live)
        self._requeue_front(held)

        if groups:
            self._inc("stream.shape_batches", len(groups))
            self._inc("stream.shape_batched", sum(len(g) for g in groups))

        # 3b. an armed chaos drill may claim one solo leader: it is
        #     executed against a deliberately faulted fabric (measuring
        #     detection) and then requeued for a healthy re-execution, so
        #     its eventual payload — and parity — are untouched.
        if self.chaos is not None and solos:
            claimed: list[_Live] = []
            for victim in self.chaos.maybe_drill(solos, now):
                solos.remove(victim)
                victim.eligible_tick = now + 1  # healthy reroute next tick
                claimed.append(victim)
                claimed.extend(followers.pop(victim.key.cache_key, []))
                self._inc("stream.chaos_drills")
            self._requeue_front(claimed)

        # 4. execute — on the fabric's forest when one is attached
        #    (routed per tenant so a tenant's stream stays on one tree),
        #    inline otherwise (the streaming service is the asyncio story;
        #    pooled fan-out stays the batch service's job).
        if self.fabric is not None:
            to_run = [*solos, *(m for g in groups for m in g)]
            responses = self.fabric.execute(
                [work_request(live) for live in to_run],
                [self.fabric.route_tenant(live.tenant) for live in to_run],
            )
        else:
            responses = self._run(
                [work_request(live) for live in solos],
                [[work_request(live) for live in g] for g in groups],
            )

        # 5. the settlement ladder, shared with the batch service.
        again: list[_Live] = []
        for live, outcome, value in self._ladder(
            responses, leaders, followers, now
        ):
            if outcome == "failed":
                settled.append(self._fail(live, value, now))
            elif outcome in ("retry", "requeue"):
                if outcome == "retry":
                    self._inc("stream.retries")
                    self._retries_delta += 1
                again.append(live)
            else:
                settled.append(
                    self._settle(live, value, now, from_cache=outcome == "cached")
                )
        self._requeue_front(again)
        return settled

    def _requeue_front(self, items: list[_Live]) -> None:
        """Return items to the head of their tenants' queues in the order
        given, so a leader stays ahead of the followers that trail it."""
        by_tenant: dict[str, list[_Live]] = {}
        for live in items:
            by_tenant.setdefault(live.tenant, []).append(live)
        for tenant, queued in by_tenant.items():
            self.tenants.requeue_front(tenant, queued)

    def _settle(
        self, live: _Live, payload: dict[str, Any], now: int, *, from_cache: bool
    ) -> StreamResult:
        self._deliver(live, payload)
        self._inc("stream.done")
        self._observe_latency(now - live.release_tick, live.priority)
        return self._record(
            live, StreamStatus.DONE, now, from_cache=from_cache, payload=payload
        )

    def _fail(self, live: _Live, error: str, now: int) -> StreamResult:
        self._inc("stream.failed")
        self._failed_delta += 1
        return self._record(live, StreamStatus.FAILED, now, error=error)

    def _record(
        self, live: _Live, status: StreamStatus, now: int, **fields: Any
    ) -> StreamResult:
        result = StreamResult(
            request_id=live.request_id,
            status=status,
            tenant=live.tenant,
            priority=live.priority,
            attempts=live.attempts,
            latency_ticks=now - live.release_tick,
            signature=live.key.dyck,
            **fields,
        )
        self.results[live.request_id] = result
        return result

    # -- internals: the admission feedback loop ------------------------------

    def _sample_admission(self) -> None:
        sample = LoadSample(
            queue_fraction=self.backlog / self.max_queue,
            expired=self._expired_delta,
            failed=self._failed_delta,
            retries=self._retries_delta,
            capacity=self.max_inflight,
        )
        self._expired_delta = 0
        self._failed_delta = 0
        self._retries_delta = 0
        # the service's logical clock is the admission clock: passing the
        # tick explicitly lets the controller assert monotonic agreement,
        # so an out-of-band observe() (a drill harness double-sampling)
        # raises instead of silently skewing every recorded transition.
        self.admission.observe(sample, tick=self._tick)
        self.last_load = sample

    # -- metrics helpers -----------------------------------------------------

    def _observe_latency(self, latency: int, priority: Priority) -> None:
        if self.obs is not None:
            self.obs.metrics.observe(
                "stream.latency",
                latency,
                run=self.obs.run,
                priority=priority.name.lower(),
            )
