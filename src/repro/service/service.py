""":class:`SchedulerService` — submit/drain batch scheduling with admission
control, a canonical schedule cache and a worker pool.

The service turns the one-shot scheduler into a serving component:

* **submit** applies admission control.  The queue is bounded; a submit
  against a full queue is *rejected at the door* (a ticket that says so,
  not an exception) — overload sheds load instead of growing without
  bound.  Each accepted request carries a deadline in logical ticks.
* **drain** settles every accepted request, one wave per tick, through
  the shared request pipeline (:mod:`repro.service.pipeline`): repeats are
  served from the :class:`~repro.service.cache.ScheduleCache`, misses run
  on the service's :class:`~repro.service.pipeline.WorkerExecutor` — a
  fork pool of ``workers`` processes, or inline for ``workers <= 1`` —
  or on an attached fabric.  Transient failures retry under the recovery
  subsystem's deterministic exponential backoff; requests that outlive
  their deadline expire.  Every submitted request is accounted for in the
  :class:`BatchReport` — the service degrades, it does not crash.

Time is a *logical tick clock* advanced by the drain loop, so backoff and
deadlines are deterministic and testable — the same discipline the
recovery loop uses with idle committed rounds.

Parity is a first-class mode: with ``parity_check=True`` every settled
schedule — cache hit or pool result — is compared, at the serialized
level, against a direct ``PADRScheduler`` run in this process, and a
mismatch raises :class:`ServiceParityError`.  The CI smoke gate runs the
whole batch this way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable

from repro.comms.communication import CommunicationSet
from repro.core.config import SchedulerConfig
from repro.core.schedule import Schedule
from repro.exceptions import ReproError, SchedulingError
from repro.obs.instrument import Instrumentation
from repro.service.cache import CanonicalKey, canonical_signature
from repro.service.pipeline import (
    RequestPipeline,
    ServiceParityError,
    SettledPayload,
    work_request,
)
from repro.service.worker import WorkRequest, WorkResponse

__all__ = [
    "BatchReport",
    "RequestResult",
    "RequestStatus",
    "SchedulerService",
    "ServiceParityError",
    "Ticket",
]


class RequestStatus(enum.Enum):
    DONE = "done"
    REJECTED = "rejected"
    EXPIRED = "expired"
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class Ticket:
    """The receipt a submit returns; rejection is a ticket, not an error."""

    id: int
    accepted: bool
    reason: str | None = None


@dataclass(frozen=True, slots=True)
class RequestResult(SettledPayload):
    """The settled fate of one submitted request."""

    ticket_id: int
    status: RequestStatus
    from_cache: bool = False
    attempts: int = 0
    wait_ticks: int = 0
    payload: dict[str, Any] | None = None
    error: str | None = None
    signature: str | None = None  # relabelling-invariant Dyck word


@dataclass(frozen=True, slots=True)
class BatchReport:
    """One drain's complete accounting: every ticket settles exactly once."""

    results: dict[int, RequestResult]
    ticks: int
    waves: int

    def _count(self, status: RequestStatus) -> int:
        return sum(1 for r in self.results.values() if r.status is status)

    @property
    def n_done(self) -> int:
        return self._count(RequestStatus.DONE)

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.results.values() if r.from_cache)

    @property
    def n_rejected(self) -> int:
        return self._count(RequestStatus.REJECTED)

    @property
    def n_expired(self) -> int:
        return self._count(RequestStatus.EXPIRED)

    @property
    def n_failed(self) -> int:
        return self._count(RequestStatus.FAILED)

    @property
    def hit_rate(self) -> float:
        done = self.n_done
        return self.n_cached / done if done else 0.0

    def schedules(self) -> dict[int, Schedule]:
        """Ticket id → rebuilt schedule, for every DONE request."""
        return {
            tid: r.schedule  # type: ignore[misc]
            for tid, r in self.results.items()
            if r.status is RequestStatus.DONE and r.payload is not None
        }

    def summary(self) -> str:
        return (
            f"batch: {self.n_done} done ({self.n_cached} cached), "
            f"{self.n_rejected} rejected, {self.n_expired} expired, "
            f"{self.n_failed} failed, {self.waves} wave(s), {self.ticks} tick(s)"
        )


@dataclass(slots=True)
class _Pending:
    request_id: int  # the ticket id
    cset: CommunicationSet
    key: CanonicalKey
    submit_tick: int = 0
    deadline_ticks: int = 0
    attempts: int = 0
    eligible_tick: int = 0
    last_error: str | None = None


class SchedulerService(RequestPipeline):
    """Batched PADR scheduling behind admission control and a cache.

    Parameters
    ----------
    config:
        the :class:`~repro.core.config.SchedulerConfig` every schedule —
        local, cached or pooled — is computed under.
    workers:
        fan-out width.  ``<= 1`` schedules inline (no processes spawned);
        ``> 1`` lazily forks a pool of that many workers, initialised
        from ``config``.
    cache_size / max_queue:
        LRU capacity and the admission-control bound.
    default_deadline:
        per-request deadline in logical ticks (overridable per submit).
    max_retries:
        transient-failure retries before a request is FAILED.
    pool_timeout:
        seconds to wait for one pooled wave before declaring the pool
        broken.  A dead worker surfaces at once; the timeout is the
        backstop for a *hung* one.  Either way the pool's workers are
        killed and the wave's requests retry as transient failures on a
        fresh pool.  ``None`` waits forever.
    parity_check:
        re-run every settled request through a direct in-process
        ``PADRScheduler`` and require serialized equality.
    fabric:
        optional :class:`~repro.fabric.FabricController`.  When given,
        execution fans out across the fabric's forest of CSTs instead of
        this service's own pool: each request is routed to the shard its
        relabelling-invariant canonical signature hashes to, so repeats
        land on the same tree and the shared cache keeps working.
        Requests wider than the fabric's ``leaf_width`` are rejected at
        the door.  The service does *not* own the fabric — close it
        separately (it is its own context manager).
    obs:
        optional :class:`~repro.obs.Instrumentation`; the service emits
        ``service.*`` counters/gauges and a ``service.drain`` span, and
        the cache emits ``service.cache.*``.
    """

    def __init__(
        self,
        *,
        config: SchedulerConfig | None = None,
        workers: int = 1,
        cache_size: int = 256,
        max_queue: int = 1024,
        default_deadline: int = 64,
        max_retries: int = 3,
        pool_timeout: float | None = 120.0,
        parity_check: bool = False,
        fabric: Any = None,
        obs: "Instrumentation | None" = None,
    ) -> None:
        if workers < 0:
            raise SchedulingError(f"workers must be >= 0, got {workers}")
        if max_queue < 1:
            raise SchedulingError(f"max_queue must be >= 1, got {max_queue}")
        if default_deadline < 1:
            raise SchedulingError(
                f"default_deadline must be >= 1, got {default_deadline}"
            )
        super().__init__(
            config=config,
            cache_size=cache_size,
            max_retries=max_retries,
            parity_check=parity_check,
            fabric=fabric,
            obs=obs,
            run="service",
            workers=workers,
            timeout=pool_timeout,
        )
        self.workers = workers
        self.max_queue = max_queue
        self.default_deadline = default_deadline
        self.pool_timeout = pool_timeout
        self._queue: list[_Pending] = []
        self._rejected: list[RequestResult] = []
        self._next_id = 0
        self._tick = 0

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        cset: CommunicationSet,
        *,
        n_leaves: int | None = None,
        deadline: int | None = None,
    ) -> Ticket:
        """Admit (or reject) one communication set for the next drain."""
        ticket_id = self._next_id
        self._next_id += 1
        self._inc("service.submitted")
        if len(self._queue) >= self.max_queue:
            return self._reject(ticket_id, f"queue full ({self.max_queue})")
        # canonicalisation doubles as admission validation: oversized sets
        # — and, unless config.decompose="auto" admits them for well-nested
        # decomposition, wrongly-oriented ones — are turned away here, not
        # in a worker.
        try:
            key = canonical_signature(cset, n_leaves, config=self.config)
        except ReproError as exc:
            return self._reject(ticket_id, str(exc))
        if self.fabric is not None and key.n_leaves > self.fabric.leaf_width:
            return self._reject(
                ticket_id,
                f"request needs {key.n_leaves} leaves but fabric trees "
                f"have {self.fabric.leaf_width}",
            )
        self._queue.append(
            _Pending(
                request_id=ticket_id,
                cset=cset,
                key=key,
                submit_tick=self._tick,
                deadline_ticks=(
                    deadline if deadline is not None else self.default_deadline
                ),
                eligible_tick=self._tick,
            )
        )
        self._gauge("service.queue.depth", len(self._queue))
        return Ticket(id=ticket_id, accepted=True)

    def _reject(self, ticket_id: int, reason: str) -> Ticket:
        self._inc("service.rejected")
        self._rejected.append(
            RequestResult(
                ticket_id=ticket_id, status=RequestStatus.REJECTED, error=reason
            )
        )
        return Ticket(id=ticket_id, accepted=False, reason=reason)

    def submit_many(
        self, csets: Iterable[CommunicationSet], *, n_leaves: int | None = None
    ) -> list[Ticket]:
        return [self.submit(cs, n_leaves=n_leaves) for cs in csets]

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- draining ------------------------------------------------------------

    def drain(self) -> BatchReport:
        """Settle every queued request and return the full accounting.

        If settlement itself raises — a :class:`ServiceParityError`, a
        corrupt payload — the worker pool is killed before the exception
        propagates: a drain abandoned mid-wave must not leave live worker
        processes behind, and the pool's state can no longer be trusted
        anyway.  The next drain lazily forks a fresh pool.
        """
        try:
            obs = self.obs
            if obs is None:
                return self._drain()
            with obs.metrics.span("service.drain", run=obs.run):
                return self._drain()
        except BaseException:
            self._executor.abort()
            raise

    def _drain(self) -> BatchReport:
        results: dict[int, RequestResult] = {
            r.ticket_id: r for r in self._rejected
        }
        self._rejected = []
        active = self._queue
        self._queue = []
        self._gauge("service.queue.depth", 0)
        start_tick = self._tick
        waves = 0

        while active:
            # one wave per tick; idle forward when everything is backing off.
            next_eligible = min(p.eligible_tick for p in active)
            self._tick = max(self._tick + 1, next_eligible)
            waves += 1

            wave = [p for p in active if p.eligible_tick <= self._tick]
            later = [p for p in active if p.eligible_tick > self._tick]

            expired = [
                p for p in wave if self._tick - p.submit_tick > p.deadline_ticks
            ]
            wave = [
                p for p in wave if self._tick - p.submit_tick <= p.deadline_ticks
            ]
            for p in expired:
                self._inc("service.expired")
                results[p.request_id] = self._result(
                    p, RequestStatus.EXPIRED, error=p.last_error or "deadline exceeded"
                )

            hits, leaders, followers = self._lookup(wave)
            for p, payload in hits:
                results[p.request_id] = self._settle(p, payload, from_cache=True)

            retry: list[_Pending] = []
            if leaders:
                responses = self._execute(list(leaders.values()))
                for p, outcome, value in self._ladder(
                    responses, leaders, followers, self._tick
                ):
                    if outcome == "failed":
                        self._inc("service.failed")
                        results[p.request_id] = self._result(
                            p, RequestStatus.FAILED, error=value
                        )
                    elif outcome in ("retry", "requeue"):
                        if outcome == "retry":
                            self._inc("service.retries")
                        retry.append(p)
                    else:
                        results[p.request_id] = self._settle(
                            p, value, from_cache=outcome == "cached"
                        )

            active = later + retry

        if self.fabric is not None:
            self.fabric.maybe_rebalance()
        report = BatchReport(
            results=results, ticks=self._tick - start_tick, waves=waves
        )
        self._inc("service.done", report.n_done)
        return report

    def __call__(
        self, csets: Iterable[CommunicationSet], *, n_leaves: int | None = None
    ) -> BatchReport:
        """Submit a batch and drain it — the one-line service call."""
        self.submit_many(csets, n_leaves=n_leaves)
        return self.drain()

    # -- execution -----------------------------------------------------------

    def _execute(self, pending: list[_Pending]) -> list[WorkResponse]:
        """Run one wave's leaders: on the fabric, routed by signature, or
        shape-grouped on this service's executor."""
        if self.fabric is not None:
            return self.fabric.execute(
                [work_request(p) for p in pending],
                [self.fabric.route(p.key) for p in pending],
            )
        return self._run(*self._shape_groups(pending))

    def _shape_groups(
        self, pending: list[_Pending]
    ) -> tuple[list[WorkRequest], list[list[WorkRequest]]]:
        """Split a wave into solo requests and same-shape columnar batches."""
        solo, lone, groups = self._group(pending)
        if groups:
            self._inc("service.shape_batches", len(groups))
            self._inc("service.shape_batched", sum(len(g) for g in groups))
        return (
            [work_request(p) for p in (*solo, *lone)],
            [[work_request(p) for p in group] for group in groups],
        )

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._executor.close()

    def __enter__(self) -> "SchedulerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- settlement ----------------------------------------------------------

    def _settle(
        self, p: _Pending, payload: dict[str, Any], *, from_cache: bool
    ) -> RequestResult:
        self._deliver(p, payload)
        return self._result(
            p, RequestStatus.DONE, from_cache=from_cache, payload=payload
        )

    def _result(
        self, p: _Pending, status: RequestStatus, **fields: Any
    ) -> RequestResult:
        return RequestResult(
            ticket_id=p.request_id,
            status=status,
            attempts=p.attempts,
            wait_ticks=self._tick - p.submit_tick,
            signature=p.key.dyck,
            **fields,
        )
