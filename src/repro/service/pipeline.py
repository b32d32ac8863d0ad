"""The request pipeline both services share, and the one worker executor.

:class:`RequestPipeline` holds the per-wave steps of both service drains
once: (1) cache lookup, (2) leader/follower dedup, (3) same-shape columnar
grouping, (4) execution on a :class:`WorkerExecutor` and (5) the
ok / permanent / retry / fail settlement ladder.
:class:`~repro.service.service.SchedulerService` and
:class:`~repro.service.streaming.StreamingSchedulerService` derive from it
and keep only what is their own — the batch service its queue, one wave
per tick and expiry timing; the streaming service admission, fair
selection, the ``batch_window`` holdback and the chaos-drill claim — and
each routes to an attached fabric itself.  Pending items are duck-typed:
``request_id``, ``cset``, ``key``, ``attempts``, ``eligible_tick`` and
``last_error``.

:class:`WorkerExecutor` is the one process boundary: the batch service's
pool, every fabric shard and every in-process path run through it.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import Any, Iterable, Iterator

from repro.core.config import SchedulerConfig
from repro.exceptions import ReproError, SchedulingError
from repro.io import cset_to_dict, result_from_dict, result_to_dict
from repro.obs.instrument import Instrumentation
from repro.service import worker
from repro.service.cache import ScheduleCache
from repro.service.worker import (
    WorkRequest,
    WorkResponse,
    init_worker,
    schedule_batch_request,
    schedule_many,
)

__all__ = [
    "RequestPipeline",
    "ServiceParityError",
    "SettledPayload",
    "WorkerExecutor",
    "WorkerPoolError",
]

Wave = tuple[list[Future], "float | None"]  # a started wave: futures, deadline


class ServiceParityError(ReproError):
    """A service-path schedule diverged from the direct scheduler."""


class WorkerPoolError(RuntimeError):
    """A pooled wave failed (a worker died, hung past the timeout or raised);
    the executor has already killed the pool's workers."""


class WorkerExecutor:
    """Runs worker waves in this process or on a lazy fork pool.

    ``processes <= 0`` runs inline, on
    :data:`repro.service.worker._worker_scheduler`, reinstalled whenever the
    installed config differs from this executor's (services with different
    configs share one process).  Otherwise the first wave forks a
    ``ProcessPoolExecutor`` of ``processes`` workers initialised from
    ``config``; ``timeout`` seconds (``None``: forever) bound a whole wave.

    A wave ships as one ``schedule_many`` call per worker plus one
    ``schedule_batch_request`` per same-shape group, and its responses come
    back in request order, singles first.
    """

    def __init__(
        self, config: SchedulerConfig, processes: int = 0, timeout: float | None = None
    ) -> None:
        self.config = config
        self.processes = processes
        self.timeout = timeout
        self._pool: Any = None

    def run(
        self, singles: list[WorkRequest], groups: Iterable[list[WorkRequest]] = ()
    ) -> list[WorkResponse]:
        """Execute one wave and return every request's response."""
        return self.finish(self.start(singles, groups))

    def start(
        self, singles: list[WorkRequest], groups: Iterable[list[WorkRequest]] = ()
    ) -> Wave:
        """Ship one wave without waiting for it (inline: run it now)."""
        step = max(1, -(-len(singles) // max(1, self.processes)))
        calls = [
            (schedule_many, singles[i : i + step])
            for i in range(0, len(singles), step)
        ]
        calls += [(schedule_batch_request, group) for group in groups]
        if self.processes <= 0:
            if worker._worker_config != self.config:
                init_worker(self.config.to_dict())
            futures = [Future() for _ in calls]
            for future, (fn, arg) in zip(futures, calls):
                future.set_result(fn(arg))
            return futures, None
        if self._pool is None:
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor

            fork = "fork" in mp.get_all_start_methods()
            self._pool = ProcessPoolExecutor(
                max_workers=self.processes,
                mp_context=mp.get_context("fork" if fork else None),
                initializer=init_worker,
                initargs=(self.config.to_dict(),),
            )
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        try:
            return [self._pool.submit(fn, arg) for fn, arg in calls], deadline
        except Exception as exc:  # a worker died while idle: fail this wave
            failed: Future = Future()
            failed.set_exception(exc)
            return [failed], deadline

    def finish(self, wave: Wave) -> list[WorkResponse]:
        """Wait for a started wave; on any failure kill the pool and raise
        :class:`WorkerPoolError`."""
        futures, deadline = wave
        out: list[WorkResponse] = []
        try:
            for future in futures:
                left = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                out.extend(future.result(timeout=left))
        except Exception as exc:
            self.abort()
            raise WorkerPoolError(repr(exc)) from exc
        return out

    def abort(self) -> None:
        """Kill the workers, reap them, then drop the pool (idempotent).

        Shutdown alone leaves a worker that is still running a call alive,
        and interpreter exit joins the pool's manager thread, which waits
        for that worker: a hung worker would hang the process at exit.
        So the workers are killed first; the waiting shutdown then joins
        the manager thread, which reaps every killed worker, and returns
        only once none is left behind.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            # the executor exposes its worker processes only privately
            for process in list((pool._processes or {}).values()):
                process.kill()
            pool.shutdown(wait=True, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down gracefully (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class SettledPayload:
    """Payload accessors of both services' per-request results."""

    __slots__ = ()
    payload: dict[str, Any] | None

    @property
    def result(self) -> Any | None:
        """The settled result rebuilt from its canonical serialized form: a
        :class:`~repro.core.schedule.Schedule`, or a
        :class:`~repro.core.plan.GeneralSchedule` for an arbitrary set the
        service lowered through well-nested decomposition."""
        return result_from_dict(self.payload) if self.payload else None

    @property
    def schedule(self) -> Any | None:
        """The executable round schedule (a general result's combined plan)."""
        result = self.result
        return getattr(result, "combined", result)

    @property
    def batches(self) -> int:
        """Well-nested sub-batches the request decomposed into: ``1`` when
        served directly, ``0`` while it has no schedule."""
        if not self.payload:
            return 0
        decompose = self.payload.get("decompose")
        return int(decompose["n_batches"]) if decompose else 1


def work_request(item: Any) -> WorkRequest:
    """The payload-only form of a pending item that crosses the boundary,
    built only for the misses that execute (a cache hit never needs it)."""
    return (item.request_id, cset_to_dict(item.cset), item.key.n_leaves)


class RequestPipeline:
    """The per-wave steps both services share (see the module docstring).

    ``workers`` and ``timeout`` size the service's :class:`WorkerExecutor`;
    ``workers <= 1`` runs inline.
    """

    def __init__(
        self,
        *,
        config: SchedulerConfig | None,
        cache_size: int,
        max_retries: int,
        parity_check: bool,
        fabric: Any,
        obs: "Instrumentation | None",
        run: str,
        workers: int = 1,
        timeout: float | None = None,
    ) -> None:
        if max_retries < 0:
            raise SchedulingError(f"max_retries must be >= 0, got {max_retries}")
        self.config = config if config is not None else SchedulerConfig()
        self.max_retries = max_retries
        self.parity_check = parity_check
        self.fabric = fabric
        self.obs = obs
        metrics, run = (obs.metrics, obs.run) if obs is not None else (None, run)
        self.cache = ScheduleCache(cache_size, metrics=metrics, run=run)
        processes = workers if workers > 1 else 0
        self._executor = WorkerExecutor(self.config, processes, timeout)
        self._direct = None  # lazy parity scheduler

    def _lookup(self, items: Iterable[Any]) -> tuple[list, dict, dict]:
        """Steps 1-2: ``(hits, leaders, followers)`` — cache hits with their
        payloads, one leader per placed key, and each leader's duplicates."""
        hits: list[tuple[Any, dict[str, Any]]] = []
        leaders: dict[Any, Any] = {}
        followers: dict[Any, list[Any]] = {}
        for item in items:
            payload = self.cache.get(item.key)
            if payload is not None:
                hits.append((item, payload))
            elif item.key.cache_key in leaders:
                followers.setdefault(item.key.cache_key, []).append(item)
            else:
                leaders[item.key.cache_key] = item
        return hits, leaders, followers

    def _group(self, leaders: Iterable[Any]) -> tuple[list, list, list[list]]:
        """Step 3: ``(solo, lone, groups)`` over a wave's leaders.

        ``groups`` are the same-shape columnar batches of two or more,
        ``lone`` the columnar-eligible leaders without a shape peer in this
        wave, ``solo`` the leaders the columnar kernel does not take (sizes
        the config keeps on a scalar engine, and general sets, whose keys
        are pairing-exact).
        """
        solo: list[Any] = []
        shapes: dict[tuple[int, str, str], list[Any]] = {}
        for item in leaders:
            key = item.key
            if self.config.selects_columnar(key.n_leaves) and not key.general:
                shapes.setdefault((key.n_leaves, key.dyck, key.config), []).append(item)
            else:
                solo.append(item)
        lone = [members[0] for members in shapes.values() if len(members) == 1]
        return solo, lone, [members for members in shapes.values() if len(members) > 1]

    def _run(
        self, singles: list[WorkRequest], groups: list[list[WorkRequest]]
    ) -> list[WorkResponse]:
        """Step 4: execute one wave on this service's executor.  A broken
        pool reports every request transient, to retry on a fresh pool."""
        try:
            return self._executor.run(singles, groups)
        except WorkerPoolError as exc:
            self._inc("service.pool.broken")
            err = f"worker pool failure: {exc}"
            requests = [*singles, *(r for group in groups for r in group)]
            return [(r[0], "transient", err) for r in requests]

    def _ladder(
        self, responses: list[WorkResponse], leaders: dict, followers: dict, now: int
    ) -> Iterator[tuple[Any, str, Any]]:
        """Step 5: the settlement ladder; yields ``(item, outcome, value)``.

        * ``"done"`` — a leader's fresh payload, then ``"cached"`` — each of
          its followers', from the cache entry the leader just filled;
        * ``"failed"`` — the error: a permanent one fails the leader and its
          followers, an exhausted retry budget only the leader;
        * ``"retry"`` — a transient error with budget left: the leader's
          next attempt waits until ``now + (1 << (attempts - 1))``;
        * ``"requeue"`` — a follower of a retrying or exhausted leader goes
          back to the queue unchanged and retries on its own budget.
        """
        by_id = {item.request_id: item for item in leaders.values()}
        for request_id, status, value in responses:
            leader = by_id[request_id]
            leader.attempts += 1
            tail = followers.pop(leader.key.cache_key, [])
            if status == "ok":
                self.cache.put(leader.key, value)
                yield leader, "done", value
                for item in tail:
                    hit = self.cache.get(item.key)
                    assert hit is not None
                    yield item, "cached", hit
            elif status == "permanent":
                for item in (leader, *tail):
                    yield item, "failed", str(value)
            else:
                if leader.attempts > self.max_retries:
                    yield leader, "failed", str(value)
                else:
                    leader.last_error = str(value)
                    leader.eligible_tick = now + (1 << (leader.attempts - 1))
                    yield leader, "retry", str(value)
                for item in tail:
                    yield item, "requeue", None

    def _deliver(self, item: Any, payload: dict[str, Any]) -> None:
        """Every DONE settlement: the parity check (when on) and the
        decomposition counters."""
        if self.parity_check:
            self._assert_parity(item, payload)
        decompose = payload.get("decompose")
        if decompose is not None:
            self._inc("decompose.requests")
            self._inc("decompose.batches", int(decompose.get("n_batches", 1)))

    def _assert_parity(self, item: Any, payload: dict[str, Any]) -> None:
        if self._direct is None:
            self._direct = self.config.build()
        direct = self._direct.schedule(item.cset, n_leaves=item.key.n_leaves)
        if result_to_dict(direct) != payload:
            raise ServiceParityError(
                f"request {item.request_id}: service schedule diverged from "
                f"the direct scheduler (signature {item.key.dyck!r})"
            )

    def _inc(self, name: str, amount: int = 1) -> None:
        if self.obs is not None and amount:
            self.obs.metrics.inc(name, amount, run=self.obs.run)

    def _gauge(self, name: str, value: float) -> None:
        if self.obs is not None:
            self.obs.metrics.set(name, value, run=self.obs.run)
