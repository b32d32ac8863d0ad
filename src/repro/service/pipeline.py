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
pool, every fabric shard and every in-process path run through it.  An
executor with a pool sends a wave there only when :class:`WaveCost`'s
measured rule says the pool pays back its round trip (:func:`dispatch`);
otherwise the wave runs through the same worker functions in this process.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import Any, Callable, Iterable, Iterator

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
    timed_call,
)

__all__ = [
    "RequestPipeline",
    "ServiceParityError",
    "SettledPayload",
    "WaveCost",
    "WorkerExecutor",
    "WorkerPoolError",
    "dispatch",
    "pin_dispatch",
    "predicted_units",
    "record_dispatch",
    "usable_cpus",
]

Wave = tuple[list[Future], "float | None"]  # a started wave: futures, deadline
#: one worker call: ``schedule_many`` or ``schedule_batch_request`` and its requests
Call = tuple[Callable[[list[WorkRequest]], list[WorkResponse]], list[WorkRequest]]


class ServiceParityError(ReproError):
    """A service-path schedule diverged from the direct scheduler."""


class WorkerPoolError(RuntimeError):
    """A pooled wave failed (a worker died, hung past the timeout or raised);
    the executor has already killed the pool's workers."""


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


#: predicted work a request costs on top of ``pairs x (log2(n) + 1)``: its
#: decode, result encoding and set-up, about a 48-pair-level kernel run
REQUEST_UNITS = 48


def predicted_units(requests: Iterable[WorkRequest]) -> int:
    """A wave's predicted compute, in pair-levels.

    The kernel's work follows each pair's two leaf-to-LCA paths, so a
    request costs about ``pairs x log2(n)`` plus a fixed part; timed runs
    turn units into seconds (:class:`WaveCost`).  A malformed payload
    counts as empty: the worker rejects it at once.
    """
    units = 0
    for _, data, n_leaves in requests:
        comms = data.get("comms") if isinstance(data, dict) else None
        pairs = len(comms) if isinstance(comms, list) else 0
        depth = n_leaves.bit_length() if isinstance(n_leaves, int) else 1
        units += pairs * depth + REQUEST_UNITS
    return units


class WaveCost:
    """The dispatch rule and the measurements it reads.

    A wave of ``units`` predicted work (:func:`predicted_units`), shipped
    as ``calls`` worker calls to ``processes`` worker processes, goes to
    the pool only when ::

        units * (inline_s - pooled_s / C)  >  overhead_s,   C = min(calls, processes, cpus)

    that is, when the compute the other ``C - 1`` processes take off the
    critical path pays back what a pooled wave adds.  With one cost per
    unit on both sides this is ``compute * (1 - 1/C) > overhead``; the two
    are kept apart because a worker's compute runs measurably slower per
    unit than the same calls in this process (1.4-1.8x on a 2-vCPU host,
    where the workers share the CPUs with the parent).  Nothing is
    configured:

    * ``inline_s`` — seconds per unit of in-process waves, timed here;
    * ``pooled_s`` — seconds per unit the workers report for pooled calls;
    * ``overhead_s`` — a pooled wave's wall time minus its busiest
      worker's reported compute (the slowest call when each worker runs
      one; a wave with shape groups can have more calls than workers).

    Each is the median of its last :attr:`SAMPLES` samples.  A wave that
    forked the pool gives no sample (the fork is paid once, not per wave),
    and nor does a wave during which this process ran a full garbage
    collection: the pause lands on whichever side happens to be running,
    so it measures neither.

    A side counts as measured once it has :attr:`MEASURED` samples (one
    early worker sample can read 2x the next); until then it is tried:
    the pool first (every eligible wave — ``C >= 2`` — goes there), then
    this process.  Every :attr:`REFRESH`-th eligible wave goes to the side
    the rule did not pick, so neither side's numbers go stale.

    The sample lists and ``cpus`` are plain attributes: a test substitutes
    them to fix a decision.  ``pinned`` (see :func:`pin_dispatch`)
    overrides the rule with a fixed side; samples are still taken.
    """

    SAMPLES = 9
    MEASURED = 3
    REFRESH = 64

    def __init__(self) -> None:
        self.pinned: bool | None = None
        self.cpus = usable_cpus()
        self.inline_samples: list[float] = []
        self.pooled_samples: list[float] = []
        self.overhead_samples: list[float] = []
        self._eligible = 0

    def pooled(self, units: int, calls: int, processes: int) -> bool:
        """Whether a wave goes to the pool (the rule above)."""
        if self.pinned is not None:
            return self.pinned
        c = min(calls, processes, self.cpus)
        if c < 2:
            return False
        if len(self.overhead_samples) < self.MEASURED:
            return True
        if len(self.inline_samples) < self.MEASURED:
            return False
        inline, pooled, overhead = (
            _median(samples)
            for samples in (self.inline_samples, self.pooled_samples, self.overhead_samples)
        )
        choice = units * (inline - pooled / c) > overhead
        self._eligible += 1
        return not choice if self._eligible % self.REFRESH == 0 else choice

    def add_inline(self, units: int, seconds: float) -> None:
        if units > 0:
            _push(self.inline_samples, seconds / units, self.SAMPLES)

    def add_pooled(self, units: int, compute: float, overhead: float) -> None:
        if units > 0:
            _push(self.pooled_samples, compute / units, self.SAMPLES)
            _push(self.overhead_samples, overhead, self.SAMPLES)


def _median(samples: list[float]) -> float:
    return sorted(samples)[len(samples) // 2]


def _push(samples: list[float], value: float, keep: int) -> None:
    samples.append(value)
    if len(samples) > keep:
        del samples[0]


class WorkerExecutor:
    """Runs worker waves in this process or on a lazy fork pool.

    ``processes <= 0`` has no pool: every wave runs here, untimed.
    Otherwise the first pooled wave forks a ``ProcessPoolExecutor`` of
    ``processes`` workers initialised from ``config``, and :meth:`run` sends
    a wave there only when :attr:`cost`'s rule says it pays
    (:func:`dispatch`).  ``timeout`` seconds (``None``: forever) bound a
    whole pooled wave.  In-process waves run on
    :data:`repro.service.worker._worker_scheduler`, reinstalled whenever the
    installed config differs from this executor's (services with different
    configs share one process).

    A wave is one ``schedule_many`` call per worker plus one
    ``schedule_batch_request`` per same-shape group (:meth:`calls`), and its
    responses come back in request order, singles first.
    """

    def __init__(
        self, config: SchedulerConfig, processes: int = 0, timeout: float | None = None
    ) -> None:
        self.config = config
        self.processes = processes
        self.timeout = timeout
        #: the dispatch rule's measurements (``None``: no pool)
        self.cost = WaveCost() if processes > 0 else None
        self._pool: Any = None

    def calls(
        self, singles: list[WorkRequest], groups: Iterable[list[WorkRequest]] = ()
    ) -> list[Call]:
        """A wave as worker calls: the singles split evenly over the
        workers, then one call per same-shape group."""
        step = max(1, -(-len(singles) // max(1, self.processes)))
        calls: list[Call] = [
            (schedule_many, singles[i : i + step])
            for i in range(0, len(singles), step)
        ]
        calls += [(schedule_batch_request, group) for group in groups]
        return calls

    def run(
        self, singles: list[WorkRequest], groups: Iterable[list[WorkRequest]] = ()
    ) -> list[WorkResponse]:
        """Execute one wave and return every request's response; a failed
        pooled wave raises :class:`WorkerPoolError`."""
        calls = self.calls(singles, groups)
        if self.cost is None:
            return self.inline(calls)
        (out,), _, _ = dispatch(self.cost, [(self, calls)])
        if isinstance(out, WorkerPoolError):
            raise out
        return out

    def inline(self, calls: list[Call]) -> list[WorkResponse]:
        """Run a wave's calls in this process."""
        if worker._worker_config != self.config:
            init_worker(self.config.to_dict())
        out: list[WorkResponse] = []
        for fn, requests in calls:
            out.extend(fn(requests))
        return out

    def submit(self, calls: list[Call]) -> Wave:
        """Ship a wave's calls to the pool without waiting for them,
        forking the pool first if needed."""
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
            return [self._pool.submit(timed_call, fn, arg) for fn, arg in calls], deadline
        except Exception as exc:  # a worker died while idle: fail this wave
            failed: Future = Future()
            failed.set_exception(exc)
            return [failed], deadline

    def finish(
        self, wave: Wave, reports: list[tuple[int, float]] | None = None
    ) -> list[WorkResponse]:
        """Wait for a started wave; on any failure kill the pool and raise
        :class:`WorkerPoolError`.  Each call's ``(worker pid, compute
        seconds)`` is appended to ``reports`` when given."""
        futures, deadline = wave
        out: list[WorkResponse] = []
        try:
            for future in futures:
                left = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                responses, seconds, pid = future.result(timeout=left)
                out.extend(responses)
                if reports is not None:
                    reports.append((pid, seconds))
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


#: one wave's share for one executor: its calls
Lane = tuple[WorkerExecutor, list[Call]]


def dispatch(
    cost: WaveCost, lanes: list[Lane]
) -> tuple[list["list[WorkResponse] | WorkerPoolError"], bool, float | None]:
    """Run one wave — each lane's calls on its executor — by ``cost``'s rule.

    The batch service's wave is one lane on its pool; a fabric wave is one
    lane per involved shard, each on its shard's single-process pool, so
    ``processes`` is their sum.  In-process waves are timed here; pooled
    calls report their own compute, and the wave's overhead is its wall
    time minus the busiest worker's compute (:class:`WaveCost` says which
    waves give no sample).  Returns each lane's responses
    (or the :class:`WorkerPoolError` its pool raised — that lane's workers
    are already killed), whether the wave went to the pool, and the
    overhead sample it gave in seconds (``None``: none).
    """
    units = predicted_units(r for _, calls in lanes for _, requests in calls for r in requests)
    processes = sum(executor.processes for executor, _ in lanes)
    collections = _full_collections()
    if not cost.pooled(units, sum(len(calls) for _, calls in lanes), processes):
        start = time.perf_counter()
        results: list[Any] = [executor.inline(calls) for executor, calls in lanes]
        if _full_collections() == collections:
            cost.add_inline(units, time.perf_counter() - start)
        return results, False, None
    forks = any(executor._pool is None for executor, _ in lanes)
    reports: list[tuple[int, float]] = []
    start = time.perf_counter()
    waves = [executor.submit(calls) for executor, calls in lanes]
    results = []
    for (executor, _), wave in zip(lanes, waves):
        try:
            results.append(executor.finish(wave, reports))
        except WorkerPoolError as exc:
            results.append(exc)
    wall = time.perf_counter() - start
    if forks or _full_collections() != collections or any(
        isinstance(r, WorkerPoolError) for r in results
    ):
        return results, True, None
    busy: dict[int, float] = {}
    for pid, seconds in reports:
        busy[pid] = busy.get(pid, 0.0) + seconds
    overhead = max(0.0, wall - max(busy.values(), default=0.0))
    cost.add_pooled(units, sum(busy.values()), overhead)
    return results, True, overhead


def _full_collections() -> int:
    """Full garbage collections this process has run so far."""
    import gc

    return gc.get_stats()[2]["collections"]


def pin_dispatch(target: Any, pooled: bool | None) -> None:
    """Pin the waves of a batch service's, fabric's or executor's pool:
    ``True`` to the pool, ``False`` to this process, ``None`` back to the
    measured rule.  Tests that fork, kill or hang workers pin the pool so
    no assertion depends on timing; benchmarks pin a side to measure it.
    """
    owner = getattr(target, "_executor", target)
    if owner.cost is None:
        if pooled:
            raise SchedulingError(f"{type(target).__name__} has no worker pool to pin")
        return
    owner.cost.pinned = pooled


#: bucket bounds of the ``*.pool.overhead_ms`` histograms
OVERHEAD_BUCKETS_MS = tuple(2.0**k for k in range(-4, 9))


def record_dispatch(
    obs: "Instrumentation | None", prefix: str, pooled: bool, overhead_s: float | None
) -> None:
    """Count one dispatched wave (``<prefix>.dispatch.inline`` / ``.pooled``)
    and add its overhead sample to ``<prefix>.pool.overhead_ms``."""
    if obs is None:
        return
    obs.metrics.inc(f"{prefix}.dispatch.{'pooled' if pooled else 'inline'}", run=obs.run)
    if overhead_s is not None:
        obs.metrics.histogram(
            f"{prefix}.pool.overhead_ms", buckets=OVERHEAD_BUCKETS_MS, run=obs.run
        ).observe(overhead_s * 1e3)


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
        """Step 4: execute one wave on this service's executor — in this
        process unless the dispatch rule sends it to the pool.  A broken
        pool reports every request transient, to retry on a fresh pool."""
        executor = self._executor
        try:
            if executor.cost is None:
                return executor.run(singles, groups)
            (out,), pooled, overhead = dispatch(
                executor.cost, [(executor, executor.calls(singles, groups))]
            )
            record_dispatch(self.obs, "service", pooled, overhead)
            if isinstance(out, WorkerPoolError):
                raise out
            return out
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
