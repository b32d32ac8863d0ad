"""The worker side of every process boundary: pure-payload functions.

Nothing rich crosses the process boundary.  A request ships as
``(ticket_id, cset payload, n_leaves)`` where the payload is
:func:`repro.io.cset_to_dict` output; the response comes back as
``(ticket_id, status, payload)`` where the payload is
:func:`repro.io.result_to_dict` output on success or an error string
otherwise.  A worker builds its scheduler once, in :func:`init_worker`,
from a :class:`~repro.core.config.SchedulerConfig` dict — the single
config object the caller forwards — so every worker schedules under
exactly the configuration the caller selected.

Status discrimination mirrors the recovery subsystem's split: a
:class:`~repro.exceptions.ReproError` means the *request* is bad
(non-well-nested, oversized — retrying cannot help, status
``"permanent"``), any other exception is treated as transient
infrastructure trouble and left to the service's retry/backoff loop
(status ``"transient"``).

:class:`~repro.service.pipeline.WorkerExecutor` calls these functions in
a forked pool worker (through :func:`timed_call`, which reports each call's
compute to the executor's dispatch rule) or in the caller's own process on
:data:`_worker_scheduler` — the pooled and the in-process paths are one
code path with one behaviour.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.config import SchedulerConfig
from repro.exceptions import ReproError
from repro.io import config_from_dict, cset_from_dict, result_to_dict, schedule_to_dict

__all__ = [
    "WorkRequest",
    "WorkResponse",
    "init_worker",
    "schedule_batch_request",
    "schedule_many",
    "schedule_request",
    "timed_call",
]

#: (ticket_id, serialized communication set, n_leaves)
WorkRequest = tuple[int, dict[str, Any], int]
#: (ticket_id, "ok" | "transient" | "permanent", schedule payload | error)
WorkResponse = tuple[int, str, Any]

_worker_scheduler = None
_worker_config: SchedulerConfig | None = None


def init_worker(config_data: dict[str, Any]) -> None:
    """Install this process's scheduler (the pool initializer).

    The config round-trips the same ``io``-level dict form the service
    ships across the process boundary, so engine selection (columnar /
    fast / reference) is honoured verbatim in every worker — the pooled
    path never silently falls back.
    """
    global _worker_scheduler, _worker_config
    _worker_config = config_from_dict(config_data)
    _worker_scheduler = _worker_config.build()


def schedule_request(request: WorkRequest) -> WorkResponse:
    """Schedule one serialized request; never raises across the boundary."""
    ticket_id, cset_data, n_leaves = request
    if _worker_scheduler is None:  # pragma: no cover - misuse guard
        return (ticket_id, "transient", "worker not initialised")
    try:
        cset = cset_from_dict(cset_data)
        result = _worker_scheduler.schedule(cset, n_leaves=n_leaves)
        # plain schedule payload for well-nested inputs, general-schedule
        # payload when config.decompose="auto" lowered an arbitrary set
        return (ticket_id, "ok", result_to_dict(result))
    except ReproError as exc:
        return (ticket_id, "permanent", str(exc))
    except Exception as exc:  # infrastructure trouble: retryable
        return (ticket_id, "transient", f"{type(exc).__name__}: {exc}")


def schedule_batch_request(requests: list[WorkRequest]) -> list[WorkResponse]:
    """Schedule a same-shape group through one columnar kernel invocation.

    Results are bit-identical to :func:`schedule_request` per request
    (the batch kernel's parity contract), so the service may group freely.
    Any failure inside the batched path — one bad set, a kernel guard, an
    infrastructure error — falls back to per-request scheduling so each
    ticket still settles with its own precise status.
    """
    if _worker_config is None:  # pragma: no cover - misuse guard
        return [(tid, "transient", "worker not initialised") for tid, _, _ in requests]
    try:
        from repro.core.columnar import schedule_batch

        csets = [cset_from_dict(data) for _, data, _ in requests]
        schedules = schedule_batch(
            csets, n_leaves=requests[0][2], config=_worker_config
        )
        return [
            (tid, "ok", schedule_to_dict(s))
            for (tid, _, _), s in zip(requests, schedules)
        ]
    except Exception:
        return [schedule_request(r) for r in requests]


def schedule_many(requests: list[WorkRequest]) -> list[WorkResponse]:
    """Schedule a *heterogeneous* batch in one worker call.

    The executor ships a wave's solo requests as one pickled call per
    worker — per fabric shard, per pool worker — so a wave costs one IPC
    round trip per worker, not per request.  Unlike
    :func:`schedule_batch_request` the requests need not share a shape;
    each settles independently with its own status.
    """
    return [schedule_request(r) for r in requests]


def timed_call(
    fn: Callable[[list[WorkRequest]], list[WorkResponse]], requests: list[WorkRequest]
) -> tuple[list[WorkResponse], float, int]:
    """Run one pooled call; return its responses, the seconds of compute it
    took and this worker's pid (the executor's dispatch rule reads both)."""
    import os
    import time

    start = time.perf_counter()
    responses = fn(requests)
    return responses, time.perf_counter() - start, os.getpid()
