"""The scheduling service layer: batch scheduling as a serving problem.

The paper's algorithm schedules one well-nested set; the ROADMAP's
north-star serves heavy traffic of many such sets.  This package closes
that gap with three orthogonal pieces:

* :mod:`repro.service.cache` — an S3-FIFO schedule cache keyed in
  O(pairs) on the exact pairing, so a workload that repeats (the common
  case for phase-structured algorithms on the SRGA) pays for scheduling
  once;
* :mod:`repro.service.worker` — the worker side of every process
  boundary: an initializer that rebuilds a
  :class:`~repro.core.config.SchedulerConfig`, and request functions whose
  inputs and outputs are plain JSON-able payloads (via :mod:`repro.io`);
* :mod:`repro.service.pipeline` — the request pipeline both services
  drain through (cache, dedup, shape grouping, execute, settle) and
  :class:`~repro.service.pipeline.WorkerExecutor`, the one executor for
  pools, fabric shards and in-process runs;
* :mod:`repro.service.service` — :class:`SchedulerService`, the
  submit/drain façade with admission control, per-request deadlines and
  deterministic retry backoff.

On top of the batch layer, the *streaming* layer serves continuous
arrival:

* :mod:`repro.service.admission` — the GREEN/YELLOW/SOFT_RED/RED
  load-aware admission machine (immediate escalation, earned stepwise
  recovery) plus the priority policy table;
* :mod:`repro.service.tenants` — per-tenant token-bucket quotas and
  deficit-round-robin weighted-fair dequeue;
* :mod:`repro.service.streaming` — :class:`StreamingSchedulerService`,
  the long-running online service tying both to the same request
  pipeline the batch service drains through.

Everything a service path returns is bit-identical (at the serialized
level of :func:`repro.io.schedule_to_dict`) to a direct
``PADRScheduler().schedule(cset)`` call — asserted by the parity machinery,
not assumed.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionState,
    AdmissionThresholds,
    LoadSample,
    Priority,
)
from repro.service.cache import CanonicalKey, ScheduleCache, canonical_signature
from repro.service.service import (
    BatchReport,
    RequestResult,
    RequestStatus,
    SchedulerService,
    ServiceParityError,
    Ticket,
)
from repro.service.streaming import (
    StreamReport,
    StreamRequest,
    StreamResult,
    StreamStatus,
    StreamTicket,
    StreamingSchedulerService,
)
from repro.service.tenants import TenantQuota, TenantRegistry, TenantState
from repro.service.workloads import arbitrary_workloads, mixed_workloads

__all__ = [
    "arbitrary_workloads",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionState",
    "AdmissionThresholds",
    "BatchReport",
    "CanonicalKey",
    "LoadSample",
    "Priority",
    "RequestResult",
    "RequestStatus",
    "ScheduleCache",
    "SchedulerService",
    "ServiceParityError",
    "StreamReport",
    "StreamRequest",
    "StreamResult",
    "StreamStatus",
    "StreamTicket",
    "StreamingSchedulerService",
    "TenantQuota",
    "TenantRegistry",
    "TenantState",
    "Ticket",
    "canonical_signature",
    "mixed_workloads",
]
