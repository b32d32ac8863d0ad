"""Serialization: workloads and schedules to/from JSON.

Lets users pin down workload suites (e.g. regression corpora of
communication sets), archive schedules produced on one machine and verify
them on another, and feed external tools.  The format is deliberately
plain:

.. code-block:: json

    {"format": "cst-padr/communication-set", "version": 1, "schema": 2,
     "comms": [[0, 7], [1, 2]]}

Schedules export everything the verifier needs (observed per-round
deliveries) plus the power report; they are re-verifiable after a
round-trip without re-running the scheduler.

Schema evolution
----------------

Payloads carry an explicit ``"schema"`` integer.  Schema 1 (the original
release) predates the field, so a payload without one *is* schema 1;
schema 2 introduced the field itself, schema 3 added the fabric layer's
shard-annotated payloads (fabric plans and fabric schedules, whose
per-shard sections carry explicit shard ids), and schema 4 adds the
decomposition-annotated general-schedule payload (an arbitrary set
scheduled as a sequence of well-nested batches, with the batch and
packing accounting alongside the combined executed schedule).  The
current writers emit :data:`SCHEDULE_SCHEMA` (= 4).  Loaders accept the
current schema and the previous one — the read window is (3, 4) —
exactly what the service layer's schedule cache and batch results need
to round-trip safely across one release boundary — and reject anything
newer *or older* with a clear error instead of misreading it.  The
legacy ``"version"`` field is still written for old readers, which
ignore ``"schema"``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.comms.communication import Communication, CommunicationSet
from repro.core.schedule import RoundRecord, Schedule
from repro.cst.power import PowerReport
from repro.exceptions import ReproError

__all__ = [
    "SCHEDULE_SCHEMA",
    "SerializationError",
    "config_to_dict",
    "config_from_dict",
    "cset_to_dict",
    "cset_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "general_schedule_to_dict",
    "general_schedule_from_dict",
    "result_to_dict",
    "result_from_dict",
    "stream_request_to_dict",
    "stream_request_from_dict",
    "fabric_plan_to_dict",
    "fabric_plan_from_dict",
    "fabric_schedule_to_dict",
    "fabric_schedule_from_dict",
    "save_arrivals",
    "load_arrivals",
    "save_workloads",
    "load_workloads",
]

_CSET_FORMAT = "cst-padr/communication-set"
_SCHEDULE_FORMAT = "cst-padr/schedule"
_SUITE_FORMAT = "cst-padr/workload-suite"
_CONFIG_FORMAT = "cst-padr/scheduler-config"
_STREAM_REQUEST_FORMAT = "cst-padr/stream-request"
_ARRIVAL_TRACE_FORMAT = "cst-padr/arrival-trace"
_FABRIC_PLAN_FORMAT = "cst-padr/fabric-plan"
_FABRIC_SCHEDULE_FORMAT = "cst-padr/fabric-schedule"
_GENERAL_SCHEDULE_FORMAT = "cst-padr/general-schedule"
_VERSION = 1

#: current schema generation; loaders also accept ``SCHEDULE_SCHEMA - 1``.
SCHEDULE_SCHEMA = 4
_ACCEPTED_SCHEMAS = (SCHEDULE_SCHEMA - 1, SCHEDULE_SCHEMA)


class SerializationError(ReproError):
    """Malformed or unsupported serialized payload."""


#: what reading a payload of the wrong shape raises before it is checked:
#: a loader turns each into :class:`SerializationError`.
_MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


# ---------------------------------------------------------------------------
# communication sets
# ---------------------------------------------------------------------------


def cset_to_dict(cset: CommunicationSet) -> dict[str, Any]:
    return {
        "format": _CSET_FORMAT,
        "version": _VERSION,
        "schema": SCHEDULE_SCHEMA,
        "comms": [[c.src, c.dst] for c in cset],
    }


def cset_from_dict(data: Mapping[str, Any]) -> CommunicationSet:
    _expect(data, _CSET_FORMAT)
    try:
        comms = [Communication(int(s), int(d)) for s, d in data["comms"]]
    except _MALFORMED as exc:
        raise SerializationError(f"malformed communication list: {exc}") from exc
    return CommunicationSet(comms)


# ---------------------------------------------------------------------------
# scheduler configuration
# ---------------------------------------------------------------------------


def config_to_dict(config: Any) -> dict[str, Any]:
    """Serialize a :class:`~repro.core.config.SchedulerConfig`.

    This is the form the service layer ships to multiprocessing workers;
    every field — including engine selection (``engine``,
    ``trace_compat``) — round-trips exactly, so a worker schedules under
    precisely the backend the caller selected.
    """
    return {
        "format": _CONFIG_FORMAT,
        "version": _VERSION,
        "schema": SCHEDULE_SCHEMA,
        "config": config.to_dict(),
    }


def config_from_dict(data: Mapping[str, Any]) -> Any:
    """Inverse of :func:`config_to_dict`; also accepts a bare field dict."""
    from repro.core.config import SchedulerConfig

    _require_mapping(data, _CONFIG_FORMAT)
    if "format" in data:
        _expect(data, _CONFIG_FORMAT)
        try:
            fields = data["config"]
        except KeyError as exc:
            raise SerializationError("missing 'config' payload") from exc
    else:  # bare SchedulerConfig.to_dict() output
        fields = data
    try:
        return SchedulerConfig.from_dict(fields)
    except ReproError:
        raise
    except _MALFORMED as exc:
        raise SerializationError(f"malformed scheduler config: {exc}") from exc


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    return {
        "format": _SCHEDULE_FORMAT,
        "version": _VERSION,
        "schema": SCHEDULE_SCHEMA,
        "scheduler": schedule.scheduler_name,
        "n_leaves": schedule.n_leaves,
        "cset": cset_to_dict(schedule.cset),
        "rounds": [
            {
                "index": r.index,
                "performed": [[c.src, c.dst] for c in r.performed],
                "writers": list(r.writers),
            }
            for r in schedule.rounds
        ],
        "power": {
            "total_units": schedule.power.total_units,
            "per_switch_units": {
                str(k): v for k, v in schedule.power.per_switch_units.items()
            },
            "per_switch_changes": {
                str(k): v for k, v in schedule.power.per_switch_changes.items()
            },
            "rounds": schedule.power.rounds,
        },
        "control": {
            "messages": schedule.control_messages,
            "words": schedule.control_words,
            "physical_messages": schedule.physical_messages,
        },
    }


def schedule_from_dict(data: Mapping[str, Any]) -> Schedule:
    """Rebuild a schedule record (staged connections are not round-tripped;
    they are an execution detail, not needed for verification)."""
    _expect(data, _SCHEDULE_FORMAT)
    try:
        cset = cset_from_dict(data["cset"])
        rounds = tuple(
            RoundRecord(
                index=int(r["index"]),
                performed=tuple(
                    Communication(int(s), int(d)) for s, d in r["performed"]
                ),
                writers=tuple(int(w) for w in r["writers"]),
                staged={},
            )
            for r in data["rounds"]
        )
        p = data["power"]
        power = PowerReport(
            total_units=int(p["total_units"]),
            per_switch_units={int(k): int(v) for k, v in p["per_switch_units"].items()},
            per_switch_changes={
                int(k): int(v) for k, v in p["per_switch_changes"].items()
            },
            rounds=int(p["rounds"]),
        )
        control = data.get("control", {})
        return Schedule(
            cset=cset,
            n_leaves=int(data["n_leaves"]),
            scheduler_name=str(data["scheduler"]),
            rounds=rounds,
            power=power,
            control_messages=int(control.get("messages", 0)),
            control_words=int(control.get("words", 0)),
            physical_messages=(
                int(control["physical_messages"])
                if "physical_messages" in control
                else None
            ),
        )
    except _MALFORMED as exc:
        raise SerializationError(f"malformed schedule payload: {exc}") from exc


# ---------------------------------------------------------------------------
# decomposition-annotated general schedules (schema 4)
# ---------------------------------------------------------------------------


def general_schedule_to_dict(gs: Any) -> dict[str, Any]:
    """Serialize a :class:`~repro.core.plan.GeneralSchedule`.

    The schema-4 payload family: the combined executed schedule (same
    shape as a plain schedule payload) plus the decomposition accounting —
    per-batch orientations, reference round/power counts, pack order,
    the certified batch lower bound and the w-round optimum the overhead
    is measured against.
    """
    return {
        "format": _GENERAL_SCHEDULE_FORMAT,
        "version": _VERSION,
        "schema": SCHEDULE_SCHEMA,
        "n_leaves": gs.n_leaves,
        "alpha": gs.alpha,
        "cset": cset_to_dict(gs.cset),
        "decompose": {
            "n_batches": gs.n_batches,
            "orientations": list(gs.batch_orientations),
            "batch_rounds": list(gs.batch_rounds),
            "batch_power": list(gs.batch_power),
            "batch_order": list(gs.batch_order),
            "lower_bound": gs.lower_bound,
        },
        "optimum_rounds": gs.optimum_rounds,
        "combined": schedule_to_dict(gs.combined),
    }


def general_schedule_from_dict(data: Mapping[str, Any]) -> Any:
    """Inverse of :func:`general_schedule_to_dict`.

    The live :class:`~repro.comms.decompose.Decomposition` object is not
    round-tripped (its accounting is flattened into the payload); the
    rebuilt result carries ``decomposition=None``.
    """
    from repro.core.plan import GeneralSchedule

    _expect(data, _GENERAL_SCHEDULE_FORMAT)
    try:
        d = data["decompose"]
        return GeneralSchedule(
            cset=cset_from_dict(data["cset"]),
            n_leaves=int(data["n_leaves"]),
            alpha=float(data["alpha"]),
            batch_orientations=tuple(str(o) for o in d["orientations"]),
            batch_rounds=tuple(int(r) for r in d["batch_rounds"]),
            batch_power=tuple(int(p) for p in d["batch_power"]),
            batch_order=tuple(int(i) for i in d["batch_order"]),
            lower_bound=int(d["lower_bound"]),
            optimum_rounds=int(data["optimum_rounds"]),
            combined=schedule_from_dict(data["combined"]),
        )
    except _MALFORMED as exc:
        raise SerializationError(f"malformed general schedule: {exc}") from exc


def result_to_dict(result: Any) -> dict[str, Any]:
    """Serialize any :class:`~repro.core.base.ScheduleResult` the scheduling
    paths emit over the wire (plain or general) — the dispatch the worker
    pool uses, so one code path ships both result kinds."""
    if isinstance(result, Schedule):
        return schedule_to_dict(result)
    if hasattr(result, "combined"):  # GeneralSchedule
        return general_schedule_to_dict(result)
    raise SerializationError(
        f"cannot serialize result of type {type(result).__name__}"
    )


def result_from_dict(data: Mapping[str, Any]) -> Any:
    """Inverse of :func:`result_to_dict`, dispatching on ``"format"``."""
    _require_mapping(data, "result")
    fmt = data.get("format")
    if fmt == _SCHEDULE_FORMAT:
        return schedule_from_dict(data)
    if fmt == _GENERAL_SCHEDULE_FORMAT:
        return general_schedule_from_dict(data)
    raise SerializationError(f"unknown result format {fmt!r}")


# ---------------------------------------------------------------------------
# streaming requests
# ---------------------------------------------------------------------------


def stream_request_to_dict(request: Any) -> dict[str, Any]:
    """Serialize a :class:`~repro.service.streaming.StreamRequest`.

    The wire form a ``cst-padr serve`` arrival file holds: one record per
    request with its release tick, deadline, priority name and tenant id,
    wrapping the standard communication-set payload.
    """
    return {
        "format": _STREAM_REQUEST_FORMAT,
        "version": _VERSION,
        "schema": SCHEDULE_SCHEMA,
        "cset": cset_to_dict(request.cset),
        "n_leaves": request.n_leaves,
        "release_time": request.release_time,
        "deadline": request.deadline,
        "priority": request.priority.name,
        "tenant": request.tenant,
    }


def stream_request_from_dict(data: Mapping[str, Any]) -> Any:
    """Inverse of :func:`stream_request_to_dict`."""
    from repro.service.admission import Priority
    from repro.service.streaming import StreamRequest

    _expect(data, _STREAM_REQUEST_FORMAT)
    try:
        n_leaves = data.get("n_leaves")
        return StreamRequest(
            cset=cset_from_dict(data["cset"]),
            n_leaves=int(n_leaves) if n_leaves is not None else None,
            release_time=int(data.get("release_time", 0)),
            deadline=int(data.get("deadline", 64)),
            priority=Priority[str(data.get("priority", "NORMAL")).upper()],
            tenant=str(data.get("tenant", "default")),
        )
    except _MALFORMED as exc:
        raise SerializationError(f"malformed stream request: {exc}") from exc


# ---------------------------------------------------------------------------
# arrival traces (recorded streaming workloads)
# ---------------------------------------------------------------------------


def save_arrivals(path: str | Path, requests: Any) -> None:
    """Write a recorded arrival trace — an ordered list of streaming
    requests with their release ticks, deadlines, priorities and tenant
    mix — as one JSON file.

    This is the canary harness's recording format: a production-like
    workload captured once and replayed bit-identically against both the
    baseline and a candidate configuration (``cst-padr canary``).
    """
    payload = {
        "format": _ARRIVAL_TRACE_FORMAT,
        "version": _VERSION,
        "schema": SCHEDULE_SCHEMA,
        "arrivals": [stream_request_to_dict(r) for r in requests],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_arrivals(path: str | Path) -> list[Any]:
    """Inverse of :func:`save_arrivals` (returns ``StreamRequest`` objects)."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read arrival trace {path}: {exc}") from exc
    _expect(data, _ARRIVAL_TRACE_FORMAT)
    arrivals = data.get("arrivals", [])
    if not isinstance(arrivals, list):
        raise SerializationError(
            f"arrival trace {path}: 'arrivals' must be a list, got {type(arrivals).__name__}"
        )
    return [stream_request_from_dict(r) for r in arrivals]


# ---------------------------------------------------------------------------
# fabric plans and shard-annotated fabric schedules (schema 3)
# ---------------------------------------------------------------------------


def fabric_plan_to_dict(plan: Any) -> dict[str, Any]:
    """Serialize a :class:`~repro.fabric.planner.FabricPlan`.

    The shard-annotated payload family introduced with schema 3: the
    plan carries the profiled workload it was sized from, so an operator
    can audit *why* a fabric has the shape it has.
    """
    return {
        "format": _FABRIC_PLAN_FORMAT,
        "version": _VERSION,
        "schema": SCHEDULE_SCHEMA,
        "tree_count": plan.tree_count,
        "leaf_width": plan.leaf_width,
        "switches": plan.switches,
        "spine_switches": plan.spine_switches,
        "utilization": plan.utilization,
        "shard_capacity": plan.shard_capacity,
        "profile": {
            "n_requests": plan.profile.n_requests,
            "max_leaves": plan.profile.max_leaves,
            "peak_arrivals": plan.profile.peak_arrivals,
            "mean_arrivals": plan.profile.mean_arrivals,
            "tenants": list(plan.profile.tenants),
        },
    }


def fabric_plan_from_dict(data: Mapping[str, Any]) -> Any:
    """Inverse of :func:`fabric_plan_to_dict`."""
    from repro.fabric.planner import FabricPlan, WorkloadProfile

    _expect(data, _FABRIC_PLAN_FORMAT)
    try:
        p = data["profile"]
        profile = WorkloadProfile(
            n_requests=int(p["n_requests"]),
            max_leaves=int(p["max_leaves"]),
            peak_arrivals=int(p["peak_arrivals"]),
            mean_arrivals=float(p["mean_arrivals"]),
            tenants=tuple(str(t) for t in p["tenants"]),
        )
        return FabricPlan(
            tree_count=int(data["tree_count"]),
            leaf_width=int(data["leaf_width"]),
            switches=int(data["switches"]),
            spine_switches=int(data["spine_switches"]),
            utilization=float(data["utilization"]),
            shard_capacity=int(data["shard_capacity"]),
            profile=profile,
        )
    except _MALFORMED as exc:
        raise SerializationError(f"malformed fabric plan: {exc}") from exc


def fabric_schedule_to_dict(fs: Any) -> dict[str, Any]:
    """Serialize a :class:`~repro.fabric.aggregation.FabricSchedule`.

    Every per-shard local schedule is annotated with its shard id (JSON
    object keys), and each cross-epoch hop carries its source/destination
    shards and packed round — enough to re-verify delivery and re-derive
    the round/power accounting without re-running the fabric.
    """
    return {
        "format": _FABRIC_SCHEDULE_FORMAT,
        "version": _VERSION,
        "schema": SCHEDULE_SCHEMA,
        "tree_count": fs.tree_count,
        "leaf_width": fs.leaf_width,
        "local": {
            str(shard): schedule_to_dict(schedule)
            for shard, schedule in sorted(fs.local.items())
        },
        "cross": [
            {
                "src": h.comm.src,
                "dst": h.comm.dst,
                "src_shard": h.src_shard,
                "dst_shard": h.dst_shard,
                "round": h.round_index,
            }
            for h in fs.cross
        ],
    }


def fabric_schedule_from_dict(data: Mapping[str, Any]) -> Any:
    """Inverse of :func:`fabric_schedule_to_dict`."""
    from repro.fabric.aggregation import CrossShardHop, FabricSchedule

    _expect(data, _FABRIC_SCHEDULE_FORMAT)
    try:
        return FabricSchedule(
            tree_count=int(data["tree_count"]),
            leaf_width=int(data["leaf_width"]),
            local={
                int(shard): schedule_from_dict(payload)
                for shard, payload in data.get("local", {}).items()
            },
            cross=tuple(
                CrossShardHop(
                    comm=Communication(int(h["src"]), int(h["dst"])),
                    src_shard=int(h["src_shard"]),
                    dst_shard=int(h["dst_shard"]),
                    round_index=int(h["round"]),
                )
                for h in data.get("cross", ())
            ),
        )
    except _MALFORMED as exc:
        raise SerializationError(f"malformed fabric schedule: {exc}") from exc


# ---------------------------------------------------------------------------
# workload suites on disk
# ---------------------------------------------------------------------------


def save_workloads(path: str | Path, workloads: Mapping[str, CommunicationSet]) -> None:
    """Write a named suite of communication sets as one JSON file."""
    payload = {
        "format": _SUITE_FORMAT,
        "version": _VERSION,
        "schema": SCHEDULE_SCHEMA,
        "workloads": {name: cset_to_dict(cs) for name, cs in workloads.items()},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_workloads(path: str | Path) -> dict[str, CommunicationSet]:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read workload suite {path}: {exc}") from exc
    _expect(data, _SUITE_FORMAT)
    suite = data.get("workloads", {})
    _require_mapping(suite, f"{_SUITE_FORMAT} 'workloads'")
    return {name: cset_from_dict(cs) for name, cs in suite.items()}


def _require_mapping(data: Any, what: str) -> None:
    if not isinstance(data, Mapping):
        raise SerializationError(f"expected a {what} object, got {type(data).__name__}")


def _expect(data: Mapping[str, Any], fmt: str) -> None:
    _require_mapping(data, fmt)
    got = data.get("format")
    if got != fmt:
        raise SerializationError(f"expected format {fmt!r}, got {got!r}")
    version = data.get("version")
    if version != _VERSION:
        raise SerializationError(f"unsupported {fmt} version: {version!r}")
    # schema-1 payloads predate the field entirely.
    schema = data.get("schema", 1)
    if schema not in _ACCEPTED_SCHEMAS:
        raise SerializationError(
            f"unsupported {fmt} schema {schema!r}; this release reads "
            f"schemas {list(_ACCEPTED_SCHEMAS)}"
        )
