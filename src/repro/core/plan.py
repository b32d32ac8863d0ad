"""Schedule arbitrary communication sets through the well-nested core.

:func:`schedule_general` is the lowering path behind
``Scheduler.schedule(..., decompose="auto")``: it partitions an arbitrary
set with :func:`repro.comms.decompose.decompose`, schedules every batch
through the inner scheduler (any engine — reference, fast or columnar),
then packs the per-batch round plans into one combined plan replayed on
*one* crossbar state, so it carries across batches and the lazy power
model charges only real reconfigurations.  The replay runs on dict
crossbar state (:func:`repro.core.base.replay_on_crossbars`), or on the
caller's network when one is supplied.  Each pair's route
(:func:`repro.cst.crossbar.route`) is computed once per request; packing,
the reconfiguration estimate, the input's width and the replay all read
it.

The packing step is where ``SchedulerConfig(recfg_alpha=...)`` bites.
Rounds from different batches are often edge-compatible (opposite
orientations mostly use opposite directions of shared links), so merging
them saves rounds — but a merged foreign round can displace a crossbar
connection a later round would have reused for free, costing extra
configuration changes.  Each candidate merge is accepted only when
``alpha * extra_changes <= 1.0`` (a saved round is worth ``1``): ``α = 0``
packs maximally (minimum rounds), large ``α`` preserves sequential
persistence (minimum switch changes).  With ``α > 0`` the batch order
itself is chosen greedily to minimise simulated reconfigurations.

On an already well-nested right-oriented input the decomposition is a
single batch and the inner scheduler's result is returned unchanged
(wrapped), bit-identical to the strict path regardless of ``α``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.decompose import Decomposition, decompose
from repro.core.schedule import Schedule, ScheduleStats
from repro.cst.crossbar import CONNECT, Route, route
from repro.cst.power import PowerPolicy
from repro.exceptions import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import Scheduler
    from repro.cst.network import CSTNetwork
    from repro.obs.instrument import Instrumentation

__all__ = ["GeneralSchedule", "schedule_general"]

GENERAL_SCHEDULER_NAME = "general-plan"


@dataclass(frozen=True)
class GeneralSchedule:
    """Result of scheduling an arbitrary set via well-nested decomposition.

    ``combined`` is the actually-executed schedule (one crossbar state,
    carried across batches); the ``batch_*`` tuples record the
    per-batch reference runs in decomposition order, ``batch_order`` the
    order they were packed in.  ``optimum_rounds`` is the width of the
    *whole* input — the w-round bound a single well-nested batch would
    achieve — so :attr:`round_overhead` is the price of generality.
    """

    cset: CommunicationSet
    n_leaves: int
    alpha: float
    batch_orientations: tuple[str, ...]
    batch_rounds: tuple[int, ...]
    batch_power: tuple[int, ...]
    batch_order: tuple[int, ...]
    lower_bound: int
    optimum_rounds: int
    combined: Schedule
    decomposition: Decomposition | None = field(default=None, compare=False)

    # -- ScheduleResult protocol ------------------------------------------

    @property
    def scheduler_name(self) -> str:
        return self.combined.scheduler_name

    @property
    def rounds_used(self) -> int:
        return self.combined.n_rounds

    @property
    def power_units(self) -> int:
        return self.combined.power.total_units

    @property
    def delivered(self) -> tuple[Communication, ...]:
        return tuple(sorted(set(self.combined.performed())))

    @property
    def undelivered(self) -> tuple[Communication, ...]:
        return tuple(sorted(set(self.cset.comms) - set(self.combined.performed())))

    def stats(self) -> ScheduleStats:
        return replace(self.combined.stats(self.optimum_rounds), n_comms=len(self.cset))

    # -- decomposition accounting -----------------------------------------

    @property
    def n_batches(self) -> int:
        return len(self.batch_orientations)

    @property
    def sequential_rounds(self) -> int:
        """Rounds a naive batch-after-batch execution would take."""
        return sum(self.batch_rounds)

    @property
    def merged_rounds(self) -> int:
        """Rounds saved by cross-batch packing."""
        return self.sequential_rounds - self.combined.n_rounds

    @property
    def round_overhead(self) -> int:
        """Extra rounds vs the single-batch w-round optimum."""
        return self.combined.n_rounds - self.optimum_rounds

    @property
    def overhead_ratio(self) -> float:
        if not self.optimum_rounds:
            return 0.0
        return self.combined.n_rounds / self.optimum_rounds

    @property
    def power_overhead_units(self) -> int:
        """Executed power minus the per-batch sum (negative = persistence won)."""
        return self.combined.power.total_units - sum(self.batch_power)

    @property
    def reconfig_changes(self) -> int:
        """Total switch configuration changes in the executed run."""
        return sum(self.combined.power.per_switch_changes.values())

    def summary(self) -> dict[str, float | int]:
        return {
            "comms": len(self.cset),
            "batches": self.n_batches,
            "batch_lower_bound": self.lower_bound,
            "rounds": self.rounds_used,
            "optimum_rounds": self.optimum_rounds,
            "round_overhead": self.round_overhead,
            "overhead_ratio": round(self.overhead_ratio, 3),
            "merged_rounds": self.merged_rounds,
            "power_units": self.power_units,
            "power_overhead_units": self.power_overhead_units,
            "reconfig_changes": self.reconfig_changes,
            "alpha": self.alpha,
        }

    def __repr__(self) -> str:
        return (
            f"GeneralSchedule(batches={self.n_batches}, rounds={self.rounds_used}, "
            f"optimum={self.optimum_rounds}, power={self.power_units})"
        )


# -- crossbar-state simulation ---------------------------------------------


def _plan_change_cost(
    plan: Sequence[Sequence[Communication]],
    routes: Mapping[Communication, Route],
) -> int:
    """Connections a plan establishes under the lazy persistence model.

    Applies every route's steps through the crossbar table the replay
    charges with (:data:`repro.cst.crossbar.CONNECT`): a connection
    already held is free, anything else displaces its ports' occupants
    and costs one.
    """
    codes: dict[int, int] = {}
    cost = 0
    for round_comms in plan:
        for c in round_comms:
            for v, k in routes[c][1]:
                step = CONNECT[codes.get(v, 0) << 3 | k]
                codes[v] = step >> 1
                cost += step & 1
    return cost


def _order_batches(
    batch_plans: Sequence[Sequence[Sequence[Communication]]],
    routes: Mapping[Communication, Route],
    alpha: float,
) -> list[int]:
    """Pack order over batches: greedy nearest-neighbour on simulated changes.

    Only engaged for ``alpha > 0`` — at ``alpha = 0`` rounds are all that
    matters and the (deterministic) decomposition order is kept.
    """
    k = len(batch_plans)
    if alpha <= 0 or k <= 1:
        return list(range(k))
    order = [0]
    remaining = sorted(range(1, k))
    while remaining:
        best_j, best_cost = remaining[0], None
        for j in remaining:
            candidate = [r for i in order for r in batch_plans[i]]
            candidate.extend(batch_plans[j])
            cost = _plan_change_cost(candidate, routes)
            if best_cost is None or cost < best_cost:
                best_j, best_cost = j, cost
        order.append(best_j)
        remaining.remove(best_j)
    return order


def _pack_rounds(
    rounds: Sequence[Sequence[Communication]],
    routes: Mapping[Communication, Route],
    alpha: float,
) -> list[list[Communication]]:
    """First-fit merge of edge-compatible rounds, gated by the α objective.

    A merge saves exactly one round; it is accepted iff
    ``alpha * max(0, extra_changes) <= 1.0``, where ``extra_changes`` is
    the simulated change-count delta of merging vs appending.
    """
    slots: list[list[Communication]] = []
    slot_edges: list[set[int]] = []
    for round_comms in rounds:
        edges: set[int] = set()
        for c in round_comms:
            edges.update(routes[c][0])
        placed = False
        for i in range(len(slots)):
            if not slot_edges[i].isdisjoint(edges):
                continue
            if alpha > 0:
                appended = _plan_change_cost([*slots, list(round_comms)], routes)
                merged_slots = [list(s) for s in slots]
                merged_slots[i].extend(round_comms)
                merged = _plan_change_cost(merged_slots, routes)
                if alpha * max(0, merged - appended) > 1.0:
                    continue
            slots[i].extend(round_comms)
            slot_edges[i].update(edges)
            placed = True
            break
        if not placed:
            slots.append(list(round_comms))
            slot_edges.append(edges)
    return slots


# -- the planner ------------------------------------------------------------


def schedule_general(
    cset: CommunicationSet,
    *,
    inner: "Scheduler | None" = None,
    n_leaves: int | None = None,
    policy: PowerPolicy | None = None,
    network: "CSTNetwork | None" = None,
    obs: "Instrumentation | None" = None,
    alpha: float | None = None,
    decomposition: Decomposition | None = None,
) -> GeneralSchedule:
    """Schedule an arbitrary set by well-nested decomposition.

    ``inner`` is the scheduler used per batch (a fresh
    :class:`~repro.core.csa.PADRScheduler` by default — its
    ``SchedulerConfig`` decides the engine).  ``alpha`` defaults to the
    inner scheduler's ``config.recfg_alpha`` (0.0 when absent).
    """
    if inner is None:
        from repro.core.csa import PADRScheduler

        inner = PADRScheduler()
    config = getattr(inner, "config", None)
    if alpha is None:
        alpha = getattr(config, "recfg_alpha", 0.0)
    if alpha < 0:
        raise SchedulingError(f"recfg_alpha must be >= 0, got {alpha}")

    if network is not None:
        n = network.topology.n_leaves
    else:
        n = n_leaves if n_leaves is not None else cset.min_leaves()
    if cset.max_pe >= n:
        raise SchedulingError(
            f"set uses PE {cset.max_pe}, beyond n_leaves={n}"
        )

    dec = decomposition if decomposition is not None else decompose(cset)
    routes = {c: route(n, c.src, c.dst) for c in cset}

    if dec.is_trivial:
        # Already schedulable directly: the inner result IS the combined
        # schedule — bit-identical to the strict path, any α.
        direct = inner.schedule(
            cset,
            n_leaves=n,
            policy=policy,
            network=network,
            obs=obs,
            decompose="strict",
        )
        return GeneralSchedule(
            cset=cset,
            n_leaves=n,
            alpha=alpha,
            batch_orientations=tuple(b.orientation for b in dec.batches),
            batch_rounds=(direct.n_rounds,) if dec.batches else (),
            batch_power=(direct.power.total_units,) if dec.batches else (),
            batch_order=tuple(range(dec.n_batches)),
            lower_bound=dec.lower_bound,
            optimum_rounds=_width(routes),
            combined=direct,
            decomposition=dec,
        )

    # -- per-batch reference runs (plans) --------------------------------
    # priced under the policy the combined run is charged with.
    ref_policy = network.meter.policy if network is not None else policy
    batch_plans: list[list[list[Communication]]] = []
    batch_rounds: list[int] = []
    batch_power: list[int] = []
    for batch in dec.batches:
        ref = inner.schedule(
            batch.well_nested_form(n),
            n_leaves=n,
            policy=ref_policy,
            decompose="strict",
        )
        if batch.orientation == "right":
            plan = [list(r.performed) for r in ref.rounds]
        else:
            plan = [[c.mirrored(n) for c in r.performed] for r in ref.rounds]
        batch_plans.append(plan)
        batch_rounds.append(ref.n_rounds)
        batch_power.append(ref.power.total_units)

    order = _order_batches(batch_plans, routes, alpha)
    sequenced = [r for i in order for r in batch_plans[i]]
    packed = _pack_rounds(sequenced, routes, alpha)

    from repro.core.base import execute_round_plan, replay_on_crossbars

    if network is None:
        combined = replay_on_crossbars(
            cset, n, packed, GENERAL_SCHEDULER_NAME, policy=policy, routes=routes
        )
    else:
        combined = execute_round_plan(
            cset, n, packed, GENERAL_SCHEDULER_NAME, network=network
        )

    result = GeneralSchedule(
        cset=cset,
        n_leaves=n,
        alpha=alpha,
        batch_orientations=tuple(b.orientation for b in dec.batches),
        batch_rounds=tuple(batch_rounds),
        batch_power=tuple(batch_power),
        batch_order=tuple(order),
        lower_bound=dec.lower_bound,
        optimum_rounds=_width(routes),
        combined=combined,
        decomposition=dec,
    )

    if obs is not None:
        _fold_general_obs(obs, result)
    return result


def _width(routes: Mapping[Communication, Route]) -> int:
    """Width of the whole input — the single-batch w-round optimum: the
    largest number of circuits on one directed edge."""
    loads = Counter(e for edges, _ in routes.values() for e in edges)
    return max(loads.values(), default=0)


def _fold_general_obs(obs: "Instrumentation", result: GeneralSchedule) -> None:
    from repro.core.base import Scheduler

    Scheduler._fold_obs(obs, result.combined)
    m, r = obs.metrics, obs.run
    m.inc("decompose.requests", run=r)
    m.inc("decompose.batches", result.n_batches, run=r)
    m.inc("decompose.merged_rounds", result.merged_rounds, run=r)
    m.set("decompose.round_overhead", result.round_overhead, run=r)
    m.set("decompose.reconfig_changes", result.reconfig_changes, run=r)
