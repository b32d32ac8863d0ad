"""Scheduler abstraction and the shared round-plan executor.

Every scheduler — the paper's CSA and all baselines — produces a
:class:`~repro.core.schedule.Schedule`: per round, the crossbar
connections it staged and the communications it performed, and the power
the commits were charged.  Centralized baselines and the general planner
share :func:`execute_round_plan`, which replays a precomputed per-round
plan; the CSA derives its rounds from its distributed control waves
instead.  Without a caller-supplied network the replay runs on dict
crossbar state (:mod:`repro.cst.crossbar`); with one it drives that
network's switches and traces every payload hop by hop.

Using one executor for all baselines keeps the power comparison fair: the
crossbar rule and the teardown policy are identical — only the round
decomposition differs.

The unified calling convention
------------------------------

Every scheduler is invoked the same way::

    scheduler.schedule(cset, n_leaves=None, policy=None, network=None, obs=None)

``schedule`` itself is a template method implemented once on
:class:`Scheduler`: it resolves the tree size, checks ``network``/``policy``
consistency, and hands a fully-resolved :class:`ScheduleContext` to the
subclass hook ``_schedule``.  Schedulers that drive their own
instrumentation (the CSA) consume ``ctx.obs`` live; for every other
scheduler the base class folds the finished schedule into the registry and
trace after the fact, so ``obs=`` works uniformly across the whole surface.

All options are keyword-only.  Passing ``n_leaves`` positionally
(``schedule(cset, 64)``) was deprecated for one release and now raises
:class:`TypeError`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.wellnested import is_well_nested
from repro.core.schedule import RoundRecord, Schedule, ScheduleStats
from repro.cst.crossbar import Crossbars, Route, edge_str, route
from repro.cst.network import CSTNetwork
from repro.cst.power import PowerPolicy
from repro.cst.topology import CSTTopology
from repro.exceptions import NotWellNestedError, SchedulingError
from repro.types import LEGAL_CONNECTIONS, Connection

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instrument import Instrumentation

__all__ = [
    "DECOMPOSE_MODES",
    "ScheduleContext",
    "ScheduleResult",
    "Scheduler",
    "execute_round_plan",
    "replay_on_crossbars",
]

#: Legal values for ``Scheduler.schedule(..., decompose=)`` and
#: ``SchedulerConfig.decompose``: ``"strict"`` preserves today's contract
#: (engines validate their own inputs), ``"never"`` asserts well-nestedness
#: up front and raises :class:`~repro.exceptions.NotWellNestedError`
#: otherwise, ``"auto"`` lowers arbitrary sets through
#: :func:`repro.core.plan.schedule_general` (well-nested inputs pass
#: through the strict path unchanged, bit-identically).
DECOMPOSE_MODES = ("auto", "strict", "never")


@runtime_checkable
class ScheduleResult(Protocol):
    """The uniform read surface of every scheduling result.

    ``Schedule``, ``DegradedSchedule``, ``FabricSchedule``,
    ``GeneralFabricSchedule`` and ``GeneralSchedule`` all expose it, so
    callers can account rounds, power and delivery without caring which
    path produced the result.  ``delivered``/``undelivered`` are sorted
    tuples of unique :class:`~repro.comms.communication.Communication`;
    ``stats()`` aggregates for the analysis layer.
    """

    @property
    def rounds_used(self) -> int: ...

    @property
    def power_units(self) -> int: ...

    @property
    def delivered(self) -> tuple[Communication, ...]: ...

    @property
    def undelivered(self) -> tuple[Communication, ...]: ...

    def stats(self) -> ScheduleStats: ...


@dataclass(slots=True)
class ScheduleContext:
    """Everything a scheduler run needs, resolved once by the base class.

    ``n_leaves`` is always a concrete power of two here (defaulting rules
    already applied); ``network`` is the caller-supplied pre-built network
    or ``None`` when the scheduler should build its own; ``obs`` is the
    per-call instrumentation (``None`` keeps the uninstrumented hot path).
    """

    n_leaves: int
    policy: PowerPolicy | None = None
    network: CSTNetwork | None = None
    obs: "Instrumentation | None" = None


class Scheduler(abc.ABC):
    """Common interface of all CST schedulers.

    Subclasses implement :meth:`_schedule`; the public :meth:`schedule`
    template method is shared and gives every scheduler the same signature.
    """

    #: short identifier used in reports and benchmark tables.
    name: str = "abstract"

    #: whether :meth:`schedule` accepts a caller-supplied pre-built
    #: ``network=``.  Composite schedulers that internally reflect or
    #: decompose the workload run on derived networks and reject one.
    supports_network: ClassVar[bool] = True

    #: set by subclasses that consume ``ctx.obs`` live during the run (the
    #: CSA); for everyone else the base class folds the finished schedule
    #: into the registry/trace after ``_schedule`` returns.
    native_obs: ClassVar[bool] = False

    def schedule(
        self,
        cset: CommunicationSet,
        *,
        n_leaves: int | None = None,
        policy: PowerPolicy | None = None,
        network: CSTNetwork | None = None,
        obs: "Instrumentation | None" = None,
        decompose: str | None = None,
    ) -> Schedule:
        """Route ``cset`` on a CST.

        ``n_leaves`` defaults to the smallest power-of-two tree hosting the
        set; ``policy`` selects the power-accounting discipline (the
        paper's lazy model by default).  ``network`` supplies a pre-built
        (possibly pre-configured, possibly faulty) network to run on — used
        by fault-injection tests and by the stream scheduler; when given,
        ``n_leaves`` and ``policy`` must not conflict with it.  ``obs``
        attaches an :class:`~repro.obs.Instrumentation` for this call only.

        ``decompose`` controls what happens to inputs that are not
        right-oriented well-nested (see :data:`DECOMPOSE_MODES`); ``None``
        defers to the scheduler's ``config.decompose`` (``"strict"`` when
        the scheduler carries no config).  Under ``"auto"`` an arbitrary
        set returns a :class:`~repro.core.plan.GeneralSchedule` instead of
        a plain :class:`~repro.core.schedule.Schedule`; both satisfy
        :class:`ScheduleResult`.
        """
        mode = decompose
        if mode is None:
            mode = getattr(getattr(self, "config", None), "decompose", "strict")
        if mode not in DECOMPOSE_MODES:
            raise SchedulingError(
                f"unknown decompose mode {mode!r}; expected one of {DECOMPOSE_MODES}"
            )
        if mode != "strict" and not is_well_nested(cset):
            if mode == "never":
                raise NotWellNestedError(
                    f"{type(self).__name__}: input is not a right-oriented "
                    "well-nested set and decompose='never' forbids lowering"
                )
            from repro.core.plan import schedule_general

            return schedule_general(
                cset,
                inner=self,
                n_leaves=n_leaves,
                policy=policy,
                network=network,
                obs=obs,
            )
        if network is not None:
            if not self.supports_network:
                raise SchedulingError(
                    f"{type(self).__name__} schedules on internally derived "
                    "networks and does not accept a pre-built network"
                )
            if n_leaves is not None and n_leaves != network.topology.n_leaves:
                raise SchedulingError(
                    f"n_leaves={n_leaves} conflicts with the supplied "
                    f"network of {network.topology.n_leaves} leaves"
                )
            if policy is not None and policy != network.meter.policy:
                raise SchedulingError(
                    "policy conflicts with the supplied network's meter policy"
                )
            n = network.topology.n_leaves
        else:
            n = n_leaves if n_leaves is not None else cset.min_leaves()

        ctx = ScheduleContext(n_leaves=n, policy=policy, network=network, obs=obs)
        schedule = self._schedule(cset, ctx)
        if obs is not None and not self.native_obs:
            self._fold_obs(obs, schedule)
        return schedule

    @abc.abstractmethod
    def _schedule(self, cset: CommunicationSet, ctx: ScheduleContext) -> Schedule:
        """Produce the schedule for an already-resolved request."""

    # ------------------------------------------------------------------

    @staticmethod
    def _fold_obs(obs: "Instrumentation", schedule: Schedule) -> None:
        """After-the-fact observability for non-native schedulers."""
        from repro.obs.instrument import observe_schedule
        from repro.obs.trace import export_schedule

        observe_schedule(obs.metrics, schedule, run=obs.run)
        if obs.trace is not None:
            export_schedule(obs.trace, schedule, run=obs.run)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def execute_round_plan(
    cset: CommunicationSet,
    n_leaves: int,
    plan: Sequence[Sequence[Communication]],
    scheduler_name: str,
    *,
    policy: PowerPolicy | None = None,
    network: CSTNetwork | None = None,
) -> Schedule:
    """Replay a per-round plan, charging power per newly-established connection.

    Each round's communications are routed along their unique tree paths
    and the required crossbar connections are staged and committed.
    Without ``network`` the replay runs on dict crossbar state
    (:func:`replay_on_crossbars`).  A caller-supplied ``network`` is driven
    for real instead: staged, committed (only the staged switches, unless
    the network's policy, faults or event log need a full sweep), and its
    payloads traced hop by hop, so faults, event logs and earlier state all
    act.
    Raises :class:`~repro.exceptions.SchedulingError` when the plan does
    not perform exactly the set, or a round is not realisable (two
    communications claiming the same switch port).
    """
    if network is None:
        return replay_on_crossbars(
            cset, n_leaves, plan, scheduler_name, policy=policy
        )
    _check_plan(cset, n_leaves, plan, scheduler_name)
    network.assign_roles(cset.roles())
    n = network.topology.n_leaves

    rounds: list[RoundRecord] = []
    for index, round_comms in enumerate(plan):
        staged: dict[int, list[Connection]] = {}
        for c in round_comms:
            for switch_id, k in route(n, c.src, c.dst)[1]:
                conn = LEGAL_CONNECTIONS[k]
                if switch_id in staged:
                    staged[switch_id].append(conn)
                else:
                    staged[switch_id] = [conn]
        try:
            network.stage(staged)
            network.commit_round(sorted(staged))
        except Exception as exc:  # port conflicts surface here
            raise SchedulingError(
                f"{scheduler_name}: round {index} is not realisable on the "
                f"crossbars ({exc})"
            ) from exc
        writers = tuple(sorted(c.src for c in round_comms))
        traces = network.transfer(writers, index)
        performed = tuple(
            Communication(t.source_pe, t.delivered_pe)
            for t in traces
            if t.delivered_pe is not None
        )
        if len(performed) != len(writers):
            dropped = [t.source_pe for t in traces if t.delivered_pe is None]
            raise SchedulingError(
                f"{scheduler_name}: round {index} dropped payloads from PEs {dropped}"
            )
        rounds.append(
            RoundRecord(
                index=index,
                performed=performed,
                writers=writers,
                staged={k: tuple(v) for k, v in staged.items()},
            )
        )

    return Schedule(
        cset=cset,
        n_leaves=n_leaves,
        scheduler_name=scheduler_name,
        rounds=tuple(rounds),
        power=network.power_report(),
    )


def replay_on_crossbars(
    cset: CommunicationSet,
    n_leaves: int,
    plan: Sequence[Sequence[Communication]],
    scheduler_name: str,
    *,
    policy: PowerPolicy | None = None,
    routes: Mapping[Communication, Route] | None = None,
) -> Schedule:
    """:func:`execute_round_plan` without a network: dict crossbar state.

    Every switch port is the end of exactly one directed tree edge
    (``l_i``/``r_i``/``p_o`` face up-edges, ``l_o``/``r_o``/``p_i``
    down-edges), so two circuits share a port exactly when they share a
    directed edge.  A round is therefore realisable exactly when its
    circuits are pairwise edge-disjoint, and then every staged circuit
    delivers to its own destination: the plan's pairing is what a hop-by-hop
    trace would observe.  Connections are charged through
    :class:`~repro.cst.crossbar.Crossbars`, with the rules of
    ``Switch.commit_round``.  ``routes`` supplies each pair's
    :func:`~repro.cst.crossbar.route` when the caller already has them.
    """
    _check_plan(cset, n_leaves, plan, scheduler_name)
    if routes is None:
        routes = {c: route(n_leaves, c.src, c.dst) for c in cset}
    crossbars = Crossbars(n_leaves, policy or PowerPolicy.paper())
    rounds: list[RoundRecord] = []
    for index, round_comms in enumerate(plan):
        taken: set[int] = set()
        staged: dict[int, list[int]] = {}
        for c in round_comms:
            edges, steps = routes[c]
            if not taken.isdisjoint(edges):
                shared = edge_str(min(taken.intersection(edges)))
                raise SchedulingError(
                    f"{scheduler_name}: round {index} is not realisable on the "
                    f"crossbars (two circuits use {shared})"
                )
            taken.update(edges)
            for v, k in steps:
                if v in staged:
                    staged[v].append(k)
                else:
                    staged[v] = [k]
        crossbars.commit(staged)
        performed = tuple(sorted(round_comms))
        rounds.append(
            RoundRecord(
                index=index,
                performed=performed,
                writers=tuple(c.src for c in performed),
                staged={
                    v: tuple([LEGAL_CONNECTIONS[k] for k in ks])
                    for v, ks in staged.items()
                },
            )
        )

    return Schedule(
        cset=cset,
        n_leaves=n_leaves,
        scheduler_name=scheduler_name,
        rounds=tuple(rounds),
        power=crossbars.report(len(rounds)),
    )


def _check_plan(
    cset: CommunicationSet,
    n_leaves: int,
    plan: Sequence[Sequence[Communication]],
    scheduler_name: str,
) -> None:
    """The plan performs exactly the set, on a tree that hosts it."""
    planned = [c for rnd in plan for c in rnd]
    if sorted(planned) != sorted(cset.comms):
        raise SchedulingError(
            f"{scheduler_name}: plan performs {len(planned)} communications, "
            f"set has {len(cset)} (or contents differ)"
        )
    CSTTopology.of(n_leaves)  # rejects a size that is no tree
    if cset.max_pe >= n_leaves:
        raise SchedulingError(
            f"{scheduler_name}: set uses PE {cset.max_pe}, beyond n_leaves={n_leaves}"
        )
