"""The PADR Configuration & Scheduling Algorithm (paper §3).

:class:`PADRScheduler` runs the full distributed algorithm on a simulated
CST:

1. **Phase 1** (once): PE roles flow up; every switch stores its five-type
   counters ``C_S``.
2. **Phase 2** (repeated): a downward control wave in which every switch
   runs :func:`~repro.core.phase2.configure` on the word from its parent
   (the root synthesises ``[null,null]``), stages its crossbar connections
   and forwards words to its children.  Source leaves that receive
   ``[s,null]`` write their payloads (Step 2.2); the network traces each
   payload through the committed crossbars to its destination leaf.
3. Rounds repeat until no switch holds an unscheduled matched pair
   (Step 2.3).  Termination is detected with a 1-bit OR carried by the same
   wave discipline — an O(1)-word addition the paper leaves implicit.

The scheduler never consults the ground-truth pairing: switches see only
counters and ranks, leaves see only their own role.  Delivery correctness
is *observed* by the network's tracer and later checked by
:mod:`repro.analysis.verifier`.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.wellnested import require_well_nested
from repro.core.base import ScheduleContext, Scheduler
from repro.core.config import SchedulerConfig
from repro.core.control import DownKind, DownWord, StoredState
from repro.core.phase1 import (
    Phase1Counters,
    pending_matched,
    run_phase1,
    run_phase1_vectorized,
)
from repro.core.phase2 import configure
from repro.core.schedule import RoundRecord, Schedule
from repro.cst.engine import CSTEngine
from repro.cst.network import CSTNetwork
from repro.exceptions import ProtocolError, SchedulingError
from repro.obs.instrument import Instrumentation
from repro.types import Connection, Role

__all__ = ["PADRScheduler"]


class PADRScheduler(Scheduler):
    """The paper's power-aware scheduler for right-oriented well-nested sets.

    Parameters
    ----------
    validate_input:
        check well-nestedness up front (O(M log M)); disable only for
        workloads already validated by a generator.
    check_postconditions:
        verify that every counter on every switch is exhausted when the
        algorithm stops (a cheap global invariant the distributed algorithm
        itself cannot see).
    obs:
        optional :class:`~repro.obs.Instrumentation` — when given, the run
        emits per-round metrics and trace events into it (registry hooks on
        the engine trace and power meter, round/phase deltas, run
        summaries).  ``None`` (default) keeps the uninstrumented hot path:
        the only residual cost is a handful of ``is not None`` checks.
        ``schedule(..., obs=...)`` overrides this per call.
    config:
        a :class:`~repro.core.config.SchedulerConfig` supplying defaults
        for every flag above (explicit keyword arguments win).
    """

    name = "padr-csa"
    native_obs = True

    def __init__(
        self,
        *,
        validate_input: bool | None = None,
        check_postconditions: bool | None = None,
        strict: bool | None = None,
        engine_factory: Callable[[CSTNetwork], CSTEngine] | None = None,
        reuse_phase1: bool | None = None,
        obs: "Instrumentation | None" = None,
        config: SchedulerConfig | None = None,
    ) -> None:
        cfg = config if config is not None else SchedulerConfig()
        self.config = cfg
        self.validate_input = (
            cfg.validate_input if validate_input is None else validate_input
        )
        self.check_postconditions = (
            cfg.check_postconditions
            if check_postconditions is None
            else check_postconditions
        )
        #: with ``strict`` the scheduler raises the moment a round's data
        #: transfer contradicts its control decisions (the healthy-hardware
        #: invariant).  Fault-injection experiments set ``strict=False`` so
        #: the schedule completes mechanically and the damage is surfaced
        #: by the verifier instead.
        self.strict = cfg.strict if strict is None else strict
        #: wave engine to run on; the differential tests swap in
        #: :class:`~repro.cst.engine.ReferenceWaveEngine` here.
        self.engine_factory = engine_factory or cfg.engine_factory()
        #: skip re-running Phase 1's upward wave when a consecutive set on
        #: the same tree has identical role assignments — the stored
        #: counters depend only on roles, so the cached pristine states are
        #: restored instead.  Off by default because skipping a wave also
        #: skips its (logical) control traffic; the stream scheduler opts
        #: in, single-set accounting stays untouched.
        self.reuse_phase1 = cfg.reuse_phase1 if reuse_phase1 is None else reuse_phase1
        self.obs = obs
        #: the one Phase-1 reuse cache, ``(key, pristine counters)`` keyed
        #: ``(n, roles, fault signature)``; the scalar path and the
        #: columnar kernel both read and write it, so a stream whose first
        #: step takes the kernel and later steps the scalar path (a used
        #: network vetoes the kernel) still runs Phase 1 once.
        self._phase1_cache: tuple[tuple, Phase1Counters] | None = None
        #: populated by :meth:`schedule` for introspection and tests; the
        #: columnar kernel keeps no per-switch states, so ``last_states`` is
        #: ``None`` after a kernel run (pin ``engine="fast"`` to read them).
        self.last_network: CSTNetwork | None = None
        self.last_states: dict[int, StoredState] | None = None

    def _schedule(self, cset: CommunicationSet, ctx: ScheduleContext) -> Schedule:
        obs = ctx.obs if ctx.obs is not None else self.obs
        if obs is None:
            return self._run(cset, ctx, None)
        with obs.metrics.span("csa.schedule", run=obs.run):
            return self._run(cset, ctx, obs)

    def _run(
        self,
        cset: CommunicationSet,
        ctx: ScheduleContext,
        obs: "Instrumentation | None",
    ) -> Schedule:
        if self.validate_input:
            require_well_nested(cset)
        n = ctx.n_leaves
        network = ctx.network
        if self._columnar_applicable(n, network, ctx.policy):
            from repro.core.columnar import run_columnar

            return run_columnar(self, cset, n, network, ctx.policy, obs)
        if network is None:
            network = CSTNetwork.of_size(n, policy=ctx.policy)
        roles = cset.roles()
        network.assign_roles(roles)
        engine = self.engine_factory(network)

        if obs is not None:
            obs.run_start(scheduler=self.name, n_leaves=n, n_comms=len(cset))
            engine.trace.on_wave = obs.wave_hook()
            obs.attach(network)

        states, pending = self._phase1(engine, n, roles, obs)
        self.last_network = network
        self.last_states = states

        rounds: list[RoundRecord] = []
        max_rounds = len(cset) + 1  # Theorem 5 promises exactly `width` rounds

        # pending[root] tracks the sum of all switches' matched counters, so
        # the Step-2.3 termination test is O(1) instead of an O(n) sweep.
        while pending[1] > 0:
            if len(rounds) >= max_rounds:
                raise SchedulingError(
                    f"CSA exceeded {max_rounds} rounds — algorithm failed to make "
                    "progress (this indicates a bug or invalid input)"
                )
            rounds.append(
                self._run_round(engine, states, pending, len(rounds), obs)
            )

        if self.check_postconditions:
            leftovers = {
                v: st.as_tuple() for v, st in states.items() if not st.exhausted
            }
            if leftovers:
                raise ProtocolError(
                    f"CSA finished with non-exhausted switch counters: {leftovers}"
                )
            if not network.all_done:
                done = network.pe_state.done
                pending = sorted(i for i in network.roled_pes if not done(i))
                raise ProtocolError(f"CSA finished but PEs {pending} are unsatisfied")

        schedule = Schedule(
            cset=cset,
            n_leaves=n,
            scheduler_name=self.name,
            rounds=tuple(rounds),
            power=network.power_report(),
            control_messages=engine.trace.messages,
            control_words=engine.trace.words,
            physical_messages=engine.trace.physical_messages,
        )
        if obs is not None:
            obs.run_end(schedule)
        return schedule

    # ------------------------------------------------------------------

    def _columnar_applicable(
        self, n: int, network: CSTNetwork | None, policy
    ) -> bool:
        """Whether this run may take the columnar Phase-2 kernel.

        The engine selection must ask for it (a
        :class:`~repro.cst.engine.ColumnarWaveEngine`, which ``"auto"``
        resolves to at every tree size — the config's
        :meth:`~repro.core.config.SchedulerConfig.selects_columnar`, or an
        explicit ``engine_factory``), the teardown policy must be lazy, and
        any caller-supplied network pristine and healthy with no event
        log — the kernel reproduces the scalar engines' final network
        state by write-back, which is only bit-identical from a clean
        start.  Outside these guards the scalar fast path runs; schedules
        are identical either way.
        """
        factory = self.engine_factory
        if not isinstance(factory, type):
            factory = getattr(factory, "engine_cls", None)
        if not getattr(factory, "supports_columnar_phase2", False):
            return False
        if network is None:
            return policy is None or not policy.eager_teardown
        meter = network.meter
        return (
            network.event_log is None
            and not network.fault_injected
            and network.rounds_run == 0
            and not meter.policy.eager_teardown
            and meter.total_units == 0
            and meter.total_changes == 0
        )

    def _cached_phase1(self, key: tuple) -> Phase1Counters | None:
        """The pristine Phase-1 counters cached under ``key``, if reusing."""
        cache = self._phase1_cache
        if self.reuse_phase1 and cache is not None and cache[0] == key:
            return cache[1]
        return None

    def _phase1(
        self,
        engine: CSTEngine,
        n: int,
        roles: Mapping[int, Role],
        obs: "Instrumentation | None",
    ) -> tuple[dict[int, StoredState], list[int]]:
        """Run Phase 1, or restore it from cache when roles are unchanged.

        The cache key includes the network's fault signature: a fault
        injected or cleared between two runs on the same roles must force a
        fresh upward wave rather than silently restoring state recorded
        under different hardware conditions.
        """
        key = (n, dict(roles), engine.network.fault_signature())
        cached = self._cached_phase1(key)
        if cached is not None:
            if obs is not None:
                obs.phase1(
                    live_switches=cached.live,
                    logical_messages=0,
                    physical_messages=0,
                    cached=True,
                )
            return cached.to_states(n)
        msgs_before = engine.trace.messages
        phys_before = engine.trace.physical_messages
        if obs is not None:
            with obs.metrics.span("csa.phase1", run=obs.run):
                states = self._phase1_wave(engine)
        else:
            states = self._phase1_wave(engine)
        pending = pending_matched(states, n)
        if obs is not None:
            obs.phase1(
                live_switches=sum(1 for st in states.values() if not st.exhausted),
                logical_messages=engine.trace.messages - msgs_before,
                physical_messages=engine.trace.physical_messages - phys_before,
                cached=False,
            )
        if self.reuse_phase1:
            # cache pristine counters before Phase 2 mutates the states.
            self._phase1_cache = (key, Phase1Counters.from_states(states, pending))
        return states, pending

    def _phase1_wave(self, engine: CSTEngine) -> dict[int, StoredState]:
        if getattr(engine, "prefers_vectorized_phase1", False):
            return run_phase1_vectorized(engine)
        return run_phase1(engine)

    def _run_round(
        self,
        engine: CSTEngine,
        states: dict[int, StoredState],
        pending: list[int],
        round_no: int,
        obs: "Instrumentation | None",
    ) -> RoundRecord:
        """One Phase-2 round: down-wave, commit, transfer, record."""
        network = engine.network
        staged: dict[int, tuple[Connection, ...]] = {}

        pruned_subtrees = 0
        if obs is not None:
            meter = network.meter
            units_before = meter.total_units
            changes_before = meter.total_changes
            msgs_before = engine.trace.messages
            phys_before = engine.trace.physical_messages

        def emit(switch_id: int, word: DownWord) -> tuple[DownWord, DownWord]:
            outcome = configure(switch_id, states[switch_id], word)
            if outcome.connections:
                staged[switch_id] = outcome.connections
            if outcome.scheduled_matched:
                v = switch_id
                while v:
                    pending[v] -= 1
                    v >>= 1
            return outcome.left_word, outcome.right_word

        def prune(node: int, word: DownWord) -> bool:
            # a [null,null] word into a subtree with no matched pairs left
            # is dead: every switch below would stage nothing and forward
            # [null,null], every leaf word would be [null,null] (skipped
            # below anyway).  Leaves always have pending 0.
            return word.kind is DownKind.NONE and not pending[node]

        if obs is not None:
            # counting wrapper, created only when observed — the unobserved
            # fast path keeps the bare predicate.  Each True is one dead
            # link at the live frontier, i.e. one skipped subtree.
            base_prune = prune

            def prune(node: int, word: DownWord) -> bool:
                nonlocal pruned_subtrees
                dead = base_prune(node, word)
                if dead:
                    pruned_subtrees += 1
                return dead

        leaf_words = engine.downward_wave(
            DownWord.none(),
            emit,
            words_per_message=DownWord.wire_words(),
            prune=prune,
        )

        writers: list[int] = []
        receivers: list[int] = []
        for pe_index, word in leaf_words.items():
            if word.kind is DownKind.NONE:
                continue
            if word.kind is DownKind.BOTH:
                raise ProtocolError(
                    f"leaf PE {pe_index} received [s,d] — a PE cannot be both endpoints"
                )
            if word.x_s or word.x_d:
                raise ProtocolError(
                    f"leaf PE {pe_index} received non-zero rank in {word}"
                )
            role = network.role_of(pe_index)
            if word.kind is DownKind.SRC:
                if role is not Role.SOURCE:
                    raise ProtocolError(
                        f"leaf PE {pe_index} asked to transmit but role is {role.value}"
                    )
                writers.append(pe_index)
            else:
                if role is not Role.DESTINATION:
                    raise ProtocolError(
                        f"leaf PE {pe_index} asked to receive but role is {role.value}"
                    )
                receivers.append(pe_index)

        if len(writers) != len(receivers):
            raise ProtocolError(
                f"round {round_no}: {len(writers)} writers but {len(receivers)} "
                "receivers — the control wave is inconsistent"
            )

        network.stage(staged)
        network.commit_round(staged.keys())

        traces = network.transfer(sorted(writers), round_no)
        performed: list[Communication] = []
        for tr in traces:
            if tr.delivered_pe is None:
                if self.strict:
                    raise ProtocolError(
                        f"round {round_no}: payload from PE {tr.source_pe} was "
                        f"dropped after switches {tr.hops}"
                    )
                continue  # non-strict: drop recorded by omission; verifier flags
            performed.append(Communication(tr.source_pe, tr.delivered_pe))
        delivered_set = {c.dst for c in performed}
        if self.strict and delivered_set != set(receivers):
            raise ProtocolError(
                f"round {round_no}: control wave selected receivers "
                f"{sorted(receivers)} but data arrived at {sorted(delivered_set)}"
            )

        if obs is not None:
            obs.round(
                index=round_no,
                writers=len(writers),
                performed=len(performed),
                staged_switches=len(staged),
                config_changes=meter.total_changes - changes_before,
                power_units=meter.total_units - units_before,
                logical_messages=engine.trace.messages - msgs_before,
                physical_messages=engine.trace.physical_messages - phys_before,
                pruned_subtrees=pruned_subtrees,
            )

        return RoundRecord(
            index=round_no,
            performed=tuple(performed),
            writers=tuple(sorted(writers)),
            staged=staged,
        )
