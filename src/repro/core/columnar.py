"""The CSA's columnar kernel: state of live switches only, one walk per round.

The fast-path engine walks per-switch Python objects wave by wave: every
round is a DFS over ``StoredState`` dataclasses and ``DownWord``
flyweights, and every staged connection goes through a ``Switch`` object
and the network's payload tracer.  This module runs both CSA phases
without them:

* Phase 1 builds each element's
  :class:`~repro.core.phase1.Phase1Counters` — plain ``heap id -> int``
  dicts that hold live switches only — from its roles' matching, pair by
  pair along the pairs' paths (:meth:`Phase1Counters.from_roles`), so it
  too costs time in proportion to the switches it touches.
* Each Phase-2 round is one pure-Python walk over the live frontier of
  every live element, parent before child and level by level.  CONFIGURE
  (the four cases of :func:`repro.core.phase2.configure`), crossbar
  staging, power charging and the leaves' checks all happen at the switch
  the walk is visiting, and crossbars, power units and change counts are
  dicts over the switches that were ever staged.  A round therefore costs
  time in proportion to the switches it touches — Theorem 5's O(1) per
  switch per round — and no step sweeps the tree.

Level order is equivalent to the engine's DFS walk: CONFIGURE mutates only
the receiving switch's own counters, words flow strictly parent to child,
and the frontier-pruning predicate for a child reads ``pending`` of that
child's *own* subtree, which no switch outside the subtree can have
decremented before the child is visited (ancestors are visited first;
descendants only through the child).

Instead of tracing payloads through committed crossbars, the walk pairs
writers with receivers by a *circuit id* threaded through the words: the
id travels with the source request to its writer leaf and with the
destination request to its receiver leaf.  On a healthy network every hop
of a carved circuit is freshly staged in the same round, so the physical
trace necessarily connects exactly these two leaves; the id is internal
bookkeeping, not extra information on the wire (words still carry
``[kind, x_s, x_d]`` and leaves still receive rank zero).

The kernel executes ``B`` independent same-tree communication sets, one
walk per live element per round, which is what :func:`schedule_batch`
and the service layer's same-shape grouping use; ``B == 1`` is the
single-schedule path behind :class:`~repro.cst.engine.ColumnarWaveEngine`.

Bit-identical parity with the scalar engines is the contract: schedules,
power bills and logical and physical control accounting all match; only
wall-clock time differs.  The differential property tests in
``tests/properties/test_property_columnar.py`` enforce this.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.wellnested import require_well_nested
from repro.core.control import UpWord
from repro.core.phase1 import Phase1Counters
from repro.core.schedule import RoundRecord, Schedule
from repro.cst.crossbar import stage
from repro.cst.power import PowerPolicy, PowerReport
from repro.exceptions import ProtocolError, SchedulingError
from repro.types import (
    CONN_DOWN_L,
    CONN_DOWN_R,
    CONN_L_TO_R,
    CONN_L_UP,
    CONN_R_UP,
    Connection,
    Role,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SchedulerConfig
    from repro.cst.network import CSTNetwork
    from repro.obs.instrument import Instrumentation

__all__ = ["ColumnarRun", "run_columnar", "schedule_batch"]


# -- word-kind and port codes -------------------------------------------------

K_NONE, K_SRC, K_DST, K_BOTH = 0, 1, 2, 3

_KIND_STR = ("[null,null]", "[s,null]", "[d,null]", "[s,d]")

#: the thirteen possible CONFIGURE staging outcomes (index 0 = stage
#: nothing); tuples match :func:`repro.core.phase2.configure` exactly,
#: including connection order, so per-round ``staged`` dicts compare equal.
_COMBOS: tuple[tuple[Connection, ...], ...] = (
    (),
    (CONN_L_TO_R,),                         # 1  [null,null], piggyback
    (CONN_L_UP,),                           # 2  [s,null], source left
    (CONN_R_UP,),                           # 3  [s,null], source right
    (CONN_R_UP, CONN_L_TO_R),               # 4  [s,null], right + piggyback
    (CONN_DOWN_R,),                         # 5  [d,null], dest right
    (CONN_DOWN_L,),                         # 6  [d,null], dest left
    (CONN_DOWN_L, CONN_L_TO_R),             # 7  [d,null], left + piggyback
    (CONN_L_UP, CONN_DOWN_R),               # 8  [s,d], src left / dst right
    (CONN_L_UP, CONN_DOWN_L),               # 9  [s,d], both left
    (CONN_R_UP, CONN_DOWN_R),               # 10 [s,d], both right
    (CONN_R_UP, CONN_DOWN_L),               # 11 [s,d], crossed, no matched
    (CONN_R_UP, CONN_DOWN_L, CONN_L_TO_R),  # 12 [s,d], crossed + piggyback
)

#: every crossbar transition, indexed by ``code << 4 | combo``:
#: ``new_code << 2 | charged``, from the one per-connection table of
#: :mod:`repro.cst.crossbar`.
_STAGED = tuple(
    stage(code, _COMBOS[combo]) if combo < len(_COMBOS) else 0
    for code in range(64)
    for combo in range(16)
)


class _RoundStats:
    """Per-round accounting the single-schedule path feeds into obs/trace."""

    __slots__ = (
        "physical",
        "pruned",
        "power_units",
        "config_changes",
        "staged_switches",
        "writers",
        "performed",
    )

    def __init__(self) -> None:
        self.physical = 0
        self.pruned = 0
        self.power_units = 0
        self.config_changes = 0
        self.staged_switches = 0
        self.writers = 0
        self.performed = 0


class ColumnarRun:
    """One batched CSA execution over ``B`` same-tree communication sets.

    Per element ``b`` (lists indexed by ``b``, dicts keyed by heap id):

    ================  ====================================================
    attribute         contents
    ================  ====================================================
    ``counters[b]``   the :class:`~repro.core.phase1.Phase1Counters`
                      Phase 2 drains: five ``C_S`` counters and the
                      subtree ``pending`` totals of the live switches
    ``cfg[b]``        crossbar code ``l + 4r + 16p`` (out-code per
                      in-port l_i, r_i, p_i) of every switch ever staged
    ``units[b]``      accumulated power units per charged switch
    ``changes[b]``    configuration-change count per changed switch
    ================  ====================================================

    Nothing is sized by the tree: every step reads and writes only these
    dicts.  ``phase1`` supplies pristine counters per element (the
    scheduler's reuse cache) instead of running Phase 1.
    """

    def __init__(
        self,
        n_leaves: int,
        roles_per_element: Sequence[Mapping[int, Role]],
        *,
        policy: PowerPolicy,
        strict: bool = True,
        phase1: Sequence[Phase1Counters] | None = None,
    ) -> None:
        if n_leaves < 2 or n_leaves & (n_leaves - 1):
            raise SchedulingError(
                f"columnar kernel requires a power-of-two leaf count, got {n_leaves}"
            )
        self.n = n_leaves
        self.B = B = len(roles_per_element)
        self.height = n_leaves.bit_length() - 1
        self.strict = strict
        base = policy.wire_weight_base
        #: connection cost per tree level: the H-tree wire weight
        #: ``base ** (height - level)`` times the unit cost.
        self.level_cost = [
            policy.unit_cost * base ** (self.height - lvl)
            for lvl in range(self.height)
        ]
        self.sources = [
            {pe for pe, role in roles.items() if role is Role.SOURCE}
            for roles in roles_per_element
        ]
        self.destinations = [
            {pe for pe, role in roles.items() if role is Role.DESTINATION}
            for roles in roles_per_element
        ]
        if phase1 is None:
            self._phase1(roles_per_element)
        else:
            self.counters = [c.copy() for c in phase1]
        self.cfg: list[dict[int, int]] = [{} for _ in range(B)]
        self.units: list[dict[int, int]] = [{} for _ in range(B)]
        self.changes: list[dict[int, int]] = [{} for _ in range(B)]
        self.rounds_by_element: list[list[RoundRecord]] = [[] for _ in range(B)]
        self.physical_total = [0] * B
        #: leaves that have written / latched, for obligation checks.
        self._w_done: list[set[int]] = [set() for _ in range(B)]
        self._r_done: list[set[int]] = [set() for _ in range(B)]

    # -- Phase 1 ---------------------------------------------------------------

    def _phase1(self, roles_per_element: Sequence[Mapping[int, Role]]) -> None:
        self.counters = [
            Phase1Counters.from_roles(self.n, roles) for roles in roles_per_element
        ]

    # -- Phase 2 ---------------------------------------------------------------

    @property
    def live_elements(self) -> list[int]:
        """Elements whose root still reports unscheduled matched pairs."""
        return [b for b, c in enumerate(self.counters) if c.pending.get(1, 0) > 0]

    def run_round(self, live: Iterable[int]) -> list[_RoundStats]:
        """One Phase-2 down-wave over every element in ``live``.

        Returns per-live-element stats, aligned with ``live``; the round
        records themselves are appended to :attr:`rounds_by_element`.
        """
        return [self._walk(b) for b in live]

    def _walk(self, b: int) -> _RoundStats:
        """One round of element ``b``: the walk over its live frontier.

        The frontier holds one ``(node, kind, x_s, x_d, s_id, d_id)`` entry
        per live link, a level at a time in ascending heap-id order, so the
        leaves are reached in PE order.  A ``[null,null]`` word is dead
        (pruned) unless matched pairs remain below the receiving switch.
        """
        c = self.counters[b]
        M, T4, T3, T2, T5, pend = c.m, c.t4, c.t3, c.t2, c.t5, c.pending
        get_m, get_t4, get_t3 = M.get, T4.get, T3.get
        get_t2, get_t5 = T2.get, T5.get
        cfg, units, changes = self.cfg[b], self.units[b], self.changes[b]
        staged: dict[int, tuple[Connection, ...]] = {}
        writers: list[tuple[int, int]] = []  # (pe, circuit id)
        receivers: dict[int, int] = {}  # circuit id -> pe
        next_id = phys = pruned = round_units = round_changes = 0
        last = self.height - 1
        front = [(1, K_NONE, 0, 0, 0, 0)]
        for lvl, cost in enumerate(self.level_cost):
            nxt: list[tuple[int, int, int, int, int, int]] = []
            push = nxt.append
            for v, k, xs, xd, sid, did in front:
                left = 2 * v
                right = left + 1
                lw = rw = None
                scheduled = False
                if k == K_NONE:
                    m0 = get_m(v, 0)
                    if m0:
                        combo = 1
                        lw = (left, K_SRC, get_t4(v, 0), 0, next_id, 0)
                        rw = (right, K_DST, 0, get_t5(v, 0), 0, next_id)
                        M[v] = m0 - 1
                        scheduled = True
                    else:
                        combo = 0
                elif k == K_SRC:
                    a4 = get_t4(v, 0)
                    a2 = get_t2(v, 0)
                    if xs >= a4 + a2:
                        raise ProtocolError(
                            f"switch {v}: source rank {xs} out of range "
                            f"(only {a4 + a2} sources remain)"
                        )
                    if xs < a4:
                        combo = 2
                        lw = (left, K_SRC, xs, 0, sid, 0)
                        T4[v] = a4 - 1
                    else:
                        T2[v] = a2 - 1
                        m0 = get_m(v, 0)
                        if m0:
                            combo = 4
                            lw = (left, K_SRC, a4, 0, next_id, 0)
                            rw = (right, K_BOTH, xs - a4, get_t5(v, 0), sid, next_id)
                            M[v] = m0 - 1
                            scheduled = True
                        else:
                            combo = 3
                            rw = (right, K_SRC, xs - a4, 0, sid, 0)
                elif k == K_DST:
                    a5 = get_t5(v, 0)
                    a3 = get_t3(v, 0)
                    if xd >= a5 + a3:
                        raise ProtocolError(
                            f"switch {v}: destination rank {xd} out of "
                            f"range (only {a5 + a3} destinations remain)"
                        )
                    if xd < a5:
                        combo = 5
                        rw = (right, K_DST, 0, xd, 0, did)
                        T5[v] = a5 - 1
                    else:
                        T3[v] = a3 - 1
                        m0 = get_m(v, 0)
                        if m0:
                            combo = 7
                            lw = (left, K_BOTH, get_t4(v, 0), xd - a5, next_id, did)
                            rw = (right, K_DST, 0, a5, 0, next_id)
                            M[v] = m0 - 1
                            scheduled = True
                        else:
                            combo = 6
                            lw = (left, K_DST, 0, xd - a5, 0, did)
                else:  # K_BOTH
                    a4 = get_t4(v, 0)
                    a2 = get_t2(v, 0)
                    a5 = get_t5(v, 0)
                    a3 = get_t3(v, 0)
                    if xs >= a4 + a2:
                        raise ProtocolError(
                            f"switch {v}: source rank {xs} out of range "
                            f"(only {a4 + a2} sources remain)"
                        )
                    if xd >= a5 + a3:
                        raise ProtocolError(
                            f"switch {v}: destination rank {xd} out of "
                            f"range (only {a5 + a3} destinations remain)"
                        )
                    if xs < a4:
                        T4[v] = a4 - 1
                        if xd < a5:
                            combo = 8
                            lw = (left, K_SRC, xs, 0, sid, 0)
                            rw = (right, K_DST, 0, xd, 0, did)
                            T5[v] = a5 - 1
                        else:
                            combo = 9
                            lw = (left, K_BOTH, xs, xd - a5, sid, did)
                            T3[v] = a3 - 1
                    elif xd < a5:
                        combo = 10
                        rw = (right, K_BOTH, xs - a4, xd, sid, did)
                        T2[v] = a2 - 1
                        T5[v] = a5 - 1
                    else:
                        T2[v] = a2 - 1
                        T3[v] = a3 - 1
                        m0 = get_m(v, 0)
                        if m0:
                            combo = 12
                            lw = (left, K_BOTH, a4, xd - a5, next_id, did)
                            rw = (right, K_BOTH, xs - a4, a5, sid, next_id)
                            M[v] = m0 - 1
                            scheduled = True
                        else:
                            combo = 11
                            lw = (left, K_DST, 0, xd - a5, 0, did)
                            rw = (right, K_SRC, xs - a4, 0, sid, 0)

                if combo:
                    staged[v] = _COMBOS[combo]
                    code = _STAGED[cfg.get(v, 0) << 4 | combo]
                    cfg[v] = code >> 2
                    if code & 3:
                        spent = (code & 3) * cost
                        units[v] = units.get(v, 0) + spent
                        changes[v] = changes.get(v, 0) + 1
                        round_units += spent
                        round_changes += 1
                    if scheduled:
                        # a fresh circuit id pairs O_c(u)'s two requests;
                        # the switch and its ancestors lose one pending pair.
                        next_id += 1
                        u = v
                        while u:
                            pend[u] -= 1
                            u >>= 1

                if lvl == last:  # the children are leaves
                    for word in (lw, rw):
                        if word is not None:
                            push(word)
                            self._leaf(word, b, writers, receivers)
                    continue
                if lw is not None:
                    push(lw)
                elif pend.get(left, 0):
                    push((left, K_NONE, 0, 0, 0, 0))
                if rw is not None:
                    push(rw)
                elif pend.get(right, 0):
                    push((right, K_NONE, 0, 0, 0, 0))
            # every live link carried one message; the rest were pruned.
            phys += len(nxt)
            pruned += 2 * len(front) - len(nxt)
            if not nxt:
                break
            front = nxt
        stats = _RoundStats()
        stats.physical = phys
        stats.pruned = pruned
        stats.power_units = round_units
        stats.config_changes = round_changes
        stats.staged_switches = len(staged)
        return self._settle(b, staged, writers, receivers, stats)

    def _leaf(
        self,
        word: tuple[int, int, int, int, int, int],
        b: int,
        writers: list[tuple[int, int]],
        receivers: dict[int, int],
    ) -> None:
        """Validate one live word delivered to a leaf; note its writer or
        receiver under the word's circuit id."""
        node, k, xs, xd, sid, did = word
        pe = node - self.n
        if k == K_BOTH:
            raise ProtocolError(
                f"leaf PE {pe} received [s,d] — a PE cannot be both endpoints"
            )
        if xs or xd:
            raise ProtocolError(
                f"leaf PE {pe} received non-zero rank in "
                f"{_KIND_STR[k]}(x_s={xs}, x_d={xd})"
            )
        if k == K_SRC:
            if pe not in self.sources[b]:
                role = "destination" if pe in self.destinations[b] else "neither"
                raise ProtocolError(
                    f"leaf PE {pe} asked to transmit but role is {role}"
                )
            writers.append((pe, sid))
        else:
            if pe not in self.destinations[b]:
                role = "source" if pe in self.sources[b] else "neither"
                raise ProtocolError(
                    f"leaf PE {pe} asked to receive but role is {role}"
                )
            receivers[did] = pe

    def _settle(
        self,
        b: int,
        staged: dict[int, tuple[Connection, ...]],
        writers: list[tuple[int, int]],
        receivers: dict[int, int],
        stats: _RoundStats,
    ) -> _RoundStats:
        """Pair the round's writers with receivers and record the round."""
        rounds = self.rounds_by_element[b]
        if len(writers) != len(receivers):
            raise ProtocolError(
                f"round {len(rounds)}: {len(writers)} writers but "
                f"{len(receivers)} receivers — the control wave is inconsistent"
            )
        performed: list[Communication] = []
        wrote: list[int] = []
        for pe, cid in writers:  # ascending PE order, as the leaves were reached
            dst = receivers.get(cid)
            if dst is None:
                if self.strict:
                    raise ProtocolError(
                        f"round {len(rounds)}: control wave selected receivers "
                        f"{sorted(receivers.values())} but data arrived at "
                        f"{sorted(c.dst for c in performed)}"
                    )
                continue
            performed.append(Communication(pe, dst))
            wrote.append(pe)
        rounds.append(
            RoundRecord(
                index=len(rounds),
                performed=tuple(performed),
                writers=tuple(wrote),
                staged=staged,
            )
        )
        self._w_done[b].update(wrote)
        self._r_done[b].update(c.dst for c in performed)
        self.physical_total[b] += stats.physical
        stats.writers = len(wrote)
        stats.performed = len(performed)
        return stats

    # -- postconditions & reporting --------------------------------------------

    def check_counters_exhausted(self) -> None:
        """The global invariant: every counter on every switch is spent."""
        for c in self.counters:
            if not c.exhausted:
                leftovers = {v: c.row(v) for v in c.switches() if any(c.row(v))}
                raise ProtocolError(
                    f"CSA finished with non-exhausted switch counters: {leftovers}"
                )

    def check_obligations(self, element: int) -> None:
        """Array-level equivalent of ``CSTNetwork.all_done`` for one element."""
        srcs, dsts = self.sources[element], self.destinations[element]
        unsatisfied = sorted(
            (srcs - self._w_done[element]) | (dsts - self._r_done[element])
        )
        if unsatisfied:
            raise ProtocolError(
                f"CSA finished but PEs {unsatisfied} are unsatisfied"
            )

    def power_report(self, element: int) -> PowerReport:
        units, changes = self.units[element], self.changes[element]
        return PowerReport(
            total_units=sum(units.values()),
            per_switch_units={v: units[v] for v in sorted(units)},
            per_switch_changes={v: changes[v] for v in sorted(changes)},
            rounds=len(self.rounds_by_element[element]),
        )

    def write_back(self, network: "CSTNetwork") -> None:
        """Install this run's final state on a (previously pristine) network.

        Keeps a caller-supplied network bit-identical to one the scalar
        engine ran on: crossbars, per-switch change and commit counts,
        meter totals, PE transfer state and ``rounds_run`` all match, so
        later scalar rounds on the same network (e.g. stream steps that
        fall off the columnar guards) continue from equivalent state.  The
        network keeps the same dicts over touched switches as the run, so
        this is a merge of ``cfg`` / ``units`` / ``changes`` (meter
        entries in ascending heap id, as a full sweep fills them) and one
        install of commit counts and of what each round's writers sent and
        receivers latched.  Only valid for ``B == 1``.
        """
        if self.B != 1:
            raise SchedulingError("write_back requires a single-element run")
        cfg, units, changes = self.cfg[0], self.units[0], self.changes[0]
        rounds = self.rounds_by_element[0]
        switches = network.switch_state
        switches.cfg.update(cfg)
        _merge(switches.changes, changes)
        _merge(switches.commits, Counter(chain.from_iterable(r.staged for r in rounds)))
        meter = network.meter
        _merge(meter._units, {v: units[v] for v in sorted(units)})
        _merge(meter._changes, {v: changes[v] for v in sorted(changes)})
        pes = network.pe_state
        sent, latched, received = pes.sent, pes.latched, pes.received
        for round_no, record in enumerate(rounds):
            for comm in record.performed:
                sent[comm.src] = round_no
                latched.setdefault(comm.dst, round_no)
                received.setdefault(comm.dst, []).append(pes.payload(comm.src))
        network.rounds_run += len(rounds)


def _merge(into: dict[int, int], counts: Mapping[int, int]) -> None:
    """Add ``counts`` into ``into``, new keys in ``counts``' order."""
    if not into:
        into.update(counts)
        return
    for v, c in counts.items():
        into[v] = into.get(v, 0) + c


# -- single-schedule path (behind PADRScheduler) ------------------------------


def run_columnar(
    scheduler: Any,
    cset: CommunicationSet,
    n: int,
    network: "CSTNetwork | None",
    policy: PowerPolicy | None,
    obs: "Instrumentation | None",
) -> Schedule:
    """Execute one schedule through the columnar kernel.

    Drop-in replacement for the scalar body of ``PADRScheduler._run`` once
    the columnar guards hold (see ``PADRScheduler._columnar_applicable``).
    Emits the same logical observability stream and, when a network is
    supplied, leaves it in the same final state as the scalar engine.
    Reads and writes the scheduler's one Phase-1 reuse cache, which the
    scalar path shares.
    """
    from repro.cst.engine import EngineTrace

    roles = cset.roles()
    trace = EngineTrace()
    if network is not None:
        network.assign_roles(roles)
        pol = network.meter.policy
    else:
        pol = policy or PowerPolicy.paper()

    if obs is not None:
        obs.run_start(scheduler=scheduler.name, n_leaves=n, n_comms=len(cset))
        trace.on_wave = obs.wave_hook()
        if network is not None:
            obs.attach(network)

    n_links = 2 * n - 2
    fault_sig = network.fault_signature() if network is not None else ()
    key = (n, roles, fault_sig)  # ``roles`` is a fresh dict per call
    pristine = scheduler._cached_phase1(key)
    if pristine is not None:
        run = ColumnarRun(
            n, [roles], policy=pol, strict=scheduler.strict, phase1=[pristine]
        )
        if obs is not None:
            obs.phase1(
                live_switches=pristine.live,
                logical_messages=0,
                physical_messages=0,
                cached=True,
            )
    else:
        if obs is not None:
            with obs.metrics.span("csa.phase1", run=obs.run):
                run = ColumnarRun(n, [roles], policy=pol, strict=scheduler.strict)
        else:
            run = ColumnarRun(n, [roles], policy=pol, strict=scheduler.strict)
        trace.record_wave(n_links, n_links * UpWord.wire_words())
        if obs is not None:
            obs.phase1(
                live_switches=run.counters[0].live,
                logical_messages=n_links,
                physical_messages=n_links,
                cached=False,
            )
        if scheduler.reuse_phase1:
            scheduler._phase1_cache = (key, run.counters[0].copy())

    max_rounds = len(cset) + 1  # Theorem 5 promises exactly `width` rounds
    down_words = n_links * 3  # DownWord.wire_words()
    root_pending = run.counters[0].pending
    rounds = run.rounds_by_element[0]
    round_no = 0
    while root_pending.get(1, 0) > 0:
        if round_no >= max_rounds:
            raise SchedulingError(
                f"CSA exceeded {max_rounds} rounds — algorithm failed to make "
                "progress (this indicates a bug or invalid input)"
            )
        (st,) = run.run_round((0,))
        trace.record_wave(
            n_links,
            down_words,
            physical_messages=st.physical,
            physical_words=st.physical * 3,
        )
        if obs is not None:
            obs.round(
                index=round_no,
                writers=st.writers,
                performed=st.performed,
                staged_switches=st.staged_switches,
                config_changes=st.config_changes,
                power_units=st.power_units,
                logical_messages=n_links,
                physical_messages=st.physical,
                pruned_subtrees=st.pruned,
            )
        round_no += 1

    if scheduler.check_postconditions:
        run.check_counters_exhausted()
        run.check_obligations(0)

    if network is not None:
        run.write_back(network)
        power = network.power_report()
    else:
        power = run.power_report(0)

    scheduler.last_network = network
    scheduler.last_states = None

    schedule = Schedule(
        cset=cset,
        n_leaves=n,
        scheduler_name=scheduler.name,
        rounds=tuple(rounds),
        power=power,
        control_messages=trace.messages,
        control_words=trace.words,
        physical_messages=trace.physical_messages,
    )
    if obs is not None:
        obs.run_end(schedule)
    return schedule


# -- batched entry point ------------------------------------------------------


def schedule_batch(
    csets: Iterable[CommunicationSet],
    *,
    n_leaves: int,
    config: "SchedulerConfig | None" = None,
    policy: PowerPolicy | None = None,
) -> list[Schedule]:
    """Schedule many independent communication sets in one kernel invocation.

    Every set runs on its own (virtual) ``n_leaves``-leaf tree; results are
    bit-identical to calling ``PADRScheduler(config=...).schedule(cset,
    n_leaves)`` per set.  One Phase-1 reduction covers the whole batch;
    each round then walks every still-live set in turn.  Sets of *any* mix
    are accepted — same-shape grouping (the service layer's heuristic)
    keeps elements in lockstep but is not required for correctness.

    Falls back to the per-set scalar scheduler when the configuration or
    power policy is outside the columnar guards (eager teardown,
    ``trace_compat``, reference engine), so callers never need to
    pre-validate.
    """
    from repro.core.config import SchedulerConfig

    cfg = config if config is not None else SchedulerConfig()
    cset_list = list(csets)
    if not cset_list:
        return []
    pol = policy or PowerPolicy.paper()
    if pol.eager_teardown or cfg.trace_compat or not cfg.fast_path or (
        cfg.engine == "reference"
    ):
        from repro.core.csa import PADRScheduler

        sched = PADRScheduler(config=cfg)
        return [
            sched.schedule(cs, n_leaves=n_leaves, policy=policy)
            for cs in cset_list
        ]

    if cfg.validate_input:
        for cs in cset_list:
            require_well_nested(cs)
    run = ColumnarRun(
        n_leaves, [cs.roles() for cs in cset_list], policy=pol, strict=cfg.strict
    )
    while True:
        live = run.live_elements
        if not live:
            break
        for b in live:
            max_rounds = len(cset_list[b]) + 1
            if len(run.rounds_by_element[b]) >= max_rounds:
                raise SchedulingError(
                    f"CSA exceeded {max_rounds} rounds — algorithm failed "
                    "to make progress (this indicates a bug or invalid input)"
                )
        run.run_round(live)

    if cfg.check_postconditions:
        run.check_counters_exhausted()
        for b in range(run.B):
            run.check_obligations(b)

    n_links = 2 * n_leaves - 2
    schedules: list[Schedule] = []
    for b, cs in enumerate(cset_list):
        r = len(run.rounds_by_element[b])
        schedules.append(
            Schedule(
                cset=cs,
                n_leaves=n_leaves,
                scheduler_name="padr-csa",
                rounds=tuple(run.rounds_by_element[b]),
                power=run.power_report(b),
                control_messages=n_links * (1 + r),
                control_words=n_links * (UpWord.wire_words() + 3 * r),
                physical_messages=n_links + run.physical_total[b],
            )
        )
    return schedules
