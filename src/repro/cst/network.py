"""A concrete CST instance: switches and PEs wired by a topology.

:class:`CSTNetwork` owns the mutable state (switch crossbars, PE latches,
the power meter) and offers exactly the operations schedulers need:

* stage/commit per-round switch configurations;
* *trace* the data path from a source leaf through the configured crossbars
  to wherever it is delivered (or dropped).

Tracing is how the reproduction verifies Theorem 4 adversarially: the
routing algorithms only ever manipulate counters, while the network
physically follows the configured connections hop by hop.

The state is dicts over what a run touched — a
:class:`~repro.cst.switch.SwitchStore` of crossbar codes and counters and
a :class:`~repro.cst.pe.PEStore` of roles and transfer state — so
building, resetting and freeing a network cost time in proportion to the
switches and PEs used, not to the tree.  ``switches`` and ``pes`` are
views that make :class:`~repro.cst.switch.Switch` /
:class:`~repro.cst.pe.ProcessingElement` objects on access.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC, Sequence as SequenceABC
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.exceptions import ProtocolError
from repro.types import Connection, InPort, Role
from repro.cst.crossbar import config_of
from repro.cst.events import EventLog
from repro.cst.pe import PEStore, ProcessingElement
from repro.cst.power import PowerMeter, PowerPolicy, PowerReport
from repro.cst.switch import Switch, SwitchStore
from repro.cst.topology import CSTTopology

__all__ = ["TraceResult", "CSTNetwork", "SwitchMap", "PEList"]


@dataclass(frozen=True, slots=True)
class TraceResult:
    """Outcome of following one payload through the crossbars.

    ``delivered_pe`` is the PE index reached, or ``None`` if the signal was
    dropped at an unconfigured port.  ``hops`` lists the switch heap ids
    traversed, in order.
    """

    source_pe: int
    delivered_pe: int | None
    hops: tuple[int, ...]

    @property
    def delivered(self) -> bool:
        return self.delivered_pe is not None


class SwitchMap(MappingABC):
    """``heap id -> Switch`` over every switch of a network, made on access."""

    __slots__ = ("_store", "_n")

    def __init__(self, store: SwitchStore, n_leaves: int) -> None:
        self._store = store
        self._n = n_leaves

    def __getitem__(self, heap_id: int) -> Switch:
        if heap_id not in self:
            raise KeyError(heap_id)
        return Switch.of_store(self._store, heap_id)

    def __contains__(self, heap_id: object) -> bool:
        try:
            return 0 < heap_id < self._n  # type: ignore[operator]
        except TypeError:
            return False

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, self._n))

    def __len__(self) -> int:
        return self._n - 1


class PEList(SequenceABC):
    """The network's PEs in index order, made on access."""

    __slots__ = ("_store", "_n")

    def __init__(self, store: PEStore, n_leaves: int) -> None:
        self._store = store
        self._n = n_leaves

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._n))]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(f"PE index {index} out of range")
        return ProcessingElement.of_store(self._store, index)

    def __len__(self) -> int:
        return self._n


#: the event log's rendering of each crossbar code.
_LOGGED: dict[int, tuple[str, ...]] = {}


def _logged(code: int) -> tuple[str, ...]:
    conns = _LOGGED.get(code)
    if conns is None:
        conns = _LOGGED[code] = tuple(sorted(str(c) for c in config_of(code)))
    return conns


class CSTNetwork:
    """Switches + PEs + meter for one CST, with data-path tracing."""

    def __init__(
        self,
        topology: CSTTopology,
        *,
        policy: PowerPolicy | None = None,
        event_log: EventLog | None = None,
    ) -> None:
        self.topology = topology
        self.meter = PowerMeter(
            policy=policy or PowerPolicy.paper(), tree_height=topology.height
        )
        #: optional structured trace (see :mod:`repro.cst.events`)
        self.event_log = event_log
        #: crossbars, staging, counters and faults of the touched switches.
        self.switch_state = SwitchStore(self.meter)
        #: roles, payloads and transfer state of the touched PEs.
        self.pe_state = PEStore()
        n = topology.n_leaves
        self.switches = SwitchMap(self.switch_state, n)
        self.pes = PEList(self.pe_state, n)
        self.rounds_run = 0

    @property
    def fault_injected(self) -> bool:
        """Whether any switch carries a fault (see :mod:`repro.cst.faults`).

        A faulty switch corrupts its configuration on *every* commit, so
        the selective path of :meth:`commit_round` must visit it then.
        """
        return bool(self.switch_state.faults)

    def fault_signature(self) -> tuple[tuple[int, str], ...]:
        """Identity of the currently injected faults: ``(heap id, fault name)``.

        Empty for a healthy network.  Caches keyed on network state (e.g.
        the scheduler's Phase-1 reuse) include this signature so injecting
        or clearing a fault between runs invalidates them.
        """
        faults = self.switch_state.faults
        return tuple((v, faults[v].name) for v in sorted(faults))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def of_size(
        cls,
        n_leaves: int,
        *,
        policy: PowerPolicy | None = None,
        event_log: EventLog | None = None,
    ) -> "CSTNetwork":
        return cls(CSTTopology.of(n_leaves), policy=policy, event_log=event_log)

    def assign_roles(self, roles: Mapping[int, Role]) -> None:
        """Set PE roles from a ``pe index -> Role`` mapping; others NEITHER.

        Only PEs whose role or transfer state can have changed are touched:
        the previously roled PEs and the newly assigned ones.
        """
        state = self.pe_state
        if state.sent or state.latched or state.received:
            for i in state.roles:
                if i not in roles:
                    state.reset_transfer(i)
            for i in roles:
                state.reset_transfer(i)
        n = self.topology.n_leaves
        assigned: dict[int, Role] = {}
        for i, role in roles.items():
            if not 0 <= i < n:
                raise IndexError(f"PE index {i} out of range")
            if role is not Role.NEITHER:
                assigned[i] = role
        state.roles = assigned

    def role_of(self, pe: int) -> Role:
        """PE ``pe``'s role."""
        return self.pe_state.roles.get(pe, Role.NEITHER)

    # -- round protocol -------------------------------------------------------

    def stage(self, requirements: Mapping[int, Iterable[Connection]]) -> None:
        """Stage each switch's required connections for the coming round."""
        n = self.topology.n_leaves
        stage = self.switch_state.stage
        for heap_id, conns in requirements.items():
            if not 0 < heap_id < n:
                raise KeyError(heap_id)
            stage(heap_id, conns)

    def commit_round(self, staged_ids: Iterable[int] | None = None) -> None:
        """Commit switches for this round (power is charged here).

        ``staged_ids`` — when the caller knows exactly which switches were
        staged this round — commits only those switches.  That equals a
        full sweep only under the lazy (paper) teardown policy, where
        committing an unstaged switch is a no-op; with eager teardown, an
        attached event log or injected faults the round is a full sweep.

        A full sweep counts one commit on every switch but visits only the
        switches it can change: the staged and the faulty ones, and under
        eager teardown the configured ones (which must clear).  Only an
        attached event log visits every switch, since it records one commit
        per switch per round.  Switches commit in ascending heap id.
        """
        state = self.switch_state
        log = self.event_log
        eager = self.meter.policy.eager_teardown
        if staged_ids is not None and log is None and not state.faults and not eager:
            n = self.topology.n_leaves
            commit, commits = state.commit, state.commits
            for heap_id in staged_ids:
                if not 0 < heap_id < n:
                    raise KeyError(heap_id)
                commit(heap_id)
                commits[heap_id] = commits.get(heap_id, 0) + 1
            self.rounds_run += 1
            return
        if log is None:
            ids = state.staged.keys() | state.faults.keys()
            if eager:
                ids |= state.cfg.keys()
            for heap_id in sorted(ids):
                state.commit(heap_id)
        else:
            cfg, staged, faults = state.cfg, state.staged, state.faults
            for heap_id in range(1, self.topology.n_leaves):
                if heap_id in staged or heap_id in faults or (eager and heap_id in cfg):
                    code, changed = state.commit(heap_id)
                else:
                    code, changed = cfg.get(heap_id, 0), False
                log.commit(heap_id, _logged(code), changed)
        state.sweeps += 1
        self.rounds_run += 1

    # -- data path ---------------------------------------------------------------

    def trace_from(self, src_pe: int) -> TraceResult:
        """Follow a payload from PE ``src_pe`` through configured crossbars.

        The payload climbs onto the source leaf's upward link, then each
        switch forwards it according to its current configuration, until it
        either reaches a leaf (delivered) or hits an unconfigured input
        (dropped).  A configured root output toward the (non-existent)
        parent is a protocol violation.
        """
        topo = self.topology
        n = topo.n_leaves
        cfg = self.switch_state.cfg
        node = topo.leaf_heap_id(src_pe)
        digit = node & 1  # the input's digit in the code: l_i 0, r_i 1, p_i 2
        current = node >> 1
        hops: list[int] = []
        # a legal circuit visits each switch at most once; 2*height+1 bounds it.
        for _ in range(2 * topo.height + 1):
            hops.append(current)
            out = cfg.get(current, 0) >> 2 * digit & 3
            if not out:
                return TraceResult(src_pe, None, tuple(hops))
            if out == 3:  # p_o
                if current == 1:
                    raise ProtocolError(
                        f"root switch configured to forward {_IN_PORTS[digit].value} "
                        "to its parent"
                    )
                digit = current & 1
                current >>= 1
            else:
                child = current << 1 | (out == 2)
                if child >= n:
                    return TraceResult(src_pe, child - n, tuple(hops))
                digit = 2
                current = child
        raise ProtocolError(f"trace from PE {src_pe} exceeded maximum circuit length")

    def transfer(self, writer_pes: Iterable[int], round_no: int) -> list[TraceResult]:
        """Step 2.2: the given source PEs write; destinations latch.

        Returns one :class:`TraceResult` per writer.  Payloads delivered to
        a destination leaf are latched by that PE; payloads arriving at a
        non-destination leaf (possible only under injected faults) are
        recorded in the trace but not latched — the verifier flags them.
        """
        state = self.pe_state
        roles = state.roles
        log = self.event_log
        results: list[TraceResult] = []
        for src in writer_pes:
            datum = state.write(src, round_no)
            tr = self.trace_from(src)
            results.append(tr)
            if log is not None:
                log.transfer(tr.source_pe, tr.delivered_pe, tr.hops)
            dst = tr.delivered_pe
            if dst is not None and roles.get(dst) is Role.DESTINATION:
                state.latch(dst, datum, round_no)
        return results

    # -- reporting -------------------------------------------------------------

    def power_report(self) -> PowerReport:
        return self.meter.report(self.rounds_run)

    def config_changes(self) -> dict[int, int]:
        """Per-switch configuration-change counts, zeros included."""
        changes = self.switch_state.changes
        return {v: changes.get(v, 0) for v in self.switches}

    @property
    def roled_pes(self) -> list[int]:
        """Indices of PEs holding a non-NEITHER role (sorted by assignment)."""
        return list(self.pe_state.roles)

    @property
    def all_done(self) -> bool:
        """True when every PE's obligation is satisfied.

        NEITHER PEs are vacuously done, so only roled PEs are checked.
        """
        done = self.pe_state.done
        return all(done(i) for i in self.pe_state.roles)

    def reset(self) -> None:
        """Clear all mutable state (configurations, meters, PE latches).

        Roles, payloads and injected faults stay.
        """
        self.switch_state.clear()
        self.pe_state.clear_transfer()
        self.meter.reset()
        self.rounds_run = 0

    def __repr__(self) -> str:
        return (
            f"CSTNetwork(N={self.topology.n_leaves}, rounds={self.rounds_run}, "
            f"power={self.meter.total_units})"
        )


_IN_PORTS = (InPort.L, InPort.R, InPort.P)
