"""The object-per-switch CST model, kept as a test oracle.

Before the network stored its state in dicts of touched switches, every
switch was a stateful object holding a :class:`SwitchConfiguration`,
every PE a dataclass, a fault a wrapper object in place of its switch,
and every commit a sweep over all of them.  That model is slow and sized
by the tree, but each rule in it is written out plainly, once per object.
``tests/properties/test_property_network_oracle.py`` drives it and
:class:`repro.cst.network.CSTNetwork` with the same operations and holds
them equal.

Only the state classes live here; the value types (configurations,
connections, trace results, fault models, the power meter and the event
log) are the library's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.cst.events import EventLog
from repro.cst.faults import FaultError, SwitchFault
from repro.cst.network import TraceResult
from repro.cst.power import PowerMeter, PowerPolicy, PowerReport
from repro.cst.switch import SwitchConfiguration
from repro.cst.topology import CSTTopology
from repro.exceptions import ProtocolError
from repro.types import Connection, InPort, OutPort, Role

__all__ = [
    "OracleNetwork",
    "OracleProcessingElement",
    "OracleSwitch",
    "oracle_clear_faults",
    "oracle_inject",
]


class OracleSwitch:
    """A stateful 3-sided switch with configuration-change accounting."""

    def __init__(self, heap_id: int, meter: PowerMeter) -> None:
        self.heap_id = heap_id
        self._config = SwitchConfiguration.idle()
        self._staged: list[Connection] = []
        self._meter = meter
        self.config_changes = 0
        self.rounds_committed = 0

    def require(self, conn: Connection) -> None:
        self._staged.append(conn)

    def require_all(self, conns: Iterable[Connection]) -> None:
        for conn in conns:
            self.require(conn)

    def commit_round(self) -> SwitchConfiguration:
        """Apply staged connections and account power; returns new config."""
        staged = SwitchConfiguration(self._staged)  # validates port-conflicts
        old = self._config
        policy = self._meter.policy
        if policy.eager_teardown:
            new = staged
        else:
            new = old
            for conn in staged:
                new = new.with_connection(conn)
        if policy.recharge:
            charged = len(staged)
        else:
            charged = len(new.connections() - old.connections())
        if charged:
            self._meter.charge(self.heap_id, charged)
        if new != old:
            self.config_changes += 1
            self._meter.note_change(self.heap_id)
        self._config = new
        self._staged = []
        self.rounds_committed += 1
        return new

    @property
    def configuration(self) -> SwitchConfiguration:
        return self._config

    @property
    def staged(self) -> tuple[Connection, ...]:
        return tuple(self._staged)

    def output_for(self, in_port: InPort) -> OutPort | None:
        return self._config.output_for(in_port)

    def reset(self) -> None:
        self._config = SwitchConfiguration.idle()
        self._staged = []
        self.config_changes = 0
        self.rounds_committed = 0


class _FaultyOracleSwitch(OracleSwitch):
    """A switch whose committed configuration passes through a fault."""

    def __init__(self, inner: OracleSwitch, fault: SwitchFault) -> None:
        super().__init__(inner.heap_id, inner._meter)
        self._config = inner.configuration
        self._staged = list(inner._staged)
        self.config_changes = inner.config_changes
        self.rounds_committed = inner.rounds_committed
        self.fault = fault

    def commit_round(self) -> SwitchConfiguration:
        previous = self.configuration
        intended = super().commit_round()
        actual = self.fault.corrupt(intended, previous)
        self._config = actual
        return actual


@dataclass
class OracleProcessingElement:
    """A leaf of the CST, one object per PE."""

    index: int
    role: Role = Role.NEITHER
    payload: Any = None
    received: list[Any] = field(default_factory=list)
    sent_round: int | None = None
    received_round: int | None = None

    def __post_init__(self) -> None:
        if self.payload is None:
            self.payload = ("pe", self.index)

    def role_word(self) -> tuple[int, int]:
        return self.role.wire_encoding

    def write(self, round_no: int) -> Any:
        if self.role is not Role.SOURCE:
            raise ValueError(f"PE {self.index} asked to write but role is {self.role.value}")
        if self.sent_round is not None:
            raise ValueError(f"PE {self.index} already transmitted in round {self.sent_round}")
        self.sent_round = round_no
        return self.payload

    def latch(self, datum: Any, round_no: int) -> None:
        if self.role is not Role.DESTINATION:
            raise ValueError(f"PE {self.index} received data but role is {self.role.value}")
        self.received.append(datum)
        if self.received_round is None:
            self.received_round = round_no

    @property
    def done(self) -> bool:
        if self.role is Role.SOURCE:
            return self.sent_round is not None
        if self.role is Role.DESTINATION:
            return self.received_round is not None
        return True

    def reset_transfer_state(self) -> None:
        self.received.clear()
        self.sent_round = None
        self.received_round = None


class OracleNetwork:
    """One switch object per switch and one PE object per leaf."""

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
        self.event_log = event_log
        self.switches: dict[int, OracleSwitch] = {
            v: OracleSwitch(v, self.meter) for v in topology.switches()
        }
        self.pes = [OracleProcessingElement(i) for i in range(topology.n_leaves)]
        self.rounds_run = 0
        self._roled_pes: list[int] = []
        self.fault_injected = False

    @classmethod
    def of_size(
        cls,
        n_leaves: int,
        *,
        policy: PowerPolicy | None = None,
        event_log: EventLog | None = None,
    ) -> "OracleNetwork":
        return cls(CSTTopology.of(n_leaves), policy=policy, event_log=event_log)

    def fault_signature(self) -> tuple[tuple[int, str], ...]:
        if not self.fault_injected:
            return ()
        return tuple(
            (heap_id, sw.fault.name)
            for heap_id, sw in sorted(self.switches.items())
            if hasattr(sw, "fault")
        )

    def assign_roles(self, roles: Mapping[int, Role]) -> None:
        pes = self.pes
        for i in self._roled_pes:
            if i not in roles:
                pe = pes[i]
                pe.role = Role.NEITHER
                pe.reset_transfer_state()
        for i, role in roles.items():
            pe = pes[i]
            pe.role = role
            pe.reset_transfer_state()
        self._roled_pes = [i for i, r in roles.items() if r is not Role.NEITHER]

    def stage(self, requirements: Mapping[int, Iterable[Connection]]) -> None:
        for heap_id, conns in requirements.items():
            self.switches[heap_id].require_all(conns)

    def commit_round(self, staged_ids: Iterable[int] | None = None) -> None:
        if (
            staged_ids is not None
            and self.event_log is None
            and not self.fault_injected
            and not self.meter.policy.eager_teardown
        ):
            for heap_id in staged_ids:
                self.switches[heap_id].commit_round()
            self.rounds_run += 1
            return
        for sw in self.switches.values():
            before = sw.config_changes
            config = sw.commit_round()
            if self.event_log is not None:
                self.event_log.commit(
                    sw.heap_id,
                    tuple(sorted(str(c) for c in config)),
                    sw.config_changes != before,
                )
        self.rounds_run += 1

    def trace_from(self, src_pe: int) -> TraceResult:
        topo = self.topology
        node = topo.leaf_heap_id(src_pe)
        in_port = InPort.R if node & 1 else InPort.L
        current = node >> 1
        hops: list[int] = []
        for _ in range(2 * topo.height + 1):
            hops.append(current)
            out = self.switches[current].output_for(in_port)
            if out is None:
                return TraceResult(src_pe, None, tuple(hops))
            if out is OutPort.P:
                if current == topo.root:
                    raise ProtocolError(
                        f"root switch configured to forward {in_port.value} to its parent"
                    )
                in_port = InPort.R if current & 1 else InPort.L
                current = current >> 1
            else:
                child = (current << 1) | (1 if out is OutPort.R else 0)
                if topo.is_leaf(child):
                    return TraceResult(src_pe, topo.pe_index(child), tuple(hops))
                in_port = InPort.P
                current = child
        raise ProtocolError(f"trace from PE {src_pe} exceeded maximum circuit length")

    def transfer(self, writer_pes: Iterable[int], round_no: int) -> list[TraceResult]:
        results: list[TraceResult] = []
        for src in writer_pes:
            pe = self.pes[src]
            datum = pe.write(round_no)
            tr = self.trace_from(src)
            results.append(tr)
            if self.event_log is not None:
                self.event_log.transfer(tr.source_pe, tr.delivered_pe, tr.hops)
            if tr.delivered_pe is not None:
                receiver = self.pes[tr.delivered_pe]
                if receiver.role is Role.DESTINATION:
                    receiver.latch(datum, round_no)
        return results

    def power_report(self) -> PowerReport:
        return self.meter.report(self.rounds_run)

    def config_changes(self) -> dict[int, int]:
        return {v: sw.config_changes for v, sw in self.switches.items()}

    @property
    def roled_pes(self) -> list[int]:
        return list(self._roled_pes)

    @property
    def all_done(self) -> bool:
        pes = self.pes
        return all(pes[i].done for i in self._roled_pes)

    def reset(self) -> None:
        for sw in self.switches.values():
            sw.reset()
        for pe in self.pes:
            pe.reset_transfer_state()
        self.meter.reset()
        self.rounds_run = 0


def oracle_inject(network: OracleNetwork, switch_id: int, fault: SwitchFault) -> None:
    """Replace ``switch_id``'s switch with a faulty wrapper."""
    if switch_id not in network.switches:
        raise FaultError(f"no switch {switch_id} in this network")
    current = network.switches[switch_id]
    network.fault_injected = True
    if isinstance(current, _FaultyOracleSwitch):
        current.fault = fault
        return
    network.switches[switch_id] = _FaultyOracleSwitch(current, fault)


def oracle_clear_faults(network: OracleNetwork) -> int:
    """Restore every faulty switch to healthy behaviour; returns count."""
    n = 0
    for heap_id, sw in list(network.switches.items()):
        if isinstance(sw, _FaultyOracleSwitch):
            healthy = OracleSwitch(heap_id, network.meter)
            healthy._config = sw.configuration
            healthy._staged = list(sw._staged)
            healthy.config_changes = sw.config_changes
            healthy.rounds_committed = sw.rounds_committed
            network.switches[heap_id] = healthy
            n += 1
    network.fault_injected = False
    return n
