"""The 3-sided CST switch: crossbar state plus change accounting.

A switch (paper Figure 3a) holds a *configuration*: a partial one-to-one
mapping from its three data inputs to its three data outputs, where an input
may drive only an output of a different side.  The data unit is this
crossbar; the control unit (implemented by the schedulers in
:mod:`repro.core`) decides what the configuration should be each round.

Power accounting follows paper §2.3: establishing one input→output
connection consumes one unit of power; a connection *kept* from the previous
round is free.  The meter lives in :mod:`repro.cst.power`; a commit
reports every newly-established connection to it.

Switch state lives in a :class:`SwitchStore`: dicts over the switches that
were ever touched, crossbars held as the integer codes of
:mod:`repro.cst.crossbar`.  A :class:`Switch` is a view of one entry —
a :class:`~repro.cst.network.CSTNetwork` makes them on access, and a
standalone ``Switch(heap_id, meter)`` gets a private one-switch store.
:meth:`SwitchStore.commit` is the one place the crossbar rule runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.cst.crossbar import CONN_INDEX, CONNECT, code_of, config_of
from repro.exceptions import PortConflictError
from repro.types import LEGAL_CONNECTIONS, Connection, InPort, OutPort
from repro.cst.power import PowerMeter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cst.faults import SwitchFault

__all__ = ["SwitchConfiguration", "SwitchStore", "Switch"]


class SwitchConfiguration:
    """A partial one-to-one input→output mapping of a 3-sided switch.

    Immutable value object; use :meth:`with_connection` /
    :meth:`without_ports` to derive new configurations.  Legality of each
    individual connection is enforced by :class:`~repro.types.Connection`;
    this class enforces that no input and no output is used twice.
    """

    __slots__ = ("_by_in",)

    def __init__(self, connections: Iterable[Connection] = ()) -> None:
        by_in: dict[InPort, Connection] = {}
        used_out: set[OutPort] = set()
        for conn in connections:
            if conn.in_port in by_in:
                raise PortConflictError(f"input {conn.in_port.value} used twice")
            if conn.out_port in used_out:
                raise PortConflictError(f"output {conn.out_port.value} used twice")
            by_in[conn.in_port] = conn
            used_out.add(conn.out_port)
        self._by_in = by_in

    # -- queries -----------------------------------------------------------

    def __iter__(self) -> Iterator[Connection]:
        return iter(self._by_in.values())

    def __len__(self) -> int:
        return len(self._by_in)

    def __contains__(self, conn: Connection) -> bool:
        return self._by_in.get(conn.in_port) == conn

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SwitchConfiguration):
            return NotImplemented
        return self._by_in == other._by_in

    def __hash__(self) -> int:
        return hash(frozenset(self._by_in.values()))

    def __repr__(self) -> str:
        inner = ", ".join(sorted(str(c) for c in self)) or "idle"
        return f"<config {inner}>"

    def output_for(self, in_port: InPort) -> OutPort | None:
        """Where data arriving on ``in_port`` goes, or ``None`` if dropped."""
        conn = self._by_in.get(in_port)
        return conn.out_port if conn else None

    def input_for(self, out_port: OutPort) -> InPort | None:
        """Which input currently drives ``out_port``, or ``None``."""
        for conn in self._by_in.values():
            if conn.out_port is out_port:
                return conn.in_port
        return None

    def connections(self) -> frozenset[Connection]:
        return frozenset(self._by_in.values())

    # -- derivation ----------------------------------------------------------

    def with_connection(self, conn: Connection) -> "SwitchConfiguration":
        """New configuration with ``conn`` added, displacing any connection
        that currently uses its input or output port."""
        keep = [
            c
            for c in self._by_in.values()
            if c.in_port is not conn.in_port and c.out_port is not conn.out_port
        ]
        keep.append(conn)
        return SwitchConfiguration(keep)

    def without_ports(self, conns: Iterable[Connection]) -> "SwitchConfiguration":
        """New configuration with the given connections removed (if present)."""
        drop = set(conns)
        return SwitchConfiguration(c for c in self._by_in.values() if c not in drop)

    @staticmethod
    def idle() -> "SwitchConfiguration":
        return _IDLE


_IDLE = SwitchConfiguration()


#: per connection index: the bit of its input and of its output, for the
#: port-conflict check of a staged round.
_PORT_BIT = {
    InPort.L: 1, InPort.R: 2, InPort.P: 4, OutPort.L: 8, OutPort.R: 16, OutPort.P: 32
}
_IN_BIT = tuple(_PORT_BIT[c.in_port] for c in LEGAL_CONNECTIONS)
_OUT_BIT = tuple(_PORT_BIT[c.out_port] for c in LEGAL_CONNECTIONS)


class SwitchStore:
    """Crossbar state of the touched switches, keyed by heap id.

    ==============  ======================================================
    attribute       contents
    ==============  ======================================================
    ``cfg``         crossbar code of every configured switch (codes of
                    :mod:`repro.cst.crossbar`; an idle switch has none)
    ``staged``      connections required for the coming commit
    ``changes``     configuration changes (the count Theorem 8 bounds)
    ``commits``     commits outside full sweeps, offset by a reset
    ``sweeps``      rounds in which every switch committed
    ``faults``      injected :class:`~repro.cst.faults.SwitchFault` per
                    faulty switch — the fault overrides the crossbar the
                    hardware ends up holding
    ==============  ======================================================

    A switch's ``rounds_committed`` is ``sweeps + commits[v]``, so a full
    sweep counts every switch without visiting it.
    """

    __slots__ = ("meter", "cfg", "staged", "changes", "commits", "sweeps", "faults")

    def __init__(self, meter: PowerMeter) -> None:
        self.meter = meter
        self.cfg: dict[int, int] = {}
        self.staged: dict[int, list[Connection]] = {}
        self.changes: dict[int, int] = {}
        self.commits: dict[int, int] = {}
        self.sweeps = 0
        self.faults: dict[int, "SwitchFault"] = {}

    def stage(self, v: int, conns: Iterable[Connection]) -> None:
        """Stage connections for switch ``v``'s coming commit."""
        staged = self.staged.get(v)
        if staged is None:
            staged = list(conns)
            if staged:
                self.staged[v] = staged
        else:
            staged.extend(conns)

    def commit(self, v: int) -> tuple[int, bool]:
        """Apply ``v``'s staged connections: ``(code held, changed)``.

        Lazy (paper): staged connections displace, the rest persist for
        free, and a connection is charged when it was not already held.
        Eager teardown: the crossbar becomes exactly the staged
        connections.  Rebuild: as eager, and every staged connection is
        charged.  A crossbar that differs from the last round's counts one
        change.  A faulty switch is charged and counted for what the
        controller intended and then holds what its fault makes of it.
        Conflicting staged ports raise :class:`PortConflictError` before
        anything changes.
        """
        cfg = self.cfg
        old = code = cfg.get(v, 0)
        conns = self.staged.get(v, ())
        charged = used = 0
        for conn in conns:
            k = CONN_INDEX[conn]
            if used & _IN_BIT[k]:
                raise PortConflictError(f"input {conn.in_port.value} used twice")
            if used & _OUT_BIT[k]:
                raise PortConflictError(f"output {conn.out_port.value} used twice")
            used |= _IN_BIT[k] | _OUT_BIT[k]
            step = CONNECT[code << 3 | k]
            code = step >> 1
            charged += step & 1
        if conns:
            del self.staged[v]
        policy = self.meter.policy
        if policy.eager_teardown:
            code = 0
            for conn in conns:
                code = CONNECT[code << 3 | CONN_INDEX[conn]] >> 1
            if policy.recharge:
                charged = len(conns)
        meter = self.meter
        if charged:
            meter.charge(v, charged)
        changed = code != old
        if changed:
            self.changes[v] = self.changes.get(v, 0) + 1
            meter.note_change(v)
        fault = self.faults.get(v) if self.faults else None
        if fault is not None:
            code = code_of(fault.corrupt(config_of(code), config_of(old)))
        if code:
            cfg[v] = code
        elif old:
            del cfg[v]
        return code, changed

    def reset_switch(self, v: int) -> None:
        """Clear ``v``'s crossbar, staging and counters (not the meter)."""
        self.cfg.pop(v, None)
        self.staged.pop(v, None)
        self.changes.pop(v, None)
        if self.sweeps:
            self.commits[v] = -self.sweeps
        else:
            self.commits.pop(v, None)

    def clear(self) -> None:
        """Clear every switch's state; injected faults stay."""
        self.cfg.clear()
        self.staged.clear()
        self.changes.clear()
        self.commits.clear()
        self.sweeps = 0


class Switch:
    """One switch of a :class:`SwitchStore`, with the round protocol.

    * :meth:`require` stages connections for the current round;
    * :meth:`commit_round` applies them through :meth:`SwitchStore.commit`,
      charging the power meter one unit per *newly established*
      connection (paper §2.3) and counting a configuration change if
      anything changed.

    Two teardown policies exist (see :class:`~repro.cst.power.PowerPolicy`):
    under the paper's model (*lazy*), connections not required this round
    stay in place (free) unless displaced; under *eager* teardown the
    crossbar is cleared every round, which is exactly what makes naive
    implementations pay O(w) — the ablation of DESIGN.md §4 (ABL).

    ``Switch(heap_id, meter)`` is a standalone switch with a private
    store; :meth:`of_store` views a switch of a shared one.
    """

    __slots__ = ("heap_id", "_store")

    def __init__(self, heap_id: int, meter: PowerMeter) -> None:
        self.heap_id = heap_id
        self._store = SwitchStore(meter)

    @classmethod
    def of_store(cls, store: SwitchStore, heap_id: int) -> "Switch":
        """A view of switch ``heap_id`` of ``store``."""
        sw = cls.__new__(cls)
        sw.heap_id = heap_id
        sw._store = store
        return sw

    # -- round protocol ---------------------------------------------------

    def require(self, conn: Connection) -> None:
        """Stage a connection required for the current round."""
        self._store.stage(self.heap_id, (conn,))

    def require_all(self, conns: Iterable[Connection]) -> None:
        self._store.stage(self.heap_id, conns)

    def commit_round(self) -> SwitchConfiguration:
        """Apply staged connections and account power; returns new config."""
        store, v = self._store, self.heap_id
        code, _ = store.commit(v)
        store.commits[v] = store.commits.get(v, 0) + 1
        return config_of(code)

    # -- state ---------------------------------------------------------------

    @property
    def configuration(self) -> SwitchConfiguration:
        return config_of(self._store.cfg.get(self.heap_id, 0))

    @property
    def staged(self) -> tuple[Connection, ...]:
        return tuple(self._store.staged.get(self.heap_id, ()))

    @property
    def config_changes(self) -> int:
        """Rounds in which the configuration differed from the previous
        round's (the quantity Theorem 8 bounds by O(1))."""
        return self._store.changes.get(self.heap_id, 0)

    @property
    def rounds_committed(self) -> int:
        store = self._store
        return store.sweeps + store.commits.get(self.heap_id, 0)

    @property
    def fault(self) -> "SwitchFault | None":
        """The fault injected into this switch, if any."""
        return self._store.faults.get(self.heap_id)

    def output_for(self, in_port: InPort) -> OutPort | None:
        return self.configuration.output_for(in_port)

    def reset(self) -> None:
        """Clear configuration and counters (does not touch the meter)."""
        self._store.reset_switch(self.heap_id)

    def __repr__(self) -> str:
        return f"Switch({self.heap_id}, {self.configuration!r}, changes={self.config_changes})"
