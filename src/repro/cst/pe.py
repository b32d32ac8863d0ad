"""Processing elements — the leaves of the CST.

Each PE knows only its own role (source / destination / neither), a purely
local datum (paper Step 1.1).  During data-transfer steps a source PE writes
a payload onto its upward link and a destination PE latches whatever arrives
on its downward link.  PEs never see the global pairing.

PE state lives in a :class:`PEStore`: dicts over the PEs that hold a role,
a payload override or transfer state.  A :class:`ProcessingElement` is a
view of one entry — a :class:`~repro.cst.network.CSTNetwork` makes them on
access, and a standalone ``ProcessingElement(index, ...)`` gets a private
store.
"""

from __future__ import annotations

from typing import Any

from repro.types import Role

__all__ = ["PEStore", "ProcessingElement"]


class PEStore:
    """Roles, payloads and transfer state of the touched PEs, by PE index.

    ============  ========================================================
    attribute     contents
    ============  ========================================================
    ``roles``     every PE whose role is not NEITHER
    ``payloads``  payload overrides (a PE writes ``("pe", index)``
                  otherwise)
    ``sent``      the round each source wrote in
    ``latched``   the round each destination first latched in
    ``received``  payloads each destination latched, in arrival order
    ============  ========================================================
    """

    __slots__ = ("roles", "payloads", "sent", "latched", "received")

    def __init__(self) -> None:
        self.roles: dict[int, Role] = {}
        self.payloads: dict[int, Any] = {}
        self.sent: dict[int, int] = {}
        self.latched: dict[int, int] = {}
        self.received: dict[int, list[Any]] = {}

    def role(self, i: int) -> Role:
        return self.roles.get(i, Role.NEITHER)

    def payload(self, i: int) -> Any:
        payloads = self.payloads
        return payloads[i] if i in payloads else ("pe", i)

    def write(self, i: int, round_no: int) -> Any:
        """PE ``i`` emits its payload (Step 2.2)."""
        role = self.roles.get(i, Role.NEITHER)
        if role is not Role.SOURCE:
            raise ValueError(f"PE {i} asked to write but role is {role.value}")
        if i in self.sent:
            raise ValueError(f"PE {i} already transmitted in round {self.sent[i]}")
        self.sent[i] = round_no
        return self.payload(i)

    def latch(self, i: int, datum: Any, round_no: int) -> None:
        """PE ``i`` latches an arriving payload."""
        role = self.roles.get(i, Role.NEITHER)
        if role is not Role.DESTINATION:
            raise ValueError(f"PE {i} received data but role is {role.value}")
        self.received.setdefault(i, []).append(datum)
        self.latched.setdefault(i, round_no)

    def done(self, i: int) -> bool:
        """True once PE ``i``'s communication obligation is satisfied."""
        role = self.roles.get(i, Role.NEITHER)
        if role is Role.SOURCE:
            return i in self.sent
        if role is Role.DESTINATION:
            return i in self.latched
        return True

    def reset_transfer(self, i: int) -> None:
        received = self.received.pop(i, None)
        if received is not None:
            received.clear()  # a caller may hold the list
        self.sent.pop(i, None)
        self.latched.pop(i, None)

    def clear_transfer(self) -> None:
        """Reset every PE's transfer state; roles and payloads stay."""
        for received in self.received.values():
            received.clear()
        self.received.clear()
        self.sent.clear()
        self.latched.clear()


class ProcessingElement:
    """A leaf of the CST: a view of one PE of a :class:`PEStore`.

    Attributes
    ----------
    index:
        PE index in ``[0, N)``, left to right.
    role:
        The PE's local knowledge for the current communication set.
    payload:
        Datum a source writes when scheduled.  Defaults to the PE's own
        index so end-to-end delivery can be checked without extra setup.
    received:
        Payloads latched by a destination, in arrival (round) order.
    sent_round / received_round:
        Round numbers at which this PE transmitted / latched (or ``None``).
    """

    __slots__ = ("index", "_store")

    def __init__(self, index: int, role: Role = Role.NEITHER, payload: Any = None) -> None:
        self.index = index
        self._store = PEStore()
        self.role = role
        if payload is not None:
            self.payload = payload

    @classmethod
    def of_store(cls, store: PEStore, index: int) -> "ProcessingElement":
        """A view of PE ``index`` of ``store``."""
        pe = cls.__new__(cls)
        pe.index = index
        pe._store = store
        return pe

    # -- state -------------------------------------------------------------

    @property
    def role(self) -> Role:
        return self._store.role(self.index)

    @role.setter
    def role(self, role: Role) -> None:
        if role is Role.NEITHER:
            self._store.roles.pop(self.index, None)
        else:
            self._store.roles[self.index] = role

    @property
    def payload(self) -> Any:
        return self._store.payload(self.index)

    @payload.setter
    def payload(self, datum: Any) -> None:
        self._store.payloads[self.index] = datum

    @property
    def received(self) -> list[Any]:
        return self._store.received.setdefault(self.index, [])

    @property
    def sent_round(self) -> int | None:
        return self._store.sent.get(self.index)

    @property
    def received_round(self) -> int | None:
        return self._store.latched.get(self.index)

    # -- role wire protocol (Step 1.1) ----------------------------------

    def role_word(self) -> tuple[int, int]:
        """The ``[1,0]`` / ``[0,1]`` / ``[0,0]`` word sent to the parent."""
        return self.role.wire_encoding

    # -- data transfer ---------------------------------------------------

    def write(self, round_no: int) -> Any:
        """Emit this source's payload (Step 2.2)."""
        return self._store.write(self.index, round_no)

    def latch(self, datum: Any, round_no: int) -> None:
        """Latch an arriving payload at a destination."""
        self._store.latch(self.index, datum, round_no)

    @property
    def done(self) -> bool:
        """True once this PE's communication obligation is satisfied."""
        return self._store.done(self.index)

    def reset_transfer_state(self) -> None:
        self._store.reset_transfer(self.index)

    def __repr__(self) -> str:
        return (
            f"ProcessingElement(index={self.index!r}, role={self.role!r}, "
            f"sent_round={self.sent_round!r}, received_round={self.received_round!r})"
        )
