"""Fault injection for the CST substrate.

The paper assumes a fault-free interconnect; a production simulator needs
to show what happens when that assumption breaks, and the reproduction's
adversarial-verification story needs negative tests: injected faults must
be *caught* by the verifier, never silently absorbed.

Fault models
------------
``StuckSwitchFault``    the switch ignores all (re-)configuration and keeps
                        whatever crossbar it had when the fault struck — a
                        latched-up control unit.
``DeadSwitchFault``     the switch drops every connection and refuses new
                        ones — a powered-down or fried switch.
``MisrouteFault``       the switch swaps its left and right *outputs* —
                        a wiring/bitflip defect that delivers payloads to
                        the wrong subtree instead of dropping them (the
                        nastiest case for detection).

Faults attach to a :class:`~repro.cst.network.CSTNetwork` via
:func:`inject`: the network stores the fault as an override of the target
switch (``network.switch_state.faults``), and every commit of that switch
passes the configuration the controller intended through
:meth:`SwitchFault.corrupt`.  Scheduling proceeds normally (the
distributed algorithm cannot see the fault), and the damage surfaces as
dropped or misdelivered payloads, which :mod:`repro.analysis.verifier`
flags.  Injecting or clearing a fault changes no crossbar, counter or
staged request: the fault strikes the hardware, not the control plane.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.cst.network import CSTNetwork
from repro.cst.switch import SwitchConfiguration
from repro.exceptions import PortConflictError, ReproError
from repro.types import Connection, InPort, OutPort

__all__ = [
    "FaultError",
    "SwitchFault",
    "StuckSwitchFault",
    "DeadSwitchFault",
    "MisrouteFault",
    "inject",
    "clear_faults",
]


class FaultError(ReproError):
    """Invalid fault-injection request."""


class SwitchFault(abc.ABC):
    """A behavioural defect of one switch, applied at commit time."""

    @abc.abstractmethod
    def corrupt(
        self, intended: SwitchConfiguration, previous: SwitchConfiguration
    ) -> SwitchConfiguration:
        """The configuration the faulty hardware actually ends up holding.

        ``intended`` is what a healthy switch would hold after this round;
        ``previous`` is what it held before.
        """

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class StuckSwitchFault(SwitchFault):
    """Control unit latch-up: the crossbar freezes at its current state."""

    def corrupt(
        self, intended: SwitchConfiguration, previous: SwitchConfiguration
    ) -> SwitchConfiguration:
        return previous


@dataclass(frozen=True)
class DeadSwitchFault(SwitchFault):
    """Total failure: no connection is ever held."""

    def corrupt(
        self, intended: SwitchConfiguration, previous: SwitchConfiguration
    ) -> SwitchConfiguration:
        return SwitchConfiguration.idle()


@dataclass(frozen=True)
class MisrouteFault(SwitchFault):
    """Left/right output swap: payloads land in the wrong subtree."""

    def corrupt(
        self, intended: SwitchConfiguration, previous: SwitchConfiguration
    ) -> SwitchConfiguration:
        swapped = []
        for conn in intended:
            out = conn.out_port
            if out is OutPort.L:
                out = OutPort.R
            elif out is OutPort.R:
                out = OutPort.L
            if conn.in_port.side is out.side:
                # the swap would create an illegal same-side connection
                # (e.g. r_i->p_o is unaffected; l_i->r_o becomes l_i->l_o,
                # which faulty hardware realises as a dropped connection).
                continue
            swapped.append(Connection(conn.in_port, out))
        try:
            return SwitchConfiguration(swapped)
        except PortConflictError:
            # conflicting swapped outputs: the hardware resolves to chaos;
            # model as holding only the first connection.  Only a port
            # conflict is hardware chaos — anything else is a programming
            # error and must propagate.
            return SwitchConfiguration(swapped[:1])


def inject(network: CSTNetwork, switch_id: int, fault: SwitchFault) -> None:
    """Make ``switch_id`` faulty from its next commit on.

    Idempotent per switch: injecting a second fault replaces the first.
    """
    if switch_id not in network.switches:
        raise FaultError(f"no switch {switch_id} in this network")
    network.switch_state.faults[int(switch_id)] = fault


def clear_faults(network: CSTNetwork) -> int:
    """Restore every faulty switch to healthy behaviour; returns count."""
    faults = network.switch_state.faults
    n = len(faults)
    faults.clear()
    return n
