"""Collective operations as CST communication *programs*.

The paper's §6 asks about "other communication patterns on the CST".  The
CST's primitive is the one-to-one circuit, so collectives become
*programs*: sequences of well-nested (or layered general) communication
sets executed step by step.

Provided collectives, all payload-verified — the data really rides the
simulated crossbars, so a wrong switch setting anywhere corrupts the
result:

``gather``     all N values collected, in index order, at PE N−1 in
               log2 N width-1 steps (binomial gather).
``scatter``    the reverse: a list at PE 0 distributed across all PEs in
               log2 N width-1 steps (binomial scatter).
``shift``      every value moves ``d`` leaves rightward; the set
               ``{(i, i+d)}`` is full of crossings, so it runs as
               well-nested layers.
``reverse``    the value at PE i ends at PE N−1−i, as a two-phase program
               (right-oriented half via the CSA, left-oriented half via
               the native left CSA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.decompose import decompose
from repro.core.base import Scheduler
from repro.core.csa import PADRScheduler
from repro.core.left import LeftPADRScheduler
from repro.core.schedule import Schedule
from repro.cst.network import CSTNetwork
from repro.exceptions import ReproError
from repro.util.bitmath import ilog2, is_power_of_two

__all__ = ["CollectiveError", "CollectiveResult", "gather", "scatter", "shift", "reverse"]


class CollectiveError(ReproError):
    """Invalid input to a collective program."""


@dataclass(frozen=True, slots=True)
class CollectiveResult:
    """Outcome of one collective program.

    ``values`` maps PE index → final datum (only PEs holding results
    appear); the cost figures aggregate every step of the program.
    """

    values: Mapping[int, Any]
    steps: int
    total_rounds: int
    total_power_units: int


def _route_step(
    cset: CommunicationSet,
    n: int,
    payloads: Mapping[int, Any],
    scheduler: Scheduler,
) -> tuple[dict[int, Any], Schedule]:
    """Route one set carrying real payloads; return deliveries + schedule."""
    network = CSTNetwork.of_size(n)
    network.assign_roles(cset.roles())
    for c in cset:
        network.pes[c.src].payload = payloads[c.src]
    schedule = scheduler.schedule(cset, network=network)
    received: dict[int, Any] = {}
    for c in cset:
        inbox = network.pes[c.dst].received
        if len(inbox) != 1:
            raise CollectiveError(
                f"PE {c.dst} received {len(inbox)} payloads, expected 1"
            )
        received[c.dst] = inbox[0]
    return received, schedule


def _check_pow2(n: int, what: str) -> None:
    if n < 2 or not is_power_of_two(n):
        raise CollectiveError(f"{what} needs a power-of-two count >= 2, got {n}")


def gather(values: Sequence[Any]) -> CollectiveResult:
    """Binomial gather: all values end, in index order, at PE N−1."""
    n = len(values)
    _check_pow2(n, "gather")
    acc: dict[int, list[Any]] = {i: [v] for i, v in enumerate(values)}
    steps = ilog2(n)
    total_rounds = total_power = 0
    for k in range(steps):
        block, half = 1 << (k + 1), 1 << k
        cset = CommunicationSet(
            Communication(base + half - 1, base + block - 1)
            for base in range(0, n, block)
        )
        received, schedule = _route_step(
            cset, n, {c.src: acc[c.src] for c in cset}, PADRScheduler()
        )
        total_rounds += schedule.n_rounds
        total_power += schedule.power.total_units
        for c in cset:
            acc[c.dst] = received[c.dst] + acc[c.dst]
    return CollectiveResult(
        values={n - 1: acc[n - 1]},
        steps=steps,
        total_rounds=total_rounds,
        total_power_units=total_power,
    )


def scatter(items: Sequence[Any]) -> CollectiveResult:
    """Binomial scatter: item ``i`` of the list at PE 0 ends at PE ``i``."""
    n = len(items)
    _check_pow2(n, "scatter")
    holding: dict[int, list[Any]] = {0: list(items)}
    steps = ilog2(n)
    total_rounds = total_power = 0
    for k in reversed(range(steps)):
        half = 1 << k
        sends: dict[int, list[Any]] = {}
        comms = []
        for holder in list(holding):
            keep, give = holding[holder][:half], holding[holder][half:]
            holding[holder] = keep
            sends[holder] = give
            comms.append(Communication(holder, holder + half))
        cset = CommunicationSet(comms)
        received, schedule = _route_step(cset, n, sends, PADRScheduler())
        total_rounds += schedule.n_rounds
        total_power += schedule.power.total_units
        for c in cset:
            holding[c.dst] = received[c.dst]
    return CollectiveResult(
        values={pe: lst[0] for pe, lst in holding.items()},
        steps=steps,
        total_rounds=total_rounds,
        total_power_units=total_power,
    )


def shift(values: Sequence[Any], distance: int) -> CollectiveResult:
    """Non-cyclic right shift: the value at PE ``i`` ends at PE ``i+d``.

    A single set cannot express a shift (every interior PE is both a
    sender and a receiver), so the program has two *phases* split by the
    parity of ``i // d`` — within a phase no PE plays two roles; phases
    may still contain crossing pairs and are layered into well-nested
    batches by :func:`~repro.comms.decompose.decompose`.
    """
    n = len(values)
    _check_pow2(n, "shift")
    if not 1 <= distance < n:
        raise CollectiveError(f"distance must be in [1, {n}), got {distance}")

    out: dict[int, Any] = {}
    total_rounds = total_power = 0
    steps = 0
    for parity in (0, 1):
        comms = [
            Communication(i, i + distance)
            for i in range(n - distance)
            if (i // distance) % 2 == parity
        ]
        if not comms:
            continue
        for batch in decompose(CommunicationSet(comms)).batches:
            layer = batch.cset
            received, schedule = _route_step(
                layer, n, {c.src: values[c.src] for c in layer}, PADRScheduler()
            )
            steps += 1
            total_rounds += schedule.n_rounds
            total_power += schedule.power.total_units
            out.update(received)
    return CollectiveResult(
        values=out,
        steps=steps,
        total_rounds=total_rounds,
        total_power_units=total_power,
    )


def reverse(values: Sequence[Any]) -> CollectiveResult:
    """Reverse: the value at PE ``i`` ends at PE ``N−1−i`` (two phases)."""
    n = len(values)
    _check_pow2(n, "reverse")
    half = n // 2
    out: dict[int, Any] = {}
    total_rounds = total_power = 0

    phases: list[tuple[CommunicationSet, Scheduler]] = [
        (
            CommunicationSet(Communication(i, n - 1 - i) for i in range(half)),
            PADRScheduler(),
        ),
        (
            CommunicationSet(
                Communication(i, n - 1 - i) for i in range(half, n)
            ),
            LeftPADRScheduler(),
        ),
    ]
    for cset, scheduler in phases:
        received, schedule = _route_step(
            cset, n, {c.src: values[c.src] for c in cset}, scheduler
        )
        total_rounds += schedule.n_rounds
        total_power += schedule.power.total_units
        out.update(received)
    return CollectiveResult(
        values=out,
        steps=2,
        total_rounds=total_rounds,
        total_power_units=total_power,
    )
