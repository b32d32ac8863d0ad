"""Dimension-ordered point-to-point routing on the SRGA grid.

The SRGA's row and column CSTs compose into a 2D router: a message from
PE ``(r1, c1)`` to PE ``(r2, c2)`` travels its source *row* tree to the
destination column (phase 1), is handed off at the intermediate PE
``(r1, c2)``, then travels the destination *column* tree to its target
(phase 2) — classic XY routing, with every hop a CST circuit scheduled by
this library's machinery.

Each phase groups transfers by tree; a tree's transfer set may be
arbitrary (crossings, mixed orientation), so each orientation is split
into well-nested layers by :func:`~repro.comms.decompose.decompose` and
every layer is routed with real payloads.  Messages already in their
destination column skip phase 1; messages already in their destination
row skip phase 2.

Restrictions inherited from the one-role-per-PE model: within one routing
step, a PE may appear as at most one endpoint *per tree* it participates
in.  Violations raise :class:`GridRoutingError` — callers split their
traffic into multiple steps (the stream idiom).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.decompose import decompose
from repro.core.csa import PADRScheduler
from repro.core.left import LeftPADRScheduler
from repro.cst.network import CSTNetwork
from repro.exceptions import CommunicationError, ReproError
from repro.extensions.srga import SRGA

__all__ = ["GridRoutingError", "GridMessage", "GridRoutingResult", "route_xy"]


class GridRoutingError(ReproError):
    """Invalid grid routing request (endpoint conflicts, out of range)."""


@dataclass(frozen=True, slots=True)
class GridMessage:
    """One point-to-point transfer on the grid."""

    src: tuple[int, int]
    dst: tuple[int, int]
    payload: Any

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise GridRoutingError(f"source and destination coincide: {self.src}")


@dataclass(frozen=True, slots=True)
class GridRoutingResult:
    """Deliveries plus aggregate cost of one XY routing step."""

    delivered: Mapping[tuple[int, int], Any]
    row_rounds: int
    col_rounds: int
    total_power_units: int

    @property
    def total_rounds(self) -> int:
        return self.row_rounds + self.col_rounds


def _route_tree_sets(
    per_tree: dict[int, list[tuple[int, int, Any]]],
    n_leaves: int,
) -> tuple[dict[tuple[int, int], Any], int, int]:
    """Route each tree's (src_pe, dst_pe, payload) transfers via layering.

    Returns (deliveries keyed by (tree, dst_pe), max rounds over trees,
    total power).  Trees run concurrently, so the phase's round cost is
    the slowest tree's.
    """
    delivered: dict[tuple[int, int], Any] = {}
    max_rounds = 0
    power = 0
    scheduler = PADRScheduler()
    for tree, transfers in per_tree.items():
        try:
            cset = CommunicationSet(
                Communication(s, d) for s, d, _ in transfers
            )
        except CommunicationError as exc:
            raise GridRoutingError(
                f"tree {tree}: conflicting endpoints within one step ({exc})"
            ) from exc
        payloads = {s: p for s, _, p in transfers}
        tree_rounds = 0
        right, left = cset.right_oriented_subset(), cset.left_oriented_subset()
        oriented_parts = [part for part in (right, left) if len(part)]
        for part in oriented_parts:
            # layer each orientation; left-oriented layers are mirrored
            # into right-oriented form for layering, then routed natively.
            probe = part if part.is_right_oriented else part.mirrored(n_leaves)
            for batch in decompose(probe).batches:
                layer = (
                    batch.cset
                    if part.is_right_oriented
                    else batch.cset.mirrored(n_leaves)
                )
                network = CSTNetwork.of_size(n_leaves)
                network.assign_roles(layer.roles())
                for c in layer:
                    network.pes[c.src].payload = payloads[c.src]
                if layer.is_right_oriented:
                    schedule = scheduler.schedule(layer, network=network)
                else:
                    schedule = LeftPADRScheduler().schedule(layer, network=network)
                tree_rounds += schedule.n_rounds
                power += schedule.power.total_units
                for c in layer:
                    delivered[(tree, c.dst)] = network.pes[c.dst].received[0]
        max_rounds = max(max_rounds, tree_rounds)
    return delivered, max_rounds, power


def route_xy(grid: SRGA, messages: Sequence[GridMessage]) -> GridRoutingResult:
    """Route every message row-first then column (XY dimension order)."""
    destinations: set[tuple[int, int]] = set()
    for m in messages:
        grid.pe(*m.src)
        grid.pe(*m.dst)
        if m.dst in destinations:
            raise GridRoutingError(
                f"two messages target PE {m.dst} in one step — split the "
                "traffic into multiple steps"
            )
        destinations.add(m.dst)

    # phase 1: along the source row to the destination column
    row_sets: dict[int, list[tuple[int, int, Any]]] = {}
    at_column: dict[int, list[tuple[tuple[int, int], Any]]] = {}
    skip_row: list[GridMessage] = []
    for m in messages:
        (r1, c1), (r2, c2) = m.src, m.dst
        if c1 == c2:
            skip_row.append(m)
        else:
            row_sets.setdefault(r1, []).append((c1, c2, m.payload))

    row_delivered, row_rounds, row_power = _route_tree_sets(row_sets, grid.cols)

    # hand off: build phase-2 column transfers
    col_sets: dict[int, list[tuple[int, int, Any]]] = {}
    delivered: dict[tuple[int, int], Any] = {}
    for m in messages:
        (r1, c1), (r2, c2) = m.src, m.dst
        payload = (
            m.payload if c1 == c2 else row_delivered[(r1, c2)]
        )
        if r1 == r2:
            delivered[(r2, c2)] = payload  # already on the target row
        else:
            col_sets.setdefault(c2, []).append((r1, r2, payload))

    col_delivered, col_rounds, col_power = _route_tree_sets(col_sets, grid.rows)
    for (col, row), payload in col_delivered.items():
        delivered[(row, col)] = payload

    return GridRoutingResult(
        delivered=delivered,
        row_rounds=row_rounds,
        col_rounds=col_rounds,
        total_power_units=row_power + col_power,
    )
