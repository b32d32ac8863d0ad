"""Decompose an arbitrary communication set into well-nested batches.

The paper's scheduler requires a right-oriented well-nested input; real
traffic is arbitrary.  This module provides the bridge: any valid
communication set (each PE an endpoint of at most one communication) is
partitioned into a sequence of *uniformly oriented, well-nested* batches,
each of which the PADR core schedules in its optimal ``width`` rounds.

The partition is built per orientation by first-fit layering of the
interval *crossing graph* in outermost-first order.  Minimising the number
of layers is colouring of a circle graph — NP-hard — so first-fit is a
heuristic; both a certified lower bound (the largest pairwise-crossing
clique, computable exactly in polynomial time) and the greedy upper bound
(max crossing degree + 1) are reported so callers can see how far from
optimal a decomposition can be.

An already well-nested right-oriented input yields exactly one batch whose
set compares equal to the input — the guarantee the bit-identical
fast path in :mod:`repro.core.plan` rests on.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.wellnested import is_well_nested

__all__ = [
    "Batch",
    "Decomposition",
    "crossing_lower_bound",
    "decompose",
    "max_crossing_degree",
]


def _spans(comms: Iterable[Communication]) -> list[tuple[int, int]]:
    """Each interval's ``(leftmost, rightmost)``, read once per call: the
    pairwise scans below compare plain ints, not properties."""
    return [(c.src, c.dst) if c.src < c.dst else (c.dst, c.src) for c in comms]


@dataclass(frozen=True, slots=True)
class Batch:
    """One uniformly oriented, well-nested sub-batch of a decomposition.

    ``cset`` keeps the original coordinates and orientation; for left
    batches :meth:`well_nested_form` reflects it into the right-oriented
    set the PADR core actually schedules (the round plan is mirrored back
    by the planner).
    """

    index: int
    cset: CommunicationSet
    orientation: str  # "right" | "left"

    def well_nested_form(self, n_leaves: int) -> CommunicationSet:
        """The right-oriented well-nested set fed to the core scheduler."""
        if self.orientation == "right":
            return self.cset
        return self.cset.mirrored(n_leaves)

    def __len__(self) -> int:
        return len(self.cset)


@dataclass(frozen=True, slots=True)
class Decomposition:
    """An ordered partition of ``source`` into well-nested batches.

    ``lower_bound`` is the certified minimum batch count for *any*
    decomposition into uniformly oriented well-nested batches: the largest
    pairwise-crossing clique per orientation, summed (crossing pairs can
    never share a batch, and orientations can never mix).
    """

    source: CommunicationSet
    batches: tuple[Batch, ...]
    lower_bound: int

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def bound_gap(self) -> int:
        """Batches beyond the certified minimum (0 = provably optimal)."""
        return self.n_batches - self.lower_bound

    @property
    def is_trivial(self) -> bool:
        """True when the input was already schedulable directly."""
        return (
            self.n_batches <= 1
            and all(b.orientation == "right" for b in self.batches)
        )

    def union(self) -> CommunicationSet:
        """All batch members, recombined — always equals ``source``."""
        return CommunicationSet(c for b in self.batches for c in b.cset)

    def __iter__(self) -> Iterator[Batch]:
        return iter(self.batches)

    def __len__(self) -> int:
        return len(self.batches)


def _first_fit_layers(comms: Iterable[Communication]) -> list[list[Communication]]:
    """First-fit well-nested layering, outermost-first (orientation-blind).

    Every interval already in a layer starts at or left of the one being
    placed, so the two cross exactly when the member starts strictly left
    of it and ends inside it.
    """
    items = list(comms)
    spans = _spans(items)
    order = sorted(range(len(items)), key=lambda i: (spans[i][0], -spans[i][1]))
    layers: list[list[Communication]] = []
    layer_spans: list[list[tuple[int, int]]] = []
    for i in order:
        left, right = spans[i]
        for members, member_spans in zip(layers, layer_spans):
            if not any(a < left <= b < right for a, b in member_spans):
                members.append(items[i])
                member_spans.append(spans[i])
                break
        else:
            layers.append([items[i]])
            layer_spans.append([spans[i]])
    return layers


def max_crossing_degree(comms: Iterable[Communication]) -> int:
    """Largest number of crossings any one interval participates in.

    First-fit layering never needs more than ``max_crossing_degree + 1``
    layers (greedy colouring bound) — the upper bound the smoke gate
    checks decompositions against.
    """
    spans = sorted(_spans(comms))
    degree = [0] * len(spans)
    for i, (left, right) in enumerate(spans):
        # a later interval starts at or right of this one; past ``right``
        # it is disjoint, and so is every interval after it
        for j in range(i + 1, len(spans)):
            a, b = spans[j]
            if a > right:
                break
            if left < a and right < b:
                degree[i] += 1
                degree[j] += 1
    return max(degree, default=0)


def crossing_lower_bound(comms: Iterable[Communication]) -> int:
    """Size of the largest pairwise-crossing clique among the intervals.

    A set of pairwise-crossing intervals, ordered by left endpoint, has
    strictly increasing left *and* right endpoints with every left endpoint
    at most the first right endpoint.  Anchoring the clique at its first
    interval ``f``, the rest is the longest increasing subsequence of right
    endpoints over ``{c : f.l < c.l <= f.r < c.r}`` sorted by left
    endpoint — O(n² log n) overall, exact.

    Any decomposition into well-nested layers must place each clique member
    in its own layer, so this is a certified lower bound on layer count.
    """
    spans = sorted(_spans(comms), key=lambda span: span[0])
    if not spans:
        return 0
    lefts = [left for left, _ in spans]
    best = 1
    for f_left, f_right in spans:
        # candidates start in (f_left, f_right], a contiguous run of spans
        tails: list[int] = []
        for j in range(bisect.bisect_right(lefts, f_left), len(spans)):
            left, r = spans[j]
            if left > f_right:
                break
            if r <= f_right:
                continue
            # LIS of the candidates' right endpoints, in left-endpoint order
            pos = bisect.bisect_left(tails, r)
            if pos == len(tails):
                tails.append(r)
            else:
                tails[pos] = r
        best = max(best, 1 + len(tails))
    return best


def decompose(cset: CommunicationSet) -> Decomposition:
    """Partition an arbitrary set into well-nested uniformly oriented batches.

    Right-oriented batches come first (outermost layer first), then
    left-oriented ones.  An already well-nested right-oriented input yields
    exactly one batch with ``batch.cset == cset``; the empty set yields no
    batches.  Every batch's :meth:`Batch.well_nested_form` passes
    :func:`repro.comms.wellnested.is_well_nested`.
    """
    right = cset.right_oriented_subset()
    left = cset.left_oriented_subset()

    batches: list[Batch] = []
    for orientation, subset in (("right", right), ("left", left)):
        if not len(subset):
            continue
        for layer in _first_fit_layers(subset.comms):
            batches.append(
                Batch(
                    index=len(batches),
                    cset=CommunicationSet(layer),
                    orientation=orientation,
                )
            )

    lower = 0
    if len(right):
        lower += crossing_lower_bound(right.comms)
    if len(left):
        lower += crossing_lower_bound(left.comms)

    dec = Decomposition(source=cset, batches=tuple(batches), lower_bound=lower)
    if __debug__:
        for b in dec.batches:
            assert is_well_nested(b.well_nested_form(cset.min_leaves()))
    return dec
