"""Communications and communication sets.

A *communication* pairs a source PE with a destination PE (paper §1).  A
*communication set* is a collection of communications in which every PE is
an endpoint of at most one communication — each PE is a source, a
destination, or neither, which is precisely the local knowledge Step 1.1
transmits.

A set is *right-oriented* when every source lies to the left of its
destination; the core algorithm (and the paper) work on right-oriented
sets, with left-oriented sets handled by mirroring
(:mod:`repro.extensions.oriented`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.exceptions import CommunicationError
from repro.types import Role

__all__ = ["Communication", "CommunicationSet"]


@dataclass(frozen=True, slots=True, order=True)
class Communication:
    """A source→destination pair.  Ordering is by ``(src, dst)``."""

    src: int
    dst: int

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise CommunicationError(f"PE indices must be non-negative: {self}")
        if self.src == self.dst:
            raise CommunicationError(f"source and destination must differ: {self}")

    @property
    def right_oriented(self) -> bool:
        """True when the source is to the left of the destination."""
        return self.src < self.dst

    @property
    def left_oriented(self) -> bool:
        return self.dst < self.src

    @property
    def leftmost(self) -> int:
        return min(self.src, self.dst)

    @property
    def rightmost(self) -> int:
        return max(self.src, self.dst)

    @property
    def span(self) -> range:
        """Leaf interval covered by the communication, inclusive of both ends."""
        return range(self.leftmost, self.rightmost + 1)

    def encloses(self, other: "Communication") -> bool:
        """True when ``other``'s interval nests strictly inside this one."""
        return (
            self.leftmost <= other.leftmost
            and other.rightmost <= self.rightmost
            and self != other
        )

    def mirrored(self, n_leaves: int) -> "Communication":
        """Reflection through the centre of an ``n_leaves``-wide CST."""
        return Communication(n_leaves - 1 - self.src, n_leaves - 1 - self.dst)

    def __str__(self) -> str:
        return f"({self.src}->{self.dst})"


class CommunicationSet:
    """An immutable set of communications with disjoint endpoints.

    Stored sorted by ``(src, dst)``.  Construction validates the at-most-
    one-role-per-PE rule; orientation and well-nestedness are properties of
    particular sets, checked by the predicates in
    :mod:`repro.comms.wellnested` (and demanded by the core scheduler).
    """

    __slots__ = ("_comms", "_max_pe")

    def __init__(self, comms: Iterable[Communication]) -> None:
        ordered = tuple(sorted(comms))
        seen: set[int] = set()
        for c in ordered:
            for endpoint in (c.src, c.dst):
                if endpoint in seen:
                    raise CommunicationError(
                        f"PE {endpoint} is an endpoint of more than one communication"
                    )
                seen.add(endpoint)
        self._comms = ordered
        self._max_pe = max(seen, default=-1)

    # -- container protocol ------------------------------------------------

    def __iter__(self) -> Iterator[Communication]:
        return iter(self._comms)

    def __len__(self) -> int:
        return len(self._comms)

    def __getitem__(self, i: int) -> Communication:
        return self._comms[i]

    def __contains__(self, c: object) -> bool:
        return c in self._comms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunicationSet):
            return NotImplemented
        return self._comms == other._comms

    def __hash__(self) -> int:
        return hash(self._comms)

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self._comms)
        return f"CommunicationSet([{inner}])"

    # -- derived views ---------------------------------------------------------

    @property
    def comms(self) -> tuple[Communication, ...]:
        return self._comms

    @property
    def is_right_oriented(self) -> bool:
        return all(c.src < c.dst for c in self._comms)

    @property
    def is_left_oriented(self) -> bool:
        return all(c.left_oriented for c in self._comms)

    @property
    def max_pe(self) -> int:
        """Largest PE index used (``-1`` for the empty set)."""
        return self._max_pe

    def min_leaves(self) -> int:
        """Smallest power-of-two CST that can host this set."""
        from repro.util.bitmath import ceil_pow2

        return max(2, ceil_pow2(self.max_pe + 1)) if self._comms else 2

    def roles(self) -> Mapping[int, Role]:
        """Mapping PE index → role, omitting NEITHER PEs."""
        out: dict[int, Role] = {}
        for c in self._comms:
            out[c.src] = Role.SOURCE
            out[c.dst] = Role.DESTINATION
        return out

    def partner_of(self) -> Mapping[int, int]:
        """Ground-truth pairing: source PE → destination PE."""
        return {c.src: c.dst for c in self._comms}

    def sources(self) -> tuple[int, ...]:
        return tuple(c.src for c in self._comms)

    def destinations(self) -> tuple[int, ...]:
        return tuple(c.dst for c in self._comms)

    def restricted_to(self, comms: Iterable[Communication]) -> "CommunicationSet":
        """Subset containing exactly the given communications."""
        wanted = set(comms)
        missing = wanted - set(self._comms)
        if missing:
            raise CommunicationError(f"communications not in set: {sorted(missing)}")
        return CommunicationSet(c for c in self._comms if c in wanted)

    def right_oriented_subset(self) -> "CommunicationSet":
        return CommunicationSet(c for c in self._comms if c.right_oriented)

    def left_oriented_subset(self) -> "CommunicationSet":
        return CommunicationSet(c for c in self._comms if c.left_oriented)

    def mirrored(self, n_leaves: int) -> "CommunicationSet":
        """The set reflected through the centre of an ``n_leaves`` CST."""
        if self.max_pe >= n_leaves:
            raise CommunicationError(
                f"set uses PE {self.max_pe}, beyond n_leaves={n_leaves}"
            )
        return CommunicationSet(c.mirrored(n_leaves) for c in self._comms)
