"""Well-nestedness: recognition, parenthesis encoding, nesting structure.

Paper §2.1: *"In a well-nested communication set, the communications
correspond to a balanced well-nested parenthesis expression."*  For a
right-oriented set, write ``(`` at each source leaf, ``)`` at each
destination leaf, and ``.`` elsewhere, scanning leaves left to right; the
set is well-nested when this word is balanced **and** the stack-matching of
the parentheses recovers exactly the set's own source/destination pairing.

This module also computes the nesting *forest* (which communication
immediately encloses which) and nesting depths — the ingredients of the
Roy-style baseline and of several workload generators.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.comms.communication import Communication, CommunicationSet
from repro.exceptions import NotWellNestedError, OrientationError

__all__ = [
    "parenthesis_profile",
    "is_well_nested",
    "require_well_nested",
    "nesting_forest",
    "nesting_depths",
    "enclosing_chain",
]


def parenthesis_profile(cset: CommunicationSet, n_leaves: int | None = None) -> str:
    """Render the set as a parenthesis word over the leaves.

    ``(`` marks a source, ``)`` a destination, ``.`` an idle PE.  Requires a
    right-oriented set (sources precede their destinations).
    """
    if not cset.is_right_oriented:
        raise OrientationError("parenthesis profile requires a right-oriented set")
    n = n_leaves if n_leaves is not None else cset.max_pe + 1
    chars = ["."] * max(n, 0)
    for c in cset:
        chars[c.src] = "("
        chars[c.dst] = ")"
    return "".join(chars)


def is_well_nested(cset: CommunicationSet) -> bool:
    """True iff the set is right-oriented and well-nested.

    Well-nested means the parenthesis word is balanced and the balanced
    matching coincides with the set's own pairing — i.e. no two
    communications "cross" (partially overlap).  One sweep over the
    communications in source order (the set's stored order) checks both
    with a stack of the open intervals' destinations: each new interval
    must close before the innermost interval still open around it.
    """
    open_dsts: list[int] = []
    for c in cset.comms:
        src, dst = c.src, c.dst
        if dst < src:
            return False  # left-oriented
        while open_dsts and open_dsts[-1] < src:
            open_dsts.pop()
        if open_dsts and open_dsts[-1] < dst:
            return False  # the enclosing interval ends inside this one
        open_dsts.append(dst)
    return True


def require_well_nested(cset: CommunicationSet) -> CommunicationSet:
    """Validate and return ``cset``; raise otherwise."""
    if not cset.is_right_oriented:
        raise OrientationError("expected a right-oriented communication set")
    if not is_well_nested(cset):
        raise NotWellNestedError(
            "communication set is not well-nested (crossing pairs present)"
        )
    return cset


def nesting_forest(cset: CommunicationSet) -> Mapping[Communication, Communication | None]:
    """Immediate encloser of each communication (``None`` for roots).

    For a well-nested set, intervals either nest or are disjoint, so the
    "immediately encloses" relation forms a forest.  Computed by a single
    left-to-right sweep with a stack.
    """
    require_well_nested(cset)
    events: list[tuple[int, bool, Communication]] = []
    for c in cset:
        events.append((c.src, True, c))
        events.append((c.dst, False, c))
    events.sort(key=lambda t: t[0])
    stack: list[Communication] = []
    parent: dict[Communication, Communication | None] = {}
    for _, is_source, c in events:
        if is_source:
            parent[c] = stack[-1] if stack else None
            stack.append(c)
        else:
            stack.pop()
    return parent


def nesting_depths(cset: CommunicationSet) -> Mapping[Communication, int]:
    """Nesting depth of each communication (roots have depth 0)."""
    parent = nesting_forest(cset)
    depth: dict[Communication, int] = {}

    def depth_of(c: Communication) -> int:
        if c in depth:
            return depth[c]
        p = parent[c]
        d = 0 if p is None else depth_of(p) + 1
        depth[c] = d
        return d

    for c in cset:
        depth_of(c)
    return depth


def enclosing_chain(
    cset: CommunicationSet, c: Communication
) -> Sequence[Communication]:
    """All communications enclosing ``c``, outermost first."""
    parent = nesting_forest(cset)
    chain: list[Communication] = []
    cur = parent.get(c)
    while cur is not None:
        chain.append(cur)
        cur = parent[cur]
    chain.reverse()
    return chain
