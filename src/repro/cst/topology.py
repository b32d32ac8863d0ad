"""Geometry of the Circuit Switched Tree.

The CST is a complete binary tree with ``N`` leaves (``N`` a power of two).
Leaves are processing elements, internal nodes are 3-sided switches, and
every tree edge is a full-duplex link (paper §1, Figure 1).

Addressing is heap-style:

* the root switch is heap id ``1``;
* node ``v`` has children ``2v`` (left) and ``2v+1`` (right);
* leaf ``i`` (PE index, ``0 <= i < N``) has heap id ``N + i``.

A *directed edge* is identified by its lower endpoint (the child node's heap
id) plus a :class:`~repro.types.Direction` — ``UP`` for child→parent traffic
and ``DOWN`` for parent→child.  Two communications may share an edge only in
opposite directions (the compatibility rule of [3] restated in paper §1).

The route of a communication ``(s, d)`` is the unique tree path: up from
leaf ``s`` to ``lca(s, d)``, then down to leaf ``d``.  Because an input of a
switch can never connect to an output of the same side, a path never "turns
around", so it crosses at most ``2 log N`` switches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

from repro.exceptions import InvalidNodeError, TopologyError
from repro.types import Connection, Direction, InPort, OutPort, Side
from repro.util.bitmath import common_prefix_node, ilog2, is_power_of_two, level_of

__all__ = ["DirectedEdge", "CSTTopology", "check_n_leaves"]


def check_n_leaves(n_leaves: int) -> None:
    """Raise :class:`TopologyError` unless ``n_leaves`` is a CST width: a
    power of two ``>= 2``."""
    if n_leaves < 2 or not is_power_of_two(n_leaves):
        raise TopologyError(f"n_leaves must be a power of two >= 2, got {n_leaves}")


@dataclass(frozen=True, slots=True)
class DirectedEdge:
    """One direction of a full-duplex tree link.

    ``child`` is the heap id of the link's lower endpoint; ``direction`` is
    ``UP`` (child→parent) or ``DOWN`` (parent→child).
    """

    child: int
    direction: Direction

    @property
    def reverse(self) -> "DirectedEdge":
        return DirectedEdge(self.child, self.direction.opposite)

    def __str__(self) -> str:
        arrow = "^" if self.direction is Direction.UP else "v"
        return f"e({self.child}){arrow}"


class CSTTopology:
    """Immutable geometry of a CST with ``n_leaves`` processing elements.

    All methods are pure; the topology carries no switch state.  Instances
    are cheap and hashable by identity; :meth:`of` memoises them by size so
    workload generators and schedulers can share one object per ``N``.
    """

    __slots__ = ("_n", "_height")

    def __init__(self, n_leaves: int) -> None:
        if not isinstance(n_leaves, int) or isinstance(n_leaves, bool):
            raise TypeError(f"n_leaves must be int, got {type(n_leaves).__name__}")
        check_n_leaves(n_leaves)
        self._n = n_leaves
        self._height = ilog2(n_leaves)

    # -- construction -------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)
    def of(n_leaves: int) -> "CSTTopology":
        """Memoised constructor: one shared topology object per size."""
        return CSTTopology(n_leaves)

    # -- basic shape ---------------------------------------------------

    @property
    def n_leaves(self) -> int:
        """Number of processing elements ``N``."""
        return self._n

    @property
    def n_switches(self) -> int:
        """Number of internal 3-sided switches (``N - 1``)."""
        return self._n - 1

    @property
    def height(self) -> int:
        """Tree height ``log2 N`` (number of switch levels)."""
        return self._height

    @property
    def root(self) -> int:
        """Heap id of the root switch."""
        return 1

    @property
    def first_leaf(self) -> int:
        """Heap id of PE 0 — leaves occupy ``[first_leaf, heap_size)``."""
        return self._n

    @property
    def heap_size(self) -> int:
        """Size of a flat array indexed by heap id (``2N``; index 0 unused).

        The wave engine and the frontier tracker preallocate buffers of
        this size so the hot path never touches a dict.
        """
        return 2 * self._n

    def __repr__(self) -> str:
        return f"CSTTopology(n_leaves={self._n})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CSTTopology) and other._n == self._n

    def __hash__(self) -> int:
        return hash(("CSTTopology", self._n))

    # -- node classification -------------------------------------------

    def is_valid_node(self, heap_id: int) -> bool:
        return 1 <= heap_id < 2 * self._n

    def is_leaf(self, heap_id: int) -> bool:
        self._check_node(heap_id)
        return heap_id >= self._n

    def is_switch(self, heap_id: int) -> bool:
        self._check_node(heap_id)
        return heap_id < self._n

    def _check_node(self, heap_id: int) -> None:
        if not self.is_valid_node(heap_id):
            raise InvalidNodeError(f"heap id {heap_id} outside tree with {self._n} leaves")

    def _check_switch(self, heap_id: int) -> None:
        self._check_node(heap_id)
        if heap_id >= self._n:
            raise InvalidNodeError(f"heap id {heap_id} is a leaf, expected a switch")

    # -- leaf <-> heap mapping -------------------------------------------

    def leaf_heap_id(self, pe_index: int) -> int:
        """Heap id of PE ``pe_index`` (``0 <= pe_index < N``)."""
        if not 0 <= pe_index < self._n:
            raise InvalidNodeError(f"PE index {pe_index} outside [0, {self._n})")
        return self._n + pe_index

    def pe_index(self, heap_id: int) -> int:
        """PE index of a leaf heap id."""
        self._check_node(heap_id)
        if heap_id < self._n:
            raise InvalidNodeError(f"heap id {heap_id} is a switch, not a leaf")
        return heap_id - self._n

    # -- structural navigation ------------------------------------------

    def parent(self, heap_id: int) -> int:
        self._check_node(heap_id)
        if heap_id == 1:
            raise InvalidNodeError("root has no parent")
        return heap_id >> 1

    def left_child(self, heap_id: int) -> int:
        self._check_switch(heap_id)
        return heap_id << 1

    def right_child(self, heap_id: int) -> int:
        self._check_switch(heap_id)
        return (heap_id << 1) | 1

    def children(self, heap_id: int) -> tuple[int, int]:
        self._check_switch(heap_id)
        return (heap_id << 1, (heap_id << 1) | 1)

    def side_of(self, child_heap_id: int) -> Side:
        """Whether ``child_heap_id`` is the left or right child of its parent."""
        self._check_node(child_heap_id)
        if child_heap_id == 1:
            raise InvalidNodeError("root is not a child")
        return Side.RIGHT if child_heap_id & 1 else Side.LEFT

    def level(self, heap_id: int) -> int:
        """Level of a node: root is 0, leaves are ``height``."""
        self._check_node(heap_id)
        return level_of(heap_id)

    def switches(self) -> Iterator[int]:
        """All switch heap ids, root first (BFS order)."""
        return iter(range(1, self._n))

    def switches_at_level(self, lvl: int) -> range:
        """Heap ids of switches at level ``lvl`` (0 = root)."""
        if not 0 <= lvl < self._height:
            raise TopologyError(f"switch level must be in [0, {self._height}), got {lvl}")
        return range(1 << lvl, 1 << (lvl + 1))

    def ancestors(self, heap_id: int) -> Iterator[int]:
        """Proper ancestors of a node, nearest first, ending at the root."""
        self._check_node(heap_id)
        v = heap_id >> 1
        while v >= 1:
            yield v
            v >>= 1

    def subtree_leaf_range(self, heap_id: int) -> range:
        """PE indices of the leaves under ``heap_id`` (inclusive of itself if leaf)."""
        self._check_node(heap_id)
        v = heap_id
        depth = self._height - level_of(v)
        lo = (v << depth) - self._n
        hi = ((v + 1) << depth) - self._n
        return range(lo, hi)

    # -- LCA and routing ---------------------------------------------------

    def lca_of_pes(self, a: int, b: int) -> int:
        """Heap id of the lowest common ancestor switch of two PEs."""
        return common_prefix_node(self.leaf_heap_id(a), self.leaf_heap_id(b))

    def lca(self, heap_a: int, heap_b: int) -> int:
        self._check_node(heap_a)
        self._check_node(heap_b)
        return common_prefix_node(heap_a, heap_b)

    def path_edges(self, src_pe: int, dst_pe: int) -> tuple[DirectedEdge, ...]:
        """Directed edges used by the circuit from PE ``src_pe`` to ``dst_pe``.

        Up-edges from the source leaf to the LCA first, then down-edges from
        the LCA to the destination leaf (in travel order).
        """
        if src_pe == dst_pe:
            raise TopologyError(f"communication endpoints must differ, got PE {src_pe} twice")
        ls = self.leaf_heap_id(src_pe)
        ld = self.leaf_heap_id(dst_pe)
        a = common_prefix_node(ls, ld)
        up: list[DirectedEdge] = []
        v = ls
        while v != a:
            up.append(DirectedEdge(v, Direction.UP))
            v >>= 1
        down: list[DirectedEdge] = []
        v = ld
        while v != a:
            down.append(DirectedEdge(v, Direction.DOWN))
            v >>= 1
        down.reverse()
        return tuple(up + down)

    def path_switches(self, src_pe: int, dst_pe: int) -> tuple[int, ...]:
        """Switch heap ids traversed by the circuit, in travel order."""
        return tuple(self.path_connections(src_pe, dst_pe).keys())

    def path_connections(self, src_pe: int, dst_pe: int) -> Mapping[int, Connection]:
        """The crossbar connection each switch on the route must hold.

        Returns an ordered mapping ``switch heap id -> Connection`` in travel
        order: intermediate up-path switches connect ``child_in -> p_o``, the
        LCA connects ``src-side in -> dst-side out`` (``l_i->r_o`` for a
        right-oriented communication), and intermediate down-path switches
        connect ``p_i -> child_out``.
        """
        if src_pe == dst_pe:
            raise TopologyError(f"communication endpoints must differ, got PE {src_pe} twice")
        ls = self.leaf_heap_id(src_pe)
        ld = self.leaf_heap_id(dst_pe)
        a = common_prefix_node(ls, ld)

        conns: dict[int, Connection] = {}
        # climb from the source: at each switch above the source leaf but
        # below the LCA the signal enters from one child and leaves upward.
        v = ls
        while (v >> 1) != a:
            u = v >> 1
            in_port = InPort.R if v & 1 else InPort.L
            conns[u] = Connection(in_port, OutPort.P)
            v = u
        src_arm = v  # child of the LCA on the source side

        # descend to the destination: collect bottom-up, then reverse.
        desc: list[tuple[int, Connection]] = []
        v = ld
        while (v >> 1) != a:
            u = v >> 1
            out_port = OutPort.R if v & 1 else OutPort.L
            desc.append((u, Connection(InPort.P, out_port)))
            v = u
        dst_arm = v

        # the LCA turns the signal from the source arm to the destination arm.
        lca_in = InPort.R if src_arm & 1 else InPort.L
        lca_out = OutPort.R if dst_arm & 1 else OutPort.L
        conns[a] = Connection(lca_in, lca_out)

        for u, c in reversed(desc):
            conns[u] = c
        return conns

    def path_length(self, src_pe: int, dst_pe: int) -> int:
        """Number of switches on the route (``O(log N)`` by construction)."""
        ls = self.leaf_heap_id(src_pe)
        ld = self.leaf_heap_id(dst_pe)
        a = common_prefix_node(ls, ld)
        la = level_of(a)
        return (self._height - la - 1) * 2 + 1 if src_pe != dst_pe else 0
