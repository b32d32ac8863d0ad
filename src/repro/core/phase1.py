"""Phase 1 of the CSA: distributing control information (paper Steps 1.1–1.3).

Each PE transmits its role word; each switch ``u`` receives
``C_{U-L} = [S_L, D_L]`` and ``C_{U-R} = [S_R, D_R]``, matches
``M = min(S_L, D_R)`` source–destination pairs (justified for right-oriented
well-nested sets by Lemma 1), stores
``C_S = [M, S_L−M, D_L, S_R, D_R−M]``, and forwards
``C_U = [S_L−M+S_R, D_L+D_R−M]``.

The wave runs once; afterwards every switch knows *how many* communications
of each of the five types (Figure 4a) pass through it — never *which*.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.comms.communication import CommunicationSet
from repro.core.control import ZERO_STATE, StoredState, UpWord
from repro.cst.engine import CSTEngine
from repro.exceptions import ProtocolError
from repro.types import Role

__all__ = [
    "Phase1Counters",
    "run_phase1",
    "run_phase1_vectorized",
    "phase1_states",
    "pending_matched",
]


def run_phase1(engine: CSTEngine) -> dict[int, StoredState]:
    """Execute Phase 1 over the engine's network.

    PE roles must already be assigned on the network
    (:meth:`~repro.cst.network.CSTNetwork.assign_roles`).  Returns the
    stored state ``C_S`` of every switch, keyed by heap id.

    For a balanced (fully matched) communication set the root's outgoing
    word must be ``[0, 0]``; anything else means some endpoint has no
    partner inside the tree and is reported as a protocol error.
    """
    network = engine.network
    if network.event_log is not None:
        return _run_phase1_logged(engine)
    roles = network.pe_state.roles
    states: dict[int, StoredState] = {}

    # the ``[S, D]`` pairs travel as plain tuples on the hot path — the
    # UpWord wrapper's validation is redundant here (counts are sums of
    # non-negative role words) and its per-node allocation is measurable at
    # large N; word-size accounting still uses ``UpWord.wire_words()``.
    # The logged variant above keeps recording real :class:`UpWord`\ s so
    # event traces render ``[S=…, D=…]`` as before.
    def leaf_word(pe: int) -> tuple[int, int]:
        return roles.get(pe, Role.NEITHER).wire_encoding

    def combine(
        switch_id: int, left: tuple[int, int], right: tuple[int, int]
    ) -> tuple[int, int]:
        s_l, d_l = left
        s_r, d_r = right
        if not (s_l or d_l or s_r or d_r):
            # quiescent subtree: intern the shared all-zero state.
            states[switch_id] = ZERO_STATE
            return _ZERO_PAIR
        m = s_l if s_l < d_r else d_r  # Lemma 1: left sources pair right dsts
        states[switch_id] = StoredState(
            matched=m,
            unmatched_left_src=s_l - m,
            left_dst=d_l,
            right_src=s_r,
            unmatched_right_dst=d_r - m,
        )
        return (s_l - m + s_r, d_l + d_r - m)

    sent = engine.upward_wave(
        leaf_word, combine, words_per_message=UpWord.wire_words(), collect=False
    )
    root_s, root_d = sent[engine.topology.root]
    if root_s or root_d:
        raise ProtocolError(
            f"unbalanced communication set: root would forward "
            f"{UpWord(root_s, root_d)} to a non-existent parent (some endpoint "
            "has no partner)"
        )
    return states


_ZERO_PAIR = (0, 0)


def _run_phase1_logged(engine: CSTEngine) -> dict[int, StoredState]:
    """Phase 1 with an event log attached: words are real :class:`UpWord`\\ s
    so the recorded control events keep the seed's rendering and validation."""
    role_of = engine.network.role_of
    states: dict[int, StoredState] = {}

    def leaf_word(pe: int) -> UpWord:
        return UpWord(*role_of(pe).wire_encoding)

    def combine(switch_id: int, left: UpWord, right: UpWord) -> UpWord:
        m = min(left.sources, right.destinations)
        states[switch_id] = StoredState(
            matched=m,
            unmatched_left_src=left.sources - m,
            left_dst=left.destinations,
            right_src=right.sources,
            unmatched_right_dst=right.destinations - m,
        )
        return UpWord(
            left.sources - m + right.sources,
            left.destinations + right.destinations - m,
        )

    sent = engine.upward_wave(
        leaf_word, combine, words_per_message=UpWord.wire_words(), collect=False
    )
    root = sent[engine.topology.root]
    if root.sources or root.destinations:
        raise ProtocolError(
            f"unbalanced communication set: root would forward {root} to a "
            "non-existent parent (some endpoint has no partner)"
        )
    return states


def run_phase1_vectorized(engine: CSTEngine) -> dict[int, StoredState]:
    """Phase 1 as a level-synchronous numpy reduction.

    Computes exactly the same per-switch ``C_S`` counters as
    :func:`run_phase1` — ``M = min(S_L, D_R)`` level by level, leaves up —
    but in O(log N) numpy passes instead of 2N Python ``combine`` calls.
    The wave still *happens* in the modelled hardware (every link carries
    its ``[S, D]`` word), so the engine trace records the same logical and
    physical message counts as the callable-driven wave; only the
    simulator's work is vectorised.  Falls back to :func:`run_phase1` when
    an event log is attached, which wants the per-node wave for fidelity.
    """
    network = engine.network
    if network.event_log is not None:
        return run_phase1(engine)
    n = engine.topology.n_leaves
    srcs = np.zeros(2 * n, dtype=np.int64)
    dsts = np.zeros(2 * n, dtype=np.int64)
    for i, role in network.pe_state.roles.items():
        s, d = role.wire_encoding
        srcs[n + i] = s
        dsts[n + i] = d

    matched = np.zeros(n, dtype=np.int64)
    t4 = np.zeros(n, dtype=np.int64)  # S_L - M
    t3 = np.zeros(n, dtype=np.int64)  # D_L
    t2 = np.zeros(n, dtype=np.int64)  # S_R
    t5 = np.zeros(n, dtype=np.int64)  # D_R - M
    for lvl in range(engine.topology.height - 1, -1, -1):
        lo, hi = 1 << lvl, 2 << lvl
        s_l, s_r = srcs[2 * lo : 2 * hi : 2], srcs[2 * lo + 1 : 2 * hi : 2]
        d_l, d_r = dsts[2 * lo : 2 * hi : 2], dsts[2 * lo + 1 : 2 * hi : 2]
        m = np.minimum(s_l, d_r)  # Lemma 1
        matched[lo:hi] = m
        t4[lo:hi] = s_l - m
        t3[lo:hi] = d_l
        t2[lo:hi] = s_r
        t5[lo:hi] = d_r - m
        srcs[lo:hi] = s_l - m + s_r
        dsts[lo:hi] = d_l + d_r - m

    if srcs[1] or dsts[1]:
        raise ProtocolError(
            f"unbalanced communication set: root would forward "
            f"{UpWord(int(srcs[1]), int(dsts[1]))} to a non-existent parent "
            "(some endpoint has no partner)"
        )

    states: dict[int, StoredState] = dict.fromkeys(range(1, n), ZERO_STATE)
    live = (np.nonzero(matched + t4 + t3 + t2 + t5)[0]).tolist()
    for v in live:
        states[v] = StoredState(
            matched=int(matched[v]),
            unmatched_left_src=int(t4[v]),
            left_dst=int(t3[v]),
            right_src=int(t2[v]),
            unmatched_right_dst=int(t5[v]),
        )
    n_messages = 2 * n - 2
    engine.trace.record_wave(n_messages, n_messages * UpWord.wire_words())
    return states


class Phase1Counters:
    """One set's Phase-1 result, held for the switches it touches only.

    ``m``, ``t4``, ``t3``, ``t2`` and ``t5`` map heap id to the five
    ``C_S`` counters, and ``pending`` to the subtree matched total of
    :func:`pending_matched`.  Each dict holds only the switches where its
    value started non-zero; an absent switch reads 0.

    The columnar kernel runs Phase 2 on these dicts directly.  Pristine,
    they are also the scheduler's Phase-1 reuse cache entry, which the
    scalar path reads and writes through :meth:`from_states` and
    :meth:`to_states`, so a run may switch paths and still hit the cache.
    """

    __slots__ = ("m", "t4", "t3", "t2", "t5", "pending")

    def __init__(
        self,
        m: dict[int, int],
        t4: dict[int, int],
        t3: dict[int, int],
        t2: dict[int, int],
        t5: dict[int, int],
        pending: dict[int, int],
    ) -> None:
        self.m, self.t4, self.t3, self.t2, self.t5 = m, t4, t3, t2, t5
        self.pending = pending

    @classmethod
    def from_roles(cls, n_leaves: int, roles: Mapping[int, Role]) -> "Phase1Counters":
        """Phase 1 for one set, in time proportional to its pairs' paths.

        The upward wave's ``M = min(S_L, D_R)`` reduction (Lemma 1) matches
        each destination with the nearest unmatched source to its left —
        the stack matching of the roles' parenthesis word, well-nested or
        not.  The counters follow from that matching pair by pair: a pair
        is matched (type 1) at the lowest common ancestor of its leaves,
        and below it counts at each switch it climbs through as a left or
        right source (types 4 and 2) or destination (types 3 and 5).  The
        pair adds one to ``pending`` of its matching switch and every
        ancestor.  Raises :class:`~repro.exceptions.ProtocolError`, as the
        wave does, when some endpoint has no partner.
        """
        m: dict[int, int] = {}
        t4: dict[int, int] = {}
        t3: dict[int, int] = {}
        t2: dict[int, int] = {}
        t5: dict[int, int] = {}
        pending: dict[int, int] = {}
        open_sources: list[int] = []
        lone_destinations = 0
        for pe in sorted(roles):
            role = roles[pe]
            if role is Role.SOURCE:
                open_sources.append(n_leaves + pe)
                continue
            if role is not Role.DESTINATION:
                continue
            if not open_sources:
                lone_destinations += 1
                continue
            src, dst = open_sources.pop(), n_leaves + pe
            while src >> 1 != dst >> 1:  # climb to the matching switch
                up_src, up_dst = src >> 1, dst >> 1
                if src & 1:
                    t2[up_src] = t2.get(up_src, 0) + 1
                else:
                    t4[up_src] = t4.get(up_src, 0) + 1
                if dst & 1:
                    t5[up_dst] = t5.get(up_dst, 0) + 1
                else:
                    t3[up_dst] = t3.get(up_dst, 0) + 1
                src, dst = up_src, up_dst
            v = src >> 1
            m[v] = m.get(v, 0) + 1
            while v:
                pending[v] = pending.get(v, 0) + 1
                v >>= 1
        if open_sources or lone_destinations:
            raise ProtocolError(
                f"unbalanced communication set: root would forward "
                f"{UpWord(len(open_sources), lone_destinations)} to a "
                "non-existent parent (some endpoint has no partner)"
            )
        return cls(m, t4, t3, t2, t5, pending)

    def row(self, v: int) -> tuple[int, int, int, int, int]:
        """Switch ``v``'s counters in the paper's order (see
        :meth:`StoredState.as_tuple`)."""
        return (
            self.m.get(v, 0),
            self.t4.get(v, 0),
            self.t3.get(v, 0),
            self.t2.get(v, 0),
            self.t5.get(v, 0),
        )

    def switches(self) -> list[int]:
        """Every switch holding a counter entry, ascending."""
        return sorted(
            self.m.keys() | self.t4.keys() | self.t3.keys() | self.t2.keys()
            | self.t5.keys()
        )

    @property
    def exhausted(self) -> bool:
        """Every counter on every switch is zero."""
        return not any(
            any(col.values()) for col in (self.m, self.t4, self.t3, self.t2, self.t5)
        )

    @property
    def live(self) -> int:
        """Switches with a non-zero counter."""
        return sum(1 for v in self.switches() if any(self.row(v)))

    def copy(self) -> "Phase1Counters":
        return Phase1Counters(
            dict(self.m), dict(self.t4), dict(self.t3), dict(self.t2),
            dict(self.t5), dict(self.pending),
        )

    @classmethod
    def from_states(
        cls, states: Mapping[int, StoredState], pending: list[int]
    ) -> "Phase1Counters":
        """The scalar path's pristine states and pending list, as counters."""
        cols: tuple[dict[int, int], ...] = ({}, {}, {}, {}, {})
        for v, st in states.items():
            if not st.exhausted:
                for col, value in zip(cols, st.as_tuple()):
                    if value:
                        col[v] = value
        return cls(*cols, {v: p for v, p in enumerate(pending) if p})

    def to_states(self, n_leaves: int) -> tuple[dict[int, StoredState], list[int]]:
        """Fresh scalar-path states (every switch) and pending list."""
        states: dict[int, StoredState] = dict.fromkeys(range(1, n_leaves), ZERO_STATE)
        for v in self.switches():
            row = self.row(v)
            if any(row):
                states[v] = StoredState(*row)
        pending = [0] * (2 * n_leaves)
        for v, p in self.pending.items():
            pending[v] = p
        return states, pending


def pending_matched(states: Mapping[int, StoredState], n_leaves: int) -> list[int]:
    """Subtree-matched totals for the frontier-pruned fast path.

    Returns a flat list indexed by heap id (size ``2 * n_leaves``) where
    entry ``v`` is the number of still-unscheduled matched pairs stored at
    switches in the subtree rooted at ``v`` (leaves are always 0).  A
    Phase-2 down-wave may skip any subtree whose incoming word is
    ``[null,null]`` and whose entry here is 0 — no descendant can stage a
    connection or emit a live word.  The scheduler decrements the entries
    of a switch and all its ancestors whenever that switch schedules one of
    its matched pairs, keeping the invariant current between rounds *and*
    for the not-yet-visited frontier within a round (ancestors are always
    visited first on a down-wave).
    """
    pending = [0] * (2 * n_leaves)
    for v in range(n_leaves - 1, 0, -1):
        acc = states[v].matched
        left = 2 * v
        if left < n_leaves:
            acc += pending[left] + pending[left + 1]
        pending[v] = acc
    return pending


def phase1_states(
    cset: CommunicationSet, n_leaves: int
) -> Mapping[int, StoredState]:
    """Pure helper: Phase-1 stored states for a set, without a live network.

    Convenient for tests and for the centralized baselines that want the
    same per-switch counters the distributed algorithm would compute.
    """
    from repro.cst.network import CSTNetwork

    network = CSTNetwork.of_size(n_leaves)
    roles: Mapping[int, Role] = cset.roles()
    network.assign_roles(roles)
    return run_phase1(CSTEngine(network))
