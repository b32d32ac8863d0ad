"""Native CSA for *left-oriented* well-nested sets (paper §2.1).

The paper notes that "dealing with right oriented sets can be adjusted
easily to left oriented sets".  :class:`LeftPADRScheduler` makes that
adjustment concrete without re-deriving any logic: every switch views the
tree through a **mirror lens** —

* Phase 1 matches right-subtree sources with left-subtree destinations
  (``M = min(S_R, D_L)``, the reflection of Lemma 1) and stores its
  counters in mirrored slots of the ordinary
  :class:`~repro.core.control.StoredState`;
* Phase 2 runs the ordinary :func:`~repro.core.phase2.configure` on those
  mirrored states, then swaps left↔right in its outputs: the word computed
  "for the left child" goes to the real right child and every crossbar
  connection is reflected (``l_i→r_o`` ⇒ ``r_i→l_o`` etc.).

Because the lens is applied per switch, leaves keep their real indices and
payloads flow through the real network — unlike
:class:`~repro.extensions.oriented.MirroredScheduler`, which schedules a
*reflected copy* of the workload.  The two must agree on round counts and
power; the test-suite cross-checks them, closing the loop on the paper's
symmetry claim from both directions.
"""

from __future__ import annotations

from typing import Final

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.wellnested import require_well_nested
from repro.core.base import ScheduleContext, Scheduler
from repro.core.control import DownKind, DownWord, StoredState, UpWord
from repro.core.phase2 import configure
from repro.core.schedule import RoundRecord, Schedule
from repro.cst.engine import CSTEngine
from repro.cst.network import CSTNetwork
from repro.exceptions import OrientationError, ProtocolError, SchedulingError
from repro.types import (
    CONN_DOWN_L,
    CONN_DOWN_R,
    CONN_L_TO_R,
    CONN_L_UP,
    CONN_R_TO_L,
    CONN_R_UP,
    Connection,
    Role,
)

__all__ = ["LeftPADRScheduler"]

#: reflection of every legal crossbar connection (left↔right swap).
_MIRROR: Final[dict[Connection, Connection]] = {
    CONN_L_TO_R: CONN_R_TO_L,
    CONN_R_TO_L: CONN_L_TO_R,
    CONN_L_UP: CONN_R_UP,
    CONN_R_UP: CONN_L_UP,
    CONN_DOWN_L: CONN_DOWN_R,
    CONN_DOWN_R: CONN_DOWN_L,
}


class LeftPADRScheduler(Scheduler):
    """The CSA for left-oriented well-nested sets, via a mirror lens."""

    name = "padr-csa-left"

    def __init__(self, *, validate_input: bool = True) -> None:
        self.validate_input = validate_input

    def _schedule(self, cset: CommunicationSet, ctx: ScheduleContext) -> Schedule:
        if not cset.is_left_oriented:
            raise OrientationError(
                "LeftPADRScheduler expects a left-oriented communication set"
            )
        n = ctx.n_leaves
        if self.validate_input:
            require_well_nested(cset.mirrored(n))

        network = ctx.network
        if network is None:
            network = CSTNetwork.of_size(n, policy=ctx.policy)
        network.assign_roles(cset.roles())
        engine = CSTEngine(network)

        states = self._phase1(engine)

        rounds: list[RoundRecord] = []
        max_rounds = len(cset) + 1
        while any(st.matched for st in states.values()):
            if len(rounds) >= max_rounds:
                raise SchedulingError(
                    "left CSA failed to make progress — invalid input or bug"
                )
            rounds.append(self._run_round(engine, states, len(rounds)))

        leftovers = {v: st.as_tuple() for v, st in states.items() if not st.exhausted}
        if leftovers:
            raise ProtocolError(
                f"left CSA finished with non-exhausted counters: {leftovers}"
            )

        return Schedule(
            cset=cset,
            n_leaves=n,
            scheduler_name=self.name,
            rounds=tuple(rounds),
            power=network.power_report(),
            control_messages=engine.trace.messages,
            control_words=engine.trace.words,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _phase1(engine: CSTEngine) -> dict[int, StoredState]:
        """Phase 1 through the mirror lens: M = min(S_R, D_L)."""
        network = engine.network
        states: dict[int, StoredState] = {}

        def leaf_word(pe: int) -> UpWord:
            return UpWord(*network.role_of(pe).wire_encoding)

        def combine(switch_id: int, left: UpWord, right: UpWord) -> UpWord:
            # mirrored-left child == real right child: feed the ordinary
            # matching rule the children in swapped order.
            m = min(right.sources, left.destinations)
            states[switch_id] = StoredState(
                matched=m,
                unmatched_left_src=right.sources - m,   # mirrored slot
                left_dst=right.destinations,            # mirrored slot
                right_src=left.sources,                 # mirrored slot
                unmatched_right_dst=left.destinations - m,  # mirrored slot
            )
            return UpWord(
                right.sources - m + left.sources,
                right.destinations + left.destinations - m,
            )

        sent = engine.upward_wave(
            leaf_word, combine, words_per_message=UpWord.wire_words()
        )
        root_out = sent[engine.topology.root]
        if root_out.sources or root_out.destinations:
            raise ProtocolError(
                f"unbalanced left-oriented set: root would forward {root_out}"
            )
        return states

    def _run_round(
        self,
        engine: CSTEngine,
        states: dict[int, StoredState],
        round_no: int,
    ) -> RoundRecord:
        network = engine.network
        staged: dict[int, tuple[Connection, ...]] = {}

        def emit(switch_id: int, word: DownWord) -> tuple[DownWord, DownWord]:
            outcome = configure(switch_id, states[switch_id], word)
            if outcome.connections:
                staged[switch_id] = tuple(
                    _MIRROR[c] for c in outcome.connections
                )
            # mirrored-left word belongs to the real right child
            return outcome.right_word, outcome.left_word

        leaf_words = engine.downward_wave(
            DownWord.none(), emit, words_per_message=DownWord.wire_words()
        )

        writers: list[int] = []
        for pe_index, word in leaf_words.items():
            if word.kind is DownKind.NONE:
                continue
            if word.kind is DownKind.BOTH or word.x_s or word.x_d:
                raise ProtocolError(f"leaf PE {pe_index} received invalid {word}")
            role = network.role_of(pe_index)
            if word.kind is DownKind.SRC:
                if role is not Role.SOURCE:
                    raise ProtocolError(
                        f"leaf PE {pe_index} asked to transmit, role {role.value}"
                    )
                writers.append(pe_index)
            elif role is not Role.DESTINATION:
                raise ProtocolError(
                    f"leaf PE {pe_index} asked to receive, role {role.value}"
                )

        network.stage(staged)
        network.commit_round()

        traces = network.transfer(sorted(writers), round_no)
        performed = []
        for tr in traces:
            if tr.delivered_pe is None:
                raise ProtocolError(
                    f"round {round_no}: payload from PE {tr.source_pe} dropped"
                )
            performed.append(Communication(tr.source_pe, tr.delivered_pe))

        return RoundRecord(
            index=round_no,
            performed=tuple(performed),
            writers=tuple(sorted(writers)),
            staged=staged,
        )
