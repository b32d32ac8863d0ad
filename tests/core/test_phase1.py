"""Unit tests for Phase 1 (distributing control information)."""

import pytest
from hypothesis import given

from repro.exceptions import ProtocolError
from repro.types import Role
from repro.comms.communication import Communication, CommunicationSet
from repro.comms.generators import crossing_chain, paper_figure2_set
from repro.core.phase1 import (
    Phase1Counters,
    pending_matched,
    phase1_states,
    run_phase1,
)
from repro.cst.engine import CSTEngine
from repro.cst.network import CSTNetwork

from tests.conftest import arbitrary_set_st, wellnested_set_st


def cs(*pairs):
    return CommunicationSet(Communication(s, d) for s, d in pairs)


class TestMatchingAtLCA:
    def test_single_comm_matched_at_lca(self):
        states = phase1_states(cs((0, 7)), 8)
        assert states[1].matched == 1  # LCA(0,7) is the root
        assert states[4].as_tuple() == (0, 1, 0, 0, 0)  # source passes up
        assert states[2].as_tuple() == (0, 1, 0, 0, 0)
        assert states[3].as_tuple() == (0, 0, 0, 0, 1)  # destination side
        assert states[7].as_tuple() == (0, 0, 0, 0, 1)

    def test_adjacent_comm_matched_low(self):
        states = phase1_states(cs((0, 1)), 8)
        assert states[4].matched == 1
        assert states[2].exhausted
        assert states[1].exhausted

    def test_every_comm_matched_exactly_once(self, fig2_set):
        states = phase1_states(fig2_set, 16)
        assert sum(st.matched for st in states.values()) == len(fig2_set)

    def test_lemma1_min_matching(self):
        # two sources climb from the left of switch 2; only one destination
        # climbs from its right: M = min(2, 1) = 1 at switch 1 (root)?  Use
        # a concrete nesting: (0,6) and (1,5) match at root; (2,3) below.
        states = phase1_states(cs((0, 6), (1, 5), (2, 3)), 8)
        assert states[1].matched == 2
        assert states[5].matched == 1

    def test_counts_match_definition(self):
        # switch 2 of an 8-leaf tree: leaves 0..3.  Set: (0,2) matched below
        # it at switch... lca(0,2)=2 actually; (1,6) passes up; (5,3)? keep
        # right-oriented: (1,6) source climbs through 2.
        states = phase1_states(cs((0, 2), (1, 6)), 8)
        # at switch 2: lca(0,2)=2 -> one matched; source 1 unmatched climbs
        assert states[2].matched == 1
        assert states[2].unmatched_left_src == 1

    @given(wellnested_set_st())
    def test_total_matched_equals_set_size(self, s):
        states = phase1_states(s, 64)
        assert sum(st.matched for st in states.values()) == len(s)

    @given(wellnested_set_st())
    def test_type45_exclusivity_everywhere(self, s):
        states = phase1_states(s, 64)
        for st in states.values():
            assert st.unmatched_left_src == 0 or st.unmatched_right_dst == 0


class TestRootBalance:
    def test_unbalanced_set_detected(self):
        net = CSTNetwork.of_size(8)
        net.assign_roles({0: Role.SOURCE})  # a source with no destination
        with pytest.raises(ProtocolError, match="unbalanced"):
            run_phase1(CSTEngine(net))

    def test_orphan_destination_detected(self):
        net = CSTNetwork.of_size(8)
        net.assign_roles({5: Role.DESTINATION})
        with pytest.raises(ProtocolError, match="unbalanced"):
            run_phase1(CSTEngine(net))


class TestEngineAccounting:
    def test_phase1_is_one_wave_of_constant_words(self):
        net = CSTNetwork.of_size(16)
        net.assign_roles(crossing_chain(4, 16).roles())
        engine = CSTEngine(net)
        run_phase1(engine)
        assert engine.trace.waves == 1
        assert engine.trace.messages == 2 * 16 - 2
        # Theorem 5: constant words per message
        assert engine.trace.words == engine.trace.messages * 2

    def test_empty_set_all_exhausted(self):
        states = phase1_states(CommunicationSet(()), 8)
        assert all(st.exhausted for st in states.values())


class TestBruteForceCrossCheck:
    """Phase 1's counters re-derived from first principles (interval logic)
    must match the distributed wave's result on every generated workload."""

    @staticmethod
    def brute_force_state(cset, topo, switch_id):
        from repro.core.control import StoredState

        left = set(topo.subtree_leaf_range(topo.left_child(switch_id)))
        right = set(topo.subtree_leaf_range(topo.right_child(switch_id)))
        matched = unmatched_left_src = left_dst = right_src = unmatched_right_dst = 0
        for c in cset:
            if c.src in left and c.dst in right:
                matched += 1          # type 1: matched at this switch
            elif c.src in left and c.dst not in left | right:
                unmatched_left_src += 1  # type 4
            elif c.dst in left and c.src not in left | right:
                left_dst += 1         # type 3
            elif c.src in right and c.dst not in left | right:
                right_src += 1        # type 2
            elif c.dst in right and c.src not in left | right:
                unmatched_right_dst += 1  # type 5
        return StoredState(
            matched=matched,
            unmatched_left_src=unmatched_left_src,
            left_dst=left_dst,
            right_src=right_src,
            unmatched_right_dst=unmatched_right_dst,
        )

    @given(wellnested_set_st(max_pairs=10))
    def test_wave_matches_brute_force(self, s):
        from repro.cst.topology import CSTTopology

        topo = CSTTopology.of(64)
        states = phase1_states(s, 64)
        for switch_id in topo.switches():
            expected = self.brute_force_state(s, topo, switch_id)
            assert states[switch_id].as_tuple() == expected.as_tuple(), (
                f"switch {switch_id}: wave {states[switch_id]} != "
                f"brute force {expected}"
            )


class TestCountersFromRoles:
    """The kernel's Phase 1 (pair by pair along the roles' matching) must
    store exactly the upward wave's counters, for any role assignment."""

    @given(arbitrary_set_st(max_pairs=10))
    def test_from_roles_matches_the_wave(self, s):
        n = 64
        try:
            states = phase1_states(s, n)
        except ProtocolError:
            with pytest.raises(ProtocolError, match="unbalanced"):
                Phase1Counters.from_roles(n, s.roles())
            return
        counters = Phase1Counters.from_roles(n, s.roles())
        want = Phase1Counters.from_states(states, pending_matched(states, n))
        for name in ("m", "t4", "t3", "t2", "t5", "pending"):
            assert getattr(counters, name) == getattr(want, name), name
