"""Unit and scenario tests for the full PADR scheduler."""

import numpy as np
import pytest

from repro.exceptions import NotWellNestedError, OrientationError, SchedulingError
from repro.comms.communication import Communication, CommunicationSet
from repro.comms.generators import (
    crossing_chain,
    disjoint_pairs,
    nested_chain,
    paper_figure2_set,
    random_well_nested,
    segmentable_bus,
    staircase,
)
from repro.comms.width import width
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.cst.power import PowerPolicy
from repro.analysis.verifier import verify_schedule


def cs(*pairs):
    return CommunicationSet(Communication(s, d) for s, d in pairs)


def run_verified(cset, n_leaves=None, **kw):
    schedule = PADRScheduler().schedule(cset, n_leaves=n_leaves, **kw)
    verify_schedule(schedule, cset).raise_if_failed()
    return schedule


class TestBasics:
    def test_empty_set_zero_rounds(self):
        s = PADRScheduler().schedule(CommunicationSet(()), n_leaves=8)
        assert s.n_rounds == 0
        assert s.power.total_units == 0

    def test_single_adjacent_pair(self):
        s = run_verified(cs((0, 1)), 8)
        assert s.n_rounds == 1
        assert list(s.performed()) == [Communication(0, 1)]

    def test_single_cross_root_pair(self):
        s = run_verified(cs((0, 7)), 8)
        assert s.n_rounds == 1

    def test_disjoint_pairs_one_round(self):
        cset = disjoint_pairs(4)
        s = run_verified(cset)
        assert s.n_rounds == 1
        assert len(s.rounds[0].performed) == 4

    def test_figure2_example(self):
        cset = paper_figure2_set()
        s = run_verified(cset, 16)
        assert s.n_rounds == width(cset) == 2

    def test_default_tree_size(self):
        s = PADRScheduler().schedule(cs((0, 5)))
        assert s.n_leaves == 8

    def test_schedule_metadata(self):
        s = run_verified(cs((0, 1)), 8)
        assert s.scheduler_name == "padr-csa"
        assert s.control_messages > 0
        assert s.control_words > 0


class TestInputValidation:
    def test_left_oriented_rejected(self):
        with pytest.raises(OrientationError):
            PADRScheduler().schedule(cs((5, 2)), n_leaves=8)

    def test_crossing_rejected(self):
        with pytest.raises(NotWellNestedError):
            PADRScheduler().schedule(cs((0, 2), (1, 3)), n_leaves=8)

    def test_validation_can_be_disabled_for_valid_input(self):
        s = PADRScheduler(validate_input=False).schedule(cs((0, 1)), n_leaves=8)
        assert s.n_rounds == 1


class TestOutermostFirstSelection:
    def test_outermost_scheduled_in_round_zero(self):
        cset = nested_chain(3)
        s = run_verified(cset)
        round0 = set(s.rounds[0].performed)
        assert Communication(0, 5) in round0

    def test_crossing_chain_outer_to_inner(self):
        cset = crossing_chain(4)
        s = run_verified(cset)
        order = [c for r in s.rounds for c in r.performed]
        assert order == sorted(cset.comms, key=lambda c: c.src)

    def test_independent_subtrees_progress_concurrently(self):
        # two staircase chains in different subtrees: scheduled in parallel
        cset = staircase(2, 2, gap=0)
        s = run_verified(cset)
        assert s.n_rounds == width(cset)
        assert len(s.rounds[0].performed) >= 2


class TestRoundCounts:
    @pytest.mark.parametrize("w", [1, 2, 3, 5, 8, 16, 33])
    def test_crossing_chain_exactly_w_rounds(self, w):
        s = run_verified(crossing_chain(w))
        assert s.n_rounds == w

    def test_segmentable_bus_single_round(self):
        cset = segmentable_bus([0, 4, 8, 12, 16])
        s = run_verified(cset)
        assert s.n_rounds == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sets_meet_width(self, seed):
        rng = np.random.default_rng(seed)
        cset = random_well_nested(12, 64, rng)
        s = run_verified(cset, 64)
        assert s.n_rounds == width(cset)


class TestPowerBehaviour:
    @pytest.mark.parametrize("w", [2, 8, 32, 128])
    def test_constant_max_changes_on_crossing_chains(self, w):
        s = run_verified(crossing_chain(w))
        assert s.power.max_switch_changes <= 2  # Theorem 8 in the strictest form

    @pytest.mark.parametrize("w", [2, 8, 32, 128])
    def test_constant_max_units_on_crossing_chains(self, w):
        s = run_verified(crossing_chain(w))
        assert s.power.max_switch_units <= 3

    def test_random_sets_bounded_changes(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            cset = random_well_nested(24, 96, rng)
            n = 128
            s = run_verified(cset, n)
            # Lemma 6/7: the word stream alternates at most twice per port
            # family, so a handful of changes bounds every switch.
            assert s.power.max_switch_changes <= 6

    def test_rebuild_policy_pays_per_round(self):
        cset = crossing_chain(8)
        lazy = PADRScheduler().schedule(cset)
        rebuild = PADRScheduler().schedule(cset, policy=PowerPolicy.rebuild())
        assert rebuild.power.total_units > lazy.power.total_units
        assert rebuild.power.max_switch_units >= 8  # root pays every round


class TestDistributedDiscipline:
    def test_phase1_runs_once_then_one_wave_per_round(self):
        cset = crossing_chain(4)
        sched = PADRScheduler()
        s = sched.schedule(cset)
        # waves: 1 (phase 1) + n_rounds (phase 2)
        n = cset.min_leaves()
        per_wave = 2 * n - 2
        assert s.control_messages == per_wave * (1 + s.n_rounds)

    # ``last_states``/``last_network`` introspect the per-switch objects,
    # which only the scalar engines build.
    def test_final_state_exhausted(self):
        sched = PADRScheduler(config=SchedulerConfig(engine="fast"))
        sched.schedule(crossing_chain(5))
        assert all(st.exhausted for st in sched.last_states.values())

    def test_all_pes_satisfied(self):
        sched = PADRScheduler(config=SchedulerConfig(engine="fast"))
        sched.schedule(paper_figure2_set(), n_leaves=16)
        assert sched.last_network.all_done


class TestLargerScenarios:
    def test_full_tree_dense_random(self):
        rng = np.random.default_rng(5)
        cset = random_well_nested(128, 256, rng)
        s = run_verified(cset, 256)
        assert s.n_rounds == width(cset)

    def test_wide_and_deep(self):
        cset = crossing_chain(64, n_leaves=256)
        s = run_verified(cset, 256)
        assert s.n_rounds == 64
        assert s.power.max_switch_changes <= 2
