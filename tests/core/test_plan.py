"""Tests for the general planner: arbitrary sets through the PADR core."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.decompose import decompose
from repro.analysis.verifier import verify_schedule
from repro.comms.generators import (
    crossing_chain,
    paper_figure2_set,
    random_arbitrary,
    random_well_nested,
)
from repro.comms.wellnested import is_well_nested
from repro.comms.width import width
from repro.core.base import ScheduleResult
from repro.core.csa import PADRScheduler
from repro.core.config import SchedulerConfig
from repro.core.plan import GENERAL_SCHEDULER_NAME, GeneralSchedule, schedule_general
from repro.core.schedule import Schedule
from repro.cst.network import CSTNetwork
from repro.cst.power import PowerPolicy
from repro.cst.switch import Switch, SwitchConfiguration
from repro.cst.topology import CSTTopology
from repro.exceptions import NotWellNestedError, SchedulingError
from repro.io import result_from_dict, result_to_dict, schedule_to_dict
from tests.conftest import arbitrary_set_st


def cs(*pairs):
    return CommunicationSet([Communication(s, d) for s, d in pairs])


def crossing_mixed():
    """A 4-pair set with a right crossing and a left pair."""
    return cs((0, 2), (1, 3), (7, 4), (5, 6))


class TestScheduleGeneral:
    def test_delivers_every_pair_exactly_once(self):
        cset = crossing_mixed()
        gs = schedule_general(cset, n_leaves=8)
        assert isinstance(gs, GeneralSchedule)
        assert sorted(gs.combined.performed()) == sorted(cset.comms)
        assert gs.delivered == tuple(sorted(cset.comms))
        assert gs.undelivered == ()

    def test_random_arbitrary_end_to_end(self):
        rng = np.random.default_rng(11)
        cset = random_arbitrary(20, 64, rng)
        gs = schedule_general(cset, n_leaves=64)
        assert set(gs.delivered) == set(cset.comms)
        assert gs.rounds_used >= gs.optimum_rounds >= 1
        assert gs.n_batches >= gs.lower_bound >= 1

    def test_well_nested_input_is_one_trivial_batch(self):
        cset = paper_figure2_set()
        direct = PADRScheduler().schedule(cset, n_leaves=16)
        gs = schedule_general(cset, n_leaves=16)
        assert gs.n_batches == 1
        assert gs.round_overhead == 0
        assert schedule_to_dict(gs.combined) == schedule_to_dict(direct)

    def test_combined_schedule_carries_general_name(self):
        gs = schedule_general(crossing_mixed(), n_leaves=8)
        assert gs.scheduler_name == GENERAL_SCHEDULER_NAME
        assert gs.combined.scheduler_name == GENERAL_SCHEDULER_NAME

    def test_packing_reaches_width_optimum_on_edge_disjoint_batches(self):
        # the two crossing right pairs and the two left pairs are
        # edge-compatible across orientations: packing at alpha=0 merges
        # the decomposed rounds back down to the input's width.
        gs = schedule_general(crossing_mixed(), n_leaves=8)
        assert gs.rounds_used == gs.optimum_rounds
        assert gs.merged_rounds > 0
        assert gs.overhead_ratio == 1.0

    def test_alpha_negative_rejected(self):
        with pytest.raises(SchedulingError):
            schedule_general(cs((0, 2), (1, 3)), n_leaves=4, alpha=-1.0)

    def test_oversized_set_rejected(self):
        with pytest.raises(SchedulingError):
            schedule_general(cs((0, 9)), n_leaves=8)

    def test_alpha_variants_still_deliver_everything(self):
        rng = np.random.default_rng(3)
        cset = random_arbitrary(12, 32, rng)
        for alpha in (0.0, 0.5, 10.0):
            gs = schedule_general(cset, n_leaves=32, alpha=alpha)
            assert set(gs.delivered) == set(cset.comms), alpha
            assert gs.alpha == alpha

    def test_alpha_zero_minimises_rounds_among_variants(self):
        rng = np.random.default_rng(9)
        cset = random_arbitrary(16, 64, rng)
        rounds = {
            alpha: schedule_general(cset, n_leaves=64, alpha=alpha).rounds_used
            for alpha in (0.0, 10.0)
        }
        assert rounds[0.0] <= rounds[10.0]

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        cset = random_arbitrary(10, 32, rng)
        a = schedule_general(cset, n_leaves=32)
        b = schedule_general(cset, n_leaves=32)
        assert schedule_to_dict(a.combined) == schedule_to_dict(b.combined)

    def test_explicit_decomposition_is_honoured(self):
        cset = cs((0, 2), (1, 3))
        dec = decompose(cset)
        gs = schedule_general(cset, n_leaves=4, decomposition=dec)
        assert gs.decomposition is dec
        assert gs.n_batches == dec.n_batches


class TestSuppliedNetwork:
    def test_network_policy_prices_the_batch_runs(self):
        # the per-batch reference runs are charged under the policy the
        # combined run is charged with, whichever way it is supplied.
        cset = cs((0, 5), (2, 7), (6, 1))
        inner = SchedulerConfig().build()
        plain = schedule_general(
            cset, inner=inner, n_leaves=8, policy=PowerPolicy.htree()
        )
        on_net = schedule_general(
            cset,
            inner=inner,
            network=CSTNetwork.of_size(8, policy=PowerPolicy.htree()),
        )
        assert plain.batch_power == on_net.batch_power == (20, 20, 20)
        assert plain.power_overhead_units == on_net.power_overhead_units == -8
        assert result_to_dict(on_net) == result_to_dict(plain)


class TestNoNetworkBuilt:
    """Without a network the general path replays on dict crossbar state:
    it builds no network, switch or configuration object, and routes each
    pair once, without the topology's path walks."""

    COUNTED = [
        (CSTNetwork, "__init__"),
        (Switch, "__init__"),
        (SwitchConfiguration, "__init__"),
        (CSTTopology, "path_connections"),
        (CSTTopology, "path_edges"),
    ]

    def test_general_fabric_like_sets(self, monkeypatch):
        calls = Counter()
        for owner, name in self.COUNTED:
            original = getattr(owner, name)

            def counted(*args, _key=f"{owner.__name__}.{name}", _f=original, **kw):
                calls[_key] += 1
                return _f(*args, **kw)

            monkeypatch.setattr(owner, name, counted)
        rng = np.random.default_rng(4)
        sets = [random_arbitrary(pairs, 256, rng) for pairs in (4, 8, 16)]
        sets.append(random_well_nested(8, 256, rng))
        scheduler = SchedulerConfig(decompose="auto").build()
        for cset in sets:
            result = scheduler.schedule(cset, n_leaves=256)
            assert sorted(result.delivered) == sorted(cset.comms)
        assert isinstance(result, Schedule)  # the well-nested control
        assert calls == Counter()


class TestSchedulerDecomposeModes:
    def test_auto_lowers_arbitrary_sets(self):
        s = PADRScheduler()
        gs = s.schedule(crossing_mixed(), n_leaves=8, decompose="auto")
        assert isinstance(gs, GeneralSchedule)
        assert set(gs.delivered) == set(crossing_mixed().comms)

    def test_strict_default_rejects_arbitrary_sets(self):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            PADRScheduler().schedule(crossing_mixed(), n_leaves=8)

    def test_never_pre_rejects(self):
        with pytest.raises(NotWellNestedError):
            PADRScheduler().schedule(
                cs((0, 2), (1, 3)), n_leaves=4, decompose="never"
            )

    def test_invalid_mode_rejected(self):
        with pytest.raises(SchedulingError):
            PADRScheduler().schedule(cs((0, 1)), n_leaves=2, decompose="maybe")

    def test_config_mode_is_the_default(self):
        cfg = SchedulerConfig(decompose="auto")
        gs = cfg.build().schedule(crossing_mixed(), n_leaves=8)
        assert isinstance(gs, GeneralSchedule)

    def test_auto_on_well_nested_input_is_bit_identical(self):
        cset = paper_figure2_set()
        direct = PADRScheduler().schedule(cset, n_leaves=16)
        auto = PADRScheduler().schedule(cset, n_leaves=16, decompose="auto")
        assert isinstance(auto, Schedule)
        assert schedule_to_dict(auto) == schedule_to_dict(direct)


class TestScheduleResultProtocol:
    def test_general_schedule_conforms(self):
        gs = schedule_general(crossing_mixed(), n_leaves=8)
        assert isinstance(gs, ScheduleResult)
        stats = gs.stats()
        assert stats.n_comms == 4
        assert stats.n_rounds == gs.rounds_used
        assert gs.power_units == gs.combined.power.total_units

    def test_plain_schedule_conforms(self):
        s = PADRScheduler().schedule(paper_figure2_set(), n_leaves=16)
        assert isinstance(s, ScheduleResult)
        assert s.rounds_used == s.n_rounds
        assert s.undelivered == ()


class TestGeneralScheduleSerialization:
    def test_round_trip_preserves_accounting(self):
        rng = np.random.default_rng(17)
        cset = random_arbitrary(10, 32, rng)
        gs = schedule_general(cset, n_leaves=32)
        back = result_from_dict(result_to_dict(gs))
        assert isinstance(back, GeneralSchedule)
        assert back.delivered == gs.delivered
        assert back.rounds_used == gs.rounds_used
        assert back.power_units == gs.power_units
        assert back.n_batches == gs.n_batches
        assert back.lower_bound == gs.lower_bound
        assert back.batch_orientations == gs.batch_orientations
        assert back.summary() == gs.summary()

    def test_result_to_dict_dispatches_both_kinds(self):
        plain = PADRScheduler().schedule(paper_figure2_set(), n_leaves=16)
        general = schedule_general(crossing_mixed(), n_leaves=8)
        assert result_to_dict(plain)["format"] == "cst-padr/schedule"
        assert result_to_dict(general)["format"] == "cst-padr/general-schedule"
        assert isinstance(result_from_dict(result_to_dict(plain)), Schedule)


class TestGeneralProperties:
    @given(cset=arbitrary_set_st(max_pairs=6, n_leaves=32))
    @settings(max_examples=40, deadline=None)
    def test_exactly_once_delivery(self, cset):
        gs = schedule_general(cset, n_leaves=32)
        performed = list(gs.combined.performed())
        assert sorted(performed) == sorted(cset.comms)
        assert len(performed) == len(set(performed))

    @given(cset=arbitrary_set_st(max_pairs=6, n_leaves=32))
    @settings(max_examples=40, deadline=None)
    def test_rounds_bounded_by_sequential_sum(self, cset):
        gs = schedule_general(cset, n_leaves=32)
        assert gs.optimum_rounds <= gs.rounds_used <= gs.sequential_rounds
        assert gs.merged_rounds == gs.sequential_rounds - gs.rounds_used


class TestDecomposeLayering:
    """First-fit well-nested layering, one orientation at a time."""

    def test_well_nested_set_is_one_layer(self):
        cset = crossing_chain(4)
        batches = decompose(cset).batches
        assert len(batches) == 1
        assert batches[0].cset == cset

    def test_crossing_pair_splits(self):
        assert decompose(cs((0, 2), (1, 3))).n_batches == 2

    def test_layers_partition_the_set(self):
        cset = cs((0, 4), (1, 5), (2, 6), (3, 7))  # fully crossing ladder
        batches = decompose(cset).batches
        flat = sorted(c for b in batches for c in b.cset)
        assert flat == sorted(cset.comms)
        assert len(batches) == 4  # every pair crosses every other

    def test_each_right_layer_is_well_nested(self):
        cset = cs((0, 2), (1, 3), (4, 6), (5, 7))
        for batch in decompose(cset).batches:
            assert is_well_nested(batch.cset)

    def test_empty(self):
        assert decompose(CommunicationSet(())).batches == ()

    def test_split_by_orientation(self):
        mixed = cs((0, 1), (3, 2), (4, 7), (6, 5))
        batches = decompose(mixed).batches
        right = sorted(c for b in batches if b.orientation == "right" for c in b.cset)
        left = sorted(c for b in batches if b.orientation == "left" for c in b.cset)
        assert right == [Communication(0, 1), Communication(4, 7)]
        assert left == [Communication(3, 2), Communication(6, 5)]

    def test_pure_right(self):
        batches = decompose(cs((0, 1))).batches
        assert [b.orientation for b in batches] == ["right"]


class TestSequentialAccounting:
    """``sequential_rounds`` / ``batch_power``: the batch-after-batch run."""

    def test_crossing_pair(self):
        cset = cs((0, 2), (1, 3))
        gs = schedule_general(cset, n_leaves=8)
        verify_schedule(gs.combined, cset).raise_if_failed()
        assert gs.n_batches == 2

    def test_mixed_orientation_with_crossings(self):
        cset = cs((0, 2), (1, 3), (7, 5), (6, 4))
        gs = schedule_general(cset, n_leaves=8)
        verify_schedule(gs.combined, cset).raise_if_failed()

    def test_well_nested_degenerates_to_csa(self):
        cset = crossing_chain(3)
        gs = schedule_general(cset)
        verify_schedule(gs.combined, cset).raise_if_failed()
        assert gs.rounds_used == gs.sequential_rounds == 3
        assert gs.n_batches == 1

    def test_empty_set(self):
        gs = schedule_general(CommunicationSet(()), n_leaves=8)
        assert gs.rounds_used == gs.sequential_rounds == 0

    def test_empty_set_has_no_batches(self):
        gs = schedule_general(CommunicationSet(()), n_leaves=8)
        assert gs.n_batches == 0 and gs.batch_power == ()
        assert gs.combined.n_rounds == 0

    def test_mixed_set_scheduled_correctly(self):
        mixed = cs((0, 3), (1, 2), (7, 4), (6, 5))
        gs = schedule_general(mixed, n_leaves=8)
        verify_schedule(gs.combined, mixed).raise_if_failed()

    def test_round_indices_contiguous(self):
        gs = schedule_general(cs((0, 1), (3, 2)), n_leaves=8)
        assert [r.index for r in gs.combined.rounds] == list(range(gs.rounds_used))

    def test_sequential_rounds_are_sum_of_oriented_widths(self):
        # right-oriented pairs on leaves 0..15, left-oriented on 16..31:
        # disjoint endpoints by construction.
        right = cs((0, 15), (1, 14), (2, 3))
        left = cs((31, 16), (30, 17))
        mixed = CommunicationSet(list(right) + list(left))
        gs = schedule_general(mixed, n_leaves=32)
        verify_schedule(gs.combined, mixed).raise_if_failed()
        topo = CSTTopology.of(32)
        assert gs.sequential_rounds == width(right, topo) + width(
            left.mirrored(32), topo
        )

    def test_pure_right_set_degenerates_to_csa(self):
        cset = cs((0, 3), (1, 2))
        gs = schedule_general(cset, n_leaves=8)
        verify_schedule(gs.combined, cset).raise_if_failed()
        assert gs.rounds_used == 2

    def test_power_charged_across_batches(self):
        gs = schedule_general(cs((0, 1), (3, 2)), n_leaves=8)
        assert gs.power_units > 0 and all(p > 0 for p in gs.batch_power)
        assert gs.combined.power.rounds == gs.rounds_used

    @given(cset=arbitrary_set_st(max_pairs=8, n_leaves=32))
    @settings(max_examples=80, deadline=None)
    def test_any_valid_set_schedules_correctly(self, cset):
        # the batch-after-batch run: each batch's reference schedule is
        # valid on its own and takes the rounds sequential_rounds sums.
        gs = schedule_general(cset, n_leaves=32)
        assert len(gs.decomposition.batches) == len(gs.batch_rounds)
        for batch, rounds in zip(gs.decomposition.batches, gs.batch_rounds):
            form = batch.well_nested_form(32)
            ref = PADRScheduler().schedule(form, n_leaves=32)
            verify_schedule(ref, form).raise_if_failed()
            assert ref.n_rounds == rounds


class TestPackedRounds:
    """``rounds_used``: batch rounds merged where their edges are disjoint."""

    def test_correctness_on_crossings(self):
        cset = cs((0, 4), (1, 5), (2, 6), (3, 7))
        gs = schedule_general(cset, n_leaves=8)
        verify_schedule(gs.combined, cset).raise_if_failed()

    def test_never_more_rounds_than_sequential(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            right = random_well_nested(5, 32, rng)
            gs = schedule_general(right, n_leaves=32)
            assert gs.rounds_used <= gs.sequential_rounds

    def test_opposite_orientations_interleave(self):
        # a right chain and its left mirror use opposite edge directions:
        # the packed schedule takes max(w, w), not w + w.
        right = [Communication(0, 15), Communication(1, 14)]
        left = [Communication(13, 2), Communication(12, 3)]
        cset = CommunicationSet(right + left)
        gs = schedule_general(cset, n_leaves=16)
        verify_schedule(gs.combined, cset).raise_if_failed()
        assert gs.rounds_used < gs.sequential_rounds

    @given(cset=arbitrary_set_st(max_pairs=8, n_leaves=32))
    @settings(max_examples=80, deadline=None)
    def test_any_valid_set_schedules_correctly(self, cset):
        gs = schedule_general(cset, n_leaves=32)
        verify_schedule(gs.combined, cset).raise_if_failed()
        assert gs.rounds_used <= gs.sequential_rounds
