"""Tests for the general planner: arbitrary sets through the PADR core."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.decompose import decompose
from repro.comms.generators import (
    paper_figure2_set,
    random_arbitrary,
    random_well_nested,
)
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
