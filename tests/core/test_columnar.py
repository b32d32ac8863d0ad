"""Unit tests for the columnar struct-of-arrays Phase-2 kernel.

The property suite (``tests/properties/test_property_columnar.py``)
establishes bit-identical parity on random workloads; these tests pin
the *dispatch* behaviour — when the kernel may run, when it must stand
aside, and that the write-back leaves a caller-supplied network in
exactly the state the scalar engine would have left it.
"""

import numpy as np
import pytest

from repro.comms.generators import (
    disjoint_pairs,
    nested_chain,
    paper_figure2_set,
    random_well_nested,
)
from repro.core.columnar import schedule_batch
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.cst.faults import DeadSwitchFault, inject
from repro.cst.network import CSTNetwork
from repro.cst.power import PowerPolicy
from repro.exceptions import ReproError

N = 16


def _columnar_scheduler(**overrides):
    cfg = SchedulerConfig(**{"engine": "auto", **overrides})
    return PADRScheduler(config=cfg)


def _assert_equal(a, b):
    assert [r.performed for r in a.rounds] == [r.performed for r in b.rounds]
    assert [r.writers for r in a.rounds] == [r.writers for r in b.rounds]
    assert a.power.total_units == b.power.total_units
    assert a.power.per_switch_units == b.power.per_switch_units
    assert a.control_messages == b.control_messages
    assert a.physical_messages == b.physical_messages


class TestDispatchGuards:
    """``_columnar_applicable`` must veto the kernel outside its contract."""

    def test_plain_run_takes_columnar(self):
        sched = _columnar_scheduler()
        assert sched._columnar_applicable(N, None, None)

    def test_fast_engine_vetoes(self):
        sched = _columnar_scheduler(engine="fast")
        assert not sched._columnar_applicable(N, None, None)

    def test_eager_teardown_vetoes(self):
        sched = _columnar_scheduler()
        assert not sched._columnar_applicable(N, None, PowerPolicy.eager())
        net = CSTNetwork.of_size(N, policy=PowerPolicy.eager())
        assert not sched._columnar_applicable(N, net, None)

    def test_faulted_network_vetoes(self):
        sched = _columnar_scheduler()
        net = CSTNetwork.of_size(N)
        inject(net, 1, DeadSwitchFault())
        assert not sched._columnar_applicable(N, net, None)

    def test_used_network_vetoes(self):
        sched = _columnar_scheduler()
        net = CSTNetwork.of_size(N)
        sched.schedule(paper_figure2_set(), network=net)
        assert net.rounds_run > 0
        assert not sched._columnar_applicable(N, net, None)

    def test_vetoed_run_is_still_bit_identical(self):
        """Outside the guards the scalar path runs the same schedule."""
        cset = paper_figure2_set()
        plain = _columnar_scheduler().schedule(cset, n_leaves=N)
        compat = _columnar_scheduler(engine="fast").schedule(cset, n_leaves=N)
        _assert_equal(plain, compat)


class TestWriteBack:
    """Columnar on a fresh network ends in the scalar engine's final state."""

    @pytest.mark.parametrize(
        "cset",
        [paper_figure2_set(), nested_chain(3, 16), disjoint_pairs(4, stride=2)],
        ids=["fig2", "nested", "disjoint"],
    )
    def test_network_state_matches_fast_engine(self, cset):
        net_col = CSTNetwork.of_size(N)
        net_fast = CSTNetwork.of_size(N)
        col = _columnar_scheduler().schedule(cset, network=net_col)
        fast = PADRScheduler(config=SchedulerConfig(engine="fast")).schedule(
            cset, network=net_fast
        )
        _assert_equal(col, fast)
        assert net_col.rounds_run == net_fast.rounds_run
        for hid, sw_fast in net_fast.switches.items():
            sw_col = net_col.switches[hid]
            assert sw_col.configuration == sw_fast.configuration, hid
            assert sw_col.config_changes == sw_fast.config_changes, hid
            assert sw_col.rounds_committed == sw_fast.rounds_committed, hid
        assert net_col.meter.total_units == net_fast.meter.total_units
        assert net_col.meter.total_changes == net_fast.meter.total_changes
        for pe_col, pe_fast in zip(net_col.pes, net_fast.pes):
            assert pe_col.role is pe_fast.role

    def test_second_run_on_same_network_stays_consistent(self):
        """A persistent network serves back-to-back schedules correctly:
        run 1 takes the kernel, run 2 falls back (rounds_run > 0) — the
        results must match a scalar scheduler doing the same sequence."""
        csets = [paper_figure2_set(), nested_chain(2, 16)]
        net_col = CSTNetwork.of_size(N)
        net_fast = CSTNetwork.of_size(N)
        col_sched = _columnar_scheduler()
        fast_sched = PADRScheduler(config=SchedulerConfig(engine="fast"))
        for cset in csets:
            _assert_equal(
                col_sched.schedule(cset, network=net_col),
                fast_sched.schedule(cset, network=net_fast),
            )
        assert net_col.rounds_run == net_fast.rounds_run
        assert net_col.meter.total_units == net_fast.meter.total_units


class TestReusePhase1:
    def test_cached_phase1_matches_fast_engine_run_for_run(self):
        """The cached second run skips the upward wave, so its control
        accounting legitimately shrinks by one wave — but it must shrink
        *identically* to the scalar fast engine's cached run."""
        cset = paper_figure2_set()
        col = _columnar_scheduler(reuse_phase1=True)
        fast = PADRScheduler(
            config=SchedulerConfig(engine="fast", reuse_phase1=True)
        )
        for _ in range(2):
            _assert_equal(
                col.schedule(cset, n_leaves=N), fast.schedule(cset, n_leaves=N)
            )

    def test_different_roles_miss_the_cache(self):
        sched = _columnar_scheduler(reuse_phase1=True)
        a = sched.schedule(paper_figure2_set(), n_leaves=N)
        b = sched.schedule(nested_chain(3, 16), n_leaves=N)
        fresh = _columnar_scheduler()
        _assert_equal(a, fresh.schedule(paper_figure2_set(), n_leaves=N))
        _assert_equal(b, fresh.schedule(nested_chain(3, 16), n_leaves=N))


class TestScheduleBatch:
    def test_empty_batch(self):
        assert schedule_batch([], n_leaves=N) == []

    def test_mixed_shapes_match_solo(self):
        rng = np.random.default_rng(3)
        csets = [random_well_nested(k, N, rng) for k in (1, 3, 5)]
        cfg = SchedulerConfig(engine="auto")
        solo = PADRScheduler(config=cfg)
        for got, cset in zip(schedule_batch(csets, n_leaves=N, config=cfg), csets):
            _assert_equal(got, solo.schedule(cset, n_leaves=N))

    def test_invalid_set_rejected_when_validating(self):
        from repro.comms.communication import Communication, CommunicationSet

        crossing = CommunicationSet(
            (Communication(0, 2), Communication(1, 3))
        )
        cfg = SchedulerConfig(engine="auto", validate_input=True)
        with pytest.raises(ReproError):
            schedule_batch([crossing], n_leaves=N, config=cfg)

    def test_reference_config_falls_back_but_matches(self):
        cset = paper_figure2_set()
        cfg = SchedulerConfig(engine="reference")
        (got,) = schedule_batch([cset], n_leaves=N, config=cfg)
        _assert_equal(got, PADRScheduler(config=cfg).schedule(cset, n_leaves=N))

    def test_fast_engine_never_runs_the_kernel(self, monkeypatch):
        """``engine="fast"`` walks per-switch state in a batch too, as
        :meth:`SchedulerConfig.selects_columnar` says."""
        import repro.core.columnar as columnar

        def no_kernel(*args, **kwargs):
            raise AssertionError("the columnar kernel ran")

        monkeypatch.setattr(columnar, "ColumnarRun", no_kernel)
        rng = np.random.default_rng(8)
        csets = [random_well_nested(8, 32, rng) for _ in range(3)]
        cfg = SchedulerConfig(engine="fast")
        assert not cfg.selects_columnar(32)
        solo = PADRScheduler(config=cfg)
        for got, cset in zip(schedule_batch(csets, n_leaves=32, config=cfg), csets):
            _assert_equal(got, solo.schedule(cset, n_leaves=32))
