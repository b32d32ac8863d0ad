"""The executor's dispatch rule: in this process unless the pool pays back
its round trip.

Every decision here is fixed through the seam — the rule's measurements
and CPU count are plain attributes of :class:`WaveCost`, and
:func:`pin_dispatch` pins a side — so no assertion depends on timing.
"""

from __future__ import annotations

import gc
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comms.communication import Communication, CommunicationSet
from repro.core.config import SchedulerConfig
from repro.exceptions import SchedulingError
from repro.fabric import FabricController
from repro.io import cset_to_dict
from repro.obs import Instrumentation, MetricsRegistry
from repro.service import SchedulerService
from repro.service.pipeline import (
    REQUEST_UNITS,
    WaveCost,
    WorkerExecutor,
    pin_dispatch,
    predicted_units,
)
from tests.conftest import arbitrary_set_st, wellnested_set_st


def cs(*pairs):
    return CommunicationSet([Communication(s, d) for s, d in pairs])


def measured(cost: WaveCost, *, inline: float, pooled: float, overhead: float, cpus=2):
    """Substitute the rule's measurements (seconds per unit, seconds)."""
    cost.cpus = cpus
    cost.inline_samples = [inline] * WaveCost.MEASURED
    cost.pooled_samples = [pooled] * WaveCost.MEASURED
    cost.overhead_samples = [overhead] * WaveCost.MEASURED
    return cost


#: measurements under which any wave is cheap / heavy next to the overhead
CHEAP = dict(inline=1e-9, pooled=1e-9, overhead=10.0)
HEAVY = dict(inline=1.0, pooled=1e-9, overhead=1e-9)

WAVE = [cs((0, 3), (1, 2)), cs((4, 7), (5, 6)), cs((0, 1)), cs((2, 5), (3, 4))]


def counts(obs: Instrumentation, door: str) -> dict[str, int]:
    snap = obs.metrics.snapshot()["counters"]
    return {
        side: snap.get(f"{door}.dispatch.{side}{{run={obs.run}}}", 0)
        for side in ("inline", "pooled")
    }


@pytest.fixture
def obs():
    return Instrumentation(MetricsRegistry(), run="d")


class TestRule:
    """The rule itself, on a bare :class:`WaveCost`."""

    def test_cheap_wave_stays_in_process(self):
        assert not measured(WaveCost(), **CHEAP).pooled(10_000, 2, 2)

    def test_heavy_wave_with_two_processes_goes_to_the_pool(self):
        assert measured(WaveCost(), **HEAVY).pooled(100, 2, 2)

    @pytest.mark.parametrize("calls, processes, cpus", [(2, 2, 1), (1, 2, 2), (4, 1, 2)])
    def test_one_way_parallelism_stays_in_process(self, calls, processes, cpus):
        cost = measured(WaveCost(), **HEAVY, cpus=cpus)
        assert not cost.pooled(10**9, calls, processes)

    def test_break_even(self):
        # units * (inline - pooled / C) against the overhead, C = 2
        cost = measured(WaveCost(), inline=3e-6, pooled=4e-6, overhead=1e-3)
        assert not cost.pooled(999, 2, 2)  # saves 0.999 ms
        assert cost.pooled(1001, 2, 2)  # saves 1.001 ms
        # a third process divides the pooled compute further
        cost.cpus = 3
        assert cost.pooled(700, 3, 3)  # 700 * (3 - 4/3) us = 1.17 ms

    def test_each_side_without_a_measurement_is_tried(self):
        cost = WaveCost()
        cost.cpus = 2
        for _ in range(WaveCost.MEASURED):
            assert cost.pooled(1, 2, 2)  # the pool first
            cost.add_pooled(100, 1e-3, 5.0)
        for _ in range(WaveCost.MEASURED):
            assert not cost.pooled(10**9, 2, 2)  # then this process
            cost.add_inline(100, 1.0)
        assert cost.pooled(10**9, 2, 2)  # then the rule
        assert not cost.pooled(1, 2, 2)

    def test_no_measurement_never_overrides_one_way_parallelism(self):
        cost = WaveCost()
        cost.cpus = 1
        assert not cost.pooled(10**9, 4, 4)

    def test_refresh_tries_the_other_side(self):
        cost = measured(WaveCost(), **CHEAP)
        picks = [cost.pooled(1, 2, 2) for _ in range(2 * WaveCost.REFRESH)]
        flipped = [i + 1 for i, pooled in enumerate(picks) if pooled]
        assert flipped == [WaveCost.REFRESH, 2 * WaveCost.REFRESH]

    def test_pinning_overrides_the_rule(self):
        cost = measured(WaveCost(), **CHEAP, cpus=1)
        cost.pinned = True
        assert cost.pooled(1, 1, 1)
        cost.pinned = False
        assert not measured(cost, **HEAVY).pooled(10**9, 2, 2)

    def test_medians_of_the_last_samples(self):
        cost = WaveCost()
        for overhead in (1.0, 9.0, 2.0):
            cost.add_pooled(10, 1.0, overhead)
        assert cost.overhead_samples == [1.0, 9.0, 2.0]
        for _ in range(WaveCost.SAMPLES):
            cost.add_pooled(10, 2.0, 3.0)
        assert cost.overhead_samples == [3.0] * WaveCost.SAMPLES
        assert cost.pooled_samples == [0.2] * WaveCost.SAMPLES

    def test_predicted_units_read_pairs_and_tree_depth(self):
        one = (0, cset_to_dict(cs((0, 3), (1, 2))), 256)
        assert predicted_units([one]) == 2 * 9 + REQUEST_UNITS
        # malformed payloads count as empty
        assert predicted_units([(1, {"format": "bogus"}, 8), (2, None, "x")]) == (
            2 * REQUEST_UNITS
        )


class TestServiceDispatch:
    """The batch service's waves through the seam, counted by telemetry."""

    def test_cheap_wave_runs_in_process(self, obs):
        with SchedulerService(workers=2, obs=obs) as svc:
            measured(svc._executor.cost, **CHEAP)
            assert svc(WAVE, n_leaves=8).n_done == len(WAVE)
            assert svc._executor._pool is None  # never forked
        assert counts(obs, "service") == {"inline": 1, "pooled": 0}

    def test_heavy_wave_goes_to_the_pool(self, obs):
        with SchedulerService(workers=2, obs=obs) as svc:
            measured(svc._executor.cost, **HEAVY)
            assert svc(WAVE, n_leaves=8).n_done == len(WAVE)
            assert svc._executor._pool is not None
        assert counts(obs, "service") == {"inline": 0, "pooled": 1}

    @pytest.mark.parametrize("cpus, wave", [(1, WAVE), (2, WAVE[:1])], ids=["one-cpu", "one-call"])
    def test_one_way_parallelism_runs_in_process(self, obs, cpus, wave):
        with SchedulerService(workers=2, obs=obs) as svc:
            measured(svc._executor.cost, **HEAVY, cpus=cpus)
            assert svc(wave, n_leaves=8).n_done == len(wave)
            assert svc._executor._pool is None
        assert counts(obs, "service") == {"inline": 1, "pooled": 0}

    def test_each_side_is_tried_then_the_rule_decides(self, obs):
        was_enabled = gc.isenabled()
        gc.disable()  # a full collection during a wave would withhold its sample
        try:
            with SchedulerService(workers=2, obs=obs) as svc:
                cost = svc._executor.cost
                cost.cpus = 2
                # two shapes per wave: two calls, not one same-shape group;
                # distinct pairs per wave: every request misses the cache
                waves = [[cs((0, 1 + k)), cs((2 + k, 15), (10, 14))] for k in range(8)]
                svc(waves[0], n_leaves=16)  # forks the pool: no sample
                assert cost.overhead_samples == cost.pooled_samples == []
                for k in range(1, 1 + WaveCost.MEASURED):  # the pool, measured
                    svc(waves[k], n_leaves=16)
                    assert len(cost.overhead_samples) == len(cost.pooled_samples) == k
                assert cost.inline_samples == []
                for k in range(1, 1 + WaveCost.MEASURED):  # then this process
                    svc(waves[WaveCost.MEASURED + k], n_leaves=16)
                    assert len(cost.inline_samples) == k
            assert counts(obs, "service") == {
                "inline": WaveCost.MEASURED,
                "pooled": 1 + WaveCost.MEASURED,
            }
            # the overhead histogram holds exactly the samples the rule reads
            hist = obs.metrics.snapshot()["histograms"]["service.pool.overhead_ms{run=d}"]
            assert hist["count"] == WaveCost.MEASURED
            assert hist["sum"] == pytest.approx(sum(cost.overhead_samples) * 1e3)
        finally:
            if was_enabled:
                gc.enable()

    def test_pinned_pool_takes_even_a_lone_request(self, obs):
        with SchedulerService(workers=2, obs=obs) as svc:
            pin_dispatch(svc, True)
            measured(svc._executor.cost, **CHEAP, cpus=1)
            assert svc([cs((0, 1))], n_leaves=8).n_done == 1
            assert svc._executor._pool is not None
            pin_dispatch(svc, False)
            measured(svc._executor.cost, **HEAVY)
            assert svc([cs((2, 3)), cs((4, 5))], n_leaves=8).n_done == 2
        assert counts(obs, "service") == {"inline": 1, "pooled": 1}

    def test_executors_without_a_pool_keep_their_path(self, obs):
        svc = SchedulerService(workers=1, obs=obs)
        assert svc._executor.cost is None
        pin_dispatch(svc, False)  # nothing to pin
        with pytest.raises(SchedulingError, match="no worker pool"):
            pin_dispatch(svc, True)
        assert svc(WAVE, n_leaves=8).n_done == len(WAVE)
        assert counts(obs, "service") == {"inline": 0, "pooled": 0}


class TestFabricDispatch:
    """A fabric decides once per wave, across all of the wave's shards."""

    @staticmethod
    def wave(shards):
        return [(i, cset_to_dict(cs((0, 1 + i))), 8) for i in range(len(shards))], shards

    def test_cheap_wave_runs_every_shard_in_process(self, obs):
        with FabricController(2, 8, obs=obs) as fab:
            measured(fab.cost, **CHEAP)
            out = fab.execute(*self.wave([0, 1]))
            assert all(e._pool is None for e in fab._executors)
        assert {status for _, status, _ in out} == {"ok"}
        assert counts(obs, "fabric") == {"inline": 1, "pooled": 0}

    def test_heavy_wave_over_two_shards_goes_to_their_workers(self, obs):
        with FabricController(2, 8, obs=obs) as fab:
            measured(fab.cost, **HEAVY)
            out = fab.execute(*self.wave([0, 1]))
            assert all(e._pool is not None for e in fab._executors)
        assert {status for _, status, _ in out} == {"ok"}
        assert counts(obs, "fabric") == {"inline": 0, "pooled": 1}

    def test_one_shard_wave_runs_in_process(self, obs):
        with FabricController(2, 8, obs=obs) as fab:
            measured(fab.cost, **HEAVY)
            fab.execute(*self.wave([1, 1, 1]))
            assert all(e._pool is None for e in fab._executors)
        assert counts(obs, "fabric") == {"inline": 1, "pooled": 0}

    def test_fabrics_without_a_pool_keep_their_path(self, obs):
        for fab in (FabricController(2, 8, parallel=False, obs=obs), FabricController(1, 8, obs=obs)):
            assert fab.cost is None
            fab.execute(*self.wave([0] * fab.tree_count))
        assert counts(obs, "fabric") == {"inline": 0, "pooled": 0}


# -- the same responses on every side -----------------------------------------

CONFIG = SchedulerConfig()  # strict: a crossing set fails permanently
LEAVES = 32


@pytest.fixture(scope="module")
def executors():
    pinned = WorkerExecutor(CONFIG, processes=2, timeout=60.0)
    pin_dispatch(pinned, True)
    sides = {
        "pool": pinned,
        "inline": WorkerExecutor(CONFIG),
        "dispatch": WorkerExecutor(CONFIG, processes=2, timeout=60.0),
    }
    yield sides
    for executor in sides.values():
        executor.close()


REQUESTS = st.one_of(
    wellnested_set_st(max_pairs=6, n_leaves=LEAVES).map(lambda c: (cset_to_dict(c), LEAVES)),
    arbitrary_set_st(max_pairs=6, n_leaves=LEAVES).map(lambda c: (cset_to_dict(c), LEAVES)),
    st.just(({"format": "bogus"}, LEAVES)),  # permanent: malformed payload
    st.just((cset_to_dict(cs((0, 1))), "x")),  # transient: a TypeError in the worker
)


@st.composite
def waves(draw):
    """Singles of every outcome, plus same-shape groups (one maybe poisoned)."""
    items = draw(st.lists(REQUESTS, min_size=1, max_size=8))
    singles = [(i, data, n) for i, (data, n) in enumerate(items)]
    groups = []
    for g in range(draw(st.integers(0, 2))):
        base = draw(wellnested_set_st(max_pairs=3, n_leaves=LEAVES // 2))
        group = [
            (100 * (g + 1) + k, cset_to_dict(cs(*[(c.src + k, c.dst + k) for c in base])), LEAVES)
            for k in range(draw(st.integers(2, 3)))
        ]
        if draw(st.booleans()):
            group.append((100 * (g + 1) + 9, {"format": "bogus"}, LEAVES))
        groups.append(group)
    return singles, groups


class TestSameResponsesEverySide:
    @given(wave=waves())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_pool_inline_and_dispatch_agree_byte_for_byte(self, executors, wave):
        singles, groups = wave
        out = {
            side: json.dumps(executor.run(singles, groups))
            for side, executor in executors.items()
        }
        assert out["pool"] == out["inline"] == out["dispatch"]
        statuses = {status for _, status, _ in json.loads(out["inline"])}
        assert statuses <= {"ok", "permanent", "transient"}
